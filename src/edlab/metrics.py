"""Error/disturbance functionals and the inequalities that relate them.

Two families of figures for the same (state, channel) pair:

* RMS noise-operator quantities: the disturbance eta = <(U^dag B U - B)^2>^(1/2)
  evaluated on the dilated state (a sum over the channel's Kraus blocks, see
  ``channels.kraus_of``), and the measurement error
  eps = <(U^dag (X_p/g) U - X_s)^2>^(1/2) for a pointer coupling.  These are
  properties of the state actually measured.
* Distribution-distance quantities: Wasserstein-2 distances between the
  observable's probability distribution before and after the channel
  (disturbance), or between the calibrated pointer readout distribution and
  the ideal one (error).  Maximized over state families elsewhere, these
  quantify the device's worst case rather than the state at hand.

A weak-valued estimator of the RMS disturbance is included: it rebuilds
eta from the joint quasiprobability of a weak observable reading before the
channel and a strong one after, and agrees with the noise-operator value
identically when the bins are the native grid points.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .channels import (
    Channel,
    SlitChannel,
    VonNeumannChannel,
    apply_von_neumann,
    check_confinement,
    embed_joint,
    kraus_of,
)
from .grids import (
    GridSpec,
    ProbabilityDistribution,
    WaveFunction,
    distribution,
    kernel_transform,
    moments,
)

logger = logging.getLogger(__name__)

ObservableName = str  # "X" or "P"


# ---------------------------------------------------------------------------
# Wasserstein-2 by exact 1D quantile coupling
# ---------------------------------------------------------------------------

def wasserstein2(d1: ProbabilityDistribution, d2: ProbabilityDistribution) -> float:
    """W2 distance between two atomic distributions.

    In 1D the optimal coupling pairs equal quantile levels, so W2^2 is the
    integral over u in (0,1] of (F^-1(u) - G^-1(u))^2.  Both quantile
    functions are step functions; we merge their jump levels and sum exactly.

    The merge is one concatenation of the two cumulative sums, sorted in
    place and deduplicated; one array of levels shifted down by 1e-15 serves
    both binary searches and then holds the level steps.  A support whose
    weights are all positive is not copied.
    """
    x, cx = _cumulative_levels(d1)
    y, cy = _cumulative_levels(d2)
    levels = np.concatenate((cx, cy))
    levels.sort()
    distinct = np.empty(levels.size, dtype=bool)
    distinct[0] = True
    np.not_equal(levels[1:], levels[:-1], out=distinct[1:])
    levels = levels[distinct]
    shifted = np.subtract(levels, 1e-15)
    ix = np.searchsorted(cx, shifted)
    iy = np.searchsorted(cy, shifted)
    np.minimum(ix, len(x) - 1, out=ix)
    np.minimum(iy, len(y) - 1, out=iy)
    du = shifted
    du[0] = levels[0]
    np.subtract(levels[1:], levels[:-1], out=du[1:])
    gap = x[ix]
    gap -= y[iy]
    gap *= gap
    gap *= du
    return float(np.sqrt(np.sum(gap)))


def _cumulative_levels(d: ProbabilityDistribution) -> tuple[np.ndarray, np.ndarray]:
    """The support points of positive weight and their cumulative weights,
    normalized to end at 1."""
    support, w = d.support, d.weights * d.spacing
    positive = w > 0
    if not positive.all():
        support, w = support[positive], w[positive]
    c = np.cumsum(w, out=w)
    c /= c[-1]
    return support, c


# ---------------------------------------------------------------------------
# Observables on Kraus branches
# ---------------------------------------------------------------------------

def _apply_observable(
    g: GridSpec, amps: np.ndarray, observable: ObservableName, out: np.ndarray | None = None
) -> np.ndarray:
    """B_s along the system axis (axis 0) of an amplitude array, spectrally
    for P; ``out=amps`` applies it in place."""
    along = (-1,) + (1,) * (amps.ndim - 1)
    if observable == "X":
        return np.multiply(g.x.reshape(along), amps, out=out)
    if observable == "P":
        mom = kernel_transform(amps, 0, g, -1, out=out)
        mom *= g.p.reshape(along)
        return kernel_transform(mom, 0, g, +1, out=mom)
    raise ValueError(f"observable must be 'X' or 'P', got {observable!r}")


def _observable_on_state(psi: WaveFunction, observable: ObservableName) -> np.ndarray:
    """B psi as a new array; P psi from the state's cached momentum view."""
    g = psi.grid
    if observable == "P":
        mom = psi.momentum * g.p
        return kernel_transform(mom, 0, g, +1, out=mom)
    return _apply_observable(g, psi.amplitudes, observable)


def _kraus_sum(
    channel: Channel,
    psi: WaveFunction,
    observable: ObservableName,
    term: Callable[[np.ndarray, np.ndarray], float],
    skip_commuting: bool = False,
) -> float:
    """sum_m term(B K_m psi, K_m B psi) over the Kraus blocks, each times dx_s
    and its measure.

    ``term`` reduces one block's pair of branch arrays to a number and may
    overwrite them; the pair is freed before the next block is built.  With
    ``skip_commuting``, a block that commutes with B adds nothing and is not
    built: a block of step 1 weights each system point, so it commutes with X.
    """
    g = psi.grid
    check_confinement(channel, psi)
    b_psi = _observable_on_state(psi, observable)
    total = 0.0
    for k in kraus_of(channel, g):
        if skip_commuting and observable == "X" and k.step == 1:
            continue
        branches = k(psi.amplitudes)
        b_k = _apply_observable(g, branches, observable, out=branches)
        total += term(b_k, k(b_psi)) * g.dx * k.measure
    return total


# ---------------------------------------------------------------------------
# RMS (noise-operator) error and disturbance
# ---------------------------------------------------------------------------

def ozawa_error(channel: VonNeumannChannel, psi: WaveFunction) -> float:
    """RMS difference between the calibrated pointer reading and X_system.

    || (U^dag M U - X_s) |psi, ready> || with M = X_probe / g.  U commutes
    with X_s (x) 1, so this equals || (M - X_s) U |psi, ready> ||: one
    coupling, then a multiplication in place on the coupled joint array.  Like every other
    pointer figure, it first judges psi with ``check_confinement``.
    """
    if not isinstance(channel, VonNeumannChannel):
        raise TypeError("the RMS measurement error requires a probe coupling")
    check_confinement(channel, psi)
    coupled = apply_von_neumann(embed_joint(psi, channel.probe), channel.g)
    offset = channel.probe.grid.x[None, :] / channel.g - psi.grid.x[:, None]
    np.multiply(coupled.amplitudes, offset, out=coupled.amplitudes)
    return coupled.norm()


def ozawa_disturbance(channel: Channel, psi: WaveFunction, observable: ObservableName) -> float:
    """RMS change of an observable through a channel: <(U^dag B U - B)^2>^(1/2).

    Evaluated through the dilation identity
    eta^2 = sum_m || B K_m psi - K_m B psi ||^2, which is exact for any
    Stinespring dilation of the Kraus family.
    """
    def term(b_k: np.ndarray, k_b: np.ndarray) -> float:
        return float(np.sum(np.abs(np.subtract(b_k, k_b, out=b_k)) ** 2))

    return math.sqrt(_kraus_sum(channel, psi, observable, term, skip_commuting=True))


# ---------------------------------------------------------------------------
# Per-state distribution-distance (unmaximized worst-case-style) figures
# ---------------------------------------------------------------------------

def busch_state_disturbance(
    channel: Channel, psi: WaveFunction, observable: ObservableName
) -> float:
    """W2 distance between the observable's distribution before and after.

    Uses the nonselective output state, so selective collapse that leaves
    the marginal distribution unchanged registers as zero disturbance even
    when the RMS figure does not: this is the definitional contrast the
    package exists to exhibit.

    The law after is sum_m |K_m psi|^2.  For X it is |psi[::step]|^2, since
    sum_m K_m^dag K_m = 1 and every block of a channel has the same step;
    for P each block gives its ``momentum_mass``, which does not build the
    pointer's branch array.
    """
    g = psi.grid
    check_confinement(channel, psi)
    blocks = kraus_of(channel, g)
    if observable == "X":
        before = distribution(psi, "position")
        after = ProbabilityDistribution(g.x, np.abs(psi.amplitudes[:: blocks[0].step]) ** 2, g.dx)
    else:
        before = distribution(psi, "momentum")
        law = sum(k.momentum_mass(psi.amplitudes, g) * k.measure for k in blocks)
        after = ProbabilityDistribution(g.p, law, g.dp)
    return wasserstein2(before, after)


def busch_state_error(channel: VonNeumannChannel, psi: WaveFunction) -> float:
    """W2 distance between the calibrated readout and the ideal position law.

    The readout distribution is the probe position marginal after the
    coupling, (|psi|^2 dx) @ |T|^2 for the channel's table T (its cached
    ``density``), with the coordinate divided by the gain.
    """
    if not isinstance(channel, VonNeumannChannel):
        raise TypeError("the readout-distribution error requires a probe coupling")
    check_confinement(channel, psi)
    density = channel.table(psi.grid).density
    pg = channel.probe.grid
    weights = (np.abs(psi.amplitudes) ** 2 * psi.grid.dx) @ density
    support = pg.x / channel.g
    scaled = weights * abs(channel.g)
    if channel.g < 0:
        support, scaled = support[::-1].copy(), scaled[::-1].copy()
    readout = ProbabilityDistribution(support, scaled, pg.dx / abs(channel.g))
    return wasserstein2(readout, distribution(psi, "position"))


# ---------------------------------------------------------------------------
# Weak-valued estimator of the RMS disturbance
# ---------------------------------------------------------------------------

def lund_wiseman_eta(channel: Channel, psi: WaveFunction, observable: ObservableName) -> float:
    """Disturbance from the weak-valued joint distribution of (before, after).

    With one bin per grid point, sum_{j,k} (b_k - b_j)^2 *
    Re<Psi| Pi_j U^dag Pi_k U |Psi> reduces to second moments of the
    observable before and after plus one cross term; floating-point noise can
    drive the square slightly negative near zero disturbance, so the raw
    value is clamped at zero (and logged).
    """
    b_psi = _observable_on_state(psi, observable)
    m_in = float(np.sum(np.abs(b_psi) ** 2) * psi.grid.dx)

    def out_minus_twice_cross(b_k: np.ndarray, k_b: np.ndarray) -> float:
        return float(np.sum(np.abs(b_k) ** 2)) - 2.0 * float(np.real(np.vdot(k_b, b_k)))

    raw = m_in + _kraus_sum(channel, psi, observable, out_minus_twice_cross)
    if raw < 0.0:
        logger.debug("weak-valued eta^2 clamped to 0 (raw value %.3e)", raw)
    return math.sqrt(max(raw, 0.0))


# ---------------------------------------------------------------------------
# The inequalities
# ---------------------------------------------------------------------------

def evaluate_relations(
    epsilon: float, eta: float, delta_x: float, delta_p: float, hbar: float
) -> dict[str, float | bool]:
    """Evaluate the three tradeoff relations for one (state, channel) pair.

    lhs_eq5 = eps*eta + eps*DeltaP + eta*DeltaX is compared against hbar/2,
    as are the bare product eps*eta and the spread product DeltaX*DeltaP.
    A channel with eps = eta = 0 conveys no position information at all, so
    the error-disturbance relations are reported as not applicable rather
    than violated ("not a position measurement").  eps = NaN means the
    channel has no readout: the relations are not applicable and the
    products involving eps are NaN.

    Returns the relation columns of ``EDRReport``, from ``lhs_eq5`` to
    ``eq5_satisfied``, keyed by their report names.
    """
    readout = not math.isnan(epsilon)
    for name, v in (("epsilon", epsilon if readout else 0.0), ("eta", eta),
                    ("delta_x", delta_x), ("delta_p", delta_p)):
        if v < 0 or not np.isfinite(v):
            raise ValueError(f"{name} must be finite and nonnegative, got {v}")
    rhs = 0.5 * hbar
    floor = rhs * (1.0 - 1e-12)
    lhs = epsilon * eta + epsilon * delta_p + eta * delta_x
    product = epsilon * eta
    robertson = delta_x * delta_p
    return {
        "lhs_eq5": lhs,
        "product_eq2_form": product,
        "robertson_product": robertson,
        "hbar_over_2": rhs,
        "robertson_satisfied": bool(robertson >= floor),
        "eq2_form_satisfied": bool(product >= floor),
        "eq5_applicable": readout and (epsilon > 0 or eta > 0),
        "eq5_satisfied": bool(lhs >= floor),
    }


# ---------------------------------------------------------------------------
# Full per-pair report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EDRReport:
    """All computed figures for one (state, channel) pair."""

    epsilon_o: float
    eta_o_P: float
    eta_o_X: float
    delta_X: float
    delta_P: float
    w2_error_X: float
    w2_disturbance_P: float
    w2_disturbance_X: float
    # the relation columns, keyed by these names in evaluate_relations
    lhs_eq5: float
    product_eq2_form: float
    robertson_product: float
    hbar_over_2: float
    robertson_satisfied: bool
    eq2_form_satisfied: bool
    eq5_applicable: bool
    eq5_satisfied: bool
    epsilon_convention: str  # "eq4" | "slit-width" | "none"

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in CSV_COLUMNS}


# the report schema: one column per field, in declaration order
CSV_COLUMNS = [f.name for f in fields(EDRReport)]


def compute_report(channel: Channel, psi: WaveFunction) -> EDRReport:
    """Assemble the full error/disturbance report for one pair.

    The flip has no readout, so no measurement error is defined (NaN, the
    tradeoff relations are not applicable).  The slit reports its width as a
    conventional error figure, labeled as such.  The probe coupling reports
    the RMS pointer error and both distribution-distance figures.
    """
    mom = moments(psi)
    eta_p = ozawa_disturbance(channel, psi, "P")
    eta_x = ozawa_disturbance(channel, psi, "X")
    w2_p = busch_state_disturbance(channel, psi, "P")
    w2_x = busch_state_disturbance(channel, psi, "X")
    if isinstance(channel, VonNeumannChannel):
        eps = ozawa_error(channel, psi)
        convention = "eq4"
        w2_err = busch_state_error(channel, psi)
    elif isinstance(channel, SlitChannel):
        eps = channel.width
        convention = "slit-width"
        w2_err = float("nan")
    else:
        eps = float("nan")
        convention = "none"
        w2_err = float("nan")
    return EDRReport(
        epsilon_o=eps,
        eta_o_P=eta_p,
        eta_o_X=eta_x,
        delta_X=mom.delta_x,
        delta_P=mom.delta_p,
        w2_error_X=w2_err,
        w2_disturbance_P=w2_p,
        w2_disturbance_X=w2_x,
        epsilon_convention=convention,
        **evaluate_relations(eps, eta_p, mom.delta_x, mom.delta_p, psi.grid.hbar),
    )
