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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .channels import (
    BRANCH_ELEMS,
    Channel,
    SlitChannel,
    VonNeumannChannel,
    # unused here; perfbench's tracer test pins this binding in edlab.metrics
    apply_von_neumann,  # noqa: F401
    branch_mass,
    check_confinement,
    kraus_of,
)
from .grids import (
    ProbabilityDistribution,
    WaveFunction,
    distribution,
    kernel_transform,
    moments,
    signed_fft,
)

ObservableName = str  # "X" or "P"

# Merged quantile levels that wasserstein2 searches and sums at once: each
# temporary of a block is 256 KiB.
W2_BLOCK = 1 << 15
# Cells of a law at or below this fraction of its largest cell carry no mass
# in wasserstein2: they are rounding, not probability (see _cumulative_levels).
W2_FLOOR = 1e-15


# ---------------------------------------------------------------------------
# Wasserstein-2 by exact 1D quantile coupling
# ---------------------------------------------------------------------------

def wasserstein2(d1: ProbabilityDistribution, d2: ProbabilityDistribution) -> float:
    """W2 distance between two atomic distributions.

    In 1D the optimal coupling pairs equal quantile levels, so W2^2 is the
    integral over u in (0,1] of (F^-1(u) - G^-1(u))^2.  Both quantile
    functions are step functions; we merge their jump levels and sum exactly.
    Only cells above ``W2_FLOOR`` times a law's largest cell count as mass
    (``_cumulative_levels``), so rounding in the far tails does not pair
    points a cell apart: two laws equal but for their rounding give 0.0, and
    at fine grids the merge runs over the few cells that hold the mass.

    Two laws on one support object with equal spacing and equal weights
    return 0.0 without a merge, which is what the merge returns for them:
    every gap is x[i] - x[i].  The identity test comes first, so that laws
    on different supports pay nothing for the check.

    The two cumulative sums are concatenated and sorted, then summed in order
    over blocks of at most ``W2_BLOCK`` levels, so no index or gap array of
    the merged size is built.  Each step runs from the level before, across
    block edges too; a zero step marks a repeated level, which is dropped.
    The block sums add up in order, so a merge that fits in one block is
    exactly one sum over all levels.  A support whose weights are all
    positive is not copied.
    """
    if (
        d1.support is d2.support
        and d1.spacing == d2.spacing
        and np.array_equal(d1.weights, d2.weights)
    ):
        return 0.0
    x, cx = _cumulative_levels(d1)
    y, cy = _cumulative_levels(d2)
    # 0.0 sorts first, as every level is positive: the first step starts there
    levels = np.concatenate(((0.0,), cx, cy))
    levels.sort()
    total = 0.0
    for j in range(1, levels.size, W2_BLOCK):
        u = levels[j : j + W2_BLOCK]
        du = u - levels[j - 1 : j - 1 + u.size]
        step = du != 0.0
        u, du = u[step], du[step]
        shifted = np.subtract(u, 1e-15)
        ix = np.searchsorted(cx, shifted)
        iy = np.searchsorted(cy, shifted)
        np.minimum(ix, len(x) - 1, out=ix)
        np.minimum(iy, len(y) - 1, out=iy)
        gap = x[ix]
        gap -= y[iy]
        gap *= gap
        gap *= du
        total += gap.sum()
    return math.sqrt(total)


def _cumulative_levels(d: ProbabilityDistribution) -> tuple[np.ndarray, np.ndarray]:
    """The support points of the cells above ``W2_FLOOR`` times the largest
    cell, and their cumulative weights, normalized to end at 1.

    The floor drops the cells that hold rounding rather than mass before the
    cumulative sum.  Two laws that are equal in the continuum can differ in
    which far-tail cells are exactly 0 or hold rounding noise, and then their
    first ~1e-16 of quantile mass pairs points a cell apart: a W2 of ~3e-9
    for a flip that mirrors an even momentum law, where it is 0.  The floor sits
    above the additive rounding that the pointer's kernel law carries (its
    negative cells reach 1.7e-16 of its largest).  A cell it drops holds
    under 1e-15 of probability, a few steps of the cumulative levels just
    below 1, which are 2^-53 apart, so the upper tail hardly resolves it
    anyway.  Where such cells are a real tail, a W2 figure moves by at most
    4e-11 relative (the cut slit at 2^18 points).
    """
    support, w = d.support, d.weights * d.spacing
    kept = w > W2_FLOOR * w.max()
    if not kept.all():
        support, w = support[kept], w[kept]
    c = w.cumsum(out=w)
    c /= c[-1]
    return support, c


# ---------------------------------------------------------------------------
# Observables on Kraus branches
# ---------------------------------------------------------------------------

def _check_observable(observable: ObservableName) -> None:
    if observable not in ("X", "P"):
        raise ValueError(f"observable must be 'X' or 'P', got {observable!r}")


def _kraus_sum(channel: Channel, psi: WaveFunction) -> tuple[float, np.ndarray]:
    """eta_P^2 = sum_m || P K_m psi - K_m P psi ||^2 over the Kraus blocks,
    and the P law after the channel, sum_m |K_m psi|^2 on grid.p.

    The one place where P acts on branches: a chunk of a block's columns at
    a time, about BRANCH_ELEMS elements, so the pointer's (n_s, k) branches
    are never built at once, and P acts on each chunk in place while it is
    in cache.  A chunk's weights (``KrausBlock.column_weights``) weight both
    K psi and K P psi.  P is the spectral multiplier
    P b = sigma * IFFT(p * FFT(sigma * b)), sigma_i = (-1)^i (see
    ``grids.signed_fft``); the closing sigma goes on the chunk of K P psi
    instead, after K (the flip's reversal would change its sign), which
    leaves |gap|^2 as it is.  The pointer's weights carry sigma
    (``PointerTable.column_weights``), so neither of its two (n_s, c) arrays
    takes a sign pass and K P psi is written into the weights' buffer; the
    flip and the slit sign their chunks.  Each figure is bit-identical to a
    sign pass on unsigned weights.

    The law adds up block by block, as in ``busch_state_disturbance``: a
    block with a coherence kernel adds its ``momentum_mass``, any other each
    chunk's ``branch_mass`` times the scale of ``signed_fft``, read before
    the x p step so that no FFT runs twice.  P psi is formed after the first
    chunk's P K psi, so it is not alive while the first share is squared.
    A chunk without a kernel that is exactly 0 (the slit's fail branch when
    the window covers psi) is not transformed and adds nothing: its FFTs are
    exactly 0, so every figure is bit-identical.  The pointer's chunks are
    never 0, and are not checked.
    """
    g = psi.grid
    check_confinement(channel, psi)
    size = max(1, BRANCH_ELEMS // g.n_points)
    law = np.zeros(g.n_points)
    p_psi = None
    total = 0.0
    for k in kraus_of(channel, g):
        signed = k.coherence is not None
        if signed:
            law += k.momentum_mass(psi.amplitudes, g) * k.measure
        for j in range(0, k.n_branches, size):
            columns = slice(j, j + size)
            weights = k.column_weights(columns, signed=True) if signed else k.column_weights(columns)
            b_k = k.weighted(psi.amplitudes, weights)
            if signed or b_k.any():
                if signed:  # sigma is in the weights
                    np.fft.fft(b_k, axis=0, out=b_k)
                else:
                    scale = signed_fft(b_k, g)
                    law += branch_mass(b_k) * scale * k.measure
                b_k *= g.p[:, None]
                np.fft.ifft(b_k, axis=0, out=b_k)
            if p_psi is None:  # in place, from the state's cached momentum view
                p_psi = kernel_transform(mom := psi.momentum * g.p, 0, g, +1, out=mom)
            k_b = k.weighted(p_psi, weights, out=weights if signed else None)
            if not signed:
                k_b[1::2] *= -1.0  # sigma, as on b_k
            total += _squared_gap(b_k, k_b) * g.dx * k.measure
            del weights, b_k, k_b  # freed before the next chunk is built
    return total, law


# ---------------------------------------------------------------------------
# RMS (noise-operator) error and disturbance
# ---------------------------------------------------------------------------

def ozawa_error(channel: VonNeumannChannel, psi: WaveFunction) -> float:
    """RMS difference between the calibrated pointer reading and X_system.

    || (U^dag M U - X_s) |psi, ready> || with M = X_probe / g.  U commutes
    with X_s (x) 1, so this equals || (M - X_s) U |psi, ready> ||, and
    U |psi, ready> = psi[:, None] * T for the channel's table T.  So
    eps^2 = dx dy sum_i |psi_i|^2 spread_i with the table's ``spread``,
    spread_i = sum_j |T_ij|^2 (y_j/g - x_i)^2, which does not depend on the
    state, and no coupling.  Like every other pointer figure, it first
    judges psi with ``check_confinement``.
    """
    if not isinstance(channel, VonNeumannChannel):
        raise TypeError("the RMS measurement error requires a probe coupling")
    check_confinement(channel, psi)
    g, pg = psi.grid, channel.probe.grid
    spread = channel.table(g).spread
    return math.sqrt(float(np.abs(psi.amplitudes) ** 2 @ spread) * (g.dx * pg.dx))


def ozawa_disturbance(channel: Channel, psi: WaveFunction, observable: ObservableName) -> float:
    """RMS change of an observable through a channel: <(U^dag B U - B)^2>^(1/2).

    Evaluated through the dilation identity
    eta^2 = sum_m || B K_m psi - K_m B psi ||^2, which is exact for any
    Stinespring dilation of the Kraus family.  eta_P is ``_kraus_sum``'s.
    For X each block keeps or reverses the points (its ``step``), then
    weights them by w_m with sum_m |w_m|^2 = 1, so eta_X is the norm of
    x psi[::step] - x[::step] psi[::step], 0 for step 1: two products, as
    (x - x[::step]) psi[::step] can move the last bit where x[::-1] != -x.
    """
    _check_observable(observable)
    if observable == "P":
        return math.sqrt(_kraus_sum(channel, psi)[0])
    g = psi.grid
    check_confinement(channel, psi)
    step = kraus_of(channel, g)[0].step
    if step == 1:
        return 0.0
    moved = psi.amplitudes[::step]
    return math.sqrt(_squared_gap(g.x * moved, g.x[::step] * moved) * g.dx)


def _squared_gap(b_k: np.ndarray, k_b: np.ndarray) -> float:
    """sum |B K_m psi - K_m B psi|^2 over a chunk, the term of eta^2: the gap
    is formed in place and its real and imaginary parts squared in place,
    without the BLAS thread pool that ``np.vdot`` would start."""
    parts = np.subtract(b_k, k_b, out=b_k).view(np.float64)
    return float(np.square(parts, out=parts).sum())


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
    for P each block adds its ``momentum_mass``, which does not build the
    pointer's branch array.  ``compute_report`` reads the same P law from
    the transforms its eta_P runs (see ``_kraus_sum``).  Any other
    observable raises ValueError, as in the RMS figures.
    """
    _check_observable(observable)
    g = psi.grid
    check_confinement(channel, psi)
    blocks = kraus_of(channel, g)
    if observable == "X":
        before = distribution(psi, "position")
        after = ProbabilityDistribution(g.x, before.weights[:: blocks[0].step], g.dx)
        return wasserstein2(before, after)
    law = np.zeros(g.n_points)
    for k in blocks:
        law += k.momentum_mass(psi.amplitudes, g) * k.measure
    return _momentum_w2(psi, law)


def _momentum_w2(psi: WaveFunction, law: np.ndarray) -> float:
    """W2 between psi's momentum law and the law after, weights ``law`` on grid.p."""
    g = psi.grid
    return wasserstein2(distribution(psi, "momentum"), ProbabilityDistribution(g.p, law, g.dp))


def _momentum_figures(channel: Channel, psi: WaveFunction) -> tuple[float, float]:
    """eta_P and the W2 disturbance of P from one pass over the Kraus blocks:
    the P law after is read from eta_P's own forward transforms, and it is
    freed on return, before the report's other figures run."""
    total, law = _kraus_sum(channel, psi)
    return math.sqrt(total), _momentum_w2(psi, law)


def busch_state_error(channel: VonNeumannChannel, psi: WaveFunction) -> float:
    """W2 distance between the calibrated readout and the ideal position law.

    The readout distribution is the probe position marginal after the
    coupling, sum_i |psi_i|^2 dx |T_ij|^2 for the channel's table T, with
    the coordinate divided by the gain, so its density is |g| times that
    sum.  The table's ``readout`` forms it, linear in the weights, from the
    characteristic function of |psi|^2 dx |g| at the ready state's
    momentum lags, with no (n_s, n_p) array.
    """
    if not isinstance(channel, VonNeumannChannel):
        raise TypeError("the readout-distribution error requires a probe coupling")
    check_confinement(channel, psi)
    pg = channel.probe.grid
    weights = np.abs(psi.amplitudes) ** 2 * (psi.grid.dx * abs(channel.g))
    scaled = channel.table(psi.grid).readout(weights, pg)
    support = pg.x / channel.g
    if channel.g < 0:
        support, scaled = support[::-1].copy(), scaled[::-1].copy()
    readout = ProbabilityDistribution(support, scaled, pg.dx / abs(channel.g))
    return wasserstein2(readout, distribution(psi, "position"))


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

    eta_P and the P law after share one forward FFT per Kraus branch
    (``_momentum_figures``): ``_kraus_sum`` adds each branch's law from the
    spectrum its P multiplier forms.  So ``kernel_transform`` runs twice for
    the flip or the slit (psi once, P psi once) and 3 times plus once per
    block of table rows for the pointer (psi, the ready state, each block
    of the table and P psi); the branches take an FFT and an inverse FFT
    each, and a slit whose window covers the state skips its fail branch,
    which is exactly 0.  Each figure is bit-identical to its separate call.
    """
    mom = moments(psi)
    eta_p, w2_p = _momentum_figures(channel, psi)
    eta_x = ozawa_disturbance(channel, psi, "X")
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
