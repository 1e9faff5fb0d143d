"""The processes whose disturbance we quantify.

Three channels: the parity flip (unitary), the slit check (a two-outcome
projective Kraus pair), and the von Neumann position-probe coupling
U = exp(-i g X_s P_p / hbar) on system (x) probe.  The coupling is applied as
an exact conditional shift: for each system column at x_i the probe is
translated by g*x_i through momentum-space phases, which is unitary to
machine precision at any coupling strength.  Since U is a conditional
shift, U (a (x) ready) = a[:, None] * T, where row i of the table T is the
translated ready state; each channel builds T once per system grid.  The
shifts are unitary translations, so the overlap of rows i and i' depends only
on the lag i - i': the system's post-coupling state is rho o Toeplitz(c), and
its momentum law needs no (n_s, n_p) transform.

``kraus_of`` is the one implementation of a channel's action on a state: its
Kraus family (equivalently, its Stinespring dilation) as blocks of branches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

import numpy as np

from .grids import (
    N_BOUNDARY_POINTS,
    GridSpec,
    InvariantViolation,
    WaveFunction,
    kernel_transform,
    signed_fft,
)
from .states import gaussian_amplitudes

CONFINEMENT_TOL = 1e-10


class ConfinementError(InvariantViolation):
    """A conditional shift pushed significant probe mass to the grid edge."""


@dataclass(frozen=True)
class ProbeSpec:
    """Probe grid plus its ready state: an unbiased Gaussian pointer of width s.

    The pointer may be narrower than the grid spacing suggests; its gate is
    the aliasing invariant (band-limited content), not the cells-per-sigma
    rule used for system states.
    """

    grid: GridSpec
    s: float
    ready_state: WaveFunction = field(init=False)

    def __post_init__(self):
        # s**2 must neither underflow to 0 nor overflow
        if not (self.s > 0 and 0 < self.s * self.s < np.inf):
            raise ValueError(f"pointer width must be positive with 0 < s**2 < inf, got {self.s}")
        amp = gaussian_amplitudes(self.grid, 0.0, 0.0, self.s)
        mass = np.sum(np.abs(amp) ** 2) * self.grid.dx
        if not mass > 0:
            raise ValueError(
                f"pointer width {self.s} forms no Gaussian on the probe grid (dx={self.grid.dx}): "
                "its amplitude underflows to 0 at every point"
            )
        amp = amp / np.sqrt(mass)
        ready = WaveFunction(self.grid, amp).validate()
        mean = float(np.sum(self.grid.x * np.abs(ready.amplitudes) ** 2) * self.grid.dx)
        if abs(mean) > 1e-10:
            raise InvariantViolation(f"pointer bias <X_probe> = {mean:.3e}")
        object.__setattr__(self, "ready_state", ready)


def probe_grid_for(
    system_grid: GridSpec,
    psi: WaveFunction,
    g: float,
    s: float,
    n_points: int = 256,
) -> GridSpec:
    """Auto-size a probe grid so the conditional shifts stay confined.

    The half-domain is ``probe_half_width`` at the reach of psi (its support
    at the 1e-14 probability level).  The ready state's own validation then
    rejects widths the resulting spacing cannot represent.
    """
    w = np.abs(psi.amplitudes) ** 2 * system_grid.dx
    sig = np.abs(system_grid.x[w > 1e-14])
    reach = float(sig.max()) if sig.size else abs(system_grid.x).max()
    half = probe_half_width(g, reach, s)
    return GridSpec(n_points, -half, half, system_grid.hbar)


def probe_half_width(g: float, reach: float, s: float) -> float:
    """Probe half-domain that keeps a width-s pointer confined under every
    shift g*x with |x| <= reach: the largest shift plus a 12 s margin."""
    return abs(g) * reach + 12.0 * s


@dataclass(frozen=True)
class FlipChannel:
    pass


@dataclass(frozen=True)
class SlitChannel:
    center: float
    width: float

    def __post_init__(self):
        if not self.width > 0:
            raise ValueError(f"slit width must be positive, got {self.width}")
        if not np.isfinite(self.center):
            raise ValueError(f"slit center must be finite, got {self.center}")


@dataclass(frozen=True)
class KrausBlock:
    """Branches K_m a as the columns of a[::step, None] * weights, each with
    the ancilla cell ``measure``.

    Every channel here keeps or reverses the order of the system points
    (step -1 is the flip) and then weights each branch pointwise; no weights
    means one unweighted branch.  A figure sums |.|^2 over the columns and
    multiplies by ``measure``.  A block with a ``coherence`` kernel (the
    pointer's ``PointerTable``, the one subclass) holds the lagged column
    sums of weights * conj(weights), so its momentum law needs no branch
    array.
    """

    step: int = 1
    weights: np.ndarray | None = None
    measure: float = 1.0
    coherence: np.ndarray | None = None

    @property
    def n_branches(self) -> int:
        """k, the number of branches (columns) of the block."""
        return 1 if self.weights is None else self.weights.shape[1]

    def __call__(self, a: np.ndarray, columns: slice = slice(None)) -> np.ndarray:
        """The (n_s, k) branch array, or the branches in ``columns`` only, as a
        new array that the caller may overwrite."""
        branches = a[:: self.step, None]
        return branches.copy() if self.weights is None else branches * self.weights[:, columns]

    def momentum_mass(self, a: np.ndarray, grid: GridSpec) -> np.ndarray:
        """sum over the columns of |momentum amplitudes|^2 of the branches, on ``grid.p``.

        Without a kernel the branch array goes through ``signed_fft`` along
        the system axis in place and is reduced by ``branch_mass`` times its
        scale, as ``metrics._kraus_sum`` reduces the spectra its P runs.
        With a kernel, the law is dx^2/(2 pi hbar) times the DFT of
        sum_l A(l) c(l) over l = q (mod n), where A is the linear
        autocorrelation of a (one zero-padded FFT of length 2n) and c the
        kernel; grid.p starts at -n/2 dp, so the DFT is read from index n/2
        to the end, then from 0 (two slices, the permutation of fftshift).
        """
        if self.coherence is None:
            branches = self(a)
            scale = signed_fft(branches, grid)
            return branch_mass(branches) * scale
        n = grid.n_points
        # lag l at index l mod 2n: sum_i a_i conj(a_(i-l)), zero at lag n
        lagged = np.fft.ifft(np.abs(np.fft.fft(a, 2 * n)) ** 2)
        folded = lagged[:n] * self.coherence[:n]
        folded[1:] += lagged[n + 1 :] * self.coherence[n:]
        law = np.fft.fft(folded).real * (grid.dx**2 / (2.0 * np.pi * grid.hbar))
        return np.concatenate((law[n // 2 :], law[: n // 2]))


def branch_mass(branches: np.ndarray) -> np.ndarray:
    """sum over the columns of |branches|^2, squared in one new real array."""
    mass = np.abs(branches)
    return np.sum(np.square(mass, out=mass), axis=1)


@dataclass(frozen=True, kw_only=True)
class PointerTable(KrausBlock):
    """The pointer's Kraus block on one system grid: U(a (x) ready) = a[:, None] * weights.

    Row i of the table T = ``weights`` is the ready state translated by
    g*x_i, and ``measure`` is the probe cell dy.  ``row_edge`` is the sum of
    |row|^2 over the two probe cells at each end (times dy for
    probabilities).  ``coherence[l]`` is the overlap sum_j T_ij conj(T_(i-l)j)
    of rows l apart, for lags -(n_s - 1) <= l < n_s in numpy's index order (a
    negative lag is a negative index); times dy it is the characteristic
    function of the kick g*P_probe at g*l*dx.  The translations are unitary
    on the periodic probe grid, so it depends on the lag alone, on every
    grid.  A row beyond the reach of the states coupled may wrap around the
    probe grid; ``check_confinement`` judges each state by its own weights.
    """

    row_edge: np.ndarray

    @cached_property
    def density(self) -> np.ndarray:
        """|weights|^2 for the readout law, built on first use rather than
        with the table, so that it is not alive while the other figures of a
        report hold their (n_s, n_p) temporaries."""
        return np.abs(self.weights) ** 2


@dataclass(frozen=True)
class VonNeumannChannel:
    g: float
    probe: ProbeSpec
    # PointerTable per system grid, built on first use
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.g == 0 or not np.isfinite(self.g):
            raise ValueError(f"coupling gain g must be finite and nonzero, got {self.g}")

    def table(self, grid: GridSpec) -> PointerTable:
        """The coupling's PointerTable on a system grid, built once per grid."""
        table = self._tables.get(grid)
        if table is None:
            pg = self.probe.grid
            weights = _conditional_shift(self.probe.ready_state.momentum, grid, pg, self.g)
            row_edge = np.sum(np.abs(weights[:, :N_BOUNDARY_POINTS]) ** 2, axis=1)
            row_edge += np.sum(np.abs(weights[:, -N_BOUNDARY_POINTS:]) ** 2, axis=1)
            # one matvec; weights.conj() @ ... would copy the whole table
            lags = weights @ weights[0].conj()
            coherence = np.concatenate((lags, lags[:0:-1].conj()))
            table = PointerTable(
                weights=weights, measure=pg.dx, coherence=coherence, row_edge=row_edge
            )
            self._tables[grid] = table
        return table


Channel = Union[FlipChannel, SlitChannel, VonNeumannChannel]


@dataclass(frozen=True)
class JointState:
    """Amplitudes indexed (system point, probe point), unit total norm."""

    system_grid: GridSpec
    probe_grid: GridSpec
    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex)
        expected = (self.system_grid.n_points, self.probe_grid.n_points)
        if a.shape != expected:
            raise ValueError(f"joint amplitudes shape {a.shape}, expected {expected}")
        object.__setattr__(self, "amplitudes", a)

    @property
    def measure(self) -> float:
        return self.system_grid.dx * self.probe_grid.dx

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2) * self.measure))


def slit_mask(grid: GridSpec, center: float, width: float) -> np.ndarray:
    if center - 0.5 * width < grid.x_min or center + 0.5 * width > grid.x_max:
        raise InvariantViolation(
            f"slit [{center - 0.5 * width}, {center + 0.5 * width}] outside grid domain "
            f"[{grid.x_min}, {grid.x_max}]"
        )
    return np.abs(grid.x - center) <= 0.5 * width


def embed_joint(psi: WaveFunction, probe: ProbeSpec) -> JointState:
    """Product state psi (x) ready."""
    return JointState(psi.grid, probe.grid, np.outer(psi.amplitudes, probe.ready_state.amplitudes))


def _conditional_shift(
    mom: np.ndarray, system_grid: GridSpec, probe_grid: GridSpec, g: float
) -> np.ndarray:
    """Probe momentum amplitudes, one row to broadcast or an (n_s, n_p) array
    that is overwritten, to an (n_s, n_p) array of probe position amplitudes,
    row i translated by g*x_i through the momentum-space phases
    exp(-1j*g*x_i*p_j/hbar).

    The phases are a two-level product: with b = 2^floor(log2(n_s)/2), row
    a*b + r is anchor row a (at x_(a*b)) times offset row r (a shift of
    r*dx), so n_s/b + b rows of ``exp`` and one complex product per element
    build them, straight into the array that is then transformed in place.
    The amplitudes stay the first operand, so the anchor rows (offset
    exactly 1) are bit-identical to one ``exp`` per element.
    """
    pg = probe_grid
    n = system_grid.n_points
    b = 1 << (n.bit_length() - 1) // 2
    anchors = np.exp(-1j * g * np.outer(system_grid.x[::b], pg.p) / pg.hbar)[:, None]
    offsets = np.exp(-1j * g * np.outer(np.arange(b) * system_grid.dx, pg.p) / pg.hbar)
    blocks = (n // b, b, pg.n_points)
    if mom.ndim == 1:
        shifted = np.multiply(mom * offsets, anchors, out=np.empty(blocks, complex))
    else:
        shifted = mom.reshape(blocks)
        shifted *= anchors
        shifted *= offsets
    shifted = shifted.reshape(n, pg.n_points)
    return kernel_transform(shifted, 1, pg, +1, out=shifted)


def apply_von_neumann(joint: JointState, g: float) -> JointState:
    """Apply U = exp(-i g X_s P_p / hbar) exactly to a joint array; its adjoint is gain -g.

    Each system row's probe wave function is translated by g*x_i via
    momentum-space phase multiplication, on one copy of the joint array
    transformed in place.  This is the plain unitary: it judges no
    confinement, for states and operator images alike; the figure that
    couples a state calls ``check_confinement`` on it first.  No figure in
    ``metrics`` calls this: they all read the coupling from the channel's
    cached ``PointerTable``.  It stays as the public unitary and the tests'
    direct oracle of that table.
    """
    sg, pg = joint.system_grid, joint.probe_grid
    mom = kernel_transform(joint.amplitudes, 1, pg, -1)
    return JointState(sg, pg, _conditional_shift(mom, sg, pg, g))


def check_confinement(channel: Channel, psi: WaveFunction) -> None:
    """Raise ConfinementError when a pointer coupling of the state psi leaves
    more than CONFINEMENT_TOL of probe probability in the two cells at each
    end of the probe grid.

    This is the one confinement rule: every pointer figure, the RMS error
    included, calls it once on its state before it couples.  The edge mass
    is the table's ``row_edge`` weighted by |psi|^2, so only the state is
    judged, never an operator image such as X psi.  Channels without a probe
    always pass.
    """
    if isinstance(channel, VonNeumannChannel):
        pg = channel.probe.grid
        row_edge = channel.table(psi.grid).row_edge
        edge_mass = float((np.abs(psi.amplitudes) ** 2 * row_edge).sum() * psi.grid.dx * pg.dx)
        if edge_mass > CONFINEMENT_TOL:
            raise ConfinementError(
                f"probe confinement violated after shift: edge mass {edge_mass:.3e} "
                f"(probe domain [{pg.x_min}, {pg.x_max}], gain {channel.g})"
            )


def kraus_of(channel: Channel, grid: GridSpec) -> list[KrausBlock]:
    """Kraus family of a channel as blocks, each with its ancilla cell measure.

    Each block maps system amplitudes a to an (n_s, k) array whose columns
    are branches K_m a.  A figure sums |.|^2 over the columns of a block and
    multiplies by its measure, so that sum_m ||K_m a||^2 = ||a||^2.  Every
    block of one channel has the same step, so by completeness the position
    law after the channel is |a[::step]|^2:

    flip -> one 1-column block (the reversal), measure 1;
    slit -> two 1-column blocks (pass and fail projectors), measure 1;
    von_neumann -> one (n_s, n_p) block, the channel's cached
    ``PointerTable`` on this grid itself: a[:, None] * T = U (a (x) ready),
    with the probe cell dy as measure; column j is K_j a / sqrt(dy) for
    K_j = sqrt(dy) <y_j| U |., ready>.  The table carries its coherence
    kernel, so the momentum law does not build the branch array.  The
    block does not check confinement: ``check_confinement`` judges the state
    a figure is about.
    """
    if isinstance(channel, FlipChannel):
        if not grid.is_symmetric():
            raise InvariantViolation(
                f"flip requires a domain symmetric about 0, got [{grid.x_min}, {grid.x_max}]"
            )
        return [KrausBlock(step=-1)]
    if isinstance(channel, SlitChannel):
        mask = slit_mask(grid, channel.center, channel.width)
        return [KrausBlock(weights=m[:, None]) for m in (mask, ~mask)]
    if isinstance(channel, VonNeumannChannel):
        return [channel.table(grid)]
    raise TypeError(f"unknown channel {channel!r}")
