"""The processes whose disturbance we quantify.

Three channels: the parity flip (unitary), the slit check (a two-outcome
projective Kraus pair), and the von Neumann position-probe coupling
U = exp(-i g X_s P_p / hbar) on system (x) probe.  The coupling is applied as
an exact conditional shift: for each system column at x_i the probe is
translated by g*x_i through momentum-space phases, which is unitary to
machine precision at any coupling strength.  Since U is a conditional
shift, U (a (x) ready) = a[:, None] * T, where row i of the table T is the
translated ready state.  Each channel builds T once per system grid, a
block of rows at a time, and keeps only what the figures read of it: each
row's edge mass and RMS-error spread, and the coherence kernel.  The shifts
are unitary translations, so the overlap of rows i and i' depends only on
the lag i - i': the system's post-coupling state is rho o Toeplitz(c), and
its momentum law needs no (n_s, n_p) transform.  The readout law
sum_i w_i |T_ij|^2 is a sum over momentum lags of the ready state's
autocorrelation times the characteristic function of the weights, so it
needs no (n_s, n_p) array either.  In the probe's momentum basis the Kraus
operators are diagonal phases, K_q = m_q exp(-i g X p_q / hbar), so the
branches the pointer keeps are the columns of those phases at the momenta
where the ready state m has amplitude, formed a chunk of columns at a time
from the two-level phase factors the table keeps, with no transform.

``kraus_of`` is the one implementation of a channel's action on a state: its
Kraus family (equivalently, its Stinespring dilation) as blocks of branches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
# Complex elements that the pointer's table build and metrics._kraus_sum form
# at once: 512 KiB, small enough to stay in L2.  The table's blocks are whole
# anchor groups of ``_shift_factors``, so one block may hold more.
BRANCH_ELEMS = 1 << 15
# Probe momenta whose |m_q|^2 is at or below this fraction of the ready
# state's largest carry no pointer branch: eps^2 = 2^-104 is the rounding of
# the ready state's own transform, not amplitude (see VonNeumannChannel.table).
# A dropped branch is a kick whose commutator with P has norm at most
# 2 p_max ||psi||, p_max = pi hbar / dx_s, so dropping branches changes eta^2
# by at most sum_dropped |m_q|^2 dp (2 p_max)^2 ||psi||^2.
BRANCH_FLOOR = 2.0**-104


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

    The half-domain is ``probe_half_width`` at the ``state_reach`` of psi.
    The ready state's own validation then rejects widths the resulting
    spacing cannot represent.
    """
    half = probe_half_width(g, state_reach(system_grid, psi), s)
    return GridSpec(n_points, -half, half, system_grid.hbar)


def state_reach(system_grid: GridSpec, psi: WaveFunction) -> float:
    """The largest |x| of psi's support at the 1e-14 probability level, or of
    the grid when no point reaches that level."""
    w = np.abs(psi.amplitudes) ** 2 * system_grid.dx
    sig = np.abs(system_grid.x[w > 1e-14])
    return float(sig.max()) if sig.size else abs(system_grid.x).max()


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
        if not (self.width > 0 and np.isfinite(self.width)):
            raise ValueError(f"slit width must be positive and finite, got {self.width}")
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
    pointer's ``PointerTable``, the one subclass) holds the lagged overlaps
    of the rows of a branch table that spans the same Kraus family, so its
    momentum law needs no branch array; it keeps no ``weights`` either, and
    forms the weights of a chunk of its columns on demand.
    """

    step: int = 1
    weights: np.ndarray | None = None
    measure: float = 1.0
    coherence: np.ndarray | None = None

    @property
    def n_branches(self) -> int:
        """k, the number of branches (columns) of the block."""
        return 1 if self.weights is None else self.weights.shape[1]

    def column_weights(self, columns: slice = slice(None)) -> np.ndarray | None:
        """The (n_s, c) weights of the branches in ``columns``, a view of
        ``weights``; None for one unweighted branch."""
        return None if self.weights is None else self.weights[:, columns]

    def weighted(
        self, a: np.ndarray, weights: np.ndarray | None, out: np.ndarray | None = None
    ) -> np.ndarray:
        """The branches a[::step, None] * weights of ``column_weights``, as a
        new array that the caller may overwrite, or into ``out``, which may
        be ``weights`` itself."""
        branches = a[:: self.step, None]
        return branches.copy() if weights is None else np.multiply(branches, weights, out=out)

    def __call__(self, a: np.ndarray, columns: slice = slice(None)) -> np.ndarray:
        """The (n_s, k) branch array, or the branches in ``columns`` only, as a
        new array that the caller may overwrite."""
        return self.weighted(a, self.column_weights(columns))

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
    """The pointer's Kraus block on one system grid, with what the figures
    read of the table T of translated ready states; no (n_s, n_p) array of
    T or of |T|^2 is kept.

    Row i of T is the ready state translated by g*x_i, so that
    U(a (x) ready) = a[:, None] * T, with the probe cell dy as its measure.
    ``row_edge`` is the sum of |row|^2 over the two probe cells at each end
    (times dy for probabilities), and ``spread`` is the RMS error's
    sum_j |T_ij|^2 (y_j/g - x_i)^2 per row.  ``coherence[l]`` is the
    overlap sum_j T_ij conj(T_(i-l)j) of rows l apart, for lags
    -(n_s - 1) <= l < n_s in numpy's index order (a negative lag is a
    negative index); times dy it is the characteristic function of the kick
    g*P_probe at g*l*dx.  The translations are unitary on the periodic probe
    grid, so it depends on the lag alone, on every grid.  A row beyond the
    reach of the states coupled may wrap around the probe grid;
    ``check_confinement`` judges each state by its own weights.

    The readout law sum_i w_i |T_ij|^2 (``readout``) is read in the probe's
    Fourier domain: the DFT of |T_i.|^2 at k is n_p dp^2 / (2 pi hbar) times
    the sum over the lags l = k (mod n_p) of A(l) exp(-i g x_i l dp / hbar),
    where A(l) = sum_q m_q conj(m_(q-l)) is the autocorrelation of the ready
    state's kept momenta, 0 beyond the L - 1 lags they span.
    ``autocorrelation`` holds A(l) n_p dp^2 / (2 pi hbar) for 0 <= l < L,
    and ``lag_offsets`` (b, L) and ``lag_anchors`` (n_s/b, L) the two levels
    of exp(-i g x l dp / hbar), as ``offsets`` and ``anchors`` are of the
    branch phases.

    The branches are those of the kept probe momenta: column q is
    m_q sqrt(dp/dy) exp(-i g x p_q / hbar), so that with ``measure`` dy a
    column is K_q a / sqrt(dy) for K_q = sqrt(dp) <p_q| U |., ready>.  Only
    the momenta with |m_q|^2 above ``BRANCH_FLOOR`` times the largest are
    kept, k <= n_p.  The block keeps their two-level phase factors of
    ``_shift_factors``, no (n_s, k) array: ``amps`` (k,) are the
    m_q sqrt(dp/dy), ``offsets`` (b, k) and ``anchors`` (n_s/b, k) the
    phases, and ``column_weights`` forms the columns a caller asks for.
    """

    row_edge: np.ndarray
    spread: np.ndarray
    amps: np.ndarray
    offsets: np.ndarray
    anchors: np.ndarray
    autocorrelation: np.ndarray
    lag_offsets: np.ndarray
    lag_anchors: np.ndarray

    @property
    def n_branches(self) -> int:
        return self.amps.size

    def column_weights(self, columns: slice = slice(None), signed: bool = False) -> np.ndarray:
        """The (n_s, c) weights of the branches in ``columns``, as a new
        array, each element the product of ``_shift_phases``.  ``signed``
        multiplies row i by sigma_i = (-1)^i through the odd offset rows,
        as b is even: bit for bit the sign flip of the weights."""
        lead = self.amps[columns] * self.offsets[:, columns]
        if signed:
            lead[1::2] *= -1.0
        return _shift_phases(lead, self.anchors[:, columns])

    def characteristic(self, w: np.ndarray) -> np.ndarray:
        """chi(l) = sum_i w_i exp(-i g x_i l dp / hbar) at the lags 0 <= l < L
        of real system weights w: one real matrix product of w as its
        (n_s/b, b) anchor groups with the float view of ``lag_offsets``, then
        the product with ``lag_anchors`` and a sum over the anchors."""
        anchors = self.lag_anchors
        groups = w.reshape(anchors.shape[0], -1) @ self.lag_offsets.view(np.float64)
        chi = groups.view(complex)
        chi *= anchors
        return chi.sum(axis=0)

    def readout(self, w: np.ndarray, probe_grid: GridSpec) -> np.ndarray:
        """sum_i w_i |T_ij|^2 on ``probe_grid`` for real system weights w: with
        w = |psi|^2 dx, the probe's position law after the coupling.  The
        product of ``autocorrelation`` and ``characteristic`` is folded mod
        n_p, where lag n_p - l adds the conjugate of lag l, and taken back
        by one inverse real FFT."""
        n = probe_grid.n_points
        spectrum = self.characteristic(w)
        spectrum *= self.autocorrelation
        lags = spectrum.size
        if lags > n // 2:
            folded = spectrum[: n // 2 + 1]
            folded[n - lags + 1 :] += spectrum[n // 2 : lags][::-1].conj()
            spectrum = folded
        return np.fft.irfft(spectrum, n)


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
        """The coupling's PointerTable on a system grid, built once per grid
        by ``_pointer_table``."""
        table = self._tables.get(grid)
        if table is None:
            table = self._tables[grid] = _pointer_table(grid, self.probe, self.g)
        return table


def _pointer_table(grid: GridSpec, probe: ProbeSpec, g: float) -> PointerTable:
    """The PointerTable of gain g on a system grid, from the rows of T a
    block at a time, so that no (n_s, n_p) array is built.

    Row i of T is the ready state's momentum amplitudes times the phases
    exp(-1j*g*x_i*p_j/hbar), transformed along the probe axis.  The phases
    are diagonal in p, so they commute with the fixed phase per momentum of
    the basis ``kernel_transform`` keeps, and the shift is the same as in
    the plane-wave basis.

    A block is whole anchor groups of ``_shift_factors``, about BRANCH_ELEMS
    elements and at least one group, transformed in place.  It gives its
    rows' overlaps with row 0 (a matvec with the conjugate of the first
    block's row 0), and its |T|^2, squared into scratch of the block's
    size, gives their edge mass and ``spread``, whose real products are
    formed about BRANCH_ELEMS at a time.  Each row's figures are
    bit-identical to those of the whole T.  The factors of the kept momenta
    are columns of the build's, since a column is the same for any subset of
    momenta it is built with.  The readout's lag factors exp(-1j*g*x*l*dp/hbar)
    are the build's columns at p = l dp for the lags l < n_p/2, bit for bit
    one ``exp`` each, and for the lags from n_p/2 up, which only a pointer
    whose kept momenta span more than half the grid has, the columns at
    p = (l - n_p/2) dp times the two levels of exp(-1j*g*x*(n_p/2)*dp/hbar).
    Its autocorrelation is one zero-padded FFT of the kept momenta.
    """
    pg = probe.grid
    mom = probe.ready_state.momentum
    n, n_p = grid.n_points, pg.n_points
    anchors, offsets = _shift_factors(grid, pg.p, g, pg.hbar)
    b = offsets.shape[0]
    lead = mom * offsets
    groups = max(1, BRANCH_ELEMS // (b * n_p))
    rows = max(1, BRANCH_ELEMS // n_p)
    reading = pg.x / g
    row_edge, spread = np.empty(n), np.empty(n)
    lags = np.empty(n, complex)
    scratch = np.empty((min(n, groups * b), n_p))
    for start in range(0, n, groups * b):
        block = _shift_phases(lead, anchors[start // b : start // b + groups])
        kernel_transform(block, 1, pg, +1, out=block)
        stop = start + block.shape[0]
        if start == 0:
            first = block[0].conj()
        lags[start:stop] = block @ first
        square = np.abs(block, out=scratch[: stop - start])
        np.square(square, out=square)
        del block
        row_edge[start:stop] = np.sum(square[:, :N_BOUNDARY_POINTS], axis=1)
        row_edge[start:stop] += np.sum(square[:, -N_BOUNDARY_POINTS:], axis=1)
        for i in range(start, stop, rows):
            offset = np.subtract(reading, grid.x[i : min(i + rows, stop), None])
            offset *= offset
            offset *= square[i - start : i - start + offset.shape[0]]
            np.sum(offset, axis=1, out=spread[i : i + offset.shape[0]])
    del scratch, square
    mass = np.abs(mom) ** 2
    kept = mass > BRANCH_FLOOR * mass.max()
    held = np.flatnonzero(kept)
    span = held[-1] - held[0] + 1
    lagged = np.fft.ifft(np.abs(np.fft.fft(np.where(kept, mom, 0.0), 2 * n_p)) ** 2)
    half = n_p // 2  # column half + l is the momentum l dp
    top_anchors, top_offsets = _shift_factors(grid, -pg.p[:1], g, pg.hbar)
    return PointerTable(
        measure=pg.dx,
        coherence=np.concatenate((lags, lags[:0:-1].conj())),
        row_edge=row_edge,
        spread=spread,
        amps=mom[kept] * np.sqrt(pg.dp / pg.dx),
        offsets=offsets[:, kept],
        anchors=anchors[:, kept],
        autocorrelation=lagged[:span] * (n_p * pg.dp**2 / (2.0 * np.pi * pg.hbar)),
        lag_offsets=np.hstack((offsets[:, half : half + span], offsets[:, half:span] * top_offsets)),
        lag_anchors=np.hstack((anchors[:, half : half + span], anchors[:, half:span] * top_anchors)),
    )


Channel = Union[FlipChannel, SlitChannel, VonNeumannChannel]


def slit_mask(grid: GridSpec, center: float, width: float) -> np.ndarray:
    if center - 0.5 * width < grid.x_min or center + 0.5 * width > grid.x_max:
        raise InvariantViolation(
            f"slit [{center - 0.5 * width}, {center + 0.5 * width}] outside grid domain "
            f"[{grid.x_min}, {grid.x_max}]"
        )
    return np.abs(grid.x - center) <= 0.5 * width


def _shift_factors(
    system_grid: GridSpec, p: np.ndarray, g: float, hbar: float
) -> tuple[np.ndarray, np.ndarray]:
    """The two levels of the phases exp(-1j*g*x_i*p_j/hbar): with
    b = 2^floor(log2(n_s)/2), the (n_s/b, len(p)) anchor rows at x_(a*b) and
    the (b, len(p)) offset rows of a shift of r*dx, one ``exp`` per element,
    so that row a*b + r of the phases is anchor row a times offset row r
    (``_shift_phases``): n_s/b + b rows of ``exp`` and one complex product
    per element.  An anchor row (offset exactly 1) is bit-identical to one
    ``exp`` per element, and a column is the same for any subset of momenta
    ``p`` it is built with."""
    n = system_grid.n_points
    b = 1 << (n.bit_length() - 1) // 2
    anchors = np.exp(-1j * g * np.outer(system_grid.x[::b], p) / hbar)
    offsets = np.exp(-1j * g * np.outer(np.arange(b) * system_grid.dx, p) / hbar)
    return anchors, offsets


def _shift_phases(lead: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Rows a*b + r = lead[r] * anchors[a] for (b, k) ``lead`` rows (the
    offsets of ``_shift_factors`` times amplitudes, which stay the first
    operand) and (m, k) ``anchors``: one complex product per element, into
    one new (m*b, k) array."""
    (m, k), b = anchors.shape, lead.shape[0]
    shifted = np.multiply(lead, anchors[:, None], out=np.empty((m, b, k), complex))
    return shifted.reshape(m * b, k)


def apply_von_neumann(
    amplitudes: np.ndarray, system_grid: GridSpec, probe_grid: GridSpec, g: float
) -> np.ndarray:
    """U = exp(-i g X_s P_p / hbar) on an (n_s, n_p) array of amplitudes, as a
    new array; its adjoint is gain -g.

    The tests' direct coupling, the oracle of the channel's ``PointerTable``:
    one ``exp(-1j*g*x_i*p_j/hbar)`` per element between the two transforms
    along the probe axis, so it shares no code with the table's
    ``_shift_factors``.
    It judges no confinement.  No figure calls it: they all read the
    coupling from the table.
    """
    pg = probe_grid
    mom = kernel_transform(amplitudes, 1, pg, -1)
    mom *= np.exp(-1j * g * np.outer(system_grid.x, pg.p) / pg.hbar)
    return kernel_transform(mom, 1, pg, +1, out=mom)


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
    von_neumann -> one (n_s, k) block, the channel's cached ``PointerTable``
    on this grid itself: the branches of the kept probe momenta, k <= n_p,
    with the probe cell dy as measure; column q is K_q a / sqrt(dy) for
    K_q = sqrt(dp) <p_q| U |., ready> = sqrt(dp) m_q exp(-i g X p_q / hbar).
    The table keeps the branches' two-level phase factors, not the (n_s, k)
    array: a figure asks for a chunk of columns at a time
    (``column_weights``).  It carries its coherence kernel, so the momentum
    law does not build the branch array.  The block does not check confinement:
    ``check_confinement`` judges the state a figure is about.
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
