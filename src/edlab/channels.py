"""The processes whose disturbance we quantify.

Three channels: the parity flip (unitary), the slit check (a two-outcome
projective Kraus pair), and the von Neumann position-probe coupling
U = exp(-i g X_s P_p / hbar) on system (x) probe.  The coupling is applied as
an exact conditional shift: for each system column at x_i the probe is
translated by g*x_i through momentum-space phases, which is unitary to
machine precision at any coupling strength.  Since U is a conditional
shift, U (a (x) ready) = a[:, None] * T, where row i of the table T is the
translated ready state.  The ready state is real, so each row is a real
translate of it, formed from half the probe spectrum by one inverse real
FFT.  Each channel builds T once per system grid, a block of rows at a time,
and keeps only what the figures read of it: each row's edge mass and
RMS-error spread, and the coherence kernel.  The shifts are unitary
translations, so the overlap of rows i and i' depends only on the lag
i - i': the system's post-coupling state is rho o Toeplitz(c), and
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
    check_aliasing,
    kernel_transform,
    moments,
    signed_fft,
)
from .states import _normalized, gaussian_amplitudes

CONFINEMENT_TOL = 1e-10
# Elements that the pointer's table build and eta_P's chunks of branches
# (metrics._kraus_sum) form at once: 512 KiB of complex branches, small
# enough to stay in L2.  A block of the table holds about this many real
# elements of T, from half as many complex ones of the half spectrum; it is
# whole anchor groups of ``_shift_factors``, so one block may hold more.
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
    rule used for system states.  A spacing over 80 widths is refused
    before any amplitude is formed: on a symmetric domain the points nearest
    0 would lie 40 widths out, where the pointer is 0.  A refusal's message
    starts with the field at fault, ``s`` or the grid's ``n_points``.
    """

    grid: GridSpec
    s: float
    ready_state: WaveFunction = field(init=False)

    def __post_init__(self):
        # s**2 must neither underflow to 0 nor overflow
        if not (self.s > 0 and 0 < self.s * self.s < np.inf):
            raise ValueError(f"s must be positive with 0 < s**2 < inf, got {self.s}")
        if self.grid.dx > 80.0 * self.s:
            raise ValueError(
                f"n_points={self.grid.n_points} cannot resolve the pointer width {self.s:.12g}: "
                f"the spacing {self.grid.dx:.12g} exceeds 80 widths"
            )
        amp = gaussian_amplitudes(self.grid, 0.0, 0.0, self.s)
        if not np.sum(np.abs(amp) ** 2) * self.grid.dx > 0:
            raise ValueError(
                f"s={self.s:.12g} forms no Gaussian on the probe grid [{self.grid.x_min:.12g}, "
                f"{self.grid.x_max:.12g}]: its amplitude underflows to 0 at every point"
            )
        ready = _normalized(self.grid, amp).validate()
        mean = moments(ready).mean_x
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
    ``GridSpec`` refuses a half-width whose squares leave the float range,
    and ``ProbeSpec`` a spacing too wide for the pointer.
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
    # (pass, fail) windows per system grid, built on first use
    _windows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.width > 0 and np.isfinite(self.width)):
            raise ValueError(f"slit width must be positive and finite, got {self.width}")
        if not np.isfinite(self.center):
            raise ValueError(f"slit center must be finite, got {self.center}")

    def windows(self, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
        """The pass window |x - center| <= width/2 and the fail window, its
        complement, on a system grid as read-only (n_s, 1) boolean weights,
        built once per grid.  A slit that leaves the grid's domain raises
        InvariantViolation."""
        windows = self._windows.get(grid)
        if windows is None:
            lo, hi = self.center - 0.5 * self.width, self.center + 0.5 * self.width
            if lo < grid.x_min or hi > grid.x_max:
                raise InvariantViolation(
                    f"slit [{lo}, {hi}] outside grid domain [{grid.x_min}, {grid.x_max}]"
                )
            mask = np.abs(grid.x - self.center) <= 0.5 * self.width
            windows = self._windows[grid] = (mask[:, None], ~mask[:, None])
            for w in windows:
                w.flags.writeable = False
        return windows


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

    def __call__(self, a: np.ndarray) -> np.ndarray:
        """The (n_s, k) branch array, a new array that the caller may overwrite."""
        return self.weighted(a, self.column_weights())

    def keeps(self, a: np.ndarray) -> bool:
        """Whether the block's one branch is a[::step] itself, so that its
        momentum law is a's own, mirrored for step -1, and needs no
        transform: the flip (no weights), and a slit's window whose weights
        are 1 wherever a is not 0.  A block with a kernel or more than one
        column never keeps a, nor does a weighted reversal."""
        if self.coherence is not None or self.n_branches != 1:
            return False
        return self.weights is None or (
            self.step == 1 and not a[self.weights[:, 0] != 1].any()
        )

    def momentum_mass(self, psi: WaveFunction) -> np.ndarray:
        """sum over the columns of |momentum amplitudes|^2 of the branches
        of psi, on ``grid.p``, as a new array.

        It is the one producer of the P law after a channel.  A block that
        ``keeps`` psi reads |psi.momentum|^2, bit for bit the law before,
        mirrored for step -1: index j takes (-j) mod n, as the reversal maps
        p to -p and the Nyquist cell -n/2 dp to itself.  A one-column block
        whose weights are 0 wherever psi is not (a slit's fail window over
        a state it covers) returns zeros, bit for bit the law of its
        transformed zero branch.  Any other block without a kernel puts its
        branch array through ``signed_fft`` in place and sums |.|^2 over the
        columns, squared in place, times the transform's scale.  With a
        kernel, the law is dx^2/(2 pi hbar) times the DFT of
        sum_l A(l) c(l) over l = q (mod n), where A is the linear
        autocorrelation of a = psi.amplitudes (one zero-padded FFT of length
        2n) and c the kernel; grid.p starts at -n/2 dp, so the DFT is read
        from index n/2 to the end, then from 0 (the permutation of fftshift).
        """
        a, grid = psi.amplitudes, psi.grid
        if self.keeps(a):
            # |.| on the contiguous view: a strided one can round otherwise
            law = np.abs(psi.momentum)
            np.square(law, out=law)
            if self.step == -1:
                law[1:] = law[:0:-1].copy()
            return law
        if self.coherence is None:
            if self.n_branches == 1 and not a[:: self.step][self.weights[:, 0] != 0].any():
                return np.zeros(grid.n_points)
            branches = self(a)
            scale = signed_fft(branches, grid)
            mass = np.abs(branches)
            return np.sum(np.square(mass, out=mass), axis=1) * scale
        n = grid.n_points
        # lag l at index l mod 2n: sum_i a_i conj(a_(i-l)), zero at lag n
        lagged = np.fft.ifft(np.abs(np.fft.fft(a, 2 * n)) ** 2)
        folded = lagged[:n] * self.coherence[:n]
        folded[1:] += lagged[n + 1 :] * self.coherence[n:]
        law = np.fft.fft(folded).real * (grid.dx**2 / (2.0 * np.pi * grid.hbar))
        return np.concatenate((law[n // 2 :], law[: n // 2]))


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
    grid, so it depends on the lag alone, on every grid.  It is read from
    the real rows of ``_pointer_table`` plus their Nyquist term in closed
    form, as are ``row_edge`` and ``spread``.  A row beyond the reach of
    the states coupled may wrap around the probe grid; ``check_confinement``
    judges each state by its own weights.

    The readout law sum_i w_i |T_ij|^2 (``readout``) is read in the probe's
    Fourier domain: the DFT of |T_i.|^2 at k is n_p dp^2 / (2 pi hbar) times
    the sum over the lags l = k (mod n_p) of A(l) exp(-i g x_i l dp / hbar),
    where A(l) = sum_q m_q conj(m_(q-l)) is the autocorrelation of the ready
    state's kept momenta, 0 beyond the L - 1 lags they span.
    ``autocorrelation`` holds A(l) n_p dp^2 / (2 pi hbar) for 0 <= l < L,
    and ``lag_offsets`` (b, L) and ``lag_anchors`` (n_s/b, L) the two levels
    of exp(-i g x l dp / hbar), ``_shift_factors`` at p = l dp, as
    ``offsets`` and ``anchors`` are of the branch phases.

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
        n_p, where lag n_p - l adds the conjugate of lag l (no lag folds
        when L <= n_p/2), and taken back by one inverse real FFT."""
        n = probe_grid.n_points
        spectrum = self.characteristic(w)
        spectrum *= self.autocorrelation
        folded = spectrum[: n // 2 + 1]
        folded[n - spectrum.size + 1 :] += spectrum[n // 2 :][::-1].conj()
        return np.fft.irfft(folded, n)


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
    the plane-wave basis.  The ready state is real (a ``ValueError`` refuses
    any other), so each row is a real translate of it, read from half its
    spectrum by one inverse real FFT.  With sigma_j = (-1)^j,
    sigma * IFFT(X) = IFFT(roll(X, n_p/2)), so in ``irfft`` order the
    spectrum is the momenta p = l dp, 0 <= l < n_p/2, then the Nyquist
    momentum -n_p/2 dp, each times its phase and
    ``kernel_transform``'s scale.  ``irfft`` reads only the real part of row
    i's Nyquist input Y_ih, so the exact row is the real row R_i plus
    i nu_i (-1)^j, nu_i = Im(Y_ih)/n_p.  That term enters each figure in
    closed form: |T|^2 gains nu_i^2, and the overlap with row 0 gains
    n_p nu_i nu_0 + i (nu_i rho_0 - nu_0 rho_i), rho_i = Re(Y_ih).

    A block is whole anchor groups of ``_shift_factors``, about BRANCH_ELEMS
    real elements and at least one group.  It gives its rows' real overlaps
    with row 0 (a real matvec with the first block's row 0), and its R^2,
    squared in place, gives their edge mass and ``spread``, whose real
    products are formed about BRANCH_ELEMS at a time.  Each row's figures
    are bit-identical to those of a whole-array build.

    One ``_shift_factors`` call at p = l dp, 0 <= l < max(L, n_p/2 + 1),
    serves every phase: its first n_p/2 + 1 columns are the half spectrum
    (column n_p/2, conjugated, the Nyquist momentum), its first L columns
    the readout's lag factors exp(-1j*g*x*l*dp/hbar) for the L lags the
    kept momenta span, and a kept momentum at p < 0 takes the conjugate of
    its mirror column (``_mirrored``).  The autocorrelation is one
    zero-padded FFT of the kept momenta.
    """
    pg = probe.grid
    if probe.ready_state.amplitudes.imag.any():
        raise ValueError("the pointer table needs a real ready state, whose translates are real")
    mom = probe.ready_state.momentum
    n, n_p, h = grid.n_points, pg.n_points, pg.n_points // 2
    mass = np.abs(mom) ** 2
    kept = mass > BRANCH_FLOOR * mass.max()
    held = np.flatnonzero(kept)
    span = held[-1] - held[0] + 1
    anchors, offsets = _shift_factors(grid, np.arange(max(span, h + 1)) * pg.dp, g, pg.hbar)
    b = offsets.shape[0]
    # p = l dp for 0 <= l < n_p/2, then the Nyquist momentum: irfft's order
    half = np.append(np.arange(h), -h)
    scale = n_p * pg.dp / np.sqrt(2.0 * np.pi * pg.hbar)
    lead = mom[half + h] * scale * _mirrored(offsets, half)
    half_anchors = _mirrored(anchors, half)
    groups = max(1, BRANCH_ELEMS // (b * n_p))
    rows = max(1, BRANCH_ELEMS // n_p)
    reading = pg.x / g
    row_edge, spread, overlap = np.empty(n), np.empty(n), np.empty(n)
    nyquist = np.empty(n, complex)
    scratch = np.empty((min(n, groups * b), n_p))
    for start in range(0, n, groups * b):
        block = _shift_phases(lead, half_anchors[start // b : start // b + groups])
        stop = start + block.shape[0]
        nyquist[start:stop] = block[:, h]
        square = np.fft.irfft(block, n_p, axis=1, out=scratch[: stop - start])
        del block
        if start == 0:
            first = square[0].copy()
        overlap[start:stop] = square @ first
        np.square(square, out=square)
        row_edge[start:stop] = np.sum(square[:, :N_BOUNDARY_POINTS], axis=1)
        row_edge[start:stop] += np.sum(square[:, -N_BOUNDARY_POINTS:], axis=1)
        for i in range(start, stop, rows):
            offset = np.subtract(reading, grid.x[i : min(i + rows, stop), None])
            offset *= offset
            offset *= square[i - start : i - start + offset.shape[0]]
            np.sum(offset, axis=1, out=spread[i : i + offset.shape[0]])
    del scratch, square
    nu, rho = nyquist.imag / n_p, nyquist.real
    nu_squared = nu * nu
    row_edge += 2 * N_BOUNDARY_POINTS * nu_squared
    # sum_j (y_j/g - x_i)^2 about the mean of y/g: squares, no cancellation
    centre = reading.mean()
    spread += nu_squared * (np.sum((reading - centre) ** 2) + n_p * (centre - grid.x) ** 2)
    lags = np.empty(n, complex)
    lags.real = overlap + n_p * nu * nu[0]
    lags.imag = nu * rho[0] - nu[0] * rho
    lagged = np.fft.ifft(np.abs(np.fft.fft(np.where(kept, mom, 0.0), 2 * n_p)) ** 2)
    signed = held - h
    return PointerTable(
        measure=pg.dx,
        coherence=np.concatenate((lags, lags[:0:-1].conj())),
        row_edge=row_edge,
        spread=spread,
        amps=mom[kept] * np.sqrt(pg.dp / pg.dx),
        offsets=_mirrored(offsets, signed),
        anchors=_mirrored(anchors, signed),
        autocorrelation=lagged[:span] * (n_p * pg.dp**2 / (2.0 * np.pi * pg.hbar)),
        lag_offsets=np.ascontiguousarray(offsets[:, :span]),
        lag_anchors=np.ascontiguousarray(anchors[:, :span]),
    )


Channel = Union[FlipChannel, SlitChannel, VonNeumannChannel]


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
    ``p`` it is built with.  The pointer's table calls it once, at p >= 0
    only: a column at -p is the conjugate of the column at p
    (``_mirrored``)."""
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


def _mirrored(factors: np.ndarray, lags: np.ndarray) -> np.ndarray:
    """The columns of ``_shift_factors`` at p = l dp for signed integer
    ``lags`` l, as a new array: column |l|, conjugated where l < 0, bit for
    bit the ``exp`` at -|l| dp, as the phase arguments only change sign."""
    columns = factors[:, np.abs(lags)]
    negative = lags < 0
    columns[:, negative] = columns[:, negative].conj()
    return columns


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


def check_kicks(channel: Channel, law: np.ndarray, grid: GridSpec) -> None:
    """Judge ``law``, the P law after a pointer on ``grid.p``, by the aliasing rule of a state:
    kicks that reach the near-Nyquist band wrap around, and eta_P and W2 of P read low.
    Other channels always pass."""
    if isinstance(channel, VonNeumannChannel):
        need = f"a finer system grid (grid.n_points > {grid.n_points}) is needed"
        check_aliasing(grid, law[grid.aliasing_band], f" after the pointer's kicks: {need}")


def kraus_of(channel: Channel, grid: GridSpec) -> list[KrausBlock]:
    """Kraus family of a channel as blocks, each with its ancilla cell measure.

    Each block maps system amplitudes a to an (n_s, k) array whose columns
    are branches K_m a.  A figure sums |.|^2 over the columns of a block and
    multiplies by its measure, so that sum_m ||K_m a||^2 = ||a||^2.  Every
    block of one channel has the same step, so by completeness the position
    law after the channel is |a[::step]|^2:

    flip -> one 1-column block (the reversal), measure 1;
    slit -> two 1-column blocks (pass and fail projectors), measure 1, whose
    weights are the windows the channel keeps per grid (``SlitChannel.windows``);
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
        return [KrausBlock(weights=w) for w in channel.windows(grid)]
    if isinstance(channel, VonNeumannChannel):
        return [channel.table(grid)]
    raise TypeError(f"unknown channel {channel!r}")
