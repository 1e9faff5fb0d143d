import math

import numpy as np
import pytest

from edlab import (
    BumpState,
    GaussianState,
    GridSpec,
    ProbabilityDistribution,
    ProbeSpec,
    RandomState,
    SymmetricPairState,
    VonNeumannChannel,
    make_grid,
    make_state,
    probe_grid_for,
)
from edlab.channels import (
    BRANCH_ELEMS,
    N_BOUNDARY_POINTS,
    _shift_factors,
    _shift_phases,
    apply_von_neumann,
    branch_mass,
    check_confinement,
    kraus_of,
)
from edlab.grids import kernel_transform, signed_fft
from edlab.metrics import W2_FLOOR, _squared_gap


@pytest.fixture(scope="session")
def std_grid() -> GridSpec:
    return make_grid(256, -16.0, 16.0)


@pytest.fixture(scope="session")
def corpus(std_grid):
    """Mixed bag of valid states covering every factory."""
    specs = [
        GaussianState(0.0, 0.0, 1.0),
        GaussianState(3.0, 0.0, 1.0),
        GaussianState(0.0, 2.0, 1.0),
        GaussianState(-2.0, -1.0, 1.5),
        GaussianState(1.0, 0.5, 2.0),
        BumpState(0.0, 1.0),
        BumpState(1.0, 1.0),
        BumpState(0.0, 2.0),
        BumpState(-1.0, 1.5),
        SymmetricPairState(3.0, 1.0),
        SymmetricPairState(0.0, 1.0),
    ] + [RandomState(seed, 6) for seed in range(10)]
    return [(spec, make_state(std_grid, spec)) for spec in specs]


def make_vn_channel(grid, psi, g: float, s: float, n_probe: int = 256) -> VonNeumannChannel:
    probe_grid = probe_grid_for(grid, psi, g, s, n_probe)
    return VonNeumannChannel(g, ProbeSpec(probe_grid, s))


@pytest.fixture(scope="session")
def vn_default(std_grid):
    psi = make_state(std_grid, GaussianState(0.0, 0.0, 1.0))
    return make_vn_channel(std_grid, psi, 1.0, 0.5), psi


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b))


def random_amplitudes(grid: GridSpec, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
    return a / np.sqrt(np.sum(np.abs(a) ** 2) * grid.dx)


def unitary_dft(grid: GridSpec) -> np.ndarray:
    """Dense unitary DFT matrix from L2-normalized position to momentum vectors."""
    scale = math.sqrt(grid.dx * grid.dp / (2 * math.pi * grid.hbar))
    return scale * np.exp(-1j * np.outer(grid.p, grid.x) / grid.hbar)


def two_exp_transform(arr: np.ndarray, axis: int, grid: GridSpec, sign: int) -> np.ndarray:
    """The plane-wave transform as two n-point phase vectors around one FFT,
    each an ``exp`` per element at arguments up to |p_0 x|/hbar."""
    if sign < 0:
        src0, src_step, dst0, dst_step = grid.x[0], grid.dx, grid.p[0], grid.dp
    else:
        src0, src_step, dst0, dst_step = grid.p[0], grid.dp, grid.x[0], grid.dx
    n = grid.n_points
    idx = np.arange(n)
    shape = [1] * arr.ndim
    shape[axis] = n
    inner = np.exp(sign * 1j * dst0 * (src0 + idx * src_step) / grid.hbar).reshape(shape)
    outer = np.exp(sign * 1j * (idx * dst_step) * src0 / grid.hbar).reshape(shape)
    if sign < 0:
        work = np.fft.fft(arr * inner, axis=axis)
    else:
        work = np.fft.ifft(arr * inner, axis=axis) * n
    return src_step / math.sqrt(2 * math.pi * grid.hbar) * outer * work


def direct_phases(system_grid: GridSpec, probe_grid: GridSpec, g: float) -> np.ndarray:
    """The shift phases exp(-i g x_i p_j / hbar), one ``exp`` per element."""
    return np.exp(-1j * g * np.outer(system_grid.x, probe_grid.p) / probe_grid.hbar)


def direct_conditional_shift(
    mom: np.ndarray, system_grid: GridSpec, probe_grid: GridSpec, g: float
) -> np.ndarray:
    """A row of probe momentum amplitudes translated by g*x_i in row i, from
    the direct phases; the oracle of the package's two-level phase product."""
    return kernel_transform(mom * direct_phases(system_grid, probe_grid, g), 1, probe_grid, +1)


def conditional_shift(
    mom: np.ndarray, system_grid: GridSpec, probe_grid: GridSpec, g: float
) -> np.ndarray:
    """The whole (n_s, n_p) table T of translated ready states: ``mom``, a row
    of probe momentum amplitudes, times the two-level phases of
    ``channels._shift_factors`` in row i, transformed in place along the
    probe axis.  The package's earlier whole-table build, kept as the oracle
    of the ``PointerTable`` that is built a block of rows at a time."""
    pg = probe_grid
    anchors, offsets = _shift_factors(system_grid, pg.p, g, pg.hbar)
    shifted = _shift_phases(mom * offsets, anchors)
    return kernel_transform(shifted, 1, pg, +1, out=shifted)


def whole_table_fields(channel: VonNeumannChannel, grid: GridSpec) -> dict[str, np.ndarray]:
    """``row_edge``, ``coherence``, ``density`` and ``spread`` of the channel's
    table on a grid, each read from the whole T of ``conditional_shift`` as
    one whole-array expression."""
    pg = channel.probe.grid
    table = conditional_shift(channel.probe.ready_state.momentum, grid, pg, channel.g)
    edges = np.abs(table[:, :N_BOUNDARY_POINTS]) ** 2, np.abs(table[:, -N_BOUNDARY_POINTS:]) ** 2
    lags = table @ table[0].conj()
    density = np.abs(table) ** 2
    offset = np.subtract(pg.x[None, :] / channel.g, grid.x[:, None]) ** 2
    return {
        "row_edge": np.sum(edges[0], axis=1) + np.sum(edges[1], axis=1),
        "coherence": np.concatenate((lags, lags[:0:-1].conj())),
        "density": density,
        "spread": np.sum(offset * density, axis=1),
    }


def product_state(psi, probe: ProbeSpec) -> np.ndarray:
    """psi (x) ready as an (n_s, n_p) array of amplitudes."""
    return np.outer(psi.amplitudes, probe.ready_state.amplitudes)


def joint_norm(amplitudes: np.ndarray, system_grid: GridSpec, probe_grid: GridSpec) -> float:
    """The L2 norm of an (n_s, n_p) array, with the cell dx * dy of the two grids."""
    return float(np.sqrt(np.sum(np.abs(amplitudes) ** 2) * system_grid.dx * probe_grid.dx))


def pointer_kraus_matrices(channel: VonNeumannChannel, grid: GridSpec) -> np.ndarray:
    """Dense Kraus operators K_j = sqrt(dy) diag(ready(y_j - g x_i)) of the pointer.

    The translated pointer ready(y - g x_i) is the periodic shift of the ready
    state through momentum phases, built from dense DFT matrices rather than
    from the package's FFT path.  Returns shape (n_p, n_s, n_s); meant for
    grids with n <= 64.
    """
    pg = channel.probe.grid
    assert grid.n_points <= 64 and pg.n_points <= 64
    dft = unitary_dft(pg)
    phi = dft @ channel.probe.ready_state.amplitudes
    # row i: ready(y - g x_i)
    table = (direct_phases(grid, pg, channel.g) * phi[None, :]) @ dft.conj()
    diag = np.sqrt(pg.dx) * table.T  # (n_p, n_s)
    return diag[:, :, None] * np.eye(grid.n_points)[None, :, :]


def dense_pointer_eta_p(channel: VonNeumannChannel, psi) -> float:
    """eta_P^2 = sum_j ||P K_j psi - K_j P psi||^2 with dense matrices (n <= 64)."""
    dft = unitary_dft(psi.grid)
    P = dft.conj().T @ (psi.grid.p[:, None] * dft)
    v = psi.amplitudes * math.sqrt(psi.grid.dx)
    Ks = pointer_kraus_matrices(channel, psi.grid)
    return math.sqrt(sum(np.linalg.norm(P @ K @ v - K @ P @ v) ** 2 for K in Ks))


def position_basis_eta_p(channel: VonNeumannChannel, psi) -> float:
    """eta_P^2 = sum_j dy ||P K_j psi - K_j P psi||^2 over the pointer's
    position-basis branches, the columns of a[:, None] * T with measure dy
    for the table T of translated ready states from ``conditional_shift``:
    the package's earlier Kraus block, kept as the oracle of its
    probe-momentum branches.  P is the spectral multiplier through
    ``kernel_transform``, on the whole (n_s, n_p) array."""
    check_confinement(channel, psi)
    g, pg = psi.grid, channel.probe.grid
    table = conditional_shift(channel.probe.ready_state.momentum, g, pg, channel.g)

    def momentum_op(amps):
        mom = kernel_transform(amps, 0, g, -1)
        mom *= g.p[:, None]
        return kernel_transform(mom, 0, g, +1, out=mom)

    a = psi.amplitudes[:, None]
    gap = momentum_op(a * table) - momentum_op(a) * table
    return math.sqrt(float(np.sum(np.abs(gap) ** 2)) * g.dx * pg.dx)


def union1d_wasserstein2(d1: ProbabilityDistribution, d2: ProbabilityDistribution) -> float:
    """W2 by the quantile coupling with ``np.union1d`` and one binary search
    per level and law: the package's earlier merge, kept as the oracle of
    ``metrics.wasserstein2``, which must equal it bit for bit.  Cells at or
    below ``W2_FLOOR`` times a law's largest cell carry no mass, as there."""
    x, wx = d1.support, d1.weights * d1.spacing
    y, wy = d2.support, d2.weights * d2.spacing
    kx = wx > W2_FLOOR * wx.max()
    ky = wy > W2_FLOOR * wy.max()
    x, wx = x[kx], wx[kx]
    y, wy = y[ky], wy[ky]
    cx = np.cumsum(wx)
    cy = np.cumsum(wy)
    cx /= cx[-1]
    cy /= cy[-1]
    levels = np.union1d(cx, cy)
    ix = np.minimum(np.searchsorted(cx, levels - 1e-15), len(x) - 1)
    iy = np.minimum(np.searchsorted(cy, levels - 1e-15), len(y) - 1)
    du = np.diff(np.concatenate(([0.0], levels)))
    return float(np.sqrt(np.sum(du * (x[ix] - y[iy]) ** 2)))


def unblocked_wasserstein2(d1: ProbabilityDistribution, d2: ProbabilityDistribution) -> float:
    """W2 with the merged levels searched, gathered and summed in one pass:
    the package's earlier body, kept as the oracle of the blocked
    ``metrics.wasserstein2``.  Laws with equal weights are merged too; the
    cells above ``W2_FLOOR`` times a law's largest cell are its mass."""

    def cumulative_levels(d):
        support, w = d.support, d.weights * d.spacing
        kept = w > W2_FLOOR * w.max()
        support, w = support[kept], w[kept]
        c = np.cumsum(w, out=w)
        c /= c[-1]
        return support, c

    x, cx = cumulative_levels(d1)
    y, cy = cumulative_levels(d2)
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


def direct_ozawa_error(channel: VonNeumannChannel, psi) -> float:
    """eps = || (X_probe/g - X_s) U |psi, ready> || from the direct coupling of
    psi (x) ready: the package's earlier path, kept as the oracle of
    ``metrics.ozawa_error``, which reads the spread of |T|^2 from the
    channel's table."""
    check_confinement(channel, psi)
    pg = channel.probe.grid
    coupled = apply_von_neumann(product_state(psi, channel.probe), psi.grid, pg, channel.g)
    coupled *= pg.x[None, :] / channel.g - psi.grid.x[:, None]
    return joint_norm(coupled, psi.grid, pg)


def unchunked_kraus_sum(channel, psi, observable: str, term, skip_commuting: bool = False):
    """sum_m term(B K_m psi, K_m B psi) * dx * measure from each block's whole
    (n_s, k) branch array, with B along the system axis 0: the package's
    earlier path, kept as the oracle of the chunked ``metrics._kraus_sum``.
    ``term`` returns a number or an array of numbers to sum alike."""
    g = psi.grid
    check_confinement(channel, psi)

    def apply(amps):
        if observable == "X":
            return g.x[:, None] * amps
        mom = kernel_transform(amps, 0, g, -1) * g.p[:, None]
        return kernel_transform(mom, 0, g, +1)

    b_psi = apply(psi.amplitudes[:, None])[:, 0]
    total = 0.0
    for k in kraus_of(channel, g):
        if skip_commuting and observable == "X" and k.step == 1:
            continue
        total += term(apply(k(psi.amplitudes)), k(b_psi)) * g.dx * k.measure
    return total


def unskipped_eta_p(channel, psi) -> float:
    """eta_P from each block's whole branch array through the spectral P of
    ``metrics._kraus_sum``: sigma, FFT, x p and inverse FFT on B K psi, sigma
    on K B psi, and |gap|^2 as the sum of its squared real and imaginary
    parts, with every block transformed, also one that is exactly 0.  The
    oracle, bit for bit, of the Kraus loop's zero-branch skip."""
    g = psi.grid
    mom = psi.momentum * g.p
    b_psi = kernel_transform(mom, 0, g, +1, out=mom)
    total = 0.0
    for k in kraus_of(channel, g):
        b_k = k(psi.amplitudes)
        signed_fft(b_k, g)
        b_k *= g.p[:, None]
        np.fft.ifft(b_k, axis=0, out=b_k)
        k_b = k(b_psi)
        k_b[1::2] *= -1.0
        parts = (b_k - k_b).view(np.float64)
        total += float(np.sum(parts * parts)) * g.dx * k.measure
    return math.sqrt(total)


def unchunked_ozawa_disturbance(channel, psi, observable: str) -> float:
    """eta^2 = sum_m || B K_m psi - K_m B psi ||^2 from whole branch arrays."""

    def term(b_k, k_b):
        return float(np.sum(np.abs(b_k - k_b) ** 2))

    return math.sqrt(unchunked_kraus_sum(channel, psi, observable, term, skip_commuting=True))


def unchunked_lund_wiseman_square(channel, psi, observable: str) -> tuple[float, float]:
    """The weak-valued eta^2 before clamping, <B^2> + sum_m (||B K_m psi||^2 -
    2 Re<K_m B psi, B K_m psi>), from whole branch arrays, and the sum of the
    magnitudes of its terms, the scale its rounding error is judged against."""
    g = psi.grid
    if observable == "X":
        m_in = float(np.sum(np.abs(g.x * psi.amplitudes) ** 2) * g.dx)
    else:
        m_in = float(np.sum(np.abs(g.p * psi.momentum) ** 2) * g.dp)

    def term(b_k, k_b):
        out = float(np.sum(np.abs(b_k) ** 2))
        cross = 2.0 * float(np.real(np.vdot(k_b, b_k)))
        return np.array([out - cross, out + abs(cross)])

    raw, magnitude = unchunked_kraus_sum(channel, psi, observable, term)
    return m_in + raw, m_in + magnitude


def lund_wiseman_eta(channel, psi, observable: str) -> float:
    """eta from the weak-valued joint distribution of (before, after), the
    estimator of Lund and Wiseman that left the package: criterion 5's
    oracle of ``metrics.ozawa_disturbance``.  Rounding can drive the square
    slightly negative near zero disturbance, so it is clamped at zero."""
    raw, _ = unchunked_lund_wiseman_square(channel, psi, observable)
    return math.sqrt(max(raw, 0.0))


def unfused_kraus_sum(channel, psi, observable: str, law: np.ndarray | None = None) -> float:
    """eta^2 from chunks of three (n_s, c) arrays, the unsigned weights, K psi
    and K B psi, each chunk of K psi signed in ``signed_fft`` and each of
    K B psi by a pass of its own: the package's earlier Kraus loop, kept as
    the oracle, bit for bit, of ``metrics._kraus_sum``, whose pointer
    chunks carry sigma in their weights.  ``law`` as there."""
    g = psi.grid
    check_confinement(channel, psi)
    size = max(1, BRANCH_ELEMS // g.n_points)
    b_psi = None
    total = 0.0
    for k in kraus_of(channel, g):
        if observable == "X" and k.step == 1:
            continue
        if law is not None and k.coherence is not None:
            law += k.momentum_mass(psi.amplitudes, g) * k.measure
        for j in range(0, k.n_branches, size):
            weights = k.column_weights(slice(j, j + size))
            b_k = k.weighted(psi.amplitudes, weights)
            if observable == "X":
                np.multiply(g.x[:, None], b_k, out=b_k)
            elif k.coherence is not None or b_k.any():
                scale = signed_fft(b_k, g)
                if law is not None and k.coherence is None:
                    law += branch_mass(b_k) * scale * k.measure
                b_k *= g.p[:, None]
                np.fft.ifft(b_k, axis=0, out=b_k)
            if b_psi is None and observable == "X":
                b_psi = g.x * psi.amplitudes
            elif b_psi is None:
                b_psi = kernel_transform(mom := psi.momentum * g.p, 0, g, +1, out=mom)
            k_b = k.weighted(b_psi, weights)
            if observable == "P":
                k_b[1::2] *= -1.0
            total += _squared_gap(b_k, k_b) * g.dx * k.measure
    return total
