import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from edlab import (
    GaussianState,
    InvariantViolation,
    ProbabilityDistribution,
    WaveFunction,
    distribution,
    make_grid,
    make_state,
    moments,
)
from edlab.grids import TWIDDLE_BLOCK, kernel_transform

from conftest import (
    random_amplitudes,
    rel_err,
    two_exp_transform,
    uncached_kernel_transform,
    unitary_dft,
)


class TestMakeGrid:
    def test_spacing(self):
        g = make_grid(256, -16, 16, 1)
        assert g.dx == 0.125

    def test_half_cell_offset(self):
        g = make_grid(16, 0, 16, 1)
        assert g.x[0] == 0.5

    def test_momentum_grid(self):
        g = make_grid(256, -16, 16)
        assert g.dp == pytest.approx(2 * np.pi / 32)
        assert g.p[g.n_points // 2] == 0.0
        assert g.p[0] == -g.n_points // 2 * g.dp

    @pytest.mark.parametrize(
        "args",
        [
            (100, -1, 1, 1),
            (8, -1, 1, 1),
            (256, 1, -1, 1),
            (256, -1, 1, 0.0),
            (256, -1, 1, -2),
            (256.5, -1, 1, 1),
            (256, -1, 1, float("inf")),
            (256, -1, 1, float("nan")),
            (256, -1, float("inf"), 1),
            (256, float("-inf"), 1, 1),
            (256, float("nan"), 1, 1),
        ],
    )
    def test_rejects_bad_specs(self, args):
        with pytest.raises(ValueError):
            make_grid(*args)


class TestToMomentum:
    def test_gaussian_width(self, std_grid):
        psi = make_state(std_grid, GaussianState(0, 0, 1))
        m = moments(psi)
        assert rel_err(m.delta_p, 0.5) < 1e-12

    def test_boosted_gaussian_center(self, std_grid):
        psi = make_state(std_grid, GaussianState(0, 2, 1))
        assert moments(psi).mean_p == pytest.approx(2.0, abs=1e-9)

    def test_shift_theorem(self, std_grid):
        base = make_state(std_grid, GaussianState(0, 0, 1))
        shift_cells = 8
        p0 = shift_cells * std_grid.dp  # on-grid boost: exact index shift
        boosted = WaveFunction(std_grid, base.amplitudes * np.exp(1j * p0 * std_grid.x))
        d0 = distribution(base, "momentum")
        d1 = distribution(boosted, "momentum")
        assert np.allclose(np.roll(d0.weights, shift_cells), d1.weights, atol=1e-12)

    def test_parseval_random_states(self, std_grid):
        for seed in range(100):
            phi = WaveFunction(std_grid, random_amplitudes(std_grid, seed)).momentum
            assert abs(np.sqrt(np.sum(np.abs(phi) ** 2) * std_grid.dp) - 1.0) < 1e-12

    def test_roundtrip(self, std_grid):
        g = std_grid
        psi = WaveFunction(g, random_amplitudes(g, 7))
        back = kernel_transform(psi.momentum, 0, g, +1)
        assert np.max(np.abs(back - psi.amplitudes)) < 1e-15

    def test_roundtrip_fine_grid(self):
        # the twiddle's phase arguments stay <= pi/2 however fine the grid;
        # a per-element exp at |p_0 x| ~ 1e4 would lose ~1e-11 here
        g = make_grid(2**18, -40.0, 40.0)
        a = random_amplitudes(g, 3)
        back = kernel_transform(kernel_transform(a, 0, g, -1), 0, g, +1)
        assert np.max(np.abs(back - a)) <= 1e-14

    def test_double_transform_is_parity(self, corpus):
        # the forward kernel applied to momentum amplitudes gives psi(-x);
        # on the momentum grid it is the conjugate of the inverse kernel
        for _, psi in corpus:
            g = psi.grid
            twice = np.conj(kernel_transform(np.conj(psi.momentum), 0, g, +1))
            assert np.max(np.abs(twice - psi.amplitudes[::-1])) < 2e-15


class TestKernelTransformOut:
    @pytest.mark.parametrize("n", (256, 2**18))
    def test_in_place_is_bit_identical(self, n):
        # 1-D input and 2-D input along either axis, both directions
        g = make_grid(n, -16.0, 16.0)
        rng = np.random.default_rng(n)
        for shape, axis in (((n,), 0), ((n, 3), 0), ((3, n), 1)):
            arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for sign in (-1, +1):
                kept = arr.copy()
                fresh = kernel_transform(arr, axis, g, sign)
                assert np.array_equal(arr, kept)  # out=None leaves the input alone
                result = kernel_transform(arr, axis, g, sign, out=arr)
                assert result is arr and np.array_equal(result, fresh), (shape, sign)
                arr = kept

    @pytest.mark.parametrize("sign", (-1, +1))
    def test_builds_no_full_size_phase_array(self, sign):
        # the traced peak of an in-place transform stays within the input's
        # own size: no n-point sign array, no n-point twiddle.  One call
        # first, so the FFT's plan is not counted.
        g = make_grid(2**16, -16.0, 16.0)
        a = random_amplitudes(g, 7)
        kernel_transform(a, 0, g, sign, out=a)
        tracemalloc.start()
        try:
            kernel_transform(a, 0, g, sign, out=a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= a.nbytes, peak / a.nbytes

    @pytest.mark.parametrize("n", (16, 32, 256, 2**17, 2**18))
    def test_fresh_grid_keeps_p_unbuilt(self, n):
        # the twiddle anchors are formed from their n/b points alone, and
        # equal grid.p[::b] bit for bit
        g = make_grid(n, -40.0, 40.0)
        kernel_transform(np.ones(n, complex), 0, g, -1)
        assert "p" not in g.__dict__
        b = 1 << (n.bit_length() - 1) // 2
        assert np.array_equal((np.arange(0, n, b) - n // 2) * g.dp, g.p[::b])


# centred and off-centre domains, hbar 1 and 2
ORACLE_GRIDS = (
    (16, -16.0, 16.0, 1.0),
    (64, -3.0, 13.0, 1.0),
    (256, -16.0, 16.0, 1.0),
    (256, -3.0, 13.0, 2.0),
    (256, 0.0, 32.0, 1.0),
    (256, 0.0, 32.0, 2.0),
)


def oracle_inputs(n: int):
    """1-D input and 2-D input along either axis."""
    rng = np.random.default_rng(n)
    for shape, axis in (((n,), 0), ((n, 3), 0), ((3, n), 1)):
        yield rng.standard_normal(shape) + 1j * rng.standard_normal(shape), axis


class TestKernelTransformOracles:
    @pytest.mark.parametrize("spec", ORACLE_GRIDS)
    @pytest.mark.parametrize("sign", (-1, +1))
    def test_matches_dense_kernel(self, spec, sign):
        g = make_grid(*spec)
        dft = unitary_dft(g)
        # unitary_dft maps L2-normalized vectors; rescaled, it maps amplitudes
        kernel = np.sqrt(g.dx / g.dp) * dft if sign < 0 else np.sqrt(g.dp / g.dx) * dft.conj().T
        for arr, axis in oracle_inputs(g.n_points):
            expected = np.moveaxis(np.tensordot(kernel, arr, axes=(1, axis)), 0, axis)
            got = kernel_transform(arr, axis, g, sign)
            assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected)), axis

    @pytest.mark.parametrize(
        "spec", ORACLE_GRIDS + ((4096, -40.0, 40.0, 1.0), (4096, -3.0, 13.0, 2.0))
    )
    @pytest.mark.parametrize("sign", (-1, +1))
    def test_matches_two_exp_reference(self, spec, sign):
        g = make_grid(*spec)
        # the reference rounds each phase at arguments up to max|p| max|x| / hbar
        largest_phase = np.abs(g.p).max() * np.abs(g.x).max() / g.hbar
        tol = 1e-13 + 4 * np.finfo(float).eps * largest_phase
        for arr, axis in oracle_inputs(g.n_points):
            expected = two_exp_transform(arr, axis, g, sign)
            got = kernel_transform(arr, axis, g, sign)
            assert np.max(np.abs(got - expected)) <= tol * np.max(np.abs(expected)), axis


class TestTwiddleCache:
    @pytest.mark.parametrize(
        # one grid on each side of TWIDDLE_BLOCK: a whole cached twiddle, and blocks
        "spec", ORACLE_GRIDS + ((2**14, -40.0, 40.0, 1.0), (2**15, -3.0, 13.0, 2.0))
    )
    @pytest.mark.parametrize("sign", (-1, +1))
    def test_equals_uncached_constants(self, spec, sign):
        g = make_grid(*spec)
        for arr, axis in oracle_inputs(g.n_points):
            expected = uncached_kernel_transform(arr, axis, g, sign)
            # the first call on the fresh grid builds the constants, the next reads them
            for _ in range(2):
                assert np.array_equal(kernel_transform(arr, axis, g, sign), expected), axis

    def test_warm_grid_evaluates_no_exp(self, monkeypatch):
        calls = []
        exp = np.exp

        def counted_exp(*args, **kwargs):
            calls.append(1)
            return exp(*args, **kwargs)

        monkeypatch.setattr(np, "exp", counted_exp)
        g = make_grid(256, -16.0, 16.0)
        a = random_amplitudes(g, 1)
        kernel_transform(kernel_transform(a, 0, g, -1), 0, g, +1)
        assert calls  # the fresh grid builds its constants
        calls.clear()
        kernel_transform(kernel_transform(a, 0, g, -1), 0, g, +1)
        assert calls == []

    @pytest.mark.parametrize("n", (256, 2**15))
    def test_cached_constants_are_read_only(self, n):
        g = make_grid(n, -16.0, 16.0)
        for twiddle in g.twiddles.values():
            assert (twiddle.whole is None) == (n > TWIDDLE_BLOCK)
            for cached in (twiddle.anchors, twiddle.offsets, twiddle.whole):
                if cached is not None:
                    with pytest.raises(ValueError):
                        cached[0] = 1.0


COS4_NORM = 3.0 / 4.0  # integral of cos^4(pi x / 2) over [-1, 1]


def bump_quadrature_moments(halfwidth: float) -> tuple[float, float]:
    """Independent oracle for the cos^2 bump: quadrature for <X^2>, analytic <P^2>.

    <P^2> = int |psi'|^2 with psi = sqrt(4/3a) cos^2(pi x / 2a):
    psi' = -sqrt(4/3a) (pi/2a) sin(pi x / a), so <P^2> = pi^2 / (3 a^2).
    """
    a = halfwidth
    norm = COS4_NORM * a
    x2, _ = quad(lambda x: x**2 * np.cos(np.pi * x / (2 * a)) ** 4, -a, a)
    delta_x = math.sqrt(x2 / norm)
    delta_p = math.pi / (math.sqrt(3.0) * a)
    return delta_x, delta_p


class TestMoments:
    def test_gaussian_saturates_robertson(self, std_grid):
        m = moments(make_state(std_grid, GaussianState(0, 0, 1)))
        assert rel_err(m.delta_x, 1.0) < 1e-6
        assert rel_err(m.delta_x * m.delta_p, 0.5) < 1e-6

    def test_translated_gaussian_mean(self, std_grid):
        m = moments(make_state(std_grid, GaussianState(3, 0, 1)))
        assert m.mean_x == pytest.approx(3.0, abs=1e-9)

    def test_bump_against_quadrature_oracle(self, std_grid):
        from edlab import BumpState

        m = moments(make_state(std_grid, BumpState(0.0, 1.0)))
        dx_oracle, dp_oracle = bump_quadrature_moments(1.0)
        assert rel_err(m.delta_x, dx_oracle) < 1e-4
        assert rel_err(m.delta_p, dp_oracle) < 1e-3
        assert m.delta_x * m.delta_p >= 0.5

    def test_robertson_on_corpus(self, corpus):
        for spec, psi in corpus:
            m = moments(psi)
            assert m.delta_x * m.delta_p >= 0.5 * (1 - 1e-9), spec


class TestDistribution:
    def test_gaussian_position_density(self, std_grid):
        psi = make_state(std_grid, GaussianState(0, 0, 1))
        d = distribution(psi, "position")
        expected = np.exp(-(std_grid.x**2) / 2) / np.sqrt(2 * np.pi)
        assert np.max(np.abs(d.weights - expected)) < 1e-12

    def test_bump_compact_support(self, std_grid):
        from edlab import BumpState

        d = distribution(make_state(std_grid, BumpState(0.0, 1.0)), "position")
        outside = np.abs(std_grid.x) > 1.0
        assert np.all(d.weights[outside] == 0.0)

    def test_unit_mass_both_bases(self, corpus):
        for _, psi in corpus:
            for basis in ("position", "momentum"):
                d = distribution(psi, basis)
                assert abs(np.sum(d.weights) * d.spacing - 1.0) < 1e-10

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_rejects_non_finite_laws(self, bad):
        # a NaN weight fails neither the sign test nor |mass - 1| > tol, so
        # only an explicit finiteness check keeps it out of every W2 figure
        support, weights = np.arange(3.0), np.array([0.0, 1.0, 0.0])
        for s, w in ((support, np.array([bad, 1.0, 0.0])), (np.array([bad, 1.0, 2.0]), weights)):
            with pytest.raises(InvariantViolation, match="finite"):
                ProbabilityDistribution(s, w, 1.0)

    def test_rounding_negative_weight_is_clamped(self):
        w = np.array([-1e-17, 0.5, 0.5])
        d = ProbabilityDistribution(np.arange(3.0), w, 1.0)
        assert d.weights[0] == 0.0 and not np.signbit(d.weights[0])
        assert w[0] == -1e-17  # clamped into a new array
        with pytest.raises(InvariantViolation, match="negative weight"):
            ProbabilityDistribution(np.arange(3.0), np.array([-1e-9, 0.5, 0.5 + 1e-9]), 1.0)

    @pytest.mark.parametrize("first", (-1e-17, -0.0, 0.0, 0.25))
    def test_callers_weights_are_never_written(self, first):
        w = np.array([first, 0.5, 0.5 - max(first, 0.0)])
        kept = w.copy()
        d = ProbabilityDistribution(np.arange(3.0), w, 1.0)
        assert np.array_equal(w, kept) and np.array_equal(np.signbit(w), np.signbit(kept))
        assert np.all(d.weights >= 0.0)


class TestWaveFunctionInvariants:
    def test_non_contiguous_amplitudes(self, std_grid):
        a = make_state(std_grid, GaussianState(1, 0, 1)).amplitudes
        block = np.stack([a, 2 * a], axis=1)
        # a reversed view (the flip's branch) and one column of a block
        for view in (a[::-1], block[:, 0]):
            assert np.array_equal(WaveFunction(std_grid, view).amplitudes, view)
        bad = a.copy()
        bad[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            WaveFunction(std_grid, bad[::-1])

    def test_state_cannot_change_after_it_is_built(self, std_grid):
        # the cached momentum view is safe because the amplitudes are a
        # read-only copy of the caller's array
        caller = random_amplitudes(std_grid, 3)
        kept = caller.copy()
        psi = WaveFunction(std_grid, caller)
        mom = psi.momentum
        assert psi.momentum is mom
        caller[:] = 0.0
        assert np.array_equal(psi.amplitudes, kept)
        assert np.array_equal(psi.momentum, kernel_transform(psi.amplitudes, 0, std_grid, -1))
        for view in (psi.amplitudes, psi.momentum):
            with pytest.raises(ValueError, match="read-only"):
                view[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                view *= 2.0

    def test_norm_gate(self, std_grid):
        bad = WaveFunction(std_grid, 2.0 * random_amplitudes(std_grid, 1))
        with pytest.raises(InvariantViolation, match="norm"):
            bad.validate()

    def test_boundary_gate(self, std_grid):
        amp = np.zeros(std_grid.n_points, complex)
        amp[0] = 1.0
        psi = WaveFunction(std_grid, amp / np.sqrt(std_grid.dx))
        with pytest.raises(InvariantViolation, match="confinement"):
            psi.validate()

    def test_aliasing_band_is_cached_and_read_only(self):
        g = make_grid(256, -3.0, 13.0, 2.0)
        band = g.aliasing_band
        assert g.aliasing_band is band
        assert np.array_equal(band, np.abs(g.p) >= 0.9 * np.abs(g.p).max())
        with pytest.raises(ValueError, match="read-only"):
            band[0] = False

    def test_aliasing_gate(self, std_grid):
        x = std_grid.x
        p_nyq = np.abs(std_grid.p).max()
        amp = np.exp(-(x**2) / 4) * np.exp(1j * 0.97 * p_nyq * x)
        amp = amp / np.sqrt(np.sum(np.abs(amp) ** 2) * std_grid.dx)
        with pytest.raises(InvariantViolation, match="aliasing"):
            WaveFunction(std_grid, amp).validate()

