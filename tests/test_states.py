import tracemalloc

import numpy as np
import pytest

from edlab import (
    BumpState,
    GaussianState,
    InvariantViolation,
    RandomState,
    SymmetricPairState,
    make_grid,
    make_state,
    moments,
)

from edlab.states import _hermite_series

from conftest import rel_err


class TestMakeState:
    def test_gaussian_width(self, std_grid):
        psi = make_state(std_grid, GaussianState(0, 0, 1))
        assert rel_err(moments(psi).delta_x, 1.0) < 1e-6

    def test_bump_exact_zeros(self, std_grid):
        psi = make_state(std_grid, BumpState(0, 1))
        outside = np.abs(std_grid.x) > 1.0
        assert np.all(psi.amplitudes[outside] == 0.0)

    def test_bump_profile(self, std_grid):
        psi = make_state(std_grid, BumpState(0, 1))
        inside = np.abs(std_grid.x) <= 1.0
        profile = np.cos(np.pi * std_grid.x[inside] / 2) ** 2
        ratio = psi.amplitudes[inside].real / profile
        assert np.allclose(ratio, ratio[0], atol=1e-12)

    def test_bump_centered_mean(self, std_grid):
        psi = make_state(std_grid, BumpState(0, 1))
        assert abs(moments(psi).mean_x) < 1e-10

    def test_every_factory_output_validates(self, corpus):
        for _, psi in corpus:
            psi.validate()

    def test_gaussian_outside_domain(self, std_grid):
        with pytest.raises(InvariantViolation, match="domain"):
            make_state(std_grid, GaussianState(15.0, 0, 1.0))

    def test_gaussian_too_narrow(self, std_grid):
        with pytest.raises(InvariantViolation, match="resolve"):
            make_state(std_grid, GaussianState(0, 0, 0.5))

    def test_gaussian_too_wide_fails_confinement(self, std_grid):
        with pytest.raises(InvariantViolation):
            make_state(std_grid, GaussianState(0, 0, 4.0))

    def test_bump_outside_domain(self, std_grid):
        with pytest.raises(InvariantViolation, match="domain"):
            make_state(std_grid, BumpState(15.5, 1.0))

    def test_symmetric_pair_is_even(self, std_grid):
        # reflection about the domain center is the index reversal
        for grid, spec in (
            (std_grid, SymmetricPairState(3.0, 1.0)),
            (std_grid, GaussianState(0.0, 0.0, 1.0)),
            (make_grid(256, 0.0, 32.0), GaussianState(16.0, 0.0, 1.0)),
        ):
            a = make_state(grid, spec).amplitudes
            assert np.max(np.abs(a - a[::-1])) < 1e-12, spec

    def test_random_series_matches_kept_hermite_functions(self):
        # the series summed as the recurrence runs, against all k + 1
        # functions kept in a list and summed afterwards, bit for bit
        for n, k in ((256, 0), (256, 1), (256, 6), (1024, 60), (1024, 1023)):
            x = make_grid(n, -16.0, 16.0).x
            h = [np.pi**-0.25 * np.exp(-0.5 * x**2)]
            if k >= 1:
                h.append(np.sqrt(2.0) * x * h[0])
            for j in range(1, k):
                h.append(np.sqrt(2.0 / (j + 1)) * x * h[j] - np.sqrt(j / (j + 1)) * h[j - 1])
            rng = np.random.default_rng(k)
            coeffs = rng.standard_normal(k + 1) + 1j * rng.standard_normal(k + 1)
            oracle = np.zeros(n, dtype=complex)
            for c, f in zip(coeffs, h):
                oracle += c * f
            assert np.array_equal(_hermite_series(x, coeffs), oracle), (n, k)

    def test_random_smoothness_must_be_below_grid_size(self, std_grid):
        for k in (-1, std_grid.n_points, std_grid.n_points + 1, 10**8):
            with pytest.raises(ValueError, match="smoothness must be in"):
                make_state(std_grid, RandomState(1, k))
        make_state(std_grid, RandomState(1, 20))

    def test_random_smoothness_must_be_integral(self, std_grid):
        # a library caller's 6.5 is not the k = 6 state; an integral float is
        for k in (6.5, 0.5, 254.999):
            with pytest.raises(ValueError, match="integral"):
                make_state(std_grid, RandomState(1, k))
        whole = make_state(std_grid, RandomState(1, 6.0))
        assert np.array_equal(whole.amplitudes, make_state(std_grid, RandomState(1, 6)).amplitudes)

    def test_random_state_memory_does_not_grow_with_smoothness(self):
        # two Hermite functions are alive at once, not k + 1: the largest
        # admitted k, rejected later by the state gates, peaks no higher
        # than k = 6 plus its k + 1 coefficients
        grid = make_grid(1024, -16.0, 16.0)
        make_state(grid, RandomState(1, 6))
        peaks = {}
        for k in (6, 1023):
            tracemalloc.start()
            try:
                make_state(grid, RandomState(1, k))
            except InvariantViolation:
                pass
            finally:
                peaks[k] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        assert peaks[1023] <= peaks[6] + 64 * 1024, peaks

    def test_random_reproducible(self, std_grid):
        a = make_state(std_grid, RandomState(42, 6))
        b = make_state(std_grid, RandomState(42, 6))
        assert np.array_equal(a.amplitudes, b.amplitudes)
        c = make_state(std_grid, RandomState(43, 6))
        assert not np.array_equal(a.amplitudes, c.amplitudes)

