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

    def test_random_reproducible(self, std_grid):
        a = make_state(std_grid, RandomState(42, 6))
        b = make_state(std_grid, RandomState(42, 6))
        assert np.array_equal(a.amplitudes, b.amplitudes)
        c = make_state(std_grid, RandomState(43, 6))
        assert not np.array_equal(a.amplitudes, c.amplitudes)

