import pytest

from edlab import (
    GaussianState,
    InvariantViolation,
    SearchSpec,
    busch_state_disturbance,
    busch_state_error,
    eq2_check,
    make_state,
    maximize,
)
from edlab.supsearch import trace_to_csv


def sigma_spec(lo=1.0, hi=4.0, n=6, iters=1):
    return SearchSpec(
        x0_bounds=(0.0, 0.0),
        p0_bounds=(0.0, 0.0),
        sigma_bounds=(lo, hi),
        coarse_counts=(1, 1, n),
        refine_tol=1e-3,
        max_refine_iters=iters,
    )


def family_probe(std_grid, psi, g=1.0, s=0.5):
    # probe wide enough for every sigma in [1, 4]
    from edlab import ProbeSpec, VonNeumannChannel
    from edlab.grids import GridSpec

    half = abs(g) * (0.0 + 8.0 * 4.0) + 12.0 * s
    return VonNeumannChannel(g, ProbeSpec(GridSpec(256, -half, half, std_grid.hbar), s))


class TestMaximize:
    def test_disturbance_monotone_in_sigma(self, std_grid):
        channel = family_probe(std_grid, None, 1.0, 0.5)
        spec = sigma_spec(iters=0)
        result = maximize(
            lambda psi: busch_state_disturbance(channel, psi, "P"), std_grid, spec
        )
        admissible = [t for t in result.trace if t.admissible]
        values = [t.value for t in admissible]
        assert values == sorted(values)  # increases along the sigma trace
        # brute-force oracle over the same sigma grid
        oracle = max(
            busch_state_disturbance(channel, make_state(std_grid, GaussianState(0, 0, t.sigma)), "P")
            for t in admissible
        )
        assert result.value >= oracle - 1e-12

    def test_disturbance_argmax_at_largest_admissible_sigma(self, std_grid):
        channel = family_probe(std_grid, None, 1.0, 0.5)
        result = maximize(
            lambda psi: busch_state_disturbance(channel, psi, "P"), std_grid, sigma_spec(iters=2)
        )
        admissible = [t.sigma for t in result.trace if t.admissible]
        assert result.argmax.sigma == pytest.approx(max(admissible), rel=1e-6)
        assert result.n_excluded > 0  # confinement filtering kicked in and was logged

    def test_error_argmax_at_smallest_sigma(self, std_grid):
        channel = family_probe(std_grid, None, 1.0, 0.5)
        result = maximize(
            lambda psi: busch_state_error(channel, psi), std_grid, sigma_spec(hi=2.0, n=5, iters=2)
        )
        assert result.argmax.sigma == pytest.approx(1.0, abs=5e-3)

    def test_constant_metric(self, std_grid):
        result = maximize(lambda psi: 0.0, std_grid, sigma_spec(hi=2.0, n=3, iters=1))
        assert result.value == 0.0
        # deterministic tie-break: the first (lexicographically smallest) point
        assert result.trace[0].sigma == pytest.approx(1.0)

    def test_value_is_exact_argmax_evaluation(self, std_grid):
        channel = family_probe(std_grid, None, 1.0, 0.5)
        result = maximize(
            lambda psi: busch_state_disturbance(channel, psi, "P"), std_grid, sigma_spec(iters=1)
        )
        re_eval = busch_state_disturbance(
            channel, make_state(std_grid, result.argmax), "P"
        )
        assert abs(result.value - re_eval) < 1e-12

    def test_value_bounds_every_trace_entry(self, std_grid):
        channel = family_probe(std_grid, None, 1.0, 0.5)
        result = maximize(
            lambda psi: busch_state_disturbance(channel, psi, "P"), std_grid, sigma_spec(iters=2)
        )
        for t in result.trace:
            if t.admissible:
                assert result.value >= t.value - 1e-15

    def test_determinism(self, std_grid):
        channel = family_probe(std_grid, None, 1.0, 0.5)
        spec = sigma_spec(iters=1)
        metric = lambda psi: busch_state_disturbance(channel, psi, "P")
        a = maximize(metric, std_grid, spec)
        b = maximize(metric, std_grid, spec)
        assert a.value == b.value
        assert a.argmax == b.argmax
        assert repr(a.trace) == repr(b.trace)  # NaN-tolerant exact comparison

    def test_empty_family(self, std_grid):
        spec = SearchSpec(
            x0_bounds=(14.0, 15.0),
            p0_bounds=(0.0, 0.0),
            sigma_bounds=(1.0, 2.0),
            coarse_counts=(2, 1, 2),
            refine_tol=1e-3,
            max_refine_iters=0,
        )
        with pytest.raises(InvariantViolation, match="empty"):
            maximize(lambda psi: 1.0, std_grid, spec)

    def test_spec_validation(self, std_grid):
        # the whole message, so the derived bounds print as they always have
        with pytest.raises(ValueError, match=r"^sigma_lo 0\.5 not resolvable: below 8 grid cells \(1\.0\)$"):
            sigma_spec(lo=0.5).validate(std_grid)
        with pytest.raises(ValueError, match=r"^sigma_hi 5\.0 exceeds domain/8 = 4\.0$"):
            sigma_spec(hi=5.0).validate(std_grid)
        # the x0 bounds stay on the grid, so they cannot size a probe past it
        for x0_bounds in ((-1.0, 1e300), (-16.5, 0.0)):
            spec = SearchSpec(x0_bounds, (0.0, 0.0), (1.0, 4.0))
            with pytest.raises(ValueError, match=r"^x0 bounds .* outside the grid domain \[-16\.0, 16\.0\]$"):
                spec.validate(std_grid)
        SearchSpec((-16.0, 16.0), (0.0, 0.0), (1.0, 4.0)).validate(std_grid)

    def test_trace_csv(self, std_grid, tmp_path):
        channel = family_probe(std_grid, None, 1.0, 0.5)
        result = maximize(
            lambda psi: busch_state_disturbance(channel, psi, "P"), std_grid, sigma_spec(iters=1)
        )
        path = tmp_path / "landscape.csv"
        trace_to_csv(result, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "x0,p0,sigma,value"
        assert len(lines) == len(result.trace) + 1


@pytest.fixture(scope="module")
def report(std_grid):
    channel = family_probe(std_grid, None, 1.0, 0.5)
    spec_err = SearchSpec((0.0, 0.0), (0.0, 0.0), (1.0, 2.0), (1, 1, 5), 1e-3, 2)
    spec_dist = SearchSpec((0.0, 0.0), (0.0, 0.0), (1.0, 4.0), (1, 1, 7), 1e-3, 2)
    return eq2_check(channel, std_grid, spec_err, spec_dist)


class TestEq2Check:
    def test_distinct_argmaxes(self, report):
        assert report.argmax_distinct
        assert report.argmax_error.sigma < report.argmax_disturbance.sigma

    def test_product_below_ideal_bound(self, report):
        # per-state distribution distances for this model never exceed the
        # pointer noise / momentum kick, so the family product is bounded by
        # hbar/2; the family sup is a lower bound that approaches it from below
        assert report.product <= 0.5 + 1e-9
        assert report.product == pytest.approx(report.epsilon_b * report.eta_b)

    def test_single_state_cannot_attain_both(self, report):
        assert report.crosscheck_product_at_argmax_dist < report.product

    def test_halving_pointer_width_moves_both_figures(self, std_grid, report):
        narrow = family_probe(std_grid, None, 1.0, 0.25)
        spec_err = SearchSpec((0.0, 0.0), (0.0, 0.0), (1.0, 2.0), (1, 1, 5), 1e-3, 1)
        spec_dist = SearchSpec((0.0, 0.0), (0.0, 0.0), (1.0, 4.0), (1, 1, 7), 1e-3, 1)
        halved = eq2_check(narrow, std_grid, spec_err, spec_dist)
        assert halved.epsilon_b < report.epsilon_b  # sharper pointer: smaller error
        assert halved.eta_b > report.eta_b  # larger momentum kick

    def test_slit_maximized_disturbance_nonzero(self, std_grid):
        # the bump slides through the wide slit undisturbed, yet the same
        # slit has nonzero disturbing power over the family
        from edlab import BumpState, SlitChannel

        channel = SlitChannel(0.0, 4.0)
        bump = make_state(std_grid, BumpState(0, 1))
        assert busch_state_disturbance(channel, bump, "P") < 1e-8
        spec = sigma_spec(iters=1)
        result = maximize(
            lambda psi: busch_state_disturbance(channel, psi, "P"), std_grid, spec
        )
        assert result.value > 0.1

    def test_product_grows_with_domain(self):
        # the family sup approaches the ideal bound as the admissible family
        # widens; a size ladder must show monotone growth
        from edlab import make_grid

        products = []
        for n, half in ((256, 16.0), (512, 32.0)):
            grid = make_grid(n, -half, half)
            channel = family_probe(grid, None, 1.0, 0.5)
            s_lo = 8 * grid.dx
            spec_err = SearchSpec((0.0, 0.0), (0.0, 0.0), (s_lo, 2.0), (1, 1, 5), 1e-3, 1)
            spec_dist = SearchSpec(
                (0.0, 0.0), (0.0, 0.0), (1.0, (2 * half) / 8), (1, 1, 7), 1e-3, 1
            )
            rep = eq2_check(channel, grid, spec_err, spec_dist)
            products.append(rep.product)
        assert products[1] > products[0]

    def test_each_distinct_member_is_scored_once(self, monkeypatch):
        # the default eq2 error search visits some members more than once;
        # each is scored once, and only the error is scored again, at the
        # disturbance argmax.  tests/test_cli.py checks the outputs against
        # the eq2 goldens.
        from edlab import supsearch
        from edlab.cli import load_config, run_eq2

        calls = {"error": 0, "disturbance": 0}

        def counting(name, fn):
            def metric(*args):
                calls[name] += 1
                return fn(*args)

            return metric

        monkeypatch.setattr(supsearch, "busch_state_error", counting("error", busch_state_error))
        monkeypatch.setattr(
            supsearch, "busch_state_disturbance", counting("disturbance", busch_state_disturbance)
        )
        result = run_eq2(load_config(None, [], None, "eq2"))

        def distinct(search):
            return len({(t.x0, t.p0, t.sigma) for t in search.trace if t.admissible})

        assert len(result.error_search.trace) == 170  # every visit stays in the trace
        assert distinct(result.error_search) < 170 - result.error_search.n_excluded
        assert calls["error"] == distinct(result.error_search) + 1
        assert calls["disturbance"] == distinct(result.disturbance_search)

    def test_rounding_noise_moves_neither_argmax_nor_trace(self, monkeypatch):
        # the default eq2 figures times (1 + 4e-16 N(0, 1)), a few ulps per
        # member: along the flat p0 axis of the error and the even x0 axis
        # of the disturbance, such noise must not choose the search's path
        import numpy as np

        from edlab import supsearch
        from edlab.cli import load_config, run_eq2

        def outcome(seed):
            rng = None if seed is None else np.random.default_rng(seed)

            def noisy(fn):
                def metric(*args):
                    v = fn(*args)
                    return v if rng is None else v * (1.0 + 4e-16 * rng.standard_normal())

                return metric

            monkeypatch.setattr(supsearch, "busch_state_error", noisy(busch_state_error))
            monkeypatch.setattr(supsearch, "busch_state_disturbance", noisy(busch_state_disturbance))
            r = run_eq2(load_config(None, [], None, "eq2"))
            return (
                r.argmax_error,
                r.argmax_disturbance,
                len(r.error_search.trace),
                len(r.disturbance_search.trace),
            )

        clean = outcome(None)
        for seed in range(8):
            assert outcome(seed) == clean, seed
