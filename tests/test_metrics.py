import functools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edlab import (
    BumpState,
    FlipChannel,
    GaussianState,
    ProbabilityDistribution,
    ProbeSpec,
    RandomState,
    SlitChannel,
    VonNeumannChannel,
    busch_state_disturbance,
    busch_state_error,
    compute_report,
    distribution,
    evaluate_relations,
    kraus_of,
    make_grid,
    make_state,
    moments,
    ozawa_disturbance,
    ozawa_error,
    probe_grid_for,
    wasserstein2,
)

from edlab import metrics
from conftest import (
    dense_pointer_eta_p,
    direct_ozawa_error,
    lund_wiseman_eta,
    make_vn_channel,
    pointer_kraus_matrices,
    rel_err,
    unblocked_wasserstein2,
    unchunked_ozawa_disturbance,
    unfused_kraus_sum,
    union1d_wasserstein2,
    unskipped_eta_p,
    unitary_dft,
    whole_table_fields,
)


# ---------------------------------------------------------------------------
# Wasserstein-2
# ---------------------------------------------------------------------------

GRID_PTS = np.linspace(-3.0, 3.0, 25)


def atomic(weights) -> ProbabilityDistribution:
    w = np.asarray(weights, float)
    spacing = GRID_PTS[1] - GRID_PTS[0]
    return ProbabilityDistribution(GRID_PTS, w / (w.sum() * spacing), spacing)


weights_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=25, max_size=25
).filter(lambda w: sum(w) > 1e-3)


def unit_law(weights, start: float) -> ProbabilityDistribution:
    """Integer weights on a unit-spaced support that begins at start."""
    w = np.asarray(weights, float)
    return ProbabilityDistribution(start + np.arange(w.size, dtype=float), w / w.sum(), 1.0)


# (weights a, weights b, shift of b): the first pair's cumulative levels tie
# at 1/2 and 1; the second law of the second is the first with zero cells
# between its cells, so every level ties
TIED_LAWS = (([1, 1, 2], [2, 1, 1], 0), ([2, 0, 1, 1], [2, 0, 0, 0, 1, 0, 1, 0], 1))


class TestWasserstein2:
    def test_translated_gaussians(self, std_grid):
        x = std_grid.x
        f = np.exp(-((x - 1) ** 2) / 2)
        g = np.exp(-((x + 1) ** 2) / 2)
        d1 = ProbabilityDistribution(x, f / (f.sum() * std_grid.dx), std_grid.dx)
        d2 = ProbabilityDistribution(x, g / (g.sum() * std_grid.dx), std_grid.dx)
        assert wasserstein2(d1, d2) == pytest.approx(2.0, abs=1e-3)

    def test_point_mass_distance(self):
        a = np.zeros(25)
        a[5] = 1.0
        b = np.zeros(25)
        b[20] = 1.0
        assert wasserstein2(atomic(a), atomic(b)) == pytest.approx(
            GRID_PTS[20] - GRID_PTS[5], abs=1e-12
        )

    @given(weights_strategy)
    @settings(max_examples=60, deadline=None)
    def test_identity(self, w):
        d = atomic(w)
        assert wasserstein2(d, d) < 1e-9

    @given(weights_strategy, weights_strategy)
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_nonnegativity(self, wa, wb):
        a, b = atomic(wa), atomic(wb)
        d_ab = wasserstein2(a, b)
        assert d_ab >= 0.0
        assert d_ab == pytest.approx(wasserstein2(b, a), abs=1e-9)

    @given(weights_strategy, weights_strategy, weights_strategy)
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, wa, wb, wc):
        a, b, c = atomic(wa), atomic(wb), atomic(wc)
        assert wasserstein2(a, c) <= wasserstein2(a, b) + wasserstein2(b, c) + 1e-9

    # small integer weights on unit-spaced supports: zero cells, and the
    # cumulative levels of two laws often tie exactly (TIED_LAWS)
    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=12).filter(any),
        st.lists(st.integers(0, 3), min_size=1, max_size=12).filter(any),
        st.integers(-4, 4),
    )
    @settings(max_examples=200, deadline=None)
    @example(*TIED_LAWS[0])
    @example(*TIED_LAWS[1])
    def test_equals_union1d_merge(self, wa, wb, shift):
        a, b = unit_law(wa, 0.0), unit_law(wb, float(shift))
        assert wasserstein2(a, b) == union1d_wasserstein2(a, b)
        assert wasserstein2(b, a) == union1d_wasserstein2(b, a)

    def test_equals_union1d_merge_on_fine_grid_flip(self):
        # the momentum laws before and after the flip at n = 2^18, as
        # busch_state_disturbance forms them
        g = make_grid(2**18, -16.0, 16.0)
        psi = make_state(g, GaussianState(0.0, 1.0, 1.0))
        before = distribution(psi, "momentum")
        (block,) = kraus_of(FlipChannel(), g)
        after = ProbabilityDistribution(g.p, block.momentum_mass(psi.amplitudes, g), g.dp)
        w2 = wasserstein2(before, after)
        assert w2 == union1d_wasserstein2(before, after)
        assert w2 == pytest.approx(2.0, abs=1e-2)


class TestW2Floor:
    def test_cells_at_or_below_the_floor_carry_no_mass(self):
        f = metrics.W2_FLOOR
        law = ProbabilityDistribution(np.arange(5.0), np.array([0.5, 0.5 * f, 0.0, 1.5 * f, 0.5]), 1.0)
        support, c = metrics._cumulative_levels(law)
        # the largest cell is 0.5: 0.5 f sits on the floor and goes, 1.5 f stays
        assert support.tolist() == [0.0, 3.0, 4.0]
        kept = np.array([0.5, 1.5 * f, 0.5])
        assert np.array_equal(c, np.cumsum(kept) / np.sum(kept))
        assert c[-1] == 1.0

    def test_rounding_in_the_tails_is_no_distance(self, std_grid):
        # a bump's law, exactly 0 off its support, against itself with cells
        # of rounding size there, where a merge of every positive cell
        # pairs points a cell apart
        psi = make_state(std_grid, BumpState(0.0, 1.0))
        clean = distribution(psi, "position")
        w = clean.weights.copy()
        assert w[3] == w[-5] == 0.0
        w[[3, -5]] = 1e-17 * w.max()
        noisy = ProbabilityDistribution(clean.support, w, clean.spacing)
        assert union1d_wasserstein2(clean, noisy) == 0.0
        assert wasserstein2(clean, noisy) == 0.0
        assert wasserstein2(noisy, clean) == 0.0


@functools.lru_cache(maxsize=2)
def fine_w2_laws(n: int) -> dict[str, tuple[ProbabilityDistribution, ProbabilityDistribution]]:
    """Pairs of n-point laws for the blocked W2: the flip's P laws as
    busch_state_disturbance forms them, Gaussians 2 apart, and a Gaussian
    against one with zero-weight cells (every third cell and a band)."""
    g = make_grid(n, -16.0, 16.0)
    psi = make_state(g, GaussianState(0.0, 1.0, 1.0))
    (block,) = kraus_of(FlipChannel(), g)
    flip = (
        distribution(psi, "momentum"),
        ProbabilityDistribution(g.p, block.momentum_mass(psi.amplitudes, g), g.dp),
    )

    def law(w):
        return ProbabilityDistribution(g.x, w / (np.sum(w) * g.dx), g.dx)

    left, right = np.exp(-((g.x + 1) ** 2) / 2), np.exp(-((g.x - 1) ** 2) / 2)
    holes = right.copy()
    holes[::3] = 0.0
    holes[np.abs(g.x - 1.5) < 0.25] = 0.0
    return {"flip_P": flip, "gaussians": (law(left), law(right)), "zero_cells": (law(left), law(holes))}


class TestBlockedWasserstein2:
    @pytest.mark.parametrize("n", (2**17, 2**18))
    @pytest.mark.parametrize("block", (metrics.W2_BLOCK, 3001))
    @pytest.mark.parametrize("case", ("flip_P", "gaussians", "zero_cells"))
    def test_matches_one_pass_merge(self, monkeypatch, n, block, case):
        # 3001 divides no power of two, so every block boundary and the last
        # block are ragged
        monkeypatch.setattr(metrics, "W2_BLOCK", block)
        a, b = fine_w2_laws(n)[case]
        oracle = unblocked_wasserstein2(a, b)
        for w2 in (wasserstein2(a, b), wasserstein2(b, a)):
            assert abs(w2 - oracle) <= 1e-14 * oracle, (w2, oracle)

    @pytest.mark.parametrize("block", (1, 2, 3))
    @pytest.mark.parametrize("wa, wb, shift", TIED_LAWS)
    def test_tied_levels_across_block_edges(self, monkeypatch, block, wa, wb, shift):
        # runs of tied levels cross block edges, so a block's first step
        # runs from the level the block before ended on, and a level the
        # block before already holds is dropped
        monkeypatch.setattr(metrics, "W2_BLOCK", block)
        a, b = unit_law(wa, 0.0), unit_law(wb, float(shift))
        for d1, d2 in ((a, b), (b, a)):
            oracle = union1d_wasserstein2(d1, d2)
            w2 = wasserstein2(d1, d2)
            assert abs(w2 - oracle) <= 1e-14 * oracle, (w2, oracle)

    def test_identical_laws_give_exactly_zero(self):
        before, after = fine_w2_laws(2**17)["flip_P"]
        assert wasserstein2(before, before) == 0.0
        # equal weights on one support object (the grid's p), and on an
        # equal copy of it, which goes through the merge
        p, dp = after.support, after.spacing
        twin = ProbabilityDistribution(p, after.weights.copy(), dp)
        assert twin.support is p
        assert wasserstein2(after, twin) == 0.0
        assert wasserstein2(after, ProbabilityDistribution(p.copy(), after.weights, dp)) == 0.0


class TestW2Memory:
    @pytest.mark.parametrize("case", ("flip_P", "gaussians"))
    def test_wasserstein2_peak(self, case):
        # no index or gap array of the 2n merged levels: the traced peak is
        # the two cumulative sums, the merged levels and one block's
        # temporaries.  One call first, as in the other memory tests.
        a, b = fine_w2_laws(2**18)[case]
        wasserstein2(a, b)
        tracemalloc.start()
        try:
            wasserstein2(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * a.weights.nbytes, peak / a.weights.nbytes

    @pytest.mark.parametrize(
        "spec, channel, cap_mib",
        [
            (GaussianState(0.0, 1.0, 1.0), FlipChannel(), 22.5),
            (BumpState(0.0, 1.0), SlitChannel(0.0, 4.0), 21.1),
        ],
    )
    def test_fine_grid_report_peak(self, spec, channel, cap_mib):
        # the report at n = 2^18 over the held state (its amplitudes and
        # cached momentum view): the law eta_P shares is no extra peak
        psi = make_state(make_grid(2**18, -16.0, 16.0), spec)
        compute_report(channel, psi)
        tracemalloc.start()
        try:
            compute_report(channel, psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cap_mib * 2**20, peak / 2**20


# ---------------------------------------------------------------------------
# RMS error: pointer oracle eps = s / |g|
# ---------------------------------------------------------------------------

# pointer (width s, gain g) pairs
POINTERS = ((0.5, 1.0), (0.25, -2.0), (0.1, 1.0), (1.0, 1.0), (0.5, 0.5))


class TestOzawaError:
    @pytest.mark.parametrize("s,g", [(0.5, 1.0), (0.5, 2.0), (0.05, 1.0), (0.25, 0.5)])
    def test_pointer_oracle(self, std_grid, s, g):
        psi = make_state(std_grid, GaussianState(0, 0, 1))
        n_probe = 1024 if s < 0.1 else 256
        channel = make_vn_channel(std_grid, psi, g, s, n_probe)
        assert rel_err(ozawa_error(channel, psi), s / abs(g)) < 1e-3

    def test_state_independent(self, std_grid, corpus):
        values = []
        for _, psi in corpus[:6]:
            channel = make_vn_channel(std_grid, psi, 1.0, 0.5)
            values.append(ozawa_error(channel, psi))
        assert np.ptp(values) < 1e-9

    def test_requires_probe_channel(self, std_grid):
        psi = make_state(std_grid, GaussianState(0, 0, 1))
        with pytest.raises(TypeError):
            ozawa_error(SlitChannel(0, 2), psi)

    @pytest.mark.parametrize("hbar", (1.0, 2.0))
    @pytest.mark.parametrize(
        "n, n_probe, pointers",
        [
            (256, 256, POINTERS),
            (256, 1024, POINTERS),
            (1024, 256, POINTERS),
            # the direct coupling takes about 70 ms a state at 1024 x 1024
            (1024, 1024, POINTERS[1:3]),
        ],
    )
    def test_table_density_matches_direct_coupling(self, n, n_probe, pointers, hbar):
        # eps from |T|^2 against the norm of the direct coupling
        # U(psi (x) ready), for centred, boosted and random states
        grid = make_grid(n, -16.0, 16.0, hbar)
        states = [make_state(grid, spec) for spec in
                  (GaussianState(0.0, 0.0, 1.0), GaussianState(1.0, 1.5, 1.2), RandomState(3, 6))]
        for s, g in pointers:
            # one channel whose probe grid confines all three states
            probe_grid = max((probe_grid_for(grid, psi, g, s, n_probe) for psi in states),
                             key=lambda pg: pg.x_max)
            channel = VonNeumannChannel(g, ProbeSpec(probe_grid, s))
            for psi in states:
                eps = ozawa_error(channel, psi)
                assert rel_err(eps, direct_ozawa_error(channel, psi)) <= 1e-15, (s, g)

    @pytest.mark.parametrize("n_probe", (256, 1024))
    def test_row_blocks_match_whole_array(self, n_probe):
        # eps from products formed a block of rows at a time against one
        # whole (n_s, n_p) array of them, bit for bit: each row sums alike
        grid = make_grid(1024, -16.0, 16.0)
        psi = make_state(grid, GaussianState(1.0, 1.5, 1.2))
        for s, g in POINTERS:
            channel = make_vn_channel(grid, psi, g, s, n_probe)
            pg = channel.probe.grid
            offset = np.subtract(pg.x[None, :] / g, grid.x[:, None]) ** 2
            spread = np.sum(offset * whole_table_fields(channel, grid)["density"], axis=1)
            whole = math.sqrt(float(np.abs(psi.amplitudes) ** 2 @ spread) * (grid.dx * pg.dx))
            assert ozawa_error(channel, psi) == whole, (s, g)


# ---------------------------------------------------------------------------
# RMS disturbance
# ---------------------------------------------------------------------------

class TestOzawaDisturbance:
    def test_flip_equals_twice_rms_position(self, std_grid, corpus):
        for spec, psi in corpus:
            eta = ozawa_disturbance(FlipChannel(), psi, "X")
            # independent quadrature oracle for 2 <X^2>^(1/2)
            oracle = 2.0 * math.sqrt(
                float(np.sum(std_grid.x**2 * np.abs(psi.amplitudes) ** 2) * std_grid.dx)
            )
            assert rel_err(eta, oracle) < 1e-6, spec

    def test_flip_bound_by_spread(self, std_grid):
        psi = make_state(std_grid, GaussianState(0, 0, 1))
        m = moments(psi)
        eta = ozawa_disturbance(FlipChannel(), psi, "X")
        assert eta == pytest.approx(2.0 * m.delta_x, rel=1e-9)
        off = make_state(std_grid, GaussianState(2, 0, 1))
        assert ozawa_disturbance(FlipChannel(), off, "X") > 2.0 * moments(off).delta_x

    def test_wide_slit_leaves_bump_undisturbed_to_grid_precision(self, std_grid):
        psi = make_state(std_grid, BumpState(0, 1))
        eta = ozawa_disturbance(SlitChannel(0, 4), psi, "P")
        assert eta < 1e-2 * moments(psi).delta_p

    def test_wide_slit_disturbance_vanishes_with_resolution(self):
        # the floor is trig-interpolant ringing of the C^1 bump, ~ n^-2
        values = []
        for n in (256, 1024, 4096):
            grid = make_grid(n, -16, 16)
            psi = make_state(grid, BumpState(0, 1))
            values.append(ozawa_disturbance(SlitChannel(0, 4), psi, "P"))
        assert values[1] < 0.1 * values[0]
        assert values[2] < 0.1 * values[1]

    def test_narrow_slit_disturbs(self, std_grid):
        psi = make_state(std_grid, BumpState(0, 1))
        eta = ozawa_disturbance(SlitChannel(0, 1), psi, "P")
        assert eta > 0.5

    @pytest.mark.parametrize("s,g", [(0.5, 1.0), (0.25, 1.0), (0.5, 2.0)])
    def test_coupling_oracle(self, std_grid, s, g):
        psi = make_state(std_grid, GaussianState(0, 0, 1))
        channel = make_vn_channel(std_grid, psi, g, s)
        eta = ozawa_disturbance(channel, psi, "P")
        assert rel_err(eta, abs(g) * std_grid.hbar / (2 * s)) < 1e-3

    def test_coupling_leaves_position_untouched(self, std_grid, vn_default):
        channel, psi = vn_default
        assert ozawa_disturbance(channel, psi, "X") < 1e-10

    @pytest.mark.parametrize(
        "n, n_probe, g, hbar, chunk_columns",
        [
            (1024, 256, 1.0, 1.0, None),
            (1024, 256, -2.0, 2.0, None),
            (256, 1024, 0.5, 1.0, None),
            (256, 64, 1.0, 2.0, None),  # one chunk of 64 columns, fewer than BRANCH_ELEMS allows
            (1024, 256, 1.0, 1.0, 100),  # 100 + 100 + 56 columns: a ragged last chunk
            (256, 64, -1.0, 1.0, 1),  # one branch per chunk
        ],
    )
    def test_chunks_match_unchunked_oracle(self, monkeypatch, n, n_probe, g, hbar, chunk_columns):
        # eta from chunks of branch columns against the whole (n_s, k)
        # branch arrays, for the pointer, the flip and the slit
        if chunk_columns is not None:
            monkeypatch.setattr(metrics, "BRANCH_ELEMS", chunk_columns * n)
        grid = make_grid(n, -16.0, 16.0, hbar)
        for spec in (GaussianState(1.0, 1.5, 1.2), RandomState(5, 6)):
            psi = make_state(grid, spec)
            channels = (make_vn_channel(grid, psi, g, 0.5, n_probe), FlipChannel(), SlitChannel(0.5, 3.0))
            for channel in channels:
                for obs in ("P", "X"):
                    eta = ozawa_disturbance(channel, psi, obs)
                    oracle = unchunked_ozawa_disturbance(channel, psi, obs)
                    assert eta == oracle or rel_err(eta, oracle) <= 1e-14, (channel, obs)

    @pytest.mark.parametrize(
        "n, n_probe, g, hbar, chunk_columns",
        [
            (1024, 256, 1.0, 1.0, None),
            (1024, 1024, -2.0, 2.0, None),
            (256, 1024, 0.5, 1.0, None),
            (1024, 256, 1.0, 1.0, 100),  # a ragged last chunk
            (256, 64, -1.0, 1.0, 1),  # one branch per chunk
        ],
    )
    def test_fused_chunks_match_unfused_loop(self, monkeypatch, n, n_probe, g, hbar, chunk_columns):
        # eta and the P law after from the Kraus loop, whose pointer chunks
        # carry sigma in their weights and take K B psi in their buffer,
        # against the loop of three arrays a chunk with its sign passes, bit
        # for bit, for the pointer, the flip and the slit (one window cuts
        # psi, one covers it and skips its zero fail branch)
        if chunk_columns is not None:
            monkeypatch.setattr(metrics, "BRANCH_ELEMS", chunk_columns * n)
            monkeypatch.setattr("conftest.BRANCH_ELEMS", chunk_columns * n)
        grid = make_grid(n, -16.0, 16.0, hbar)
        for spec in (GaussianState(1.0, 1.5, 1.2), RandomState(5, 6), BumpState(0.0, 1.0)):
            psi = make_state(grid, spec)
            channels = (
                make_vn_channel(grid, psi, g, 0.5, n_probe),
                FlipChannel(),
                SlitChannel(0.5, 3.0),
                SlitChannel(0.0, 4.0),
            )
            for channel in channels:
                for obs in ("P", "X"):
                    laws = [np.zeros(n), np.zeros(n)] if obs == "P" else [None, None]
                    fused = metrics._kraus_sum(channel, psi, obs, law=laws[0])
                    assert fused == unfused_kraus_sum(channel, psi, obs, law=laws[1]), (channel, obs)
                    if obs == "P":
                        assert np.array_equal(laws[0], laws[1]), channel

    @pytest.mark.parametrize("hbar, x_min, x_max", [(1.0, -8.0, 8.0), (2.0, -5.0, 11.0)])
    def test_p_multiplier_matches_dense_dft(self, monkeypatch, hbar, x_min, x_max):
        # the Kraus loop's two operands are sigma P K psi and sigma K P psi,
        # sigma_i = (-1)^i, and its P law after is sum_m |F K_m psi|^2 / dp,
        # for P = F^dag diag(p) F from a dense unitary DFT F; the off-centre
        # grid's plane-wave phase e_j is not 1
        grid = make_grid(64, x_min, x_max, hbar)
        dft = unitary_dft(grid)
        dense_p = dft.conj().T @ (grid.p[:, None] * dft)
        sigma = (-1.0) ** np.arange(64)[:, None]
        psi = make_state(grid, BumpState(grid.center, 2.0))
        channels = [SlitChannel(grid.center + 0.5, 3.0), make_vn_channel(grid, psi, 1.0, 0.5, 64)]
        if grid.is_symmetric():
            channels.append(FlipChannel())
        operands = []

        def keep(b_k, k_b):
            operands.append((b_k.copy(), k_b.copy()))
            return 0.0

        monkeypatch.setattr(metrics, "_squared_gap", keep)
        for channel in channels:
            operands.clear()
            law = np.zeros(64)
            metrics._kraus_sum(channel, psi, "P", law=law)
            blocks = kraus_of(channel, grid)
            assert len(operands) == len(blocks)  # one chunk per block at n = 64
            dense_law = np.zeros(64)
            for k, (b_k, k_b) in zip(blocks, operands):
                branches = k(psi.amplitudes)
                for got, want in ((b_k, dense_p @ branches), (k_b, k(dense_p @ psi.amplitudes))):
                    want = sigma * want
                    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), channel
                spectra = dft @ (branches * math.sqrt(grid.dx))
                dense_law += np.sum(np.abs(spectra) ** 2, axis=1) / grid.dp * k.measure
            assert np.max(np.abs(law - dense_law)) <= 1e-13 * np.max(dense_law), channel

    def test_kraus_joint_equivalence(self):
        grid = make_grid(64, -8, 8)
        for spec in (BumpState(0, 2), RandomState(3, 4), RandomState(11, 5)):
            psi = make_state(grid, spec)
            channel = VonNeumannChannel(1.0, ProbeSpec(probe_grid_for(grid, psi, 1.0, 0.5, 64), 0.5))
            a = ozawa_disturbance(channel, psi, "P")
            b = dense_pointer_eta_p(channel, psi)
            assert rel_err(a, b) < 1e-7


# ---------------------------------------------------------------------------
# Distribution-distance figures
# ---------------------------------------------------------------------------

class TestBuschStateDisturbance:
    def test_flip_even_state_zero(self, std_grid):
        psi = make_state(std_grid, GaussianState(0, 0, 1))
        assert busch_state_disturbance(FlipChannel(), psi, "X") < 1e-8

    def test_flip_translated_gaussian(self, std_grid):
        psi = make_state(std_grid, GaussianState(1, 0, 1))
        # closed form: W2 between identical densities translated by 2
        assert busch_state_disturbance(FlipChannel(), psi, "X") == pytest.approx(2.0, abs=1e-3)

    def test_wide_slit_on_bump_zero(self, std_grid):
        psi = make_state(std_grid, BumpState(0, 1))
        assert busch_state_disturbance(SlitChannel(0, 4), psi, "P") < 1e-8

    def test_coupling_momentum_kick(self, std_grid, vn_default):
        channel, psi = vn_default
        kick = channel.g * std_grid.hbar / (2 * channel.probe.s)
        delta_p = moments(psi).delta_p
        oracle = math.sqrt(delta_p**2 + kick**2) - delta_p
        value = busch_state_disturbance(channel, psi, "P")
        assert value == pytest.approx(oracle, abs=0.02)

    def test_contrast_with_rms_figure(self, std_grid):
        # the package's central contrast: flipped even state has zero
        # distribution distance but nonzero RMS disturbance
        psi = make_state(std_grid, GaussianState(0, 0, 1))
        assert busch_state_disturbance(FlipChannel(), psi, "X") < 1e-8
        assert ozawa_disturbance(FlipChannel(), psi, "X") == pytest.approx(2.0, rel=1e-9)


@pytest.mark.parametrize("figure", (ozawa_disturbance, busch_state_disturbance))
@pytest.mark.parametrize("observable", ("x", "p", "Q"))
def test_unknown_observable_is_rejected(std_grid, figure, observable):
    psi = make_state(std_grid, GaussianState(1.0, 0.5, 1.0))
    for channel in (FlipChannel(), SlitChannel(0.25, 2.0)):
        with pytest.raises(ValueError, match="observable must be 'X' or 'P'"):
            figure(channel, psi, observable)


class TestReportMatchesSeparateCalls:
    @pytest.mark.parametrize("n", (256, 4096))
    def test_report_figures_equal_separate_calls(self, n):
        # compute_report reads eta_P and the P law after from one Kraus pass;
        # the separate calls form each on its own, the oracle of that pass
        grid = make_grid(n, -16.0, 16.0)
        psi = make_state(grid, GaussianState(0.5, 1.0, 1.0))
        channels = (
            FlipChannel(),
            SlitChannel(0.25, 2.0),
            make_vn_channel(grid, psi, 1.0, 0.5),
            make_vn_channel(grid, psi, -2.0, 0.25),
        )
        for channel in channels:
            report = compute_report(channel, psi)
            assert report.eta_o_P == ozawa_disturbance(channel, psi, "P"), channel
            assert report.eta_o_X == ozawa_disturbance(channel, psi, "X"), channel
            assert report.w2_disturbance_P == busch_state_disturbance(channel, psi, "P"), channel
            assert report.w2_disturbance_X == busch_state_disturbance(channel, psi, "X"), channel

    def test_covered_slit_skips_its_zero_branch_exactly(self, std_grid):
        # the fail branch of a window over the whole bump is exactly 0; the
        # oracle transforms it, the Kraus loop does not
        psi = make_state(std_grid, BumpState(0.0, 1.0))
        channel = SlitChannel(0.0, 4.0)
        assert not kraus_of(channel, std_grid)[1](psi.amplitudes).any()
        oracle = unskipped_eta_p(channel, psi)
        assert compute_report(channel, psi).eta_o_P == oracle
        assert ozawa_disturbance(channel, psi, "P") == oracle


class TestBuschStateError:
    def test_against_convolution_oracle(self, std_grid, vn_default):
        channel, psi = vn_default
        value = busch_state_error(channel, psi)
        # independent oracle: readout = |psi|^2 convolved with the calibrated
        # pointer density, coupled against the ideal density
        ideal = distribution(psi, "position")
        pg = channel.probe.grid
        pointer = np.abs(channel.probe.ready_state.amplitudes) ** 2
        support = np.add.outer(std_grid.x, pg.x / channel.g).ravel()
        mass = np.outer(ideal.weights * std_grid.dx, pointer * pg.dx).ravel()
        order = np.argsort(support, kind="stable")
        support, mass = support[order], mass[order]
        cum = np.cumsum(mass)
        cum /= cum[-1]
        levels = np.linspace(0, 1, 20001)[1:]
        q_or = support[np.minimum(np.searchsorted(cum, levels - 1e-15), len(support) - 1)]
        icum = np.cumsum(ideal.weights * std_grid.dx)
        icum /= icum[-1]
        q_id = std_grid.x[np.minimum(np.searchsorted(icum, levels - 1e-15), 255)]
        oracle = math.sqrt(np.mean((q_or - q_id) ** 2))
        assert value == pytest.approx(oracle, abs=5e-3)

    def test_sharp_pointer_limit(self):
        # fine grid keeps the atomic-coupling floor below the effect
        grid = make_grid(1024, -16, 16)
        psi = make_state(grid, GaussianState(0, 0, 1))
        errs = [
            busch_state_error(make_vn_channel(grid, psi, 1.0, s, n_probe=1024), psi)
            for s in (0.5, 0.2, 0.1)
        ]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.02

    def test_even_state_even_outcomes(self, std_grid, vn_default):
        channel, psi = vn_default
        coupled_err = busch_state_error(channel, psi)
        assert coupled_err == pytest.approx(math.sqrt(1.25) - 1.0, abs=0.02)

    @pytest.mark.parametrize("g", [1.0, 2.0])
    @pytest.mark.parametrize("spec", [GaussianState(0, 0, 1), GaussianState(1.5, 0.5, 1)])
    def test_negative_gain_mirrors_positive(self, std_grid, spec, g):
        # g < 0 reverses the readout support; every pointer figure depends on |g| only
        psi = make_state(std_grid, spec)

        def figures(gain):
            channel = make_vn_channel(std_grid, psi, gain, 0.5)
            return (
                ozawa_error(channel, psi),
                ozawa_disturbance(channel, psi, "P"),
                busch_state_error(channel, psi),
                busch_state_disturbance(channel, psi, "P"),
            )

        for plus, minus in zip(figures(g), figures(-g)):
            assert rel_err(minus, plus) < 1e-12


# ---------------------------------------------------------------------------
# eta against the weak-valued joint distribution
# ---------------------------------------------------------------------------

def lw_matrix_oracle(kraus_mats, psi_l2, basis_map, b_values) -> float:
    """Brute-force weak-valued joint distribution, all bins materialized."""
    phi = basis_map @ psi_l2
    eta_sq = 0.0
    for K in kraus_mats:
        A = basis_map @ K @ basis_map.conj().T
        Aphi = A @ phi
        w = np.real(np.conj(A * phi[None, :]) * Aphi[:, None])  # w[k, j]
        diff_sq = (b_values[:, None] - b_values[None, :]) ** 2  # (k, j)
        eta_sq += float(np.sum(diff_sq * w))
    return math.sqrt(max(eta_sq, 0.0))


class TestLundWiseman:
    def test_flip_matches_rms(self, std_grid, corpus):
        for spec, psi in corpus:
            a = lund_wiseman_eta(FlipChannel(), psi, "X")
            b = ozawa_disturbance(FlipChannel(), psi, "X")
            assert rel_err(a, b) < 1e-6, spec

    def test_slit_matches_rms(self, std_grid):
        psi = make_state(std_grid, GaussianState(0, 0, 1.5))
        for width in (1.0, 2.0, 5.0):
            a = lund_wiseman_eta(SlitChannel(0, width), psi, "P")
            b = ozawa_disturbance(SlitChannel(0, width), psi, "P")
            assert rel_err(a, b) < 1e-6

    def test_wide_slit_on_bump_near_zero(self, std_grid):
        psi = make_state(std_grid, BumpState(0, 1))
        a = lund_wiseman_eta(SlitChannel(0, 4), psi, "P")
        b = ozawa_disturbance(SlitChannel(0, 4), psi, "P")
        assert a < 1e-2 * moments(psi).delta_p
        assert rel_err(a, b) < 1e-6

    def test_coupling_matches_rms(self, std_grid, corpus):
        for _, psi in corpus[:5]:
            channel = make_vn_channel(std_grid, psi, 1.0, 0.5)
            a = lund_wiseman_eta(channel, psi, "P")
            b = ozawa_disturbance(channel, psi, "P")
            assert rel_err(a, b) < 1e-6

    def test_brute_force_joint_distribution_oracle(self):
        grid = make_grid(32, -8, 8)
        psi = make_state(grid, BumpState(0, 3))
        psi_l2 = psi.amplitudes * math.sqrt(grid.dx)
        V = unitary_dft(grid)
        n = grid.n_points
        flip_mat = np.eye(n)[::-1]
        mask = np.abs(grid.x) <= 1.5
        cases = [
            (FlipChannel(), [flip_mat], "X"),
            (FlipChannel(), [flip_mat], "P"),
            (SlitChannel(0, 3), [np.diag(mask.astype(float)), np.diag((~mask).astype(float))], "P"),
        ]
        for channel, mats, obs in cases:
            basis = np.eye(n) if obs == "X" else V
            b = grid.x if obs == "X" else grid.p
            oracle = lw_matrix_oracle(mats, psi_l2, basis, b)
            value = ozawa_disturbance(channel, psi, obs)
            assert value == pytest.approx(oracle, rel=1e-12)

    def test_brute_force_oracle_von_neumann(self):
        grid = make_grid(32, -8, 8)
        psi = make_state(grid, BumpState(0, 3))
        probe_grid = probe_grid_for(grid, psi, 1.0, 0.5, 64)
        channel = VonNeumannChannel(1.0, ProbeSpec(probe_grid, 0.5))
        psi_l2 = psi.amplitudes * math.sqrt(grid.dx)
        mats = pointer_kraus_matrices(channel, grid)
        V = unitary_dft(grid)
        oracle = lw_matrix_oracle(mats, psi_l2, V, grid.p)
        value = ozawa_disturbance(channel, psi, "P")
        assert value == pytest.approx(oracle, rel=1e-12)


# ---------------------------------------------------------------------------
# Memory of the pointer's RMS figures
# ---------------------------------------------------------------------------

class TestPointerMemory:
    def test_rms_figures_build_no_branch_array(self):
        # with the table built, the traced peak of each pointer figure stays
        # well below one (n_s, n_p) complex array: eta forms its branches in
        # chunks of two arrays, the signed weights (which then take K B psi)
        # and K psi, eps reads the table's spread, and the readout law its
        # lag factors (0.29, 0.004 and 0.018 of the array here).  One call
        # first, so cached grids and FFT plans are not counted.
        grid = make_grid(1024, -16.0, 16.0)
        psi = make_state(grid, GaussianState(0.5, 1.0, 1.0))
        channel = make_vn_channel(grid, psi, 1.0, 0.5, 256)
        channel.table(grid)
        joint = 16 * 1024 * 256  # bytes of one complex (n_s, n_p) array
        figures = {
            "eta_P": (lambda: ozawa_disturbance(channel, psi, "P"), 0.35),
            "eps": (lambda: ozawa_error(channel, psi), 0.05),
            "w2_error_X": (lambda: busch_state_error(channel, psi), 0.05),
        }
        for name, (figure, bound) in figures.items():
            figure()
            tracemalloc.start()
            try:
                figure()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound * joint, (name, peak / joint)


# ---------------------------------------------------------------------------
# Transforms per report
# ---------------------------------------------------------------------------

class TestTransformCounts:
    @pytest.fixture
    def counts(self, monkeypatch):
        """Patch every edlab binding of ``kernel_transform`` and numpy's fft
        and ifft to count their calls; returns the two lists of calls."""
        import edlab.grids

        original = edlab.grids.kernel_transform
        transforms, ffts = [], []

        def counted(*args, **kwargs):
            transforms.append(args[3])
            return original(*args, **kwargs)

        binders = [
            m for name, m in sys.modules.items()
            if name.split(".")[0] == "edlab" and getattr(m, "kernel_transform", None) is original
        ]
        assert {m.__name__ for m in binders} >= {"edlab.grids", "edlab.channels", "edlab.metrics"}
        for module in binders:
            monkeypatch.setattr(module, "kernel_transform", counted)

        def counted_fft(fn):
            def call(*args, **kwargs):
                ffts.append(fn.__name__)
                return fn(*args, **kwargs)

            return call

        for name in ("fft", "ifft"):
            monkeypatch.setattr(np.fft, name, counted_fft(getattr(np.fft, name)))
        return transforms, ffts

    @pytest.mark.parametrize(
        "spec, channel, expected",
        [
            # validate 1 and P psi 1, both through kernel_transform; the
            # block's P multiplier: one FFT forward and one back, 2; the P
            # law after reads the block's forward FFT: 0
            (GaussianState(1.0, 0.5, 1.0), FlipChannel(), 4),
            # as the flip, with the slit's two blocks: 1 + 1 + 4 + 0
            (BumpState(0.0, 1.0), SlitChannel(0.0, 1.0), 6),
            # the window covers the bump, so the fail branch is exactly 0
            # and is not transformed: 1 + 1 + 2 + 0
            (BumpState(0.0, 1.0), SlitChannel(0.0, 4.0), 4),
        ],
    )
    def test_state_transforms_to_momentum_once(self, std_grid, counts, spec, channel, expected):
        # every later read of psi's momentum amplitudes (moments, the P law
        # before, P psi) uses the view that validation computed; ``expected``
        # counts every FFT, those inside kernel_transform too
        transforms, ffts = counts
        psi = make_state(std_grid, spec)
        compute_report(channel, psi)
        assert transforms == [-1, 1], transforms
        assert len(ffts) == expected, ffts

    def test_pointer_report_transforms_table_by_blocks(self, std_grid, counts):
        # psi, the ready state, the table's shifted rows (two blocks of 128
        # rows on the 256 x 256 grid) and P psi; the branches and the P law
        # after take plain FFTs only
        transforms, _ = counts
        psi = make_state(std_grid, GaussianState(0.5, 1.0, 1.0))
        compute_report(make_vn_channel(std_grid, psi, 1.0, 0.5), psi)
        assert transforms == [-1, -1, 1, 1, 1], transforms


# ---------------------------------------------------------------------------
# Relations
# ---------------------------------------------------------------------------

class TestEvaluateRelations:
    def test_slit_scenario_numbers(self, std_grid):
        psi = make_state(std_grid, BumpState(0, 1))
        m = moments(psi)
        rel = evaluate_relations(4.0, 0.0, m.delta_x, m.delta_p, 1.0)
        assert rel["product_eq2_form"] == 0.0
        assert not rel["eq2_form_satisfied"]
        assert rel["lhs_eq5"] == pytest.approx(4.0 * m.delta_p)
        assert rel["eq5_satisfied"]
        assert rel["robertson_satisfied"]

    def test_coupling_saturates_product(self):
        s = 0.5
        rel = evaluate_relations(s, 1.0 / (2 * s), 1.0, 0.5, 1.0)
        assert rel["product_eq2_form"] == pytest.approx(0.5)
        assert rel["eq2_form_satisfied"] and rel["eq5_satisfied"]
        assert rel["product_eq2_form"] - rel["hbar_over_2"] == pytest.approx(0.0, abs=1e-12)
        assert rel["lhs_eq5"] > rel["hbar_over_2"]

    def test_degenerate_channel_not_applicable(self):
        rel = evaluate_relations(0.0, 0.0, 1.0, 0.5, 1.0)
        assert not rel["eq5_applicable"]
        assert rel["lhs_eq5"] == 0.0
        # eps = NaN: a channel with no readout, such as the flip
        rel = evaluate_relations(math.nan, 1.0, 1.0, 0.5, 1.0)
        assert not rel["eq5_applicable"]
        assert math.isnan(rel["lhs_eq5"]) and math.isnan(rel["product_eq2_form"])
        assert not rel["eq5_satisfied"] and not rel["eq2_form_satisfied"]
        assert rel["robertson_product"] == 0.5 and rel["robertson_satisfied"]

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            evaluate_relations(-1.0, 0.0, 1.0, 0.5, 1.0)

    def test_positive_definite_gap(self, std_grid, corpus):
        # lhs - eps*eta = eps*dP + eta*dX >= 0 always
        for _, psi in corpus[:8]:
            m = moments(psi)
            channel = make_vn_channel(std_grid, psi, 1.0, 0.5)
            eps = ozawa_error(channel, psi)
            eta = ozawa_disturbance(channel, psi, "P")
            rel = evaluate_relations(eps, eta, m.delta_x, m.delta_p, 1.0)
            assert rel["lhs_eq5"] - rel["product_eq2_form"] >= 0.0
