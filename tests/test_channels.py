import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from edlab import (
    BumpState,
    ConfinementError,
    FlipChannel,
    GaussianState,
    InvariantViolation,
    ProbabilityDistribution,
    ProbeSpec,
    RandomState,
    SearchSpec,
    SlitChannel,
    VonNeumannChannel,
    WaveFunction,
    busch_state_disturbance,
    compute_report,
    distribution,
    eq2_check,
    kraus_of,
    make_grid,
    make_state,
    ozawa_disturbance,
    ozawa_error,
    probe_grid_for,
    wasserstein2,
)

from edlab.channels import (
    BRANCH_FLOOR,
    CONFINEMENT_TOL,
    KrausBlock,
    PointerTable,
    apply_von_neumann,
    check_confinement,
)
from edlab.grids import kernel_transform
from edlab.states import gaussian_amplitudes
from conftest import (
    conditional_shift,
    direct_conditional_shift,
    direct_phases,
    half_spectrum_fields,
    joint_norm,
    make_vn_channel,
    pointer_kraus_matrices,
    position_basis_eta_p,
    product_state,
    random_amplitudes,
    unitary_dft,
    whole_table_fields,
)


def flip(psi):
    """The flip's single Kraus branch, as position amplitudes."""
    (k,) = kraus_of(FlipChannel(), psi.grid)
    return k(psi.amplitudes)[:, 0]


class TestFlip:
    def test_reflects_translated_gaussian(self, std_grid):
        psi = make_state(std_grid, GaussianState(1, 0, 1))
        target = make_state(std_grid, GaussianState(-1, 0, 1))
        assert np.max(np.abs(flip(psi) - target.amplitudes)) < 1e-12

    def test_fixes_even_gaussian(self, std_grid):
        psi = make_state(std_grid, GaussianState(0, 0, 1))
        assert np.max(np.abs(flip(psi) - psi.amplitudes)) < 1e-12

    def test_reflects_offset_bump(self):
        grid = make_grid(1024, -16, 16)
        psi = make_state(grid, BumpState(0.5, 0.25))
        target = make_state(grid, BumpState(-0.5, 0.25))
        assert np.max(np.abs(flip(psi) - target.amplitudes)) < 1e-12

    def test_exact_index_permutation(self, corpus):
        for _, psi in corpus:
            assert np.array_equal(flip(psi), psi.amplitudes[::-1])

    def test_even_state_momentum_distribution_unchanged(self, std_grid):
        psi = make_state(std_grid, GaussianState(0, 0, 1.5))
        before = distribution(psi, "momentum")
        after = distribution(WaveFunction(std_grid, flip(psi)), "momentum")
        assert np.max(np.abs(before.weights - after.weights)) < 1e-12

    def test_requires_symmetric_domain(self):
        g = make_grid(256, 0, 32)
        psi = make_state(g, GaussianState(16, 0, 1))
        with pytest.raises(InvariantViolation, match="symmetric"):
            flip(psi)
        # kraus_of knows the three channels and no other
        with pytest.raises(TypeError, match="^unknown channel"):
            kraus_of("flip", g)


class TestVonNeumann:
    def test_conditional_shift_recenters_pointer(self):
        # near-position-eigenstate: the pointer marginal recenters at g * x0,
        # from the direct coupling, the whole table's |T|^2 and the
        # channel's readout law alike
        grid = make_grid(2048, -8, 8)
        psi = make_state(grid, GaussianState(2.0, 0.0, 0.1))
        channel = make_vn_channel(grid, psi, 1.0, 0.5)
        pg = channel.probe.grid
        joint = apply_von_neumann(product_state(psi, channel.probe), grid, pg, 1.0)
        weights = np.abs(psi.amplitudes) ** 2 * grid.dx
        for probe_m in (
            np.sum(np.abs(joint) ** 2, axis=0) * grid.dx,
            weights @ whole_table_fields(channel, grid)["density"],
            channel.table(grid).readout(weights, pg),
        ):
            mean = np.sum(pg.x * probe_m) * pg.dx
            assert mean == pytest.approx(2.0, abs=1e-9)
            var = np.sum(pg.x**2 * probe_m) * pg.dx - mean**2
            assert var == pytest.approx(0.5**2 + 1.0**2 * 0.1**2, rel=1e-6)

    def test_unitarity_and_inverse(self, std_grid, vn_default):
        channel, psi = vn_default
        pg = channel.probe.grid
        joint = product_state(psi, channel.probe)
        forward = apply_von_neumann(joint, std_grid, pg, channel.g)
        assert abs(joint_norm(forward, std_grid, pg) - 1.0) < 1e-12
        back = apply_von_neumann(forward, std_grid, pg, -channel.g)
        assert np.max(np.abs(back - joint)) < 1e-12

    def test_zero_gain_rejected(self, vn_default, monkeypatch):
        channel, _ = vn_default
        with pytest.raises(ValueError, match="nonzero"):
            VonNeumannChannel(0.0, channel.probe)
        # so is a pointer whose probe spacing exceeds 80 widths, before any amplitude
        pg = channel.probe.grid
        monkeypatch.setattr("edlab.channels.gaussian_amplitudes", None)
        with pytest.raises(ValueError, match="^n_points=256 cannot resolve"):
            ProbeSpec(pg, pg.dx / 80.5)
        # and a pointer width that is not positive with a finite square
        for s in (0.0, -0.5, float("nan"), 1e200):
            with pytest.raises(ValueError, match="^s must be positive"):
                ProbeSpec(pg, s)

    def test_tiny_gain_is_continuous(self, std_grid, vn_default):
        # first-order response: ||U_g Psi - Psi|| = g * sqrt(<x^2><p_probe^2>) = g here
        channel, psi = vn_default
        pg = channel.probe.grid
        joint = product_state(psi, channel.probe)
        for g in (1e-9, 1e-10):
            nudged = apply_von_neumann(joint, std_grid, pg, g)
            delta = joint_norm(nudged - joint, std_grid, pg)
            assert delta == pytest.approx(g, rel=1e-3)

    def test_confinement_error_raised(self, std_grid):
        # the RMS error judges its state by the same rule as every other figure
        psi = make_state(std_grid, GaussianState(0, 0, 1))
        small = make_grid(256, -2, 2)
        channel = VonNeumannChannel(1.0, ProbeSpec(small, 0.25))
        with pytest.raises(InvariantViolation, match="confinement"):
            ozawa_error(channel, psi)

    def test_unitary_on_corpus(self, std_grid, corpus):
        for _, psi in corpus[:6]:
            channel = make_vn_channel(std_grid, psi, 1.0, 0.5)
            pg = channel.probe.grid
            joint = apply_von_neumann(product_state(psi, channel.probe), std_grid, pg, 1.0)
            assert abs(joint_norm(joint, std_grid, pg) - 1.0) < 1e-12


class TestConditionalShift:
    def test_two_level_phases_match_direct_phases(self):
        # anchor rows times in-block offsets against one exp per element, on
        # the row the table broadcasts; on the narrow probe domain the shifts
        # wrap around
        rng = np.random.default_rng(5)
        for n in (16, 64, 256):
            for hbar in (1.0, 2.0):
                grid = make_grid(n, -12.0, 12.0, hbar)
                spread = WaveFunction(grid, random_amplitudes(grid, 0))
                for g in (0.5, 1.0, 2.0, -1.0):
                    for pg in (probe_grid_for(grid, spread, g, 0.5, 128), make_grid(128, -4.0, 4.0, hbar)):
                        mom = rng.standard_normal(128) + 1j * rng.standard_normal(128)
                        oracle = direct_conditional_shift(mom, grid, pg, g)
                        shifted = conditional_shift(mom, grid, pg, g)
                        err = np.max(np.abs(shifted - oracle))
                        assert err <= 1e-13 * np.max(np.abs(oracle)), (n, hbar, g, pg)


def slit(psi, center, width):
    """Pass and fail branches K_m psi of the slit and their probabilities."""
    blocks = kraus_of(SlitChannel(center, width), psi.grid)
    branches = [k(psi.amplitudes)[:, 0] for k in blocks]
    probs = [
        float(np.sum(np.abs(b) ** 2) * psi.grid.dx) * k.measure for b, k in zip(branches, blocks)
    ]
    return branches, probs


class TestSlit:
    def test_wide_slit_passes_bump_untouched(self, std_grid):
        psi = make_state(std_grid, BumpState(0, 1))
        (passed, failed), (pass_prob, _) = slit(psi, 0.0, 4.0)
        assert pass_prob == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(passed - psi.amplitudes)) < 1e-12
        assert not np.any(failed)  # the fail branch is exactly zero

    def test_gaussian_pass_probability_matches_erf(self, std_grid):
        psi = make_state(std_grid, GaussianState(0, 0, 2))
        _, (pass_prob, _) = slit(psi, 0.0, 1.0)
        oracle = math.erf(0.5 / (2.0 * math.sqrt(2.0)))
        assert pass_prob == pytest.approx(oracle, rel=1e-3)

    def test_full_domain_slit(self, std_grid):
        psi = make_state(std_grid, GaussianState(0, 0, 1))
        _, (pass_prob, fail_prob) = slit(psi, 0.0, 32.0)
        assert pass_prob == pytest.approx(1.0, abs=1e-12)
        assert fail_prob == 0.0

    def test_windows_are_built_once_per_grid(self, std_grid):
        # the pass and fail windows, read-only, shared by every Kraus family
        # of the channel on that grid; equal channels still compare equal
        channel = SlitChannel(0.5, 2.0)
        windows = channel.windows(std_grid)
        assert channel.windows(std_grid) is windows
        assert all(w.shape == (256, 1) and not w.flags.writeable for w in windows)
        assert all(k.weights is w for k, w in zip(kraus_of(channel, std_grid), windows))
        assert np.array_equal(windows[0], ~windows[1])
        assert channel.windows(make_grid(128, -16.0, 16.0))[0].shape == (128, 1)
        assert channel == SlitChannel(0.5, 2.0) and hash(channel) == hash(SlitChannel(0.5, 2.0))

    def test_probabilities_sum_to_one(self, corpus):
        for _, psi in corpus:
            _, (pass_prob, fail_prob) = slit(psi, 0.5, 2.0)
            assert pass_prob + fail_prob == pytest.approx(1.0, abs=1e-12)

    def test_slit_outside_domain(self, std_grid):
        psi = make_state(std_grid, GaussianState(0, 0, 1))
        with pytest.raises(InvariantViolation, match="domain"):
            slit(psi, 15.0, 4.0)
        # a slit whose geometry is not finite is a bad input, not off the grid
        for center, width, match in ((0.0, 0.0, "width"), (0.0, np.inf, "width"), (np.nan, 1.0, "center")):
            with pytest.raises(ValueError, match=f"^slit {match} must be"):
                SlitChannel(center, width)

    def test_narrow_slit_collapses_passing_state(self, std_grid):
        # the passing branch is confined to the slit: spread ~ width/sqrt(12)
        # (nearly flat across a narrow slit), far below the input spread
        from edlab import moments

        width = 1.0
        psi = make_state(std_grid, GaussianState(0, 0, 2))
        (passed, _), (pass_prob, _) = slit(psi, 0.0, width)
        m = moments(WaveFunction(std_grid, passed / np.sqrt(pass_prob)))
        assert m.delta_x < width
        assert m.delta_x == pytest.approx(width / math.sqrt(12.0), rel=0.2)
        assert m.delta_x * m.delta_p >= 0.5 * (1 - 1e-9)


class TestKraus:
    def completeness_defect(self, channel, grid, psi_amp):
        blocks = kraus_of(channel, grid)
        total = sum(np.sum(np.abs(k(psi_amp)) ** 2) * k.measure for k in blocks) * grid.dx
        return abs(total - 1.0)

    def test_slit_completeness(self, std_grid):
        channel = SlitChannel(0.0, 3.0)
        blocks = kraus_of(channel, std_grid)
        assert [k(std_grid.x).shape for k in blocks] == [(256, 1), (256, 1)]
        assert [k.measure for k in blocks] == [1.0, 1.0]
        for seed in range(50):
            amp = random_amplitudes(std_grid, seed)
            assert self.completeness_defect(channel, std_grid, amp) < 1e-10

    def test_flip_kraus_norm_preserving(self, std_grid):
        (k,) = kraus_of(FlipChannel(), std_grid)
        assert k.measure == 1.0
        for seed in range(50):
            amp = random_amplitudes(std_grid, seed)
            assert k(amp).shape == (256, 1)
            assert np.sum(np.abs(k(amp)) ** 2) == pytest.approx(np.sum(np.abs(amp) ** 2))

    def test_von_neumann_completeness(self, std_grid, vn_default):
        # figures check the confinement of their state, so the probe domain
        # must cover the shifts of states spread over the whole system grid
        spread = WaveFunction(std_grid, random_amplitudes(std_grid, 0))
        with pytest.raises(ConfinementError):
            ozawa_disturbance(vn_default[0], spread, "P")
        channel = make_vn_channel(std_grid, spread, 1.0, 0.5)
        (k,) = kraus_of(channel, std_grid)
        assert k.measure == channel.probe.grid.dx
        for seed in range(50):
            amp = random_amplitudes(std_grid, seed)
            assert k(amp).shape[0] == 256
            assert k(amp).shape[1] <= channel.probe.grid.n_points
            assert self.completeness_defect(channel, std_grid, amp) < 1e-8

    @pytest.mark.parametrize("channel", (FlipChannel(), SlitChannel(0.5, 3.0)))
    def test_momentum_mass_transforms_its_branch_copy_in_place(self, channel):
        # the traced peak of one block's momentum law is the branch copy plus
        # the real law's temporaries: no second branch-size array.  The flip
        # keeps psi: the law reads the state's momentum view and is mirrored
        # through one copy of itself, no branch at all (measured 1.0003).
        # One call first, so the grid's cached p, the FFT's plan and the
        # state's momentum view are not counted.
        grid = make_grid(2**16, -16.0, 16.0)
        psi = WaveFunction(grid, random_amplitudes(grid, 3))
        block = kraus_of(channel, grid)[0]
        block.momentum_mass(psi)
        tracemalloc.start()
        try:
            block.momentum_mass(psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 1.05 if block.keeps(psi.amplitudes) else 2.05
        assert peak <= bound * psi.amplitudes.nbytes, peak / psi.amplitudes.nbytes

    def test_position_law_is_completeness(self, std_grid):
        # sum_m |K_m a|^2 per point, the X law the blocks give, against
        # |a[::step]|^2, which busch_state_disturbance takes by completeness
        spread = WaveFunction(std_grid, random_amplitudes(std_grid, 0))
        pointer = make_vn_channel(std_grid, spread, 1.0, 0.5)
        for channel, step in ((FlipChannel(), -1), (SlitChannel(0.5, 3.0), 1), (pointer, 1)):
            blocks = kraus_of(channel, std_grid)
            for seed in range(5):
                a = random_amplitudes(std_grid, seed)
                law = sum(np.sum(np.abs(k(a)) ** 2, axis=1) * k.measure for k in blocks)
                oracle = np.abs(a[::step]) ** 2
                assert np.max(np.abs(law - oracle)) <= 1e-14 * np.max(oracle), (channel, seed)
                psi = WaveFunction(std_grid, a)
                after = ProbabilityDistribution(std_grid.x, oracle, std_grid.dx)
                w2 = wasserstein2(distribution(psi, "position"), after)
                w2_x = busch_state_disturbance(channel, psi, "X")
                assert w2_x == pytest.approx(w2, rel=1e-12, abs=1e-15), (channel, seed)


# per probe size: an asymmetric probe domain, the narrowest pointer its
# aliasing gate admits (within 1e-4) and a gain that keeps it confined
NARROWEST_POINTERS = {
    256: (-9.0, 11.0, 0.0847, 0.3),
    1024: (-29.0, 31.0, 0.0619, 1.0),
    2048: (-59.0, 61.0, 0.0619, 2.0),
}


class TestPointerTable:
    def test_block_matches_dense_kraus_operators(self):
        # column q of the block times sqrt(dy) is K_q a for the probe-momentum
        # Kraus operator K_q = sqrt(dp) m_q exp(-i g X p_q / hbar), built
        # densely with one exp per element, for states and for operator
        # images alike; the block holds the momenta above the floor, in order
        grid = make_grid(64, -8, 8)
        psi = make_state(grid, BumpState(0.0, 2.0))
        channel = make_vn_channel(grid, psi, 1.0, 0.5, 64)
        pg = channel.probe.grid
        (block,) = kraus_of(channel, grid)
        m = channel.probe.ready_state.momentum
        kept = np.abs(m) ** 2 > BRANCH_FLOOR * np.max(np.abs(m) ** 2)
        phases = direct_phases(grid, pg, channel.g).T  # (n_p, n_s)
        dense = np.sqrt(pg.dp) * m[:, None, None] * phases[:, :, None] * np.eye(grid.n_points)
        assert block.n_branches == kept.sum() < pg.n_points
        for seed in range(3):
            a = random_amplitudes(grid, seed)
            for amp in (a, grid.x * a):
                oracle = np.einsum("qik,k->iq", dense[kept], amp)
                assert np.max(np.abs(block(amp) * np.sqrt(block.measure) - oracle)) < 1e-12

    def test_eta_p_matches_position_basis_branches(self):
        # eta_P from the kept probe-momentum branches against the sum over
        # the position-basis table's columns, on auto-sized probe grids and
        # on narrow ones whose rows beyond 6 wrap around the probe grid
        states = (GaussianState(0.0, 1.0, 1.0), BumpState(0.5, 2.0), RandomState(3, 2))
        for hbar in (1.0, 2.0):
            grid = make_grid(128, -8.0, 8.0, hbar)
            for spec in states:
                psi = make_state(grid, spec)
                for g in (0.5, 1.0, 2.0, -1.0):
                    for s in (0.1, 0.5, 1.0):
                        half = abs(g) * 6.0 + 12.0 * s
                        for pg in (probe_grid_for(grid, psi, g, s, 256), make_grid(256, -half, half, hbar)):
                            channel = VonNeumannChannel(g, ProbeSpec(pg, s))
                            eta = ozawa_disturbance(channel, psi, "P")
                            oracle = position_basis_eta_p(channel, psi)
                            assert eta == pytest.approx(oracle, rel=1e-14), (hbar, spec, g, s, pg)

    def test_branch_floor_drops_only_rounding(self):
        # the dropped probe momenta hold at most n_p eps^2 max|m|^2 dp of the
        # pointer's mass, and the narrowest pointer of the benchmark's
        # models keeps nearly every momentum
        grid = make_grid(1024, -16.0, 16.0)
        psi = make_state(grid, GaussianState(0.0, 0.0, 1.0))
        for s, g in ((0.1, 1.0), (0.25, 1.0), (0.5, 1.0), (1.0, 1.0), (0.5, 0.5), (0.5, 2.0)):
            channel = make_vn_channel(grid, psi, g, s)
            pg = channel.probe.grid
            mass = np.abs(channel.probe.ready_state.momentum) ** 2
            kept = mass > BRANCH_FLOOR * mass.max()
            dropped = float(np.sum(mass[~kept])) * pg.dp
            assert dropped <= pg.n_points * BRANCH_FLOOR * mass.max() * pg.dp, (s, g)
            assert channel.table(grid).n_branches == kept.sum(), (s, g)
            if s == 0.1:
                assert kept.sum() >= 250

    def test_momentum_law_matches_branch_transform(self):
        # the block's P law from the coherence kernel against the transform
        # of its branch array a[:, None] * T along the system axis.  A
        # pointer at rest has an even kick law and so a real kernel; the
        # boosted pointer tells the kernel from its conjugate (gain -g).  Its
        # ready state is complex, which the table refuses, so its kernel and
        # branches are read from the whole complex T of ``conditional_shift``.
        # On the narrow probe domain the rows beyond psi's reach wrap around.
        for hbar in (1.0, 2.0):
            grid = make_grid(128, -12.0, 12.0, hbar)
            psi = make_state(grid, GaussianState(1.0, 1.5, 1.5))
            for g in (0.5, 1.0, 2.0, -1.0):
                for probe_grid in (probe_grid_for(grid, psi, g, 0.5, 128), make_grid(128, -4.0, 4.0, hbar)):
                    for boost in (0.0, 1.0):
                        probe = ProbeSpec(probe_grid, 0.5)
                        ready = gaussian_amplitudes(probe_grid, 0.0, boost, 0.5)
                        ready = ready / np.sqrt(np.sum(np.abs(ready) ** 2) * probe_grid.dx)
                        object.__setattr__(probe, "ready_state", WaveFunction(probe_grid, ready))
                        channel = VonNeumannChannel(g, probe)
                        dy = probe_grid.dx
                        if boost:
                            with pytest.raises(ValueError, match="real ready state"):
                                kraus_of(channel, grid)
                            table = conditional_shift(probe.ready_state.momentum, grid, probe_grid, g)
                            block = KrausBlock(coherence=whole_table_fields(channel, grid)["coherence"])
                        else:
                            (block,) = kraus_of(channel, grid)
                        for a in (psi.amplitudes, random_amplitudes(grid, 0)):
                            branches = a[:, None] * table if boost else block(a)
                            mom = kernel_transform(branches, 0, grid, -1)
                            oracle = np.sum(np.abs(mom) ** 2, axis=1) * dy
                            law = block.momentum_mass(WaveFunction(grid, a)) * dy
                            assert np.max(np.abs(law - oracle)) < 1e-14, (hbar, g, probe_grid, boost)

    def test_momentum_mass_equals_fftshift_form(self, std_grid, vn_default):
        # the law read from two slices is np.fft.fftshift of the DFT, bit for bit
        (block,) = kraus_of(vn_default[0], std_grid)
        n = std_grid.n_points
        for seed in range(3):
            a = random_amplitudes(std_grid, seed)
            lagged = np.fft.ifft(np.abs(np.fft.fft(a, 2 * n)) ** 2)
            folded = lagged[:n] * block.coherence[:n]
            folded[1:] += lagged[n + 1 :] * block.coherence[n:]
            law = np.fft.fft(folded).real * (std_grid.dx**2 / (2.0 * np.pi * std_grid.hbar))
            assert np.array_equal(block.momentum_mass(WaveFunction(std_grid, a)), np.fft.fftshift(law)), seed

    def test_one_shift_per_channel_and_grid(self, std_grid, vn_default, monkeypatch, irfft_rows):
        from edlab import channels, grids, metrics

        built = []
        build = channels._pointer_table

        def counted(grid, probe, g):
            built.append(grid)
            return build(grid, probe, g)

        monkeypatch.setattr(channels, "_pointer_table", counted)
        channel, psi = vn_default
        compute_report(VonNeumannChannel(channel.g, channel.probe), psi)
        assert built == [std_grid]  # the table; no figure couples directly
        built.clear()

        # a search runs no 2-D kernel_transform; its only 2-D inverse real
        # FFTs are the table's blocks of real rows, n_p wide, which cover
        # the grid once
        transformed = []
        irfft_rows.clear()

        def counted_transform(arr, *args, **kwargs):
            if arr.ndim == 2:
                transformed.append(arr.shape)
            return kernel_transform(arr, *args, **kwargs)

        for module in (grids, channels, metrics):
            monkeypatch.setattr(module, "kernel_transform", counted_transform)
        grid = make_grid(128, -16.0, 16.0)
        spec = SearchSpec((-1.0, 1.0), (0.0, 0.0), (2.0, 3.0), (3, 1, 2), 1e-2, 1)
        report = eq2_check(VonNeumannChannel(channel.g, channel.probe), grid, spec, spec)
        evaluations = len(report.error_search.trace) + len(report.disturbance_search.trace)
        assert evaluations > 10 and built == [grid]
        assert transformed == []
        assert {shape[1] for shape in irfft_rows} == {channel.probe.grid.n_points}
        assert sum(shape[0] for shape in irfft_rows) == grid.n_points

    @pytest.mark.parametrize("n_probe", (256, 1024, 2048))
    @pytest.mark.parametrize("hbar", (1.0, 2.0))
    def test_blocked_build_matches_whole_table(self, n_probe, hbar):
        # the table's per-row figures, built a block of rows at a time, bit
        # for bit against one whole-array build of the real rows, and within
        # rounding of the whole complex T: 8 blocks of 128 rows at n_p = 256,
        # and 32 blocks of one 32-row anchor group at 1024 and at 2048, where
        # a group holds more than BRANCH_ELEMS and the spread runs over 16
        # rows at a time; on auto-sized probe grids, on narrow ones whose
        # far rows wrap around, and on an asymmetric one with the narrowest
        # pointer its aliasing gate admits, whose Nyquist term moves the
        # spread by up to 3.6e-8 of its peak
        grid = make_grid(1024, -16.0, 16.0, hbar)
        psi = make_state(grid, GaussianState(1.0, 1.5, 1.2))
        lo, hi, narrowest, gain = NARROWEST_POINTERS[n_probe]
        pointers = [(make_grid(n_probe, lo, hi, hbar), narrowest, gain)]
        for g in (1.0, -2.0):
            for pg in (probe_grid_for(grid, psi, g, 0.5, n_probe), make_grid(n_probe, -7.5, 7.5, hbar)):
                pointers.append((pg, 0.5, g))
        for pg, s, g in pointers:
            channel = VonNeumannChannel(g, ProbeSpec(pg, s))
            table = channel.table(grid)
            blocks = half_spectrum_fields(channel, grid)
            for name in ("row_edge", "coherence", "spread"):
                assert np.array_equal(getattr(table, name), blocks[name]), (name, g, pg)
            whole = whole_table_fields(channel, grid)
            assert np.max(np.abs(table.row_edge - whole["row_edge"])) * pg.dx <= 1e-15, (g, pg)
            for name, bound in (("spread", 2e-15), ("coherence", 1e-14)):
                error = np.max(np.abs(getattr(table, name) - whole[name]))
                assert error <= bound * np.max(np.abs(whole[name])), (name, g, pg)

    @pytest.mark.parametrize("n", (256, 1024, 2048))
    @pytest.mark.parametrize("n_probe", (256, 1024))
    def test_readout_law_matches_whole_table(self, n, n_probe):
        # the readout law from the characteristic function at the momentum
        # lags against w @ |T|^2 of the whole table, within 1e-14 of its
        # peak (1.5e-15 at worst here), for gains of both signs and a
        # random state, on auto-sized probe grids and on narrow ones whose
        # far rows wrap around; the lags of the narrowest pointer, and of
        # g = -2 on its auto-sized grid, pass n_p/2, so they fold
        grid = make_grid(n, -16.0, 16.0)
        states = (GaussianState(1.0, 1.5, 1.2), RandomState(3, 6))
        for spec in states:
            psi = make_state(grid, spec)
            w = np.abs(psi.amplitudes) ** 2 * grid.dx
            for g, s in ((1.0, 0.5), (-2.0, 0.5), (0.5, 0.1)):
                for pg in (probe_grid_for(grid, psi, g, s, n_probe), make_grid(n_probe, -7.5, 7.5)):
                    channel = VonNeumannChannel(g, ProbeSpec(pg, s))
                    oracle = w @ whole_table_fields(channel, grid)["density"]
                    law = channel.table(grid).readout(w, pg)
                    assert np.max(np.abs(law - oracle)) <= 1e-14 * oracle.max(), (spec, g, s, pg)

    def test_characteristic_matches_direct_sum(self):
        # chi(l) = sum_i w_i exp(-i g x_i l dp / hbar) from the two-level lag
        # factors against one exp per element, at every lag the table keeps
        rng = np.random.default_rng(5)
        for hbar, g in ((1.0, 1.0), (2.0, -2.0), (1.0, 0.3)):
            grid = make_grid(1024, -16.0, 16.0, hbar)
            psi = make_state(grid, GaussianState(0.0, 0.0, 1.0))
            channel = make_vn_channel(grid, psi, g, 0.5, 256)
            table = channel.table(grid)
            pg = channel.probe.grid
            w = rng.random(grid.n_points)
            lags = np.arange(table.autocorrelation.size)
            direct = np.exp(-1j * g * np.outer(lags * pg.dp, grid.x) / hbar) @ w
            chi = table.characteristic(w)
            assert chi.shape == lags.shape and lags.size > 50
            assert np.max(np.abs(chi - direct)) <= 1e-12 * w.sum(), (hbar, g)

    def test_table_keeps_no_branch_array(self):
        # no field of the table has the n_s * n_p elements of T or |T|^2,
        # nor the n_s * k of the branch array: the branches come from their
        # factors, a chunk of columns at a time
        grid = make_grid(1024, -16.0, 16.0)
        psi = make_state(grid, GaussianState(0.0, 0.0, 1.0))
        channel = make_vn_channel(grid, psi, 1.0, 0.5, 256)
        table = channel.table(grid)
        n_s, n_p, k = 1024, 256, table.n_branches
        assert k < n_p
        sizes = {
            f.name: getattr(table, f.name).size
            for f in fields(PointerTable)
            if isinstance(getattr(table, f.name), np.ndarray)
        }
        assert max(sizes.values()) < n_s * k, sizes
        assert table.weights is None
        whole = table.column_weights()
        assert whole.shape == (n_s, k)
        assert np.array_equal(table.column_weights(slice(7, 40)), whole[:, 7:40])

    def test_state_confinement_matches_direct_coupling(self, std_grid):
        # the state's edge mass from the table's rows gates exactly where the
        # edge mass of the direct coupling U(psi (x) ready) crosses the
        # tolerance (edge masses 3e-5 ... 5e-26)
        psi = make_state(std_grid, GaussianState(1.0, 0.0, 1.0))
        verdicts = []
        for half in (5.0, 6.0, 7.0, 8.0, 10.0, 12.0):
            pg = make_grid(256, -half, half)
            channel = VonNeumannChannel(1.0, ProbeSpec(pg, 0.25))
            coupled = apply_von_neumann(product_state(psi, channel.probe), std_grid, pg, 1.0)
            edges = np.abs(coupled[:, [0, 1, -2, -1]]) ** 2
            direct = float(np.sum(edges) * std_grid.dx * pg.dx) > CONFINEMENT_TOL
            try:
                check_confinement(channel, psi)
            except ConfinementError:
                rejected = True
            else:
                rejected = False
            assert rejected == direct, half
            verdicts.append(rejected)
        assert verdicts == [True, True, True, False, False, False]


def _reduced_density(joint, system_grid, probe_grid):
    """Partial trace over the probe of an (n_s, n_p) array, as a dimensionless
    n_s x n_s matrix."""
    return (joint @ joint.conj().T) * system_grid.dx * probe_grid.dx


class TestDensityOperator:
    """The nonselective output state rho' = sum_m K_m rho K_m^dag, seen through
    its laws and against dense matrices built in the test."""

    def test_product_state_is_pure(self, vn_default):
        channel, psi = vn_default
        rho = _reduced_density(product_state(psi, channel.probe), psi.grid, channel.probe.grid)
        assert np.real(np.trace(rho)) == pytest.approx(1.0, abs=1e-10)
        assert np.real(np.trace(rho @ rho)) == pytest.approx(1.0, abs=1e-10)

    def test_coupling_entangles(self, std_grid):
        psi = make_state(std_grid, GaussianState(0, 0, 1))
        channel = make_vn_channel(std_grid, psi, 1.0, 0.25)
        pg = channel.probe.grid
        coupled = apply_von_neumann(product_state(psi, channel.probe), std_grid, pg, 1.0)
        rho = _reduced_density(coupled, std_grid, pg)
        assert np.real(np.trace(rho)) == pytest.approx(1.0, abs=1e-10)
        assert np.real(np.trace(rho @ rho)) < 0.9

    def test_flip_density_reflects_momentum(self, std_grid):
        # the flip maps the momentum law to its reflection p -> -p, at W2 = 2|p0|
        psi = make_state(std_grid, GaussianState(0, 1.0, 1))
        before = distribution(psi, "momentum")
        # p -> -p on the integer-offset momentum grid is reverse-and-roll
        reflected = ProbabilityDistribution(
            before.support, np.roll(before.weights[::-1], 1), before.spacing
        )
        after = busch_state_disturbance(FlipChannel(), psi, "P")
        assert after == pytest.approx(wasserstein2(before, reflected), abs=1e-10)
        assert after == pytest.approx(2.0, abs=0.01)  # atomic-W2 lattice bias

    def test_flip_density_even_state_unchanged(self, std_grid):
        from edlab import SymmetricPairState

        psi = make_state(std_grid, SymmetricPairState(3.0, 1.0))
        assert busch_state_disturbance(FlipChannel(), psi, "P") < 1e-10

    def test_dilation_consistency_small_grid(self):
        # momentum law after the pointer coupling against diag(F rho' F^dag),
        # rho' = sum_j K_j |psi><psi| K_j^dag from dense matrices
        grid = make_grid(64, -8, 8)
        dft = unitary_dft(grid)
        for spec in (BumpState(0.0, 2.0), RandomState(5, 4)):
            psi = make_state(grid, spec)
            probe_grid = probe_grid_for(grid, psi, 1.0, 0.5, 64)
            channel = VonNeumannChannel(1.0, ProbeSpec(probe_grid, 0.5))
            branches = pointer_kraus_matrices(channel, grid) @ (psi.amplitudes * np.sqrt(grid.dx))
            rho = branches.T @ branches.conj()
            law = np.real(np.diag(dft @ rho @ dft.conj().T)) / grid.dp
            before = distribution(psi, "momentum")
            oracle = wasserstein2(before, ProbabilityDistribution(grid.p, law, grid.dp))
            assert oracle > 0.1
            assert busch_state_disturbance(channel, psi, "P") == pytest.approx(oracle, rel=1e-9)
