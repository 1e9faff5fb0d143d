import math
import tracemalloc

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
    apply_von_neumann,
    busch_state_disturbance,
    compute_report,
    distribution,
    embed_joint,
    eq2_check,
    kraus_of,
    make_grid,
    make_state,
    ozawa_disturbance,
    ozawa_error,
    probe_grid_for,
    wasserstein2,
)

from edlab.channels import CONFINEMENT_TOL, _conditional_shift, check_confinement
from edlab.grids import kernel_transform
from edlab.states import gaussian_amplitudes
from conftest import (
    direct_conditional_shift,
    make_vn_channel,
    pointer_kraus_matrices,
    random_amplitudes,
    unitary_dft,
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


class TestEmbedJoint:
    def test_unit_norm(self, std_grid, vn_default):
        channel, psi = vn_default
        joint = embed_joint(psi, channel.probe)
        assert abs(joint.norm() - 1.0) < 1e-12

    def test_marginals_factorize(self, std_grid, vn_default):
        channel, psi = vn_default
        joint = embed_joint(psi, channel.probe)
        sys_m = np.sum(np.abs(joint.amplitudes) ** 2, axis=1) * channel.probe.grid.dx
        probe_m = np.sum(np.abs(joint.amplitudes) ** 2, axis=0) * psi.grid.dx
        assert np.max(np.abs(sys_m - np.abs(psi.amplitudes) ** 2)) < 1e-12
        assert np.max(np.abs(probe_m - np.abs(channel.probe.ready_state.amplitudes) ** 2)) < 1e-12


class TestVonNeumann:
    def test_conditional_shift_recenters_pointer(self):
        # near-position-eigenstate: pointer marginal recenters at g * x0
        grid = make_grid(2048, -8, 8)
        psi = make_state(grid, GaussianState(2.0, 0.0, 0.1))
        channel = make_vn_channel(grid, psi, 1.0, 0.5)
        joint = apply_von_neumann(embed_joint(psi, channel.probe), 1.0)
        probe_m = np.sum(np.abs(joint.amplitudes) ** 2, axis=0) * grid.dx
        mean = np.sum(channel.probe.grid.x * probe_m) * channel.probe.grid.dx
        assert mean == pytest.approx(2.0, abs=1e-9)
        var = np.sum(channel.probe.grid.x**2 * probe_m) * channel.probe.grid.dx - mean**2
        assert var == pytest.approx(0.5**2 + 1.0**2 * 0.1**2, rel=1e-6)

    def test_unitarity_and_inverse(self, std_grid, vn_default):
        channel, psi = vn_default
        joint = embed_joint(psi, channel.probe)
        forward = apply_von_neumann(joint, channel.g)
        assert abs(forward.norm() - 1.0) < 1e-12
        back = apply_von_neumann(forward, -channel.g)
        assert np.max(np.abs(back.amplitudes - joint.amplitudes)) < 1e-12

    def test_zero_gain_rejected(self, vn_default):
        channel, _ = vn_default
        with pytest.raises(ValueError, match="nonzero"):
            VonNeumannChannel(0.0, channel.probe)

    def test_tiny_gain_is_continuous(self, std_grid, vn_default):
        # first-order response: ||U_g Psi - Psi|| = g * sqrt(<x^2><p_probe^2>) = g here
        channel, psi = vn_default
        joint = embed_joint(psi, channel.probe)
        for g in (1e-9, 1e-10):
            nudged = apply_von_neumann(joint, g)
            delta = np.sqrt(
                np.sum(np.abs(nudged.amplitudes - joint.amplitudes) ** 2) * joint.measure
            )
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
            joint = apply_von_neumann(embed_joint(psi, channel.probe), 1.0)
            assert abs(joint.norm() - 1.0) < 1e-12


class TestConditionalShift:
    def test_two_level_phases_match_direct_phases(self):
        # anchor rows times in-block offsets against one exp per element, on
        # a row to broadcast (the table) and on a full array (the direct
        # coupling, which is overwritten); on the narrow probe domain the
        # shifts wrap around
        rng = np.random.default_rng(5)
        for n in (16, 64, 256):
            for hbar in (1.0, 2.0):
                grid = make_grid(n, -12.0, 12.0, hbar)
                spread = WaveFunction(grid, random_amplitudes(grid, 0))
                for g in (0.5, 1.0, 2.0, -1.0):
                    for pg in (probe_grid_for(grid, spread, g, 0.5, 128), make_grid(128, -4.0, 4.0, hbar)):
                        row = rng.standard_normal(128) + 1j * rng.standard_normal(128)
                        full = rng.standard_normal((n, 128)) + 1j * rng.standard_normal((n, 128))
                        for mom in (row, full):
                            oracle = direct_conditional_shift(mom, grid, pg, g)
                            shifted = _conditional_shift(mom.copy(), grid, pg, g)
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

    def test_probabilities_sum_to_one(self, corpus):
        for _, psi in corpus:
            _, (pass_prob, fail_prob) = slit(psi, 0.5, 2.0)
            assert pass_prob + fail_prob == pytest.approx(1.0, abs=1e-12)

    def test_slit_outside_domain(self, std_grid):
        psi = make_state(std_grid, GaussianState(0, 0, 1))
        with pytest.raises(InvariantViolation, match="domain"):
            slit(psi, 15.0, 4.0)

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
            assert k(amp).shape == (256, channel.probe.grid.n_points)
            assert self.completeness_defect(channel, std_grid, amp) < 1e-8

    @pytest.mark.parametrize("channel", (FlipChannel(), SlitChannel(0.5, 3.0)))
    def test_momentum_mass_transforms_its_branch_copy_in_place(self, channel):
        # the traced peak of one block's momentum law is the branch copy plus
        # the real law's temporaries: no second branch-size array.  One call
        # first, so the grid's cached p and the FFT's plan are not counted.
        grid = make_grid(2**16, -16.0, 16.0)
        a = random_amplitudes(grid, 3)
        block = kraus_of(channel, grid)[0]
        block.momentum_mass(a, grid)
        tracemalloc.start()
        try:
            block.momentum_mass(a, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.05 * a.nbytes, peak / a.nbytes

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


class TestPointerTable:
    def test_block_matches_dense_kraus_operators(self):
        # column j of the table block times sqrt(dy) is K_j a, for states and
        # for operator images alike, including rows that wrap around the probe
        grid = make_grid(64, -8, 8)
        psi = make_state(grid, BumpState(0.0, 2.0))
        channel = make_vn_channel(grid, psi, 1.0, 0.5, 64)
        (block,) = kraus_of(channel, grid)
        dense = pointer_kraus_matrices(channel, grid)
        for seed in range(3):
            a = random_amplitudes(grid, seed)
            for amp in (a, grid.x * a):
                oracle = np.einsum("jik,k->ij", dense, amp)
                assert np.max(np.abs(block(amp) * np.sqrt(block.measure) - oracle)) < 1e-12

    def test_momentum_law_matches_branch_transform(self):
        # the block's P law from the coherence kernel against the transform
        # of its branch array a[:, None] * T along the system axis.  A
        # pointer at rest has an even kick law and so a real kernel; the
        # boosted pointer tells the kernel from its conjugate (gain -g).  On
        # the narrow probe domain the rows beyond psi's reach wrap around.
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
                        (block,) = kraus_of(channel, grid)
                        dy = block.measure
                        for a in (psi.amplitudes, random_amplitudes(grid, 0)):
                            mom = kernel_transform(block(a), 0, grid, -1)
                            oracle = np.sum(np.abs(mom) ** 2, axis=1) * dy
                            law = block.momentum_mass(a, grid) * dy
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
            assert np.array_equal(block.momentum_mass(a, std_grid), np.fft.fftshift(law)), seed

    def test_one_shift_per_channel_and_grid(self, std_grid, vn_default, monkeypatch):
        from edlab import channels, grids, metrics

        shifted = []
        shift = channels._conditional_shift

        def counted(mom, system_grid, probe_grid, g):
            shifted.append(system_grid)
            return shift(mom, system_grid, probe_grid, g)

        monkeypatch.setattr(channels, "_conditional_shift", counted)
        channel, psi = vn_default
        compute_report(VonNeumannChannel(channel.g, channel.probe), psi)
        assert len(shifted) == 1  # the table; no figure couples directly
        shifted.clear()

        # the only (n_s, n_p) transform of a search is the table's shift
        transformed = []

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
        assert evaluations > 10 and shifted == [grid]
        assert transformed == [(128, channel.probe.grid.n_points)]

    def test_state_confinement_matches_direct_coupling(self, std_grid):
        # the state's edge mass from the table's rows gates exactly where the
        # edge mass of the direct coupling U(psi (x) ready) crosses the
        # tolerance (edge masses 3e-5 ... 5e-26)
        psi = make_state(std_grid, GaussianState(1.0, 0.0, 1.0))
        verdicts = []
        for half in (5.0, 6.0, 7.0, 8.0, 10.0, 12.0):
            channel = VonNeumannChannel(1.0, ProbeSpec(make_grid(256, -half, half), 0.25))
            coupled = apply_von_neumann(embed_joint(psi, channel.probe), 1.0)
            edges = np.abs(coupled.amplitudes[:, [0, 1, -2, -1]]) ** 2
            direct = float(np.sum(edges) * coupled.measure) > CONFINEMENT_TOL
            try:
                check_confinement(channel, psi)
            except ConfinementError:
                rejected = True
            else:
                rejected = False
            assert rejected == direct, half
            verdicts.append(rejected)
        assert verdicts == [True, True, True, False, False, False]


def _reduced_density(joint):
    """Partial trace over the probe, as a dimensionless n_s x n_s matrix."""
    a = joint.amplitudes
    return (a @ a.conj().T) * joint.measure


class TestDensityOperator:
    """The nonselective output state rho' = sum_m K_m rho K_m^dag, seen through
    its laws and against dense matrices built in the test."""

    def test_product_state_is_pure(self, vn_default):
        channel, psi = vn_default
        rho = _reduced_density(embed_joint(psi, channel.probe))
        assert np.real(np.trace(rho)) == pytest.approx(1.0, abs=1e-10)
        assert np.real(np.trace(rho @ rho)) == pytest.approx(1.0, abs=1e-10)

    def test_coupling_entangles(self, std_grid):
        psi = make_state(std_grid, GaussianState(0, 0, 1))
        channel = make_vn_channel(std_grid, psi, 1.0, 0.25)
        rho = _reduced_density(apply_von_neumann(embed_joint(psi, channel.probe), 1.0))
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
