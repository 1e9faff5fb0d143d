import json
import math
import platform
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from edlab import cli
from edlab.channels import VonNeumannChannel, kraus_of
from edlab.cli import (
    _JOINT_BYTES_PER_POINT,
    _SCHEMA,
    ConfigError,
    build_scenario,
    load_config,
    main,
    parse_config_text,
    run_scenario,
    run_sweep,
)
from edlab.grids import kernel_transform, make_grid
from edlab.metrics import compute_report


GOLDEN = Path(__file__).parent / "golden"
_NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")


def assert_matches_golden(text: str, name: str) -> None:
    """Compare an output with ``tests/golden/<name>``.

    The text around the numbers must match exactly and every number must
    agree to 12 significant digits.  Two numbers both below 1e-12 in
    magnitude count as equal: they are rounding floors of figures that are
    exactly zero in the continuum.
    """
    golden = (GOLDEN / name).read_text()
    assert _NUMBER.sub("#", text) == _NUMBER.sub("#", golden), name
    for got, want in zip(_NUMBER.findall(text), _NUMBER.findall(golden)):
        a, b = float(got), float(want)
        floor = abs(a) < 1e-12 and abs(b) < 1e-12
        assert floor or math.isclose(a, b, rel_tol=1e-12), (name, got, want)


# figures that are exactly zero at the default scenarios, bit for bit
EXACT_ZEROS = {
    "flip": ("w2_disturbance_X",),
    "slit": ("eta_o_X", "w2_disturbance_X", "w2_disturbance_P"),
    "vonneumann": ("eta_o_X", "w2_disturbance_X"),
}


class TestConfig:
    def test_defaults(self):
        cfg = load_config(None, [], "flip")
        assert cfg["grid.n_points"] == 256
        assert cfg["channel.variant"] == "flip"

    def test_file_and_set_override(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# comment\ngrid.n_points=512\nstate.sigma=2\n")
        cfg = load_config(str(path), ["state.sigma=1.5"], "flip")
        assert cfg["grid.n_points"] == 512
        assert cfg["state.sigma"] == 1.5

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text("nope.what=3")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text("grid.n_points=many")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config_text("grid.n_points")

    @pytest.mark.parametrize(
        "verb, scenario, n_read",
        [("scenario", "flip", 9), ("scenario", "slit", 10), ("scenario", "vonneumann", 15),
         ("sweep", None, 16), ("eq2", None, 32)],
    )
    def test_each_verb_accepts_only_the_keys_it_reads(self, verb, scenario, n_read):
        cfg = load_config(None, [], scenario, verb)
        accepted = []
        for key in _SCHEMA:
            try:
                load_config(None, [f"{key}={cfg.get(key, 1)}"], scenario, verb)
            except ConfigError as exc:
                assert key in str(exc) and "not read" in str(exc), exc
            else:
                accepted.append(key)
        assert len(accepted) == n_read, accepted
        assert (verb == "eq2") == (not any(k.startswith("state.") for k in accepted))

    def test_unread_keys_are_config_errors(self, tmp_path, capsys):
        for name, given in (
            ("flip", "scenario=slit"),
            ("flip", "channel.width=-3"),
            ("flip", "probe.s=-1"),
            ("slit", "state.sigma=2"),
            ("vonneumann", "search_err.n_x0=0"),
            ("vonneumann", "state.center=1"),
        ):
            assert main(["scenario", name, "--set", given]) == 1, given
            assert given.partition("=")[0] in capsys.readouterr().err
            path = tmp_path / "cfg.txt"
            path.write_text(given + "\n")
            assert main(["scenario", name, "--config", str(path)]) == 1, given
            assert given.partition("=")[0] in capsys.readouterr().err

    def test_variant_without_its_keys_is_config_error(self, capsys):
        assert main(["scenario", "flip", "--set", "channel.variant=slit"]) == 1
        assert "channel.center" in capsys.readouterr().err
        assert main(["scenario", "flip", "--set", "state.variant=random"]) == 1
        assert "state.seed" in capsys.readouterr().err


# values just inside and just outside each declared domain
DOMAIN_EDGES = {
    cli._FINITE.rule: (("-1e308", "1e308"), ("inf", "-inf", "nan")),
    cli._POSITIVE.rule: (("5e-324", "1e308"), ("0", "-0.0", "-1", "inf", "nan")),
    cli._NONZERO.rule: (("5e-324", "-1e308"), ("0", "-0.0", "inf", "nan")),
    cli._WIDTH.rule: (("1.6e-162", "1.3e154"), ("1.5e-162", "1.4e154", "0", "-1", "inf", "nan")),
}
# command lines that read each key with a domain: the three scenarios and
# the symmetric pair, whose later --set of the key wins
READERS = (
    ["scenario", "flip"],
    ["scenario", "slit"],
    ["scenario", "vonneumann"],
    ["scenario", "flip", "--set", "state.variant=symmetric_pair", "--set", "state.separation=2"],
)


def reader_of(key: str) -> list[str]:
    for argv in READERS:
        cfg = load_config(None, argv[3::2], argv[1])
        if key in cli._read_keys(cfg, "scenario"):
            return argv
    raise AssertionError(f"no command line reads {key}")


class TestDomains:
    def test_every_key_has_a_declared_domain(self):
        assert len(_SCHEMA) == 45
        bounded = {k for k, (_, domain) in _SCHEMA.items() if domain.rule != "any value"}
        assert all(_SCHEMA[k][0] is float for k in bounded)
        assert {_SCHEMA[k][1].rule for k in bounded} == set(DOMAIN_EDGES)
        assert not any(k.startswith("search_") for k in bounded)  # SearchSpec names them

    @pytest.mark.parametrize(
        "key", [k for k, (_, domain) in _SCHEMA.items() if domain.rule != "any value"]
    )
    def test_value_outside_the_domain_is_named(self, key, tmp_path, capsys, monkeypatch):
        domain = _SCHEMA[key][1]
        inside, outside = DOMAIN_EDGES[domain.rule]
        argv = reader_of(key)
        for value in inside:
            load_config(None, [*argv[3::2], f"{key}={value}"], argv[1])
        eq2 = key in cli._read_keys(load_config(None, [], None, "eq2"), "eq2")

        def computed(*args, **kwargs):
            raise AssertionError("computed before the value was judged")

        monkeypatch.setattr(cli, "compute_report", computed)
        monkeypatch.setattr(cli, "eq2_check", computed)
        out = tmp_path / "sweep.csv"
        sweep = ["sweep", "--axis", key, "--out", str(out), "--set", f"scenario={argv[1]}", *argv[2:]]
        for value in outside:
            runs = [[*argv, "--set", f"{key}={value}"], [*sweep, "--values", f"1,{value}"]]
            if eq2:
                runs.append(["eq2", "--out-dir", str(tmp_path / "eq2"), "--set", f"{key}={value}"])
            for run in runs:
                capsys.readouterr()
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    assert main(run) == 1, run
                message = f"config error: {domain.noun}{key} must be {domain.rule}, got {cli._fmt(float(value))}"
                assert message in capsys.readouterr().err, run
        assert not out.exists() and not (tmp_path / "eq2").exists()

    @pytest.mark.parametrize(
        "sets, key",
        [
            (["grid.hbar=1e-160"], "grid.hbar"),
            (["grid.hbar=1e-300"], "grid.hbar"),
            (["grid.hbar=1e153"], "grid.hbar"),
            (["grid.hbar=1e154"], "grid.hbar"),
            # the edge pi*hbar/dx, not hbar alone, leaves the normal range
            (["grid.hbar=1e-150", "grid.x_min=-1e150", "grid.x_max=1e150"], "grid.hbar"),
            (["grid.x_min=-1e155", "grid.x_max=1e155", "state.sigma=6.25e153"], "grid.x_min"),
            # two keys out of range: the width's domain is judged before the grid is built
            (["state.sigma=1e159", "grid.x_min=-1e160", "grid.x_max=1e160"], "state.sigma"),
            (["state.sigma=1e159"], "state.sigma"),
            # dx**2 underflows, while the edge pi*hbar/dx is normal; the flip reads no probe key
            (["grid.x_min=-1e-160", "grid.x_max=1e-160", "state.sigma=1e-161", "grid.hbar=1e-300"], "grid.x_min"),
            (
                ["grid.x_min=-1e-160", "grid.x_max=1e-160", "state.sigma=1e-161", "grid.hbar=1e-300", "probe.s=5e-162"],
                "grid.x_min",
            ),
            # the probe grid's dx**2 underflows, which pg.dp**2 once overflowed on
            (["probe.x_min=-1e-160", "probe.x_max=1e-160", "probe.s=1e-161"], "probe.x_min"),
        ],
    )
    def test_grid_scale_outside_float_range_is_config_error(self, sets, key, tmp_path, capsys):
        for name in ("vonneumann",) if any(s.startswith("probe.") for s in sets) else ("flip", "vonneumann"):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert main(["scenario", name, *(a for s in sets for a in ("--set", s))]) == 1
            assert f"config error: {key}" in capsys.readouterr().err
        if key == "grid.hbar":
            argv = ["eq2", "--out-dir", str(tmp_path / "eq2"), *(a for s in sets for a in ("--set", s))]
            assert main(argv) == 1
            assert "config error: grid.hbar" in capsys.readouterr().err
            assert not (tmp_path / "eq2").exists()

    @pytest.mark.parametrize("hbar", (1e-155, 1e-10, 1e152))
    def test_scaled_hbar_keeps_its_closed_forms(self, hbar, tmp_path):
        # sigma = 1, s = 0.5, g = 1: Delta P = hbar/2, the flip's eta_P =
        # hbar/sigma, the pointer's eps = s/|g| and eta_P = |g| hbar/(2s)
        out = tmp_path / "r.json"
        for name, eps in (("flip", None), ("vonneumann", 0.5)):
            argv = ["scenario", name, "--set", f"grid.hbar={hbar!r}", "--format", "json", "--out", str(out)]
            assert main(argv) == 0
            r = json.loads(out.read_text())
            assert (r["epsilon_o"], r["eta_o_P"], r["delta_P"]) == (eps, hbar, 0.5 * hbar), name
            assert r["robertson_product"] == r["hbar_over_2"] == 0.5 * hbar, name
            assert r["robertson_satisfied"], name

    def test_pointer_at_small_hbar_scales_with_hbar(self, capsys):
        # the momentum law's density is in 1/dp, so its rounding negatives
        # are judged against its peak; at hbar = 1e-10 the pointer's figures
        # are hbar times those at hbar = 1
        reports = [
            run_scenario("vonneumann", load_config(None, [f"grid.hbar={h!r}"], "vonneumann"))[1]
            for h in (1.0, 1e-10)
        ]
        one, small = (r.as_dict() for r in reports)
        assert small["epsilon_o"] == 0.5 and small["eta_o_P"] == pytest.approx(1e-10, rel=1e-12)
        assert small["product_eq2_form"] == pytest.approx(0.5e-10, rel=1e-12)
        assert small["eq2_form_satisfied"] and small["eq5_satisfied"]
        for key in ("delta_P", "w2_disturbance_P", "lhs_eq5"):
            assert small[key] == pytest.approx(1e-10 * one[key], rel=1e-9), key
        for key in ("delta_X", "w2_error_X", "eta_o_X", "w2_disturbance_X"):
            assert small[key] == pytest.approx(one[key], rel=1e-9, abs=0.0), key
        assert main(["scenario", "vonneumann", "--set", "grid.hbar=1e-10"]) == 0


class TestScenarios:
    def test_flip_defaults(self):
        cfg = load_config(None, [], "flip")
        _, report, table = run_scenario("flip", cfg)
        assert report.eta_o_X == pytest.approx(2.0, rel=1e-9)
        assert report.w2_disturbance_X < 1e-8
        assert "eta_o_X" in table

    def test_slit_defaults(self):
        cfg = load_config(None, [], "slit")
        _, report, table = run_scenario("slit", cfg)
        assert report.epsilon_o == 4.0
        assert report.epsilon_convention == "slit-width"
        assert report.eta_o_P < 1e-2 * report.delta_P
        assert not report.eq2_form_satisfied
        assert report.eq5_satisfied
        assert "VIOLATED" in table and "SATISFIED" in table
        assert "slit pass probability  1" in table

    @pytest.mark.parametrize("width", (4.0, 1.5))
    def test_slit_probabilities_equal_branch_norms(self, monkeypatch, width):
        # |psi|^2 times each window is |K psi|^2 bit for bit, as a*1 = a and
        # a*0 = 0: the window that covers the bump and one that cuts it
        monkeypatch.setattr(cli, "_fmt", repr)
        built, _, table = run_scenario("slit", load_config(None, [f"channel.width={width}"], "slit"))
        for outcome, k in zip(("pass", "fail"), kraus_of(built.channel, built.grid)):
            want = float(np.sum(np.abs(k(built.psi.amplitudes)) ** 2) * built.grid.dx) * k.measure
            assert f"slit {outcome} probability  {want!r}" in table.splitlines(), table

    def test_vonneumann_defaults(self):
        cfg = load_config(None, [], "vonneumann")
        _, report, _ = run_scenario("vonneumann", cfg)
        assert report.epsilon_o == pytest.approx(0.5, rel=1e-3)
        assert report.eta_o_P == pytest.approx(1.0, rel=1e-3)
        assert report.product_eq2_form == pytest.approx(0.5, rel=2e-3)

    def test_scenario_csv_output(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(["scenario", "flip", "--out", str(out), "--format", "csv"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("epsilon_o,eta_o_P,eta_o_X,delta_X,delta_P")
        assert len(lines) == 2

    def test_scenario_json_output(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["scenario", "vonneumann", "--out", str(out), "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert payload["epsilon_o"] == pytest.approx(0.5, rel=1e-3)
        assert payload["eq5_satisfied"] is True

    def test_config_error_exit_code(self, tmp_path, capsys):
        # output goes only where --out and --format say
        for given in ("bogus=1", "output.path=report.csv", "output.format=json"):
            assert main(["scenario", "flip", "--set", given]) == 1
            assert "config error: unknown config key" in capsys.readouterr().err

    def test_unwritable_output_fails_before_computing(self, tmp_path, capsys, monkeypatch):
        # an output path that cannot be created or written is a config error
        # before any figure or search runs, and the run creates nothing
        from edlab import cli

        def computed(*args, **kwargs):
            raise AssertionError("computed before the output was checked")

        monkeypatch.setattr(cli, "compute_report", computed)
        monkeypatch.setattr(cli, "eq2_check", computed)
        missing = tmp_path / "missing" / "x.csv"
        blocker = tmp_path / "file"
        blocker.write_text("")
        sweep = ["sweep", "--axis", "state.x0", "--values", "0", "--set", "scenario=flip"]
        for argv, path in (
            (["scenario", "flip", "--out", str(missing)], missing),
            (["scenario", "flip", "--out", str(tmp_path)], tmp_path),
            ([*sweep, "--out", str(missing)], missing),
            (["eq2", "--out-dir", str(blocker / "eq2")], blocker / "eq2"),
            (["eq2", "--out-dir", str(blocker / "eq2" / "sub")], blocker / "eq2" / "sub"),
            (["eq2", "--out-dir", str(blocker)], blocker),
        ):
            assert main(argv) == 1, argv
            out, err = capsys.readouterr()
            assert out == "", argv
            assert f"config error: cannot write {path}: " in err, argv
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
        assert blocker.read_text() == ""

    def test_invariant_violation_exit_code(self, capsys):
        # a pointer that fails its own gates on the probe grid names the keys
        # that set that grid, and kicks past the system's momentum band name
        # the system grid; g = 5 still fits on it
        for name, sets, *keys in (
            ("flip", ["state.x0=20"], "invariant"),
            ("vonneumann", ["probe.x_min=0", "probe.x_max=30"], "probe.x_min=0 and probe.x_max=30",
             "confinement"),
            ("vonneumann", ["channel.g=100"], "channel.g=100 and probe.s=0.5", "probe.n_points=256",
             "aliasing"),
            ("vonneumann", ["channel.g=10"], "aliasing", "pointer's kicks", "grid.n_points > 256"),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert main(["scenario", name, *(a for s in sets for a in ("--set", s))]) == 2, sets
            err = capsys.readouterr().err
            assert err.startswith("physics invariant violation: ") and all(k in err for k in keys), err
        assert main(["scenario", "vonneumann", "--set", "channel.g=5"]) == 0

    def test_unallocatable_arrays_are_config_errors(self, tmp_path, capsys, monkeypatch):
        # numpy raises MemoryError for an array the host cannot allocate.  No
        # such size is run here: with overcommit, a size the host could map
        # would be faulted in.
        from edlab import cli

        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 16.0 TiB for an array with shape (1099511627776,)")

        monkeypatch.setattr(cli, "compute_report", no_memory)
        monkeypatch.setattr(cli, "eq2_check", no_memory)
        for argv in (["scenario", "flip"], ["eq2", "--out-dir", str(tmp_path / "eq2")]):
            assert main(argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith("config error") and "Unable to allocate 16.0 TiB" in err, err
            assert "grid.n_points" in err and "probe.n_points" in err, err
        assert not (tmp_path / "eq2").exists()

    def test_grid_spec_error_is_config_error(self, capsys):
        assert main(["scenario", "flip", "--set", "grid.n_points=100"]) == 1
        for bad in ("grid.hbar=inf", "grid.hbar=nan", "grid.x_max=inf", "grid.x_min=-inf"):
            assert main(["scenario", "flip", "--set", bad]) == 1, bad
            assert "must be finite" in capsys.readouterr().err

    def test_degenerate_pointer_width_is_config_error(self, capsys):
        # s**2 underflows to 0 or overflows, or the probe spacing is so wide
        # that the Gaussian would underflow at every probe point: that grid
        # is named before any pointer amplitude is formed
        fixed = ["--set", "probe.x_min=-10", "--set", "probe.x_max=10"]
        cases = (
            (["--set", "probe.s=1e-300"], "config error: pointer width"),
            (["--set", "probe.s=1e-300", *fixed], "config error: pointer width"),
            (["--set", "probe.s=1e200", *fixed], "config error: pointer width"),
            (["--set", "probe.s=1e-30", *fixed],
             "config error: probe.x_min=-10 and probe.x_max=10 set the probe domain, where "
             "probe.n_points=256 cannot resolve the pointer width 1e-30"),
        )
        for argv, message in cases:
            assert main(["scenario", "vonneumann", *argv]) == 1, argv
            assert message in capsys.readouterr().err
        # a narrow but representable pointer is judged by the aliasing gate
        assert main(["scenario", "vonneumann", "--set", "probe.s=0.01"]) == 2
        assert "aliasing" in capsys.readouterr().err

    def test_bad_channel_params_are_config_errors(self, tmp_path, capsys):
        assert main(["scenario", "slit", "--set", "channel.width=-1"]) == 1
        assert main(["scenario", "vonneumann", "--set", "channel.g=0"]) == 1
        assert main(["scenario", "slit", "--set", "state.halfwidth=-1"]) == 1
        # bad values on the auto-sized probe path
        for bad in ("probe.n_points=100", "channel.g=nan", "probe.s=-1"):
            assert main(["scenario", "vonneumann", "--set", bad]) == 1, bad
        # a gain or slit centre that is not finite, on a fixed probe grid too
        fixed = ["--set", "probe.x_min=-10", "--set", "probe.x_max=10"]
        for bad in ("channel.g=nan", "channel.g=inf"):
            assert main(["scenario", "vonneumann", "--set", bad, *fixed]) == 1, bad
        for bad in ("channel.center=nan", "channel.center=inf"):
            assert main(["scenario", "slit", "--set", bad]) == 1, bad
        # a slit width or state geometry that is not finite is a bad input,
        # not a physics violation
        for name, *given in (
            ("slit", "channel.width=inf"),
            ("flip", "state.sigma=inf"),
            ("flip", "state.x0=inf"),
            ("flip", "state.x0=-inf"),
            ("slit", "state.center=inf"),
            ("slit", "state.halfwidth=inf"),
            ("flip", "state.variant=symmetric_pair", "state.separation=inf"),
        ):
            capsys.readouterr()
            assert main(["scenario", name, *(a for g in given for a in ("--set", g))]) == 1, given
            assert "config error" in capsys.readouterr().err, given
        # a momentum that is not finite, a gain that overflows the auto-sized
        # probe or widens it past what probe.n_points resolves, explicit
        # probe bounds too far apart to resolve, a gain so small that the
        # squared readout offsets (y/g - x)^2 overflow, probe coordinates
        # whose squares overflow in the pointer's Gaussian, and a pointer
        # width that is not finite are named before numpy warns of an
        # invalid or overflowing value
        eq2 = ["eq2", "--out-dir", str(tmp_path / "eq2")]
        huge_pointer = ["--set", "probe.s=1e152", "--set", "probe.x_min=-1e155", "--set", "probe.x_max=1e155"]
        for argv, *keys in (
            (["scenario", "flip", "--set", "state.p0=inf"], "p0"),
            (["scenario", "flip", "--set", "state.p0=-inf"], "p0"),
            (["scenario", "flip", "--set", "state.p0=nan"], "p0"),
            (["scenario", "vonneumann", "--set", "state.p0=inf"], "p0"),
            (["scenario", "vonneumann", "--set", "channel.g=1e300"], "channel.g"),
            (["scenario", "vonneumann", "--set", "channel.g=1e10"], "channel.g"),
            (["scenario", "vonneumann", "--set", "channel.g=1e308"], "channel.g"),
            ([*eq2, "--set", "channel.g=1e300"], "channel.g"),
            ([*eq2, "--set", "channel.g=1e308"], "channel.g"),
            (["scenario", "vonneumann", "--set", "probe.x_min=-1e300", "--set", "probe.x_max=1e300"],
             "probe.x_min", "probe.x_max", "probe.n_points"),
            (["scenario", "vonneumann", "--set", "channel.g=1e-300"], "channel.g"),
            ([*eq2, "--set", "channel.g=1e-300"], "channel.g"),
            (["scenario", "vonneumann", *huge_pointer], "probe.s", "probe.x_min", "probe.x_max"),
            (["scenario", "vonneumann", "--set", "probe.s=1e154"], "probe.s"),
            (["scenario", "vonneumann", "--set", "probe.s=inf"], "probe.s"),
            ([*eq2, "--set", "probe.s=inf"], "probe.s"),
        ):
            capsys.readouterr()
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert main(argv) == 1, argv
            err = capsys.readouterr().err
            assert "config error" in err and all(key in err for key in keys), (argv, err)
        assert not (tmp_path / "eq2").exists()
        # a finite but huge momentum is still judged by the aliasing gate
        assert main(["scenario", "flip", "--set", "state.p0=1e300"]) == 2
        seeded = ["--set", "state.variant=random", "--set", "state.seed=1"]
        for bad in ("state.smoothness=-1", "state.smoothness=256"):
            assert main(["scenario", "flip", *seeded, "--set", bad]) == 1, bad
        out = tmp_path / "sweep.csv"
        for axis, value in (("probe.n_points", "100"), ("channel.g", "nan")):
            assert main(["sweep", "--axis", axis, "--values", value, "--out", str(out)]) == 1
        assert not out.exists()
        assert "config error" in capsys.readouterr().err

    def test_lone_probe_bound_is_config_error(self, tmp_path, capsys):
        for given, missing in (("probe.x_min=-20", "probe.x_max"), ("probe.x_max=20", "probe.x_min")):
            assert main(["scenario", "vonneumann", "--set", given]) == 1
            assert missing in capsys.readouterr().err
            assert main(["eq2", "--out-dir", str(tmp_path / "eq2"), "--set", given]) == 1
            assert missing in capsys.readouterr().err
        assert not (tmp_path / "eq2").exists()

    def test_joint_memory_cap(self, tmp_path, capsys, monkeypatch):
        # the estimate is checked before any table is built
        def no_table(self, grid):
            raise AssertionError("table built")

        monkeypatch.setattr(VonNeumannChannel, "table", no_table)
        huge = ["--set", "grid.n_points=65536", "--set", "probe.n_points=65536"]
        assert main(["scenario", "vonneumann", *huge]) == 1
        assert "probe.max_joint_mib" in capsys.readouterr().err
        for given in ("probe.max_joint_mib=0.1", "probe.max_joint_mib=0", "probe.max_joint_mib=nan"):
            assert main(["scenario", "vonneumann", "--set", given]) == 1, given
            assert main(["eq2", "--out-dir", str(tmp_path / "eq2"), "--set", given]) == 1, given
            assert "probe.max_joint_mib" in capsys.readouterr().err
        assert not (tmp_path / "eq2").exists()
        # the default admits n_s = n_p = 16384 and refuses 32768 and 65536
        for n, code in ((8192, 0), (16384, 0), (32768, 1), (65536, 1)):
            sets = [f"grid.n_points={n}", f"probe.n_points={n}"]
            cfg = load_config(None, sets, "vonneumann")
            if code:
                with pytest.raises(ConfigError, match="probe.max_joint_mib"):
                    build_scenario(cfg)
            else:
                assert build_scenario(cfg).channel.probe.grid.n_points == n

    def test_joint_memory_estimate_covers_the_traced_peak(self):
        # a report's traced peak, the table built with it, stays under the
        # estimate the cap judges
        n = 2048
        cfg = load_config(None, [f"grid.n_points={n}", f"probe.n_points={n}"], "vonneumann")
        tracemalloc.start()
        try:
            built = build_scenario(cfg)
            compute_report(built.channel, built.psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < _JOINT_BYTES_PER_POINT * n * n, peak / (n * n)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="pins glibc's malloc")
    def test_main_keeps_freed_memory_for_the_next_transform(self, capsys):
        # without the pinned thresholds, each 2^18 transform faults in its
        # result and numpy's FFT scratch afresh: about 2016 pages
        import resource

        assert main(["scenario", "flip"]) == 0
        grid = make_grid(2**18, -40.0, 40.0)
        a = np.ones(grid.n_points, complex)
        kernel_transform(a, 0, grid, -1)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        kernel_transform(a, 0, grid, -1)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 64

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "below |g| ~ 1e-15 eta_P reads the rounding floor of B K psi - K B psi "
            "(about 2.9e-15 here, closed form |g| hbar / 2s = 1e-20), so the eq2-form "
            "verdict is a rounding-decided SATISFIED"
        ),
    )
    def test_tiny_gain_eta_p_follows_its_closed_form(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        argv = ["scenario", "vonneumann", "--set", "channel.g=1e-20", "--format", "json", "--out", str(out)]
        assert main(argv) == 0
        payload = json.loads(out.read_text())
        assert payload["eta_o_P"] == pytest.approx(1e-20, rel=1e-3)
        assert not payload["eq2_form_satisfied"]

    def test_operator_image_is_not_confinement_gated(self, capsys):
        # U(X psi (x) ready) leaves edge mass 1.1e-9, but X psi is an operator
        # image (of norm 1, since <X^2> = 1); psi's own edge mass is 3.0e-11
        argv = ["scenario", "vonneumann", "--set", "probe.x_min=-7.5", "--set", "probe.x_max=7.5"]
        assert main(argv) == 0


class TestSweep:
    def test_pointer_width_sweep(self, tmp_path):
        cfg = load_config(None, [], None)
        text = run_sweep("probe.s", [0.5, 0.1, 1.0, 0.25], cfg)
        lines = text.splitlines()
        header = lines[0].split(",")
        assert header[0] == "probe.s"
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        svals = [float(r["probe.s"]) for r in rows]
        assert svals == sorted(svals)
        for r in rows:
            s = float(r["probe.s"])
            assert float(r["epsilon_o"]) == pytest.approx(s, rel=1e-3)
            assert float(r["eta_o_P"]) == pytest.approx(0.5 / s, rel=1e-3)

    def test_slit_width_sweep_crossover(self):
        cfg = load_config(None, [], "slit")
        text = run_sweep("channel.width", [1.0, 2.0, 4.0], cfg)
        lines = text.splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        etas = {float(r["channel.width"]): float(r["eta_o_P"]) for r in rows}
        assert etas[1.0] > 0.3  # slit cuts the bump
        assert etas[2.0] < 0.05  # support exactly fits
        assert etas[4.0] < 0.05

    def test_flip_contrast_sweep(self, tmp_path, capsys):
        # the RMS figure sees the flip move every amplitude, the W2 figure
        # only the translation of |psi|^2: 2*sqrt(x0^2 + sigma^2) against 2|x0|.
        # The packet has p0 = 0, so the flip mirrors an even momentum law:
        # its W2 is exactly 0, with no rounding floor (0.75, 1 and 1.5 are
        # where a W2 that counts every positive cell as mass reads ~1e-8)
        out = tmp_path / "flip_contrast.csv"
        args = ["sweep", "--axis", "state.x0", "--values", "0,0.25,0.5,0.75,1,1.5,2,4"]
        assert main(args + ["--set", "scenario=flip", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        assert [float(r["state.x0"]) for r in rows] == [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0]
        for r in rows:
            x0 = float(r["state.x0"])
            assert float(r["eta_o_X"]) == pytest.approx(2.0 * math.sqrt(x0**2 + 1.0), rel=1e-6)
            assert float(r["w2_disturbance_X"]) == pytest.approx(2.0 * abs(x0), abs=1e-9)
            assert float(r["w2_disturbance_P"]) == 0.0, x0

    def test_empty_values_rejected(self):
        cfg = load_config(None, [], None)
        with pytest.raises(ConfigError, match="at least one"):
            run_sweep("probe.s", [], cfg)

    def test_non_numeric_axis_rejected(self, tmp_path):
        cfg = load_config(None, [], None)
        with pytest.raises(ConfigError, match="numeric"):
            run_sweep("state.variant", [1.0], cfg)
        # an integer axis takes only integral values, as --set does
        for bad in (256.5, float("inf"), float("nan")):
            with pytest.raises(ConfigError, match="integer"):
                run_sweep("grid.n_points", [256.0, bad], cfg)
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--axis", "grid.n_points", "--values", "256.5", "--out", str(out)])
        assert code == 1
        assert not out.exists()

    def test_unread_axis_rejected(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--axis", "channel.width", "--values", "1,2,4", "--out", str(out)]
        assert main(argv) == 1
        assert "channel.width" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(ConfigError, match="not read"):
            run_sweep("state.center", [0.0], load_config(None, [], None, "sweep"))

    def test_failing_row_leaves_no_file(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--axis", "state.x0", "--values", "0,20", "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()

    def test_out_of_domain_slit_row_aborts(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--axis",
                "channel.center",
                "--values",
                "0,15.5",
                "--set",
                "scenario=slit",
                "--out",
                str(out),
            ]
        )
        assert code == 2
        assert not out.exists()


class TestEq2Verb:
    def test_outputs(self, tmp_path, capsys):
        outdir = tmp_path / "eq2"
        code = main(
            [
                "eq2",
                "--out-dir",
                str(outdir),
                "--set",
                "search_err.max_refine_iters=1",
                "--set",
                "search_dist.max_refine_iters=1",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "argmax states differ" in printed
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["argmax_distinct"] is True
        assert summary["product"] <= 0.5 + 1e-9
        err_rows = (outdir / "error_landscape.csv").read_text().splitlines()
        assert err_rows[0] == "x0,p0,sigma,value"
        assert len(err_rows) - 1 == summary["evaluations_error"]


    def test_bad_search_params_are_config_errors(self, tmp_path, capsys):
        outdir = tmp_path / "eq2"
        for bad in (
            "search_err.sigma_min=0.01",
            "search_err.n_x0=0",
            "search_dist.refine_tol=0",
            "search_dist.max_refine_iters=-1",
            "search_dist.x0_min=2",
            "search_err.p0_max=inf",
            "search_err.x0_min=nan",
            # finite, but outside the grid's [-16, 16]
            "search_err.x0_max=1e300",
            "search_dist.x0_min=-17",
        ):
            assert main(["eq2", "--out-dir", str(outdir), "--set", bad]) == 1, bad
            err = capsys.readouterr().err
            assert "config error" in err and bad.partition(".")[0] + ":" in err, err
        assert not outdir.exists()

    def test_reads_no_state_key(self, tmp_path, capsys):
        outdir = tmp_path / "eq2"
        for given in ("state.sigma=3", "state.x0=20", "state.variant=bump"):
            assert main(["eq2", "--out-dir", str(outdir), "--set", given]) == 1, given
            assert given.partition("=")[0] in capsys.readouterr().err
        assert not outdir.exists()

    def test_other_scenario_with_pointer_channel(self, tmp_path, capsys):
        # eq2 runs the vonneumann preset's pointer alone, so neither key selects anything
        outdir = tmp_path / "eq2"
        for given in ("scenario=flip", "scenario=vonneumann", "channel.variant=von_neumann"):
            assert main(["eq2", "--out-dir", str(outdir), "--set", given]) == 1, given
            err = capsys.readouterr().err
            assert f"key {given.partition('=')[0]} is not read by the eq2 verb" in err, err
        assert not outdir.exists()


class TestDeterminism:
    def test_scenario_outputs_byte_identical(self, tmp_path):
        for name, zeros in EXACT_ZEROS.items():
            a, b = tmp_path / f"{name}_a.json", tmp_path / f"{name}_b.json"
            for out in (a, b):
                assert main(["scenario", name, "--format", "json", "--out", str(out)]) == 0
            assert a.read_bytes() == b.read_bytes(), name
            assert_matches_golden(a.read_text(), f"scenario_{name}.json")
            payload = json.loads(a.read_text())
            for key in zeros:
                assert payload[key] == 0.0, (name, key)

    def test_pointer_eta_x_is_exactly_zero(self, tmp_path):
        # the coupling weights each system point, so it commutes with X and
        # leaves the position law exactly as it was
        out = tmp_path / "r.json"
        for given in ("grid.n_points=512", "grid.n_points=2048", "grid.hbar=2"):
            argv = ["scenario", "vonneumann", "--set", given, "--format", "json", "--out", str(out)]
            assert main(argv) == 0
            payload = json.loads(out.read_text())
            assert payload["eta_o_X"] == 0.0, given
            assert payload["w2_disturbance_X"] == 0.0, given

    def test_sweep_outputs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert (
                main(["sweep", "--axis", "probe.s", "--values", "0.25,0.5", "--out", str(out)])
                == 0
            )
        assert a.read_bytes() == b.read_bytes()
        assert_matches_golden(a.read_text(), "sweep_probe_s.csv")
        # the pointer commutes with X, so eta_o_X is 0 on every row, bit for bit
        header, *rows = a.read_text().splitlines()
        col = header.split(",").index("eta_o_X")
        assert [row.split(",")[col] for row in rows] == ["0", "0"]

    def test_eq2_outputs_byte_identical(self, tmp_path):
        names = ("summary.json", "error_landscape.csv", "disturbance_landscape.csv")
        outdirs = [tmp_path / "x", tmp_path / "y"]
        for outdir in outdirs:
            assert main(["eq2", "--out-dir", str(outdir)]) == 0
        for name in names:
            first = (outdirs[0] / name).read_text()
            assert first == (outdirs[1] / name).read_text(), name
            assert_matches_golden(first, f"eq2/{name}")
