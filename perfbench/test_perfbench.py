"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracer import Tracer
from workloads import Op, Step, check_step, workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

edlab = run.load_edlab()
from edlab import cli  # noqa: E402


def bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=170,
    )


def smoke(workload: str, seed: int, trace: int) -> dict:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads())
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", tuple(workloads()))
def test_smoke_runs_every_workload_end_to_end(workload, trace):
    result = smoke(workload, 7, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace:
        assert result["metrics"]["trace.complete"]["value"] == 1
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_computed_counts_repeat_exactly():
    first, second = (smoke("worst_case_search", 3, 1)["metrics"] for _ in range(2))
    counted = [k for k, unit in run.PER_LAYER.items() if unit in ("count", "MiB")]
    assert {k: first[k]["value"] for k in counted} == {k: second[k]["value"] for k in counted}
    assert first["supsearch.evaluations"]["value"] > first["supsearch.excluded"]["value"] > 0


POINTER = Op((workloads()["pointer_report"].canonical.steps[2],))  # s = 0.5, g = 1


def test_corrupted_output_counts_as_failed_op(tmp_path, monkeypatch):
    real = cli.report_to_json

    def epsilon_one_percent_off(report):
        payload = json.loads(real(report))
        payload["epsilon_o"] *= 1.01
        return json.dumps(payload)

    monkeypatch.setattr(cli, "report_to_json", epsilon_one_percent_off)
    runner = run.Runner(cli, tmp_path)
    result = runner.run(POINTER)
    assert (runner.attempted, runner.failed) == (1, 1)
    assert any("epsilon_o" in f for f in result.failures)


def test_exceptions_and_nonzero_exits_fail_the_op(tmp_path, monkeypatch):
    runner = run.Runner(cli, tmp_path)
    unresolvable = Op((Step("pointer", {**POINTER.steps[0].params, "state.sigma": 0.01}),))
    assert "exit 2" in runner.run(unresolvable).failures[0]

    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "compute_report", boom)
    assert "RuntimeError: boom" in runner.run(POINTER).failures[0]
    assert (runner.attempted, runner.failed) == (2, 2)


def test_bit_exact_zeros_have_no_tolerance():
    flip = Step("flip", {"grid.n_points": 262144, "state.sigma": 1.0, "state.p0": 1.0})
    report = {"eta_o_X": 2.0, "eta_o_P": 2.0 * 1.25**0.5, "w2_disturbance_P": 2.0, "w2_disturbance_X": 0.0,
              "robertson_product": 0.5}
    assert check_step(flip, report, "").failures == []
    assert check_step(flip, {**report, "w2_disturbance_X": 5e-324}, "").failures
    assert check_step(flip, {**report, "eta_o_X": None}, "").failures


NAMESPACES = {
    "grids.kernel_transform": ("grids", "channels", "metrics"),
    "channels.apply_von_neumann": ("channels", "metrics"),
    "states.make_state": ("states", "supsearch", "cli"),
    "metrics.busch_state_error": ("metrics", "supsearch"),
    "metrics.busch_state_disturbance": ("metrics", "supsearch"),
    "metrics.compute_report": ("metrics", "cli"),
}


def test_wrappers_cover_every_namespace_and_are_removed():
    tracer = Tracer(edlab)
    for name, modules in NAMESPACES.items():
        bound = tracer.bindings(name)
        short = name.split(".")[1]
        assert {f"edlab.{m}.{short}" for m in modules} <= set(bound), bound
    original = edlab.metrics.kernel_transform
    with tracer.installed(0):
        assert edlab.metrics.kernel_transform is not original
        assert edlab.grids.WaveFunction.validate.span_name == "grids.validate"
    assert edlab.metrics.kernel_transform is original


def test_wrappers_reraise_so_search_still_excludes():
    grid = edlab.make_grid(128, -16.0, 16.0)
    # members at x0 = 6 and 12 leave too little margin and are excluded
    spec = edlab.SearchSpec((0.0, 12.0), (0.0, 0.0), (2.0, 2.0), (3, 1, 1), 1e-2, 0)
    tracer = Tracer(edlab)
    with pytest.raises(edlab.InvariantViolation), tracer.installed(0):
        edlab.make_state(grid, edlab.GaussianState(0.0, 0.0, 0.01))

    def search():
        return edlab.supsearch.maximize(lambda psi: edlab.moments(psi).delta_x, grid, spec)

    plain = search()
    with tracer.installed(1):
        traced = search()
    assert (traced.value, traced.argmax, traced.n_excluded) == (plain.value, plain.argmax, 2)
    assert tracer.counts["supsearch.excluded"] == plain.n_excluded


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "pointer_report", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
