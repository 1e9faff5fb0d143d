#!/usr/bin/env python3
"""The edlab benchmark: three workloads driven through ``edlab.cli.main``.

Run from the repository root:

    python3 perfbench/run.py --workload pointer_report --seed 1 --seconds 20 --trace 0

One process, one client, closed loop: each op starts when the previous one
has returned.  A run

1. times cold starts in fresh interpreters (``setup_s``), half of them
   before the timed loop and half after it;
2. runs the workload's canonical op set once, untimed: it warms caches, and
   its closed-form deviations are the accuracy metrics;
3. with ``--trace 0``, runs seeded ops in whole cycles for about
   ``--seconds`` and reports the end-to-end metrics;
   with ``--trace 1``, runs a fixed list of seeded ops twice each, once
   plain and once traced (alternating which goes first), and reports the
   per-layer metrics, the tracing overhead and the trace's coverage.

Every op's outputs are checked against closed forms; a nonzero exit, an
uncaught exception or a failed check makes the op fail, and the benchmark
goes on.  Human-readable lines come first; the last line of standard output
is the JSON result.  Scratch files go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path

import envinfo
from tracer import Tracer
from workloads import RESOLUTION_FLOOR, Op, Verdict, Workload, check_step, read_output, workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 4  # before and again after the timed loop, so they span the run
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
COVERAGE_TOL = 0.10

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "peak_rss_mib": "MiB",
    "success_ratio": "ratio",
    "rms_closed_form_dev": "1",
    "w2_closed_form_dev": "1",
    "eq2_product": "1",
}

PER_LAYER = {
    "grids.kernel_transform.calls": "count",
    "grids.kernel_transform.self_s": "s",
    "grids.kernel_transform.elems": "count",
    "grids.validate.calls": "count",
    "grids.validate.self_s": "s",
    "grids.moments.self_s": "s",
    "grids.distribution.self_s": "s",
    "states.make_state.calls": "count",
    "states.make_state.self_s": "s",
    "channels.apply_von_neumann.calls": "count",
    "channels.apply_von_neumann.self_s": "s",
    "channels.apply_von_neumann.joint_mib": "MiB",
    "channels.confinement_rejects": "count",
    "channels.reduce_system.calls": "count",
    "channels.reduce_system.self_s": "s",
    "channels.momentum_distribution_of.self_s": "s",
    "channels.density_mib": "MiB",
    "channels.kraus_of.calls": "count",
    "channels.kraus_of.self_s": "s",
    "metrics.compute_report.self_s": "s",
    "metrics.ozawa_error.s": "s",
    "metrics.ozawa_disturbance.s": "s",
    "metrics.busch_state_error.s": "s",
    "metrics.busch_state_disturbance.s": "s",
    "metrics.wasserstein2.calls": "count",
    "metrics.wasserstein2.self_s": "s",
    "metrics.wasserstein2.points": "count",
    "supsearch.maximize.self_s": "s",
    "supsearch.evaluations": "count",
    "supsearch.excluded": "count",
    "supsearch.useful_ratio": "ratio",
    "cli.load_config.self_s": "s",
    "cli.build_scenario.self_s": "s",
    "cli.main.self_s": "s",
    "trace.ops": "count",
    "trace.overhead_ratio": "ratio",
    "trace.coverage_min": "ratio",
    "trace.coverage_max": "ratio",
    "trace.complete": "flag",
}


def load_edlab():
    """Import edlab from this checkout's sources, never from elsewhere."""
    if not (SRC / "edlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no edlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import edlab

    if Path(edlab.__file__).resolve().parent != SRC / "edlab":
        raise SystemExit(f"error: imported edlab from {edlab.__file__}, not from {SRC}")
    return edlab


@dataclass
class OpResult:
    seconds: float  # wall time inside edlab.cli.main, summed over the op's steps
    verdicts: list[Verdict] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


class Runner:
    """Runs ops through ``cli.main`` and checks their outputs."""

    def __init__(self, cli, out_dir: Path) -> None:
        self.cli = cli
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0

    def run(self, op: Op) -> OpResult:
        self.attempted += 1
        result = OpResult(0.0)
        for i, step in enumerate(op.steps):
            out = self.out_dir / (f"eq2_{i}" if step.kind == "eq2" else f"step{i}.json")
            if out.is_dir():
                shutil.rmtree(out)
            out.unlink(missing_ok=True)
            stdout, stderr = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            try:
                with redirect_stdout(stdout), redirect_stderr(stderr):
                    code = self.cli.main(step.argv(str(out)))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # the op fails; the benchmark goes on
                code = f"{type(exc).__name__}: {exc}"
            result.seconds += time.perf_counter() - start
            if code != 0:
                result.failures.append(f"{step.kind}: exit {code} {stderr.getvalue().strip()[-300:]}")
                break
            try:
                output = read_output(step, str(out))
            except (OSError, ValueError) as exc:
                result.failures.append(f"{step.kind}: unreadable output: {exc}")
                break
            verdict = check_step(step, output, stdout.getvalue())
            result.verdicts.append(verdict)
            result.failures.extend(f"{step.kind} {step.params}: {f}" for f in verdict.failures)
        if result.failures:
            self.failed += 1
            for line in result.failures:
                print(f"FAILED {line}", file=sys.stderr)
        return result


def setup_times(w: Workload, repeats: int) -> list[float]:
    scenario, sets = w.setup_scenario
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), scenario, *sets]
    return [
        float(subprocess.run(argv, capture_output=True, text=True, check=True, timeout=120).stdout)
        for _ in range(repeats)
    ]


def accuracy(verdicts: list[Verdict]) -> dict[str, float | None]:
    """Largest closed-form deviations and smallest product of a set of steps;
    None where no step has the figure."""
    rms = [v.rms_dev for v in verdicts if v.rms_dev is not None]
    w2 = [v.w2_dev for v in verdicts if v.w2_dev is not None]
    products = [v.product for v in verdicts if v.product is not None]
    return {
        "rms_closed_form_dev": max([RESOLUTION_FLOOR, *rms]) if rms else None,
        "w2_closed_form_dev": max([RESOLUTION_FLOOR, *w2]) if w2 else None,
        "eq2_product": min(products) if products else None,
    }


# A canonical step that crashed leaves no figure: it reads as a 100%
# deviation and a zero product (the run is already marked incorrect).
_MISSING = {"rms_closed_form_dev": 1.0, "w2_closed_form_dev": 1.0, "eq2_product": 0.0}


def tail_percentile(times: list[float]) -> tuple[float, float] | None:
    """Highest listed percentile with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(times)
    n = len(ordered)
    for q in TAIL_PERCENTILES:
        rank = math.ceil(q / 100.0 * n)
        if n - rank >= 10:
            return q, ordered[rank - 1]
    return None


def timed_loop(runner: Runner, w: Workload, seed: int, seconds: float) -> tuple[list[float], float, list[Verdict]]:
    """Seeded ops in whole cycles, stopping at the cycle boundary closest to ``seconds``."""
    times: list[float] = []
    verdicts: list[Verdict] = []
    start = time.perf_counter()
    for done, cycle in enumerate(w.cycles(seed), 1):
        for op in cycle:
            result = runner.run(op)
            verdicts.extend(result.verdicts)
            if not result.failures:
                times.append(result.seconds)
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / done >= seconds:
            return times, elapsed, verdicts
    raise AssertionError("the op stream is endless")


def traced_pass(runner: Runner, w: Workload, seed: int, edlab, spans_path: Path) -> dict[str, float]:
    tracer = Tracer(edlab)
    ops = list(islice(chain.from_iterable(w.cycles(seed)), w.trace_ops))
    plain = traced = 0.0
    walls = []
    for i, op in enumerate(ops):
        for with_trace in (i % 2 == 1, i % 2 == 0):
            if with_trace:
                with tracer.installed(i):
                    seconds = runner.run(op).seconds
                traced += seconds
                walls.append(seconds)
            else:
                plain += runner.run(op).seconds
    tracer.write(str(spans_path))
    own, inclusive, per_op = tracer.self_times()
    counts = tracer.counts
    coverage = [per_op[i] / wall for i, wall in enumerate(walls)]
    metrics = {}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            metrics[name] = own[name[: -len(".self_s")]]
        elif name.endswith(".s"):
            metrics[name] = inclusive[name[: -len(".s")]]
        else:
            metrics[name] = counts[name]
    evaluations = counts["supsearch.evaluations"]
    metrics.update(
        {
            "supsearch.useful_ratio": (evaluations - counts["supsearch.excluded"]) / evaluations if evaluations else 0.0,
            "trace.ops": len(ops),
            "trace.overhead_ratio": traced / plain - 1.0,
            "trace.coverage_min": min(coverage),
            "trace.coverage_max": max(coverage),
            "trace.complete": int(all(abs(c - 1.0) <= COVERAGE_TOL for c in coverage)),
        }
    )
    return metrics


def measure(args) -> dict:
    edlab = load_edlab()
    from edlab import cli

    w = workloads(args.smoke)[args.workload]
    out_dir = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(cli, out_dir)
    env = envinfo.record()
    print(f"# edlab benchmark: workload={w.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env))
    caches = {k: env[k] for k in ("l2_mib", "l3_mib") if k in env}
    print("working_set " + json.dumps({"largest_arrays_mib": w.largest_arrays_mib, **caches}))

    probes = 0 if args.trace else 1 if args.smoke else SETUP_PROBES
    setup = setup_times(w, probes)
    canonical = runner.run(w.canonical)

    if args.trace:
        metrics = traced_pass(runner, w, args.seed, edlab, out_dir / "spans.jsonl")
        units = PER_LAYER
        if not metrics["trace.complete"]:
            print("WARNING: trace incomplete: self times do not cover every op within 10%", file=sys.stderr)
    else:
        times, elapsed, verdicts = timed_loop(runner, w, args.seed, args.seconds)
        setup += setup_times(w, probes)
        units = END_TO_END
        metrics = {
            "setup_s": statistics.median(setup),
            "ops_per_s": len(times) / elapsed,
            "op_p50_s": statistics.median(times) if times else elapsed,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_ratio": 1.0 - runner.failed / runner.attempted,
        }
        for name, value in accuracy(canonical.verdicts).items():
            metrics[name] = _MISSING[name] if value is None else value
        print(f"info op samples {len(times)}; setup samples {len(setup)}")
        tail = tail_percentile(times)
        print(f"info op_p{tail[0]:g}_s {tail[1]:.6g} s" if tail else "info no percentile has ten samples beyond it")
        print(f"info fail_ratio {runner.failed / runner.attempted:.6g} ({runner.failed} of {runner.attempted})")
        print("info seeded ops: " + ", ".join(f"{k} {v:.6g}" for k, v in accuracy(verdicts).items() if v is not None))

    for name, unit in units.items():
        print(f"metric {name} {metrics[name]:.9g} {unit}")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small eq2 search, one setup probe each side (for the self-tests)")
    args = parser.parse_args(argv)
    result = measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
