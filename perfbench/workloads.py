"""Workloads of the edlab benchmark: seeded ops and closed-form output checks.

An op is a short list of edlab command lines, each run through
``edlab.cli.main(argv)``.  The workload seed draws every op's inputs; the
program receives only the generated argv.  Ops come in cycles: one cycle
visits every coupling model of a workload once, in a seed-drawn order, so a
run that stops at a cycle boundary carries the same model mix for every seed.

Each workload also has a fixed canonical op set, run before timing starts.
It warms caches and lazy set-up, and its closed-form deviations are the
accuracy metrics: they do not depend on the seed, so a change of accuracy
shows as a change of the metric rather than as seed noise.

Every output is checked against closed forms with the tolerances of the
repository's own test suite, so a defect shows as a failed op.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator

HBAR = 1.0

# Tolerances of tests/test_acceptance.py and tests/test_metrics.py.
POINTER_REL_TOL = 1e-3  # criterion 3: eps = s/|g|, eta_P = |g| hbar / (2 s)
POINTER_ETA_X_TOL = 1e-10  # pointer eta_X = 0
W2_ABS_TOL = 0.02  # W2 against the Gaussian formula
FLIP_REL_TOL = 1e-6  # criterion 1: flip RMS figures
PASS_PROB_TOL = 1e-10  # criterion 2: slit pass probability 1
SLIT_ETA_P_SHARE = 1e-8  # criterion 2: slit eta_P < 1e-8 * Delta P

# JSON reports carry 12 significant digits, so deviations below this read
# as this; it also keeps the accuracy metrics away from 0.
RESOLUTION_FLOOR = 1e-12

# The acceptance suite's six (s, g) pointer models.
POINTER_MODELS = ((0.1, 1.0), (0.25, 1.0), (0.5, 1.0), (1.0, 1.0), (0.5, 0.5), (0.5, 2.0))
# eq2 at its defaults with g in {0.5, 1, 2} (s = 0.5) or s in {0.25, 0.5, 1} (g = 1).
EQ2_MODELS = ((0.5, 0.5), (0.5, 1.0), (0.5, 2.0), (0.25, 1.0), (1.0, 1.0))

FINE_N = 262144  # the grid of acceptance criterion 2
POINTER_N = 1024

_PASS_PROB = re.compile(r"^slit pass probability\s+(\S+)\s*$", re.MULTILINE)


@dataclass(frozen=True)
class Step:
    """One edlab command line: kind in pointer | flip | slit | eq2."""

    kind: str
    params: dict
    extra_sets: tuple[str, ...] = ()

    def argv(self, out: str) -> list[str]:
        sets = [f"{k}={v!r}" for k, v in self.params.items()] + list(self.extra_sets)
        flags = [a for s in sets for a in ("--set", s)]
        if self.kind == "eq2":
            return ["eq2", *flags, "--out-dir", out]
        scenario = "vonneumann" if self.kind == "pointer" else self.kind
        return ["scenario", scenario, *flags, "--format", "json", "--out", out]


@dataclass(frozen=True)
class Op:
    steps: tuple[Step, ...]


@dataclass
class Verdict:
    """Checks of one step: failures, and deviations from the closed forms."""

    failures: list[str] = field(default_factory=list)
    rms_dev: float | None = None
    w2_dev: float | None = None
    product: float | None = None

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


def _dev(value: float, target: float) -> float:
    """Relative deviation, absolute for a zero target."""
    return abs(value - target) / abs(target) if target != 0.0 else abs(value)


def gaussian_w2_error(sigma: float, s: float, g: float) -> float:
    """W2 between the readout law N(x0, sigma^2 + (s/g)^2) and N(x0, sigma^2)."""
    return math.sqrt(sigma**2 + (s / g) ** 2) - sigma


def gaussian_w2_kick(sigma: float, s: float, g: float) -> float:
    """W2 between the momentum law after the coupling and before it."""
    delta_p = HBAR / (2.0 * sigma)
    kick = abs(g) * HBAR / (2.0 * s)
    return math.sqrt(delta_p**2 + kick**2) - delta_p


def _check_pointer(p: dict, r: dict, v: Verdict) -> None:
    s, g, sigma = p["probe.s"], p["channel.g"], p["state.sigma"]
    eps, eta_p = s / abs(g), abs(g) * HBAR / (2.0 * s)
    w2_err, w2_kick = gaussian_w2_error(sigma, s, g), gaussian_w2_kick(sigma, s, g)
    v.require(_dev(r["epsilon_o"], eps) < POINTER_REL_TOL, f"epsilon_o {r['epsilon_o']} != s/|g| = {eps}")
    v.require(_dev(r["eta_o_P"], eta_p) < POINTER_REL_TOL, f"eta_o_P {r['eta_o_P']} != |g|/2s = {eta_p}")
    v.require(abs(r["eta_o_X"]) < POINTER_ETA_X_TOL, f"eta_o_X {r['eta_o_X']} != 0")
    v.require(abs(r["w2_error_X"] - w2_err) <= W2_ABS_TOL, f"w2_error_X {r['w2_error_X']} vs {w2_err}")
    v.require(
        abs(r["w2_disturbance_P"] - w2_kick) <= W2_ABS_TOL,
        f"w2_disturbance_P {r['w2_disturbance_P']} vs {w2_kick}",
    )
    v.require(abs(r["w2_disturbance_X"]) <= W2_ABS_TOL, f"w2_disturbance_X {r['w2_disturbance_X']} != 0")
    v.rms_dev = max(_dev(r["epsilon_o"], eps), _dev(r["eta_o_P"], eta_p), abs(r["eta_o_X"]))
    v.w2_dev = max(
        _dev(r["w2_error_X"], w2_err), _dev(r["w2_disturbance_P"], w2_kick), abs(r["w2_disturbance_X"])
    )
    v.product = r["product_eq2_form"]


def _check_flip(p: dict, r: dict, v: Verdict) -> None:
    sigma, p0 = p["state.sigma"], p["state.p0"]
    eta_x = 2.0 * sigma
    eta_p = 2.0 * math.sqrt(p0**2 + HBAR**2 / (4.0 * sigma**2))
    v.require(_dev(r["eta_o_X"], eta_x) < FLIP_REL_TOL, f"eta_o_X {r['eta_o_X']} != 2 sigma = {eta_x}")
    v.require(_dev(r["eta_o_P"], eta_p) < FLIP_REL_TOL, f"eta_o_P {r['eta_o_P']} != {eta_p}")
    v.require(
        abs(r["w2_disturbance_P"] - 2.0 * abs(p0)) <= W2_ABS_TOL,
        f"w2_disturbance_P {r['w2_disturbance_P']} != 2|p0| = {2.0 * abs(p0)}",
    )
    v.require(r["w2_disturbance_X"] == 0.0, f"w2_disturbance_X {r['w2_disturbance_X']} is not exactly 0")
    v.rms_dev = max(_dev(r["eta_o_X"], eta_x), _dev(r["eta_o_P"], eta_p))
    v.w2_dev = max(_dev(r["w2_disturbance_P"], 2.0 * abs(p0)), abs(r["w2_disturbance_X"]))
    v.product = r["robertson_product"]


def _check_slit(stdout: str, r: dict, v: Verdict) -> None:
    found = _PASS_PROB.search(stdout)
    v.require(found is not None, "no slit pass probability in the table")
    if found is not None:
        pp = float(found.group(1))
        v.require(abs(pp - 1.0) < PASS_PROB_TOL, f"slit pass probability {pp} != 1")
    v.require(r["eta_o_X"] == 0.0, f"eta_o_X {r['eta_o_X']} is not exactly 0")
    share = r["eta_o_P"] / r["delta_P"]
    v.require(share < SLIT_ETA_P_SHARE, f"eta_o_P / Delta P = {share:.3e} >= {SLIT_ETA_P_SHARE}")
    for key in ("w2_disturbance_X", "w2_disturbance_P"):
        v.require(r[key] == 0.0, f"{key} {r[key]} is not exactly 0")
    v.rms_dev = max(abs(r["eta_o_X"]), share)
    v.w2_dev = max(abs(r["w2_disturbance_X"]), abs(r["w2_disturbance_P"]))


def _check_eq2(p: dict, r: dict, v: Verdict) -> None:
    s, g = p["probe.s"], p["channel.g"]
    v.require(r["product"] <= 0.5 * HBAR, f"eq2 product {r['product']} > hbar/2")
    v.require(r["argmax_distinct"] is True, "eq2 argmax states are not distinct")
    w2_err = gaussian_w2_error(r["argmax_error"]["sigma"], s, g)
    w2_kick = gaussian_w2_kick(r["argmax_disturbance"]["sigma"], s, g)
    v.w2_dev = max(_dev(r["epsilon_b"], w2_err), _dev(r["eta_b"], w2_kick))
    v.product = r["product"]


def check_step(step: Step, output: dict, stdout: str) -> Verdict:
    """Check one step's parsed output against its closed forms."""
    v = Verdict()
    try:
        if step.kind == "pointer":
            _check_pointer(step.params, output, v)
        elif step.kind == "flip":
            _check_flip(step.params, output, v)
        elif step.kind == "slit":
            _check_slit(stdout, output, v)
        else:
            _check_eq2(step.params, output, v)
    except (KeyError, TypeError) as exc:  # a missing or null figure
        v.failures.append(f"{step.kind}: malformed output ({type(exc).__name__}: {exc})")
    return v


def read_output(step: Step, out: str) -> dict:
    path = f"{out}/summary.json" if step.kind == "eq2" else out
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    canonical: Op
    cycle: Callable[[random.Random], list[Op]]
    trace_ops: int  # ops in the traced pass; a fixed count keeps counts exact
    largest_arrays_mib: dict
    setup_scenario: tuple[str, tuple[str, ...]]  # (scenario, --set items) built in setup_s

    def cycles(self, seed: int) -> Iterator[list[Op]]:
        """Endless seeded op stream, one cycle at a time."""
        rng = random.Random(seed)
        while True:
            yield self.cycle(rng)


def _pointer_step(s: float, g: float, x0: float, p0: float, sigma: float, n: int) -> Step:
    return Step(
        "pointer",
        {
            "grid.n_points": n,
            "probe.s": s,
            "channel.g": g,
            "state.x0": x0,
            "state.p0": p0,
            "state.sigma": sigma,
        },
    )


def _pointer_cycle(rng: random.Random) -> list[Op]:
    # |x0| + 8 sigma <= 8.5 keeps the auto-sized probe domain narrow enough
    # that the s = 0.1 readout stays within the suite's W2 tolerance; the
    # lattice bias itself shows in w2_closed_form_dev.
    models = list(POINTER_MODELS)
    rng.shuffle(models)
    return [
        Op((_pointer_step(s, g, rng.uniform(-0.5, 0.5), rng.uniform(-2.0, 2.0), rng.uniform(0.75, 1.0), POINTER_N),))
        for s, g in models
    ]


def _eq2_cycle(rng: random.Random, extra: tuple[str, ...]) -> list[Op]:
    models = list(EQ2_MODELS)
    rng.shuffle(models)
    return [Op((Step("eq2", {"probe.s": s, "channel.g": g}, extra),)) for s, g in models]


def _fine_cycle(rng: random.Random) -> list[Op]:
    # |p0| >= 0.5 keeps the flip's momentum shift 2|p0| above the momentum
    # spacing dp ~ 0.2; a bump at least 1 from each slit edge keeps the
    # slit's eta_P below 1e-8 Delta P at 2^18 points (criterion 2).
    halfwidth = rng.uniform(0.75, 2.0)
    flip = Step(
        "flip",
        {
            "grid.n_points": FINE_N,
            "state.sigma": rng.uniform(0.5, 2.0),
            "state.p0": rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0),
        },
    )
    slit = Step(
        "slit",
        {
            "grid.n_points": FINE_N,
            "state.halfwidth": halfwidth,
            "channel.width": 2.0 * halfwidth + rng.uniform(2.0, 6.0),
        },
    )
    return [Op((flip, slit))]


# Smoke mode shrinks only the search of eq2.  The grids stay: at n = 512 the
# s = 0.1 readout already exceeds the suite's W2 tolerance, and 2^18 is the
# smallest grid on which the slit's eta_P check holds.
_EQ2_SMOKE_SETS = tuple(
    f"{search}.{key}" for search in ("search_err", "search_dist") for key in ("n_x0=1", "n_p0=1", "max_refine_iters=0")
)


def workloads(smoke: bool = False) -> dict[str, Workload]:
    """The three workloads; BENCHMARK.json records why each was chosen."""
    eq2_sets = _EQ2_SMOKE_SETS if smoke else ()
    mib = 16.0 / 2**20
    return {
        w.name: w
        for w in (
            Workload(
                "pointer_report",
                Op(tuple(_pointer_step(s, g, 0.0, 0.0, 1.0, POINTER_N) for s, g in POINTER_MODELS)),
                _pointer_cycle,
                trace_ops=len(POINTER_MODELS),
                largest_arrays_mib={"joint": POINTER_N * 256 * mib, "density": POINTER_N**2 * mib},
                setup_scenario=("vonneumann", (f"grid.n_points={POINTER_N}",)),
            ),
            Workload(
                "worst_case_search",
                # the search's base scenario supplies the RMS deviation
                Op(
                    (
                        _pointer_step(0.5, 1.0, 0.0, 0.0, 1.0, 256),
                        Step("eq2", {"probe.s": 0.5, "channel.g": 1.0}, eq2_sets),
                    )
                ),
                partial(_eq2_cycle, extra=eq2_sets),
                trace_ops=len(EQ2_MODELS),
                largest_arrays_mib={"joint": 256 * 256 * mib},
                setup_scenario=("vonneumann", ()),
            ),
            Workload(
                "fine_grid_contrast",
                Op(
                    (
                        Step("flip", {"grid.n_points": FINE_N, "state.sigma": 1.0, "state.p0": 1.0}),
                        Step("slit", {"grid.n_points": FINE_N, "state.halfwidth": 1.0, "channel.width": 4.0}),
                    )
                ),
                _fine_cycle,
                trace_ops=1 if smoke else 8,
                largest_arrays_mib={"vector": FINE_N * mib},
                setup_scenario=("flip", (f"grid.n_points={FINE_N}",)),
            ),
        )
    }
