"""Scenario runner, sweep engine and worst-case search driver.

Config files are flat ``key=value`` lines with dotted section paths
(``grid.n_points=256``), diff-friendly for sweeps.  A verb accepts only the
keys it reads with the selected state and channel variants; unknown and
unread keys are rejected.  Exit codes: 0 success, 1 config error, 2
physics-invariant violation.  All emitted files are byte-deterministic
(floats fixed at 12 significant digits).
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .channels import (
    Channel,
    FlipChannel,
    ProbeSpec,
    SlitChannel,
    VonNeumannChannel,
    kraus_of,
    probe_half_width,
    state_reach,
)
from .grids import GridSpec, InvariantViolation, WaveFunction, make_grid
from .metrics import CSV_COLUMNS, EDRReport, compute_report
from .states import (
    BumpState,
    GaussianState,
    RandomState,
    StateSpec,
    SymmetricPairState,
    make_state,
)
from .supsearch import Eq2Report, SearchSpec, eq2_check, trace_to_csv


class ConfigError(ValueError):
    """Malformed, unknown or unread configuration input."""


# The two searches of eq2 share every default but sigma_max and n_sigma.
_SEARCH_SHARED = {
    "x0_min": -1.0,
    "x0_max": 1.0,
    "p0_min": -1.0,
    "p0_max": 1.0,
    "sigma_min": 1.0,
    "n_x0": 3,
    "n_p0": 3,
    "refine_tol": 1e-4,
    "max_refine_iters": 3,
}
_SEARCH_DEFAULTS = {
    f"{search}.{key}": value
    for search, own in (
        ("search_err", {"sigma_max": 2.0, "n_sigma": 5}),
        ("search_dist", {"sigma_max": 4.0, "n_sigma": 7}),
    )
    for key, value in {**_SEARCH_SHARED, **own}.items()
}


class _Domain(NamedTuple):
    """The values a config key admits: ``holds`` decides, and a refused
    value's message reads ``<noun><key> must be <rule>, got <value>``."""

    rule: str
    holds: Callable[[float], bool]
    noun: str = ""


_ANY = _Domain("any value", lambda v: True)
_FINITE = _Domain("finite", math.isfinite)
_FINITE_SQUARE = _Domain("finite with a finite square", lambda v: v * v < math.inf)
_POSITIVE = _Domain("finite and positive", lambda v: 0 < v < math.inf)
_NONZERO = _Domain("finite and nonzero", lambda v: v != 0 and math.isfinite(v))
# the width of a Gaussian, whose square the Gaussian forms
_WIDTH = _Domain("positive with a finite nonzero square", lambda v: v > 0 and 0 < v * v < math.inf)

# key -> (type, domain).  Values in the domain may still fail a check that
# spans keys (the state against the grid, the probe's reach, the search
# specs) or a library constructor's own (grid sizes, variant ranges).
_SCHEMA: dict[str, tuple[type, _Domain]] = {
    "scenario": (str, _ANY),
    "grid.n_points": (int, _ANY),
    "grid.x_min": (float, _FINITE_SQUARE),
    "grid.x_max": (float, _FINITE_SQUARE),
    "grid.hbar": (float, _POSITIVE),
    "state.variant": (str, _ANY),
    "state.x0": (float, _FINITE),
    "state.p0": (float, _FINITE),
    "state.sigma": (float, _WIDTH),
    "state.center": (float, _FINITE),
    "state.halfwidth": (float, _POSITIVE),
    "state.separation": (float, _FINITE),
    "state.seed": (int, _ANY),
    "state.smoothness": (int, _ANY),
    "channel.variant": (str, _ANY),
    "channel.center": (float, _FINITE),
    "channel.width": (float, _POSITIVE),
    "channel.g": (float, _NONZERO),
    "probe.s": (float, _WIDTH._replace(noun="pointer width ")),
    "probe.n_points": (int, _ANY),
    "probe.x_min": (float, _FINITE),
    "probe.x_max": (float, _FINITE),
    "probe.max_joint_mib": (float, _POSITIVE),
    # SearchSpec.validate judges the searches, naming the search
    **{key: (type(value), _ANY) for key, value in _SEARCH_DEFAULTS.items()},
}

# state.variant -> spec class; the variant reads state.<field> for each field
_STATES = {
    "gaussian": GaussianState,
    "bump": BumpState,
    "symmetric_pair": SymmetricPairState,
    "random": RandomState,
}
_PROBE_BOUNDS = ("probe.x_min", "probe.x_max")  # optional: unset, the probe is auto-sized
# selector key -> {variant: the keys it reads}
_VARIANT_KEYS = {
    "state.variant": {
        name: tuple(f"state.{f.name}" for f in fields(spec)) for name, spec in _STATES.items()
    },
    "channel.variant": {
        "flip": (),
        "slit": ("channel.center", "channel.width"),
        "von_neumann": (
            "channel.g", "probe.s", "probe.n_points", "probe.max_joint_mib", *_PROBE_BOUNDS
        ),
    },
}

_BASE_DEFAULTS = {
    "grid.n_points": 256,
    "grid.x_min": -16.0,
    "grid.x_max": 16.0,
    "grid.hbar": 1.0,
    "state.smoothness": 6,
    # admits n_s = n_p = 16384, estimated at 768 MiB
    "probe.max_joint_mib": 1024.0,
}

# Bytes per system x probe point that a pointer run holds at its peak: one
# block of T's rows and its |T|^2, beside the phase factors T is built from
# and the two-level factors the table keeps, which grow as sqrt(n_s) n_p.
# A report's traced peak measures 1.5 at n_s = n_p = 2048, and the peak RSS
# above the interpreter's 2.2, 1.3 and 0.8 at 2048, 4096 and 8192 (numpy
# 2.4, 64-bit Linux).
_JOINT_BYTES_PER_POINT = 3

# the packet of the flip and the pointer
_GAUSSIAN = {"state.variant": "gaussian", "state.x0": 0.0, "state.p0": 0.0, "state.sigma": 1.0}
_SCENARIO_DEFAULTS = {
    "flip": {"channel.variant": "flip", **_GAUSSIAN},
    "slit": {
        "channel.variant": "slit",
        "channel.center": 0.0,
        "channel.width": 4.0,
        "state.variant": "bump",
        "state.center": 0.0,
        "state.halfwidth": 1.0,
    },
    "vonneumann": {
        "channel.variant": "von_neumann",
        "channel.g": 1.0,
        "probe.s": 0.5,
        "probe.n_points": 256,
        **_GAUSSIAN,
    },
}

SCENARIO_NAMES = tuple(_SCENARIO_DEFAULTS)


def _coerce(key: str, raw: str):
    if key not in _SCHEMA:
        raise ConfigError(f"unknown config key {key!r}")
    try:
        return _SCHEMA[key][0](raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def _check_domain(key: str, value) -> None:
    """ConfigError naming ``key`` unless ``value`` lies in its domain."""
    domain = _SCHEMA[key][1]
    if not domain.holds(value):
        raise ConfigError(f"{domain.noun}{key} must be {domain.rule}, got {_fmt(value)}")


def parse_config_text(text: str) -> dict:
    cfg: dict = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        cfg[key.strip()] = _coerce(key.strip(), raw.strip())
    return cfg


def _read_keys(cfg: dict, verb: str) -> set[str]:
    """The keys ``verb`` reads with the variants selected in cfg.

    eq2 reads no state and no selector: its states come from the two
    searches and its channel is the vonneumann preset's pointer.  The
    scenario verb takes its scenario from its positional name, not from the
    ``scenario`` key.  Raises ConfigError for an unknown variant or a read
    key without a value.
    """
    keys = {"grid.n_points", "grid.x_min", "grid.x_max", "grid.hbar"}
    if verb == "eq2":
        return keys.union(_SEARCH_DEFAULTS, _VARIANT_KEYS["channel.variant"]["von_neumann"])
    if verb == "sweep":
        keys.add("scenario")
    for selector in ("channel.variant", "state.variant"):
        variant = cfg[selector]
        if variant not in _VARIANT_KEYS[selector]:
            raise ConfigError(f"unknown {selector} {variant!r}")
        reads = _VARIANT_KEYS[selector][variant]
        missing = [k for k in reads if k not in cfg and k not in _PROBE_BOUNDS]
        if missing:
            raise ConfigError(f"{selector}={variant} missing field {missing[0]!r}")
        keys.update(reads, [selector])
    return keys


def _not_read(what: str, cfg: dict, verb: str) -> ConfigError:
    if verb == "eq2":
        return ConfigError(f"{what} is not read by the eq2 verb, which runs the vonneumann pointer")
    return ConfigError(
        f"{what} is not read by the {verb} verb with scenario={cfg['scenario']}, "
        f"state.variant={cfg['state.variant']}, channel.variant={cfg['channel.variant']}"
    )


def load_config(path: str | None, sets: list[str], scenario: str | None, verb: str = "scenario") -> dict:
    """Defaults, then the scenario's preset, then ``--config``, then ``--set``.

    A key from the file or from ``--set`` that ``verb`` does not read is a
    ConfigError, and so is, after that, a read key outside its domain.  eq2
    always takes the vonneumann preset.
    """
    given: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                given = parse_config_text(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        given[key.strip()] = _coerce(key.strip(), raw.strip())
    name = "vonneumann" if verb == "eq2" else scenario or given.get("scenario") or "vonneumann"
    if name not in _SCENARIO_DEFAULTS:
        raise ConfigError(f"unknown scenario {name!r}; expected one of {SCENARIO_NAMES}")
    cfg = {**_BASE_DEFAULTS, **_SEARCH_DEFAULTS, **_SCENARIO_DEFAULTS[name], **given}
    cfg["scenario"] = name
    reads = _read_keys(cfg, verb)
    unread = [k for k in given if k not in reads]
    if unread:
        raise _not_read(f"key {unread[0]}", cfg, verb)
    for key, value in cfg.items():
        if key in reads:
            _check_domain(key, value)
    return cfg


def _state_spec_from(cfg: dict) -> StateSpec:
    spec = _STATES[cfg["state.variant"]]
    return spec(*(cfg[key] for key in _VARIANT_KEYS["state.variant"][cfg["state.variant"]]))


@dataclass(frozen=True)
class BuiltScenario:
    name: str
    grid: GridSpec
    psi: WaveFunction
    channel: Channel


def _guard(fn, *args):
    # bad parameter values are config errors; InvariantViolation stays a
    # physics failure (different exit code)
    try:
        return fn(*args)
    except InvariantViolation:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _grid_from(cfg: dict) -> GridSpec:
    """The system grid.  A ConfigError names grid.hbar when the momentum
    edge pi*hbar/dx squares outside the normal float range, where p**2 and
    the momentum densities lose their digits or overflow."""
    grid = _guard(make_grid, cfg["grid.n_points"], cfg["grid.x_min"], cfg["grid.x_max"], cfg["grid.hbar"])
    edge = math.pi * grid.hbar / grid.dx
    if not np.finfo(float).tiny <= edge * edge < math.inf:
        raise ConfigError(
            f"grid.hbar={_fmt(grid.hbar)} puts the momentum edge pi*hbar/dx of a grid of "
            f"spacing {_fmt(grid.dx)} at {_fmt(edge)}, whose square is outside the normal float range"
        )
    return grid


def _channel_from(cfg: dict, grid: GridSpec, reach: Callable[[], float]) -> Channel:
    """The selected channel.  When no probe bounds are set, the probe is
    sized for states within ``reach()`` of 0.  The pointer's inputs are
    judged before its amplitudes are formed, and its gain before any table
    is built: a ConfigError names channel.g when the gain gives the probe
    domain no finite half-width or widens it past what probe.n_points
    resolves."""
    variant = cfg["channel.variant"]
    if variant == "flip":
        return FlipChannel()
    if variant == "slit":
        return SlitChannel(cfg["channel.center"], cfg["channel.width"])
    s, n_probe, g = cfg["probe.s"], cfg["probe.n_points"], cfg["channel.g"]
    _check_joint_memory(grid.n_points, n_probe, cfg["probe.max_joint_mib"])
    bounds = [k for k in _PROBE_BOUNDS if k in cfg]
    if len(bounds) == 2:
        x_min, x_max = cfg["probe.x_min"], cfg["probe.x_max"]
        probe_grid = _guard(make_grid, n_probe, x_min, x_max, grid.hbar)
        cause = f"probe.x_min={_fmt(x_min)} and probe.x_max={_fmt(x_max)} set the probe domain"
    elif bounds:
        missing = "probe.x_max" if bounds == ["probe.x_min"] else "probe.x_min"
        raise ConfigError(f"{bounds[0]} is set without {missing}; set both probe bounds or neither")
    else:
        states = reach()
        half = probe_half_width(g, states, s)
        if not np.isfinite(half):
            raise ConfigError(
                f"channel.g={_fmt(g)} gives the probe domain no finite half-width "
                f"(|g| * {_fmt(states)} + 12 * probe.s = {_fmt(half)})"
            )
        probe_grid = _guard(make_grid, n_probe, -half, half, grid.hbar)
        cause = (
            f"channel.g={_fmt(g)} and probe.s={_fmt(s)} size the probe domain "
            f"to ±{_fmt(probe_grid.x_max)}"
        )
    _check_pointer_reach(s, probe_grid, cause)
    channel = _guard(lambda: VonNeumannChannel(g, ProbeSpec(probe_grid, s)))
    _check_readout_offsets(g, grid, probe_grid)
    return channel


def _check_pointer_reach(s: float, probe_grid: GridSpec, cause: str) -> None:
    """ConfigError, after ``cause``, when the probe spacing exceeds 80 pointer
    widths: the points nearest 0, at +-dx/2 on a symmetric domain, lie 40
    widths out, where the pointer is 0, so it is judged before any of its
    amplitudes is formed.  So are probe coordinates whose squares, which
    the pointer's Gaussian forms, overflow."""
    if probe_grid.dx > 80.0 * s:
        raise ConfigError(
            f"{cause}, where probe.n_points={probe_grid.n_points} cannot resolve "
            f"the pointer width {_fmt(s)}"
        )
    edge = max(-probe_grid.x_min, probe_grid.x_max)
    if not edge * edge < np.inf:
        raise ConfigError(
            f"{cause}, whose coordinates up to {_fmt(edge)} overflow when squared "
            f"in the Gaussian of the pointer width probe.s={_fmt(s)}"
        )


def _check_readout_offsets(g: float, grid: GridSpec, probe_grid: GridSpec) -> None:
    """ConfigError naming channel.g when the pointer reading y/g lies so far
    from the system's x that the RMS error's squared offsets (y/g - x)^2 could
    overflow.  Weighted by |T|^2 dy and |psi|^2 dx, which each sum to 1, no
    sum of them exceeds the largest over dx dy, so that bound is checked."""
    offset = max(-probe_grid.x_min, probe_grid.x_max) / abs(g) + max(-grid.x_min, grid.x_max)
    if not offset * offset / (grid.dx * probe_grid.dx) < np.inf:
        raise ConfigError(
            f"channel.g={_fmt(g)} puts the pointer reading y/g up to {_fmt(offset)} "
            "from the system's x, too far for the squared offsets of the RMS error to stay finite"
        )


def _check_joint_memory(n_system: int, n_probe: int, cap_mib: float) -> None:
    """ConfigError when the n_s x n_p arrays of a pointer run would exceed
    ``probe.max_joint_mib``; called before any of them is built."""
    need_mib = _JOINT_BYTES_PER_POINT * n_system * n_probe / 2**20
    if need_mib > cap_mib:
        raise ConfigError(
            f"a pointer run on {n_system} system x {n_probe} probe points holds about "
            f"{need_mib:.0f} MiB of joint arrays, above probe.max_joint_mib={_fmt(cap_mib)}"
        )


def build_scenario(cfg: dict) -> BuiltScenario:
    grid = _grid_from(cfg)
    psi = _guard(make_state, grid, _state_spec_from(cfg))
    return BuiltScenario(
        cfg["scenario"], grid, psi, _channel_from(cfg, grid, lambda: state_reach(grid, psi))
    )


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _flag(satisfied: bool, applicable: bool = True) -> str:
    if not applicable:
        return "N/A"
    return "SATISFIED" if satisfied else "VIOLATED"


def _describe_channel(channel: Channel) -> str:
    if isinstance(channel, SlitChannel):
        return f"slit(center={_fmt(channel.center)}, width={_fmt(channel.width)})"
    if isinstance(channel, VonNeumannChannel):
        pg = channel.probe.grid
        return (
            f"von_neumann(g={_fmt(channel.g)}, pointer s={_fmt(channel.probe.s)}, "
            f"probe n={pg.n_points} x=[{_fmt(pg.x_min)},{_fmt(pg.x_max)}])"
        )
    return "flip"


def render_table(built: BuiltScenario, report: EDRReport, extra: list[tuple[str, str]]) -> str:
    g = built.grid
    rows: list[tuple[str, str]] = [
        ("scenario", built.name),
        ("grid", f"n={g.n_points} x=[{_fmt(g.x_min)},{_fmt(g.x_max)}] hbar={_fmt(g.hbar)}"),
        ("channel", _describe_channel(built.channel)),
    ]
    rows.extend(extra)
    # the figures: every report column before the relation columns
    for col in CSV_COLUMNS[: CSV_COLUMNS.index("lhs_eq5")]:
        rows.append((col, _fmt(getattr(report, col))))
    rows.append(("epsilon convention", report.epsilon_convention))
    rows.append(("hbar/2", _fmt(report.hbar_over_2)))
    for name, value, satisfied, applicable in (
        ("robertson DX*DP", report.robertson_product, report.robertson_satisfied, True),
        ("eq2-form eps*eta", report.product_eq2_form, report.eq2_form_satisfied, report.eq5_applicable),
        ("eq5 lhs", report.lhs_eq5, report.eq5_satisfied, report.eq5_applicable),
    ):
        rows.append((name, f"{_fmt(value)}  {_flag(satisfied, applicable)}"))
    width = max(len(r[0]) for r in rows)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def _report_csv_lines(rows: list[dict], lead: list[str]) -> str:
    header = lead + CSV_COLUMNS
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in header))
    return "\n".join(lines) + "\n"


def _json_value(v):
    if isinstance(v, float):
        return float(f"{v:.12g}") if (v == v and abs(v) != float("inf")) else None
    return v


def report_to_json(report: EDRReport) -> str:
    payload = {k: _json_value(v) for k, v in report.as_dict().items()}
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def run_scenario(name: str, cfg: dict) -> tuple[BuiltScenario, EDRReport, str]:
    cfg = dict(cfg)
    cfg["scenario"] = name
    built = build_scenario(cfg)
    report = compute_report(built.channel, built.psi)
    extra: list[tuple[str, str]] = []
    if isinstance(built.channel, SlitChannel):
        for outcome, k in zip(("pass", "fail"), kraus_of(built.channel, built.grid)):
            prob = float(np.sum(np.abs(k(built.psi.amplitudes)) ** 2) * built.grid.dx) * k.measure
            extra.append((f"slit {outcome} probability", _fmt(prob)))
    table = render_table(built, report, extra)
    return built, report, table


def run_sweep(axis: str, values: list[float], base_cfg: dict) -> str:
    """One report row per swept value, sorted by the value; every value is
    checked against the axis's domain, and all rows are computed, before
    anything is written, so a failing row leaves no file."""
    typ = _SCHEMA[axis][0] if axis in _SCHEMA else str
    if typ not in (int, float):
        raise ConfigError(f"sweep axis {axis!r} is not a numeric config key")
    if axis not in _read_keys(base_cfg, "sweep"):
        raise _not_read(f"sweep axis {axis}", base_cfg, "sweep")
    if not values:
        raise ConfigError("sweep needs at least one value")
    if typ is int and not all(float(v).is_integer() for v in values):
        raise ConfigError(f"sweep axis {axis!r} takes integer values, got {values!r}")
    for v in values:
        _check_domain(axis, typ(v))
    rows = []
    for v in sorted(values):
        cfg = dict(base_cfg)
        cfg[axis] = typ(v)
        built = build_scenario(cfg)
        report = compute_report(built.channel, built.psi)
        row = {axis: cfg[axis]}
        row.update(report.as_dict())
        rows.append(row)
    return _report_csv_lines(rows, [axis])


def run_eq2(cfg: dict) -> Eq2Report:
    """The worst-case search on the grid and pointer coupling of a config
    from ``load_config(..., "eq2")``.  Both search specs are validated
    before their bounds size the probe for the whole search family."""
    grid = _grid_from(cfg)
    specs = []
    for prefix in ("search_err", "search_dist"):
        spec = SearchSpec(
            x0_bounds=(cfg[f"{prefix}.x0_min"], cfg[f"{prefix}.x0_max"]),
            p0_bounds=(cfg[f"{prefix}.p0_min"], cfg[f"{prefix}.p0_max"]),
            sigma_bounds=(cfg[f"{prefix}.sigma_min"], cfg[f"{prefix}.sigma_max"]),
            coarse_counts=(cfg[f"{prefix}.n_x0"], cfg[f"{prefix}.n_p0"], cfg[f"{prefix}.n_sigma"]),
            refine_tol=cfg[f"{prefix}.refine_tol"],
            max_refine_iters=cfg[f"{prefix}.max_refine_iters"],
        )
        try:
            spec.validate(grid)
        except ValueError as exc:
            raise ConfigError(f"{prefix}: {exc}") from exc
        specs.append(spec)
    reach = max(abs(x) for spec in specs for x in spec.x0_bounds) + 8.0 * max(
        spec.sigma_bounds[1] for spec in specs
    )
    channel = _channel_from(cfg, grid, lambda: reach)
    return eq2_check(channel, grid, *specs)


def _gauss_params(s: GaussianState) -> dict:
    return {"x0": _json_value(s.x0), "p0": _json_value(s.p0), "sigma": _json_value(s.sigma)}


def eq2_summary_json(result: Eq2Report) -> str:
    payload = {
        "epsilon_b": _json_value(result.epsilon_b),
        "eta_b": _json_value(result.eta_b),
        "product": _json_value(result.product),
        "hbar_over_2": _json_value(result.rhs),
        "slack": _json_value(result.slack),
        "argmax_error": _gauss_params(result.argmax_error),
        "argmax_disturbance": _gauss_params(result.argmax_disturbance),
        "argmax_distinct": result.argmax_distinct,
        "product_at_argmax_disturbance_state": _json_value(
            result.crosscheck_product_at_argmax_dist
        ),
        "evaluations_error": len(result.error_search.trace),
        "evaluations_disturbance": len(result.disturbance_search.trace),
        "excluded_error": result.error_search.n_excluded,
        "excluded_disturbance": result.disturbance_search.n_excluded,
        "lower_bound_disclaimer": True,
    }
    return json.dumps(payload, indent=2) + "\n"


def _fmt_gauss(s: GaussianState) -> str:
    return f"gaussian(x0={_fmt(s.x0)}, p0={_fmt(s.p0)}, sigma={_fmt(s.sigma)})"


def eq2_summary_text(result: Eq2Report) -> str:
    lines = [
        f"eps_B (maximized readout error)      {_fmt(result.epsilon_b)}  "
        f"at {_fmt_gauss(result.argmax_error)}",
        f"eta_B (maximized momentum disturb.)  {_fmt(result.eta_b)}  "
        f"at {_fmt_gauss(result.argmax_disturbance)}",
        f"product eps_B*eta_B                  {_fmt(result.product)}  vs hbar/2 = {_fmt(result.rhs)}",
        f"per-state product at disturbance argmax  "
        f"{_fmt(result.crosscheck_product_at_argmax_dist)}",
        "family suprema are lower bounds on the true worst case",
    ]
    if result.argmax_distinct:
        lines.append("argmax states differ: error and disturbance are maximized by different states")
    return "\n".join(lines)


# glibc's mallopt parameters, and the ceiling of its dynamic mmap threshold
# on 64-bit systems; the trim threshold keeps glibc's own ratio of 2.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20


@functools.cache
def _keep_freed_memory() -> None:
    """Pin glibc's malloc thresholds for this process, so that freed
    temporaries below 32 MiB (the 4 MiB vectors of a 2^18 grid and numpy's
    FFT scratch) are reused from the heap instead of being unmapped or
    trimmed and faulted back in as fresh zeroed pages.  Larger arrays are
    still mapped and returned on free.  Allocation sizes and arithmetic do
    not change.  Where the C library has no ``mallopt`` this does nothing.
    The pin holds for the process, so ``mallopt`` is looked up and called
    on the first call only.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_BYTES)


def _check_writable(path: str, directory: bool = False) -> None:
    """ConfigError unless ``path`` looks writable: an output file in an
    existing directory, or an output directory that exists or can be made
    under its nearest existing ancestor.  ``main`` calls it before any
    figure is computed, and it creates nothing, so a run that fails leaves
    no file.  ``_writing`` still reports what fails when the output is made.
    """
    target = os.path.abspath(path)
    if os.path.exists(target):
        if os.path.isdir(target) != directory:
            reason = "is not a directory" if directory else "is a directory"
        elif not os.access(target, os.W_OK):
            reason = "permission denied"
        else:
            return
    else:
        parent = os.path.dirname(target)
        while directory and not os.path.exists(parent):
            parent = os.path.dirname(parent)
        if not os.path.exists(parent):
            reason = f"no directory {parent}"
        elif not os.path.isdir(parent):
            reason = f"{parent} is not a directory"
        elif not os.access(parent, os.W_OK | os.X_OK):
            reason = f"permission denied in {parent}"
        else:
            return
    raise ConfigError(f"cannot write {path}: {reason}")


@contextmanager
def _writing(path: str):
    """A failure to create or write an output under ``path`` is a
    ConfigError, as an unreadable ``--config`` is in ``load_config``."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {exc.filename or path}: {exc.strerror or exc}") from exc


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The ``edlab`` argument parser, built on the first call of ``main`` in
    a process and reused by the next; parsing leaves it as it is."""
    parser = argparse.ArgumentParser(
        prog="edlab", description="error/disturbance scenario runner"
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_scn = sub.add_parser("scenario", help="run one named scenario")
    p_scn.add_argument("name", choices=SCENARIO_NAMES)
    p_scn.add_argument("--config")
    p_scn.add_argument("--set", action="append", default=[], dest="sets", metavar="KEY=VALUE")
    p_scn.add_argument("--out")
    p_scn.add_argument("--format", choices=("csv", "json"), default="csv")

    p_swp = sub.add_parser("sweep", help="sweep one config key over values")
    p_swp.add_argument("--axis", required=True)
    p_swp.add_argument("--values", required=True, help="comma-separated numbers")
    p_swp.add_argument("--config")
    p_swp.add_argument("--set", action="append", default=[], dest="sets", metavar="KEY=VALUE")
    p_swp.add_argument("--out", required=True)

    p_eq2 = sub.add_parser("eq2", help="maximized error/disturbance product check")
    p_eq2.add_argument("--config")
    p_eq2.add_argument("--set", action="append", default=[], dest="sets", metavar="KEY=VALUE")
    p_eq2.add_argument("--out-dir", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    """The ``edlab`` program.  It alone pins the malloc thresholds
    (``_keep_freed_memory``); importing edlab leaves the allocator as it is."""
    _keep_freed_memory()
    args = _parser().parse_args(argv)
    try:
        if args.verb == "scenario":
            cfg = load_config(args.config, args.sets, args.name)
            if args.out:
                _check_writable(args.out)
            _, report, table = run_scenario(args.name, cfg)
            print(table)
            if args.out:
                if args.format == "csv":
                    text = _report_csv_lines([report.as_dict()], [])
                else:
                    text = report_to_json(report)
                with _writing(args.out), open(args.out, "w", newline="") as fh:
                    fh.write(text)
        elif args.verb == "sweep":
            cfg = load_config(args.config, args.sets, None, "sweep")
            try:
                values = [float(v) for v in args.values.split(",") if v.strip()]
            except ValueError as exc:
                raise ConfigError(f"bad sweep values {args.values!r}") from exc
            _check_writable(args.out)
            text = run_sweep(args.axis, values, cfg)
            with _writing(args.out), open(args.out, "w", newline="") as fh:
                fh.write(text)
            print(f"wrote {len(text.splitlines()) - 1} rows to {args.out}")
        else:
            cfg = load_config(args.config, args.sets, None, "eq2")
            _check_writable(args.out_dir, directory=True)
            result = run_eq2(cfg)
            with _writing(args.out_dir):
                os.makedirs(args.out_dir, exist_ok=True)
                trace_to_csv(result.error_search, os.path.join(args.out_dir, "error_landscape.csv"))
                trace_to_csv(
                    result.disturbance_search,
                    os.path.join(args.out_dir, "disturbance_landscape.csv"),
                )
                with open(os.path.join(args.out_dir, "summary.json"), "w") as fh:
                    fh.write(eq2_summary_json(result))
            print(eq2_summary_text(result))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"physics invariant violation: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(
            f"config error: the arrays of this run do not fit in memory ({exc}); "
            "lower grid.n_points or probe.n_points",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
