"""Supremum search for the worst-case (maximized) error and disturbance.

The maximization over all localized states is replaced by a deterministic
search over a three-parameter Gaussian family (center, boost, width): wide
members approach momentum-localized states, narrow members position-localized
ones.  Family members that violate grid invariants (confinement, aliasing,
resolvability) are excluded from the search but logged in the trace, so the
reported value is a lower bound on the true supremum by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channels import VonNeumannChannel
from .grids import GridSpec, InvariantViolation, WaveFunction
from .metrics import busch_state_disturbance, busch_state_error
from .states import GAUSSIAN_MARGIN_SIGMAS, MIN_CELLS_PER_SIGMA, GaussianState, make_state

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# A figure beats the incumbent only by more than this fraction of it.
_TIE_RTOL = 1e-12

Metric = Callable[[WaveFunction], float]


@dataclass(frozen=True)
class SearchSpec:
    """Bounds and budget for one supremum search over the Gaussian family."""

    x0_bounds: tuple[float, float]
    p0_bounds: tuple[float, float]
    sigma_bounds: tuple[float, float]  # searched log-spaced
    coarse_counts: tuple[int, int, int] = (3, 3, 7)
    refine_tol: float = 1e-4
    max_refine_iters: int = 3

    def validate(self, grid: GridSpec) -> None:
        for name, (lo, hi) in (
            ("x0", self.x0_bounds),
            ("p0", self.p0_bounds),
            ("sigma", self.sigma_bounds),
        ):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"{name} bounds must be finite, got ({lo}, {hi})")
            if not hi >= lo:
                raise ValueError(f"{name} bounds reversed: ({lo}, {hi})")
        x_lo, x_hi = self.x0_bounds
        if x_lo < grid.x_min or x_hi > grid.x_max:
            raise ValueError(
                f"x0 bounds ({x_lo}, {x_hi}) outside the grid domain [{grid.x_min}, {grid.x_max}]"
            )
        s_lo, s_hi = self.sigma_bounds
        min_sigma = MIN_CELLS_PER_SIGMA * grid.dx
        if s_lo < min_sigma:
            raise ValueError(
                f"sigma_lo {s_lo} not resolvable: below {MIN_CELLS_PER_SIGMA} grid cells ({min_sigma})"
            )
        # a centred member keeps its margin on both sides
        span = 2 * GAUSSIAN_MARGIN_SIGMAS
        max_sigma = (grid.x_max - grid.x_min) / span
        if s_hi > max_sigma:
            raise ValueError(f"sigma_hi {s_hi} exceeds domain/{span:g} = {max_sigma}")
        if any(c < 1 for c in self.coarse_counts):
            raise ValueError("coarse_counts must all be >= 1")
        if not self.refine_tol > 0 or self.max_refine_iters < 0:
            raise ValueError("refine_tol must be positive and max_refine_iters nonnegative")


@dataclass(frozen=True)
class TraceEntry:
    x0: float
    p0: float
    sigma: float
    value: float  # NaN when the member was excluded: it raised an InvariantViolation
    admissible: bool


@dataclass(frozen=True)
class SupResult:
    value: float
    argmax: GaussianState
    trace: tuple[TraceEntry, ...]
    n_excluded: int = 0


def _better(v: float, ref: float) -> bool:
    """v beats ref by more than rounding: v > ref + _TIE_RTOL * |ref|.

    A member's figure carries rounding of a few ulps, and along a direction
    where the figure is flat or symmetric (the error does not depend on p0,
    the disturbance is even in x0) that noise alone would pick a side.  A tie
    within the tolerance keeps the incumbent, so the search's fixed order
    decides.  An infinite incumbent (-inf before any admissible member) is
    compared as is, since -inf + 1e-12 * inf is NaN.
    """
    if math.isinf(ref):
        return v > ref
    return v > ref + _TIE_RTOL * abs(ref)


def _axis_values(spec: SearchSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    nx, np_, ns = spec.coarse_counts
    xs = np.linspace(spec.x0_bounds[0], spec.x0_bounds[1], nx)
    ps = np.linspace(spec.p0_bounds[0], spec.p0_bounds[1], np_)
    ss = np.geomspace(spec.sigma_bounds[0], spec.sigma_bounds[1], ns)
    return xs, ps, ss


def maximize(metric: Metric, grid: GridSpec, spec: SearchSpec) -> SupResult:
    """Coarse scan then coordinate-wise golden-section refinement.

    Deterministic: the scan order is fixed, ties prefer the lexicographically
    smallest (x0, p0, sigma), and each golden-section step only ever replaces
    the incumbent with a strictly better point.  Every comparison of figures
    goes through ``_better``, so values within rounding of each other tie.

    The metric is taken to be a deterministic function of the member: a
    member the search visits again is not scored again, but its first
    trace entry is appended once more, so the trace lists every visit.
    """
    spec.validate(grid)
    trace: list[TraceEntry] = []
    scored: dict[tuple[float, float, float], TraceEntry] = {}

    def evaluate(x0: float, p0: float, sigma: float) -> float:
        entry = scored.get((x0, p0, sigma))
        if entry is None:
            # a member that raises any InvariantViolation (state validation,
            # probe confinement, ...) is excluded from the search but logged
            try:
                psi = make_state(grid, GaussianState(x0, p0, sigma))
                entry = TraceEntry(x0, p0, sigma, float(metric(psi)), True)
            except InvariantViolation:
                entry = TraceEntry(x0, p0, sigma, float("nan"), False)
            scored[(x0, p0, sigma)] = entry
        trace.append(entry)
        return entry.value if entry.admissible else -math.inf

    xs, ps, ss = _axis_values(spec)
    best_v = -math.inf
    best = None
    for x0 in xs:
        for p0 in ps:
            for sigma in ss:
                v = evaluate(float(x0), float(p0), float(sigma))
                if _better(v, best_v):
                    best_v, best = v, (float(x0), float(p0), float(sigma))
    if best is None:
        raise InvariantViolation("search family empty: invariant violations excluded every member")

    def golden(lo: float, hi: float, fun: Callable[[float], float], tol: float) -> tuple[float, float]:
        # the best (t, value) probed so far; a later probe must beat it
        peak: tuple[float, float] | None = None

        def probe(t: float) -> float:
            nonlocal peak
            v = fun(t)
            if peak is None or _better(v, peak[1]):
                peak = (t, v)
            return v

        a, b = lo, hi
        c = b - _INVPHI * (b - a)
        d = a + _INVPHI * (b - a)
        fc, fd = probe(c), probe(d)
        while (b - a) > tol:
            if not _better(fd, fc):
                b, d, fd = d, c, fc
                c = b - _INVPHI * (b - a)
                fc = probe(c)
            else:
                a, c, fc = c, d, fd
                d = a + _INVPHI * (b - a)
                fd = probe(d)
        return peak

    bounds = (spec.x0_bounds, spec.p0_bounds, spec.sigma_bounds)
    steps = (
        (xs[1] - xs[0]) if len(xs) > 1 else 0.0,
        (ps[1] - ps[0]) if len(ps) > 1 else 0.0,
        (math.log(ss[1] / ss[0])) if len(ss) > 1 else 0.0,
    )
    point = list(best)
    for _ in range(spec.max_refine_iters):
        improved = 0.0
        for axis in range(3):
            if steps[axis] == 0.0:
                continue
            log_axis = axis == 2
            center = math.log(point[axis]) if log_axis else point[axis]
            lo_b, hi_b = bounds[axis]
            if log_axis:
                lo_b, hi_b = math.log(lo_b), math.log(hi_b)
            lo = max(center - steps[axis], lo_b)
            hi = min(center + steps[axis], hi_b)

            def fun(t: float, axis=axis, log_axis=log_axis) -> float:
                trial = list(point)
                trial[axis] = math.exp(t) if log_axis else t
                return evaluate(*trial)

            t_best, v_mid = golden(lo, hi, fun, spec.refine_tol)
            if _better(v_mid, best_v):
                improved = max(improved, v_mid - best_v)
                best_v = v_mid
                point[axis] = math.exp(t_best) if log_axis else t_best
        if not _better(improved, spec.refine_tol):
            break

    n_excluded = sum(1 for t in trace if not t.admissible)
    return SupResult(
        value=float(best_v),
        argmax=GaussianState(float(point[0]), float(point[1]), float(point[2])),
        trace=tuple(trace),
        n_excluded=n_excluded,
    )


@dataclass(frozen=True)
class Eq2Report:
    epsilon_b: float
    eta_b: float
    product: float
    rhs: float
    slack: float
    argmax_error: GaussianState
    argmax_disturbance: GaussianState
    argmax_distinct: bool
    crosscheck_product_at_argmax_dist: float
    error_search: SupResult
    disturbance_search: SupResult


def eq2_check(
    channel: VonNeumannChannel,
    grid: GridSpec,
    spec_err: SearchSpec,
    spec_dist: SearchSpec,
) -> Eq2Report:
    """Maximize error and disturbance separately; compare their product to hbar/2.

    The two maximizers are different states (narrow for the error, wide for
    the disturbance); the report also evaluates both per-state figures on the
    disturbance maximizer to exhibit that no single state attains the product
    of the two suprema.  The disturbance there is the search's own value at
    that member, not computed again.
    """
    err = maximize(lambda psi: busch_state_error(channel, psi), grid, spec_err)
    dist = maximize(lambda psi: busch_state_disturbance(channel, psi, "P"), grid, spec_dist)
    rhs = 0.5 * grid.hbar
    tol = max(spec_err.refine_tol, spec_dist.refine_tol)
    a, b = err.argmax, dist.argmax
    distinct = (
        abs(a.x0 - b.x0) > tol or abs(a.p0 - b.p0) > tol or abs(a.sigma - b.sigma) > tol
    )
    one_state = make_state(grid, b)
    cross = busch_state_error(channel, one_state) * dist.value
    return Eq2Report(
        epsilon_b=err.value,
        eta_b=dist.value,
        product=err.value * dist.value,
        rhs=rhs,
        slack=err.value * dist.value - rhs,
        argmax_error=a,
        argmax_disturbance=b,
        argmax_distinct=distinct,
        crosscheck_product_at_argmax_dist=cross,
        error_search=err,
        disturbance_search=dist,
    )
