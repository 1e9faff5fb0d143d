"""Factories for the state families the error/disturbance scenarios need.

Four families: Gaussian wave packets, compact-support cos^2 bumps (exactly
zero outside their support, C^1 at the edges), even two-packet
superpositions, and seeded random superpositions of low-order oscillator
eigenfunctions for property-test corpora.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .grids import GridSpec, InvariantViolation, WaveFunction

MIN_CELLS_PER_SIGMA = 8
GAUSSIAN_MARGIN_SIGMAS = 4.0


@dataclass(frozen=True)
class GaussianState:
    x0: float
    p0: float
    sigma: float


@dataclass(frozen=True)
class BumpState:
    center: float
    halfwidth: float


@dataclass(frozen=True)
class SymmetricPairState:
    separation: float
    sigma: float


@dataclass(frozen=True)
class RandomState:
    seed: int
    smoothness: int = 6


StateSpec = Union[GaussianState, BumpState, SymmetricPairState, RandomState]


def _check_sigma(grid: GridSpec, sigma: float) -> None:
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if sigma < MIN_CELLS_PER_SIGMA * grid.dx:
        raise InvariantViolation(
            f"sigma {sigma} too small to resolve: fewer than {MIN_CELLS_PER_SIGMA} "
            f"grid points per sigma (dx={grid.dx})"
        )


def _check_margin(grid: GridSpec, lo: float, hi: float, what: str) -> None:
    # a geometry that is not finite is a bad input, not a state off the grid
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"{what} spans [{lo}, {hi}]: its parameters must be finite")
    if lo < grid.x_min or hi > grid.x_max:
        raise InvariantViolation(
            f"{what} spans [{lo}, {hi}], outside grid domain [{grid.x_min}, {grid.x_max}]"
        )


def _normalized(grid: GridSpec, amplitudes: np.ndarray) -> WaveFunction:
    """The state of ``amplitudes`` divided by their norm, in place."""
    amplitudes /= np.sqrt((np.abs(amplitudes) ** 2).sum() * grid.dx)
    return WaveFunction(grid, amplitudes)


def gaussian_amplitudes(grid: GridSpec, x0: float, p0: float, sigma: float) -> np.ndarray:
    """Unnormalized minimum-uncertainty packet: DeltaX = sigma, <P> = p0, formed
    in place in the order of c * exp(-(x - x0)^2 / (4 sigma^2)) * exp(1j p0 x / hbar)."""
    x = grid.x
    envelope = np.subtract(x, x0)
    np.square(envelope, out=envelope)
    np.negative(envelope, out=envelope)
    envelope /= 4.0 * sigma**2
    np.exp(envelope, out=envelope)
    np.multiply((2.0 * np.pi * sigma**2) ** (-0.25), envelope, out=envelope)
    wave = np.multiply(1j * p0, x)
    wave /= grid.hbar
    np.exp(wave, out=wave)
    return np.multiply(envelope, wave, out=wave)


def _hermite_series(x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] h_k(x) over the L2-normalized oscillator eigenfunctions,
    summed as their stable three-term recurrence runs, with two of them alive."""
    amp = np.zeros(x.size, dtype=complex)
    prev, h = 0.0, np.pi**-0.25 * np.exp(-0.5 * x**2)
    for k, c in enumerate(coeffs):
        amp += c * h
        prev, h = h, np.sqrt(2.0 / (k + 1)) * x * h - np.sqrt(k / (k + 1)) * prev
    return amp


def make_state(grid: GridSpec, spec: StateSpec) -> WaveFunction:
    """Build a normalized, fully validated WaveFunction from a StateSpec.

    Raises InvariantViolation when the requested feature does not fit the
    grid (margin rules below) or when the resulting state fails any
    WaveFunction invariant.
    """
    if isinstance(spec, GaussianState):
        if not np.isfinite(spec.p0):
            raise ValueError(f"gaussian p0 must be finite, got {spec.p0}")
        _check_sigma(grid, spec.sigma)
        m = GAUSSIAN_MARGIN_SIGMAS * spec.sigma
        _check_margin(grid, spec.x0 - m, spec.x0 + m, "gaussian feature")
        amp = gaussian_amplitudes(grid, spec.x0, spec.p0, spec.sigma)
    elif isinstance(spec, BumpState):
        if not spec.halfwidth > 0:
            raise ValueError(f"halfwidth must be positive, got {spec.halfwidth}")
        _check_margin(
            grid,
            spec.center - spec.halfwidth - grid.dx,
            spec.center + spec.halfwidth + grid.dx,
            "bump support",
        )
        x = grid.x
        inside = np.abs(x - spec.center) <= spec.halfwidth
        # exact zeros outside the support, not merely small values
        amp = np.where(
            inside,
            np.cos(np.pi * (x - spec.center) / (2.0 * spec.halfwidth)) ** 2,
            0.0,
        ).astype(complex)
    elif isinstance(spec, SymmetricPairState):
        _check_sigma(grid, spec.sigma)
        if spec.separation < 0:
            raise ValueError("separation must be nonnegative")
        c = grid.center
        half = 0.5 * spec.separation
        m = GAUSSIAN_MARGIN_SIGMAS * spec.sigma
        _check_margin(grid, c - half - m, c + half + m, "symmetric pair")
        x = grid.x
        amp = (
            np.exp(-((x - c - half) ** 2) / (4.0 * spec.sigma**2))
            + np.exp(-((x - c + half) ** 2) / (4.0 * spec.sigma**2))
        ).astype(complex)
    elif isinstance(spec, RandomState):
        k_max = spec.smoothness
        # before k + 1 coefficients are drawn; int() would truncate 6.5 to 6
        if not (0 <= k_max < grid.n_points and k_max == int(k_max)):
            raise ValueError(
                f"smoothness must be in [0, n_points={grid.n_points}) and integral, got {k_max}"
            )
        k_max = int(k_max)
        rng = np.random.default_rng(spec.seed)
        coeffs = rng.standard_normal(k_max + 1) + 1j * rng.standard_normal(k_max + 1)
        amp = _hermite_series(grid.x - grid.center, coeffs)
    else:
        raise TypeError(f"unknown state spec {spec!r}")
    return _normalized(grid, amp).validate()

