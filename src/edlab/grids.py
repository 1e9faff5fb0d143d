"""Discretized 1D Hilbert space on a uniform position grid.

The position grid uses a half-cell offset, x_i = x_min + (i + 1/2) dx, so
that on a symmetric domain the reflection x -> -x is an exact index
reversal.  The conjugate momentum grid p_k = 2*pi*hbar*k/(n*dx) (signed
index k in [-n/2, n/2)) is stored in ascending order.  States are always
position amplitudes; ``WaveFunction.momentum`` holds their momentum
amplitudes on p, unitary with respect to the dx / dp measures, so Parseval
holds to machine precision.

A state's amplitudes move between the two grids through ``kernel_transform``,
a scaled FFT pair.  Its momentum basis keeps the FFT's own phases: each
amplitude differs from the plane-wave one by a fixed unimodular phase per
momentum, which no figure reads.  |.|^2 on p does not see it, nor does an
operator diagonal in p that is applied and transformed straight back (the
Kraus branches in ``metrics`` run ``signed_fft`` alone and drop the scale).

A state transforms once: ``WaveFunction.momentum`` caches its momentum
amplitudes, read-only, and ``validate``, ``moments`` and ``distribution``
all read that one view.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Literal

import numpy as np

BasisName = Literal["position", "momentum"]

NORM_TOL = 1e-10
BOUNDARY_TOL = 1e-10
# Probability mass allowed in the top 10% of |p| (the near-Nyquist band).
# Compact-support states have algebraic momentum tails, so this gate is
# looser than the smooth-state floor would suggest; see package notes.
ALIASING_TOL = 1e-5
N_BOUNDARY_POINTS = 2


class InvariantViolation(ValueError):
    """A physics-level invariant (norm, confinement, aliasing, ...) failed."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform position grid plus its spectral momentum grid.

    Attributes
    ----------
    n_points : number of grid points, a power of two >= 16
    x_min, x_max : domain edges (grid points sit strictly inside)
    hbar : value of the reduced Planck constant (default 1)

    Every figure is a root of a sum of squared coordinates, spacings and
    momenta, so three squares must lie in the normal float range: the
    largest |x| squares below inf, dx at or above the smallest normal float,
    and the momentum edge pi*hbar/dx within both, which keeps dp**2 finite
    too, as dp < pi*hbar/dx.  A refusal's message starts with the field at
    fault.

    ``x``, ``p`` and ``aliasing_band`` are built once per grid object and are
    read-only.
    """

    n_points: int
    x_min: float
    x_max: float
    hbar: float = 1.0

    def __post_init__(self):
        n, lo, hi, hbar = self.n_points, self.x_min, self.x_max, self.hbar
        if n < 16 or (n & (n - 1)) != 0:
            raise ValueError(f"n_points must be a power of two >= 16, got {n}")
        if not np.all(np.isfinite((lo, hi, hbar))):
            raise ValueError(
                f"x_min, x_max and hbar must be finite, got {lo:.12g}, {hi:.12g} and {hbar:.12g}"
            )
        if not hi > lo:
            raise ValueError(f"x_max must exceed x_min, got [{lo:.12g}, {hi:.12g}]")
        if not hbar > 0:
            raise ValueError(f"hbar must be positive, got {hbar:.12g}")
        tiny, reach, dx = np.finfo(float).tiny, float(max(-lo, hi)), float(self.dx)
        if not reach * reach < np.inf:
            raise ValueError(
                f"x_min={lo:.12g} and x_max={hi:.12g} reach {reach:.12g}, whose square overflows"
            )
        if dx * dx < tiny:
            raise ValueError(
                f"x_min={lo:.12g} and x_max={hi:.12g} give {n} points the spacing {dx:.12g}, "
                "whose square is below the normal float range"
            )
        edge = np.pi * hbar / dx
        if not tiny <= edge * edge < np.inf:
            raise ValueError(
                f"hbar={hbar:.12g} puts the momentum edge pi*hbar/dx of the spacing {dx:.12g} "
                f"at {edge:.12g}, whose square is outside the normal float range"
            )

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_points

    @cached_property
    def x(self) -> np.ndarray:
        return _read_only(self.x_min + (np.arange(self.n_points) + 0.5) * self.dx)

    @property
    def dp(self) -> float:
        return 2.0 * np.pi * self.hbar / (self.n_points * self.dx)

    @cached_property
    def p(self) -> np.ndarray:
        """Momentum grid in ascending order, signed index in [-n/2, n/2)."""
        return _read_only((np.arange(self.n_points) - self.n_points // 2) * self.dp)

    @cached_property
    def aliasing_band(self) -> np.ndarray:
        """Mask of the near-Nyquist momenta, the top 10% of |p|, whose mass
        ``check_aliasing`` bounds in a state and in the P law after a pointer."""
        magnitude = np.abs(self.p)
        return _read_only(magnitude >= 0.9 * magnitude.max())

    @property
    def center(self) -> float:
        return 0.5 * (self.x_min + self.x_max)

    def is_symmetric(self) -> bool:
        scale = max(abs(self.x_min), abs(self.x_max), 1.0)
        return abs(self.x_min + self.x_max) <= 1e-12 * scale


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def make_grid(n_points: int, x_min: float, x_max: float, hbar: float = 1.0) -> GridSpec:
    """Build a GridSpec, validating all invariants."""
    if not float(n_points).is_integer():
        raise ValueError(f"n_points must be an integer, got {n_points!r}")
    return GridSpec(int(n_points), float(x_min), float(x_max), float(hbar))


@dataclass(frozen=True)
class WaveFunction:
    """Complex position amplitudes a_i = psi(x_i) on a grid.

    Amplitudes carry units length^(-1/2): sum |a_i|^2 * dx = 1 for a
    normalized state.  Construction checks only shape and finiteness;
    ``validate`` enforces the full set of state invariants and is called by
    every state factory.  Channel intermediates (Kraus branches and operator
    images) deliberately skip revalidation.

    A state cannot change after it is built: ``amplitudes`` is a read-only
    copy of the array passed in.  So ``momentum``, the momentum amplitudes
    on ``grid.p`` (measure dp), is transformed once, on first use, and kept
    as a read-only cached view.
    """

    grid: GridSpec
    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.array(self.amplitudes, dtype=complex)
        if a.shape != (self.grid.n_points,):
            raise ValueError(
                f"amplitudes shape {a.shape} does not match grid ({self.grid.n_points},)"
            )
        if not np.isfinite(a).all():
            raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "amplitudes", _read_only(a))

    @cached_property
    def momentum(self) -> np.ndarray:
        """Momentum amplitudes on ``grid.p``, normalized with measure dp, up to
        the fixed unimodular phase (-1)^j e_j per momentum (see
        ``kernel_transform``); read-only."""
        return _read_only(kernel_transform(self.amplitudes, 0, self.grid, -1))

    def norm(self) -> float:
        return float(np.sqrt((np.abs(self.amplitudes) ** 2).sum() * self.grid.dx))

    def validate(self) -> "WaveFunction":
        """Check normalization, boundary confinement and aliasing control.

        Raises InvariantViolation on the first failed check and returns self
        otherwise, so factories can end with ``return psi.validate()``.
        """
        nrm = self.norm()
        if abs(nrm - 1.0) > NORM_TOL:
            raise InvariantViolation(f"state norm {nrm!r} deviates from 1 beyond {NORM_TOL}")
        edge = np.concatenate(
            (self.amplitudes[:N_BOUNDARY_POINTS], self.amplitudes[-N_BOUNDARY_POINTS:])
        )
        edge_mass = np.abs(edge) ** 2 * self.grid.dx
        if (edge_mass > BOUNDARY_TOL).any():
            raise InvariantViolation(
                f"boundary confinement violated: edge probability {edge_mass.max():.3e} "
                f"exceeds {BOUNDARY_TOL}"
            )
        check_aliasing(self.grid, np.abs(self.momentum[self.grid.aliasing_band]) ** 2)
        return self


def check_aliasing(grid: GridSpec, band: np.ndarray, cause: str = "") -> None:
    """InvariantViolation when ``band``, a momentum density on the ``aliasing_band``
    of ``grid.p``, holds more than ALIASING_TOL; ``cause`` ends the message."""
    band_mass = float(band.sum() * grid.dp)
    if band_mass > ALIASING_TOL:
        raise InvariantViolation(
            f"aliasing control violated: near-Nyquist momentum mass {band_mass:.3e} "
            f"exceeds {ALIASING_TOL}{cause}"
        )


def kernel_transform(
    arr: np.ndarray, axis: int, grid: GridSpec, sign: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Unitary transform along one axis between amplitudes on a grid's x and p.

    Sign -1 is ``signed_fft`` times the real scale dx/sqrt(2*pi*hbar); +1 is
    its inverse: the real scale n*dp/sqrt(2*pi*hbar), the inverse FFT, and
    the sign (-1)^i.  With dx * dp = 2*pi*hbar/n and n a multiple of 4, the
    plane-wave amplitude on p_j is (-1)^j e_j times the result of -1, with
    e_j = exp(-1j*p_j*c/hbar) and c = center + dx/2.

    ``out`` follows numpy's idiom: the result is written into it and
    returned, so ``out=arr`` transforms in place.  Without it, one new array
    of the input's size holds the result and ``arr`` is left untouched.
    """
    if sign > 0:
        scale = grid.n_points * grid.dp / np.sqrt(2.0 * np.pi * grid.hbar)
        work = np.multiply(arr, scale, out=out, dtype=complex)
        np.fft.ifft(work, axis=axis, out=work)
        work[_odd(work.ndim, axis)] *= -1.0
        return work
    if out is None:
        work = np.array(arr, dtype=complex)
    else:
        work = out
        if work is not arr:
            np.copyto(work, arr)
    signed_fft(work, grid, axis)
    work *= grid.dx / np.sqrt(2.0 * np.pi * grid.hbar)
    return work


def signed_fft(arr: np.ndarray, grid: GridSpec, axis: int = 0) -> float:
    """Overwrite ``arr`` with FFT(sigma * arr) along ``axis``, sigma_i = (-1)^i,
    and return dx^2/(2 pi hbar), the factor that turns its |.|^2 into the
    momentum density on ``grid.p``.

    sigma puts the spectrum in the ascending order of grid.p.  This is
    ``kernel_transform(arr, axis, grid, -1)`` without its real scale, whose
    product with the inverse's is 1, so an operator diagonal in momentum is
    a plain spectral multiplier: P b = sigma * IFFT(p * FFT(sigma * b)).
    """
    arr[_odd(arr.ndim, axis)] *= -1.0
    np.fft.fft(arr, axis=axis, out=arr)
    return grid.dx**2 / (2.0 * np.pi * grid.hbar)


def _odd(ndim: int, axis: int) -> tuple[slice, ...]:
    """The index of every odd element along ``axis``."""
    index = [slice(None)] * ndim
    index[axis] = slice(1, None, 2)
    return tuple(index)


@dataclass(frozen=True)
class Moments:
    mean_x: float
    delta_x: float
    mean_p: float
    delta_p: float


def _mean_std(coords: np.ndarray, weights: np.ndarray, spacing: float) -> tuple[float, float]:
    w = weights * spacing
    m = float(np.sum(coords * w))
    var = float(np.sum(coords**2 * w)) - m * m
    return m, float(np.sqrt(max(var, 0.0)))


def moments(psi: WaveFunction) -> Moments:
    """First and second moments of X and P.

    <P> and Delta P are evaluated by spectral multiplication on the momentum
    grid; compact-support states have slowly decaying momentum tails that a
    finite-difference stencil would misrepresent.
    """
    g = psi.grid
    mean_x, delta_x = _mean_std(g.x, np.abs(psi.amplitudes) ** 2, g.dx)
    mean_p, delta_p = _mean_std(g.p, np.abs(psi.momentum) ** 2, g.dp)
    return Moments(mean_x, delta_x, mean_p, delta_p)


@dataclass(frozen=True)
class ProbabilityDistribution:
    """Nonnegative weights on an ascending uniform support.

    Weights are densities with respect to the support spacing:
    sum(weights) * spacing == 1.  A non-finite support point or weight, a
    spacing that is not finite and positive, and a support that is not
    strictly ascending are rejected, so no figure is computed from a NaN law
    and ``wasserstein2`` never pairs quantiles of an unsorted support.
    """

    support: np.ndarray
    weights: np.ndarray
    spacing: float

    def __post_init__(self):
        s = np.asarray(self.support, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if s.shape != w.shape or s.ndim != 1:
            raise ValueError("support and weights must be 1D arrays of equal length")
        # a NaN or inf in either array is rejected, even at a zero weight
        if not (np.isfinite(s).all() and np.isfinite(w).all()):
            raise InvariantViolation("distribution support and weights must be finite")
        if not 0.0 < self.spacing < np.inf:
            raise InvariantViolation(
                f"distribution spacing {self.spacing!r} is not finite and positive"
            )
        if not (s[1:] > s[:-1]).all():
            raise InvariantViolation("distribution support must be strictly ascending")
        w_min = w.min()
        if w_min < 0.0:
            # rounding negatives are judged against the peak, since a
            # density's unit is 1/spacing; clamp into a new array, never the caller's
            if w_min < -1e-10 * w.max():
                raise InvariantViolation(
                    f"negative weight {w_min:.3e} below -1e-10 of the peak {w.max():.3e}"
                )
            w = np.maximum(w, 0.0)
        total = float(w.sum() * self.spacing)
        if abs(total - 1.0) > NORM_TOL:
            raise InvariantViolation(f"distribution mass {total!r} deviates from 1")
        object.__setattr__(self, "support", s)
        object.__setattr__(self, "weights", w)


def distribution(psi: WaveFunction, basis: BasisName) -> ProbabilityDistribution:
    """|amplitude|^2 on the position grid or, from the cached ``momentum`` view, the
    momentum grid."""
    g = psi.grid
    if basis == "position":
        return ProbabilityDistribution(g.x, np.abs(psi.amplitudes) ** 2, g.dx)
    if basis == "momentum":
        return ProbabilityDistribution(g.p, np.abs(psi.momentum) ** 2, g.dp)
    raise ValueError(f"unknown basis {basis!r}")
