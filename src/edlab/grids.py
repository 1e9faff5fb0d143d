"""Discretized 1D Hilbert space on a uniform position grid.

The position grid uses a half-cell offset, x_i = x_min + (i + 1/2) dx, so
that on a symmetric domain the reflection x -> -x is an exact index
reversal.  The conjugate momentum grid p_k = 2*pi*hbar*k/(n*dx) (signed
index k in [-n/2, n/2)) is stored in ascending order.  States are always
position amplitudes; ``WaveFunction.momentum`` holds their momentum
amplitudes on p, unitary with respect to the dx / dp measures, so Parseval
holds to machine precision.

A state's amplitudes move between the two grids through ``kernel_transform``.
Because dx * dp = 2*pi*hbar / n exactly, its plane-wave kernel splits into
the FFT kernel, an exact real sign (-1)^i * (-1)^j, and one twiddle
exp(-1j*p_j*c/hbar) with c = center + dx/2.  The twiddle's phase arguments
are at most pi/2 on a centred grid, so no ``exp`` is evaluated at the large
arguments p*x/hbar, and it is built from about 2*sqrt(n) ``exp`` values.
A transform is three full-size passes (input product, FFT in place, and
output product with the scale folded in) and builds no n-size phase array:
the sign (-1)^i is an exact sign flip of every odd element, and the twiddle
is multiplied in blocks of ``TWIDDLE_BLOCK`` elements, each block's
anchor-times-offset product formed just before it is used.

The twiddle and the scale have constant modulus, and a transform forward
and back multiplies them to 1.  So where only |.|^2 on p is read, or p is
applied and the result transformed straight back (the Kraus branches in
``metrics``), ``signed_fft`` runs the sign and the FFT alone.

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
# Twiddle elements that kernel_transform forms at once (whole anchor rows of
# b elements each): large enough that a grid of n <= 2^14 takes one block,
# small enough that the block stays in cache at n = 2^18.
TWIDDLE_BLOCK = 1 << 14


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

    ``x``, ``p`` and ``aliasing_band`` are built once per grid object and
    are read-only.
    """

    n_points: int
    x_min: float
    x_max: float
    hbar: float = 1.0

    def __post_init__(self):
        n = self.n_points
        if n < 16 or (n & (n - 1)) != 0:
            raise ValueError(f"n_points must be a power of two >= 16, got {n}")
        if not np.all(np.isfinite((self.x_min, self.x_max, self.hbar))):
            raise ValueError(
                f"grid bounds and hbar must be finite, got [{self.x_min}, {self.x_max}] "
                f"and hbar {self.hbar}"
            )
        if not self.x_max > self.x_min:
            raise ValueError(f"x_max must exceed x_min, got [{self.x_min}, {self.x_max}]")
        if not self.hbar > 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")

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
        ``WaveFunction.validate`` bounds by ALIASING_TOL."""
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
        if not np.all(np.isfinite(a)):
            raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "amplitudes", _read_only(a))

    @cached_property
    def momentum(self) -> np.ndarray:
        """Momentum amplitudes on ``grid.p``, normalized with measure dp; read-only."""
        return _read_only(kernel_transform(self.amplitudes, 0, self.grid, -1))

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2) * self.grid.dx))

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
        if np.any(edge_mass > BOUNDARY_TOL):
            raise InvariantViolation(
                f"boundary confinement violated: edge probability {edge_mass.max():.3e} "
                f"exceeds {BOUNDARY_TOL}"
            )
        band = self.grid.aliasing_band
        band_mass = float(np.sum(np.abs(self.momentum[band]) ** 2) * self.grid.dp)
        if band_mass > ALIASING_TOL:
            raise InvariantViolation(
                f"aliasing control violated: near-Nyquist momentum mass {band_mass:.3e} "
                f"exceeds {ALIASING_TOL}"
            )
        return self


def kernel_transform(
    arr: np.ndarray, axis: int, grid: GridSpec, sign: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Unitary plane-wave transform along one axis between a grid's x and p.

    Sign -1 maps amplitudes on ``grid.x`` to amplitudes on ``grid.p`` and +1
    maps back: out_j = src_step / sqrt(2*pi*hbar) * sum_i arr_i *
    exp(sign * 1j * c_j * d_i / hbar), where d_i are the source grid points
    and c_j the destination ones.

    With x_i = x_min + (i + 1/2) dx, p_j = (j - n/2) dp and dx * dp =
    2*pi*hbar / n, the forward kernel factors exactly as
    exp(-1j*p_j*x_i/hbar) = (-1)^i * (-1)^j * e_j * exp(-2j*pi*i*j/n), with
    the twiddle e_j = exp(-1j*p_j*c/hbar) and c = center + dx/2 (n is a
    multiple of 4, so the leftover exp(1j*pi*n/2) is 1).  The +1 kernel is
    its conjugate.  So each direction is one input product (the real sign
    (-1)^i for -1, (-1)^j times the conjugate twiddle for +1), one FFT in
    place, and one output product that also carries the scale ((-1)^j e_j
    for -1, the real sign (-1)^i for +1).  On a centred grid |p_j*c/hbar| <=
    pi/2, so the twiddle carries no large-argument rounding.  It is built
    as in ``channels._conditional_shift``: with b = 2^floor(log2(n)/2), e at
    j = a*b + r is anchor a times offset r, n/b + b calls of ``exp`` and one
    complex product per element, and b is even, so (-1)^j = (-1)^r is
    folded into the offsets.

    No n-size phase array is built.  The sign (-1)^i is an exact flip of the
    odd element of each pair: for -1 it is multiplied by -1, and for +1,
    where the sign carries the scale, the even elements are multiplied by
    the scale and the odd ones by its negative.  The twiddle is multiplied in blocks of whole anchor rows, about
    ``TWIDDLE_BLOCK`` elements each, and each block's anchor-times-offset
    product is formed just before it is used; a grid of n <= 2^14 takes one
    block.  Every element gets the same products as from the full arrays.

    ``out`` follows numpy's idiom: the result is written into it and
    returned, so ``out=arr`` transforms in place.  Without it, one new array
    of the input's size holds the result and ``arr`` is left untouched; the
    FFT and the output product run inside that one array.
    """
    n = grid.n_points
    b = 1 << (n.bit_length() - 1) // 2
    phase = sign * 1j * (grid.center + 0.5 * grid.dx) / grid.hbar
    # grid.p[::b], bit for bit, without building the cached n-point grid.p
    anchors = np.exp(phase * ((np.arange(0, n, b) - n // 2) * grid.dp))
    offsets = np.exp(phase * (np.arange(b) * grid.dp))
    offsets[1::2] *= -1.0
    scale = (grid.dx if sign < 0 else n * grid.dp) / np.sqrt(2.0 * np.pi * grid.hbar)
    index = [slice(None)] * arr.ndim
    index[axis] = slice(0, None, 2)
    even = tuple(index)
    index[axis] = slice(1, None, 2)
    odd = tuple(index)
    if sign < 0:
        anchors *= scale
        if out is None:
            work = np.array(arr, dtype=complex)
        else:
            work = out
            if work is not arr:
                np.copyto(work, arr)
        np.multiply(work[odd], -1.0, out=work[odd])
        np.fft.fft(work, axis=axis, out=work)
        _multiply_twiddle(work, work, axis, anchors, offsets, twiddle_first=True)
    else:
        work = np.empty_like(arr, dtype=complex) if out is None else out
        _multiply_twiddle(arr, work, axis, anchors, offsets, twiddle_first=False)
        np.fft.ifft(work, axis=axis, out=work)
        np.multiply(scale, work[even], out=work[even])
        np.multiply(-scale, work[odd], out=work[odd])
    return work


def signed_fft(arr: np.ndarray, grid: GridSpec) -> float:
    """Overwrite ``arr`` with FFT(sigma * arr) along axis 0, sigma_i = (-1)^i,
    and return dx^2/(2 pi hbar), the factor that turns its |.|^2 into the
    momentum density on ``grid.p``.

    This is ``kernel_transform(arr, 0, grid, -1)`` without its output
    product (-1)^j e_j dx/sqrt(2 pi hbar), a factor of constant modulus: the
    sign sigma already puts the spectrum in the ascending order of grid.p.
    A transform forward and back takes both output products and the two
    scales, whose product is 1, so an operator diagonal in momentum is a
    plain spectral multiplier: P b = sigma * IFFT(p * FFT(sigma * b)).
    """
    arr[1::2] *= -1.0
    np.fft.fft(arr, axis=0, out=arr)
    return grid.dx**2 / (2.0 * np.pi * grid.hbar)


def _multiply_twiddle(
    src: np.ndarray,
    dst: np.ndarray,
    axis: int,
    anchors: np.ndarray,
    offsets: np.ndarray,
    twiddle_first: bool,
) -> None:
    """dst = src * e along ``axis`` for e_(a*b + r) = anchors[a] * offsets[r],
    formed and used in blocks of whole anchor rows, about TWIDDLE_BLOCK
    elements each.  ``twiddle_first`` puts e as the first factor of each
    product, as in the transform's full-array products: numpy's complex
    product is not bitwise commutative.  ``src`` may be ``dst``."""
    n_anchors, b = anchors.size, offsets.size
    rows = min(n_anchors, max(1, TWIDDLE_BLOCK // b))  # powers of two: rows divides n_anchors
    e = np.empty((rows, b), dtype=complex)
    shape = [1] * dst.ndim
    shape[axis] = rows * b
    e_along = e.reshape(shape)
    index = [slice(None)] * dst.ndim
    for a0 in range(0, n_anchors, rows):
        np.multiply(anchors[a0 : a0 + rows, None], offsets, out=e)
        index[axis] = slice(a0 * b, (a0 + rows) * b)
        block = dst[tuple(index)]
        factor = block if src is dst else src[tuple(index)]
        np.multiply(*((e_along, factor) if twiddle_first else (factor, e_along)), out=block)


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
    sum(weights) * spacing == 1.  A non-finite support point or weight is
    rejected, so no figure is computed from a NaN law.
    """

    support: np.ndarray
    weights: np.ndarray
    spacing: float

    def __post_init__(self):
        s = np.asarray(self.support, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if s.shape != w.shape or s.ndim != 1:
            raise ValueError("support and weights must be 1D arrays of equal length")
        # a NaN or inf in either array, even at a zero weight, makes this
        # one product non-finite (0 * inf is NaN)
        with np.errstate(invalid="ignore"):
            finite = np.isfinite(np.dot(s, w))
        if not finite:
            raise InvariantViolation("distribution support and weights must be finite")
        w_min = np.min(w)
        if w_min < -1e-10:
            raise InvariantViolation(f"negative weight {w_min:.3e} below tolerance")
        if w_min < 0.0:  # rounding negatives; clamp into a new array, never the caller's
            w = np.maximum(w, 0.0)
        total = float(np.sum(w) * self.spacing)
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
