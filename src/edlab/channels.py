"""The processes whose disturbance we quantify.

Three channels: the parity flip (unitary), the slit check (a two-outcome
projective Kraus pair), and the von Neumann position-probe coupling
U = exp(-i g X_s P_p / hbar) on system (x) probe.  The coupling is applied as
an exact conditional shift: for each system column at x_i the probe is
translated by g*x_i through momentum-space phases, which is unitary to
machine precision at any coupling strength.

``kraus_of`` is the one implementation of a channel's action on a state: its
Kraus family (equivalently, its Stinespring dilation) as blocks of branches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .grids import GridSpec, InvariantViolation, WaveFunction, kernel_transform
from .states import gaussian_amplitudes

CONFINEMENT_TOL = 1e-10


class ConfinementError(InvariantViolation):
    """A conditional shift pushed significant probe mass to the grid edge."""


@dataclass(frozen=True)
class ProbeSpec:
    """Probe grid plus its ready state: an unbiased Gaussian pointer of width s.

    The pointer may be narrower than the grid spacing suggests; its gate is
    the aliasing invariant (band-limited content), not the cells-per-sigma
    rule used for system states.
    """

    grid: GridSpec
    s: float
    ready_state: WaveFunction = field(init=False)

    def __post_init__(self):
        if not self.s > 0:
            raise ValueError(f"pointer width must be positive, got {self.s}")
        amp = gaussian_amplitudes(self.grid, 0.0, 0.0, self.s)
        amp = amp / np.sqrt(np.sum(np.abs(amp) ** 2) * self.grid.dx)
        ready = WaveFunction(self.grid, amp).validate()
        mean = float(np.sum(self.grid.x * np.abs(ready.amplitudes) ** 2) * self.grid.dx)
        if abs(mean) > 1e-10:
            raise InvariantViolation(f"pointer bias <X_probe> = {mean:.3e}")
        object.__setattr__(self, "ready_state", ready)


def probe_grid_for(
    system_grid: GridSpec,
    psi: WaveFunction,
    g: float,
    s: float,
    n_points: int = 256,
) -> GridSpec:
    """Auto-size a probe grid so the conditional shifts stay confined.

    The half-domain is ``probe_half_width`` at the reach of psi (its support
    at the 1e-14 probability level).  The ready state's own validation then
    rejects widths the resulting spacing cannot represent.
    """
    w = np.abs(psi.amplitudes) ** 2 * system_grid.dx
    sig = np.abs(system_grid.x[w > 1e-14])
    reach = float(sig.max()) if sig.size else abs(system_grid.x).max()
    half = probe_half_width(g, reach, s)
    return GridSpec(n_points, -half, half, system_grid.hbar)


def probe_half_width(g: float, reach: float, s: float) -> float:
    """Probe half-domain that keeps a width-s pointer confined under every
    shift g*x with |x| <= reach: the largest shift plus a 12 s margin."""
    return abs(g) * reach + 12.0 * s


@dataclass(frozen=True)
class FlipChannel:
    pass


@dataclass(frozen=True)
class SlitChannel:
    center: float
    width: float

    def __post_init__(self):
        if not self.width > 0:
            raise ValueError(f"slit width must be positive, got {self.width}")


@dataclass(frozen=True)
class VonNeumannChannel:
    g: float
    probe: ProbeSpec

    def __post_init__(self):
        if self.g == 0:
            raise ValueError("coupling gain g must be nonzero")


Channel = Union[FlipChannel, SlitChannel, VonNeumannChannel]


@dataclass(frozen=True)
class JointState:
    """Amplitudes indexed (system point, probe point), unit total norm."""

    system_grid: GridSpec
    probe_grid: GridSpec
    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex)
        expected = (self.system_grid.n_points, self.probe_grid.n_points)
        if a.shape != expected:
            raise ValueError(f"joint amplitudes shape {a.shape}, expected {expected}")
        object.__setattr__(self, "amplitudes", a)

    @property
    def measure(self) -> float:
        return self.system_grid.dx * self.probe_grid.dx

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2) * self.measure))

    def probe_marginal(self) -> np.ndarray:
        return np.sum(np.abs(self.amplitudes) ** 2, axis=0) * self.system_grid.dx


def slit_mask(grid: GridSpec, center: float, width: float) -> np.ndarray:
    if center - 0.5 * width < grid.x_min or center + 0.5 * width > grid.x_max:
        raise InvariantViolation(
            f"slit [{center - 0.5 * width}, {center + 0.5 * width}] outside grid domain "
            f"[{grid.x_min}, {grid.x_max}]"
        )
    return np.abs(grid.x - center) <= 0.5 * width


def embed_joint(psi: WaveFunction, probe: ProbeSpec) -> JointState:
    """Product state psi (x) ready."""
    return JointState(psi.grid, probe.grid, np.outer(psi.amplitudes, probe.ready_state.amplitudes))


def apply_von_neumann(joint: JointState, g: float) -> JointState:
    """Apply U = exp(-i g X_s P_p / hbar) exactly; its adjoint is gain -g.

    Each system row's probe wave function is translated by g*x_i via
    momentum-space phase multiplication.  Raises ConfinementError when the
    translated probe carries significant probability at the probe-grid edge.
    """
    sg, pg = joint.system_grid, joint.probe_grid
    phases = np.exp(-1j * g * np.outer(sg.x, pg.p) / pg.hbar)
    mom = kernel_transform(joint.amplitudes, 1, pg.x[0], pg.dx, pg.p[0], pg.dp, pg.hbar, -1)
    out = kernel_transform(mom * phases, 1, pg.p[0], pg.dp, pg.x[0], pg.dx, pg.hbar, +1)
    result = JointState(sg, pg, out)
    # confinement is a state invariant: operator images (unnormalized
    # intermediates inside RMS sandwiches) are exempt from the edge check
    if abs(result.norm() ** 2 - 1.0) < 1e-6:
        edge = np.concatenate((result.amplitudes[:, :2], result.amplitudes[:, -2:]), axis=1)
        edge_mass = float(np.sum(np.abs(edge) ** 2) * result.measure)
        if edge_mass > CONFINEMENT_TOL:
            raise ConfinementError(
                f"probe confinement violated after shift: edge mass {edge_mass:.3e} "
                f"(probe domain [{pg.x_min}, {pg.x_max}], gain {g})"
            )
    return result


def kraus_of(
    channel: Channel, grid: GridSpec
) -> tuple[list[Callable[[np.ndarray], np.ndarray]], float]:
    """Kraus family of a channel as blocks, plus the ancilla cell measure.

    Each block maps system amplitudes a to an (n_s, k) array whose columns
    are branches K_m a.  A figure sums |.|^2 over the columns of every block
    and then multiplies by the measure, so that sum_m ||K_m a||^2 = ||a||^2:

    flip -> one 1-column block (the reversal), measure 1;
    slit -> two 1-column blocks (pass and fail projectors), measure 1;
    von_neumann -> one (n_s, n_p) block, U (a (x) ready) from a single
    forward coupling, with the probe cell dy as measure; column j is
    K_j a / sqrt(dy) for K_j = sqrt(dy) <y_j| U |., ready>.
    """
    if isinstance(channel, FlipChannel):
        if not grid.is_symmetric():
            raise InvariantViolation(
                f"flip requires a domain symmetric about 0, got [{grid.x_min}, {grid.x_max}]"
            )
        return [lambda a: a[::-1, None]], 1.0
    if isinstance(channel, SlitChannel):
        mask = slit_mask(grid, channel.center, channel.width)
        return [lambda a, m=m: np.where(m, a, 0.0)[:, None] for m in (mask, ~mask)], 1.0
    if isinstance(channel, VonNeumannChannel):
        probe = channel.probe

        def couple(a: np.ndarray) -> np.ndarray:
            return apply_von_neumann(embed_joint(WaveFunction(grid, a), probe), channel.g).amplitudes

        return [couple], probe.grid.dx
    raise TypeError(f"unknown channel {channel!r}")
