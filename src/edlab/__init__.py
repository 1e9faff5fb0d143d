"""Numerical laboratory contrasting state-specific RMS measurement
error/disturbance with worst-case distribution-distance figures on
discretized 1D systems."""

from .channels import (
    Channel,
    ConfinementError,
    FlipChannel,
    ProbeSpec,
    SlitChannel,
    VonNeumannChannel,
    kraus_of,
    probe_grid_for,
)
from .grids import (
    GridSpec,
    InvariantViolation,
    Moments,
    ProbabilityDistribution,
    WaveFunction,
    distribution,
    make_grid,
    moments,
)
from .metrics import (
    EDRReport,
    busch_state_disturbance,
    busch_state_error,
    compute_report,
    evaluate_relations,
    ozawa_disturbance,
    ozawa_error,
    wasserstein2,
)
from .states import (
    BumpState,
    GaussianState,
    RandomState,
    StateSpec,
    SymmetricPairState,
    make_state,
)
from .supsearch import Eq2Report, SearchSpec, SupResult, eq2_check, maximize

__all__ = [name for name in dir() if not name.startswith("_")]
