"""Chunk-level P2P swarm simulator and exact CTMC verification oracle."""

from .model import (
    Arrival,
    Departure,
    FrequencySnapshot,
    InvalidTransitionError,
    ModelParams,
    SwarmState,
    Transfer,
    Transition,
    apply_transition,
)
from .policies import EwmaEstimate, PolicyConfig, PolicyKind
from .engine import (
    EventTrace,
    InitialCondition,
    Scenario,
    Simulation,
    TerminationReason,
    run,
    run_replications,
)

__all__ = [
    "Arrival",
    "Departure",
    "EventTrace",
    "EwmaEstimate",
    "FrequencySnapshot",
    "InitialCondition",
    "InvalidTransitionError",
    "ModelParams",
    "PolicyConfig",
    "PolicyKind",
    "Scenario",
    "Simulation",
    "SwarmState",
    "Transfer",
    "Transition",
    "TerminationReason",
    "apply_transition",
    "run",
    "run_replications",
]

__version__ = "0.1.0"
