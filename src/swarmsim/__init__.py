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
    frequency_snapshot,
    suppressed_set_ms,
)
from .policies import ContactContext, EwmaEstimate, PolicyConfig, PolicyKind
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
    "ContactContext",
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
    "frequency_snapshot",
    "run",
    "run_replications",
    "suppressed_set_ms",
]

__version__ = "0.1.0"
