"""Chunk-level P2P swarm simulator and exact CTMC verification oracle."""

from .model import (
    Arrival,
    Departure,
    FrequencySnapshot,
    ModelParams,
    SwarmState,
    Transfer,
    Transition,
)
from .policies import PolicyConfig, PolicyKind
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
    "FrequencySnapshot",
    "InitialCondition",
    "ModelParams",
    "PolicyConfig",
    "PolicyKind",
    "Scenario",
    "Simulation",
    "SwarmState",
    "Transfer",
    "Transition",
    "TerminationReason",
    "run",
    "run_replications",
]

__version__ = "0.1.0"
