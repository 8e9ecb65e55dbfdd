"""Planning engine: state types and the iterative reasoning loop."""

from .engine import (
    Backends,
    INSUFFICIENT_ANSWERS,
    PendingExpansion,
    Planner,
    PlannerRunError,
    RunResult,
)
from .state import (
    AblationFlags,
    Frontier,
    Memory,
    PathStep,
    PlannerConfig,
    Question,
    ReasoningPath,
    StateError,
    SubObjectiveStatus,
    SubObjectives,
    Subgraph,
    Verdict,
)

__all__ = [
    "AblationFlags",
    "Backends",
    "Frontier",
    "INSUFFICIENT_ANSWERS",
    "Memory",
    "PathStep",
    "PendingExpansion",
    "Planner",
    "PlannerConfig",
    "PlannerRunError",
    "Question",
    "ReasoningPath",
    "RunResult",
    "StateError",
    "SubObjectiveStatus",
    "SubObjectives",
    "Subgraph",
    "Verdict",
]
