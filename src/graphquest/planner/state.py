"""State carried across planning iterations."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..kg.types import Direction
from ..llm.types import GenerationConfig
from ..recall import RecallConfig


class StateError(ValueError):
    pass


@dataclass(frozen=True)
class Question:
    text: str
    # (entity id, human-readable label) pairs; a repeated id keeps the first
    topic_entities: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise StateError("question text is empty")
        if not self.topic_entities:
            raise StateError("question has no topic entities")
        first: dict[str, str] = {}
        for eid, label in self.topic_entities:
            first.setdefault(eid, label)
        object.__setattr__(self, "topic_entities", tuple(first.items()))


@dataclass(frozen=True)
class PathStep:
    """One traversed edge, stored in KG orientation.

    `direction` is relative to the entity the path stepped from:
    outgoing means the path entered at `subject` and left at `object`,
    incoming the reverse.
    """

    subject: str
    relation: str
    object: str
    direction: Direction

    @property
    def source(self) -> str:
        return (self.subject if self.direction is Direction.OUTGOING
                else self.object)

    @property
    def target(self) -> str:
        return (self.object if self.direction is Direction.OUTGOING
                else self.subject)


@dataclass(frozen=True)
class ReasoningPath:
    origin: str
    steps: tuple[PathStep, ...] = ()

    def entities(self) -> tuple[str, ...]:
        visited = [self.origin]
        for step in self.steps:
            visited.append(step.target)
        return tuple(visited)

    def tail_entity(self) -> str:
        if self.steps:
            return self.steps[-1].target
        return self.origin

    def extended(self, step: PathStep) -> "ReasoningPath":
        return ReasoningPath(self.origin, self.steps + (step,))

    def validate(self, max_length: int | None = None) -> None:
        """Raise StateError unless linked, acyclic, and within bounds."""
        at = self.origin
        for index, step in enumerate(self.steps):
            if step.source != at:
                raise StateError(
                    f"step {index} starts at {step.source!r}, path is at {at!r}"
                )
            at = step.target
        visited = self.entities()
        if len(set(visited)) != len(visited):
            raise StateError(f"path revisits an entity: {visited}")
        if max_length is not None and len(self.steps) > max_length:
            raise StateError(
                f"path has {len(self.steps)} steps, cap is {max_length}"
            )


@dataclass
class Memory:
    paths: list[ReasoningPath]
    # one progress note per sub-objective
    status: list[str]


@dataclass(frozen=True)
class Verdict:
    sufficient: bool
    answer: str | None
    reason: str
    forced: bool = False

    def __post_init__(self) -> None:
        # Only a forced (exhaustion) verdict may carry a hedged answer.
        if not self.forced and self.sufficient == (self.answer is None):
            raise StateError(
                "verdict must carry an answer exactly when sufficient"
            )


@dataclass(frozen=True)
class AblationFlags:
    no_guidance: bool = False
    no_memory: bool = False
    no_reflection: bool = False
    # None = adaptive breadth; N caps relations per entity and entities
    # per iteration.
    fixed_breadth: int | None = None

    def __post_init__(self) -> None:
        if self.fixed_breadth is not None and self.fixed_breadth < 1:
            raise StateError(
                f"fixed_breadth must be >= 1, got {self.fixed_breadth}"
            )


@dataclass(frozen=True)
class PlannerConfig:
    max_depth: int = 4
    ablations: AblationFlags = field(default_factory=AblationFlags)
    generation: GenerationConfig = field(default_factory=GenerationConfig)
    recall: RecallConfig = field(default_factory=RecallConfig)

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise StateError(f"max_depth must be >= 1, got {self.max_depth}")
