"""Core types for language-model backends."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol


class LLMError(Exception):
    """A language-model backend failed."""


@dataclass(frozen=True)
class GenerationConfig:
    """Decoding parameters sent with every completion request."""

    model: str = "gpt-3.5-turbo"
    temperature: float = 0.3
    max_tokens: int = 1024

    def __post_init__(self) -> None:
        # requests cannot encode NaN or infinity in a request body
        if not math.isfinite(self.temperature):
            raise ValueError(
                f"temperature must be finite, got {self.temperature!r}")
        if self.temperature < 0:
            raise ValueError(
                f"temperature must be >= 0, got {self.temperature!r}")
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {self.max_tokens}")


@dataclass(frozen=True)
class Usage:
    input_tokens: int = 0
    output_tokens: int = 0

    def __post_init__(self) -> None:
        # json also yields -7, 2.5, "12", Infinity and true as counts
        if any(type(count) is not int or count < 0
               for count in (self.input_tokens, self.output_tokens)):
            raise ValueError(f"token counts must be non-negative ints: {self}")

    @property
    def total_tokens(self) -> int:
        return self.input_tokens + self.output_tokens

    def __add__(self, other: "Usage") -> "Usage":
        return Usage(self.input_tokens + other.input_tokens,
                     self.output_tokens + other.output_tokens)


@dataclass(frozen=True)
class Completion:
    text: str
    usage: Usage = field(default_factory=Usage)


class CompletionBackend(Protocol):
    """What the planner needs from any language-model backend.

    A backend whose calls wait on the network sets `waits_on_network =
    True` and must then be safe to call from several threads at once:
    the planner sends each iteration's relation-selection calls together
    (see `graphquest.fanout`). Any other backend is called on the
    caller's thread, one call at a time.
    """

    def complete(self, prompt: str, config: GenerationConfig) -> Completion:
        ...


def approximate_tokens(text: str) -> int:
    """Character-count token estimate used when a backend reports none."""
    return math.ceil(len(text) / 4)
