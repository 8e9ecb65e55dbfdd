"""Answer-matching metrics."""

from __future__ import annotations

from typing import Sequence


class MetricsError(ValueError):
    pass


def normalize_answer(text: str) -> str:
    """Trim, collapse internal whitespace, and lowercase."""
    return " ".join(str(text).split()).lower()


def hits_at_1(predicted: str, gold: Sequence[str]) -> bool:
    """True when the prediction matches any gold answer after
    normalization; a blank prediction matches none."""
    gold = list(gold)
    if not gold:
        raise MetricsError("gold answer set is empty")
    target = normalize_answer(predicted)
    return bool(target) and any(normalize_answer(answer) == target
                                for answer in gold)
