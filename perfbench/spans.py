"""In-memory span tracing through proxies around the program's layers.

The proxies wrap objects the planner is handed (KG backend, completion
backend, scorer, prompt library), so no span code lives in the package.
Spans are kept in a list and reduced once the traced pass ends.
"""

from __future__ import annotations

import time
from collections import defaultdict

from graphquest.prompts import PromptLibrary


class Tracer:
    """Records (name, start, end, parent, question) spans and counters."""

    def __init__(self) -> None:
        # each span is [name, start, end, parent index or -1, question id]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.question = -1
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self.question])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus its direct children's, so the
        self times of every span under a root add up to the root's
        duration.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = totals[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return dict(totals)


class TracedKG:
    def __init__(self, kg, tracer: Tracer):
        self._kg = kg
        self._tracer = tracer

    def search_relations(self, entity, direction):
        span = self._tracer.begin("kg.relations")
        try:
            return self._kg.search_relations(entity, direction)
        finally:
            self._tracer.end(span)

    def search_entities(self, entity, relation, direction):
        span = self._tracer.begin("kg.entities")
        try:
            found = self._kg.search_entities(entity, relation, direction)
        finally:
            self._tracer.end(span)
        self._tracer.count("kg.entities.rows", len(found))
        return found

    def resolve_label(self, entity):
        span = self._tracer.begin("kg.label")
        try:
            return self._kg.resolve_label(entity)
        finally:
            self._tracer.end(span)


class TracedLLM:
    def __init__(self, llm, tracer: Tracer):
        self._llm = llm
        self._tracer = tracer

    def complete(self, prompt, config):
        span = self._tracer.begin("llm")
        try:
            return self._llm.complete(prompt, config)
        finally:
            self._tracer.end(span)


class TracedScorer:
    def __init__(self, scorer, tracer: Tracer):
        self._scorer = scorer
        self._tracer = tracer

    def score(self, question, label):
        span = self._tracer.begin("recall.score")
        try:
            return self._scorer.score(question, label)
        finally:
            self._tracer.end(span)


class TracedPrompts:
    """Stands in for a PromptLibrary; the planner only calls render."""

    def __init__(self, library: PromptLibrary, tracer: Tracer):
        self._library = library
        self._tracer = tracer

    def render(self, template_id: str, **bindings: str) -> str:
        span = self._tracer.begin("prompts.render")
        try:
            text = self._library.render(template_id, **bindings)
        finally:
            self._tracer.end(span)
        self._tracer.count("prompts.render.chars", len(text))
        return text
