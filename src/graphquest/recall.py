"""Candidate recall: rank entity labels by relevance to the question.

Used when an expansion returns more candidates than the planner can put
in one prompt. The default scorer is dependency-free: cosine similarity
over lowercase character-trigram multisets.
"""

from __future__ import annotations

import functools
import heapq
import math
import sys
import time
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable, Protocol, Sequence

import requests

from . import fanout
from .retry import Sessions, post_json

# seconds RemoteEmbeddingScorer waits for each embedding request
TIMEOUT_SECONDS = 30.0


class RecallError(ValueError):
    pass


class Scorer(Protocol):
    # A label must score as its stripped text does: `top_k` asks a scorer
    # that waits on the network once per distinct stripped label. Both
    # scorers below strip it anyway. An in-process scorer may also offer
    # `scores(question, labels) -> list[float]`, each as `score` gives it;
    # `top_k` then scores a batch with one call.
    def score(self, question: str, label: str) -> float:
        ...


@dataclass(frozen=True)
class ScoredCandidate:
    entity: str
    label: str
    score: float


@dataclass(frozen=True)
class RecallConfig:
    # Prompts stay bounded: rank when a candidate set exceeds `threshold`
    # and keep the best `k`.
    threshold: int = 30
    k: int = 25

    def __post_init__(self) -> None:
        if self.k < 1:
            raise RecallError(f"k must be >= 1, got {self.k}")


def _trigrams(lowered: str) -> tuple[Counter, float]:
    """Trigram counts of a stripped, lower-cased text, and their norm."""
    counts = Counter([lowered[i:i + 3] for i in range(len(lowered) - 2)])
    return counts, math.sqrt(sum(v * v for v in counts.values()))


@functools.lru_cache(maxsize=32)
def _question_trigrams(lowered: str) -> tuple[Counter, float]:
    # top_k scores every candidate against the same question, so the
    # question's side of the cosine is built once. A pure function of its
    # argument, so one cache serves every thread and planner; callers must
    # not mutate the counts it hands out.
    return _trigrams(lowered)


def _label_profile(lowered: str) -> tuple[str, tuple[str, ...], float]:
    """A stripped, lower-cased label, its trigrams in order, and their norm."""
    grams = tuple([sys.intern(lowered[i:i + 3])
                   for i in range(len(lowered) - 2)])
    # The norm is the root of the sum of squared counts: with every
    # trigram distinct that sum is the trigram count, so only a label
    # that repeats one builds its counts.
    if len(set(grams)) == len(grams):
        norm = math.sqrt(len(grams))
    else:
        norm = _trigrams(lowered)[1]
    return lowered, grams, norm


class TrigramScorer:
    """Similarity over character-trigram counts; exact match scores 1.0.

    Each label's profile (its stripped, lower-cased text, trigrams and
    norm) is built on its first score and kept for the scorer's lifetime,
    keyed on the label as given, so a hub member re-offered for a later
    question is not split again. The trigram strings are interned, so one
    shared by many labels is stored once. The cache is unbounded, like
    `RemoteEmbeddingScorer`'s, and a pure memo: threads may share one
    scorer.
    """

    def __init__(self) -> None:
        self._profiles: dict[str, tuple[str, tuple[str, ...], float]] = {}

    def score(self, question: str, label: str) -> float:
        return self.scores(question, (label,))[0]

    def scores(self, question: str, labels: Iterable[str]) -> list[float]:
        """`score(question, label)` for each label, in order.

        The question's text and trigram profile are built once for the
        batch. A blank label raises at its position in the batch.
        """
        profiles = self._profiles
        q = question.strip().lower()
        if q:
            left, left_norm = _question_trigrams(q)
        scored = []
        for label in labels:
            profile = profiles.get(label)
            if profile is None:
                profile = profiles[label] = \
                    _label_profile(label.strip().lower())
            c, grams, right_norm = profile
            if not q or not c:
                raise RecallError("cannot score empty text")
            if q == c:
                scored.append(1.0)
            elif not left or not grams:
                scored.append(0.0)
            else:
                scored.append(sum(map(left.get, grams, repeat(0)))
                              / (left_norm * right_norm))
        return scored


class RemoteEmbeddingScorer:
    """Scores with cosine over embeddings fetched from an HTTP service.

    POSTs {"input": [text]} and expects {"data": [{"embedding": [...]}]}.
    Embeddings are cached per text, so each distinct string costs one
    request per process. `top_k` scores a batch of labels on the
    `fanout` pool.
    """

    waits_on_network = True

    def __init__(self, endpoint_url: str, *,
                 session: requests.Session | None = None,
                 model: str | None = None,
                 sleep: Callable[[float], None] = time.sleep):
        self.endpoint_url = endpoint_url
        self._sessions = Sessions(session)
        self.model = model
        self._sleep = sleep
        # text -> (embedding, its norm)
        self._cache: dict[str, tuple[list[float], float]] = {}

    def score(self, question: str, label: str) -> float:
        q = question.strip()
        c = label.strip()
        if not q or not c:
            raise RecallError("cannot score empty text")
        left, left_norm = self._embed(q)
        right, right_norm = self._embed(c)
        if len(left) != len(right):
            raise RecallError(f"embedding dimensions differ: {len(left)} "
                              f"and {len(right)}")
        dot = sum(a * b for a, b in zip(left, right))
        norm = left_norm * right_norm
        if norm == 0.0:
            return 0.0
        return dot / norm

    def _embed(self, text: str) -> tuple[list[float], float]:
        hit = self._cache.get(text)
        if hit is not None:
            return hit
        body: dict = {"input": [text]}
        if self.model:
            body["model"] = self.model
        payload = post_json(
            self._sessions.get(), self.endpoint_url, sleep=self._sleep,
            error=lambda attempts, last: RecallError(
                f"embedding endpoint {self.endpoint_url} failed after "
                f"{attempts} attempts: {last}"),
            json=body, timeout=TIMEOUT_SECONDS,
        )
        try:
            vector = payload["data"][0]["embedding"]
            # a string iterates as its characters, json reads NaN and
            # Infinity as numbers, and an empty list has no direction:
            # none of them is an embedding
            if not isinstance(vector, list) or not vector or not all(
                    type(v) in (int, float) and math.isfinite(v)
                    for v in vector):
                raise TypeError("not a list of finite numbers")
            vector = [float(v) for v in vector]
        except (KeyError, IndexError, TypeError, OverflowError):
            raise RecallError("malformed embedding response") from None
        entry = vector, math.sqrt(sum(v * v for v in vector))
        self._cache[text] = entry
        return entry


def top_k(question: str, candidates: Sequence[tuple[str, str]], k: int,
          scorer: Scorer | None = None) -> list[ScoredCandidate]:
    """Keep the k best (entity, label) pairs for the question.

    Ordering is total and input-order independent: score descending,
    then label ascending, then entity id ascending. A scorer that waits
    on the network is asked once per distinct stripped label (see
    `Scorer`), on the `fanout` pool; an in-process one that has `scores`
    gets every label in one call. With `scorer=None` each call builds
    a throwaway `TrigramScorer`, so no label profile is kept between
    calls; pass one scorer to keep them.
    """
    if k < 1:
        raise RecallError(f"k must be >= 1, got {k}")
    active = scorer or TrigramScorer()
    if fanout.waits_on_network(active) and candidates:
        # Each distinct stripped label is asked for once. The first score
        # fetches the question's embedding, so the other labels, sent at
        # once, do not ask for it again.
        stripped = [label.strip() for _, label in candidates]
        texts = list(dict.fromkeys(stripped))
        score = functools.partial(active.score, question)
        first = score(texts[0])
        rest, failed = fanout.gather(active, score, texts[1:])
        if failed is not None:
            raise failed
        by_text = dict(zip(texts, [first, *rest]))
        scores = [by_text[text] for text in stripped]
    elif hasattr(active, "scores"):
        # An in-process scorer is cheaper to call than the dedupe above:
        # on perfbench's hub-fanout, whose labels are all distinct, that
        # path made questions 4% slower.
        scores = active.scores(question, [label for _, label in candidates])
    else:
        scores = [active.score(question, label) for _, label in candidates]
    # Only the k kept become ScoredCandidates; negating a float is exact,
    # so each keeps its score bit for bit.
    best = heapq.nsmallest(k, [
        (-score, label, entity)
        for (entity, label), score in zip(candidates, scores)
    ])
    return [ScoredCandidate(entity, label, -negated)
            for negated, label, entity in best]
