"""Candidate recall: rank entity labels by relevance to the question.

Used when an expansion returns more candidates than the planner can put
in one prompt. The default scorer is dependency-free: cosine similarity
over lowercase character-trigram multisets.
"""

from __future__ import annotations

import functools
import heapq
import math
import time
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, Protocol, Sequence

import requests

from . import fanout
from .retry import Sessions, post_json

# seconds RemoteEmbeddingScorer waits for each embedding request
TIMEOUT_SECONDS = 30.0


class RecallError(ValueError):
    pass


class Scorer(Protocol):
    # A label must score as its stripped text does. A scorer may also
    # offer `scores(question, labels) -> list[float]`, each as `score`
    # gives it: `top_k` then scores a batch with that one call, and
    # otherwise asks `score` once per distinct stripped label.
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
        if self.threshold < 0:
            raise RecallError(
                f"threshold must be >= 0, got {self.threshold}")


def _trigrams(lowered: str) -> tuple[Counter, int]:
    """Trigram counts of a stripped, lower-cased text, and the sum of
    their squares."""
    counts = Counter([lowered[i:i + 3] for i in range(len(lowered) - 2)])
    return counts, sum(v * v for v in counts.values())


@functools.lru_cache(maxsize=32)
def _question_trigrams(lowered: str) -> tuple[Counter, int, float]:
    # top_k scores every candidate against the same question, so the
    # question's side of the cosine is built once. A pure function of its
    # argument, so one cache serves every thread and planner; callers must
    # not mutate the counts it hands out.
    counts, square = _trigrams(lowered)
    return counts, square, math.sqrt(square)


def _label_trigrams(lowered: str) -> tuple[list[str], float]:
    """A stripped, lower-cased label's trigrams in order, and their norm."""
    grams = [lowered[i:i + 3] for i in range(len(lowered) - 2)]
    # The norm is the root of the sum of squared counts: with every
    # trigram distinct that sum is the trigram count, so only a label
    # that repeats one builds its counts.
    if len(set(grams)) == len(grams):
        return grams, math.sqrt(len(grams))
    return grams, math.sqrt(_trigrams(lowered)[1])


class _BatchIndex:
    """An inverted trigram index of one batch of labels.

    `postings` maps each trigram to the positions of the labels that
    contain it, a position listed once per occurrence, so counting a
    question's trigrams over it gives every label's integer dot product
    at once, and `norms` holds each label's norm. A blank label raises.
    """

    __slots__ = ("labels", "postings", "norms")

    def __init__(self, labels: tuple[str, ...]) -> None:
        postings: defaultdict[str, list[int]] = defaultdict(list)
        norms = array("d")
        for i, label in enumerate(labels):
            lowered = label.strip().lower()
            if not lowered:
                raise RecallError("cannot score empty text")
            grams, norm = _label_trigrams(lowered)
            for gram in grams:
                postings[gram].append(i)
            norms.append(norm)
        self.labels = labels
        self.postings = postings
        self.norms = norms

    def scores(self, q: str) -> list[float]:
        """Each label's score against a non-blank lower-cased question."""
        labels = self.labels
        left, square, left_norm = _question_trigrams(q)
        if not left:
            # under three characters the question shares no trigram, so
            # only an exact match scores
            return [1.0 if label.strip().lower() == q else 0.0
                    for label in labels]
        scored = [0.0] * len(labels)
        postings, norms = self.postings, self.norms
        shared = []
        for gram, count in left.items():
            positions = postings.get(gram)
            if positions is not None:
                shared += repeat(positions, count)
        for i, dot in Counter(chain.from_iterable(shared)).items():
            # a label equal to the question has its trigrams, so its dot
            # product is the question's own sum of squares
            if dot == square and labels[i].strip().lower() == q:
                scored[i] = 1.0
            else:
                scored[i] = dot / (left_norm * norms[i])
        return scored


class TrigramScorer:
    """Similarity over character-trigram counts; exact match scores 1.0.

    `scores` keeps one `_BatchIndex` per batch for the scorer's lifetime,
    keyed on the tuple of labels as given, so a hub's members offered
    again for a later question cost one count over the question's
    posting lists, not a re-split of every label; a cached label of about
    20 characters takes about 190 bytes. Only recurring batches gain: on
    perfbench's `hub-fanout` 85% of `scores` calls re-score a cached
    batch, `wide-frontier` makes no recall call and `remote-latency`
    scores with `RemoteEmbeddingScorer`. `score` scores one label on its
    own and caches nothing, so scoring label by label does not fill the
    cache with one entry per label. The cache is unbounded, like
    `RemoteEmbeddingScorer`'s, and a pure memo: threads may share one
    scorer, and a race at worst builds one batch's index twice.
    """

    def __init__(self) -> None:
        self._indexes: dict[tuple[str, ...], _BatchIndex] = {}

    def score(self, question: str, label: str) -> float:
        # One label, not cached. A batch of one through `_BatchIndex`
        # would walk every question trigram: about three times the cost.
        q = question.strip().lower()
        c = label.strip().lower()
        if not q or not c:
            raise RecallError("cannot score empty text")
        if q == c:
            return 1.0
        left, _, left_norm = _question_trigrams(q)
        grams, norm = _label_trigrams(c)
        if not left or not grams:
            return 0.0
        return sum(map(left.get, grams, repeat(0))) / (left_norm * norm)

    def scores(self, question: str, labels: Sequence[str]) -> list[float]:
        """`score(question, label)` for each label, in order."""
        q = question.strip().lower()
        if not q:
            raise RecallError("cannot score empty text")
        key = tuple(labels)
        index = self._indexes.get(key)
        if index is None:
            index = self._indexes[key] = _BatchIndex(key)
        return index.scores(q)


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
        if not math.isfinite(norm):  # else cosine is nan or a false 0.0
            raise RecallError("embedding too large to score: norm overflows")
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
            error=RecallError, name="embedding",
            json=body, timeout=TIMEOUT_SECONDS,
        )
        try:
            vector = payload["data"][0]["embedding"]
            # a string iterates as its characters, and json reads NaN and
            # Infinity as numbers: neither is an embedding
            if not isinstance(vector, list) or not all(
                    type(v) in (int, float) and math.isfinite(v)
                    for v in vector):
                raise TypeError("not a list of finite numbers")
            vector = [float(v) for v in vector]
            norm = math.sqrt(sum(v * v for v in vector))
            # an empty or all-zero list has no direction, nor has one whose
            # squares underflow: every score against it would read 0.0. The
            # smallest nonzero norm is about 2.2e-162, so the product of
            # two never underflows to zero
            if norm == 0.0:
                raise TypeError("no direction")
        except (KeyError, IndexError, TypeError, OverflowError):
            raise RecallError("malformed embedding response") from None
        entry = vector, norm
        self._cache[text] = entry
        return entry


def top_k(question: str, candidates: Sequence[tuple[str, str]], k: int,
          scorer: Scorer | None = None) -> list[ScoredCandidate]:
    """Keep the k best (entity, label) pairs for the question.

    Ordering is total and input-order independent: score descending,
    then label ascending, then entity id ascending. A scorer with
    `scores` gets every label in one call; any other is asked once per
    distinct stripped label (see `Scorer`), through `fanout.gather`, so
    a scorer that waits on the network is asked on the pool. A
    `TrigramScorer` keeps each batch's index, so the same candidates
    offered for a later question are not split again. With `scorer=None`
    each call builds a throwaway `TrigramScorer`, so nothing is kept
    between calls; pass one scorer to keep the indexes.
    """
    if k < 1:
        raise RecallError(f"k must be >= 1, got {k}")
    if not candidates:
        return []
    active = scorer or TrigramScorer()
    if hasattr(active, "scores"):
        # one call, with no dedupe: on perfbench's hub-fanout, whose
        # labels are all distinct, the dedupe made questions 4% slower
        scores = active.scores(question, [label for _, label in candidates])
    else:
        # The first score fetches a remote scorer's question embedding,
        # so the other labels, sent at once, do not ask for it again.
        stripped = [label.strip() for _, label in candidates]
        texts = list(dict.fromkeys(stripped))
        score = functools.partial(active.score, question)
        first = score(texts[0])
        rest, failed = fanout.gather(active, score, texts[1:])
        if failed is not None:
            raise failed
        by_text = dict(zip(texts, [first, *rest]))
        scores = [by_text[text] for text in stripped]
    # Only the k kept become ScoredCandidates; negating a float is exact,
    # so each keeps its score bit for bit.
    best = heapq.nsmallest(k, [
        (-score, label, entity)
        for (entity, label), score in zip(candidates, scores)
    ])
    return [ScoredCandidate(entity, label, -negated)
            for negated, label, entity in best]
