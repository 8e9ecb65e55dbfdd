"""Golden trace digests: the serialized events of fixed runs, pinned.

Criterion 1 compares a run with a rerun of the same code, so it cannot
tell whether a refactor kept the trace bytes. Each group below hashes
the stable lines of its runs (every event serialized, with the final
event's ``elapsed_seconds`` zeroed) with sha256 and compares the digest
and the event count with the values committed here. A change that is
meant to keep behaviour must keep every digest; a change that is meant
to alter traces must update the digests and say why.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from graphquest.harness.datasets import load_dataset
from graphquest.planner.engine import Planner
from graphquest.planner.state import AblationFlags, PlannerConfig, Question
from graphquest.recall import RecallConfig

from adversaries import PromptAwareResponder
from conftest import FIXTURES
from oracles import random_graph
from test_acceptance import _stable_lines
from test_engine_properties import make_kg

# group -> (event count, sha256 of the stable lines joined by newlines)
GOLDEN = {
    "panama-default": (
        53, "a681ad7f4cc6668200838f4d7c1fe34f9a80b1269b8c28b149022a578de0693a"),
    "panama-no_guidance": (
        52, "62458f30a3aa6db4f53b5e93b939a52c6f91e4bd6863c99ff6c2f332decd7ddf"),
    "panama-no_memory": (
        53, "33d0536f1d4e1a7e2edbfa1a2914543aae15d7c1a1313dedae1e5efe82bc7095"),
    "panama-no_reflection": (
        50, "ffcc46126f1e9bf1a18c9707e52e973b9675f2fde3e24a5bb52944187027249a"),
    "panama-fixed_breadth=1": (
        53, "a681ad7f4cc6668200838f4d7c1fe34f9a80b1269b8c28b149022a578de0693a"),
    "capitals": (
        60, "7a2b411e8c7130116e142cd49bff841eb2a2222d95cc5682d0bdf77c0db094d9"),
    "random-graph": (
        29046, "934a8447df3c66c675723a3fc01cc46b92489bedbb2715fbbdb0f94922079afc"),
}

PANAMA_FLAGS = {
    "panama-default": AblationFlags(),
    "panama-no_guidance": AblationFlags(no_guidance=True),
    "panama-no_memory": AblationFlags(no_memory=True),
    "panama-no_reflection": AblationFlags(no_reflection=True),
    "panama-fixed_breadth=1": AblationFlags(fixed_breadth=1),
}

SWEEP_SEEDS = 240


def _digest(traces) -> tuple[int, str]:
    lines = [line for trace in traces for line in _stable_lines(trace)]
    blob = "\n".join(lines).encode("utf-8")
    return len(lines), hashlib.sha256(blob).hexdigest()


def _check(group: str, traces) -> None:
    observed = _digest(traces)
    assert observed == GOLDEN[group], (
        f"{group}: observed (events, digest) = {observed!r}, "
        f"committed {GOLDEN[group]!r}")


def _sweep_traces():
    """Random graphs on which recall, backtracking, hallucinated names
    and label fallbacks all occur: every fourth entity has no name."""
    config = PlannerConfig(max_depth=3,
                           recall=RecallConfig(threshold=3, k=2))
    for seed in range(SWEEP_SEEDS):
        rng = random.Random(80_000 + seed)
        triples, labels = random_graph(rng)
        entities = sorted(labels)
        kg = make_kg(triples, {eid: labels[eid]
                               for index, eid in enumerate(entities)
                               if index % 4 != 3})
        topics = tuple((eid, labels[eid]) for eid in entities[:2])
        question = Question(
            f"How does {labels[entities[0]]} relate to "
            f"{labels[entities[1]]}?", topics)
        yield Planner(kg, PromptAwareResponder(seed), config).run(
            question).trace


@pytest.mark.parametrize("group", sorted(PANAMA_FLAGS))
def test_panama_digest(group, panama_kg, panama_llm, panama_question):
    config = PlannerConfig(ablations=PANAMA_FLAGS[group])
    result = Planner(panama_kg, panama_llm, config).run(panama_question)
    _check(group, [result.trace])


def test_capitals_digest(capitals_kg, capitals_llm):
    records = load_dataset(str(FIXTURES / "capitals_dataset.json"))
    planner = Planner(capitals_kg, capitals_llm)
    traces = [planner.run(Question(r.question, r.topic_entities)).trace
              for r in records]
    _check("capitals", traces)


def test_random_graph_digest():
    traces = list(_sweep_traces())
    census = {"recall": 0, "backtrack": 0, "dropped": 0, "fallback": 0}
    for trace in traces:
        for event in trace.events:
            payload = event.payload
            census["recall"] += payload.get("stage") == "recall"
            census["backtrack"] += bool(event.kind == "reflection"
                                        and payload.get("backtrack"))
            census["dropped"] += "dropped" in payload
            census["fallback"] += bool(payload.get("fallback"))
    assert all(census.values()), census
    _check("random-graph", traces)
