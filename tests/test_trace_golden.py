"""Golden trace digests: the serialized events of fixed runs, pinned.

Criterion 1 compares a run with a rerun of the same code, so it cannot
tell whether a refactor kept the trace bytes. Each group below hashes
the stable lines of its runs (every event serialized, with the final
event's ``elapsed_seconds`` zeroed) with sha256 and compares the digest
and the event count with the values committed here. A change that is
meant to keep behaviour must keep every digest; a change that is meant
to alter traces must update the digests and say why.

Each group is hashed three times: as stored (GOLDEN), rendered
(RENDERED), with every ``llm_call`` rebuilt as ``{"stage", "prompt",
"response"}``, the payload traces held before calls were stored as
template and slots, and as saved (SAVED): the bytes `RunTrace.save`
writes for each run, in which a repeated slot text is a ``{"seq": N}``
reference, with the final event's ``elapsed_seconds`` zeroed. Each saved
file must load back to the events saved, state each slot text once, and
refer back only to the line that holds the text. A change to how a file
is written moves SAVED only; a change to how calls are stored moves
GOLDEN and SAVED; a change to what the model is asked moves all three.
The random-graph group also pins a short digest of each sweep seed's
stored and rendered views in ``tests/fixtures/``, so that a mismatch
names its seed; ``python tests/test_trace_golden.py`` prints
that file's lines for the code as it is.

Each group also runs through a planner whose graph, model, scorer and
prompts are wrapped in objects that forward only the protocol methods,
as a profiler's proxies would be: its traces must match the same tables.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from graphquest.harness.datasets import load_dataset
from graphquest.planner.engine import Planner
from graphquest.planner.state import AblationFlags, PlannerConfig, Question
from graphquest.prompts import PromptLibrary
from graphquest.recall import RecallConfig, TrigramScorer
from graphquest.trace import RunTrace

from adversaries import PromptAwareResponder
from cases import FIXTURES
from oracles import random_case
from trace_checks import stable_lines

# group -> (event count, sha256 of the stable lines joined by newlines)
GOLDEN = {
    "panama-default": (
        53, "856e3aec7b4e82510df49852389dfa6f256cdad1de4af88c482820376d7bda70"),
    "panama-no_guidance": (
        52, "4ff0cf12facb69e98b42f9265e13969258bd915d0df098c15274ef997f4ac2b6"),
    "panama-no_memory": (
        53, "0367ff62ff06dfd6a7f9241042415255a1401bb36458870359d396a4fac1fa61"),
    "panama-no_reflection": (
        50, "54d4882ebd38c39cfe1edeb75e04c35125e5d93dc6d05ba52c2e4bdd1ce9ab2e"),
    "panama-fixed_breadth=1": (
        53, "856e3aec7b4e82510df49852389dfa6f256cdad1de4af88c482820376d7bda70"),
    "capitals": (
        60, "f92075e148a1bde38c0784bfd29a4a8c1066ffd2565337aed4f686a271c1e9eb"),
    "random-graph": (
        29046, "645f1d2751525b3e094eb7df40a1db2b68eaa3eb82ce31d9bc94fa4bd99aab90"),
}

# group -> (event count, sha256 of the rendered stable lines), pinned
# before calls were stored as template and slots, when these were the
# stored digests
RENDERED = {
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

# group -> (event count, sha256 of the saved files' bytes, one file per
# run, in run order)
SAVED = {
    "panama-default": (
        53, "fe41595cc85c0c2ccdc72c83cc2e006821e91f7ec206df43851b262625f9891d"),
    "panama-no_guidance": (
        52, "f443e08d728f4f83b06e227d1120f3449857c04c31e24a6e77baffbee4cddeda"),
    "panama-no_memory": (
        53, "45faaee072544f3374a14b5d9043b74178c689310cd095844282bf1f2acf45df"),
    "panama-no_reflection": (
        50, "c194068d0cf180f7948d1e4a223c133fc9a945cfbd56fc0fad57652bff04f745"),
    "panama-fixed_breadth=1": (
        53, "fe41595cc85c0c2ccdc72c83cc2e006821e91f7ec206df43851b262625f9891d"),
    "capitals": (
        60, "054b01fd4d70312c7a2ef89e9238eb3502acf4f02d2f1b77d496d2e760b138b0"),
    "random-graph": (
        29046, "9e5b7973a09839b2949825ef97b579e4300e4260bbd8169f27ce908de67239eb"),
}

# one line per sweep seed (0 to SWEEP_SEEDS - 1): the seed, then the first
# 16 hex characters of the digests of its stored and of its rendered
# stable lines
SEED_DIGESTS = FIXTURES / "random_graph_digests.txt"

PANAMA_FLAGS = {
    "panama-default": AblationFlags(),
    "panama-no_guidance": AblationFlags(no_guidance=True),
    "panama-no_memory": AblationFlags(no_memory=True),
    "panama-no_reflection": AblationFlags(no_reflection=True),
    "panama-fixed_breadth=1": AblationFlags(fixed_breadth=1),
}

SWEEP_SEEDS = 240


LIBRARY = PromptLibrary()


def _rendered(trace: RunTrace) -> RunTrace:
    """The trace with each llm_call's prompt rebuilt in its payload."""
    return RunTrace([
        dataclasses.replace(event, payload={
            "stage": event.payload["stage"],
            "prompt": LIBRARY.prompt_of(event),
            "response": event.payload["response"],
        }) if event.kind == "llm_call" else event
        for event in trace.events])


def _digest(traces) -> tuple[int, str]:
    lines = [line for trace in traces for line in stable_lines(trace)]
    blob = "\n".join(lines).encode("utf-8")
    return len(lines), hashlib.sha256(blob).hexdigest()


def _saved(trace: RunTrace, path) -> bytes:
    """The bytes `trace` saves to `path`, with the final event's
    ``elapsed_seconds`` zeroed, checked to load back to the events saved,
    to hold each (slot, text) once, and to refer only back to that line."""
    final = trace.events[-1]
    trace = RunTrace([*trace.events[:-1], dataclasses.replace(
        final, payload={**final.payload, "elapsed_seconds": 0.0})])
    trace.save(str(path))
    loaded = RunTrace.load(str(path)).events
    assert loaded == trace.events
    data = path.read_bytes()
    # (slot, text) -> the seq of the one line that holds the text
    holders: dict[tuple[str, str], int] = {}
    for line, event in zip(data.splitlines(), loaded):
        if event.kind != "llm_call":
            continue
        for slot, value in json.loads(line)["payload"]["slots"].items():
            key = (slot, event.payload["slots"][slot])
            if isinstance(value, str):
                assert key not in holders, f"{key!r} saved twice"
                holders[key] = event.seq
            else:
                assert value == {"seq": holders[key]}, (event.seq, slot)
    return data


def _check(group: str, traces, tmp_path) -> None:
    observed = _digest(traces)
    assert observed == GOLDEN[group], (
        f"{group}: observed (events, digest) = {observed!r}, "
        f"committed {GOLDEN[group]!r}")
    rendered = _digest(map(_rendered, traces))
    assert rendered == RENDERED[group], (
        f"{group}: rendered (events, digest) = {rendered!r}, "
        f"committed {RENDERED[group]!r}")
    path = tmp_path / "trace.jsonl"
    saved = [_saved(trace, path) for trace in traces]
    observed = (sum(data.count(b"\n") for data in saved),
                hashlib.sha256(b"".join(saved)).hexdigest())
    assert observed == SAVED[group], (
        f"{group}: saved (events, digest) = {observed!r}, "
        f"committed {SAVED[group]!r}")


def _seed_line(seed: int, trace: RunTrace) -> str:
    return " ".join([str(seed)] + [_digest([view])[1][:16]
                                   for view in (trace, _rendered(trace))])


class _ForwardingKG:
    """The graph's protocol methods only: no `waits_on_network`."""

    def __init__(self, kg):
        self._kg = kg

    def search_relations(self, entity, direction):
        return self._kg.search_relations(entity, direction)

    def search_entities(self, entity, relation, direction):
        return self._kg.search_entities(entity, relation, direction)

    def resolve_label(self, entity):
        return self._kg.resolve_label(entity)


class _ForwardingLLM:
    def __init__(self, llm):
        self._llm = llm

    def complete(self, prompt, config):
        return self._llm.complete(prompt, config)


class _ForwardingScorer:
    """`score` only: no batch `scores`."""

    def __init__(self, scorer):
        self._scorer = scorer

    def score(self, question, label):
        return self._scorer.score(question, label)


class _ForwardingPrompts:
    """`render` only: no `digest`."""

    def __init__(self, prompts):
        self._prompts = prompts

    def render(self, template_id, **bindings):
        return self._prompts.render(template_id, **bindings)


def _wrapped_planner(kg, llm, config=None) -> Planner:
    """A planner like `Planner(kg, llm, config)`, whose graph, model,
    scorer and prompts are each wrapped in a forwarding object."""
    return Planner(_ForwardingKG(kg), _ForwardingLLM(llm), config,
                   scorer=_ForwardingScorer(TrigramScorer()),
                   prompts=_ForwardingPrompts(LIBRARY))


def _sweep_traces(make=Planner):
    """Random graphs on which recall, backtracking, hallucinated names
    and label fallbacks all occur: every fourth entity has no name."""
    config = PlannerConfig(max_depth=3,
                           recall=RecallConfig(threshold=3, k=2))
    for seed in range(SWEEP_SEEDS):
        kg, question = random_case(80_000 + seed, unnamed=True)
        yield make(kg, PromptAwareResponder(seed), config).run(
            question).trace


def _check_panama(group, make, kg, llm, question, tmp_path):
    config = PlannerConfig(ablations=PANAMA_FLAGS[group])
    _check(group, [make(kg, llm, config).run(question).trace], tmp_path)


def _check_capitals(make, kg, llm, tmp_path):
    records = load_dataset(str(FIXTURES / "capitals_dataset.json"))
    planner = make(kg, llm)
    traces = [planner.run(Question(r.question, r.topic_entities)).trace
              for r in records]
    _check("capitals", traces, tmp_path)


@pytest.mark.parametrize("group", sorted(PANAMA_FLAGS))
def test_panama_digest(group, panama_kg, panama_llm, panama_question,
                       tmp_path):
    _check_panama(group, Planner, panama_kg, panama_llm, panama_question,
                  tmp_path)


@pytest.mark.parametrize("group", sorted(PANAMA_FLAGS))
def test_panama_digest_through_forwarding_wrappers(
        group, panama_kg, panama_llm, panama_question, tmp_path):
    _check_panama(group, _wrapped_planner, panama_kg, panama_llm,
                  panama_question, tmp_path)


def test_capitals_digest(capitals_kg, capitals_llm, tmp_path):
    _check_capitals(Planner, capitals_kg, capitals_llm, tmp_path)


def test_capitals_digest_through_forwarding_wrappers(capitals_kg,
                                                     capitals_llm, tmp_path):
    _check_capitals(_wrapped_planner, capitals_kg, capitals_llm, tmp_path)


def test_random_graph_digest_through_forwarding_wrappers(tmp_path):
    _check("random-graph", list(_sweep_traces(_wrapped_planner)), tmp_path)


def test_random_graph_digest(tmp_path):
    traces = list(_sweep_traces())
    committed = SEED_DIGESTS.read_text(encoding="utf-8").splitlines()
    observed = [_seed_line(seed, trace) for seed, trace in enumerate(traces)]
    assert len(observed) == len(committed)
    differing = [line.split()[0] for line, pinned in zip(observed, committed)
                 if line != pinned]
    assert not differing, (f"sweep seeds whose traces differ from "
                           f"{SEED_DIGESTS.name}: {differing}")
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
    _check("random-graph", traces, tmp_path)


if __name__ == "__main__":
    for seed, trace in enumerate(_sweep_traces()):
        print(_seed_line(seed, trace))
