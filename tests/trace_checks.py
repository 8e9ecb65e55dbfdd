"""What a run's trace must hold, whatever the model said, read from the
trace alone: the sub-objectives, the candidate pool and what each stage
offered the model are all read from its events. Only the memory paths,
which no event holds, are passed in by a caller that has them."""

import json
from collections import Counter

from graphquest.llm.types import approximate_tokens
from graphquest.prompts import PromptLibrary

MEMORY_UPDATE_KEYS = {"status", "paths", "tail_entities", "candidate_pool",
                      "warning"}


def stable_lines(trace) -> list[str]:
    """Serialized events with the wall-clock reading zeroed out."""
    lines = [event.to_json() for event in trace.events]
    final = json.loads(lines[-1])
    final["payload"]["elapsed_seconds"] = 0.0
    lines[-1] = json.dumps(final, sort_keys=True, ensure_ascii=False)
    return lines


def sub_objectives(trace) -> list[str]:
    """The sub-objectives the run's decompose selection settled on."""
    return next(event.payload["selected"]
                for event in trace.iter_kind("selection")
                if event.payload["stage"] == "decompose")


def candidate_pool(trace, topics, seq=None) -> dict[str, str]:
    """id -> label of the candidate pool as it stood at event `seq` (by
    default, once the run ended): the topic entities `topics` and every
    id a labels event named before it, an unnamed one labelled by its id.
    A run that lists its pool in each memory_update (no_memory) restarts
    it every iteration, so there it is the last listing's ids."""
    labels = dict(topics)
    listed = None
    for event in trace.events[:seq]:
        payload = event.payload
        if event.kind == "kg_query" and payload["op"] == "labels":
            labels.update(payload["labels"])
            labels.update((eid, eid) for eid in payload.get("fallback", ()))
        elif event.kind == "memory_update" and "candidate_pool" in payload:
            listed = payload["candidate_pool"]
    return labels if listed is None else {eid: labels[eid] for eid in listed}


def check_invariants(trace, config, question, memory=None):
    """Assertions that hold for any finished run of `question` under
    `config`; `memory`, the run's, adds the checks of its paths."""
    events = trace.events
    assert [e.seq for e in events] == list(range(len(events)))
    final = events[-1]
    assert [e for e in events if e.kind == "final"] == [final]
    assert 1 <= final.payload["iterations"] == final.iteration \
        <= config.max_depth
    if not final.payload["forced"]:
        assert final.payload["sufficient"] and final.payload["answer"]
    if memory is not None:
        # paths stay linked, acyclic, and inside the depth budget
        for path in memory.paths:
            path.validate(max_length=config.max_depth)
    topics = dict(question.topic_entities)
    # each entity is labelled and traced once per run, and no topic is
    resolved = set(topics)
    for event in trace.iter_kind("kg_query"):
        if event.payload["op"] != "labels":
            continue
        ids = [*event.payload["labels"], *event.payload.get("fallback", ())]
        assert ids
        assert len(set(ids)) == len(ids)
        assert resolved.isdisjoint(ids)
        resolved.update(ids)
    no_memory = config.ablations.no_memory
    # a spent hop is never searched again: once per run, or once per
    # iteration when memory is reset every iteration
    searched = [
        (e.iteration if no_memory else None, e.payload["entity"],
         e.payload["relation"], e.payload["direction"])
        for e in trace.iter_kind("kg_query")
        if e.payload["op"] == "entities"]
    assert len(searched) == len(set(searched))
    for event in trace.iter_kind("llm_call"):
        prompt = PromptLibrary.prompt_of(event)
        assert event.usage is not None
        assert event.usage.input_tokens == approximate_tokens(prompt)
        assert event.usage.output_tokens == \
            approximate_tokens(event.payload["response"])
        stage = event.payload["stage"].removesuffix("_retry")
        if stage == "entity_selection":
            # each hop that found something is one group of its
            # iteration's entity prompt, however many paths end at its tail
            triplets = prompt.rsplit("\nTriplets: ", 1)[1]
            groups = Counter(
                (e.payload["relation"], e.payload["direction"])
                for e in trace.iter_kind("kg_query")
                if e.iteration == event.iteration
                and e.payload["op"] == "entities" and e.payload["count"])
            for (relation, direction), count in groups.items():
                marker = (f", {relation}, [" if direction == "outgoing"
                          else f"], {relation}, ")
                assert triplets.count(marker) == count, \
                    (event.iteration, marker)
        elif stage == "backtrack_selection":
            # the model is offered each label of the pool once
            pool = candidate_pool(trace, topics, event.seq)
            assert json.loads(event.payload["slots"]["candidates"]) == \
                sorted(set(pool.values())), event.seq
    breadth = config.ablations.fixed_breadth
    objectives = sub_objectives(trace)
    for event in events:
        payload = event.payload
        # optional keys appear only when they carry something
        for key in ("warning", "dropped", "cycles"):
            if key in payload:
                assert payload[key], (event.kind, key)
        if event.kind == "selection":
            if payload["stage"] == "relations":
                assert set(payload["selected"]) <= set(payload["candidates"])
            if payload["stage"] in ("relations", "entities") \
                    and breadth is not None:
                assert len(payload["selected"]) <= breadth
            assert "tails" not in payload
        elif event.kind == "memory_update":
            assert set(payload) <= MEMORY_UPDATE_KEYS
            # one progress note per sub-objective, always
            assert len(payload["status"]) == len(objectives)
            # only a no_memory run lists its pool, sorted
            assert ("candidate_pool" in payload) is no_memory
            listed = payload.get("candidate_pool", [])
            assert listed == sorted(set(listed))
        elif event.kind == "verdict" and not payload["forced"]:
            # answer present exactly when the verdict claims sufficiency
            assert (payload["answer"] is not None) == payload["sufficient"]
        elif event.kind == "reflection":
            # the iteration's tails are its memory_update's tail_entities
            assert "candidate_pool" not in payload and "tails" not in payload
            # add is true exactly when some entity is re-opened
            assert payload["add"] is bool(payload["backtrack"])
            # a re-opened entity was in the pool before the reflection
            assert set(payload["backtrack"]) <= \
                set(candidate_pool(trace, topics, event.seq))
