"""Structural invariants that must hold on every trajectory.

These runs are driven by hostile responders (pure junk) and seeded
randomized responders that select from whatever the prompts offer, so
the planner is exercised far off the happy path.
"""

import json
import random
from collections import Counter

import pytest

from graphquest.kg.memory_store import InMemoryKG
from graphquest.llm.accounting import usage_total
from graphquest.llm.scripted import ResponderRule, ScriptedBackend
from graphquest.llm.types import (
    Completion,
    Usage,
    approximate_tokens,
)
from graphquest.planner.engine import Planner
from graphquest.planner.state import AblationFlags, PlannerConfig, Question
from graphquest.prompts import PromptLibrary
from graphquest.trace import RunTrace

from adversaries import (
    ANSWER_ANCHOR,
    BACKTRACK_ANCHOR,
    DECOMPOSE_ANCHOR,
    ENTITY_ANCHOR,
    MEMORY_ANCHOR,
    REFLECTION_ANCHOR,
    RELATION_ANCHOR,
    PromptAwareResponder,
    junk_backend,
)
from oracles import random_graph

PROMPTS = PromptLibrary()


def make_kg(triples, labels):
    kg = InMemoryKG(triples)
    for entity, label in labels.items():
        kg.add(entity, "type.object.name", label)
    return kg


MEMORY_UPDATE_KEYS = {"status", "paths", "tail_entities", "candidate_pool",
                      "warning"}


def check_invariants(result, config):
    """Assertions that hold for any run, no matter what the model said."""
    assert 1 <= result.iterations <= config.max_depth
    # paths stay linked, acyclic, and inside the depth budget
    for path in result.memory.paths:
        path.validate(max_length=config.max_depth)
    # one progress note per sub-objective, always
    assert len(result.memory.status) == len(result.sub_objectives)
    events = result.trace.events
    assert [e.seq for e in events] == list(range(len(events)))
    finals = [e for e in events if e.kind == "final"]
    assert len(finals) == 1 and events[-1] is finals[0]
    for event in events:
        # optional keys appear only when they carry something
        for key in ("warning", "dropped", "cycles"):
            if key in event.payload:
                assert event.payload[key], (event.kind, key)
    pool = result.candidate_pool
    no_memory = config.ablations.no_memory
    # the topics: the entities searched in iteration 1
    topics = {e.payload["entity"] for e in result.trace.iter_kind("kg_query")
              if e.iteration == 1 and e.payload["op"] == "relations"}
    # no labels event names a topic
    resolved = set(topics)
    for event in result.trace.iter_kind("kg_query"):
        if event.payload["op"] != "labels":
            continue
        named, unnamed = event.payload["labels"], event.payload.get(
            "fallback", [])
        assert named or unnamed
        for eid in unnamed:
            # an unnamed entity is shown by its id
            assert eid not in named
            if not no_memory:
                assert eid in pool
            assert pool.get(eid, eid) == eid
        # each entity is resolved and traced once per run
        ids = [*named, *unnamed]
        assert len(set(ids)) == len(ids)
        assert resolved.isdisjoint(ids)
        resolved.update(ids)
    # a spent hop is never searched again: once per run, or once per
    # iteration when memory is reset every iteration
    searched = [
        (e.iteration if no_memory else None, e.payload["entity"],
         e.payload["relation"], e.payload["direction"])
        for e in result.trace.iter_kind("kg_query")
        if e.payload["op"] == "entities"]
    assert len(searched) == len(set(searched))
    # each hop that found something is one group of its iteration's
    # entity prompt, however many paths end at its tail
    for event in result.trace.iter_kind("llm_call"):
        if event.payload["stage"].removesuffix("_retry") != \
                "entity_selection":
            continue
        triplets = PROMPTS.prompt_of(event).rsplit("\nTriplets: ", 1)[1]
        groups = Counter(
            (e.payload["relation"], e.payload["direction"])
            for e in result.trace.iter_kind("kg_query")
            if e.iteration == event.iteration
            and e.payload["op"] == "entities" and e.payload["count"])
        for (relation, direction), count in groups.items():
            marker = (f", {relation}, [" if direction == "outgoing"
                      else f"], {relation}, ")
            assert triplets.count(marker) == count, (event.iteration, marker)
    for event in result.trace.iter_kind("memory_update"):
        assert set(event.payload) <= MEMORY_UPDATE_KEYS
    for event in result.trace.iter_kind("llm_call"):
        assert event.usage is not None
        assert event.usage.input_tokens == \
            approximate_tokens(PROMPTS.prompt_of(event))
        assert event.usage.output_tokens == \
            approximate_tokens(event.payload["response"])
    breadth = config.ablations.fixed_breadth
    for event in result.trace.iter_kind("selection"):
        stage = event.payload.get("stage")
        if stage == "relations":
            assert set(event.payload["selected"]) <= \
                set(event.payload["candidates"])
        if stage in ("relations", "entities") and breadth is not None:
            assert len(event.payload["selected"]) <= breadth
    for event in result.trace.iter_kind("verdict"):
        if not event.payload["forced"]:
            # answer present exactly when the verdict claims sufficiency
            assert (event.payload["answer"] is not None) == \
                event.payload["sufficient"]
    # With memory on, the pool is the topics plus every id a labels event
    # names, and no memory_update lists it. Without memory it restarts
    # every iteration, so each memory_update lists it whole.
    named = set(topics)
    listed: list[str] = []
    for event in events:
        payload = event.payload
        if event.kind == "kg_query" and payload["op"] == "labels":
            named.update(payload["labels"], payload.get("fallback", ()))
        elif event.kind == "memory_update":
            assert ("candidate_pool" in payload) is no_memory
            listed = payload.get("candidate_pool", [])
            assert listed == sorted(set(listed))
        elif event.kind == "reflection":
            # the iteration's tails are its memory_update's tail_entities
            assert "candidate_pool" not in payload and "tails" not in payload
            # add is true exactly when some entity is re-opened
            assert payload["add"] is bool(payload["backtrack"])
            # a re-opened entity was in the pool before the reflection
            assert set(payload["backtrack"]) <= \
                (set(listed) if no_memory else named)
        elif event.kind == "selection" and payload["stage"] == "entities":
            assert "tails" not in payload
    if no_memory:
        assert listed == sorted(pool)
    else:
        assert named == set(pool)
    verdict = result.verdict
    if not verdict.forced:
        assert verdict.sufficient and verdict.answer


class TestJunkResponder:
    """A model that only talks garbage must never break termination."""

    @pytest.mark.parametrize("seed", range(5))
    def test_runs_full_depth_and_stops(self, panama_kg, panama_question,
                                       seed):
        config = PlannerConfig(max_depth=4)
        backend = junk_backend(random.Random(seed))
        result = Planner(panama_kg, backend, config).run(panama_question)
        check_invariants(result, config)
        assert result.iterations == 4
        assert result.verdict.forced is True
        assert result.verdict.sufficient is False
        assert result.memory.paths == [
            p for p in result.memory.paths if not p.steps
        ]  # nothing valid was ever selected, so no path ever grew

    @pytest.mark.parametrize("depth", [1, 2, 3, 5, 8])
    def test_call_budget_is_linear_in_depth(self, panama_kg, panama_question,
                                            depth):
        # iteration 1 issues two relation prompts (junk selections empty
        # the frontier), later iterations only update/evaluate/reflect:
        # calls = decompose + 5 + 3*(depth-1) + forced answer
        backend = junk_backend(random.Random(0))
        config = PlannerConfig(max_depth=depth)
        result = Planner(panama_kg, backend, config).run(panama_question)
        _, calls = usage_total(result.trace)
        assert calls == 3 * depth + 4
        assert result.iterations == depth

    def test_costs_monotone_in_depth(self, panama_kg, panama_question):
        backend = junk_backend(random.Random(1))
        totals = []
        for depth in (1, 2, 4, 6):
            result = Planner(panama_kg, backend,
                             PlannerConfig(max_depth=depth)).run(
                panama_question)
            usage, calls = usage_total(result.trace)
            totals.append((calls, usage.total_tokens))
        assert totals == sorted(totals)


class TestRandomizedTrajectories:
    @pytest.mark.parametrize("seed", range(20))
    def test_invariants_on_fixture_graph(self, panama_kg, panama_question,
                                         seed):
        responder = PromptAwareResponder(seed)
        config = PlannerConfig(max_depth=4)
        result = Planner(panama_kg, responder, config).run(panama_question)
        check_invariants(result, config)

    @pytest.mark.parametrize("seed", range(10))
    def test_invariants_on_random_graphs(self, seed):
        rng = random.Random(1000 + seed)
        triples, labels = random_graph(rng)
        kg = make_kg(triples, labels)
        entities = sorted(labels)
        topics = tuple((eid, labels[eid]) for eid in entities[:2])
        question = Question(f"How does {labels[entities[0]]} relate to "
                            f"{labels[entities[1]]}?", topics)
        responder = PromptAwareResponder(seed, sufficiency_rate=0.1,
                                        add_rate=0.5)
        config = PlannerConfig(max_depth=3)
        result = Planner(kg, responder, config).run(question)
        check_invariants(result, config)

    def test_breadth_one_cuts_relations_and_entities(self):
        # the Panama script never offers a choice that a cap of 1 would
        # cut; here the responder keeps ~70% of every offer, so it must
        config = PlannerConfig(max_depth=3,
                               ablations=AblationFlags(fixed_breadth=1))
        stages = {"relation_selection": "relations",
                  "entity_selection": "entities"}
        cuts = {"relations": 0, "entities": 0}
        for seed in range(8):
            rng = random.Random(3000 + seed)
            triples, labels = random_graph(rng)
            entities = sorted(labels)
            topics = tuple((eid, labels[eid]) for eid in entities[:2])
            question = Question(f"How does {labels[entities[0]]} relate "
                                f"to {labels[entities[1]]}?", topics)
            result = Planner(make_kg(triples, labels),
                             PromptAwareResponder(seed), config).run(question)
            check_invariants(result, config)
            asked = None  # (selection stage, reply) of the last selection call
            for event in result.trace.events:
                if event.kind == "llm_call":
                    stage = event.payload["stage"].removesuffix("_retry")
                    asked = (stages.get(stage), event.payload["response"])
                    continue
                stage = event.payload.get("stage")
                if event.kind != "selection" or stage not in cuts:
                    continue
                if asked is not None and asked[0] == stage:
                    listed = {name.strip() for name in json.loads(asked[1])}
                    if stage == "relations":
                        valid = listed & set(event.payload["candidates"])
                    else:
                        valid = listed - set(event.payload.get("dropped", ()))
                    cuts[stage] += len(valid) >= 2
                asked = None
        assert all(cuts.values()), cuts

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("flags", [
        AblationFlags(no_guidance=True),
        AblationFlags(no_memory=True),
        AblationFlags(no_reflection=True),
        AblationFlags(fixed_breadth=1),
        AblationFlags(fixed_breadth=2),
        AblationFlags(no_guidance=True, no_memory=True, no_reflection=True),
    ])
    def test_invariants_under_ablations(self, panama_kg, panama_question,
                                        seed, flags):
        responder = PromptAwareResponder(200 + seed)
        config = PlannerConfig(max_depth=3, ablations=flags)
        result = Planner(panama_kg, responder, config).run(panama_question)
        check_invariants(result, config)
        if flags.no_guidance:
            assert result.sub_objectives == (panama_question.text,)
        if flags.no_reflection:
            assert all(not e.payload["add"]
                       for e in result.trace.iter_kind("reflection"))

    @pytest.mark.parametrize("seed", range(6))
    def test_traces_round_trip_through_disk(self, tmp_path, panama_kg,
                                            panama_question, seed):
        responder = PromptAwareResponder(300 + seed)
        result = Planner(panama_kg, responder,
                         PlannerConfig(max_depth=3)).run(panama_question)
        path = tmp_path / f"run-{seed}.jsonl"
        result.trace.save(str(path))
        loaded = RunTrace.load(str(path))
        assert loaded.events == result.trace.events
        direct_usage, direct_calls = usage_total(result.trace)
        loaded_usage, loaded_calls = usage_total(loaded)
        assert (direct_usage, direct_calls) == (loaded_usage, loaded_calls)


class TestConvergingPaths:
    def test_each_hop_is_offered_once(self):
        # 12 entities and 480 triples: by the last iteration thousands of
        # paths end at each tail, so offering a hop once per path would
        # make the entity prompt megabytes long
        triples, labels = random_graph(random.Random(1), max_entities=40,
                                       max_relations=8, max_triples=800)
        topic = sorted(labels)[0]
        question = Question(f"What is {labels[topic]}?",
                            ((topic, labels[topic]),))
        responder = PromptAwareResponder(1, sufficiency_rate=0, add_rate=0.6,
                                        hallucination_rate=0,
                                        keep_fraction=0.7)
        config = PlannerConfig(max_depth=4)
        result = Planner(make_kg(triples, labels), responder,
                         config).run(question)
        check_invariants(result, config)
        assert len(result.memory.paths) == 89_368
        calls = list(result.trace.iter_kind("llm_call"))
        assert len(calls) == 50
        assert max(len(PROMPTS.prompt_of(e)) for e in calls
                   if e.payload["stage"] == "entity_selection") <= 16 * 1024


class TestLabelEvents:
    def test_one_labels_event_per_expansion_at_most(self):
        widest = 0  # the most ids one labels event resolved
        for seed in range(8):
            rng = random.Random(5000 + seed)
            triples, labels = random_graph(rng)
            entities = sorted(labels)
            # every fourth entity has no name, so fallbacks occur
            kg = make_kg(triples, {eid: labels[eid]
                                   for index, eid in enumerate(entities)
                                   if index % 4 != 3})
            topics = tuple((eid, labels[eid]) for eid in entities[:2])
            question = Question(f"How does {labels[entities[0]]} relate "
                                f"to {labels[entities[1]]}?", topics)
            config = PlannerConfig(max_depth=3)
            result = Planner(kg, PromptAwareResponder(seed),
                             config).run(question)
            check_invariants(result, config)  # no id in two labels events
            queries = [e.payload for e in result.trace.iter_kind("kg_query")]
            ops = [payload["op"] for payload in queries]
            assert "label" not in ops
            assert 0 < ops.count("labels") <= ops.count("entities")
            # every labels event comes right after its expansion's query
            assert all(before == "entities"
                       for before, op in zip(ops, ops[1:]) if op == "labels")
            widest = max([widest] + [
                len(p["labels"]) + len(p.get("fallback", ()))
                for p in queries if p["op"] == "labels"])
        assert widest >= 2  # some expansion met several new ids at once


class TestCycleGuard:
    def test_two_cycle_is_never_walked(self):
        kg = make_kg(
            [("m.0a", "test.loop.edge", "m.0b"),
             ("m.0b", "test.loop.edge", "m.0a")],
            {"m.0a": "Alpha", "m.0b": "Beta"},
        )
        backend = ScriptedBackend([
            ResponderRule(DECOMPOSE_ANCHOR, '["#1 walk the loop"]'),
            ResponderRule(RELATION_ANCHOR, '["test.loop.edge"]'),
            ResponderRule(ENTITY_ANCHOR, '["Alpha", "Beta"]'),
            ResponderRule(MEMORY_ANCHOR, '{"#1": "walking"}'),
            ResponderRule(ANSWER_ANCHOR,
                          '{"A": "insufficient", "R": "loop"}'),
            ResponderRule(REFLECTION_ANCHOR,
                          '{"Add": "No", "Reason": "keep walking"}'),
        ])
        config = PlannerConfig(max_depth=4)
        question = Question("Does the loop close?", (("m.0a", "Alpha"),))
        result = Planner(kg, backend, config).run(question)
        check_invariants(result, config)
        for path in result.memory.paths:
            entities = path.entities()
            assert len(set(entities)) == len(entities)
        blocked = [e for e in result.trace.iter_kind("selection")
                   if e.payload.get("cycles")]
        assert blocked, "the return hop should be recorded as blocked"
        assert blocked[0].payload["cycles"] == ["Alpha"]


class TestRecallTrigger:
    @staticmethod
    def wide_kg(fanout):
        triples = [("m.0hub", "test.wide.edge", f"m.0c{i:03d}")
                   for i in range(fanout)]
        labels = {f"m.0c{i:03d}": f"Candidate {i:03d}" for i in range(fanout)}
        labels["m.0hub"] = "Hub"
        labels["m.0c017"] = "Relevant Answer Thing"
        return make_kg(triples, labels)

    def base_rules(self):
        return [
            ResponderRule(DECOMPOSE_ANCHOR, '["#1 find the relevant thing"]'),
            ResponderRule(RELATION_ANCHOR, '["test.wide.edge"]'),
            ResponderRule(ENTITY_ANCHOR, '["Relevant Answer Thing"]'),
            ResponderRule(MEMORY_ANCHOR, '{"#1": "found it"}'),
            ResponderRule(ANSWER_ANCHOR,
                          '{"A": "Relevant Answer Thing", "R": "done"}'),
        ]

    def question(self):
        return Question("Where is the Relevant Answer Thing?",
                        (("m.0hub", "Hub"),))

    def test_oversized_candidate_set_is_ranked_and_cut(self):
        kg = self.wide_kg(35)  # exceeds the default threshold of 30
        planner = Planner(kg, ScriptedBackend(self.base_rules()))
        result = planner.run(self.question())
        recalls = [e for e in result.trace.iter_kind("selection")
                   if e.payload.get("stage") == "recall"]
        assert len(recalls) == 1
        assert recalls[0].payload["before"] == 35
        assert recalls[0].payload["after"] == 25  # default keep size
        prompt = next(PROMPTS.prompt_of(e)
                      for e in result.trace.iter_kind("llm_call")
                      if e.payload["stage"] == "entity_selection")
        # the question-relevant label survives the cut into the prompt
        assert "Relevant Answer Thing" in prompt
        assert prompt.count("Candidate ") == 24
        assert result.verdict.answer == "Relevant Answer Thing"
        # the pool keeps every retrieved candidate, not just the kept ones
        assert len(result.candidate_pool) == 36

    def test_under_threshold_set_is_untouched(self):
        kg = self.wide_kg(30)  # exactly at the threshold: no ranking
        planner = Planner(kg, ScriptedBackend(self.base_rules()))
        result = planner.run(self.question())
        recalls = [e for e in result.trace.iter_kind("selection")
                   if e.payload.get("stage") == "recall"]
        assert recalls == []
        prompt = next(PROMPTS.prompt_of(e)
                      for e in result.trace.iter_kind("llm_call")
                      if e.payload["stage"] == "entity_selection")
        assert prompt.count("Candidate ") == 29


class TestBreadthCap:
    def test_validation_happens_before_truncation(self):
        kg = make_kg(
            [("m.0hub", "test.rel.a", "m.0x1"),
             ("m.0hub", "test.rel.b", "m.0x2"),
             ("m.0hub", "test.rel.c", "m.0x3")],
            {"m.0hub": "Hub", "m.0x1": "One", "m.0x2": "Two",
             "m.0x3": "Three"},
        )
        backend = ScriptedBackend([
            ResponderRule(DECOMPOSE_ANCHOR, '["#1 pick"]'),
            # junk and a repeat first: both must be discarded before the
            # cap is applied, so the two real picks both survive
            ResponderRule(RELATION_ANCHOR,
                          '["not.a.relation", "test.rel.c", "test.rel.c", '
                          '"test.rel.a"]'),
            ResponderRule(ENTITY_ANCHOR, '["Three", "One"]'),
            ResponderRule(MEMORY_ANCHOR, '{"#1": "picked"}'),
            ResponderRule(ANSWER_ANCHOR, '{"A": "Three", "R": "done"}'),
        ])
        config = PlannerConfig(
            ablations=AblationFlags(fixed_breadth=2))
        question = Question("Pick things from the hub?", (("m.0hub", "Hub"),))
        result = Planner(kg, backend, config).run(question)
        selection = next(e for e in result.trace.iter_kind("selection")
                         if e.payload.get("stage") == "relations")
        assert selection.payload["selected"] == ["test.rel.c", "test.rel.a"]
        assert selection.payload["dropped"] == ["not.a.relation"]
        entity_pick = next(e for e in result.trace.iter_kind("selection")
                           if e.payload.get("stage") == "entities")
        assert entity_pick.payload["selected"] == ["Three", "One"]


class FlipFlopBackend:
    """First answer per stage is garbage, the retry succeeds."""

    def __init__(self, stage_rules, garbage_stages):
        self.stage_rules = stage_rules  # anchor -> good response
        self.garbage_stages = set(garbage_stages)  # anchors answered badly once
        self.seen: dict[str, int] = {}

    def complete(self, prompt, config):
        for anchor, good in self.stage_rules.items():
            if anchor in prompt:
                count = self.seen.get(anchor, 0)
                self.seen[anchor] = count + 1
                if anchor in self.garbage_stages and count == 0:
                    text = "sorry, I cannot produce structured output"
                else:
                    text = good
                return Completion(text, Usage(approximate_tokens(prompt),
                                              approximate_tokens(text)))
        raise AssertionError(f"unmatched prompt: {prompt[:80]!r}")


SOLO_RULES = {
    DECOMPOSE_ANCHOR: '["#1 find the linked thing"]',
    RELATION_ANCHOR: '["test.rel.only"]',
    ENTITY_ANCHOR: '["Target"]',
    MEMORY_ANCHOR: '{"#1": "the link is known"}',
    ANSWER_ANCHOR: '{"A": "Target", "R": "linked directly"}',
    REFLECTION_ANCHOR: '{"Add": "No", "Reason": "done"}',
    BACKTRACK_ANCHOR: '[]',
}


def solo_kg():
    return make_kg([("m.0s", "test.rel.only", "m.0t")],
                   {"m.0s": "Solo", "m.0t": "Target"})


def solo_question():
    return Question("What is linked to Solo?", (("m.0s", "Solo"),))


class TestParseRecovery:
    def test_retry_salvages_a_bad_first_response(self):
        backend = FlipFlopBackend(SOLO_RULES, {DECOMPOSE_ANCHOR})
        result = Planner(solo_kg(), backend).run(solo_question())
        assert result.verdict.answer == "Target"
        stage_list = [e.payload["stage"]
                      for e in result.trace.iter_kind("llm_call")]
        assert stage_list[:2] == ["decompose", "decompose_retry"]
        first_selection = next(result.trace.iter_kind("selection"))
        assert "first response unparseable" in first_selection.payload["warning"]
        assert first_selection.payload["selected"] == \
            ["#1 find the linked thing"]

    def test_decompose_degrades_to_question_text(self):
        rules = dict(SOLO_RULES)
        rules[DECOMPOSE_ANCHOR] = "still not a list"
        backend = FlipFlopBackend(rules, set())
        result = Planner(solo_kg(), backend).run(solo_question())
        assert result.sub_objectives == (solo_question().text,)
        first_selection = next(result.trace.iter_kind("selection"))
        assert "unparseable after retry" in first_selection.payload["warning"]
        assert result.verdict.answer == "Target"  # run still completes

    def test_relation_garbage_empties_the_frontier(self):
        rules = dict(SOLO_RULES)
        rules[RELATION_ANCHOR] = "I refuse"
        backend = FlipFlopBackend(rules, set())
        config = PlannerConfig(max_depth=2)
        result = Planner(solo_kg(), backend, config).run(solo_question())
        relation_events = [e for e in result.trace.iter_kind("selection")
                           if e.payload.get("stage") == "relations"]
        assert relation_events[0].payload["selected"] == []
        assert "unparseable after retry" in \
            relation_events[0].payload["warning"]
        assert not any(e.payload["stage"] == "entity_selection"
                       for e in result.trace.iter_kind("llm_call"))

    def test_memory_garbage_keeps_previous_status(self):
        rules = dict(SOLO_RULES)
        rules[MEMORY_ANCHOR] = "no json for you"
        backend = FlipFlopBackend(rules, set())
        result = Planner(solo_kg(), backend).run(solo_question())
        update = next(result.trace.iter_kind("memory_update"))
        assert update.payload["status"] == ["unknown"]  # untouched
        assert "unparseable after retry" in update.payload["warning"]
        assert result.verdict.answer == "Target"

    def test_evaluate_garbage_counts_as_insufficient(self):
        rules = dict(SOLO_RULES)
        rules[ANSWER_ANCHOR] = "plain words"
        backend = FlipFlopBackend(rules, set())
        config = PlannerConfig(max_depth=2)
        result = Planner(solo_kg(), backend, config).run(solo_question())
        assert result.verdict.forced is True
        assert result.verdict.answer is None
        for event in result.trace.iter_kind("verdict"):
            assert event.payload["sufficient"] is False
            assert event.payload["reason"] == \
                "evaluation response unparseable"

    def test_reflection_garbage_means_no_backtrack(self):
        rules = dict(SOLO_RULES)
        rules[ANSWER_ANCHOR] = '{"A": "insufficient", "R": "not yet"}'
        rules[REFLECTION_ANCHOR] = "hmm"
        backend = FlipFlopBackend(rules, set())
        config = PlannerConfig(max_depth=2)
        result = Planner(solo_kg(), backend, config).run(solo_question())
        for event in result.trace.iter_kind("reflection"):
            assert event.payload["add"] is False
            assert "unparseable" in event.payload["warning"]

    def test_a_reply_nested_too_deep_is_retried_not_fatal(self):
        rules = dict(SOLO_RULES)
        rules[MEMORY_ANCHOR] = '{"#1":' * 3000 + '"x"' + "}" * 3000
        backend = FlipFlopBackend(rules, set())
        result = Planner(solo_kg(), backend).run(solo_question())
        stages = [e.payload["stage"]
                  for e in result.trace.iter_kind("llm_call")]
        assert stages.count("memory_update_retry") == 1
        update = next(result.trace.iter_kind("memory_update"))
        assert "unparseable after retry" in update.payload["warning"]
        assert result.verdict.answer == "Target"

    def test_unrecognized_add_value_is_treated_as_no(self):
        rules = dict(SOLO_RULES)
        rules[ANSWER_ANCHOR] = '{"A": "insufficient", "R": "not yet"}'
        rules[REFLECTION_ANCHOR] = '{"Add": "perhaps", "Reason": "unsure"}'
        backend = FlipFlopBackend(rules, set())
        config = PlannerConfig(max_depth=1)
        result = Planner(solo_kg(), backend, config).run(solo_question())
        event = next(result.trace.iter_kind("reflection"))
        assert event.payload["add"] is False
        assert "unrecognized Add value" in event.payload["warning"]


class TestBacktrackValidation:
    def test_current_tails_and_unknown_names_are_dropped(self):
        kg = make_kg(
            [("m.0a", "test.rel.one", "m.0b")],
            {"m.0a": "Aye", "m.0b": "Bee", "m.0c": "Cee"},
        )
        backend = ScriptedBackend([
            ResponderRule(DECOMPOSE_ANCHOR, '["#1 look around"]'),
            ResponderRule(RELATION_ANCHOR, '["test.rel.one"]'),
            ResponderRule(ENTITY_ANCHOR, '["Bee"]'),
            ResponderRule(MEMORY_ANCHOR, '{"#1": "saw Bee"}'),
            ResponderRule(ANSWER_ANCHOR,
                          '{"A": "insufficient", "R": "need more"}'),
            ResponderRule(REFLECTION_ANCHOR,
                          '{"Add": "Yes", "Reason": "check elsewhere"}'),
            ResponderRule(BACKTRACK_ANCHOR, '["Bee", "Ghost", "Cee"]'),
        ])
        config = PlannerConfig(max_depth=1)
        question = Question("What is around Aye and Cee?",
                            (("m.0a", "Aye"), ("m.0c", "Cee")))
        result = Planner(kg, backend, config).run(question)
        event = next(e for e in result.trace.iter_kind("reflection"))
        # Bee is already on the frontier; Ghost was never seen; Cee is a
        # topic entity sitting in the pool but Cee IS on the frontier?
        # no: after the hop the frontier is [Bee] only, so Cee is eligible
        assert event.payload["backtrack"] == ["m.0c"]
        assert sorted(event.payload["dropped"]) == ["Bee", "Ghost"]

    def test_all_invalid_names_withdraw_the_backtrack(self):
        rules = dict(SOLO_RULES)
        rules[ANSWER_ANCHOR] = '{"A": "insufficient", "R": "not yet"}'
        rules[REFLECTION_ANCHOR] = '{"Add": "Yes", "Reason": "go back"}'
        rules[BACKTRACK_ANCHOR] = '["Nobody", "Nothing"]'
        backend = FlipFlopBackend(rules, set())
        config = PlannerConfig(max_depth=1)
        result = Planner(solo_kg(), backend, config).run(solo_question())
        event = next(result.trace.iter_kind("reflection"))
        assert event.payload["add"] is False
        assert event.payload["backtrack"] == []
        assert "add withdrawn" in event.payload["warning"]

    def test_backtrack_by_raw_entity_id(self):
        rules = dict(SOLO_RULES)
        rules[ANSWER_ANCHOR] = '{"A": "insufficient", "R": "not yet"}'
        rules[REFLECTION_ANCHOR] = '{"Add": "Yes", "Reason": "revisit"}'
        rules[BACKTRACK_ANCHOR] = '["m.0s"]'  # id instead of label
        backend = FlipFlopBackend(rules, set())
        config = PlannerConfig(max_depth=1)
        result = Planner(solo_kg(), backend, config).run(solo_question())
        event = next(result.trace.iter_kind("reflection"))
        assert event.payload["backtrack"] == ["m.0s"]


class TestStatusIndexing:
    def test_extra_and_malformed_keys_are_ignored(self):
        rules = dict(SOLO_RULES)
        rules[DECOMPOSE_ANCHOR] = '["#1 first", "#2 second"]'
        rules[MEMORY_ANCHOR] = json.dumps({
            "#2": "note for the second objective",
            "#9": "out of range, dropped",
            "no-digit": "dropped too",
        })
        backend = FlipFlopBackend(rules, set())
        result = Planner(solo_kg(), backend).run(solo_question())
        update = next(result.trace.iter_kind("memory_update"))
        assert update.payload["status"] == [
            "unknown", "note for the second objective",
        ]
