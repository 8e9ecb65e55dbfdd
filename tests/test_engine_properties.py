"""Structural invariants that must hold on every trajectory.

These runs are driven by hostile responders (pure junk) and seeded
randomized responders that select from whatever the prompts offer, so
the planner is exercised far off the happy path.
"""

import json
import random

import pytest

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
from cases import make_kg
from oracles import random_case, random_graph
from trace_checks import candidate_pool, check_invariants, sub_objectives

PROMPTS = PromptLibrary()


class TestJunkResponder:
    """A model that only talks garbage must never break termination."""

    @pytest.mark.parametrize("seed", range(5))
    def test_runs_full_depth_and_stops(self, panama_kg, panama_question,
                                       seed):
        config = PlannerConfig(max_depth=4)
        backend = junk_backend(random.Random(seed))
        result = Planner(panama_kg, backend, config).run(panama_question)
        check_invariants(result.trace, config, panama_question, result.memory)
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
        check_invariants(result.trace, config, panama_question, result.memory)

    @pytest.mark.parametrize("seed", range(10))
    def test_invariants_on_random_graphs(self, seed):
        kg, question = random_case(1000 + seed)
        responder = PromptAwareResponder(seed, sufficiency_rate=0.1,
                                        add_rate=0.5)
        config = PlannerConfig(max_depth=3)
        result = Planner(kg, responder, config).run(question)
        check_invariants(result.trace, config, question, result.memory)

    def test_breadth_one_cuts_relations_and_entities(self):
        # the Panama script never offers a choice that a cap of 1 would
        # cut; here the responder keeps ~70% of every offer, so it must
        config = PlannerConfig(max_depth=3,
                               ablations=AblationFlags(fixed_breadth=1))
        stages = {"relation_selection": "relations",
                  "entity_selection": "entities"}
        cuts = {"relations": 0, "entities": 0}
        for seed in range(8):
            kg, question = random_case(3000 + seed)
            result = Planner(kg, PromptAwareResponder(seed),
                             config).run(question)
            check_invariants(result.trace, config, question, result.memory)
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
        check_invariants(result.trace, config, panama_question, result.memory)
        if flags.no_guidance:
            assert sub_objectives(result.trace) == [panama_question.text]
        if flags.no_reflection:
            assert all(not e.payload["add"]
                       for e in result.trace.iter_kind("reflection"))

    @pytest.mark.parametrize("seed", range(6))
    def test_traces_round_trip_through_disk(self, tmp_path, panama_kg,
                                            panama_question, seed):
        responder = PromptAwareResponder(300 + seed)
        config = PlannerConfig(max_depth=3)
        result = Planner(panama_kg, responder, config).run(panama_question)
        path = tmp_path / f"run-{seed}.jsonl"
        result.trace.save(str(path))
        loaded = RunTrace.load(str(path))
        assert loaded.events == result.trace.events
        check_invariants(loaded, config, panama_question)
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
        check_invariants(result.trace, config, question, result.memory)
        assert len(result.memory.paths) == 89_368
        calls = list(result.trace.iter_kind("llm_call"))
        assert len(calls) == 50
        assert max(len(PROMPTS.prompt_of(e)) for e in calls
                   if e.payload["stage"] == "entity_selection") <= 16 * 1024


class TestLabelEvents:
    def test_one_labels_event_per_expansion_at_most(self):
        widest = 0  # the most ids one labels event resolved
        for seed in range(8):
            kg, question = random_case(5000 + seed, unnamed=True)
            config = PlannerConfig(max_depth=3)
            result = Planner(kg, PromptAwareResponder(seed),
                             config).run(question)
            # no id in two labels events
            check_invariants(result.trace, config, question, result.memory)
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
        # the memory paths are acyclic
        check_invariants(result.trace, config, question, result.memory)
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
        question = self.question()
        result = Planner(kg, ScriptedBackend(self.base_rules())).run(question)
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
        assert len(candidate_pool(result.trace,
                                  question.topic_entities)) == 36

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

    def test_a_blank_topic_label_is_recalled_as_its_id(self):
        # the hub's 41 neighbours include the topic, whose label recall
        # scores; a blank label would be empty text
        kg = make_kg([("m.0t", "test.wide.edge", "m.0hub")] + [
            (f"m.0c{i:03d}", "test.wide.edge", "m.0hub")
            for i in range(40)],
            {"m.0hub": "Hub", **{f"m.0c{i:03d}": f"Candidate {i:03d}"
                                 for i in range(40)}})
        responder = ScriptedBackend([
            ResponderRule(DECOMPOSE_ANCHOR, '["#1 find the thing"]'),
            ResponderRule(RELATION_ANCHOR, '["test.wide.edge"]'),
            ResponderRule(ENTITY_ANCHOR, '["Hub", "m.0t"]'),
            ResponderRule(MEMORY_ANCHOR, '{"#1": "not yet"}'),
            ResponderRule(ANSWER_ANCHOR, '{"A": "unknown", "R": "not yet"}'),
            ResponderRule(REFLECTION_ANCHOR, '{"Add": false, "Reason": "no"}'),
        ])
        result = Planner(kg, responder).run(
            Question("Which thing?", (("m.0t", " "),)))
        assert result.iterations == 4
        recalls = [e for e in result.trace.iter_kind("selection")
                   if e.payload.get("stage") == "recall"]
        assert [e.payload["before"] for e in recalls] == [41]
        # the topic is offered by its id
        offer = next(e for e in result.trace.iter_kind("llm_call")
                     if e.payload["stage"] == "relation_selection")
        assert offer.payload["slots"]["topic_entity"] == "m.0t"


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
        assert sub_objectives(result.trace) == [solo_question().text]
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
