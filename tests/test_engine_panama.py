"""End-to-end planner runs on the film/government fixture.

The scripted scenario walks into a plausible dead end (the capital of
the country the film is set in), reflection re-opens the office entity
already in the candidate pool, and the second visit — with the spent
relation excluded — finds the office holder. Every structural detail of
that trajectory is pinned here.
"""

import json

import pytest

from graphquest.llm.scripted import ResponderRule, ScriptedBackend
from graphquest.planner.engine import Planner, PlannerRunError
from graphquest.planner.state import AblationFlags, PlannerConfig, Question
from graphquest.prompts import PromptLibrary
from graphquest.trace import RunTrace, TraceError

from adversaries import ANSWER_ANCHOR, MEMORY_ANCHOR, REFLECTION_ANCHOR
from test_acceptance import _stable_lines

PROMPTS = PromptLibrary()

NAKED = "m.0jt3_v"
PRESIDENT = "m.02rhx1c"
PANAMA = "m.05qtj"
PANAMA_CITY = "m.0fsmy2"
VARELA = "m.0bhtf2"

OFFICE_HOLDERS = "government.government_office_or_title.office_holders"
JURISDICTION = "government.government_office_or_title.jurisdiction"
CAPITAL = "location.country.capital"


@pytest.fixture
def planner(panama_kg, panama_llm):
    return Planner(panama_kg, panama_llm)


def _pool_before(trace: RunTrace, seq: int) -> set[str]:
    """The topics plus every id a labels event named before `seq`."""
    pool = {NAKED, PRESIDENT}
    for event in trace.iter_kind("kg_query"):
        if event.seq < seq and event.payload["op"] == "labels":
            pool.update(event.payload["labels"],
                        event.payload.get("fallback", ()))
    return pool


def stages(trace: RunTrace) -> list[str]:
    return [e.payload["stage"] for e in trace.iter_kind("llm_call")]


class TestFullRun:
    def test_recovers_and_answers(self, planner, panama_question):
        result = planner.run(panama_question)
        assert result.verdict.sufficient is True
        assert result.verdict.answer == "Juan Carlos Varela"
        assert result.verdict.forced is False
        assert result.iterations == 3
        assert result.elapsed_seconds > 0

    def test_sub_objective_count_matches_status_entries(self, planner,
                                                        panama_question):
        result = planner.run(panama_question)
        assert len(result.sub_objectives) == 2
        assert len(result.memory.status) == 2

    def test_llm_call_budget(self, planner, panama_question):
        result = planner.run(panama_question)
        calls = stages(result.trace)
        # iteration 0: decompose; 1: wrong turn via jurisdiction; 2: dead
        # end at the capital + reflection; 3: recovery via office holders
        assert calls == [
            "decompose",
            "relation_selection", "relation_selection", "entity_selection",
            "memory_update", "evaluate", "reflection",
            "relation_selection", "entity_selection",
            "memory_update", "evaluate", "reflection", "backtrack_selection",
            "relation_selection", "relation_selection", "entity_selection",
            "memory_update", "evaluate",
        ]
        assert len(calls) == 18

    def test_event_census(self, planner, panama_question):
        result = planner.run(panama_question)
        by_kind = {}
        for event in result.trace.events:
            by_kind[event.kind] = by_kind.get(event.kind, 0) + 1
        assert by_kind == {
            "llm_call": 18,
            "kg_query": 17,
            "selection": 9,
            "memory_update": 3,
            "verdict": 3,
            "reflection": 2,
            "final": 1,
        }
        assert len(result.trace.events) == 53
        assert [e.seq for e in result.trace.events] == list(range(53))

    def test_wrong_turn_is_taken_first(self, planner, panama_question):
        result = planner.run(panama_question)
        relation_picks = [
            e.payload for e in result.trace.iter_kind("selection")
            if e.payload.get("stage") == "relations"
            and e.payload.get("entity") == PRESIDENT
        ]
        assert len(relation_picks) == 2
        # first visit: both relations offered, misleading one chosen
        assert relation_picks[0]["candidates"] == [JURISDICTION,
                                                   OFFICE_HOLDERS]
        assert relation_picks[0]["selected"] == [JURISDICTION]

    def test_revisit_excludes_spent_relation(self, planner, panama_question):
        result = planner.run(panama_question)
        relation_picks = [
            e.payload for e in result.trace.iter_kind("selection")
            if e.payload.get("stage") == "relations"
            and e.payload.get("entity") == PRESIDENT
        ]
        # second visit: the expanded jurisdiction hop is not re-offered
        assert relation_picks[1]["candidates"] == [OFFICE_HOLDERS]
        assert relation_picks[1]["selected"] == [OFFICE_HOLDERS]

    def test_reflection_backtracks_to_pool_entity(self, planner,
                                                  panama_question):
        result = planner.run(panama_question)
        reflections = list(result.trace.iter_kind("reflection"))
        assert len(reflections) == 2
        first, second = (e.payload for e in reflections)
        assert first["add"] is False
        assert second["add"] is True
        assert second["backtrack"] == [PRESIDENT]
        # the re-opened entity came from the accumulated candidate pool:
        # the topics plus the ids the labels events named before it
        assert _pool_before(result.trace, reflections[1].seq) == {
            NAKED, PRESIDENT, PANAMA, PANAMA_CITY,
        }
        assert "candidate_pool" not in second and "tails" not in second
        # the tails it passed over are its iteration's memory_update's
        update = next(e.payload for e in result.trace.iter_kind(
            "memory_update") if e.iteration == reflections[1].iteration)
        assert update["tail_entities"] == [PANAMA_CITY]

    def test_candidate_pool_accumulates_everything_seen(self, planner,
                                                        panama_question):
        result = planner.run(panama_question)
        assert set(result.candidate_pool) == {
            NAKED, PRESIDENT, PANAMA, PANAMA_CITY, VARELA,
        }
        assert result.candidate_pool[VARELA] == "Juan Carlos Varela"
        # the trace lists no pool; the labels events name every id in it
        # that is not a topic
        assert _pool_before(result.trace, len(result.trace.events)) == \
            set(result.candidate_pool)
        assert all("candidate_pool" not in e.payload
                   for e in result.trace.iter_kind("memory_update"))

    def test_memory_keeps_suspended_paths(self, planner, panama_question):
        result = planner.run(panama_question)
        keys = {(p.origin, len(p.steps)) for p in result.memory.paths}
        # both two-hop dead-end paths survive next to the recovery path
        assert keys == {(NAKED, 2), (PRESIDENT, 2), (PRESIDENT, 1)}
        for path in result.memory.paths:
            path.validate(max_length=4)
        recovery = [p for p in result.memory.paths
                    if (p.origin, len(p.steps)) == (PRESIDENT, 1)][0]
        assert recovery.steps[0].relation == OFFICE_HOLDERS
        assert recovery.tail_entity() == VARELA

    def test_memory_status_progression(self, planner, panama_question):
        result = planner.run(panama_question)
        updates = [e.payload["status"]
                   for e in result.trace.iter_kind("memory_update")]
        assert len(updates) == 3
        assert updates[0][1] == "unknown"
        assert "Panama City" in updates[1][1]
        assert "Juan Carlos Varela" in updates[2][1]
        for entry in updates:
            assert len(entry) == 2  # one note per sub-objective, always

    def test_final_event_summarizes_run(self, planner, panama_question):
        result = planner.run(panama_question)
        final = result.trace.final_event()
        assert final is result.trace.events[-1]
        assert final.payload["answer"] == "Juan Carlos Varela"
        assert final.payload["sufficient"] is True
        assert final.payload["forced"] is False
        assert final.payload["exhausted"] is False
        assert final.payload["iterations"] == 3
        assert final.payload["elapsed_seconds"] > 0

    def test_llm_events_carry_full_prompt_and_usage(self, planner,
                                                    panama_question):
        result = planner.run(panama_question)
        for event in result.trace.iter_kind("llm_call"):
            assert event.usage is not None
            assert event.usage.input_tokens > 0
            assert PROMPTS.prompt_of(event)
            assert event.payload["response"]
        verdict_events = list(result.trace.iter_kind("verdict"))
        assert [e.payload["sufficient"] for e in verdict_events] == \
            [False, False, True]

    def test_a_render_only_prompts_object_records_template_and_slots(
            self, panama_kg, panama_llm, panama_question):
        # such an object renders the bundled text, so the trace records
        # the bundled digest, and prompt_of rebuilds each prompt as sent
        sent = []

        class Recording:
            def complete(self, prompt, config):
                sent.append(prompt)
                return panama_llm.complete(prompt, config)

        class RenderOnly:
            def render(self, template_id, **bindings):
                return PROMPTS.render(template_id, **bindings)

        result = Planner(panama_kg, Recording(),
                         prompts=RenderOnly()).run(panama_question)
        calls = list(result.trace.iter_kind("llm_call"))
        assert [set(e.payload) for e in calls] == [
            {"stage", "template", "slots", "template_digest", "response"}
        ] * len(sent)
        assert all(e.payload["template_digest"] ==
                   PROMPTS.digest(e.payload["template"]) for e in calls)
        assert [PROMPTS.prompt_of(e) for e in calls] == sent

    def test_the_digest_is_the_rendering_objects(self, panama_kg,
                                                 panama_llm,
                                                 panama_question):
        class Reworded:
            """Renders text other than the bundled templates'."""

            def render(self, template_id, **bindings):
                return PROMPTS.render(template_id, **bindings) + "\n"

            def digest(self, template_id):
                return "f" * 12

        result = Planner(panama_kg, panama_llm,
                         prompts=Reworded()).run(panama_question)
        calls = list(result.trace.iter_kind("llm_call"))
        assert calls
        assert {e.payload["template_digest"] for e in calls} == {"f" * 12}
        # the bundled library will not pass its own text off as the sent one
        with pytest.raises(TraceError, match="digest 'ffffffffffff'"):
            PROMPTS.prompt_of(calls[0])

    def test_trace_is_deterministic_modulo_elapsed(self, panama_kg,
                                                   panama_llm,
                                                   panama_question):
        lines = []
        for _ in range(2):
            result = Planner(panama_kg, panama_llm).run(panama_question)
            serialized = [e.to_json() for e in result.trace.events]
            final = result.trace.events[-1]
            final.payload["elapsed_seconds"] = 0.0
            serialized[-1] = final.to_json()
            lines.append(serialized)
        assert lines[0] == lines[1]


    def test_each_hop_is_offered_once(self, planner, panama_question):
        # in iteration 2 two paths end at Panama; its capital is one group
        result = planner.run(panama_question)
        prompt = next(PROMPTS.prompt_of(e)
                      for e in result.trace.iter_kind("llm_call")
                      if e.iteration == 2
                      and e.payload["stage"] == "entity_selection")
        assert prompt.count(
            f"(Panama, {CAPITAL}, [Panama City])") == 1

    def test_repeated_topic_is_expanded_once(self, planner, panama_question):
        topics = panama_question.topic_entities
        repeated = Question(panama_question.text, topics + topics[:1])
        assert _stable_lines(planner.run(repeated).trace) == \
            _stable_lines(planner.run(panama_question).trace)


class TestVerdicts:
    def test_plain_no_is_an_answer(self, panama_kg, panama_llm,
                                   panama_question):
        # a yes/no question may be answered "No"; only "insufficient"
        # (and its synonyms) means the evidence falls short
        rule = ResponderRule(ANSWER_ANCHOR,
                             json.dumps({"A": "No", "R": "it is not"}))
        llm = ScriptedBackend([rule] + panama_llm.rules)
        result = Planner(panama_kg, llm).run(panama_question)
        assert result.verdict.sufficient is True
        assert result.verdict.answer == "No"
        assert result.verdict.forced is False
        assert result.iterations == 1

    @pytest.mark.parametrize("answer", [None, [None]],
                             ids=["null", "list-of-null"])
    def test_a_null_answer_is_no_answer(self, panama_kg, panama_question,
                                        answer):
        # a JSON null where text is expected reads as empty text, not as
        # the text "None"
        reply = json.dumps({"A": answer, "R": None})
        result = Planner(panama_kg, ScriptedBackend(
            [], default_response=reply)).run(panama_question)
        assert result.verdict.sufficient is False
        assert result.verdict.answer is None
        assert result.verdict.reason == ""
        verdicts = [e.payload for e in result.trace.iter_kind("verdict")]
        assert verdicts[-1]["forced"] is True
        assert all(v["answer"] is None and v["reason"] == ""
                   for v in verdicts)

    def test_a_null_reason_or_memory_note_is_empty_text(
            self, panama_kg, panama_llm, panama_question):
        llm = ScriptedBackend([
            ResponderRule(REFLECTION_ANCHOR,
                          json.dumps({"Add": False, "Reason": None})),
            ResponderRule(MEMORY_ANCHOR, json.dumps({"#1": None, "#2": None})),
        ] + panama_llm.rules)
        result = Planner(panama_kg, llm).run(panama_question)
        reflections = [e.payload for e in result.trace.iter_kind("reflection")]
        assert reflections
        assert all(r["reason"] == "" for r in reflections)
        updates = [e.payload for e in result.trace.iter_kind("memory_update")]
        assert updates
        assert all(u["status"] == ["", ""] for u in updates)


class TestReentrancy:
    def test_nested_run_on_same_planner(self, panama_kg, panama_llm,
                                        panama_question):
        solo = _stable_lines(
            Planner(panama_kg, panama_llm).run(panama_question).trace)
        nested = []

        class NestingKG:
            """Runs the same question again from inside the first
            entity search of the outer run."""

            def search_relations(self, entity, direction):
                return panama_kg.search_relations(entity, direction)

            def search_entities(self, *args):
                if not nested:
                    nested.append(None)
                    nested[0] = planner.run(panama_question)
                return panama_kg.search_entities(*args)

            def resolve_label(self, entity):
                return panama_kg.resolve_label(entity)

        planner = Planner(NestingKG(), panama_llm)
        outer = planner.run(panama_question)
        assert _stable_lines(nested[0].trace) == solo
        assert _stable_lines(outer.trace) == solo
        # the planner kept nothing of either run
        assert set(vars(planner)) == {"kg", "llm", "config", "scorer",
                                      "prompts"}


class TestAblations:
    def test_no_reflection_dead_ends(self, panama_kg, panama_llm,
                                     panama_question):
        config = PlannerConfig(ablations=AblationFlags(no_reflection=True))
        result = Planner(panama_kg, panama_llm, config).run(panama_question)
        assert result.verdict.sufficient is False
        assert result.verdict.forced is True
        assert result.verdict.answer == "insufficient"  # hedged, not usable
        assert result.iterations == 4  # runs the full depth budget
        final = result.trace.final_event()
        assert final.payload["exhausted"] is True
        assert len(stages(result.trace)) == 16
        # reflection stages never reach the model
        assert "reflection" not in stages(result.trace)
        assert "backtrack_selection" not in stages(result.trace)
        for event in result.trace.iter_kind("reflection"):
            assert event.payload["note"] == "reflection disabled"
            assert event.payload["add"] is False

    def test_no_guidance_skips_decomposition(self, panama_kg, panama_llm,
                                             panama_question):
        config = PlannerConfig(ablations=AblationFlags(no_guidance=True))
        result = Planner(panama_kg, panama_llm, config).run(panama_question)
        # same recovery, one fewer model call, question text as the only
        # sub-objective
        assert result.verdict.answer == "Juan Carlos Varela"
        assert result.sub_objectives == (panama_question.text,)
        assert len(result.memory.status) == 1
        assert len(stages(result.trace)) == 17
        assert "decompose" not in stages(result.trace)
        first_selection = next(result.trace.iter_kind("selection"))
        assert first_selection.payload["note"] == "guidance disabled"

    def test_no_memory_forgets_and_fails(self, panama_kg, panama_llm,
                                         panama_question):
        config = PlannerConfig(ablations=AblationFlags(no_memory=True))
        result = Planner(panama_kg, panama_llm, config).run(panama_question)
        assert result.verdict.sufficient is False
        assert result.verdict.forced is True
        assert result.iterations == 4
        # status is wiped every iteration instead of updated
        updates = [e.payload for e in result.trace.iter_kind("memory_update")]
        for payload in updates:
            assert payload["status"] == ["unknown", "unknown"]
        # each update lists its iteration's whole pool, sorted, even empty
        assert [payload["candidate_pool"] for payload in updates] == [
            [PRESIDENT, PANAMA, NAKED], [PANAMA, PANAMA_CITY],
            [PANAMA_CITY], [],
        ]
        assert "memory_update" not in stages(result.trace)
        # the pool shrinks to the current frontier, so the recovery target
        # is gone when reflection asks for it
        withdrawn = [e for e in result.trace.iter_kind("reflection")
                     if "withdrawn" in str(e.payload.get("warning", ""))]
        assert withdrawn

    def test_fixed_breadth_one_still_recovers(self, panama_kg, panama_llm,
                                              panama_question):
        config = PlannerConfig(ablations=AblationFlags(fixed_breadth=1))
        result = Planner(panama_kg, panama_llm, config).run(panama_question)
        assert result.verdict.answer == "Juan Carlos Varela"
        assert result.iterations == 3
        for event in result.trace.iter_kind("selection"):
            if event.payload.get("stage") in ("relations", "entities"):
                assert len(event.payload["selected"]) <= 1


class TestFailurePaths:
    def test_kg_failure_aborts_with_partial_trace(self, panama_kg,
                                                  panama_llm,
                                                  panama_question):
        class FlakyKG:
            def __init__(self, inner):
                self.inner = inner
                self.calls = 0

            def search_relations(self, entity, direction):
                self.calls += 1
                if self.calls > 4:  # fail on the second iteration
                    raise ConnectionError("endpoint gone")
                return self.inner.search_relations(entity, direction)

            def search_entities(self, *args):
                return self.inner.search_entities(*args)

            def resolve_label(self, entity):
                return self.inner.resolve_label(entity)

        flaky = FlakyKG(panama_kg)
        planner = Planner(flaky, panama_llm)
        with pytest.raises(PlannerRunError) as info:
            planner.run(panama_question)
        trace = info.value.trace
        assert any(e.kind == "llm_call" for e in trace.events)
        final = trace.final_event()
        assert "endpoint gone" in final.payload["error"]
        assert final.payload["elapsed_seconds"] >= 0
        # logged at the iteration that failed, not at 0
        assert final.iteration == 2

    def test_unmatched_prompt_aborts_cleanly(self, panama_kg,
                                             panama_question):
        empty_llm = ScriptedBackend([])
        with pytest.raises(PlannerRunError) as info:
            Planner(panama_kg, empty_llm).run(panama_question)
        assert info.value.trace.final_event() is not None
