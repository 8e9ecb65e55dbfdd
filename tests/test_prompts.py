import hashlib
import re

import pytest

from graphquest.prompts import (
    TEMPLATE_SLOTS,
    TEMPLATES,
    PromptError,
    PromptLibrary,
)
from graphquest.trace import TraceError, TraceEvent

# Instruction phrases each stage's template must carry. The scripted
# backend keys on these, so they are part of the stable surface.
REQUIRED_PHRASES = {
    "decompose": ["break down the process of answering",
                  "as few sub-objectives as possible",
                  "in list format without other information or notes"],
    "relation_selection": ["directly output relations highly related",
                           "Topic Entity: {topic_entity}",
                           "Relations: {relations}"],
    "entity_selection": ["entities from [] in Triplets",
                         "minimum possible number of entities",
                         "Triplets: {triplets}"],
    "memory_update": ["in JSON format without other information or notes.",
                      "Sub-Objectives: {sub_objectives}",
                      "Memory: {memory}"],
    "answer": ['must include "A" and "R"',
               "prioritize the fact of the triplet over memory",
               "Knowledge Triplets: {triplets}"],
    "reflection": ['must include "Add" and "Reason"',
                   "Entities set to be retrieved: {entities}"],
    "backtrack_selection": ["fewest necessary entities",
                            "Candidate Entities: {candidates}"],
}


@pytest.fixture(scope="module")
def library():
    return PromptLibrary()


class TestCatalog:
    def test_all_seven_templates_load(self):
        assert sorted(TEMPLATES) == sorted(TEMPLATE_SLOTS)
        assert len(TEMPLATE_SLOTS) == 7

    def test_the_bundled_texts_are_read_only(self):
        with pytest.raises(TypeError):
            TEMPLATES["answer"] = "changed {question}"

    def test_required_phrases_present(self):
        for template_id, phrases in REQUIRED_PHRASES.items():
            text = TEMPLATES[template_id]
            for phrase in phrases:
                assert phrase in text, (template_id, phrase)

    def test_byte_stability(self):
        # Checksums frozen at review time; a diff here means prompt text
        # changed, which silently changes scripted-run behavior.
        digests = {
            template_id: hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
            for template_id, text in TEMPLATES.items()
        }
        assert digests == EXPECTED_DIGESTS

    def test_unknown_template(self, library):
        with pytest.raises(PromptError, match="'poetry'"):
            library.render("poetry", question="Q?")

    def test_slot_declarations_match_templates(self):
        for template_id, slots in TEMPLATE_SLOTS.items():
            text = TEMPLATES[template_id]
            for slot in slots:
                assert ("{" + slot + "}") in text

    def test_every_placeholder_is_a_declared_slot(self):
        # an undeclared one would reach the model as literal text
        for template_id, text in TEMPLATES.items():
            placeholders = set(re.findall(r"\{([A-Za-z_]\w*)\}", text))
            assert placeholders == set(TEMPLATE_SLOTS[template_id]), \
                template_id


class TestRendering:
    def test_all_slots_substituted(self, library):
        rendered = library.render(
            "relation_selection",
            question="Which river flows through Vienna?",
            sub_objectives='["#1 x"]',
            topic_entity="Austria",
            relations="a.b.c; d.e.f",
        )
        assert "Which river flows through Vienna?" in rendered
        assert rendered.endswith("Relations: a.b.c; d.e.f\n")
        assert "{question}" not in rendered
        assert "{relations}" not in rendered

    def test_literal_braces_survive(self, library):
        rendered = library.render("decompose", question="Q?")
        # the worked example's JSON list braces must come through intact
        assert '["#1 Identify the capital of Austria.' in rendered

    def test_worked_example_json_in_answer_template(self, library):
        rendered = library.render("answer", question="Q?", memory="{}",
                                  triplets="a, b, c")
        assert '{"A": "Danube"' in rendered

    def test_missing_binding(self, library):
        with pytest.raises(PromptError, match="slot 'triplets' is missing"):
            library.render("answer", question="Q?", memory="{}")

    def test_unknown_binding(self, library):
        with pytest.raises(PromptError):
            library.render("decompose", question="Q?", extra="nope")

    def test_a_binding_that_is_not_text(self, library):
        with pytest.raises(PromptError, match="slot 'question' is missing "
                                              "or not a string"):
            library.render("decompose", question=5)

    def test_a_question_carrying_another_slot_is_not_substituted(self,
                                                                 library):
        rendered = library.render(
            "relation_selection", question="What is {relations} here?",
            sub_objectives='["#1 x"]', topic_entity="Austria",
            relations="a.b; c.d")
        assert "Q: What is {relations} here?" in rendered
        assert rendered.endswith("Relations: a.b; c.d\n")

    def test_a_memory_note_carrying_another_slot_is_not_substituted(self,
                                                                    library):
        # memory is bound before triplets in every template that has both
        for template_id in ("memory_update", "answer", "reflection"):
            bindings = {slot: slot.upper() for slot in
                        TEMPLATE_SLOTS[template_id]}
            bindings["memory"] = '{"note": "see {triplets} and {question}"}'
            rendered = library.render(template_id, **bindings)
            assert '{"note": "see {triplets} and {question}"}' in rendered
            assert rendered.count("TRIPLETS") == 1, template_id

    def test_rendering_is_repeatable(self, library):
        first = library.render("decompose", question="Same?")
        second = library.render("decompose", question="Same?")
        assert first == second


def call_event(**changes):
    """An llm_call event as the planner records it, for the answer
    template, with `changes` applied to its payload (None deletes)."""
    payload = {
        "stage": "evaluate",
        "template": "answer",
        "slots": {"question": "Q?", "memory": "{}", "triplets": "a, b, c"},
        "template_digest": PromptLibrary.digest("answer"),
        "response": '{"A": "c", "R": "r"}',
    }
    payload.update(changes)
    payload = {key: value for key, value in payload.items()
               if value is not None}
    return TraceEvent(7, "llm_call", 2, payload)


class TestPromptOf:
    def test_digests_are_the_bundled_texts(self, library):
        # a 12-character prefix of each frozen 16-character checksum
        assert {template_id: EXPECTED_DIGESTS[template_id][:12]
                for template_id in EXPECTED_DIGESTS} == {
            template_id: library.digest(template_id)
            for template_id in TEMPLATE_SLOTS}

    def test_parts_are_the_slots_and_the_template_text(self, library):
        event = call_event()
        parts = library.parts_of(event)
        assert "".join(text for _, text in parts) == library.prompt_of(event)
        assert [(slot, text) for slot, text in parts if slot] == [
            ("question", "Q?"), ("memory", "{}"), ("triplets", "a, b, c")]
        fixed = "".join(text for slot, text in parts if slot is None)
        assert len(fixed) == len(TEMPLATES[event.payload["template"]]) - len(
            "{question}{memory}{triplets}")

    def test_rebuilds_the_rendered_prompt(self, library):
        assert library.prompt_of(call_event()) == library.render(
            "answer", question="Q?", memory="{}", triplets="a, b, c")

    @pytest.mark.parametrize("changes, problem", [
        pytest.param({"template": "poetry"}, "not a bundled template",
                     id="unknown-template"),
        pytest.param({"template": None}, "not a bundled template",
                     id="no-template"),
        pytest.param({"slots": {"question": "Q?", "memory": "{}"}},
                     "slot 'triplets' is missing", id="missing-slot"),
        pytest.param({"slots": {"question": "Q?", "memory": "{}",
                                "triplets": 5}},
                     "slot 'triplets' is missing or not a string",
                     id="non-string-slot"),
        pytest.param({"slots": {"question": "Q?", "memory": "{}",
                                "triplets": "t", "reason": "r"}},
                     "has no slot 'reason'", id="unknown-slot"),
        pytest.param({"slots": ["Q?"]}, "has no slots object",
                     id="slots-not-an-object"),
        pytest.param({"template_digest": "0" * 12}, "digest '000000000000'",
                     id="digest-mismatch"),
        pytest.param({"template_digest": None}, "digest None",
                     id="no-digest"),
        # the shape of a call saved before calls were stored as template
        # and slots: {stage, prompt, response}
        pytest.param({"template": None, "slots": None,
                      "template_digest": None, "prompt": "Q: Who?\n"},
                     "not a bundled template", id="saved-prompt"),
    ])
    @pytest.mark.parametrize("method", ["parts_of", "prompt_of"])
    def test_a_call_that_cannot_be_rebuilt_is_a_trace_error(
            self, library, changes, problem, method):
        template = changes.get("template", "answer")
        with pytest.raises(TraceError) as caught:
            getattr(library, method)(call_event(**changes))
        message = str(caught.value)
        assert message.startswith(f"llm_call event 7: template {template!r}")
        assert problem in message


EXPECTED_DIGESTS = {
    "answer": "acd4d3b933cf5555",
    "backtrack_selection": "60431a6db656abb1",
    "decompose": "465a2f97d858fded",
    "entity_selection": "920452e299b1e217",
    "memory_update": "81ae8d60892d1a5c",
    "reflection": "94b5129a451ba9d7",
    "relation_selection": "2fd5cb4998cf2598",
}
