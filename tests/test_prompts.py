import hashlib

import pytest

from graphquest.prompts import PromptError, PromptLibrary, TEMPLATE_SLOTS

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
    def test_all_seven_templates_load(self, library):
        assert sorted(library.templates) == sorted(TEMPLATE_SLOTS)
        assert len(TEMPLATE_SLOTS) == 7

    def test_required_phrases_present(self, library):
        for template_id, phrases in REQUIRED_PHRASES.items():
            text = library.templates[template_id]
            for phrase in phrases:
                assert phrase in text, (template_id, phrase)

    def test_byte_stability(self, library):
        # Checksums frozen at review time; a diff here means prompt text
        # changed, which silently changes scripted-run behavior.
        digests = {
            template_id: hashlib.sha256(
                library.templates[template_id].encode("utf-8")).hexdigest()[:16]
            for template_id in library.templates
        }
        assert digests == EXPECTED_DIGESTS

    def test_unknown_template(self, library):
        with pytest.raises(PromptError, match="'poetry'"):
            library.render("poetry", question="Q?")

    def test_slot_declarations_match_templates(self, library):
        for template_id, slots in TEMPLATE_SLOTS.items():
            text = library.templates[template_id]
            for slot in slots:
                assert ("{" + slot + "}") in text


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
        with pytest.raises(PromptError, match="requires binding 'triplets'"):
            library.render("answer", question="Q?", memory="{}")

    def test_unknown_binding(self, library):
        with pytest.raises(PromptError):
            library.render("decompose", question="Q?", extra="nope")

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


EXPECTED_DIGESTS = {
    "answer": "acd4d3b933cf5555",
    "backtrack_selection": "60431a6db656abb1",
    "decompose": "465a2f97d858fded",
    "entity_selection": "920452e299b1e217",
    "memory_update": "81ae8d60892d1a5c",
    "reflection": "94b5129a451ba9d7",
    "relation_selection": "2fd5cb4998cf2598",
}
