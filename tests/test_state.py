import pytest

from graphquest.kg.types import Direction
from graphquest.planner.state import (
    AblationFlags,
    PathStep,
    PlannerConfig,
    Question,
    ReasoningPath,
    StateError,
    Verdict,
)

OUT = Direction.OUTGOING
IN = Direction.INCOMING


class TestQuestion:
    def test_valid(self):
        q = Question("Who wrote it?", (("m.0a", "The Book"),))
        assert q.topic_entities[0] == ("m.0a", "The Book")

    def test_repeated_topic_keeps_its_first_pair(self):
        q = Question("Who wrote it?", (("m.0a", "The Book"), ("m.0b", "B"),
                                       ("m.0a", "Another Name")))
        assert q.topic_entities == (("m.0a", "The Book"), ("m.0b", "B"))

    def test_a_blank_label_is_the_id(self):
        # a repeated id keeps its first label, blank or not
        q = Question("Who wrote it?", (("m.0a", ""), ("m.0b", " \t"),
                                       ("m.0c", " C "), ("m.0a", "A")))
        assert q.topic_entities == (("m.0a", "m.0a"), ("m.0b", "m.0b"),
                                    ("m.0c", " C "))

    def test_blank_text_rejected(self):
        with pytest.raises(StateError):
            Question("   ", (("m.0a", "A"),))

    def test_no_topics_rejected(self):
        with pytest.raises(StateError):
            Question("Who?", ())


class TestPathSteps:
    def test_outgoing_orientation(self):
        step = PathStep("m.0a", "r.x.y", "m.0b", OUT)
        assert step.source == "m.0a"
        assert step.target == "m.0b"

    def test_incoming_step_keeps_kg_orientation(self):
        # path stepped from m.0b backwards along (m.0a, r, m.0b)
        step = PathStep("m.0a", "r.x.y", "m.0b", IN)
        assert step.source == "m.0b"
        assert step.target == "m.0a"


class TestReasoningPath:
    def test_root_path(self):
        path = ReasoningPath("m.0a")
        assert path.tail_entity() == "m.0a"
        assert path.entities() == ("m.0a",)
        path.validate()

    def test_extension_is_persistent(self):
        root = ReasoningPath("m.0a")
        longer = root.extended(PathStep("m.0a", "r.x.y", "m.0b", OUT))
        assert root.steps == ()
        assert longer.tail_entity() == "m.0b"
        assert longer.entities() == ("m.0a", "m.0b")

    def test_mixed_direction_chain_validates(self):
        # m.0a -r1-> m.0b, then backwards along (m.0c, r2, m.0b)
        path = ReasoningPath("m.0a", (
            PathStep("m.0a", "r.one", "m.0b", OUT),
            PathStep("m.0c", "r.two", "m.0b", IN),
        ))
        assert path.tail_entity() == "m.0c"
        path.validate(max_length=2)

    def test_broken_linkage_rejected(self):
        path = ReasoningPath("m.0a", (
            PathStep("m.0x", "r.one", "m.0b", OUT),
        ))
        with pytest.raises(StateError):
            path.validate()

    def test_cycle_rejected(self):
        path = ReasoningPath("m.0a", (
            PathStep("m.0a", "r.one", "m.0b", OUT),
            PathStep("m.0b", "r.two", "m.0a", OUT),
        ))
        with pytest.raises(StateError):
            path.validate()

    def test_length_cap(self):
        path = ReasoningPath("m.0a", (
            PathStep("m.0a", "r.one", "m.0b", OUT),
            PathStep("m.0b", "r.two", "m.0c", OUT),
        ))
        path.validate(max_length=2)
        with pytest.raises(StateError):
            path.validate(max_length=1)


class TestVerdict:
    def test_sufficient_needs_answer(self):
        Verdict(True, "Panama", "found it")
        with pytest.raises(StateError):
            Verdict(True, None, "claims done without answer")

    def test_insufficient_must_not_carry_answer(self):
        Verdict(False, None, "keep going")
        with pytest.raises(StateError):
            Verdict(False, "Panama", "contradiction")

    def test_forced_verdict_may_hedge(self):
        # after exhaustion the best guess is recorded without sufficiency
        Verdict(False, "Panama", "best effort", forced=True)
        Verdict(False, None, "nothing found", forced=True)


class TestConfigs:
    def test_planner_defaults(self):
        config = PlannerConfig()
        assert config.max_depth == 4
        assert config.generation.temperature == 0.3
        assert config.generation.max_tokens == 1024
        assert config.generation.frequency_penalty == 0.0
        assert config.generation.presence_penalty == 0.0
        assert config.recall.threshold == 30
        assert config.ablations == AblationFlags()

    def test_depth_must_be_positive(self):
        with pytest.raises(StateError):
            PlannerConfig(max_depth=0)

    def test_fixed_breadth_must_be_positive(self):
        AblationFlags(fixed_breadth=1)
        with pytest.raises(StateError):
            AblationFlags(fixed_breadth=0)
