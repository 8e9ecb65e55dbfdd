import pytest

from graphquest.kg.types import Direction, EntityLabel, Triplet


class TestDirection:
    def test_values(self):
        assert Direction.OUTGOING.value == "outgoing"
        assert Direction.INCOMING.value == "incoming"


class TestValueTypes:
    def test_triplet_is_frozen_and_hashable(self):
        t = Triplet("m.05qtj", "location.country.capital", "m.0fsmy2")
        assert t.subject == "m.05qtj"
        assert t.relation == "location.country.capital"
        assert t.object == "m.0fsmy2"
        assert len({t, Triplet("m.05qtj", "location.country.capital",
                               "m.0fsmy2")}) == 1
        with pytest.raises((AttributeError, TypeError)):
            t.subject = "m.other"

    def test_entity_label_defaults(self):
        label = EntityLabel("m.05qtj", "Panama", is_fallback=False)
        assert label.entity == "m.05qtj"
        assert label.label == "Panama"
        assert label.is_fallback is False
