import pytest

from graphquest.kg.types import Direction, EntityLabel, Triplet, is_mid


class TestIsMid:
    # frozen expected values, derived by hand from the id grammar
    @pytest.mark.parametrize("value", [
        "m.0jt3_v",
        "m.02rhx1c",
        "g.11b7f_123",
        "m.0",
        "g.1",
    ])
    def test_accepts_machine_ids(self, value):
        assert is_mid(value) is True

    @pytest.mark.parametrize("value", [
        "Panama",
        "location.country.capital",
        "m.",
        "x.012abc",
        "m.abc def",
        "",
        "ns:m.0jt3_v",
        "m.0jt3-v",
    ])
    def test_rejects_everything_else(self, value):
        assert is_mid(value) is False


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
