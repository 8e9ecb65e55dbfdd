import pytest

from graphquest.kg.queries import entities_query, label_query, relations_query
from graphquest.kg.types import Direction, KGError

OUT = Direction.OUTGOING
IN = Direction.INCOMING


class TestRenderRules:
    def test_mid_containing_the_word_relation_is_not_corrupted(self):
        text = entities_query("m.relation_x", "a.b.c", OUT)
        assert "ns:m.relation_x ns:a.b.c ?tailEntity ." in text

    def test_templates_have_no_trailing_newline(self):
        for body in (relations_query("m.0a", OUT), relations_query("m.0a", IN),
                     entities_query("m.0a", "a.b.c", OUT),
                     entities_query("m.0a", "a.b.c", IN),
                     label_query("m.0a")):
            assert not body.endswith("\n")


# terms that would end the `ns:` term early, add a clause or leave the
# namespace, each spliced where an id or a relation goes
NOT_PLAIN = [
    pytest.param("m.0f8l9c ?relation ?x } UNION { ?s ?p", id="injected-union"),
    pytest.param("http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
                 id="foreign-iri"),
    pytest.param("", id="empty"),
    pytest.param("m.0a.", id="trailing-dot"),
    pytest.param(".m.0a", id="leading-dot"),
    pytest.param("m.0a\n", id="trailing-newline"),
    pytest.param("m.0a>", id="angle-bracket"),
    pytest.param("m.0é", id="non-ascii"),
]


class TestTermsAreChecked:
    @pytest.mark.parametrize("term", NOT_PLAIN)
    def test_a_term_that_is_not_a_plain_name_is_refused(self, term):
        builders = [
            lambda: relations_query(term, OUT),
            lambda: relations_query(term, IN),
            lambda: entities_query(term, "a.b.c", OUT),
            lambda: entities_query("m.0a", term, IN),
            lambda: label_query(term),
        ]
        for build in builders:
            with pytest.raises(KGError, match="not a plain Freebase name"):
                build()

    @pytest.mark.parametrize("term", ["m.0jt3_v", "g.11b6_x-2", "a.b-c.d_e",
                                      "m", "0"])
    def test_plain_names_are_spliced_as_given(self, term):
        assert f"ns:{term} ?relation ?x ." in relations_query(term, OUT)
