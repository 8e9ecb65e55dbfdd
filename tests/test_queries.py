from graphquest.kg.queries import entities_query, label_query, relations_query
from graphquest.kg.types import Direction

OUT = Direction.OUTGOING
IN = Direction.INCOMING

# Golden query text, frozen byte-for-byte. The builders must produce exactly
# these strings: whitespace, indentation, and clause order all matter
# because remote results are cached on the rendered text.

GOLDEN_RELATION_OUT = (
    "PREFIX ns: <http://rdf.freebase.com/ns/>\n"
    "SELECT DISTINCT ?relation\n"
    "WHERE {\n"
    "  ns:m.0jt3_v ?relation ?x .\n"
    "}"
)

GOLDEN_RELATION_IN = (
    "PREFIX ns: <http://rdf.freebase.com/ns/>\n"
    "SELECT DISTINCT ?relation\n"
    "WHERE {\n"
    "  ?x ?relation ns:m.0jt3_v .\n"
    "}"
)

GOLDEN_ENTITY_OUT = (
    "PREFIX ns: <http://rdf.freebase.com/ns/>\n"
    "SELECT ?tailEntity\n"
    "WHERE {\n"
    "  ns:m.05qtj ns:location.country.capital ?tailEntity .\n"
    "}"
)

GOLDEN_ENTITY_IN = (
    "PREFIX ns: <http://rdf.freebase.com/ns/>\n"
    "SELECT ?tailEntity\n"
    "WHERE {\n"
    "  ?tailEntity ns:location.country.capital ns:m.0fsmy2 .\n"
    "}"
)

GOLDEN_NAME = (
    "PREFIX ns: <http://rdf.freebase.com/ns/>\n"
    "SELECT DISTINCT ?tailEntity\n"
    "WHERE {\n"
    "  {\n"
    "    ?entity ns:type.object.name ?tailEntity .\n"
    "    FILTER(?entity = ns:m.05qtj)\n"
    "  }\n"
    "  UNION\n"
    "  {\n"
    "    ?entity <http://www.w3.org/2002/07/owl#sameAs> ?tailEntity .\n"
    "    FILTER(?entity = ns:m.05qtj)\n"
    "  }\n"
    "}"
)


class TestGoldenRenderings:
    def test_relation_out(self):
        assert relations_query("m.0jt3_v", OUT) == GOLDEN_RELATION_OUT

    def test_relation_in(self):
        assert relations_query("m.0jt3_v", IN) == GOLDEN_RELATION_IN

    def test_entity_out(self):
        assert entities_query("m.05qtj", "location.country.capital",
                              OUT) == GOLDEN_ENTITY_OUT

    def test_entity_in(self):
        assert entities_query("m.0fsmy2", "location.country.capital",
                              IN) == GOLDEN_ENTITY_IN

    def test_name(self):
        assert label_query("m.05qtj") == GOLDEN_NAME


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
