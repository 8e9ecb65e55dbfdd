"""Fixed inputs that several test modules share: the bundled fixture
files, the Panama question, the golden SPARQL query texts, and a graph
built from triples."""

from pathlib import Path

from graphquest.kg.memory_store import InMemoryKG

FIXTURES = Path(__file__).parent / "fixtures"

PANAMA_QUESTION = ("Who is in control of the place where the movie "
                   "The Naked and the Dead takes place?")
PANAMA_TOPICS = (("m.0jt3_v", "The Naked and the Dead"),
                 ("m.02rhx1c", "President of Panama"))


def make_kg(triples, labels):
    """An in-memory graph of `triples`, each id of `labels` named."""
    kg = InMemoryKG(triples)
    for entity, label in labels.items():
        kg.add(entity, "type.object.name", label)
    return kg


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
    "SELECT DISTINCT ?tailEntity ?alias\n"
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
    "  UNION\n"
    "  {\n"
    "    ?entity ns:common.topic.alias ?alias .\n"
    "    FILTER(?entity = ns:m.05qtj)\n"
    "  }\n"
    "}"
)
