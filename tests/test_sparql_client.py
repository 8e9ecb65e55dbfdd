import json

import pytest

from graphquest.kg.memory_store import InMemoryKG
from graphquest.kg.sparql_client import SparqlKG
from graphquest.kg.types import Direction, KGError
from graphquest.planner.engine import Planner
from graphquest.planner.state import PlannerConfig, Question

from adversaries import PromptAwareResponder
from http_fakes import Reply, scripted

ENDPOINT = "http://kg.invalid:8890/sparql"


def results_payload(variable, values):
    return {
        "results": {
            "bindings": [
                {variable: {"type": "uri",
                            "value": f"http://rdf.freebase.com/ns/{v}"}}
                for v in values
            ]
        }
    }


def make_client(outcomes):
    return scripted(SparqlKG, ENDPOINT, outcomes)


class TestTransport:
    def test_posts_raw_query_with_sparql_headers(self):
        payload = results_payload("relation", ["location.country.capital"])
        client, session, _ = make_client([Reply(200, payload)])
        got = client.search_relations("m.05qtj", Direction.OUTGOING)
        assert got == ["location.country.capital"]
        sent = session.requests[0]
        assert sent["url"] == ENDPOINT
        assert sent["headers"]["Content-Type"] == "application/sparql-query"
        assert sent["headers"]["Accept"] == "application/sparql-results+json"
        assert sent["timeout"] == 30.0
        body = sent["data"].decode("utf-8")
        assert "ns:m.05qtj ?relation ?x ." in body

    def test_entity_query_direction_controls_template(self):
        payload = results_payload("tailEntity", ["m.0fsmy2"])
        client, session, _ = make_client([Reply(200, payload),
                                          Reply(200, payload)])
        client.search_entities("m.05qtj", "location.country.capital",
                               Direction.OUTGOING)
        client.search_entities("m.05qtj", "location.country.capital",
                               Direction.INCOMING)
        first = session.requests[0]["data"].decode("utf-8")
        second = session.requests[1]["data"].decode("utf-8")
        assert "ns:m.05qtj ns:location.country.capital ?tailEntity ." in first
        assert "?tailEntity ns:location.country.capital ns:m.05qtj ." in second

    def test_results_are_deduped_sorted_and_ns_stripped(self):
        payload = {
            "results": {"bindings": [
                {"relation": {"value": "http://rdf.freebase.com/ns/b.rel"}},
                {"relation": {"value": "http://rdf.freebase.com/ns/a.rel"}},
                {"relation": {"value": "http://rdf.freebase.com/ns/b.rel"}},
                {"other": {"value": "ignored"}},
            ]}
        }
        client, _, _ = make_client([Reply(200, payload)])
        assert client.search_relations("m.0x", Direction.INCOMING) == \
            ["a.rel", "b.rel"]

    def test_relation_search_keeps_only_the_namespaces_domain_relations(self):
        # as the in-memory store: no name or alias predicate, and no IRI
        # outside the namespace, whose `ns:` form no query could use
        payload = {
            "results": {"bindings": [
                {"relation": {"value": f"http://rdf.freebase.com/ns/{name}"}}
                for name in ("a.rel", "type.object.name",
                             "common.topic.alias")
            ] + [
                {"relation": {"value": iri}}
                for iri in ("http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
                            "http://www.w3.org/2002/07/owl#sameAs")
            ]}
        }
        client, _, _ = make_client([Reply(200, payload)])
        assert client.search_relations("m.0x", Direction.OUTGOING) == \
            ["a.rel"]

    @pytest.mark.parametrize("search", [
        pytest.param(lambda client: client.search_relations(
            "m.0f8l9c ?relation ?x } UNION { ?s ?p", Direction.OUTGOING),
            id="relations"),
        pytest.param(lambda client: client.search_entities(
            "m.0x", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
            Direction.OUTGOING), id="entities"),
        pytest.param(lambda client: client.resolve_label("m.0x }"),
                     id="label"),
    ])
    def test_a_term_that_is_not_a_plain_name_sends_no_request(self, search):
        client, session, _ = make_client([])
        with pytest.raises(KGError, match="not a plain Freebase name"):
            search(client)
        assert session.requests == []

    def test_malformed_payload_raises(self):
        client, _, _ = make_client([Reply(200, {"weird": True})])
        with pytest.raises(KGError):
            client.search_relations("m.0x", Direction.OUTGOING)

    @pytest.mark.parametrize("bindings", [
        pytest.param(["x"], id="binding-not-object"),
        pytest.param(5, id="bindings-not-list"),
        pytest.param([{"relation": "x"}], id="entry-not-object"),
        pytest.param([{"relation": {"value": 7}}], id="value-not-text"),
    ])
    def test_malformed_bindings_raise_kg_error(self, bindings):
        payload = {"results": {"bindings": bindings}}
        client, _, _ = make_client([Reply(200, payload)])
        with pytest.raises(KGError, match="malformed SPARQL results"):
            client.search_relations("m.0x", Direction.OUTGOING)


class TestCache:
    def test_identical_query_hits_cache(self):
        payload = results_payload("relation", ["a.rel"])
        client, session, _ = make_client([Reply(200, payload)])
        first = client.search_relations("m.05qtj", Direction.OUTGOING)
        second = client.search_relations("m.05qtj", Direction.OUTGOING)
        assert first == second == ["a.rel"]
        assert len(session.requests) == 1

    def test_cache_returns_copies(self):
        payload = results_payload("relation", ["a.rel"])
        client, _, _ = make_client([Reply(200, payload)])
        first = client.search_relations("m.05qtj", Direction.OUTGOING)
        first.append("mutated")
        assert client.search_relations("m.05qtj",
                                       Direction.OUTGOING) == ["a.rel"]

    def test_different_direction_is_a_different_key(self):
        payload = results_payload("relation", ["a.rel"])
        client, session, _ = make_client([Reply(200, payload),
                                          Reply(200, payload)])
        client.search_relations("m.05qtj", Direction.OUTGOING)
        client.search_relations("m.05qtj", Direction.INCOMING)
        assert len(session.requests) == 2


class TestLabels:
    def test_resolve_label_uses_first_value(self):
        payload = results_payload("tailEntity", ["Panama"])
        client, session, _ = make_client([Reply(200, payload)])
        label = client.resolve_label("m.05qtj")
        assert label.label == "Panama"
        assert label.is_fallback is False
        body = session.requests[0]["data"].decode("utf-8")
        assert "owl#sameAs" in body and "FILTER(?entity = ns:m.05qtj)" in body

    def test_resolve_label_falls_back_to_id(self):
        payload = {"results": {"bindings": []}}
        client, _, _ = make_client([Reply(200, payload)])
        label = client.resolve_label("m.0mystery")
        assert label.label == "m.0mystery"
        assert label.is_fallback is True

    def test_blank_values_never_become_labels(self):
        payload = {"results": {"bindings": [
            {"tailEntity": {"type": "literal", "value": "  "}},
            {"tailEntity": {"type": "literal", "value": "Panama"}},
        ]}}
        blank = {"results": {"bindings": [
            {"tailEntity": {"type": "literal", "value": " \t"}}]}}
        client, _, _ = make_client([Reply(200, payload),
                                    Reply(200, blank)])
        assert client.resolve_label("m.05qtj").label == "Panama"
        label = client.resolve_label("m.0blank")
        assert label.label == "m.0blank"
        assert label.is_fallback is True

    @pytest.mark.parametrize("name", [
        pytest.param({"type": "literal", "value": "iPhone"}, id="literal"),
        pytest.param({"value": "iPhone"}, id="untyped"),
    ])
    def test_a_name_wins_over_a_same_as_iri_that_sorts_first(self, name):
        # the in-memory store's rule: first sorted name, else first sorted
        # alias. "h" sorts before "i", so sorted order alone picks the IRI.
        payload = {"results": {"bindings": [
            {"tailEntity": {"type": "uri",
                            "value": "http://dbpedia.org/resource/IPhone"}},
            {"tailEntity": name},
        ]}}
        client, _, _ = make_client([Reply(200, payload)])
        assert client.resolve_label("m.0iphone") == (
            "m.0iphone", "iPhone", False)

    def test_an_alias_only_entity_gets_its_alias(self):
        # as the in-memory store labels it, not with its id
        payload = {"results": {"bindings": [
            {"alias": {"type": "literal", "value": alias}}
            for alias in ("Buzz", "Bee")]}}
        client, session, _ = make_client([Reply(200, payload)])
        assert client.resolve_label("m.0b") == ("m.0b", "Bee", False)
        assert InMemoryKG([("m.0b", "common.topic.alias", alias)
                           for alias in ("Buzz", "Bee")]
                          ).resolve_label("m.0b") == ("m.0b", "Bee", False)
        body = session.requests[0]["data"].decode("utf-8")
        assert "?entity ns:common.topic.alias ?alias ." in body

    @pytest.mark.parametrize("name", [
        pytest.param({"type": "literal", "value": "iPhone"}, id="literal"),
        pytest.param({"value": "iPhone"}, id="untyped"),
    ])
    def test_a_name_wins_over_an_alias_that_sorts_first(self, name):
        payload = {"results": {"bindings": [
            {"alias": {"type": "literal", "value": "Apple phone"}},
            {"tailEntity": name},
        ]}}
        client, _, _ = make_client([Reply(200, payload)])
        assert client.resolve_label("m.0iphone") == (
            "m.0iphone", "iPhone", False)

    @pytest.mark.parametrize("alias, label", [
        ("Apple phone", "Apple phone"),
        ("iPhone", "http://dbpedia.org/resource/IPhone"),
    ])
    def test_aliases_and_same_as_iris_sort_together(self, alias, label):
        payload = {"results": {"bindings": [
            {"tailEntity": {"type": "uri",
                            "value": "http://dbpedia.org/resource/IPhone"}},
            {"alias": {"type": "literal", "value": alias}},
        ]}}
        client, _, _ = make_client([Reply(200, payload)])
        assert client.resolve_label("m.0iphone") == (
            "m.0iphone", label, False)

    def test_payload_round_trips_as_json(self):
        # canned payloads in these tests mirror the concrete wire format
        payload = results_payload("tailEntity", ["m.0fsmy2"])
        assert json.loads(json.dumps(payload)) == payload


class TestEntitySearch:
    # an id, a name literal and an IRI outside the namespace
    TAILS = {"results": {"bindings": [
        {"tailEntity": {"type": "uri",
                        "value": "http://rdf.freebase.com/ns/m.0a"}},
        {"tailEntity": {"type": "literal", "value": "Juan Carlos Varela"}},
        {"tailEntity": {"type": "uri",
                        "value": "http://dbpedia.org/resource/Panama"}},
    ]}}

    def test_keeps_only_plain_names(self):
        client, _, _ = make_client([Reply(200, self.TAILS)])
        assert client.search_entities("m.0t", "test.rel",
                                      Direction.OUTGOING) == ["m.0a"]

    def test_plain_literals_stay_and_label_themselves(self):
        payload = {"results": {"bindings": [
            {"tailEntity": {"type": "literal", "value": value}}
            for value in ("1987", "1987-05-04")]}}
        client, session, _ = make_client([Reply(200, payload)])
        assert client.search_entities("m.0t", "test.born",
                                      Direction.OUTGOING) == [
            "1987", "1987-05-04"]
        assert client.resolve_label("1987") == ("1987", "1987", True)
        assert len(session.requests) == 1

    def test_a_literal_tail_labels_itself_without_a_request(self):
        # "typed-literal" is the older spelling of a literal with a
        # datatype; an id tail, and an untyped one, still ask
        payload = {"results": {"bindings": [
            {"tailEntity": {"type": "typed-literal", "value": "1987"}},
            {"tailEntity": {"type": "uri",
                            "value": "http://rdf.freebase.com/ns/m.0a"}},
            {"tailEntity": {"value": "m.0b"}},
        ]}}
        client, session, _ = make_client(
            [Reply(200, payload),
             Reply(200, results_payload("tailEntity", ["Alpha"])),
             Reply(200, results_payload("tailEntity", ["Beta"]))])
        assert client.search_entities("m.0t", "test.rel",
                                      Direction.OUTGOING) == [
            "1987", "m.0a", "m.0b"]
        assert client.resolve_label("1987") == ("1987", "1987", True)
        assert len(session.requests) == 1
        assert client.resolve_label("m.0a") == ("m.0a", "Alpha", False)
        assert client.resolve_label("m.0b") == ("m.0b", "Beta", False)
        assert len(session.requests) == 3

    def test_a_label_already_fetched_is_kept(self):
        # a value bound both as a literal and as an id is an id, and an
        # earlier label reply is never replaced by an empty one
        tails = {"results": {"bindings": [
            {"tailEntity": {"type": "literal", "value": "m.0a"}},
            {"tailEntity": {"type": "uri",
                            "value": "http://rdf.freebase.com/ns/m.0a"}},
            {"tailEntity": {"type": "literal", "value": "m.0b"}},
        ]}}
        client, session, _ = make_client(
            [Reply(200, results_payload("tailEntity", ["Bee"])),
             Reply(200, tails),
             Reply(200, results_payload("tailEntity", ["Alpha"]))])
        assert client.resolve_label("m.0b").label == "Bee"
        client.search_entities("m.0t", "test.rel", Direction.OUTGOING)
        assert client.resolve_label("m.0b").label == "Bee"
        assert client.resolve_label("m.0a").label == "Alpha"
        assert len(session.requests) == 3

    def test_a_run_over_such_tails_finishes(self):
        class Graph:
            """m.0t -test.rel-> TAILS; m.0t and m.0a have names."""

            def __init__(self):
                self.requests = []

            def post(self, url, *, data, **kwargs):
                query = data.decode("utf-8")
                self.requests.append(query)
                if "FILTER(?entity = ns:" in query:
                    names = {"m.0t": ["Topic"], "m.0a": ["Alpha"]}
                    entity = query.split("FILTER(?entity = ns:")[1]
                    found = names.get(entity.split(")")[0], [])
                    return Reply(200, {"results": {"bindings": [
                        {"tailEntity": {"type": "literal", "value": name}}
                        for name in found]}})
                if "ns:m.0t ?relation ?x" in query:
                    return Reply(200, results_payload(
                        "relation", ["test.rel"]))
                if "ns:m.0t ns:test.rel ?tailEntity" in query:
                    return Reply(200, TestEntitySearch.TAILS)
                return Reply(200, {"results": {"bindings": []}})

        session = Graph()
        client = SparqlKG(ENDPOINT, session=session, sleep=lambda _: None)
        question = Question("Who is Alpha?", (("m.0t", "Topic"),))
        for seed in range(5):
            result = Planner(client, PromptAwareResponder(seed),
                             PlannerConfig(max_depth=2)).run(question)
            assert result.verdict is not None
        assert any("ns:m.0t ns:test.rel ?tailEntity" in query
                   for query in session.requests)
