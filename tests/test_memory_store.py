import random

import pytest

from graphquest.kg.memory_store import InMemoryKG, TripleLoadError
from graphquest.kg.types import Direction, KGError, Triplet

from oracles import naive_search_entities, naive_search_relations, random_graph


class TestLoading:
    def test_tsv_load_counts_every_data_line(self, fixtures_dir):
        kg = InMemoryKG()
        count = kg.load_triples(str(fixtures_dir / "panama.tsv"))
        assert count == 25  # 13 domain + 12 name rows; comments skipped
        assert len(kg) == 13  # only domain triples are searchable

    def test_ntriples_subset(self, tmp_path):
        path = tmp_path / "mini.nt"
        path.write_text(
            "# header comment\n"
            "<http://rdf.freebase.com/ns/m.0a> "
            "<http://rdf.freebase.com/ns/test.block.edge> "
            "<http://rdf.freebase.com/ns/m.0b> .\n"
            "<http://rdf.freebase.com/ns/m.0a> "
            "<http://rdf.freebase.com/ns/type.object.name> "
            "\"Alpha\"@en .\n"
            "<http://rdf.freebase.com/ns/m.0b> "
            "<http://rdf.freebase.com/ns/type.object.name> "
            "\"Beta \\\"quoted\\\"\" .\n",
            encoding="utf-8",
        )
        kg = InMemoryKG()
        assert kg.load_triples(str(path), format="ntriples-subset") == 3
        assert len(kg) == 1
        assert kg.search_entities("m.0a", "test.block.edge",
                                  Direction.OUTGOING) == ["m.0b"]
        assert kg.resolve_label("m.0a").label == "Alpha"
        assert kg.resolve_label("m.0b").label == 'Beta "quoted"'

    def test_malformed_line_reports_position_and_loads_nothing(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("m.0a\ttest.block.edge\tm.0b\nm.0c only-two-columns\n",
                        encoding="utf-8")
        kg = InMemoryKG()
        with pytest.raises(TripleLoadError) as info:
            kg.load_triples(str(path))
        assert info.value.line_number == 2
        assert str(path) in str(info.value)
        assert len(kg) == 0  # all-or-nothing

    def test_ntriples_literal_escapes(self, tmp_path):
        labels = {
            r'"Café \"Noir\""': 'Café "Noir"',
            r'"a\tb\bc\nd\re\ff"': "a\tb\bc\nd\re\ff",
            r'"it\'s a \\ sign"': "it's a \\ sign",
            r'"\u00e9t\u00E9 \U0001F600"': "\u00e9t\u00e9 \U0001F600",
        }
        path = tmp_path / "escapes.nt"
        path.write_text("".join(
            f"<http://rdf.freebase.com/ns/m.{i}> "
            f"<http://rdf.freebase.com/ns/type.object.name> {literal} .\n"
            for i, literal in enumerate(labels)), encoding="utf-8")
        kg = InMemoryKG()
        kg.load_triples(str(path), format="ntriples-subset")
        assert [kg.resolve_label(f"m.{i}").label
                for i in range(len(labels))] == list(labels.values())

    @pytest.mark.parametrize("literal", [r'"bad \x"', r'"bad \u12"',
                                         r'"bad \a"', r'"bad \UFFFFFFFF"'])
    def test_unknown_literal_escape_names_the_line(self, tmp_path, literal):
        path = tmp_path / "bad.nt"
        path.write_text(
            "# header\n"
            "<http://rdf.freebase.com/ns/m.0a> "
            f"<http://rdf.freebase.com/ns/type.object.name> {literal} .\n",
            encoding="utf-8")
        with pytest.raises(TripleLoadError) as info:
            InMemoryKG().load_triples(str(path), format="ntriples-subset")
        assert info.value.line_number == 2
        assert "escape" in str(info.value)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b,c\n", encoding="utf-8")
        with pytest.raises(KGError):
            InMemoryKG().load_triples(str(path), format="comma-separated")


class TestQueries:
    def test_relations_both_directions(self, panama_kg):
        assert panama_kg.search_relations("m.05qtj", Direction.OUTGOING) == [
            "location.country.capital",
            "location.country.currency_used",
            "location.country.official_language",
            "location.location.containedby",
        ]
        assert panama_kg.search_relations("m.05qtj", Direction.INCOMING) == [
            "film.film.featured_film_locations",
            "government.government_office_or_title.jurisdiction",
            "location.location.containedby",
            "people.person.nationality",
        ]

    def test_entities_both_directions(self, panama_kg):
        assert panama_kg.search_entities(
            "m.02rhx1c", "government.government_office_or_title.office_holders",
            Direction.OUTGOING) == ["m.0bhtf2"]
        assert panama_kg.search_entities(
            "m.05qtj", "film.film.featured_film_locations",
            Direction.INCOMING) == ["m.0jt3_v"]

    def test_unknown_entity_yields_empty(self, panama_kg):
        assert panama_kg.search_relations("m.nope", Direction.OUTGOING) == []
        assert panama_kg.search_entities("m.nope", "x.y.z",
                                        Direction.INCOMING) == []

    def test_triples_iterates_domain_triples_only(self, panama_kg):
        everything = list(panama_kg.triples())
        assert len(everything) == 13
        assert Triplet("m.05qtj", "location.country.capital",
                       "m.0fsmy2") in everything
        assert all(t.relation != "type.object.name" for t in everything)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_naive_scan_on_random_graphs(self, seed):
        rng = random.Random(seed)
        triples, labels = random_graph(rng)
        kg = InMemoryKG(triples)
        entities = sorted({s for s, _, _ in triples}
                          | {o for _, _, o in triples})
        relations = sorted({r for _, r, _ in triples})
        for entity in entities:
            for direction in Direction:
                assert kg.search_relations(entity, direction) == \
                    naive_search_relations(triples, entity, direction.value)
                for relation in relations:
                    assert kg.search_entities(entity, relation, direction) == \
                        naive_search_entities(triples, entity, relation,
                                              direction.value)
        del labels


class TestLabels:
    def test_name_rows_feed_the_label_table(self, panama_kg):
        resolved = panama_kg.resolve_label("m.0bhtf2")
        assert resolved.label == "Juan Carlos Varela"
        assert resolved.is_fallback is False

    def test_first_sorted_name_wins(self):
        kg = InMemoryKG()
        kg.add("m.0x", "type.object.name", "Zulu")
        kg.add("m.0x", "type.object.name", "Alpha")
        assert kg.resolve_label("m.0x").label == "Alpha"

    def test_alias_used_when_no_name(self):
        kg = InMemoryKG()
        kg.add("m.0x", "common.topic.alias", "Nickname")
        label = kg.resolve_label("m.0x")
        assert label.label == "Nickname"
        assert label.is_fallback is False

    def test_name_preferred_over_alias(self):
        kg = InMemoryKG()
        kg.add("m.0x", "common.topic.alias", "AAA Nickname")
        kg.add("m.0x", "type.object.name", "Proper Name")
        assert kg.resolve_label("m.0x").label == "Proper Name"

    def test_unlabeled_entity_falls_back_to_its_id(self):
        kg = InMemoryKG()
        label = kg.resolve_label("m.0mystery")
        assert label.label == "m.0mystery"
        assert label.is_fallback is True

    def test_label_rows_never_appear_as_relations(self):
        kg = InMemoryKG()
        kg.add("m.0x", "type.object.name", "Named")
        kg.add("m.0x", "common.topic.alias", "Aka")
        kg.add("m.0x", "test.block.edge", "m.0y")
        assert kg.search_relations("m.0x", Direction.OUTGOING) == \
            ["test.block.edge"]
        assert len(kg) == 1
