import gc
import random
import tracemalloc

import pytest

from graphquest.kg import memory_store
from graphquest.kg.memory_store import InMemoryKG
from graphquest.kg.types import (
    FREEBASE_NS,
    Direction,
    EntityLabel,
    KGError,
    Triplet,
)

from oracles import (
    naive_domain_triples,
    naive_label,
    naive_search_entities,
    naive_search_relations,
    random_graph,
    random_multigraph,
)

LABEL_PREDICATES = {memory_store.NAME_PREDICATE,
                    *memory_store.ALIAS_PREDICATES}


def write_nt(path, rows):
    """Rows as N-Triples: label rows get a literal, others an IRI object."""
    lines = []
    for subject, relation, obj in rows:
        if relation in LABEL_PREDICATES:
            tail = f'"{obj}"'
        else:
            tail = f"<{FREEBASE_NS}{obj}>"
        if not relation.startswith("http"):
            relation = FREEBASE_NS + relation
        lines.append(f"<{FREEBASE_NS}{subject}> <{relation}> {tail} .\n")
    path.write_text("".join(lines), encoding="utf-8")
    return str(path)


def tsv_rows(rows):
    """The rows a TSV file holds as they are: no column blank or padded."""
    return [row for row in rows
            if all(column and column == column.strip() for column in row)]


def write_tsv(path, rows):
    path.write_text("".join("\t".join(row) + "\n" for row in rows),
                    encoding="utf-8")
    return str(path)


def ordered_vars(kg):
    """The store's state, each dict as its items in order."""
    return {name: list(value.items()) if isinstance(value, dict) else value
            for name, value in vars(kg).items()}


def snapshot(kg, entities, relations):
    """Every query answer the store gives over these ids."""
    answers = [len(kg), list(kg.triples())]
    for entity in entities:
        answers.append(kg.resolve_label(entity))
        for direction in Direction:
            answers.append(kg.search_relations(entity, direction))
            answers.extend(kg.search_entities(entity, relation, direction)
                           for relation in relations)
    return answers


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
        assert kg.load_triples(str(path)) == 3
        assert len(kg) == 1
        assert kg.search_entities("m.0a", "test.block.edge",
                                  Direction.OUTGOING) == ["m.0b"]
        assert kg.resolve_label("m.0a").label == "Alpha"
        assert kg.resolve_label("m.0b").label == 'Beta "quoted"'

    def test_byte_order_mark_is_not_part_of_the_first_subject(self, tmp_path):
        path = tmp_path / "bom.tsv"
        path.write_text("m.0a\ttest.block.edge\tm.0b\n",
                        encoding="utf-8-sig")
        kg = InMemoryKG()
        assert kg.load_triples(str(path)) == 1
        assert kg.search_relations("m.0a", Direction.OUTGOING) == [
            "test.block.edge"]

    def test_malformed_line_reports_position_and_loads_nothing(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("m.0a\ttest.block.edge\tm.0b\nm.0c only-two-columns\n",
                        encoding="utf-8")
        kg = InMemoryKG()
        with pytest.raises(KGError) as info:
            kg.load_triples(str(path))
        assert str(info.value).startswith(f"{path}:2: ")
        assert str(path) in str(info.value)
        assert len(kg) == 0  # all-or-nothing

    def test_failed_load_leaves_a_loaded_store_unchanged(self, tmp_path):
        good = tmp_path / "good.tsv"
        good.write_text("m.0a\ttest.block.edge\tm.0b\n"
                        "m.0a\ttype.object.name\tMike\n"
                        "m.0b\tcommon.topic.alias\tBee\n", encoding="utf-8")
        bad = tmp_path / "bad.tsv"
        bad.write_text("m.0a\ttest.block.edge\tm.0c\n"
                       "m.0b\ttest.block.other\tm.0a\n"
                       "m.0a\ttype.object.name\tAlpha\n"
                       "m.0b\ttype.object.name\tBeta\n"
                       "m.0c\tcommon.topic.alias\tSea\n"
                       "m.0d only-two-columns\n", encoding="utf-8")
        kg = InMemoryKG()
        kg.load_triples(str(good))
        ids = ["m.0a", "m.0b", "m.0c", "m.0d"]
        relations = ["test.block.edge", "test.block.other"]
        before = snapshot(kg, ids, relations)
        held = dict(kg._ids)
        with pytest.raises(KGError) as info:
            kg.load_triples(str(bad))
        assert str(info.value).startswith(f"{bad}:6: ")
        assert snapshot(kg, ids, relations) == before
        assert kg._ids == held  # the failed load's new ids are not kept
        assert len(kg) == 1
        assert kg.resolve_label("m.0a").label == "Mike"

    def test_two_loads_merge_and_first_sorted_name_wins(self, tmp_path):
        first = tmp_path / "first.tsv"
        first.write_text("m.0a\ttest.block.edge\tm.0b\n"
                         "m.0a\ttype.object.name\tZulu\n"
                         "m.0b\ttype.object.name\tAlpha\n"
                         "m.0c\tcommon.topic.alias\tNick\n", encoding="utf-8")
        second = tmp_path / "second.tsv"
        second.write_text("m.0c\ttest.block.edge\tm.0a\n"
                          "m.0a\ttest.block.edge\tm.0c\n"
                          "m.0a\ttest.block.edge\tm.0b\n"
                          "m.0a\ttype.object.name\tMike\n"
                          "m.0b\ttype.object.name\tBravo\n"
                          "m.0c\ttype.object.name\tCharlie\n",
                          encoding="utf-8")
        kg = InMemoryKG()
        assert kg.load_triples(str(first)) == 4
        assert kg.load_triples(str(second)) == 6
        assert len(kg) == 4  # the repeated edge counts once per line
        assert list(kg.triples()) == [
            Triplet("m.0a", "test.block.edge", "m.0b"),
            Triplet("m.0a", "test.block.edge", "m.0c"),
            Triplet("m.0a", "test.block.edge", "m.0b"),
            Triplet("m.0c", "test.block.edge", "m.0a"),
        ]
        assert kg.search_entities("m.0a", "test.block.edge",
                                  Direction.OUTGOING) == ["m.0b", "m.0c"]
        assert kg.search_entities("m.0a", "test.block.edge",
                                  Direction.INCOMING) == ["m.0c"]
        assert [kg.resolve_label(e).label for e in ("m.0a", "m.0b", "m.0c")] \
            == ["Mike", "Alpha", "Charlie"]

    def test_load_builds_no_triplet(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("load_triples built a Triplet")

        monkeypatch.setattr(memory_store, "Triplet", refuse)
        path = tmp_path / "g.tsv"
        path.write_text("m.0a\ttest.block.edge\tm.0b\n"
                        "m.0a\ttype.object.name\tAlpha\n", encoding="utf-8")
        kg = InMemoryKG()
        kg.load_triples(str(path))
        kg.load_triples(str(path))
        assert len(kg) == 2

    def test_load_calls_no_method_per_triple(self, tmp_path, monkeypatch):
        def refuse(self, *args):
            raise AssertionError("load_triples called add")

        monkeypatch.setattr(InMemoryKG, "add", refuse)
        rows = [("m.0a", "test.block.edge", "m.0b"),
                ("m.0a", "type.object.name", "Alpha")]
        kg = InMemoryKG()
        assert kg.load_triples(write_tsv(tmp_path / "g.tsv", rows)) == 2
        assert kg.load_triples(write_nt(tmp_path / "g.nt", rows)) == 2
        assert len(kg) == 2

    @pytest.mark.parametrize("seed", range(8))
    def test_every_build_leaves_the_same_store(self, seed, tmp_path):
        # the id table and every dict's order included
        rows = tsv_rows(random_multigraph(random.Random(seed)))
        by_add = InMemoryKG()
        for row in rows:
            by_add.add(*row)
        by_tsv, by_nt = InMemoryKG(), InMemoryKG()
        by_tsv.load_triples(write_tsv(tmp_path / "g.tsv", rows))
        by_nt.load_triples(write_nt(tmp_path / "g.nt", rows))
        expected = ordered_vars(InMemoryKG(rows))
        for kg in (by_add, by_tsv, by_nt):
            assert ordered_vars(kg) == expected

    def test_ntriples_literal_escapes(self, tmp_path):
        labels = {
            r'"Café \"Noir\""': 'Café "Noir"',
            r'"a\tb\bc\nd\re\ff"': "a\tb\bc\nd\re\ff",
            r'"it\'s a \\ sign"': "it's a \\ sign",
            r'"\u00e9t\u00E9 \U0001F600"': "\u00e9t\u00e9 \U0001F600",
            # an escaped UTF-16 pair is the one character, as in JSON;
            # halves not in that order stay apart
            r'"\uD83D\uDE00 \ud83d\ude00"': "\U0001F600 \U0001F600",
            r'"\ude00\ud83d \ud83d"': "\ude00\ud83d \ud83d",
        }
        path = tmp_path / "escapes.nt"
        path.write_text("".join(
            f"<http://rdf.freebase.com/ns/m.{i}> "
            f"<http://rdf.freebase.com/ns/type.object.name> {literal} .\n"
            for i, literal in enumerate(labels)), encoding="utf-8")
        kg = InMemoryKG()
        kg.load_triples(str(path))
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
        with pytest.raises(KGError) as info:
            InMemoryKG().load_triples(str(path))
        assert str(info.value).startswith(f"{path}:2: ")
        assert "escape" in str(info.value)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b,c\n", encoding="utf-8")
        with pytest.raises(KGError, match="x.csv:1: expected 3 tab"):
            InMemoryKG().load_triples(str(path))

    def test_the_first_data_line_picks_the_parser_whatever_the_name(
            self, tmp_path):
        ntriples = tmp_path / "graph.txt"
        ntriples.write_text(
            "# exported graph\n"
            "\n"
            "   # indented comment\n"
            f"<{FREEBASE_NS}m.0a> <{FREEBASE_NS}test.block.edge> "
            f"<{FREEBASE_NS}m.0b> .\n"
            f'<{FREEBASE_NS}m.0a> <{FREEBASE_NS}type.object.name> "A" .\n',
            encoding="utf-8-sig")
        tsv = tmp_path / "graph.nt"
        tsv.write_text("# exported graph\nm.0b\ttest.block.edge\tm.0c\n",
                       encoding="utf-8")
        kg = InMemoryKG()
        assert kg.load_triples(str(ntriples)) == 2
        assert kg.load_triples(str(tsv)) == 1
        assert [tuple(vars(t).values()) for t in kg.triples()] == [
            ("m.0a", "test.block.edge", "m.0b"),
            ("m.0b", "test.block.edge", "m.0c")]
        assert kg.resolve_label("m.0a").label == "A"

    @pytest.mark.parametrize("lines, bad", [
        pytest.param([f"<{FREEBASE_NS}m.0a> <{FREEBASE_NS}r.e.l> "
                      f"<{FREEBASE_NS}m.0b> .", "m.0b\tr.e.l\tm.0c"],
                     "not a recognized triple line", id="ntriples-then-tsv"),
        pytest.param(["m.0b\tr.e.l\tm.0c", f"<{FREEBASE_NS}m.0a> "
                      f"<{FREEBASE_NS}r.e.l> <{FREEBASE_NS}m.0b> ."],
                     "expected 3 tab-separated columns",
                     id="tsv-then-ntriples"),
    ])
    def test_one_parser_reads_the_whole_file(self, tmp_path, lines, bad):
        path = tmp_path / "mixed.txt"
        path.write_text("# header\n" + "\n".join(lines) + "\n",
                        encoding="utf-8")
        kg = InMemoryKG()
        with pytest.raises(KGError, match=f"mixed.txt:3: {bad}"):
            kg.load_triples(str(path))
        assert len(kg) == 0


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

    @pytest.mark.parametrize("seed", range(16))
    @pytest.mark.parametrize("build", ["add", "two files", "tsv"])
    def test_matches_naive_scan_on_multigraphs(self, seed, build, tmp_path):
        rows = random_multigraph(random.Random(seed))
        if build == "add":
            kg = InMemoryKG(rows)
        elif build == "tsv":
            rows = tsv_rows(rows)
            kg = InMemoryKG()
            kg.load_triples(write_tsv(tmp_path / "g.tsv", rows))
        else:
            cut = random.Random(-seed).randint(0, len(rows))
            kg = InMemoryKG()
            for name, part in (("a.nt", rows[:cut]), ("b.nt", rows[cut:])):
                kg.load_triples(write_nt(tmp_path / name, part))
        domain = naive_domain_triples(rows)
        assert len(kg) == len(domain)
        assert [tuple(vars(t).values()) for t in kg.triples()] == domain
        entities = sorted({row[0] for row in rows}
                          | {obj for _, _, obj in domain} | {"m.absent"})
        relations = sorted({r for _, r, _ in domain}) + ["test.absent"]
        for entity in entities:
            label, fallback = naive_label(rows, entity)
            assert kg.resolve_label(entity) == EntityLabel(entity, label,
                                                           fallback)
            for direction in Direction:
                assert kg.search_relations(entity, direction) == \
                    naive_search_relations(domain, entity, direction.value)
                for relation in relations:
                    assert kg.search_entities(entity, relation, direction) \
                        == naive_search_entities(domain, entity, relation,
                                                 direction.value)


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

    def test_blank_names_never_become_labels(self, tmp_path):
        path = write_nt(tmp_path / "blank.nt", [
            ("m.0x", "type.object.name", ""),
            ("m.0x", "common.topic.alias", "Nickname"),
            ("m.0y", "type.object.name", "   "),
            ("m.0y", "common.topic.alias", ""),
        ])
        kg = InMemoryKG()
        assert kg.load_triples(path) == 4
        assert kg.resolve_label("m.0x") == EntityLabel("m.0x", "Nickname")
        assert kg.resolve_label("m.0y") == EntityLabel("m.0y", "m.0y",
                                                       is_fallback=True)
        kg.add("m.0z", "type.object.name", "\t")
        assert kg.resolve_label("m.0z").is_fallback is True

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


class TestFootprint:
    ENTITIES = 2_000
    DEGREE = 9  # with one name each: 20,000 lines

    def write_graph(self, tmp_path):
        lines = [f"m.e{i}\ttype.object.name\tThing number {i}\n"
                 for i in range(self.ENTITIES)]
        for k in range(1, self.DEGREE + 1):
            lines.extend(
                f"m.e{i}\ttest.block.edge_{(i + k) % 7}\t"
                f"m.e{(i * 7 + k * 131) % self.ENTITIES}\n"
                for i in range(self.ENTITIES))
        path = tmp_path / "graph.tsv"
        path.write_text("".join(lines), encoding="utf-8")
        return str(path), len(lines)

    def test_retained_bytes_per_line(self, tmp_path):
        # On CPython 3.11 this graph kept about 320 B per line as Triplet
        # objects in per-entity lists, and 70 as interned ids in flat ones.
        path, lines = self.write_graph(tmp_path)
        gc.collect()
        already = tracemalloc.is_tracing()
        if not already:
            tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        kg = InMemoryKG()
        kg.load_triples(path)
        retained = tracemalloc.get_traced_memory()[0] - before
        if not already:
            tracemalloc.stop()
        assert len(kg) == self.ENTITIES * self.DEGREE
        assert retained / lines < 150

    def test_a_repeated_id_is_stored_once(self, tmp_path):
        path, _ = self.write_graph(tmp_path)
        kg = InMemoryKG()
        kg.load_triples(path)
        kg.load_triples(path)
        stored = [t.subject for t in kg.triples() if t.subject == "m.e7"]
        stored += [t.object for t in kg.triples() if t.object == "m.e7"]
        for relation in kg.search_relations("m.e7", Direction.INCOMING):
            for subject in kg.search_entities("m.e7", relation,
                                              Direction.INCOMING):
                stored += kg.search_entities(subject, relation,
                                             Direction.OUTGOING)
        stored = [s for s in stored if s == "m.e7"]
        assert len(stored) > 2 * self.DEGREE
        assert len({id(s) for s in stored}) == 1
        relations = [t.relation for t in kg.triples()
                     if t.relation == "test.block.edge_3"]
        assert len({id(r) for r in relations}) == 1
