import json
import logging

import pytest

from graphquest.harness.datasets import DatasetError, load_dataset
from graphquest.planner.state import Question


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestNormalized:
    def test_loads_fixture(self, fixtures_dir):
        records = load_dataset(str(fixtures_dir / "capitals_dataset.json"))
        assert [r.id for r in records] == ["cap-fr", "cap-jp", "cap-it",
                                           "cap-es"]
        assert records[0].topic_entities == (("m.fr", "France"),)
        assert records[0].answers == ("Paris",)


class TestCwq:
    def test_shape(self, tmp_path):
        path = write_json(tmp_path / "cwq.json", [{
            "ID": "WebQTrn-1_abc",
            "question": "Who leads the country?",
            "topic_entity": {"m.05qtj": "Panama"},
            "answers": [{"answer": "Juan Carlos Varela",
                         "aliases": ["Varela"]}],
            "compositionality_type": "composition",
        }])
        records = load_dataset(path)
        assert records[0].id == "WebQTrn-1_abc"
        assert records[0].topic_entities == (("m.05qtj", "Panama"),)
        assert records[0].answers == ("Juan Carlos Varela", "Varela")


class TestWebqsp:
    def test_flattened_shape(self, fixtures_dir):
        records = load_dataset(str(fixtures_dir / "webqsp_smoke.json"))
        assert len(records) == 10
        bieber = next(r for r in records if r.id == "smoke-01")
        assert bieber.topic_entities == (("m.06w2sn5", "Justin Bieber"),)
        assert "Jaxon Bieber" in bieber.answers

    def test_official_parses_shape(self, tmp_path):
        path = write_json(tmp_path / "webqsp.json", [{
            "QuestionId": "WebQTest-99",
            "RawQuestion": "what is the capital of panama?",
            "Parses": [
                {"TopicEntityMid": "m.05qtj", "TopicEntityName": "Panama",
                 "Answers": [{"EntityName": "Panama City"}]},
                {"TopicEntityMid": "m.05qtj", "TopicEntityName": "Panama",
                 "Answers": [{"EntityName": "Panama City"},
                             {"EntityName": "Ciudad de Panamá"}]},
            ],
        }])
        records = load_dataset(path)
        assert records[0].topic_entities == (("m.05qtj", "Panama"),)
        assert records[0].answers == ("Panama City", "Ciudad de Panamá")

    def test_repeated_topic_keeps_its_first_label(self, tmp_path):
        # as Question and normalized records do
        path = write_json(tmp_path / "webqsp.json", [{
            "QuestionId": "WebQTest-7",
            "RawQuestion": "who is it?",
            "Parses": [
                {"TopicEntityMid": "m.0a", "TopicEntityName": "First Name"},
                {"TopicEntityMid": "m.0b", "TopicEntityName": "Other"},
                {"TopicEntityMid": "m.0a", "TopicEntityName": "Second Name"},
            ],
        }])
        records = load_dataset(path)
        assert records[0].topic_entities == (("m.0a", "First Name"),
                                             ("m.0b", "Other"))


class TestGrailqa:
    def test_shape(self, tmp_path):
        path = write_json(tmp_path / "grail.json", [{
            "qid": 3201,
            "question": "which river flows through vienna?",
            "answer": [{"answer_argument": "m.0dnh2",
                        "entity_name": "Danube"}],
            "graph_query": {"nodes": [
                {"node_type": "entity", "id": "m.0f2v0",
                 "friendly_name": "Vienna"},
                {"node_type": "class", "id": "location.river"},
            ]},
            "level": "i.i.d.",
        }])
        records = load_dataset(path)
        assert records[0].id == "3201"
        assert records[0].topic_entities == (("m.0f2v0", "Vienna"),)
        assert set(records[0].answers) == {"m.0dnh2", "Danube"}

    def test_repeated_topic_keeps_its_first_label(self, tmp_path):
        path = write_json(tmp_path / "grail.json", [{
            "qid": 1,
            "question": "which one?",
            "graph_query": {"nodes": [
                {"node_type": "entity", "id": "m.0a",
                 "friendly_name": "First Name"},
                {"node_type": "entity", "id": "m.0a",
                 "friendly_name": "Second Name"},
            ]},
        }])
        records = load_dataset(path)
        assert records[0].topic_entities == (("m.0a", "First Name"),)


class TestValidation:
    def test_non_list_payload(self, tmp_path):
        path = write_json(tmp_path / "x.json", {"oops": True})
        with pytest.raises(DatasetError):
            load_dataset(path)

    def test_non_json_file_names_the_file(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(DatasetError, match="x.json: not JSON"):
            load_dataset(str(path))

    def test_a_deeply_nested_file_is_a_dataset_error(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000, encoding="utf-8")
        with pytest.raises(DatasetError, match="deep.json: not JSON"):
            load_dataset(str(path))

    def test_a_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.json"
        path.write_text(json.dumps([{"id": "q1", "question": "Q?",
                                     "topic_entities": [["m.0a", "A"]]}]),
                        encoding="utf-8-sig")
        [record] = load_dataset(str(path))
        assert (record.id, record.topic_entities) == ("q1", (("m.0a", "A"),))

    def test_bad_record_reports_index(self, tmp_path):
        path = write_json(tmp_path / "x.json", [
            {"id": "ok", "question": "Q?",
             "topic_entities": [["m.0a", "A"]]},
            {"id": "broken"},
        ])
        with pytest.raises(DatasetError) as info:
            load_dataset(path)
        assert "record 1" in str(info.value)

    def test_topic_entity_of_three_items_reports_index(self, tmp_path):
        path = write_json(tmp_path / "x.json", [
            {"id": "odd", "question": "Q?",
             "topic_entities": [["m.0a", "A", "extra"]]},
        ])
        with pytest.raises(DatasetError, match="record 0"):
            load_dataset(path)

    @pytest.mark.parametrize("field,value,message", [
        ("question", None, "question must be a string"),
        ("question", ["Q?"], "question must be a string"),
        ("answers", [["A"]], "answer ['A'] is not a string or number"),
        ("answers", [None], "answer None is not a string or number"),
        ("answers", [True], "answer True is not a string or number"),
        ("answers", {"answer": "A"}, "is not a string or number"),
        ("topic_entities", [[None, "A"]], "topic entity id must be a string"),
        ("topic_entities", [["m.0a", 7]],
         "topic entity label must be a string"),
        ("topic_entities", ["ab"], "is not an [id, label] pair"),
        ("id", None, "id must be a string or an integer"),
    ])
    def test_wrong_field_type_names_the_record(self, tmp_path, field, value,
                                               message):
        record = {"id": "r1", "question": "Q?",
                  "topic_entities": [["m.0a", "A"]], "answers": ["A"]}
        record[field] = value
        path = write_json(tmp_path / "x.json", [
            {"id": "ok", "question": "Q?",
             "topic_entities": [["m.0a", "A"]]},
            record,
        ])
        with pytest.raises(DatasetError) as info:
            load_dataset(path)
        assert "record 1" in str(info.value)
        assert message in str(info.value)

    @pytest.mark.parametrize("record", [
        pytest.param({"id": "n1", "question": "   ",
                      "topic_entities": [["m.0a", "A"]]}, id="normalized"),
        pytest.param({"ID": "c1", "question": "",
                      "topic_entity": {"m.0a": "A"}}, id="cwq"),
        pytest.param({"QuestionId": "w1", "RawQuestion": "\t\n",
                      "Parses": [{"TopicEntityMid": "m.0a"}]}, id="webqsp"),
        pytest.param({"qid": 1, "question": " ",
                      "graph_query": {"nodes": []}}, id="grailqa"),
    ])
    def test_a_blank_question_names_the_record(self, tmp_path, record):
        path = write_json(tmp_path / "x.json", [record])
        with pytest.raises(DatasetError,
                           match="record 0 .*question is blank"):
            load_dataset(path)

    @pytest.mark.parametrize("record", [
        pytest.param({"ID": "c1", "question": None,
                      "topic_entity": {"m.0a": "A"}}, id="cwq"),
        pytest.param({"QuestionId": "w1", "RawQuestion": None,
                      "Parses": [{"TopicEntityMid": "m.0a"}]}, id="webqsp"),
        pytest.param({"QuestionId": "w2", "topic_entity": {"m.0a": "A"}},
                     id="webqsp-flattened-without-question"),
        pytest.param({"QuestionId": "w3", "question": 12,
                      "topic_entity": {"m.0a": "A"}},
                     id="webqsp-flattened"),
        pytest.param({"qid": 1, "question": {"text": "Q?"},
                      "graph_query": {"nodes": []}}, id="grailqa"),
    ])
    def test_other_layouts_require_a_string_question(self, tmp_path, record):
        path = write_json(tmp_path / "x.json", [record])
        with pytest.raises(DatasetError,
                           match="record 0 .*question must be a string"):
            load_dataset(path)

    @pytest.mark.parametrize("record,message", [
        ({"ID": "c1", "question": "Q?", "topic_entity": {"m.0a": None}},
         "topic entity label must be a string"),
        ({"ID": "c1", "question": "Q?", "topic_entity": {"m.0a": "A"},
          "answers": [{"answer": ["A"]}]},
         "answer ['A'] is not a string or number"),
        ({"ID": "c1", "question": "Q?", "topic_entity": {"m.0a": "A"},
          "answers": [{"answer": False}]},
         "answer False is not a string or number"),
        ({"ID": "c1", "question": "Q?", "topic_entity": {"m.0a": "A"},
          "answers": [{"answer": []}]},
         "answer [] is not a string or number"),
        ({"QuestionId": "w1", "RawQuestion": "Q?",
          "Parses": [{"TopicEntityMid": "m.0a",
                      "Answers": [{"EntityName": {}}]}]},
         "answer {} is not a string or number"),
        ({"ID": "c1", "question": "Q?", "topic_entity": {"m.0a": "A"},
          "answers": [{"answer": "A", "aliases": "Ay"}]},
         "aliases must be a list"),
        ({"QuestionId": "w1", "RawQuestion": "Q?",
          "Parses": [{"TopicEntityMid": 5}]},
         "topic entity id must be a string"),
        ({"QuestionId": "w1", "RawQuestion": "Q?",
          "Parses": [{"TopicEntityMid": 0}]},
         "topic entity id must be a string"),
        ({"qid": 1, "question": "Q?", "graph_query": {"nodes": [
            {"node_type": "entity", "id": None}]}},
         "topic entity id must be a string"),
    ])
    def test_other_layouts_reject_wrong_field_types(self, tmp_path, record,
                                                    message):
        path = write_json(tmp_path / "x.json", [record])
        with pytest.raises(DatasetError, match="record 0") as info:
            load_dataset(path)
        assert message in str(info.value)

    def test_numbers_stay_valid_ids_and_answers(self, tmp_path):
        path = write_json(tmp_path / "x.json", [
            {"id": 7, "question": "How many?",
             "topic_entities": [["m.0a", "A"]], "answers": [3, 2.5, "three"]},
        ])
        record = load_dataset(path)[0]
        assert record.id == "7"
        assert record.answers == ("3", "2.5", "three")

    def test_a_zero_answer_is_kept(self, tmp_path):
        path = write_json(tmp_path / "x.json", [
            {"ID": "c1", "question": "How many?", "topic_entity": {"m.0a": "A"},
             "answers": [{"answer": 0, "aliases": []}, {"answer": ""}]},
        ])
        assert load_dataset(path)[0].answers == ("0",)

    def test_topicless_records_skipped_with_warning(self, tmp_path, caplog):
        path = write_json(tmp_path / "x.json", [
            {"id": "keep", "question": "Q?",
             "topic_entities": [["m.0a", "A"]]},
            {"id": "drop-1", "question": "Q?", "topic_entities": []},
            {"id": "drop-2", "question": "Q?", "topic_entities": []},
        ])
        with caplog.at_level(logging.WARNING,
                             logger="graphquest.harness.datasets"):
            records = load_dataset(path)
        assert [r.id for r in records] == ["keep"]
        warnings = [r for r in caplog.records
                    if "skipped 2 record(s)" in r.getMessage()]
        assert len(warnings) == 1
        assert "drop-1" in warnings[0].getMessage()


class TestLayoutDetection:
    """Each record's keys say its layout; no record names it."""

    def test_a_file_mixing_layouts_loads_every_record(self, tmp_path):
        path = write_json(tmp_path / "mixed.json", [
            {"id": "n1", "question": "Normalized?",
             "topic_entities": [["m.0a", "A"]], "answers": ["x"]},
            {"ID": "c1", "question": "Complex?",
             "topic_entity": {"m.0b": "B"}, "answers": [{"answer": "y"}]},
            {"QuestionId": "w1", "RawQuestion": "Official?",
             "Parses": [{"TopicEntityMid": "m.0c", "TopicEntityName": "C",
                         "Answers": [{"EntityName": "z"}]}]},
            {"qid": 4, "question": "Grail?", "answer": [
                {"answer_argument": "m.0e"}],
             "graph_query": {"nodes": [{"node_type": "entity",
                                        "id": "m.0d",
                                        "friendly_name": "D"}]}},
        ])
        assert [(r.id, r.question, r.topic_entities, r.answers)
                for r in load_dataset(path)] == [
            ("n1", "Normalized?", (("m.0a", "A"),), ("x",)),
            ("c1", "Complex?", (("m.0b", "B"),), ("y",)),
            ("w1", "Official?", (("m.0c", "C"),), ("z",)),
            ("4", "Grail?", (("m.0d", "D"),), ("m.0e",)),
        ]

    @pytest.mark.parametrize("record", [
        pytest.param({"id": "n1", "question": "Q?", "topic_entities": [
            ["m.0a", ""], ["m.0b", " \t"], ["m.0c", " Gamma "]]},
            id="normalized"),
        pytest.param({"ID": "c1", "question": "Q?", "topic_entity": {
            "m.0a": "", "m.0b": " \t", "m.0c": " Gamma "}}, id="cwq"),
        pytest.param({"QuestionId": "w1", "RawQuestion": "Q?", "Parses": [
            {"TopicEntityMid": "m.0a", "TopicEntityName": ""},
            {"TopicEntityMid": "m.0b", "TopicEntityName": " \t"},
            {"TopicEntityMid": "m.0c", "TopicEntityName": " Gamma "}]},
            id="webqsp"),
        pytest.param({"qid": 1, "question": "Q?", "graph_query": {"nodes": [
            {"node_type": "entity", "id": "m.0a", "friendly_name": ""},
            {"node_type": "entity", "id": "m.0b", "friendly_name": " \t"},
            {"node_type": "entity", "id": "m.0c",
             "friendly_name": " Gamma "}]}}, id="grailqa"),
    ])
    def test_a_blank_topic_label_is_the_id(self, tmp_path, record):
        # in the question a record seeds, as `--topic ID=` gives; any
        # other label is kept as given
        path = write_json(tmp_path / "x.json", [record])
        loaded = load_dataset(path)[0]
        assert Question(loaded.question, loaded.topic_entities
                        ).topic_entities == (
            ("m.0a", "m.0a"), ("m.0b", "m.0b"), ("m.0c", " Gamma "))

    def test_the_id_is_the_first_id_key_present(self, tmp_path):
        topics = {"topic_entity": {"m.0a": "A"}, "question": "Q?"}
        path = write_json(tmp_path / "x.json", [
            dict(topics, id="d", qid="c", QuestionId="b", ID="a"),
            dict(topics, id="d", qid="c", QuestionId="b"),
            dict(topics, id="d", qid="c"),
            dict(topics, id="d"),
            topics,
        ])
        assert [r.id for r in load_dataset(path)] == ["a", "b", "c", "d",
                                                       "4"]

    @pytest.mark.parametrize("fields, answers", [
        ({"answers": 0, "answer": "a"}, ("0",)),
        ({"answers": [], "answer": "a"}, ("a",)),
        ({"answers": None, "answer": ["a"]}, ("a",)),
        ({"answers": "", "answer": 0}, ("0",)),
        ({"answer": [{"answer_argument": "m.0a"}]}, ("m.0a",)),
    ])
    def test_answers_fall_back_to_answer_only_when_absent(
            self, tmp_path, fields, answers):
        path = write_json(tmp_path / "x.json", [
            dict(fields, question="Q?", topic_entity={"m.0a": "A"})])
        assert load_dataset(path)[0].answers == answers

    @pytest.mark.parametrize("record", [
        {"topic_entities": [["m.0a", "A"]], "answers": ["Paris", " ", ""]},
        {"topic_entity": {"m.0a": "A"}, "answers": [
            {"answer": "Paris", "aliases": [" "]}, {"answer": "\t"}]},
        {"Parses": [{"TopicEntityMid": "m.0a", "Answers": [
            {"EntityName": "Paris"}, {"AnswerArgument": " "}]}]},
        {"graph_query": {"nodes": [{"node_type": "entity", "id": "m.0a"}]},
         "answer": [{"answer_argument": "Paris", "entity_name": " "}]},
    ], ids=["normalized", "cwq", "webqsp", "grailqa"])
    def test_a_blank_gold_answer_is_dropped(self, tmp_path, record):
        # it would match an unanswered question
        path = write_json(tmp_path / "x.json", [dict(record, question="Q?")])
        assert load_dataset(path)[0].answers == ("Paris",)

    def test_the_raw_question_comes_before_the_question(self, tmp_path):
        path = write_json(tmp_path / "x.json", [
            {"RawQuestion": "raw?", "question": "processed?",
             "topic_entity": {"m.0a": "A"}},
        ])
        assert load_dataset(path)[0].question == "raw?"

    def test_a_topic_map_is_read_before_parses(self, tmp_path):
        # WebQSP files that carry both read the map, as they always have
        path = write_json(tmp_path / "x.json", [
            {"QuestionId": "w1", "RawQuestion": "Q?",
             "topic_entity": {"m.0a": "A"}, "answers": ["x"],
             "Parses": [{"TopicEntityMid": "m.0b", "TopicEntityName": "B",
                         "Answers": [{"EntityName": "y"}]}]},
        ])
        [record] = load_dataset(path)
        assert (record.topic_entities, record.answers) == (
            (("m.0a", "A"),), ("x",))
