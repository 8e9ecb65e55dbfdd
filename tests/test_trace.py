import json
import re

import pytest

from graphquest.llm.accounting import usage_total
from graphquest.llm.types import Usage
from graphquest.planner.engine import Planner
from graphquest.trace import EVENT_KINDS, RunTrace, TraceError, TraceEvent


class TestEvents:
    def test_record_assigns_sequential_numbers(self):
        trace = RunTrace()
        first = trace.record("selection", 1, {"stage": "relations"})
        second = trace.record("verdict", 1, {"sufficient": False})
        assert (first.seq, second.seq) == (0, 1)
        assert len(trace.events) == 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(TraceError):
            RunTrace().record("banana", 0, {})

    def test_kind_catalog(self):
        assert EVENT_KINDS == {"kg_query", "llm_call", "selection",
                               "memory_update", "verdict", "reflection",
                               "final"}

    def test_iter_kind_filters(self):
        trace = RunTrace()
        trace.record("llm_call", 0, {"stage": "decompose"},
                     usage=Usage(10, 2))
        trace.record("selection", 0, {"stage": "decompose"})
        trace.record("llm_call", 1, {"stage": "answer"}, usage=Usage(5, 1))
        calls = list(trace.iter_kind("llm_call"))
        assert [c.payload["stage"] for c in calls] == ["decompose", "answer"]

    def test_final_event_is_the_last_final(self):
        trace = RunTrace()
        assert trace.final_event() is None
        trace.record("verdict", 4, {"sufficient": False})
        trace.record("final", 4, {"answer": None, "elapsed_seconds": 0.5})
        assert trace.final_event().payload["elapsed_seconds"] == 0.5


class TestSerialization:
    def test_json_line_shape(self):
        event = TraceEvent(seq=3, kind="llm_call", iteration=2,
                           payload={"stage": "answer", "prompt": "p"},
                           usage=Usage(100, 7))
        record = json.loads(event.to_json())
        assert record == {
            "seq": 3,
            "kind": "llm_call",
            "iteration": 2,
            "payload": {"stage": "answer", "prompt": "p"},
            "usage": {"input_tokens": 100, "output_tokens": 7},
        }

    def test_keys_are_sorted_for_stable_bytes(self):
        line = TraceEvent(0, "verdict", 1, {"b": 1, "a": 2}).to_json()
        assert line.index('"a"') < line.index('"b"')
        assert line.index('"iteration"') < line.index('"kind"')

    def test_non_ascii_not_escaped(self):
        line = TraceEvent(0, "selection", 1, {"label": "Panamá"}).to_json()
        assert "Panamá" in line

    def test_event_round_trip(self):
        event = TraceEvent(5, "kg_query", 3,
                           {"op": "relations", "entity": "m.05qtj"})
        again = TraceEvent.from_json(event.to_json())
        assert again == event

    def test_file_round_trip(self, tmp_path):
        trace = RunTrace()
        trace.record("llm_call", 0, {"stage": "decompose"}, usage=Usage(9, 3))
        trace.record("final", 2, {"answer": "x", "elapsed_seconds": 0.01})
        path = tmp_path / "trace.jsonl"
        trace.save(str(path))
        loaded = RunTrace.load(str(path))
        assert loaded.events == trace.events
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            json.loads(line)  # every line is standalone JSON

    def test_recorded_text_of_any_code_point_round_trips(self, tmp_path):
        # a lone surrogate (a reply's JSON escape \ud800, decoded), a NUL,
        # a line separator and a character outside the basic plane
        text = "a\ud800b\x00c\u2028d\U0001F600e"
        trace = RunTrace()
        # twice, so the second call saves its question as a reference
        for _ in range(2):
            trace.record("llm_call", 0, {
                "stage": "answer", "template": "answer",
                "slots": {"question": text, "memory": "{}", "triplets": ""},
                "template_digest": "0" * 12, "response": text})
        trace.record("final", 0, {"answer": text, "elapsed_seconds": 0.0})
        path = tmp_path / "trace.jsonl"
        trace.save(str(path))
        saved = path.read_bytes()
        # one UTF-8 line per event; the surrogate, which UTF-8 cannot
        # hold, as its escape
        saved.decode("utf-8")
        assert saved.count(b"\n") == 3
        assert b"a\\ud800b" in saved
        assert "\U0001F600".encode("utf-8") in saved
        assert RunTrace.load(str(path)).events == trace.events

    def test_bad_line_raises(self):
        with pytest.raises(TraceError):
            TraceEvent.from_json("{not json")

    def test_a_deeply_nested_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(TraceEvent(0, "final", 0, {}).to_json() + "\n"
                        + "[" * 200_000 + "\n", encoding="utf-8")
        with pytest.raises(TraceError,
                           match=f"{path}:2: bad trace line: .*recursion"):
            RunTrace.load(str(path))

    @pytest.mark.parametrize("line", [
        pytest.param('[1, 2]', id="not-an-object"),
        pytest.param('{"seq": 0}', id="missing-kind"),
        pytest.param('{"seq": "0", "kind": "final", "iteration": 0, '
                     '"payload": {}}', id="seq-not-int"),
        pytest.param('{"seq": 0, "kind": 5, "iteration": 0, "payload": {}}',
                     id="kind-not-text"),
        pytest.param('{"seq": 0, "kind": "final", "iteration": null, '
                     '"payload": {}}', id="iteration-null"),
        pytest.param('{"seq": 0, "kind": "final", "iteration": 0, '
                     '"payload": []}', id="payload-not-object"),
        pytest.param('{"seq": 0, "kind": "final", "iteration": 0, '
                     '"payload": {}, "usage": 3}', id="usage-not-object"),
        pytest.param('{"seq": 0, "kind": "nonsense", "iteration": 0, '
                     '"payload": {}}', id="unknown-kind"),
        pytest.param('{"seq": true, "kind": "final", "iteration": 0, '
                     '"payload": {}}', id="seq-bool"),
        pytest.param('{"seq": 0, "kind": "final", "iteration": false, '
                     '"payload": {}}', id="iteration-bool"),
        pytest.param('{"seq": 0, "kind": "llm_call", "iteration": 0, '
                     '"payload": {}, "usage": {"input_tokens": 2.7, '
                     '"output_tokens": 1}}', id="usage-fraction"),
        pytest.param('{"seq": 0, "kind": "llm_call", "iteration": 0, '
                     '"payload": {}, "usage": {"input_tokens": "12", '
                     '"output_tokens": 1}}', id="usage-text"),
        pytest.param('{"seq": 0, "kind": "llm_call", "iteration": 0, '
                     '"payload": {}, "usage": {"input_tokens": 1, '
                     '"output_tokens": true}}', id="usage-bool"),
        pytest.param('{"seq": 0, "kind": "llm_call", "iteration": 0, '
                     '"payload": {}, "usage": {"input_tokens": 1, '
                     '"output_tokens": -5}}', id="usage-negative"),
    ])
    def test_malformed_record_raises(self, line):
        with pytest.raises(TraceError):
            TraceEvent.from_json(line)

    def test_load_names_file_and_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(TraceEvent(0, "final", 0, {}).to_json()
                        + '\n{"seq": 1}\n', encoding="utf-8")
        with pytest.raises(TraceError, match=f"{path}:2: .*'kind'"):
            RunTrace.load(str(path))


def _call(seq, **slots):
    return TraceEvent(seq, "llm_call", 0, {
        "stage": "answer", "template": "answer", "slots": slots,
        "template_digest": "0" * 12, "response": "[]"}, usage=Usage(4, 1))


def _saved_slots(path):
    """seq -> the slots object of each llm_call line of a saved file."""
    records = map(json.loads, path.read_text(encoding="utf-8").splitlines())
    return {record["seq"]: record["payload"]["slots"] for record in records
            if record["kind"] == "llm_call"}


class TestSlotReferences:
    def test_a_repeated_slot_text_is_saved_once(self, tmp_path):
        trace = RunTrace([
            _call(0, question="Q?", memory="m"),
            TraceEvent(1, "kg_query", 1, {"op": "relations"}),
            _call(2, question="Q?", memory="n"),
            _call(3, question="Q?", memory="m"),
            # the same text under another slot name is not a repeat
            _call(4, memory="Q?"),
        ])
        lines = [event.to_json() for event in trace.events]
        path = tmp_path / "trace.jsonl"
        trace.save(str(path))
        assert _saved_slots(path) == {
            0: {"question": "Q?", "memory": "m"},
            2: {"question": {"seq": 0}, "memory": "n"},
            3: {"question": {"seq": 0}, "memory": {"seq": 0}},
            4: {"memory": "Q?"},
        }
        # events in memory, and their own serialization, keep the text
        assert [event.to_json() for event in trace.events] == lines
        assert RunTrace.load(str(path)).events == trace.events

    def test_a_file_saved_with_every_text_still_loads(self, tmp_path,
                                                      panama_kg, panama_llm,
                                                      panama_question):
        trace = Planner(panama_kg, panama_llm).run(panama_question).trace
        # a line from before calls were stored as template and slots
        literal = TraceEvent(len(trace.events), "llm_call", 3, {
            "stage": "answer", "prompt": "Q: Who?", "response": "[]"},
            usage=Usage(2, 1))
        events = [*trace.events, literal]
        path = tmp_path / "trace.jsonl"
        path.write_text("".join(event.to_json() + "\n" for event in events),
                        encoding="utf-8")
        assert RunTrace.load(str(path)).events == events

    @pytest.mark.parametrize("slot, value, problem", [
        pytest.param("question", {"seq": True}, "neither text nor",
                     id="seq-bool"),
        pytest.param("question", {"seq": "0"}, "neither text nor",
                     id="seq-text"),
        pytest.param("question", {"seq": 0.0}, "neither text nor",
                     id="seq-float"),
        pytest.param("question", {}, "neither text nor", id="no-seq"),
        pytest.param("question", {"seq": 0, "text": "Q?"}, "neither text nor",
                     id="extra-key"),
        pytest.param("question", {"seq": 7}, "no earlier llm_call line",
                     id="unknown-seq"),
        pytest.param("question", {"seq": 1}, "no earlier llm_call line",
                     id="seq-of-another-kind"),
        pytest.param("question", {"seq": 3}, "no earlier llm_call line",
                     id="itself"),
        pytest.param("question", {"seq": 4}, "no earlier llm_call line",
                     id="forward"),
        pytest.param("reason", {"seq": 0}, "binds no text",
                     id="slot-missing-there"),
        pytest.param("memory", {"seq": 0}, "binds no text",
                     id="slot-not-text-there"),
        pytest.param("question", {"seq": 2}, "binds no text",
                     id="literal-prompt-there"),
    ])
    def test_a_bad_reference_names_file_and_line(self, tmp_path, slot, value,
                                                 problem):
        lines = [
            _call(0, question="Q?", memory=5).to_json(),
            TraceEvent(1, "kg_query", 1, {"op": "relations"}).to_json(),
            TraceEvent(2, "llm_call", 1, {"stage": "answer",
                                          "prompt": "Q?"}).to_json(),
            _call(3, **{slot: value}).to_json(),
            _call(4, question="Q?").to_json(),
        ]
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(TraceError, match=re.escape(
                f"{path}:4: bad trace line: slot {slot!r} ") + ".*" + problem):
            RunTrace.load(str(path))


class TestUsageTotals:
    def test_only_llm_calls_count(self):
        trace = RunTrace()
        trace.record("llm_call", 0, {"stage": "a"}, usage=Usage(10, 2))
        trace.record("kg_query", 1, {"op": "relations"})
        trace.record("llm_call", 1, {"stage": "b"}, usage=Usage(30, 5))
        trace.record("final", 1, {"answer": None})
        total, calls = usage_total(trace)
        assert calls == 2
        assert total.input_tokens == 40
        assert total.output_tokens == 7
        assert total.total_tokens == 47

    def test_empty_trace(self):
        total, calls = usage_total(RunTrace())
        assert calls == 0
        assert total.total_tokens == 0
