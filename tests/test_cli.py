import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import graphquest
from graphquest.cli import (
    _ablation_keys,
    _assemble,
    _clip,
    _parse_topics,
    build_parser,
    main,
)
from graphquest.config import ConfigError
from graphquest.kg.types import FREEBASE_NS
from graphquest.planner.state import AblationFlags, Question
from graphquest.prompts import PromptLibrary
from graphquest.trace import RunTrace, TraceEvent

from conftest import FIXTURES, PANAMA_QUESTION


def panama_args(tmp_path, *extra):
    return [
        "run",
        "--question", PANAMA_QUESTION,
        "--topic", "m.0jt3_v=The Naked and the Dead",
        "--topic", "m.02rhx1c=President of Panama",
        "--kg", str(FIXTURES / "panama.tsv"),
        "--script", str(FIXTURES / "panama_script.json"),
        "--out", str(tmp_path / "runs"),
        *extra,
    ]


class TestArgumentPlumbing:
    def test_topic_specs(self):
        # with no label, or a blank one, the question labels a topic by id
        topics = _parse_topics(["m.0a=Alpha Thing", "m.0b", " m.0c = "])
        assert Question("Q?", topics).topic_entities == (
            ("m.0a", "Alpha Thing"), ("m.0b", "m.0b"), ("m.0c", "m.0c"))
        with pytest.raises(ConfigError):
            _parse_topics(["=NoId"])

    def test_ablation_specs(self):
        assert _ablation_keys("no_memory") == {"planner.no_memory": "true"}
        assert _ablation_keys("no_guidance, fixed_breadth=3") == {
            "planner.no_guidance": "true", "planner.fixed_breadth": "3"}
        # unknown names and bad values are rejected by build_app_config
        # (see TestErrorExits)
        assert _ablation_keys("beam_search") == {"planner.beam_search": "true"}

    def test_ablation_variant_configs(self):
        args = build_parser().parse_args([
            "eval", "data.json", "--kg", "g.tsv", "--script", "r.json",
            "--depth", "2"])
        base = _assemble(args)
        variant = _assemble(
            args, _ablation_keys("no_memory,fixed_breadth=3")).planner
        assert variant.ablations == AblationFlags(no_memory=True,
                                                  fixed_breadth=3)
        assert variant.max_depth == 2  # the shared flags still apply
        assert _assemble(args, _ablation_keys("max_depth=1")
                         ).planner.max_depth == 1
        assert base.planner.ablations == AblationFlags()
        assert base.planner.max_depth == 2

    def test_parser_covers_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--question", "Q?",
                                  "--topic", "m.0a=A"])
        assert args.command == "run"
        args = parser.parse_args(["eval", "data.json",
                                  "--ablate", "no_memory", "--parallel", "2"])
        assert args.ablate == ["no_memory"]
        args = parser.parse_args(["inspect-trace", "t.jsonl"])
        assert args.command == "inspect-trace"


class TestRunCommand:
    def test_answers_and_saves_trace(self, tmp_path, capsys):
        code = main(panama_args(tmp_path))
        assert code == 0
        out = capsys.readouterr().out
        assert "Answer: Juan Carlos Varela" in out
        assert "Iterations: 3" in out
        assert re.search(r"LLM calls: 18 \(input \d+ \+ output \d+", out)
        trace_path = re.search(r"Trace: (.+)", out).group(1)
        trace = RunTrace.load(trace_path)
        assert trace.final_event().payload["answer"] == "Juan Carlos Varela"

    def test_run_dir_layout_and_latest_link(self, tmp_path):
        main(panama_args(tmp_path))
        main(panama_args(tmp_path))
        root = tmp_path / "runs"
        stamped = [p for p in root.iterdir() if p.name != "latest"]
        assert len(stamped) == 2
        latest = root / "latest"
        assert latest.is_symlink()
        assert (latest / "trace.jsonl").is_file()

    def test_depth_flag_truncates_search(self, tmp_path, capsys):
        code = main(panama_args(tmp_path, "--depth", "1"))
        assert code == 0
        out = capsys.readouterr().out
        # one hop is not enough for this question; the budget note shows
        assert "Iterations: 1" in out
        assert "exhausted" in out

    def test_unmatched_script_fails_with_partial_trace(self, tmp_path,
                                                       capsys):
        empty = tmp_path / "empty.json"
        empty.write_text("[]", encoding="utf-8")
        args = panama_args(tmp_path)
        args[args.index(str(FIXTURES / "panama_script.json"))] = str(empty)
        code = main(args)
        assert code == 1
        err = capsys.readouterr().err
        assert "run failed" in err
        trace_path = re.search(r"partial trace: (.+)", err).group(1)
        assert RunTrace.load(trace_path).final_event() is not None
        assert main(["inspect-trace", trace_path]) == 0
        *_, final, totals = capsys.readouterr().out.splitlines()
        assert re.match(r" *\d+  iter 0  final +error: no scripted rule "
                        r"matches ", final)
        assert totals.startswith("-- ")

    def test_replies_holding_a_lone_surrogate_are_saved_and_printed(
            self, tmp_path, capsys):
        # a reply's JSON escape \ud800 decodes to a lone surrogate; here
        # the reason and a memory note carry one
        script = tmp_path / "rules.json"
        script.write_text(
            (FIXTURES / "panama_script.json").read_text(encoding="utf-8")
            .replace("Varela holds", "Varela\\ud800 holds"),
            encoding="utf-8")
        args = panama_args(tmp_path)
        args[args.index(str(FIXTURES / "panama_script.json"))] = str(script)
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "Answer: Juan Carlos Varela\n" in out
        assert "Reason: Juan Carlos Varela\\ud800 holds" in out
        trace_path = re.search(r"Trace: (.+)", out).group(1)
        *_, verdict = RunTrace.load(trace_path).iter_kind("verdict")
        assert "Varela\ud800 holds" in verdict.payload["reason"]
        assert main(["inspect-trace", trace_path]) == 0
        assert "Varela\\ud800 holds" in capsys.readouterr().out
        assert main(["inspect-trace", "--by-slot", trace_path]) == 0

    def test_config_file_supplies_backends(self, tmp_path, capsys):
        conf = tmp_path / "app.conf"
        conf.write_text(
            f"kg.path = {FIXTURES / 'panama.tsv'}\n"
            f"llm.script = {FIXTURES / 'panama_script.json'}\n"
            f"output.dir = {tmp_path / 'runs'}\n",
            encoding="utf-8",
        )
        code = main(["run", "--question", PANAMA_QUESTION,
                     "--topic", "m.0jt3_v=The Naked and the Dead",
                     "--topic", "m.02rhx1c=President of Panama",
                     "--config", str(conf)])
        assert code == 0
        assert "Juan Carlos Varela" in capsys.readouterr().out

    def test_flags_replace_the_config_files_backends(self, tmp_path, capsys):
        # the file names remote services; --kg and --script replace them,
        # so the run stays offline
        conf = tmp_path / "app.conf"
        conf.write_text("kg.endpoint = http://kg.invalid/sparql\n"
                        "llm.base_url = http://llm.invalid/v1\n",
                        encoding="utf-8")
        code = main(panama_args(tmp_path, "--config", str(conf)))
        assert code == 0
        assert "Answer: Juan Carlos Varela" in capsys.readouterr().out


class TestEvalCommand:
    def eval_args(self, tmp_path, *extra):
        return [
            "eval", str(FIXTURES / "capitals_dataset.json"),
            "--kg", str(FIXTURES / "capitals.tsv"),
            "--script", str(FIXTURES / "capitals_script.json"),
            "--out", str(tmp_path / "evals"),
            *extra,
        ]

    def test_prints_summary_table(self, tmp_path, capsys):
        code = main(self.eval_args(tmp_path))
        assert code == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        header = lines[0].split()
        assert header[:2] == ["Method", "Hits@1"]
        body = lines[1].split()
        assert body[0] == "full"
        assert body[1] == "75.0"
        assert "Outputs:" in out

    def test_ablation_matrix_rows(self, tmp_path, capsys):
        code = main(self.eval_args(
            tmp_path, "--ablate", "no_reflection", "--ablate",
            "fixed_breadth=1", "--parallel", "2"))
        assert code == 0
        out = capsys.readouterr().out
        methods = [line.split()[0] for line in out.splitlines()
                   if line and not line.startswith("Outputs")]
        assert methods == ["Method", "full", "no_reflection",
                           "fixed_breadth=1"]
        outputs_dir = Path(re.search(r"Outputs: (.+)", out).group(1))
        assert outputs_dir == (tmp_path / "evals" / "latest").resolve()
        summary = outputs_dir / "summary.tsv"
        assert summary.is_file()
        saved = summary.read_text(encoding="utf-8").splitlines()
        assert len(saved) == 4  # header + three variants
        for name in ("full", "no_reflection", "fixed_breadth=1"):
            assert (outputs_dir / name.replace("=", "_") / "report.json"
                    ).is_file() or (outputs_dir / name / "report.json"
                                    ).is_file()

    def test_a_webqsp_file_loads_without_naming_its_layout(self, tmp_path,
                                                          capsys):
        code = main([
            "eval", str(FIXTURES / "webqsp_smoke.json"),
            "--kg", str(FIXTURES / "capitals.tsv"),
            "--script", str(FIXTURES / "capitals_script.json"),
            "--depth", "1",
            "--out", str(tmp_path / "evals"),
        ])
        # the capitals script cannot answer these, but the harness must
        # finish and report a score of zero rather than crash
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1].split()[1] == "0.0"


class TestInspectCommand:
    def test_renders_each_event_and_totals(self, tmp_path, capsys):
        main(panama_args(tmp_path))
        capsys.readouterr()
        trace_path = tmp_path / "runs" / "latest" / "trace.jsonl"
        code = main(["inspect-trace", str(trace_path)])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert len(lines) == 54  # 53 events + totals line
        assert "decompose <decompose> [" in lines[0]
        assert lines[-1].startswith("-- 53 events, 18 llm calls")
        assert "answer='Juan Carlos Varela'" in out

    @pytest.mark.parametrize("kind, payload", [
        pytest.param("memory_update", {"candidate_pool": 5},
                     id="pool-not-a-list"),
        pytest.param("kg_query", {"op": "labels", "labels": ["m.0a"]},
                     id="labels-not-an-object"),
        pytest.param("kg_query", {"op": "labels", "labels": {"m.0a": "A"},
                                  "fallback": 5},
                     id="fallback-not-a-list"),
    ])
    def test_wrong_typed_payload_prints_it_raw(self, tmp_path, capsys, kind,
                                               payload):
        line = TraceEvent(0, kind, 0, payload).to_json()
        path = tmp_path / "trace.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        assert main(["inspect-trace", str(path)]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        # the payload as loaded, keys sorted as the file stores them
        assert first.endswith(_clip(TraceEvent.from_json(line).payload))

    def test_a_line_saved_with_its_prompt_prints_raw_and_is_not_rebuilt(
            self, tmp_path, capsys):
        # a trace line saved before calls were stored as template and slots
        line = ('{"iteration": 0, "kind": "llm_call", "payload": {"prompt": '
                '"Q: Who?", "response": "[]", "stage": "decompose"}, "seq": 0, '
                '"usage": {"input_tokens": 2, "output_tokens": 1}}')
        path = tmp_path / "trace.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        assert main(["inspect-trace", str(path)]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first.endswith(_clip(TraceEvent.from_json(line).payload))
        assert main(["inspect-trace", "--by-slot", str(path)]) == 2
        assert capsys.readouterr().err == (
            "input error: llm_call event 0: template None is not a bundled "
            "template\n")

    def test_by_slot_adds_up_to_the_prompts(self, tmp_path, capsys):
        main(panama_args(tmp_path))
        capsys.readouterr()
        trace_path = tmp_path / "runs" / "latest" / "trace.jsonl"
        assert main(["inspect-trace", "--by-slot", str(trace_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["template", "slot", "calls", "chars",
                                    "share"]
        # template, slot, calls, chars, share: the first two padded
        rows = [[line[:20].strip(), line[21:36].strip(), *line[36:].split()]
                for line in lines[1:-2]]
        trace = RunTrace.load(str(trace_path))
        calls = list(trace.iter_kind("llm_call"))
        library = PromptLibrary()
        prompts = "".join(library.prompt_of(event) for event in calls)
        assert sum(int(row[3]) for row in rows) == len(prompts)
        # every template's slots and its fixed text, one row each
        assert {(row[0], row[1]) for row in rows} == {
            (event.payload["template"], slot) for event in calls
            for slot in [*event.payload["slots"], "(fixed text)"]}
        triplets = sum(len(event.payload["slots"]["triplets"])
                       for event in calls
                       if event.payload["template"] == "answer")
        assert ["answer", "triplets", "3", str(triplets)] in \
            [row[:4] for row in rows]
        fixed = sum(int(row[3]) for row in rows if row[1] == "(fixed text)")
        assert lines[-2].startswith(
            f"-- {len(prompts)} prompt characters, {fixed} of them fixed ")
        assert lines[-1].startswith("-- 53 events, 18 llm calls")

    def test_by_slot_refuses_a_call_it_cannot_rebuild(self, tmp_path,
                                                      capsys):
        trace = RunTrace()
        trace.record("llm_call", 0, {
            "stage": "decompose", "template": "decompose",
            "slots": {"question": "Q?"}, "template_digest": "0" * 12,
            "response": "[]"})
        path = tmp_path / "trace.jsonl"
        trace.save(str(path))
        assert main(["inspect-trace", "--by-slot", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            "input error: llm_call event 0: template 'decompose' digest")

    def test_a_byte_order_mark_is_skipped(self, tmp_path, capsys):
        main(panama_args(tmp_path))
        capsys.readouterr()
        saved = tmp_path / "runs" / "latest" / "trace.jsonl"
        path = tmp_path / "bom.jsonl"
        path.write_text(saved.read_text(encoding="utf-8"),
                        encoding="utf-8-sig")
        assert main(["inspect-trace", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith(
            "-- 53 events, 18 llm calls")

    def test_a_label_holding_a_lone_surrogate_is_printed(self, tmp_path,
                                                         capsys):
        # an N-Triples label's escape \uD800 decodes to a lone surrogate
        trace = RunTrace()
        trace.record("kg_query", 1, {"op": "labels",
                                     "labels": {"m.0a": "Pan\ud800ama"}})
        path = tmp_path / "trace.jsonl"
        trace.save(str(path))
        assert main(["inspect-trace", str(path)]) == 0
        assert "labels m.0a -> Pan\\ud800ama" in capsys.readouterr().out

    def test_labels_and_pool_count(self, tmp_path, capsys):
        trace = RunTrace()
        trace.record("kg_query", 1, {
            "op": "labels", "labels": {"m.0a": "Panama"},
            "fallback": ["m.0b"]})
        # with memory on the update lists no pool; under no_memory it
        # lists the whole pool
        trace.record("memory_update", 1, {"paths": 2, "status": []})
        trace.record("memory_update", 2, {
            "paths": 2, "candidate_pool": ["m.0a", "m.0b"], "status": []})
        path = tmp_path / "trace.jsonl"
        trace.save(str(path))
        assert main(["inspect-trace", str(path)]) == 0
        labels, update, listed = capsys.readouterr().out.splitlines()[:3]
        assert labels.endswith(
            "labels m.0a -> Panama, m.0b -> m.0b (fallback)")
        assert update.endswith("memory_update paths=2 status=[]")
        assert listed.endswith("memory_update paths=2 pool=2 status=[]")


class TestErrorExits:
    def test_missing_file_is_exit_2(self, tmp_path, capsys):
        code = main(["run", "--question", "Q?", "--topic", "m.0a=A",
                     "--kg", str(tmp_path / "absent.tsv"),
                     "--script", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "runs")])
        assert code == 2
        assert "file not found" in capsys.readouterr().err

    @pytest.mark.parametrize("target, prefix", [
        ("--kg", "input error: "),
        ("--config", "configuration error: "),
        ("inspect-trace", "input error: "),
    ])
    @pytest.mark.parametrize("form", ["not-utf8", "directory"])
    def test_unreadable_input_is_exit_2(self, tmp_path, capsys, target,
                                        prefix, form):
        bad = tmp_path / "bad.txt"
        if form == "directory":
            bad.mkdir()
            prefix = "file error: "
        else:
            bad.write_bytes(b"m.0a\tcaf\xe9\tm.0b\n")
        if target == "inspect-trace":
            argv = ["inspect-trace", str(bad)]
        else:
            argv = panama_args(tmp_path, target, str(bad))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(prefix)
        assert str(bad) in err
        assert len(err.splitlines()) == 1

    # buffered, the listing fits in the buffer and fails when flushed;
    # unbuffered, its first `print` fails
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_a_closed_stdout_ends_the_output_quietly(self, tmp_path, capsys,
                                                     unbuffered):
        # `graphquest inspect-trace T | head -1`, with the reader gone
        # before the first write so that every write fails
        main(panama_args(tmp_path))
        capsys.readouterr()
        trace_path = tmp_path / "runs" / "latest" / "trace.jsonl"
        source = str(Path(graphquest.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [source, os.environ.get("PYTHONPATH")]))}
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "graphquest.cli", "inspect-trace",
                 str(trace_path)],
                stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write)
        assert done.stderr.decode() == ""
        assert done.returncode == 0

    @pytest.mark.parametrize("text, message", [
        pytest.param('[{"match": "x", "response": "y"}]', "rule 0 needs",
                     id="rule-without-pattern"),
        pytest.param("[" * 200_000, "not JSON", id="deeply-nested"),
    ])
    def test_malformed_script_is_exit_2(self, tmp_path, capsys, text,
                                        message):
        script = tmp_path / "rules.json"
        script.write_text(text, encoding="utf-8")
        code = main(["run", "--question", "Q?", "--topic", "m.0a=A",
                     "--kg", str(FIXTURES / "panama.tsv"),
                     "--script", str(script),
                     "--out", str(tmp_path / "runs")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: rule file {script}: "
                              f"{message}")
        assert "Traceback" not in err

    def test_config_error_is_exit_2(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("planner.max_depth = deep\n", encoding="utf-8")
        code = main(["run", "--question", "Q?", "--topic", "m.0a=A",
                     "--config", str(conf)])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["kg.mode = memory",
                                      "llm.mode = scripted",
                                      "recall.scorer = trigram",
                                      "kg.format = tab-separated"])
    def test_a_backend_mode_key_is_an_unknown_key(self, tmp_path, capsys,
                                                   line):
        conf = tmp_path / "old.conf"
        conf.write_text(line + "\n", encoding="utf-8")
        code = main(panama_args(tmp_path, "--config", str(conf)))
        assert code == 2
        key = line.split(" = ")[0]
        assert (f"configuration error: unknown config key {key!r}"
                in capsys.readouterr().err)

    def test_the_llm_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(panama_args(tmp_path, "--llm", "scripted"))
        assert info.value.code == 2
        assert "unrecognized arguments: --llm" in capsys.readouterr().err

    def test_the_flavor_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["eval", str(FIXTURES / "webqsp_smoke.json"),
                  "--flavor", "webqsp",
                  "--kg", str(FIXTURES / "capitals.tsv"),
                  "--script", str(FIXTURES / "capitals_script.json"),
                  "--out", str(tmp_path / "evals")])
        assert info.value.code == 2
        assert "unrecognized arguments: --flavor" in capsys.readouterr().err
        assert not (tmp_path / "evals").exists()

    def test_an_ntriples_graph_named_txt_answers(self, tmp_path, capsys):
        graph = tmp_path / "graph.txt"
        with graph.open("w", encoding="utf-8") as out:
            out.write("# the Panama fixture as N-Triples\n")
            for row in (FIXTURES / "panama.tsv").read_text(
                    encoding="utf-8").splitlines():
                if not row or row.startswith("#"):
                    continue
                subject, relation, obj = row.split("\t")
                ns = FREEBASE_NS
                tail = (json.dumps(obj) if relation == "type.object.name"
                        else f"<{ns}{obj}>")
                out.write(f"<{ns}{subject}> <{ns}{relation}> {tail} .\n")
        assert main(panama_args(tmp_path, "--kg", str(graph))) == 0
        assert "Answer: Juan Carlos Varela" in capsys.readouterr().out

    @pytest.mark.parametrize("graph, dataset, message", [
        pytest.param("m.0a\tonly-two-columns\n", None,
                     "bad.txt:1: expected 3 tab-separated columns",
                     id="malformed-triples"),
        pytest.param(None, "not json", "bad.txt: not JSON",
                     id="non-json-dataset"),
        pytest.param(None, "[" * 200_000, "bad.txt: not JSON",
                     id="deeply-nested-dataset"),
    ])
    def test_bad_eval_input_is_exit_2(self, tmp_path, capsys, graph,
                                      dataset, message):
        bad = tmp_path / "bad.txt"
        bad.write_text(graph or dataset, encoding="utf-8")
        records = bad if dataset else FIXTURES / "capitals_dataset.json"
        code = main(["eval", str(records),
                     "--kg", str(bad if graph else FIXTURES / "capitals.tsv"),
                     "--script", str(FIXTURES / "capitals_script.json"),
                     "--out", str(tmp_path / "evals")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ")
        assert message in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "evals").exists()

    @pytest.mark.parametrize("command", ["run", "eval"])
    def test_blank_question_is_exit_2(self, tmp_path, capsys, command):
        if command == "run":
            argv = ["run", "--question", " ", "--topic", "m.0a=A",
                    "--kg", str(FIXTURES / "panama.tsv"),
                    "--script", str(FIXTURES / "panama_script.json")]
        else:
            dataset = tmp_path / "blank.json"
            dataset.write_text('[{"id": "b1", "question": "   ", '
                               '"topic_entities": [["m.0a", "A"]]}]',
                               encoding="utf-8")
            argv = ["eval", str(dataset),
                    "--kg", str(FIXTURES / "capitals.tsv"),
                    "--script", str(FIXTURES / "capitals_script.json")]
        code = main([*argv, "--out", str(tmp_path / "runs")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ")
        assert "question" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("line, message", [
        pytest.param("{not json", "trace.jsonl:1: bad trace line",
                     id="non-json-line"),
        pytest.param('{"seq": 0}', "trace.jsonl:1: bad trace line: 'kind'",
                     id="missing-kind"),
        pytest.param('{"seq": 0, "kind": "nonsense", "iteration": 0, '
                     '"payload": {}}',
                     "trace.jsonl:1: bad trace line: unknown kind 'nonsense'",
                     id="unknown-kind"),
        pytest.param("[" * 200_000, "trace.jsonl:1: bad trace line: maximum "
                     "recursion depth exceeded", id="deeply-nested-line"),
    ])
    def test_bad_trace_is_exit_2(self, tmp_path, capsys, line, message):
        path = tmp_path / "trace.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        assert main(["inspect-trace", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ")
        assert message in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("extra, message", [
        pytest.param(["--depth", "0"], "max_depth must be >= 1",
                     id="depth-0"),
        pytest.param(["--ablate", "fixed_breadth=0"],
                     "fixed_breadth must be >= 1", id="fixed_breadth-0"),
        pytest.param(["--ablate", "beam_search"],
                     "unknown config key 'planner.beam_search'",
                     id="unknown-ablation"),
        pytest.param(["--ablate", "fixed_breadth=wide"],
                     "planner.fixed_breadth: expected an integer",
                     id="fixed_breadth-wide"),
        pytest.param(["--config", "recall.k = 0"], "k must be >= 1",
                     id="recall-k-0"),
        pytest.param(["--config", "recall.threshold = -1"],
                     "threshold must be >= 0", id="recall-threshold-negative"),
        pytest.param(["--config", "llm.temperature = nan"],
                     "llm.temperature must be finite, got nan",
                     id="temperature-nan"),
        pytest.param(["--parallel", "0"], "--parallel must be >= 1, got 0",
                     id="parallel-0"),
    ])
    def test_out_of_range_setting_is_exit_2(self, tmp_path, capsys, extra,
                                            message):
        if extra[0] == "--config":
            conf = tmp_path / "app.conf"
            conf.write_text(extra[1] + "\n", encoding="utf-8")
            extra = ["--config", str(conf)]
        code = main(["eval", str(FIXTURES / "capitals_dataset.json"),
                     "--kg", str(FIXTURES / "capitals.tsv"),
                     "--script", str(FIXTURES / "capitals_script.json"),
                     "--out", str(tmp_path / "evals"), *extra])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert message in err
        assert "Traceback" not in err
        # rejected before the graph loads or a run directory is made
        assert not (tmp_path / "evals").exists()
