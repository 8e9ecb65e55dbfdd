import dataclasses
import json
import tracemalloc

import pytest

from graphquest.config import build_app_config
from graphquest.harness.datasets import DatasetRecord, load_dataset
from graphquest.harness.evaluate import (
    EvalReport,
    HarnessError,
    QuestionResult,
    SUMMARY_COLUMNS,
    _unique_filenames,
    ablation_matrix,
    run_eval,
    summary_rows,
)
from graphquest.harness.metrics import MetricsError, hits_at_1, \
    normalize_answer
from graphquest.planner.engine import Planner
from graphquest.planner.state import AblationFlags, PlannerConfig
from graphquest.trace import RunTrace

from oracles import oracle_hits, oracle_normalize, resummed_costs


class TestMetrics:
    @pytest.mark.parametrize("text,expected", [
        ("  Juan   Carlos\tVarela ", "juan carlos varela"),
        ("PANAMA CITY", "panama city"),
        ("", ""),
    ])
    def test_normalize(self, text, expected):
        assert normalize_answer(text) == expected
        assert normalize_answer(text) == oracle_normalize(text)

    @pytest.mark.parametrize("predicted,gold,expected", [
        ("Paris", ["Paris"], True),
        ("paris", ["PARIS", "Lutetia"], True),
        ("Lyon", ["Paris"], False),
        ("Ciudad de Panamá", ["Panama City", "Ciudad de Panamá"], True),
        ("", ["Paris"], False),
    ])
    def test_hits(self, predicted, gold, expected):
        assert hits_at_1(predicted, gold) is expected
        assert hits_at_1(predicted, gold) is oracle_hits(predicted, gold)

    def test_empty_gold_rejected(self):
        with pytest.raises(MetricsError):
            hits_at_1("Paris", [])


@pytest.fixture
def capitals_records(fixtures_dir):
    return load_dataset(str(fixtures_dir / "capitals_dataset.json"))


@pytest.fixture
def capitals_planner(capitals_kg, capitals_llm):
    return Planner(capitals_kg, capitals_llm)


class TestRunEval:
    def test_scores_and_order(self, capitals_records, capitals_planner):
        report = run_eval(capitals_records, capitals_planner)
        assert [r.id for r in report.results] == ["cap-fr", "cap-jp",
                                                  "cap-it", "cap-es"]
        assert [r.correct for r in report.results] == [True, True, True,
                                                       False]
        assert report.hits_at_1 == 0.75
        # the wrong answer is a real prediction, not an error
        spain = report.results[-1]
        assert spain.predicted == "Barcelona"
        assert spain.error is None

    def test_per_question_costs(self, capitals_records, capitals_planner):
        report = run_eval(capitals_records, capitals_planner)
        for result in report.results:
            # single-hop scripted runs: decompose, relation, entity,
            # memory, evaluate
            assert result.llm_calls == 5
            assert result.iterations == 1
            assert result.input_tokens > 0
            assert result.output_tokens > 0
            assert result.seconds > 0

    def test_parallel_equals_serial(self, capitals_records,
                                    capitals_planner):
        serial = run_eval(capitals_records, capitals_planner, parallelism=1)
        threaded = run_eval(capitals_records, capitals_planner, parallelism=3)
        strip = lambda r: dataclasses.replace(r, seconds=0.0)  # noqa: E731
        assert [strip(r) for r in serial.results] == \
            [strip(r) for r in threaded.results]

    def test_artifacts_written(self, tmp_path, capitals_records,
                               capitals_planner):
        out = tmp_path / "eval"
        report = run_eval(capitals_records, capitals_planner, out_dir=out)
        saved = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert saved["name"] == "full"
        assert saved["aggregates"]["hits_at_1"] == 0.75
        assert len(saved["results"]) == 4
        traces = sorted(p.name for p in (out / "traces").glob("*.jsonl"))
        assert traces == ["cap-es.jsonl", "cap-fr.jsonl", "cap-it.jsonl",
                          "cap-jp.jsonl"]
        summary = (out / "summary.tsv").read_text(encoding="utf-8")
        assert summary.splitlines()[0] == "\t".join(SUMMARY_COLUMNS)

    def test_a_lone_surrogate_is_saved_as_its_escape(self, tmp_path,
                                                     capitals_records,
                                                     capitals_planner):
        # a dataset's JSON escape \ud800 decodes to a lone surrogate
        record = dataclasses.replace(
            capitals_records[0],
            question=capitals_records[0].question + "\ud800")
        out = tmp_path / "eval"
        report = run_eval([record], capitals_planner, out_dir=out)
        saved = (out / "report.json").read_text(encoding="utf-8")
        assert "\\ud800" in saved
        assert json.loads(saved)["results"][0]["question"] == \
            report.results[0].question == record.question
        trace = RunTrace.load(str(out / "traces" / f"{record.id}.jsonl"))
        assert trace.events

    def test_each_record_gets_its_own_trace_file(self, tmp_path,
                                                 capitals_records,
                                                 capitals_planner):
        # ids equal after unsafe characters are replaced, an id given
        # twice, and ids equal but for case
        ids = ["a/b", "a_b", "X", "x", "x"]
        records = [dataclasses.replace(record, id=record_id)
                   for record, record_id in zip(capitals_records * 2, ids)]
        out = tmp_path / "eval"
        run_eval(records, capitals_planner, out_dir=out)
        names = ["a_b", "a_b-2", "X", "x-2", "x-3"]
        assert sorted(p.stem for p in (out / "traces").glob("*.jsonl")) \
            == sorted(names)
        for record, name in zip(records, names):
            trace = (out / "traces" / f"{name}.jsonl").read_text(
                encoding="utf-8")
            assert json.dumps(record.question)[1:-1] in trace

    def test_a_unique_name_is_never_renamed(self):
        assert _unique_filenames(["a", "a", "a-2", "b"]) == \
            ["a", "a-3", "a-2", "b"]

    def test_report_matches_trace_resummation(self, tmp_path,
                                              capitals_records,
                                              capitals_planner):
        out = tmp_path / "eval"
        report = run_eval(capitals_records, capitals_planner, out_dir=out)
        for result in report.results:
            costs = resummed_costs(out / "traces" / f"{result.id}.jsonl")
            assert result.llm_calls == costs["calls"]
            assert result.input_tokens == costs["input_tokens"]
            assert result.output_tokens == costs["output_tokens"]
            assert result.total_tokens == costs["total_tokens"]
            assert result.seconds == costs["seconds"]
        agg = report.aggregates()
        assert agg["total_llm_calls"] == 20
        assert agg["mean_llm_calls"] == 5.0

    def test_memory_held_does_not_grow_with_the_question_count(
            self, tmp_path, capitals_records, capitals_planner):
        # each trace is saved as its question ends, so a run holds only
        # the results: the peak grows by far less than a trace per question
        def peak(copies: int) -> int:
            records = [dataclasses.replace(record, id=f"{record.id}-{n}")
                       for n in range(copies) for record in capitals_records]
            out = tmp_path / f"eval-{copies}"
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            run_eval(records, capitals_planner, out_dir=out)
            return tracemalloc.get_traced_memory()[1] - before

        already = tracemalloc.is_tracing()
        if not already:
            tracemalloc.start()
        try:
            peak(2)  # warm caches and imports
            small, large = peak(10), peak(20)
        finally:
            if not already:
                tracemalloc.stop()
        per_question = (large - small) / (len(capitals_records) * 10)
        assert per_question <= 2048, per_question

    def test_an_interrupt_keeps_the_finished_questions_traces(
            self, tmp_path, capitals_records, capitals_planner):
        # each capitals question makes five model calls; the first call
        # of question `finished` raises KeyboardInterrupt
        finished = 2
        calls = 0
        llm = capitals_planner.llm

        class Interrupting:
            def complete(self, prompt, config):
                nonlocal calls
                calls += 1
                if calls > 5 * finished:
                    raise KeyboardInterrupt
                return llm.complete(prompt, config)

        out = tmp_path / "eval"
        with pytest.raises(KeyboardInterrupt):
            run_eval(capitals_records,
                     Planner(capitals_planner.kg, Interrupting()),
                     out_dir=out)
        saved = sorted((out / "traces").glob("*.jsonl"))
        assert [path.stem for path in saved] == \
            sorted(record.id for record in capitals_records[:finished])
        for path in saved:
            assert RunTrace.load(str(path)).final_event().payload["answer"]
        assert not (out / "report.json").exists()

    def test_no_records_rejected(self, capitals_planner):
        with pytest.raises(HarnessError):
            run_eval([], capitals_planner)
        with pytest.raises(HarnessError):
            run_eval([DatasetRecord("x", "Q?", (("m.0a", "A"),))],
                     capitals_planner, parallelism=0)

    def test_goldless_record_counts_as_incorrect(self, capitals_kg,
                                                 capitals_llm):
        record = DatasetRecord("no-gold", "What is the capital of France?",
                               (("m.fr", "France"),), answers=())
        report = run_eval([record], Planner(capitals_kg, capitals_llm))
        assert report.results[0].correct is False
        assert report.results[0].error == "no gold answers"
        assert report.results[0].predicted == "Paris"

    def test_backend_failure_recorded_not_raised(self, capitals_records,
                                                 capitals_kg):
        from graphquest.llm.scripted import ScriptedBackend
        report = run_eval(capitals_records,
                          Planner(capitals_kg, ScriptedBackend([])))
        for result in report.results:
            assert result.correct is False
            assert "no scripted rule" in result.error
            assert result.llm_calls == 0

    def test_a_failed_question_reports_the_iteration_it_failed_in(
            self, tmp_path, fixtures_dir, capitals_planner):
        # the capitals script answers these questions' decomposition and
        # memory update, and no evaluation: each run fails in iteration 1
        records = load_dataset(str(fixtures_dir / "webqsp_smoke.json"))
        run_eval(records, capitals_planner, out_dir=tmp_path)
        saved = json.loads((tmp_path / "report.json").read_text(
            encoding="utf-8"))["results"]
        assert len(saved) == 10
        for result in saved:
            trace = RunTrace.load(str(tmp_path / "traces"
                                      / f"{result['id']}.jsonl"))
            assert "no scripted rule" in result["error"]
            assert result["llm_calls"] == 2
            assert result["iterations"] == trace.final_event().iteration
            assert result["iterations"] == 1


class TestApplyOverrides:
    """Ablation variants are planner.* keys applied by build_app_config."""

    BASE = {"kg.path": "g.tsv", "llm.script": "rules.json"}

    def test_ablation_keys_land_on_flags(self):
        config = build_app_config(self.BASE, {"planner.no_memory": "true",
                                              "planner.fixed_breadth": "3"})
        assert config.planner.ablations == AblationFlags(no_memory=True,
                                                         fixed_breadth=3)
        assert config.planner.max_depth == 4

    def test_max_depth_override(self):
        config = build_app_config(self.BASE, {"planner.max_depth": "2"})
        assert config.planner.max_depth == 2

    def test_base_config_untouched(self):
        base = build_app_config(self.BASE)
        build_app_config(self.BASE, {"planner.no_reflection": "true"})
        assert base.planner.ablations.no_reflection is False
        assert build_app_config(self.BASE) == base


class TestAblationMatrix:
    VARIANTS = [
        ("full", PlannerConfig()),
        ("no_reflection",
         PlannerConfig(ablations=AblationFlags(no_reflection=True))),
        ("shallow", PlannerConfig(max_depth=1)),
    ]

    @pytest.fixture
    def planners(self, capitals_kg, capitals_llm):
        return [(name, Planner(capitals_kg, capitals_llm, config))
                for name, config in self.VARIANTS]

    def test_one_report_per_variant(self, tmp_path, capitals_records,
                                    planners):
        out = tmp_path / "matrix"
        reports = ablation_matrix(capitals_records, planners, out_dir=out)
        assert [report.name for report in reports] == ["full",
                                                       "no_reflection",
                                                       "shallow"]
        # capitals runs finish in one hop, so all variants score alike
        for report in reports:
            assert report.hits_at_1 == 0.75
        for report in reports:
            assert (out / report.name / "report.json").is_file()
            assert (out / report.name / "traces").is_dir()
        lines = (out / "summary.tsv").read_text(
            encoding="utf-8").splitlines()
        assert lines[0] == "\t".join(SUMMARY_COLUMNS)
        assert [line.split("\t")[0] for line in lines[1:]] == \
            ["full", "no_reflection", "shallow"]

    def test_each_variant_gets_its_own_directory(self, tmp_path,
                                                 capitals_records,
                                                 capitals_kg, capitals_llm):
        # two specs of one variant that differ only in spacing
        names = ["no_reflection,max_depth=1", "no_reflection, max_depth=1"]
        config = PlannerConfig(max_depth=1,
                               ablations=AblationFlags(no_reflection=True))
        planners = [(name, Planner(capitals_kg, capitals_llm, config))
                    for name in names]
        out = tmp_path / "matrix"
        ablation_matrix(capitals_records, planners, out_dir=out)
        for name, dir_name in zip(names, ["no_reflection_max_depth_1",
                                          "no_reflection_max_depth_1-2"]):
            saved = json.loads((out / dir_name / "report.json").read_text(
                encoding="utf-8"))
            assert saved["name"] == name

    def test_empty_variant_list_rejected(self, capitals_records):
        with pytest.raises(HarnessError):
            ablation_matrix(capitals_records, [])


class TestSummaryRows:
    def test_formatting(self):
        report = EvalReport("full", [
            QuestionResult("a", "Q?", "Paris", True, 5, 1000, 50, 0.41, 1),
            QuestionResult("b", "Q?", "Lyon", False, 7, 2000, 70, 0.63, 2),
        ])
        rows = summary_rows([report])
        assert rows[0] == list(SUMMARY_COLUMNS)
        assert rows[1] == ["full", "50.0", "6.0", "1500.0", "60.0",
                           "1560.0", "0.5"]
