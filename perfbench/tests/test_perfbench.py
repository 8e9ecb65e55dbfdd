"""Tests of the benchmark itself, on reduced workloads.

Run from the repository root with `python -m pytest perfbench/tests`.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
import tempfile

import pytest
from graphquest.kg.memory_store import InMemoryKG
from graphquest.planner.engine import Planner

import bench
import checks
import spec
import workloads
from conftest import BENCH_DIR, ROOT

SCALE = 0.1
COUNT_METRICS = ("llm_calls_per_q", "llm_rounds_per_q", "input_tokens_per_q",
                 "output_tokens_per_q", "trace_bytes_per_q")
TRACED_COUNTS = tuple(
    m.name for m in spec.PER_LAYER
    if m.unit in ("count", "chars", "bytes", "ratio")
    and m.name != "tracing.overhead_share")


def run(tmp_path, name, seed, traced=False):
    work_dir = tempfile.mkdtemp(dir=tmp_path)
    return bench.run_workload(name, seed, 0.0, traced, work_dir, SCALE)


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_counts_repeat_exactly_for_one_seed(tmp_path, name):
    first, second = run(tmp_path, name, 5), run(tmp_path, name, 5)
    assert first.failed == second.failed == 0
    for metric in COUNT_METRICS:
        assert first.metrics[metric] == second.metrics[metric], metric
    first, second = (run(tmp_path, name, 5, traced=True),
                     run(tmp_path, name, 5, traced=True))
    for metric in TRACED_COUNTS:
        assert first.metrics[metric] == second.metrics[metric], metric


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_second_seed_runs_cleanly(tmp_path, name):
    outcome = run(tmp_path, name, 2)
    assert outcome.failed == 0, outcome.problems[:5]
    assert outcome.attempted >= bench.MIN_PASSES
    for metric in spec.END_TO_END:
        value = outcome.metrics[metric.name]
        # A reduced graph can fit in heap the process already holds.
        floor = 0 if metric.name == "setup_rss_mb" else 1e-12
        assert math.isfinite(value) and value >= floor, metric.name


class Recorder:
    def __init__(self, responder):
        self.responder = responder
        self.exchanges = []

    def complete(self, prompt, config):
        completion = self.responder.complete(prompt, config)
        self.exchanges.append((prompt, completion.text))
        return completion


def test_shuffled_prompts_get_the_same_answers(tmp_path):
    wide = spec.WORKLOADS["wide-frontier"]
    inputs = bench.make_inputs(wide, 3, str(tmp_path), SCALE)
    recorder = Recorder(workloads.Responder(3, wide=True))
    kg = InMemoryKG()
    kg.load_triples(inputs.tsv)
    planner = Planner(kg, recorder, bench.CONFIG)
    for question in inputs.questions:
        planner.run(question)
    assert len(recorder.exchanges) > 50
    shuffled = list(recorder.exchanges)
    random.Random(0).shuffle(shuffled)
    fresh = workloads.Responder(3, wide=True)
    for prompt, text in shuffled:
        assert fresh.respond(prompt) == text


class AnchorlessPrompts:
    def render(self, template_id, **bindings):
        return f"{template_id}\nQ: {bindings['question']}"


def test_unmatched_prompt_fails_the_question(tmp_path):
    with pytest.raises(workloads.UnmatchedPromptError):
        workloads.Responder(1, wide=False).respond("Tell me a joke.")
    inputs = bench.make_inputs(spec.WORKLOADS["hub-fanout"], 1,
                               str(tmp_path), SCALE)
    setup = bench.set_up(inputs, workloads.Responder(1, wide=False))
    planner = Planner(setup.kg, setup.responder, bench.CONFIG,
                      prompts=AnchorlessPrompts())
    records = bench.run_pass(setup, inputs, planner,
                             str(tmp_path / "trace.jsonl"), first=True)
    assert all(record.problems for record in records)


def test_some_responses_are_garbled_and_retried(tmp_path):
    outcome = run(tmp_path, "hub-fanout", 4, traced=True)
    assert outcome.failed == 0
    assert 0 < outcome.metrics["llm.retry_share"] < 0.1


def test_traced_run_reports_every_layer_and_self_times_add_up(tmp_path):
    outcome = run(tmp_path, "remote-latency", 6, traced=True)
    assert set(outcome.metrics) == {m.name for m in spec.PER_LAYER}
    total = sum(seconds for _, seconds in outcome.table)
    assert total == pytest.approx(outcome.metrics["question.traced_s"])
    assert outcome.metrics["kg.http.requests"] > 0
    assert outcome.metrics["llm.http.requests"] == \
        outcome.metrics["llm.calls"]


def test_fixture_gate_passes():
    assert checks.fixture_gate(ROOT / "tests" / "fixtures") == []


def test_benchmark_json_matches_spec():
    data = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert data["command"] == ["python3", "perfbench/run.py"]
    assert data["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in data["workloads"]] == \
        [(w.name, w.why) for w in spec.WORKLOADS.values()]
    assert data["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in spec.END_TO_END]
    assert data["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in spec.PER_LAYER]


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hub-fanout",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
