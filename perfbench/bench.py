"""Set-up, timed passes and metric reduction for one workload.

A run is one closed-loop client: questions go to `Planner.run` back to
back on one thread, as `run_eval(parallelism=1)` sends them. The run
sets up several times and reports the median, then repeats the seeded
question list in whole passes, at least MIN_PASSES and more while the
time budget allows. Every pass does identical work, so the count metrics
are fixed by the seed, and each question's time is its median over the
passes. Times are rescaled to a reference machine speed (see clock.py).
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time
from dataclasses import dataclass, field

from graphquest.kg.memory_store import InMemoryKG
from graphquest.kg.sparql_client import SparqlKG
from graphquest.llm.http_client import ChatCompletionsBackend
from graphquest.llm.parsing import (
    ParseError,
    extract_json_object,
    parse_json_object,
    parse_list,
)
from graphquest.planner.engine import Planner, PlannerRunError
from graphquest.planner.state import PlannerConfig
from graphquest.prompts import PromptLibrary
from graphquest.recall import RemoteEmbeddingScorer, TrigramScorer

import checks
import clock
import spans
import spec as specs
import workloads

SETUP_REPEATS = 5
MIN_PASSES = 3
CONFIG = PlannerConfig()


def rss_mb() -> float:
    """Resident set size of this process, from /proc."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmRSS missing from /proc/self/status")


@dataclass
class Inputs:
    spec: specs.WorkloadSpec
    graph: workloads.Graph
    questions: list
    tsv: str


def make_inputs(spec: specs.WorkloadSpec, seed: int, work_dir: str,
                scale: float = 1.0) -> Inputs:
    entities = max(200, int(spec.entities * scale))
    count = max(6, int(spec.questions * scale))
    tsv = os.path.join(work_dir, "graph.tsv")
    graph = workloads.make_graph(seed, entities, spec.out_degree, spec.hubs,
                                 tsv)
    return Inputs(spec, graph, workloads.make_questions(
        seed, graph, count), tsv)


@dataclass
class Setup:
    planner: Planner
    kg: InMemoryKG
    responder: workloads.Responder
    seconds: float
    wall_seconds: float
    rss_mb: float
    load_s: float
    load_rss_mb: float


def build_planner(spec, kg, responder, prompts, tracer=None) -> Planner:
    """A planner with fresh clients, so client caches start cold."""
    if spec.remote:
        llm = ChatCompletionsBackend("http://llm.invalid/v1", session=(
            workloads.ChatService(responder, specs.LLM_DELAY_S,
                                  tracer=tracer)))
        backend = SparqlKG("http://kg.invalid/sparql", session=(
            workloads.SparqlService(kg, specs.KG_DELAY_S, tracer=tracer)))
        scorer = RemoteEmbeddingScorer(
            "http://embed.invalid/v1/embeddings", session=(
                workloads.EmbeddingService(specs.EMBED_DELAY_S,
                                           tracer=tracer)))
    else:
        llm, backend, scorer = responder, kg, TrigramScorer()
    if tracer is not None:
        backend = spans.TracedKG(backend, tracer)
        llm = spans.TracedLLM(llm, tracer)
        scorer = spans.TracedScorer(scorer, tracer)
        prompts = spans.TracedPrompts(prompts, tracer)
    return Planner(backend, llm, CONFIG, scorer=scorer, prompts=prompts)


def set_up(inputs: Inputs, responder) -> Setup:
    """Everything before the first question can start."""
    gc.collect()
    rss_before = rss_mb()
    load = clock.Stopwatch()
    kg = InMemoryKG()
    kg.load_triples(inputs.tsv)
    load.stop()
    load_rss = rss_mb() - rss_before
    rest = clock.Stopwatch()
    planner = build_planner(inputs.spec, kg, responder, PromptLibrary())
    rest.stop()
    return Setup(planner, kg, responder, load.seconds + rest.seconds,
                 load.wall + rest.wall, rss_mb() - rss_before, load.seconds,
                 load_rss)


@dataclass
class QuestionRecord:
    wall: float
    seconds: float
    calls: int
    rounds: int
    input_tokens: int
    output_tokens: int
    trace_bytes: int
    problems: list[str]
    stats: dict[str, float] = field(default_factory=dict)


def run_pass(setup: Setup, inputs: Inputs, planner: Planner, trace_path: str,
             first: bool, tracer: spans.Tracer | None = None
             ) -> list[QuestionRecord]:
    """Runs every question once. Each pass repeats the same work, so only
    the first one saves, reloads and measures the traces."""
    responder = setup.responder
    records = []
    for index, question in enumerate(inputs.questions):
        responder.reset()
        watch = clock.Stopwatch()
        if tracer is not None:
            tracer.question = index
            root = tracer.begin("question")
        try:
            result = planner.run(question)
        except PlannerRunError as exc:
            result, error = None, exc
        if tracer is not None:
            tracer.end(root)
        watch.stop()
        record = QuestionRecord(watch.wall, watch.seconds, responder.calls,
                                responder.rounds,
                                responder.input_tokens,
                                responder.output_tokens, 0, [])
        if result is None:
            record.problems.append(f"PlannerRunError: {error}")
        else:
            record.problems = checks.check_question(
                result, CONFIG, responder, inputs.graph.labels)
            if first:
                problems, record.trace_bytes = checks.check_round_trip(
                    result.trace, trace_path)
                record.problems += problems
                if tracer is not None:
                    record.stats = trace_stats(result.trace, trace_path)
        records.append(record)
    return records


def timed_passes(setup: Setup, inputs: Inputs, trace_path: str,
                 seconds: float, tracer: spans.Tracer | None = None
                 ) -> list[list[QuestionRecord]]:
    """MIN_PASSES passes, then more (untraced only) while another fits
    in `seconds`."""
    prompts = PromptLibrary()
    passes = []
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or (
            tracer is None and (time.perf_counter() - started)
            * (len(passes) + 1) / len(passes) <= seconds):
        if passes or tracer is not None:
            planner = build_planner(inputs.spec, setup.kg, setup.responder,
                                    prompts, tracer)
        else:
            planner = setup.planner
        passes.append(run_pass(setup, inputs, planner, trace_path,
                               not passes, tracer))
    return passes


_PARSERS = {
    "decompose": parse_list,
    "relation_selection": parse_list,
    "entity_selection": parse_list,
    "backtrack_selection": parse_list,
    "memory_update": extract_json_object,
    "evaluate": lambda text: parse_json_object(text, {"A", "R"}),
    "forced_answer": lambda text: parse_json_object(text, {"A", "R"}),
    "reflection": lambda text: parse_json_object(text, {"Add", "Reason"}),
}


def trace_stats(trace, trace_path: str) -> dict[str, float]:
    """Counts read from one question's trace, plus two timed replays:
    saving it, and parsing its captured responses as the planner does."""
    stats = {"trace.events": len(trace.events), "trace.label_events": 0,
             "trace.pool_bytes": 0, "planner.frontier_max": 0,
             "planner.paths_max": 0, "recall.candidates_in": 0,
             "recall.candidates_kept": 0, "llm.calls": 0, "llm.retries": 0,
             "planner.iterations": 0}
    responses = []
    for event in trace.events:
        payload = event.payload
        if "candidate_pool" in payload:
            stats["trace.pool_bytes"] += len(json.dumps(
                payload["candidate_pool"], ensure_ascii=False))
        if event.kind == "kg_query" and payload["op"] == "label":
            stats["trace.label_events"] += 1
        elif event.kind == "memory_update":
            stats["planner.frontier_max"] = max(
                stats["planner.frontier_max"], len(payload["tail_entities"]))
            stats["planner.paths_max"] = max(stats["planner.paths_max"],
                                             payload["paths"])
        elif event.kind == "selection" and payload.get("stage") == "recall":
            stats["recall.candidates_in"] += payload["before"]
            stats["recall.candidates_kept"] += payload["after"]
        elif event.kind == "llm_call":
            stage = payload["stage"].removesuffix("_retry")
            stats["llm.calls"] += 1
            stats["llm.retries"] += stage != payload["stage"]
            responses.append((_PARSERS[stage], payload["response"]))
        elif event.kind == "final":
            stats["planner.iterations"] = payload["iterations"]
    started = time.perf_counter()
    for parse, text in responses:
        try:
            parse(text)
        except ParseError:
            pass
    stats["llm.parse.s"] = time.perf_counter() - started
    started = time.perf_counter()
    trace.save(trace_path)
    stats["trace.save_s"] = time.perf_counter() - started
    return stats


# -- reduction ---------------------------------------------------------------


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def per_question(passes: list[list[QuestionRecord]],
                 key: str = "seconds") -> list[float]:
    """Each question's median time over the passes."""
    return [statistics.median(times) for times in zip(*(
        [getattr(r, key) for r in records] for records in passes))]


def end_to_end(setups: list[Setup],
               passes: list[list[QuestionRecord]]) -> dict:
    seconds = per_question(passes)
    first = passes[0]
    return {
        "setup_s": statistics.median(s.seconds for s in setups),
        "setup_rss_mb": setups[0].rss_mb,
        "question_s_p50": statistics.median(seconds),
        "question_s_p90": statistics.quantiles(seconds, n=10)[8],
        "questions_per_s": len(seconds) / sum(seconds),
        "llm_calls_per_q": _mean(r.calls for r in first),
        "llm_rounds_per_q": _mean(r.rounds for r in first),
        "input_tokens_per_q": _mean(r.input_tokens for r in first),
        "output_tokens_per_q": _mean(r.output_tokens for r in first),
        "trace_bytes_per_q": _mean(r.trace_bytes for r in first),
    }


def per_layer(setups: list[Setup], untraced: list[list[QuestionRecord]],
              traced: list[list[QuestionRecord]], tracer: spans.Tracer) -> dict:
    """Span totals are averaged over every traced question run; counts
    read from traces come from the first traced pass."""
    n = sum(len(records) for records in traced)
    totals = tracer.totals()

    def span(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0.0) / n

    def stat(name: str) -> float:
        # A question that failed has no trace counts; it adds zero.
        return _mean(r.stats.get(name, 0) for r in traced[0])

    kg_calls = sum(span(name, "calls") for name in
                   ("kg.relations", "kg.entities", "kg.label"))
    traced_s = span("question", "s")
    metrics = {
        "kg.load_s": statistics.median(s.load_s for s in setups),
        "kg.load_rss_mb": setups[0].load_rss_mb,
        "kg.entities.rows": tracer.counts["kg.entities.rows"] / n,
        "kg.cache_hit_ratio": (1.0 - span("kg.http", "calls") / kg_calls
                               if kg_calls else 1.0),
        "kg.http.requests": span("kg.http", "calls"),
        "kg.http.wait_s": span("kg.http", "s"),
        "recall.embed.requests": span("recall.embed", "calls"),
        "recall.embed.wait_s": span("recall.embed", "s"),
        "llm.retry_share": (stat("llm.retries") / stat("llm.calls")
                            if stat("llm.calls") else 0.0),
        "llm.http.requests": span("llm.http", "calls"),
        "llm.http.wait_s": span("llm.http", "s"),
        "prompts.render.chars": tracer.counts["prompts.render.chars"] / n,
        "planner.self_s": span("question", "self_s"),
        "question.traced_s": traced_s,
        "tracing.overhead_share": (
            sum(per_question(traced)) / sum(per_question(untraced)) - 1.0),
    }
    for name in ("kg.relations", "kg.entities", "kg.label", "recall.score",
                 "llm", "prompts.render"):
        metrics[f"{name}.calls"] = span(name, "calls")
        metrics[f"{name}.s"] = span(name, "s")
    for name in ("recall.candidates_in", "recall.candidates_kept",
                 "llm.parse.s", "planner.frontier_max", "planner.paths_max",
                 "planner.iterations", "trace.events", "trace.save_s",
                 "trace.pool_bytes", "trace.label_events"):
        metrics[name] = stat(name)
    return metrics


def self_time_table(tracer: spans.Tracer, questions: int) -> list[tuple]:
    """(span, self seconds per question) rows; they sum to the traced
    question time because every span's self time excludes its children."""
    return [(name, entry["self_s"] / questions)
            for name, entry in sorted(tracer.totals().items())]


# -- one run -------------------------------------------------------------------


@dataclass
class RunOutcome:
    attempted: int
    failed: int
    problems: list[str]
    metrics: dict[str, float]
    # printed beside the metrics: raw wall-clock readings, self times
    notes: dict[str, float] = field(default_factory=dict)
    table: list[tuple] = field(default_factory=list)


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 work_dir: str, scale: float = 1.0) -> RunOutcome:
    spec = specs.WORKLOADS[name]
    inputs = make_inputs(spec, seed, work_dir, scale)
    responder = workloads.Responder(seed, wide=spec.wide)
    trace_path = os.path.join(work_dir, "trace.jsonl")
    setups = []
    for _ in range(SETUP_REPEATS):
        if setups:
            setups[-1].planner = setups[-1].kg = None
        setups.append(set_up(inputs, responder))
    setup = setups[-1]
    passes = timed_passes(setup, inputs, trace_path, seconds)
    wall = per_question(passes, "wall")
    notes = {"passes": len(passes),
             "wall_setup_s": statistics.median(
                 s.wall_seconds for s in setups),
             "wall_question_s_p50": statistics.median(wall),
             "wall_question_s_p90": statistics.quantiles(wall, n=10)[8]}
    if traced:
        tracer = spans.Tracer()
        traced_passes = timed_passes(setup, inputs, trace_path, seconds,
                                     tracer)
        metrics = per_layer(setups, passes, traced_passes, tracer)
        table = self_time_table(tracer, sum(map(len, traced_passes)))
        passes += traced_passes
    else:
        metrics, table = end_to_end(setups, passes), []
    runs = [r for records in passes for r in records]
    return RunOutcome(len(runs), sum(1 for r in runs if r.problems),
                      [p for r in runs for p in r.problems], metrics,
                      notes, table)
