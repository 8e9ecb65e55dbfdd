"""What the benchmark runs and reports.

BENCHMARK.json at the repository root lists the same workloads and
metrics; a test keeps the two in step. Each per-layer metric names the
end-to-end metrics it should move and the workloads it should move them
on, written down before any optimisation is measured against it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    entities: int
    out_degree: int
    hubs: int
    questions: int
    wide: bool
    remote: bool = False


# Delays of the in-process HTTP services, per request.
LLM_DELAY_S = 0.002
KG_DELAY_S = 0.0002
EMBED_DELAY_S = 0.0002

WORKLOADS = {
    spec.name: spec for spec in (
        WorkloadSpec(
            "hub-fanout",
            "12 hubs of 1.5k in-edges and a narrow responder: KG bucket "
            "scans, thousands of label lookups and trigram recall dominate",
            entities=18_000, out_degree=6, hubs=12, questions=66,
            wide=False),
        WorkloadSpec(
            "wide-frontier",
            "uniform graph, no hubs, responder keeps ~70% of each offer: "
            "planner self time, prompt size and trace growth dominate; "
            "recall never runs",
            entities=30_000, out_degree=4, hubs=0, questions=306, wide=True),
        WorkloadSpec(
            "remote-latency",
            "real SPARQL, chat and embedding clients against in-process "
            "services with fixed delays, cold client caches: waiting on "
            "round trips dominates",
            entities=12_000, out_degree=3, hubs=300, questions=102, wide=False,
            remote=True),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None
    # per-layer only: the end-to-end metrics it should move, and where
    moves: tuple[str, ...] = ()
    on: tuple[str, ...] = ()


HUB, WIDE, REMOTE = "hub-fanout", "wide-frontier", "remote-latency"
ALL = (HUB, WIDE, REMOTE)
QUESTION_S = ("question_s_p50", "question_s_p90", "questions_per_s")

# Each bound but setup_s's is at least three times the largest spread
# (IQR / median over ten seeds) of the final runs in README.md; setup_s
# gets the largest bound allowed, as set-up is timed in short regions.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("setup_rss_mb", "MB", "lower", 0.1),
    Metric("question_s_p50", "s", "lower", 0.2),
    Metric("question_s_p90", "s", "lower", 0.25),
    Metric("questions_per_s", "1/s", "higher", 0.25),
    Metric("llm_calls_per_q", "count", "lower", 0.15),
    Metric("llm_rounds_per_q", "count", "lower", 0.15),
    Metric("input_tokens_per_q", "tokens", "lower", 0.15),
    Metric("output_tokens_per_q", "tokens", "lower", 0.15),
    Metric("trace_bytes_per_q", "bytes", "lower", 0.15),
)

_LLM_COST = ("llm_calls_per_q", "llm_rounds_per_q")
PER_LAYER = (
    Metric("kg.load_s", "s", "lower", moves=("setup_s",), on=ALL),
    Metric("kg.load_rss_mb", "MB", "lower", moves=("setup_rss_mb",), on=ALL),
    Metric("kg.relations.calls", "count", "lower", moves=QUESTION_S,
           on=(HUB,)),
    Metric("kg.relations.s", "s", "lower", moves=QUESTION_S, on=(HUB,)),
    Metric("kg.entities.calls", "count", "lower", moves=QUESTION_S,
           on=(HUB,)),
    Metric("kg.entities.s", "s", "lower", moves=QUESTION_S, on=(HUB,)),
    Metric("kg.entities.rows", "count", "lower", moves=QUESTION_S,
           on=(HUB,)),
    Metric("kg.label.calls", "count", "lower", moves=QUESTION_S, on=(HUB,)),
    Metric("kg.label.s", "s", "lower", moves=QUESTION_S, on=(HUB,)),
    Metric("kg.http.requests", "count", "lower", moves=("question_s_p50",),
           on=(REMOTE,)),
    Metric("kg.http.wait_s", "s", "lower", moves=("question_s_p50",),
           on=(REMOTE,)),
    Metric("kg.cache_hit_ratio", "ratio", "higher",
           moves=("question_s_p50",), on=(REMOTE,)),
    Metric("recall.score.calls", "count", "lower", moves=QUESTION_S,
           on=(HUB,)),
    Metric("recall.score.s", "s", "lower", moves=QUESTION_S, on=(HUB,)),
    Metric("recall.candidates_in", "count", "lower", moves=QUESTION_S,
           on=(HUB, REMOTE)),
    Metric("recall.candidates_kept", "count", "lower",
           moves=("input_tokens_per_q",), on=(HUB, REMOTE)),
    Metric("recall.embed.requests", "count", "lower",
           moves=("question_s_p50",), on=(REMOTE,)),
    Metric("recall.embed.wait_s", "s", "lower", moves=("question_s_p50",),
           on=(REMOTE,)),
    Metric("llm.calls", "count", "lower", moves=_LLM_COST, on=ALL),
    Metric("llm.s", "s", "lower", moves=_LLM_COST + QUESTION_S,
           on=(REMOTE,)),
    Metric("llm.retry_share", "ratio", "lower", moves=_LLM_COST, on=ALL),
    Metric("llm.http.requests", "count", "lower",
           moves=_LLM_COST + QUESTION_S, on=(REMOTE,)),
    Metric("llm.http.wait_s", "s", "lower", moves=_LLM_COST + QUESTION_S,
           on=(REMOTE,)),
    Metric("llm.parse.s", "s", "lower", moves=QUESTION_S, on=(WIDE,)),
    Metric("prompts.render.calls", "count", "lower",
           moves=("input_tokens_per_q",) + QUESTION_S, on=(WIDE,)),
    Metric("prompts.render.s", "s", "lower",
           moves=("input_tokens_per_q",) + QUESTION_S, on=(WIDE,)),
    Metric("prompts.render.chars", "chars", "lower",
           moves=("input_tokens_per_q",) + QUESTION_S, on=(WIDE,)),
    Metric("planner.self_s", "s", "lower", moves=QUESTION_S, on=(WIDE,)),
    Metric("planner.frontier_max", "count", "lower",
           moves=("llm_calls_per_q",), on=(WIDE,)),
    Metric("planner.paths_max", "count", "lower",
           moves=("llm_calls_per_q",), on=(WIDE,)),
    Metric("planner.iterations", "count", "lower",
           moves=("llm_calls_per_q",), on=(WIDE,)),
    Metric("trace.events", "count", "lower", moves=("trace_bytes_per_q",),
           on=(WIDE, HUB)),
    Metric("trace.save_s", "s", "lower", moves=("trace_bytes_per_q",),
           on=(WIDE, HUB)),
    Metric("trace.pool_bytes", "bytes", "lower",
           moves=("trace_bytes_per_q",), on=(WIDE, HUB)),
    Metric("trace.label_events", "count", "lower",
           moves=("trace_bytes_per_q",), on=(WIDE, HUB)),
    # Benchmark-side measures: the traced question time that the self
    # times above add up to, and what tracing cost against the untraced
    # pass over the same questions.
    Metric("question.traced_s", "s", "lower", moves=QUESTION_S, on=ALL),
    Metric("tracing.overhead_share", "ratio", "lower"),
)
