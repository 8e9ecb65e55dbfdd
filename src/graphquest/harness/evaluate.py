"""Batch evaluation: run many questions, score them, tally cost."""

from __future__ import annotations

import dataclasses
import json
import logging
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from ..llm.accounting import usage_total
from ..planner.engine import Planner, PlannerRunError
from ..planner.state import Question
from .datasets import DatasetRecord
from .metrics import hits_at_1

logger = logging.getLogger(__name__)

_SAFE_NAME = re.compile(r"[^A-Za-z0-9._-]+")

SUMMARY_COLUMNS = ("Method", "Hits@1", "LLM Call", "Input Token",
                   "Output Token", "Total Token", "Time (s)")


class HarnessError(ValueError):
    pass


@dataclass(frozen=True)
class QuestionResult:
    id: str
    question: str
    predicted: str
    correct: bool
    llm_calls: int
    input_tokens: int
    output_tokens: int
    seconds: float
    iterations: int
    error: str | None = None

    @property
    def total_tokens(self) -> int:
        return self.input_tokens + self.output_tokens


@dataclass
class EvalReport:
    name: str
    results: list[QuestionResult]

    @property
    def hits_at_1(self) -> float:
        if not self.results:
            return 0.0
        return sum(1 for r in self.results if r.correct) / len(self.results)

    def aggregates(self) -> dict:
        count = len(self.results)
        totals = {
            "llm_calls": sum(r.llm_calls for r in self.results),
            "input_tokens": sum(r.input_tokens for r in self.results),
            "output_tokens": sum(r.output_tokens for r in self.results),
            "total_tokens": sum(r.total_tokens for r in self.results),
            "seconds": sum(r.seconds for r in self.results),
        }
        means = {f"mean_{key}": (value / count if count else 0.0)
                 for key, value in totals.items()}
        return {
            "questions": count,
            "hits_at_1": self.hits_at_1,
            **{f"total_{key}": value for key, value in totals.items()},
            **means,
        }

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "aggregates": self.aggregates(),
            "results": [dataclasses.asdict(r) for r in self.results],
        }


def _unique_filenames(ids: list[str]) -> list[str]:
    """One file name per id, in order: the id with each run of unsafe
    characters replaced by `_`.

    A name an earlier id already took (compared without case, as some
    file systems compare them) gets the first free `-2`, `-3`, ...
    suffix, so no output overwrites another; unique names stay as they
    are."""
    names = [_SAFE_NAME.sub("_", name) or "record" for name in ids]
    taken = {name.casefold() for name in names}
    given: set[str] = set()
    for index, name in enumerate(names):
        if name.casefold() in given:
            suffix = 2
            while f"{name}-{suffix}".casefold() in taken:
                suffix += 1
            name = names[index] = f"{name}-{suffix}"
            taken.add(name.casefold())
        given.add(name.casefold())
    return names


def _run_record(record: DatasetRecord, planner: Planner,
                trace_path: Path | None) -> QuestionResult:
    """Run one record, save its trace to `trace_path` (if given) as the
    run ends, and read the result from that trace's final event."""
    question = Question(record.question, tuple(record.topic_entities))
    error: str | None = None
    try:
        trace = planner.run(question).trace
    except PlannerRunError as exc:
        trace = exc.trace
        error = str(exc)
    if trace_path is not None:
        trace.save(str(trace_path))
    # Planner.run records a final event whether it answers or raises
    final = trace.final_event()
    payload = final.payload
    predicted = payload.get("answer") or ""
    if error is None and not record.answers:
        error = "no gold answers"
    correct = error is None and hits_at_1(predicted, record.answers)
    usage, calls = usage_total(trace)
    return QuestionResult(
        id=record.id,
        question=record.question,
        predicted=predicted,
        correct=correct,
        llm_calls=calls,
        input_tokens=usage.input_tokens,
        output_tokens=usage.output_tokens,
        seconds=payload["elapsed_seconds"],
        # the iteration a failed run stopped in, as a finished one's
        iterations=final.iteration,
        error=error,
    )


def run_eval(records: list[DatasetRecord], planner: Planner, *,
             parallelism: int = 1,
             out_dir: str | Path | None = None,
             name: str = "full") -> EvalReport:
    """Evaluate every record; result order always follows input order.
    With `out_dir`, each trace is saved as its question ends."""
    if not records:
        raise HarnessError("no records to evaluate")
    if parallelism < 1:
        raise HarnessError(f"parallelism must be >= 1, got {parallelism}")
    trace_paths: list[Path | None] = [None] * len(records)
    if out_dir is not None:
        trace_dir = Path(out_dir) / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_paths = [trace_dir / f"{filename}.jsonl" for filename in
                       _unique_filenames([record.id for record in records])]
    # planners are stateless, so the workers share one
    run = lambda record, path: _run_record(record, planner, path)  # noqa: E731
    if parallelism == 1:
        # on the calling thread, so Ctrl-C stops the running question
        results = list(map(run, records, trace_paths))
    else:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            results = list(pool.map(run, records, trace_paths))
    report = EvalReport(name=name, results=results)
    if out_dir is not None:
        save_report(report, Path(out_dir) / "report.json")
        write_summary_tsv([report], Path(out_dir) / "summary.tsv")
    return report


def ablation_matrix(records: list[DatasetRecord],
                    variants: list[tuple[str, Planner]], *,
                    parallelism: int = 1,
                    out_dir: str | Path | None = None) -> list[EvalReport]:
    """Run the same records once per (name, planner) variant."""
    if not variants:
        raise HarnessError("no variants to run")
    dir_names = _unique_filenames([name for name, _ in variants])
    reports = [run_eval(records, planner, parallelism=parallelism,
                        out_dir=None if out_dir is None
                        else Path(out_dir) / dir_name,
                        name=variant_name)
               for (variant_name, planner), dir_name
               in zip(variants, dir_names)]
    if out_dir is not None:
        write_summary_tsv(reports, Path(out_dir) / "summary.tsv")
    return reports


def save_report(report: EvalReport, path: str | Path) -> None:
    """The report as JSON; a lone surrogate is written as its escape, as
    `RunTrace.save` writes it."""
    with open(path, "w", encoding="utf-8",
              errors="backslashreplace") as handle:
        json.dump(report.to_dict(), handle, ensure_ascii=False, indent=2)
        handle.write("\n")


def summary_rows(reports: list[EvalReport]) -> list[list[str]]:
    rows = [list(SUMMARY_COLUMNS)]
    for report in reports:
        agg = report.aggregates()
        rows.append([
            report.name,
            f"{100.0 * agg['hits_at_1']:.1f}",
            f"{agg['mean_llm_calls']:.1f}",
            f"{agg['mean_input_tokens']:.1f}",
            f"{agg['mean_output_tokens']:.1f}",
            f"{agg['mean_total_tokens']:.1f}",
            f"{agg['mean_seconds']:.1f}",
        ])
    return rows


def write_summary_tsv(reports: list[EvalReport], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in summary_rows(reports):
            handle.write("\t".join(row))
            handle.write("\n")
