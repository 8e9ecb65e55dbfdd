"""Correctness checks the benchmark applies to every question it times,
and the fixture answer gate it runs before timing anything."""

from __future__ import annotations

import json
import os
from pathlib import Path

from graphquest.harness.datasets import load_dataset
from graphquest.kg.memory_store import InMemoryKG
from graphquest.llm.accounting import usage_total
from graphquest.llm.scripted import ScriptedBackend
from graphquest.planner.engine import Planner, RunResult
from graphquest.planner.state import PlannerConfig, Question, StateError
from graphquest.trace import RunTrace

PANAMA_QUESTION = Question(
    "Who is in control of the place where the movie "
    "The Naked and the Dead takes place?",
    (("m.0jt3_v", "The Naked and the Dead"),
     ("m.02rhx1c", "President of Panama")),
)
PANAMA_ANSWER = "Juan Carlos Varela"
# The capitals script answers Spain with Barcelona on purpose.
CAPITALS_ANSWERS = {"cap-fr": "Paris", "cap-jp": "Tokyo", "cap-it": "Rome",
                    "cap-es": "Barcelona"}


def fixture_gate(fixtures: Path) -> list[str]:
    """Replay the bundled scripted fixtures; returns the mismatches."""
    problems = []
    kg = InMemoryKG()
    kg.load_triples(str(fixtures / "panama.tsv"))
    llm = ScriptedBackend.from_file(str(fixtures / "panama_script.json"))
    answer = Planner(kg, llm).run(PANAMA_QUESTION).verdict.answer
    if answer != PANAMA_ANSWER:
        problems.append(f"panama answered {answer!r}, want {PANAMA_ANSWER!r}")
    kg = InMemoryKG()
    kg.load_triples(str(fixtures / "capitals.tsv"))
    planner = Planner(kg, ScriptedBackend.from_file(
        str(fixtures / "capitals_script.json")))
    records = load_dataset(str(fixtures / "capitals_dataset.json"))
    got = {record.id: planner.run(
        Question(record.question, record.topic_entities)).verdict.answer
        for record in records}
    if got != CAPITALS_ANSWERS:
        problems.append(f"capitals answered {got}, want {CAPITALS_ANSWERS}")
    return problems


def expected_answer(response: str | None) -> str | None:
    """The answer the planner must report for the responder's last answer
    response; None when that response was garbled."""
    if response is None:
        return None
    try:
        answer = json.loads(response)["A"]
    except json.JSONDecodeError:
        return None
    return answer.strip() or None


def check_question(result: RunResult, config: PlannerConfig, responder,
                   labels: dict[str, str]) -> list[str]:
    """Checks one finished run against the responder's own account of it;
    returns the problems found."""
    problems = []
    if result.iterations > config.max_depth:
        problems.append(f"{result.iterations} iterations exceed "
                        f"max_depth {config.max_depth}")
    for path in result.memory.paths:
        try:
            path.validate(config.max_depth)
        except StateError as exc:
            problems.append(f"invalid path: {exc}")
    usage, calls = usage_total(result.trace)
    counted = (calls, usage.input_tokens, usage.output_tokens)
    own = (responder.calls, responder.input_tokens, responder.output_tokens)
    if counted != own:
        problems.append(f"trace usage {counted} != responder counts {own}")
    want = expected_answer(responder.last_answer)
    if result.verdict.answer != want:
        problems.append(f"answer {result.verdict.answer!r} != responder's "
                        f"{want!r}")
    if result.verdict.sufficient and not result.verdict.forced:
        grounded = {labels.get(eid) for path in result.memory.paths
                    for eid in path.entities()}
        if result.verdict.answer not in grounded:
            problems.append(f"answer {result.verdict.answer!r} is not on "
                            f"any reasoning path")
    return problems


def check_round_trip(trace: RunTrace, path: str) -> tuple[list[str], int]:
    """Saves and reloads a trace; returns (problems, bytes on disk).

    The byte count reads the final event's wall-clock field as 0.0, so it
    depends on the run's work and not on how many digits its time has.
    """
    trace.save(path)
    size = os.path.getsize(path)
    final = trace.final_event()
    if final is not None and "elapsed_seconds" in final.payload:
        size -= len(json.dumps(final.payload["elapsed_seconds"])) - len("0.0")
    if RunTrace.load(path).events != trace.events:
        return ["trace does not round-trip through save/load"], size
    return [], size
