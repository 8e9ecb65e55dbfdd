"""Command-line interface: run one question, evaluate a dataset, or
inspect a saved trace."""

from __future__ import annotations

import argparse
import io
import logging
import os
import sys
import time
from pathlib import Path

from .config import (
    SETTINGS,
    AppConfig,
    ConfigError,
    build_app_config,
    build_planner,
    load_config_file,
)
from .harness.datasets import DatasetError, load_dataset
from .harness.evaluate import ablation_matrix, run_eval, summary_rows
from .kg.types import KGError
from .llm.accounting import usage_total
from .llm.types import LLMError
from .planner.engine import Planner, PlannerRunError
from .planner.state import Question, StateError
from .prompts import TEMPLATE_SLOTS, PromptLibrary
from .trace import RunTrace, TraceError

logger = logging.getLogger(__name__)


def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    # each flag but --config stores its value under the settings key it sets
    parser.add_argument("--config", metavar="PATH",
                        help="flat key=value config file")
    parser.add_argument("--kg", dest="kg.path", metavar="PATH",
                        help="triple file for the in-memory backend")
    parser.add_argument("--endpoint", dest="kg.endpoint", metavar="URL",
                        help="SPARQL endpoint URL (remote backend)")
    parser.add_argument("--script", dest="llm.script", metavar="PATH",
                        help="scripted responder rule file")
    parser.add_argument("--model", dest="llm.model", metavar="NAME",
                        help="model name for the chat-completions backend")
    parser.add_argument("--depth", dest="planner.max_depth", metavar="N",
                        type=int, help="iteration cap")
    parser.add_argument("--out", dest="output.dir", metavar="DIR",
                        help="directory that receives run outputs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphquest",
        description=("Answer questions over a knowledge graph with an "
                     "LLM-guided, self-correcting exploration loop."),
        epilog=("API credentials are taken from GRAPHQUEST_API_KEY "
                "(or OPENAI_API_KEY); they are never read from files "
                "or flags."),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="answer a single question")
    run.add_argument("--question", required=True, help="question text")
    run.add_argument("--topic", action="append", required=True,
                     metavar="ID=LABEL",
                     help="topic entity, repeatable (e.g. m.0f8l9c=France)")
    _add_shared_flags(run)
    run.set_defaults(handler=cmd_run)

    ev = sub.add_parser("eval", help="evaluate a dataset")
    ev.add_argument("dataset", help="dataset JSON file")
    ev.add_argument("--ablate", action="append", default=[],
                    metavar="SPEC",
                    help=("ablation variant to add, repeatable: "
                          "comma-joined planner.* fields, each NAME (true) "
                          "or NAME=VALUE, e.g. no_memory,fixed_breadth=2"))
    ev.add_argument("--parallel", type=int, default=1, metavar="N",
                    help="worker threads (default: 1)")
    _add_shared_flags(ev)
    ev.set_defaults(handler=cmd_eval)

    ins = sub.add_parser("inspect-trace", help="pretty-print a saved trace")
    ins.add_argument("trace", help="trace .jsonl file")
    ins.add_argument("--by-slot", action="store_true",
                     help=("in place of the events, the prompt characters "
                           "per template and slot, fixed template text "
                           "included"))
    ins.set_defaults(handler=cmd_inspect)
    return parser


def _overrides_from_flags(args: argparse.Namespace) -> dict[str, str]:
    return {key: str(value) for key, value in vars(args).items()
            if key in SETTINGS and value is not None}


def _assemble(args: argparse.Namespace,
              extra: dict[str, str] | None = None) -> AppConfig:
    """The config of file values, then flags, then `extra` keys."""
    file_values = load_config_file(args.config) if args.config else {}
    return build_app_config(file_values,
                            {**_overrides_from_flags(args), **(extra or {})})


def _ablation_keys(spec: str) -> dict[str, str]:
    """`no_memory,fixed_breadth=2` as planner.* keys; a bare name is true."""
    keys = {}
    for part in spec.split(","):
        name, equals, value = part.partition("=")
        keys[f"planner.{name.strip()}"] = value.strip() if equals else "true"
    return keys


def _make_run_dir(root: str) -> Path:
    base = Path(root)
    base.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    run_dir = base / stamp
    serial = 1
    while run_dir.exists():
        run_dir = base / f"{stamp}-{serial}"
        serial += 1
    run_dir.mkdir()
    latest = base / "latest"
    try:
        if latest.is_symlink() or latest.exists():
            latest.unlink()
        os.symlink(run_dir.name, latest)
    except OSError as exc:
        logger.warning("could not refresh latest link: %s", exc)
    return run_dir


def _parse_topics(specs: list[str]) -> tuple[tuple[str, str], ...]:
    """``ID=LABEL`` or ``ID`` pairs; `Question` makes a blank label the id."""
    topics = []
    for spec in specs:
        eid, _, label = spec.partition("=")
        if not eid.strip():
            raise ConfigError(f"bad --topic value {spec!r}")
        topics.append((eid.strip(), label.strip()))
    return tuple(topics)


def cmd_run(args: argparse.Namespace) -> int:
    app = _assemble(args)
    planner = build_planner(app)
    question = Question(args.question, _parse_topics(args.topic))
    run_dir = _make_run_dir(app.output_dir)
    trace_path = run_dir / "trace.jsonl"
    try:
        result = planner.run(question)
    except PlannerRunError as exc:
        exc.trace.save(str(trace_path))
        print(f"run failed: {exc}", file=sys.stderr)
        print(f"partial trace: {trace_path}", file=sys.stderr)
        return 1
    result.trace.save(str(trace_path))
    usage, calls = usage_total(result.trace)
    verdict = result.verdict
    print(f"Answer: {verdict.answer if verdict.answer else '(none)'}")
    if verdict.reason:
        print(f"Reason: {verdict.reason}")
    if verdict.forced:
        print("Note: exploration budget exhausted; answer was forced.")
    print(f"Iterations: {result.iterations}")
    print(f"LLM calls: {calls} "
          f"(input {usage.input_tokens} + output {usage.output_tokens} "
          f"= {usage.total_tokens} tokens)")
    print(f"Time: {result.elapsed_seconds:.2f}s")
    print(f"Trace: {trace_path}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    if args.parallel < 1:
        raise ConfigError(f"--parallel must be >= 1, got {args.parallel}")
    app = _assemble(args)
    variants = [(spec, _assemble(args, _ablation_keys(spec)).planner)
                for spec in args.ablate]
    planner = build_planner(app)
    records = load_dataset(args.dataset)
    if not records:
        print("dataset has no usable records", file=sys.stderr)
        return 1
    run_dir = _make_run_dir(app.output_dir)
    if variants:
        # every variant shares the one loaded graph, model and scorer
        planners = [("full", planner)] + [
            (spec, Planner(planner.kg, planner.llm, config,
                           scorer=planner.scorer))
            for spec, config in variants]
        reports = ablation_matrix(records, planners,
                                  parallelism=args.parallel, out_dir=run_dir)
    else:
        reports = [run_eval(records, planner, parallelism=args.parallel,
                            out_dir=run_dir)]
    table = summary_rows(reports)
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    for row in table:
        print("  ".join(cell.ljust(width)
                        for cell, width in zip(row, widths)).rstrip())
    print(f"Outputs: {run_dir}")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    trace = RunTrace.load(args.trace)
    if args.by_slot:
        _print_slot_rollup(trace)
    else:
        for event in trace.events:
            print(f"{event.seq:4d}  iter {event.iteration}  "
                  f"{event.kind:<13} {_summarize(event)}")
    usage, calls = usage_total(trace)
    print(f"-- {len(trace.events)} events, {calls} llm calls, "
          f"{usage.input_tokens} input + {usage.output_tokens} output "
          f"= {usage.total_tokens} tokens")
    return 0


# the row of `--by-slot` for a template's own text
FIXED_TEXT = "(fixed text)"


def _print_slot_rollup(trace: RunTrace) -> None:
    """Prompt characters per (template, slot): a slot's text once per
    placeholder, the template's own text under FIXED_TEXT."""
    # (template, slot) -> [calls, characters]
    rows: dict[tuple[str, str], list[int]] = {}

    def add(template: str, slot: str, chars: int) -> None:
        row = rows.setdefault((template, slot), [0, 0])
        row[0] += 1
        row[1] += chars

    for event in trace.iter_kind("llm_call"):
        # slot (None: the template's own text) -> characters in this call
        chars: dict[str | None, int] = {}
        for slot, text in PromptLibrary.parts_of(event):
            chars[slot] = chars.get(slot, 0) + len(text)
        template = event.payload["template"]
        for slot, count in chars.items():
            add(template, FIXED_TEXT if slot is None else slot, count)
    total = sum(chars for _, chars in rows.values())
    fixed = sum(chars for (_, slot), (_, chars) in rows.items()
                if slot == FIXED_TEXT)

    def share(chars: int) -> str:
        return f"{chars / total if total else 0:6.1%}"

    order = {template: index for index, template in enumerate(TEMPLATE_SLOTS)}
    print(f"{'template':<20} {'slot':<15} {'calls':>6} {'chars':>9}  share")
    for (template, slot), (calls, chars) in sorted(
            rows.items(), key=lambda item: (order[item[0][0]], -item[1][1])):
        print(f"{template:<20} {slot:<15} {calls:>6} {chars:>9} "
              f"{share(chars)}")
    print(f"-- {total} prompt characters, {fixed} of them fixed template "
          f"text ({share(fixed).strip()})")


def _clip(text: str, limit: int = 70) -> str:
    flat = " ".join(str(text).split())
    return flat if len(flat) <= limit else flat[:limit - 3] + "..."


def _summarize(event) -> str:
    """One line on the event; its raw payload if a field is missing or
    mistyped."""
    try:
        return _describe(event)
    except (KeyError, TypeError, AttributeError):
        return _clip(event.payload)


def _describe(event) -> str:
    p = event.payload
    if event.kind == "llm_call":
        cost = ""
        if event.usage:
            cost = (f" [{event.usage.input_tokens}+"
                    f"{event.usage.output_tokens} tok]")
        return (f"{p.get('stage')} <{p['template']}>{cost} -> "
                f"{_clip(p.get('response', ''))}")
    if event.kind == "kg_query":
        op = p.get("op")
        if op == "relations":
            return (f"relations of {p.get('entity')} "
                    f"({p.get('direction')}): {p.get('count')}")
        if op == "entities":
            return (f"entities via {p.get('relation')} "
                    f"({p.get('direction')}) from {p.get('entity')}: "
                    f"{p.get('count')}")
        if op == "labels":
            # an unnamed entity's label is its id
            named = [f"{eid} -> {_clip(label, 40)}"
                     for eid, label in p.get("labels").items()]
            unnamed = [f"{eid} -> {eid} (fallback)"
                       for eid in p.get("fallback", ())]
            return "labels " + ", ".join(named + unnamed)
        return _clip(p)
    if event.kind == "selection":
        return f"{p.get('stage')}: {_clip(p.get('selected', p))}"
    if event.kind == "memory_update":
        # only a no_memory run lists its pool, whole
        listed = p.get("candidate_pool")
        pool = "" if listed is None else f"pool={len(listed)} "
        return f"paths={p.get('paths')} {pool}status={_clip(p.get('status'))}"
    if event.kind == "verdict":
        mark = "sufficient" if p.get("sufficient") else "insufficient"
        forced = " (forced)" if p.get("forced") else ""
        return f"{mark}{forced} answer={p.get('answer')!r}"
    if event.kind == "reflection":
        return f"add={p.get('add')} backtrack={p.get('backtrack')}"
    if event.kind == "final":
        if "error" in p:
            return f"error: {_clip(p['error'])}"
        return (f"answer={p.get('answer')!r} iterations={p.get('iterations')} "
                f"{p.get('elapsed_seconds')}s")
    return _clip(p)


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("GRAPHQUEST_LOG", "WARNING"))
    parser = build_parser()
    args = parser.parse_args(argv)
    # a lone surrogate in recorded text, which no encoding can write,
    # prints as its \uXXXX escape, as it already does on standard error
    if isinstance(sys.stdout, io.TextIOWrapper):
        sys.stdout.reconfigure(errors="backslashreplace")
    try:
        code = args.handler(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed standard output (`inspect-trace T | head -1`):
        # the output ends there. What is still buffered goes to the null
        # device, so the interpreter's last flush does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        return 0
    except (ConfigError, LLMError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (KGError, DatasetError, StateError, TraceError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"file not found: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a directory, no permission: names the file
        print(f"file error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
