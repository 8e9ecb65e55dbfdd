"""The planning loop: explore, remember, evaluate, reflect.

Each iteration expands the frontier one hop (relation selection, then
entity selection), folds the findings into memory, and asks whether the
gathered evidence suffices to answer. When it does not, a reflection
step may re-open entities seen earlier, which is how a run recovers from
a wrong turn instead of deepening it.
"""

from __future__ import annotations

import json
import logging
import re
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import Any, Callable

from .. import fanout
from ..kg.types import Direction, EntityLabel, KGBackend
from ..llm.parsing import (
    ParseError,
    extract_json_object,
    normalize_bool,
    parse_json_object,
    parse_list,
)
from ..llm.types import Completion, CompletionBackend, Usage
from ..prompts import PromptLibrary
from ..recall import Scorer, TrigramScorer, top_k
from ..trace import RunTrace
from .state import (
    Memory,
    PathStep,
    PlannerConfig,
    Question,
    ReasoningPath,
    Verdict,
)

logger = logging.getLogger(__name__)

# Answer strings that mean "not answered yet" (compared case-insensitively).
INSUFFICIENT_ANSWERS = frozenset({"", "unknown", "insufficient"})

_INDEX_RE = re.compile(r"(\d+)")

_DIRECTIONS = (Direction.OUTGOING, Direction.INCOMING)

# (tail entity, relation, direction): one edge search from the frontier
Hop = tuple[str, str, Direction]
# (template id, slot -> bound text): one prompt, rendered at its model call
# and recorded as it is
Call = tuple[str, dict[str, str]]
# (stage, completion): one model call of a Call
Reply = tuple[str, Completion]

_decode_answer = partial(parse_json_object, required_keys={"A", "R"})
_decode_reflection = partial(parse_json_object,
                             required_keys={"Add", "Reason"})


def _present(**fields: Any) -> dict:
    """The fields with a truthy value: a payload's optional keys."""
    return {key: value for key, value in fields.items() if value}


def _text(value: Any) -> str:
    """A reply's value where text is expected; a JSON null is empty."""
    return "" if value is None else str(value)


def _join_warnings(*parts: str | None) -> str | None:
    return "; ".join(part for part in parts if part) or None


class PlannerRunError(Exception):
    """A backend failure aborted the run; carries the partial trace."""

    def __init__(self, message: str, trace: RunTrace):
        super().__init__(message)
        self.trace = trace


@dataclass
class _Run:
    """The working state of one question, created afresh by `Planner.run`.

    Every stage records its trace events at the current `iteration`,
    which is 0 while the question is being decomposed.
    """

    question: Question
    trace: RunTrace = field(default_factory=RunTrace)
    iteration: int = 0
    # id -> label of every entity seen so far, topic entities included
    labels: dict[str, str] = field(init=False)
    # (entity id, label) pairs still to be expanded this iteration
    tail_entities: list[tuple[str, str]] = field(init=False)
    # id -> label of every candidate seen so far, topic entities included:
    # `labels` itself, unless no_memory gives each iteration its own
    candidate_pool: dict[str, str] = field(init=False)
    # the hops already searched
    expanded: set[Hop] = field(default_factory=set)
    objectives: tuple[str, ...] = field(init=False)
    memory: Memory = field(init=False)
    # `memory.paths` as the prompts show them, rendered when they change
    paths_text: str = ""

    def __post_init__(self) -> None:
        topics = self.question.topic_entities
        self.labels = self.candidate_pool = dict(topics)
        self.tail_entities = list(topics)

    def record(self, kind: str, payload: dict,
               usage: Usage | None = None) -> None:
        self.trace.record(kind, self.iteration, payload, usage)


@dataclass
class RunResult:
    verdict: Verdict
    trace: RunTrace
    memory: Memory
    # id -> label of every candidate seen (under no_memory, this
    # iteration's only)
    candidate_pool: dict[str, str]
    sub_objectives: tuple[str, ...]
    iterations: int
    elapsed_seconds: float


class Planner:
    """Answers questions over one knowledge graph with one model.

    Stateless: each `run` keeps its working state in a fresh per-run
    object, so one planner may serve many runs, one after another,
    nested, or on several threads (as far as its backends allow).

    `prompts` renders each prompt (default: the bundled templates). The
    trace records the digest its `digest(template_id)` gives, or, for an
    object with `render` alone, which must render the bundled text, the
    bundled template's.
    """

    def __init__(self, kg: KGBackend, llm: CompletionBackend,
                 config: PlannerConfig | None = None, *,
                 scorer: Scorer | None = None,
                 prompts: PromptLibrary | None = None):
        self.kg = kg
        self.llm = llm
        self.config = config or PlannerConfig()
        self.scorer = scorer or TrigramScorer()
        self.prompts = prompts or PromptLibrary()

    # -- entry point -----------------------------------------------------

    def run(self, question: Question) -> RunResult:
        run = _Run(question)
        started = time.perf_counter()
        try:
            return self._run(run, started)
        except Exception as exc:
            elapsed = time.perf_counter() - started
            run.record("final", {
                "error": str(exc),
                "elapsed_seconds": round(elapsed, 6),
            })
            raise PlannerRunError(f"run aborted: {exc}", run.trace) from exc

    def _run(self, run: _Run, started: float) -> RunResult:
        run.objectives = self.decompose(run)
        run.memory = Memory(
            paths=[ReasoningPath(origin=eid)
                   for eid, _ in run.question.topic_entities],
            status=["unknown"] * len(run.objectives),
        )
        for depth in range(1, self.config.max_depth + 1):
            run.iteration = depth
            if self.config.ablations.no_memory:
                # keep only what the current iteration discovers
                run.expanded = set()
                run.candidate_pool = dict(run.tail_entities)
            self.explore_entities(run, self.explore_relations(run))
            self.update_memory(run)
            verdict = self.evaluate(run)
            if verdict.sufficient:
                break
            # reflection only re-opens entities not already on the frontier
            run.tail_entities.extend(
                (eid, run.labels[eid]) for eid in self.reflect(run))
        exhausted = not verdict.sufficient
        if exhausted:
            verdict = self.evaluate(run, forced=True)
        elapsed = time.perf_counter() - started
        run.record("final", {
            "answer": verdict.answer,
            "reason": verdict.reason,
            "sufficient": verdict.sufficient,
            "forced": verdict.forced,
            "exhausted": exhausted,
            "iterations": run.iteration,
            "elapsed_seconds": round(elapsed, 6),
        })
        return RunResult(verdict, run.trace, run.memory, run.candidate_pool,
                         run.objectives, run.iteration, elapsed)

    # -- stage: task decomposition --------------------------------------

    def decompose(self, run: _Run) -> tuple[str, ...]:
        text = run.question.text
        if self.config.ablations.no_guidance:
            run.record("selection", {
                "stage": "decompose",
                "selected": [text],
                "note": "guidance disabled",
            })
            return (text,)
        items, warning = self._ask(run, ("decompose", {"question": text}),
                                   "decompose", parse_list)
        if not items:
            items = [text]
            warning = warning or "empty sub-objective list"
        run.record("selection", {"stage": "decompose", "selected": list(items),
                                 **_present(warning=warning)})
        return tuple(items)

    # -- stage: relation exploration ------------------------------------

    def explore_relations(self, run: _Run) -> list[Hop]:
        """The hops the model chose from each tail, in frontier order.

        Every tail's two searches come first, up to the first that
        fails; then the model is asked about each tail searched both
        ways, the calls of a waiting model overlapping; then the events
        are recorded, tail by tail. When a search or a model call fails,
        the tails before it are recorded whole and the failing one up to
        the failure, as a run made one call at a time records them.
        """
        tails = run.tail_entities
        found, failed = fanout.gather(
            self.kg, lambda search: self.kg.search_relations(*search),
            [(eid, direction)
             for eid, _ in tails for direction in _DIRECTIONS])
        sub_objectives = json.dumps(run.objectives, ensure_ascii=False)
        # per tail searched both ways: the (relation, direction) pairs not
        # expanded yet, their relations sorted, the call offering them
        # (None when there are none) and the completions it gets
        offers: list[tuple[list[tuple[str, Direction]], list[str],
                           Call | None, list[Reply]]] = []
        for (eid, label), both in zip(tails, zip(found[::2], found[1::2])):
            # pairs expanded in an earlier iteration are spent;
            # re-offering them would just repeat the same hop
            tagged = [(relation, direction)
                      for direction, relations in zip(_DIRECTIONS, both)
                      for relation in relations
                      if (eid, relation, direction) not in run.expanded]
            names = sorted({relation for relation, _ in tagged})
            call = None
            if names:
                call = ("relation_selection", {
                    "question": run.question.text,
                    "sub_objectives": sub_objectives,
                    "topic_entity": label,
                    "relations": "; ".join(names),
                })
            offers.append((tagged, names, call, []))
        answers, refused = fanout.gather(
            self.llm, lambda ask: self._gather_ask(*ask),
            [(call, "relation_selection", parse_list, completions)
             for _, _, call, completions in offers if call is not None])
        hops: list[Hop] = []
        for index, (eid, _) in enumerate(tails):
            for direction, relations in zip(_DIRECTIONS,
                                            found[2 * index:2 * index + 2]):
                run.record("kg_query", {
                    "op": "relations", "entity": eid,
                    "direction": direction.value, "count": len(relations),
                })
            if index == len(offers):
                # this tail's search failed
                raise failed
            tagged, names, call, completions = offers[index]
            raw, warning = None, None
            if call is not None:
                # a failed ask's calls are recorded before its error
                self._record_calls(run, call, completions)
                if not answers:
                    raise refused
                raw, warning = answers.pop(0)
            raw, offered = raw or [], set(names)
            # de-duplicate before the cap; a None breadth slices nothing
            chosen = list(dict.fromkeys(
                name for item in raw if (name := item.strip()) in offered
            ))[:self.config.ablations.fixed_breadth]
            dropped = [item for item in raw if item.strip() not in offered]
            run.record("selection", {
                "stage": "relations",
                "entity": eid,
                "candidates": names,
                "selected": chosen,
                **_present(dropped=dropped, warning=warning),
            })
            hops.extend((eid, relation, direction)
                        for relation, direction in tagged
                        if relation in chosen)
        return hops

    # -- stage: entity exploration --------------------------------------

    def explore_entities(self, run: _Run, hops: list[Hop]) -> None:
        """Offer each hop's candidates once; extend every path at its tail,
        replacing it in memory by its extensions."""
        if not hops:
            run.tail_entities = []
            return
        labels, pool = run.labels, run.candidate_pool
        # every hop's search, up to the first that fails, and then the
        # labels of all the ids they found that have none yet, in one
        # batch; the events follow hop by hop
        found_by_hop, failed = fanout.gather(
            self.kg, lambda hop: self.kg.search_entities(*hop), hops)
        # the ids with no label that each hop is the first to find
        unseen_by_hop: list[list[str]] = []
        claimed: set[str] = set()
        for found in found_by_hop:
            unseen = [cid for cid in found
                      if cid not in labels and cid not in claimed]
            claimed.update(unseen)
            unseen_by_hop.append(unseen)
        resolved, unlabeled = fanout.gather(
            self.kg, self.kg.resolve_label,
            list(chain.from_iterable(unseen_by_hop)))
        # tail -> each hop from it that found something, with its candidates
        offers: dict[str, list[tuple[Hop, list[tuple[str, str]]]]] = {}
        for hop, found, unseen in zip(hops, found_by_hop, unseen_by_hop):
            tail, relation, direction = hop
            run.record("kg_query", {
                "op": "entities", "entity": tail, "relation": relation,
                "direction": direction.value, "count": len(found),
            })
            run.expanded.add(hop)
            if len(resolved) < len(unseen):
                raise unlabeled
            self._record_labels(run, unseen, resolved[:len(unseen)])
            del resolved[:len(unseen)]
            labeled = [(cid, labels[cid]) for cid in found]
            if pool is not labels:
                for cid, clabel in labeled:
                    pool.setdefault(cid, clabel)
            if len(labeled) > self.config.recall.threshold:
                kept = top_k(run.question.text, labeled,
                             self.config.recall.k, self.scorer)
                run.record("selection", {
                    "stage": "recall", "entity": tail,
                    "relation": relation, "direction": direction.value,
                    "before": len(labeled), "after": len(kept),
                })
                labeled = [(c.entity, c.label) for c in kept]
            if labeled:
                offers.setdefault(tail, []).append((hop, labeled))
        if failed is not None:
            raise failed
        if not offers:
            run.tail_entities = []
            run.record("selection", {"stage": "entities", "selected": []})
            return
        parts: list[str] = []
        known: set[str] = set()
        for tail, tail_offers in offers.items():
            tail_label = labels[tail]
            for (_, relation, direction), labeled in tail_offers:
                names = ", ".join(clabel for _, clabel in labeled)
                if direction is Direction.OUTGOING:
                    parts.append(f"({tail_label}, {relation}, [{names}])")
                else:
                    parts.append(f"([{names}], {relation}, {tail_label})")
                for cid, clabel in labeled:
                    known.add(cid)
                    known.add(clabel)
        raw, warning = self._ask(run, ("entity_selection", {
            "question": run.question.text,
            "triplets": "; ".join(parts),
        }), "entity_selection", parse_list)
        selected = list(dict.fromkeys(
            name for item in raw or () if (name := item.strip())))
        breadth = self.config.ablations.fixed_breadth
        valid = [name for name in selected if name in known][:breadth]
        dropped = [name for name in selected if name not in known]
        chosen = set(valid)
        ending_at: dict[str, list[ReasoningPath]] = {}
        for path in run.memory.paths:
            ending_at.setdefault(path.tail_entity(), []).append(path)
        grown: list[ReasoningPath] = []
        # the identities of the paths extended
        extended: set[int] = set()
        # id -> label of each new tail, in first-reached order
        new_tails: dict[str, str] = {}
        cycles: set[str] = set()
        for tail, tail_offers in offers.items():
            # reached by backtracking with no live path ending here
            for path in ending_at.get(tail) or [ReasoningPath(origin=tail)]:
                on_path = path.entities()
                for (_, relation, direction), labeled in tail_offers:
                    for cid, clabel in labeled:
                        if clabel not in chosen and cid not in chosen:
                            continue
                        if cid in on_path:
                            cycles.add(clabel)
                            continue
                        # the step keeps the edge's KG orientation
                        step = (PathStep(tail, relation, cid, direction)
                                if direction is Direction.OUTGOING
                                else PathStep(cid, relation, tail, direction))
                        grown.append(path.extended(step))
                        extended.add(id(path))
                        new_tails.setdefault(cid, clabel)
        if grown:
            run.memory.paths = [path for path in run.memory.paths
                                if id(path) not in extended] + grown
            run.paths_text = self._render_paths(run)
        run.tail_entities = list(new_tails.items())
        run.record("selection", {
            "stage": "entities",
            "selected": valid,
            **_present(dropped=dropped, cycles=sorted(cycles),
                       warning=warning),
        })

    # -- stage: memory update -------------------------------------------

    def update_memory(self, run: _Run) -> None:
        memory, objectives = run.memory, run.objectives
        warning = None
        # With memory on, the pool is the topics plus every id a labels
        # event names. Without, it restarts each iteration and re-admits
        # ids no labels event names again, so the trace lists it whole.
        listed: dict[str, list[str]] = {}
        if self.config.ablations.no_memory:
            memory.status = ["unknown"] * len(objectives)
            listed = {"candidate_pool": sorted(run.candidate_pool)}
        else:
            data, warning = self._ask(run, ("memory_update", {
                "question": run.question.text,
                "sub_objectives": json.dumps(objectives, ensure_ascii=False),
                "memory": self._render_status(memory.status),
                "triplets": run.paths_text,
            }), "memory_update", extract_json_object)
            for key, value in (data or {}).items():
                match = _INDEX_RE.search(str(key))
                index = int(match.group(1)) if match else 0
                if 1 <= index <= len(objectives):
                    memory.status[index - 1] = _text(value)
        run.record("memory_update", {
            "status": list(memory.status),
            "paths": len(memory.paths),
            "tail_entities": [eid for eid, _ in run.tail_entities],
            **listed,
            **_present(warning=warning),
        })

    # -- stage: evaluation ----------------------------------------------

    def evaluate(self, run: _Run, forced: bool = False) -> Verdict:
        data, warning = self._ask(run, ("answer", {
            "question": run.question.text,
            "memory": self._render_status(run.memory.status),
            "triplets": run.paths_text,
        }), "forced_answer" if forced else "evaluate", _decode_answer)
        if data is None:
            verdict = Verdict(False, None, "evaluation response unparseable",
                              forced=forced)
        else:
            raw_answer = data["A"]
            if isinstance(raw_answer, (list, tuple)):
                raw_answer = raw_answer[0] if raw_answer else None
            primary = _text(raw_answer).strip()
            reason = _text(data.get("R")).strip()
            sufficient = primary.lower() not in INSUFFICIENT_ANSWERS
            # only a forced verdict may carry a hedged answer
            answer = (primary or None) if sufficient or forced else None
            verdict = Verdict(sufficient, answer, reason, forced=forced)
        run.record("verdict", {
            "sufficient": verdict.sufficient,
            "answer": verdict.answer,
            "reason": verdict.reason,
            "forced": forced,
            **_present(warning=warning),
        })
        return verdict

    # -- stage: reflection ----------------------------------------------

    def reflect(self, run: _Run) -> list[str]:
        """The ids of the entities to re-open; empty to press on."""
        if self.config.ablations.no_reflection:
            run.record("reflection", {
                "add": False, "reason": "reflection disabled", "backtrack": [],
                "note": "reflection disabled",
            })
            return []
        data, warning = self._ask(run, ("reflection", {
            "question": run.question.text,
            "entities": json.dumps([label for _, label in run.tail_entities],
                                   ensure_ascii=False),
            "memory": self._render_status(run.memory.status),
            "triplets": run.paths_text,
        }), "reflection", _decode_reflection)
        if data is None:
            add, reason = False, "reflection response unparseable"
        else:
            add = normalize_bool(data["Add"])
            reason = _text(data.get("Reason")).strip()
            if add is None:
                warning = _join_warnings(
                    warning, f"unrecognized Add value {data['Add']!r}")
        if not add:
            run.record("reflection", {
                "add": False, "reason": reason, "backtrack": [],
                **_present(warning=warning),
            })
            return []
        pool = run.candidate_pool
        names, warning2 = self._ask(run, ("backtrack_selection", {
            "question": run.question.text,
            "reason": reason,
            "candidates": json.dumps(sorted(set(pool.values())),
                                     ensure_ascii=False),
            "memory": self._render_status(run.memory.status),
        }), "backtrack_selection", parse_list)
        warning = _join_warnings(warning, warning2)
        current = {eid for eid, _ in run.tail_entities}
        label_to_ids: dict[str, list[str]] = {}
        for eid, clabel in pool.items():
            label_to_ids.setdefault(clabel, []).append(eid)
        chosen: list[str] = []
        dropped: list[str] = []
        for raw_name in names or ():
            name = raw_name.strip()
            if name in pool:
                ids = [name]
            elif name in label_to_ids:
                ids = sorted(label_to_ids[name])
            else:
                lowered = name.lower()
                ids = sorted({
                    eid for clabel, eids in label_to_ids.items()
                    if clabel.lower() == lowered for eid in eids
                })
            if not ids:
                dropped.append(name)
                continue
            for eid in ids:
                if eid in current or eid in chosen:
                    dropped.append(name)
                else:
                    chosen.append(eid)
        if not chosen:
            warning = _join_warnings(
                warning, "no valid backtrack entity; add withdrawn")
        run.record("reflection", {
            "add": bool(chosen),
            "reason": reason,
            "backtrack": chosen,
            **_present(dropped=dropped, warning=warning),
        })
        return chosen

    # -- helpers ---------------------------------------------------------

    def _ask(self, run: _Run, call: Call, stage: str,
             decode: Callable[[str], Any]) -> tuple[Any, str | None]:
        """`_gather_ask`, with its calls recorded even when one fails."""
        completions: list[Reply] = []
        try:
            return self._gather_ask(call, stage, decode, completions)
        finally:
            self._record_calls(run, call, completions)

    def _gather_ask(self, call: Call, stage: str,
                    decode: Callable[[str], Any],
                    completions: list[Reply]
                    ) -> tuple[Any, str | None]:
        """Render the prompt and decode the model's reply, asking once
        more if it fails.

        Returns the decoded value, or None when both replies fail, and a
        warning whenever the first reply was unusable. Each completion
        is appended to `completions` with its stage as it arrives, and
        nothing is recorded, so it may run on any thread.
        """
        template, slots = call
        prompt = self.prompts.render(template, **slots)
        completion = self.llm.complete(prompt, self.config.generation)
        completions.append((stage, completion))
        try:
            return decode(completion.text), None
        except ParseError as first:
            completion = self.llm.complete(prompt, self.config.generation)
            completions.append((stage + "_retry", completion))
            try:
                return (decode(completion.text),
                        f"first response unparseable ({first})")
            except ParseError as second:
                return None, f"unparseable after retry ({second})"

    def _record_calls(self, run: _Run, call: Call,
                      completions: list[Reply]) -> None:
        """One event per completion: the call's template, its slots and
        the digest of the template text that rendered it, from which
        `PromptLibrary.prompt_of` rebuilds the prompt."""
        template, slots = call
        digest = getattr(self.prompts, "digest", PromptLibrary.digest)
        for stage, completion in completions:
            run.record("llm_call", {
                "stage": stage, "template": template, "slots": slots,
                "template_digest": digest(template),
                "response": completion.text,
            }, usage=completion.usage)

    def _record_labels(self, run: _Run, entities: list[str],
                       resolved: list[EntityLabel]) -> None:
        """Label the entities, none of them seen yet, with their labels in
        `resolved` and trace them as one event: `labels` maps each named
        one to its name, and `fallback` lists the unnamed ones, whose
        label is their id."""
        if not entities:
            return
        labels = run.labels
        named: dict[str, str] = {}
        fallback: list[str] = []
        for entity, (_, name, is_fallback) in zip(entities, resolved):
            labels[entity] = name
            if is_fallback:
                fallback.append(entity)
            else:
                named[entity] = name
        run.record("kg_query", {"op": "labels", "labels": named,
                                **_present(fallback=fallback)})

    def _render_status(self, status: list[str]) -> str:
        return json.dumps(
            {f"#{i}": entry
             for i, entry in enumerate(status, start=1)},
            ensure_ascii=False,
        )

    def _render_paths(self, run: _Run) -> str:
        # every path entity is a topic or was labelled when first found
        labels = run.labels
        lines: list[str] = []
        seen: set[str] = set()
        for path in run.memory.paths:
            for step in path.steps:
                line = (f"{labels[step.subject]}, {step.relation}, "
                        f"{labels[step.object]}")
                if line not in seen:
                    seen.add(line)
                    lines.append(line)
        return "\n".join(lines)
