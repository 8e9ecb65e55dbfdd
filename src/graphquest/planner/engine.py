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
from typing import Any, Callable

from ..kg.types import Direction, KGBackend, Triplet
from ..llm.parsing import (
    ParseError,
    extract_json_object,
    normalize_bool,
    parse_json_object,
    parse_list,
)
from ..llm.types import CompletionBackend, Usage
from ..prompts import PromptLibrary
from ..recall import Scorer, TrigramScorer, top_k
from ..trace import RunTrace
from .state import (
    Frontier,
    Memory,
    PathStep,
    PlannerConfig,
    Question,
    ReasoningPath,
    ReflectionDecision,
    SubObjectiveStatus,
    SubObjectives,
    Subgraph,
    Verdict,
)

logger = logging.getLogger(__name__)

# Answer strings that mean "not answered yet" (compared case-insensitively).
INSUFFICIENT_ANSWERS = frozenset({"", "unknown", "insufficient"})

_INDEX_RE = re.compile(r"(\d+)")

_decode_answer = partial(parse_json_object, required_keys={"A", "R"})
_decode_reflection = partial(parse_json_object,
                             required_keys={"Add", "Reason"})


class PlannerRunError(Exception):
    """A backend failure aborted the run; carries the partial trace."""

    def __init__(self, message: str, trace: RunTrace):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class PendingExpansion:
    """A path waiting to be extended over one (relation, direction)."""

    path: ReasoningPath
    relation: str
    direction: Direction


@dataclass
class Backends:
    kg: KGBackend
    llm: CompletionBackend
    scorer: Scorer | None = None


@dataclass
class _Run:
    """The working state of one question, created afresh by `Planner.run`.

    Every stage records its trace events at the frontier's current
    iteration, which is 0 while the question is being decomposed.
    """

    question: Question
    trace: RunTrace = field(default_factory=RunTrace)
    # id -> label of every entity seen so far, topic entities included
    labels: dict[str, str] = field(init=False)
    frontier: Frontier = field(init=False)
    objectives: SubObjectives = field(init=False)
    memory: Memory = field(init=False)

    def __post_init__(self) -> None:
        topics = self.question.topic_entities
        self.labels = dict(topics)
        self.frontier = Frontier(iteration=0, tail_entities=list(topics),
                                 candidate_pool=dict(topics))

    def record(self, kind: str, payload: dict,
               usage: Usage | None = None) -> None:
        self.trace.record(kind, self.frontier.iteration, payload, usage)


@dataclass
class RunResult:
    verdict: Verdict
    trace: RunTrace
    memory: Memory
    frontier: Frontier
    sub_objectives: SubObjectives
    iterations: int
    elapsed_seconds: float


class Planner:
    """Answers questions over one knowledge graph with one model.

    Stateless: each `run` keeps its working state in a fresh per-run
    object, so one planner may serve many runs, one after another,
    nested, or on several threads (as far as its backends allow).
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
            run.trace.record("final", 0, {
                "error": str(exc),
                "elapsed_seconds": round(elapsed, 6),
            })
            raise PlannerRunError(f"run aborted: {exc}", run.trace) from exc

    def _run(self, run: _Run, started: float) -> RunResult:
        frontier = run.frontier
        run.objectives = self.decompose(run)
        run.memory = Memory(
            subgraph=Subgraph(),
            paths=[ReasoningPath(origin=eid)
                   for eid, _ in run.question.topic_entities],
            status=SubObjectiveStatus.initial(len(run.objectives.items)),
        )
        for depth in range(1, self.config.max_depth + 1):
            frontier.iteration = depth
            if self.config.ablations.no_memory:
                # keep only what the current iteration discovers
                run.memory.subgraph = Subgraph()
                frontier.candidate_pool = dict(frontier.tail_entities)
            pending = self.explore_relations(run)
            self.update_memory(run, self.explore_entities(run, pending))
            verdict = self.evaluate(run)
            if verdict.sufficient:
                break
            decision = self.reflect(run)
            # reflection only re-opens entities not already on the frontier
            frontier.tail_entities.extend(
                (eid, self._label(run, eid))
                for eid in decision.backtrack_entities)
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
            "iterations": frontier.iteration,
            "elapsed_seconds": round(elapsed, 6),
        })
        return RunResult(verdict, run.trace, run.memory, frontier,
                         run.objectives, frontier.iteration, elapsed)

    # -- stage: task decomposition --------------------------------------

    def decompose(self, run: _Run) -> SubObjectives:
        text = run.question.text
        if self.config.ablations.no_guidance:
            run.record("selection", {
                "stage": "decompose",
                "selected": [text],
                "note": "guidance disabled",
            })
            return SubObjectives((text,))
        prompt = self.prompts.render("decompose", question=text)
        items, warning = self._ask(run, prompt, "decompose", parse_list)
        if not items:
            items = [text]
            warning = warning or "empty sub-objective list"
        payload: dict = {"stage": "decompose", "selected": list(items)}
        if warning:
            payload["warning"] = warning
        run.record("selection", payload)
        return SubObjectives(tuple(items))

    # -- stage: relation exploration ------------------------------------

    def explore_relations(self, run: _Run) -> list[PendingExpansion]:
        subgraph = run.memory.subgraph
        pending: list[PendingExpansion] = []
        breadth = self.config.ablations.fixed_breadth
        ending_at: dict[str, list[ReasoningPath]] = {}
        for path in run.memory.paths:
            ending_at.setdefault(path.tail_entity(), []).append(path)
        for eid, label in run.frontier.tail_entities:
            tagged: list[tuple[str, Direction]] = []
            for direction in (Direction.OUTGOING, Direction.INCOMING):
                relations = self.kg.search_relations(eid, direction)
                run.record("kg_query", {
                    "op": "relations",
                    "entity": eid,
                    "direction": direction.value,
                    "count": len(relations),
                })
                for relation in relations:
                    subgraph.relation_edges.add((eid, relation, direction))
                    # pairs expanded in an earlier iteration are spent;
                    # re-offering them would just repeat the same hop
                    if (eid, relation, direction) not in subgraph.expanded:
                        tagged.append((relation, direction))
            names = sorted({relation for relation, _ in tagged})
            if not names:
                run.record("selection", {
                    "stage": "relations", "entity": eid,
                    "candidates": [], "selected": [],
                })
                continue
            prompt = self.prompts.render(
                "relation_selection",
                question=run.question.text,
                sub_objectives=json.dumps(list(run.objectives.items),
                                          ensure_ascii=False),
                topic_entity=label,
                relations="; ".join(names),
            )
            raw, warning = self._ask(run, prompt, "relation_selection",
                                     parse_list)
            chosen: list[str] = []
            dropped: list[str] = []
            for item in raw or ():
                name = item.strip()
                if name in names:
                    if name not in chosen:
                        chosen.append(name)
                else:
                    dropped.append(item)
            if breadth is not None:
                chosen = chosen[:breadth]
            payload: dict = {
                "stage": "relations",
                "entity": eid,
                "candidates": names,
                "selected": list(chosen),
            }
            if dropped:
                payload["dropped"] = dropped
            if warning:
                payload["warning"] = warning
            run.record("selection", payload)
            if not chosen:
                continue
            # reached by backtracking with no live path ending here
            extendable = ending_at.get(eid) or [ReasoningPath(origin=eid)]
            for path in extendable:
                if len(path.steps) >= self.config.max_depth:
                    continue
                for relation, direction in tagged:
                    if relation in chosen:
                        pending.append(
                            PendingExpansion(path, relation, direction))
        return pending

    # -- stage: entity exploration --------------------------------------

    def explore_entities(self, run: _Run, pending: list[PendingExpansion]
                         ) -> list[ReasoningPath]:
        frontier = run.frontier
        if not pending:
            frontier.tail_entities = []
            return []
        subgraph = run.memory.subgraph
        results: dict[tuple, list[tuple[str, str]]] = {}
        groups: list[tuple[PendingExpansion, list[tuple[str, str]]]] = []
        for expansion in pending:
            tail = expansion.path.tail_entity()
            pair = (tail, expansion.relation, expansion.direction)
            if pair not in results:
                found = self.kg.search_entities(
                    tail, expansion.relation, expansion.direction)
                run.record("kg_query", {
                    "op": "entities",
                    "entity": tail,
                    "relation": expansion.relation,
                    "direction": expansion.direction.value,
                    "count": len(found),
                })
                subgraph.expanded.add(pair)
                labeled = [(cid, self._label(run, cid)) for cid in found]
                for cid, clabel in labeled:
                    if expansion.direction is Direction.OUTGOING:
                        triple = Triplet(tail, expansion.relation, cid)
                    else:
                        triple = Triplet(cid, expansion.relation, tail)
                    subgraph.triples.add(triple)
                    frontier.candidate_pool.setdefault(cid, clabel)
                if len(labeled) > self.config.recall.threshold:
                    kept = top_k(run.question.text, labeled,
                                 self.config.recall.k, self.scorer)
                    run.record("selection", {
                        "stage": "recall",
                        "entity": tail,
                        "relation": expansion.relation,
                        "direction": expansion.direction.value,
                        "before": len(labeled),
                        "after": len(kept),
                    })
                    labeled = [(c.entity, c.label) for c in kept]
                results[pair] = labeled
            groups.append((expansion, results[pair]))
        parts: list[str] = []
        rendered: list[tuple[PendingExpansion, list[tuple[str, str]]]] = []
        for expansion, labeled in groups:
            if not labeled:
                continue
            tail_label = self._label(run, expansion.path.tail_entity())
            names = ", ".join(clabel for _, clabel in labeled)
            if expansion.direction is Direction.OUTGOING:
                parts.append(f"({tail_label}, {expansion.relation}, [{names}])")
            else:
                parts.append(f"([{names}], {expansion.relation}, {tail_label})")
            rendered.append((expansion, labeled))
        if not parts:
            frontier.tail_entities = []
            run.record("selection", {
                "stage": "entities", "selected": [], "tails": [],
            })
            return []
        prompt = self.prompts.render(
            "entity_selection",
            question=run.question.text,
            triplets="; ".join(parts),
        )
        raw, warning = self._ask(run, prompt, "entity_selection", parse_list)
        selected: list[str] = []
        for item in raw or ():
            name = item.strip()
            if name and name not in selected:
                selected.append(name)
        known: set[str] = set()
        for _, labeled in rendered:
            for cid, clabel in labeled:
                known.add(cid)
                known.add(clabel)
        valid = [name for name in selected if name in known]
        dropped = [name for name in selected if name not in known]
        breadth = self.config.ablations.fixed_breadth
        if breadth is not None:
            valid = valid[:breadth]
        chosen = set(valid)
        new_paths: list[ReasoningPath] = []
        new_tails: list[tuple[str, str]] = []
        seen_tails: set[str] = set()
        cycles: list[str] = []
        for expansion, labeled in rendered:
            tail = expansion.path.tail_entity()
            for cid, clabel in labeled:
                if clabel not in chosen and cid not in chosen:
                    continue
                if cid in expansion.path.entities():
                    cycles.append(clabel)
                    continue
                if expansion.direction is Direction.OUTGOING:
                    step = PathStep(tail, expansion.relation, cid,
                                    expansion.direction)
                else:
                    step = PathStep(cid, expansion.relation, tail,
                                    expansion.direction)
                new_paths.append(expansion.path.extended(step))
                if cid not in seen_tails:
                    seen_tails.add(cid)
                    new_tails.append((cid, clabel))
        frontier.tail_entities = new_tails
        payload: dict = {
            "stage": "entities",
            "selected": valid,
            "tails": [cid for cid, _ in new_tails],
        }
        if dropped:
            payload["dropped"] = dropped
        if cycles:
            payload["cycles"] = sorted(set(cycles))
        if warning:
            payload["warning"] = warning
        run.record("selection", payload)
        return new_paths

    # -- stage: memory update -------------------------------------------

    def update_memory(self, run: _Run,
                      new_paths: list[ReasoningPath]) -> None:
        memory, objectives = run.memory, run.objectives
        if new_paths:
            prefixes = {(p.origin, p.steps[:-1]) for p in new_paths}
            memory.paths = [p for p in memory.paths
                            if (p.origin, p.steps) not in prefixes]
            memory.paths.extend(new_paths)
        warning = None
        if self.config.ablations.no_memory:
            memory.status = SubObjectiveStatus.initial(len(objectives.items))
        else:
            prompt = self.prompts.render(
                "memory_update",
                question=run.question.text,
                sub_objectives=json.dumps(list(objectives.items),
                                          ensure_ascii=False),
                memory=self._render_status(memory.status),
                triplets=self._render_paths(run),
            )
            data, warning = self._ask(run, prompt, "memory_update",
                                      extract_json_object)
            if data:
                for key, value in data.items():
                    index = self._status_index(key)
                    if index is not None and 1 <= index <= len(objectives.items):
                        memory.status.entries[index - 1] = str(value)
        payload: dict = {
            "status": list(memory.status.entries),
            "paths": len(memory.paths),
            "tail_entities": [eid for eid, _ in run.frontier.tail_entities],
            "candidate_pool": sorted(run.frontier.candidate_pool),
            "subgraph": memory.subgraph.size_summary(),
        }
        if warning:
            payload["warning"] = warning
        run.record("memory_update", payload)

    # -- stage: evaluation ----------------------------------------------

    def evaluate(self, run: _Run, forced: bool = False) -> Verdict:
        prompt = self.prompts.render(
            "answer",
            question=run.question.text,
            memory=self._render_status(run.memory.status),
            triplets=self._render_paths(run),
        )
        stage = "forced_answer" if forced else "evaluate"
        data, warning = self._ask(run, prompt, stage, _decode_answer)
        if data is None:
            verdict = Verdict(False, None, "evaluation response unparseable",
                              forced=forced)
        else:
            raw_answer = data["A"]
            if isinstance(raw_answer, (list, tuple)):
                primary = str(raw_answer[0]).strip() if raw_answer else ""
            else:
                primary = str(raw_answer).strip()
            reason = str(data.get("R", "")).strip()
            sufficient = primary.lower() not in INSUFFICIENT_ANSWERS
            if forced:
                verdict = Verdict(sufficient, primary or None, reason,
                                  forced=True)
            elif sufficient:
                verdict = Verdict(True, primary, reason)
            else:
                verdict = Verdict(False, None, reason)
        payload: dict = {
            "sufficient": verdict.sufficient,
            "answer": verdict.answer,
            "reason": verdict.reason,
            "forced": forced,
        }
        if warning:
            payload["warning"] = warning
        run.record("verdict", payload)
        return verdict

    # -- stage: reflection ----------------------------------------------

    def reflect(self, run: _Run) -> ReflectionDecision:
        frontier, memory = run.frontier, run.memory
        if self.config.ablations.no_reflection:
            decision = ReflectionDecision(False, "reflection disabled")
            run.record("reflection", {
                "add": False, "reason": decision.reason, "backtrack": [],
                "note": "reflection disabled",
            })
            return decision
        prompt = self.prompts.render(
            "reflection",
            question=run.question.text,
            entities=json.dumps([label for _, label in frontier.tail_entities],
                                ensure_ascii=False),
            memory=self._render_status(memory.status),
            triplets=self._render_paths(run),
        )
        data, warning = self._ask(run, prompt, "reflection",
                                  _decode_reflection)
        if data is None:
            decision = ReflectionDecision(False,
                                          "reflection response unparseable")
            run.record("reflection", {
                "add": False, "reason": decision.reason, "backtrack": [],
                "warning": warning,
            })
            return decision
        flag = normalize_bool(data["Add"])
        reason = str(data.get("Reason", "")).strip()
        if flag is None:
            warning = self._join_warnings(
                warning, f"unrecognized Add value {data['Add']!r}")
            flag = False
        if not flag:
            decision = ReflectionDecision(False, reason)
            payload = {"add": False, "reason": reason, "backtrack": []}
            if warning:
                payload["warning"] = warning
            run.record("reflection", payload)
            return decision
        pool = frontier.candidate_pool
        prompt2 = self.prompts.render(
            "backtrack_selection",
            question=run.question.text,
            reason=reason,
            candidates=json.dumps(sorted(set(pool.values())),
                                  ensure_ascii=False),
            memory=self._render_status(memory.status),
        )
        names, warning2 = self._ask(run, prompt2, "backtrack_selection",
                                    parse_list)
        warning = self._join_warnings(warning, warning2)
        current = {eid for eid, _ in frontier.tail_entities}
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
        if chosen:
            decision = ReflectionDecision(True, reason, tuple(chosen))
        else:
            decision = ReflectionDecision(False, reason)
            warning = self._join_warnings(
                warning, "no valid backtrack entity; add withdrawn")
        payload = {
            "add": decision.add,
            "reason": reason,
            "backtrack": list(decision.backtrack_entities),
            "candidate_pool": sorted(pool),
            "tails": sorted(current),
        }
        if dropped:
            payload["dropped"] = dropped
        if warning:
            payload["warning"] = warning
        run.record("reflection", payload)
        return decision

    # -- helpers ---------------------------------------------------------

    def _complete(self, run: _Run, prompt: str, stage: str) -> str:
        completion = self.llm.complete(prompt, self.config.generation)
        run.record("llm_call", {
            "stage": stage,
            "prompt": prompt,
            "response": completion.text,
        }, usage=completion.usage)
        return completion.text

    def _ask(self, run: _Run, prompt: str, stage: str,
             decode: Callable[[str], Any]) -> tuple[Any, str | None]:
        """Decode the model's reply, asking once more if it fails.

        Returns the decoded value, or None when both replies fail, and a
        warning whenever the first reply was unusable.
        """
        text = self._complete(run, prompt, stage)
        try:
            return decode(text), None
        except ParseError as first:
            text = self._complete(run, prompt, stage + "_retry")
            try:
                return decode(text), f"first response unparseable ({first})"
            except ParseError as second:
                return None, f"unparseable after retry ({second})"

    def _label(self, run: _Run, entity: str) -> str:
        """The entity's label; a first sight is resolved and traced."""
        label = run.labels.get(entity)
        if label is None:
            resolved = self.kg.resolve_label(entity)
            run.record("kg_query", {
                "op": "label",
                "entity": entity,
                "label": resolved.label,
                "fallback": resolved.is_fallback,
            })
            label = run.labels[entity] = resolved.label
        return label

    def _render_status(self, status: SubObjectiveStatus) -> str:
        return json.dumps(
            {f"#{i}": entry
             for i, entry in enumerate(status.entries, start=1)},
            ensure_ascii=False,
        )

    def _render_paths(self, run: _Run) -> str:
        lines: list[str] = []
        seen: set[str] = set()
        for path in run.memory.paths:
            for step in path.steps:
                line = (f"{self._label(run, step.subject)}, "
                        f"{step.relation}, "
                        f"{self._label(run, step.object)}")
                if line not in seen:
                    seen.add(line)
                    lines.append(line)
        return "\n".join(lines)

    @staticmethod
    def _status_index(key: str) -> int | None:
        match = _INDEX_RE.search(str(key))
        return int(match.group(1)) if match else None

    @staticmethod
    def _join_warnings(*parts: str | None) -> str | None:
        present = [p for p in parts if p]
        return "; ".join(present) if present else None
