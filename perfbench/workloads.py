"""Seeded inputs for the benchmark: graphs, questions, a responder, and
the fake HTTP services that remote-latency talks to.

Nothing here imports the repository's tests, so editing a test cannot
change a workload. Every graph, question and model response is a pure
function of the workload seed (and, for responses, of the prompt), so two
runs with one seed do identical work and concurrent or reordered calls
get the same answers.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import threading
import time
from dataclasses import dataclass

from graphquest.kg.types import Direction
from graphquest.llm.types import Completion, LLMError, Usage
from graphquest.planner.state import Question

ADJECTIVES = (
    "Amber", "Bright", "Cedar", "Silent", "Golden", "Hidden", "Iron",
    "Jade", "Lunar", "Misty", "Northern", "Old", "Quiet", "Red", "Stone",
    "Twin", "Upper", "Velvet", "Wild", "Young", "Crystal", "Distant",
    "Eastern", "Frozen", "Granite", "Hollow", "Ivory", "Lower", "Marble",
    "Noble", "Pale", "Royal",
)
NOUNS = (
    "Harbor", "Valley", "Ridge", "Forest", "Bridge", "Castle", "Meadow",
    "River", "Summit", "Tower", "Garden", "Island", "Canyon", "Lagoon",
    "Market", "Chapel", "Orchard", "Quarry", "Station", "Theater",
    "Academy", "Library", "Gallery", "Stadium", "Harvest", "Lantern",
    "Mill", "Port", "Spring", "Wharf", "Abbey", "Court",
)
RELATIONS = tuple(
    f"{domain}.{kind}.{prop}"
    for domain, kind, props in (
        ("film", "film", ("directed_by", "featured_location", "sequel")),
        ("people", "person", ("place_of_birth", "spouse", "employer")),
        ("music", "artist", ("label", "genre", "collaborator")),
        ("sports", "team", ("home_venue", "coach", "rival")),
        ("government", "office", ("holder", "jurisdiction", "appointer")),
        ("education", "school", ("founder", "campus", "alumnus")),
        ("business", "company", ("owner", "headquarters", "supplier")),
        ("book", "work", ("author", "publisher", "setting")),
        ("tv", "series", ("network", "creator", "filming_site")),
        ("religion", "order", ("patron", "seat", "successor")),
        ("travel", "route", ("start", "terminus", "operator")),
        ("science", "study", ("subject", "sponsor", "venue")),
        ("food", "dish", ("origin", "ingredient", "chef")),
    )
    for prop in props
)
HUB_RELATION = "location.location.containedby"

# Instruction phrases unique to each prompt template; the responder keys
# off these to tell which stage is asking.
DECOMPOSE_ANCHOR = "break down the process of answering"
RELATION_ANCHOR = "directly output relations highly related"
ENTITY_ANCHOR = "entities from [] in Triplets"
MEMORY_ANCHOR = "in JSON format without other information or notes."
ANSWER_ANCHOR = 'must include "A" and "R"'
REFLECTION_ANCHOR = 'must include "Add" and "Reason"'
BACKTRACK_ANCHOR = "fewest necessary entities"

GARBLE_RATE = 0.2
_HOPS = re.compile(r"lies (\d) steps from")
_MEMORY_HOP = re.compile(r"hop (\d+)")
_BRACKETED = re.compile(r"\[([^\][]*)\]")


def unit(seed: int, *parts: str) -> float:
    """A uniform value in [0, 1) fixed by the seed and the parts."""
    key = "\x1f".join((str(seed),) + parts).encode("utf-8")
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


def count_tokens(text: str) -> int:
    return math.ceil(len(text) / 4)


# -- graphs ----------------------------------------------------------------


@dataclass
class Graph:
    labels: dict[str, str]
    hubs: list[str]


def _label(index: int, seed: int) -> str:
    adjective = ADJECTIVES[int(unit(seed, "adj", str(index)) * len(ADJECTIVES))]
    noun = NOUNS[int(unit(seed, "noun", str(index)) * len(NOUNS))]
    return f"{adjective} {noun} {index}"


def make_graph(seed: int, entities: int, out_degree: int, hubs: int,
               path: str) -> Graph:
    """Writes a random labeled digraph with exact degrees as TSV.

    Edge k leaves entity i for a seeded permutation of the entities, so
    every entity has exactly `out_degree` out-edges and as many in-edges.
    With `hubs`, entity i also gets a HUB_RELATION edge to hub i % hubs,
    so each hub has entities / hubs in-edges on that one relation. Lines
    are written as they are made, so generating leaves little freed heap
    behind for the graph's loader to reuse.
    """
    ids = [f"m.e{i}" for i in range(entities)]
    labels = {eid: _label(i, seed) for i, eid in enumerate(ids)}
    hub_ids = [f"m.h{i}" for i in range(hubs)]
    for i, hid in enumerate(hub_ids):
        labels[hid] = f"{NOUNS[i % len(NOUNS)]} Province {i}"
    with open(path, "w", encoding="utf-8") as handle:
        for eid, label in labels.items():
            handle.write(f"{eid}\ttype.object.name\t{label}\n")
        for k in range(out_degree):
            targets = sorted(range(entities), key=lambda j: unit(
                seed, "perm", str(k), str(j)))
            for i, subject in enumerate(ids):
                target = targets[i] if targets[i] != i else targets[i - 1]
                relation = RELATIONS[
                    int(unit(seed, "rel", str(i), str(k)) * len(RELATIONS))]
                handle.write(f"{subject}\t{relation}\t{ids[target]}\n")
            del targets
        for i, subject in enumerate(ids[:entities if hubs else 0]):
            handle.write(f"{subject}\t{HUB_RELATION}\t{hub_ids[i % hubs]}\n")
    return Graph(labels, hub_ids)


def make_questions(seed: int, graph: Graph, count: int) -> list[Question]:
    """Questions stratified by index, so every seed has the same mix.

    Question i asks for an answer 2 + (i // 2) % 3 steps away. On a graph
    with hubs, question i is about hub i (in a seeded order of the hubs):
    even questions start at that hub and odd ones at one of its members,
    and all name the hub relation, so each reaches its hub in one step or
    none, and questions share a hub only once every hub is taken. The
    wording carries the depth and a relation hint that the responder
    reads back.
    """
    regular = [eid for eid in graph.labels if eid.startswith("m.e")]
    hubs = sorted(graph.hubs, key=lambda hub: unit(seed, "hub order", hub))
    questions = []
    for i in range(count):
        hops = 2 + (i // 2) % 3
        if hubs:
            hub = i % len(hubs)
            members = range(graph.hubs.index(hubs[hub]), len(regular),
                            len(hubs))
            member = members[int(unit(seed, "member", str(i))
                                 * len(members))]
            topic = hubs[hub] if i % 2 == 0 else regular[member]
            hint = HUB_RELATION
        else:
            topic = regular[int(unit(seed, "qtopic", str(i)) * len(regular))]
            hint = RELATIONS[int(unit(seed, "qhint", str(i))
                                 * len(RELATIONS))]
        noun = NOUNS[int(unit(seed, "qnoun", str(i)) * len(NOUNS))].lower()
        words = hint.rsplit(".", 1)[-1].replace("_", " ")
        text = (f"Which {noun} lies {hops} steps from {graph.labels[topic]} "
                f"by way of its {words}?")
        questions.append(Question(text, ((topic, graph.labels[topic]),)))
    return questions


# -- responder ---------------------------------------------------------------


def _garbles_safely(prompt: str, text: str) -> bool:
    """True for responses whose loss leaves the run on the same course: a
    decomposition (the planner falls back to the question itself) and a
    reflection that declines to back up. Garbling selections or verdicts
    would instead make a question's cost hinge on one coin flip."""
    return DECOMPOSE_ANCHOR in prompt or (
        REFLECTION_ANCHOR in prompt and '"Add": "No"' in text)


class UnmatchedPromptError(LLMError):
    """The responder was sent a prompt that no stage anchor matches."""


def _field(prompt: str, name: str) -> str:
    """The rest of the last line that starts with `name`."""
    index = prompt.rfind("\n" + name)
    if index < 0:
        return ""
    start = index + 1 + len(name)
    end = prompt.find("\n", start)
    return prompt[start:] if end < 0 else prompt[start:end]


def _tail(prompt: str, name: str) -> str:
    """Everything after the last line that starts with `name`."""
    index = prompt.rfind("\n" + name)
    return "" if index < 0 else prompt[index + 1 + len(name):]


def _memory_hop(prompt: str) -> int:
    match = _MEMORY_HOP.search(_field(prompt, "Memory: "))
    return int(match.group(1)) if match else 0


class Responder:
    """A stand-in model whose every answer is a pure function of
    (seed, prompt).

    `wide` keeps 70% of what each selection prompt offers; narrow keeps
    two items, preferring relations the question names. Reflection asks
    to back up once, after the first hop. GARBLE_RATE of the responses
    that can be lost safely drop their closing bracket, which the planner
    cannot parse, so its retry path runs; that is about 2% of all
    responses on the narrow workloads. The counters (calls, tokens,
    rounds, the last answer) are bookkeeping for the benchmark's checks
    and never feed back into a response.
    """

    KEEP = 0.7
    NARROW = 2

    def __init__(self, seed: int, *, wide: bool):
        self.seed = seed
        self.wide = wide
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.calls = 0
        self.input_tokens = 0
        self.output_tokens = 0
        self.rounds = 0
        self.in_flight = 0
        self.last_answer: str | None = None

    # CompletionBackend interface, for in-process workloads
    def complete(self, prompt: str, config) -> Completion:
        text, used_in, used_out = self.serve(prompt)
        return Completion(text=text, usage=Usage(used_in, used_out))

    def serve(self, prompt: str) -> tuple[str, int, int]:
        """Answer one call and count it; returns (text, in, out tokens)."""
        with self._lock:
            if self.in_flight == 0:
                self.rounds += 1
            self.in_flight += 1
        try:
            text = self.respond(prompt)
        finally:
            with self._lock:
                self.in_flight -= 1
        used_in, used_out = count_tokens(prompt), count_tokens(text)
        with self._lock:
            self.calls += 1
            self.input_tokens += used_in
            self.output_tokens += used_out
            if ANSWER_ANCHOR in prompt:
                self.last_answer = text
        return text, used_in, used_out

    def respond(self, prompt: str) -> str:
        text = self._answer(prompt)
        if _garbles_safely(prompt, text) and \
                unit(self.seed, "garble", prompt) < GARBLE_RATE:
            return "Sure, here it is: " + text[:-1]
        return text

    def _answer(self, prompt: str) -> str:
        question = _field(prompt, "Q: ")
        if DECOMPOSE_ANCHOR in prompt:
            steps = 1 + int(unit(self.seed, "steps", question) * 3)
            return json.dumps([f"#{i + 1} step {i + 1} of {question}"
                               for i in range(steps)])
        if RELATION_ANCHOR in prompt:
            offered = [r for r in _field(prompt, "Relations: ").split("; ")
                       if r]
            topic = _field(prompt, "Topic Entity: ")
            return json.dumps(self._relations(question, topic, offered))
        if ENTITY_ANCHOR in prompt:
            offered: list[str] = []
            for group in _BRACKETED.findall(_tail(prompt, "Triplets: ")):
                offered.extend(part for part in group.split(", ") if part)
            return json.dumps(self._pick(question, "entity",
                                         sorted(set(offered))))
        if MEMORY_ANCHOR in prompt:
            hop = _memory_hop(prompt) + 1
            return json.dumps({"#1": f"hop {hop} explored"})
        if ANSWER_ANCHOR in prompt:
            return json.dumps(self._verdict(prompt, question))
        if REFLECTION_ANCHOR in prompt:
            if _memory_hop(prompt) == 1:
                return json.dumps({"Add": "Yes", "Reason": "revisit"})
            return json.dumps({"Add": "No", "Reason": "press on"})
        if BACKTRACK_ANCHOR in prompt:
            offered = json.loads(_field(prompt, "Candidate Entities: ")
                                 or "[]")
            ranked = sorted(offered, key=lambda label: unit(
                self.seed, "back", question, label))
            return json.dumps(ranked[:1])
        head = prompt.strip().splitlines()[0][:80] if prompt.strip() else ""
        raise UnmatchedPromptError(f"no stage anchor in prompt {head!r}")

    def _relations(self, question: str, topic: str,
                   offered: list[str]) -> list[str]:
        if self.wide:
            return self._pick(question, "relation " + topic, offered)
        hinted = [r for r in offered
                  if r.rsplit(".", 1)[-1].replace("_", " ") in question]
        others = sorted((r for r in offered if r not in hinted),
                        key=lambda r: unit(self.seed, "rel", question,
                                           topic, r))
        return (hinted + others)[:self.NARROW]

    def _pick(self, question: str, salt: str, offered: list[str]) -> list[str]:
        ranked = sorted(offered, key=lambda item: unit(
            self.seed, salt, question, item))
        if self.wide:
            return ranked[:max(1, round(self.KEEP * len(offered)))]
        return ranked[:self.NARROW]

    def _verdict(self, prompt: str, question: str) -> dict:
        match = _HOPS.search(question)
        wanted = int(match.group(1)) if match else 1
        if _memory_hop(prompt) < wanted:
            return {"A": "insufficient", "R": "keep looking"}
        labels = set()
        for line in _tail(prompt, "Knowledge Triplets: ").splitlines():
            parts = line.split(", ")
            if len(parts) == 3:
                labels.update((parts[0], parts[2]))
        if not labels:
            return {"A": "insufficient", "R": "nothing retrieved"}
        answer = min(sorted(labels), key=lambda label: unit(
            self.seed, "answer", question, label))
        return {"A": answer, "R": f"found after {wanted} steps"}


# -- fake HTTP services ------------------------------------------------------


class FakeResponse:
    def __init__(self, payload: dict, status_code: int = 200):
        self._payload = payload
        self.status_code = status_code

    def json(self) -> dict:
        return self._payload


class _Service:
    """A requests-like session that answers in process after a delay.

    A sleep overshoots by tens of microseconds, now and then by a
    millisecond, and by how much drifts with the machine's load. Each
    thread therefore carries the overshoot forward and shortens its next
    sleeps by it, so requests average exactly `delay_s` of waiting.
    `span` is the tracer name recorded around each request when a tracer
    is attached.
    """

    span = "http"

    def __init__(self, delay_s: float, tracer=None):
        self.delay_s = delay_s
        self.tracer = tracer
        self._overshoot = threading.local()

    def post(self, url: str, **kwargs) -> FakeResponse:
        if self.tracer is None:
            return self._serve(kwargs)
        span = self.tracer.begin(self.span)
        try:
            return self._serve(kwargs)
        finally:
            self.tracer.end(span)

    def _serve(self, kwargs: dict) -> FakeResponse:
        owed = getattr(self._overshoot, "seconds", 0.0)
        started = time.perf_counter()
        if self.delay_s > owed:
            time.sleep(self.delay_s - owed)
        self._overshoot.seconds = (owed + time.perf_counter() - started
                                   - self.delay_s)
        return self.handle(kwargs)

    def handle(self, kwargs: dict) -> FakeResponse:
        raise NotImplementedError


NS = "http://rdf.freebase.com/ns/"
_SPARQL_SHAPES = (
    (re.compile(r"FILTER\(\?entity = ns:(\S+)\)"), "name"),
    (re.compile(r"^\s*ns:(\S+) \?relation \?x \.$", re.M), "relation-out"),
    (re.compile(r"^\s*\?x \?relation ns:(\S+) \.$", re.M), "relation-in"),
    (re.compile(r"^\s*ns:(\S+) ns:(\S+) \?tailEntity \.$", re.M),
     "entity-out"),
    (re.compile(r"^\s*\?tailEntity ns:(\S+) ns:(\S+) \.$", re.M),
     "entity-in"),
)


class SparqlService(_Service):
    """Answers the planner's five SPARQL shapes from an in-memory graph."""

    span = "kg.http"

    def __init__(self, kg, delay_s: float, **kwargs):
        super().__init__(delay_s, **kwargs)
        self.kg = kg

    def handle(self, kwargs: dict) -> FakeResponse:
        query = kwargs["data"].decode("utf-8")
        for pattern, shape in _SPARQL_SHAPES:
            match = pattern.search(query)
            if match is None:
                continue
            if shape == "name":
                label = self.kg.resolve_label(match.group(1))
                values = [] if label.is_fallback else [label.label]
                return self._bindings("tailEntity", values, prefix="")
            if shape.startswith("relation"):
                direction = (Direction.OUTGOING if shape == "relation-out"
                             else Direction.INCOMING)
                values = self.kg.search_relations(match.group(1), direction)
                return self._bindings("relation", values)
            if shape == "entity-out":
                mid, relation = match.groups()
                direction = Direction.OUTGOING
            else:
                relation, mid = match.groups()
                direction = Direction.INCOMING
            values = self.kg.search_entities(mid, relation, direction)
            return self._bindings("tailEntity", values)
        return FakeResponse({}, status_code=400)

    @staticmethod
    def _bindings(variable: str, values: list[str],
                  prefix: str = NS) -> FakeResponse:
        rows = [{variable: {"value": prefix + value}} for value in values]
        return FakeResponse({"head": {"vars": [variable]},
                             "results": {"bindings": rows}})


class ChatService(_Service):
    """An OpenAI-style chat endpoint backed by the responder."""

    span = "llm.http"

    def __init__(self, responder: Responder, delay_s: float, **kwargs):
        super().__init__(delay_s, **kwargs)
        self.responder = responder

    def handle(self, kwargs: dict) -> FakeResponse:
        prompt = kwargs["json"]["messages"][0]["content"]
        text, used_in, used_out = self.responder.serve(prompt)
        return FakeResponse({
            "choices": [{"message": {"role": "assistant", "content": text}}],
            "usage": {"prompt_tokens": used_in, "completion_tokens": used_out},
        })


class EmbeddingService(_Service):
    """Embeds text as a 32-bucket hashed character-trigram histogram."""

    span = "recall.embed"
    DIMENSIONS = 32

    def handle(self, kwargs: dict) -> FakeResponse:
        text = kwargs["json"]["input"][0].lower()
        vector = [0.0] * self.DIMENSIONS
        for i in range(len(text) - 2):
            gram = text[i:i + 3].encode("utf-8")
            bucket = hashlib.blake2b(gram, digest_size=2).digest()[0]
            vector[bucket % self.DIMENSIONS] += 1.0
        return FakeResponse({"data": [{"embedding": vector}]})
