"""Overlapped backend calls: the network clients' batches run on the
`fanout` pool, and a run's trace is the same as an inline run's."""

from __future__ import annotations

import itertools
import random
import re
import threading
import time
import zlib

import pytest
import requests

from graphquest import fanout
from graphquest.kg.memory_store import InMemoryKG
from graphquest.kg.sparql_client import SparqlKG
from graphquest.kg.types import Direction, KGError
from graphquest.llm.http_client import ChatCompletionsBackend
from graphquest.llm.types import LLMError
from graphquest.planner.engine import Planner, PlannerRunError
from graphquest.planner.state import PlannerConfig, Question
from graphquest.prompts import PromptLibrary
from graphquest.recall import (
    RecallConfig,
    RecallError,
    RemoteEmbeddingScorer,
    TrigramScorer,
    top_k,
)

from adversaries import PromptAwareResponder
from cases import make_kg
from http_fakes import Reply, not_json
from oracles import random_case
from trace_checks import stable_lines

URL = "http://service.invalid/endpoint"
NS = "http://rdf.freebase.com/ns/"
# each fake request sleeps up to this long, so pooled ones finish out of
# order
MAX_DELAY_S = 0.001
SWEEP_SEEDS = range(80_000, 80_010)
SWEEP_CONFIG = PlannerConfig(max_depth=3,
                             recall=RecallConfig(threshold=3, k=2))

PROMPTS = PromptLibrary()

_LABEL = re.compile(r"FILTER\(\?entity = ns:(\S+)\)")
_EDGE = re.compile(r"^  (\S+) (\S+) (\S+) \.$", re.M)


def bindings(variable, values):
    return Reply(200, {"results": {"bindings": [
        {variable: {"value": value}} for value in values]}})


def _refuse_connection():
    raise requests.ConnectionError("connection refused")


# chat fault kind -> a request's outcome; all but "429" fail every attempt
CHAT_FAULTS = {
    "400": lambda: Reply(400),
    "500": lambda: Reply(500),
    "not-json": not_json,
    "shape": lambda: Reply(200, {"choices": []}),
    "connection": _refuse_connection,
    "429": lambda: Reply(429),
}
# the same faults of an embedding request; its wrong shape is a string
# where the list of numbers belongs
EMBEDDING_FAULTS = {
    **CHAT_FAULTS,
    "shape": lambda: Reply(200, {"data": [{"embedding": "1"}]}),
}
# the same faults of a SPARQL request, and a binding whose value is a
# number, not a string, under the variable of every query
SPARQL_FAULTS = {
    **CHAT_FAULTS,
    "shape": lambda: Reply(200, {"results": {"bindings": 5}}),
    "binding": lambda: Reply(200, {"results": {"bindings": [
        {"tailEntity": {"value": 5}, "relation": {"value": 5}}]}}),
}


class _Endpoint:
    """A session answering in process after a random sleep; it records
    the threads it was called from.

    `fail=(*key, kind)` answers every request that `key` names with the
    fault `kind` from the class's FAULTS, except that a "429" fails one
    attempt only.
    """

    FAULTS: dict

    def __init__(self, seed, fail=None):
        self.rng = random.Random(seed)
        self.lock = threading.Lock()
        self.threads: set[int] = set()
        self.requests = 0
        self.fail = fail
        self.fired = False

    def post(self, url, **kwargs):
        with self.lock:
            self.threads.add(threading.get_ident())
            self.requests += 1
            delay = self.rng.uniform(0, MAX_DELAY_S)
        time.sleep(delay)
        return self.answer(kwargs)

    def fault(self, *key):
        """What makes the fault reply to the request `key` names, or None
        for a true reply; called with the lock held."""
        if self.fail is None or self.fail[:-1] != key:
            return None
        kind = self.fail[-1]
        if kind == "429" and self.fired:
            return None
        self.fired = True
        return self.FAULTS[kind]


class GraphEndpoint(_Endpoint):
    """Answers SparqlKG's queries from an InMemoryKG.

    A fault's key names a query: an entity id its label query, (entity,
    direction) a relation search and (entity, relation, direction) an
    entity search.
    """

    FAULTS = SPARQL_FAULTS

    def __init__(self, kg, seed=0, fail=None):
        super().__init__(seed, fail)
        self.kg = kg
        self.labels_asked: list[str] = []

    def answer(self, kwargs):
        query = kwargs["data"].decode("utf-8")
        label = _LABEL.search(query)
        if label is not None:
            key = label.group(1)
        else:
            first, middle, last = (part.removeprefix("ns:") for part
                                   in _EDGE.search(query).groups())
            if middle == "?relation":
                key = ((last, Direction.INCOMING) if first == "?x"
                       else (first, Direction.OUTGOING))
            elif first == "?tailEntity":
                key = (last, middle, Direction.INCOMING)
            else:
                key = (first, middle, Direction.OUTGOING)
        with self.lock:
            if label is not None:
                self.labels_asked.append(key)
            fault = self.fault(key)
        if fault is not None:
            return fault()
        if label is not None:
            resolved = self.kg.resolve_label(key)
            return bindings("tailEntity",
                            [] if resolved.is_fallback else [resolved.label])
        if len(key) == 2:
            found = self.kg.search_relations(*key)
            return bindings("relation", [NS + value for value in found])
        found = self.kg.search_entities(*key)
        return bindings("tailEntity", [NS + value for value in found])


class EmbeddingEndpoint(_Endpoint):
    """Embeds text as 16 buckets of hashed character trigrams; a fault's
    key is the text."""

    FAULTS = EMBEDDING_FAULTS

    def __init__(self, seed, fail=None):
        super().__init__(seed, fail)
        # the texts in the order their requests arrived
        self.texts: list[str] = []

    def answer(self, kwargs):
        text = kwargs["json"]["input"][0]
        with self.lock:
            self.texts.append(text)
            fault = self.fault(text)
        if fault is not None:
            return fault()
        text = text.lower()
        vector = [0.0] * 16
        for i in range(len(text) - 2):
            vector[zlib.crc32(text[i:i + 3].encode("utf-8")) % 16] += 1.0
        return Reply(200, {"data": [{"embedding": vector}]})


class ChatEndpoint(_Endpoint):
    """A chat-completions endpoint whose reply to a prompt depends only on
    `replies` and the prompt, not on the order requests arrive in: each
    prompt gets its own wide PromptAwareResponder. The first reply to
    about one prompt in six loses its last character, which the planner
    cannot parse, so it asks again.

    A fault's key is (prompt, n): the n-th request that carries `prompt`,
    and so every retry of that request.
    """

    FAULTS = CHAT_FAULTS

    def __init__(self, replies, seed=0, fail=None):
        super().__init__(seed, fail)
        self.replies = replies
        # prompt -> the replies served for it
        self.served: dict[str, int] = {}
        # the prompts in the order their replies were made
        self.answered: list[str] = []

    def answer(self, kwargs):
        prompt = kwargs["json"]["messages"][0]["content"]
        with self.lock:
            served = self.served.get(prompt, 0)
            fault = self.fault(prompt, served + 1)
            if fault is None:
                self.served[prompt] = served + 1
        if fault is not None:
            return fault()
        with self.lock:
            self.answered.append(prompt)
        key = zlib.crc32(f"{self.replies}:{prompt}".encode("utf-8"))
        completion = PromptAwareResponder(key, keep_fraction=0.7).complete(
            prompt, None)
        text = completion.text
        if served == 0 and key % 6 == 0:
            text = text[:-1]
        return Reply(200, {
            "choices": [{"message": {"content": text}}],
            "usage": {"prompt_tokens": completion.usage.input_tokens,
                      "completion_tokens": completion.usage.output_tokens},
        })


def client_of(make, endpoint, pooled=True):
    """The client `make` builds on `endpoint`, kept on the caller's
    thread unless `pooled`, and the endpoint."""
    client = make(URL, session=endpoint, sleep=lambda seconds: None)
    client.waits_on_network = pooled
    return client, endpoint


def chat_backend(replies, *, pooled=True, **endpoint_kwargs):
    return client_of(ChatCompletionsBackend,
                     ChatEndpoint(replies, **endpoint_kwargs), pooled)


def sparql_kg(kg, *, pooled=True, **endpoint_kwargs):
    return client_of(SparqlKG, GraphEndpoint(kg, **endpoint_kwargs), pooled)


def embedding_scorer(*, pooled=True, seed=0, fail=None):
    return client_of(RemoteEmbeddingScorer, EmbeddingEndpoint(seed, fail),
                     pooled)


# -- the planner's traces ---------------------------------------------------


def test_panama_trace_is_unchanged_by_the_pool(panama_kg, panama_llm,
                                               panama_question):
    inline = Planner(panama_kg, panama_llm).run(panama_question)
    client, endpoint = sparql_kg(panama_kg, seed=1)
    pooled = Planner(client, panama_llm).run(panama_question)
    assert stable_lines(pooled.trace) == stable_lines(inline.trace)
    assert pooled.verdict.answer == "Juan Carlos Varela"
    # some batches did run on pool threads
    assert endpoint.threads - {threading.get_ident()}


def test_random_graph_traces_are_unchanged_by_the_pool():
    recalls = 0
    for seed in SWEEP_SEEDS:
        kg, question = random_case(seed, unnamed=True)
        scorer, _ = embedding_scorer(pooled=False)
        inline = Planner(kg, PromptAwareResponder(seed), SWEEP_CONFIG,
                         scorer=scorer).run(question)
        client, _ = sparql_kg(kg, seed=seed)
        scorer, _ = embedding_scorer(seed=seed)
        pooled = Planner(client, PromptAwareResponder(seed), SWEEP_CONFIG,
                         scorer=scorer).run(question)
        assert stable_lines(pooled.trace) == stable_lines(inline.trace), \
            seed
        recalls += sum(event.payload.get("stage") == "recall"
                       for event in pooled.trace.events)
    assert recalls  # the embedding batches ran too


def test_relation_calls_landing_out_of_order_keep_the_inline_trace():
    """Several tails per iteration get a relation prompt; their replies
    land out of order, and the trace is the inline run's all the same."""
    pool_threads: set[int] = set()
    reordered = batched = 0
    for seed in SWEEP_SEEDS:
        kg, question = random_case(seed, unnamed=True)
        traces = []
        for pooled in (False, True):
            client, _ = sparql_kg(kg, pooled=pooled, seed=seed)
            scorer, _ = embedding_scorer(pooled=pooled, seed=seed)
            llm, chat = chat_backend(seed, pooled=pooled, seed=seed)
            result = Planner(client, llm, SWEEP_CONFIG,
                             scorer=scorer).run(question)
            traces.append(stable_lines(result.trace))
        assert traces[1] == traces[0], seed
        pool_threads |= chat.threads - {threading.get_ident()}
        calls = [event for event in result.trace.events
                 if event.kind == "llm_call"
                 and event.payload["stage"] == "relation_selection"]
        batched += len(calls) - len({event.iteration for event in calls})
        # each relation prompt where it was first asked, and first answered
        asked = dict.fromkeys(PROMPTS.prompt_of(event) for event in calls)
        replied = dict.fromkeys(prompt for prompt in chat.answered
                                if prompt in asked)
        reordered += list(replied) != list(asked)
    assert batched >= 10  # relation prompts beyond one per iteration
    assert pool_threads
    assert reordered


def test_top_k_ranks_as_inline_and_asks_once_per_label():
    rng = random.Random(5)
    words = ["river", "city", "canal", "isthmus", "bay", "coast", "strait",
             "harbour", "gulf", "lake", "delta", "cape"]
    # some labels repeat, and some repeat another only up to whitespace,
    # which the scorer strips before it looks up its cache
    candidates = [(f"m.c{i}", rng.choice(["", " ", "  "])
                   + f"{rng.choice(words)} {rng.choice(words)}"
                   + rng.choice(["", " "]))
                  for i in range(60)]
    distinct = len({label.strip() for _, label in candidates})
    assert distinct < len({label for _, label in candidates})
    question = "Which canal city lies on the isthmus?"
    inline_scorer, inline_endpoint = embedding_scorer(pooled=False)
    pooled_scorer, pooled_endpoint = embedding_scorer(seed=3)
    inline = top_k(question, candidates, 25, inline_scorer)
    pooled = top_k(question, candidates, 25, pooled_scorer)
    assert pooled == inline
    assert pooled_endpoint.requests == distinct + 1
    assert inline_endpoint.requests == distinct + 1
    assert pooled_endpoint.threads - {threading.get_ident()}


# -- failures -----------------------------------------------------------------


def star_case():
    """A hub with ten spokes joined in a ring; every third spoke has no
    name, so the first expansion resolves ten labels in one batch."""
    spokes = [f"m.s{i}" for i in range(10)]
    triples = [("m.hub", "test.star.spoke", spoke) for spoke in spokes]
    triples += [(spoke, "test.star.rim", spokes[(i + 1) % 10])
                for i, spoke in enumerate(spokes)]
    names = {spoke: f"Spoke {i}" for i, spoke in enumerate(spokes)
             if i % 3 != 2}
    kg = make_kg(triples, {"m.hub": "Hub", **names})
    return kg, Question("Which spoke of the Hub is next?", (("m.hub", "Hub"),))


def aborts_alike(run, fail, clean, error):
    """Runs `run(pooled, fail)` inline, then pooled; `fail` is a fault as
    the endpoints take it. A "429", which a retry answers, leaves both
    runs' stable lines `clean`, and gives None. Any other fault aborts
    both alike, caused by `error`, each with a final event whose error
    the message names; gives that message and the stable lines."""
    if fail[-1] == "429":
        for pooled in (False, True):
            assert stable_lines(run(pooled, fail).trace) == clean, fail
        return None
    outcomes = []
    for pooled in (False, True):
        with pytest.raises(PlannerRunError) as caught:
            run(pooled, fail)
        assert isinstance(caught.value.__cause__, error), fail
        final = caught.value.trace.events[-1]
        assert final.kind == "final" and "error" in final.payload, fail
        assert final.payload["error"] in str(caught.value), fail
        outcomes.append((str(caught.value),
                         stable_lines(caught.value.trace)))
    assert outcomes[1] == outcomes[0], fail
    return outcomes[0]


def over_graph_and_chat(kg, question, config, replies):
    """`run(pooled, fail)` over a SPARQL endpoint that `fail` faults and
    a chat endpoint serving `replies`."""
    def run(pooled, fail=None):
        client, _ = sparql_kg(kg, pooled=pooled, seed=7, fail=fail)
        llm, _ = chat_backend(replies, pooled=pooled, seed=7)
        return Planner(client, llm, config).run(question)
    return run


def test_failed_label_query_aborts_as_the_inline_run():
    kg, question = star_case()
    config = PlannerConfig(max_depth=2)
    endpoints = []

    def run(pooled, fail=None):
        client, endpoint = sparql_kg(kg, pooled=pooled, seed=7, fail=fail)
        endpoints.append(endpoint)
        return Planner(client, PromptAwareResponder(1), config).run(question)

    clean = stable_lines(run(pooled=False).trace)
    asked = endpoints[0].labels_asked
    assert len(asked) == 10
    for entity in asked:
        message, _ = aborts_alike(run, (entity, "400"), clean, KGError)
        assert "HTTP 400" in message
        # the pooled run's batches ran on pool threads
        assert endpoints[-1].threads - {threading.get_ident()}


def test_label_faults_abort_as_the_inline_run():
    """Each kind of SPARQL fault, at a sampled label lookup of each sweep
    run, aborts pooled and inline runs alike, with the clean trace up to
    and including the entities event of the hop that found the id; a 429
    that a retry answers leaves the trace as it was."""
    for seed in SWEEP_SEEDS:
        kg, question = random_case(seed, unnamed=True)
        endpoints = []

        def run(pooled, fail=None):
            client, endpoint = sparql_kg(kg, pooled=pooled, seed=seed,
                                         fail=fail)
            endpoints.append(endpoint)
            return Planner(client, PromptAwareResponder(seed),
                           SWEEP_CONFIG).run(question)

        clean_trace = run(pooled=False).trace
        clean = stable_lines(clean_trace)
        asked = endpoints[0].labels_asked
        # id -> seq of the labels event that names it
        named_at = {eid: event.seq for event in clean_trace.events
                    if event.payload.get("op") == "labels"
                    for eid in [*event.payload["labels"],
                                *event.payload.get("fallback", ())]}
        assert sorted(asked) == sorted(named_at), seed
        rng = random.Random(seed)
        for kind in SPARQL_FAULTS:
            entity = rng.choice(asked)
            hop = clean_trace.events[named_at[entity] - 1]
            assert hop.payload["op"] == "entities", (seed, entity)
            aborted = aborts_alike(run, (entity, kind), clean, KGError)
            if aborted is not None:
                # every event up to the hop's entities event, and nothing
                # after
                assert aborted[1][:-1] == clean[:hop.seq + 1], \
                    (seed, kind, entity)


def test_chat_faults_abort_as_the_inline_run():
    """Each kind of chat fault, at sampled requests of each sweep run,
    aborts pooled and inline runs alike, with the clean trace up to the
    failed call; a 429 that a retry answers leaves the trace as it was."""
    targets: list[str] = []
    for seed in SWEEP_SEEDS:
        kg, question = random_case(seed, unnamed=True)

        def run(pooled, fail=None):
            llm, _ = chat_backend(seed, pooled=pooled, seed=seed, fail=fail)
            return Planner(kg, llm, SWEEP_CONFIG).run(question)

        clean_trace = run(pooled=False).trace
        clean = stable_lines(clean_trace)
        calls = [event for event in clean_trace.events
                 if event.kind == "llm_call"]
        prompts = [PROMPTS.prompt_of(call) for call in calls]
        rng = random.Random(seed)
        for kind in CHAT_FAULTS:
            index = rng.randrange(len(calls))
            prompt = prompts[index]
            nth = prompts[:index + 1].count(prompt)
            stage = calls[index].payload["stage"]
            # a relation prompt of a tail after the first of its iteration
            if stage.startswith("relation_selection") and any(
                    call.iteration == calls[index].iteration
                    and call.payload["stage"] == "relation_selection"
                    and other != prompt
                    for call, other in zip(calls[:index], prompts)):
                stage = "later_tail_" + stage
            targets.append(stage)
            aborted = aborts_alike(run, (prompt, nth, kind), clean, LLMError)
            if aborted is not None:
                # every event before the failed call's, and nothing after it
                assert aborted[1][:-1] == clean[:calls[index].seq], \
                    (seed, kind, index)
    # the faults hit relation prompts of later tails, and retries after a
    # garbled reply
    assert "later_tail_relation_selection" in targets
    assert any(stage.endswith("_retry") for stage in targets)


def test_embedding_faults_abort_as_the_inline_run():
    """Each kind of embedding fault, at a sampled text of each sweep run,
    aborts pooled and inline runs alike, with the clean trace up to the
    failed recall; a 429 that a retry answers leaves the trace as it
    was."""
    faulted = 0
    for seed in SWEEP_SEEDS:
        kg, question = random_case(seed, unnamed=True)
        endpoints = []

        def run(pooled, fail=None):
            client, _ = sparql_kg(kg, pooled=pooled, seed=seed)
            scorer, endpoint = embedding_scorer(pooled=pooled, seed=seed,
                                                fail=fail)
            endpoints.append(endpoint)
            return Planner(client, PromptAwareResponder(seed), SWEEP_CONFIG,
                           scorer=scorer).run(question)

        clean = stable_lines(run(pooled=False).trace)
        texts = endpoints[0].texts
        if not texts:
            continue  # no hop of this run found enough to recall
        rng = random.Random(seed)
        for kind in EMBEDDING_FAULTS:
            fail = (rng.choice(texts), kind)
            aborted = aborts_alike(run, fail, clean, RecallError)
            if aborted is None:
                continue
            faulted += 1
            lines = aborted[1]
            # every event before the failed recall's, and nothing after it
            assert lines[:-1] == clean[:len(lines) - 1], fail
            assert '"stage": "recall"' in clean[len(lines) - 1], fail
    assert faulted >= 5 * 4  # every kind, on several of the sweep runs


def search_of(event):
    """The search a relations or entities kg_query event records."""
    payload = event.payload
    direction = Direction(payload["direction"])
    if payload["op"] == "relations":
        return payload["entity"], direction
    return payload["entity"], payload["relation"], direction


@pytest.mark.parametrize("direction", list(Direction))
def test_failed_relation_search_mid_frontier_aborts_as_the_inline_run(
        direction):
    """The second tail's search fails: the first tail's events, its model
    call's among them, are recorded before the error, pooled or not."""
    kg, question = star_case()
    config = PlannerConfig(max_depth=2)
    # the reference is the bare in-memory graph's run, not the endpoint's
    clean = Planner(kg, chat_backend(1, pooled=False)[0],
                    config).run(question).trace
    searches = [event for event in clean.events if event.iteration == 2
                and event.payload.get("op") == "relations"]
    tails = list(dict.fromkeys(event.payload["entity"]
                               for event in searches))
    assert len(tails) >= 3
    failed = next(event for event in searches
                  if search_of(event) == (tails[1], direction))
    message, lines = aborts_alike(
        over_graph_and_chat(kg, question, config, 1),
        (search_of(failed), "400"), stable_lines(clean), KGError)
    assert "HTTP 400" in message
    assert lines[:-1] == stable_lines(clean)[:failed.seq]
    assert any(event.kind == "llm_call" and event.iteration == 2
               for event in clean.events[:failed.seq])


def test_search_faults_abort_as_the_inline_run():
    """Each kind of SPARQL fault in turn, at relation and entity searches
    sampled over the sweep runs, leaves every event before the failed
    search's own, pooled or not; a 429 that a retry answers leaves the
    trace as it was."""
    # each op's own turn of every kind
    kinds = {op: itertools.cycle(SPARQL_FAULTS)
             for op in ("relations", "entities")}
    made: set[tuple[str, str]] = set()
    for seed in SWEEP_SEEDS:
        kg, question = random_case(seed, unnamed=True)
        run = over_graph_and_chat(kg, question, SWEEP_CONFIG, seed)
        clean_trace = run(pooled=False).trace
        clean = stable_lines(clean_trace)
        firsts: dict[tuple, int] = {}
        for event in clean_trace.events:
            if event.payload.get("op") in kinds:
                # a repeated search is answered from the client's cache
                firsts.setdefault(search_of(event), event.seq)
        rng = random.Random(seed)
        for search in rng.sample(sorted(firsts, key=firsts.get), 4):
            op = "relations" if len(search) == 2 else "entities"
            kind = next(kinds[op])
            made.add((kind, op))
            aborted = aborts_alike(run, (search, kind), clean, KGError)
            if aborted is not None:
                assert aborted[1][:-1] == clean[:firsts[search]], \
                    (seed, search, kind)
    assert made == {(kind, op) for kind in SPARQL_FAULTS for op in kinds}


def two_hop_star():
    """A hub whose two relations reach three entities each, the last of
    each three unnamed, so both hops of its expansion resolve labels."""
    spokes = [f"m.s{i}" for i in range(3)]
    moons = [f"m.m{i}" for i in range(3)]
    triples = [("m.hub", "test.star.spoke", spoke) for spoke in spokes]
    triples += [("m.hub", "test.star.moon", moon) for moon in moons]
    names = {eid: f"Body {eid}" for eid in spokes[:2] + moons[:2]}
    kg = make_kg(triples, {"m.hub": "Hub", **names})
    question = Question("Which body circles the Hub?", (("m.hub", "Hub"),))
    return kg, question, spokes + moons


class GatheringEndpoint(GraphEndpoint):
    """Holds each label query until the label queries of every id in
    `expected` have arrived, or for at most ten seconds."""

    def __init__(self, kg, expected, seed=0):
        super().__init__(kg, seed)
        self.expected = set(expected)
        self.arrived: set[str] = set()
        self.gathered = threading.Condition()
        self.timed_out = False

    def answer(self, kwargs):
        label = _LABEL.search(kwargs["data"].decode("utf-8"))
        if label is not None:
            with self.gathered:
                self.arrived.add(label.group(1))
                self.gathered.notify_all()
                if not self.gathered.wait_for(
                        lambda: self.expected <= self.arrived, timeout=10):
                    self.timed_out = True
        return super().answer(kwargs)


def test_one_expansion_resolves_the_labels_of_all_its_hops_together():
    kg, question, bodies = two_hop_star()
    # both relations, every candidate: one expansion, two hops, six ids
    # (no more than the WORKERS a caller has in flight)
    assert len(bodies) <= fanout.WORKERS
    config = PlannerConfig(max_depth=1)

    def responder():
        return PromptAwareResponder(3, keep_fraction=1.0,
                                    hallucination_rate=0.0)

    inline = Planner(kg, responder(), config).run(question)
    client, endpoint = client_of(SparqlKG,
                                 GatheringEndpoint(kg, bodies, seed=3))
    pooled = Planner(client, responder(), config).run(question)
    assert not endpoint.timed_out
    assert endpoint.arrived == set(bodies)
    assert stable_lines(pooled.trace) == stable_lines(inline.trace)
    # still one labels event per hop, each naming two ids and one fallback
    labels = [event.payload for event in pooled.trace.events
              if event.payload.get("op") == "labels"]
    assert [(len(payload["labels"]), payload["fallback"])
            for payload in labels] == [(2, ["m.m2"]), (2, ["m.s2"])]


class SlowLabels(GraphEndpoint):
    """Takes 5 ms over each label query."""

    def answer(self, kwargs):
        if _LABEL.search(kwargs["data"].decode("utf-8")):
            time.sleep(0.005)
        return super().answer(kwargs)


class RefusingEndpoint:
    def post(self, url, **kwargs):
        return Reply(400)


def test_a_failed_recall_leaves_no_label_lookup_running():
    """An expansion's label batch covers both of its hops and is made
    before the first recall; when recall fails on the first hop, no
    lookup is still running once the run has raised."""
    bodies = [f"m.a{i}" for i in range(40)] + [f"m.b{i}" for i in range(40)]
    triples = [("m.hub", f"test.x.{eid[2]}", eid) for eid in bodies]
    kg = make_kg(triples, {"m.hub": "Hub",
                           **{eid: f"Thing {eid}" for eid in bodies}})
    question = Question("Which thing?", (("m.hub", "Hub"),))
    client, endpoint = client_of(SparqlKG, SlowLabels(kg))
    scorer, _ = client_of(RemoteEmbeddingScorer, RefusingEndpoint())
    planner = Planner(client, PromptAwareResponder(3, keep_fraction=1.0,
                                                   hallucination_rate=0.0),
                      PlannerConfig(max_depth=1), scorer=scorer)
    with pytest.raises(PlannerRunError, match="embedding") as caught:
        planner.run(question)
    asked = len(endpoint.labels_asked)
    time.sleep(0.2)
    # no lookup was served after the run raised
    assert len(endpoint.labels_asked) == asked
    assert caught.value.trace.events[-1].kind == "final"


class WaitingBackend:
    waits_on_network = True


def test_a_failure_cancels_the_items_not_started():
    ran = []

    def call(item):
        if item == 0:
            raise LookupError("item 0")
        time.sleep(0.02)
        ran.append(item)
        return item

    results, failed = fanout.gather(WaitingBackend(), call, range(32))
    assert results == []
    assert isinstance(failed, LookupError) and str(failed) == "item 0"
    time.sleep(0.1)
    # only the items already running when item 0 failed were served
    assert len(ran) <= 2 * fanout.WORKERS


def test_each_calling_thread_gets_its_own_workers():
    """Two callers' batches of 2 * WORKERS items: each caller has WORKERS
    items running at once, so all 2 * WORKERS meet at the barrier. One
    pool shared by both callers would leave the barrier short and break
    it; a caller with more than WORKERS workers fails the peak check."""
    meet = threading.Barrier(2 * fanout.WORKERS, timeout=10)
    lock = threading.Lock()
    running = {0: 0, 1: 0}
    peak = {0: 0, 1: 0}
    workers: set[threading.Thread] = set()

    def batch(caller):
        def call(item):
            with lock:
                workers.add(threading.current_thread())
                running[caller] += 1
                peak[caller] = max(peak[caller], running[caller])
            meet.wait()
            with lock:
                running[caller] -= 1
            return caller, item

        assert fanout.gather(WaitingBackend(), call,
                             range(2 * fanout.WORKERS)) == \
            ([(caller, item) for item in range(2 * fanout.WORKERS)], None)

    failures = []

    def caller_thread(caller):
        try:
            batch(caller)
        except Exception as exc:  # reported by the assert below
            failures.append(exc)

    callers = [threading.Thread(target=caller_thread, args=(caller,))
               for caller in (0, 1)]
    for thread in callers:
        thread.start()
    for thread in callers:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in callers)
    assert not failures, failures
    assert peak == {0: fanout.WORKERS, 1: fanout.WORKERS}
    assert len(workers) == 2 * fanout.WORKERS
    # once its caller has ended, a pool's workers exit
    deadline = time.monotonic() + 10
    while any(worker.is_alive() for worker in workers) and \
            time.monotonic() < deadline:
        time.sleep(0.01)
    assert not any(worker.is_alive() for worker in workers)


# -- backends that stay inline ------------------------------------------------


def test_in_memory_kg_and_trigram_scorer_stay_on_the_callers_thread(
        monkeypatch, panama_kg, panama_llm, panama_question):
    calls: dict[str, set[int]] = {}

    def spy(owner, name):
        original = getattr(owner, name)

        def recorded(self, *args):
            calls.setdefault(name, set()).add(threading.get_ident())
            return original(self, *args)
        monkeypatch.setattr(owner, name, recorded)

    for name in ("search_relations", "search_entities", "resolve_label"):
        spy(InMemoryKG, name)
    # top_k scores a batch with one `scores` call
    spy(TrigramScorer, "scores")
    Planner(panama_kg, panama_llm).run(panama_question)
    for seed in SWEEP_SEEDS:
        kg, question = random_case(seed, unnamed=True)
        Planner(kg, PromptAwareResponder(seed), SWEEP_CONFIG).run(question)
    assert set(calls) == {"search_relations", "search_entities",
                          "resolve_label", "scores"}
    assert all(threads == {threading.get_ident()}
               for threads in calls.values()), calls
