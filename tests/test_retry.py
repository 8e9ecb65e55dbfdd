import re
import threading
from typing import Callable, NamedTuple

import pytest
import requests

from graphquest.kg.sparql_client import SparqlKG
from graphquest.kg.types import Direction, KGError
from graphquest.llm.http_client import ChatCompletionsBackend
from graphquest.llm.types import GenerationConfig, LLMError
from graphquest.recall import RecallError, RemoteEmbeddingScorer

from http_fakes import ACCEPTED_BY_ALL, NOT_JSON, Reply, not_json, scripted


class Client(NamedTuple):
    make: type
    url: str
    # client, n -> the n-th of a run of distinct requests (no cache hits)
    request: Callable
    error: type
    # the endpoint's name in the client's errors
    name: str
    # the keywords each of its requests is posted with
    keywords: list[str]
    # what `request` returns when every reply is ACCEPTED_BY_ALL
    answer: object


CLIENTS = {
    "sparql": Client(SparqlKG, "http://kg.invalid/sparql",
                     lambda client, n: client.search_relations(
                         f"m.{n}", Direction.OUTGOING),
                     KGError, "SPARQL", ["data", "headers", "timeout"], []),
    "chat": Client(ChatCompletionsBackend,
                   "http://llm.invalid/v1/chat/completions",
                   lambda client, n: client.complete(
                       f"prompt {n}", GenerationConfig()).text,
                   LLMError, "chat", ["headers", "json", "timeout"], "ok"),
    "embedding": Client(RemoteEmbeddingScorer, "http://embed.invalid/v1",
                        lambda client, n: client.score(f"question {n}",
                                                       f"label {n}"),
                        RecallError, "embedding", ["json", "timeout"], 1.0),
}
each_client = pytest.mark.parametrize("name", sorted(CLIENTS))

# each fault the policy retries, and a pattern of the error it leaves
UNDECODED = r"response body is not JSON \(.+\)"
RETRIED = {
    "429": (Reply(429), "HTTP 429"),
    "500": (Reply(500), "HTTP 500"),
    "503": (Reply(503), "HTTP 503"),
    "connection-error": (requests.ConnectionError("down"), "down"),
    "html-body": (not_json(NOT_JSON[0]), UNDECODED),
    "deep-body": (not_json(NOT_JSON[1]), UNDECODED),
}
each_retried_fault = pytest.mark.parametrize("fault", list(RETRIED))


@each_client
@each_retried_fault
def test_a_retried_fault_backs_off_then_succeeds(name, fault):
    spec = CLIENTS[name]
    outcome, _ = RETRIED[fault]
    # two replies accepted, as an embedding score asks for two texts
    client, _, sleeps = scripted(
        spec.make, spec.url,
        [outcome] * 2 + [Reply(200, ACCEPTED_BY_ALL)] * 2)
    assert spec.request(client, 0) == spec.answer
    assert sleeps == [1.0, 2.0]  # 1.0 * 2^0, 1.0 * 2^1


@each_client
@each_retried_fault
def test_three_retried_faults_give_the_clients_error(name, fault):
    spec = CLIENTS[name]
    outcome, reason = RETRIED[fault]
    client, session, sleeps = scripted(spec.make, spec.url, [outcome] * 3)
    with pytest.raises(spec.error) as info:
        spec.request(client, 0)
    assert type(info.value) is spec.error
    assert re.fullmatch(re.escape(
        f"{spec.name} endpoint {spec.url} failed after 3 attempts: ")
        + reason, str(info.value))
    assert len(session.requests) == 3
    assert sleeps == [1.0, 2.0]


@each_client
@pytest.mark.parametrize("status", [400, 401, 404])
def test_a_refused_request_fails_at_once(name, status):
    # the endpoint answered and refused the request: no retry
    spec = CLIENTS[name]
    client, session, sleeps = scripted(spec.make, spec.url, [Reply(status)])
    with pytest.raises(spec.error) as info:
        spec.request(client, 0)
    assert type(info.value) is spec.error
    assert str(info.value) == (f"{spec.name} endpoint {spec.url} failed "
                               f"after 1 attempts: HTTP {status}")
    assert len(session.requests) == 1
    assert sleeps == []


@each_client
def test_each_client_posts_exactly_its_keywords(name):
    spec = CLIENTS[name]
    client, session, _ = scripted(spec.make, spec.url,
                                  [Reply(200, ACCEPTED_BY_ALL)] * 2)
    spec.request(client, 0)
    assert session.requests
    for request in session.requests:
        assert request["url"] == spec.url
        assert sorted(request) == sorted(["url", *spec.keywords])


def call_from_threads(client, request, threads=3, per_thread=2):
    """Each thread makes `per_thread` distinct requests (no cache hits);
    all of them are alive at once, so no two share a thread id."""
    errors = []
    barrier = threading.Barrier(threads)

    def work(offset):
        try:
            barrier.wait(timeout=10)
            for n in range(per_thread):
                request(client, offset * per_thread + n)
        except Exception as exc:  # reported by the assert below
            errors.append(exc)

    workers = [threading.Thread(target=work, args=(offset,))
               for offset in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=10)
    assert not any(worker.is_alive() for worker in workers)
    assert not errors, errors


@each_client
def test_each_thread_gets_its_own_session(name, monkeypatch):
    seen: list[tuple[int, requests.Session]] = []

    def post(session, url, **kwargs):
        seen.append((threading.get_ident(), session))
        return Reply(200, ACCEPTED_BY_ALL)

    monkeypatch.setattr(requests.Session, "post", post)
    spec = CLIENTS[name]
    call_from_threads(spec.make(spec.url), spec.request)
    assert len(seen) >= 6
    by_thread: dict[int, set[int]] = {}
    for thread, session in seen:
        assert isinstance(session, requests.Session)
        by_thread.setdefault(thread, set()).add(id(session))
    assert len(by_thread) == 3
    assert all(len(ids) == 1 for ids in by_thread.values())
    assert len(set().union(*by_thread.values())) == 3


@each_client
def test_an_injected_session_serves_every_thread(name):
    class Shared:
        def __init__(self):
            self.threads = []

        def post(self, url, **kwargs):
            self.threads.append(threading.get_ident())
            return Reply(200, ACCEPTED_BY_ALL)

    session = Shared()
    spec = CLIENTS[name]
    call_from_threads(spec.make(spec.url, session=session), spec.request)
    assert len(session.threads) >= 6
    assert len(set(session.threads)) == 3
