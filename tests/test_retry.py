import threading
from typing import Callable, NamedTuple

import pytest
import requests

from graphquest.kg.sparql_client import SparqlKG
from graphquest.kg.types import Direction, KGError
from graphquest.llm.http_client import ChatCompletionsBackend
from graphquest.llm.types import GenerationConfig, LLMError
from graphquest.recall import RecallError, RemoteEmbeddingScorer

from http_fakes import ACCEPTED_BY_ALL, Reply, scripted


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


CLIENTS = {
    "sparql": Client(SparqlKG, "http://kg.invalid/sparql",
                     lambda client, n: client.search_relations(
                         f"m.{n}", Direction.OUTGOING),
                     KGError, "SPARQL", ["data", "headers", "timeout"]),
    "chat": Client(ChatCompletionsBackend,
                   "http://llm.invalid/v1/chat/completions",
                   lambda client, n: client.complete(f"prompt {n}",
                                                     GenerationConfig()),
                   LLMError, "chat", ["headers", "json", "timeout"]),
    "embedding": Client(RemoteEmbeddingScorer, "http://embed.invalid/v1",
                        lambda client, n: client.score(f"question {n}",
                                                       f"label {n}"),
                        RecallError, "embedding", ["json", "timeout"]),
}
each_client = pytest.mark.parametrize("name", sorted(CLIENTS))


@each_client
def test_each_client_fails_with_its_layers_one_error_type(name):
    spec = CLIENTS[name]
    client, session, _ = scripted(spec.make, spec.url, [Reply(503)] * 3)
    with pytest.raises(spec.error) as info:
        spec.request(client, 0)
    assert type(info.value) is spec.error
    assert str(info.value) == (
        f"{spec.name} endpoint {spec.url} failed after 3 attempts: HTTP 503")
    assert len(session.requests) == 3


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
