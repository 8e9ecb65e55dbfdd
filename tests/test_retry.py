import pytest

from graphquest.kg.sparql_client import SparqlKG
from graphquest.kg.types import Direction, KGError
from graphquest.llm.http_client import ChatCompletionsBackend
from graphquest.llm.types import GenerationConfig, LLMError
from graphquest.recall import RecallError, RemoteEmbeddingScorer


class Unavailable:
    """A session whose every POST is answered with HTTP 503."""

    status_code = 503

    def __init__(self):
        self.requests = 0

    def post(self, url, **kwargs):
        self.requests += 1
        return self


@pytest.mark.parametrize("make, call, error, name, url", [
    pytest.param(SparqlKG,
                 lambda client: client.search_relations("m.0x",
                                                        Direction.OUTGOING),
                 KGError, "SPARQL", "http://kg.invalid/sparql", id="sparql"),
    pytest.param(ChatCompletionsBackend,
                 lambda client: client.complete("p", GenerationConfig()),
                 LLMError, "chat", "http://llm.invalid/v1/chat/completions",
                 id="chat"),
    pytest.param(RemoteEmbeddingScorer,
                 lambda client: client.score("question", "label"),
                 RecallError, "embedding", "http://embed.invalid/v1",
                 id="embedding"),
])
def test_each_client_fails_with_its_layers_one_error_type(make, call, error,
                                                          name, url):
    session = Unavailable()
    client = make(url, session=session, sleep=lambda _: None)
    with pytest.raises(error) as info:
        call(client)
    assert type(info.value) is error
    assert str(info.value) == (
        f"{name} endpoint {url} failed after 3 attempts: HTTP 503")
    assert session.requests == 3
