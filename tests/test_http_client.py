import json

import pytest
import requests

from graphquest.llm.http_client import ChatCompletionsBackend
from graphquest.llm.types import GenerationConfig, LLMError

from http_fakes import NOT_JSON, Reply, not_json, scripted

CONFIG = GenerationConfig(model="test-model", temperature=0.3, max_tokens=1024)


def chat_payload(text, usage=None):
    payload = {"choices": [{"message": {"role": "assistant", "content": text}}]}
    if usage is not None:
        payload["usage"] = usage
    return payload


def make_backend(outcomes, base_url="http://llm.invalid/v1"):
    return scripted(ChatCompletionsBackend, base_url, outcomes)


class TestRequestShape:
    def test_url_gets_chat_completions_suffix(self):
        backend, _, _ = make_backend([], base_url="http://llm.invalid/v1")
        assert backend.url == "http://llm.invalid/v1/chat/completions"
        explicit, _, _ = make_backend(
            [], base_url="http://llm.invalid/v1/chat/completions")
        assert explicit.url == "http://llm.invalid/v1/chat/completions"

    def test_body_carries_decoding_settings(self, monkeypatch):
        monkeypatch.delenv("GRAPHQUEST_API_KEY", raising=False)
        monkeypatch.delenv("OPENAI_API_KEY", raising=False)
        backend, session, _ = make_backend([Reply(200, chat_payload("hi"))])
        backend.complete("the prompt", CONFIG)
        # the body as sent; the penalties are no setting, and it carries
        # them at 0.0
        assert json.dumps(session.requests[0]["json"]) == (
            '{"model": "test-model", "messages": [{"role": "user", '
            '"content": "the prompt"}], "temperature": 0.3, '
            '"max_tokens": 1024, "frequency_penalty": 0.0, '
            '"presence_penalty": 0.0}')
        assert "Authorization" not in session.requests[0]["headers"]
        assert session.requests[0]["timeout"] == 60.0

    def test_api_key_read_from_env_only(self, monkeypatch):
        monkeypatch.setenv("GRAPHQUEST_API_KEY", "sk-test-123")
        backend, session, _ = make_backend([Reply(200, chat_payload("hi"))])
        backend.complete("p", CONFIG)
        auth = session.requests[0]["headers"]["Authorization"]
        assert auth == "Bearer sk-test-123"

    def test_fallback_env_var(self, monkeypatch):
        monkeypatch.delenv("GRAPHQUEST_API_KEY", raising=False)
        monkeypatch.setenv("OPENAI_API_KEY", "sk-alt")
        backend, session, _ = make_backend([Reply(200, chat_payload("hi"))])
        backend.complete("p", CONFIG)
        assert session.requests[0]["headers"]["Authorization"] == "Bearer sk-alt"


class TestResponses:
    def test_reported_usage_is_preferred(self):
        payload = chat_payload("answer text", {"prompt_tokens": 77,
                                               "completion_tokens": 11})
        backend, _, _ = make_backend([Reply(200, payload)])
        completion = backend.complete("p", CONFIG)
        assert completion.text == "answer text"
        assert completion.usage.input_tokens == 77
        assert completion.usage.output_tokens == 11

    def test_missing_usage_falls_back_to_estimate(self):
        backend, _, _ = make_backend([Reply(200, chat_payload("abcdefgh"))])
        completion = backend.complete("x" * 40, CONFIG)
        assert completion.usage.input_tokens == 10  # ceil(40 / 4)
        assert completion.usage.output_tokens == 2  # ceil(8 / 4)

    def test_null_content_is_empty_text(self):
        backend, _, _ = make_backend([Reply(200, chat_payload(None))])
        completion = backend.complete("p", CONFIG)
        assert completion.text == ""
        assert completion.usage.output_tokens == 0

    def test_malformed_payload_raises_transport_error(self):
        backend, _, _ = make_backend([Reply(200, {"weird": []})])
        with pytest.raises(LLMError):
            backend.complete("p", CONFIG)

    @pytest.mark.parametrize("payload", [
        pytest.param({**chat_payload("ok"), "usage": 5},
                     id="usage-not-object"),
        pytest.param(chat_payload(5), id="content-not-text"),
        pytest.param(chat_payload(False), id="content-false"),
        pytest.param(chat_payload(0), id="content-zero"),
        pytest.param(chat_payload([]), id="content-empty-list"),
        pytest.param(chat_payload({}), id="content-empty-object"),
        pytest.param(chat_payload("ok", {"prompt_tokens": "many"}),
                     id="tokens-not-a-number"),
        pytest.param(chat_payload("ok", {"prompt_tokens": float("inf")}),
                     id="tokens-infinite"),
        pytest.param(chat_payload("ok", {"prompt_tokens": -7}),
                     id="tokens-negative"),
        pytest.param(chat_payload("ok", {"completion_tokens": True}),
                     id="tokens-a-bool"),
        pytest.param(chat_payload("ok", {"completion_tokens": 2.5}),
                     id="tokens-fractional"),
    ])
    def test_malformed_fields_raise_transport_error(self, payload):
        backend, _, _ = make_backend([Reply(200, payload)])
        with pytest.raises(LLMError, match="malformed chat response"):
            backend.complete("p", CONFIG)


class TestRetries:
    def test_retryable_then_success(self):
        backend, session, sleeps = make_backend(
            [Reply(429), requests.ConnectionError("down"),
             Reply(200, chat_payload("ok"))])
        assert backend.complete("p", CONFIG).text == "ok"
        assert len(session.requests) == 3
        assert sleeps == [1.0, 2.0]

    def test_non_retryable_fails_fast(self):
        backend, session, sleeps = make_backend([Reply(401)])
        with pytest.raises(LLMError) as info:
            backend.complete("p", CONFIG)
        assert "401" in str(info.value)
        assert len(session.requests) == 1
        assert sleeps == []

    def test_exhaustion_reports_last_error(self):
        backend, _, _ = make_backend(
            [Reply(503), Reply(503), Reply(503)])
        with pytest.raises(LLMError) as info:
            backend.complete("p", CONFIG)
        assert "3 attempts" in str(info.value)
        assert "HTTP 503" in str(info.value)

    def test_non_json_body_is_retried_then_typed(self):
        for body in NOT_JSON:
            backend, session, _ = make_backend(
                [not_json(body), Reply(200, chat_payload("ok"))])
            assert backend.complete("p", CONFIG).text == "ok"
            assert len(session.requests) == 2
            backend, session, _ = make_backend([not_json(body)] * 3)
            with pytest.raises(LLMError) as info:
                backend.complete("p", CONFIG)
            assert "3 attempts" in str(info.value)
            assert len(session.requests) == 3
