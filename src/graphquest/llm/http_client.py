"""Chat-completions HTTP backend (OpenAI-compatible endpoints)."""

from __future__ import annotations

import os
import time
from typing import Callable

import requests

from ..retry import Sessions, post_json
from .types import (
    Completion,
    GenerationConfig,
    LLMError,
    Usage,
    approximate_tokens,
)

API_KEY_ENV_VARS = ("GRAPHQUEST_API_KEY", "OPENAI_API_KEY")
TIMEOUT_SECONDS = 60.0


def _api_key_from_env() -> str | None:
    # Credentials come from the environment only; never from files or flags.
    for name in API_KEY_ENV_VARS:
        value = os.environ.get(name)
        if value:
            return value
    return None


class ChatCompletionsBackend:
    """Client of an OpenAI-compatible chat endpoint.

    Safe to call from several threads at once; the planner overlaps each
    iteration's relation-selection calls on the `fanout` pool.
    """

    waits_on_network = True

    def __init__(self, base_url: str, *,
                 session: requests.Session | None = None,
                 sleep: Callable[[float], None] = time.sleep):
        base = base_url.rstrip("/")
        if not base.endswith("/chat/completions"):
            base = base + "/chat/completions"
        self.url = base
        self._sessions = Sessions(session)
        self._sleep = sleep

    def complete(self, prompt: str, config: GenerationConfig) -> Completion:
        body = {
            "model": config.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": config.temperature,
            "max_tokens": config.max_tokens,
            # no setting: sent as the neutral 0.0 the API defaults to
            "frequency_penalty": 0.0,
            "presence_penalty": 0.0,
        }
        headers = {"Content-Type": "application/json"}
        key = _api_key_from_env()
        if key:
            headers["Authorization"] = f"Bearer {key}"
        payload = post_json(
            self._sessions.get(), self.url, sleep=self._sleep,
            error=LLMError, name="chat",
            json=body, headers=headers, timeout=TIMEOUT_SECONDS,
        )
        try:
            content = payload["choices"][0]["message"]["content"]
            text = "" if content is None else content
            if not isinstance(text, str):
                raise TypeError("content is not text")
            reported = payload.get("usage") or {}
            input_tokens = reported.get("prompt_tokens")
            output_tokens = reported.get("completion_tokens")
            usage = Usage(
                approximate_tokens(prompt) if input_tokens is None
                else input_tokens,
                approximate_tokens(text) if output_tokens is None
                else output_tokens)
        except (KeyError, IndexError, TypeError, AttributeError, ValueError):
            raise LLMError(
                f"malformed chat response from {self.url}") from None
        return Completion(text=text, usage=usage)
