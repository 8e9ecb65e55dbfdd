"""Chat-completions HTTP backend (OpenAI-compatible endpoints)."""

from __future__ import annotations

import os
import time
from typing import Callable

import requests

from ..retry import post_json
from .types import (
    Completion,
    GenerationConfig,
    TransportError,
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
    def __init__(self, base_url: str, *,
                 session: requests.Session | None = None,
                 sleep: Callable[[float], None] = time.sleep):
        base = base_url.rstrip("/")
        if not base.endswith("/chat/completions"):
            base = base + "/chat/completions"
        self.url = base
        self.session = session or requests.Session()
        self._sleep = sleep

    def complete(self, prompt: str, config: GenerationConfig) -> Completion:
        body = {
            "model": config.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": config.temperature,
            "max_tokens": config.max_tokens,
            "frequency_penalty": config.frequency_penalty,
            "presence_penalty": config.presence_penalty,
        }
        headers = {"Content-Type": "application/json"}
        key = _api_key_from_env()
        if key:
            headers["Authorization"] = f"Bearer {key}"
        started = time.perf_counter()
        payload = post_json(
            self.session, self.url, sleep=self._sleep,
            error=lambda attempts, last: TransportError(
                f"chat endpoint {self.url} failed after {attempts} "
                f"attempts: {last}"),
            json=body, headers=headers, timeout=TIMEOUT_SECONDS,
        )
        latency = time.perf_counter() - started
        try:
            text = payload["choices"][0]["message"]["content"] or ""
        except (KeyError, IndexError, TypeError):
            raise TransportError(
                f"malformed chat response from {self.url}") from None
        usage = payload.get("usage") or {}
        input_tokens = usage.get("prompt_tokens")
        output_tokens = usage.get("completion_tokens")
        if input_tokens is None:
            input_tokens = approximate_tokens(prompt)
        if output_tokens is None:
            output_tokens = approximate_tokens(text)
        return Completion(
            text=text,
            usage=Usage(int(input_tokens), int(output_tokens)),
            latency_seconds=latency,
        )
