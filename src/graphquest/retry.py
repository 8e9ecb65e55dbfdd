"""The retry policy shared by the HTTP clients (SPARQL, chat, embeddings)."""

from __future__ import annotations

import logging
import threading
from typing import Any, Callable

import requests

logger = logging.getLogger(__name__)

RETRYABLE_STATUS = frozenset({429, 500, 502, 503, 504})
MAX_ATTEMPTS = 3
BACKOFF_SECONDS = 1.0


class Sessions:
    """The session each request goes out on.

    An injected session is used as-is by every thread. Without one, each
    thread gets its own `requests.Session` on first use, because
    requests does not promise that one session is safe across threads.
    """

    def __init__(self, injected: requests.Session | None = None):
        self._injected = injected
        self._local = threading.local()

    def get(self) -> requests.Session:
        if self._injected is not None:
            return self._injected
        session = getattr(self._local, "session", None)
        if session is None:
            session = self._local.session = requests.Session()
        return session


def post_json(session: requests.Session, url: str, *,
              sleep: Callable[[float], None],
              error: type[Exception], name: str, **post_kwargs) -> Any:
    """POST until a 200 with a JSON body arrives, and return the body.

    429/5xx statuses, connection errors and bodies that do not decode
    (nested too deep for the decoder among them) are retried, up to
    MAX_ATTEMPTS attempts, sleeping `BACKOFF_SECONDS * 2**n` after the
    n-th failed attempt (n from 0); any other status fails at once.
    A failure raises `error`, the caller's one error type, with the text
    `<name> endpoint <url> failed after <attempts> attempts: <last error>`.
    `post_kwargs` go to `session.post` unchanged.
    """
    for attempt in range(1, MAX_ATTEMPTS + 1):
        try:
            response = session.post(url, **post_kwargs)
        except requests.RequestException as exc:
            last_error = str(exc)
        else:
            if response.status_code == 200:
                try:
                    return response.json()
                except (ValueError, RecursionError) as exc:
                    last_error = f"response body is not JSON ({exc})"
            else:
                last_error = f"HTTP {response.status_code}"
                if response.status_code not in RETRYABLE_STATUS:
                    break
        if attempt < MAX_ATTEMPTS:
            delay = BACKOFF_SECONDS * (2 ** (attempt - 1))
            logger.warning("POST %s attempt %d failed (%s); retrying in %.1fs",
                           url, attempt, last_error, delay)
            sleep(delay)
    raise error(f"{name} endpoint {url} failed after {attempt} attempts: "
                f"{last_error}")
