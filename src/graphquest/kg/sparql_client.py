"""Knowledge-graph backend speaking SPARQL over HTTP."""

from __future__ import annotations

import threading
import time
from typing import Callable

import requests

from ..retry import Sessions, post_json
from .queries import (
    entities_query,
    is_plain_name,
    label_query,
    relations_query,
)
from .types import (
    ALIAS_PREDICATES,
    FREEBASE_NS,
    NAME_PREDICATE,
    Direction,
    EntityLabel,
    KGError,
)

SPARQL_MIME = "application/sparql-query"
RESULTS_MIME = "application/sparql-results+json"
TIMEOUT_SECONDS = 30.0


class BackendUnreachableError(KGError):
    """The endpoint refused a query, or every retry of it failed."""

    def __init__(self, endpoint: str, attempts: int, last_error: str):
        super().__init__(
            f"SPARQL endpoint {endpoint} failed after {attempts} "
            f"attempts: {last_error}"
        )
        self.endpoint = endpoint
        self.attempts = attempts


class SparqlKG:
    """Remote triple store client with a per-instance query cache.

    The cache is keyed on the rendered query text, so repeated expansions
    of the same entity cost one round trip per process. A session and a
    sleep function can be injected for testing. Safe to call from several
    threads at once; the planner overlaps a batch of its queries on the
    `fanout` pool.
    """

    waits_on_network = True

    def __init__(self, endpoint_url: str, *,
                 session: requests.Session | None = None,
                 sleep: Callable[[float], None] = time.sleep):
        self.endpoint_url = endpoint_url
        self._sessions = Sessions(session)
        self._sleep = sleep
        self._cache: dict[str, list[str]] = {}
        self._lock = threading.Lock()

    # -- queries ---------------------------------------------------------

    def search_relations(self, entity: str, direction: Direction) -> list[str]:
        # the namespace's domain relations only, as the in-memory store
        # returns: a value outside the namespace keeps its whole IRI, which
        # is no plain name and could not be queried as `ns:{relation}`
        return [relation for relation in
                self._cached(relations_query(entity, direction), "relation")
                if is_plain_name(relation) and relation != NAME_PREDICATE
                and relation not in ALIAS_PREDICATES]

    def search_entities(self, entity: str, relation: str,
                        direction: Direction) -> list[str]:
        # plain names only: a name literal or an IRI outside the namespace
        # could not be queried for its label or relations. An id, or a
        # literal such as a year, passes and labels itself.
        return [other for other in
                self._cached(entities_query(entity, relation, direction),
                             "tailEntity")
                if is_plain_name(other)]

    def resolve_label(self, entity: str) -> EntityLabel:
        # a blank name never becomes a label, as in the in-memory store
        for value in self._cached(label_query(entity), "tailEntity"):
            if value.strip():
                return EntityLabel(entity, value)
        return EntityLabel(entity, entity, is_fallback=True)

    # -- transport -------------------------------------------------------

    def _cached(self, query: str, variable: str) -> list[str]:
        with self._lock:
            hit = self._cache.get(query)
        if hit is not None:
            return list(hit)
        values = self._execute(query, variable)
        with self._lock:
            self._cache[query] = values
        return list(values)

    def _execute(self, query: str, variable: str) -> list[str]:
        payload = post_json(
            self._sessions.get(), self.endpoint_url, sleep=self._sleep,
            error=lambda attempts, last: BackendUnreachableError(
                self.endpoint_url, attempts, last),
            data=query.encode("utf-8"),
            headers={"Content-Type": SPARQL_MIME, "Accept": RESULTS_MIME},
            timeout=TIMEOUT_SECONDS,
        )
        return self._parse(payload, variable)

    @staticmethod
    def _parse(payload: dict, variable: str) -> list[str]:
        values = set()
        try:
            for binding in payload["results"]["bindings"]:
                entry = binding.get(variable)
                if entry is None:
                    continue
                value = entry.get("value", "").removeprefix(FREEBASE_NS)
                if value:
                    values.add(value)
        except (KeyError, TypeError, AttributeError):
            raise KGError("malformed SPARQL results payload") from None
        return sorted(values)
