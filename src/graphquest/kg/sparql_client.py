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
# binding types of a literal; "typed-literal" is the older spelling some
# endpoints still send for a literal with a datatype
LITERAL_TYPES = ("literal", "typed-literal")


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
        # query -> variable -> value -> binding type, parsed once
        self._cache: dict[str, dict[str, dict[str, str | None]]] = {}
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
        # literal such as a year, passes; a literal has no name, so its
        # label lookup is answered here, with no request.
        tails = self._cached(entities_query(entity, relation, direction),
                             "tailEntity")
        kept = [other for other in tails if is_plain_name(other)]
        for other in kept:
            if tails[other] in LITERAL_TYPES:
                with self._lock:
                    self._cache.setdefault(label_query(other), {})
        return kept

    def resolve_label(self, entity: str) -> EntityLabel:
        # as in the in-memory store: the first sorted name, else the first
        # sorted alias or owl:sameAs IRI; a blank value never becomes a
        # label
        query = label_query(entity)
        ranked = [(kind == "uri", value) for value, kind
                  in self._cached(query, "tailEntity").items()]
        ranked += [(True, value) for value in self._cached(query, "alias")]
        best = min((pair for pair in ranked if pair[1].strip()),
                   default=None)
        if best is None:
            return EntityLabel(entity, entity, is_fallback=True)
        return EntityLabel(entity, best[1])

    # -- transport -------------------------------------------------------

    def _cached(self, query: str, variable: str) -> dict[str, str | None]:
        """Each value bound to `variable` in the reply to `query`, in
        sorted order, mapped to its binding's `type`. Shared with the
        cache: callers read it and never change it."""
        with self._lock:
            hit = self._cache.get(query)
        if hit is None:
            payload = post_json(
                self._sessions.get(), self.endpoint_url, sleep=self._sleep,
                error=KGError, name="SPARQL", data=query.encode("utf-8"),
                headers={"Content-Type": SPARQL_MIME, "Accept": RESULTS_MIME},
                timeout=TIMEOUT_SECONDS,
            )
            hit = self._parse(payload)
            with self._lock:
                self._cache[query] = hit
        return hit.get(variable, {})

    @staticmethod
    def _parse(payload: dict) -> dict[str, dict[str, str | None]]:
        found: dict[str, dict[str, str | None]] = {}
        try:
            for binding in payload["results"]["bindings"]:
                for variable, entry in binding.items():
                    if entry is None:
                        continue
                    kinds = found.setdefault(variable, {})
                    value = entry.get("value", "").removeprefix(FREEBASE_NS)
                    # an IRI binding wins, so a value that is also an id is
                    # never taken for a literal
                    if value and kinds.get(value) != "uri":
                        kinds[value] = entry.get("type")
        except (KeyError, TypeError, AttributeError):
            raise KGError("malformed SPARQL results payload") from None
        return {variable: dict(sorted(kinds.items()))
                for variable, kinds in found.items()}
