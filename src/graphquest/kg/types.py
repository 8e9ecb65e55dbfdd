"""Shared types and IRIs for the knowledge-graph backends."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Protocol

FREEBASE_NS = "http://rdf.freebase.com/ns/"
OWL_SAMEAS = "http://www.w3.org/2002/07/owl#sameAs"
# label predicates, as the stores name them: they feed labels, never a
# relation search
NAME_PREDICATE = "type.object.name"
ALIAS_PREDICATES = frozenset({"common.topic.alias", OWL_SAMEAS})


class KGError(Exception):
    """A knowledge-graph backend failed."""


class Direction(enum.Enum):
    """Edge orientation relative to the entity being expanded."""

    OUTGOING = "outgoing"
    INCOMING = "incoming"

    # Members are singletons compared by identity, so the identity hash
    # agrees with `==`; Enum's own `__hash__` is Python code, and the
    # planner hashes a direction with every relation edge it records.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class Triplet:
    subject: str
    relation: str
    object: str


class EntityLabel(NamedTuple):
    # A tuple, not a frozen dataclass: the store builds one per label
    # lookup, and a tuple is about half the cost to construct.
    entity: str
    label: str
    # True when no human-readable name was found and `label` is the raw id.
    is_fallback: bool = False


class KGBackend(Protocol):
    """What the planner needs from any knowledge-graph backend.

    Each search returns distinct values. A backend whose calls wait on
    the network sets `waits_on_network = True` and must then be safe to
    call from several threads at once (see `graphquest.fanout`).
    """

    def search_relations(self, entity: str,
                         direction: Direction) -> list[str]:
        ...

    def search_entities(self, entity: str, relation: str,
                        direction: Direction) -> list[str]:
        ...

    def resolve_label(self, entity: str) -> EntityLabel:
        ...
