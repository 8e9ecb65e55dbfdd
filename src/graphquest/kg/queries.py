"""SPARQL query text for Freebase-style endpoints.

Each builder returns the same bytes for the same arguments, with no
trailing newline, so query text is stable enough to key a cache on. Each
id and relation is spliced in as `ns:{term}`, so a term that is not a
plain Freebase local name (letters, digits and `_`, with `.` and `-`
inside) is a KGError before any query exists: it could end the term
early, add a clause, or name an IRI outside the namespace.
"""

from __future__ import annotations

import re

from .types import FREEBASE_NS, OWL_SAMEAS, Direction, KGError

_PLAIN_NAME = re.compile(r"[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?")


def is_plain_name(term: str) -> bool:
    """Whether `term` can be spliced into a query as `ns:{term}`."""
    return _PLAIN_NAME.fullmatch(term) is not None


def _ns(term: str) -> str:
    if not is_plain_name(term):
        raise KGError(f"not a plain Freebase name: {term!r}")
    return f"ns:{term}"


def _query(select: str, where: str) -> str:
    return f"PREFIX ns: <{FREEBASE_NS}>\n{select}\nWHERE {{\n{where}\n}}"


def relations_query(entity: str, direction: Direction) -> str:
    """The distinct relations on `entity`'s edges in `direction`."""
    entity = _ns(entity)
    edge = (f"{entity} ?relation ?x" if direction is Direction.OUTGOING
            else f"?x ?relation {entity}")
    return _query("SELECT DISTINCT ?relation", f"  {edge} .")


def entities_query(entity: str, relation: str, direction: Direction) -> str:
    """The entities one `relation` edge from `entity` in `direction`."""
    entity, relation = _ns(entity), _ns(relation)
    edge = (f"{entity} {relation} ?tailEntity"
            if direction is Direction.OUTGOING
            else f"?tailEntity {relation} {entity}")
    return _query("SELECT ?tailEntity", f"  {edge} .")


def label_query(entity: str) -> str:
    """`entity`'s names and owl:sameAs values, as ?tailEntity, and its
    common.topic.alias values, as ?alias."""
    entity = _ns(entity)
    branches = [
        f"  {{\n    ?entity {predicate} ?{variable} .\n"
        f"    FILTER(?entity = {entity})\n  }}"
        for predicate, variable in (("ns:type.object.name", "tailEntity"),
                                    (f"<{OWL_SAMEAS}>", "tailEntity"),
                                    ("ns:common.topic.alias", "alias"))
    ]
    return _query("SELECT DISTINCT ?tailEntity ?alias",
                  "\n  UNION\n".join(branches))
