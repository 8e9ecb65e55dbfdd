"""SPARQL query text for Freebase-style endpoints.

Each builder returns the same bytes for the same arguments, with no
trailing newline, so query text is stable enough to key a cache on.
"""

from __future__ import annotations

from .types import FREEBASE_NS, OWL_SAMEAS, Direction


def _query(select: str, where: str) -> str:
    return f"PREFIX ns: <{FREEBASE_NS}>\n{select}\nWHERE {{\n{where}\n}}"


def relations_query(entity: str, direction: Direction) -> str:
    """The distinct relations on `entity`'s edges in `direction`."""
    edge = (f"ns:{entity} ?relation ?x" if direction is Direction.OUTGOING
            else f"?x ?relation ns:{entity}")
    return _query("SELECT DISTINCT ?relation", f"  {edge} .")


def entities_query(entity: str, relation: str, direction: Direction) -> str:
    """The entities one `relation` edge from `entity` in `direction`."""
    edge = (f"ns:{entity} ns:{relation} ?tailEntity"
            if direction is Direction.OUTGOING
            else f"?tailEntity ns:{relation} ns:{entity}")
    return _query("SELECT ?tailEntity", f"  {edge} .")


def label_query(entity: str) -> str:
    """`entity`'s names and owl:sameAs values."""
    branches = [
        f"  {{\n    ?entity {predicate} ?tailEntity .\n"
        f"    FILTER(?entity = ns:{entity})\n  }}"
        for predicate in ("ns:type.object.name", f"<{OWL_SAMEAS}>")
    ]
    return _query("SELECT DISTINCT ?tailEntity", "\n  UNION\n".join(branches))
