"""In-memory triple store with file loaders.

Suited to fixtures and offline evaluation: loads a Freebase-flavored
N-triples subset or a 3-column TSV, indexes triples by subject and by
object, and keeps human-readable names in a separate label table so
relation search only ever surfaces domain relations.
"""

from __future__ import annotations

import logging
import re
import sys
from collections import defaultdict
from typing import Iterable, Iterator

from .types import (
    FREEBASE_NS,
    OWL_SAMEAS,
    Direction,
    EntityLabel,
    KGError,
    Triplet,
)

logger = logging.getLogger(__name__)

NAME_PREDICATE = "type.object.name"
ALIAS_PREDICATES = frozenset({"common.topic.alias", OWL_SAMEAS})

# <iri> or "literal" (escapes allowed) with optional @lang / ^^<datatype>
_NT_LINE = re.compile(
    r'^<([^>]+)>\s+<([^>]+)>\s+'
    r'(<[^>]+>|"(?:[^"\\]|\\.)*"(?:@[A-Za-z0-9-]+|\^\^<[^>]*>)?)'
    r'\s*\.$'
)
_LITERAL = re.compile(r'^"((?:[^"\\]|\\.)*)"')
# a backslash escape in a literal: \uXXXX, \UXXXXXXXX or one character
_ESCAPE = re.compile(r"\\(u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8}|.)")
_ECHARS = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
           '"': '"', "'": "'", "\\": "\\"}

FORMATS = ("ntriples-subset", "tab-separated")


class TripleLoadError(KGError):
    def __init__(self, path: str, line_number: int, message: str):
        super().__init__(f"{path}:{line_number}: {message}")
        self.path = path
        self.line_number = line_number


def _unescape(match: re.Match) -> str:
    escape = match.group(1)
    if escape in _ECHARS:
        return _ECHARS[escape]
    if len(escape) > 1 and int(escape[1:], 16) <= sys.maxunicode:
        return chr(int(escape[1:], 16))
    raise ValueError(f"unsupported escape \\{escape} in literal")


def _unescape_literal(raw: str) -> str:
    """Decode the N-Triples escapes; any other escape is a ValueError."""
    return _ESCAPE.sub(_unescape, raw) if "\\" in raw else raw


class InMemoryKG:
    """Triple store over plain dicts; all query results are sorted."""

    def __init__(self, triples: Iterable[tuple[str, str, str]] = ()):
        self._by_subject: dict[str, list[Triplet]] = defaultdict(list)
        self._by_object: dict[str, list[Triplet]] = defaultdict(list)
        self._names: dict[str, list[str]] = defaultdict(list)
        self._aliases: dict[str, list[str]] = defaultdict(list)
        self._size = 0
        for subject, relation, obj in triples:
            self.add(subject, relation, obj)

    def __len__(self) -> int:
        return self._size

    def add(self, subject: str, relation: str, obj: str) -> None:
        """Insert one triple; name/alias predicates feed the label table."""
        if relation == NAME_PREDICATE:
            self._names[subject].append(obj)
            return
        if relation in ALIAS_PREDICATES:
            self._aliases[subject].append(obj)
            return
        triple = Triplet(subject, relation, obj)
        self._by_subject[subject].append(triple)
        self._by_object[obj].append(triple)
        self._size += 1

    def triples(self) -> Iterator[Triplet]:
        for bucket in self._by_subject.values():
            yield from bucket

    # -- loading ---------------------------------------------------------

    def load_triples(self, path: str, format: str = "tab-separated") -> int:
        """Load a triple file; returns the number of data lines parsed.

        Parsing is all-or-nothing: a malformed line raises TripleLoadError
        (with its line number) and leaves the store unchanged.
        """
        if format not in FORMATS:
            raise KGError(
                f"unknown triple format {format!r}; expected one of {FORMATS}"
            )
        parsed: list[tuple[str, str, str]] = []
        with open(path, "r", encoding="utf-8") as handle:
            for number, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if format == "tab-separated":
                    parsed.append(self._parse_tsv(path, number, line))
                else:
                    parsed.append(self._parse_nt(path, number, line))
        for subject, relation, obj in parsed:
            self.add(subject, relation, obj)
        logger.debug("loaded %d triples from %s", len(parsed), path)
        return len(parsed)

    @staticmethod
    def _parse_tsv(path: str, number: int, line: str) -> tuple[str, str, str]:
        columns = line.split("\t")
        if len(columns) < 3:
            raise TripleLoadError(
                path, number, f"expected 3 tab-separated columns, got {len(columns)}"
            )
        subject, relation, obj = (c.strip() for c in columns[:3])
        if not subject or not relation or not obj:
            raise TripleLoadError(path, number, "empty column")
        return subject, relation, obj

    @staticmethod
    def _parse_nt(path: str, number: int, line: str) -> tuple[str, str, str]:
        match = _NT_LINE.match(line)
        if match is None:
            raise TripleLoadError(path, number, "not a recognized triple line")
        subject = match.group(1).removeprefix(FREEBASE_NS)
        relation = match.group(2).removeprefix(FREEBASE_NS)
        raw_obj = match.group(3)
        if raw_obj.startswith("<"):
            obj = raw_obj[1:-1].removeprefix(FREEBASE_NS)
        else:
            literal = _LITERAL.match(raw_obj)
            if literal is None:
                raise TripleLoadError(path, number, "malformed literal")
            try:
                obj = _unescape_literal(literal.group(1))
            except ValueError as exc:
                raise TripleLoadError(path, number, str(exc)) from None
        return subject, relation, obj

    # -- queries ---------------------------------------------------------

    def search_relations(self, entity: str, direction: Direction) -> list[str]:
        if direction is Direction.OUTGOING:
            bucket = self._by_subject.get(entity, [])
        else:
            bucket = self._by_object.get(entity, [])
        return sorted({t.relation for t in bucket})

    def search_entities(self, entity: str, relation: str,
                        direction: Direction) -> list[str]:
        if direction is Direction.OUTGOING:
            found = {
                t.object for t in self._by_subject.get(entity, [])
                if t.relation == relation
            }
        else:
            found = {
                t.subject for t in self._by_object.get(entity, [])
                if t.relation == relation
            }
        return sorted(found)

    def resolve_label(self, entity: str) -> EntityLabel:
        names = self._names.get(entity)
        if names:
            return EntityLabel(entity, sorted(names)[0])
        aliases = self._aliases.get(entity)
        if aliases:
            return EntityLabel(entity, sorted(aliases)[0])
        return EntityLabel(entity, entity, is_fallback=True)
