"""In-memory triple store with file loaders.

Suited to fixtures and offline evaluation: loads a Freebase-flavored
N-triples subset or a 3-column TSV, as each file's first data line says,
indexes triples by subject and by object, and keeps human-readable names
in a separate label table so relation search only ever surfaces domain
relations.
"""

from __future__ import annotations

import logging
import re
import sys
from itertools import chain
from typing import Iterable, Iterator

from .types import (
    ALIAS_PREDICATES,
    FREEBASE_NS,
    NAME_PREDICATE,
    Direction,
    EntityLabel,
    KGError,
    Triplet,
)

logger = logging.getLogger(__name__)

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


def _unescape(match: re.Match) -> str:
    escape = match.group(1)
    if escape in _ECHARS:
        return _ECHARS[escape]
    if len(escape) > 1 and int(escape[1:], 16) <= sys.maxunicode:
        return chr(int(escape[1:], 16))
    raise ValueError(f"unsupported escape \\{escape} in literal")


def _unescape_literal(raw: str) -> str:
    """Decode the N-Triples escapes, an escaped UTF-16 pair as the one
    character, as `json` does; any other escape is a ValueError."""
    if "\\" not in raw:
        return raw
    return _ESCAPE.sub(_unescape, raw).encode(
        "utf-16", "surrogatepass").decode("utf-16", "surrogatepass")


class InMemoryKG:
    """Triple store over plain dicts; all query results are sorted.

    Every id and relation goes through `_ids`, the store's own table of
    the strings it holds, so a repeated one is stored once. The table is
    the store's, not the interpreter's table of interned strings, so
    what a load costs does not depend on what else the process interned.
    Per entity, `_out` holds one flat list that alternates relation and
    object and `_in` one that alternates relation and subject, both in
    insertion order. `_names` and `_aliases` keep each entity's first
    sorted label only.
    """

    def __init__(self, triples: Iterable[tuple[str, str, str]] = ()):
        self._out: dict[str, list[str]] = {}
        self._in: dict[str, list[str]] = {}
        self._names: dict[str, str] = {}
        self._aliases: dict[str, str] = {}
        self._ids: dict[str, str] = {}
        self._size = 0
        for subject, relation, obj in triples:
            self.add(subject, relation, obj)

    def __len__(self) -> int:
        return self._size

    def add(self, subject: str, relation: str, obj: str) -> None:
        """Insert one triple; name/alias predicates feed the label table."""
        if relation == NAME_PREDICATE:
            _keep_first(self._names, self._ids, subject, obj)
            return
        if relation in ALIAS_PREDICATES:
            _keep_first(self._aliases, self._ids, subject, obj)
            return
        ids = self._ids
        subject = ids.setdefault(subject, subject)
        relation = ids.setdefault(relation, relation)
        obj = ids.setdefault(obj, obj)
        _append(self._out, subject, relation, obj)
        _append(self._in, obj, relation, subject)
        self._size += 1

    def triples(self) -> Iterator[Triplet]:
        for subject, flat in self._out.items():
            pairs = iter(flat)
            for relation, obj in zip(pairs, pairs):
                yield Triplet(subject, relation, obj)

    # -- loading ---------------------------------------------------------

    def load_triples(self, path: str) -> int:
        """Load a triple file; returns the number of data lines parsed.

        The first data line picks the parser for the whole file: one that
        starts with ``<`` means the N-Triples subset, any other TSV.
        Comments, blank lines and a leading byte-order mark are skipped.
        Parsing is all-or-nothing: lines go into a staging store that
        replaces an empty store and is merged into any other, so a
        malformed line (`<path>:<line>: <problem>`) or a file that is not
        UTF-8 text raises a KGError and leaves the store unchanged.
        """
        staged = InMemoryKG()
        # a copy, so a merged load reuses the ids this store already holds
        # and a failed one leaves the table as it was
        staged._ids = dict(self._ids)
        add = staged.add
        count = 0
        try:
            with open(path, "r", encoding="utf-8-sig") as handle:
                lines = enumerate(handle, start=1)
                parse = _parse_tsv
                for number, raw in lines:
                    line = raw.strip()
                    if line and not line.startswith("#"):
                        if line.startswith("<"):
                            parse = _parse_nt
                        # the loop below parses this line too
                        lines = chain([(number, raw)], lines)
                        break
                for number, raw in lines:
                    line = raw.strip()
                    if not line or line.startswith("#"):
                        continue
                    try:
                        triple = parse(line)
                    except ValueError as exc:
                        raise KGError(f"{path}:{number}: {exc}") from None
                    add(*triple)
                    count += 1
        except UnicodeDecodeError as exc:
            raise KGError(f"{path}: not UTF-8 text ({exc.reason})") from None
        self._merge(staged)
        logger.debug("loaded %d triples from %s", count, path)
        return count

    def _merge(self, staged: InMemoryKG) -> None:
        if not (self._out or self._names or self._aliases):
            vars(self).update(vars(staged))
            return
        for mine, theirs in ((self._out, staged._out),
                             (self._in, staged._in)):
            for entity, flat in theirs.items():
                if entity in mine:
                    mine[entity] += flat
                else:
                    mine[entity] = flat
        for mine, theirs in ((self._names, staged._names),
                             (self._aliases, staged._aliases)):
            for entity, label in theirs.items():
                _keep_first(mine, staged._ids, entity, label)
        self._ids = staged._ids
        self._size += staged._size

    # -- queries ---------------------------------------------------------

    def search_relations(self, entity: str, direction: Direction) -> list[str]:
        flat = self._edges(direction).get(entity)
        return sorted(set(flat[::2])) if flat else []

    def search_entities(self, entity: str, relation: str,
                        direction: Direction) -> list[str]:
        flat = self._edges(direction).get(entity)
        if not flat:
            return []
        pairs = iter(flat)
        return sorted({other for rel, other in zip(pairs, pairs)
                       if rel == relation})

    def resolve_label(self, entity: str) -> EntityLabel:
        label = self._names.get(entity) or self._aliases.get(entity)
        # tuple.__new__ skips the NamedTuple's Python-level __new__: a hub
        # hop resolves thousands of labels
        if label is None:
            return tuple.__new__(EntityLabel, (entity, entity, True))
        return tuple.__new__(EntityLabel, (entity, label, False))

    def _edges(self, direction: Direction) -> dict[str, list[str]]:
        return self._out if direction is Direction.OUTGOING else self._in


def _append(index: dict[str, list[str]], entity: str, relation: str,
            other: str) -> None:
    flat = index.get(entity)
    if flat is None:
        index[entity] = [relation, other]
    else:
        flat += relation, other


def _keep_first(labels: dict[str, str], ids: dict[str, str], entity: str,
                label: str) -> None:
    """Keep the first sorted label; a blank one never becomes a label."""
    if label.strip():
        current = labels.get(entity)
        if current is None or label < current:
            labels[ids.setdefault(entity, entity)] = label


def _parse_tsv(line: str) -> tuple[str, str, str]:
    columns = line.split("\t")
    if len(columns) < 3:
        raise ValueError(
            f"expected 3 tab-separated columns, got {len(columns)}")
    subject, relation, obj = (columns[0].strip(), columns[1].strip(),
                              columns[2].strip())
    if not subject or not relation or not obj:
        raise ValueError("empty column")
    return subject, relation, obj


def _parse_nt(line: str) -> tuple[str, str, str]:
    match = _NT_LINE.match(line)
    if match is None:
        raise ValueError("not a recognized triple line")
    subject = match.group(1).removeprefix(FREEBASE_NS)
    relation = match.group(2).removeprefix(FREEBASE_NS)
    raw_obj = match.group(3)
    if raw_obj.startswith("<"):
        obj = raw_obj[1:-1].removeprefix(FREEBASE_NS)
    else:
        literal = _LITERAL.match(raw_obj)
        if literal is None:
            raise ValueError("malformed literal")
        obj = _unescape_literal(literal.group(1))
    return subject, relation, obj
