"""Run traces: an append-only event log persisted as JSON Lines.

Events carry no wall-clock timestamps; elapsed time lives only in the
final event's payload, so two runs of the same scripted configuration
serialize byte-identically except for that one field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator

from .llm.types import Usage

EVENT_KINDS = frozenset({
    "kg_query",
    "llm_call",
    "selection",
    "memory_update",
    "verdict",
    "reflection",
    "final",
})


# the type each event field must have in a saved trace line
_FIELD_TYPES = {"seq": int, "kind": str, "iteration": int, "payload": dict}


class TraceError(ValueError):
    pass


@dataclass
class TraceEvent:
    seq: int
    kind: str
    iteration: int
    payload: dict
    usage: Usage | None = None

    def to_json(self) -> str:
        record: dict = {
            "seq": self.seq,
            "kind": self.kind,
            "iteration": self.iteration,
            "payload": self.payload,
        }
        if self.usage is not None:
            record["usage"] = {
                "input_tokens": self.usage.input_tokens,
                "output_tokens": self.usage.output_tokens,
            }
        return json.dumps(record, ensure_ascii=False, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceError(f"bad trace line: {exc}") from exc
        if not isinstance(record, dict):
            raise TraceError("bad trace line: not a JSON object")
        for name, kind in _FIELD_TYPES.items():
            # json yields exact types; `true` is no int here
            if type(record.get(name)) is not kind:
                raise TraceError(f"bad trace line: {name!r} is missing or "
                                 f"not {kind.__name__}")
        if record["kind"] not in EVENT_KINDS:
            raise TraceError(
                f"bad trace line: unknown kind {record['kind']!r}")
        usage = None
        if "usage" in record:
            try:
                usage = Usage(record["usage"]["input_tokens"],
                              record["usage"]["output_tokens"])
            except (KeyError, TypeError, ValueError):
                raise TraceError("bad trace line: malformed 'usage'") from None
        return cls(**{name: record[name] for name in _FIELD_TYPES},
                   usage=usage)


@dataclass
class RunTrace:
    events: list[TraceEvent] = field(default_factory=list)

    def record(self, kind: str, iteration: int, payload: dict,
               usage: Usage | None = None) -> TraceEvent:
        if kind not in EVENT_KINDS:
            raise TraceError(f"unknown trace event kind {kind!r}")
        event = TraceEvent(
            seq=len(self.events),
            kind=kind,
            iteration=iteration,
            payload=payload,
            usage=usage,
        )
        self.events.append(event)
        return event

    def iter_kind(self, kind: str) -> Iterator[TraceEvent]:
        return (event for event in self.events if event.kind == kind)

    def final_event(self) -> TraceEvent | None:
        for event in reversed(self.events):
            if event.kind == "final":
                return event
        return None

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for event in self.events:
                handle.write(event.to_json())
                handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "RunTrace":
        events = []
        try:
            with open(path, "r", encoding="utf-8") as handle:
                for number, line in enumerate(handle, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        events.append(TraceEvent.from_json(line))
                    except TraceError as exc:
                        raise TraceError(f"{path}:{number}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise TraceError(
                f"{path}: not UTF-8 text ({exc.reason})") from None
        return cls(events=events)
