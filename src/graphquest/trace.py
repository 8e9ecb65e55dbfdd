"""Run traces: an append-only event log persisted as JSON Lines.

Events carry no wall-clock timestamps; elapsed time lives only in the
final event's payload, so two runs of the same scripted configuration
serialize byte-identically except for that one field.

A saved file states each prompt slot's text once. `RunTrace.save` writes
a slot of an `llm_call` event as ``{"seq": N}`` when an earlier
`llm_call` bound the same text to the same slot name, N being the seq of
the first event that bound it; `RunTrace.load` puts the text back, so
loaded events equal the recorded ones. Events in memory, and
`TraceEvent.to_json`, always hold the text itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
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
        except (json.JSONDecodeError, RecursionError) as exc:
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
        """One JSON line per event, each repeated slot text written as a
        reference to the first `llm_call` that bound it.

        A lone surrogate in recorded text, which UTF-8 cannot hold, is
        written as its ``\\uXXXX`` escape, and loads back as itself.
        """
        # (slot, text) -> seq of the first llm_call that bound it
        first: dict[tuple[str, str], int] = {}
        # json.dumps writes raw text only inside strings, where the
        # backslash escape of a surrogate is the JSON escape
        with open(path, "w", encoding="utf-8",
                  errors="backslashreplace") as handle:
            for event in self.events:
                slots = event.payload.get("slots")
                if event.kind == "llm_call" and isinstance(slots, dict):
                    saved = {}
                    for slot, text in slots.items():
                        seq = (first.setdefault((slot, text), event.seq)
                               if isinstance(text, str) else event.seq)
                        saved[slot] = (text if seq == event.seq
                                       else {"seq": seq})
                    event = replace(event,
                                    payload={**event.payload, "slots": saved})
                handle.write(event.to_json())
                handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "RunTrace":
        """The saved events, each slot reference replaced by its text.

        A file that is not UTF-8 text, a bad line or a bad reference is a
        TraceError naming the file (and the line); a leading byte-order
        mark is skipped.
        """
        events = []
        # seq -> slots of each llm_call line read so far, references resolved
        bound: dict[int, dict] = {}
        try:
            with open(path, "r", encoding="utf-8-sig") as handle:
                for number, line in enumerate(handle, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        event = TraceEvent.from_json(line)
                        if event.kind == "llm_call":
                            _resolve_slots(event, bound)
                    except TraceError as exc:
                        raise TraceError(f"{path}:{number}: {exc}") from None
                    events.append(event)
        except UnicodeDecodeError as exc:
            raise TraceError(
                f"{path}: not UTF-8 text ({exc.reason})") from None
        return cls(events=events)


def _resolve_slots(event: TraceEvent, bound: dict[int, dict]) -> None:
    """Replaces each ``{"seq": N}`` slot of a loaded `llm_call` by the text
    that the earlier `llm_call` N bound to the same slot, and adds the
    event's slots to `bound`. A slot value that is an object but not such
    a reference, or whose target holds no text there, is a TraceError."""
    slots = event.payload.get("slots")
    if not isinstance(slots, dict):
        slots = {}
    for slot, value in slots.items():
        if not isinstance(value, dict):
            continue
        seq = value.get("seq")
        # json yields exact types; `true` is no seq here
        if value.keys() != {"seq"} or type(seq) is not int:
            raise TraceError(f'bad trace line: slot {slot!r} is neither '
                             f'text nor a {{"seq": N}} reference')
        if seq not in bound:
            raise TraceError(f"bad trace line: slot {slot!r} refers to seq "
                             f"{seq}, which no earlier llm_call line carries")
        text = bound[seq].get(slot)
        if not isinstance(text, str):
            raise TraceError(f"bad trace line: slot {slot!r} refers to seq "
                             f"{seq}, which binds no text to {slot!r}")
        slots[slot] = text
    bound.setdefault(event.seq, slots)
