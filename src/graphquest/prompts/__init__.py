"""Prompt templates loaded from the bundled text assets.

Each template is one file with named ``{slot}`` placeholders. Rendering
substitutes exactly the declared slots, so literal braces elsewhere in a
template (for example JSON in a worked example) pass through untouched,
and in one pass, so a placeholder inside a bound value stays as it is.

A trace stores each model call as its template id, its slot bindings and
the digest of its template's text (`PromptLibrary.digest`), not as the
rendered prompt; `PromptLibrary.prompt_of` rebuilds the prompt.
"""

from __future__ import annotations

import hashlib
import re
from importlib import resources

from ..trace import TraceError, TraceEvent

TEMPLATE_SLOTS: dict[str, tuple[str, ...]] = {
    "decompose": ("question",),
    "relation_selection": ("question", "sub_objectives", "topic_entity",
                           "relations"),
    "entity_selection": ("question", "triplets"),
    "memory_update": ("question", "sub_objectives", "memory", "triplets"),
    "answer": ("question", "memory", "triplets"),
    "reflection": ("question", "entities", "memory", "triplets"),
    "backtrack_selection": ("question", "reason", "candidates", "memory"),
}


_ASSETS = resources.files(__package__) / "assets"
# id -> text of each bundled template, read once per process
_BUNDLED = {template_id: (_ASSETS / f"{template_id}.txt").read_text(
                encoding="utf-8")
            for template_id in TEMPLATE_SLOTS}
# id -> [literal, slot, literal, ..., slot, literal]: each template split
# once at its placeholders, so that a render is one join and a placeholder
# inside a bound value is left as it is
_SEGMENTS = {
    template_id: re.split(r"\{(" + "|".join(map(re.escape, slots)) + r")\}",
                          _BUNDLED[template_id])
    for template_id, slots in TEMPLATE_SLOTS.items()
}
# id -> the first 12 hex characters of the sha256 of the text: the
# `template_digest` an llm_call event records
_DIGESTS = {template_id: hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
            for template_id, text in _BUNDLED.items()}


class PromptError(Exception):
    pass


class PromptLibrary:
    """The bundled templates; `templates` maps id -> text."""

    def __init__(self):
        self.templates = dict(_BUNDLED)

    @staticmethod
    def digest(template_id: str) -> str:
        """The digest of a bundled template's text, as a trace records it."""
        return _DIGESTS[template_id]

    def render(self, template_id: str, **bindings: str) -> str:
        slots = TEMPLATE_SLOTS.get(template_id)
        if slots is None:
            raise PromptError(
                f"unknown prompt template {template_id!r}; expected one of "
                f"{sorted(TEMPLATE_SLOTS)}")
        for slot in slots:
            if slot not in bindings:
                raise PromptError(f"prompt template {template_id!r} "
                                  f"requires binding {slot!r}")
        unknown = set(bindings) - set(slots)
        if unknown:
            raise PromptError(f"prompt template {template_id!r} has no slot "
                              f"{sorted(unknown)[0]!r}")
        segments = _SEGMENTS[template_id][:]
        segments[1::2] = [str(bindings[slot]) for slot in segments[1::2]]
        return "".join(segments)

    def prompt_of(self, event: TraceEvent) -> str:
        """The prompt an `llm_call` event's model call was sent."""
        _, parts = self.parts_of(event)
        return "".join(text for _, text in parts)

    def parts_of(self, event: TraceEvent
                 ) -> tuple[str | None, list[tuple[str | None, str]]]:
        """An `llm_call` event's prompt as its template id and its pieces
        in order: (slot, bound text) per placeholder, and (None, text) for
        the template's own text.

        An event saved before calls were stored as template and slots
        holds its prompt literally: that is (None, [(None, prompt)]).
        Otherwise the event's template is bound to its slots; an unknown
        template, a slot missing, unknown or not a string, or a digest
        that is not this library's for the template is a TraceError
        naming the template and the event's seq.
        """
        payload = event.payload
        if "prompt" in payload:
            if not isinstance(payload["prompt"], str):
                raise TraceError(f"llm_call event {event.seq}: its saved "
                                 f"prompt is not a string")
            return None, [(None, payload["prompt"])]
        template = payload.get("template")

        def fail(problem: str) -> TraceError:
            return TraceError(f"llm_call event {event.seq}: template "
                              f"{template!r} {problem}")

        if not isinstance(template, str) or template not in TEMPLATE_SLOTS:
            raise fail("is not a bundled template")
        slots = payload.get("slots")
        if not isinstance(slots, dict):
            raise fail("has no slots object")
        for slot in TEMPLATE_SLOTS[template]:
            if not isinstance(slots.get(slot), str):
                raise fail(f"slot {slot!r} is missing or not a string")
        unknown = set(slots) - set(TEMPLATE_SLOTS[template])
        if unknown:
            raise fail(f"has no slot {sorted(unknown)[0]!r}")
        digest = payload.get("template_digest")
        if digest != _DIGESTS[template]:
            raise fail(f"digest {digest!r} is not this library's "
                       f"{_DIGESTS[template]!r}")
        segments = _SEGMENTS[template]
        parts: list[tuple[str | None, str]] = [(None, segments[0])]
        for index in range(1, len(segments), 2):
            slot = segments[index]
            parts += (slot, slots[slot]), (None, segments[index + 1])
        return template, parts
