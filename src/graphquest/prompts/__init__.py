"""Prompt templates loaded from the bundled text assets.

Each template is one file with named ``{slot}`` placeholders, read once
per process into `TEMPLATES` (id -> text, read-only). Rendering
substitutes exactly the declared slots, so literal braces elsewhere in a
template (for example JSON in a worked example) pass through untouched,
and in one pass, so a placeholder inside a bound value stays as it is.
A render and a traced call keep one slot rule: the template is bundled,
and each of its declared slots, and no other, is bound to a string.

A trace stores each model call as its template id, its slot bindings and
the digest of its template's text (`PromptLibrary.digest`), not as the
rendered prompt; `PromptLibrary.prompt_of` rebuilds the prompt. Every
method is static: `PromptLibrary()` holds nothing of its own.
"""

from __future__ import annotations

import hashlib
import re
from importlib import resources
from types import MappingProxyType

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
# id -> text of each bundled template
TEMPLATES = MappingProxyType({
    template_id: (_ASSETS / f"{template_id}.txt").read_text(encoding="utf-8")
    for template_id in TEMPLATE_SLOTS})
# id -> [literal, slot, literal, ..., slot, literal]: each template split
# once at its placeholders, so that a render is one join and a placeholder
# inside a bound value is left as it is
_SEGMENTS = {
    template_id: re.split(r"\{(" + "|".join(map(re.escape, slots)) + r")\}",
                          TEMPLATES[template_id])
    for template_id, slots in TEMPLATE_SLOTS.items()
}
# id -> the first 12 hex characters of the sha256 of the text: the
# `template_digest` an llm_call event records
_DIGESTS = {template_id: hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
            for template_id, text in TEMPLATES.items()}


class PromptError(Exception):
    pass


def _slot_problem(template: object, slots: object) -> str | None:
    """How `template` bound to `slots` breaks the slot rule, or None: the
    template is bundled, and `slots` binds each of its declared slots, and
    no other, to a string."""
    if not isinstance(template, str) or template not in TEMPLATE_SLOTS:
        return "is not a bundled template"
    if not isinstance(slots, dict):
        return "has no slots object"
    declared = TEMPLATE_SLOTS[template]
    for slot in declared:
        if not isinstance(slots.get(slot), str):
            return f"slot {slot!r} is missing or not a string"
    if len(slots) != len(declared):
        return f"has no slot {sorted(set(slots) - set(declared))[0]!r}"
    return None


class PromptLibrary:
    """Renders the bundled `TEMPLATES` and rebuilds traced prompts."""

    @staticmethod
    def digest(template_id: str) -> str:
        """The digest of a bundled template's text, as a trace records it."""
        return _DIGESTS[template_id]

    @staticmethod
    def render(template_id: str, **bindings: str) -> str:
        problem = _slot_problem(template_id, bindings)
        if problem is not None:
            raise PromptError(f"prompt template {template_id!r} {problem}")
        segments = _SEGMENTS[template_id][:]
        segments[1::2] = [bindings[slot] for slot in segments[1::2]]
        return "".join(segments)

    @staticmethod
    def prompt_of(event: TraceEvent) -> str:
        """The prompt an `llm_call` event's model call was sent."""
        return "".join(text for _, text in PromptLibrary.parts_of(event))

    @staticmethod
    def parts_of(event: TraceEvent) -> list[tuple[str | None, str]]:
        """An `llm_call` event's prompt as its pieces in order: (slot,
        bound text) per placeholder of the event's template, and (None,
        text) for the template's own text.

        A breach of the slot rule, or a digest that is not the bundled
        template's, is a TraceError naming the template and the event's
        seq.
        """
        payload = event.payload
        template, slots = payload.get("template"), payload.get("slots")
        problem = _slot_problem(template, slots)
        digest = payload.get("template_digest")
        if problem is None and digest != _DIGESTS[template]:
            problem = (f"digest {digest!r} is not this library's "
                       f"{_DIGESTS[template]!r}")
        if problem is not None:
            raise TraceError(f"llm_call event {event.seq}: template "
                             f"{template!r} {problem}")
        segments = _SEGMENTS[template]
        parts: list[tuple[str | None, str]] = [(None, segments[0])]
        for index in range(1, len(segments), 2):
            slot = segments[index]
            parts += (slot, slots[slot]), (None, segments[index + 1])
        return parts
