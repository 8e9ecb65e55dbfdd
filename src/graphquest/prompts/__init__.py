"""Prompt templates loaded from the bundled text assets.

Each template is one file with named ``{slot}`` placeholders. Rendering
substitutes exactly the declared slots, so literal braces elsewhere in a
template (for example JSON in a worked example) pass through untouched,
and in one pass, so a placeholder inside a bound value stays as it is.
"""

from __future__ import annotations

import re
from importlib import resources

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


class PromptError(Exception):
    pass


class PromptLibrary:
    """The bundled templates, read once; `templates` maps id -> text."""

    def __init__(self):
        assets = resources.files(__package__) / "assets"
        self.templates = {
            template_id: (assets / f"{template_id}.txt").read_text(
                encoding="utf-8")
            for template_id in TEMPLATE_SLOTS
        }
        # id -> [literal, slot, literal, ..., slot, literal]: each template
        # split once at its placeholders, so that a render is one join and
        # a placeholder inside a bound value is left as it is
        self._segments = {
            template_id: re.split(
                r"\{(" + "|".join(map(re.escape, slots)) + r")\}",
                self.templates[template_id])
            for template_id, slots in TEMPLATE_SLOTS.items()
        }

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
        segments = self._segments[template_id][:]
        segments[1::2] = [str(bindings[slot]) for slot in segments[1::2]]
        return "".join(segments)
