"""Prompt templates loaded from the bundled text assets.

Each template is one file with named ``{slot}`` placeholders. Rendering
substitutes exactly the declared slots, so literal braces elsewhere in a
template (for example JSON in a worked example) pass through untouched.
"""

from __future__ import annotations

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
        rendered = self.templates[template_id]
        for slot in slots:
            rendered = rendered.replace("{" + slot + "}", str(bindings[slot]))
        return rendered
