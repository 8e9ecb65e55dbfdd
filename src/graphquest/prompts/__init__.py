"""Prompt templates loaded from external text assets.

Each template is one file with named ``{slot}`` placeholders. Rendering
substitutes exactly the declared slots, so literal braces elsewhere in a
template (for example JSON in a worked example) pass through untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

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


class UnknownPromptError(PromptError):
    def __init__(self, template_id: str):
        super().__init__(
            f"unknown prompt template {template_id!r}; expected one of "
            f"{sorted(TEMPLATE_SLOTS)}"
        )
        self.template_id = template_id


class MissingSlotError(PromptError):
    def __init__(self, template_id: str, slot: str):
        super().__init__(
            f"prompt template {template_id!r} requires binding {slot!r}"
        )
        self.template_id = template_id
        self.slot = slot


class PromptAssetError(PromptError):
    pass


@dataclass(frozen=True)
class PromptTemplate:
    template_id: str
    text: str
    slots: tuple[str, ...]

    def render(self, **bindings: str) -> str:
        for slot in self.slots:
            if slot not in bindings:
                raise MissingSlotError(self.template_id, slot)
        unknown = set(bindings) - set(self.slots)
        if unknown:
            raise PromptError(
                f"prompt template {self.template_id!r} has no slot "
                f"{sorted(unknown)[0]!r}"
            )
        rendered = self.text
        for slot in self.slots:
            rendered = rendered.replace("{" + slot + "}", str(bindings[slot]))
        return rendered


class PromptLibrary:
    """Loads the bundled assets, or a directory with the same file names."""

    def __init__(self, directory: str | Path | None = None):
        self._templates: dict[str, PromptTemplate] = {}
        for template_id, slots in TEMPLATE_SLOTS.items():
            text = self._read_asset(template_id, directory)
            for slot in slots:
                if "{" + slot + "}" not in text:
                    raise PromptAssetError(
                        f"template file for {template_id!r} lacks the "
                        f"{{{slot}}} placeholder"
                    )
            self._templates[template_id] = PromptTemplate(
                template_id, text, slots)

    @staticmethod
    def _read_asset(template_id: str, directory: str | Path | None) -> str:
        filename = f"{template_id}.txt"
        if directory is not None:
            path = Path(directory) / filename
            if not path.is_file():
                raise PromptAssetError(f"missing prompt asset {path}")
            return path.read_text(encoding="utf-8")
        asset = resources.files(__package__) / "assets" / filename
        try:
            return asset.read_text(encoding="utf-8")
        except (FileNotFoundError, OSError) as exc:
            raise PromptAssetError(
                f"missing bundled prompt asset {filename}") from exc

    def template_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._templates))

    def get(self, template_id: str) -> PromptTemplate:
        try:
            return self._templates[template_id]
        except KeyError:
            raise UnknownPromptError(template_id) from None

    def render(self, template_id: str, **bindings: str) -> str:
        return self.get(template_id).render(**bindings)
