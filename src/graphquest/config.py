"""Flat key=value configuration and planner assembly.

Config files use dotted keys, one per line (``planner.max_depth = 4``);
a ``#`` at the start of a line or after whitespace starts a comment.
Command-line flags override file values, which override defaults. Each
key sets one dataclass field (``SETTINGS``): the field's annotation
gives the value's type, and its default is the setting's default. Each
backend is picked by the setting that is present: the graph by exactly
one of ``kg.path`` and ``kg.endpoint``, the model by exactly one of
``llm.script`` and ``llm.base_url``, and the recall scorer by whether
``recall.endpoint`` is set; a flag's backend replaces the file's. API
credentials are read from the environment only (GRAPHQUEST_API_KEY,
falling back to OPENAI_API_KEY), never from files or flags.
"""

from __future__ import annotations

import dataclasses
import logging
import re
from dataclasses import dataclass, field

from .kg.memory_store import InMemoryKG
from .kg.sparql_client import SparqlKG
from .llm.http_client import ChatCompletionsBackend
from .llm.scripted import ScriptedBackend
from .llm.types import GenerationConfig
from .planner.engine import Planner
from .planner.state import AblationFlags, PlannerConfig, StateError
from .recall import (
    RecallConfig,
    RecallError,
    RemoteEmbeddingScorer,
    TrigramScorer,
)

logger = logging.getLogger(__name__)

# a "#" that starts a comment; one inside a value ("graph#1.tsv") stays
_COMMENT = re.compile(r"(?:^|\s)#")

BOOL_WORDS = {"true": True, "1": True, "yes": True, "on": True,
              "false": False, "0": False, "no": False, "off": False}


class ConfigError(ValueError):
    pass


@dataclass
class AppConfig:
    kg_path: str | None = None
    kg_endpoint: str | None = None
    llm_script: str | None = None
    llm_base_url: str | None = None
    recall_endpoint: str | None = None
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    output_dir: str = "runs"


# dotted key -> (dataclass, field the key sets)
SETTINGS: dict[str, tuple[type, str]] = {
    "kg.path": (AppConfig, "kg_path"),
    "kg.endpoint": (AppConfig, "kg_endpoint"),
    "llm.script": (AppConfig, "llm_script"),
    "llm.base_url": (AppConfig, "llm_base_url"),
    "llm.model": (GenerationConfig, "model"),
    "llm.temperature": (GenerationConfig, "temperature"),
    "llm.max_tokens": (GenerationConfig, "max_tokens"),
    "planner.max_depth": (PlannerConfig, "max_depth"),
    "planner.no_guidance": (AblationFlags, "no_guidance"),
    "planner.no_memory": (AblationFlags, "no_memory"),
    "planner.no_reflection": (AblationFlags, "no_reflection"),
    "planner.fixed_breadth": (AblationFlags, "fixed_breadth"),
    "recall.threshold": (RecallConfig, "threshold"),
    "recall.k": (RecallConfig, "k"),
    "recall.endpoint": (AppConfig, "recall_endpoint"),
    "output.dir": (AppConfig, "output_dir"),
}

# each backend's two sources, of which exactly one is set
BACKEND_KEYS = (("kg.path", "kg.endpoint"), ("llm.script", "llm.base_url"))

# annotation (without "| None") -> (parser, what a bad value should be)
PARSERS = {
    "bool": (lambda text: BOOL_WORDS[text.strip().lower()], "a boolean"),
    "int": (int, "an integer"),
    "float": (float, "a number"),
    "str": (str, "a string"),
}


def load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            for number, raw in enumerate(handle, start=1):
                line = _COMMENT.split(raw, 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{number}: expected "
                                      f"'key = value', got {line!r}")
                key, value = line.split("=", 1)
                values[key.strip()] = value.strip()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return values


def _parse(key: str, value: str):
    cls, name = SETTINGS[key]
    # annotations are postponed, so each is a string such as "int | None"
    annotation = next(f.type for f in dataclasses.fields(cls)
                      if f.name == name)
    parse, expected = PARSERS[annotation.split(" | ")[0]]
    try:
        return parse(value)
    except (KeyError, ValueError):
        raise ConfigError(
            f"{key}: expected {expected}, got {value!r}") from None


def build_app_config(file_values: dict[str, str] | None = None,
                     overrides: dict[str, str] | None = None) -> AppConfig:
    """Merge defaults, file values, and flag overrides (in that order);
    an override of either key of a BACKEND_KEYS pair replaces both."""
    overrides = overrides or {}
    merged = dict(file_values or {})
    for pair in BACKEND_KEYS:
        if overrides.keys() & set(pair):
            for key in pair:
                merged.pop(key, None)
    values: dict[type, dict] = {cls: {} for cls, _ in SETTINGS.values()}
    for key, value in {**merged, **overrides}.items():
        if key not in SETTINGS:
            raise ConfigError(
                f"unknown config key {key!r}; known keys: "
                f"{', '.join(sorted(SETTINGS))}"
            )
        cls, name = SETTINGS[key]
        values[cls][name] = _parse(key, str(value))
    try:
        generation = GenerationConfig(**values[GenerationConfig])
    except ValueError as exc:
        # each GenerationConfig field is set by the key "llm.<field>"
        raise ConfigError(f"llm.{exc}") from None
    try:
        planner = PlannerConfig(
            ablations=AblationFlags(**values[AblationFlags]),
            generation=generation,
            recall=RecallConfig(**values[RecallConfig]),
            **values[PlannerConfig],
        )
    except (StateError, RecallError) as exc:
        raise ConfigError(str(exc)) from None
    app = AppConfig(planner=planner, **values[AppConfig])
    _validate(app)
    return app


def _validate(app: AppConfig) -> None:
    for pair in BACKEND_KEYS:
        count = sum(bool(getattr(app, SETTINGS[key][1])) for key in pair)
        if count != 1:
            raise ConfigError(f"exactly one of {' and '.join(pair)} must "
                              f"be set, got {'both' if count else 'neither'}")


def build_planner(app: AppConfig) -> Planner:
    """A planner over the configured graph, model and recall scorer."""
    if app.kg_path:
        kg = InMemoryKG()
        count = kg.load_triples(app.kg_path)
        logger.info("loaded %d triples from %s", count, app.kg_path)
    else:
        kg = SparqlKG(app.kg_endpoint)
    if app.llm_script:
        llm = ScriptedBackend.from_file(app.llm_script)
    else:
        llm = ChatCompletionsBackend(app.llm_base_url)
    if app.recall_endpoint:
        scorer = RemoteEmbeddingScorer(app.recall_endpoint)
    else:
        scorer = TrigramScorer()
    return Planner(kg, llm, app.planner, scorer=scorer)
