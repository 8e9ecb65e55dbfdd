import os
from pathlib import Path

import pytest
from hypothesis import settings

from graphquest.kg.memory_store import InMemoryKG
from graphquest.llm.scripted import ScriptedBackend
from graphquest.planner.state import Question

from cases import FIXTURES, PANAMA_QUESTION, PANAMA_TOPICS

# CI runners set CI; a failing property there prints the blob that
# reproduces it with @reproduce_failure.
settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def panama_kg() -> InMemoryKG:
    kg = InMemoryKG()
    kg.load_triples(str(FIXTURES / "panama.tsv"))
    return kg


@pytest.fixture
def panama_llm() -> ScriptedBackend:
    return ScriptedBackend.from_file(str(FIXTURES / "panama_script.json"))


@pytest.fixture
def panama_question() -> Question:
    return Question(PANAMA_QUESTION, PANAMA_TOPICS)


@pytest.fixture
def capitals_kg() -> InMemoryKG:
    kg = InMemoryKG()
    kg.load_triples(str(FIXTURES / "capitals.tsv"))
    return kg


@pytest.fixture
def capitals_llm() -> ScriptedBackend:
    return ScriptedBackend.from_file(str(FIXTURES / "capitals_script.json"))
