"""Knowledge-graph backends: in-memory fixtures and SPARQL endpoints."""

from .memory_store import InMemoryKG, TripleLoadError
from .queries import (
    MissingBindingError,
    TEMPLATES,
    UnknownTemplateError,
    render_sparql,
)
from .sparql_client import BackendUnreachableError, SparqlKG
from .types import Direction, EntityLabel, KGError, Triplet

__all__ = [
    "BackendUnreachableError",
    "Direction",
    "EntityLabel",
    "InMemoryKG",
    "KGError",
    "MissingBindingError",
    "SparqlKG",
    "TEMPLATES",
    "TripleLoadError",
    "Triplet",
    "UnknownTemplateError",
    "render_sparql",
]
