"""SPARQL query templates for Freebase-style endpoints.

The templates are frozen byte-for-byte; rendering only substitutes the
``ns:mid`` / ``ns:relation`` placeholder tokens, so query text is stable
enough to key a cache on.
"""

from __future__ import annotations

from .types import KGError

RELATION_OUT_TEMPLATE = """\
PREFIX ns: <http://rdf.freebase.com/ns/>
SELECT DISTINCT ?relation
WHERE {
  ns:mid ?relation ?x .
}"""

RELATION_IN_TEMPLATE = """\
PREFIX ns: <http://rdf.freebase.com/ns/>
SELECT DISTINCT ?relation
WHERE {
  ?x ?relation ns:mid .
}"""

ENTITY_OUT_TEMPLATE = """\
PREFIX ns: <http://rdf.freebase.com/ns/>
SELECT ?tailEntity
WHERE {
  ns:mid ns:relation ?tailEntity .
}"""

ENTITY_IN_TEMPLATE = """\
PREFIX ns: <http://rdf.freebase.com/ns/>
SELECT ?tailEntity
WHERE {
  ?tailEntity ns:relation ns:mid .
}"""

NAME_TEMPLATE = """\
PREFIX ns: <http://rdf.freebase.com/ns/>
SELECT DISTINCT ?tailEntity
WHERE {
  {
    ?entity ns:type.object.name ?tailEntity .
    FILTER(?entity = ns:mid)
  }
  UNION
  {
    ?entity <http://www.w3.org/2002/07/owl#sameAs> ?tailEntity .
    FILTER(?entity = ns:mid)
  }
}"""

TEMPLATES: dict[str, str] = {
    "relation-out": RELATION_OUT_TEMPLATE,
    "relation-in": RELATION_IN_TEMPLATE,
    "entity-out": ENTITY_OUT_TEMPLATE,
    "entity-in": ENTITY_IN_TEMPLATE,
    "name": NAME_TEMPLATE,
}

# bindings each template consumes
_REQUIRED: dict[str, tuple[str, ...]] = {
    "relation-out": ("mid",),
    "relation-in": ("mid",),
    "entity-out": ("mid", "relation"),
    "entity-in": ("mid", "relation"),
    "name": ("mid",),
}


class UnknownTemplateError(KGError):
    def __init__(self, template_id: str):
        super().__init__(
            f"unknown query template {template_id!r}; expected one of "
            f"{sorted(TEMPLATES)}"
        )
        self.template_id = template_id


class MissingBindingError(KGError):
    def __init__(self, template_id: str, binding: str):
        super().__init__(
            f"query template {template_id!r} requires binding {binding!r}"
        )
        self.template_id = template_id
        self.binding = binding


def render_sparql(template_id: str, *, mid: str | None = None,
                  relation: str | None = None) -> str:
    """Render a named template by substituting the placeholder tokens."""
    try:
        text = TEMPLATES[template_id]
    except KeyError:
        raise UnknownTemplateError(template_id) from None
    bindings = {"mid": mid, "relation": relation}
    for name in _REQUIRED[template_id]:
        if bindings[name] is None:
            raise MissingBindingError(template_id, name)
    # ns:relation first: "ns:mid ns:relation" would otherwise corrupt the
    # second token if the mid value ever contained "relation".
    if relation is not None and "relation" in _REQUIRED[template_id]:
        text = text.replace("ns:relation", f"ns:{relation}")
    if mid is not None:
        text = text.replace("ns:mid", f"ns:{mid}")
    return text
