"""Tolerant extraction of structured payloads from model output.

Model responses wrap the payload in prose, code fences, or single-quoted
pseudo-JSON. After the fence markers are dropped, the value at the first
bracket is decoded as JSON in one pass, which is what well-formed replies
need. Only when that fails do the parsers fall back to the tolerant
chain: locate the first balanced bracketed span, then decode it as a
Python literal, as JSON without trailing commas, or (lists only) by a
manual split. Whenever the first pass decodes a value, the span chain
would have decoded the same value, so the fallback changes no result.
Every failure is a ParseError, whose text says what was wrong; no input
aborts the process.
"""

from __future__ import annotations

import ast
import json
import re

# A fence opens its own line; a ``` later in a line is content (a JSON
# string cannot hold a raw newline, so it never starts one).
_FENCE = re.compile(r"^[ \t]*```[a-zA-Z0-9_-]*", re.MULTILINE)
_TRAILING_COMMA = re.compile(r",\s*([}\]])")
_DECODER = json.JSONDecoder()

TRUE_WORDS = frozenset({"yes", "true", "y", "1"})
FALSE_WORDS = frozenset({"no", "false", "n", "0"})


class ParseError(ValueError):
    """A response holds no payload of the shape asked for."""


def strip_code_fences(text: str) -> str:
    """Drop the fence markers that open a line, keeping whatever they wrapped."""
    return _FENCE.sub("", text)


def _is_value_position(text: str, index: int) -> bool:
    # A quote only starts a string when it sits where a value may begin;
    # this keeps apostrophes in prose ("don't") from opening a string.
    for j in range(index - 1, -1, -1):
        ch = text[j]
        if ch.isspace():
            continue
        return ch in "[{(,:"
    return True


def _balanced_span(text: str, start: int, open_ch: str, close_ch: str) -> str | None:
    depth = 0
    quote: str | None = None
    escaped = False
    for i in range(start, len(text)):
        ch = text[i]
        if quote is not None:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == quote:
                quote = None
            continue
        if ch in "\"'":
            if _is_value_position(text, i):
                quote = ch
            continue
        if ch == open_ch:
            depth += 1
        elif ch == close_ch:
            depth -= 1
            if depth == 0:
                return text[start:i + 1]
    return None


def _decode_json_at(text: str, start: int):
    """The JSON value that begins at `start`, or None if there is none.

    Valid JSON opens a string only where `_balanced_span` would, so a
    value decoded here ends exactly where that span does."""
    try:
        return _DECODER.raw_decode(text, start)[0]
    except (ValueError, RecursionError):
        return None


def _literal(span: str):
    tree = ast.parse(span, mode="eval")
    for node in ast.walk(tree):
        # a set's order, and so its text, changes with the hash seed; the
        # one call a literal may hold is set()
        if isinstance(node, (ast.Set, ast.Call)):
            raise ValueError("a set has no stable order")
        # an escaped UTF-16 pair is the one character, as in JSON
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            node.value = node.value.encode("utf-16", "surrogatepass") \
                .decode("utf-16", "surrogatepass")
    return ast.literal_eval(tree)


def _decode_span(span: str):
    """The span as a Python literal or as JSON without trailing commas,
    whichever decodes first; None if neither does. Too deep a nesting, an
    unhashable key or set member, or a set anywhere in the value counts
    as undecodable. Plain JSON is not tried: `_decode_json_at` already
    failed on it."""
    for decode in (_literal,
                   lambda text: json.loads(_TRAILING_COMMA.sub(r"\1", text))):
        try:
            return decode(span)
        except (ValueError, TypeError, SyntaxError, MemoryError,
                RecursionError):
            pass
    return None


def _split_items(inner: str) -> list[str]:
    items: list[str] = []
    buffer: list[str] = []
    depth = 0
    quote: str | None = None
    escaped = False
    for ch in inner:
        if quote is not None:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == quote:
                quote = None
            buffer.append(ch)
            continue
        if ch == '"' or (ch == "'" and not "".join(buffer).strip()):
            quote = ch
            buffer.append(ch)
        elif ch in "[{(":
            depth += 1
            buffer.append(ch)
        elif ch in ")}]":
            depth -= 1
            buffer.append(ch)
        elif ch == "," and depth == 0:
            items.append("".join(buffer))
            buffer = []
        else:
            buffer.append(ch)
    items.append("".join(buffer))
    return items


def _clean_item(item: str) -> str:
    item = item.strip()
    if len(item) >= 2 and item[0] == item[-1] and item[0] in "\"'":
        item = item[1:-1].replace("\\" + item[0], item[0])
    return item.strip()


def parse_list(text: str) -> list[str]:
    """Extract the first bracketed list from the response as strings."""
    cleaned = strip_code_fences(text)
    start = cleaned.find("[")
    if start == -1:
        raise ParseError("no bracketed list found in response")
    decoded = _decode_json_at(cleaned, start)
    if decoded is None:
        span = _balanced_span(cleaned, start, "[", "]")
        if span is None:
            raise ParseError("bracketed list is never closed")
        decoded = _decode_span(span)
        if not isinstance(decoded, (list, tuple)):
            decoded = [_clean_item(piece)
                       for piece in _split_items(span[1:-1])]
    items = (str(x).strip() for x in decoded)
    return [item for item in items if item]


def extract_json_object(text: str) -> dict:
    """Extract the first balanced JSON object; no key requirements."""
    cleaned = strip_code_fences(text)
    start = cleaned.find("{")
    if start == -1:
        raise ParseError("no JSON object found in response")
    decoded = _decode_json_at(cleaned, start)
    if decoded is None:
        span = _balanced_span(cleaned, start, "{", "}")
        if span is None:
            raise ParseError("object span could not be decoded: "
                             "object span is never closed")
        decoded = _decode_span(span)
    if not isinstance(decoded, dict):
        raise ParseError("object span could not be decoded: "
                         "span did not decode to an object")
    return {str(key): value for key, value in decoded.items()}


def parse_json_object(text: str, required_keys: set[str]) -> dict:
    """Extract a JSON object and require the given keys (case-sensitive)."""
    if not required_keys:
        raise ValueError("required_keys must be non-empty")
    data = extract_json_object(text)
    for key in sorted(required_keys):
        if key not in data:
            raise ParseError(f"response object lacks required key {key!r} "
                             f"(present: {list(data)})")
    return data


def normalize_bool(value: object) -> bool | None:
    """Map yes/no-style values to booleans; None when unrecognizable."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        if value == 1:
            return True
        if value == 0:
            return False
        return None
    if isinstance(value, str):
        word = value.strip().lower().rstrip(".!")
        if word in TRUE_WORDS:
            return True
        if word in FALSE_WORDS:
            return False
    return None
