import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphquest.llm import parsing
from graphquest.llm.parsing import (
    ParseError,
    extract_json_object,
    normalize_bool,
    parse_json_object,
    parse_list,
    strip_code_fences,
)

# the text of each ParseError the parsers raise, other than a missing key
NO_LIST = "no bracketed list found in response"
UNBALANCED = "bracketed list is never closed"
NO_OBJECT = "no JSON object found in response"
NEVER_CLOSED = "object span could not be decoded: object span is never closed"
NOT_AN_OBJECT = ("object span could not be decoded: "
                 "span did not decode to an object")


def raises_exactly(message):
    return pytest.raises(ParseError, match=f"^{re.escape(message)}$")


class TestParseList:
    # frozen input/output pairs covering the messy shapes models emit
    @pytest.mark.parametrize("text,expected", [
        ('["location.country.capital"]', ["location.country.capital"]),
        ('["a", "b", "c"]', ["a", "b", "c"]),
        ("['single', 'quotes']", ["single", "quotes"]),
        ('Sure! Here you go: ["x", "y"] Hope that helps.', ["x", "y"]),
        ('```json\n["fenced"]\n```', ["fenced"]),
        ('[bare, words]', ["bare", "words"]),
        ('["trailing",]', ["trailing"]),
        ('["nested [bracket] inside"]', ["nested [bracket] inside"]),
        ('["comma, inside quotes", "b"]', ["comma, inside quotes", "b"]),
        ('[]', []),
        ('[ "", "keep" ]', ["keep"]),
        ('[1, 2]', ["1", "2"]),
        ('[["inner"], "outer"]', ["['inner']", "outer"]),
        ('["don\'t stop"]', ["don't stop"]),
        ('[first] and later [second]', ["first"]),
        # a fence marker inside a JSON string is content, not markup
        ('["```"]', ["```"]),
        ('```json\n["a ```b``` c", "d"]\n```', ["a ```b``` c", "d"]),
        # a quote after the whitespace that follows a comma opens a string;
        # an apostrophe inside a bare word is content
        ("[bare, 'x, y']", ["bare", "x, y"]),
        ("[don't, stop]", ["don't", "stop"]),
    ])
    def test_examples(self, text, expected):
        assert parse_list(text) == expected

    @pytest.mark.parametrize("escaped", [
        r"\ud83d\ude00 x", r"\uD83D\uDE00", r"\ud83d", r"\ude00\ud83d",
        r"\\ud83d\ude00", r"\ud83d\\ude00",
    ])
    def test_a_single_quoted_escape_decodes_as_json_does(self, escaped):
        # an escaped UTF-16 pair is the one character; a lone half stays
        assert parse_list(f"['{escaped}']") == parse_list(f'["{escaped}"]')
        assert extract_json_object(f"{{'{escaped}': '{escaped}'}}") == \
            extract_json_object(f'{{"{escaped}": "{escaped}"}}')

    def test_no_list(self):
        with raises_exactly(NO_LIST):
            parse_list("there is nothing here")

    def test_unbalanced(self):
        with raises_exactly(UNBALANCED):
            parse_list('["open and never closed"')

    def test_error_hierarchy(self):
        assert issubclass(ParseError, ValueError)


class TestExtractObject:
    @pytest.mark.parametrize("text,expected", [
        ('{"A": "Danube", "R": "because"}', {"A": "Danube", "R": "because"}),
        ("{'A': 'single', 'R': 'quoted'}", {"A": "single", "R": "quoted"}),
        ('prose first {"Add": "Yes"} prose after', {"Add": "Yes"}),
        ('```json\n{"k": [1, 2]}\n```', {"k": [1, 2]}),
        ('{"a": {"nested": "obj"}}', {"a": {"nested": "obj"}}),
        ('{"a": "x",}', {"a": "x"}),
        ('{"a": "brace } in quotes"}', {"a": "brace } in quotes"}),
        ('```json\n{"A": "run ```x```"}\n```', {"A": "run ```x```"}),
    ])
    def test_examples(self, text, expected):
        assert extract_json_object(text) == expected

    def test_no_object(self):
        with raises_exactly(NO_OBJECT):
            extract_json_object("no braces at all")

    def test_never_closed(self):
        with raises_exactly(NEVER_CLOSED):
            extract_json_object('{"open": "forever"')

    def test_non_object_decode(self):
        with raises_exactly(NOT_AN_OBJECT):
            extract_json_object("{broken without quotes or structure!!}")

    def test_keys_coerced_to_strings(self):
        assert extract_json_object("{1: 'one'}") == {"1": "one"}


class TestParseJsonObject:
    def test_required_keys_present(self):
        data = parse_json_object('{"A": "x", "R": "y", "extra": 1}',
                                 {"A", "R"})
        assert data["A"] == "x" and data["extra"] == 1

    def test_missing_key_reports_sorted_first(self):
        with raises_exactly(
                "response object lacks required key 'A' (present: ['R'])"):
            parse_json_object('{"R": "only"}', {"A", "R"})

    def test_keys_are_case_sensitive(self):
        with raises_exactly("response object lacks required key 'Add' "
                            "(present: ['add', 'reason'])"):
            parse_json_object('{"add": "Yes", "reason": "r"}',
                              {"Add", "Reason"})

    def test_empty_required_keys_is_a_usage_error(self):
        with pytest.raises(ValueError):
            parse_json_object('{"a": 1}', set())


class TestNormalizeBool:
    @pytest.mark.parametrize("value,expected", [
        (True, True), (False, False),
        ("Yes", True), ("no", False),
        ("YES.", True), ("No!", False),
        ("y", True), ("n", False),
        ("true", True), ("False", False),
        (1, True), (0, False), (1.0, True),
        ("maybe", None), (2, None), (None, None), ("", None),
        ({"Add": "Yes"}, None),
    ])
    def test_examples(self, value, expected):
        assert normalize_bool(value) is expected


# Decodes each reply with the named parser and prints the result, or the
# error's text, as JSON; a set is printed as its text.
_DECODE_SCRIPT = """
import json, sys
from graphquest.llm import parsing
out = []
for name, text in json.loads(sys.argv[1]):
    try:
        out.append(getattr(parsing, name)(text))
    except parsing.ParseError as exc:
        out.append("error: " + str(exc))
print(json.dumps(out, default=str))
"""

SET_REPLIES = [
    ("parse_list", "[{'alpha', 'beta', 'gamma'}, 'x']"),
    ("parse_list", "[[1, {'alpha', 'beta', 'gamma'}], 'x']"),
    ("extract_json_object", "{'A': {'alpha', 'beta', 'gamma'}, 'R': 'r'}"),
    ("extract_json_object", "{'A': ['x', {'k': {'alpha', 'beta'}}]}"),
    ("parse_list", "[1, (2, {3})]"),
    ("extract_json_object", "{'A': set()}"),
]


def decoded_under_hash_seed(seed, replies):
    src = str(Path(parsing.__file__).resolve().parents[2])
    env = {**os.environ, "PYTHONHASHSEED": str(seed),
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", _DECODE_SCRIPT, json.dumps(replies)],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    return json.loads(done.stdout)


class TestSetLiterals:
    """A set has no order that survives the hash seed, so a reply that
    holds one decodes as if no Python literal had been found."""

    def test_a_set_decodes_the_same_under_every_hash_seed(self):
        results = [decoded_under_hash_seed(seed, SET_REPLIES)
                   for seed in (1, 2, 3)]
        assert results[0] == results[1] == results[2]
        assert results[0] == [
            ["{'alpha', 'beta', 'gamma'}", "x"],
            ["[1, {'alpha', 'beta', 'gamma'}]", "x"],
            "error: " + NOT_AN_OBJECT,
            "error: " + NOT_AN_OBJECT,
            ["1", "(2, {3})"],
            "error: " + NOT_AN_OBJECT,
        ]


class TestStripFences:
    def test_removes_markers_only(self):
        assert strip_code_fences("```json\n[1]\n```") == "\n[1]\n"
        assert strip_code_fences("no fences") == "no fences"


def check_parse_list_total(text):
    try:
        result = parse_list(text)
    except ParseError:
        return
    assert isinstance(result, list)
    assert all(isinstance(item, str) and item for item in result)


def check_extract_object_total(text):
    try:
        result = extract_json_object(text)
    except ParseError:
        return
    assert isinstance(result, dict)
    assert all(isinstance(key, str) for key in result)


# spans nested past the interpreter's recursion limit, and literals
# Python cannot build (an unhashable key or set member)
HOSTILE_SPANS = [
    pytest.param("[" * 3000 + "]" * 3000, id="deep-list"),
    pytest.param('{"a":' * 3000 + "1" + "}" * 3000, id="deep-object"),
    pytest.param('[{"a": ' * 3000 + "1" + "}]" * 3000, id="deep-mixed"),
    pytest.param("[{[1]: 2}]", id="list-key-in-list"),
    pytest.param("{[1]: 2}", id="list-key"),
    pytest.param("{{1}: 2}", id="set-key"),
]


class TestRobustness:
    """No input text may crash the parsers with anything but ParseError."""

    @given(st.text(max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_parse_list_total(self, text):
        check_parse_list_total(text)

    @given(st.text(max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_extract_object_total(self, text):
        check_extract_object_total(text)

    @pytest.mark.parametrize("text", HOSTILE_SPANS)
    def test_hostile_spans_fail_as_parse_errors(self, text):
        check_parse_list_total(text)
        check_extract_object_total(text)

    def test_too_deep_an_object_is_malformed(self):
        with raises_exactly(NOT_AN_OBJECT):
            extract_json_object('{"a":' * 3000 + "1" + "}" * 3000)

    def test_too_deep_an_unclosed_list_is_unbalanced(self):
        with raises_exactly(UNBALANCED):
            parse_list("[" * 3000)

    @given(st.lists(st.text(min_size=1, max_size=20).filter(
        lambda s: s.strip()), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_json_lists_round_trip(self, items):
        recovered = parse_list(json.dumps(items))
        assert recovered == [item.strip() for item in items if item.strip()]

    @given(st.one_of(st.booleans(), st.integers(), st.floats(allow_nan=False),
                     st.text(max_size=20), st.none()))
    @settings(max_examples=200, deadline=None)
    def test_normalize_bool_total(self, value):
        assert normalize_bool(value) in (True, False, None)


# -- the JSON-first pass against the span chain it short-cuts -------------


def _reference_decode(span):
    try:
        return json.loads(span)
    except (ValueError, RecursionError):
        return parsing._decode_span(span)


def reference_parse_list(text):
    """parse_list as the span chain alone decodes it: balanced span, then
    JSON, a Python literal, JSON without trailing commas, manual split."""
    cleaned = strip_code_fences(text)
    start = cleaned.find("[")
    if start == -1:
        raise ParseError(NO_LIST)
    span = parsing._balanced_span(cleaned, start, "[", "]")
    if span is None:
        raise ParseError(UNBALANCED)
    decoded = _reference_decode(span)
    if isinstance(decoded, (list, tuple)):
        items = [str(x).strip() for x in decoded]
    else:
        items = [parsing._clean_item(piece)
                 for piece in parsing._split_items(span[1:-1])]
    return [item for item in items if item]


def reference_extract_json_object(text):
    cleaned = strip_code_fences(text)
    start = cleaned.find("{")
    if start == -1:
        raise ParseError(NO_OBJECT)
    span = parsing._balanced_span(cleaned, start, "{", "}")
    if span is None:
        raise ParseError(NEVER_CLOSED)
    decoded = _reference_decode(span)
    if not isinstance(decoded, dict):
        raise ParseError(NOT_AN_OBJECT)
    return {str(key): value for key, value in decoded.items()}


def outcome(parse, text):
    try:
        return "value", parse(text)
    except ParseError as exc:
        return "error", str(exc)


def check_same_as_span_chain(text):
    assert outcome(parse_list, text) == outcome(reference_parse_list, text)
    assert (outcome(extract_json_object, text)
            == outcome(reference_extract_json_object, text))


# quotes, brackets, backslashes, apostrophes, fences and non-ASCII text
_TRICKY = st.text(alphabet=st.sampled_from(
    list("ab ,:'\"\\[]{}()\n`") + ["é", "中", "\u2028", "\U0001f600"]),
    max_size=12)
_SCALARS = (st.none() | st.booleans() | st.integers(-10**6, 10**6)
            | st.floats(allow_nan=False, allow_infinity=False) | _TRICKY)
_VALUES = st.recursive(
    _SCALARS,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(_TRICKY, children, max_size=4)),
    max_leaves=12)
# each keeps valid JSON or breaks it the way model replies do
_MANGLES = {
    "none": lambda dumped: dumped,
    "single-quoted": lambda dumped: dumped.replace('"', "'"),
    "trailing-comma": lambda dumped: dumped[:-1] + "," + dumped[-1:],
    "truncated": lambda dumped: dumped[:-1],
    "raw-newline": lambda dumped: dumped.replace("\\n", "\n"),
}


@st.composite
def replies(draw):
    value = draw(st.lists(_VALUES, max_size=4)
                 | st.dictionaries(_TRICKY, _VALUES, max_size=4))
    dumped = json.dumps(value, indent=draw(st.sampled_from([None, 0, 2])),
                        ensure_ascii=draw(st.booleans()))
    dumped = _MANGLES[draw(st.sampled_from(sorted(_MANGLES)))](dumped)
    if draw(st.booleans()):
        dumped = f"```json\n{dumped}\n```"
    return draw(_TRICKY) + dumped + draw(_TRICKY)


class TestJsonFirstPass:
    """The one-pass JSON decode gives what the span chain gives."""

    @given(replies())
    @settings(max_examples=300, deadline=None)
    def test_same_outcome_as_the_span_chain(self, text):
        check_same_as_span_chain(text)

    @pytest.mark.parametrize("text", HOSTILE_SPANS)
    def test_hostile_spans_match_the_span_chain(self, text):
        check_same_as_span_chain(text)

    @pytest.mark.parametrize("text", [
        '["a", "b"]',
        'Sure: ["don\'t", "x, y"] done',
        '```json\n["fenced", "list"]\n```',
        '```json\n{"A": "yes", "R": "it\'s [fine]"}\n```',
        '{"k": [1, {"n": null}], "s": "\\"quoted\\""}',
    ] + [rule["response"]
         for script in sorted(Path(__file__).parent.glob(
             "fixtures/*_script.json"))
         for rule in json.loads(script.read_text(encoding="utf-8"))["rules"]])
    def test_json_at_the_first_bracket_skips_the_span_scan(
            self, text, monkeypatch):
        list_at, object_at = text.find("["), text.find("{")
        if object_at == -1 or -1 < list_at < object_at:
            parse, reference = parse_list, reference_parse_list
        else:
            parse, reference = (extract_json_object,
                                reference_extract_json_object)
        expected = reference(text)

        def never(*args):
            raise AssertionError("a JSON reply reached _balanced_span")
        monkeypatch.setattr(parsing, "_balanced_span", never)
        assert parse(text) == expected
