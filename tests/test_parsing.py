import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphquest.llm.parsing import (
    MalformedJsonError,
    MissingRequiredKeyError,
    NoListFoundError,
    NoObjectFoundError,
    ParseError,
    UnbalancedBracketsError,
    extract_json_object,
    normalize_bool,
    parse_json_object,
    parse_list,
    strip_code_fences,
)


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
    ])
    def test_examples(self, text, expected):
        assert parse_list(text) == expected

    def test_no_list(self):
        with pytest.raises(NoListFoundError):
            parse_list("there is nothing here")

    def test_unbalanced(self):
        with pytest.raises(UnbalancedBracketsError):
            parse_list('["open and never closed"')

    def test_error_hierarchy(self):
        assert issubclass(NoListFoundError, ParseError)
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
        with pytest.raises(NoObjectFoundError):
            extract_json_object("no braces at all")

    def test_never_closed(self):
        with pytest.raises(MalformedJsonError):
            extract_json_object('{"open": "forever"')

    def test_non_object_decode(self):
        with pytest.raises(MalformedJsonError):
            extract_json_object("{broken without quotes or structure!!}")

    def test_keys_coerced_to_strings(self):
        assert extract_json_object("{1: 'one'}") == {"1": "one"}


class TestParseJsonObject:
    def test_required_keys_present(self):
        data = parse_json_object('{"A": "x", "R": "y", "extra": 1}',
                                 {"A", "R"})
        assert data["A"] == "x" and data["extra"] == 1

    def test_missing_key_reports_sorted_first(self):
        with pytest.raises(MissingRequiredKeyError) as info:
            parse_json_object('{"R": "only"}', {"A", "R"})
        assert info.value.key == "A"
        assert info.value.present == ("R",)

    def test_keys_are_case_sensitive(self):
        with pytest.raises(MissingRequiredKeyError):
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

    # spans nested past the interpreter's recursion limit, and literals
    # Python cannot build (an unhashable key or set member)
    @pytest.mark.parametrize("text", [
        pytest.param("[" * 3000 + "]" * 3000, id="deep-list"),
        pytest.param('{"a":' * 3000 + "1" + "}" * 3000, id="deep-object"),
        pytest.param('[{"a": ' * 3000 + "1" + "}]" * 3000, id="deep-mixed"),
        pytest.param("[{[1]: 2}]", id="list-key-in-list"),
        pytest.param("{[1]: 2}", id="list-key"),
        pytest.param("{{1}: 2}", id="set-key"),
    ])
    def test_hostile_spans_fail_as_parse_errors(self, text):
        check_parse_list_total(text)
        check_extract_object_total(text)

    def test_too_deep_an_object_is_malformed(self):
        with pytest.raises(MalformedJsonError):
            extract_json_object('{"a":' * 3000 + "1" + "}" * 3000)

    @given(st.lists(st.text(min_size=1, max_size=20).filter(
        lambda s: s.strip()), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_json_lists_round_trip(self, items):
        import json
        recovered = parse_list(json.dumps(items))
        assert recovered == [item.strip() for item in items if item.strip()]

    @given(st.one_of(st.booleans(), st.integers(), st.floats(allow_nan=False),
                     st.text(max_size=20), st.none()))
    @settings(max_examples=200, deadline=None)
    def test_normalize_bool_total(self, value):
        assert normalize_bool(value) in (True, False, None)
