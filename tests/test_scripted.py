import json
import math
import re

import pytest

from graphquest.llm.scripted import ResponderRule, ScriptedBackend
from graphquest.llm.types import (
    GenerationConfig,
    LLMError,
    approximate_tokens,
)

CONFIG = GenerationConfig()


class TestRules:
    def test_substring_match(self):
        rule = ResponderRule("Topic Entity: Panama", '["x"]')
        assert rule.matches("...\nTopic Entity: Panama\nRelations: ...")
        assert not rule.matches("Topic Entity: Austria")

    def test_regex_match_spans_newlines(self):
        rule = ResponderRule(r"must include.*office_holders", "{}", regex=True)
        assert rule.matches('must include "A"\n...\nx.office_holders, y')
        assert not rule.matches('must include "A" but nothing else')

    def test_first_matching_rule_wins(self):
        backend = ScriptedBackend([
            ResponderRule("alpha", "first"),
            ResponderRule("alpha", "second"),
        ])
        assert backend.complete("has alpha inside", CONFIG).text == "first"

    def test_default_response(self):
        backend = ScriptedBackend([], default_response="fallback")
        assert backend.complete("anything", CONFIG).text == "fallback"

    def test_no_match_raises_with_prompt_head(self):
        backend = ScriptedBackend([ResponderRule("never", "x")])
        with pytest.raises(LLMError) as info:
            backend.complete("Unmatched prompt line one\nline two", CONFIG)
        assert "Unmatched prompt line one" in str(info.value)

    def test_statelessness(self):
        backend = ScriptedBackend([ResponderRule("a", "A"),
                                   ResponderRule("b", "B")])
        first = [backend.complete(p, CONFIG).text for p in ("a", "b", "a")]
        second = [backend.complete(p, CONFIG).text for p in ("a", "b", "a")]
        assert first == second == ["A", "B", "A"]


class TestUsageAccounting:
    def test_token_rule_is_chars_over_four_rounded_up(self):
        # frozen: ceil(len/4) on the full text
        assert approximate_tokens("") == 0
        assert approximate_tokens("abcd") == 1
        assert approximate_tokens("abcde") == 2
        assert approximate_tokens("x" * 1023) == math.ceil(1023 / 4) == 256

    def test_completion_usage_counts_both_sides(self):
        backend = ScriptedBackend([ResponderRule("ping", "pong-response")])
        completion = backend.complete("ping" * 10, CONFIG)
        assert completion.usage.input_tokens == approximate_tokens("ping" * 10)
        assert completion.usage.output_tokens == \
            approximate_tokens("pong-response")
        assert completion.usage.total_tokens == \
            completion.usage.input_tokens + completion.usage.output_tokens


class TestFromFile:
    def test_plain_list_shape(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps([
            {"pattern": "hello", "response": "world"},
            {"pattern": "x.*y", "response": "z", "regex": True},
        ]), encoding="utf-8")
        backend = ScriptedBackend.from_file(str(path))
        assert backend.complete("hello there", CONFIG).text == "world"
        assert backend.complete("x then y", CONFIG).text == "z"
        assert backend.default_response is None

    def test_object_shape_with_default(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({
            "rules": [{"pattern": "hit", "response": "direct"}],
            "default": "whatever",
        }), encoding="utf-8")
        backend = ScriptedBackend.from_file(str(path))
        assert backend.complete("hit me", CONFIG).text == "direct"
        assert backend.complete("miss", CONFIG).text == "whatever"

    def test_a_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps([{"pattern": "hi", "response": "world"}]),
                        encoding="utf-8-sig")
        backend = ScriptedBackend.from_file(str(path))
        assert backend.complete("hi there", CONFIG).text == "world"

    def test_a_false_regex_flag_and_a_null_default_load(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({
            "rules": [{"pattern": "zzz(", "response": "x", "regex": False}],
            "default": None,
        }), encoding="utf-8")
        backend = ScriptedBackend.from_file(str(path))
        assert backend.complete("a zzz( b", CONFIG).text == "x"
        assert backend.default_response is None

    @pytest.mark.parametrize("text, expected", [
        ('[{"pattern": ', "not JSON"),
        ('{"rules": 5}', 'expected a list of rules'),
        ('"just a string"', 'expected a list of rules'),
        ('[{"match": "x", "response": "y"}]', 'rule 0 needs'),
        ('[{"pattern": "x", "response": "y"}, {"pattern": "z"}]',
         'rule 1 needs'),
        ('{"rules": [{"pattern": "x", "response": "y"}, "z"]}',
         'rule 1 needs'),
        ('[{"pattern": "x", "response": "y"}, '
         '{"pattern": "(", "response": "x", "regex": true}]',
         'rule 1 has a bad regex'),
        ('[{"pattern": "zzz(", "response": "x", "regex": "false"}]',
         'rule 0 has a "regex" that is not true or false'),
        ('[{"pattern": "x", "response": "y"}, '
         '{"pattern": "x", "response": "y", "regex": 1}]',
         'rule 1 has a "regex" that is not true or false'),
        ('[{"pattern": null, "response": "y"}]',
         'rule 0 has a "pattern" that is not text'),
        ('[{"pattern": "x", "response": "y"}, {"pattern": 5, "response": "y"}]',
         'rule 1 has a "pattern" that is not text'),
        ('[{"pattern": "x", "response": {"A": "x", "R": "y"}}]',
         'rule 0 has a "response" that is not text'),
        ('{"rules": [{"pattern": "x", "response": "y"}, '
         '{"pattern": "x", "response": ["y"], "regex": true}]}',
         'rule 1 has a "response" that is not text'),
        ('{"rules": [], "default": 5}',
         '"default" is neither text nor null'),
        ('{"rules": [], "default": ["x"]}',
         '"default" is neither text nor null'),
    ])
    def test_malformed_file_is_a_typed_error(self, tmp_path, text,
                                             expected):
        path = tmp_path / "rules.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(LLMError) as caught:
            ScriptedBackend.from_file(str(path))
        assert str(path) in str(caught.value)
        assert expected in str(caught.value)

    def test_a_deeply_nested_file_is_a_typed_error(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text("[" * 200_000, encoding="utf-8")
        with pytest.raises(LLMError, match=f"rule file {re.escape(str(path))}"
                                           f": not JSON"):
            ScriptedBackend.from_file(str(path))

    def test_fixture_scripts_load(self, fixtures_dir):
        for name in ("panama_script.json", "capitals_script.json"):
            backend = ScriptedBackend.from_file(str(fixtures_dir / name))
            assert backend.rules, name
