"""Deterministic rule-matching backend used for tests and offline runs."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .types import (
    Completion,
    GenerationConfig,
    LLMError,
    Usage,
    approximate_tokens,
)


@dataclass(frozen=True)
class ResponderRule:
    """One prompt matcher; `pattern` is a substring, or a regex if flagged.

    Regex rules are compiled with DOTALL so `.*` spans the multi-line
    prompts the planner renders.
    """

    pattern: str
    response: str
    regex: bool = False

    def matches(self, prompt: str) -> bool:
        if self.regex:
            return re.search(self.pattern, prompt, re.DOTALL) is not None
        return self.pattern in prompt


class ScriptedBackend:
    """Answers each prompt with the first matching rule's response.

    A pure function of the prompt: no internal state, so call order never
    changes a response and repeated runs yield identical traces.
    """

    def __init__(self, rules: list[ResponderRule],
                 default_response: str | None = None):
        self.rules = list(rules)
        self.default_response = default_response

    @classmethod
    def from_file(cls, path: str) -> "ScriptedBackend":
        """Load rules from JSON: a list of rule objects, or an object with
        a "rules" list and optional "default" response.

        Raises LLMError, naming the file and the rule index, when the file
        is not UTF-8 text, not JSON, not of that shape, has a "default"
        that is neither text nor null, or has a rule whose "pattern" or
        "response" is not text, whose "regex" flag is not a JSON boolean,
        or whose regex does not compile. A leading byte-order mark is
        skipped.
        """
        with open(path, "r", encoding="utf-8-sig") as handle:
            try:
                payload = json.load(handle)
            except UnicodeDecodeError as exc:
                raise LLMError(f"rule file {path}: not UTF-8 text "
                               f"({exc.reason})") from None
            except (ValueError, RecursionError) as exc:
                raise LLMError(f"rule file {path}: not JSON ({exc})") from None
        default = None
        raw_rules = payload
        if isinstance(payload, dict):
            raw_rules = payload.get("rules", [])
            default = payload.get("default")
        if not isinstance(raw_rules, list):
            raise LLMError(f'rule file {path}: expected a list of rules or '
                           f'an object with a "rules" list')
        if default is not None and not isinstance(default, str):
            raise LLMError(f'rule file {path}: "default" is neither text '
                           f'nor null')
        rules = []
        for index, entry in enumerate(raw_rules):
            if not (isinstance(entry, dict)
                    and {"pattern", "response"} <= entry.keys()):
                raise LLMError(f'rule file {path}: rule {index} needs '
                               f'"pattern" and "response"')
            for key in ("pattern", "response"):
                if not isinstance(entry[key], str):
                    raise LLMError(f'rule file {path}: rule {index} has a '
                                   f'"{key}" that is not text')
            regex = entry.get("regex", False)
            if not isinstance(regex, bool):
                raise LLMError(f'rule file {path}: rule {index} has a '
                               f'"regex" that is not true or false')
            rule = ResponderRule(entry["pattern"], entry["response"], regex)
            if rule.regex:
                try:
                    re.compile(rule.pattern, re.DOTALL)
                except re.error as exc:
                    raise LLMError(f"rule file {path}: rule {index} has a "
                                   f"bad regex ({exc})") from None
            rules.append(rule)
        return cls(rules, default_response=default)

    def complete(self, prompt: str, config: GenerationConfig) -> Completion:
        text = self._respond(prompt)
        usage = Usage(input_tokens=approximate_tokens(prompt),
                      output_tokens=approximate_tokens(text))
        return Completion(text=text, usage=usage)

    def _respond(self, prompt: str) -> str:
        for rule in self.rules:
            if rule.matches(prompt):
                return rule.response
        if self.default_response is not None:
            return self.default_response
        head = prompt.strip().splitlines()[0][:120] if prompt.strip() else ""
        raise LLMError(
            f"no scripted rule matches prompt starting with: {head!r}"
        )
