"""Dataset loaders for the common KGQA benchmark layouts.

Every flavor converts to the same normalized record; records without a
topic entity cannot seed a run and are skipped with a logged warning.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

logger = logging.getLogger(__name__)

FLAVORS = ("normalized", "cwq", "webqsp", "grailqa")


class DatasetError(ValueError):
    pass


@dataclass(frozen=True)
class DatasetRecord:
    id: str
    question: str
    topic_entities: tuple[tuple[str, str], ...]
    answers: tuple[str, ...] = ()


def load_dataset(path: str, flavor: str = "normalized") -> list[DatasetRecord]:
    if flavor not in FLAVORS:
        raise DatasetError(
            f"unknown dataset flavor {flavor!r}; expected one of {FLAVORS}"
        )
    with open(path, "r", encoding="utf-8-sig") as handle:
        try:
            payload = json.load(handle)
        except ValueError as exc:
            raise DatasetError(f"{path}: not JSON ({exc})") from None
    if not isinstance(payload, list):
        raise DatasetError(f"{path}: expected a top-level JSON list")
    convert = {
        "normalized": _from_normalized,
        "cwq": _from_cwq,
        "webqsp": _from_webqsp,
        "grailqa": _from_grailqa,
    }[flavor]
    records: list[DatasetRecord] = []
    skipped: list[str] = []
    for index, raw in enumerate(payload):
        try:
            record = convert(raw, index)
            if not record.question.strip():
                raise ValueError("question is blank")
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise DatasetError(
                f"{path}: record {index} is not valid {flavor}: {exc!r}"
            ) from exc
        if not record.topic_entities:
            skipped.append(record.id)
            continue
        records.append(record)
    if skipped:
        logger.warning(
            "skipped %d record(s) without topic entities: %s",
            len(skipped), ", ".join(skipped[:10]),
        )
    return records


# -- flavor converters ----------------------------------------------------
# A field of the wrong type is a TypeError, which load_dataset reports as
# a DatasetError naming the record.


def _absent(value: object) -> bool:
    """An optional field left out: null or the empty string, nothing else."""
    return value is None or value == ""


def _text(value: object, field: str) -> str:
    if not isinstance(value, str):
        raise TypeError(
            f"{field} must be a string, not {type(value).__name__}")
    return value


def _record_id(value: object) -> str:
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise TypeError(
            f"id must be a string or an integer, not {type(value).__name__}")
    return str(value)


def _answer(value: object) -> str:
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise TypeError(f"answer {value!r} is not a string or number")
    return str(value)


def _topic(eid: object, label: object) -> tuple[str, str]:
    return _text(eid, "topic entity id"), _text(label, "topic entity label")


def _topic_map(raw: dict) -> tuple[tuple[str, str], ...]:
    return tuple(_topic(eid, label)
                 for eid, label in (raw.get("topic_entity") or {}).items())


def _as_answer_strings(raw: object) -> tuple[str, ...]:
    """Flatten the assorted answer encodings to plain strings."""
    if raw is None:
        return ()
    if not isinstance(raw, list):
        return (_answer(raw),)
    answers: list[str] = []
    for entry in raw:
        if not isinstance(entry, dict):
            answers.append(_answer(entry))
            continue
        for key in ("answer", "EntityName", "AnswerArgument",
                    "entity_name", "answer_argument"):
            value = entry.get(key)
            if not _absent(value):
                answers.append(_answer(value))
        aliases = entry.get("aliases") or []
        if not isinstance(aliases, list):
            raise TypeError(
                f"aliases must be a list, not {type(aliases).__name__}")
        answers.extend(_answer(alias) for alias in aliases)
    return tuple(dict.fromkeys(answers))


def _from_normalized(raw: dict, index: int) -> DatasetRecord:
    topics = []
    for pair in raw.get("topic_entities", []):
        if not isinstance(pair, list) or len(pair) != 2:
            raise TypeError(
                f"topic entity {pair!r} is not an [id, label] pair")
        topics.append(_topic(*pair))
    return DatasetRecord(
        id=_record_id(raw.get("id", index)),
        question=_text(raw["question"], "question"),
        topic_entities=tuple(topics),
        answers=_as_answer_strings(raw.get("answers", [])),
    )


def _from_cwq(raw: dict, index: int) -> DatasetRecord:
    return DatasetRecord(
        id=_record_id(raw.get("ID", raw.get("id", index))),
        question=_text(raw["question"], "question"),
        topic_entities=_topic_map(raw),
        answers=_as_answer_strings(raw.get("answers") or raw.get("answer")),
    )


def _from_webqsp(raw: dict, index: int) -> DatasetRecord:
    if "topic_entity" in raw:
        # pre-flattened variant with the cwq-style topic map
        return DatasetRecord(
            id=_record_id(raw.get("QuestionId", raw.get("id", index))),
            question=_text(raw.get("RawQuestion", raw.get("question")),
                           "question"),
            topic_entities=_topic_map(raw),
            answers=_as_answer_strings(raw.get("answers")
                                       or raw.get("answer")),
        )
    # a repeated topic id keeps its first label, as Question does
    topics: dict[str, str] = {}
    answers: list[str] = []
    for parse in raw.get("Parses", []):
        mid = parse.get("TopicEntityMid")
        if not _absent(mid):
            topics.setdefault(
                *_topic(mid, parse.get("TopicEntityName") or mid))
        answers.extend(_as_answer_strings(parse.get("Answers", [])))
    return DatasetRecord(
        id=_record_id(raw.get("QuestionId", index)),
        question=_text(raw["RawQuestion"], "question"),
        topic_entities=tuple(topics.items()),
        answers=tuple(dict.fromkeys(answers)),
    )


def _from_grailqa(raw: dict, index: int) -> DatasetRecord:
    topics: dict[str, str] = {}
    graph = raw.get("graph_query") or {}
    for node in graph.get("nodes", []):
        if node.get("node_type") == "entity":
            topics.setdefault(*_topic(node["id"],
                                      node.get("friendly_name") or node["id"]))
    return DatasetRecord(
        id=_record_id(raw.get("qid", index)),
        question=_text(raw["question"], "question"),
        topic_entities=tuple(topics.items()),
        answers=_as_answer_strings(raw.get("answer", [])),
    )
