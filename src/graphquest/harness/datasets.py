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
    with open(path, "r", encoding="utf-8") as handle:
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


def _as_answer_strings(raw: object) -> tuple[str, ...]:
    """Flatten the assorted answer encodings to plain strings."""
    answers: list[str] = []
    if raw is None:
        return ()
    if isinstance(raw, (str, int, float)):
        return (str(raw),)
    for entry in raw:
        if isinstance(entry, str):
            answers.append(entry)
        elif isinstance(entry, dict):
            for key in ("answer", "EntityName", "AnswerArgument",
                        "entity_name", "answer_argument"):
                value = entry.get(key)
                if value:
                    answers.append(str(value))
            for alias in entry.get("aliases", ()) or ():
                answers.append(str(alias))
        else:
            answers.append(str(entry))
    seen: set[str] = set()
    unique = []
    for answer in answers:
        if answer not in seen:
            seen.add(answer)
            unique.append(answer)
    return tuple(unique)


def _from_normalized(raw: dict, index: int) -> DatasetRecord:
    topics = tuple((str(eid), str(label))
                   for eid, label in raw.get("topic_entities", []))
    return DatasetRecord(
        id=str(raw.get("id", index)),
        question=str(raw["question"]),
        topic_entities=topics,
        answers=_as_answer_strings(raw.get("answers", [])),
    )


def _from_cwq(raw: dict, index: int) -> DatasetRecord:
    topics = tuple((str(eid), str(label))
                   for eid, label in (raw.get("topic_entity") or {}).items())
    answers = _as_answer_strings(raw.get("answers") or raw.get("answer"))
    return DatasetRecord(
        id=str(raw.get("ID", raw.get("id", index))),
        question=str(raw["question"]),
        topic_entities=topics,
        answers=answers,
    )


def _from_webqsp(raw: dict, index: int) -> DatasetRecord:
    if "topic_entity" in raw:
        # pre-flattened variant with the cwq-style topic map
        topics = tuple((str(eid), str(label))
                       for eid, label in (raw.get("topic_entity") or {}).items())
        answers = _as_answer_strings(raw.get("answers") or raw.get("answer"))
        return DatasetRecord(
            id=str(raw.get("QuestionId", raw.get("id", index))),
            question=str(raw.get("RawQuestion", raw.get("question"))),
            topic_entities=topics,
            answers=answers,
        )
    topics = []
    answers: list[str] = []
    for parse in raw.get("Parses", []):
        mid = parse.get("TopicEntityMid")
        if mid:
            topics.append((str(mid),
                           str(parse.get("TopicEntityName") or mid)))
        answers.extend(_as_answer_strings(parse.get("Answers", [])))
    unique_topics = tuple(dict(topics).items())
    return DatasetRecord(
        id=str(raw.get("QuestionId", index)),
        question=str(raw["RawQuestion"]),
        topic_entities=unique_topics,
        answers=tuple(dict.fromkeys(answers)),
    )


def _from_grailqa(raw: dict, index: int) -> DatasetRecord:
    topics = []
    graph = raw.get("graph_query") or {}
    for node in graph.get("nodes", []):
        if node.get("node_type") == "entity":
            topics.append((str(node["id"]),
                           str(node.get("friendly_name") or node["id"])))
    return DatasetRecord(
        id=str(raw.get("qid", index)),
        question=str(raw["question"]),
        topic_entities=tuple(dict(topics).items()),
        answers=_as_answer_strings(raw.get("answer", [])),
    )
