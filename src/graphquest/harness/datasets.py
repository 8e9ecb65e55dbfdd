"""Dataset loader for the common KGQA benchmark layouts.

Each record's keys say its layout, so one file may mix them: an
``[id, label]`` list under ``topic_entities`` (this package's own), a
``topic_entity`` map (CWQ, flattened WebQSP), ``Parses`` (official
WebQSP) or ``graph_query`` nodes (GrailQA). Every layout converts to the
same record; records without a topic entity cannot seed a run and are
skipped with a logged warning.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

logger = logging.getLogger(__name__)

# a record's id is the first of these present, else its index
_ID_KEYS = ("ID", "QuestionId", "qid", "id")


class DatasetError(ValueError):
    pass


@dataclass(frozen=True)
class DatasetRecord:
    id: str
    question: str
    topic_entities: tuple[tuple[str, str], ...]
    answers: tuple[str, ...] = ()


def load_dataset(path: str) -> list[DatasetRecord]:
    with open(path, "r", encoding="utf-8-sig") as handle:
        try:
            payload = json.load(handle)
        except (ValueError, RecursionError) as exc:
            raise DatasetError(f"{path}: not JSON ({exc})") from None
    if not isinstance(payload, list):
        raise DatasetError(f"{path}: expected a top-level JSON list")
    records: list[DatasetRecord] = []
    skipped: list[str] = []
    for index, raw in enumerate(payload):
        try:
            record = _record(raw, index)
            if not record.question.strip():
                raise ValueError("question is blank")
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise DatasetError(
                f"{path}: record {index} is not valid: {exc!r}"
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


def _record(raw: object, index: int) -> DatasetRecord:
    if not isinstance(raw, dict):
        raise TypeError(f"record must be an object, not {type(raw).__name__}")
    key = next((key for key in _ID_KEYS if key in raw), None)
    record_id = _record_id(index if key is None else raw[key])
    question = _text(raw.get("RawQuestion", raw.get("question")), "question")
    answers = raw.get("answers")
    if _absent(answers) or answers == []:
        answers = raw.get("answer")
    if "topic_entities" in raw:
        topics = tuple(_pair(pair) for pair in raw["topic_entities"])
    elif "topic_entity" in raw:
        # read before Parses: WebQSP files that carry both use the map
        topics = tuple(_topic(eid, label) for eid, label
                       in (raw["topic_entity"] or {}).items())
    elif "Parses" in raw:
        topics, answers = _from_parses(raw["Parses"])
    else:
        topics = _from_graph_query(raw.get("graph_query") or {})
    return DatasetRecord(record_id, question, topics,
                         _as_answer_strings(answers))


# -- field converters -----------------------------------------------------
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


def _pair(pair: object) -> tuple[str, str]:
    if not isinstance(pair, list) or len(pair) != 2:
        raise TypeError(f"topic entity {pair!r} is not an [id, label] pair")
    return _topic(*pair)


def _as_answer_strings(raw: object) -> tuple[str, ...]:
    """Flatten the assorted answer encodings to plain strings, leaving out
    each blank one, which would match an unanswered question."""
    if raw is None:
        return ()
    answers: list[str] = []
    for entry in raw if isinstance(raw, list) else [_answer(raw)]:
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
    return tuple(dict.fromkeys(answer for answer in answers
                               if answer.strip()))


def _from_parses(parses: list) -> tuple[tuple[tuple[str, str], ...],
                                         list[str]]:
    """Official WebQSP: the topics and answers of every parse."""
    # a repeated topic id keeps its first label, as Question does
    topics: dict[str, str] = {}
    answers: list[str] = []
    for parse in parses:
        mid = parse.get("TopicEntityMid")
        if not _absent(mid):
            topics.setdefault(
                *_topic(mid, parse.get("TopicEntityName") or mid))
        answers.extend(_as_answer_strings(parse.get("Answers", [])))
    return tuple(topics.items()), answers


def _from_graph_query(graph: dict) -> tuple[tuple[str, str], ...]:
    """GrailQA: the entity nodes of the logical form."""
    topics: dict[str, str] = {}
    for node in graph.get("nodes", []):
        if node.get("node_type") == "entity":
            topics.setdefault(*_topic(node["id"],
                                      node.get("friendly_name") or node["id"]))
    return tuple(topics.items())
