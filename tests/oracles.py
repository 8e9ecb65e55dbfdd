"""Independent reference implementations the tests compare against, and
the random graphs and questions they compare on.

Everything here is deliberately written from scratch (different code
paths, different idioms) so agreement with the package is evidence, not
tautology.
"""

from __future__ import annotations

import json
import math
import random
import re

from graphquest.planner.state import Question

from cases import make_kg

_WS = re.compile(r"\s+")


# -- triple scans ---------------------------------------------------------


def naive_search_relations(triples, entity, direction):
    found = []
    for subject, relation, obj in triples:
        if direction == "outgoing" and subject == entity:
            found.append(relation)
        elif direction == "incoming" and obj == entity:
            found.append(relation)
    return sorted(set(found))


def naive_search_entities(triples, entity, relation, direction):
    found = []
    for subject, rel, obj in triples:
        if rel != relation:
            continue
        if direction == "outgoing" and subject == entity:
            found.append(obj)
        elif direction == "incoming" and obj == entity:
            found.append(subject)
    return sorted(set(found))


# -- answer matching ------------------------------------------------------


def oracle_normalize(text):
    return _WS.sub(" ", str(text)).strip().lower()


def oracle_hits(predicted, gold):
    want = oracle_normalize(predicted)
    if want == "":
        return False  # an unanswered question matches nothing
    for answer in gold:
        if oracle_normalize(answer) == want:
            return True
    return False


# -- recall ranking -------------------------------------------------------


def oracle_trigram_score(question, label):
    a = question.strip().lower()
    b = label.strip().lower()
    if a == b:
        return 1.0

    def grams(s):
        bag = {}
        for i in range(len(s) - 2):
            g = s[i:i + 3]
            bag[g] = bag.get(g, 0) + 1
        return bag

    left, right = grams(a), grams(b)
    if not left or not right:
        return 0.0
    numerator = sum(count * right.get(g, 0) for g, count in left.items())
    denominator = math.sqrt(sum(v * v for v in left.values())) \
        * math.sqrt(sum(v * v for v in right.values()))
    return numerator / denominator if denominator else 0.0


def oracle_top_k(question, candidates, k):
    scored = [(entity, label, oracle_trigram_score(question, label))
              for entity, label in candidates]
    scored.sort(key=lambda row: (-row[2], row[1], row[0]))
    return scored[:k]


# -- trace re-summation ---------------------------------------------------


def resummed_costs(path):
    """Recompute call/token/time totals from the raw JSON-lines file."""
    calls = 0
    input_tokens = 0
    output_tokens = 0
    seconds = 0.0
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record["kind"] == "llm_call":
                calls += 1
                usage = record.get("usage") or {}
                input_tokens += usage.get("input_tokens", 0)
                output_tokens += usage.get("output_tokens", 0)
            elif record["kind"] == "final":
                seconds = record["payload"].get("elapsed_seconds", 0.0)
    return {
        "calls": calls,
        "input_tokens": input_tokens,
        "output_tokens": output_tokens,
        "total_tokens": input_tokens + output_tokens,
        "seconds": seconds,
    }


# -- random graphs --------------------------------------------------------


def random_graph(rng: random.Random, max_entities: int = 30,
                 max_relations: int = 8, max_triples: int = 120):
    """A random labeled digraph: (domain triples, id -> label map)."""
    entity_count = rng.randint(4, max_entities)
    entities = [f"m.e{i}" for i in range(entity_count)]
    relation_count = rng.randint(2, max_relations)
    relations = [f"test.block_{i}.edge_{i}" for i in range(relation_count)]
    triples = set()
    for _ in range(rng.randint(entity_count, max_triples)):
        subject = rng.choice(entities)
        obj = rng.choice(entities)
        if subject == obj:
            continue
        triples.add((subject, rng.choice(relations), obj))
    labels = {eid: f"Thing {i:03d}" for i, eid in enumerate(entities)}
    return sorted(triples), labels


def random_case(seed, *, unnamed=False):
    """`random_graph(random.Random(seed))` as a graph, and the question how
    its first two entities relate, asked from them; with `unnamed`, every
    fourth entity has no name, so label fallbacks occur."""
    triples, labels = random_graph(random.Random(seed))
    entities = sorted(labels)
    kg = make_kg(triples, {eid: labels[eid]
                           for index, eid in enumerate(entities)
                           if not (unnamed and index % 4 == 3)})
    first, second = entities[:2]
    question = Question(f"How does {labels[first]} relate to "
                        f"{labels[second]}?",
                        ((first, labels[first]), (second, labels[second])))
    return kg, question


def random_multigraph(rng: random.Random, max_entities: int = 16,
                      max_relations: int = 5, max_rows: int = 140):
    """Random store rows in insertion order: domain triples with repeats
    and self-loops, plus several names and aliases per entity, some of
    them blank or shared."""
    entities = [f"m.e{i}" for i in range(rng.randint(3, max_entities))]
    relations = [f"test.block_{i}.edge_{i}"
                 for i in range(rng.randint(1, max_relations))]
    words = ["", "  ", "Alpha", "alpha", "Beta", "Zulu", "Échelle", "Beta 2"]
    label_predicates = ["type.object.name", "common.topic.alias",
                        "http://www.w3.org/2002/07/owl#sameAs"]
    rows = []
    for _ in range(rng.randint(1, max_rows)):
        roll = rng.random()
        if roll < 0.1 and rows:
            rows.append(rng.choice(rows))  # an exact repeat
        elif roll < 0.35:
            rows.append((rng.choice(entities), rng.choice(label_predicates),
                         rng.choice(words)))
        else:
            subject = rng.choice(entities)
            obj = subject if roll < 0.45 else rng.choice(entities)
            rows.append((subject, rng.choice(relations), obj))
    return rows


def naive_label(rows, entity):
    """(label, is_fallback) by the store's rules, from a scan of the rows."""
    for predicates in (("type.object.name",),
                       ("common.topic.alias",
                        "http://www.w3.org/2002/07/owl#sameAs")):
        texts = sorted(obj for subject, relation, obj in rows
                       if subject == entity and relation in predicates
                       and obj.strip() != "")
        if texts:
            return texts[0], False
    return entity, True


def naive_domain_triples(rows):
    """Domain triples grouped by subject in order of first appearance."""
    label_predicates = ("type.object.name", "common.topic.alias",
                        "http://www.w3.org/2002/07/owl#sameAs")
    domain = [row for row in rows if row[1] not in label_predicates]
    subjects = []
    for subject, _, _ in domain:
        if subject not in subjects:
            subjects.append(subject)
    return [row for subject in subjects for row in domain
            if row[0] == subject]
