"""Whole-system acceptance gate.

Each test below exercises one numbered acceptance criterion end to end
and prints exactly one verdict line straight to the terminal (bypassing
output capture):

    [acceptance] criterion-N <what it checks>: PASS | FAIL | SKIP

The assertions carry the details; the verdict lines give the one-glance
summary.  Criterion 9 needs live network endpoints and is skipped unless
GRAPHQUEST_SMOKE=1 is set together with the endpoint variables.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import string
import time

import pytest

from graphquest.config import build_app_config, build_planner
from graphquest.harness.datasets import load_dataset
from graphquest.harness.evaluate import SUMMARY_COLUMNS, run_eval, \
    summary_rows
from graphquest.harness.metrics import hits_at_1
from graphquest.kg.memory_store import InMemoryKG
from graphquest.kg.queries import entities_query, label_query, relations_query
from graphquest.kg.types import Direction
from graphquest.llm.accounting import usage_total
from graphquest.llm.parsing import (
    ParseError,
    extract_json_object,
    parse_json_object,
    parse_list,
)
from graphquest.planner.engine import Planner
from graphquest.planner.state import AblationFlags, PlannerConfig
from graphquest.recall import top_k

from adversaries import PromptAwareResponder, junk_backend
from cases import (
    FIXTURES,
    GOLDEN_ENTITY_IN,
    GOLDEN_ENTITY_OUT,
    GOLDEN_NAME,
    GOLDEN_RELATION_IN,
    GOLDEN_RELATION_OUT,
)
from oracles import (
    naive_search_entities,
    naive_search_relations,
    oracle_hits,
    oracle_top_k,
    random_case,
    random_graph,
    resummed_costs,
)
from trace_checks import check_invariants, stable_lines

ANSWER = "Juan Carlos Varela"
PRESIDENT = "m.02rhx1c"


def _verdict(capsys, criterion: str, outcome: str) -> None:
    with capsys.disabled():
        print(f"\n[acceptance] {criterion}: {outcome}")


@contextlib.contextmanager
def gate(capsys, criterion: str):
    """Print the criterion's one-line verdict, win or lose."""
    try:
        yield
    except BaseException:
        _verdict(capsys, criterion, "FAIL")
        raise
    else:
        _verdict(capsys, criterion, "PASS")


# -- criterion 1: scripted self-correction regression ---------------------


def test_criterion_1_self_correction_regression(capsys, panama_kg,
                                                panama_llm, panama_question):
    with gate(capsys, "criterion-1 scripted self-correction regression"):
        started = time.perf_counter()
        result = Planner(panama_kg, panama_llm).run(panama_question)
        elapsed = time.perf_counter() - started

        assert result.verdict.answer == ANSWER
        assert result.verdict.sufficient is True
        assert result.verdict.forced is False
        assert result.iterations <= 4

        corrections = [e for e in result.trace.iter_kind("reflection")
                       if e.payload["add"]]
        assert len(corrections) == 1
        assert corrections[0].payload["backtrack"] == [PRESIDENT]
        assert panama_kg.resolve_label(PRESIDENT).label == \
            "President of Panama"

        assert elapsed < 1.0, f"took {elapsed:.3f}s, budget is 1s"

        rerun = Planner(panama_kg, panama_llm).run(panama_question)
        assert stable_lines(result.trace) == stable_lines(rerun.trace)


# -- criterion 2: ablation differential -----------------------------------


def test_criterion_2_ablation_differential(capsys, panama_kg, panama_llm,
                                           panama_question):
    with gate(capsys, "criterion-2 ablation differential"):
        started = time.perf_counter()
        blind = Planner(
            panama_kg, panama_llm,
            PlannerConfig(ablations=AblationFlags(no_reflection=True)),
        ).run(panama_question)
        first = time.perf_counter() - started
        # without the self-correction stage the wrong turn is fatal
        assert blind.verdict.answer != ANSWER
        assert blind.verdict.forced is True

        started = time.perf_counter()
        narrow = Planner(
            panama_kg, panama_llm,
            PlannerConfig(ablations=AblationFlags(fixed_breadth=1)),
        ).run(panama_question)
        second = time.perf_counter() - started
        # a crippled beam width still recovers as long as reflection runs
        assert narrow.verdict.answer == ANSWER
        assert narrow.verdict.forced is False

        assert first < 1.0 and second < 1.0, (first, second)


# -- criterion 3: termination under adversarial responders ----------------


def test_criterion_3_depth_cap_under_adversaries(capsys, panama_kg,
                                                 panama_question):
    with gate(capsys, "criterion-3 adversarial termination and depth cap"):
        config = PlannerConfig(max_depth=4)
        for seed in range(100):
            backend = junk_backend(random.Random(seed))
            result = Planner(panama_kg, backend, config).run(panama_question)
            assert result.iterations == 4, f"seed {seed} stopped early/late"
            assert result.verdict.forced is True

        calls_by_depth = []
        for depth in range(1, 6):
            backend = junk_backend(random.Random(0))
            result = Planner(
                panama_kg, backend, PlannerConfig(max_depth=depth),
            ).run(panama_question)
            assert result.iterations == depth
            _, calls = usage_total(result.trace)
            calls_by_depth.append(calls)
        assert calls_by_depth == sorted(calls_by_depth), calls_by_depth


# -- criterion 4: query template goldens ----------------------------------


def test_criterion_4_query_template_goldens(capsys):
    with gate(capsys, "criterion-4 query template goldens"):
        out, into = Direction.OUTGOING, Direction.INCOMING
        assert relations_query("m.0jt3_v", out) == GOLDEN_RELATION_OUT
        assert relations_query("m.0jt3_v", into) == GOLDEN_RELATION_IN
        assert entities_query("m.05qtj", "location.country.capital",
                              out) == GOLDEN_ENTITY_OUT
        assert entities_query("m.0fsmy2", "location.country.capital",
                              into) == GOLDEN_ENTITY_IN
        assert label_query("m.05qtj") == GOLDEN_NAME


# -- criterion 5: parser robustness fuzz ----------------------------------


def _fuzz_word(rng: random.Random, quoted: bool = False) -> str:
    alphabet = string.ascii_letters + string.digits + "._ "
    if quoted:
        alphabet += ","  # commas are legal inside quoted items
    word = "".join(rng.choice(alphabet)
                   for _ in range(rng.randint(1, 12))).strip()
    return word or "x"


def _render_list_case(rng: random.Random) -> tuple[str, list[str]]:
    quote = rng.choice(["", '"', "'"])
    items = [_fuzz_word(rng, quoted=bool(quote))
             for _ in range(rng.randint(1, 6))]
    if quote:
        body = ", ".join(f"{quote}{item}{quote}" for item in items)
    else:
        body = ", ".join(items)
    if rng.random() < 0.2:
        body += ","  # trailing comma must be tolerated
    core = f"[{body}]"
    style = rng.randrange(4)
    if style == 1:
        core = f"```json\n{core}\n```"
    elif style == 2:
        core = f"The relevant choices are {core}; nothing else applies."
    elif style == 3:
        core = f"{core}\nThat is the complete selection."
    return core, items


def _render_json_case(rng: random.Random) -> tuple[str, dict]:
    shape = rng.randrange(3)
    if shape == 0:
        obj = {"A": rng.choice(["Yes", "No"]), "R": _fuzz_word(rng)}
    elif shape == 1:
        obj = {f"Objective {i}": _fuzz_word(rng)
               for i in range(1, rng.randint(2, 4) + 1)}
    else:
        obj = {
            "Add": rng.choice(["Yes", "No"]),
            "Reason": _fuzz_word(rng),
            "Entities": [_fuzz_word(rng) for _ in range(rng.randint(0, 3))],
        }
    text = json.dumps(obj)
    wrap = rng.randrange(3)
    if wrap == 1:
        text = f"```json\n{text}\n```"
    elif wrap == 2:
        text = f"Here is the decision: {text} -- done."
    return text, obj


def _mutate(rng: random.Random, text: str) -> str:
    if not text:
        return "{"
    op = rng.randrange(6)
    at = rng.randrange(len(text))
    if op == 0:
        return text[:at] + text[at + 1:]
    if op == 1:
        return text[:at] + rng.choice("[]{},\"'`:") + text[at:]
    if op == 2:
        return text[:at]
    if op == 3:
        return text.replace("[", "(", 1).replace("{", "(", 1)
    if op == 4:
        return "{" * rng.randint(1, 5) + text
    return text + "]" * rng.randint(1, 5)


def _parsers_raise_only_typed_errors(text: str) -> None:
    for attempt in (
        lambda: parse_list(text),
        lambda: extract_json_object(text),
        lambda: parse_json_object(text, {"A", "R"}),
    ):
        try:
            attempt()
        except ParseError:
            pass  # typed failure is the allowed outcome


def test_criterion_5_parser_fuzz(capsys):
    with gate(capsys, "criterion-5 parser robustness fuzz"):
        rng = random.Random(20260823)
        valid_total = 0
        valid_ok = 0
        renderings: list[str] = []

        for _ in range(300):  # well-formed lists in assorted wrappers
            text, expected = _render_list_case(rng)
            renderings.append(text)
            valid_total += 1
            try:
                if parse_list(text) == expected:
                    valid_ok += 1
            except ParseError:
                pass

        for _ in range(200):  # well-formed JSON in assorted wrappers
            text, expected = _render_json_case(rng)
            renderings.append(text)
            valid_total += 1
            try:
                if parse_json_object(text, set(expected)) == expected:
                    valid_ok += 1
            except ParseError:
                pass

        mutated = [_mutate(rng, rng.choice(renderings)) for _ in range(400)]
        mutated += [
            "".join(rng.choice(string.printable)
                    for _ in range(rng.randint(0, 60)))
            for _ in range(100)
        ]

        aborts: list[str] = []
        for text in mutated:
            try:
                _parsers_raise_only_typed_errors(text)
            except Exception as exc:  # anything but ParseError is a bug
                aborts.append(f"{type(exc).__name__}: {exc!r} on {text!r}")

        assert valid_total + len(mutated) == 1000
        rate = valid_ok / valid_total
        assert rate >= 0.95, f"valid-case extraction rate {rate:.3f}"
        assert not aborts, aborts[:5]


# -- criterion 6: oracle equivalence --------------------------------------


def test_criterion_6_oracle_equivalence(capsys):
    with gate(capsys, "criterion-6 oracle equivalence"):
        rng = random.Random(606)

        # in-memory store vs. naive full scans on 50 random graphs
        for _ in range(50):
            triples, labels = random_graph(rng, max_entities=60,
                                           max_relations=12, max_triples=500)
            assert len(triples) <= 500
            kg = InMemoryKG(triples)
            entities = sorted(labels)
            probes = rng.sample(entities, min(10, len(entities)))
            probes.append("m.unseen")
            for entity in probes:
                for direction in (Direction.OUTGOING, Direction.INCOMING):
                    ours = list(kg.search_relations(entity, direction))
                    assert ours == naive_search_relations(
                        triples, entity, direction.value)
                    for relation in ours[:4] + ["test.block_x.edge_x"]:
                        got = list(kg.search_entities(entity, relation,
                                                      direction))
                        assert got == naive_search_entities(
                            triples, entity, relation, direction.value)

        # answer matching vs. brute force on 200 randomized pairs
        words = ["Juan", "Carlos", "VARELA", "panama  city", "Paris",
                 "Ciudad", "de", "  Lyon ", ""]
        for _ in range(200):
            predicted = " ".join(rng.sample(words, rng.randint(1, 3)))
            if rng.random() < 0.3:
                predicted = predicted.upper()
            gold = [" ".join(rng.sample(words, rng.randint(1, 2)))
                    for _ in range(rng.randint(1, 3))]
            assert hits_at_1(predicted, gold) is oracle_hits(predicted, gold)

        # recall pruning vs. full-sort truncation on 50 candidate sets
        question = "who is in control of the place where the movie is set"
        fragments = ["the place", "movie palace", "control room", "who",
                     "is in", "set piece", "Panama", "unrelated topic"]
        for _ in range(50):
            pool = [
                (f"m.c{i}",
                 " ".join(rng.sample(fragments, rng.randint(1, 3))))
                for i in range(rng.randint(1, 40))
            ]
            k = rng.randint(1, len(pool) + 3)
            kept = top_k(question, pool, k)
            expected = oracle_top_k(question, pool, k)
            assert [(c.entity, c.label) for c in kept] == \
                [(entity, label) for entity, label, _ in expected]
            for ours, (_, _, score) in zip(kept, expected):
                assert ours.score == pytest.approx(score)


# -- criterion 7: accounting self-consistency -----------------------------


def test_criterion_7_accounting_self_consistency(capsys, tmp_path,
                                                 capitals_kg, capitals_llm):
    with gate(capsys, "criterion-7 accounting self-consistency"):
        records = load_dataset(str(FIXTURES / "capitals_dataset.json"))
        report = run_eval(records, Planner(capitals_kg, capitals_llm),
                          out_dir=tmp_path, name="full")

        totals = {"calls": 0, "input_tokens": 0, "output_tokens": 0,
                  "total_tokens": 0, "seconds": 0.0}
        for result in report.results:
            costs = resummed_costs(tmp_path / "traces"
                                   / f"{result.id}.jsonl")
            assert result.llm_calls == costs["calls"]
            assert result.input_tokens == costs["input_tokens"]
            assert result.output_tokens == costs["output_tokens"]
            assert result.total_tokens == costs["total_tokens"]
            assert result.seconds == costs["seconds"]
            for key in totals:
                totals[key] += costs[key]

        aggregates = report.aggregates()
        assert aggregates["total_llm_calls"] == totals["calls"]
        assert aggregates["total_input_tokens"] == totals["input_tokens"]
        assert aggregates["total_output_tokens"] == totals["output_tokens"]
        assert aggregates["total_total_tokens"] == totals["total_tokens"]
        assert aggregates["total_seconds"] == totals["seconds"]


# -- criterion 8: randomized invariant sweep ------------------------------


def _sweep_responder(seed: int) -> PromptAwareResponder:
    return PromptAwareResponder(
        seed,
        sufficiency_rate=0.05 + (seed % 5) * 0.05,
        add_rate=0.2 + (seed % 3) * 0.2,
    )


def test_criterion_8_randomized_invariant_sweep(capsys, panama_kg,
                                                panama_question):
    with gate(capsys, "criterion-8 randomized invariant sweep"):
        runs = 0

        # check_invariants validates the memory paths: linked, acyclic
        # and inside the depth budget
        config = PlannerConfig()
        for seed in range(460):
            result = Planner(panama_kg, _sweep_responder(seed),
                             config).run(panama_question)
            check_invariants(result.trace, config, panama_question,
                             result.memory)
            runs += 1

        fallbacks = 0
        small = PlannerConfig(max_depth=3)
        for seed in range(240):
            kg, question = random_case(80_000 + seed, unnamed=True)
            result = Planner(kg, _sweep_responder(seed),
                             small).run(question)
            check_invariants(result.trace, small, question, result.memory)
            fallbacks += sum(bool(e.payload.get("fallback"))
                             for e in result.trace.iter_kind("kg_query"))
            runs += 1
        assert fallbacks > 0

        flag_sets = [
            AblationFlags(),
            AblationFlags(no_guidance=True),
            AblationFlags(no_memory=True),
            AblationFlags(no_reflection=True),
            AblationFlags(fixed_breadth=1),
            AblationFlags(no_guidance=True, no_memory=True,
                          no_reflection=True, fixed_breadth=2),
        ]
        for index, flags in enumerate(flag_sets):
            flagged = PlannerConfig(ablations=flags)
            for seed in range(50):
                result = Planner(
                    panama_kg, _sweep_responder(1_000 * index + seed),
                    flagged).run(panama_question)
                check_invariants(result.trace, flagged, panama_question,
                                 result.memory)
                runs += 1

        assert runs == 1000


# -- criterion 9: live endpoint smoke (opt-in) ----------------------------


def test_criterion_9_live_endpoint_smoke(capsys, tmp_path):
    criterion = "criterion-9 live endpoint smoke"
    if os.environ.get("GRAPHQUEST_SMOKE") != "1":
        _verdict(capsys, criterion,
                 "SKIP (set GRAPHQUEST_SMOKE=1 with live endpoints)")
        pytest.skip("live smoke disabled; set GRAPHQUEST_SMOKE=1")
    endpoint = os.environ.get("GRAPHQUEST_SPARQL_ENDPOINT")
    base_url = os.environ.get("GRAPHQUEST_BASE_URL")
    model = os.environ.get("GRAPHQUEST_MODEL", "gpt-3.5-turbo")
    if not endpoint or not base_url:
        _verdict(capsys, criterion,
                 "SKIP (need GRAPHQUEST_SPARQL_ENDPOINT and "
                 "GRAPHQUEST_BASE_URL)")
        pytest.skip("live endpoints not configured")

    with gate(capsys, criterion):
        records = load_dataset(str(FIXTURES / "webqsp_smoke.json"))
        assert len(records) == 10
        app = build_app_config(None, {
            "kg.endpoint": endpoint,
            "llm.base_url": base_url,
            "llm.model": model,
        })
        report = run_eval(records, build_planner(app),
                          out_dir=tmp_path, name="full")
        failures = [r.error for r in report.results if r.error]
        assert not failures, failures
        assert report.hits_at_1 >= 0.6, report.hits_at_1
        rows = summary_rows([report])
        assert rows[0] == list(SUMMARY_COLUMNS)
        with capsys.disabled():
            for row in rows:
                print("\t".join(row))
