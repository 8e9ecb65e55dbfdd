"""The summary that tools/bench_pairs.py prints from paired runs."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"question_s_p50": "lower", "questions_per_s": "higher"}


def result(p50, rate):
    return {"metrics": {
        "question_s_p50": {"value": p50, "unit": "s"},
        "questions_per_s": {"value": rate, "unit": "1/s"},
    }}


def test_quartiles_of_ten_runs():
    assert bench_pairs.quartiles([float(v) for v in range(1, 11)]) == \
        (3.25, 5.5, 7.75)
    assert bench_pairs.quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_wins_follow_each_metric_direction_and_ties_count_for_neither():
    runs = [(result(1.0, 10.0), result(0.5, 20.0)),
            (result(1.0, 10.0), result(0.5, 10.0)),
            (result(1.0, 10.0), result(1.5, 5.0))]
    rows = {row["metric"]: row for row in bench_pairs.summarize(runs, BETTER)}
    assert rows["question_s_p50"]["wins"] == 2
    assert rows["questions_per_s"]["wins"] == 1
    assert rows["question_s_p50"]["delta"] == -0.5
    assert not rows["question_s_p50"]["gain"]  # 2 of 3 is under 9 in 10


def test_gain_needs_nine_tenths_and_a_gap_wider_than_parent_spread():
    steady = [(result(1.0 + 0.01 * i, 10.0), result(0.5, 10.0 + 0.01 * i))
              for i in range(10)]
    rows = {row["metric"]: row
            for row in bench_pairs.summarize(steady, BETTER)}
    assert rows["question_s_p50"]["wins"] == 10
    assert rows["question_s_p50"]["gain"]
    # 9 wins of 10, but by less than the parent's interquartile range
    noisy = [(result(1.0 + 0.1 * i, 10.0), result(0.99 + 0.1 * i, 10.0))
             for i in range(9)] + [(result(1.0, 10.0), result(2.0, 10.0))]
    rows = {row["metric"]: row
            for row in bench_pairs.summarize(noisy, BETTER)}
    assert rows["question_s_p50"]["wins"] == 9
    assert not rows["question_s_p50"]["gain"]
    assert rows["questions_per_s"]["wins"] == 0
