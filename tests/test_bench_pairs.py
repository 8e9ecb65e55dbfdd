"""The summary that tools/bench_pairs.py prints from paired runs."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {"question_s_p50": {"better": "lower", "bound": 0.2},
        "questions_per_s": {"better": "higher", "bound": 0.25}}


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
    rows = {row["metric"]: row for row in bench_pairs.summarize(runs, SPEC)}
    assert rows["question_s_p50"]["wins"] == 2
    assert rows["questions_per_s"]["wins"] == 1
    assert rows["question_s_p50"]["delta"] == -0.5
    assert not rows["question_s_p50"]["gain"]  # 2 of 3 is under 9 in 10


def test_gain_needs_nine_tenths_and_a_gap_wider_than_parent_spread():
    steady = [(result(1.0 + 0.01 * i, 10.0), result(0.5, 10.0 + 0.01 * i))
              for i in range(10)]
    rows = {row["metric"]: row
            for row in bench_pairs.summarize(steady, SPEC)}
    assert rows["question_s_p50"]["wins"] == 10
    assert rows["question_s_p50"]["gain"]
    # 9 wins of 10, but by less than the parent's interquartile range
    noisy = [(result(1.0 + 0.1 * i, 10.0), result(0.99 + 0.1 * i, 10.0))
             for i in range(9)] + [(result(1.0, 10.0), result(2.0, 10.0))]
    rows = {row["metric"]: row
            for row in bench_pairs.summarize(noisy, SPEC)}
    assert rows["question_s_p50"]["wins"] == 9
    assert not rows["question_s_p50"]["gain"]
    assert rows["questions_per_s"]["wins"] == 0


def test_regression_is_a_median_worse_by_more_than_the_bound():
    # p50 bound 0.2 (lower is better), throughput bound 0.25 (higher)
    runs = [(result(1.0, 10.0), result(1.25, 7.6)) for _ in range(4)]
    rows = {row["metric"]: row for row in bench_pairs.summarize(runs, SPEC)}
    assert rows["question_s_p50"]["regression"]      # +25% > 20%
    assert not rows["questions_per_s"]["regression"]  # -24% < 25%
    runs = [(result(1.0, 10.0), result(1.15, 7.0)) for _ in range(4)]
    rows = {row["metric"]: row for row in bench_pairs.summarize(runs, SPEC)}
    assert not rows["question_s_p50"]["regression"]  # +15% < 20%
    assert rows["questions_per_s"]["regression"]     # -30% > 25%
    # a move in the better direction is never a regression
    runs = [(result(1.0, 10.0), result(0.5, 20.0)) for _ in range(4)]
    rows = bench_pairs.summarize(runs, SPEC)
    assert not any(row["regression"] for row in rows)
    assert not any(row["unresolved"] for row in rows)


def test_unresolved_when_parent_spread_exceeds_the_bound():
    # parent p50 quartiles 1.15 and 1.45 around a median of 1.3: a spread
    # of 23% of the median, wider than the 20% bound
    wide = [(result(1.0 + 0.2 * i, 10.0), result(1.0, 10.0))
            for i in range(4)]
    rows = {row["metric"]: row
            for row in bench_pairs.summarize(wide, SPEC)}
    assert rows["question_s_p50"]["unresolved"]
    assert not rows["question_s_p50"]["regression"]
    assert not rows["questions_per_s"]["unresolved"]
    # the same spread is resolved when every change run beats every
    # parent run
    clear = [(result(1.0 + 0.2 * i, 10.0), result(0.9, 10.0))
             for i in range(4)]
    rows = {row["metric"]: row
            for row in bench_pairs.summarize(clear, SPEC)}
    assert not rows["question_s_p50"]["unresolved"]


def test_failed_share_is_each_sides_median_of_failed_over_attempted():
    def run(failed, attempted):
        return {"failed": failed, "attempted": attempted, **result(1.0, 1.0)}

    runs = [(run(0, 10), run(1, 10)), (run(0, 10), run(0, 10)),
            (run(1, 10), run(2, 10))]
    row = bench_pairs.failure_row(runs)
    assert row["metric"] == "failed_share"
    assert row["parent"][1] == 0.0
    assert row["change"][1] == 0.1
    assert row["wins"] == 0
    assert row["regression"]
    assert not row["gain"] and not row["unresolved"]
    # the same share on both sides is no regression
    row = bench_pairs.failure_row([(run(1, 10), run(2, 20))] * 3)
    assert row["change"][1] == row["parent"][1] == 0.1
    assert not row["regression"]


def run_main(tmp_path, monkeypatch, seed=1, failed=(0, 0), change_p50=1.5,
             correct=(True, True)):
    """main() on two fake checkouts: the parent's p50 is 1.0 and the
    change's `change_p50`, they fail `failed` of 5 questions and report
    `correct`."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    for side in (parent, change):
        side.mkdir(parents=True)
    (parent / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1,
        "end_to_end": [{"name": name, **entry}
                       for name, entry in SPEC.items()],
    }))
    values = {parent: result(1.0, 10.0), change: result(change_p50, 10.0)}
    failures = {parent: failed[0], change: failed[1]}
    gates = {parent: correct[0], change: correct[1]}

    def fake_run(checkout, workload, seed, seconds):
        return {"correct": gates[checkout], "failed": failures[checkout],
                "attempted": 5, **values[checkout]}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    return bench_pairs.main([str(parent), str(change), "--workload", "w",
                             "--seed", str(seed), "--pairs", "2"])


def test_main_marks_regressions(tmp_path, monkeypatch, capsys):
    assert run_main(tmp_path, monkeypatch) == 1
    lines = {line.split()[0]: line
             for line in capsys.readouterr().out.splitlines()
             if line.startswith(("question", "failed_share"))}
    assert "REGRESSION" in lines["question_s_p50"]
    assert "REGRESSION" not in lines["questions_per_s"]
    assert "REGRESSION" not in lines["failed_share"]


def test_main_marks_a_higher_failed_share(tmp_path, monkeypatch, capsys):
    assert run_main(tmp_path, monkeypatch, failed=(0, 1)) == 1
    out = capsys.readouterr().out.splitlines()
    line = next(line for line in out if line.startswith("failed_share"))
    assert "REGRESSION" in line
    rows = {row["metric"]: row for row in json.loads(out[-1])["summary"]}
    assert rows["failed_share"]["change"] == [0.2, 0.2, 0.2]


def test_a_share_rising_from_zero_reads_as_the_difference():
    def run(correct, failed):
        return {"correct": correct, "failed": failed, "attempted": 5,
                **result(1.0, 1.0)}

    runs = [(run(True, 0), run(False, 2))] * 3
    incorrect = bench_pairs.incorrect_row(runs)
    assert incorrect["parent"][1] == 0.0 and incorrect["change"][1] == 1.0
    assert incorrect["regression"]
    assert incorrect["delta"] == 1.0
    failed = bench_pairs.failure_row(runs)
    assert failed["change"][1] == 0.4
    assert failed["regression"]
    assert failed["delta"] == 0.4


def test_incorrect_share_counts_runs_reported_incorrect():
    def run(correct):
        return {"correct": correct, **result(1.0, 1.0)}

    runs = [(run(True), run(False)), (run(True), run(True)),
            (run(False), run(False))]
    row = bench_pairs.incorrect_row(runs)
    assert row["metric"] == "incorrect_share"
    assert row["parent"][1] == 0.0
    assert row["change"][1] == 1.0
    assert row["regression"]
    assert not row["gain"] and not row["unresolved"]
    # as many incorrect runs on both sides is no regression
    row = bench_pairs.incorrect_row([(run(False), run(True)),
                                     (run(True), run(False))])
    assert not row["regression"]


def test_main_marks_a_run_reported_incorrect(tmp_path, monkeypatch,
                                              capsys):
    # a wrong fixture answer with no failed question, as run.py reports
    # it: "correct": false, "failed": 0
    assert run_main(tmp_path, monkeypatch, change_p50=1.0,
                    correct=(True, False)) == 1
    out = capsys.readouterr().out.splitlines()
    line = next(line for line in out if line.startswith("incorrect_share"))
    assert "REGRESSION" in line
    assert sum("REGRESSION" in line for line in out) == 1


def test_main_ends_with_one_json_line(tmp_path, monkeypatch, capsys):
    assert run_main(tmp_path, monkeypatch, seed=3) == 1
    record = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (record["workload"], record["seed"], record["pairs"]) == \
        ("w", 3, 2)
    assert len(record["runs"]) == 2
    first = record["runs"][0]
    assert first["parent"]["failed"] == 0
    assert first["change"]["attempted"] == 5
    assert first["change"]["metrics"]["question_s_p50"]["value"] == 1.5
    rows = {row["metric"]: row for row in record["summary"]}
    assert rows["question_s_p50"]["parent"] == [1.0, 1.0, 1.0]
    assert rows["question_s_p50"]["regression"]
    assert not rows["questions_per_s"]["regression"]


def test_main_exits_1_only_on_a_regression(tmp_path, monkeypatch, capsys):
    assert run_main(tmp_path / "same", monkeypatch, change_p50=1.0) == 0
    # a higher failed_share alone is a regression
    assert run_main(tmp_path / "failing", monkeypatch, failed=(0, 1),
                    change_p50=1.0) == 1
    out = capsys.readouterr().out
    assert out.count("REGRESSION") == 1
