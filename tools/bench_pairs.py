"""Run the benchmark on two checkouts in alternating pairs and compare them.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR \
        --workload hub-fanout --seed 1 --pairs 10

Each pair runs `perfbench/run.py --trace 0` once in each checkout, with
the run length that PARENT_DIR's BENCHMARK.json sets; even pairs run the
parent first, odd pairs the change. Every run's end-to-end metrics are
printed as it finishes. At the end, for each metric, the script prints
each side's median and quartiles, the change in the median, the pairs
the change won (ties count for neither side), and whether the gain rule
holds: the change wins at least nine tenths of the pairs and the medians
differ by more than the distance between the parent's quartiles. A
metric whose change median is worse than the parent's by more than its
BENCHMARK.json bound (a fraction of the parent's median) is marked
REGRESSION; one whose parent quartiles lie further apart than that bound
is marked unresolved, because such runs cannot show a move that size,
unless every change run reads better than every parent run. Row
failed_share gives each side's median of failed/attempted questions and
is marked REGRESSION when the change's median is higher. The last row,
incorrect_share, gives each side's share of runs that run.py reported
`"correct": false` (a failed question or a failed fixture check, such as
a wrong answer to the Panama question) and is marked REGRESSION when the
change has more such runs than the parent. The script exits 1 when any
row is marked REGRESSION, and 0 otherwise.

The last line of output is one JSON object: the workload, seed and pair
count, every run's run.py result (its `correct`, metrics, `failed` and
`attempted`)
as {"parent": ..., "change": ...} per pair, and the summary rows. Save it
to keep a before/after record, e.g. `... | tail -n 1 > BENCH.json`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> dict:
    """One `perfbench/run.py --trace 0` run: its final JSON line."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: benchmark printed nothing "
                         f"(exit {done.returncode}):\n{done.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs: list[tuple[dict, dict]],
              spec: dict[str, dict]) -> list[dict]:
    """Per metric: each side's quartiles, the change's wins, the gain rule,
    and the regression and spread checks against the metric's bound.

    `runs` holds one (parent, change) pair of run.py results per pair;
    `spec` maps each metric name to its BENCHMARK.json entry ("better"
    is "lower" or "higher"; "bound" is a fraction of the parent median).
    """
    rows = []
    for name in runs[0][0]["metrics"]:
        parent = [p["metrics"][name]["value"] for p, _ in runs]
        change = [c["metrics"][name]["value"] for _, c in runs]
        # names carry a "<workload>." prefix under --workload all
        entry = spec[name.rsplit(".", 1)[-1]]
        sign = 1 if entry["better"] == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        p_q1, p_med, p_q3 = quartiles(parent)
        c_q1, c_med, c_q3 = quartiles(change)
        scale = abs(p_med) or 1.0
        all_better = min(sign * c for c in change) > max(sign * p
                                                         for p in parent)
        rows.append({
            "metric": name,
            "unit": runs[0][0]["metrics"][name]["unit"],
            "parent": (p_q1, p_med, p_q3),
            "change": (c_q1, c_med, c_q3),
            "delta": (c_med - p_med) / p_med if p_med else 0.0,
            "wins": wins,
            "gain": (wins >= 0.9 * len(runs)
                     and sign * (c_med - p_med) > p_q3 - p_q1),
            "regression": -sign * (c_med - p_med) / scale > entry["bound"],
            "unresolved": ((p_q3 - p_q1) / scale > entry["bound"]
                           and not all_better),
        })
    return rows


def _share_row(metric: str, shares: list[tuple[float, float]]) -> dict:
    """A (parent, change) share per pair, in the shape of a `summarize`
    row; the caller sets "regression"."""
    p_q1, p_med, p_q3 = quartiles([p for p, _ in shares])
    c_q1, c_med, c_q3 = quartiles([c for _, c in shares])
    return {
        "metric": metric,
        "unit": "ratio",
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "delta": (c_med - p_med) / p_med if p_med else 0.0,
        "wins": sum(c < p for p, c in shares),
        "gain": False,
        "regression": False,
        "unresolved": False,
    }


def failure_row(runs: list[tuple[dict, dict]]) -> dict:
    """The failed/attempted share of each side; any rise in the change's
    median is a regression."""
    row = _share_row("failed_share", [
        (p["failed"] / p["attempted"], c["failed"] / c["attempted"])
        for p, c in runs])
    row["regression"] = row["change"][1] > row["parent"][1]
    return row


def incorrect_row(runs: list[tuple[dict, dict]]) -> dict:
    """Each side's share of runs reported `"correct": false`; one such run
    more than the parent's is a regression."""
    flags = [(float(not p["correct"]), float(not c["correct"]))
             for p, c in runs]
    row = _share_row("incorrect_share", flags)
    row["regression"] = sum(c for _, c in flags) > sum(p for p, _ in flags)
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    runs = []
    for index in range(args.pairs):
        order = ("parent", "change") if index % 2 == 0 else \
            ("change", "parent")
        result = {}
        for side in order:
            result[side] = run_once(sides[side], args.workload, args.seed,
                                    spec["run_seconds"])
            values = " ".join(f"{name}={m['value']:.6g}" for name, m in
                              result[side]["metrics"].items())
            print(f"pair {index + 1} {side:6} correct="
                  f"{result[side]['correct']} failed="
                  f"{result[side]['failed']}/{result[side]['attempted']} "
                  f"{values}", flush=True)
        runs.append((result["parent"], result["change"]))
    print(f"\n{args.workload} seed={args.seed} pairs={args.pairs}: "
          f"median [q1, q3] per side")
    rows = summarize(runs, metrics) + [failure_row(runs), incorrect_row(runs)]
    for row in rows:
        p_q1, p_med, p_q3 = row["parent"]
        c_q1, c_med, c_q3 = row["change"]
        print(f"{row['metric']:22} parent {p_med:10.5g} [{p_q1:.5g}, "
              f"{p_q3:.5g}]  change {c_med:10.5g} [{c_q1:.5g}, {c_q3:.5g}] "
              f"{row['unit']:6} {100 * row['delta']:+7.1f}%  wins "
              f"{row['wins']}/{args.pairs}"
              f"{'  gain' if row['gain'] else ''}"
              f"{'  REGRESSION' if row['regression'] else ''}"
              f"{'  unresolved' if row['unresolved'] else ''}")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "pairs": args.pairs,
        "runs": [{"parent": parent, "change": change}
                 for parent, change in runs],
        "summary": rows,
    }))
    return 1 if any(row["regression"] for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
