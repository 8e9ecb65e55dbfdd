"""Run one graphquest benchmark workload and print its metrics.

    python3 perfbench/run.py --workload hub-fanout --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the repository root. Every metric is printed as
`name value unit`; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end ones, measured with no tracing; with --trace 1
they are the per-layer ones from a traced pass, and the self time of each
span is printed as well. --workload all runs every workload in turn and
prefixes each metric name with its workload.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".bench_build" / "perfbench"


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workload_names) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (ROOT / "src" / "graphquest").is_dir() or \
            not (ROOT / "tests" / "fixtures").is_dir():
        print(f"error: run from a graphquest checkout; {ROOT} has no "
              f"src/graphquest or tests/fixtures", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench
    import checks
    import spec

    args = parse_args(argv, spec.WORKLOADS)
    gate = checks.fixture_gate(ROOT / "tests" / "fixtures")
    for problem in gate:
        print(f"fixture gate: {problem}", file=sys.stderr)
    names = list(spec.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    units = {m.name: m.unit for m in
             (spec.PER_LAYER if args.trace else spec.END_TO_END)}
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    attempted = failed = 0
    metrics = {}
    for name in names:
        work_dir = tempfile.mkdtemp(dir=WORK_ROOT)
        try:
            outcome = bench.run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), work_dir)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        attempted += outcome.attempted
        failed += outcome.failed
        for problem in sorted(set(outcome.problems))[:20]:
            print(f"{name}: {problem}", file=sys.stderr)
        print(f"# {name} seed={args.seed} question runs="
              f"{outcome.attempted} failed_share="
              f"{outcome.failed / outcome.attempted:.4f} " + " ".join(
                  f"{key}={value:.6g}"
                  for key, value in outcome.notes.items()))
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, unit in units.items():
            value = outcome.metrics[metric]
            print(f"{name:15} {metric:24} {value:14.6g} {unit}")
            metrics[prefix + metric] = {"value": value, "unit": unit}
        if outcome.table:
            total = sum(seconds for _, seconds in outcome.table)
            print(f"# {name} self time per question, by span "
                  f"(sums to {total:.6f} s)")
            for span, seconds in outcome.table:
                print(f"{name:15} self {span:19} {seconds:14.6g} s "
                      f"{100 * seconds / total:6.2f}%")
    correct = failed == 0 and not gate
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
