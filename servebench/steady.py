"""Steadiness command: repeat the benchmark and report the spread.

Runs ``run.py`` once per seed and workload, one run at a time, and prints
for every end-to-end metric the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``), the spread ``(Q3 - Q1) / median``
and that spread as a share of the metric's bound in ``BENCHMARK.json``.
With ``--sets 2`` it makes two sets of runs on different seeds and also
prints how far the second set's median moved from the first's, either
way, against the bound.  It exits with code 1 when a run is not correct or
has a failed operation, a spread exceeds its bound, or a median moved by
more than its bound.

Usage, from the root of the repository::

    python3 servebench/steady.py --runs 10 --seconds 25
    python3 servebench/steady.py --workload wide_index --runs 5 --sets 2
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{completed.returncode}: {completed.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per workload and set, each on its own seed")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path,
                        help="also write every run's result to this JSON file")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    ok = True
    raw = {}
    for workload in workloads:
        sets = []
        for number in range(args.sets):
            results = []
            for offset in range(args.runs):
                seed = args.first_seed + number * args.runs + offset
                result = run_once(workload, seed, args.seconds, 0)
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} "
                      f"failed={result['failed']}", flush=True)
                ok &= result["correct"] and result["failed"] == 0
                results.append(result)
            sets.append(results)
        raw[workload] = sets
        print(f"\n{workload}: {args.runs} runs per set, {args.seconds:g} s each")
        print(f"  {'metric':16s} {'set':>3s} {'median':>11s} {'Q1':>11s} "
              f"{'Q3':>11s} {'spread':>7s} {'bound':>6s} {'/bound':>6s}")
        medians = []
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            row_medians = []
            for number, results in enumerate(sets, start=1):
                values = [r["metrics"][name]["value"] for r in results]
                q1, median, q3, share = spread(values)
                row_medians.append(median)
                print(f"  {name:16s} {number:3d} {median:11.4f} {q1:11.4f} "
                      f"{q3:11.4f} {share:7.3f} {bound:6.3f} "
                      f"{share / bound:6.2f}")
                if share > bound:
                    ok = False
            medians.append((metric, row_medians))
        if args.sets == 2:
            for metric, (first, second) in medians:
                moved = (second - first) / first
                worse = moved if metric["better"] == "lower" else -moved
                verdict = "ok" if abs(moved) <= metric["bound"] else "APART"
                ok &= abs(moved) <= metric["bound"]
                print(f"  {metric['name']:16s} second set moved {moved:+.3f}, "
                      f"worse by {worse:+.3f} (bound {metric['bound']}) "
                      f"{verdict}")
            shares = [sum(r["failed"] for r in results)
                      / sum(r["attempted"] for r in results)
                      for results in sets]
            print(f"  failed share per set: {shares}")
            ok &= shares[0] == shares[1]
    if args.out:
        args.out.write_text(json.dumps(raw))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
