"""Steadiness check: two sets of repeated runs per workload, compared.

    python3 perfbench/steady.py [--runs 5] [--seconds 10] [--workload NAME ...]

Each set runs ``run.py --trace 0`` once per seed (set A seeds 1..N, set B
seeds 101..100+N).  For every end-to-end metric it prints each set's
median and quartiles (``statistics.quantiles(values, n=4)``), the
inter-quartile spread as a share of the median, and whether the spread
stays within the metric's bound from ``BENCHMARK.json`` and the second
median lies within that share of the first, in either direction.
``setup_s`` is held to its spread bound like every other metric.  The exit code is non-zero if any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {completed.returncode}:\n{completed.stderr[-2000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--log", help="append every run's result line to this file")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {metric["name"]: metric for metric in spec["end_to_end"]}
    workloads = args.workload or [workload["name"] for workload in spec["workloads"]]
    ok = True
    for workload in workloads:
        sets = []
        for base in (0, 100):
            results = [run_once(workload, base + index + 1, seconds) for index in range(args.runs)]
            sets.append(results)
            if args.log:
                with open(args.log, "a") as log:
                    for index, result in enumerate(results):
                        log.write(json.dumps({"workload": workload, "seed": base + index + 1, **result}) + "\n")
        shares = [{r["failed"] / r["attempted"] for r in results} for results in sets]
        correct = all(r["correct"] for results in sets for r in results)
        same_share = len(shares[0] | shares[1]) == 1
        print(f"{workload}: correct={correct} failed-share identical={same_share} {sorted(shares[0] | shares[1])}")
        ok &= correct and same_share
        for name, metric in bounds.items():
            bound = metric["bound"]
            rows = []
            for results in sets:
                rows.append(spread([r["metrics"][name]["value"] for r in results]))
            shift = rows[1][1] / rows[0][1] - 1.0
            spread_ok = max(rows[0][3], rows[1][3]) <= bound
            agree = abs(shift) <= bound
            ok &= spread_ok and agree
            print(f"  {name:18s} bound {bound:.2f} | " + " | ".join(
                f"q1 {q1:.4g} med {q2:.4g} q3 {q3:.4g} iqr/med {share:.3f}" for q1, q2, q3, share in rows)
                + f" | shift {shift:+.3f} {'ok' if spread_ok and agree else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
