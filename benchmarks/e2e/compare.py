"""Repeatability of the end-to-end metrics between two sets of runs.

Usage::

    python benchmarks/e2e/compare.py A.jsonl B.jsonl

A and B are files written by ``run.py --out`` (one JSON record per
workload run), typically ten seeds each.  For every workload and
end-to-end metric of BENCHMARK.json this prints each set's median,
quartiles and spread (IQR / median, quartiles as
``statistics.quantiles(values, n=4)`` gives them), and the change of
B's median against A's, signed so that positive is worse.  It exits 1
when a change exceeds the metric's bound, and prints the bound the two
sets support: three times the largest spread seen (set-up excepted,
whose spread is not bounded) or the largest change, whichever is
larger.  Two interleaved sets of the same code measure the noise the
bounds must absorb.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_set(path: str) -> dict:
    """``{workload: {metric: [per-run median, ...]}}`` of untraced runs."""
    values: dict = defaultdict(lambda: defaultdict(list))
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("trace"):
                continue
            for metric, summary in record["metrics"].items():
                values[record["workload"]][metric].append(summary["value"])
    return values


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, IQR / median)."""
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="JSON-lines records of set A (run.py --out)")
    parser.add_argument("b", help="JSON-lines records of set B")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        specs = {m["name"]: m for m in json.load(f)["end_to_end"]}
    set_a, set_b = load_set(args.a), load_set(args.b)

    failed = False
    needed: dict[str, float] = defaultdict(float)
    print(f"{'workload':<20} {'metric':<12} {'n':>5} {'A median':>11} {'A q1':>10} "
          f"{'A q3':>10} {'A iqr/med':>9} {'B median':>11} {'B iqr/med':>9} "
          f"{'delta':>8} {'bound':>6}")
    for workload in sorted(set(set_a) | set(set_b)):
        for metric, spec in specs.items():
            a, b = set_a[workload].get(metric), set_b[workload].get(metric)
            if not a or not b:
                print(f"{workload:<20} {metric:<12} missing in {'A' if not a else 'B'}")
                failed = True
                continue
            med_a, q1_a, q3_a, rel_a = spread(a)
            med_b, _q1_b, _q3_b, rel_b = spread(b)
            delta = (med_b - med_a) / med_a
            worse = delta if spec["better"] == "lower" else -delta
            verdict = ""
            if worse > spec["bound"]:
                verdict = "  REGRESSION"
                failed = True
            elif metric != "setup_s" and max(rel_a, rel_b) > spec["bound"]:
                verdict = "  NOISY (spread > bound)"
            elif metric != "setup_s" and max(rel_a, rel_b) > spec["bound"] / 3:
                verdict = "  spread > bound/3"
            print(f"{workload:<20} {metric:<12} {len(a):>2}/{len(b):<2} {med_a:>11.5g} "
                  f"{q1_a:>10.5g} {q3_a:>10.5g} {rel_a:>9.2%} {med_b:>11.5g} {rel_b:>9.2%} "
                  f"{worse:>+8.2%} {spec['bound']:>6.0%}{verdict}")
            floor = 0.0 if metric == "setup_s" else 3 * max(rel_a, rel_b)
            needed[metric] = max(needed[metric], floor, abs(delta))
    print()
    for metric, spec in specs.items():
        print(f"{metric:<12} bound {spec['bound']:.0%}; these sets need at least "
              f"{needed[metric]:.1%}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
