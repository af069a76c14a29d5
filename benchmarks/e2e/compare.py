"""Compare two sets of benchmark runs: ``compare.py A_DIR B_DIR``.

Each side is every ``results.json`` below its directory, one per run of
``run.py`` without ``--trace``; runs are paired in path order.  For each
workload and end-to-end metric this prints both sides' median and
quartiles, the pairs B won (ties count for neither side) and a verdict,
using the bounds of BENCHMARK.json:

* ``improved`` — B won at least nine tenths of at least ten pairs, and
  the medians differ by more than A's quartile distance;
* ``unresolved`` — A has fewer than three runs, so its spread is
  unknown, or A's quartile distance is wider than the bound allows;
  unless every run of B reads better than every run of A (``no worse``);
* ``regressed`` — B's median is worse than A's by more than the bound;
* ``no worse`` — otherwise.

Exits 1 when any workload and metric regressed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Fewest pairs on which a gain may be claimed.
MIN_PAIRS = 10

#: Fewest runs of A whose quartiles say how far A's own runs spread.
MIN_SPREAD_RUNS = 3


def load_runs(directory: pathlib.Path) -> list[dict]:
    runs = []
    for path in sorted(directory.rglob("results.json")):
        results = json.loads(path.read_text())
        if not results["trace"]:
            runs.append(results)
    if not runs:
        raise SystemExit(f"error: no untraced results.json under {directory}")
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(
    a: list[float], b: list[float], better: str, bound: float
) -> tuple[str, int, int]:
    """``(verdict, pairs B won, pairs)`` for one metric on one workload."""
    sign = 1 if better == "higher" else -1
    pairs = list(zip(a, b))
    won = sum(1 for x, y in pairs if sign * (y - x) > 0)
    q1, a_median, q3 = quartiles(a)
    b_median = statistics.median(b)
    gain = sign * (b_median - a_median)
    if len(pairs) >= MIN_PAIRS and won >= 0.9 * len(pairs) and gain > q3 - q1:
        return "improved", won, len(pairs)
    if len(a) < MIN_SPREAD_RUNS or q3 - q1 > bound * abs(a_median):
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "no worse", won, len(pairs)
        return "unresolved", won, len(pairs)
    if -gain > bound * abs(a_median):
        return "regressed", won, len(pairs)
    return "no worse", won, len(pairs)


def compare(a_runs: list[dict], b_runs: list[dict], metrics: list[dict]):
    """Yield one row per workload and metric present on both sides."""
    names = [n for n in a_runs[0]["workloads"] if n in b_runs[0]["workloads"]]
    for name in names:
        for metric in metrics:
            key = metric["name"]
            a = [r["workloads"][name]["metrics"][key] for r in a_runs]
            b = [r["workloads"][name]["metrics"][key] for r in b_runs]
            result, won, pairs = verdict(a, b, metric["better"], metric["bound"])
            yield name, metric, quartiles(a), quartiles(b), won, pairs, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a_dir", type=pathlib.Path)
    parser.add_argument("b_dir", type=pathlib.Path)
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    a_runs, b_runs = load_runs(args.a_dir), load_runs(args.b_dir)
    print(f"A: {len(a_runs)} run(s) of {args.a_dir}")
    print(f"B: {len(b_runs)} run(s) of {args.b_dir}")
    regressed = False
    for name, metric, qa, qb, won, pairs, result in compare(
        a_runs, b_runs, metrics
    ):
        regressed |= result == "regressed"
        print(
            f"{name:12} {metric['name']:17} "
            f"A {qa[1]:10.4g} [{qa[0]:.4g}, {qa[2]:.4g}]  "
            f"B {qb[1]:10.4g} [{qb[0]:.4g}, {qb[2]:.4g}] {metric['unit']:5} "
            f"won {won}/{pairs}  bound {metric['bound']:.0%}  {result}"
        )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
