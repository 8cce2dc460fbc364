"""Compare two sets of benchmark results, workload by workload.

Usage (from the repository root)::

    python3 perfbench/compare.py OLD NEW

``OLD`` and ``NEW`` are ``results.jsonl`` files written by ``run.py`` (or
directories holding one), typically the parent commit's runs and the
change's, made with the same ``--seconds``.  Only results whose environment
stamps agree (Python, numpy and networkx versions, CPU count and model) are
compared; mixed environments exit with code 2.

For each workload and end-to-end metric the report gives both sides' median
and quartiles and a verdict judged by the metric's bound in
``BENCHMARK.json``:

* ``worse`` -- the new median is worse than the old by more than the bound;
* ``better`` -- the new median is better by more than the old runs' own
  spread and the new run wins at least nine in ten (old, new) pairings;
* ``unresolved`` -- either side's spread (inter-quartile distance over the
  median) exceeds the bound, unless every new run beats every old run;
* ``unchanged`` -- none of the above.

Traced results add a per-layer table of median deltas.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Iterable, List, Optional, Sequence

from stats import relative_spread, summarise

ENV_KEYS = ("python", "numpy", "networkx", "nproc", "cpu")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> List[Dict]:
    if os.path.isdir(path):
        path = os.path.join(path, "results.jsonl")
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def environments(records: Iterable[Dict]) -> set:
    return {tuple(record["env"].get(key) for key in ENV_KEYS) for record in records}


def verdict(old: Sequence[float], new: Sequence[float], better: str, bound: float) -> str:
    """Classify a change of one metric on one workload (see module doc)."""
    sign = 1.0 if better == "higher" else -1.0
    old_median = summarise(old)["median"]
    new_median = summarise(new)["median"]
    pairs = [sign * (fresh - stale) for fresh in new for stale in old]
    if max(relative_spread(old), relative_spread(new)) > bound:
        return "better" if all(delta > 0 for delta in pairs) else "unresolved"
    if old_median == 0:
        return "unchanged" if new_median == 0 else ("better" if sign * new_median > 0 else "worse")
    change = sign * (new_median - old_median) / abs(old_median)
    if change < -bound:
        return "worse"
    # Ties count as neither side winning, but stay in the denominator.
    wins = sum(1 for delta in pairs if delta > 0) / len(pairs)
    if change > relative_spread(old) and wins >= 0.9:
        return "better"
    return "unchanged"


def group(records: Iterable[Dict], traced: bool) -> Dict[str, List[Dict]]:
    table: Dict[str, List[Dict]] = {}
    for record in records:
        if bool(record["traced"]) == traced:
            table.setdefault(record["workload"], []).append(record)
    return table


def values(records: List[Dict], name: str) -> List[float]:
    return [record["metrics"][name]["value"] for record in records if name in record["metrics"]]


def report(old: List[Dict], new: List[Dict], definition: Dict) -> List[str]:
    """The comparison, one line per workload header and metric."""
    lines: List[str] = []
    fmt = lambda s: f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] n={s['n']}"  # noqa: E731
    old_runs, new_runs = group(old, False), group(new, False)
    for workload in sorted(set(old_runs) & set(new_runs)):
        lines.append(f"== {workload} (end to end; median [q1, q3])")
        for metric in definition["end_to_end"]:
            a, b = values(old_runs[workload], metric["name"]), values(new_runs[workload], metric["name"])
            if not a or not b:
                continue
            result = verdict(a, b, metric["better"], metric["bound"])
            lines.append(
                f"  {metric['name']:<18} {metric['unit']:<8} old {fmt(summarise(a)):<36} "
                f"new {fmt(summarise(b)):<36} {result} (bound {metric['bound']:g})"
            )
    old_traced, new_traced = group(old, True), group(new, True)
    for workload in sorted(set(old_traced) & set(new_traced)):
        lines.append(f"== {workload} (per layer, traced runs; median old -> new)")
        for metric in definition["per_layer"]:
            a, b = values(old_traced[workload], metric["name"]), values(new_traced[workload], metric["name"])
            if not a or not b:
                continue
            before, after = summarise(a)["median"], summarise(b)["median"]
            if before == after == 0:
                continue
            share = f"{(after - before) / abs(before):+.1%}" if before else "new"
            lines.append(f"  {metric['name']:<42} {before:>12.4g} -> {after:<12.4g} {metric['unit']:<8} {share}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two benchmark result sets.")
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    old, new = load(args.old), load(args.new)
    stamps = environments(old) | environments(new)
    if len(stamps) > 1:
        print("perfbench: results come from different environments; not comparing:", file=sys.stderr)
        for stamp in sorted(stamps, key=repr):
            print(f"  {dict(zip(ENV_KEYS, stamp))}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        definition = json.load(handle)
    lines = report(old, new, definition)
    print("\n".join(lines) if lines else "no workload appears in both result sets")
    return 0


if __name__ == "__main__":
    sys.exit(main())
