#!/usr/bin/env python3
"""Compare sets of bench_e2e results.

    compare.py --parent A1.json [A2.json ...] --change B1.json [B2.json ...]
               [--claim WORKLOAD:METRIC ...] [--benchmark-json PATH]

Each file is a BENCH_e2e.json written by `run.sh --out DIR`. Prints one row per
workload x end-to-end metric: each side's median and quartiles, the bound
BENCHMARK.json fixes, and a verdict:

  ok          the change's median is no worse than the parent's by more than
              the bound
  regressed   it is worse by more than the bound
  unresolved  the run-to-run spread (quartile distance over median, either
              side) is wider than the bound, so "unchanged" cannot be claimed,
              unless every run of the change reads better than every run of
              the parent

For an A/A run give two sets of the same commit; every row must be `ok`.

A gain is claimed with --claim: the files are paired in the order given
(run them alternating which side goes first), and the claim holds only with at
least 10 pairs, the change winning at least 9/10 of all pairs (ties count for
neither), and the medians differing by more than the parent's own quartile
distance. Exit status is 1 if any row regressed or any claim is not met.
"""

import argparse
import json
import os
import statistics
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for workload, blocks in doc.get("workloads", {}).items():
        metrics = blocks.get("end_to_end", {}).get("metrics", {})
        out[workload] = {name: m["value"] for name, m in metrics.items() if m.get("value") is not None}
    return out


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def worse_by(parent, change, better):
    """Share of the parent's value by which the change is worse (negative: better)."""
    if parent == 0:
        return 0.0
    return (change - parent) / parent if better == "lower" else (parent - change) / parent


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    ap.add_argument("--benchmark-json", default=os.path.join(here, "..", "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.benchmark_json) as f:
        spec = json.load(f)
    parents = [load(p) for p in args.parent]
    changes = [load(p) for p in args.change]
    failed = False

    header = f"{'workload':<17} {'metric':<17} {'parent med [q1,q3]':<32} {'change med [q1,q3]':<32} {'delta':>8} {'bound':>6}  verdict"
    print(header)
    print("-" * len(header))
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            pv = [r[w["name"]][m["name"]] for r in parents if m["name"] in r.get(w["name"], {})]
            cv = [r[w["name"]][m["name"]] for r in changes if m["name"] in r.get(w["name"], {})]
            if not pv or not cv:
                print(f"{w['name']:<17} {m['name']:<17} missing on one side")
                failed = True
                continue
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            delta = worse_by(pm, cm, m["better"])
            spread = max((p3 - p1) / pm if pm else 0.0, (c3 - c1) / cm if cm else 0.0)
            if m["better"] == "lower":
                all_better = max(cv) < min(pv)
            else:
                all_better = min(cv) > max(pv)
            if delta > m["bound"]:
                verdict = "regressed"
                failed = True
            elif spread > m["bound"] and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(
                f"{w['name']:<17} {m['name']:<17} "
                f"{f'{pm:.4g} [{p1:.4g}, {p3:.4g}]':<32} {f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':<32} "
                f"{delta:>+8.1%} {m['bound']:>6.0%}  {verdict}"
            )

    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}
    for claim in args.claim:
        workload, _, metric = claim.partition(":")
        better = directions.get(metric)
        pairs = [
            (p[workload][metric], c[workload][metric])
            for p, c in zip(parents, changes)
            if metric in p.get(workload, {}) and metric in c.get(workload, {})
        ]
        if better is None or not pairs:
            print(f"claim {claim}: no such end-to-end metric or no pairs")
            failed = True
            continue
        wins = sum(1 for p, c in pairs if (c < p if better == "lower" else c > p))
        p1, pm, p3 = quartiles([p for p, _ in pairs])
        cm = statistics.median([c for _, c in pairs])
        gap = abs(pm - cm)
        met = len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gap > (p3 - p1) and worse_by(pm, cm, better) < 0
        print(
            f"claim {claim}: {len(pairs)} pairs (need 10), change wins {wins}, "
            f"medians {pm:.4g} -> {cm:.4g} (gap {gap:.4g}, parent quartile distance {p3 - p1:.4g}): "
            f"{'met' if met else 'NOT met'}"
        )
        failed |= not met
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
