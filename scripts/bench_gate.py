#!/usr/bin/env python3
"""Benchmark regression gate: a freshly generated artifact vs the checked-in
baseline.

Usage: bench_gate.py FRESH.json BASELINE.json [--tolerance 0.25]

Absolute wall times are machine-dependent, so the gate never compares them
across files. It checks two kinds of properties instead:

  * structural invariants that must hold on any machine — backends agree
    bitwise, the tuner converges, no jobs shed, plan cache hits — and
  * relative metrics (tuned/reference ratios, convergence run counts,
    tail-latency spread) within ``(1 + tolerance)`` of the baseline's own
    value for the same metric.

Supports ``BENCH_tune.json`` (bench_tune), ``BENCH_shm.json`` (bench_shm),
``BENCH_store.json`` (bench_store), and ``BENCH_kernel.json``
(bench_kernel); the schema is detected from the artifact's ``bench`` field.
"""

import json
import sys


class Gate:
    def __init__(self, tolerance):
        self.tolerance = tolerance
        self.failures = []

    def check(self, ok, label, detail=""):
        tag = "ok  " if ok else "FAIL"
        print(f"  {tag} {label}" + (f" ({detail})" if detail else ""))
        if not ok:
            self.failures.append(label)

    def within(self, fresh, base, label):
        """fresh must not exceed base by more than the tolerance band."""
        limit = base * (1.0 + self.tolerance)
        self.check(
            fresh <= limit,
            label,
            f"fresh {fresh:.4g} vs baseline {base:.4g}, limit {limit:.4g}",
        )


def gate_tune(gate, fresh, base):
    fresh_apps = {a["app"]: a for a in fresh["apps"]}
    base_apps = {a["app"]: a for a in base["apps"]}
    gate.check(
        set(fresh_apps) == set(base_apps),
        "same application set",
        f"{sorted(fresh_apps)} vs {sorted(base_apps)}",
    )
    for name in sorted(set(fresh_apps) & set(base_apps)):
        f, b = fresh_apps[name], base_apps[name]
        print(f"- {name}")
        cold, bcold = f["cold"], b["cold"]
        gate.check(cold["runs_to_converge"] is not None, "cold search converged")
        if cold["runs_to_converge"] is not None:
            gate.within(
                cold["runs_to_converge"],
                bcold["runs_to_converge"],
                "cold runs to converge",
            )
            gate.within(
                cold["loop_executions"],
                bcold["loop_executions"],
                "cold loop executions",
            )
        gate.check(cold["within_10pct_of_best"], "cold exploit within 10% of best fixed config")
        gate.within(
            cold["exploit_best_ns"] / cold["reference_wall_ns"],
            bcold["exploit_best_ns"] / bcold["reference_wall_ns"],
            "cold exploit/reference ratio",
        )
        warm, bwarm = f["warm"], b["warm"]
        gate.check(warm["within_5pct_of_best"], "warm run within 5% of best fixed config")
        gate.within(
            warm["wall_ns"] / warm["reference_wall_ns"],
            bwarm["wall_ns"] / bwarm["reference_wall_ns"],
            "warm/reference ratio",
        )
        gate.check(len(warm["keys"]) == len(bwarm["keys"]), "same decision-key count")


def gate_shm(gate, fresh, base):
    runs, bruns = fresh["solo_airfoil"]["runs"], base["solo_airfoil"]["runs"]
    gate.check(
        {r["backend"] for r in runs} == {r["backend"] for r in bruns},
        "same backend set",
    )
    gate.check(
        len({r["digest"] for r in runs}) == 1,
        "solo backends agree bitwise",
        f"{len({r['digest'] for r in runs})} distinct digests",
    )
    s, bs = fresh["service_mixed"], base["service_mixed"]
    gate.check(s["completed"] == s["jobs"], "all jobs completed", f"{s['completed']}/{s['jobs']}")
    gate.check(s["shed"] == 0, "no jobs shed", f"shed {s['shed']}")
    gate.check(
        s["plan_topo_hits"] > s["plan_builds"],
        "plan cache hits exceed builds",
        f"{s['plan_topo_hits']} hits vs {s['plan_builds']} builds",
    )
    gate.check(
        0 < s["p50_ms"] <= s["p95_ms"] <= s["p99_ms"],
        "latency percentiles ordered",
    )
    # Tail spread is the machine-portable latency metric; absolute
    # milliseconds are not. Double headroom: percentile ratios are noisier
    # than the tuner's min-of-N ratios.
    gate.tolerance, saved = gate.tolerance * 2, gate.tolerance
    gate.within(s["p99_ms"] / s["p50_ms"], bs["p99_ms"] / bs["p50_ms"], "p99/p50 spread")
    gate.tolerance = saved


def gate_store(gate, fresh, base):
    m, bm = fresh["march"], base["march"]
    gate.check(m["bitwise_equal"], "durable march agrees with in-memory bitwise")
    gate.check(m["appends"] == bm["appends"], "same append count", f"{m['appends']} vs {bm['appends']}")
    gate.check(
        m["payload_bytes"] == bm["payload_bytes"],
        "same payload volume",
        f"{m['payload_bytes']} vs {bm['payload_bytes']}",
    )
    # fsync cost varies more across filesystems than compute does — double
    # headroom on the durable/memory ratio, like gate_shm's tail spread.
    gate.tolerance, saved = gate.tolerance * 2, gate.tolerance
    gate.within(m["overhead_ratio"], bm["overhead_ratio"], "durable/memory overhead ratio")
    gate.tolerance = saved
    r, br = fresh["restart"], base["restart"]
    gate.check(r["bit_identical"], "killed march restarts bit-identical")
    gate.check(
        r["resumed_from"] == br["resumed_from"],
        "restored boundary unchanged",
        f"{r['resumed_from']} vs {br['resumed_from']}",
    )
    gate.check(r["records_replayed"] > 0, "replay recovered records", f"{r['records_replayed']}")
    s = fresh["fault_sweep"]
    gate.check(
        s["converged"] == s["seeds"],
        "every fault-sweep seed converged",
        f"{s['converged']}/{s['seeds']}",
    )
    w, bw = fresh["wal"], base["wal"]
    gate.check(
        w["appends"] == bw["appends"] and w["payload_bytes"] == bw["payload_bytes"],
        "same WAL workload",
    )


def gate_kernel(gate, fresh, base):
    def key(a):
        return (a["layout"], a["renumbered"])

    fresh_arms = {key(a): a for a in fresh["arms"]}
    base_arms = {key(a): a for a in base["arms"]}
    gate.check(
        set(fresh_arms) == set(base_arms),
        "same arm set",
        f"{sorted(fresh_arms)} vs {sorted(base_arms)}",
    )
    # Layout never moves floating-point bits; renumbering legitimately
    # reorders the res_calc increments — so the arms must split into exactly
    # one digest per renumber class.
    for ren in (False, True):
        digs = {a["digest"] for a in fresh["arms"] if a["renumbered"] == ren}
        gate.check(
            len(digs) == 1,
            f"arms agree bitwise (renumbered={ren})",
            f"{len(digs)} distinct digests",
        )
    # The headline claim: the best SoA/AoSoA arm with RCM beats the default
    # (AoS, mesh numbering as handed to us) on the gated kernels — on this
    # machine, in this fresh run.
    default = fresh_arms[("aos", False)]["kernels"]
    bdefault = base_arms[("aos", False)]["kernels"]
    layouts = sorted({a["layout"] for a in fresh["arms"] if a["layout"] != "aos"})
    for kernel in ("res_calc", "update"):
        tuned = min(fresh_arms[(lay, True)]["kernels"][kernel] for lay in layouts)
        btuned = min(base_arms[(lay, True)]["kernels"][kernel] for lay in layouts)
        gate.check(
            tuned < default[kernel],
            f"SoA/AoSoA + RCM beats default on {kernel}",
            f"{tuned} vs {default[kernel]} ns",
        )
        # And the speedup itself must not regress vs the checked-in baseline.
        # Cache geometry varies more across machines than the tuner's
        # min-of-N ratios do — double headroom, like gate_shm's tail spread.
        gate.tolerance, saved = gate.tolerance * 2, gate.tolerance
        gate.within(
            tuned / default[kernel],
            btuned / bdefault[kernel],
            f"{kernel} tuned/default ratio",
        )
        gate.tolerance = saved
    runs, bruns = fresh["backends"]["runs"], base["backends"]["runs"]
    gate.check(
        {(r["backend"], r["layout"], r["renumbered"]) for r in runs}
        == {(r["backend"], r["layout"], r["renumbered"]) for r in bruns},
        "same backend sweep",
    )
    for ren in (False, True):
        digs = {r["digest"] for r in runs if r["renumbered"] == ren}
        gate.check(
            len(digs) == 1,
            f"backends agree bitwise (renumbered={ren})",
            f"{len(digs)} distinct digests",
        )
    # The kernel-arm digests and the backend-sweep digests hash the same
    # final state only for matching march lengths, so they are not compared.


def main():
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    tolerance = 0.25
    for a in sys.argv[1:]:
        if a.startswith("--tolerance"):
            tolerance = float(a.split("=", 1)[1] if "=" in a else args.pop())
    if len(args) != 2:
        sys.exit(__doc__)
    fresh, base = (json.load(open(p)) for p in args)
    kind = fresh.get("bench", "bench_shm" if "solo_airfoil" in fresh else "?")
    bkind = base.get("bench", "bench_shm" if "solo_airfoil" in base else "?")
    if kind != bkind:
        sys.exit(f"artifact kinds differ: fresh {kind} vs baseline {bkind}")
    print(f"bench_gate: {kind}, tolerance {tolerance:.0%}")
    gate = Gate(tolerance)
    if kind == "bench_tune":
        gate_tune(gate, fresh, base)
    elif kind == "bench_shm":
        gate_shm(gate, fresh, base)
    elif kind == "bench_store":
        gate_store(gate, fresh, base)
    elif kind == "bench_kernel":
        gate_kernel(gate, fresh, base)
    else:
        sys.exit(f"unknown artifact kind {kind!r}")
    if gate.failures:
        sys.exit(f"bench_gate: {len(gate.failures)} check(s) failed: {gate.failures}")
    print("bench_gate: all checks passed")


if __name__ == "__main__":
    main()
