//! Smoke: every workload on tiny meshes, end to end and traced, checked
//! against `BENCHMARK.json` — the declared names are exactly what is emitted.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use serde::Value;

/// Counters that must repeat exactly from run to run.
const EXACT: [&str; 9] = [
    "op2-core.plan_builds",
    "op2-core.plan_topo_hits",
    "op2-core.flux_ncolors",
    "op2-core.flux_nblocks",
    "op2-dist.halo_cells",
    "op2-dist.ckpt_mb",
    "simsched.parity_1t",
    "simsched.async_gain_32t",
    "simsched.dataflow_gain_32t",
];

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Value, section: &str) -> Vec<String> {
    doc.get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"))
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(Value::as_str)
                .expect("entry has a name")
                .to_string()
        })
        .collect()
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Run one smoke workload; the parsed result line.
fn run(workload: &str, trace: u8) -> Value {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let out = Command::new(env!("CARGO_BIN_EXE_bench-e2e"))
        .args([
            "--smoke",
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "1",
        ])
        .args(["--trace", &trace.to_string()])
        .arg("--scratch")
        .arg(&scratch)
        .output()
        .expect("bench-e2e runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} exited with {:?}\n{stdout}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("the last line is JSON");
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload} trace {trace}: {last}"
    );
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
    result
}

/// The metric names of a result, asserting none is emitted twice.
fn emitted(result: &Value) -> BTreeSet<String> {
    let fields = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object");
    let set: BTreeSet<String> = fields.iter().map(|(k, _)| k.clone()).collect();
    assert_eq!(set.len(), fields.len(), "a metric was emitted twice");
    for (name, m) in fields {
        assert!(
            m.get("value")
                .and_then(Value::as_f64)
                .is_some_and(f64::is_finite),
            "{name} has no finite value"
        );
        assert!(
            m.get("unit").and_then(Value::as_str).is_some(),
            "{name} has no unit"
        );
    }
    set
}

fn value(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("{name} missing"))
}

#[test]
fn benchmark_json_is_well_formed() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc
        .as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let (w, e, l) = (
        names(&doc, "workloads"),
        names(&doc, "end_to_end"),
        names(&doc, "per_layer"),
    );
    assert!((2..=8).contains(&w.len()));
    assert!((1..=16).contains(&e.len()));
    assert!((1..=128).contains(&l.len()));
    assert!(e.iter().any(|n| n == "setup_s"));
    let all: Vec<&String> = w.iter().chain(&e).chain(&l).collect();
    for n in &all {
        assert!(name_ok(n), "bad name {n}");
    }
    assert_eq!(
        all.iter().collect::<BTreeSet<_>>().len(),
        all.len(),
        "a name is used twice"
    );
    for wl in doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
    {
        assert!(wl
            .get("why")
            .and_then(Value::as_str)
            .is_some_and(|s| s.len() <= 200 && !s.contains('\n')));
    }
    for m in doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .expect("end_to_end")
    {
        let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25);
    }
}

#[test]
fn every_declared_metric_is_emitted_once_per_workload() {
    let doc = benchmark_json();
    let end_to_end: BTreeSet<String> = names(&doc, "end_to_end").into_iter().collect();
    // The feature-tax probes need the other builds run.sh makes; a bare
    // `cargo test` has none, so they are the one permitted absence.
    let per_layer: BTreeSet<String> = names(&doc, "per_layer")
        .into_iter()
        .filter(|n| !n.starts_with("build."))
        .collect();
    for workload in names(&doc, "workloads") {
        assert_eq!(
            emitted(&run(&workload, 0)),
            end_to_end,
            "{workload}: end-to-end names"
        );
        let first = run(&workload, 1);
        assert_eq!(emitted(&first), per_layer, "{workload}: per-layer names");
        // The four shares sum to 1 by construction; what can fail is each of
        // them: spans that leave a hole (unattributed), or parts that cost
        // more alone than inside the executor (a negative remainder).
        let share = |p: &str| value(&first, &format!("ledger.{p}_frac"));
        for p in ["kernel", "capture", "executor", "unattributed"] {
            assert!(
                (0.0..=1.0).contains(&share(p)),
                "{workload}: ledger.{p}_frac = {} is not a share",
                share(p)
            );
        }
        // 0.03 is the limit on the real meshes. An iteration of the smallest
        // smoke mesh (128 cells) takes 40 us, of which the bookkeeping between
        // the benchmark's own nine spans is 2 %: allow it.
        assert!(
            share("unattributed") <= 0.05,
            "{workload}: {} of the executor iterations lies outside every layer span",
            share("unattributed")
        );
        let second = run(&workload, 1);
        for name in EXACT {
            assert_eq!(
                value(&first, name),
                value(&second, name),
                "{workload}: {name} must repeat exactly"
            );
        }
    }
}
