//! Result files: one JSON per run under `--out DIR`, merged into
//! `DIR/BENCH_e2e.json` by `bench-e2e merge DIR`.

use std::path::Path;
use std::process::ExitCode;

use serde::Value;

use crate::bench::Workload;
use crate::spans::SpanLog;
use crate::{util, Args, Outcome};

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn strs(items: impl IntoIterator<Item = String>) -> Value {
    Value::Array(items.into_iter().map(Value::Str).collect())
}

/// The `metrics` object of a result: `{name: {value, unit}}`.
pub fn metrics_value(out: &Outcome) -> Value {
    Value::Object(
        out.metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    obj(vec![
                        ("value", Value::Float(m.value)),
                        ("unit", Value::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The one-line result the driver reads.
pub fn result_line(out: &Outcome) -> String {
    let v = obj(vec![
        ("correct", Value::Bool(out.failed == 0)),
        ("attempted", Value::UInt(out.attempted.max(1))),
        ("failed", Value::UInt(out.failed)),
        ("metrics", metrics_value(out)),
    ]);
    serde_json::to_string(&v).expect("a Value always serializes")
}

fn pretty(v: &Value, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent + 1);
    match v {
        Value::Object(fields) if !fields.is_empty() => {
            // Leaf objects ({value, unit}) stay on one line.
            if fields
                .iter()
                .all(|(_, f)| !matches!(f, Value::Object(_) | Value::Array(_)))
            {
                out.push_str(&serde_json::to_string(v).expect("serializes"));
                return;
            }
            out.push_str("{\n");
            for (i, (k, f)) in fields.iter().enumerate() {
                out.push_str(&format!("{pad}{k:?}: "));
                pretty(f, indent + 1, out);
                out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
            }
            out.push_str(&format!("{}}}", "  ".repeat(indent)));
        }
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&pad);
                pretty(item, indent + 1, out);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            out.push_str(&format!("{}]", "  ".repeat(indent)));
        }
        _ => out.push_str(&serde_json::to_string(v).expect("serializes")),
    }
}

/// Write this run's result (and, for a traced run, its spans) under `dir`.
pub fn write_run(
    dir: &Path,
    w: &Workload,
    args: &Args,
    out: &Outcome,
    log: &SpanLog,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let trace = u8::from(args.trace);
    let doc = obj(vec![
        ("workload", Value::Str(w.name.into())),
        ("trace", Value::UInt(trace.into())),
        ("seed", Value::UInt(args.seed)),
        ("seconds", Value::Float(args.seconds)),
        ("smoke", Value::Bool(args.smoke)),
        (
            "env",
            Value::Object(
                util::env_block()
                    .into_iter()
                    .map(|(k, v)| (k, Value::Str(v)))
                    .collect(),
            ),
        ),
        ("correct", Value::Bool(out.failed == 0)),
        ("attempted", Value::UInt(out.attempted)),
        ("failed", Value::UInt(out.failed)),
        ("checks", strs(out.checks.iter().map(|c| c.to_string()))),
        ("notes", strs(out.notes.iter().cloned())),
        ("metrics", metrics_value(out)),
    ]);
    let mut text = String::new();
    pretty(&doc, 0, &mut text);
    text.push('\n');
    std::fs::write(dir.join(format!("{}.trace{trace}.json", w.name)), text)?;
    if args.trace {
        std::fs::write(
            dir.join(format!("{}.spans.json", w.name)),
            log.to_chrome_json(),
        )?;
    }
    Ok(())
}

/// Merge every `<workload>.trace<0|1>.json` under `dir` into
/// `dir/BENCH_e2e.json`: per workload the end-to-end block (trace 0) and the
/// per-layer block (trace 1).
pub fn merge(dir: &Path) -> ExitCode {
    let mut names: Vec<String> = match std::fs::read_dir(dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| n.ends_with(".trace0.json") || n.ends_with(".trace1.json"))
            .collect(),
        Err(e) => {
            eprintln!("bench-e2e merge: cannot read {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    names.sort();
    let mut env = Value::Null;
    let mut workloads: Vec<(String, Value)> = Vec::new();
    let mut all_correct = !names.is_empty();
    for name in &names {
        let parsed = std::fs::read_to_string(dir.join(name))
            .map_err(|e| e.to_string())
            .and_then(|s| serde_json::from_str::<Value>(&s).map_err(|e| e.to_string()));
        let doc = match parsed {
            Ok(d) => d,
            Err(e) => {
                eprintln!("bench-e2e merge: {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let workload = doc
            .get("workload")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string();
        let block = if name.ends_with(".trace0.json") {
            "end_to_end"
        } else {
            "per_layer"
        };
        all_correct &= doc.get("correct") == Some(&Value::Bool(true));
        env = doc.get("env").cloned().unwrap_or(Value::Null);
        let body = Value::Object(
            doc.as_object()
                .unwrap_or(&[])
                .iter()
                .filter(|(k, _)| !matches!(k.as_str(), "workload" | "env" | "trace"))
                .cloned()
                .collect(),
        );
        match workloads.iter_mut().find(|(n, _)| *n == workload) {
            Some((_, Value::Object(fields))) => fields.push((block.to_string(), body)),
            _ => workloads.push((workload, Value::Object(vec![(block.to_string(), body)]))),
        }
    }
    let doc = obj(vec![
        ("bench", Value::Str("bench_e2e".into())),
        ("correct", Value::Bool(all_correct)),
        ("env", env),
        ("workloads", Value::Object(workloads)),
    ]);
    let mut text = String::new();
    pretty(&doc, 0, &mut text);
    text.push('\n');
    let path = dir.join("BENCH_e2e.json");
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("bench-e2e merge: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("-> {}", path.display());
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
