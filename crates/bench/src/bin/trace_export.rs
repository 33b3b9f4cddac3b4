//! Export Chrome-tracing schedules of the Airfoil iteration — open the JSON
//! in Perfetto / chrome://tracing to see the fork-join barrier bubbles
//! disappear under dataflow.
//!
//! Usage: `trace_export [--real] [OUT_DIR]` (default: `results/`)
//!
//! * Default mode writes `trace_<method>.json` from the deterministic
//!   32-worker machine-model simulation (`op2-simsched`).
//! * `--real` writes `trace_real_<method>.json` from the **actual runtime**:
//!   one Airfoil iteration per backend recorded by `op2-trace` (same Chrome
//!   schema, so simulated and real traces load side by side), prints each
//!   backend's per-loop report, and checks that measured barrier-wait time
//!   is strictly lower under dataflow than under fork-join.
use op2_bench::realtrace::run_real;
use op2_bench::*;
use op2_hpx::BackendKind;
use op2_simsched::methods::build_graph;
use op2_simsched::{airfoil_workload, simulate_traced, SimMethod};

fn main() {
    let mut real = false;
    let mut out_dir = "results".to_string();
    for arg in std::env::args().skip(1) {
        if arg == "--real" {
            real = true;
        } else {
            out_dir = arg;
        }
    }
    std::fs::create_dir_all(&out_dir).expect("create output dir");
    if real {
        export_real(&out_dir);
    } else {
        export_simulated(&out_dir);
    }
}

fn export_simulated(out_dir: &str) {
    let spec = airfoil_workload(120, 120, FIGURE_PART_SIZE);
    let m = machine();
    println!("{:<16} {:>12} {:>10} {:>8}", "method", "makespan(us)", "idle(us)", "tasks");
    for meth in SimMethod::all() {
        let g = build_graph(meth, &spec, 1, 32, &m);
        let t = simulate_traced(&g, 32, &m);
        let path = format!("{out_dir}/trace_{}.json", meth.label());
        std::fs::write(&path, t.to_chrome_json(meth.label())).expect("write trace");
        println!(
            "{:<16} {:>12} {:>10} {:>8}   -> {path}",
            meth.label(),
            t.result.makespan_ns / 1000,
            t.total_idle_ns() / 1000 / 32,
            t.events.len()
        );
    }
}

fn export_real(out_dir: &str) {
    let threads = 2;
    let kinds = [
        BackendKind::ForkJoin,
        BackendKind::ForEachStatic(4),
        BackendKind::Async,
        BackendKind::Dataflow,
    ];
    println!(
        "{:<16} {:>10} {:>10} {:>12} {:>12} {:>8}",
        "method", "wall(us)", "cp(us)", "barrier(us)", "depwait(us)", "events"
    );
    let mut barrier_us = std::collections::HashMap::new();
    let mut reports = Vec::new();
    for kind in kinds {
        let run = run_real(kind, threads, (60, 30), 1, true);
        let label = kind.label();
        let path = format!("{out_dir}/trace_real_{label}.json");
        std::fs::write(&path, op2_trace::chrome::to_chrome_json(&run.timeline))
            .expect("write trace");
        let rep = &run.report;
        println!(
            "{:<16} {:>10} {:>10} {:>12} {:>12} {:>8}   -> {path}",
            label,
            rep.wall_ns / 1000,
            rep.critical_path_ns / 1000,
            rep.barrier_wait_ns() / 1000,
            rep.dep_wait_ns / 1000,
            run.timeline.events.len(),
        );
        barrier_us.insert(label, rep.barrier_wait_ns());
        reports.push((label, run.report));
    }
    for (label, report) in &reports {
        println!("\n# per-loop report: {label} @ {threads} thread(s)");
        println!("{}", report.render());
    }
    // The paper's headline claim, measured on the real runtime: removing the
    // global end-of-loop barrier removes the attributed barrier-wait time.
    let fj = barrier_us["forkjoin"];
    let df = barrier_us["dataflow"];
    assert!(
        df < fj,
        "expected dataflow barrier-wait ({df} ns) < fork-join ({fj} ns)"
    );
    println!("\ncheck: dataflow barrier-wait {df} ns < fork-join {fj} ns ✓");
}
