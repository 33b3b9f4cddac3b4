//! Time breakdown at 32 workers: where does each method's makespan go?
//! (kernel work, synchronization, probe, driver waits, and idle).
//!
//! Usage: `breakdown [--real]` — the default breaks down the deterministic
//! machine-model simulation; `--real` measures the actual runtime with the
//! op2-trace recorder and attributes barrier-wait vs dependency-wait time
//! per loop.
use op2_bench::realtrace::run_real;
use op2_bench::*;
use op2_hpx::BackendKind;
use op2_simsched::methods::build_graph;
use op2_simsched::{airfoil_workload, simulate_traced, SimMethod};

fn main() {
    if std::env::args().any(|a| a == "--real") {
        real_breakdown();
        return;
    }
    let (imax, jmax) = figure_mesh();
    let spec = airfoil_workload(imax, jmax, FIGURE_PART_SIZE);
    let m = machine();
    let workers = 32usize;
    println!("# Time breakdown at {workers} workers ({imax}x{jmax}, 1 iteration), µs");
    println!(
        "{:<16} {:>9} {:>8} {:>8} {:>8} {:>8} {:>10}",
        "method", "makespan", "work", "sync", "probe", "driver", "idle/worker"
    );
    for meth in SimMethod::all() {
        let g = build_graph(meth, &spec, 1, workers, &m);
        let t = simulate_traced(&g, workers, &m);
        let [work, sync, probe, driver] = g.time_by_kind_ns();
        println!(
            "{:<16} {:>9} {:>8} {:>8} {:>8} {:>8} {:>10}",
            meth.label(),
            t.result.makespan_ns / 1000,
            work / 1000,
            sync / 1000,
            probe / 1000,
            driver / 1000,
            t.total_idle_ns() / 1000 / workers as u64,
        );
    }
    println!("\n(work/sync/probe/driver are total task time across workers; idle is per-worker average)");
}

/// Measured (not simulated) breakdown: one Airfoil iteration per backend on
/// host threads, recorded by op2-trace.
fn real_breakdown() {
    let threads = 2;
    println!("# Measured breakdown @ {threads} host thread(s) (60x30, 1 iteration), µs");
    println!(
        "{:<16} {:>9} {:>9} {:>12} {:>12} {:>12} {:>8}",
        "method", "wall", "cp", "barrier", "stalled", "depwait", "idle%"
    );
    let mut reports = Vec::new();
    for kind in [
        BackendKind::ForkJoin,
        BackendKind::ForEachStatic(4),
        BackendKind::Async,
        BackendKind::Dataflow,
    ] {
        let run = run_real(kind, threads, (60, 30), 1, true);
        let rep = &run.report;
        println!(
            "{:<16} {:>9} {:>9} {:>12} {:>12} {:>12} {:>8.1}",
            kind.label(),
            rep.wall_ns / 1000,
            rep.critical_path_ns / 1000,
            rep.barrier_wait_ns() / 1000,
            rep.barrier_stalled_ns / 1000,
            rep.dep_wait_ns / 1000,
            rep.idle_fraction * 100.0,
        );
        reports.push((kind.label(), run.report));
    }
    for (label, report) in &reports {
        println!("\n# per-loop report: {label}");
        println!("{}", report.render());
    }
}
