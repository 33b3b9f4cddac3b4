//! Run the *real* Airfoil backends on host threads and report wall-clock
//! times plus the pool's performance counters — the physical (non-simulated)
//! check. On a 1-core host this mainly validates the 1-thread-parity claim;
//! on a many-core machine it produces a genuine strong-scaling measurement.
//!
//! Usage: realrun [--trace] [THREADS ...]   (default: 1 thread)
//!
//! `--trace` additionally records each run with the op2-trace collector and
//! prints the per-loop wall/barrier/dep-wait report.
use op2_bench::realtrace::run_real;
use op2_hpx::BackendKind;

fn main() {
    let mut trace = false;
    let mut threads: Vec<usize> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--trace" {
            trace = true;
        } else {
            threads.push(arg.parse().expect("thread count"));
        }
    }
    if threads.is_empty() {
        threads.push(1);
    }
    let iters = 20;

    println!("backend,threads,seconds,final_rms,tasks_spawned,tasks_executed,steals,parks,barrier_waits,dep_waits");
    let mut reports = Vec::new();
    for &t in &threads {
        for kind in [
            BackendKind::ForkJoin,
            BackendKind::ForEachAuto,
            BackendKind::ForEachStatic(4),
            BackendKind::Async,
            BackendKind::Dataflow,
        ] {
            let run = run_real(kind, t, (120, 60), iters, trace);
            let m = run.metrics.unwrap_or(hpx_rt::MetricsSnapshot {
                tasks_spawned: 0,
                tasks_executed: 0,
                steals: 0,
                parks: 0,
                barrier_waits: 0,
                dep_waits: 0,
            });
            println!(
                "{kind},{t},{:.4},{:.6e},{},{},{},{},{},{}",
                run.seconds,
                run.final_rms,
                m.tasks_spawned,
                m.tasks_executed,
                m.steals,
                m.parks,
                m.barrier_waits,
                m.dep_waits,
            );
            if trace {
                reports.push((kind.label(), t, run.report));
            }
        }
    }
    for (label, t, report) in reports {
        println!("\n# per-loop report: {label} @ {t} thread(s)");
        println!("{}", report.render());
    }
}
