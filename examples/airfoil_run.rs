//! The full Airfoil CFD benchmark, runnable under every backend.
//!
//! ```text
//! cargo run --release --example airfoil_run -- [--trace[=PATH]] [BACKEND] [IMAXxJMAX] [ITERS] [THREADS]
//! # e.g.
//! cargo run --release --example airfoil_run -- dataflow 200x100 100 4
//! cargo run --example airfoil_run -- --trace forkjoin 120x60 10 2
//! ```
//!
//! BACKEND ∈ serial | omp | foreach | foreach-static | async | dataflow.
//! Prints `sqrt(rms/ncells)` every 10% of the march, like the original
//! `airfoil.cpp` prints every 100 iterations.
//!
//! `--trace` records the march with the op2-trace collector, prints the
//! per-loop wall/barrier/dep-wait report, and writes a Chrome-trace JSON to
//! `results/trace_real_<method>.json` (or PATH if given), named by the
//! backend's method label like `trace_export --real`'s files (`forkjoin`,
//! `foreach-static`, `async`, `dataflow`, …).

use std::sync::Arc;
use std::time::Instant;

use op2_airfoil::{FlowConstants, MeshBuilder, Simulation, SyncStrategy};
use op2_hpx::{make_executor, BackendKind, Op2Runtime};

fn main() {
    let mut trace_out: Option<Option<String>> = None;
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| {
            if a == "--trace" {
                trace_out = Some(None);
                false
            } else if let Some(path) = a.strip_prefix("--trace=") {
                trace_out = Some(Some(path.to_string()));
                false
            } else {
                true
            }
        })
        .collect();
    let backend = args
        .first()
        .map(|s| BackendKind::parse(s).unwrap_or_else(|| panic!("unknown backend `{s}`")))
        .unwrap_or(BackendKind::Dataflow);
    let (imax, jmax) = args
        .get(1)
        .map(|s| {
            let (a, b) = s.split_once('x').expect("mesh as IMAXxJMAX");
            (a.parse().expect("imax"), b.parse().expect("jmax"))
        })
        .unwrap_or((120, 60));
    let iters: usize = args.get(2).map_or(100, |s| s.parse().expect("iters"));
    let threads: usize = args.get(3).map_or_else(
        || std::thread::available_parallelism().map_or(1, |n| n.get()),
        |s| s.parse().expect("threads"),
    );

    println!("airfoil: backend={backend} mesh={imax}x{jmax} iters={iters} threads={threads}");

    let consts = FlowConstants::default();
    let mesh = MeshBuilder::channel(imax, jmax).build(&consts);
    // A pressure pulse makes the march do real work (the channel free
    // stream alone is an exact steady state).
    mesh.add_pulse(1.0, 0.5, 0.25, 0.2, &consts);

    let rt = Arc::new(Op2Runtime::new(threads, 128));
    let exec = make_executor(backend, rt);
    let sim = Simulation::new(mesh, &consts, exec, SyncStrategy::for_backend(backend));

    let collector = trace_out.as_ref().map(|_| op2_trace::Collector::start());
    let start = Instant::now();
    let reports = sim.run(iters, (iters / 10).max(1));
    let elapsed = start.elapsed();
    if let (Some(collector), Some(path)) = (collector, trace_out) {
        let timeline = collector.stop();
        let report = op2_trace::report::analyze(&timeline);
        println!("\n# per-loop report: {backend} @ {threads} thread(s)");
        println!("{}", report.render());
        let path = path.unwrap_or_else(|| format!("results/trace_real_{}.json", backend.label()));
        if let Some(dir) = std::path::Path::new(&path).parent() {
            std::fs::create_dir_all(dir).expect("create output dir");
        }
        std::fs::write(&path, op2_trace::chrome::to_chrome_json(&timeline)).expect("write trace");
        println!("wrote {path} ({} events)", timeline.events.len());
    }

    for (iter, rms) in &reports {
        println!("  iter {iter:>6}  rms {rms:.6e}");
    }
    println!(
        "done in {:.3}s ({:.2} ms/iter)",
        elapsed.as_secs_f64(),
        elapsed.as_secs_f64() * 1e3 / iters as f64
    );
    let final_rms = reports.last().expect("at least one report").1;
    assert!(final_rms.is_finite(), "march diverged");
}
