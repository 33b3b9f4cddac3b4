//! Real-runtime tracing: run the Airfoil time-march with the op2-trace
//! recorder active and assemble per-loop reports.
//!
//! The simulated-schedule traces (`op2_simsched::trace`) predict behaviour on
//! a modelled 32-core machine; these helpers measure the *actual* runtime on
//! host threads with the same Chrome-trace schema, so the two can be opened
//! side by side in Perfetto. Exports follow the `trace_real_<method>.json`
//! naming convention, `<method>` being [`BackendKind::label`] (see
//! EXPERIMENTS.md).

use std::sync::Arc;
use std::time::Instant;

use hpx_rt::MetricsSnapshot;
use op2_airfoil::{FlowConstants, MeshBuilder, Simulation, SyncStrategy};
use op2_hpx::{make_executor, BackendKind, Op2Runtime};
use op2_trace::report::{analyze, RunReport};
use op2_trace::{Collector, Timeline};

/// Outcome of one (optionally traced) real Airfoil run.
pub struct RealRun {
    /// Raw recorded events (empty when tracing was off).
    pub timeline: Timeline,
    /// Assembled per-loop summaries and critical path.
    pub report: RunReport,
    /// Wall-clock seconds of the time-march.
    pub seconds: f64,
    /// Final reported `sqrt(rms/ncells)`.
    pub final_rms: f64,
    /// Pool counter deltas over the run (`None` for pool-less backends).
    pub metrics: Option<MetricsSnapshot>,
}

/// March `iters` Airfoil iterations of `kind` on `threads` workers over an
/// `imax`×`jmax` channel mesh. With `record`, the op2-trace collector is
/// active for the whole march (sessions are serialized process-wide).
pub fn run_real(
    kind: BackendKind,
    threads: usize,
    (imax, jmax): (usize, usize),
    iters: usize,
    record: bool,
) -> RealRun {
    let consts = FlowConstants::default();
    let mesh = MeshBuilder::channel(imax, jmax).build(&consts);
    mesh.add_pulse(1.0, 0.5, 0.25, 0.2, &consts);
    let rt = Arc::new(Op2Runtime::new(threads, 128));
    let pool = Arc::clone(rt.pool());
    let exec = make_executor(kind, rt);
    let sim = Simulation::new(mesh, &consts, exec, SyncStrategy::for_backend(kind));

    let before = pool.metrics().map(|m| m.snapshot());
    let collector = record.then(Collector::start);
    let start = Instant::now();
    let reports = sim.run(iters, iters);
    let seconds = start.elapsed().as_secs_f64();
    let timeline = collector.map(Collector::stop).unwrap_or_default();
    let metrics = pool
        .metrics()
        .map(|m| m.snapshot())
        .zip(before)
        .map(|(after, before)| before.delta(&after));

    let report = analyze(&timeline);
    RealRun {
        timeline,
        report,
        seconds,
        final_rms: reports.last().map(|r| r.1).unwrap_or(0.0),
        metrics,
    }
}
