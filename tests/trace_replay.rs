//! Trace determinism and structural attribution checks.
//!
//! * Under a [`hpx_rt::DetPool`] the recorded loop-structure event sequence
//!   (loop begin/end, dependency edges) is a pure function of `DET_SEED`:
//!   two runs with the same seed produce identical normalized sequences.
//! * The serial executor chains every loop instance in program order, so its
//!   measured critical path is exactly the sum of its loop durations (and
//!   never exceeds the recorded wall time).
//! * Tagged barrier-wait time is strictly lower under dataflow (zero by
//!   construction — no executor-side blocking wait) than under fork-join.
//! * The Chrome-trace exporter emits JSON that actually parses, with the
//!   fields Perfetto requires.
//!
//! `ForEachAuto` is deliberately absent: its auto-partitioner probes
//! wall-clock time, so its chunking is not a pure function of the seed.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use hpx_rt::{DetPool, Pool};
use op2_core::{arg_direct, arg_indirect, Access, Dat, Map, ParLoop, Set};
use op2_hpx::{make_executor, BackendKind, BlockingExecutor, Executor, Op2Runtime};
use op2_trace::{Collector, EventKind, Timeline};

const PART_SIZE: usize = 4;

/// Recording sessions are process-global; serialize every test here so one
/// test's workload cannot bleed events into another's timeline.
static SESSION: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    SESSION.lock().unwrap_or_else(|e| e.into_inner())
}

fn seed() -> u64 {
    std::env::var("DET_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(42)
}

/// Three-loop program (direct init → indirect gather → direct update) on a
/// 1-D chain mesh; the same shape as `det_schedules`.
fn run_program(exec: &dyn Executor, auto_deps: bool) {
    let nedges = 24usize;
    let mut table = Vec::with_capacity(2 * nedges);
    for e in 0..nedges as u32 {
        table.push(e);
        table.push(e + 1);
    }
    let edges = Set::new("edges", nedges);
    let cells = Set::new("cells", nedges + 1);
    let m = Map::new("pecell", &edges, &cells, 2, table);
    let w = Dat::filled("w", &cells, 1, 0.0f64);
    let res = Dat::filled("res", &cells, 1, 0.0f64);

    let wv = w.view();
    let init = ParLoop::build("init", &cells)
        .arg(arg_direct(&w, Access::Write))
        .kernel(move |c, _| unsafe { wv.set(c, 0, c as f64 + 1.0) });

    let wv = w.view();
    let rv = res.view();
    let mv = m.clone();
    let gather = ParLoop::build("gather", &edges)
        .arg(arg_indirect(&w, 0, &m, Access::Read))
        .arg(arg_indirect(&w, 1, &m, Access::Read))
        .arg(arg_indirect(&res, 0, &m, Access::Inc))
        .arg(arg_indirect(&res, 1, &m, Access::Inc))
        .kernel(move |e, _| unsafe {
            let s = wv.get(mv.at(e, 0), 0) + wv.get(mv.at(e, 1), 0);
            rv.add(mv.at(e, 0), 0, 0.25 * s);
            rv.add(mv.at(e, 1), 0, 0.5 * s);
        });

    let wv = w.view();
    let rv = res.view();
    let update = ParLoop::build("update", &cells)
        .arg(arg_direct(&res, Access::Read))
        .arg(arg_direct(&w, Access::ReadWrite))
        .kernel(move |c, _| unsafe {
            let v = wv.get(c, 0);
            wv.set(c, 0, v + 0.1 * rv.get(c, 0));
        });

    if auto_deps {
        let _ = exec.execute(&init);
        let _ = exec.execute(&gather);
        let _ = exec.execute(&update);
        exec.fence();
    } else {
        exec.execute(&init).wait();
        exec.execute(&gather).wait();
        exec.execute(&update).wait();
        exec.fence();
    }
}

/// One recorded run of `kind` on a fresh seeded DetPool.
fn traced_run(kind: BackendKind, seed: u64) -> Timeline {
    let pool = Arc::new(DetPool::new(seed));
    let rt = Arc::new(Op2Runtime::from_pool(pool as Arc<dyn Pool>, PART_SIZE));
    let exec = make_executor(kind, rt);
    let c = Collector::start();
    run_program(exec.as_ref(), matches!(kind, BackendKind::Dataflow));
    c.stop()
}

/// Normalize the loop-structure events of a timeline into a replayable
/// sequence: instance ids (globally monotonic across runs) are renumbered by
/// first appearance, interned name ids are resolved to strings.
fn structure_of(t: &Timeline) -> Vec<String> {
    let mut norm: HashMap<u64, u64> = HashMap::new();
    let mut next = 0u64;
    let mut id = |raw: u64, norm: &mut HashMap<u64, u64>| -> u64 {
        *norm.entry(raw).or_insert_with(|| {
            next += 1;
            next
        })
    };
    let name = |n: u32| t.name_of(n).unwrap_or("-").to_string();
    let mut out = Vec::new();
    for e in &t.events {
        match e.kind {
            EventKind::LoopBegin => out.push(format!(
                "begin {} exec={} i{}",
                name(e.name),
                name(e.b as u32),
                id(e.a, &mut norm)
            )),
            EventKind::LoopEnd => out.push(format!("end i{}", id(e.a, &mut norm))),
            EventKind::DepEdge => {
                let a = id(e.a, &mut norm);
                let b = id(e.b, &mut norm);
                out.push(format!("edge i{a}->i{b}"));
            }
            _ => {}
        }
    }
    out
}

#[test]
fn same_seed_same_event_sequence() {
    let _g = locked();
    for kind in [
        BackendKind::ForkJoin,
        BackendKind::ForEachStatic(2),
        BackendKind::Async,
        BackendKind::Dataflow,
    ] {
        let a = structure_of(&traced_run(kind, seed()));
        let b = structure_of(&traced_run(kind, seed()));
        assert!(!a.is_empty(), "{kind}: no loop events recorded");
        assert_eq!(a, b, "{kind}: replay with seed {} diverged", seed());
    }
}

#[test]
fn serial_critical_path_is_the_loop_chain() {
    let _g = locked();
    let pool = Arc::new(DetPool::new(seed()));
    let rt = Arc::new(Op2Runtime::from_pool(pool as Arc<dyn Pool>, PART_SIZE));
    let exec = BlockingExecutor::new(rt, BackendKind::Serial);
    let c = Collector::start();
    run_program(&exec, false);
    let t = c.stop();
    let rep = op2_trace::report::analyze(&t);
    // The serial executor chains every instance in program order, so the
    // critical path runs through all of them: its length equals the sum of
    // the loop durations, i.e. the executor's whole measured wall time.
    assert_eq!(rep.critical_path_len, 3, "three loop instances on the path");
    assert_eq!(
        rep.critical_path_ns, rep.loop_total_ns,
        "serial critical path must equal total loop time"
    );
    assert!(rep.critical_path_ns <= rep.wall_ns);
    // And nothing ever blocked: serial has no barrier to wait on.
    assert_eq!(rep.barrier_blocked_ns, 0);
}

#[test]
fn dataflow_barrier_wait_below_forkjoin() {
    let _g = locked();
    let fj = op2_trace::report::analyze(&traced_run(BackendKind::ForkJoin, seed()));
    let df = op2_trace::report::analyze(&traced_run(BackendKind::Dataflow, seed()));
    assert!(fj.barrier_blocked_ns > 0, "fork-join blocks at every loop");
    assert_eq!(df.barrier_blocked_ns, 0, "dataflow has no loop barrier");
    assert!(df.barrier_blocked_ns < fj.barrier_blocked_ns);
}

#[test]
fn chrome_export_parses_as_trace_json() {
    let _g = locked();
    let t = traced_run(BackendKind::ForkJoin, seed());
    let json = op2_trace::chrome::to_chrome_json(&t);
    let v: serde::Value = serde_json::from_str(&json).expect("valid JSON");
    let events = v.as_array().expect("chrome trace is a JSON array");
    assert!(!events.is_empty());
    for e in events {
        assert!(e.get("name").and_then(|n| n.as_str()).is_some());
        let ph = e.get("ph").and_then(|p| p.as_str()).expect("ph field");
        assert!(ph == "X" || ph == "i", "unexpected phase {ph}");
        assert!(e.get("ts").and_then(|t| t.as_f64()).is_some());
        assert!(e.get("pid").and_then(|p| p.as_u64()).is_some());
        assert!(e.get("tid").and_then(|t| t.as_u64()).is_some());
        if ph == "X" {
            assert!(e.get("dur").and_then(|d| d.as_f64()).is_some());
        }
    }
}

/// The dataflow executor waits on each producer once: over Airfoil's
/// nine-loop iteration every `(from, to)` pair appears exactly once among the
/// dependency edges, though `bres_calc` reaches `res_calc` through both a
/// read and a write of `p_res` and `update` reaches `save_soln` through
/// `p_qold` and `p_q`.
#[test]
fn dataflow_records_each_dependency_once() {
    use op2_airfoil::{FlowConstants, MeshBuilder, Simulation, SyncStrategy};

    let _g = locked();
    let consts = FlowConstants::default();
    let mesh = MeshBuilder::channel(12, 6).build(&consts);
    let pool = Arc::new(DetPool::new(seed()));
    let rt = Arc::new(Op2Runtime::from_pool(pool as Arc<dyn Pool>, PART_SIZE));
    let sim = Simulation::new(mesh, &consts, make_executor(BackendKind::Dataflow, rt), SyncStrategy::Dataflow);
    let c = Collector::start();
    sim.run(1, 1);
    let t = c.stop();
    let loops = t.of_kind(EventKind::LoopBegin).count();
    assert_eq!(loops, 9, "one Airfoil iteration is nine loops");
    let mut edges: Vec<(u64, u64)> = t.of_kind(EventKind::DepEdge).map(|e| (e.a, e.b)).collect();
    assert!(!edges.is_empty());
    edges.sort_unstable();
    let twice: Vec<_> = edges.windows(2).filter(|w| w[0] == w[1]).map(|w| w[0]).collect();
    assert!(twice.is_empty(), "edges recorded more than once: {twice:?}");
}
