//! Deterministic schedule exploration for every parallel backend.
//!
//! Each case runs a small three-loop OP2 program (direct init → indirect
//! gather with increments and a global reduction → direct update) on a
//! randomly generated mesh, executed on a [`hpx_rt::DetPool`]: a seeded,
//! single-threaded virtual scheduler whose task interleaving is a pure
//! function of the seed. The sweep drives ≥64 seeds per backend, alternating
//! random-walk and PCT-style priority schedules, with the dataflow-order
//! checker (`op2_core::det`) armed, and asserts
//!
//! * no checker reports (no dataflow body began before a dependency
//!   completed), and
//! * results bitwise identical to the serial plan-order oracle.
//!
//! On failure the panic message carries a `(seed, schedule)` replay pair:
//! re-run just that case with `DET_SEED=<seed> cargo test det_schedules`.
//!
//! A further test proves a broken coloring never runs: a test-only hook
//! (`op2_core::det::inject_coloring_bug`) merges two plan colors, and every
//! executor entry must refuse the plan before the loop's first block.

use std::sync::Arc;

use hpx_rt::{DetPool, Pool, SchedulePolicy};
use op2_core::det;
use op2_core::{arg_direct, Access, Dat, Map, ParLoop, Set};
use op2_hpx::{
    make_executor, BackendKind, BlockingExecutor, Executor, FailureKind, Op2Runtime, RetryPolicy,
    Supervisor, TunedExecutor,
};
use op2_tune::Tuner;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Mini-partition size: small enough that even tiny meshes get several
/// blocks (and therefore several colors on conflicting indirect loops).
const PART_SIZE: usize = 4;

/// Seeds swept per backend (unless `DET_SEED` narrows the run to one).
const NUM_SEEDS: u64 = 64;

/// The parallel backends under test. `ForEachAuto` is deliberately absent:
/// its auto-partitioner probes wall-clock time, so its chunking is not a
/// pure function of the schedule seed.
fn parallel_backends() -> Vec<BackendKind> {
    vec![
        BackendKind::ForkJoin,
        BackendKind::ForEachStatic(2),
        BackendKind::Async,
        BackendKind::Dataflow,
    ]
}

fn policy_for(seed: u64) -> SchedulePolicy {
    if seed % 2 == 0 {
        SchedulePolicy::RandomWalk
    } else {
        SchedulePolicy::Pct { change_points: 3 }
    }
}

fn seeds_to_run() -> Vec<u64> {
    match std::env::var("DET_SEED") {
        Ok(s) => vec![s
            .trim()
            .parse()
            .expect("DET_SEED must be an unsigned integer")],
        Err(_) => (0..NUM_SEEDS).collect(),
    }
}

/// A random edges→cells mesh. Endpoints are drawn uniformly, so edges
/// routinely share cells and the gather loop needs real coloring.
struct Mesh {
    nedges: usize,
    ncells: usize,
    table: Vec<u32>,
}

fn random_mesh(seed: u64) -> Mesh {
    let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let nedges = rng.gen_range(8..48usize);
    let ncells = rng.gen_range(4..nedges + 2);
    let mut table = Vec::with_capacity(2 * nedges);
    for _ in 0..nedges {
        table.push(rng.gen_range(0..ncells) as u32);
        table.push(rng.gen_range(0..ncells) as u32);
    }
    Mesh {
        nedges,
        ncells,
        table,
    }
}

/// 1-D chain mesh (edge `e` joins cells `e` and `e+1`): adjacent blocks
/// always share a boundary cell, so a merged coloring is guaranteed to put
/// conflicting blocks in the same color.
fn chain_mesh(nedges: usize) -> Mesh {
    let mut table = Vec::with_capacity(2 * nedges);
    for e in 0..nedges as u32 {
        table.push(e);
        table.push(e + 1);
    }
    Mesh {
        nedges,
        ncells: nedges + 1,
        table,
    }
}

#[derive(Debug, PartialEq)]
struct ProgramOut {
    w: Vec<f64>,
    res: Vec<f64>,
    q: Vec<f64>,
    gbl: Vec<f64>,
}

/// Run the three-loop program on `exec`. With `auto_deps` (the dataflow
/// backend) all loops are issued back-to-back and ordering is left entirely
/// to the dependency table; otherwise each handle is waited before the next
/// conflicting loop is issued, as the async API requires.
fn run_program(exec: &dyn Executor, mesh: &Mesh, auto_deps: bool) -> ProgramOut {
    let edges = Set::new("edges", mesh.nedges);
    let cells = Set::new("cells", mesh.ncells);
    let m = Map::new("pecell", &edges, &cells, 2, mesh.table.clone());
    let w = Dat::filled("w", &cells, 1, 0.0f64);
    let res = Dat::filled("res", &cells, 1, 0.0f64);
    let q = Dat::filled("q", &cells, 1, 1.0f64);

    let wv = w.view();
    let init = ParLoop::build("init", &cells)
        .arg(arg_direct(&w, Access::Write))
        .kernel(move |c, _| unsafe { wv.set(c, 0, 0.5 * c as f64 + 1.0) });

    // The indirect loop is declared as a typed tuple, as the apps' loops are:
    // the framework reaches the dats through the const-width accessors.
    let gather = ParLoop::build("gather", &edges)
        .gbl_inc(1)
        .args((w.read::<1>().via::<2>(&m), res.inc::<1>().via::<2>(&m)))
        .kernel(|([[w1], [w2]], [[r1], [r2]]), gbl| {
            let s = *w1 + *w2;
            *r1 = 0.25 * s;
            *r2 = 0.5 * s;
            gbl[0] += s;
        });

    let qv = q.view();
    let rv = res.view();
    let update = ParLoop::build("update", &cells)
        .arg(arg_direct(&res, Access::Read))
        .arg(arg_direct(&q, Access::ReadWrite))
        .kernel(move |c, _| unsafe {
            let v = qv.get(c, 0);
            qv.set(c, 0, v + 0.1 * rv.get(c, 0));
        });

    let gbl;
    if auto_deps {
        let _h1 = exec.execute(&init);
        let h2 = exec.execute(&gather);
        let _h3 = exec.execute(&update);
        exec.fence();
        gbl = h2.get();
    } else {
        exec.execute(&init).wait();
        let h2 = exec.execute(&gather);
        gbl = h2.get();
        exec.execute(&update).wait();
        exec.fence();
    }
    ProgramOut {
        w: w.to_vec(),
        res: res.to_vec(),
        q: q.to_vec(),
        gbl,
    }
}

fn serial_oracle(mesh: &Mesh) -> ProgramOut {
    // The pool is irrelevant for the serial backend; a DetPool keeps the
    // oracle free of OS threads. Same part size → same plan → same order.
    let rt = Arc::new(Op2Runtime::deterministic(0, PART_SIZE));
    let exec = BlockingExecutor::new(rt, BackendKind::Serial);
    run_program(&exec, mesh, false)
}

/// One deterministic run of `kind` on `mesh` with the checker armed.
/// Returns the output, any checker reports, and the schedule trace.
fn det_run(
    kind: BackendKind,
    seed: u64,
    mesh: &Mesh,
) -> (ProgramOut, Vec<det::RaceReport>, String) {
    let pool = Arc::new(DetPool::with_policy(seed, policy_for(seed)));
    let rt = Arc::new(Op2Runtime::from_pool(
        Arc::clone(&pool) as Arc<dyn Pool>,
        PART_SIZE,
    ));
    let exec = make_executor(kind, rt);
    det::enable();
    let out = run_program(exec.as_ref(), mesh, matches!(kind, BackendKind::Dataflow));
    let reports = det::disable();
    (out, reports, pool.schedule_string())
}

fn replay_hint(kind: BackendKind, seed: u64, schedule: &str) -> String {
    format!(
        "backend={kind} seed={seed} policy={:?}\n\
         replay: DET_SEED={seed} cargo test --test det_schedules\n\
         schedule: {schedule}",
        policy_for(seed)
    )
}

/// The tentpole sweep: ≥64 seeded schedules per parallel backend, each
/// race-checked and compared bitwise against the serial plan-order oracle.
#[test]
fn seeded_schedules_match_serial_oracle() {
    for seed in seeds_to_run() {
        let mesh = random_mesh(seed);
        let oracle = serial_oracle(&mesh);
        for kind in parallel_backends() {
            let (got, reports, schedule) = det_run(kind, seed, &mesh);
            let hint = replay_hint(kind, seed, &schedule);
            assert!(
                reports.is_empty(),
                "dataflow-order checker fired: {reports:?}\n{hint}"
            );
            assert_eq!(got, oracle, "diverged from serial oracle\n{hint}");
        }
    }
}

/// Replaying the same seed reproduces the schedule trace *and* the results,
/// for every backend — the property that makes `DET_SEED` replay work.
#[test]
fn same_seed_replays_same_schedule() {
    let seed = 7;
    let mesh = random_mesh(seed);
    for kind in parallel_backends() {
        let (out_a, _, sched_a) = det_run(kind, seed, &mesh);
        let (out_b, _, sched_b) = det_run(kind, seed, &mesh);
        assert_eq!(sched_a, sched_b, "schedule not replayable: backend={kind}");
        assert_eq!(out_a, out_b, "results not replayable: backend={kind}");
    }
}

/// Different seeds must actually explore different interleavings (otherwise
/// the sweep above is 64 copies of one schedule).
#[test]
fn different_seeds_explore_different_schedules() {
    let mesh = chain_mesh(24);
    let mut schedules = std::collections::HashSet::new();
    for seed in 0..8 {
        let (_, _, sched) = det_run(BackendKind::Dataflow, seed, &mesh);
        schedules.insert(sched);
    }
    assert!(
        schedules.len() > 1,
        "8 seeds produced a single schedule — the scheduler is not exploring"
    );
}

/// A deliberately broken coloring (test-only hook merges two plan colors,
/// so two blocks that both increment a shared boundary cell share a color)
/// must be refused before the loop runs by every executor entry — each
/// backend through `make_executor`, a `Supervisor` and a `TunedExecutor` —
/// on both pool kinds. Each validates the (cached) plan in
/// `Op2Runtime::prepare` and returns a typed `FailureKind::Plan` error: the
/// write-set is never touched, so there is nothing to roll back.
#[test]
fn injected_coloring_bug_caught_by_plan_validator() {
    let mesh = chain_mesh(32);
    let edges = Set::new("edges", mesh.nedges);
    let cells = Set::new("cells", mesh.ncells);
    let m = Map::new("pecell", &edges, &cells, 2, mesh.table.clone());
    let res = Dat::filled("res", &cells, 1, 0.0f64);
    let gather = ParLoop::build("gather", &edges)
        .args(res.inc::<1>().via::<2>(&m))
        .kernel(|[[r1], [r2]], _| {
            *r1 = 1.0;
            *r2 = 1.0;
        });
    for pool in ["DetPool", "ThreadPool"] {
        let runtime = || match pool {
            "DetPool" => Op2Runtime::deterministic(2, PART_SIZE),
            _ => Op2Runtime::new(2, PART_SIZE),
        };
        let mut entries: Vec<(String, Box<dyn Executor>)> = BackendKind::all()
            .into_iter()
            .map(|kind| (kind.to_string(), make_executor(kind, Arc::new(runtime()))))
            .collect();
        let sup = Supervisor::new(
            Arc::new(runtime()),
            BackendKind::Dataflow,
            RetryPolicy::default(),
        );
        entries.push(("supervisor".into(), Box::new(sup)));
        let tuned = runtime().with_tuner(Arc::new(Tuner::with_seed(5)));
        entries.push((
            "tuned".into(),
            Box::new(TunedExecutor::new(Arc::new(tuned))),
        ));
        for (entry, exec) in entries {
            det::inject_coloring_bug(true);
            let result = exec.try_execute(&gather);
            det::inject_coloring_bug(false);
            let Err(err) = result else {
                panic!("{pool}/{entry}: invalid plan was accepted");
            };
            assert!(
                matches!(err.kind, FailureKind::Plan(_)),
                "{pool}/{entry}: expected a plan-validation failure, got: {err}"
            );
            assert!(
                !err.rolled_back,
                "{pool}/{entry}: nothing ran, so nothing was rolled back"
            );
            assert!(
                res.to_vec().iter().all(|&v| v == 0.0),
                "{pool}/{entry}: write-set touched"
            );
        }
    }
}

/// How the table below makes a supervised loop fail.
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// The kernel panics on every attempt.
    KernelPanic,
    /// The kernel writes a NaN on every attempt, under `guard_finite`.
    NonFinite,
    /// `det::inject_coloring_bug` breaks the plan, so no attempt starts.
    Plan,
    /// The quota was spent by earlier failures, so nothing is attempted.
    CircuitOpen,
}

/// The chain mesh's gather, failing as `fault` says at edge 0. Returns the
/// loop and a count of the times edge 0 ran — one per attempt that got as
/// far as the kernel.
fn failing_gather(
    fault: Fault,
    mesh: &Mesh,
    res: &Dat<f64>,
) -> (ParLoop, Arc<std::sync::atomic::AtomicUsize>) {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let edges = Set::new("edges", mesh.nedges);
    let cells = res.set();
    let m = Map::new("pecell", &edges, cells, 2, mesh.table.clone());
    let ids: Vec<f64> = (0..mesh.nedges).map(|e| e as f64).collect();
    let id = Dat::new("edge_id", &edges, 1, ids);
    let runs = Arc::new(AtomicUsize::new(0));
    let counted = Arc::clone(&runs);
    let gather = ParLoop::build("failing_gather", &edges)
        .guard_finite()
        .args((id.read::<1>(), res.inc::<1>().via::<2>(&m)))
        .kernel(move |([id], [[r1], [r2]]), _| {
            *r1 = 1.0;
            *r2 = 1.0;
            if *id != 0.0 {
                return;
            }
            counted.fetch_add(1, Ordering::Relaxed);
            match fault {
                Fault::KernelPanic => panic!("injected fault"),
                Fault::NonFinite => *r1 = f64::NAN,
                Fault::Plan | Fault::CircuitOpen => {}
            }
        });
    (gather, runs)
}

/// The four `FailureKind`s a supervisor returns for a loop that keeps
/// failing with no deadline or cancel armed, under every policy in
/// `max_retries` ∈ {0, 1, 2} × `quota` ∈ {1, 8}: the attempts it runs, the
/// quota it spends and the kind it returns. A kernel panic and a non-finite write are transient: retried
/// on each of the ladder's three rungs until the quota runs out, then the
/// last failure is returned. A refused plan is deterministic — the plan and
/// its validation are cached — so it is returned after one attempt that
/// reaches no kernel, for one unit of quota. A spent quota opens the
/// circuit: nothing runs and nothing is spent. In every cell the write-set
/// is bitwise untouched. A kernel that panics once is retried and recovers.
#[test]
fn supervisor_fails_fast_on_a_refused_plan_and_retries_a_panic() {
    use std::sync::atomic::Ordering;
    let mesh = chain_mesh(32);
    let faults = [Fault::KernelPanic, Fault::NonFinite, Fault::Plan, Fault::CircuitOpen];
    for fault in faults {
        for max_retries in [0, 1, 2] {
            for quota in [1, 8] {
                let cell = format!("{fault:?} max_retries={max_retries} quota={quota}");
                let cells = Set::new("cells", mesh.ncells);
                let init: Vec<f64> = (0..mesh.ncells).map(|c| 0.25 + c as f64).collect();
                let res = Dat::new("res", &cells, 1, init);
                let before: Vec<u64> = res.to_vec().iter().map(|v| v.to_bits()).collect();
                let rt = Arc::new(Op2Runtime::deterministic(11, PART_SIZE));
                let policy = RetryPolicy { max_retries, quota, ..RetryPolicy::default() };
                let sup = Supervisor::new(rt, BackendKind::Dataflow, policy);
                assert_eq!(sup.ladder().len(), 3, "{cell}");
                if let Fault::CircuitOpen = fault {
                    let (panics, _) = failing_gather(Fault::KernelPanic, &mesh, &res);
                    while sup.quota_remaining() > 0 {
                        sup.try_execute(&panics).map(drop).expect_err("always panics");
                    }
                }
                let (gather, runs) = failing_gather(fault, &mesh, &res);
                let quota_before = sup.quota_remaining();
                det::inject_coloring_bug(matches!(fault, Fault::Plan));
                let result = sup.try_execute(&gather).map(drop);
                det::inject_coloring_bug(false);
                let err = result.expect_err(&cell);

                let transient = (3 * (1 + max_retries)).min(quota);
                let (attempts, spent) = match fault {
                    Fault::KernelPanic | Fault::NonFinite => (transient, transient),
                    Fault::Plan => (0, 1),
                    Fault::CircuitOpen => (0, 0),
                };
                assert_eq!(runs.load(Ordering::Relaxed), attempts, "{cell}: attempts run");
                assert_eq!(quota_before - sup.quota_remaining(), spent, "{cell}: quota spent");
                let kind_ok = match fault {
                    Fault::KernelPanic => matches!(err.kind, FailureKind::KernelPanic { .. }),
                    Fault::NonFinite => matches!(err.kind, FailureKind::NonFinite { .. }),
                    Fault::Plan => matches!(err.kind, FailureKind::Plan(_)),
                    Fault::CircuitOpen => matches!(err.kind, FailureKind::CircuitOpen),
                };
                assert!(kind_ok, "{cell}: returned {err}");
                let after: Vec<u64> = res.to_vec().iter().map(|v| v.to_bits()).collect();
                assert_eq!(after, before, "{cell}: write-set touched");
            }
        }
    }

    let cells = Set::new("cells", mesh.ncells);
    let res = Dat::filled("res", &cells, 1, 0.0f64);
    let rt = Arc::new(Op2Runtime::new(2, PART_SIZE));
    let sup = Supervisor::new(rt, BackendKind::Dataflow, RetryPolicy::default());
    let quota = sup.quota_remaining();
    let panicked = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let once = Arc::clone(&panicked);
    let flaky = ParLoop::build("flaky", &cells)
        .args(res.rw::<1>())
        .kernel(move |[r], _| {
            assert!(once.swap(true, Ordering::Relaxed), "injected fault");
            *r += 1.0;
        });
    sup.try_execute(&flaky).expect("a panic is retried and recovers");
    assert_eq!(sup.quota_remaining(), quota - 1, "the panic cost one attempt");
    assert!(res.to_vec().iter().all(|&v| v == 1.0), "the retry ran from restored data");
}

/// Without the injection hook the checker stays quiet on the same mesh — the
/// test above is not a false positive of the harness itself.
#[test]
fn clean_chain_mesh_has_no_reports() {
    let mesh = chain_mesh(32);
    for kind in parallel_backends() {
        let (_, reports, schedule) = det_run(kind, 3, &mesh);
        assert!(
            reports.is_empty(),
            "spurious reports on a correct program: {reports:?}\n{}",
            replay_hint(kind, 3, &schedule)
        );
    }
}
