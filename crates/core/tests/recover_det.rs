//! Seeded recovery sweep: supervised retry after a transactional rollback
//! must be invisible in the results.
//!
//! Mirrors the seed discipline of `tests/det_schedules.rs` / `op2-dist`'s
//! `tests/faults.rs`: ≥16 seeds (narrow to one with `DET_SEED=<seed>`), and
//! every assertion message carries a replay hint. For every seed and every
//! backend, a kernel failure is injected at a seed-derived element, the
//! [`Supervisor`] rolls the loop back and retries (degrading down the
//! backend ladder when the failure persists), and the final data must be
//! **bit-identical** to a clean serial run that never failed — the recovery
//! ladder may never change numerics.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use op2_core::{arg_direct, arg_indirect, Access, Dat, Footprint, Map, ParLoop, Set};
use op2_hpx::{
    make_executor, BackendKind, FailureKind, Op2Runtime, RetryPolicy, Supervisor,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const NUM_SEEDS: u64 = 16;
const PART_SIZE: usize = 4;

fn seeds_to_run() -> Vec<u64> {
    match std::env::var("DET_SEED") {
        Ok(s) => vec![s
            .trim()
            .parse()
            .expect("DET_SEED must be an unsigned integer")],
        Err(_) => (0..NUM_SEEDS).collect(),
    }
}

fn replay_hint(seed: u64, kind: BackendKind) -> String {
    format!("replay: DET_SEED={seed} cargo test -p op2-hpx --test recover_det (backend {kind})")
}

/// A random edges→cells mesh (edges routinely share cells, so the indirect
/// loop needs real coloring).
struct Mesh {
    nedges: usize,
    ncells: usize,
    table: Vec<u32>,
    /// The one or two cells the boundary edges touch — at most half of the
    /// (≥ 4) cells, so a rollback of `bres` covers rows, not the dat.
    bcells: Vec<u32>,
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
    let bcells = (0..rng.gen_range(1..3usize))
        .map(|_| rng.gen_range(0..ncells) as u32)
        .collect();
    Mesh {
        nedges,
        ncells,
        table,
        bcells,
    }
}

struct Fixture {
    res: Dat<f64>,
    q: Dat<f64>,
    qold: Dat<f64>,
    save: ParLoop,
    gather: ParLoop,
    bres: ParLoop,
    update: ParLoop,
}

/// Four-loop program in Airfoil's shape: a write-only direct save, an
/// indirect gather with increments and a global sum, a boundary loop that
/// increments a cell or two through a sparse map, then a direct update — one
/// loop per way a write footprint is captured (not at all, whole, by rows,
/// whole). While `faults` is non-zero, the save, gather and boundary kernels
/// panic at a seed-derived element (each panic decrements the counter) — the
/// supervisor's retries drain it. The save and boundary kernels write
/// *before* they panic, so a retry over data that was not put back diverges.
fn fixture(mesh: &Mesh, seed: u64, faults: Arc<AtomicUsize>) -> Fixture {
    let edges = Set::new("edges", mesh.nedges);
    let cells = Set::new("cells", mesh.ncells);
    let m = Map::new("pecell", &edges, &cells, 2, mesh.table.clone());
    let res = Dat::new(
        "res",
        &cells,
        1,
        (0..mesh.ncells).map(|c| 0.25 * c as f64).collect(),
    );
    let q = Dat::filled("q", &cells, 1, 1.0f64);
    let fail_at = seed as usize % mesh.nedges;

    let qold = Dat::filled("qold", &cells, 1, 0.0f64);
    let (qv, qoldv, armed) = (q.view(), qold.view(), Arc::clone(&faults));
    let save_fail_at = seed as usize % mesh.ncells;
    let save = ParLoop::build("save", &cells)
        .arg(arg_direct(&q, Access::Read))
        .arg(arg_direct(&qold, Access::Write))
        .kernel(move |c, _| unsafe {
            qoldv.set(c, 0, qv.get(c, 0));
            if c == save_fail_at && trip(&armed) {
                panic!("injected kernel failure at element {c}");
            }
        });

    let bedges = Set::new("bedges", mesh.bcells.len());
    let bm = Map::new("pbecell", &bedges, &cells, 1, mesh.bcells.clone());
    let (rv, bmv, armed) = (res.view(), bm.clone(), Arc::clone(&faults));
    let bres_fail_at = seed as usize % mesh.bcells.len();
    let bres = ParLoop::build("bres", &bedges)
        .arg(arg_indirect(&res, 0, &bm, Access::Inc))
        .kernel(move |e, _| unsafe {
            rv.add(bmv.at(e, 0), 0, 2.0);
            if e == bres_fail_at && trip(&armed) {
                panic!("injected kernel failure at element {e}");
            }
        });

    let rv = res.view();
    let mv = m.clone();
    let gather = ParLoop::build("gather", &edges)
        .arg(arg_indirect(&res, 0, &m, Access::Inc))
        .arg(arg_indirect(&res, 1, &m, Access::Inc))
        .gbl_inc(1)
        .kernel(move |e, gbl| unsafe {
            if e == fail_at && trip(&faults) {
                panic!("injected kernel failure at element {e}");
            }
            rv.add(mv.at(e, 0), 0, 1.0);
            rv.add(mv.at(e, 1), 0, 0.5);
            gbl[0] += e as f64;
        });

    let rv = res.view();
    let qv = q.view();
    let update = ParLoop::build("update", &cells)
        .arg(arg_direct(&res, Access::Read))
        .arg(arg_direct(&q, Access::ReadWrite))
        .kernel(move |c, _| unsafe {
            let v = qv.get(c, 0);
            qv.set(c, 0, v + 0.1 * rv.get(c, 0));
        });

    Fixture {
        res,
        q,
        qold,
        save,
        gather,
        bres,
        update,
    }
}

/// Spend one injected fault, if any are left.
fn trip(faults: &AtomicUsize) -> bool {
    faults
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
        .is_ok()
}

fn bits(d: &Dat<f64>) -> Vec<u64> {
    d.to_vec().into_iter().map(f64::to_bits).collect()
}

fn backends() -> Vec<BackendKind> {
    vec![
        BackendKind::Serial,
        BackendKind::ForkJoin,
        BackendKind::ForEachStatic(2),
        BackendKind::Async,
        BackendKind::Dataflow,
    ]
}

/// The sweep: for every seed × backend, inject 1–2 kernel failures into each
/// of the save, gather and boundary loops, run them under the supervisor
/// (retry → degrade), then the update loop, and require results
/// bit-identical to a clean serial run.
#[test]
fn supervised_recovery_is_bit_identical_to_clean_serial_run() {
    for seed in seeds_to_run() {
        let mesh = random_mesh(seed);

        // Clean serial oracle: no injection, plain executor.
        let oracle = {
            let fx = fixture(&mesh, seed, Arc::new(AtomicUsize::new(0)));
            let rt = Arc::new(Op2Runtime::new(1, PART_SIZE));
            let exec = make_executor(BackendKind::Serial, rt);
            exec.execute(&fx.save).wait();
            let gbl = exec.execute(&fx.gather).get();
            exec.execute(&fx.bres).wait();
            exec.execute(&fx.update).wait();
            // Both footprint bounds really are inside the sweep.
            assert_eq!(fx.save.write_footprint()[0].extent(), &Footprint::Skip);
            assert!(matches!(fx.bres.write_footprint()[0].extent(), Footprint::Rows(_)));
            (bits(&fx.res), bits(&fx.q), gbl, bits(&fx.qold))
        };

        for kind in backends() {
            let hint = replay_hint(seed, kind);
            // 1 + seed%2 failures: one retry on the primary rung always
            // recovers the single failure; two failures exhaust the primary
            // rung (1 + max_retries attempts) and force degradation.
            let nfaults = 1 + (seed as usize % 2);
            let faults = Arc::new(AtomicUsize::new(nfaults));
            let fx = fixture(&mesh, seed, Arc::clone(&faults));
            let rt = Arc::new(Op2Runtime::new(2, PART_SIZE));
            let sup = Supervisor::new(Arc::clone(&rt), kind, RetryPolicy::default());
            sup.run(&fx.save)
                .unwrap_or_else(|e| panic!("supervisor gave up on save: {e}\n{hint}"));
            assert_eq!(faults.swap(nfaults, Ordering::Relaxed), 0, "save faults not drained\n{hint}");
            let gbl = sup
                .run(&fx.gather)
                .unwrap_or_else(|e| panic!("supervisor gave up: {e}\n{hint}"));
            assert_eq!(faults.load(Ordering::Relaxed), 0, "faults not drained\n{hint}");
            faults.store(nfaults, Ordering::Relaxed);
            sup.run(&fx.bres)
                .unwrap_or_else(|e| panic!("supervisor gave up on bres: {e}\n{hint}"));
            assert_eq!(faults.load(Ordering::Relaxed), 0, "bres faults not drained\n{hint}");
            sup.run(&fx.update)
                .unwrap_or_else(|e| panic!("update failed: {e}\n{hint}"));
            assert_eq!(bits(&fx.res), oracle.0, "res diverged from oracle\n{hint}");
            assert_eq!(bits(&fx.q), oracle.1, "q diverged from oracle\n{hint}");
            assert_eq!(gbl, oracle.2, "reduction diverged from oracle\n{hint}");
            assert_eq!(bits(&fx.qold), oracle.3, "qold diverged from oracle\n{hint}");
        }
    }
}

/// With a tuner on the runtime the supervisor's first attempt runs the
/// tuner's pick and its retries ask the tuner nothing. Either way the attempt
/// runs on the supervisor's rollback-on runtime: a retry still starts from
/// restored data, and a failure that outlives the ladder still reports — and
/// has made — the rollback.
#[test]
fn supervisor_over_a_tuned_runtime_still_rolls_back_and_retries_bit_identically() {
    let seed = 7;
    let mesh = random_mesh(seed);
    let oracle = {
        let fx = fixture(&mesh, seed, Arc::new(AtomicUsize::new(0)));
        let exec = make_executor(BackendKind::Serial, Arc::new(Op2Runtime::new(1, PART_SIZE)));
        let gbl = exec.execute(&fx.gather).get();
        exec.execute(&fx.bres).wait();
        (bits(&fx.res), gbl)
    };

    let faults = Arc::new(AtomicUsize::new(1));
    let fx = fixture(&mesh, seed, Arc::clone(&faults));
    let tuner = Arc::new(op2_tune::Tuner::with_seed(seed));
    let rt = Arc::new(Op2Runtime::new(2, PART_SIZE).with_tuner(tuner));
    let sup = Supervisor::new(rt, BackendKind::Dataflow, RetryPolicy::default());
    let gbl = sup.run(&fx.gather).expect("one retry recovers the gather");
    faults.store(1, Ordering::Relaxed);
    sup.run(&fx.bres).expect("one retry recovers the boundary loop");
    assert_eq!(faults.load(Ordering::Relaxed), 0, "faults not drained");
    assert_eq!((bits(&fx.res), gbl), oracle, "a tuned supervisor's retry changed the result");

    faults.store(usize::MAX, Ordering::Relaxed);
    let before = bits(&fx.res);
    let err = sup.run(&fx.bres).expect_err("the failure outlives the ladder");
    assert!(err.rolled_back, "{err}");
    assert_eq!(bits(&fx.res), before, "every attempt must roll back");
}

/// A failure that outlives every rung of the ladder surfaces as the last
/// typed error, and the circuit breaker then fails fast without running.
#[test]
fn persistent_failure_exhausts_ladder_then_opens_circuit() {
    let mesh = random_mesh(3);
    // More failures than the whole ladder can attempt (3 rungs × 2).
    let faults = Arc::new(AtomicUsize::new(usize::MAX));
    let fx = fixture(&mesh, 3, Arc::clone(&faults));
    let rt = Arc::new(Op2Runtime::new(2, PART_SIZE));
    let policy = RetryPolicy {
        quota: 6,
        ..RetryPolicy::default()
    };
    let sup = Supervisor::new(Arc::clone(&rt), BackendKind::Dataflow, policy);
    assert_eq!(sup.ladder().len(), 3, "dataflow → fork-join → serial");

    let before = bits(&fx.res);
    let err = sup.run(&fx.gather).expect_err("unrecoverable failure");
    assert!(
        matches!(err.kind, FailureKind::KernelPanic { .. }),
        "last error must be the kernel failure, got: {err}"
    );
    assert_eq!(bits(&fx.res), before, "every attempt must roll back");
    assert_eq!(sup.quota_remaining(), 0, "quota spent by 6 failed attempts");

    // Circuit open: the next run fails fast, without touching the kernel.
    let attempts_before = usize::MAX - faults.load(Ordering::Relaxed);
    let err = sup.run(&fx.gather).expect_err("circuit must be open");
    assert_eq!(err.kind, FailureKind::CircuitOpen, "{err}");
    assert_eq!(
        usize::MAX - faults.load(Ordering::Relaxed),
        attempts_before,
        "an open circuit must not execute the kernel"
    );
}

/// An immediately-expired per-attempt deadline cancels every attempt
/// cooperatively; the supervisor reports the cancellation after exhausting
/// the ladder, with all data rolled back untouched.
#[test]
fn expired_deadline_cancels_all_attempts() {
    let mesh = random_mesh(5);
    let fx = fixture(&mesh, 5, Arc::new(AtomicUsize::new(0)));
    let rt = Arc::new(Op2Runtime::new(2, PART_SIZE));
    let policy = RetryPolicy {
        deadline: Some(std::time::Duration::ZERO),
        ..RetryPolicy::default()
    };
    let sup = Supervisor::new(Arc::clone(&rt), BackendKind::ForkJoin, policy);
    let before = bits(&fx.res);
    let err = sup.run(&fx.gather).expect_err("zero deadline must cancel");
    assert!(
        matches!(err.kind, FailureKind::Cancelled(_)),
        "expected cancellation, got: {err}"
    );
    assert_eq!(bits(&fx.res), before, "cancelled attempts must leave no trace");
    // The token was cleared after the last attempt: a plain executor on the
    // same runtime still works.
    let exec = make_executor(BackendKind::ForkJoin, rt);
    exec.execute(&fx.gather).wait();
}
