//! Determinism and convergence guarantees of the online autotuner
//! (`op2-tune`) wired through the executors.
//!
//! The contract under test (DESIGN.md §10): attaching a tuner to a runtime
//! must never change results. With default [`op2_tune::TuneOptions`] the
//! tuner only moves schedule-invariant knobs — backend, chunk size, and
//! (only for plan-order-invariant loops) plan parameters — so a tuned run is
//! **bit-identical** to an untuned one, on every backend, for every seed.
//! The sweep below proves it over 16 seeds; the convergence tests prove the
//! tuner actually learns (serial for tiny sets, a parallel backend for large
//! heavy sets when real parallelism exists); the store test proves a
//! persisted model warm-starts a fresh process straight into exploitation.

use std::sync::Arc;

use op2_core::{arg_direct, arg_indirect, Access, Dat, Map, ParLoop, Set};
use op2_hpx::{key_for, make_executor, BackendKind, Executor, Op2Runtime, TunedExecutor};
use op2_tune::Tuner;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// A random airfoil-shaped mini app (same structure as the cross-backend
/// equivalence fixture): 4 loops covering direct W, indirect R/Inc + global
/// reduction, direct RW, and direct R/W/RW + global reduction — so the sweep
/// exercises both plan-order-invariant loops (where the tuner explores plan
/// parameters) and variant ones (where it must not).
struct MiniApp {
    edges: Set,
    cells: Set,
    pecell: Map,
    q: Dat<f64>,
    qold: Dat<f64>,
    res: Dat<f64>,
}

impl MiniApp {
    fn new(seed: u64, ncells: usize, nedges: usize) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let edges = Set::new("edges", nedges);
        let cells = Set::new("cells", ncells);
        let mut table = Vec::with_capacity(nedges * 2);
        for _ in 0..nedges {
            let a = rng.gen_range(0..ncells as u32);
            let mut b = rng.gen_range(0..ncells as u32);
            while b == a && ncells > 1 {
                b = rng.gen_range(0..ncells as u32);
            }
            table.push(a);
            table.push(b);
        }
        let pecell = Map::new("pecell", &edges, &cells, 2, table);
        let qdata: Vec<f64> = (0..ncells * 2).map(|_| rng.gen_range(0.1..2.0)).collect();
        let q = Dat::new("q", &cells, 2, qdata);
        let qold = Dat::filled("qold", &cells, 2, 0.0);
        let res = Dat::filled("res", &cells, 2, 0.0);
        MiniApp {
            edges,
            cells,
            pecell,
            q,
            qold,
            res,
        }
    }

    fn loops(&self) -> Vec<ParLoop> {
        let qv = self.q.view();
        let qoldv = self.qold.view();
        let resv = self.res.view();
        let m = self.pecell.clone();

        let save = ParLoop::build("save", &self.cells)
            .arg(arg_direct(&self.q, Access::Read))
            .arg(arg_direct(&self.qold, Access::Write))
            .kernel(move |e, _| unsafe {
                qoldv.store::<2>(e, qv.load(e));
            });

        let m2 = m.clone();
        let flux = ParLoop::build("flux", &self.edges)
            .arg(arg_indirect(&self.q, 0, &m, Access::Read))
            .arg(arg_indirect(&self.q, 1, &m, Access::Read))
            .arg(arg_indirect(&self.res, 0, &m, Access::Inc))
            .arg(arg_indirect(&self.res, 1, &m, Access::Inc))
            .gbl_inc(1)
            .kernel(move |e, gbl| unsafe {
                let a = m2.at(e, 0);
                let b = m2.at(e, 1);
                let [qa0, qa1] = qv.load(a);
                let [qb0, qb1] = qv.load(b);
                let f0 = 0.5 * (qa0 - qb0);
                let f1 = 0.25 * (qa1 + qb1);
                resv.add_vec(a, [f0, f1]);
                resv.add_vec(b, [-f0, f1]);
                gbl[0] += f0 * f0 + f1 * f1;
            });

        let damp = ParLoop::build("damp", &self.cells)
            .arg(arg_direct(&self.res, Access::ReadWrite))
            .kernel(move |e, _| unsafe {
                let [r0, r1] = resv.load(e);
                resv.store(e, [r0 * 0.9, r1 * 0.9]);
            });

        let update = ParLoop::build("update", &self.cells)
            .arg(arg_direct(&self.qold, Access::Read))
            .arg(arg_direct(&self.res, Access::ReadWrite))
            .arg(arg_direct(&self.q, Access::Write))
            .gbl_inc(1)
            .kernel(move |e, gbl| unsafe {
                let [r0, r1] = resv.load(e);
                let [qo0, qo1] = qoldv.load(e);
                qv.store(e, [qo0 + 0.01 * r0, qo1 + 0.01 * r1]);
                let d = r0 + r1;
                resv.store(e, [0.0, 0.0]);
                gbl[0] += d * d;
            });

        vec![save, flux, damp, update]
    }

    fn snapshot(&self) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        (
            bits(self.q.to_vec()),
            bits(self.qold.to_vec()),
            bits(self.res.to_vec()),
        )
    }
}

type AppResult = ((Vec<u64>, Vec<u64>, Vec<u64>), Vec<Vec<f64>>);

/// Run `iters` iterations of the mini app, returning final dat bits and the
/// per-iteration reductions. `tuner: None` is the untuned reference;
/// `Some(t)` attaches `t` to the runtime so every executor consults it.
fn run_app(
    make: &dyn Fn(Arc<Op2Runtime>) -> Box<dyn Executor>,
    seed: u64,
    iters: usize,
    threads: usize,
    part: usize,
    tuner: Option<Arc<Tuner>>,
) -> AppResult {
    let app = MiniApp::new(seed, 97, 311);
    let loops = app.loops();
    let mut rt = Op2Runtime::new(threads, part);
    if let Some(t) = tuner {
        rt = rt.with_tuner(t);
    }
    let exec = make(Arc::new(rt));
    let mut gbls = Vec::new();
    for _ in 0..iters {
        let mut iter_gbls = Vec::new();
        for l in &loops {
            // get() after every loop: conservative ordering valid for every
            // backend, including async (which does not order conflicting
            // loops on its own).
            iter_gbls.push(exec.execute(l).get());
        }
        gbls.push(iter_gbls.remove(3));
        gbls.push(iter_gbls.remove(1));
    }
    exec.fence();
    (app.snapshot(), gbls)
}

/// Enough iterations that every decision key walks its whole candidate list
/// (warm-up + 2 samples per candidate) and lands in the exploit phase, so
/// the comparison covers exploration *and* exploitation executions.
const SWEEP_ITERS: usize = 10;

/// Base offset for the 16-seed sweeps. `DET_SEED=<n>` shifts the whole
/// window so CI's nightly sweep explores fresh meshes and exploration
/// orders; any failure replays from the seed named in the assertion.
fn base_seed() -> u64 {
    std::env::var("DET_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// The tentpole guarantee: for 16 seeds and every backend, a run with a
/// tuner attached is bit-identical — dat contents and reduction values —
/// to the same run without one. The tuner's exploration may move chunk
/// sizes and (on invariant loops) plan parameters underneath each backend;
/// none of it may show up in the numbers.
#[test]
fn tuned_matches_untuned_bitwise_across_16_seeds_and_all_backends() {
    let base = base_seed();
    for seed in base..base + 16 {
        for kind in [
            BackendKind::Serial,
            BackendKind::ForkJoin,
            BackendKind::ForEachAuto,
            BackendKind::Async,
            BackendKind::Dataflow,
        ] {
            let make: Box<dyn Fn(Arc<Op2Runtime>) -> Box<dyn Executor>> =
                Box::new(move |rt| make_executor(kind, rt));
            let untuned = run_app(&make, seed, SWEEP_ITERS, 2, 16, None);
            let tuner = Arc::new(Tuner::with_seed(seed));
            let tuned = run_app(&make, seed, SWEEP_ITERS, 2, 16, Some(Arc::clone(&tuner)));
            assert_eq!(
                tuned.0, untuned.0,
                "dat bits diverged: backend {kind}, seed {seed}"
            );
            assert_eq!(
                tuned.1, untuned.1,
                "reductions diverged: backend {kind}, seed {seed}"
            );
            assert!(
                !tuner.snapshot().is_empty(),
                "tuner observed nothing: backend {kind}, seed {seed}"
            );
        }
    }
}

/// Same guarantee for the backend-switching executor: whatever backend the
/// tuner routes each execution to, the bits match the untuned serial
/// reference.
#[test]
fn tuned_executor_matches_serial_reference_across_16_seeds() {
    let serial: Box<dyn Fn(Arc<Op2Runtime>) -> Box<dyn Executor>> =
        Box::new(|rt| make_executor(BackendKind::Serial, rt));
    let tuned_exec: Box<dyn Fn(Arc<Op2Runtime>) -> Box<dyn Executor>> =
        Box::new(|rt| Box::new(TunedExecutor::new(rt)));
    let base = base_seed();
    for seed in base..base + 16 {
        let reference = run_app(&serial, seed, SWEEP_ITERS, 2, 16, None);
        let tuner = Arc::new(Tuner::with_seed(seed));
        let got = run_app(&tuned_exec, seed, SWEEP_ITERS, 2, 16, Some(tuner));
        assert_eq!(got.0, reference.0, "dat bits diverged: seed {seed}");
        assert_eq!(got.1, reference.1, "reductions diverged: seed {seed}");
    }
}

/// A small direct loop for the convergence tests. `heavy` controls the
/// per-element cost: false = a couple of flops (parallel dispatch overhead
/// dominates), true = an iterated sqrt chain (compute dominates).
fn bench_loop(cells: &Set, q: &Dat<f64>, heavy: bool) -> ParLoop {
    let qv = q.view();
    ParLoop::build(if heavy { "heavy" } else { "tiny" }, cells)
        .arg(arg_direct(q, Access::ReadWrite))
        .kernel(move |e, _| unsafe {
            let [mut x] = qv.load(e);
            if heavy {
                for _ in 0..48 {
                    x = (x * x + 0.5).sqrt();
                }
            } else {
                x = x * 0.5 + 1.0;
            }
            qv.store(e, [x]);
        })
}

/// One real explore-then-exploit search over the tiny/heavy bench loop:
/// drive `execs` executions through a [`TunedExecutor`], return the
/// converged config. `drift_limit: 0` pins the exploit phase once reached —
/// re-exploration triggered by CI scheduler noise would otherwise leave the
/// search mid-walk when we read it.
fn converge_real(seed: u64, n: usize, part: usize, heavy: bool, execs: usize) -> op2_tune::TuneConfig {
    let tuner = Arc::new(Tuner::new(op2_tune::TuneOptions {
        seed,
        explore_samples: if heavy { 3 } else { 5 },
        drift_limit: 0,
        ..op2_tune::TuneOptions::default()
    }));
    let rt = Arc::new(Op2Runtime::new(4, part).with_tuner(Arc::clone(&tuner)));
    let exec = TunedExecutor::new(Arc::clone(&rt));
    let cells = Set::new("cells", n);
    let q = Dat::filled("q", &cells, 1, 1.0f64);
    let l = bench_loop(&cells, &q, heavy);
    let key = key_for(&rt, &l);
    for _ in 0..execs {
        exec.execute(&l).wait();
    }
    let (config, exploiting, count) = tuner
        .config_for(&key)
        .expect("key observed after driving executions");
    assert!(exploiting, "still exploring after {count} executions");
    assert!(tuner.converged());
    config
}

/// Tiny set: parallel coordination costs more than the loop body, so the
/// tuner converges on the serial backend. `part == n` keeps every candidate
/// on a 1-block plan, isolating backend cost (inline vs pool dispatch) from
/// block granularity. The margin is physical but only a few µs, so on a
/// noisy shared box any single search can be misled by a scheduler spike —
/// each independently-seeded attempt converges to serial with high
/// probability (empirically ≳80% under heavy load, ~100% unloaded), so
/// requiring one success in six bounds the false-failure rate well below
/// anything the rest of the suite tolerates.
#[test]
fn tuner_converges_to_serial_for_tiny_sets() {
    let mut seen = Vec::new();
    for seed in 11..17u64 {
        let config = converge_real(seed, 64, 64, false, 80);
        if config.backend == Some(op2_tune::BackendChoice::Serial) {
            return;
        }
        seen.push(config.render());
    }
    panic!("no attempt tuned the 64-element set to serial: {seen:?}");
}

/// Large heavy set: with real cores available, some parallel backend beats
/// serial and the tuner must not converge on serial. On a single-core
/// machine serial genuinely *is* the optimum, so there the test only
/// asserts convergence + correctness — the backend assertion would be
/// asserting a falsehood about the hardware.
#[test]
fn tuner_converges_to_parallel_for_large_heavy_sets() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let config = converge_real(13, 32 * 1024, 256, true, 56);
    if cores >= 4 {
        let mut ok = config.backend != Some(op2_tune::BackendChoice::Serial);
        // Same noise policy as the tiny-set test: retry with fresh seeds
        // before declaring the tuner wrong about the hardware.
        let mut seen = vec![config.render()];
        for seed in 14..16u64 {
            if ok {
                break;
            }
            let c = converge_real(seed, 32 * 1024, 256, true, 56);
            ok = c.backend != Some(op2_tune::BackendChoice::Serial);
            seen.push(c.render());
        }
        assert!(
            ok,
            "{cores} cores available but every attempt tuned a 32k-element \
             compute-bound loop to serial: {seen:?}"
        );
    }
}

/// Persistence closes the loop across processes: a converged model saved by
/// one tuner warm-starts another (different seed, fresh state) straight into
/// the exploit phase — no re-exploration — and the warmed run stays
/// bit-identical to untuned.
#[test]
fn warm_store_round_trip_skips_exploration() {
    // Converge a model on the mini app.
    let forkjoin: Box<dyn Fn(Arc<Op2Runtime>) -> Box<dyn Executor>> =
        Box::new(|rt| make_executor(BackendKind::ForkJoin, rt));
    let cold = Arc::new(Tuner::with_seed(3));
    run_app(&forkjoin, 7, SWEEP_ITERS, 2, 16, Some(Arc::clone(&cold)));
    assert!(cold.converged(), "sweep iterations must cover exploration");

    let path = std::env::temp_dir().join(format!("op2-tune-det-{}.store", std::process::id()));
    cold.save(&path).expect("save store");

    // A different seed is irrelevant once warm: every key the store covers
    // starts exploiting immediately.
    let warm = Arc::new(Tuner::with_seed(1234));
    warm.load(&path).expect("load store");
    std::fs::remove_file(&path).ok();
    assert!(warm.converged(), "imported keys start in exploit phase");
    assert_eq!(
        cold.snapshot().len(),
        warm.snapshot().len(),
        "warm store carries one entry per cold decision key"
    );

    let before = warm.snapshot();
    let untuned = run_app(&forkjoin, 7, SWEEP_ITERS, 2, 16, None);
    let got = run_app(&forkjoin, 7, SWEEP_ITERS, 2, 16, Some(Arc::clone(&warm)));
    assert_eq!(got.0, untuned.0, "warm-started run diverged from untuned");
    assert_eq!(got.1, untuned.1, "warm-started reductions diverged");
    // Still exploiting afterwards: the warm run never re-entered exploration.
    for (key, _, exploiting, _) in warm.snapshot() {
        assert!(exploiting, "key {:?} re-explored after warm start", key);
    }
    assert_eq!(before.len(), warm.snapshot().len());
}

/// A warm store can carry a block size for any key, including a direct loop
/// with a global reduction, whose partials combine in block order. The
/// executor must drop it there: the reduction of a tuned run equals the
/// untuned one bit for bit.
#[test]
fn stored_part_size_on_a_reduction_loop_leaves_its_bits_alone() {
    let run = |tuner: Option<Arc<Tuner>>| -> u64 {
        let cells = Set::new("cells", 10_000);
        let data: Vec<f64> = (0..10_000).map(|e| 1.0 / (e as f64 + 1.0)).collect();
        let q = Dat::new("q", &cells, 1, data);
        let qv = q.view();
        let l = ParLoop::build("sum", &cells)
            .arg(arg_direct(&q, Access::Read))
            .gbl_inc(1)
            .kernel(move |e, gbl| unsafe { gbl[0] += qv.get(e, 0) });
        let mut rt = Op2Runtime::new(1, 256);
        if let Some(t) = tuner {
            let key = key_for(&rt, &l);
            t.import(&op2_tune::TuneStore {
                version: op2_tune::STORE_VERSION,
                seed: 0,
                entries: vec![op2_tune::StoreEntry {
                    topo: key.topo,
                    loop_name: key.loop_name,
                    set_size: key.set_size as u64,
                    pattern: key.pattern.name().to_owned(),
                    backend: String::new(),
                    chunk: 0,
                    part_size: 7,
                    layout: String::new(),
                    best_ns: 1_000,
                    per_elem_ns: 0.1,
                }],
            });
            rt = rt.with_tuner(t);
        }
        let exec = make_executor(BackendKind::Serial, Arc::new(rt));
        exec.execute(&l).get()[0].to_bits()
    };
    let tuner = Arc::new(Tuner::with_seed(0));
    let tuned = run(Some(Arc::clone(&tuner)));
    assert!(tuner.converged(), "the stored row was imported and used");
    assert_eq!(
        tuned,
        run(None),
        "a stored part size moved the reduction bits: {tuned:#018x}"
    );
}

/// The decision key is content-addressed: two apps with identical topology
/// (same seed) share a key; a different mesh (different seed) gets its own.
#[test]
fn decision_keys_are_content_addressed_by_topology() {
    let rt = Arc::new(Op2Runtime::new(1, 16));
    let a1 = MiniApp::new(5, 97, 311);
    let a2 = MiniApp::new(5, 97, 311);
    let b = MiniApp::new(6, 97, 311);
    let k1 = key_for(&rt, &a1.loops()[1]);
    let k2 = key_for(&rt, &a2.loops()[1]);
    let kb = key_for(&rt, &b.loops()[1]);
    assert_eq!(k1, k2, "identical topology must share tuning state");
    assert_ne!(k1.topo, kb.topo, "different mesh must not share a key");
    assert_eq!(k1.pattern, op2_tune::IndirectionPattern::IndirectWrite);
}
