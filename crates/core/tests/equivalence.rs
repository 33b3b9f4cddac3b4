//! Cross-backend equivalence: every parallel backend must produce dat
//! contents and global reductions **bitwise identical** to the serial
//! plan-order reference, on randomized unstructured meshes and multi-loop
//! programs with real data dependencies.

use std::sync::Arc;

use op2_core::{arg_direct, arg_indirect, Access, Dat, Map, ParLoop, Set};
use op2_hpx::{make_executor, BackendKind, Executor, Op2Runtime};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// A random "mesh": `ncells` cells, `nedges` edges with 2 random distinct
/// endpoints each, plus per-cell state `q` (dim 2) and residual `res`.
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

    /// The four-loop "iteration" mimicking Airfoil's structure:
    /// save (direct W), flux (indirect R/Inc with gbl), damp (direct RW),
    /// update (direct R/W/RW with gbl).
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

/// Run `iters` iterations of the mini app under `kind`, returning the final
/// state (bit patterns) and accumulated reductions.
fn run_app(kind: BackendKind, seed: u64, iters: usize, threads: usize, part: usize) -> ((Vec<u64>, Vec<u64>, Vec<u64>), Vec<Vec<f64>>) {
    let app = MiniApp::new(seed, 97, 311);
    let loops = app.loops();
    let rt = Arc::new(Op2Runtime::new(threads, part));
    let exec = make_executor(kind, rt);
    let mut gbls = Vec::new();
    for _ in 0..iters {
        let mut iter_gbls = Vec::new();
        for l in &loops {
            let h = exec.execute(l);
            // get() after every loop: the conservative ordering that is valid
            // for every backend, including async (which does not order
            // conflicting loops on its own). The dedicated tests below relax
            // this for async (Fig. 10 placement) and dataflow (no waits).
            iter_gbls.push(h.get());
        }
        // Keep only the loops with a reduction (flux, update).
        gbls.push(iter_gbls.remove(3));
        gbls.push(iter_gbls.remove(1));
    }
    exec.fence();
    (app.snapshot(), gbls)
}

#[test]
fn all_backends_match_serial_bitwise() {
    let reference = run_app(BackendKind::Serial, 42, 5, 1, 16);
    for kind in [
        BackendKind::ForkJoin,
        BackendKind::ForEachAuto,
        BackendKind::ForEachStatic(3),
        BackendKind::Async,
        BackendKind::Dataflow,
    ] {
        for threads in [1, 2, 4] {
            let got = run_app(kind, 42, 5, threads, 16);
            assert_eq!(
                got.0, reference.0,
                "dat state diverged: backend {kind}, {threads} threads"
            );
            assert_eq!(
                got.1, reference.1,
                "reductions diverged: backend {kind}, {threads} threads"
            );
        }
    }
}

#[test]
fn part_size_does_not_change_results_within_backend_family() {
    // Different part sizes change the block structure, which changes the
    // plan-order semantics for Inc loops — but serial and parallel backends
    // with the SAME part size must still agree.
    for part in [1, 7, 64, 1000] {
        let reference = run_app(BackendKind::Serial, 7, 3, 1, part);
        let got = run_app(BackendKind::Dataflow, 7, 3, 2, part);
        assert_eq!(got.0, reference.0, "part={part}");
        assert_eq!(got.1, reference.1, "part={part}");
    }
}

#[test]
fn dataflow_without_intermediate_gets_matches_serial() {
    // The dataflow backend must order everything automatically: issue all
    // loops of all iterations without a single wait, then fence.
    let reference = run_app(BackendKind::Serial, 99, 4, 1, 32);

    let app = MiniApp::new(99, 97, 311);
    let loops = app.loops();
    let rt = Arc::new(Op2Runtime::new(4, 32));
    let exec = op2_hpx::DataflowExecutor::new(rt);
    let mut handles = Vec::new();
    for _ in 0..4 {
        for l in &loops {
            handles.push(exec.execute(l));
        }
    }
    exec.fence();
    assert_eq!(app.snapshot(), reference.0);
    // Reductions, in issue order: every 4th handle starting at 1 is flux,
    // at 3 is update.
    let mut gbls = Vec::new();
    let all: Vec<Vec<f64>> = handles.into_iter().map(|h| h.get()).collect();
    for it in 0..4 {
        gbls.push(all[it * 4 + 3].clone());
        gbls.push(all[it * 4 + 1].clone());
    }
    assert_eq!(gbls, reference.1);
}

#[test]
fn async_with_manual_get_placement_matches_serial() {
    // Fig. 10 style: place waits only where dependencies demand them.
    // Dependency structure per iteration: save ⊥ flux? No — flux reads q,
    // save reads q (both readers, fine to overlap); damp needs flux; update
    // needs save + damp. Next iteration's save/flux need update.
    let reference = run_app(BackendKind::Serial, 123, 4, 1, 16);

    let app = MiniApp::new(123, 97, 311);
    let loops = app.loops();
    let (save, flux, damp, update) = (&loops[0], &loops[1], &loops[2], &loops[3]);
    let rt = Arc::new(Op2Runtime::new(4, 16));
    let exec = op2_hpx::AsyncExecutor::new(rt);
    let mut gbls = Vec::new();
    for _ in 0..4 {
        let h_save = exec.execute(save); // reads q, writes qold
        let h_flux = exec.execute(flux); // reads q, incs res — overlaps save
        h_flux.wait(); // damp rewrites res
        let h_damp = exec.execute(damp);
        h_save.wait(); // update reads qold
        h_damp.wait(); // update reads res
        let h_update = exec.execute(update);
        let g_update = h_update.get(); // next save/flux read q
        gbls.push(g_update);
        gbls.push(h_flux.get());
    }
    exec.fence();
    assert_eq!(app.snapshot(), reference.0);
    assert_eq!(gbls, reference.1);
}

#[test]
fn empty_sets_are_handled_by_all_backends() {
    let cells = Set::new("cells", 0);
    let q = Dat::filled("q", &cells, 1, 0.0f64);
    let l = ParLoop::build("noop", &cells)
        .arg(arg_direct(&q, Access::ReadWrite))
        .gbl_inc(1)
        .kernel(|_, gbl| gbl[0] += 1.0);
    for kind in BackendKind::all() {
        let rt = Arc::new(Op2Runtime::new(2, 16));
        let exec = make_executor(kind, rt);
        let h = exec.execute(&l);
        assert_eq!(h.get(), vec![0.0], "backend {kind}");
        exec.fence();
    }
}

#[test]
fn min_max_reductions_identical_across_backends() {
    let run = |kind: BackendKind, op: &str| {
        let cells = Set::new("cells", 997);
        let q = Dat::new(
            "q",
            &cells,
            1,
            (0..997).map(|i| ((i * 7919) % 1000) as f64 - 500.0).collect(),
        );
        let qv = q.view();
        let builder = ParLoop::build("extremum", &cells).arg(arg_direct(&q, Access::Read));
        let l = match op {
            "min" => builder.gbl_min(1).kernel(move |e, gbl| unsafe {
                gbl[0] = gbl[0].min(qv.get(e, 0));
            }),
            _ => builder.gbl_max(1).kernel(move |e, gbl| unsafe {
                gbl[0] = gbl[0].max(qv.get(e, 0));
            }),
        };
        let rt = Arc::new(Op2Runtime::new(3, 64));
        let exec = make_executor(kind, rt);
        let v = exec.execute(&l).get()[0];
        exec.fence();
        v
    };
    for op in ["min", "max"] {
        let reference = run(BackendKind::Serial, op);
        assert!(reference.is_finite());
        for kind in [
            BackendKind::ForkJoin,
            BackendKind::ForEachAuto,
            BackendKind::Async,
            BackendKind::Dataflow,
        ] {
            assert_eq!(run(kind, op).to_bits(), reference.to_bits(), "{op} under {kind}");
        }
    }
    // And the values are the true extrema.
    let data: Vec<f64> = (0..997).map(|i| ((i * 7919) % 1000) as f64 - 500.0).collect();
    assert_eq!(run(BackendKind::Serial, "min"), data.iter().copied().fold(f64::INFINITY, f64::min));
    assert_eq!(run(BackendKind::Serial, "max"), data.iter().copied().fold(f64::NEG_INFINITY, f64::max));
}

/// The paper's central scheduling claim: independent loops *interleave* under
/// the dataflow backend. Loop A's kernel blocks until loop B's kernel has
/// run — it can only complete if B executes while A is still in flight,
/// which no barriered backend would allow.
#[test]
fn dataflow_actually_overlaps_independent_loops() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    let rt = Arc::new(Op2Runtime::new(2, 4));
    let cells_a = Set::new("a_cells", 1);
    let cells_b = Set::new("b_cells", 1);
    let da = Dat::filled("da", &cells_a, 1, 0.0f64);
    let db = Dat::filled("db", &cells_b, 1, 0.0f64);

    let b_ran = Arc::new(AtomicBool::new(false));
    let b_ran_a = Arc::clone(&b_ran);
    let loop_a = ParLoop::build("waits_for_b", &cells_a)
        .arg(arg_direct(&da, Access::Write))
        .kernel(move |_, _| {
            let start = Instant::now();
            while !b_ran_a.load(Ordering::Acquire) {
                assert!(
                    start.elapsed() < Duration::from_secs(20),
                    "loop B never ran concurrently — no interleaving"
                );
                std::thread::yield_now();
            }
        });
    let b_ran_b = Arc::clone(&b_ran);
    let loop_b = ParLoop::build("signals", &cells_b)
        .arg(arg_direct(&db, Access::Write))
        .kernel(move |_, _| {
            b_ran_b.store(true, Ordering::Release);
        });

    let exec = op2_hpx::DataflowExecutor::new(rt);
    let ha = exec.execute(&loop_a); // returns immediately, body pending
    let hb = exec.execute(&loop_b); // independent: may run concurrently
    hb.wait();
    ha.wait(); // completes only because B ran while A was blocked
    exec.fence();
}
