//! The one interpreter of a time step, `op2_hpx::run_step`: the waits it
//! derives are the pairwise rule's and sufficient on the real async
//! executor, Airfoil's are pinned against the paper's hand placement, host
//! code feeds a global in every mode, and Airfoil's dependency graph is the
//! checked-in one.

use std::sync::Arc;

use op2_airfoil::{AirfoilLoops, FlowConstants, MeshBuilder, Simulation, SyncStrategy};
use op2_hpx::{async_waits, make_executor, run_step, BackendKind, Op2Runtime};
use op2_swe::{SweApp, SweConfig};
use proptest::prelude::*;

/// The async driver (`Fig10` on an `AsyncExecutor`) marches Airfoil to the
/// blocking fork-join state and RMS history, bit for bit: the derived waits
/// are sufficient.
#[test]
fn fig10_run_on_async_executor_matches_blocking_forkjoin_bitwise() {
    let consts = FlowConstants::default();
    let run = |kind: BackendKind, mode: SyncStrategy| {
        let mesh = MeshBuilder::channel(32, 16).build(&consts);
        mesh.add_pulse(1.0, 0.5, 0.25, 0.2, &consts);
        let exec = make_executor(kind, Arc::new(Op2Runtime::new(3, 64)));
        let sim = Simulation::new(mesh, &consts, exec, mode);
        let rms: Vec<u64> = sim.run(8, 1).into_iter().map(|(_, r)| r.to_bits()).collect();
        let q: Vec<u64> = sim.mesh().p_q.to_vec().into_iter().map(f64::to_bits).collect();
        (q, rms)
    };
    let (q, rms) = run(BackendKind::Async, SyncStrategy::Fig10);
    let (ref_q, ref_rms) = run(BackendKind::ForkJoin, SyncStrategy::Blocking);
    assert_eq!(q, ref_q, "state diverged");
    assert_eq!(rms, ref_rms, "rms history diverged");
}

/// The pairwise rule: two loops, each (reads, writes), keep their program
/// order when one writes a dat the other touches.
fn conflict<K: PartialEq>(a: &(Vec<K>, Vec<K>), b: &(Vec<K>, Vec<K>)) -> bool {
    let meets = |x: &[K], y: &[K]| x.iter().any(|d| y.contains(d));
    meets(&a.1, &b.0) || meets(&a.0, &b.1) || meets(&a.1, &b.1)
}

/// `async_waits` by brute force: before each loop of two copies of the
/// step, a wait on every loop of the first copy not yet waited on that
/// conflicts with it, oldest first; the second copy's waits at the end.
fn pairwise_waits(loops: &[(Vec<u8>, Vec<u8>)]) -> Vec<Vec<usize>> {
    let n = loops.len();
    let mut waited = vec![false; n];
    let mut waits = vec![Vec::new(); n + 1];
    for at in 0..2 * n {
        for j in 0..n.min(at) {
            if !waited[j] && conflict(&loops[j], &loops[at % n]) {
                waited[j] = true;
                waits[at.min(n)].push(j);
            }
        }
    }
    waits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Waiting on the rule's un-waited producers, oldest first, places the
    /// same waits in the same order as the pairwise scan.
    #[test]
    fn async_waits_equal_the_pairwise_scan(
        program in prop::collection::vec(prop::collection::vec((0u8..4, 0usize..4), 0..4), 1..10),
    ) {
        // (reads, writes) per loop from (dat, READ/WRITE/RW/INC) arguments.
        let loops: Vec<(Vec<u8>, Vec<u8>)> = program
            .iter()
            .map(|args| {
                let pick = |side: &[usize]| {
                    let mut v: Vec<u8> = args.iter().filter(|a| side.contains(&a.1)).map(|a| a.0).collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                };
                (pick(&[0, 2, 3]), pick(&[1, 2, 3]))
            })
            .collect();
        prop_assert_eq!(async_waits(&loops), pairwise_waits(&loops));
    }
}

/// Airfoil's derived waits, pinned, beside the paper's Fig. 10 placement as
/// the hand-written driver had it (entry `i` before loop `i`, entry 9 at the
/// end of the step). They differ in two places:
/// * before the first `update`, the hand placement waits `bres_calc` then
///   `save_soln`; the rule waits oldest first;
/// * the last `update` is waited on at the end of the step in both, but the
///   rule places it for the next step's `save_soln`, which reads the `p_q`
///   it writes and overwrites the `p_qold` it read.
#[test]
fn airfoil_async_waits_are_derived_not_placed() {
    let consts = FlowConstants::default();
    let mesh = MeshBuilder::channel(8, 4).build(&consts);
    let step = AirfoilLoops::new(&mesh, &consts).step();
    let names: Vec<&str> = step.loops().iter().map(|l| l.name()).collect();
    assert_eq!(names[..5], ["save_soln", "adt_calc", "res_calc", "bres_calc", "update"]);
    assert_eq!(names[1..5], names[5..]);

    let keys: Vec<_> = (0..step.loops().len()).map(|i| step.keys(i)).collect();
    let derived = async_waits(&keys);
    let fig10: [&[usize]; 10] = [&[], &[], &[1], &[2], &[3, 0], &[4], &[5], &[6], &[7], &[8]];
    let expected: [&[usize]; 10] = [&[], &[], &[1], &[2], &[0, 3], &[4], &[5], &[6], &[7], &[8]];
    assert_eq!(derived, expected);
    let differ: Vec<usize> = (0..10).filter(|&i| derived[i] != fig10[i]).collect();
    assert_eq!(differ, [4], "only the order of the first update's two waits differs");
    assert!(conflict(&keys[8], &keys[0]), "the next save_soln follows the last update");
}

/// `results/airfoil_deps.dot` is Airfoil's step through the dependency rule
/// (`cargo run -p op2-bench --bin airfoil_deps` prints it).
#[test]
fn airfoil_dot_equals_results_file() {
    let consts = FlowConstants::default();
    let mesh = MeshBuilder::channel(8, 4).build(&consts);
    let dot = AirfoilLoops::new(&mesh, &consts).step().dot();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results/airfoil_deps.dot");
    let committed = std::fs::read_to_string(&path).expect("results/airfoil_deps.dot");
    assert_eq!(dot, committed, "results/airfoil_deps.dot is stale");
}

/// Shallow water's `dt` flows from `swe_dt`'s reduction to `swe_update` by
/// declaration: its step gives the serial blocking march's bits in every
/// mode, and `dt` reads the same. Blocking waits even on an executor whose
/// loops return futures.
#[test]
fn swe_step_matches_blocking_in_every_mode() {
    let run = |kind: BackendKind, mode: SyncStrategy| {
        let app = SweApp::new(SweConfig { imax: 24, jmax: 12, ..SweConfig::default() });
        app.dam_break(2.0, 1.5, 1.0);
        let exec = make_executor(kind, Arc::new(Op2Runtime::new(2, 32)));
        let (mut history, mut results) = (Vec::new(), Vec::new());
        for _ in 0..6 {
            run_step(exec.as_ref(), app.step(), mode, &mut results).expect("a clean step");
            if mode == SyncStrategy::Blocking {
                assert!(results.iter().all(|h| h.is_ready()), "{kind}: a blocking step left a loop running");
            }
            history.extend(results.drain(..).map(|h| h.get()[0].to_bits()));
            history.push(app.step().host(1).expect("dt").0.get().to_bits());
        }
        exec.fence();
        let w: Vec<u64> = app.w.to_vec().into_iter().map(f64::to_bits).collect();
        (w, history)
    };
    let reference = run(BackendKind::Serial, SyncStrategy::Blocking);
    for (kind, mode) in [
        (BackendKind::Async, SyncStrategy::Blocking),
        (BackendKind::Async, SyncStrategy::Fig10),
        (BackendKind::Dataflow, SyncStrategy::Dataflow),
    ] {
        assert_eq!(run(kind, mode), reference, "{kind} under {mode:?}");
    }
}
