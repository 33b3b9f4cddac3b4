//! Determinism sweep for the data-layout × renumbering × backend cube.
//!
//! Layouts move *addresses*, never arithmetic; backends move *when* work
//! happens, never what is computed; renumbering relabels elements and is
//! undone by the inverse permutation. This sweep pins all three claims at
//! once: for ≥16 seeds (each seed a different badly-ordered mesh numbering
//! and pulse), every (layout × backend) run is **bit-identical** to the
//! serial AoS oracle with the same renumbering setting — reports and final
//! state, the latter mapped back through the inverse permutation — and the
//! renumbered oracle agrees with the unrenumbered one to rounding.
//!
//! Mirrors the seed discipline of `overlap_det.rs`: assertion messages
//! carry a `DET_SEED=<seed>` replay line, and setting `DET_SEED` narrows
//! the sweep to that one seed.

use std::sync::Arc;

use op2_airfoil::mesh::{MeshData, MeshOptions};
use op2_airfoil::{FlowConstants, MeshBuilder, Simulation, SyncStrategy};
use op2_core::Layout;
use op2_hpx::{make_executor, BackendKind, Op2Runtime};

/// Seeds swept (unless `DET_SEED` narrows the run to one).
const NUM_SEEDS: u64 = 16;
const NITER: usize = 4;

fn seeds_to_run() -> Vec<u64> {
    match std::env::var("DET_SEED") {
        Ok(s) => vec![s
            .trim()
            .parse()
            .expect("DET_SEED must be an unsigned integer")],
        Err(_) => (0..NUM_SEEDS).collect(),
    }
}

fn replay_hint(seed: u64) -> String {
    format!("replay: DET_SEED={seed} cargo test -p op2-airfoil --test kernel_det")
}

/// One full march: returns the RMS report bits and the final state bits in
/// the *original* numbering (renumbered runs map back through the inverse
/// permutation before hashing).
fn march(
    base: &MeshData,
    consts: &FlowConstants,
    opts: MeshOptions,
    kind: BackendKind,
    pulse: (f64, f64),
) -> (Vec<(usize, u64)>, Vec<u64>) {
    let mesh = op2_airfoil::mesh::Mesh::from_data_opts(base.clone(), consts, &opts);
    mesh.add_pulse(pulse.0, pulse.1, 0.25, 0.2, consts);
    let rt = Arc::new(Op2Runtime::new(2, 64));
    let exec = make_executor(kind, rt);
    let sim = Simulation::new(mesh, consts, exec, SyncStrategy::for_backend(kind));
    let reports = sim.run(NITER, 2);
    let report_bits = reports.into_iter().map(|(i, r)| (i, r.to_bits())).collect();
    let q_bits = sim
        .mesh()
        .unrenumbered_q()
        .into_iter()
        .map(f64::to_bits)
        .collect();
    (report_bits, q_bits)
}

#[test]
fn layout_renumbering_backend_cube_matches_serial_aos_oracle() {
    let consts = FlowConstants::default();
    let builder = MeshBuilder::channel(12, 6);
    let layouts = [Layout::Aos, Layout::Soa];
    let backends = [
        BackendKind::Serial,
        BackendKind::ForkJoin,
        BackendKind::ForEachAuto,
        BackendKind::ForEachStatic(4),
        BackendKind::Async,
        BackendKind::Dataflow,
    ];

    for seed in seeds_to_run() {
        let hint = replay_hint(seed);
        // Each seed: a different badly-ordered numbering and pulse center.
        let (base, _) = builder.data().shuffled(seed);
        let pulse = (0.5 + (seed % 7) as f64 * 0.45, 0.3 + (seed % 3) as f64 * 0.2);

        let mut oracles = Vec::new();
        for renumber in [false, true] {
            let oracle = march(
                &base,
                &consts,
                MeshOptions {
                    layout: Layout::Aos,
                    renumber,
                },
                BackendKind::Serial,
                pulse,
            );
            for layout in layouts {
                for kind in backends {
                    let got = march(&base, &consts, MeshOptions { layout, renumber }, kind, pulse);
                    assert_eq!(
                        got.0, oracle.0,
                        "reports diverged: {layout:?} × {kind} × renumber={renumber}\n{hint}"
                    );
                    assert_eq!(
                        got.1, oracle.1,
                        "final state diverged: {layout:?} × {kind} × renumber={renumber}\n{hint}"
                    );
                }
            }
            oracles.push(oracle);
        }

        // Renumbering changes summation order (edge visit order), so the two
        // oracle classes agree to rounding, not bits.
        let (plain, ren) = (&oracles[0], &oracles[1]);
        assert_eq!(plain.1.len(), ren.1.len(), "{hint}");
        for (i, (a, b)) in plain.1.iter().zip(&ren.1).enumerate() {
            let (a, b) = (f64::from_bits(*a), f64::from_bits(*b));
            assert!(
                (a - b).abs() <= 1e-12 * a.abs().max(1.0),
                "renumbered state [{i}]: {a} vs {b}\n{hint}"
            );
        }
    }
}
