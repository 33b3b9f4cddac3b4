//! Determinism sweep for the futurized (communication/computation
//! overlapped) distributed march.
//!
//! The overlapped schedule reorders *when* work happens — interior chunks
//! interleave with halo arrivals, reverse sends leave early, the RMS
//! reduction completes an iteration late — but must never change *what* is
//! computed. This sweep proves it: for ≥16 seeds × rank counts {2, 4, 8} ×
//! both applications (airfoil, shallow-water), an overlapped run under
//! seed-derived schedule perturbation (compute jitter plus a
//! delay/duplicate/replay fault mix that scrambles halo arrival order) is
//! **bit-identical** to the unperturbed bulk-synchronous reference: final
//! state, every report, and the `adt`/`res` digests.
//!
//! Mirrors the seed discipline of `tests/det_schedules.rs`: assertion
//! messages carry a `DET_SEED=<seed>` replay line, and setting `DET_SEED`
//! narrows the sweep to that one seed.

use op2_airfoil::{FlowConstants, MeshBuilder};
use op2_dist::exec::{run_distributed_opts, DistOptions, JitterSpec};
use op2_dist::swe::run_swe_distributed_opts;
use op2_dist::{FaultPlan, Partition};
use op2_swe::{SweApp, SweConfig};

/// Seeds swept (unless `DET_SEED` narrows the run to one).
const NUM_SEEDS: u64 = 16;
const RANK_COUNTS: [usize; 3] = [2, 4, 8];

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
    format!("replay: DET_SEED={seed} cargo test -p op2-dist --test overlap_det")
}

/// Seed-derived schedule perturbation: per-chunk compute jitter plus a
/// message-fault mix that delays, duplicates and replays halo traffic
/// (drops excluded here — `tests/faults.rs` owns the retransmission
/// matrix). All of it is masked by the transport, so results must not move.
fn perturbed_opts(seed: u64) -> DistOptions {
    DistOptions {
        trajectory_digests: true,
        overlap: true,
        jitter: Some(JitterSpec { seed, max_us: 40 }),
        plan: Some(FaultPlan {
            seed,
            drop_p: 0.0,
            dup_p: 0.15,
            delay_p: 0.15,
            replay_p: 0.08,
            max_drops_per_message: 0,
            kill: None,
        }),
        ..DistOptions::default()
    }
}

/// The unperturbed bulk-synchronous reference, with its trajectory digests.
fn bulk_opts() -> DistOptions {
    DistOptions { trajectory_digests: true, ..DistOptions::default() }
}

fn bits(q: &[f64]) -> Vec<u64> {
    q.iter().map(|v| v.to_bits()).collect()
}

/// Airfoil: overlapped == bulk, bit for bit, across the full
/// seed × rank-count sweep. Digests cover every owned-cell `adt`/`res`
/// value at every stage, so agreement is over the whole march, not just
/// the final state.
#[test]
fn airfoil_overlap_bitwise_across_seeds_and_ranks() {
    let (nx, ny, niter) = (16, 8, 3);
    let consts = FlowConstants::default();
    let builder = MeshBuilder::channel(nx, ny);
    let mesh = builder.build(&consts);
    mesh.add_pulse(1.0, 0.5, 0.25, 0.2, &consts);
    let (data, q0) = (builder.data(), mesh.p_q.to_vec());

    for nranks in RANK_COUNTS {
        let part = Partition::strips(nx * ny, nranks);
        let bulk = run_distributed_opts(
            &data,
            &consts,
            &q0,
            &part,
            niter,
            1,
            &bulk_opts(),
        )
        .expect("bulk reference run");
        assert!(bulk.res_digest.is_some(), "digests were asked for");

        for seed in seeds_to_run() {
            let hint = replay_hint(seed);
            let lap = run_distributed_opts(
                &data,
                &consts,
                &q0,
                &part,
                niter,
                1,
                &perturbed_opts(seed),
            )
            .unwrap_or_else(|e| panic!("{nranks} ranks: overlapped run failed: {e}\n{hint}"));

            assert_eq!(
                bits(&lap.final_q),
                bits(&bulk.final_q),
                "{nranks} ranks: overlapped final_q diverged from bulk\n{hint}"
            );
            assert_eq!(lap.rms.len(), bulk.rms.len(), "{nranks} ranks\n{hint}");
            for ((ia, ra), (ib, rb)) in lap.rms.iter().zip(&bulk.rms) {
                assert_eq!(ia, ib, "{nranks} ranks\n{hint}");
                assert_eq!(
                    ra.to_bits(),
                    rb.to_bits(),
                    "{nranks} ranks: rms at iter {ia}\n{hint}"
                );
            }
            assert_eq!(
                lap.adt_digest, bulk.adt_digest,
                "{nranks} ranks: adt digest diverged\n{hint}"
            );
            assert_eq!(
                lap.res_digest, bulk.res_digest,
                "{nranks} ranks: res digest diverged\n{hint}"
            );
        }
    }
}

/// Shallow-water: the same sweep for the 3-component app, whose adaptive
/// `dt` additionally pipelines a max-reduction through the overlap path.
/// `dt` must stay bitwise equal too (the max is order-free).
#[test]
fn swe_overlap_bitwise_across_seeds_and_ranks() {
    let (imax, jmax, steps) = (16, 8, 4);
    let app = SweApp::new(SweConfig { imax, jmax, ..SweConfig::default() });
    app.dam_break(2.0, 2.0, 1.0);
    let w0 = app.w.to_vec();
    let mut data = MeshBuilder::channel(imax, jmax).data();
    data.bound
        .iter_mut()
        .for_each(|b| *b = op2_swe::kernels::SWE_WALL);

    for nranks in RANK_COUNTS {
        let part = Partition::strips(imax * jmax, nranks);
        let bulk = run_swe_distributed_opts(
            &data,
            9.81,
            0.4,
            &w0,
            &part,
            steps,
            1,
            &bulk_opts(),
        )
        .expect("bulk reference run");
        assert!(bulk.res_digest.is_some(), "digests were asked for");

        for seed in seeds_to_run() {
            let hint = replay_hint(seed);
            let lap = run_swe_distributed_opts(
                &data,
                9.81,
                0.4,
                &w0,
                &part,
                steps,
                1,
                &perturbed_opts(seed),
            )
            .unwrap_or_else(|e| panic!("{nranks} ranks: overlapped run failed: {e}\n{hint}"));

            assert_eq!(
                bits(&lap.final_w),
                bits(&bulk.final_w),
                "{nranks} ranks: overlapped final_w diverged from bulk\n{hint}"
            );
            assert_eq!(lap.reports.len(), bulk.reports.len(), "{nranks} ranks\n{hint}");
            for ((sa, dta, ra), (sb, dtb, rb)) in lap.reports.iter().zip(&bulk.reports) {
                assert_eq!(sa, sb, "{nranks} ranks\n{hint}");
                assert_eq!(
                    dta.to_bits(),
                    dtb.to_bits(),
                    "{nranks} ranks: dt at step {sa}\n{hint}"
                );
                assert_eq!(
                    ra.to_bits(),
                    rb.to_bits(),
                    "{nranks} ranks: rms at step {sa}\n{hint}"
                );
            }
            assert_eq!(
                lap.res_digest, bulk.res_digest,
                "{nranks} ranks: res digest diverged\n{hint}"
            );
        }
    }
}
