//! Trace-level proof that the futurized march actually overlaps: with the
//! same mesh, seed and per-chunk compute jitter, the overlapped run's
//! distributed communication wait (blocking receive + barrier + attributed
//! halo-wait, [`op2_trace::RunReport::comm_wait_ns`]) must come in strictly
//! below the bulk-synchronous run's. The bulk schedule sends reverse halo
//! payloads only after *all* interior work, so under compute imbalance its
//! peers rack up blocking-recv time the overlapped schedule converts into
//! (shorter) attributed halo polling.
//!
//! Wall-clock comparisons are inherently noisy, so the comparison retries a
//! few times before failing; the structural assertions (halo-wait spans
//! exist only under overlap, results stay bitwise equal) are exact. Kept to
//! a single `#[test]` so the global trace collector is never shared.

use op2_airfoil::{FlowConstants, MeshBuilder};
use op2_dist::exec::{run_distributed_opts, DistOptions, DistReport, JitterSpec};
use op2_dist::Partition;
use op2_trace::report::{analyze, RunReport};
use op2_trace::Collector;

fn traced_run(overlap: bool) -> (DistReport, RunReport) {
    let consts = FlowConstants::default();
    let builder = MeshBuilder::channel(48, 24);
    let mesh = builder.build(&consts);
    mesh.add_pulse(1.0, 0.5, 0.25, 0.2, &consts);
    let (data, q0) = (builder.data(), mesh.p_q.to_vec());
    let part = Partition::strips(48 * 24, 4);
    let opts = DistOptions {
        overlap,
        // Same seeded imbalance in both schedules: up to 2 ms per interior
        // chunk, varying by (rank, iter, stage, chunk).
        jitter: Some(JitterSpec { seed: 11, max_us: 2000 }),
        ..DistOptions::default()
    };

    let collector = Collector::start();
    let rep = run_distributed_opts(&data, &consts, &q0, &part, 4, 1, &opts)
        .expect("traced run failed");
    let timeline = collector.stop();
    (rep, analyze(&timeline))
}

#[test]
fn overlapped_march_shrinks_comm_wait() {
    const ATTEMPTS: usize = 3;
    let mut last = None;
    for attempt in 1..=ATTEMPTS {
        let (bulk_rep, bulk) = traced_run(false);
        let (lap_rep, lap) = traced_run(true);

        // Structural: bulk never polls, overlap attributes its polling.
        assert_eq!(bulk.halo_wait_ns, 0, "bulk schedule recorded halo-wait spans");
        assert!(
            lap.halo_wait_ns > 0,
            "overlapped schedule recorded no halo-wait spans — did it overlap at all?"
        );
        // Structural: the schedules agree bitwise, so the wait comparison
        // below is between two runs of the *same* computation.
        assert_eq!(
            bulk_rep.final_q.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            lap_rep.final_q.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );

        if lap.comm_wait_ns() < bulk.comm_wait_ns() {
            return;
        }
        last = Some((bulk.comm_wait_ns(), lap.comm_wait_ns(), attempt));
    }
    let (bulk_ns, lap_ns, _) = last.expect("at least one attempt ran");
    panic!(
        "overlapped comm wait never dropped below bulk in {ATTEMPTS} attempts: \
         bulk {bulk_ns} ns vs overlapped {lap_ns} ns"
    );
}
