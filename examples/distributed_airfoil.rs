//! Airfoil across distributed-memory ranks (the MPI-style configuration in
//! which OP2 — and the HPX vision of the paper — runs beyond one node).
//!
//! ```text
//! cargo run --release --example distributed_airfoil -- [NRANKS] [ITERS]
//! ```
//!
//! Ranks live in one process (threads + message channels standing in for
//! MPI; see `op2-dist`), each owning a strip of cells with import halos and
//! forward/reverse exchanges per stage. The example verifies the distributed
//! state against the single-node march, then exercises the fault tolerance:
//! a seeded message-fault storm that the retry/reorder protocol must mask
//! bit-exactly, and a rank kill mid-march that recovers from the last
//! consistent checkpoint onto the surviving ranks.

use op2_airfoil::{FlowConstants, MeshBuilder};
use op2_dist::{run_distributed_opts, run_hybrid_opts, DistOptions, FaultPlan, Partition};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let nranks: usize = args.first().map_or(4, |s| s.parse().expect("nranks"));
    let iters: usize = args.get(1).map_or(50, |s| s.parse().expect("iters"));

    let consts = FlowConstants::default();
    let builder = MeshBuilder::channel(96, 48);
    let mesh = builder.build(&consts);
    mesh.add_pulse(1.0, 0.5, 0.25, 0.2, &consts);
    let q0 = mesh.p_q.to_vec();
    let data = builder.data();

    println!(
        "distributed airfoil: {nranks} ranks, {} cells, {iters} iters",
        mesh.ncells()
    );
    let part = Partition::strips(mesh.ncells(), nranks);
    let clean = DistOptions::default();
    let report =
        run_distributed_opts(&data, &consts, &q0, &part, iters, (iters / 5).max(1), &clean)
            .expect("distributed march");
    for (iter, rms) in &report.rms {
        println!("  iter {iter:>6}  rms {rms:.6e}");
    }

    // Cross-check against a 1-rank (single-node natural-order) run.
    let one_rank = Partition::strips(mesh.ncells(), 1);
    let single = run_distributed_opts(&data, &consts, &q0, &one_rank, iters, iters, &clean)
        .expect("1-rank march");
    let max_dev = report
        .final_q
        .iter()
        .zip(&single.final_q)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("max |q_dist − q_single| = {max_dev:.3e} (different summation orders)");
    assert!(max_dev < 1e-10, "distributed state diverged");
    println!("distributed march matches single-node to rounding ✓");

    // Fault storm: seeded drops, duplicates, delays and replays on every
    // link. The sequenced retry protocol must mask all of it — the result
    // is required to be *bit-identical* to the fault-free march above.
    let seed = 42;
    let faulty = run_distributed_opts(
        &data,
        &consts,
        &q0,
        &part,
        iters,
        iters,
        &DistOptions {
            plan: Some(FaultPlan::seeded(seed)),
            ..DistOptions::default()
        },
    )
    .expect("faulty march should be masked");
    println!("fault storm (seed {seed}): {}", faulty.faults);
    assert!(
        faulty
            .final_q
            .iter()
            .zip(&report.final_q)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "injected faults leaked into the solution"
    );
    println!("all injected message faults masked bit-exactly ✓");

    // Rank failure: kill one rank mid-march. The survivors detect the
    // loss, re-form the fabric, re-partition the mesh among themselves and
    // restore the newest consistent checkpoint before marching on.
    if nranks > 1 {
        let kill_at = (iters / 2).max(1);
        let recovered = run_distributed_opts(
            &data,
            &consts,
            &q0,
            &part,
            iters,
            iters,
            &DistOptions {
                plan: Some(FaultPlan::none().with_kill(1, kill_at)),
                checkpoint_every: (iters / 10).max(1),
                ..DistOptions::default()
            },
        )
        .expect("march should survive the kill");
        for rec in &recovered.recoveries {
            println!(
                "recovery: ranks {:?} lost, {:?} continued from checkpoint @ iter {}",
                rec.failed, rec.survivors, rec.restored_iter
            );
        }
        println!("after kill @ iter {kill_at}: {}", recovered.faults);
        assert_eq!(recovered.recoveries.len(), 1);
        println!("rank kill survived via checkpointed recovery ✓");
    }

    // Hybrid mode: the same ranks, each running its loops on the dataflow
    // backend with its own thread pool (the paper's MPI+HPX configuration).
    let hybrid = run_hybrid_opts(
        &data,
        &consts,
        &q0,
        &part,
        2,
        op2_hpx::BackendKind::Dataflow,
        iters,
        iters,
        &clean,
    )
    .expect("hybrid march");
    let max_dev_h = hybrid
        .final_q
        .iter()
        .zip(&report.final_q)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("hybrid (dataflow-in-rank) max deviation vs flat: {max_dev_h:.3e}");
    assert!(max_dev_h < 1e-10, "hybrid diverged");
    println!("hybrid MPI+HPX-style march agrees ✓");
}
