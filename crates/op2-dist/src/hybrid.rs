//! Hybrid execution: message passing *between* ranks, an OP2-HPX backend
//! *within* each rank — the configuration the paper positions HPX for
//! (replacing OpenMP inside each MPI process).
//!
//! Each rank declares Airfoil as the flat march's ranks do: its slice's
//! tables ([`LocalMesh::tables`]: owned cells first, then halo copies) move
//! into a [`Mesh`] over the coordinates all ranks share ([`Mesh::over`]),
//! and the app's own [`op2_airfoil::AirfoilLoops`] over that mesh run with
//! any [`op2_hpx`] backend (fork-join, async, dataflow, …) on the rank's own
//! thread pool. Between loops, the forward and
//! reverse halo exchanges run on the dats' storage, through the march
//! engine's exchange helpers (same packing, same ascending-peer receive
//! order; tags 300/400).
//!
//! The owned/halo split is [`op2_core::ParLoop::window`], OP2's
//! core/exec-halo split: `save_soln` and `update` run over the owned window
//! only; `adt_calc` runs over every local cell (redundant halo execution, so
//! `res_calc`/`bres_calc` find a fresh `adt` at both ends of every edge).
//!
//! With [`DistOptions::overlap`] the halo exchange is futurized like the
//! flat march's: `adt_calc`'s owned window is *issued* (not waited) while
//! the rank thread runs the engine's poll loop and installs each peer's
//! block the moment it lands — arrivals write halo `q` slots, the in-flight
//! window reads only owned `q`, so the two proceed concurrently — and its
//! halo window runs once every block has landed. The report-point RMS
//! reduction is pipelined through [`Comm::iallreduce_sum`], harvested at the
//! next report point or the end of the march. Every per-cell value is
//! computed once from the same inputs in both schedules, so overlap is
//! bit-identical to bulk for a fixed backend.
//!
//! Fault handling: all fabric errors surface as [`DistError`] values, and
//! [`run_hybrid_opts`] takes the flat march's [`DistOptions`] for message
//! fault injection, deadline/retry tuning and overlap. What needs the march
//! engine — kill directives (checkpointed recovery), kernel faults,
//! checkpoints, the durable store, halting, dying, renumbering, jitter and
//! trajectory digests — is rejected with [`DistError::Config`] naming the
//! field; use [`crate::exec::run_distributed_opts`] for those. The report's
//! digests are therefore always `None`.

use std::sync::Arc;

use op2_airfoil::mesh::MeshData;
use op2_airfoil::{FlowConstants, Mesh};
use op2_core::Dat;
use op2_hpx::{make_executor, BackendKind, Op2Runtime};

use crate::exec::{declare_airfoil, DistError, DistOptions, DistReport};
use crate::fabric::{Comm, CommError};
use crate::march::{
    forward_send, gather, install_halo, launch, local_rows, poll_halos, recv_halos,
    recycle_dat, reverse_receive, scatter_owned, shared_coords, validate, Arrays, HaloSink,
    Report, Reports,
};
use crate::partition::{build_local, LocalMesh, Partition};

/// March `niter` iterations over `part`, each rank executing its loops with
/// `backend` on `threads_per_rank` workers, with message fault injection and
/// deadline/retry tuning per [`DistOptions`].
///
/// # Errors
/// See [`DistError`]; a clean network never fails. Options that need the
/// march engine (a kill directive, kernel faults, checkpoints, the store,
/// `halt_after`, `die_at`, `renumber`, jitter, `trajectory_digests`) are
/// rejected with [`DistError::Config`] — see the module docs.
#[allow(clippy::too_many_arguments)]
pub fn run_hybrid_opts(
    data: &MeshData,
    consts: &FlowConstants,
    q0: &[f64],
    part: &Partition,
    threads_per_rank: usize,
    backend: BackendKind,
    niter: usize,
    report_every: usize,
    opts: &DistOptions,
) -> Result<DistReport, DistError> {
    let ncells = data.cell_nodes.len() / 4;
    validate(q0.len(), ncells, 4, opts, false, false)?;
    let coords = shared_coords(data);
    let run = launch(part.nranks, opts, |comm| {
        rank_main(
            comm,
            data,
            &coords,
            consts,
            q0,
            part,
            threads_per_rank,
            backend,
            niter,
            report_every,
            opts,
        )
    })?;
    recycle_dat(coords);

    let mut final_q = vec![0.0; 4 * ncells];
    let mut rms = Vec::new();
    gather(run.results, |_| false, |rank, (owned_q, history): (Vec<f64>, Vec<Report>)| {
        scatter_owned(&mut final_q, 4, part.owned_cells(rank), &owned_q);
        if rank == 0 {
            rms = history.into_iter().map(|(iter, _, rms)| (iter, rms)).collect();
        }
    })?;
    Ok(DistReport {
        rms,
        final_q,
        faults: run.faults,
        recoveries: Vec::new(),
        local_retries: 0,
        adt_digest: None,
        res_digest: None,
        resumed_from: None,
        ckpt: Default::default(),
    })
}

#[allow(clippy::too_many_arguments)]
fn rank_main(
    comm: Comm,
    data: &MeshData,
    coords: &Dat<f64>,
    consts: &FlowConstants,
    q0: &[f64],
    part: &Partition,
    threads: usize,
    backend: BackendKind,
    niter: usize,
    report_every: usize,
    opts: &DistOptions,
) -> Result<(Vec<f64>, Vec<Report>), CommError> {
    // Declared as the march engine's ranks declare Airfoil.
    let mut local = build_local(data, part, comm.rank());
    let arrays = Arrays::new(4, 1, local_rows(q0, 4, &local));
    let (mesh, loops) = declare_airfoil(std::mem::take(&mut local.tables), coords, &arrays, consts);
    let (nowned, nlocal) = (local.nowned, local.ncells_local());
    let save_soln = loops.save_soln.window(0..nowned);
    let update = loops.update.window(0..nowned);
    let adt_owned = loops.adt_calc.window(0..nowned);
    let adt_halo = loops.adt_calc.window(nowned..nlocal);
    let exec = make_executor(backend, Arc::new(Op2Runtime::new(threads, 64)));
    let (q, res) = (&mesh.p_q, &mesh.p_res);

    let mut reports = Reports::new(data.cell_nodes.len() / 4);
    for iter in 1..=niter {
        comm.beat();
        // Exchanges touch the dats directly, so every issued loop must have
        // completed first (wait per loop; the halo exchange is the natural
        // synchronization point of the distributed configuration). The one
        // deliberate exception is the overlapped owned `adt_calc` window
        // below, whose reads are disjoint from the halo slots the poll
        // installs into.
        exec.execute(&save_soln).wait();
        let mut rms_local = 0.0;
        for stage in 0..2 {
            forward_send(&comm, &local.exports, TAG_HYB_FORWARD, 4, &q.data())?;
            let mut install = InstallHalos(&mesh, &local);
            if opts.overlap {
                // Runs on the rank thread while the owned window executes
                // on the pool: installs write only halo `q` slots, the
                // window reads only owned `q`, so the overlap is race-free.
                let owned = exec.execute(&adt_owned);
                poll_halos(&comm, &local.imports, TAG_HYB_FORWARD, iter, stage, 0, &mut install)?;
                owned.wait();
                exec.execute(&adt_halo).wait();
            } else {
                let payloads = recv_halos(&comm, &local.imports, TAG_HYB_FORWARD)?;
                for (gi, payload) in payloads.into_iter().enumerate() {
                    install.arrived(gi, payload)?;
                }
                exec.execute(&loops.adt_calc).wait();
            }
            exec.execute(&loops.res_calc).wait();
            exec.execute(&loops.bres_calc).wait();
            reverse_send(&comm, &local.imports, &mut res.data_mut())?;
            reverse_receive(&comm, &local.exports, TAG_HYB_REVERSE, 4, &mut res.data_mut())?;
            let gbl = exec.execute(&update).get();
            rms_local += gbl[0];
        }
        if iter % report_every.max(1) == 0 || iter == niter {
            // Under overlap the rms sum is the only collective in flight, so
            // completion order trivially follows post order.
            reports.post(&comm, opts.overlap, iter, 0.0, rms_local)?;
        }
    }
    reports.harvest(&comm)?;
    exec.fence();

    let owned_q = q.data()[..4 * nowned].to_vec();
    // What holds the arrays goes first, so that they can be handed back.
    drop((exec, save_soln, update, adt_owned, adt_halo, loops, mesh));
    arrays.recycle();
    Ok((owned_q, reports.done))
}

const TAG_HYB_FORWARD: u64 = 300;
const TAG_HYB_REVERSE: u64 = 400;

/// Installs each peer's forward payload into the halo `q` slots — the
/// hybrid march's whole reaction to a halo arrival (its loops run whole).
struct InstallHalos<'a>(&'a Mesh, &'a LocalMesh);

impl HaloSink for InstallHalos<'_> {
    fn arrived(&mut self, gi: usize, payload: Vec<f64>) -> Result<(), CommError> {
        install_halo(&mut self.0.p_q.data_mut(), 4, &self.1.imports[gi].1, &payload);
        Ok(())
    }
}

/// Send (and zero) the halo-side residuals back to their owners.
fn reverse_send(
    comm: &Comm,
    imports: &[(usize, Vec<u32>)],
    res: &mut [f64],
) -> Result<(), CommError> {
    for (peer, halo_locals) in imports {
        let mut payload = Vec::with_capacity(halo_locals.len() * 4);
        for &l in halo_locals {
            payload.extend_from_slice(&res[4 * l as usize..4 * l as usize + 4]);
            res[4 * l as usize..4 * l as usize + 4].fill(0.0);
        }
        comm.send(*peer, TAG_HYB_REVERSE, payload)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_strips;
    use crate::fabric::Fabric;
    use crate::fabric::CommConfig;
    use crate::fault::FaultPlan;
    use op2_airfoil::MeshBuilder;
    use std::time::Duration;

    /// `run_hybrid_opts` over index strips with default options.
    #[allow(clippy::too_many_arguments)]
    fn run_hybrid(
        data: &MeshData,
        consts: &FlowConstants,
        q0: &[f64],
        nranks: usize,
        threads: usize,
        backend: BackendKind,
        niter: usize,
        report_every: usize,
    ) -> Result<DistReport, DistError> {
        let part = Partition::strips(data.cell_nodes.len() / 4, nranks);
        let opts = DistOptions::default();
        run_hybrid_opts(data, consts, q0, &part, threads, backend, niter, report_every, &opts)
    }

    fn setup() -> (MeshData, FlowConstants, Vec<f64>) {
        let consts = FlowConstants::default();
        let builder = MeshBuilder::channel(20, 10);
        let mesh = builder.build(&consts);
        mesh.add_pulse(1.0, 0.5, 0.25, 0.2, &consts);
        (builder.data(), consts, mesh.p_q.to_vec())
    }

    #[test]
    fn hybrid_matches_flat_distributed_within_rounding() {
        let (data, consts, q0) = setup();
        let flat = run_strips(&data, &consts, &q0, 3, 6, 2);
        for backend in [BackendKind::ForkJoin, BackendKind::Dataflow] {
            let hyb = run_hybrid(&data, &consts, &q0, 3, 2, backend, 6, 2).unwrap();
            for (a, b) in hyb.final_q.iter().zip(&flat.final_q) {
                assert!(
                    (a - b).abs() <= 1e-11 * b.abs().max(1.0),
                    "{backend}: {a} vs {b}"
                );
            }
            for ((_, ra), (_, rb)) in hyb.rms.iter().zip(&flat.rms) {
                assert!((ra - rb).abs() <= 1e-11, "{backend} rms {ra} vs {rb}");
            }
        }
    }

    #[test]
    fn hybrid_is_deterministic() {
        let (data, consts, q0) = setup();
        let a = run_hybrid(&data, &consts, &q0, 2, 2, BackendKind::Dataflow, 4, 4).unwrap();
        let b = run_hybrid(&data, &consts, &q0, 2, 2, BackendKind::Dataflow, 4, 4).unwrap();
        assert_eq!(
            a.final_q.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.final_q.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn hybrid_free_stream_preserved() {
        let consts = FlowConstants::default();
        let builder = MeshBuilder::channel(16, 8);
        let mesh = builder.build(&consts);
        let q0 = mesh.p_q.to_vec();
        let rep = run_hybrid(
            &builder.data(),
            &consts,
            &q0,
            2,
            2,
            BackendKind::ForkJoin,
            4,
            1,
        )
        .unwrap();
        for (_, rms) in rep.rms {
            assert!(rms < 1e-12);
        }
    }

    #[test]
    fn hybrid_masks_injected_drops_bit_identically() {
        let (data, consts, q0) = setup();
        let part = Partition::strips(200, 2);
        let clean = run_hybrid_opts(
            &data,
            &consts,
            &q0,
            &part,
            2,
            BackendKind::ForkJoin,
            4,
            2,
            &DistOptions::default(),
        )
        .unwrap();
        let opts = DistOptions {
            plan: Some(FaultPlan::drop_first(2)),
            ..DistOptions::default()
        };
        let faulty = run_hybrid_opts(
            &data,
            &consts,
            &q0,
            &part,
            2,
            BackendKind::ForkJoin,
            4,
            2,
            &opts,
        )
        .unwrap();
        assert_eq!(
            faulty.final_q.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            clean.final_q.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert!(faulty.faults.dropped > 0);
        assert_eq!(faulty.faults.dropped, faulty.faults.retries);
    }

    /// The futurized hybrid schedule (owned-adt overlapping polled halo
    /// receives, pipelined rms) must be bit-identical to bulk-synchronous
    /// for a fixed backend: every per-cell value is computed once from the
    /// same inputs, and the deferred reduction combines in the same
    /// rank-ascending order as the blocking one.
    #[test]
    fn hybrid_overlap_matches_bulk_bitwise() {
        let (data, consts, q0) = setup();
        let part = Partition::strips(200, 3);
        for backend in [BackendKind::ForkJoin, BackendKind::Dataflow] {
            let bulk = run_hybrid_opts(
                &data,
                &consts,
                &q0,
                &part,
                2,
                backend,
                6,
                2,
                &DistOptions::default(),
            )
            .unwrap();
            let opts = DistOptions { overlap: true, ..DistOptions::default() };
            let lap = run_hybrid_opts(&data, &consts, &q0, &part, 2, backend, 6, 2, &opts)
                .unwrap();
            assert_eq!(
                lap.final_q.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                bulk.final_q.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{backend}: overlapped final_q diverged from bulk"
            );
            assert_eq!(lap.rms.len(), bulk.rms.len());
            for ((ia, ra), (ib, rb)) in lap.rms.iter().zip(&bulk.rms) {
                assert_eq!(ia, ib);
                assert_eq!(ra.to_bits(), rb.to_bits(), "{backend}: rms at iter {ia}");
            }
        }
    }

    /// Injected drops must be masked bit-identically under the overlapped
    /// schedule too: `try_recv` rides the same sequenced, retransmitting
    /// links as blocking `recv`.
    #[test]
    fn hybrid_overlap_masks_injected_drops_bit_identically() {
        let (data, consts, q0) = setup();
        let part = Partition::strips(200, 2);
        let overlap = DistOptions { overlap: true, ..DistOptions::default() };
        let clean =
            run_hybrid_opts(&data, &consts, &q0, &part, 2, BackendKind::ForkJoin, 4, 2, &overlap)
                .unwrap();
        let faulty_opts = DistOptions {
            plan: Some(FaultPlan::drop_first(2)),
            overlap: true,
            ..DistOptions::default()
        };
        let faulty = run_hybrid_opts(
            &data,
            &consts,
            &q0,
            &part,
            2,
            BackendKind::ForkJoin,
            4,
            2,
            &faulty_opts,
        )
        .unwrap();
        assert_eq!(
            faulty.final_q.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            clean.final_q.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert!(faulty.faults.dropped > 0);
    }

    /// FNV-1a over the little-endian bytes of a word stream.
    fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in words {
            for b in w.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Digest of `final_q` and the `(iter, rms)` history, bit for bit.
    fn digest(rep: &DistReport) -> u64 {
        let q = rep.final_q.iter().map(|v| v.to_bits());
        fnv1a(q.chain(rep.rms.iter().flat_map(|&(i, r)| [i as u64, r.to_bits()])))
    }

    /// The pulse setup on 3 ranks, 6 iterations, reporting every 2nd: one
    /// pinned digest for ForkJoin and Dataflow, bulk and overlapped. The
    /// value was taken when `build_local` began to number a rank's edges
    /// interior first, which regroups `res_calc`'s plan blocks and so the
    /// order of a cell's increments; with the edges in assignment order the
    /// same declaration reproduced the digest of the hand-declared loops
    /// before it, `0xed4c_7d69_6f57_497f`.
    #[test]
    fn hybrid_results_are_pinned_bit_for_bit() {
        const PINNED: u64 = 0xc8b8_be1a_9f12_b806;
        let (data, consts, q0) = setup();
        let part = Partition::strips(200, 3);
        for backend in [BackendKind::ForkJoin, BackendKind::Dataflow] {
            for overlap in [false, true] {
                let opts = DistOptions { overlap, ..DistOptions::default() };
                let rep = run_hybrid_opts(&data, &consts, &q0, &part, 2, backend, 6, 2, &opts)
                    .unwrap();
                assert_eq!(digest(&rep), PINNED, "{backend}, overlap {overlap}");
            }
        }
    }

    /// The hybrid twin of `exec::tests::more_ranks_than_rows_still_works`:
    /// 16 ranks over 288 cells leave tiny local slices, each declared as a
    /// whole app mesh.
    #[test]
    fn hybrid_more_ranks_than_rows_still_works() {
        let consts = FlowConstants::default();
        let builder = MeshBuilder::channel(24, 12);
        let mesh = builder.build(&consts);
        mesh.add_pulse(1.0, 0.5, 0.25, 0.2, &consts);
        let (data, q0) = (builder.data(), mesh.p_q.to_vec());
        let flat = run_strips(&data, &consts, &q0, 16, 3, 3);
        let hyb = run_hybrid(&data, &consts, &q0, 16, 1, BackendKind::ForkJoin, 3, 3).unwrap();
        assert_eq!(hyb.final_q.len(), 288 * 4);
        assert_eq!(hyb.rms.len(), flat.rms.len());
        for (a, b) in hyb.final_q.iter().zip(&flat.final_q) {
            assert!((a - b).abs() <= 1e-11 * b.abs().max(1.0), "{a} vs {b}");
        }
        for ((_, ra), (_, rb)) in hyb.rms.iter().zip(&flat.rms) {
            assert!((ra - rb).abs() <= 1e-11, "rms {ra} vs {rb}");
        }
    }

    /// Every option the hybrid march cannot honour is refused with a
    /// config error naming it, not accepted and dropped.
    #[test]
    fn hybrid_rejects_every_engine_only_option() {
        use crate::exec::{JitterSpec, KernelFaultSpec};
        use op2_store::StoreFaultPlan;
        let (data, consts, q0) = setup();
        let part = Partition::strips(200, 2);
        let base = DistOptions::default;
        let cases = [
            (
                "kernel_fault",
                DistOptions {
                    kernel_fault: Some(KernelFaultSpec { rank: 0, at_iter: 1, failures: 1 }),
                    ..base()
                },
            ),
            ("checkpoint_every", DistOptions { checkpoint_every: 2, ..base() }),
            ("store_dir", DistOptions { store_dir: Some("unused".into()), ..base() }),
            (
                "store_faults",
                DistOptions { store_faults: Some(StoreFaultPlan::disabled()), ..base() },
            ),
            ("halt_after", DistOptions { halt_after: Some(2), ..base() }),
            ("die_at", DistOptions { die_at: Some(2), ..base() }),
            ("renumber", DistOptions { renumber: true, ..base() }),
            ("jitter", DistOptions { jitter: Some(JitterSpec { seed: 1, max_us: 0 }), ..base() }),
            ("trajectory_digests", DistOptions { trajectory_digests: true, ..base() }),
        ];
        for (field, opts) in cases {
            let run =
                run_hybrid_opts(&data, &consts, &q0, &part, 2, BackendKind::ForkJoin, 4, 2, &opts);
            match run {
                Err(DistError::Config(msg)) => assert!(msg.contains(field), "{field}: {msg}"),
                other => panic!("{field}: expected DistError::Config, got {other:?}"),
            }
        }
    }

    /// The hybrid march computes no trajectory digest (asking for one is
    /// refused above): its report carries `None`, not zeros that would read
    /// as digests.
    #[test]
    fn hybrid_reports_no_trajectory_digests() {
        let (data, consts, q0) = setup();
        let part = Partition::strips(200, 2);
        let opts = DistOptions::default();
        let rep = run_hybrid_opts(&data, &consts, &q0, &part, 2, BackendKind::ForkJoin, 2, 2, &opts)
            .unwrap();
        assert_eq!((rep.adt_digest, rep.res_digest), (None, None));
    }

    /// Kill plans have no recovery path here: rejected up front with a typed
    /// error, not a panic.
    #[test]
    fn hybrid_rejects_kill_plans_with_a_config_error() {
        let (data, consts, q0) = setup();
        let part = Partition::strips(200, 2);
        let opts = DistOptions {
            plan: Some(FaultPlan::none().with_kill(1, 2)),
            ..DistOptions::default()
        };
        match run_hybrid_opts(&data, &consts, &q0, &part, 2, BackendKind::ForkJoin, 4, 2, &opts) {
            Err(DistError::Config(msg)) => assert!(msg.contains("kill"), "{msg}"),
            other => panic!("expected DistError::Config, got {other:?}"),
        }
    }

    /// A hybrid-path `recv` with no matching send must fail with a deadline
    /// error, not hang (the flat-fabric twin lives in `fabric::tests`).
    #[test]
    fn hybrid_exchange_times_out_without_matching_send() {
        let (data, _, q0) = setup();
        let part = Partition::strips(200, 2);
        let cfg = CommConfig {
            recv_deadline: Duration::from_millis(120),
            ..CommConfig::default()
        };
        let run = Fabric::builder(2)
            .config(cfg)
            .launch(|comm| {
                if comm.rank() == 0 {
                    let local = build_local(&data, &part, 0);
                    // The peer never participates in the exchange, so the
                    // import-side recv must hit its deadline.
                    forward_send(&comm, &local.exports, TAG_HYB_FORWARD, 4, &local_rows(&q0, 4, &local))?;
                    recv_halos(&comm, &local.imports, TAG_HYB_FORWARD).map(|_| ())
                } else {
                    std::thread::sleep(Duration::from_millis(200));
                    Ok(())
                }
            })
            .unwrap();
        match &run.results[0] {
            Err(CommError::Timeout { rank: 0, from: 1, .. }) => {}
            other => panic!("expected Timeout, got {other:?}"),
        }
    }
}
