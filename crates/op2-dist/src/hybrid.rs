//! Hybrid execution: message passing *between* ranks, an OP2-HPX backend
//! *within* each rank — the configuration the paper positions HPX for
//! (replacing OpenMP inside each MPI process).
//!
//! Each rank wraps its local mesh slice (owned cells + halo) in real
//! [`op2_core`] sets/maps/dats, builds the five Airfoil loops against them,
//! and executes each loop with any [`op2_hpx`] backend (fork-join, async,
//! dataflow, …) on the rank's own thread pool. Between loops, the forward
//! and reverse halo exchanges run on the dats' safe accessors, through the
//! march engine's exchange helpers (same packing, same ascending-peer
//! receive order; tags 300/400).
//!
//! Loops that must only touch *owned* cells (`save_soln`, `update`) iterate
//! the full local set but early-return for halo ids — redundant-but-idempotent
//! guards rather than sub-set iteration, mirroring how OP2 masks its
//! exec-halo.
//!
//! With [`DistOptions::overlap`] the halo exchange is futurized like the
//! flat march's: `adt_calc` splits into an owned-cell loop and a halo-cell
//! loop, the owned loop is *issued* (not waited) while the rank thread runs
//! the engine's poll loop and installs each peer's block the moment it
//! lands — arrivals write halo `q` slots, the in-flight loop reads only
//! owned `q`, so the two proceed concurrently. The report-point RMS
//! reduction is pipelined through [`Comm::iallreduce_sum`], harvested at the
//! next report point or the end of the march. Every per-cell value is
//! computed once from the same inputs in both schedules, so overlap is
//! bit-identical to bulk for a fixed backend.
//!
//! Fault handling: all fabric errors surface as [`DistError`] values, and
//! [`run_hybrid_opts`] accepts the same [`DistOptions`] as the flat march
//! for fault injection and deadline/retry tuning. Kill directives (and
//! therefore checkpointed recovery) are **not** supported here — the
//! per-rank OP2 runtime state cannot be re-partitioned mid-run; such a plan
//! is rejected with [`DistError::Config`]. Use
//! [`crate::exec::run_distributed_opts`] for the recovery path.

use std::sync::Arc;

use op2_airfoil::kernels;
use op2_airfoil::mesh::MeshData;
use op2_airfoil::FlowConstants;
use op2_core::{arg_direct, arg_indirect, Access, Dat, Map, ParLoop, Set};
use op2_hpx::{make_executor, BackendKind, Op2Runtime};

use crate::exec::{DistError, DistOptions, DistReport};
use crate::fabric::{Comm, CommError};
use crate::march::{
    forward_send, gather, install_halo, launch, poll_halos, recv_halos, reverse_receive,
    scatter_owned, validate, HaloSink, Report, Reports,
};
use crate::partition::{build_local, LocalMesh, Partition};

/// March `niter` iterations over `part`, each rank executing its loops with
/// `backend` on `threads_per_rank` workers, with fault injection and
/// deadline/retry tuning per [`DistOptions`].
///
/// # Errors
/// See [`DistError`]; a clean network never fails. A plan with a kill
/// directive is rejected with [`DistError::Config`] (no recovery path here —
/// see the module docs).
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
    let run = launch(part.nranks, opts, |comm| {
        rank_main(
            comm,
            data,
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
        adt_digest: 0,
        res_digest: 0,
        resumed_from: None,
        ckpt: Default::default(),
    })
}

/// The per-rank OP2 declarations over the local mesh slice.
struct RankApp {
    local: LocalMesh,
    q: Dat<f64>,
    res: Dat<f64>,
    /// Keep-alive handles: the loop kernels capture raw `DatView`s into
    /// these dats' storage, so the dats must live as long as the loops.
    _qold: Dat<f64>,
    _adt: Dat<f64>,
    save_soln: ParLoop,
    adt_calc: ParLoop,
    /// Owned-only / halo-only halves of `adt_calc` for the overlapped
    /// schedule (bitwise equivalent to the monolithic loop — each cell's
    /// `adt` is a pure function of coordinates and its own `q`).
    adt_calc_owned: ParLoop,
    adt_calc_halo: ParLoop,
    res_calc: ParLoop,
    bres_calc: ParLoop,
    update: ParLoop,
}

fn build_rank_app(
    data: &MeshData,
    consts: &FlowConstants,
    q0: &[f64],
    part: &Partition,
    rank: usize,
) -> RankApp {
    let local = build_local(data, part, rank);
    let nlocal = local.ncells_local();
    let nowned = local.nowned;

    let cells = Set::new(format!("cells@{rank}"), nlocal);
    let edges = Set::new(format!("edges@{rank}"), local.edge_cells.len());
    let bedges = Set::new(format!("bedges@{rank}"), local.bedges.len());
    let nodes = Set::new("nodes(replicated)", data.coords.len() / 2);

    let pecell = Map::new(
        "pecell",
        &edges,
        &cells,
        2,
        local
            .edge_cells
            .iter()
            .flat_map(|&(a, b)| [a, b])
            .collect(),
    );
    let pbecell = Map::new(
        "pbecell",
        &bedges,
        &cells,
        1,
        local.bedges.iter().map(|&(_, _, c, _)| c).collect(),
    );
    let pcell = Map::new("pcell", &cells, &nodes, 4, local.cell_nodes.clone());

    let mut q_init = vec![0.0f64; 4 * nlocal];
    for (l, &g) in local.cell_l2g.iter().enumerate() {
        q_init[4 * l..4 * l + 4].copy_from_slice(&q0[4 * g as usize..4 * g as usize + 4]);
    }
    let q = Dat::new("q", &cells, 4, q_init);
    let qold = Dat::filled("qold", &cells, 4, 0.0);
    let adt = Dat::filled("adt", &cells, 1, 0.0);
    let res = Dat::filled("res", &cells, 4, 0.0);

    let coords = Arc::new(data.coords.clone());
    let c = *consts;

    // save_soln over owned cells (halo guarded out).
    let (qv, qoldv, adtv, resv) = (q.view(), qold.view(), adt.view(), res.view());
    let save_soln = ParLoop::build("save_soln", &cells)
        .arg(arg_direct(&q, Access::Read))
        .arg(arg_direct(&qold, Access::Write))
        .kernel(move |e, _| unsafe {
            if e < nowned {
                kernels::save_soln(qv.slice(e), qoldv.slice_mut(e));
            }
        });

    // adt over ALL local cells (redundant halo execution). The owned/halo
    // halves exist for the overlapped schedule; `[lo, hi)` guards mirror the
    // nowned guard on save_soln/update rather than sub-set iteration.
    // Note: node coordinates are replicated read-only data outside the dat
    // system here, so the only declared accesses are the per-cell ones.
    let make_adt = |name: &str, lo: usize, hi: usize| {
        let pc = pcell.clone();
        let xs = Arc::clone(&coords);
        let (qv, adtv) = (q.view(), adt.view());
        ParLoop::build(name, &cells)
            .arg(arg_direct(&q, Access::Read))
            .arg(arg_direct(&adt, Access::Write))
            .kernel(move |e, _| unsafe {
                if e < lo || e >= hi {
                    return;
                }
                let n = [pc.at(e, 0), pc.at(e, 1), pc.at(e, 2), pc.at(e, 3)];
                let x = |k: usize| &xs[2 * n[k]..2 * n[k] + 2];
                kernels::adt_calc(x(0), x(1), x(2), x(3), qv.slice(e), adtv.slice_mut(e), &c);
            })
    };
    let adt_calc = make_adt("adt_calc", 0, usize::MAX);
    let adt_calc_owned = make_adt("adt_calc_owned", 0, nowned);
    let adt_calc_halo = make_adt("adt_calc_halo", nowned, usize::MAX);

    // res over local edges.
    let pe = pecell.clone();
    let xs = Arc::clone(&coords);
    let edge_nodes = Arc::new(local.edge_nodes.clone());
    let res_calc = ParLoop::build("res_calc", &edges)
        .arg(arg_indirect(&q, 0, &pecell, Access::Read))
        .arg(arg_indirect(&q, 1, &pecell, Access::Read))
        .arg(arg_indirect(&adt, 0, &pecell, Access::Read))
        .arg(arg_indirect(&adt, 1, &pecell, Access::Read))
        .arg(arg_indirect(&res, 0, &pecell, Access::Inc))
        .arg(arg_indirect(&res, 1, &pecell, Access::Inc))
        .kernel(move |e, _| unsafe {
            let (c1, c2) = (pe.at(e, 0), pe.at(e, 1));
            let (n1, n2) = edge_nodes[e];
            kernels::res_calc(
                &xs[2 * n1 as usize..2 * n1 as usize + 2],
                &xs[2 * n2 as usize..2 * n2 as usize + 2],
                qv.slice(c1),
                qv.slice(c2),
                adtv.get(c1, 0),
                adtv.get(c2, 0),
                resv.slice_mut(c1),
                resv.slice_mut(c2),
                &c,
            );
        });

    // bres over local boundary edges.
    let pb = pbecell.clone();
    let xs = Arc::clone(&coords);
    let bmeta = Arc::new(
        local
            .bedges
            .iter()
            .map(|&(n1, n2, _, bound)| (n1, n2, bound))
            .collect::<Vec<_>>(),
    );
    let bres_calc = ParLoop::build("bres_calc", &bedges)
        .arg(arg_indirect(&q, 0, &pbecell, Access::Read))
        .arg(arg_indirect(&adt, 0, &pbecell, Access::Read))
        .arg(arg_indirect(&res, 0, &pbecell, Access::Inc))
        .kernel(move |e, _| unsafe {
            let c1 = pb.at(e, 0);
            let (n1, n2, bound) = bmeta[e];
            kernels::bres_calc(
                &xs[2 * n1 as usize..2 * n1 as usize + 2],
                &xs[2 * n2 as usize..2 * n2 as usize + 2],
                qv.slice(c1),
                adtv.get(c1, 0),
                resv.slice_mut(c1),
                bound,
                &c,
            );
        });

    // update over owned cells (halo guarded out), RMS reduction.
    let update = ParLoop::build("update", &cells)
        .arg(arg_direct(&qold, Access::Read))
        .arg(arg_direct(&q, Access::Write))
        .arg(arg_direct(&res, Access::ReadWrite))
        .arg(arg_direct(&adt, Access::Read))
        .gbl_inc(1)
        .kernel(move |e, gbl| unsafe {
            if e < nowned {
                kernels::update(
                    qoldv.slice(e),
                    qv.slice_mut(e),
                    resv.slice_mut(e),
                    adtv.get(e, 0),
                    &mut gbl[0],
                );
            }
        });

    RankApp {
        local,
        q,
        res,
        _qold: qold,
        _adt: adt,
        save_soln,
        adt_calc,
        adt_calc_owned,
        adt_calc_halo,
        res_calc,
        bres_calc,
        update,
    }
}

#[allow(clippy::too_many_arguments)]
fn rank_main(
    comm: Comm,
    data: &MeshData,
    consts: &FlowConstants,
    q0: &[f64],
    part: &Partition,
    threads: usize,
    backend: BackendKind,
    niter: usize,
    report_every: usize,
    opts: &DistOptions,
) -> Result<(Vec<f64>, Vec<Report>), CommError> {
    let app = build_rank_app(data, consts, q0, part, comm.rank());
    let rt = Arc::new(Op2Runtime::new(threads, 64));
    let exec = make_executor(backend, rt);
    let exports = &app.local.exports;

    let mut reports = Reports::new(data.cell_nodes.len() / 4);
    for iter in 1..=niter {
        comm.beat();
        // Exchanges touch the dats directly, so every issued loop must have
        // completed first (wait per loop; the halo exchange is the natural
        // synchronization point of the distributed configuration). The one
        // deliberate exception is the overlapped owned-adt loop below, whose
        // reads are disjoint from the halo slots the poll installs into.
        exec.execute(&app.save_soln).wait();
        let mut rms_local = 0.0;
        for stage in 0..2 {
            forward_send(&comm, exports, TAG_HYB_FORWARD, 4, &app.q.data())?;
            let mut install = InstallHalos(&app);
            if opts.overlap {
                // Runs on the rank thread while the owned-adt loop executes
                // on the pool: installs write only halo `q` slots, the loop
                // reads only owned `q`, so the overlap is race-free.
                let owned = exec.execute(&app.adt_calc_owned);
                poll_halos(&comm, &app.local.imports, TAG_HYB_FORWARD, iter, stage, 0, &mut install)?;
                owned.wait();
                exec.execute(&app.adt_calc_halo).wait();
            } else {
                let payloads = recv_halos(&comm, &app.local.imports, TAG_HYB_FORWARD)?;
                for (gi, payload) in payloads.into_iter().enumerate() {
                    install.arrived(gi, payload)?;
                }
                exec.execute(&app.adt_calc).wait();
            }
            exec.execute(&app.res_calc).wait();
            exec.execute(&app.bres_calc).wait();
            reverse_send(&comm, &app.local, &app.res)?;
            reverse_receive(&comm, exports, TAG_HYB_REVERSE, 4, &mut app.res.data_mut())?;
            let gbl = exec.execute(&app.update).get();
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

    let q = app.q.to_vec();
    Ok((q[..4 * app.local.nowned].to_vec(), reports.done))
}

const TAG_HYB_FORWARD: u64 = 300;
const TAG_HYB_REVERSE: u64 = 400;

/// Installs each peer's forward payload into the halo `q` slots — the
/// hybrid march's whole reaction to a halo arrival (its loops run whole).
struct InstallHalos<'a>(&'a RankApp);

impl HaloSink for InstallHalos<'_> {
    fn arrived(&mut self, gi: usize, payload: Vec<f64>) -> Result<(), CommError> {
        install_halo(&mut self.0.q.data_mut(), 4, &self.0.local.imports[gi].1, &payload);
        Ok(())
    }
}

/// Send (and zero) the halo-side residuals back to their owners.
fn reverse_send(comm: &Comm, local: &LocalMesh, res: &Dat<f64>) -> Result<(), CommError> {
    let mut rd = res.data_mut();
    for (peer, halo_locals) in &local.imports {
        let mut payload = Vec::with_capacity(halo_locals.len() * 4);
        for &l in halo_locals {
            payload.extend_from_slice(&rd[4 * l as usize..4 * l as usize + 4]);
            rd[4 * l as usize..4 * l as usize + 4].fill(0.0);
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
        let (data, consts, q0) = setup();
        let part = Partition::strips(200, 2);
        let cfg = CommConfig {
            recv_deadline: Duration::from_millis(120),
            ..CommConfig::default()
        };
        let run = Fabric::builder(2)
            .config(cfg)
            .launch(|comm| {
                if comm.rank() == 0 {
                    let app = build_rank_app(&data, &consts, &q0, &part, 0);
                    // The peer never participates in the exchange, so the
                    // import-side recv must hit its deadline.
                    forward_send(&comm, &app.local.exports, TAG_HYB_FORWARD, 4, &app.q.data())?;
                    recv_halos(&comm, &app.local.imports, TAG_HYB_FORWARD).map(|_| ())
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
