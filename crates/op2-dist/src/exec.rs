//! The distributed Airfoil march: the public option/report/error types every
//! distributed march shares, and Airfoil's kernel glue for the march engine.
//!
//! The protocol — halo exchange, overlap, reductions, checkpoints, recovery —
//! is described once, in the engine's module docs (`march.rs`). Airfoil
//! supplies only its hooks:
//!
//! * 4 state components (`q`), one engine-owned auxiliary component (`adt`),
//!   two exchange stages per iteration, tags 100/200, no derived data;
//! * `begin_iter` — `save_soln` over owned cells, no max-reduction;
//! * `prologue` — `adt_calc` over owned cells (owned `adt` must exist before
//!   any halo group can fire: group edges read both endpoints' `adt`);
//! * `interior` / `boundary` — `res_calc` / `bres_calc` into `res`;
//! * `group` — redundant `adt_calc` over the freshly installed halo cells,
//!   then `res_calc` over the group's edges into its scratch;
//! * `update` — `update` over owned cells, returning the RMS partial.

use std::path::PathBuf;

use op2_airfoil::kernels;
use op2_airfoil::mesh::MeshData;
use op2_airfoil::FlowConstants;
use op2_store::StoreFaultPlan;

use crate::checkpoint::{CheckpointError, CkptStats};
use crate::fabric::{CommConfig, CommError, FabricError};
use crate::fault::{FaultPlan, FaultReport};
use crate::march::{march, DistApp, MarchOut};
use crate::partition::{LocalMesh, Partition};

/// One fabric re-formation performed during a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovery {
    /// Ranks lost in this failure.
    pub failed: Vec<usize>,
    /// Surviving ranks that re-formed the fabric (ascending).
    pub survivors: Vec<usize>,
    /// Iteration of the checkpoint the survivors restored (0 = initial
    /// state); the march resumed at `restored_iter + 1`.
    pub restored_iter: usize,
}

/// Outcome of a distributed run.
#[derive(Debug, Clone)]
pub struct DistReport {
    /// `(iteration, sqrt(rms/ncells))` at each report point.
    pub rms: Vec<(usize, f64)>,
    /// Final global state `q`, assembled in global cell order.
    pub final_q: Vec<f64>,
    /// End-of-run fault/robustness counters (all zero for a clean run).
    pub faults: FaultReport,
    /// Checkpoint recoveries performed, in order.
    pub recoveries: Vec<Recovery>,
    /// Kernel-section rollbacks retried *locally* (summed over survivors) —
    /// failures masked without any fabric-level recovery.
    pub local_retries: usize,
    /// Order-free digest over every owned-cell `adt` value of every stage
    /// since the last recovery (whole run when clean), combined across
    /// survivors. Bulk and overlapped marches of the same run produce the
    /// same digest iff every intermediate `adt` is bit-identical.
    ///
    /// A test oracle, computed only when [`DistOptions::trajectory_digests`]
    /// asks for it (`None` otherwise, and always from the hybrid march):
    /// it hashes every owned value of every stage, which costs a 512×256
    /// march about a fifth of its time.
    pub adt_digest: Option<u64>,
    /// As [`DistReport::adt_digest`], over post-exchange owned-cell `res`.
    pub res_digest: Option<u64>,
    /// Iteration the run resumed from (`Some(k)` only for
    /// [`resume_distributed_opts`]: state restored from the durable store's
    /// newest verified consistent boundary `k`, marched from `k + 1`).
    pub resumed_from: Option<usize>,
    /// Durable checkpoint-log counters (all zero without a
    /// [`DistOptions::store_dir`]).
    pub ckpt: CkptStats,
}

/// Why a distributed run failed.
#[derive(Debug)]
pub enum DistError {
    /// One or more ranks panicked (every failed rank listed).
    Fabric(FabricError),
    /// A rank's march hit an unrecoverable communication error (retry
    /// budget exhausted, deadline expiry, failed recovery, no consistent
    /// checkpoint, …).
    Rank {
        /// The failing rank.
        rank: usize,
        /// The error it stopped with.
        error: CommError,
    },
    /// The durable checkpoint store could not be opened or committed to
    /// (dimension mismatch, unrecoverable IO failure, …).
    Store(CheckpointError),
    /// The simulated whole-process death of [`DistOptions::die_at`] fired:
    /// every rank stopped dead at this iteration without committing it.
    /// In-memory results are lost by construction — resume from the durable
    /// store with [`resume_distributed_opts`].
    Died {
        /// The iteration at which the process died.
        iter: usize,
    },
    /// The caller's input was rejected before any rank started: an initial
    /// state of the wrong length, a resume without a
    /// [`DistOptions::store_dir`], a kill plan handed to the hybrid march.
    Config(String),
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Fabric(e) => write!(f, "{e}"),
            DistError::Rank { rank, error } => write!(f, "rank {rank} failed: {error}"),
            DistError::Store(e) => write!(f, "durable checkpoint store failed: {e}"),
            DistError::Died { iter } => {
                write!(f, "process died at iteration {iter} (simulated whole-process crash)")
            }
            DistError::Config(msg) => write!(f, "invalid distributed run: {msg}"),
        }
    }
}

impl std::error::Error for DistError {}

/// Deterministic kernel-fault injection: on rank `rank`, during iteration
/// `at_iter`, the stage's compute prologue panics on each of its first
/// `failures` attempts (local retries count as attempts), then succeeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelFaultSpec {
    /// Rank whose kernels fail.
    pub rank: usize,
    /// Iteration (1-based) at which the failures fire.
    pub at_iter: usize,
    /// Consecutive failing attempts before the kernel recovers. When this
    /// exceeds the local retry budget ([`DistOptions::kernel_retries`]), the
    /// rank escalates to fabric-level checkpoint recovery.
    pub failures: usize,
}

/// Deterministic per-chunk compute jitter: before each interior chunk (and
/// the boundary-edge pseudo-chunk) the rank sleeps a pseudo-random duration
/// in `0..=max_us` microseconds derived from
/// `(seed, rank, iter, stage, chunk)`. Applied *identically* by the bulk and
/// overlapped marches, it skews compute finish times without touching
/// arithmetic — the bulk march pays it before its late reverse sends (peers
/// blocked in reverse receives), the overlapped march hides it behind
/// already-fired groups. Used by the seed sweeps to scramble arrival order
/// and by the trace tests to make the wait gap robust.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JitterSpec {
    /// Seed of the per-chunk hash.
    pub seed: u64,
    /// Upper bound of each sleep, microseconds (0 = no sleeping).
    pub max_us: u32,
}

/// Robustness knobs of a distributed run.
#[derive(Debug, Clone)]
pub struct DistOptions {
    /// Fabric deadlines and retry budgets.
    pub config: CommConfig,
    /// Fault injection plan (`None` = clean network).
    pub plan: Option<FaultPlan>,
    /// Commit an owned-cell checkpoint every this many iterations
    /// (0 = only the initial state, and only when the plan contains a
    /// kill or kernel-fault directive).
    pub checkpoint_every: usize,
    /// Kernel-fault injection (`None` = healthy kernels).
    pub kernel_fault: Option<KernelFaultSpec>,
    /// Local recovery budget: a panicked compute section is rolled back
    /// (its written arrays restored bit-identically) and re-run up to this
    /// many extra times *before* the rank gives up and escalates to
    /// fabric-level recovery (`kill_self` → checkpoint restore). The first,
    /// cheap rung of the recovery ladder — see `op2_hpx::Supervisor` for the
    /// single-node analogue.
    pub kernel_retries: usize,
    /// March with communication/computation overlap (event-loop halo groups
    /// + pipelined RMS reduction) instead of the bulk-synchronous schedule.
    /// Results are bit-identical either way; see the module docs.
    pub overlap: bool,
    /// Deterministic compute jitter (`None` = no artificial skew).
    pub jitter: Option<JitterSpec>,
    /// Back checkpoints with a crash-consistent on-disk log at this
    /// directory (`None` = in-memory only, rank-death recovery but no
    /// whole-process restart). The bottom rung of the recovery ladder.
    pub store_dir: Option<PathBuf>,
    /// Deterministic storage-fault plan applied to durable appends
    /// (`STORE_FAULT_SEED` sweeps; `None` = clean disk).
    pub store_faults: Option<StoreFaultPlan>,
    /// Stop gracefully after completing this iteration: drain the reduction
    /// pipeline, commit a checkpoint boundary at it, and return. Used to
    /// build reference legs for crash-restart equivalence tests.
    pub halt_after: Option<usize>,
    /// Simulate whole-process death at this iteration: every rank stops
    /// dead *before* marching it (nothing for it is committed), and the run
    /// returns [`DistError::Died`]. Only what the durable store already
    /// holds survives — the in-process stand-in for `kill -9`.
    pub die_at: Option<usize>,
    /// Run the RCM renumbering preprocessing pass before partitioned setup:
    /// the mesh, the partition's ownership, and the initial state move into
    /// the renumbered id space (ownership follows the cell, so the
    /// communication structure is preserved), and the final state is mapped
    /// back to the *original* numbering before it is returned. Checkpoints
    /// live in the renumbered space; resume with the same flag.
    pub renumber: bool,
    /// Fill [`DistReport::adt_digest`]/[`DistReport::res_digest`] (and
    /// `SweDistReport::res_digest`): hash every owned-cell `aux`/`res` value
    /// after each stage's exchange. The digests only read the march's
    /// arrays, so results are bit-identical either way; off (the default),
    /// the march skips the hashing and reports `None`.
    pub trajectory_digests: bool,
}

impl Default for DistOptions {
    fn default() -> Self {
        DistOptions {
            config: CommConfig::default(),
            plan: None,
            checkpoint_every: 0,
            kernel_fault: None,
            kernel_retries: 1,
            overlap: false,
            jitter: None,
            store_dir: None,
            store_faults: None,
            halt_after: None,
            die_at: None,
            renumber: false,
            trajectory_digests: false,
        }
    }
}

/// March `niter` iterations of Airfoil over `part`, with fault injection,
/// deadline/retry tuning, checkpointed recovery and comm/compute overlap per
/// [`DistOptions`].
///
/// `q0` is the global initial state (`4 × ncells`); reports are produced
/// every `report_every` iterations (plus the final one).
///
/// # Errors
/// See [`DistError`]; a clean network and panic-free kernels never fail.
#[allow(clippy::too_many_arguments)]
pub fn run_distributed_opts(
    data: &MeshData,
    consts: &FlowConstants,
    q0: &[f64],
    part: &Partition,
    niter: usize,
    report_every: usize,
    opts: &DistOptions,
) -> Result<DistReport, DistError> {
    march(&Airfoil(consts), data, q0, part, niter, report_every, opts, false).map(DistReport::from)
}

/// Restart a march whose process died: reopen the durable store at
/// [`DistOptions::store_dir`], replay its verified log, restore the newest
/// consistent checkpoint boundary `k`, and march iterations `k+1..=niter`.
/// If the log holds no consistent boundary (total loss — every slice was in
/// the torn tail), the march cold-starts from `q0` — recovery is *total*:
/// it always lands on the newest verified state, bottoming out at the
/// initial condition.
///
/// Because the march is deterministic, the resumed run's final state is
/// bit-identical to an uninterrupted run of the same `niter` iterations.
///
/// # Errors
/// See [`DistError`] ([`DistError::Config`] without a `store_dir`).
/// [`DistReport::resumed_from`] carries the restored boundary.
#[allow(clippy::too_many_arguments)]
pub fn resume_distributed_opts(
    data: &MeshData,
    consts: &FlowConstants,
    q0: &[f64],
    part: &Partition,
    niter: usize,
    report_every: usize,
    opts: &DistOptions,
) -> Result<DistReport, DistError> {
    march(&Airfoil(consts), data, q0, part, niter, report_every, opts, true).map(DistReport::from)
}

impl From<MarchOut> for DistReport {
    fn from(out: MarchOut) -> DistReport {
        DistReport {
            rms: out.history.into_iter().map(|(iter, _, rms)| (iter, rms)).collect(),
            final_q: out.final_state,
            faults: out.faults,
            recoveries: out.recoveries,
            local_retries: out.local_retries,
            adt_digest: out.digests.map(|d| d.aux),
            res_digest: out.digests.map(|d| d.res),
            resumed_from: out.resumed_from,
            ckpt: out.ckpt,
        }
    }
}

/// Airfoil on the march engine (hooks listed in the module docs).
struct Airfoil<'a>(&'a FlowConstants);

impl Airfoil<'_> {
    /// `adt_calc` for local cell `c`.
    #[inline]
    fn adt_cell(&self, coords: &[f64], local: &LocalMesh, c: usize, q: &[f64], adt: &mut [f64]) {
        let n = &local.cell_nodes[4 * c..4 * c + 4];
        kernels::adt_calc(
            xs(coords, n[0]),
            xs(coords, n[1]),
            xs(coords, n[2]),
            xs(coords, n[3]),
            &q[4 * c..4 * c + 4],
            &mut adt[c..c + 1],
            self.0,
        );
    }

    /// `res_calc` for local edge `e`, accumulating its two cells' residuals
    /// into cells `s1`/`s2` of `into` (`res` itself, or a group's scratch).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn res_edge(
        &self,
        coords: &[f64],
        local: &LocalMesh,
        e: u32,
        q: &[f64],
        adt: &[f64],
        into: &mut [f64],
        (s1, s2): (u32, u32),
    ) {
        let (c1, c2) = local.edge_cells[e as usize];
        let (c1, c2) = (c1 as usize, c2 as usize);
        let (n1, n2) = local.edge_nodes[e as usize];
        let (r1, r2) = two_cells_mut::<4>(into, s1 as usize, s2 as usize);
        kernels::res_calc(
            xs(coords, n1),
            xs(coords, n2),
            &q[4 * c1..4 * c1 + 4],
            &q[4 * c2..4 * c2 + 4],
            adt[c1],
            adt[c2],
            r1,
            r2,
            self.0,
        );
    }
}

impl DistApp for Airfoil<'_> {
    const COMP: usize = 4;
    const AUX: usize = 1;
    const STAGES: usize = 2;
    const TAG_FORWARD: u64 = 100;
    const TAG_REVERSE: u64 = 200;
    type Derived = ();

    fn derive(&self, _data: &MeshData, _local: &LocalMesh) {}

    fn begin_iter(&self, local: &LocalMesh, q: &[f64], qold: &mut [f64]) -> Option<f64> {
        for c in 0..local.nowned {
            kernels::save_soln(&q[4 * c..4 * c + 4], &mut qold[4 * c..4 * c + 4]);
        }
        None
    }

    fn prologue(&self, coords: &[f64], local: &LocalMesh, q: &[f64], adt: &mut [f64]) {
        for c in 0..local.nowned {
            self.adt_cell(coords, local, c, q, adt);
        }
    }

    fn interior(
        &self,
        coords: &[f64],
        local: &LocalMesh,
        edges: &[u32],
        q: &[f64],
        adt: &[f64],
        res: &mut [f64],
    ) {
        for &e in edges {
            self.res_edge(coords, local, e, q, adt, res, local.edge_cells[e as usize]);
        }
    }

    fn boundary(&self, coords: &[f64], local: &LocalMesh, q: &[f64], adt: &[f64], res: &mut [f64]) {
        for &(n1, n2, c1, bound) in &local.bedges {
            let c1 = c1 as usize;
            kernels::bres_calc(
                xs(coords, n1),
                xs(coords, n2),
                &q[4 * c1..4 * c1 + 4],
                adt[c1],
                &mut res[4 * c1..4 * c1 + 4],
                bound,
                self.0,
            );
        }
    }

    fn group(
        &self,
        coords: &[f64],
        local: &LocalMesh,
        halos: &[u32],
        edges: &[u32],
        slots: &[(u32, u32)],
        q: &[f64],
        adt: &mut [f64],
        scratch: &mut [f64],
    ) {
        for &l in halos {
            self.adt_cell(coords, local, l as usize, q, adt);
        }
        for (&e, &at) in edges.iter().zip(slots) {
            self.res_edge(coords, local, e, q, adt, scratch, at);
        }
    }

    fn update(
        &self,
        _derived: &(),
        local: &LocalMesh,
        qold: &[f64],
        q: &mut [f64],
        res: &mut [f64],
        adt: &[f64],
        _scale: f64,
    ) -> f64 {
        let mut rms = 0.0;
        for c in 0..local.nowned {
            kernels::update(
                &qold[4 * c..4 * c + 4],
                &mut q[4 * c..4 * c + 4],
                &mut res[4 * c..4 * c + 4],
                adt[c],
                &mut rms,
            );
        }
        rms
    }
}

/// Node coordinate pair.
#[inline]
pub(crate) fn xs(coords: &[f64], n: u32) -> &[f64] {
    &coords[2 * n as usize..2 * n as usize + 2]
}

/// Two disjoint `C`-wide mutable cell slices out of one cell-major array.
pub(crate) fn two_cells_mut<const C: usize>(
    v: &mut [f64],
    a: usize,
    b: usize,
) -> (&mut [f64], &mut [f64]) {
    assert_ne!(a, b, "edge endpoints must be distinct");
    if a < b {
        let (lo, hi) = v.split_at_mut(C * b);
        (&mut lo[C * a..C * a + C], &mut hi[..C])
    } else {
        let (lo, hi) = v.split_at_mut(C * a);
        (&mut hi[..C], &mut lo[C * b..C * b + C])
    }
}

/// Test shorthand: march over index strips with default options.
#[cfg(test)]
pub(crate) fn run_strips(
    data: &MeshData,
    consts: &FlowConstants,
    q0: &[f64],
    nranks: usize,
    niter: usize,
    report_every: usize,
) -> DistReport {
    let part = Partition::strips(data.cell_nodes.len() / 4, nranks);
    run_distributed_opts(data, consts, q0, &part, niter, report_every, &DistOptions::default())
        .expect("clean default march")
}

#[cfg(test)]
mod tests {
    use super::*;
    use op2_airfoil::{AirfoilLoops, MeshBuilder};
    use op2_core::serial::execute_natural;

    fn setup(pulse: bool) -> (MeshData, FlowConstants, Vec<f64>) {
        let consts = FlowConstants::default();
        let builder = MeshBuilder::channel(24, 12);
        let mesh = builder.build(&consts);
        if pulse {
            mesh.add_pulse(1.0, 0.5, 0.25, 0.2, &consts);
        }
        let q0 = mesh.p_q.to_vec();
        (builder.data(), consts, q0)
    }

    /// Single-node oracle in *natural* order (the order the 1-rank
    /// distributed execution uses).
    fn natural_oracle(data: &MeshData, consts: &FlowConstants, q0: &[f64], niter: usize) -> (Vec<f64>, Vec<f64>) {
        let mesh = op2_airfoil::Mesh::from_data(data.clone(), consts);
        mesh.p_q.data_mut().copy_from_slice(q0);
        let loops = AirfoilLoops::new(&mesh, consts);
        let ncells = mesh.ncells() as f64;
        let mut rms_hist = Vec::new();
        for _ in 0..niter {
            execute_natural(&loops.save_soln);
            let mut rms = 0.0;
            for _stage in 0..2 {
                execute_natural(&loops.adt_calc);
                execute_natural(&loops.res_calc);
                execute_natural(&loops.bres_calc);
                rms += execute_natural(&loops.update)[0];
            }
            rms_hist.push((rms / ncells).sqrt());
        }
        (mesh.p_q.to_vec(), rms_hist)
    }

    #[test]
    fn one_rank_matches_natural_serial_bitwise() {
        let (data, consts, q0) = setup(true);
        let niter = 5;
        let dist = run_strips(&data, &consts, &q0, 1, niter, 1);
        let (q_ref, rms_ref) = natural_oracle(&data, &consts, &q0, niter);
        assert_eq!(
            dist.final_q.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            q_ref.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        for ((_, got), want) in dist.rms.iter().zip(rms_ref) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn multi_rank_matches_serial_within_rounding() {
        let (data, consts, q0) = setup(true);
        let niter = 8;
        let (q_ref, rms_ref) = natural_oracle(&data, &consts, &q0, niter);
        for nranks in [2, 3, 5] {
            let dist = run_strips(&data, &consts, &q0, nranks, niter, 1);
            for (a, b) in dist.final_q.iter().zip(&q_ref) {
                assert!(
                    (a - b).abs() <= 1e-11 * b.abs().max(1.0),
                    "{nranks} ranks: {a} vs {b}"
                );
            }
            for ((_, got), want) in dist.rms.iter().zip(&rms_ref) {
                assert!((got - want).abs() <= 1e-11, "{nranks} ranks rms");
            }
        }
    }

    #[test]
    fn distributed_runs_are_deterministic() {
        let (data, consts, q0) = setup(true);
        let part = Partition::strips(288, 4);
        let opts = DistOptions { trajectory_digests: true, ..DistOptions::default() };
        let run = || run_distributed_opts(&data, &consts, &q0, &part, 4, 2, &opts).unwrap();
        let (a, b) = (run(), run());
        assert!(
            a.adt_digest.is_some() && a.res_digest.is_some(),
            "digests were asked for"
        );
        assert_eq!(
            a.final_q.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.final_q.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(a.rms, b.rms);
        assert_eq!(a.adt_digest, b.adt_digest);
        assert_eq!(a.res_digest, b.res_digest);
    }

    #[test]
    fn overlapped_march_matches_bulk_bitwise() {
        let (data, consts, q0) = setup(true);
        let part = Partition::strips(288, 3);
        let digests = DistOptions { trajectory_digests: true, ..DistOptions::default() };
        let bulk = run_distributed_opts(&data, &consts, &q0, &part, 5, 1, &digests).unwrap();
        let opts = DistOptions {
            overlap: true,
            jitter: Some(JitterSpec { seed: 42, max_us: 80 }),
            ..digests
        };
        let over = run_distributed_opts(&data, &consts, &q0, &part, 5, 1, &opts).unwrap();
        assert!(
            bulk.adt_digest.is_some() && bulk.res_digest.is_some(),
            "digests were asked for"
        );
        assert_eq!(
            over.final_q.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            bulk.final_q.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(over.rms.len(), bulk.rms.len());
        for ((ia, a), (ib, b)) in over.rms.iter().zip(&bulk.rms) {
            assert_eq!(ia, ib);
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(over.adt_digest, bulk.adt_digest, "adt trajectory diverged");
        assert_eq!(over.res_digest, bulk.res_digest, "res trajectory diverged");
    }

    #[test]
    fn free_stream_preserved_distributed() {
        let (data, consts, q0) = setup(false);
        let dist = run_strips(&data, &consts, &q0, 3, 5, 1);
        for (_, rms) in dist.rms {
            assert!(rms < 1e-12, "free stream broken: {rms:e}");
        }
        for (v, want) in dist.final_q.chunks(4).flatten().zip(q0.iter().cycle()) {
            assert!((v - want).abs() < 1e-12);
        }
    }

    #[test]
    fn more_ranks_than_rows_still_works() {
        let (data, consts, q0) = setup(true);
        // 24x12 mesh = 288 cells across 16 ranks (some strips tiny).
        let dist = run_strips(&data, &consts, &q0, 16, 3, 3);
        assert!(dist.rms.iter().all(|(_, r)| r.is_finite()));
        assert_eq!(dist.final_q.len(), 288 * 4);
    }

    #[test]
    fn clean_run_reports_no_faults() {
        let (data, consts, q0) = setup(true);
        let dist = run_strips(&data, &consts, &q0, 3, 2, 2);
        assert_eq!(dist.faults.dropped, 0);
        assert_eq!(dist.faults.retries, 0);
        assert_eq!(dist.faults.rank_failures, 0);
        assert!(dist.recoveries.is_empty());
        assert!(dist.faults.sent > 0, "exchanges happened");
    }

    #[test]
    fn injected_drops_below_budget_leave_results_bit_identical() {
        let (data, consts, q0) = setup(true);
        let clean = run_strips(&data, &consts, &q0, 3, 4, 2);
        // Every message loses its first `k` transmissions, for every k the
        // default retry budget can absorb.
        for k in [1, 3, 7] {
            let opts = DistOptions {
                plan: Some(FaultPlan::drop_first(k)),
                ..DistOptions::default()
            };
            let part = Partition::strips(288, 3);
            let faulty =
                run_distributed_opts(&data, &consts, &q0, &part, 4, 2, &opts).unwrap();
            assert_eq!(
                faulty.final_q.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                clean.final_q.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "k = {k}"
            );
            assert_eq!(faulty.rms, clean.rms, "k = {k}");
            assert!(faulty.faults.dropped > 0 && faulty.faults.retries == faulty.faults.dropped);
        }
    }

    #[test]
    fn kill_mid_march_recovers_from_checkpoint() {
        let (data, consts, q0) = setup(true);
        let niter = 8;
        let opts = DistOptions {
            plan: Some(FaultPlan::none().with_kill(1, 5)),
            checkpoint_every: 2,
            ..DistOptions::default()
        };
        let part = Partition::strips(288, 4);
        let rep = run_distributed_opts(&data, &consts, &q0, &part, niter, niter, &opts)
            .expect("march must survive the kill");
        assert_eq!(rep.recoveries.len(), 1);
        let rec = &rep.recoveries[0];
        assert_eq!(rec.failed, vec![1]);
        assert_eq!(rec.survivors, vec![0, 2, 3]);
        assert_eq!(rec.restored_iter, 4, "newest checkpoint before the iter-5 kill");
        assert_eq!(rep.faults.rank_failures, 1);
        assert_eq!(rep.faults.recoveries, 1);
        assert!(rep.rms.iter().all(|(_, r)| r.is_finite()));
        assert_eq!(rep.final_q.len(), 288 * 4);
    }

    #[test]
    fn wrong_length_initial_state_is_a_config_error_not_a_panic() {
        let (data, consts, q0) = setup(false);
        let part = Partition::strips(288, 2);
        let short = &q0[..q0.len() - 1];
        for resume in [false, true] {
            let opts = DistOptions {
                store_dir: resume.then(|| std::env::temp_dir().join("op2-dist-never-opened")),
                ..DistOptions::default()
            };
            let run = if resume { resume_distributed_opts } else { run_distributed_opts };
            match run(&data, &consts, short, &part, 1, 1, &opts) {
                Err(DistError::Config(msg)) => assert!(msg.contains("1151 values"), "{msg}"),
                other => panic!("expected DistError::Config, got {other:?}"),
            }
        }
    }

    #[test]
    fn resume_without_store_dir_is_a_config_error_not_a_panic() {
        let (data, consts, q0) = setup(false);
        let part = Partition::strips(288, 2);
        match resume_distributed_opts(&data, &consts, &q0, &part, 1, 1, &DistOptions::default()) {
            Err(DistError::Config(msg)) => assert!(msg.contains("store_dir"), "{msg}"),
            other => panic!("expected DistError::Config, got {other:?}"),
        }
    }

    #[test]
    fn two_cells_mut_is_disjoint_and_ordered() {
        let mut v: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let (a, b) = two_cells_mut::<4>(&mut v, 3, 1);
        assert_eq!(a, &[12.0, 13.0, 14.0, 15.0]);
        assert_eq!(b, &[4.0, 5.0, 6.0, 7.0]);
        a[0] = -1.0;
        b[0] = -2.0;
        assert_eq!(v[12], -1.0);
        assert_eq!(v[4], -2.0);
    }
}

#[cfg(test)]
mod rcb_tests {
    use super::*;
    use crate::partition::{cell_centroids, total_halo_cells};
    use op2_airfoil::MeshBuilder;

    #[test]
    fn rcb_partition_runs_and_matches_serial() {
        let consts = FlowConstants::default();
        let builder = MeshBuilder::channel(24, 12);
        let mesh = builder.build(&consts);
        mesh.add_pulse(1.0, 0.5, 0.25, 0.2, &consts);
        let q0 = mesh.p_q.to_vec();
        let data = builder.data();

        let strips = run_strips(&data, &consts, &q0, 4, 6, 6);
        let part = Partition::rcb(&cell_centroids(&data), 4);
        let rcb = run_distributed_opts(&data, &consts, &q0, &part, 6, 6, &DistOptions::default()).unwrap();
        for (a, b) in rcb.final_q.iter().zip(&strips.final_q) {
            assert!((a - b).abs() <= 1e-11 * b.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn rcb_reduces_halo_on_elongated_domain() {
        // A long thin channel: index strips cut across the long axis many
        // times; RCB cuts along it instead.
        let data = MeshBuilder::channel(128, 8).data();
        let nranks = 8;
        let strips = Partition::strips(128 * 8, nranks);
        let rcb = Partition::rcb(&cell_centroids(&data), nranks);
        let h_strips = total_halo_cells(&data, &strips);
        let h_rcb = total_halo_cells(&data, &rcb);
        assert!(
            h_rcb * 2 < h_strips,
            "RCB halo {h_rcb} not well below strips {h_strips}"
        );
    }

    #[test]
    fn rcb_handles_non_power_of_two_ranks() {
        let data = MeshBuilder::channel(30, 10).data();
        for nranks in [3, 5, 7] {
            let part = Partition::rcb(&cell_centroids(&data), nranks);
            let total: usize = (0..nranks).map(|r| part.owned_cells(r).len()).sum();
            assert_eq!(total, 300);
            // Reasonable balance: no rank deviates more than 1 cell from fair.
            for r in 0..nranks {
                let n = part.owned_cells(r).len();
                assert!(n.abs_diff(300 / nranks) <= 1, "rank {r} owns {n}");
            }
        }
    }
}

#[cfg(test)]
mod omesh_tests {
    use super::*;
    use op2_airfoil::{AirfoilLoops, Mesh, OMeshBuilder};
    use op2_core::serial::execute_natural;

    /// The O-mesh wraps around the body: index strips make rank 0 and the
    /// last rank mesh-adjacent, so halos cross non-neighbouring ranks — a
    /// topology stress for the exchange machinery.
    #[test]
    fn omesh_distributed_matches_serial() {
        let consts = FlowConstants::default();
        let builder = OMeshBuilder::new(48, 10);
        let data = builder.data();
        let mesh = Mesh::from_data(data.clone(), &consts);
        let q0 = mesh.p_q.to_vec();
        let niter = 4;

        // Natural-order serial oracle.
        let loops = AirfoilLoops::new(&mesh, &consts);
        for _ in 0..niter {
            execute_natural(&loops.save_soln);
            for _stage in 0..2 {
                execute_natural(&loops.adt_calc);
                execute_natural(&loops.res_calc);
                execute_natural(&loops.bres_calc);
                execute_natural(&loops.update);
            }
        }
        let q_ref = mesh.p_q.to_vec();

        for nranks in [1, 3, 6] {
            let dist = run_strips(&data, &consts, &q0, nranks, niter, niter);
            for (i, (a, b)) in dist.final_q.iter().zip(&q_ref).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-10 * b.abs().max(1.0),
                    "{nranks} ranks, slot {i}: {a} vs {b}"
                );
            }
        }
    }

    /// Every rank of a wrapped O-mesh partition has symmetric halo exchange
    /// lists, including the wraparound pair.
    #[test]
    fn omesh_wraparound_halos_are_symmetric() {
        use crate::partition::build_local;
        let data = OMeshBuilder::new(36, 6).data();
        let ncells = data.cell_nodes.len() / 4;
        let part = Partition::strips(ncells, 4);
        let locals: Vec<_> = (0..4).map(|r| build_local(&data, &part, r)).collect();
        for l in &locals {
            for (peer, halo) in &l.imports {
                let peer_exports = &locals[*peer]
                    .exports
                    .iter()
                    .find(|(to, _)| *to == l.rank)
                    .expect("matching export list")
                    .1;
                assert_eq!(halo.len(), peer_exports.len(), "{} <- {peer}", l.rank);
            }
        }
        // Ring-major numbering keeps strip neighbours mesh-adjacent even
        // through the wraparound; what must hold: every rank participates in
        // at least one exchange and every edge is assigned exactly once.
        assert!(locals.iter().all(|l| !l.imports.is_empty()));
        let nedges = data.edge_cells.len() / 2;
        let assigned: usize = locals.iter().map(|l| l.edge_cells.len()).sum();
        assert_eq!(assigned, nedges);
    }
}
