//! The one distributed march engine — app-agnostic, bulk-synchronous or
//! comm/compute-overlapped, bit-identical either way.
//!
//! An application is a [`DistApp`]: pure kernel glue over index lists. The
//! engine owns everything else — the fabric, tags, halo-group scratch, the
//! checkpoint store, [`DistOptions`], jitter, trace spans and recovery —
//! and is monomorphized per app, so the inner loops are the app's own.
//!
//! ## One iteration
//!
//! `begin_iter` saves the owned state and may return a local maximum, which
//! the engine max-reduces (blocking in bulk mode; posted non-blocking under
//! overlap and completed right before the first `update`, so its latency
//! hides behind the flux compute — max is order-free, hence bitwise-exact
//! either way). Then, per stage (in *canonical* arithmetic order):
//!
//! 1. **forward sends** — owners push fresh state to every rank importing
//!    it, before touching any kernel;
//! 2. the stage **prologue** over owned cells (fault-injection point,
//!    locally retryable: it writes only the engine-owned `aux` array, which
//!    is snapshotted and restored bit-identically on a panic);
//! 3. `interior` edge chunks and the `boundary` pass accumulating straight
//!    into local residuals, plus one gated **halo group** per import peer:
//!    install the peer's payload into the halo slots, run the app's `group`
//!    hook over the group's edges into a per-group *scratch* buffer, and
//!    **reverse-send** the halo-side scratch back to the owner;
//! 4. **merge** — group scratch is added into `res` in ascending-group,
//!    first-touch order (canonical regardless of arrival order);
//! 5. **reverse receives** — halo residual contributions are added at the
//!    owners in ascending-rank order (deterministic);
//! 6. `update` over owned cells, returning the stage's RMS partial.
//!
//! At report points the RMS partials are sum-reduced. With one rank there
//! are no exchanges and no groups, so the execution order equals the
//! single-node *natural* order and results match
//! `op2_core::serial::execute_natural` bit-for-bit.
//!
//! ## Overlapped schedule ([`DistOptions::overlap`])
//!
//! The bulk schedule performs step 3 in a fixed order: blocking forward
//! receives, then all interior compute, then every halo group — reverse
//! sends go out *last*, so peers idle in their reverse receives. The
//! overlapped schedule runs the same step 3 as an event loop
//! ([`poll_halos`]): interior chunks execute while forward receives are
//! outstanding ([`Comm::try_recv`]), and each halo group fires the moment
//! its message lands — its reverse send leaves *early*. Because group
//! contributions route through scratch in **both** schedules and are merged
//! in canonical order, overlap changes *when* work happens but never *what*
//! is computed (see `tests/overlap_det.rs`, `tests/golden.rs`). A rank that
//! drains all compute while halos are still outstanding records a
//! `halo-wait` trace span ([`EventKind::HaloWait`]) — attributed separately
//! from barrier-wait so the overlap win is measurable.
//!
//! Report reductions are pipelined under overlap through
//! [`Comm::iallreduce_sum`] and harvested later, always in post order (the
//! collective channel is FIFO): before the step's max completes, when the
//! next report posts, at checkpoint/halt boundaries and at end of march. The
//! deferred completion performs the same ascending-rank combine, so reported
//! values stay bit-identical to the blocking path.
//!
//! ## Faults and recovery
//!
//! Every fabric operation returns a [`CommError`] instead of panicking, so
//! the march reports failures as [`DistError`] values. With a
//! [`crate::fault::FaultPlan`] installed the transport injects
//! drops/duplicates/delays/replays, which the protocol masks — results stay
//! bit-identical to the fault-free run as long as no retry budget is
//! exhausted. With checkpointing enabled each rank commits its owned state
//! to a shared [`CheckpointStore`] (coordinated: commit, then barrier); when
//! a rank dies (fault-plan kill, exhausted kernel-retry budget, panic, or
//! stale heartbeat) the survivors re-form the fabric, re-partition the mesh
//! over the survivor set ([`Partition::strips_over`]), restore the newest
//! *consistent* checkpoint, and march on — each such event is a
//! [`Recovery`]. Pending reductions are *dropped* across a recovery (the
//! fabric's epoch guard refuses to complete them) and the re-run iterations
//! regenerate their reports. A durable store ([`DistOptions::store_dir`])
//! adds whole-process restart: `resume` restores the newest verified
//! consistent boundary and marches on, bit-identical to an uninterrupted run.
//!
//! ## Trajectory digests ([`DistOptions::trajectory_digests`])
//!
//! The suites that prove two marches equal (bulk = overlap, faulty = clean,
//! resumed = halted) compare more than the final state: after step 5 of
//! every stage each rank can fold every owned cell's `aux` and `res` values
//! into two order-free digests, keyed by global cell, iteration and stage, so
//! the sum over ranks is independent of partition and schedule. That reads
//! every owned value once more per stage through six splitmix64 rounds per
//! Airfoil cell, which cost a 2-rank 512×256 march about a fifth of its
//! time (`results/dist_pairs.md`), so it is opt-in: off, the loop is
//! skipped and the reports carry `None`. The hashing only reads, so results
//! are bit-identical either way (`tests/digests.rs`).

use std::time::{Duration, Instant};

use parking_lot::Mutex;

use op2_airfoil::mesh::MeshData;
use op2_trace::{pack2, EventKind, NO_NAME};

use crate::checkpoint::{CheckpointError, CheckpointStore, CkptStats};
use crate::exec::{DistError, DistOptions, JitterSpec, Recovery};
use crate::fabric::{Comm, CommError, Fabric, FabricRun, PendingReduce};
use crate::fault::FaultReport;
use crate::partition::{build_local, HaloGroup, HaloPlan, LocalMesh, Partition};

/// One application on the march engine: kernel glue over index lists.
///
/// No hook sees the fabric, a tag, [`DistOptions`] or the checkpoint store.
/// Arrays are cell-major: `state`/`res` hold [`DistApp::COMP`] values per
/// local cell (owned first, then halo copies), `old` the same per owned
/// cell, `aux` [`DistApp::AUX`] values per local cell.
pub(crate) trait DistApp: Sync {
    /// State components per cell.
    const COMP: usize;
    /// Engine-owned per-cell scratch components written by `prologue` /
    /// `group` (Airfoil: 1, the local timestep `adt`; 0 = none).
    const AUX: usize = 0;
    /// Exchange stages per iteration.
    const STAGES: usize;
    /// Tag of the forward (halo state) exchange.
    const TAG_FORWARD: u64;
    /// Tag of the reverse (halo residual) exchange.
    const TAG_REVERSE: u64;
    /// Per-rank data derived from the mesh slice, rebuilt on re-partition.
    type Derived: Send;

    /// Build the per-rank derived data.
    fn derive(&self, data: &MeshData, local: &LocalMesh) -> Self::Derived;

    /// Start an iteration: save owned `state` into `old`; return a local
    /// maximum if the step needs a global max-reduction.
    fn begin_iter(&self, local: &LocalMesh, state: &[f64], old: &mut [f64]) -> Option<f64>;

    /// Turn the step's reduced maximum into the scalar `update` consumes and
    /// reports carry (shallow-water: `dt`). Only called when `begin_iter`
    /// returned a maximum.
    fn step_scale(&self, _derived: &Self::Derived, _global_max: f64) -> f64 {
        0.0
    }

    /// Owned-cell compute that must precede every edge of the stage.
    fn prologue(&self, _coords: &[f64], _local: &LocalMesh, _state: &[f64], _aux: &mut [f64]) {}

    /// Flux `edges` (indices into [`LocalMesh::edge_cells`], all endpoints
    /// owned) straight into `res`.
    fn interior(
        &self,
        coords: &[f64],
        local: &LocalMesh,
        edges: &[u32],
        state: &[f64],
        aux: &[f64],
        res: &mut [f64],
    );

    /// The boundary-edge pass ([`LocalMesh::bedges`]) into `res`.
    fn boundary(&self, coords: &[f64], local: &LocalMesh, state: &[f64], aux: &[f64], res: &mut [f64]);

    /// One halo group whose `halos` cells were just installed: any redundant
    /// per-halo-cell compute, then flux `edges` into `scratch` at `slots`
    /// (parallel to `edges`).
    #[allow(clippy::too_many_arguments)]
    fn group(
        &self,
        coords: &[f64],
        local: &LocalMesh,
        halos: &[u32],
        edges: &[u32],
        slots: &[(u32, u32)],
        state: &[f64],
        aux: &mut [f64],
        scratch: &mut [f64],
    );

    /// Update owned cells from `res` (zeroing it); returns the RMS partial.
    #[allow(clippy::too_many_arguments)]
    fn update(
        &self,
        derived: &Self::Derived,
        local: &LocalMesh,
        old: &[f64],
        state: &mut [f64],
        res: &mut [f64],
        aux: &[f64],
        scale: f64,
    ) -> f64;
}

/// Interior edges per chunk — the granularity at which the overlapped
/// schedule polls for arrived halo messages.
const INTERIOR_CHUNK: usize = 256;

/// Sentinel chunk id for the pre-send jitter point (distinct from every
/// real interior chunk index). Draws from an 8× larger range than compute
/// chunks: the skew being modelled there is message injection/network
/// latency, which dominates per-chunk compute noise — and it is what makes
/// halo arrival genuinely trail a fast peer's compute in the jittered
/// overlap sweeps.
const SEND_JITTER_CHUNK: usize = usize::MAX;

/// splitmix64 finalizer — the digest/jitter hash.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The deterministic pre-chunk sleep of [`JitterSpec`].
fn jitter_sleep(jitter: Option<JitterSpec>, rank: usize, iter: usize, stage: usize, chunk: usize) {
    let Some(j) = jitter else { return };
    if j.max_us == 0 {
        return;
    }
    let key = mix64(
        j.seed
            ^ ((rank as u64) << 48)
            ^ ((iter as u64) << 32)
            ^ ((stage as u64) << 24)
            ^ chunk as u64,
    );
    let cap = if chunk == SEND_JITTER_CHUNK {
        u64::from(j.max_us).saturating_mul(8)
    } else {
        u64::from(j.max_us)
    };
    let us = key % (cap + 1);
    if us > 0 {
        std::thread::sleep(Duration::from_micros(us));
    }
}

/// `(iteration, step scale, sqrt(rms/ncells))` at a report point.
pub(crate) type Report = (usize, f64, f64);

/// Order-free digests over every owned-cell `aux` / post-exchange `res`
/// value of every stage since the last recovery (module docs).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Digests {
    pub aux: u64,
    pub res: u64,
}

impl Digests {
    /// Combine another rank's digests: per-cell terms are
    /// position-independent hashes, so a wrapping sum is order-free.
    fn add(&mut self, other: Digests) {
        self.aux = self.aux.wrapping_add(other.aux);
        self.res = self.res.wrapping_add(other.res);
    }
}

/// What a march hands back to its application wrapper.
pub(crate) struct MarchOut {
    /// Final global state in global cell order (original numbering).
    pub final_state: Vec<f64>,
    /// Report history of the first surviving rank (identical on all).
    pub history: Vec<Report>,
    pub faults: FaultReport,
    pub recoveries: Vec<Recovery>,
    /// Prologue rollbacks retried locally, summed over survivors.
    pub local_retries: usize,
    /// Combined over survivors; `None` unless
    /// [`DistOptions::trajectory_digests`] asked for them.
    pub digests: Option<Digests>,
    pub resumed_from: Option<usize>,
    pub ckpt: CkptStats,
}

/// The one place caller input is rejected — every public entry point goes
/// through here instead of asserting.
pub(crate) fn validate(
    state_len: usize,
    ncells: usize,
    comp: usize,
    opts: &DistOptions,
    resume: bool,
    on_engine: bool,
) -> Result<(), DistError> {
    let reject = |msg: String| Err(DistError::Config(msg));
    if state_len != comp * ncells {
        return reject(format!(
            "initial state holds {state_len} values, the mesh needs {comp} x {ncells} cells"
        ));
    }
    if resume && opts.store_dir.is_none() {
        return reject("resume requires DistOptions::store_dir".to_string());
    }
    // Off the engine (the hybrid march) there is no checkpoint, store,
    // kernel-fault ladder, jitter, renumbering or trajectory digest: refuse
    // what it would drop.
    let engine_only = [
        ("plan (kill directive)", opts.plan.as_ref().is_some_and(|p| p.kill.is_some())),
        ("kernel_fault", opts.kernel_fault.is_some()),
        ("checkpoint_every", opts.checkpoint_every > 0),
        ("store_dir", opts.store_dir.is_some()),
        ("store_faults", opts.store_faults.is_some()),
        ("halt_after", opts.halt_after.is_some()),
        ("die_at", opts.die_at.is_some()),
        ("renumber", opts.renumber),
        ("jitter", opts.jitter.is_some()),
        ("trajectory_digests", opts.trajectory_digests),
    ];
    if let Some((field, _)) = engine_only.iter().find(|(_, set)| *set && !on_engine) {
        return reject(format!(
            "DistOptions::{field} needs the march engine, which the hybrid march does not run \
             on (use run_distributed_opts)"
        ));
    }
    Ok(())
}

/// Run `f` on every rank of a fabric configured from `opts`.
pub(crate) fn launch<T: Send>(
    nranks: usize,
    opts: &DistOptions,
    f: impl Fn(Comm) -> Result<T, CommError> + Send + Sync,
) -> Result<FabricRun<Result<T, CommError>>, DistError> {
    let mut builder = Fabric::builder(nranks).config(opts.config.clone());
    if let Some(plan) = &opts.plan {
        builder = builder.faults(plan.clone());
    }
    builder.launch(f).map_err(DistError::Fabric)
}

/// Hand every surviving rank's `(rank, result)` to `each` (ascending); surface
/// the most informative error of the rest. Ranks for which `expected_dead`
/// holds may have fenced themselves out (a planned kill victim, a rank that
/// exhausted its kernel-retry budget) without failing the run.
pub(crate) fn gather<T>(
    results: Vec<Result<T, CommError>>,
    expected_dead: impl Fn(usize) -> bool,
    mut each: impl FnMut(usize, T),
) -> Result<(), DistError> {
    let mut errors: Vec<(usize, CommError)> = Vec::new();
    for (r, out) in results.into_iter().enumerate() {
        match out {
            Ok(out) => each(r, out),
            Err(CommError::Fenced { .. }) if expected_dead(r) => {}
            Err(error) => errors.push((r, error)),
        }
    }
    match root_cause(errors) {
        Some((rank, error)) => Err(DistError::Rank { rank, error }),
        None => Ok(()),
    }
}

/// Pick the most informative rank error to surface. Deadline timeouts and
/// failure notifications are usually *cascades* from a root cause on some
/// other rank (a sender exhausting its retry budget fails one rank; its
/// peers then time out waiting on it), so any other error class wins.
fn root_cause(mut errors: Vec<(usize, CommError)>) -> Option<(usize, CommError)> {
    if errors.is_empty() {
        return None;
    }
    let cascade = |e: &CommError| {
        matches!(
            e,
            CommError::Timeout { .. } | CommError::RankFailed { .. } | CommError::Fenced { .. }
        )
    };
    let idx = errors.iter().position(|(_, e)| !cascade(e)).unwrap_or(0);
    Some(errors.remove(idx))
}

/// Copy a rank's owned cells (`comp` values each) to their global slots.
pub(crate) fn scatter_owned(global: &mut [f64], comp: usize, owned_g: &[u32], owned: &[f64]) {
    for (i, &g) in owned_g.iter().enumerate() {
        let g = g as usize;
        global[comp * g..comp * (g + 1)].copy_from_slice(&owned[comp * i..comp * (i + 1)]);
    }
}

/// March `niter` iterations of `app` over `part`; with `resume`, restart
/// from the durable store's newest consistent boundary instead of `state0`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn march<A: DistApp>(
    app: &A,
    data: &MeshData,
    state0: &[f64],
    part: &Partition,
    niter: usize,
    report_every: usize,
    opts: &DistOptions,
    resume: bool,
) -> Result<MarchOut, DistError> {
    let ncells = data.cell_nodes.len() / 4;
    validate(state0.len(), ncells, A::COMP, opts, resume, true)?;
    if opts.renumber {
        // March in the RCM id space (ownership follows the cell, so the
        // communication structure is preserved; the durable log holds
        // renumbered states and the permutation is bit-stable), then map the
        // final state back to the original numbering.
        let (rdata, ren) = data.renumber_rcm();
        let rpart = part.renumbered(&ren.cells);
        let rstate = ren.cells.permute_rows(state0, A::COMP);
        let inner = DistOptions {
            renumber: false,
            ..opts.clone()
        };
        let mut out = march(app, &rdata, &rstate, &rpart, niter, report_every, &inner, resume)?;
        out.final_state = ren.cells.unpermute_rows(&out.final_state, A::COMP);
        return Ok(out);
    }

    let store = match &opts.store_dir {
        Some(dir) => {
            CheckpointStore::open_durable(dir, part.nranks, ncells, A::COMP, opts.store_faults.clone())
                .map_err(DistError::Store)?
        }
        None => CheckpointStore::new(part.nranks, ncells, A::COMP),
    };
    // Resume lands on the newest verified state, bottoming out at the
    // initial condition when no consistent boundary survived.
    let restored = if resume { store.latest_consistent() } else { None };
    let (start_iter, init) = match &restored {
        Some((k, state)) => (*k, state.as_slice()),
        None => (0, state0),
    };
    if resume {
        // Stragglers' incomplete entries past the restore point must not
        // shadow post-restart commits (same rule as in-process recovery).
        store.truncate_after(start_iter);
    }

    let run = launch(part.nranks, opts, |comm| {
        rank_main(app, comm, data, init, part, niter, report_every, &store, opts, start_iter)
    })?;

    // Scatter each surviving rank's owned state back to global cell order
    // (post-recovery ownership covers every cell); the report history and
    // recovery log are identical on every survivor — take the first.
    let kill = opts.plan.as_ref().and_then(|p| p.kill);
    let mut out = MarchOut {
        final_state: vec![0.0; A::COMP * ncells],
        history: Vec::new(),
        faults: run.faults,
        recoveries: Vec::new(),
        local_retries: 0,
        digests: None,
        resumed_from: resume.then_some(start_iter),
        ckpt: CkptStats::default(),
    };
    let mut digests = Digests::default();
    let mut first_survivor = true;
    let mut died = false;
    gather(
        run.results,
        |r| kill.is_some_and(|k| k.rank == r) || opts.kernel_fault.is_some_and(|f| f.rank == r),
        |_, rank: RankOut| {
            died |= rank.died;
            scatter_owned(&mut out.final_state, A::COMP, &rank.owned_g, &rank.owned);
            recycle(rank.owned);
            out.local_retries += rank.local_retries;
            digests.add(rank.digests);
            if first_survivor {
                out.history = rank.history;
                out.recoveries = rank.recoveries;
                first_survivor = false;
            }
        },
    )?;
    if died {
        // The simulated crash: whatever the ranks computed in memory is
        // lost; only the durable store speaks for this run.
        return Err(DistError::Died {
            iter: opts.die_at.expect("died flag implies die_at"),
        });
    }
    out.digests = opts.trajectory_digests.then_some(digests);
    out.ckpt = store.stats();
    Ok(out)
}

/// One rank's march state: its mesh slice, the interior/boundary schedule,
/// per-group scratch, and the working arrays — rebuilt wholesale (digests
/// included) when a recovery re-partitions the mesh.
struct MarchState<A: DistApp> {
    local: LocalMesh,
    plan: HaloPlan,
    derived: A::Derived,
    state: Vec<f64>,
    old: Vec<f64>,
    aux: Vec<f64>,
    /// `aux` as it was before the current stage prologue (local rollback).
    aux_snap: Vec<f64>,
    res: Vec<f64>,
    /// Per halo group: `COMP × nslots` residual scratch (see [`HaloGroup`]).
    scratch: Vec<Vec<f64>>,
    /// Accumulated only when [`DistOptions::trajectory_digests`] is set.
    digests: Digests,
}

impl<A: DistApp> MarchState<A> {
    fn new(app: &A, data: &MeshData, part: &Partition, rank: usize, global: &[f64]) -> Self {
        let local = build_local(data, part, rank);
        let plan = HaloPlan::build(&local);
        let scratch = plan
            .groups
            .iter()
            .map(|g| vec![0.0f64; A::COMP * g.nslots])
            .collect();
        let nlocal = local.ncells_local();
        let mut state = zeroed(A::COMP * nlocal);
        for (l, &g) in local.cell_l2g.iter().enumerate() {
            let g = g as usize;
            state[A::COMP * l..A::COMP * (l + 1)]
                .copy_from_slice(&global[A::COMP * g..A::COMP * (g + 1)]);
        }
        MarchState {
            derived: app.derive(data, &local),
            state,
            old: zeroed(A::COMP * local.nowned),
            aux: zeroed(A::AUX * nlocal),
            aux_snap: spare(A::AUX * nlocal),
            res: zeroed(A::COMP * nlocal),
            scratch,
            digests: Digests::default(),
            local,
            plan,
        }
    }

    fn owned_cells(&self) -> &[u32] {
        &self.local.cell_l2g[..self.local.nowned]
    }

    fn owned_state(&self) -> &[f64] {
        &self.state[..A::COMP * self.local.nowned]
    }
}

/// Per-rank arrays (`state`, `old`, `aux`, its snapshot, `res`, the owned
/// copy a rank returns) that finished marches hand back for the next march
/// to reuse, at most [`SPARE_ARRAYS`] of them. A 512×256 Airfoil march
/// holds ≈ 9 MB of them per rank; handed back to glibc's allocator instead,
/// they are trimmed on release and page-faulted in again by the next call,
/// ≈ 4 ms a call on two ranks — more than the march's localisation
/// (`results/setup_pairs.md`).
static SPARE: Mutex<Vec<Vec<f64>>> = Mutex::new(Vec::new());
const SPARE_ARRAYS: usize = 32;

/// An empty array with room for `len` values: the smallest spare one that
/// has it, or a new one.
fn spare(len: usize) -> Vec<f64> {
    let reused = {
        let mut spare = SPARE.lock();
        let fit = (0..spare.len())
            .filter(|&i| spare[i].capacity() >= len)
            .min_by_key(|&i| spare[i].capacity());
        fit.map(|i| spare.swap_remove(i))
    };
    let mut v = reused.unwrap_or_default();
    v.clear();
    v.reserve(len);
    v
}

/// `len` zeros in a [`spare`] array.
fn zeroed(len: usize) -> Vec<f64> {
    let mut v = spare(len);
    v.resize(len, 0.0);
    v
}

/// Hand `v` back for a later [`spare`].
fn recycle(v: Vec<f64>) {
    let mut spare = SPARE.lock();
    if spare.len() < SPARE_ARRAYS {
        spare.push(v);
    }
}

impl<A: DistApp> Drop for MarchState<A> {
    fn drop(&mut self) {
        for v in [&mut self.state, &mut self.old, &mut self.aux, &mut self.aux_snap, &mut self.res] {
            recycle(std::mem::take(v));
        }
    }
}

/// A surviving rank's result.
struct RankOut {
    /// Final owned global cells (post-recovery ownership) and their state.
    owned_g: Vec<u32>,
    owned: Vec<f64>,
    history: Vec<Report>,
    recoveries: Vec<Recovery>,
    local_retries: usize,
    digests: Digests,
    /// True if the rank stopped at [`DistOptions::die_at`] (simulated
    /// whole-process death): its in-memory results are void.
    died: bool,
}

/// The per-rank knobs and counters of one march, threaded through stages.
struct RankCtx<'a> {
    opts: &'a DistOptions,
    niter: usize,
    report_every: usize,
    /// Whether this rank is the kernel-fault target, and how many injected
    /// failures it still owes.
    fault_iter: Option<usize>,
    faults_left: usize,
    local_retries: usize,
    reports: Reports,
}

/// A rank's report history and its pipelined RMS reduction.
pub(crate) struct Reports {
    ncells_global: usize,
    /// Completed reports, in iteration order.
    pub done: Vec<Report>,
    /// At most one outstanding non-blocking reduction (overlap only).
    pending: Option<(usize, f64, PendingReduce)>,
}

impl Reports {
    pub(crate) fn new(ncells_global: usize) -> Reports {
        Reports {
            ncells_global,
            done: Vec::new(),
            pending: None,
        }
    }

    fn push(&mut self, iter: usize, scale: f64, total: f64) {
        self.done
            .push((iter, scale, (total / self.ncells_global as f64).sqrt()));
    }

    /// Complete the outstanding pipelined reduction, if any, and record its
    /// report. Collective: every rank holds the same pending state at the
    /// same march point, so the deferred gather/bcast pairs up.
    pub(crate) fn harvest(&mut self, comm: &Comm) -> Result<(), CommError> {
        if let Some((iter, scale, p)) = self.pending.take() {
            let total = comm.complete_reduce(p)?[0];
            self.push(iter, scale, total);
        }
        Ok(())
    }

    /// Forget everything after iteration `restored` (a recovery restored
    /// that boundary). Any outstanding reduce belongs to the failed epoch:
    /// the fabric refuses to complete it, and the restored iteration range
    /// re-runs the report it carried.
    fn rewind_to(&mut self, restored: usize) {
        self.pending = None;
        self.done.retain(|(iter, ..)| *iter <= restored);
    }

    /// A report point: sum-reduce `rms_local`. Blocking in bulk mode; under
    /// overlap, finish the previous report's reduction, then post this one —
    /// it completes at the next harvest point, overlapping the next
    /// iteration's interior compute.
    pub(crate) fn post(
        &mut self,
        comm: &Comm,
        overlap: bool,
        iter: usize,
        scale: f64,
        rms_local: f64,
    ) -> Result<(), CommError> {
        if overlap {
            self.harvest(comm)?;
            self.pending = Some((iter, scale, comm.iallreduce_sum(&[rms_local])?));
        } else {
            let total = comm.allreduce_sum(&[rms_local])?[0];
            self.push(iter, scale, total);
        }
        Ok(())
    }
}

/// Per-rank march: kill / die / halt scaffolding, coordinated checkpoint
/// commits and recovery around [`march_one_iter`].
#[allow(clippy::too_many_arguments)]
fn rank_main<A: DistApp>(
    app: &A,
    comm: Comm,
    data: &MeshData,
    init: &[f64],
    part: &Partition,
    niter: usize,
    report_every: usize,
    store: &CheckpointStore,
    opts: &DistOptions,
    start_iter: usize,
) -> Result<RankOut, CommError> {
    let me = comm.rank();
    let kill = comm.plan().and_then(|p| p.kill);
    // Every rank must commit checkpoints whenever *any* rank might escalate
    // (a consistent boundary needs every slice) — and always when the store
    // is durable, since restartability needs the boundaries on disk.
    let ckpt_active = opts.checkpoint_every > 0
        || kill.is_some()
        || opts.kernel_fault.is_some()
        || store.is_durable();
    let my_fault = opts.kernel_fault.filter(|f| f.rank == me);
    let mut cx = RankCtx {
        opts,
        niter,
        report_every,
        fault_iter: my_fault.map(|f| f.at_iter),
        faults_left: my_fault.map_or(0, |f| f.failures),
        local_retries: 0,
        reports: Reports::new(data.cell_nodes.len() / 4),
    };
    let mut recoveries: Vec<Recovery> = Vec::new();
    let mut died = false;

    let mut part_cur = part.clone();
    let mut st = MarchState::new(app, data, &part_cur, me, init);
    let commit = |st: &MarchState<A>, iter: usize| {
        store
            .commit(iter, me, st.owned_cells(), st.owned_state())
            .map_err(|e: CheckpointError| CommError::Checkpoint {
                rank: me,
                detail: e.to_string(),
            })
    };
    // A coordinated checkpoint boundary. Drain the reduction pipeline first,
    // so every report for an iteration at or before the boundary is already
    // recorded — a later restore to it never loses a report to a dropped
    // pending reduce. Barrier after the commit, so no rank (in particular a
    // planned kill victim) can race ahead — and fail — before every peer's
    // slice has landed: that pins the restore point to the newest boundary
    // before the failure and makes recovery deterministic.
    let boundary = |cx: &mut RankCtx, st: &MarchState<A>, iter: usize| {
        cx.reports.harvest(&comm)?;
        commit(st, iter)?;
        comm.barrier()
    };
    // On resume the restored boundary is already durable; recommitting it
    // would be harmless but wasteful.
    if ckpt_active && start_iter == 0 {
        commit(&st, 0)?;
    }

    let mut iter = start_iter + 1;
    while iter <= niter {
        if opts.die_at == Some(iter) {
            // Simulated whole-process death: stop before touching iteration
            // `iter`. No commit, no drain — the disk keeps exactly what was
            // durable, everything in memory is void.
            died = true;
            break;
        }
        if kill.is_some_and(|k| k.rank == me && k.at_iter == iter) {
            return Err(comm.kill_self());
        }
        comm.beat();
        let outcome = if comm.recovery_pending() {
            // A failure was flagged between iterations — join the
            // re-formation without touching the fabric first.
            Err(CommError::RankFailed { rank: me, failed: me })
        } else {
            march_one_iter(app, &comm, &data.coords, &mut st, iter, &mut cx).and_then(|()| {
                if opts.checkpoint_every > 0 && iter % opts.checkpoint_every == 0 {
                    boundary(&mut cx, &st, iter)?;
                }
                Ok(())
            })
        };
        match outcome {
            Ok(()) => {
                if opts.halt_after == Some(iter) {
                    // Graceful stop: pin a boundary at exactly this
                    // iteration and leave. The reference leg of
                    // crash-restart equivalence tests.
                    boundary(&mut cx, &st, iter)?;
                    break;
                }
                iter += 1;
            }
            Err(CommError::RankFailed { .. }) => {
                let restored = recover_and_restore(
                    app,
                    &comm,
                    data,
                    store,
                    &mut part_cur,
                    &mut st,
                    &mut cx.reports,
                    &mut recoveries,
                )?;
                iter = restored + 1;
            }
            Err(e) => return Err(e),
        }
    }
    if !died {
        cx.reports.harvest(&comm)?;
    }

    Ok(RankOut {
        owned_g: st.owned_cells().to_vec(),
        owned: {
            let mut owned = spare(st.owned_state().len());
            owned.extend_from_slice(st.owned_state());
            owned
        },
        history: cx.reports.done,
        recoveries,
        local_retries: cx.local_retries,
        digests: st.digests,
        died,
    })
}

/// Re-form the fabric with the survivors, re-partition the mesh over them,
/// and restore march state from the newest consistent checkpoint. Returns
/// the restored iteration (resume at `+ 1`).
#[allow(clippy::too_many_arguments)]
fn recover_and_restore<A: DistApp>(
    app: &A,
    comm: &Comm,
    data: &MeshData,
    store: &CheckpointStore,
    part_cur: &mut Partition,
    st: &mut MarchState<A>,
    reports: &mut Reports,
    recoveries: &mut Vec<Recovery>,
) -> Result<usize, CommError> {
    let old_group = comm.group();
    let survivors = comm.recover()?;
    let failed: Vec<usize> = old_group
        .into_iter()
        .filter(|r| !survivors.contains(r))
        .collect();
    let Some((restored_iter, global)) = store.latest_consistent() else {
        return Err(CommError::NoCheckpoint);
    };
    // Stragglers may have committed incomplete entries past the restore
    // point; drop them so they cannot shadow post-recovery checkpoints.
    store.truncate_after(restored_iter);
    *part_cur = Partition::strips_over(store.ncells(), &survivors, comm.nranks());
    *st = MarchState::new(app, data, part_cur, comm.rank(), &global);
    reports.rewind_to(restored_iter);
    recoveries.push(Recovery {
        failed,
        survivors,
        restored_iter,
    });
    Ok(restored_iter)
}

/// One full iteration: save (+ max-reduction), the exchange stages with
/// their updates, and — at report points — the RMS reduction, blocking or
/// pipelined.
fn march_one_iter<A: DistApp>(
    app: &A,
    comm: &Comm,
    coords: &[f64],
    st: &mut MarchState<A>,
    iter: usize,
    cx: &mut RankCtx,
) -> Result<(), CommError> {
    let overlap = cx.opts.overlap;
    let mut scale = 0.0;
    let mut pending_max = None;
    if let Some(local_max) = app.begin_iter(&st.local, &st.state, &mut st.old) {
        if overlap {
            pending_max = Some(comm.iallreduce_max(&[local_max])?);
        } else {
            scale = app.step_scale(&st.derived, comm.allreduce_max(&[local_max])?[0]);
        }
    }

    let mut rms_local = 0.0;
    for stage in 0..A::STAGES {
        exchange_stage(app, comm, coords, st, iter, stage, cx)?;
        if let Some(p) = pending_max.take() {
            // Collective FIFO: harvest the previous report's sum before
            // completing this step's max.
            cx.reports.harvest(comm)?;
            scale = app.step_scale(&st.derived, comm.complete_reduce(p)?[0]);
        }
        // Per-stage partial, added to the iteration total afterwards — the
        // same association order as the per-loop reductions of the
        // single-node driver, keeping 1-rank runs bitwise identical.
        rms_local += app.update(
            &st.derived,
            &st.local,
            &st.old,
            &mut st.state,
            &mut st.res,
            &st.aux,
            scale,
        );
    }

    if iter % cx.report_every.max(1) == 0 || iter == cx.niter {
        cx.reports.post(comm, overlap, iter, scale, rms_local)?;
    }
    Ok(())
}

/// Push fresh owned state (`comp` values per cell) to every importing peer.
pub(crate) fn forward_send(
    comm: &Comm,
    exports: &[(usize, Vec<u32>)],
    tag: u64,
    comp: usize,
    state: &[f64],
) -> Result<(), CommError> {
    for (peer, owned_locals) in exports {
        let mut payload = Vec::with_capacity(owned_locals.len() * comp);
        for &l in owned_locals {
            payload.extend_from_slice(&state[comp * l as usize..comp * (l as usize + 1)]);
        }
        comm.send(*peer, tag, payload)?;
    }
    Ok(())
}

/// The bulk schedule's blocking forward receives: every import peer's
/// payload, ascending peer.
pub(crate) fn recv_halos(
    comm: &Comm,
    imports: &[(usize, Vec<u32>)],
    tag: u64,
) -> Result<Vec<Vec<f64>>, CommError> {
    imports.iter().map(|(peer, _)| comm.recv(*peer, tag)).collect()
}

/// Copy a peer's forward payload into its halo slots.
pub(crate) fn install_halo(state: &mut [f64], comp: usize, halos: &[u32], payload: &[f64]) {
    assert_eq!(payload.len(), halos.len() * comp);
    for (i, &l) in halos.iter().enumerate() {
        state[comp * l as usize..comp * (l as usize + 1)]
            .copy_from_slice(&payload[comp * i..comp * (i + 1)]);
    }
}

/// Add the halo residual contributions the importing peers send back into
/// the owned cells, in ascending peer order (deterministic — `exports` is
/// stored ascending by peer).
pub(crate) fn reverse_receive(
    comm: &Comm,
    exports: &[(usize, Vec<u32>)],
    tag: u64,
    comp: usize,
    res: &mut [f64],
) -> Result<(), CommError> {
    for (peer, owned_locals) in exports {
        let payload = comm.recv(*peer, tag)?;
        assert_eq!(payload.len(), owned_locals.len() * comp);
        for (i, &l) in owned_locals.iter().enumerate() {
            for k in 0..comp {
                res[comp * l as usize + k] += payload[comp * i + k];
            }
        }
    }
    Ok(())
}

/// What the overlapped event loop drives.
pub(crate) trait HaloSink {
    /// Import peer `gi`'s forward payload landed.
    fn arrived(&mut self, gi: usize, payload: Vec<f64>) -> Result<(), CommError>;
    /// Run unit `unit` of remote-independent compute.
    fn work(&mut self, _unit: usize) {}
}

/// The overlapped schedule's event loop: poll every outstanding import
/// (`tag`) and hand each payload to the sink the moment it lands, running
/// one of the sink's `nunits` compute units between polls. A pass with
/// neither an arrival nor compute left records a `halo-wait` span; a quiet
/// period longer than the receive deadline fails with the same counted
/// [`CommError::Timeout`] a blocking `recv` would have produced.
pub(crate) fn poll_halos(
    comm: &Comm,
    imports: &[(usize, Vec<u32>)],
    tag: u64,
    iter: usize,
    stage: usize,
    nunits: usize,
    sink: &mut impl HaloSink,
) -> Result<(), CommError> {
    let rank = comm.rank();
    let ngroups = imports.len();
    let mut got = vec![false; ngroups];
    let mut ngot = 0usize;
    let mut next_unit = 0usize;
    let mut last_progress = Instant::now();
    while ngot < ngroups || next_unit < nunits {
        let mut progressed = false;
        for (gi, (peer, _)) in imports.iter().enumerate() {
            if got[gi] {
                continue;
            }
            if let Some(payload) = comm.try_recv(*peer, tag)? {
                sink.arrived(gi, payload)?;
                got[gi] = true;
                ngot += 1;
                progressed = true;
            }
        }
        if next_unit < nunits {
            sink.work(next_unit);
            next_unit += 1;
            progressed = true;
        }
        if progressed {
            last_progress = Instant::now();
            continue;
        }
        // Compute is drained but halos are outstanding: attributed
        // halo-wait, distinct from barrier-wait in the trace report.
        let span = op2_trace::begin();
        comm.beat();
        std::thread::sleep(Duration::from_micros(100));
        op2_trace::end(
            span,
            EventKind::HaloWait,
            NO_NAME,
            pack2(rank as u32, (ngroups - ngot) as u32),
            pack2(iter as u32, stage as u32),
        );
        let waited = last_progress.elapsed();
        if waited > comm.config().recv_deadline {
            let from = imports
                .iter()
                .zip(&got)
                .find(|(_, g)| !**g)
                .map_or(0, |((p, _), _)| *p);
            return Err(comm.timeout(from, tag, waited));
        }
    }
    Ok(())
}

/// Step 3 of a stage as the engine runs it: the borrowed working arrays of
/// one rank, driven either in the bulk order or by [`poll_halos`].
struct StageRun<'a, A: DistApp> {
    app: &'a A,
    comm: &'a Comm,
    coords: &'a [f64],
    local: &'a LocalMesh,
    plan: &'a HaloPlan,
    state: &'a mut [f64],
    aux: &'a mut [f64],
    res: &'a mut [f64],
    scratch: &'a mut [Vec<f64>],
    jitter: Option<JitterSpec>,
    iter: usize,
    stage: usize,
}

impl<A: DistApp> HaloSink for StageRun<'_, A> {
    /// Fire one halo group: install the peer's forward payload into the
    /// halo slots, run the app's group hook into the group's scratch, and
    /// send the halo-side scratch back to the owner (the reverse exchange
    /// payload, in the peer's import order).
    fn arrived(&mut self, gi: usize, payload: Vec<f64>) -> Result<(), CommError> {
        let group: &HaloGroup = &self.plan.groups[gi];
        let halos = &self.local.imports[gi].1;
        let scratch = &mut self.scratch[gi];
        install_halo(self.state, A::COMP, halos, &payload);
        scratch.fill(0.0);
        self.app.group(
            self.coords,
            self.local,
            halos,
            &group.edges,
            &group.slots,
            self.state,
            self.aux,
            scratch,
        );
        let mut rev = Vec::with_capacity(group.send_slots.len() * A::COMP);
        for &s in &group.send_slots {
            rev.extend_from_slice(&scratch[A::COMP * s as usize..A::COMP * (s as usize + 1)]);
        }
        self.comm.send(group.peer, A::TAG_REVERSE, rev)
    }

    /// One unit of remote-independent compute: an interior-edge chunk, or —
    /// as the last unit — the boundary-edge pass. Writes owned `res` only.
    fn work(&mut self, unit: usize) {
        jitter_sleep(self.jitter, self.comm.rank(), self.iter, self.stage, unit);
        let interior = &self.plan.interior;
        let lo = unit * INTERIOR_CHUNK;
        if lo < interior.len() {
            let hi = (lo + INTERIOR_CHUNK).min(interior.len());
            self.app.interior(
                self.coords,
                self.local,
                &interior[lo..hi],
                self.state,
                self.aux,
                self.res,
            );
        } else {
            self.app
                .boundary(self.coords, self.local, self.state, self.aux, self.res);
        }
    }
}

/// Steps 1–5 of one stage in canonical order (see the module docs), then,
/// when asked for, the digest of the post-exchange residuals.
fn exchange_stage<A: DistApp>(
    app: &A,
    comm: &Comm,
    coords: &[f64],
    st: &mut MarchState<A>,
    iter: usize,
    stage: usize,
    cx: &mut RankCtx,
) -> Result<(), CommError> {
    let opts = cx.opts;
    let rank = comm.rank();

    // 1. Forward sends, before any kernel work so no peer waits on this
    //    rank's compute. The jittered sweeps perturb the send *instant* too
    //    (sentinel chunk id), so halo arrival can genuinely trail a fast
    //    peer's compute — the scenario the overlapped schedule exists to
    //    hide. Identical in both schedules.
    jitter_sleep(opts.jitter, rank, iter, stage, SEND_JITTER_CHUNK);
    forward_send(comm, &st.local.exports, A::TAG_FORWARD, A::COMP, &st.state)?;

    // 2. Stage prologue: fault injection + the app's owned-cell compute. It
    //    is pure compute writing only `aux`, so a panic is rolled back
    //    *locally* — snapshot, restore bit-identically, retry — without
    //    involving the fabric; only when the local budget is exhausted does
    //    the rank escalate to fabric-level checkpoint recovery.
    let mut attempt = 0;
    loop {
        st.aux_snap.clone_from(&st.aux);
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if cx.faults_left > 0 && cx.fault_iter == Some(iter) {
                cx.faults_left -= 1;
                panic!("injected kernel fault at iter {iter}");
            }
            app.prologue(coords, &st.local, &st.state, &mut st.aux);
        }));
        if run.is_ok() {
            break;
        }
        st.aux.copy_from_slice(&st.aux_snap);
        if attempt >= opts.kernel_retries {
            // Peers detect the death and restore the newest checkpoint.
            return Err(comm.kill_self());
        }
        attempt += 1;
        cx.local_retries += 1;
    }

    // 3. Interior + halo-group work. Group residuals go through per-group
    //    scratch in BOTH schedules; interior edges write `res` directly in
    //    plan order. The two schedules therefore perform identical
    //    arithmetic — they differ only in when each piece runs.
    let nunits = st.plan.interior.len().div_ceil(INTERIOR_CHUNK) + 1;
    let mut run = StageRun {
        app,
        comm,
        coords,
        local: &st.local,
        plan: &st.plan,
        state: &mut st.state,
        aux: &mut st.aux,
        res: &mut st.res,
        scratch: &mut st.scratch,
        jitter: opts.jitter,
        iter,
        stage,
    };
    if opts.overlap {
        poll_halos(comm, &st.local.imports, A::TAG_FORWARD, iter, stage, nunits, &mut run)?;
    } else {
        // Bulk-synchronous schedule: blocking forward receives (ascending
        // peer), all interior compute, then every group — reverse sends
        // leave last, after the full interior phase (and its jitter).
        let payloads = recv_halos(comm, &st.local.imports, A::TAG_FORWARD)?;
        for unit in 0..nunits {
            run.work(unit);
        }
        for (gi, payload) in payloads.into_iter().enumerate() {
            run.arrived(gi, payload)?;
        }
    }

    // 4. Merge: group scratch into owned residuals, ascending group then
    //    first-touch order — canonical regardless of arrival order.
    for (group, sc) in st.plan.groups.iter().zip(&st.scratch) {
        for &(slot, c) in &group.merge {
            let (c, s) = (A::COMP * c as usize, A::COMP * slot as usize);
            for k in 0..A::COMP {
                st.res[c + k] += sc[s + k];
            }
        }
    }

    // 5. Reverse receives.
    reverse_receive(comm, &st.local.exports, A::TAG_REVERSE, A::COMP, &mut st.res)?;

    if opts.trajectory_digests {
        digest_stage(st, iter, stage);
    }
    Ok(())
}

/// Fold the stage's owned `aux`/`res` into the running digests (`res`
/// before `update`, which zeroes it). Keys are position-independent, so the
/// running digest is schedule- and partition-order-free.
fn digest_stage<A: DistApp>(st: &mut MarchState<A>, iter: usize, stage: usize) {
    for c in 0..st.local.nowned {
        let g = u64::from(st.local.cell_l2g[c]);
        let key = mix64(g ^ ((iter as u64) << 32) ^ ((stage as u64) << 56));
        if A::AUX > 0 {
            let h = st.aux[A::AUX * c..A::AUX * (c + 1)]
                .iter()
                .fold(key, |h, v| mix64(h ^ v.to_bits()));
            st.digests.aux = st.digests.aux.wrapping_add(h);
        }
        let h = st.res[A::COMP * c..A::COMP * (c + 1)]
            .iter()
            .fold(key, |h, v| mix64(h ^ v.to_bits()));
        st.digests.res = st.digests.res.wrapping_add(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::fabric::{CommConfig, Fabric};

    #[test]
    fn root_cause_prefers_non_cascade_errors() {
        let timeout = CommError::Timeout { rank: 0, from: 1, tag: 7, waited_ms: 5 };
        let real = CommError::NoCheckpoint;
        let (rank, e) = root_cause(vec![(0, timeout.clone()), (2, real)]).unwrap();
        assert_eq!(rank, 2);
        assert!(matches!(e, CommError::NoCheckpoint));
        assert!(root_cause(Vec::new()).is_none());
        let stray = CommError::NoSuchRank { rank: 1, peer: 9, nranks: 2 };
        let (rank, _) = root_cause(vec![(0, timeout), (1, stray)]).unwrap();
        assert_eq!(rank, 1, "an out-of-range peer is a root cause, not a cascade");
    }

    struct Deaf;

    impl HaloSink for Deaf {
        fn arrived(&mut self, _gi: usize, _payload: Vec<f64>) -> Result<(), CommError> {
            Ok(())
        }
    }

    /// A quiet-period expiry in the overlapped poll is the same counted
    /// `Timeout` a blocking halo receive produces.
    #[test]
    fn poll_and_recv_halo_timeouts_are_counted_alike() {
        let cfg = CommConfig { recv_deadline: Duration::from_millis(60), ..CommConfig::default() };
        let imports = vec![(1usize, Vec::new())];
        for poll in [false, true] {
            let run = Fabric::builder(2)
                .config(cfg.clone())
                .launch(|comm| {
                    if comm.rank() == 1 {
                        // Alive and silent past rank 0's deadline: a true
                        // expiry, not a peer exit.
                        std::thread::sleep(Duration::from_millis(150));
                        return Ok(());
                    }
                    if poll {
                        poll_halos(&comm, &imports, 7, 0, 0, 0, &mut Deaf)
                    } else {
                        recv_halos(&comm, &imports, 7).map(drop)
                    }
                })
                .unwrap();
            assert!(
                matches!(run.results[0], Err(CommError::Timeout { rank: 0, from: 1, tag: 7, .. })),
                "poll={poll}: {:?}",
                run.results[0]
            );
            assert_eq!(run.faults.timeouts, 1, "poll={poll}");
        }
    }
}
