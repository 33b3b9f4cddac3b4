//! Shared runtime context for all backends: the HPX pool and the plan cache.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use hpx_rt::{CancelToken, ChunkSize, DetPool, Pool, PoolBuilder};
use op2_core::{ParLoop, Plan, PlanCache};
use op2_trace::{EventKind, NO_NAME};
use op2_tune::{BackendChoice, Tuner};

use crate::colored::{run_colored, run_plan_order_tracked};
use crate::factory::BackendKind;
use crate::handle::LoopHandle;
use crate::recover::{run_transaction, FailureKind, LoopError};
use crate::tracehooks;
use crate::tune::{self, LoopTrial};

/// Default mini-partition (block) size, matching OP2's common setting.
pub use op2_core::plan::DEFAULT_PART_SIZE;

/// What [`Op2Runtime::prepare`] decides for one loop execution: the open
/// tuner trial, the validated plan, and the tuner's measured chunk.
pub(crate) type Prepared = (Option<LoopTrial>, Arc<Plan>, Option<ChunkSize>);

/// The execution context shared by every backend: a task pool (normally an
/// [`hpx_rt::ThreadPool`]; a deterministic [`hpx_rt::DetPool`] for schedule
/// exploration) and a memoized [`PlanCache`] (plans are reused across the
/// thousands of identical loop invocations of a time-march, exactly as OP2
/// caches `op_plan`s).
pub struct Op2Runtime {
    pool: Arc<dyn Pool>,
    plans: Arc<PlanCache>,
    part_size: usize,
    cancel: CancelToken,
    /// Online autotuner consulted by the executors; `None` = untuned run.
    tuner: Option<Arc<Tuner>>,
    /// Snapshot every loop's write footprint so a failure can be rolled back
    /// ([`Op2Runtime::with_rollback`]); read by `recover::Transaction` only.
    rollback: bool,
}

impl Op2Runtime {
    /// Create a runtime with `num_threads` workers and the given block size.
    pub fn new(num_threads: usize, part_size: usize) -> Self {
        Self::from_pool(
            Arc::new(
                PoolBuilder::new()
                    .num_threads(num_threads)
                    .thread_name("op2-hpx")
                    .build(),
            ),
            part_size,
        )
    }

    /// Runtime with the default block size ([`DEFAULT_PART_SIZE`]).
    pub fn with_threads(num_threads: usize) -> Self {
        Self::new(num_threads, DEFAULT_PART_SIZE)
    }

    /// Runtime over an explicit pool (e.g. a shared or custom-built one).
    pub fn from_pool(pool: Arc<dyn Pool>, part_size: usize) -> Self {
        Self::from_pool_with_cache(pool, Arc::new(PlanCache::new()), part_size)
    }

    /// Runtime over an explicit pool **and** a shared plan cache. A
    /// multi-tenant service hands every job's runtime the same cache, so
    /// repeated jobs over structurally-identical meshes skip plan
    /// construction entirely (content-addressed, single-flight — see
    /// [`PlanCache`]); each runtime still gets its own [`CancelToken`], so
    /// cancellation stays per-job.
    pub fn from_pool_with_cache(
        pool: Arc<dyn Pool>,
        plans: Arc<PlanCache>,
        part_size: usize,
    ) -> Self {
        Op2Runtime {
            pool,
            plans,
            part_size: part_size.max(1),
            cancel: CancelToken::new(),
            tuner: None,
            rollback: false,
        }
    }

    /// Make every loop executed over this runtime a transaction that can be
    /// undone: executors snapshot the loop's declared write footprint first
    /// and restore it bit-identically when the kernel panics, a finite guard
    /// trips or the loop is cancelled (`LoopError::rolled_back`). Off by
    /// default — a snapshot is a copy between every two loops, and nothing
    /// consumes it unless something retries the loop; [`crate::Supervisor`]
    /// is that something and turns this on for its own attempts, so only
    /// code that wants rollback on a bare executor calls it.
    pub fn with_rollback(mut self) -> Self {
        self.rollback = true;
        self
    }

    /// Do executors over this runtime snapshot and roll back
    /// ([`Op2Runtime::with_rollback`])?
    pub(crate) fn rollback(&self) -> bool {
        self.rollback
    }

    /// Attach an online [`Tuner`]: executors created over this runtime
    /// consult it for chunk sizes and block sizes and feed wall-time
    /// observations back. Share one `Arc<Tuner>` across runtimes (e.g. all
    /// jobs of a service) to pool their measurements.
    pub fn with_tuner(mut self, tuner: Arc<Tuner>) -> Self {
        self.tuner = Some(tuner);
        self
    }

    /// The attached tuner, if any.
    pub fn tuner(&self) -> Option<&Arc<Tuner>> {
        self.tuner.as_ref()
    }

    /// A second runtime over this one's pool, plan cache, cancel token and
    /// tuner, with the same settings.
    pub(crate) fn share(&self) -> Op2Runtime {
        Op2Runtime {
            pool: Arc::clone(&self.pool),
            plans: Arc::clone(&self.plans),
            part_size: self.part_size,
            cancel: self.cancel.clone(),
            tuner: self.tuner.clone(),
            rollback: self.rollback,
        }
    }

    /// Runtime on a deterministic single-threaded scheduler
    /// ([`hpx_rt::DetPool`]) whose task interleaving is a pure function of
    /// `seed` — every backend then executes reproducibly, which is what the
    /// schedule-exploration tests (`tests/det_schedules.rs`) and the
    /// dataflow-order checker (`op2_core::det`) build on.
    pub fn deterministic(seed: u64, part_size: usize) -> Self {
        Self::from_pool(Arc::new(DetPool::new(seed)), part_size)
    }

    /// The underlying task pool.
    pub fn pool(&self) -> &Arc<dyn Pool> {
        &self.pool
    }

    /// The ambient cancellation token every backend threads into its loop
    /// bodies: cancel it (or arm a deadline) to make in-flight loops abandon
    /// cooperatively between chunks/colors. [`crate::Supervisor`] arms and
    /// clears it around each attempt.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Worker count.
    pub fn num_threads(&self) -> usize {
        self.pool.num_threads()
    }

    /// Mini-partition size used for plans.
    pub fn part_size(&self) -> usize {
        self.part_size
    }

    /// The memoized plan for `loop_`'s shape at the runtime's block size.
    pub fn plan_for(&self, loop_: &ParLoop) -> Arc<Plan> {
        self.plans.get(loop_.set(), loop_.args(), self.part_size)
    }

    /// Every backend's decision point, and the one place the tuner is
    /// consulted: open the trial, offering `menu` (the backends the caller
    /// can run: none for a fixed backend, whose plan and chunk are still
    /// tuned and whose wall time — serial's too, which tiny sets are
    /// compared against — still trains the model; `None` asks nothing, for
    /// an attempt that measures recovery and not a candidate), resolve and
    /// validate the plan, and hand back the tuner's measured chunk, if any.
    pub(crate) fn prepare(
        &self,
        loop_: &ParLoop,
        backend: &'static str,
        menu: Option<&[BackendChoice]>,
    ) -> Result<Prepared, LoopError> {
        let trial = menu.and_then(|menu| tune::begin(self, loop_, menu));
        let part_size = trial
            .as_ref()
            .and_then(LoopTrial::plan)
            .unwrap_or(self.part_size);
        let plan = self.plans.get(loop_.set(), loop_.args(), part_size);
        plan.validate_cached(loop_.args())
            .map_err(|e| LoopError::new(loop_.name(), backend, FailureKind::Plan(e), false))?;
        let tuned = trial.as_ref().and_then(|t| t.chunk_blocks(plan.part_size));
        Ok((trial, plan, tuned.map(ChunkSize::Static)))
    }

    /// The one function that turns a [`BackendKind`] into a loop its caller
    /// waits for — under a fixed [`crate::BlockingExecutor`], a
    /// [`crate::TunedExecutor`] and every attempt of a [`crate::Supervisor`].
    /// `Op2Runtime::prepare` with the caller's `menu` (the tuner's pick from
    /// it replaces `kind`; an invalid plan is refused under the name of the
    /// kind that was asked for), a loop span chained in program
    /// order behind `last`, the shape's body run as one transaction
    /// (snapshotted when the runtime rolls back), the trial closed on
    /// success — issue to completion, the honest cross-backend comparison.
    /// Returns the kind that ran beside the outcome, so a caller that
    /// retries can re-run the same shape.
    ///
    /// | kind | body |
    /// |---|---|
    /// | `Serial` | plan order on the calling thread |
    /// | `ForkJoin` | colored `for_each`, `schedule(static)`: `ChunkSize::PerWorker`, one contiguous chunk per worker *of each color* — that schedule *is* the backend, so the tuner's chunk does not apply |
    /// | `ForEachAuto`, `ForEachStatic(n)` | colored `for_each`; a tuned chunk replaces the 1 %-probe / pinned one |
    /// | `Async`, `Dataflow` | the colored `for_each` those executors spawn, with their `ChunkSize::Default` — fenced loop by loop, they are that plus a task and a cross-thread wake (a dataflow node readied by a pool worker pays neither: `Pool::spawn_next`) |
    ///
    /// Every parallel shape is the one colored body, so each inherits its
    /// grain floor: a color predicted under the pool's hand-off cost runs on
    /// the caller (`crate::colored::run_colored`). Every parallel shape is
    /// recorded as the implicit end-of-loop barrier the caller is held at
    /// (the assembler nets out the time it spent work-helping or running an
    /// inlined color); serial runs the body itself and is never held at one.
    pub(crate) fn run_blocking(
        &self,
        loop_: &ParLoop,
        kind: BackendKind,
        menu: Option<&[BackendChoice]>,
        last: &AtomicU64,
    ) -> (BackendKind, Result<LoopHandle, LoopError>) {
        let (trial, plan, tuned) = match self.prepare(loop_, kind.blocking_name(), menu) {
            Ok(prepared) => prepared,
            Err(e) => return (kind, Err(e)),
        };
        let kind = trial.as_ref().and_then(LoopTrial::backend).unwrap_or(kind);
        let backend = kind.blocking_name();
        // `None` = plan order, no pool involved.
        let chunk = match kind {
            BackendKind::Serial => None,
            BackendKind::ForkJoin => Some(ChunkSize::PerWorker),
            BackendKind::ForEachAuto => Some(tuned.unwrap_or(ChunkSize::auto())),
            BackendKind::ForEachStatic(n) => Some(tuned.unwrap_or(ChunkSize::Static(n.max(1)))),
            BackendKind::Async | BackendKind::Dataflow => Some(tuned.unwrap_or(ChunkSize::Default)),
        };
        let instance = tracehooks::next_instance();
        tracehooks::chain(last, instance);
        tracehooks::loop_begin(loop_.name(), backend, instance);
        let span = chunk.is_some().then(op2_trace::begin);
        let result = run_transaction(loop_, backend, self.rollback, || match chunk {
            None => run_plan_order_tracked(loop_, &plan, Some(&self.cancel)),
            Some(chunk) => run_colored(&self.pool, loop_, &plan, chunk, Some(&self.cancel)),
        });
        if let Some(span) = span {
            op2_trace::end(span, EventKind::BarrierWait, NO_NAME, instance, 0);
        }
        tracehooks::loop_end(instance);
        if let (Ok(_), Some(t)) = (&result, trial) {
            t.finish();
        }
        (kind, result.map(|gbl| LoopHandle::ready(gbl).with_instance(instance)))
    }

    /// Number of distinct plans built so far (observability/tests).
    pub fn plans_built(&self) -> usize {
        self.plans.len()
    }

    /// The plan cache backing this runtime (shared across runtimes when
    /// constructed via [`Op2Runtime::from_pool_with_cache`]).
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.plans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use op2_core::{arg_direct, Access, Dat, Set};

    #[test]
    fn plans_are_cached_across_invocations() {
        let rt = Op2Runtime::new(1, 32);
        let cells = Set::new("cells", 100);
        let q = Dat::filled("q", &cells, 1, 0.0f64);
        let l = ParLoop::build("noop", &cells)
            .arg(arg_direct(&q, Access::Read))
            .kernel(|_, _| {});
        let p1 = rt.plan_for(&l);
        let p2 = rt.plan_for(&l);
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(rt.plans_built(), 1);
    }

    #[test]
    fn part_size_clamped() {
        let rt = Op2Runtime::new(1, 0);
        assert_eq!(rt.part_size(), 1);
    }
}
