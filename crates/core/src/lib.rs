//! # op2-hpx — HPX-style execution backends for OP2 parallel loops
//!
//! This crate is the paper's contribution: it takes OP2-style parallel loops
//! ([`op2_core::ParLoop`]) and executes them on the [`hpx_rt`] runtime under
//! the four parallelization strategies compared in the ICPP 2016 study:
//!
//! | backend | paper section | synchronization |
//! |---|---|---|
//! | [`BlockingExecutor`] of [`BackendKind::ForkJoin`] | baseline | `#pragma omp parallel for` equivalent: static block schedule, **global barrier after every loop** (and between plan colors) |
//! | [`BlockingExecutor`] of [`BackendKind::ForEachAuto`] / [`BackendKind::ForEachStatic`] | §III-A1 | `hpx::parallel::for_each(par)`: still fork-join, but HPX controls the grain size (auto-partitioner or static chunk) |
//! | [`AsyncExecutor`] | §III-A2 | `async` + `for_each(par(task))`: every loop returns a **future**; the *caller* places `.get()` according to data dependencies |
//! | [`DataflowExecutor`] | §III-B | modified OP2 API: arguments carry futures; each loop becomes a **dataflow node** and the dependency DAG is built automatically from the declared access modes |
//!
//! A [`BlockingExecutor`] of [`BackendKind::Serial`] provides the reference
//! semantics; every parallel backend is tested to produce
//! **bitwise-identical** dat contents and global reductions (plan-ordered
//! accumulation + block-ordered reduction combine make this possible even
//! for floating point).
//!
//! A future pays when its caller does *not* wait on it. Whoever waits on
//! every loop — a blocking executor, a [`TunedExecutor`], each attempt of a
//! [`Supervisor`] — goes through one function, `Op2Runtime::run_blocking`,
//! which runs the loop on the calling thread's behalf and never builds a
//! future for it.
//!
//! ```
//! use op2_core::{Dat, ParLoop, Set};
//! use op2_hpx::{Op2Runtime, Executor, DataflowExecutor};
//! use std::sync::Arc;
//!
//! let rt = Arc::new(Op2Runtime::new(4, 64));
//! let cells = Set::new("cells", 1000);
//! let q = Dat::filled("q", &cells, 1, 2.0f64);
//! // One declaration: `q` is read and written, one value per cell.
//! let square = ParLoop::build("square", &cells)
//!     .args(q.rw::<1>())
//!     .kernel(|[v], _| *v *= *v);
//!
//! let exec = DataflowExecutor::new(Arc::clone(&rt));
//! let _handle = exec.execute(&square);  // returns immediately
//! exec.fence();                         // wait for the DAG to drain
//! assert!(q.to_vec().iter().all(|&v| v == 4.0));
//! ```

#![warn(missing_docs)]

pub mod async_fe;
pub mod blocking;
mod colored;
pub mod dataflow;
pub mod factory;
pub mod handle;
pub mod recover;
pub mod runtime;
pub mod step;
pub mod tracehooks;
pub mod tune;
pub mod tuned;

pub use async_fe::AsyncExecutor;
pub use blocking::{BlockingExecutor, NaturalExecutor};
pub use dataflow::DataflowExecutor;
pub use factory::{make_executor, BackendKind, FactoryError};
pub use handle::LoopHandle;
pub use recover::{FailureKind, FenceReport, LoopError, RetryPolicy, Supervisor, WriteSet};
pub use runtime::Op2Runtime;
pub use op2_core::step::async_waits;
pub use step::{run_step, SyncStrategy};
pub use tune::{choice_to_kind, kind_to_choice, key_for, plan_order_invariant};
pub use tuned::{TunedExecutor, TUNABLE_BACKENDS};

/// A strategy for executing OP2 parallel loops.
///
/// [`Executor::try_execute`] is the fallible surface: a kernel panic, a
/// tripped [`op2_core::ParLoop::guard_finite`] scan or a cancellation never
/// escapes as a raw panic — it returns a typed [`LoopError`] with provenance
/// (loop, backend, element, message). [`Executor::execute`] keeps the legacy
/// rethrow semantics as a thin wrapper.
///
/// What the *data* looks like after such a failure depends on the runtime
/// the executor was built over, and on nothing else:
///
/// * a **bare executor** (a plain [`Op2Runtime`]) copies nothing between
///   loops, so the failed run's partial writes stay in the dats and the
///   error says `rolled_back: false`;
/// * on a **rollback-on runtime** ([`Op2Runtime::with_rollback`] — which a
///   [`Supervisor`] derives for itself, so `run_supervised` and service jobs
///   need do nothing) every backend snapshots the loop's declared write
///   footprint first and restores it bit-identically before the error
///   becomes observable (`rolled_back: true`; the one exception, dats the
///   loop only overwrites directly, is spelled out on
///   [`LoopError::rolled_back`]).
///
/// `try_execute`/`execute` may return before the loop has run — the two
/// futurized backends, [`AsyncExecutor`] and [`DataflowExecutor`]; every
/// other implementor ([`BlockingExecutor`], [`TunedExecutor`],
/// [`Supervisor`]) waits for the loop inside the call, returns a handle that
/// is already ready and has nothing to fence.
/// [`LoopHandle::get`]/[`LoopHandle::try_get`] wait for (and
/// return) the loop's global reduction, and [`Executor::fence`] /
/// [`Executor::try_fence`] wait for *all* outstanding loops —
/// `try_fence` aggregating **every** pending failure into a [`FenceReport`]
/// instead of rethrowing the first.
///
/// A futurized loop has **one** completion future, and it resolves to a
/// value either way — `Result<Vec<f64>, LoopError>`. The error travels
/// inside that future, never beside it: the handle, the fence and (under
/// dataflow) a poisoned descendant all read the same [`LoopError`].
pub trait Executor: Send + Sync {
    /// Stable, human-readable backend name (used in benches/reports).
    fn name(&self) -> &'static str;

    /// Execute or schedule `loop_`. A synchronous failure (plan validation,
    /// kernel panic, finite-guard) is returned here; asynchronous backends
    /// surface late failures — the same value each time — through
    /// [`LoopHandle::try_get`]/[`LoopHandle::try_wait`] and
    /// [`Executor::try_fence`]. On a rollback-on runtime the declared write
    /// footprint has been restored before the error becomes observable.
    fn try_execute(&self, loop_: &op2_core::ParLoop) -> Result<LoopHandle, LoopError>;

    /// Execute or schedule `loop_`; a synchronous failure panics with the
    /// original kernel provenance (data already rolled back where the
    /// runtime rolls back).
    fn execute(&self, loop_: &op2_core::ParLoop) -> LoopHandle {
        self.try_execute(loop_).unwrap_or_else(|e| e.rethrow())
    }

    /// Block until every loop issued so far has completed; collect **all**
    /// failures not yet reported by a fence (with provenance, in issue
    /// order) instead of rethrowing the first.
    fn try_fence(&self) -> Result<(), FenceReport> {
        Ok(())
    }

    /// Block until every loop issued so far has completed, panicking if any
    /// failed (legacy surface over [`Executor::try_fence`]).
    fn fence(&self) {
        if let Err(report) = self.try_fence() {
            std::panic::resume_unwind(Box::new(report.to_string()));
        }
    }
}
