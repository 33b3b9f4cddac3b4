//! The executors whose caller waits for every loop: the serial reference,
//! the fork-join baseline and §III-A1 `for_each(par)`.
//!
//! * **serial** executes in plan order — the oracle every parallel backend
//!   must match bitwise (see [`op2_core::serial`]).
//! * **fork-join** is the `#pragma omp parallel for` equivalent: OP2's stock
//!   OpenMP target wraps every loop (Fig. 5 of the paper) in a static
//!   schedule over plan blocks with an **implicit global barrier at the
//!   end** — the model whose sequential fractions Amdahl-limit scalability.
//!   Blocks of each color are partitioned into exactly one contiguous chunk
//!   per worker (`ChunkSize::PerWorker`, evaluated on the color, not on the
//!   whole plan).
//! * **for_each** is the code generator re-targeted to emit
//!   `for_each(par, …)` (Fig. 6/7). The barrier remains, but HPX picks the
//!   chunk size: the **auto-partitioner** (sequentially execute ~1% of the
//!   loop, derive a chunk from the measured per-iteration time) or a
//!   **static chunk size**, whose comparison is exactly Fig. 16.
//!
//! They differ in the shape `Op2Runtime::run_blocking` gives the loop and
//! in nothing else, so they are one type. The parallel two share one grain
//! floor: once a loop has run, a color whose measured work is under the
//! pool's hand-off cost (`ThreadPool::HANDOFF_FLOOR`, 50 µs) runs on the
//! caller — a hand-off to a parked worker would cost more than the color.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use op2_core::ParLoop;

use crate::factory::BackendKind;
use crate::handle::LoopHandle;
use crate::recover::LoopError;
use crate::runtime::Op2Runtime;
use crate::Executor;

/// Executor of a fixed [`BackendKind`] whose `execute` returns once the loop
/// (and hence its end-of-loop barrier) is done. A futurized kind
/// ([`BackendKind::Async`], [`BackendKind::Dataflow`]) runs as the colored
/// `for_each` body its own executor spawns — what a caller that waits on
/// every loop gets from it, minus the task and the wake.
pub struct BlockingExecutor {
    rt: Arc<Op2Runtime>,
    kind: BackendKind,
    last_instance: AtomicU64,
}

impl BlockingExecutor {
    /// Blocking executor of `kind` on `rt`.
    pub fn new(rt: Arc<Op2Runtime>, kind: BackendKind) -> Self {
        BlockingExecutor {
            rt,
            kind,
            last_instance: AtomicU64::new(0),
        }
    }
}

impl Executor for BlockingExecutor {
    fn name(&self) -> &'static str {
        self.kind.blocking_name()
    }

    fn try_execute(&self, loop_: &ParLoop) -> Result<LoopHandle, LoopError> {
        // A fixed backend offers the tuner no backend choice.
        self.rt.run_blocking(loop_, self.kind, Some(&[]), &self.last_instance).1
    }
}

/// Every loop on the caller in ascending element order, no plan
/// ([`op2_core::serial::execute_natural`]): a one-rank march's bitwise oracle.
pub struct NaturalExecutor;

impl Executor for NaturalExecutor {
    fn name(&self) -> &'static str {
        "natural"
    }

    fn try_execute(&self, loop_: &ParLoop) -> Result<LoopHandle, LoopError> {
        Ok(LoopHandle::ready(op2_core::serial::execute_natural(loop_)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use op2_core::{arg_direct, Access, Dat, Set};

    /// Every blocking kind: the name it reports, and a direct loop with a
    /// reduction is complete — data visible, handle ready, nothing left to
    /// fence — the moment `execute` returns.
    #[test]
    fn every_kind_runs_to_completion_under_its_own_name() {
        for (kind, name, threads) in [
            (BackendKind::Serial, "serial", 1),
            (BackendKind::ForkJoin, "omp-forkjoin", 2),
            (BackendKind::ForEachAuto, "foreach-auto", 2),
            (BackendKind::ForEachStatic(4), "foreach-static", 2),
            (BackendKind::ForEachStatic(0), "foreach-static", 2),
            (BackendKind::Async, "foreach", 2),
            (BackendKind::Dataflow, "foreach", 2),
        ] {
            let exec = BlockingExecutor::new(Arc::new(Op2Runtime::new(threads, 16)), kind);
            assert_eq!(exec.name(), name, "{kind}");
            let cells = Set::new("cells", 777);
            let q = Dat::filled("q", &cells, 2, 1.0f64);
            let qv = q.view();
            let l = ParLoop::build("axpy", &cells)
                .arg(arg_direct(&q, Access::ReadWrite))
                .gbl_inc(1)
                .kernel(move |e, gbl| unsafe {
                    let [a, b] = qv.load(e);
                    qv.store(e, [a * 2.0 + 1.0, -b]);
                    gbl[0] += 1.0;
                });
            let h = exec.execute(&l);
            assert!(h.is_ready(), "{kind}");
            assert!(q.to_vec().chunks(2).all(|c| c == [3.0, -1.0]), "{kind}");
            assert_eq!(h.get(), vec![777.0], "{kind}");
            exec.fence();
        }
    }
}
