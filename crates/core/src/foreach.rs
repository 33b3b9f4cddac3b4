//! §III-A1 — `hpx::parallel::for_each(par)` with runtime grain-size control.
//!
//! The OP2 code generator is re-targeted to emit `for_each(par, …)` instead
//! of `#pragma omp parallel for` (Fig. 6/7). The fork-join barrier remains —
//! this backend is still synchronous — but HPX picks the chunk size:
//! the **auto-partitioner** (sequentially execute ~1% of the loop, derive a
//! chunk from the measured per-iteration time) or a **static chunk size**,
//! whose comparison is exactly Fig. 16 of the paper.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use hpx_rt::ChunkSize;
use op2_core::ParLoop;

use crate::colored::run_colored;
use crate::handle::LoopHandle;
use crate::recover::LoopError;
use crate::runtime::Op2Runtime;
use crate::Executor;

/// `for_each(par)` executor with configurable grain size.
pub struct ForEachExecutor {
    rt: Arc<Op2Runtime>,
    chunk: ChunkSize,
    name: &'static str,
    last_instance: AtomicU64,
}

impl ForEachExecutor {
    /// `for_each(par)` with the HPX auto-partitioner (1% probe).
    pub fn auto(rt: Arc<Op2Runtime>) -> Self {
        ForEachExecutor {
            rt,
            chunk: ChunkSize::auto(),
            name: "foreach-auto",
            last_instance: AtomicU64::new(0),
        }
    }

    /// `for_each(par.with(static_chunk_size(size)))`.
    pub fn static_chunk(rt: Arc<Op2Runtime>, size: usize) -> Self {
        ForEachExecutor {
            rt,
            chunk: ChunkSize::Static(size.max(1)),
            name: "foreach-static",
            last_instance: AtomicU64::new(0),
        }
    }

    /// `for_each(par)` with an explicit chunk policy.
    pub fn with_chunk(rt: Arc<Op2Runtime>, chunk: ChunkSize) -> Self {
        ForEachExecutor {
            rt,
            chunk,
            name: "foreach",
            last_instance: AtomicU64::new(0),
        }
    }

    /// The configured chunk policy.
    pub fn chunk(&self) -> ChunkSize {
        self.chunk
    }
}

impl Executor for ForEachExecutor {
    fn name(&self) -> &'static str {
        self.name
    }

    fn try_execute(&self, loop_: &ParLoop) -> Result<LoopHandle, LoopError> {
        // Still fork-join: the caller is held at the implicit barrier for
        // the whole blocking call. A tuned chunk replaces the
        // auto-partitioner's 1%-probe one.
        let (name, last) = (self.name, &self.last_instance);
        self.rt.execute_blocking(loop_, name, last, self.chunk, true, |plan, chunk, cancel| {
            run_colored(self.rt.pool(), loop_, plan, chunk, Some(cancel))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use op2_core::{arg_direct, Access, Dat, Set};

    fn run_with(exec: &ForEachExecutor) {
        let cells = Set::new("cells", 777);
        let q = Dat::filled("q", &cells, 1, 2.0f64);
        let qv = q.view();
        let l = ParLoop::build("halve", &cells)
            .arg(arg_direct(&q, Access::ReadWrite))
            .kernel(move |e, _| unsafe {
                qv.slice_mut(e)[0] /= 2.0;
            });
        let h = exec.execute(&l);
        assert!(h.is_ready());
        assert!(q.to_vec().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn auto_partitioner_executes_correctly() {
        let rt = Arc::new(Op2Runtime::new(2, 32));
        run_with(&ForEachExecutor::auto(rt));
    }

    #[test]
    fn static_chunk_executes_correctly() {
        let rt = Arc::new(Op2Runtime::new(2, 32));
        run_with(&ForEachExecutor::static_chunk(rt, 4));
    }

    #[test]
    fn names_distinguish_variants() {
        let rt = Arc::new(Op2Runtime::new(1, 32));
        assert_eq!(ForEachExecutor::auto(Arc::clone(&rt)).name(), "foreach-auto");
        assert_eq!(
            ForEachExecutor::static_chunk(rt, 8).name(),
            "foreach-static"
        );
    }
}
