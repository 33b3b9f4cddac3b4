//! Fork-join baseline — the `#pragma omp parallel for` equivalent.
//!
//! OP2's stock OpenMP target wraps every loop (Fig. 5 of the paper) in
//! `#pragma omp parallel for` over plan blocks with a static schedule and an
//! **implicit global barrier at the end** — the fork-join model whose
//! sequential fractions Amdahl-limit scalability. This backend reproduces
//! those semantics on the HPX pool: blocks of each color are statically
//! partitioned into exactly one contiguous chunk per worker, and `execute`
//! blocks until the loop (and hence its barrier) is done.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use hpx_rt::ChunkSize;
use op2_core::ParLoop;

use crate::colored::run_colored;
use crate::handle::LoopHandle;
use crate::recover::LoopError;
use crate::runtime::Op2Runtime;
use crate::Executor;

/// OpenMP-style fork-join executor (the paper's baseline).
pub struct ForkJoinExecutor {
    rt: Arc<Op2Runtime>,
    last_instance: AtomicU64,
}

impl ForkJoinExecutor {
    /// Fork-join executor on `rt`.
    pub fn new(rt: Arc<Op2Runtime>) -> Self {
        ForkJoinExecutor {
            rt,
            last_instance: AtomicU64::new(0),
        }
    }
}

impl Executor for ForkJoinExecutor {
    fn name(&self) -> &'static str {
        "omp-forkjoin"
    }

    fn try_execute(&self, loop_: &ParLoop) -> Result<LoopHandle, LoopError> {
        // Plan-parameter tuning only: the static schedule (one contiguous
        // chunk per worker) *is* this backend's semantics, so the tuner's
        // chunk knob does not apply here.
        let (name, last) = (self.name(), &self.last_instance);
        self.rt.execute_blocking(loop_, name, last, ChunkSize::Default, true, |plan, _, cancel| {
            // schedule(static): ceil(nblocks / nthreads) blocks per worker chunk.
            let per_thread = plan.nblocks().div_ceil(self.rt.num_threads()).max(1);
            let chunk = ChunkSize::Static(per_thread);
            run_colored(self.rt.pool(), loop_, plan, chunk, Some(cancel))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use op2_core::{arg_direct, Access, Dat, Set};

    #[test]
    fn forkjoin_blocks_until_done() {
        let rt = Arc::new(Op2Runtime::new(2, 16));
        let cells = Set::new("cells", 500);
        let q = Dat::filled("q", &cells, 2, 1.0f64);
        let qv = q.view();
        let l = ParLoop::build("axpy", &cells)
            .arg(arg_direct(&q, Access::ReadWrite))
            .kernel(move |e, _| unsafe {
                let s = qv.slice_mut(e);
                s[0] = s[0] * 2.0 + 1.0;
                s[1] = -s[1];
            });
        let exec = ForkJoinExecutor::new(rt);
        let h = exec.execute(&l);
        // Synchronous: data visible immediately after execute returns.
        assert!(h.is_ready());
        let data = q.to_vec();
        assert!(data.chunks(2).all(|c| c == [3.0, -1.0]));
    }
}
