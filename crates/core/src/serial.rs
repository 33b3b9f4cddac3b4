//! Serial reference backend.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use hpx_rt::ChunkSize;
use op2_core::ParLoop;

use crate::colored::run_plan_order_tracked;
use crate::handle::LoopHandle;
use crate::recover::LoopError;
use crate::runtime::Op2Runtime;
use crate::Executor;

/// Executes loops sequentially in plan order — the oracle every parallel
/// backend must match bitwise (see [`op2_core::serial`]).
pub struct SerialExecutor {
    rt: Arc<Op2Runtime>,
    last_instance: AtomicU64,
}

impl SerialExecutor {
    /// Serial executor sharing `rt`'s plan cache.
    pub fn new(rt: Arc<Op2Runtime>) -> Self {
        SerialExecutor {
            rt,
            last_instance: AtomicU64::new(0),
        }
    }
}

impl Executor for SerialExecutor {
    fn name(&self) -> &'static str {
        "serial"
    }

    fn try_execute(&self, loop_: &ParLoop) -> Result<LoopHandle, LoopError> {
        let (name, last) = (self.name(), &self.last_instance);
        self.rt.execute_blocking(loop_, name, last, ChunkSize::Default, false, |plan, _, cancel| {
            run_plan_order_tracked(loop_, plan, Some(cancel))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use op2_core::{arg_direct, Access, Dat, Set};

    #[test]
    fn serial_executes_immediately() {
        let rt = Arc::new(Op2Runtime::new(1, 16));
        let cells = Set::new("cells", 64);
        let q = Dat::filled("q", &cells, 1, 1.0f64);
        let qv = q.view();
        let l = ParLoop::build("inc", &cells)
            .arg(arg_direct(&q, Access::ReadWrite))
            .gbl_inc(1)
            .kernel(move |e, gbl| unsafe {
                qv.slice_mut(e)[0] += 1.0;
                gbl[0] += 1.0;
            });
        let exec = SerialExecutor::new(rt);
        let h = exec.execute(&l);
        assert!(h.is_ready());
        assert_eq!(h.get(), vec![64.0]);
        assert!(q.to_vec().iter().all(|&v| v == 2.0));
        exec.fence();
    }
}
