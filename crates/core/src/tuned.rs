//! The feedback-directed executor: lets the tuner pick the backend too.
//!
//! A fixed executor consults the tuner for *schedule knobs* (chunk size,
//! block size) but cannot change what it is. The [`TunedExecutor`]
//! closes the last loop: it offers the tuner a backend menu as well and runs
//! whatever shape comes back (`Op2Runtime::run_blocking`, which feeds the
//! measured wall time back). Execution is synchronous — the caller waits for
//! every loop, which is exactly what makes the candidates' wall times
//! comparable — so the menu holds the shapes that differ when waited on; a
//! futurized backend is, fenced loop by loop, the `for_each` arm plus a spawn
//! and a cross-thread wake (the ones a dataflow node skips only when a pool
//! worker, not the waiting caller, readies it).

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use op2_core::ParLoop;
use op2_tune::BackendChoice;

use crate::factory::BackendKind;
use crate::handle::LoopHandle;
use crate::recover::LoopError;
use crate::runtime::Op2Runtime;
use crate::Executor;

/// Backend menu offered to the tuner, cheapest-to-coordinate first.
pub const TUNABLE_BACKENDS: [BackendChoice; 3] = [
    BackendChoice::ForkJoin,
    BackendChoice::ForEach,
    BackendChoice::Serial,
];

/// Executor whose backend, chunk size, and block size are all picked by
/// the runtime's tuner; plain fork-join when the runtime carries no tuner.
pub struct TunedExecutor {
    rt: Arc<Op2Runtime>,
    last_instance: AtomicU64,
}

impl TunedExecutor {
    /// Tuned executor on `rt`.
    pub fn new(rt: Arc<Op2Runtime>) -> Self {
        TunedExecutor {
            rt,
            last_instance: AtomicU64::new(0),
        }
    }
}

impl Executor for TunedExecutor {
    fn name(&self) -> &'static str {
        "tuned"
    }

    fn try_execute(&self, loop_: &ParLoop) -> Result<LoopHandle, LoopError> {
        // A failed run yields no observation: its wall time measures the
        // failure path, not the candidate.
        let menu = Some(&TUNABLE_BACKENDS[..]);
        self.rt.run_blocking(loop_, BackendKind::ForkJoin, menu, &self.last_instance).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use op2_core::{arg_direct, Access, Dat, Set};
    use op2_tune::Tuner;

    fn square_loop(n: usize) -> (ParLoop, Dat<f64>) {
        let cells = Set::new("cells", n);
        let q = Dat::filled("q", &cells, 1, 3.0f64);
        let qv = q.view();
        let l = ParLoop::build("square", &cells)
            .arg(arg_direct(&q, Access::ReadWrite))
            .kernel(move |e, _| unsafe {
                let [v] = qv.load(e);
                qv.store(e, [v * v]);
            });
        (l, q)
    }

    #[test]
    fn untuned_runtime_falls_back() {
        let rt = Arc::new(Op2Runtime::new(2, 32));
        let (l, q) = square_loop(256);
        let exec = TunedExecutor::new(rt);
        let h = exec.execute(&l);
        assert!(h.is_ready());
        assert!(q.to_vec().iter().all(|&v| v == 9.0));
    }

    #[test]
    fn tuned_runtime_explores_and_stays_correct() {
        let tuner = Arc::new(Tuner::with_seed(7));
        let rt = Arc::new(Op2Runtime::new(2, 32).with_tuner(Arc::clone(&tuner)));
        let exec = TunedExecutor::new(Arc::clone(&rt));
        // Drive the same loop shape repeatedly: every exploration trial must
        // produce the same bits regardless of which backend it lands on.
        for _ in 0..40 {
            let (l, q) = square_loop(512);
            let h = exec.execute(&l);
            h.wait();
            assert!(q.to_vec().iter().all(|&v| v == 9.0));
        }
        assert!(!tuner.snapshot().is_empty());
    }
}
