//! §III-A2 — `async` + `for_each(par(task))`: loops return futures.
//!
//! Direct loops are wrapped in `hpx::async` (one task running the parallel
//! loop, Fig. 8); indirect loops use `for_each(par(task))` with colors chained
//! by continuations (Fig. 9). Either way `execute` returns **immediately**
//! with a future — the global end-of-loop barrier is gone.
//!
//! ⚠ Exactly as in the paper (Fig. 10), this backend does **not** order
//! loops automatically: "the placement of `new_data.get()` depends on the
//! application and the programmer should put them manually in the correct
//! place by considering the data dependency between loops." Callers must
//! `wait()`/`get()` a loop's handle before issuing a conflicting loop —
//! the dataflow backend (§III-B) is the cure for that burden.

use std::sync::Arc;

use hpx_rt::{async_spawn, ChunkSize, Promise};
use op2_core::ParLoop;

use crate::colored::{run_colored, run_colored_task};
use crate::handle::{LoopHandle, Outstanding};
use crate::recover::{run_transaction, FenceReport, LoopError, Transaction};
use crate::runtime::Op2Runtime;
use crate::{tracehooks, Executor};

/// Future-returning executor (`async` for direct loops,
/// `for_each(par(task))` for indirect ones).
pub struct AsyncExecutor {
    rt: Arc<Op2Runtime>,
    outstanding: Outstanding,
}

impl AsyncExecutor {
    /// Async executor on `rt` (chunks of [`ChunkSize::Default`] unless the
    /// runtime's tuner has measured one).
    pub fn new(rt: Arc<Op2Runtime>) -> Self {
        AsyncExecutor {
            rt,
            outstanding: Outstanding::default(),
        }
    }
}

impl Executor for AsyncExecutor {
    fn name(&self) -> &'static str {
        "async-foreach"
    }

    fn try_execute(&self, loop_: &ParLoop) -> Result<LoopHandle, LoopError> {
        let (trial, plan, tuned) = self.rt.prepare(loop_, self.name(), Some(&[]))?;
        let chunk = tuned.unwrap_or(ChunkSize::Default);
        let pool = Arc::clone(self.rt.pool());
        let cancel = self.rt.cancel_token().clone();
        let rollback = self.rt.rollback();
        let instance = tracehooks::next_instance();
        // This backend has no automatic ordering: the caller's explicit
        // `.get()`/`wait()` placements *are* the dependency statements, so
        // the measured graph edges run from every instance this thread
        // synchronized on since its last issue to the new loop.
        for synced in tracehooks::synced_drain() {
            tracehooks::edge(synced, instance);
        }
        let loop_ = loop_.clone();
        let fut = if loop_.is_direct() {
            // Fig. 8: return async(launch::async, [=]{ for_each(par, …) }).
            // The whole transaction (snapshot → run → rollback-on-failure)
            // runs inside the spawned task, so a snapshot is taken when the
            // task starts, not at issue time.
            let pool2 = Arc::clone(&pool);
            async_spawn(&pool, move || {
                tracehooks::loop_begin(loop_.name(), "async-foreach", instance);
                let body_start = std::time::Instant::now();
                let result = run_transaction(&loop_, "async-foreach", rollback, || {
                    run_colored(&pool2, &loop_, &plan, chunk, Some(&cancel))
                });
                tracehooks::loop_end(instance);
                // Credit the body only — queueing before the task started
                // is scheduler noise, not this config's cost.
                if let (Ok(_), Some(t)) = (&result, trial) {
                    t.finish_with(body_start.elapsed().as_nanos() as u64);
                }
                result
            })
        } else {
            // Fig. 9: for_each(par(task)) — continuation-chained colors.
            // The first color launches before this call returns, so the
            // transaction must begin *now*; the backend's
            // manual-synchronization contract (callers wait before issuing a
            // conflicting loop) makes issue time a consistent point. It is
            // finished by the chain's last continuation.
            tracehooks::loop_begin(loop_.name(), "async-foreach", instance);
            let tx = Transaction::begin(&loop_, "async-foreach", rollback);
            let (promise, fut) = Promise::with_pool(&pool);
            run_colored_task(&pool, &loop_, &plan, chunk, Some(cancel)).finally(move |res| {
                let result = tx.finish(&loop_, res.map_err(Into::into));
                tracehooks::loop_end(instance);
                // The first color launched at issue, so issue→completion is
                // the body's wall time.
                if let (Ok(_), Some(t)) = (&result, trial) {
                    t.finish();
                }
                promise.set_value(result);
            });
            fut
        };
        let fut = fut.share();
        self.outstanding.push(fut.clone());
        Ok(LoopHandle::pending(fut).with_instance(instance))
    }

    fn try_fence(&self) -> Result<(), FenceReport> {
        let report = self.outstanding.fence();
        // Everything is complete now: discard synced-with instances so they
        // don't become spurious trace edges into a later program's loops.
        let _ = tracehooks::synced_drain();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use op2_core::{arg_direct, arg_indirect, Access, Dat, Map, Set};

    #[test]
    fn direct_loop_returns_future() {
        let rt = Arc::new(Op2Runtime::new(2, 16));
        let cells = Set::new("cells", 300);
        let q = Dat::filled("q", &cells, 1, 1.0f64);
        let qv = q.view();
        let l = ParLoop::build("inc", &cells)
            .arg(arg_direct(&q, Access::ReadWrite))
            .gbl_inc(1)
            .kernel(move |e, gbl| unsafe {
                qv.add(e, 0, 1.0);
                gbl[0] += 1.0;
            });
        let exec = AsyncExecutor::new(rt);
        let h = exec.execute(&l);
        assert_eq!(h.get(), vec![300.0]);
        assert!(q.to_vec().iter().all(|&v| v == 2.0));
    }

    #[test]
    fn indirect_loop_returns_future() {
        let rt = Arc::new(Op2Runtime::new(2, 8));
        let nedges = 100;
        let edges = Set::new("edges", nedges);
        let cells = Set::new("cells", nedges + 1);
        let mut table = Vec::new();
        for e in 0..nedges as u32 {
            table.push(e);
            table.push(e + 1);
        }
        let m = Map::new("pecell", &edges, &cells, 2, table);
        let res = Dat::filled("res", &cells, 1, 0.0f64);
        let rv = res.view();
        let mv = m.clone();
        let l = ParLoop::build("inc", &edges)
            .arg(arg_indirect(&res, 0, &m, Access::Inc))
            .arg(arg_indirect(&res, 1, &m, Access::Inc))
            .kernel(move |e, _| unsafe {
                rv.add(mv.at(e, 0), 0, 1.0);
                rv.add(mv.at(e, 1), 0, 1.0);
            });
        let exec = AsyncExecutor::new(rt);
        let h = exec.execute(&l);
        h.wait();
        let data = res.to_vec();
        assert_eq!(data[0], 1.0);
        assert!(data[1..nedges].iter().all(|&v| v == 2.0));
    }

    #[test]
    fn fence_drains_outstanding() {
        let rt = Arc::new(Op2Runtime::new(1, 16));
        let cells = Set::new("cells", 100);
        let q = Dat::filled("q", &cells, 1, 0.0f64);
        let qv = q.view();
        let exec = AsyncExecutor::new(rt);
        // Issue several *independent* loops on disjoint dats — the async
        // backend does not order conflicting loops.
        let mut loops = Vec::new();
        for _ in 0..4 {
            let l = ParLoop::build("inc", &cells)
                .arg(arg_direct(&q, Access::ReadWrite))
                .kernel(move |e, _| unsafe {
                    qv.add(e, 0, 0.0); // no-op increment keeps them commutative
                });
            loops.push(l);
        }
        for l in &loops {
            let _ = exec.execute(l);
        }
        exec.fence();
        assert_eq!(exec.outstanding.len(), 0);
    }

    /// A march that fences once at its end must not hold every loop it ever
    /// issued: entries that completed `Ok` leave the list as later loops are
    /// issued, while a failed one stays until a fence has reported it.
    #[test]
    fn outstanding_stays_bounded_and_keeps_failures_for_the_fence() {
        let rt = Arc::new(Op2Runtime::new(1, 16));
        let cells = Set::new("cells", 16);
        let q = Dat::filled("q", &cells, 1, 0.0f64);
        let qv = q.view();
        let exec = AsyncExecutor::new(rt);
        let bad = ParLoop::build("bad", &cells)
            .arg(arg_direct(&q, Access::ReadWrite))
            .kernel(|e, _| assert_ne!(e, 3, "injected kernel failure"));
        let failed = exec.execute(&bad).try_wait().expect_err("the kernel panics");
        let inc = ParLoop::build("inc", &cells)
            .arg(arg_direct(&q, Access::ReadWrite))
            .kernel(move |e, _| unsafe { qv.add(e, 0, 1.0) });
        for _ in 0..2_000 {
            exec.execute(&inc).wait();
            assert!(exec.outstanding.len() <= crate::handle::PRUNE_FLOOR);
        }
        let report = exec.try_fence().expect_err("the early failure is still reported");
        assert_eq!(report.failures, [failed]);
        assert_eq!(exec.outstanding.len(), 0);
        assert!(q.to_vec().iter().all(|&v| v == 2_000.0));
    }
}
