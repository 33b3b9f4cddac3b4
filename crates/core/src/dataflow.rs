//! §III-B — the dataflow backend with the modified OP2 API.
//!
//! In the paper's modified API, `op_arg_dat` produces *futures* and every
//! `op_par_loop` becomes a dataflow object (Fig. 12/13): it is invoked only
//! once all of its input futures are ready, and itself fulfils the futures of
//! its outputs. Chained over a whole application, this builds an execution
//! tree mirroring the algorithmic data dependencies (Fig. 14's
//! `data[t]`/`data[t-1]` chains), interleaving direct and indirect loops at
//! runtime with no global barriers and no manual `get()` placement.
//!
//! Implementation: the executor keeps an [`op2_core::deps`] table whose
//! producers are the loops' completion futures. Each loop waits on the edges
//! the table returns — read-after-write, write-after-write and
//! write-after-read, one future per producer — and the loop body is
//! scheduled with `dataflow` semantics ([`hpx_rt::when_all_shared_unit`] + a
//! continuation). Its completion future — the one future a loop has,
//! resolving to its reduction or its typed [`LoopError`] — is what the table
//! records for it. `execute` never blocks.

use std::sync::Arc;

use hpx_rt::{when_all_shared_unit, ChunkSize, Promise};
use op2_core::deps::{by_producer, Deps};
use op2_core::ParLoop;
use parking_lot::Mutex;

use crate::colored::run_colored;
use crate::handle::{LoopFuture, LoopHandle, Outstanding};
use crate::recover::{run_transaction, FailureKind, FenceReport, LoopError};
use crate::runtime::Op2Runtime;
use crate::{tracehooks, Executor};

/// A dat's readers since its last write are merged into one future past
/// this many.
const READER_COMPACT_THRESHOLD: usize = 64;

/// A dependency source: the producing loop's completion future plus its
/// trace loop-instance id (0 for compacted reader bundles).
type Dep = (LoopFuture, u64);

/// The first (in dependency order) failure among completed `deps`.
fn first_failure(deps: &[LoopFuture]) -> Option<LoopError> {
    deps.iter().find_map(|d| d.get().err())
}

/// Dataflow executor: automatic inter-loop dependency DAG from the declared
/// access modes (the paper's modified OP2 API).
pub struct DataflowExecutor {
    rt: Arc<Op2Runtime>,
    table: Mutex<Deps<u64, Dep>>,
    /// Every loop not yet known to have succeeded — failed nodes *and* the
    /// descendants they poisoned stay here, even once the table has moved on
    /// to later writers, until [`Executor::try_fence`] reports them.
    outstanding: Outstanding,
}

impl DataflowExecutor {
    /// Dataflow executor on `rt` (chunks of [`ChunkSize::Default`] unless
    /// the runtime's tuner has measured one).
    pub fn new(rt: Arc<Op2Runtime>) -> Self {
        DataflowExecutor {
            rt,
            table: Mutex::new(Deps::default()),
            outstanding: Outstanding::default(),
        }
    }

    /// Number of dats currently tracked in the dependency table.
    pub fn tracked_dats(&self) -> usize {
        self.table.lock().dats()
    }
}

impl Executor for DataflowExecutor {
    fn name(&self) -> &'static str {
        "dataflow"
    }

    fn try_execute(&self, loop_: &ParLoop) -> Result<LoopHandle, LoopError> {
        let (trial, plan, tuned) = self.rt.prepare(loop_, self.name(), Some(&[]))?;
        let chunk = tuned.unwrap_or(ChunkSize::Default);
        let pool = Arc::clone(self.rt.pool());
        let reads = loop_.dat_reads();
        let writes = loop_.dat_writes();

        // Gather dependency futures and record the loop. Loops are issued in
        // program order from one thread; the table lock makes the
        // read-modify-write atomic.
        let (promise, done) = Promise::with_pool(&pool);
        let done = done.share();
        let mut table = self.table.lock();
        let instance = tracehooks::next_instance();
        let edges = table.record(&reads, &writes, (done.clone(), instance));
        let deps: Vec<LoopFuture> = by_producer(edges)
            .map(|e| {
                let (fut, from) = &e[0].producer;
                tracehooks::edge(*from, instance);
                fut.clone()
            })
            .collect();
        // A dat that is read every iteration but (almost) never written —
        // e.g. mesh coordinates — would accumulate one reader per loop
        // forever. Compact its readers into a single future once they pile
        // up: the first failure among them, else an empty success.
        for id in &reads {
            table.merge_readers(id, READER_COMPACT_THRESHOLD, |readers| {
                let readers: Vec<LoopFuture> = readers.into_iter().map(|(f, _)| f).collect();
                let merged = when_all_shared_unit(&pool, &readers)
                    .then(&pool, move |()| first_failure(&readers).map_or(Ok(Vec::new()), Err))
                    .share();
                (merged, 0)
            });
        }

        // Register with the dataflow-ordering checker inside the same
        // critical section that builds the dependency edges, so the checker's
        // own table sees loops in exactly the executor's program order.
        let df_token = op2_core::det::dataflow_register(loop_.name(), &reads, &writes);

        // Fig. 13: dataflow(unwrapped([&]{ for_each(par, …); return out; }),
        // arg0 … argN) — the node fires when the last dependency resolves.
        // A failed dependency *poisons* it: it never runs, its write-set is
        // untouched, and its own future resolves to `Poisoned`, poisoning
        // exactly the RAW/WAW/WAR descendants while independent loops
        // proceed.
        let body_loop = loop_.clone();
        let body_pool = Arc::clone(&pool);
        let spawn_pool = Arc::clone(&pool);
        let cancel = self.rt.cancel_token().clone();
        let rollback = self.rt.rollback();
        when_all_shared_unit(&pool, &deps).finally(move |joined| {
            // `finally` runs on the thread that resolved the last dependency.
            // A pool worker that just finished a predecessor runs the node
            // next itself; a caller holding the table lock, or a worker
            // inside a wait, hands it to the pool. Never inline here, so a
            // long chain of poisoned descendants cannot recurse.
            spawn_pool.spawn_next(Box::new(move || {
                let origin = match joined {
                    Err(failure) => Some(failure.to_string()),
                    // A poisoned dependency passes its own origin on, so a
                    // chain names its root failure in constant space.
                    Ok(()) => first_failure(&deps).map(|e| match e.kind {
                        FailureKind::Poisoned { origin } => origin,
                        _ => e.to_string(),
                    }),
                };
                if let Some(origin) = origin {
                    tracehooks::poison(body_loop.name(), instance);
                    let kind = FailureKind::Poisoned { origin };
                    promise.set_value(Err(LoopError::new(body_loop.name(), "dataflow", kind, false)));
                    return;
                }
                op2_core::det::dataflow_begin(df_token);
                // The loop span covers the body only — from the last
                // dependency resolving to completion — so there is never a
                // barrier (or caller-side blocking) inside it.
                tracehooks::loop_begin(body_loop.name(), "dataflow", instance);
                let body_start = std::time::Instant::now();
                let result = run_transaction(&body_loop, "dataflow", rollback, || {
                    run_colored(&body_pool, &body_loop, &plan, chunk, Some(&cancel))
                });
                tracehooks::loop_end(instance);
                // Completion is recorded before the loop's future resolves,
                // so any dependent that begins afterwards observes it as
                // done.
                op2_core::det::dataflow_complete(df_token);
                // Credit the body only, not the dependency wait the DAG
                // imposed before it could start.
                if let (Ok(_), Some(t)) = (&result, trial) {
                    t.finish_with(body_start.elapsed().as_nanos() as u64);
                }
                promise.set_value(result);
            }));
        });
        drop(table);

        self.outstanding.push(done.clone());
        Ok(LoopHandle::pending(done).with_instance(instance))
    }

    fn try_fence(&self) -> Result<(), FenceReport> {
        self.outstanding.fence()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use op2_core::{arg_direct, arg_indirect, Access, Dat, Map, Set};

    /// save → compute → update chain on the same dats must execute in
    /// program order purely from the dependency table.
    #[test]
    fn dependent_loops_execute_in_order() {
        let rt = Arc::new(Op2Runtime::new(2, 16));
        let cells = Set::new("cells", 200);
        let q = Dat::filled("q", &cells, 1, 1.0f64);
        let qold = Dat::filled("qold", &cells, 1, 0.0f64);
        let exec = DataflowExecutor::new(rt);

        let qv = q.view();
        let qoldv = qold.view();

        // qold = q
        let save = ParLoop::build("save", &cells)
            .arg(arg_direct(&q, Access::Read))
            .arg(arg_direct(&qold, Access::Write))
            .kernel(move |e, _| unsafe {
                qoldv.set(e, 0, qv.get(e, 0));
            });
        // q = q * 3
        let triple = ParLoop::build("triple", &cells)
            .arg(arg_direct(&q, Access::ReadWrite))
            .kernel(move |e, _| unsafe {
                qv.set(e, 0, qv.get(e, 0) * 3.0);
            });
        // q = q + qold
        let add = ParLoop::build("add", &cells)
            .arg(arg_direct(&qold, Access::Read))
            .arg(arg_direct(&q, Access::ReadWrite))
            .kernel(move |e, _| unsafe {
                qv.set(e, 0, qv.get(e, 0) + qoldv.get(e, 0));
            });

        let _ = exec.execute(&save); // qold = 1
        let _ = exec.execute(&triple); // q = 3   (must wait for save: WAR on q)
        let _ = exec.execute(&add); // q = 4
        exec.fence();
        assert!(q.to_vec().iter().all(|&v| v == 4.0), "got {:?}", &q.to_vec()[..4]);
        assert!(qold.to_vec().iter().all(|&v| v == 1.0));
    }

    /// Independent loops (disjoint dats) may overlap; the fence still waits
    /// for both.
    #[test]
    fn independent_loops_both_complete() {
        let rt = Arc::new(Op2Runtime::new(2, 16));
        let cells = Set::new("cells", 500);
        let a = Dat::filled("a", &cells, 1, 0.0f64);
        let b = Dat::filled("b", &cells, 1, 0.0f64);
        let av = a.view();
        let bv = b.view();
        let la = ParLoop::build("la", &cells)
            .arg(arg_direct(&a, Access::Write))
            .kernel(move |e, _| unsafe { av.set(e, 0, 1.0) });
        let lb = ParLoop::build("lb", &cells)
            .arg(arg_direct(&b, Access::Write))
            .kernel(move |e, _| unsafe { bv.set(e, 0, 2.0) });
        let exec = DataflowExecutor::new(rt);
        let ha = exec.execute(&la);
        let hb = exec.execute(&lb);
        ha.wait();
        hb.wait();
        assert!(a.to_vec().iter().all(|&v| v == 1.0));
        assert!(b.to_vec().iter().all(|&v| v == 2.0));
    }

    /// Indirect increment chain after a producer write: RAW through a map.
    #[test]
    fn indirect_dependency_chain() {
        let rt = Arc::new(Op2Runtime::new(2, 4));
        let nedges = 64;
        let edges = Set::new("edges", nedges);
        let cells = Set::new("cells", nedges + 1);
        let mut table = Vec::new();
        for e in 0..nedges as u32 {
            table.push(e);
            table.push(e + 1);
        }
        let m = Map::new("pecell", &edges, &cells, 2, table);
        let w = Dat::filled("w", &cells, 1, 0.0f64);
        let res = Dat::filled("res", &cells, 1, 0.0f64);
        let wv = w.view();
        let rv = res.view();
        let mv = m.clone();

        // w = 1 everywhere (direct), then res[c] += w[c0] + w[c1] per edge.
        let init = ParLoop::build("init", &cells)
            .arg(arg_direct(&w, Access::Write))
            .kernel(move |e, _| unsafe { wv.set(e, 0, 1.0) });
        let gather = ParLoop::build("gather", &edges)
            .arg(arg_indirect(&w, 0, &m, Access::Read))
            .arg(arg_indirect(&w, 1, &m, Access::Read))
            .arg(arg_indirect(&res, 0, &m, Access::Inc))
            .arg(arg_indirect(&res, 1, &m, Access::Inc))
            .kernel(move |e, _| unsafe {
                let s = wv.get(mv.at(e, 0), 0) + wv.get(mv.at(e, 1), 0);
                rv.add(mv.at(e, 0), 0, s);
                rv.add(mv.at(e, 1), 0, s);
            });
        let exec = DataflowExecutor::new(rt);
        let _ = exec.execute(&init);
        let _ = exec.execute(&gather);
        exec.fence();
        let data = res.to_vec();
        assert_eq!(data[0], 2.0);
        assert!(data[1..nedges].iter().all(|&v| v == 4.0));
    }

    #[test]
    fn fence_idempotent_and_table_tracks_dats() {
        let rt = Arc::new(Op2Runtime::new(1, 16));
        let cells = Set::new("cells", 10);
        let a = Dat::filled("a", &cells, 1, 0.0f64);
        let av = a.view();
        let l = ParLoop::build("w", &cells)
            .arg(arg_direct(&a, Access::Write))
            .kernel(move |e, _| unsafe { av.set(e, 0, 1.0) });
        let exec = DataflowExecutor::new(rt);
        let _ = exec.execute(&l);
        exec.fence();
        exec.fence();
        assert_eq!(exec.tracked_dats(), 1);
    }
}
