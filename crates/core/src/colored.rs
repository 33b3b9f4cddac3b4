//! Color-by-color loop body execution, shared by all parallel backends.
//!
//! Every backend executes the same *plan structure* — colors in ascending
//! order; within a color, blocks distributed over the pool; within a block,
//! elements in ascending order; global reductions accumulated per block and
//! combined in block order. Because two same-colored blocks never touch the
//! same indirect target, results are **bitwise identical** across backends
//! and schedules; only the *synchronization* between colors/loops differs:
//!
//! * [`run_colored`] — blocking: a fork-join barrier after every color
//!   (what `#pragma omp parallel for` and `for_each(par)` do), except that a
//!   color predicted to take less than the pool's hand-off cost runs on the
//!   caller with no barrier at all (the grain floor);
//! * [`run_colored_task`] — non-blocking: colors are chained with future
//!   continuations and the whole loop completes a future
//!   (what `for_each(par(task))` enables).
//!
//! Both trust the plan's coloring, so both are crate-private: every caller
//! passes a plan `Op2Runtime::prepare` has validated.

use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use hpx_rt::{
    for_each_chunk_cancel, for_each_index_task_cancel, par, par_task, CancelToken, Cancelled,
    ChunkSize, Pool, Promise, TaskFailure, TaskPanic,
};
use op2_core::{GlobalAcc, KernelFn, ParLoop, Plan};
use op2_trace::{EventKind, NO_NAME};

/// Run one plan block's elements, handing the kernel the cell it keeps
/// pointed at the element under execution, so a kernel panic is re-raised as
/// a [`TaskPanic`] with loop/element provenance (the exact element for a
/// body derived from a per-element closure, the block's first for a body
/// written per span). Blocking runners catch it as a payload; the futures of
/// the asynchronous color chain carry it as a [`TaskFailure`].
pub(crate) fn run_block(
    loop_name: &str,
    kernel: &KernelFn,
    block: std::ops::Range<usize>,
    scratch: &mut [f64],
) {
    let current = Cell::new(block.start);
    let result = catch_unwind(AssertUnwindSafe(|| kernel(block, scratch, &current)));
    if let Err(p) = result {
        resume_unwind(Box::new(TaskPanic::wrap(p, current.get(), loop_name)));
    }
}

/// Serial plan-order execution with element tracking — the transactional
/// serial backend's body. Iteration order (colors ascending, blocks in color
/// order, elements ascending, block-ordered reduction combine) is exactly
/// [`op2_core::serial::execute_plan_order`]'s, so results are bitwise
/// identical to the untracked oracle.
pub(crate) fn run_plan_order_tracked(
    loop_: &ParLoop,
    plan: &Plan,
    cancel: Option<&CancelToken>,
) -> Vec<f64> {
    let kernel = loop_.kernel();
    let acc = GlobalAcc::with_op(loop_.gbl_dim(), plan.nblocks(), loop_.gbl_op());
    for color in &plan.color_blocks {
        if let Some(reason) = cancel.and_then(CancelToken::check) {
            resume_unwind(Box::new(Cancelled(reason)));
        }
        for &b in color {
            let b = b as usize;
            let mut scratch = acc.scratch();
            run_block(loop_.name(), kernel, plan.blocks[b].clone(), &mut scratch);
            acc.store(b, scratch);
        }
    }
    acc.combine()
}

/// Execute `loop_` under `plan`, blocking until every color has completed.
/// Returns the global reduction (empty when none declared).
///
/// The grain floor: a color whose predicted time — its element count times
/// the loop's measured [`ParLoop::work_per_element`] — is under the pool's
/// [`Pool::handoff_floor`] runs its blocks in plan order on the calling
/// thread, with no spawn and no latch; every other color goes to the pool in
/// `chunk`s. Every run records the kernel's busy time for the next one to
/// predict from, so a loop's first run is parallel throughout, and a pool
/// whose floor is zero never inlines.
pub(crate) fn run_colored<P: Pool + ?Sized>(
    pool: &P,
    loop_: &ParLoop,
    plan: &Plan,
    chunk: ChunkSize,
    cancel: Option<&CancelToken>,
) -> Vec<f64> {
    let kernel = loop_.kernel();
    let name = loop_.name();
    let acc = GlobalAcc::with_op(loop_.gbl_dim(), plan.nblocks(), loop_.gbl_op());
    let floor_ns = pool.handoff_floor().as_nanos() as f64;
    let work_ns = loop_.work_per_element();
    let busy_ns = AtomicU64::new(0);
    for color in &plan.color_blocks {
        // Cooperative cancellation between colors (the per-chunk checks
        // inside for_each cover long colors).
        if let Some(reason) = cancel.and_then(CancelToken::check) {
            resume_unwind(Box::new(Cancelled(reason)));
        }
        let run = |blocks: Range<usize>| {
            let start = Instant::now();
            for b in &color[blocks] {
                let b = *b as usize;
                let mut scratch = acc.scratch();
                run_block(name, kernel, plan.blocks[b].clone(), &mut scratch);
                acc.store(b, scratch);
            }
            busy_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        };
        let elements = || -> usize { color.iter().map(|&b| plan.blocks[b as usize].len()).sum() };
        if work_ns.is_some_and(|ns| elements() as f64 * ns < floor_ns) {
            // Recorded as a task of the caller's own, so a trace counts it
            // as work, not as time held at the loop's barrier.
            let span = op2_trace::begin();
            run(0..color.len());
            op2_trace::end(span, EventKind::Task, NO_NAME, 0, 0);
        } else {
            // Implicit barrier here: for_each waits for all blocks of this
            // color before the next color starts.
            for_each_chunk_cancel(pool, par().with_chunk(chunk), 0..color.len(), cancel, run);
        }
    }
    loop_.record_work(busy_ns.into_inner(), plan.set_size);
    acc.combine()
}

/// Execute `loop_` under `plan` asynchronously: colors are sequenced with
/// continuations (no thread ever blocks) and the returned future is
/// fulfilled with the global reduction after the last color — or fails with
/// the first color's [`TaskFailure`] (kernel panic with its element, or the
/// cancel reason).
pub(crate) fn run_colored_task(
    pool: &Arc<dyn Pool>,
    loop_: &ParLoop,
    plan: &Arc<Plan>,
    chunk: ChunkSize,
    cancel: Option<CancelToken>,
) -> hpx_rt::Future<Vec<f64>> {
    let (promise, future) = Promise::<Vec<f64>>::with_pool(pool);
    let ctx = Arc::new(ChainCtx {
        pool: Arc::clone(pool),
        plan: Arc::clone(plan),
        name: loop_.name().to_owned(),
        kernel: loop_.kernel().clone(),
        acc: GlobalAcc::with_op(loop_.gbl_dim(), plan.nblocks(), loop_.gbl_op()),
        chunk,
        cancel,
    });
    launch_color(ctx, 0, promise);
    future
}

struct ChainCtx {
    pool: Arc<dyn Pool>,
    plan: Arc<Plan>,
    name: String,
    kernel: KernelFn,
    acc: GlobalAcc,
    chunk: ChunkSize,
    cancel: Option<CancelToken>,
}

fn launch_color(ctx: Arc<ChainCtx>, color_idx: usize, promise: Promise<Vec<f64>>) {
    if color_idx == ctx.plan.color_blocks.len() {
        promise.set_value(ctx.acc.combine());
        return;
    }
    // Cooperative cancellation between colors, mirroring the blocking path.
    if let Some(reason) = ctx.cancel.as_ref().and_then(CancelToken::check) {
        promise.set_failure(TaskFailure::Cancelled(reason));
        return;
    }
    let nblocks = ctx.plan.color_blocks[color_idx].len();
    let body_ctx = Arc::clone(&ctx);
    let fut = for_each_index_task_cancel(
        &ctx.pool,
        par_task().with_chunk(ctx.chunk),
        0..nblocks,
        ctx.cancel.as_ref(),
        move |i| {
            let b = body_ctx.plan.color_blocks[color_idx][i] as usize;
            let mut scratch = body_ctx.acc.scratch();
            run_block(
                &body_ctx.name,
                &body_ctx.kernel,
                body_ctx.plan.blocks[b].clone(),
                &mut scratch,
            );
            body_ctx.acc.store(b, scratch);
        },
    );
    fut.finally(move |res| match res {
        Ok(()) => launch_color(ctx, color_idx + 1, promise),
        Err(failure) => promise.set_failure(failure),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpx_rt::ThreadPool;
    use op2_core::{arg_direct, arg_indirect, serial, Access, Dat, Map, Set};

    /// Chain mesh fixture: each edge increments its two endpoint cells.
    fn chain_loop(nedges: usize) -> (ParLoop, Dat<f64>) {
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
            .gbl_inc(1)
            .kernel(move |e, gbl| unsafe {
                rv.add(mv.at(e, 0), 0, 1.0);
                rv.add(mv.at(e, 1), 0, 1.0);
                gbl[0] += 1.0;
            });
        (l, res)
    }

    #[test]
    fn blocking_matches_serial_plan_order() -> Result<(), op2_core::PlanError> {
        let (l, res) = chain_loop(500);
        let plan = Arc::new(Plan::build(l.set(), l.args(), 16));
        plan.validate(l.args())?;
        let pool = ThreadPool::new(4);
        let gbl = run_colored(&pool, &l, &plan, ChunkSize::Default, None);
        assert_eq!(gbl, vec![500.0]);
        let got = res.to_vec();

        // Re-run serially from scratch for the oracle.
        let (l2, res2) = chain_loop(500);
        let plan2 = Plan::build(l2.set(), l2.args(), 16);
        let gbl2 = serial::execute_plan_order(&l2, &plan2);
        assert_eq!(gbl2, vec![500.0]);
        assert_eq!(got, res2.to_vec());
        Ok(())
    }

    #[test]
    fn task_variant_matches_blocking() {
        let (l, res) = chain_loop(333);
        let plan = Arc::new(Plan::build(l.set(), l.args(), 8));
        let pool: Arc<dyn Pool> = Arc::new(ThreadPool::new(2));
        let fut = run_colored_task(&pool, &l, &plan, ChunkSize::Default, None);
        let gbl = fut.get();
        assert_eq!(gbl, vec![333.0]);
        let got = res.to_vec();

        let (l2, res2) = chain_loop(333);
        let plan2 = Plan::build(l2.set(), l2.args(), 8);
        serial::execute_plan_order(&l2, &plan2);
        assert_eq!(got, res2.to_vec());
    }

    #[test]
    fn direct_loop_single_color() {
        let cells = Set::new("cells", 100);
        let q = Dat::filled("q", &cells, 1, 1.0f64);
        let qv = q.view();
        let l = ParLoop::build("triple", &cells)
            .arg(arg_direct(&q, Access::ReadWrite))
            .kernel(move |e, _| unsafe {
                qv.set(e, 0, qv.get(e, 0) * 3.0);
            });
        let plan = Plan::build(l.set(), l.args(), 10);
        let pool = ThreadPool::new(2);
        run_colored(&pool, &l, &plan, ChunkSize::Static(2), None);
        assert!(q.to_vec().iter().all(|&v| v == 3.0));
    }

    #[test]
    fn task_variant_panic_propagates() {
        let cells = Set::new("cells", 10);
        // Raise a *typed* failure payload rather than a bare string panic:
        // this is what kernels that want provenance preserved should do,
        // and what every catcher (supervisor, handles) downcasts for.
        let l = ParLoop::build("bad", &cells).kernel(|e, _| {
            if e == 5 {
                std::panic::panic_any(hpx_rt::TaskPanic {
                    message: "injected kernel failure".into(),
                    element: Some(e),
                    context: Some("bad".into()),
                });
            }
        });
        let plan = Arc::new(Plan::build(l.set(), l.args(), 2));
        let pool: Arc<dyn Pool> = Arc::new(ThreadPool::new(1));
        // One channel: the typed failure arrives through the future alone,
        // both for a continuation and for a `get()` that rethrows it.
        let (tx, rx) = std::sync::mpsc::channel();
        run_colored_task(&pool, &l, &plan, ChunkSize::Default, None).finally(move |res| {
            let _ = tx.send(res);
        });
        match rx.recv().expect("the chain completes its future") {
            Err(TaskFailure::Panic(tp)) => {
                assert_eq!(tp.element, Some(5));
                assert!(tp.message.contains("injected kernel failure"), "{tp}");
            }
            other => panic!("the future must carry the typed failure, got {other:?}"),
        }
        let fut = run_colored_task(&pool, &l, &plan, ChunkSize::Default, None);
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fut.get())) {
            Ok(gbl) => panic!("kernel panic must propagate, got {gbl:?}"),
            Err(payload) => {
                let msg = hpx_rt::panic_message(&payload);
                assert!(msg.contains("injected kernel failure"), "{msg}");
                assert!(msg.contains("element 5"), "{msg}");
            }
        }
    }
}
