//! Dataflow — delayed function invocation on futures (Fig. 11 of the paper).
//!
//! A *dataflow object* encapsulates a function `F(in_1, …, in_n)`: as soon as
//! the **last** input future becomes ready, `F` is scheduled for execution as
//! a new pool task. Non-future arguments are simply captured by the closure.
//! Chaining dataflow calls builds an execution tree that mirrors the
//! algorithmic data dependencies of the application — the property the
//! paper's modified OP2 API exploits to interleave direct and indirect loops
//! at runtime.
//!
//! This module provides fixed-arity [`dataflow1`]–[`dataflow4`] plus the
//! variadic [`when_all`] / [`when_all_unit`] / [`when_all_shared_unit`]
//! combinators the OP2 backend uses for arbitrary argument counts. The
//! variadic ones, and the chunk fan-out of
//! [`crate::for_each_index_task_cancel`], count down on the one `Join`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::future::{run_as_task, Future, Outcome, SharedFuture, TaskFailure};
use crate::pool::Pool;

/// The runtime's one join: after `n` arrivals it calls `done` — exactly once,
/// on the thread of the last arrival — with the first failure any of them
/// reported, or `Ok(())`.
pub(crate) struct Join<D> {
    remaining: AtomicUsize,
    /// The first failure so far, and `done` until it has been called.
    slot: Mutex<(Option<TaskFailure>, Option<D>)>,
}

impl<D: FnOnce(Outcome<()>)> Join<D> {
    /// A join over `n` arrivals; with none to wait for, `done` runs at once.
    pub(crate) fn new(n: usize, done: D) -> Arc<Self> {
        let join = Arc::new(Join {
            remaining: AtomicUsize::new(n.max(1)),
            slot: Mutex::new((None, Some(done))),
        });
        if n == 0 {
            join.arrive(Ok(()));
        }
        join
    }

    pub(crate) fn arrive(&self, outcome: Outcome<()>) {
        if let Err(failure) = outcome {
            self.slot.lock().0.get_or_insert(failure);
        }
        // AcqRel: the last arrival must see what the earlier ones wrote
        // before they counted down (their failure, their `when_all` slot).
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let (failure, done) = std::mem::take(&mut *self.slot.lock());
            done.expect("join completed twice")(failure.map_or(Ok(()), Err));
        }
    }
}

/// Combine a vector of futures into one future of all their values, in input
/// order (the analogue of `hpx::when_all`).
///
/// If any input's producer panicked, the first captured panic is re-thrown by
/// `get()` on the combined future.
pub fn when_all<T: Send + 'static>(
    pool: &(impl Pool + ?Sized),
    futures: Vec<Future<T>>,
) -> Future<Vec<T>> {
    let (out, future) = Future::new_pair(Some(pool.spawner()));
    let slots: Arc<Mutex<Vec<Option<T>>>> =
        Arc::new(Mutex::new(futures.iter().map(|_| None).collect()));
    let filled = Arc::clone(&slots);
    // With no arrival failed, every slot has been filled.
    let join = Join::new(futures.len(), move |res: Outcome<()>| {
        out.complete(res.map(|()| filled.lock().drain(..).flatten().collect()))
    });
    for (i, fut) in futures.into_iter().enumerate() {
        let (join, slots) = (Arc::clone(&join), Arc::clone(&slots));
        fut.finally(move |res| join.arrive(res.map(|v| slots.lock()[i] = Some(v))));
    }
    future
}

/// [`when_all`] specialised for `Future<()>`: no value storage, just a
/// countdown. Used for pure dependency edges.
pub fn when_all_unit(pool: &(impl Pool + ?Sized), futures: Vec<Future<()>>) -> Future<()> {
    let (out, future) = Future::new_pair(Some(pool.spawner()));
    let join = Join::new(futures.len(), move |res| out.complete(res));
    for fut in futures {
        let join = Arc::clone(&join);
        fut.finally(move |res| join.arrive(res));
    }
    future
}

/// Dependency-join over *shared* futures: ready when every input is ready,
/// failed if one of them failed. The inputs' values are not looked at.
///
/// This is the combinator behind the dataflow OP2 backend, where one loop
/// may be awaited by several subsequent loops.
pub fn when_all_shared_unit<T: Clone + Send + 'static>(
    pool: &(impl Pool + ?Sized),
    deps: &[SharedFuture<T>],
) -> Future<()> {
    op2_trace::instant(
        op2_trace::EventKind::Mark,
        op2_trace::intern("when-all"),
        deps.len() as u64,
        0,
    );
    let (out, future) = Future::new_pair(Some(pool.spawner()));
    let join = Join::new(deps.len(), move |res| out.complete(res));
    for dep in deps {
        let join = Arc::clone(&join);
        dep.shared.on_ready(move |shared| {
            join.arrive(shared.peek(|res| res.as_ref().map(drop).map_err(Clone::clone)))
        });
    }
    future
}

/// Run `f(a)` as a new task once `a` is ready (`hpx::dataflow` arity 1).
pub fn dataflow1<A, R, F>(pool: &(impl Pool + ?Sized), f: F, a: Future<A>) -> Future<R>
where
    A: Send + 'static,
    R: Send + 'static,
    F: FnOnce(A) -> R + Send + 'static,
{
    // `then` already has exactly these semantics (continuation scheduled as a
    // task when the input becomes ready).
    a.then(pool, f)
}

/// Run `f(a, b)` as a new task once **both** inputs are ready.
pub fn dataflow2<A, B, R, F>(
    pool: &(impl Pool + ?Sized),
    f: F,
    a: Future<A>,
    b: Future<B>,
) -> Future<R>
where
    A: Send + 'static,
    B: Send + 'static,
    R: Send + 'static,
    F: FnOnce(A, B) -> R + Send + 'static,
{
    let (run, out) = run_as_task(pool, move |(a, b)| f(a, b));
    // Chained registrations, no counter: the inner one is made once `a` is
    // ready and fires at once if `b` already completed — so `f` runs after
    // the *last* input, as Fig. 11 specifies.
    a.finally(move |ra| b.finally(move |rb| run(ra.and_then(|a| rb.map(|b| (a, b))))));
    out
}

/// Run `f(a, b, c)` as a new task once all three inputs are ready.
pub fn dataflow3<A, B, C, R, F>(
    pool: &(impl Pool + ?Sized),
    f: F,
    a: Future<A>,
    b: Future<B>,
    c: Future<C>,
) -> Future<R>
where
    A: Send + 'static,
    B: Send + 'static,
    C: Send + 'static,
    R: Send + 'static,
    F: FnOnce(A, B, C) -> R + Send + 'static,
{
    let ab = dataflow2(pool, |a, b| (a, b), a, b);
    dataflow2(pool, move |(a, b), c| f(a, b, c), ab, c)
}

/// Run `f(a, b, c, d)` as a new task once all four inputs are ready.
pub fn dataflow4<A, B, C, D, R, F>(
    pool: &(impl Pool + ?Sized),
    f: F,
    a: Future<A>,
    b: Future<B>,
    c: Future<C>,
    d: Future<D>,
) -> Future<R>
where
    A: Send + 'static,
    B: Send + 'static,
    C: Send + 'static,
    D: Send + 'static,
    R: Send + 'static,
    F: FnOnce(A, B, C, D) -> R + Send + 'static,
{
    let ab = dataflow2(pool, |a, b| (a, b), a, b);
    let cd = dataflow2(pool, |c, d| (c, d), c, d);
    dataflow2(pool, move |(a, b), (c, d)| f(a, b, c, d), ab, cd)
}
