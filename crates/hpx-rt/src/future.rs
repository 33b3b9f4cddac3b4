//! Futures with attachable continuations and work-helping `get()`.
//!
//! An [`Future`] is "a computational result that is initially unknown but
//! becomes available at a later time" (Baker & Hewitt, 1977 — cited by the
//! paper). The key HPX semantics reproduced here:
//!
//! * `get()` **suspends only the consumer**: the calling thread keeps
//!   executing other pool tasks while it waits (work-helping), so waiting
//!   never idles a core and never deadlocks, even on a one-worker pool.
//! * a continuation can be attached ([`Future::then`]) and runs as a new pool
//!   task once the value is ready — this is the building block for
//!   [`crate::dataflow`] and for removing global barriers.
//! * panics inside the producing task are captured and re-thrown at `get()`,
//!   mirroring HPX's exceptional futures.
//!
//! [`Future`] is single-consumer (the value moves out exactly once);
//! [`SharedFuture`] (`T: Clone`) supports any number of consumers and
//! continuations, which the dataflow OP2 backend uses when several loops read
//! the same dat version.

use std::any::Any;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::pool::{Pool, Spawner};

/// Result of a producing task: the value, or the payload of a panic.
pub(crate) type FutureResult<T> = Result<T, PanicPayload>;
/// The payload a panicking task carries (what `catch_unwind` returns).
pub type PanicPayload = Box<dyn Any + Send + 'static>;

type Continuation<T> = Box<dyn FnOnce(FutureResult<T>) + Send + 'static>;

enum State<T> {
    /// Value not yet produced; at most one registered continuation.
    Pending(Option<Continuation<T>>),
    /// Value produced, not yet consumed.
    Ready(FutureResult<T>),
    /// Value moved out by `get()` or a continuation.
    Consumed,
}

pub(crate) struct Shared<T> {
    state: Mutex<State<T>>,
    cond: Condvar,
    /// Handle used to schedule continuations and to work-help in `get()`.
    /// `None` for pool-less promises: continuations then run inline.
    spawner: Option<Spawner>,
}

impl<T: Send + 'static> Shared<T> {
    fn new(spawner: Option<Spawner>) -> Arc<Self> {
        Arc::new(Shared {
            state: Mutex::new(State::Pending(None)),
            cond: Condvar::new(),
            spawner,
        })
    }

    /// Fulfil the future. Runs/schedules the continuation if one is attached.
    pub(crate) fn complete(&self, result: FutureResult<T>) {
        let cont = {
            let mut st = self.state.lock();
            match &mut *st {
                State::Pending(cont) => match cont.take() {
                    Some(cont) => {
                        *st = State::Consumed;
                        cont
                    }
                    None => {
                        *st = State::Ready(result);
                        // Release `state` before notifying: a waiter in
                        // `help_until` evaluates its readiness predicate
                        // (which takes `state`) while holding the pool's
                        // `sleepers` lock, and `notify` takes `sleepers`.
                        drop(st);
                        self.cond.notify_all();
                        if let Some(sp) = &self.spawner {
                            sp.notify();
                        }
                        return;
                    }
                },
                _ => panic!("future completed twice"),
            }
        };
        // Run the continuation as a pool task (HPX schedules continuations as
        // new lightweight threads); inline if the pool is gone.
        if let Some(sp) = &self.spawner {
            let mut payload = Some((cont, result));
            let task: crate::pool::Task = Box::new(move || {
                let (cont, result) = payload.take().expect("payload taken twice");
                cont(result);
            });
            if let Err(task) = sp.spawn(task) {
                task();
            }
        } else {
            cont(result);
        }
    }

    fn is_ready(&self) -> bool {
        matches!(&*self.state.lock(), State::Ready(_))
    }

    fn try_take(&self) -> Option<FutureResult<T>> {
        let mut st = self.state.lock();
        if matches!(&*st, State::Ready(_)) {
            match std::mem::replace(&mut *st, State::Consumed) {
                State::Ready(v) => Some(v),
                _ => unreachable!(),
            }
        } else {
            None
        }
    }

}

/// The write end of a future: fulfil it with [`Promise::set_value`].
pub struct Promise<T: Send + 'static> {
    shared: Arc<Shared<T>>,
    fulfilled: bool,
}

impl<T: Send + 'static> Promise<T> {
    /// Create a promise/future pair not bound to any pool.
    ///
    /// Continuations attached to the future run inline on the fulfilling
    /// thread, and `get()` waits on a condition variable.
    pub fn new() -> (Promise<T>, Future<T>) {
        let shared = Shared::new(None);
        (
            Promise {
                shared: Arc::clone(&shared),
                fulfilled: false,
            },
            Future { shared },
        )
    }

    /// Create a promise/future pair bound to `pool`: continuations are
    /// scheduled as pool tasks and `get()` work-helps on that pool.
    pub fn with_pool(pool: &(impl Pool + ?Sized)) -> (Promise<T>, Future<T>) {
        let shared = Shared::new(Some(pool.spawner()));
        (
            Promise {
                shared: Arc::clone(&shared),
                fulfilled: false,
            },
            Future { shared },
        )
    }

    /// Fulfil the future with `value`.
    ///
    /// # Panics
    /// Panics if the promise was already fulfilled.
    pub fn set_value(mut self, value: T) {
        self.fulfilled = true;
        self.shared.complete(Ok(value));
    }

    /// Fulfil the future with a captured panic payload; `get()` re-throws it.
    pub fn set_panic(mut self, payload: PanicPayload) {
        self.fulfilled = true;
        self.shared.complete(Err(payload));
    }
}

impl<T: Send + 'static> Drop for Promise<T> {
    fn drop(&mut self) {
        if !self.fulfilled {
            // A dropped promise would leave getters waiting forever; turn it
            // into a broken-promise panic at the consumer, like HPX's
            // `broken_promise` error.
            self.shared
                .complete(Err(Box::new("broken promise: promise dropped unfulfilled")));
        }
    }
}

/// Single-consumer future; see module docs.
#[must_use = "futures do nothing unless consumed with get(), then(), or dataflow"]
pub struct Future<T: Send + 'static> {
    shared: Arc<Shared<T>>,
}

impl<T: Send + 'static> Future<T> {
    pub(crate) fn new_pair(spawner: Option<Spawner>) -> (Arc<Shared<T>>, Future<T>) {
        let shared = Shared::new(spawner);
        (Arc::clone(&shared), Future { shared })
    }

    /// True once the value is available.
    pub fn is_ready(&self) -> bool {
        self.shared.is_ready()
    }

    /// Wait for and take the value (the paper's `future.get()`).
    ///
    /// While waiting, the calling thread executes other pool tasks
    /// (work-helping), so calling `get()` from inside a task is safe even on a
    /// single-worker pool. Re-throws the producer's panic if it panicked.
    pub fn get(self) -> T {
        if let Some(v) = self.shared.try_take() {
            return unwrap_result(v);
        }
        if let Some(sp) = self.shared.spawner.clone() {
            sp.count_dep_wait();
            let span = op2_trace::begin();
            let shared = Arc::clone(&self.shared);
            sp.help_until(move || shared.is_ready());
            op2_trace::end(span, op2_trace::EventKind::DepWait, op2_trace::NO_NAME, 0, 0);
            return unwrap_result(self.shared.try_take().expect("future ready but empty"));
        }
        // Pool-less future: plain condvar wait.
        let span = op2_trace::begin();
        let mut st = self.shared.state.lock();
        loop {
            match &*st {
                State::Ready(_) => break,
                State::Pending(_) => self.shared.cond.wait(&mut st),
                State::Consumed => panic!("future value already consumed"),
            }
        }
        match std::mem::replace(&mut *st, State::Consumed) {
            State::Ready(v) => {
                op2_trace::end(span, op2_trace::EventKind::DepWait, op2_trace::NO_NAME, 0, 0);
                unwrap_result(v)
            }
            _ => unreachable!(),
        }
    }

    /// Attach a continuation: returns a future for `f(value)`, scheduled as a
    /// new pool task when this future becomes ready. Panics propagate without
    /// running `f`.
    ///
    /// `f` **always** runs as a pool task — even when this future is already
    /// ready — so `then` never executes user code on the calling thread
    /// (`hpx::future::then` semantics; the dataflow backend relies on this to
    /// keep loop submission non-blocking).
    pub fn then<R, F>(self, pool: &(impl Pool + ?Sized), f: F) -> Future<R>
    where
        R: Send + 'static,
        F: FnOnce(T) -> R + Send + 'static,
    {
        let (out_shared, out) = Future::<R>::new_pair(Some(pool.spawner()));
        let spawner = pool.spawner();
        self.on_ready(move |res| {
            let task: crate::pool::Task = Box::new(move || match res {
                Ok(v) => {
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || f(v)));
                    out_shared.complete(r.map_err(|p| p as PanicPayload));
                }
                Err(p) => out_shared.complete(Err(p)),
            });
            if let Err(task) = spawner.spawn(task) {
                task();
            }
        });
        out
    }

    /// Register a raw callback invoked with the produced result.
    ///
    /// If the value is already available the callback runs immediately on the
    /// calling thread; otherwise it runs on the thread/task that fulfils the
    /// future (scheduled as a pool task when pool-bound).
    pub(crate) fn on_ready(self, cont: impl FnOnce(FutureResult<T>) + Send + 'static) {
        // Fast path: value already there.
        if let Some(v) = self.shared.try_take() {
            cont(v);
            return;
        }
        let mut st = self.shared.state.lock();
        match &mut *st {
            State::Pending(slot) => {
                assert!(
                    slot.is_none(),
                    "future already has a continuation (futures are single-consumer; \
                     use .share() for multiple consumers)"
                );
                *slot = Some(Box::new(cont));
            }
            State::Ready(_) => {
                // Raced with completion between try_take and lock.
                let v = match std::mem::replace(&mut *st, State::Consumed) {
                    State::Ready(v) => v,
                    _ => unreachable!(),
                };
                drop(st);
                cont(v);
            }
            State::Consumed => panic!("future value already consumed"),
        }
    }

    /// Register a callback invoked with the outcome (value, or the panic
    /// message if the producer panicked) once this future completes.
    ///
    /// Unlike [`Future::then`] this consumes the future without producing a
    /// new one — the building block for hand-rolled continuation chains
    /// (e.g. sequencing the colors of an indirect loop without blocking).
    /// The callback may run immediately on the calling thread if the value is
    /// already available; otherwise it runs where the future is fulfilled.
    pub fn finally(self, f: impl FnOnce(Result<T, String>) + Send + 'static) {
        self.on_ready(move |res| match res {
            Ok(v) => f(Ok(v)),
            Err(p) => f(Err(panic_message(&p))),
        });
    }

    /// Convert into a multi-consumer [`SharedFuture`].
    pub fn share(self) -> SharedFuture<T>
    where
        T: Clone,
    {
        let spawner = self.shared.spawner.clone();
        let inner = Arc::new(SharedInner {
            state: Mutex::new(SharedState::Pending(Vec::new())),
            cond: Condvar::new(),
            spawner,
        });
        let inner2 = Arc::clone(&inner);
        self.on_ready(move |res| {
            inner2.complete(res.map_err(|p| panic_message(&p)));
        });
        SharedFuture { inner }
    }
}

fn unwrap_result<T>(r: FutureResult<T>) -> T {
    match r {
        Ok(v) => v,
        Err(p) => std::panic::resume_unwind(p),
    }
}

/// A panic payload enriched with provenance: what parallel loop the task was
/// executing and at which element it failed.
///
/// Loop runners wrap raw kernel panics in a `TaskPanic` so the same context
/// reaches both the `set_panic` → `get()` rethrow path (via
/// [`panic_message`]'s rendering) and any typed error the executor builds
/// from the payload.
#[derive(Debug, Clone)]
pub struct TaskPanic {
    /// Rendering of the original panic payload.
    pub message: String,
    /// Iteration-set element the kernel was processing, when known.
    pub element: Option<usize>,
    /// Context label, typically the parallel loop's name.
    pub context: Option<String>,
}

impl TaskPanic {
    /// Wrap a raw payload with provenance. An already-enriched [`TaskPanic`]
    /// keeps its original (innermost) provenance.
    pub fn wrap(p: PanicPayload, element: usize, context: &str) -> TaskPanic {
        match p.downcast::<TaskPanic>() {
            Ok(tp) => *tp,
            Err(p) => TaskPanic {
                message: panic_message(&p),
                element: Some(element),
                context: Some(context.to_owned()),
            },
        }
    }
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)?;
        if let Some(ctx) = &self.context {
            write!(f, " [in loop {ctx}")?;
            if let Some(e) = self.element {
                write!(f, " at element {e}")?;
            }
            write!(f, "]")?;
        } else if let Some(e) = self.element {
            write!(f, " [at element {e}]")?;
        }
        Ok(())
    }
}

/// Best-effort textual rendering of a panic payload (shared futures cannot
/// clone the original payload, so they store a message). Payloads wrapped in
/// a [`TaskPanic`] render with their loop/element provenance.
pub fn panic_message(p: &PanicPayload) -> String {
    if let Some(tp) = p.downcast_ref::<TaskPanic>() {
        tp.to_string()
    } else if let Some(c) = p.downcast_ref::<crate::cancel::Cancelled>() {
        format!("loop abandoned: {}", c.0)
    } else if let Some(s) = p.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "task panicked".to_owned()
    }
}

/// Create a future that is already fulfilled (the paper's
/// `hpx::make_ready_future`).
pub fn make_ready_future<T: Send + 'static>(value: T) -> Future<T> {
    let shared = Shared::new(None);
    shared.complete(Ok(value));
    Future { shared }
}

// ---------------------------------------------------------------------------
// SharedFuture: multi-consumer, T: Clone
// ---------------------------------------------------------------------------

type SharedCont<T> = Box<dyn FnOnce(Result<T, String>) + Send + 'static>;

enum SharedState<T> {
    Pending(Vec<SharedCont<T>>),
    Ready(Result<T, String>),
}

struct SharedInner<T> {
    state: Mutex<SharedState<T>>,
    cond: Condvar,
    spawner: Option<Spawner>,
}

impl<T: Clone + Send + 'static> SharedInner<T> {
    fn complete(&self, result: Result<T, String>) {
        let conts = {
            let mut st = self.state.lock();
            match std::mem::replace(&mut *st, SharedState::Ready(result.clone())) {
                SharedState::Pending(conts) => conts,
                SharedState::Ready(_) => panic!("shared future completed twice"),
            }
        };
        self.cond.notify_all();
        if let Some(sp) = &self.spawner {
            sp.notify();
        }
        for cont in conts {
            let res = result.clone();
            match &self.spawner {
                Some(sp) => {
                    let mut payload = Some((cont, res));
                    let task: crate::pool::Task = Box::new(move || {
                        let (cont, res) = payload.take().expect("payload taken twice");
                        cont(res);
                    });
                    if let Err(task) = sp.spawn(task) {
                        task();
                    }
                }
                None => cont(res),
            }
        }
    }

    fn is_ready(&self) -> bool {
        matches!(&*self.state.lock(), SharedState::Ready(_))
    }
}

/// Multi-consumer future over a cloneable value; any number of continuations
/// and `get()` calls are allowed. Producer panics are re-thrown as a `String`
/// message.
#[must_use = "futures do nothing unless consumed"]
pub struct SharedFuture<T: Clone + Send + 'static> {
    inner: Arc<SharedInner<T>>,
}

impl<T: Clone + Send + 'static> Clone for SharedFuture<T> {
    fn clone(&self) -> Self {
        SharedFuture {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Clone + Send + 'static> SharedFuture<T> {
    /// A shared future that is already fulfilled.
    pub fn ready(value: T) -> Self {
        let inner = Arc::new(SharedInner {
            state: Mutex::new(SharedState::Pending(Vec::new())),
            cond: Condvar::new(),
            spawner: None,
        });
        inner.complete(Ok(value));
        SharedFuture { inner }
    }

    /// True once the value is available.
    pub fn is_ready(&self) -> bool {
        self.inner.is_ready()
    }

    /// Wait for the value and return a clone of it (work-helping when
    /// pool-bound).
    pub fn get(&self) -> T {
        if !self.is_ready() {
            let span = op2_trace::begin();
            if let Some(sp) = self.inner.spawner.clone() {
                sp.count_dep_wait();
                let inner = Arc::clone(&self.inner);
                sp.help_until(move || inner.is_ready());
            } else {
                let mut st = self.inner.state.lock();
                while matches!(&*st, SharedState::Pending(_)) {
                    self.inner.cond.wait(&mut st);
                }
                drop(st);
            }
            op2_trace::end(span, op2_trace::EventKind::DepWait, op2_trace::NO_NAME, 0, 0);
        }
        match &*self.inner.state.lock() {
            SharedState::Ready(Ok(v)) => v.clone(),
            SharedState::Ready(Err(msg)) => panic!("shared future producer panicked: {msg}"),
            SharedState::Pending(_) => unreachable!("waited until ready"),
        }
    }

    /// Wait for the result without rethrowing: `Err` carries the producer's
    /// rendered panic message instead of panicking the caller. This is the
    /// primitive fallible fences/supervisors build on.
    pub fn try_get(&self) -> Result<T, String> {
        if !self.is_ready() {
            if let Some(sp) = self.inner.spawner.clone() {
                sp.count_dep_wait();
                let inner = Arc::clone(&self.inner);
                sp.help_until(move || inner.is_ready());
            } else {
                let mut st = self.inner.state.lock();
                while matches!(&*st, SharedState::Pending(_)) {
                    self.inner.cond.wait(&mut st);
                }
            }
        }
        match &*self.inner.state.lock() {
            SharedState::Ready(res) => res.clone(),
            SharedState::Pending(_) => unreachable!("waited until ready"),
        }
    }

    /// Register a callback invoked with the outcome (value, or the producer's
    /// panic message) once available — the shared-future analogue of
    /// [`Future::finally`]. May run immediately on the calling thread when
    /// the value is already there.
    pub fn finally(&self, f: impl FnOnce(Result<T, String>) + Send + 'static) {
        self.on_ready(f);
    }

    /// Register a callback invoked (possibly immediately, on this thread) with
    /// the result once available.
    pub(crate) fn on_ready(&self, cont: impl FnOnce(Result<T, String>) + Send + 'static) {
        let mut st = self.inner.state.lock();
        match &mut *st {
            SharedState::Pending(conts) => conts.push(Box::new(cont)),
            SharedState::Ready(v) => {
                let v = v.clone();
                drop(st);
                cont(v);
            }
        }
    }

    /// Attach a continuation producing a new single-consumer future.
    ///
    /// As with [`Future::then`], `f` always runs as a pool task, never on the
    /// calling thread.
    pub fn then<R, F>(&self, pool: &(impl Pool + ?Sized), f: F) -> Future<R>
    where
        R: Send + 'static,
        F: FnOnce(T) -> R + Send + 'static,
    {
        let (out_shared, out) = Future::<R>::new_pair(Some(pool.spawner()));
        let spawner = pool.spawner();
        self.on_ready(move |res| {
            let task: crate::pool::Task = Box::new(move || match res {
                Ok(v) => {
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || f(v)));
                    out_shared.complete(r.map_err(|p| p as PanicPayload));
                }
                Err(msg) => out_shared.complete(Err(Box::new(msg))),
            });
            if let Err(task) = spawner.spawn(task) {
                task();
            }
        });
        out
    }
}
