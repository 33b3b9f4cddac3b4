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
//! * a panic inside the producing task is captured as a [`TaskFailure`] — a
//!   cloneable value that keeps the loop/element provenance or the cancel
//!   reason the payload carried — and re-thrown at `get()`, mirroring HPX's
//!   exceptional futures.
//!
//! As in HPX, there is **one shared state** (`Shared`) under both future
//! types: [`Future`] is its unique consumer (the value moves out exactly
//! once); [`SharedFuture`] (`T: Clone`) is a cloning view of the same state
//! with any number of consumers and continuations, which the dataflow OP2
//! backend uses when several loops depend on the same loop. [`Future::share`]
//! is therefore a change of type, not a second allocation.

use std::any::Any;
use std::borrow::Cow;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::cancel::{CancelReason, Cancelled};
use crate::pool::{Pool, Spawner, Task};

/// What a future resolves to: the value, or why its producer failed.
pub(crate) type Outcome<T> = Result<T, TaskFailure>;
/// The payload a panicking task carries (what `catch_unwind` returns).
pub type PanicPayload = Box<dyn Any + Send + 'static>;

/// Called on the completing thread (or at once, when already ready) with
/// the state it was attached to; pulls the outcome as its future type does.
type Continuation<T> = Box<dyn FnOnce(&Shared<T>) + Send + 'static>;

enum State<T> {
    /// Not yet produced: the continuations to run on completion, and whether
    /// any thread is blocked in [`Shared::wait`] (only then is a wake-up due).
    Pending {
        conts: Vec<Continuation<T>>,
        waited: bool,
    },
    /// Produced; shared views clone it from here.
    Ready(Outcome<T>),
    /// Moved out by the unique consumer.
    Taken,
}

/// The one shared state behind [`Future`], [`SharedFuture`] and [`Promise`].
pub(crate) struct Shared<T> {
    state: Mutex<State<T>>,
    cond: Condvar,
    /// Handle used to work-help in `wait`. `None` for pool-less promises,
    /// which wait on `cond`.
    spawner: Option<Spawner>,
}

impl<T: Send + 'static> Shared<T> {
    fn new(spawner: Option<Spawner>) -> Arc<Self> {
        Arc::new(Shared {
            state: Mutex::new(State::Pending {
                conts: Vec::new(),
                waited: false,
            }),
            cond: Condvar::new(),
            spawner,
        })
    }

    /// Fulfil the future and run its continuations, here, on this thread.
    /// They are the runtime's own bookkeeping (a join counting down, a color
    /// chain launching its next color). They never run user code here: `then`
    /// and `dataflowN` hand theirs to the pool as a new task, and an OP2
    /// dataflow node goes to [`Pool::spawn_next`] — the completing worker's
    /// next task, not a call on this stack.
    pub(crate) fn complete(&self, outcome: Outcome<T>) {
        let (conts, waited) = {
            let mut st = self.state.lock();
            match std::mem::replace(&mut *st, State::Ready(outcome)) {
                State::Pending { conts, waited } => (conts, waited),
                _ => panic!("future completed twice"),
            }
        };
        // `state` is released before notifying: a waiter in `help_until`
        // evaluates its readiness predicate (which takes `state`) while
        // holding the pool's `sleepers` lock, and `notify` takes `sleepers`.
        if waited {
            self.cond.notify_all();
            if let Some(sp) = &self.spawner {
                sp.notify();
            }
        }
        for cont in conts {
            cont(self);
        }
    }

    fn is_ready(&self) -> bool {
        matches!(&*self.state.lock(), State::Ready(_))
    }

    /// Block until ready: work-helping on the pool when bound to one, on the
    /// condition variable otherwise.
    fn wait(&self) {
        let mut st = self.state.lock();
        match &mut *st {
            State::Pending { waited, .. } => *waited = true,
            _ => return,
        }
        let span = op2_trace::begin();
        match &self.spawner {
            Some(sp) => {
                drop(st);
                sp.count_dep_wait();
                sp.help_until(|| self.is_ready());
            }
            None => {
                while matches!(&*st, State::Pending { .. }) {
                    self.cond.wait(&mut st);
                }
            }
        }
        op2_trace::end(
            span,
            op2_trace::EventKind::DepWait,
            op2_trace::NO_NAME,
            0,
            0,
        );
    }

    /// Move the outcome out (the unique consumer's read).
    fn take(&self) -> Outcome<T> {
        match std::mem::replace(&mut *self.state.lock(), State::Taken) {
            State::Ready(outcome) => outcome,
            State::Pending { .. } => unreachable!("future read before it was ready"),
            State::Taken => panic!("future value already consumed"),
        }
    }

    /// Read the outcome in place (a shared view's read).
    pub(crate) fn peek<R>(&self, read: impl FnOnce(&Outcome<T>) -> R) -> R {
        match &*self.state.lock() {
            State::Ready(outcome) => read(outcome),
            _ => unreachable!("shared future read before it was ready"),
        }
    }

    /// Run `cont` once the outcome is there: at once on the calling thread
    /// when it already is, otherwise on the thread that fulfils the future.
    pub(crate) fn on_ready(&self, cont: impl FnOnce(&Shared<T>) + Send + 'static) {
        let mut st = self.state.lock();
        if let State::Pending { conts, .. } = &mut *st {
            conts.push(Box::new(cont));
        } else {
            drop(st);
            cont(self);
        }
    }
}

/// The continuation behind `then` and `dataflow`: run `f` on the input as a
/// **new pool task** (inline only if the pool is gone) and fulfil `out` with
/// its result; a failed input skips `f` and fails `out` the same way.
pub(crate) fn run_as_task<A, R>(
    pool: &(impl Pool + ?Sized),
    f: impl FnOnce(A) -> R + Send + 'static,
) -> (impl FnOnce(Outcome<A>) + Send + 'static, Future<R>)
where
    A: Send + 'static,
    R: Send + 'static,
{
    let spawner = pool.spawner();
    let (out, future) = Future::<R>::new_pair(Some(spawner.clone()));
    let run = move |input: Outcome<A>| {
        let task: Task = Box::new(move || {
            out.complete(input.and_then(|v| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || f(v)))
                    .map_err(|p| TaskFailure::of(&p))
            }))
        });
        if let Err(task) = spawner.spawn(task) {
            task();
        }
    };
    (run, future)
}

/// The write end of a future: fulfil it with [`Promise::set_value`].
pub struct Promise<T: Send + 'static> {
    shared: Arc<Shared<T>>,
    fulfilled: bool,
}

impl<T: Send + 'static> Promise<T> {
    /// Create a promise/future pair not bound to any pool: `get()` waits on
    /// a condition variable.
    pub fn new() -> (Promise<T>, Future<T>) {
        Self::pair(None)
    }

    /// Create a promise/future pair bound to `pool`: `get()` work-helps on
    /// that pool.
    pub fn with_pool(pool: &(impl Pool + ?Sized)) -> (Promise<T>, Future<T>) {
        Self::pair(Some(pool.spawner()))
    }

    fn pair(spawner: Option<Spawner>) -> (Promise<T>, Future<T>) {
        let (shared, future) = Future::new_pair(spawner);
        (
            Promise {
                shared,
                fulfilled: false,
            },
            future,
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

    /// Fail the future; `get()` re-throws `failure`.
    pub fn set_failure(mut self, failure: TaskFailure) {
        self.fulfilled = true;
        self.shared.complete(Err(failure));
    }
}

impl<T: Send + 'static> Drop for Promise<T> {
    fn drop(&mut self) {
        if !self.fulfilled {
            // A dropped promise would leave getters waiting forever; turn it
            // into a broken-promise panic at the consumer, like HPX's
            // `broken_promise` error.
            self.shared.complete(Err(TaskFailure::Panic(TaskPanic {
                message: "broken promise: promise dropped unfulfilled".into(),
                element: None,
                context: None,
            })));
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
        self.shared.wait();
        match self.shared.take() {
            Ok(v) => v,
            Err(failure) => std::panic::resume_unwind(failure.into_payload()),
        }
    }

    /// Attach a continuation: returns a future for `f(value)`, scheduled as a
    /// new pool task when this future becomes ready. Failures propagate
    /// without running `f`.
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
        let (run, out) = run_as_task(pool, f);
        self.finally(run);
        out
    }

    /// Register a callback invoked with the outcome — the value, or the
    /// producer's [`TaskFailure`] — once this future completes.
    ///
    /// Unlike [`Future::then`] this consumes the future without producing a
    /// new one — the building block for hand-rolled continuation chains
    /// (e.g. sequencing the colors of an indirect loop without blocking).
    /// The callback runs immediately on the calling thread if the value is
    /// already available; otherwise on the thread that fulfils the future.
    pub fn finally(self, f: impl FnOnce(Result<T, TaskFailure>) + Send + 'static) {
        self.shared.on_ready(move |shared| f(shared.take()));
    }

    /// View the same state as a multi-consumer [`SharedFuture`].
    pub fn share(self) -> SharedFuture<T>
    where
        T: Clone,
    {
        SharedFuture {
            shared: self.shared,
        }
    }
}

/// A panic payload enriched with provenance: what parallel loop the task was
/// executing and at which element it failed.
///
/// Loop runners wrap raw kernel panics in a `TaskPanic`; futures keep it (as
/// [`TaskFailure::Panic`]) so the same context reaches the `get()` rethrow
/// and any typed error an executor builds from the failure.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskPanic {
    /// Rendering of the original panic payload.
    pub message: Cow<'static, str>,
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
                message: panic_message(&p).into(),
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

/// Why a task failed: what its panic payload carried, as a value that can be
/// cloned to every consumer of a [`SharedFuture`] (the payload itself cannot).
#[derive(Debug, Clone, PartialEq)]
pub enum TaskFailure {
    /// The task panicked; a bare `&str`/`String` payload is a [`TaskPanic`]
    /// with no provenance.
    Panic(TaskPanic),
    /// A parallel loop was abandoned cooperatively ([`Cancelled`] payload).
    Cancelled(CancelReason),
}

impl TaskFailure {
    /// Classify a caught panic payload.
    pub fn of(p: &PanicPayload) -> TaskFailure {
        if let Some(tp) = p.downcast_ref::<TaskPanic>() {
            return TaskFailure::Panic(tp.clone());
        }
        if let Some(c) = p.downcast_ref::<Cancelled>() {
            return TaskFailure::Cancelled(c.0);
        }
        let message = if let Some(s) = p.downcast_ref::<&'static str>() {
            Cow::Borrowed(*s)
        } else if let Some(s) = p.downcast_ref::<String>() {
            Cow::Owned(s.clone())
        } else {
            Cow::Borrowed("task panicked")
        };
        TaskFailure::Panic(TaskPanic {
            message,
            element: None,
            context: None,
        })
    }

    /// The payload to re-throw at a unique consumer: of the type the
    /// producer raised (`TaskPanic`, `Cancelled`, `&str` or `String`).
    fn into_payload(self) -> PanicPayload {
        match self {
            TaskFailure::Cancelled(reason) => Box::new(Cancelled(reason)),
            TaskFailure::Panic(tp) if tp.element.is_some() || tp.context.is_some() => Box::new(tp),
            TaskFailure::Panic(tp) => match tp.message {
                Cow::Borrowed(s) => Box::new(s),
                Cow::Owned(s) => Box::new(s),
            },
        }
    }
}

impl std::fmt::Display for TaskFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskFailure::Panic(tp) => write!(f, "{tp}"),
            TaskFailure::Cancelled(reason) => write!(f, "loop abandoned: {reason}"),
        }
    }
}

/// Best-effort textual rendering of a panic payload. Payloads wrapped in a
/// [`TaskPanic`] render with their loop/element provenance.
pub fn panic_message(p: &PanicPayload) -> String {
    TaskFailure::of(p).to_string()
}

/// Create a future that is already fulfilled (the paper's
/// `hpx::make_ready_future`).
pub fn make_ready_future<T: Send + 'static>(value: T) -> Future<T> {
    let (shared, future) = Future::new_pair(None);
    shared.complete(Ok(value));
    future
}

/// Multi-consumer view of a future's state over a cloneable value; any
/// number of continuations and `get()` calls are allowed.
#[must_use = "futures do nothing unless consumed"]
pub struct SharedFuture<T: Clone + Send + 'static> {
    pub(crate) shared: Arc<Shared<T>>,
}

impl<T: Clone + Send + 'static> Clone for SharedFuture<T> {
    fn clone(&self) -> Self {
        SharedFuture {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T: Clone + Send + 'static> SharedFuture<T> {
    /// A shared future that is already fulfilled.
    pub fn ready(value: T) -> Self {
        make_ready_future(value).share()
    }

    /// True once the value is available.
    pub fn is_ready(&self) -> bool {
        self.shared.is_ready()
    }

    /// Wait for the value and return a clone of it (work-helping when
    /// pool-bound). Panics with the producer's rendered failure if it failed.
    pub fn get(&self) -> T {
        self.try_get()
            .unwrap_or_else(|failure| panic!("shared future producer panicked: {failure}"))
    }

    /// Wait for the result without rethrowing: `Err` carries the producer's
    /// failure instead of panicking the caller. This is the primitive
    /// fallible fences/supervisors build on.
    pub fn try_get(&self) -> Result<T, TaskFailure> {
        self.shared.wait();
        self.shared.peek(Clone::clone)
    }

    /// Register a callback invoked with the outcome (a clone of the value, or
    /// the producer's failure) once available — the shared-future analogue of
    /// [`Future::finally`]. Runs immediately on the calling thread when the
    /// value is already there.
    pub fn finally(&self, f: impl FnOnce(Result<T, TaskFailure>) + Send + 'static) {
        self.shared
            .on_ready(move |shared| f(shared.peek(Clone::clone)));
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
        let (run, out) = run_as_task(pool, f);
        self.finally(run);
        out
    }
}
