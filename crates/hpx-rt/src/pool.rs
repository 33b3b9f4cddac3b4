//! Work-stealing thread pool.
//!
//! This is the analogue of the HPX thread scheduler: a fixed set of OS worker
//! threads, each owning a local work-stealing deque, plus a global injector
//! queue for tasks submitted from outside the pool. Tasks are plain
//! `FnOnce()` closures ("HPX lightweight threads"); suspension is modelled by
//! *work-helping* — a thread that must wait for an event keeps executing other
//! pool tasks instead of blocking (see [`ThreadPool::try_execute_one`]), which
//! is what makes `future.get()` deadlock-free even on a single-worker pool.
//!
//! Each worker also has a one-task **next slot** ([`Pool::spawn_next`]): a
//! continuation readied by the task the worker is running, which the worker
//! runs next itself — no queue push, no wake-up, no steal — the way HPX runs
//! a `launch::sync` dataflow continuation on the thread that made it ready.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam_deque::{Injector, Steal, Stealer, Worker};
use parking_lot::{Condvar, Mutex};

use crate::metrics::PoolMetrics;

/// A unit of work scheduled on a pool ("HPX lightweight thread").
pub type Task = Box<dyn FnOnce() + Send + 'static>;

/// The task-scheduling surface shared by [`ThreadPool`] and
/// [`crate::DetPool`].
///
/// Every runtime primitive in this crate (futures, latches, `for_each`,
/// dataflow) is generic over `Pool`, so the same executor code can run
/// either on the real work-stealing pool or under the deterministic
/// single-threaded scheduler used for schedule exploration and race checking.
///
/// The trait is object-safe: `Arc<dyn Pool>` is how `op2-hpx`'s
/// `Op2Runtime` holds its pool.
pub trait Pool: Send + Sync {
    /// Number of (possibly virtual) worker threads; used for chunk planning.
    fn num_threads(&self) -> usize;

    /// Schedule a task for execution.
    fn spawn_boxed(&self, task: Task);

    /// Schedule `task` as the continuation of the task running on this
    /// thread, for this thread to run next. [`ThreadPool`] keeps it in the
    /// calling worker's next slot when that worker is running a task from the
    /// top of its loop and the slot is free — a continuation, not a new task:
    /// not counted as spawned or executed, invisible to stealers, no notify;
    /// otherwise, and on every other pool (the deterministic one included, so
    /// schedule exploration sees every node), it is [`Pool::spawn_boxed`].
    fn spawn_next(&self, task: Task) {
        self.spawn_boxed(task);
    }

    /// Try to execute one pending task on the calling thread; returns `true`
    /// if a task ran (the work-helping primitive).
    fn try_execute_one(&self) -> bool;

    /// A cheap cloneable handle that futures and latches embed so they can
    /// schedule continuations and work-help without borrowing the pool.
    fn spawner(&self) -> Spawner;

    /// This pool's execution counters, when it keeps any. The deterministic
    /// pool returns `None`; the work-stealing pool always returns `Some`.
    fn metrics(&self) -> Option<&PoolMetrics> {
        None
    }

    /// The grain floor: work predicted to take less than this costs more to
    /// hand to another worker than it saves, so a caller that can run it
    /// itself should. [`ThreadPool`] reports [`ThreadPool::HANDOFF_FLOOR`];
    /// the default, and the deterministic pool, is zero — never inline, so
    /// schedule exploration sees every chunk.
    fn handoff_floor(&self) -> Duration {
        Duration::ZERO
    }
}

struct Inner {
    injector: Injector<Task>,
    stealers: Vec<Stealer<Task>>,
    num_threads: usize,
    shutdown: AtomicBool,
    /// Number of workers currently parked, guarded by `sleep_lock`.
    sleepers: Mutex<usize>,
    wakeup: Condvar,
    metrics: PoolMetrics,
    /// Rotating start index so helpers don't always steal from worker 0.
    steal_seed: AtomicUsize,
}

thread_local! {
    static CURRENT: RefCell<Option<WorkerCtx>> = const { RefCell::new(None) };
    /// How many pool tasks this thread is inside: 1 while a worker runs a
    /// task from the top of `worker_main`, more inside a `help_until` wait.
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

struct WorkerCtx {
    inner: Arc<Inner>,
    local: Worker<Task>,
    /// The next slot (see the module docs); only this worker sees it.
    next: RefCell<Option<Task>>,
}

/// A fixed-size work-stealing thread pool.
///
/// Dropping the pool signals shutdown and joins all worker threads.
pub struct ThreadPool {
    inner: Arc<Inner>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// Builder for a [`ThreadPool`] with non-default configuration.
pub struct PoolBuilder {
    num_threads: usize,
    thread_name: String,
}

impl Default for PoolBuilder {
    fn default() -> Self {
        PoolBuilder {
            num_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            thread_name: "hpx-worker".to_owned(),
        }
    }
}

impl PoolBuilder {
    /// Create a builder with defaults (one worker per available core).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the number of worker threads (clamped to at least 1).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n.max(1);
        self
    }

    /// Set the base name for worker threads.
    pub fn thread_name(mut self, name: impl Into<String>) -> Self {
        self.thread_name = name.into();
        self
    }

    /// Spawn the workers and return the pool.
    pub fn build(self) -> ThreadPool {
        let workers: Vec<Worker<Task>> =
            (0..self.num_threads).map(|_| Worker::new_fifo()).collect();
        let inner = Arc::new(Inner::new(workers.iter().map(Worker::stealer).collect()));
        let handles = workers
            .into_iter()
            .enumerate()
            .map(|(index, local)| {
                let inner = Arc::clone(&inner);
                let name = format!("{}-{index}", self.thread_name);
                std::thread::Builder::new()
                    .name(name)
                    .spawn(move || worker_main(inner, local))
                    .expect("failed to spawn hpx-rt worker thread")
            })
            .collect();
        ThreadPool { inner, handles }
    }
}

impl ThreadPool {
    /// This pool's [`Pool::handoff_floor`]: about two hand-offs. Handing a
    /// chunk to a parked worker and waiting for it (`spawn` → wake → run →
    /// `get`) measured 24–31 µs on a 2-vCPU host (`hpx-rt.spawn_get_ns` in
    /// the benchmark's checked-in ledger), so below 50 µs of work the
    /// hand-off, not the work, decides the time.
    pub const HANDOFF_FLOOR: Duration = Duration::from_micros(50);

    /// Create a pool with `num_threads` workers (at least 1).
    pub fn new(num_threads: usize) -> Self {
        PoolBuilder::new().num_threads(num_threads).build()
    }

    /// Number of worker threads in the pool.
    pub fn num_threads(&self) -> usize {
        self.inner.num_threads
    }

    /// Execution counters for this pool (tasks spawned/executed, steals, parks).
    pub fn metrics(&self) -> &PoolMetrics {
        &self.inner.metrics
    }

    /// True if the calling thread is a worker of this pool.
    pub fn is_worker_thread(&self) -> bool {
        self.inner.on_worker(|ctx| ctx.is_some())
    }

    /// Try to execute one pending task on the calling thread.
    ///
    /// Returns `true` if a task was run. This is the *work-helping* primitive:
    /// blocking operations ([`crate::Future::get`],
    /// [`crate::CountdownLatch::wait_helping`]) call it in their wait loops so
    /// that waiting threads contribute to progress instead of deadlocking the
    /// pool.
    pub fn try_execute_one(&self) -> bool {
        self.inner.try_execute_one()
    }

    /// Block the calling thread until `pred` returns true, running pool tasks
    /// while waiting.
    ///
    /// When no task is available the thread parks on the pool's wakeup condvar
    /// with a short timeout, bounding the latency of events signalled from
    /// outside the pool (e.g. an external [`crate::Promise`]).
    pub fn help_until(&self, pred: impl FnMut() -> bool) {
        self.inner.help_until(pred);
    }

    /// A cheap cloneable handle that futures and latches embed so they can
    /// schedule continuations and work-help without borrowing the pool.
    pub fn spawner(&self) -> Spawner {
        Spawner {
            kind: SpawnerKind::Threads(Arc::downgrade(&self.inner)),
        }
    }
}

impl<P: Pool + ?Sized> Pool for Arc<P> {
    fn num_threads(&self) -> usize {
        (**self).num_threads()
    }

    fn spawn_boxed(&self, task: Task) {
        (**self).spawn_boxed(task);
    }

    fn spawn_next(&self, task: Task) {
        (**self).spawn_next(task);
    }

    fn try_execute_one(&self) -> bool {
        (**self).try_execute_one()
    }

    fn spawner(&self) -> Spawner {
        (**self).spawner()
    }

    fn metrics(&self) -> Option<&PoolMetrics> {
        (**self).metrics()
    }

    fn handoff_floor(&self) -> Duration {
        (**self).handoff_floor()
    }
}

impl Pool for ThreadPool {
    fn num_threads(&self) -> usize {
        ThreadPool::num_threads(self)
    }

    fn spawn_boxed(&self, task: Task) {
        self.inner.push(task);
    }

    fn spawn_next(&self, task: Task) {
        self.inner.push_next(task);
    }

    fn try_execute_one(&self) -> bool {
        ThreadPool::try_execute_one(self)
    }

    fn spawner(&self) -> Spawner {
        ThreadPool::spawner(self)
    }

    fn metrics(&self) -> Option<&PoolMetrics> {
        Some(ThreadPool::metrics(self))
    }

    fn handoff_floor(&self) -> Duration {
        ThreadPool::HANDOFF_FLOOR
    }
}

/// Cloneable weak handle to a pool, embedded in futures/latches.
///
/// If the pool has been dropped, `spawn` reports failure (callers then run the
/// work inline) and `help_until` degrades to a spin/park wait.
#[derive(Clone)]
pub struct Spawner {
    kind: SpawnerKind,
}

#[derive(Clone)]
enum SpawnerKind {
    Threads(std::sync::Weak<Inner>),
    Det(std::sync::Weak<crate::det::DetInner>),
}

impl Spawner {
    pub(crate) fn det(inner: std::sync::Weak<crate::det::DetInner>) -> Spawner {
        Spawner {
            kind: SpawnerKind::Det(inner),
        }
    }

    /// Schedule `task` on the pool; hands the task back if the pool is gone
    /// so the caller can run it inline.
    pub fn spawn(&self, task: Task) -> Result<(), Task> {
        match &self.kind {
            SpawnerKind::Threads(weak) => {
                if let Some(inner) = weak.upgrade() {
                    inner.push(task);
                    Ok(())
                } else {
                    Err(task)
                }
            }
            SpawnerKind::Det(weak) => {
                if let Some(inner) = weak.upgrade() {
                    inner.enqueue(task);
                    Ok(())
                } else {
                    Err(task)
                }
            }
        }
    }

    /// Work-helping wait; falls back to yielding if the pool is gone.
    pub fn help_until(&self, mut pred: impl FnMut() -> bool) {
        match &self.kind {
            SpawnerKind::Threads(weak) => {
                if let Some(inner) = weak.upgrade() {
                    inner.help_until(pred);
                } else {
                    while !pred() {
                        std::thread::yield_now();
                    }
                }
            }
            SpawnerKind::Det(weak) => {
                if let Some(inner) = weak.upgrade() {
                    inner.help_until(&mut pred);
                } else {
                    while !pred() {
                        std::thread::yield_now();
                    }
                }
            }
        }
    }

    /// Count one blocking barrier wait on the owning pool's metrics (no-op
    /// when the pool is gone or keeps no metrics).
    pub fn count_barrier_wait(&self) {
        if let SpawnerKind::Threads(weak) = &self.kind {
            if let Some(inner) = weak.upgrade() {
                inner.metrics.count_barrier_wait();
            }
        }
    }

    /// Count one blocking dependency wait on the owning pool's metrics.
    pub fn count_dep_wait(&self) {
        if let SpawnerKind::Threads(weak) = &self.kind {
            if let Some(inner) = weak.upgrade() {
                inner.metrics.count_dep_wait();
            }
        }
    }

    /// Wake parked waiters after an event (promise fulfilled, latch opened).
    pub fn notify(&self) {
        match &self.kind {
            SpawnerKind::Threads(weak) => {
                if let Some(inner) = weak.upgrade() {
                    inner.notify_all();
                }
            }
            // The deterministic pool is single-threaded and never parks:
            // progress is driven entirely by help_until, so there is nobody
            // to wake.
            SpawnerKind::Det(_) => {}
        }
    }
}

impl Inner {
    fn new(stealers: Vec<Stealer<Task>>) -> Inner {
        Inner {
            injector: Injector::new(),
            num_threads: stealers.len(),
            stealers,
            shutdown: AtomicBool::new(false),
            sleepers: Mutex::new(0),
            wakeup: Condvar::new(),
            metrics: PoolMetrics::default(),
            steal_seed: AtomicUsize::new(0),
        }
    }

    /// Run `f` with the calling thread's worker context when the thread is
    /// a worker of this pool, with `None` otherwise.
    fn on_worker<R>(&self, f: impl FnOnce(Option<&WorkerCtx>) -> R) -> R {
        CURRENT.with(|c| {
            let ctx = c.borrow();
            f(ctx.as_ref().filter(|ctx| std::ptr::eq(Arc::as_ptr(&ctx.inner), self)))
        })
    }

    /// The one push path: count, trace, queue on the calling worker's deque
    /// (the global injector from any other thread), wake a sleeper.
    fn push(&self, task: Task) {
        self.metrics.tasks_spawned.fetch_add(1, Ordering::Relaxed);
        op2_trace::instant(op2_trace::EventKind::TaskSpawn, op2_trace::NO_NAME, 0, 0);
        self.on_worker(|ctx| match ctx {
            Some(ctx) => ctx.local.push(task),
            None => self.injector.push(task),
        });
        self.notify_one();
    }

    /// [`Pool::spawn_next`]: the next slot of a worker running a top-level
    /// task, if free; [`Inner::push`] otherwise. The slot is filled only at
    /// depth 1 and run from the top of `worker_main`, so a chain of
    /// continuations trampolines there instead of recursing.
    fn push_next(&self, task: Task) {
        let top_level = DEPTH.with(Cell::get) == 1;
        self.on_worker(|ctx| match ctx {
            Some(ctx) if top_level && ctx.next.borrow().is_none() => {
                *ctx.next.borrow_mut() = Some(task);
            }
            _ => self.push(task),
        });
    }

    fn notify_one(&self) {
        // Only take the lock when somebody might be asleep.
        let sleepers = self.sleepers.lock();
        if *sleepers > 0 {
            self.wakeup.notify_one();
        }
    }

    fn notify_all(&self) {
        let _guard = self.sleepers.lock();
        self.wakeup.notify_all();
    }

    /// Find a runnable task: on a worker of this pool its next slot (a
    /// continuation: the `true`), then its local deque; then the global
    /// injector, then stealing from sibling workers.
    fn find_task(&self) -> Option<(Task, bool)> {
        let mine = self.on_worker(|ctx| {
            let ctx = ctx?;
            let next = ctx.next.take();
            next.map(|t| (t, true)).or_else(|| ctx.local.pop().map(|t| (t, false)))
        });
        if mine.is_some() {
            return mine;
        }
        loop {
            match self.injector.steal() {
                Steal::Success(t) => return Some((t, false)),
                Steal::Empty => break,
                Steal::Retry => continue,
            }
        }
        let n = self.stealers.len();
        let start = self.steal_seed.fetch_add(1, Ordering::Relaxed) % n;
        for off in 0..n {
            let s = &self.stealers[(start + off) % n];
            loop {
                match s.steal() {
                    Steal::Success(t) => {
                        self.metrics.steals.fetch_add(1, Ordering::Relaxed);
                        op2_trace::instant(
                            op2_trace::EventKind::Steal,
                            op2_trace::NO_NAME,
                            ((start + off) % n) as u64,
                            0,
                        );
                        return Some((t, false));
                    }
                    Steal::Empty => break,
                    Steal::Retry => continue,
                }
            }
        }
        None
    }

    fn try_execute_one(&self) -> bool {
        let Some((task, continuation)) = self.find_task() else {
            return false;
        };
        if !continuation {
            self.metrics.tasks_executed.fetch_add(1, Ordering::Relaxed);
        }
        let span = op2_trace::begin();
        DEPTH.with(|d| d.set(d.get() + 1));
        task();
        DEPTH.with(|d| d.set(d.get() - 1));
        op2_trace::end(span, op2_trace::EventKind::Task, op2_trace::NO_NAME, 0, 0);
        true
    }

    fn help_until(&self, mut pred: impl FnMut() -> bool) {
        while !pred() {
            if !self.try_execute_one() {
                self.park_unless(Duration::from_micros(200), &mut pred);
            }
        }
    }

    /// Is a task waiting in the injector or any worker's deque? (A next slot
    /// is not looked at: only its own worker may run it, and that worker
    /// checks it before it ever idles.)
    fn has_queued_task(&self) -> bool {
        !self.injector.is_empty() || self.stealers.iter().any(|s| !s.is_empty())
    }

    /// The idle path of both wait loops, entered after a failed search for a
    /// task: sleep on the wakeup condvar for at most `timeout` — unless
    /// `ready()` holds or a task is queued by now. Both are re-checked under
    /// the `sleepers` lock, the lock a spawner takes to decide whether anyone
    /// needs a notify, so a push that raced the failed search is seen here or
    /// finds this thread counted and wakes it. Returns whether it slept.
    fn park_unless(&self, timeout: Duration, mut ready: impl FnMut() -> bool) -> bool {
        let mut sleepers = self.sleepers.lock();
        if ready() || self.has_queued_task() {
            return false;
        }
        *sleepers += 1;
        let span = op2_trace::begin();
        self.wakeup.wait_for(&mut sleepers, timeout);
        op2_trace::end(span, op2_trace::EventKind::Park, op2_trace::NO_NAME, 0, 0);
        *sleepers -= 1;
        true
    }
}

fn worker_main(inner: Arc<Inner>, local: Worker<Task>) {
    CURRENT.with(|c| {
        *c.borrow_mut() = Some(WorkerCtx {
            inner: Arc::clone(&inner),
            local,
            next: RefCell::new(None),
        });
    });
    let shutdown = || inner.shutdown.load(Ordering::Acquire);
    loop {
        if inner.try_execute_one() {
            continue;
        }
        if shutdown() {
            break;
        }
        if inner.park_unless(Duration::from_millis(5), shutdown) {
            inner.metrics.parks.fetch_add(1, Ordering::Relaxed);
        }
    }
    CURRENT.with(|c| {
        *c.borrow_mut() = None;
    });
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.notify_all();
        // The last owner of the pool may be a task closure dropped *on a
        // worker* (e.g. a dataflow body whose caller already observed the
        // promise and released its runtime). That worker cannot join itself
        // — pthread_join would return EDEADLK and std panics — so it is
        // skipped and exits on its own via the shutdown flag above.
        let me = std::thread::current().id();
        for h in self.handles.drain(..) {
            if h.thread().id() != me {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// A pool's queues with no thread running them.
    fn idle_inner() -> (Inner, Worker<Task>) {
        let local = Worker::new_fifo();
        (Inner::new(vec![local.stealer()]), local)
    }

    /// The lost wake-up: a spawner whose push lands after an idle thread's
    /// failed search, but before that thread counts itself a sleeper, sees
    /// nobody to notify. Queue a task exactly that way — no notify — and the
    /// idle path must notice it instead of sleeping out its timeout, whether
    /// the task sits in the injector or in a worker's deque.
    #[test]
    fn idle_path_rechecks_the_queues_a_silent_push_filled() {
        let (inner, local) = idle_inner();
        inner.injector.push(Box::new(|| {}));
        local.push(Box::new(|| {}));
        for _ in 0..2 {
            let start = Instant::now();
            assert!(!inner.park_unless(Duration::from_secs(10), || false));
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "slept through a queued task"
            );
            assert!(inner.find_task().is_some());
        }
        assert!(!inner.has_queued_task());
        assert_eq!(*inner.sleepers.lock(), 0);
    }

    /// The next slot holds one continuation that its worker runs before
    /// anything queued, that no stealer (and no idle check) sees, and that is
    /// no new task. Only a task run from the top level fills it: a
    /// continuation readied behind a full slot, or inside a nested wait, is
    /// pushed like any task.
    #[test]
    fn the_next_slot_runs_first_unseen_by_stealers_and_only_from_the_top_level() {
        let local = Worker::new_fifo();
        let inner = Arc::new(Inner::new(vec![local.stealer()]));
        CURRENT.with(|c| {
            *c.borrow_mut() = Some(WorkerCtx {
                inner: Arc::clone(&inner),
                local,
                next: RefCell::new(None),
            })
        });
        let ran = Arc::new(Mutex::new(Vec::new()));
        let log = |tag: &'static str| -> Task {
            let ran = Arc::clone(&ran);
            Box::new(move || ran.lock().push(tag))
        };
        let drain = || while inner.try_execute_one() {};

        let (pool, next, behind, queued) = (Arc::clone(&inner), log("next"), log("behind"), log("queued"));
        inner.push(Box::new(move || {
            pool.push_next(next);
            assert!(!pool.has_queued_task(), "a stealer can see the slot");
            pool.push_next(behind);
            pool.push(queued);
        }));
        drain();
        assert_eq!(*ran.lock(), ["next", "behind", "queued"]);

        let (pool, nested) = (Arc::clone(&inner), log("nested"));
        inner.push(Box::new(move || {
            let readies = Arc::clone(&pool);
            pool.push(Box::new(move || readies.push_next(nested)));
            assert!(pool.try_execute_one(), "the nested wait runs the queued task");
            assert!(pool.has_queued_task(), "a nested continuation took the slot");
        }));
        drain();
        assert_eq!(ran.lock().last(), Some(&"nested"));

        let m = inner.metrics.snapshot();
        assert_eq!((m.tasks_spawned, m.tasks_executed), (6, 6), "the slot run is no task");
        CURRENT.with(|c| *c.borrow_mut() = None);
    }

    /// The other half of the contract: with nothing queued and nothing
    /// ready, the idle path does sleep — an idle pool must not spin.
    #[test]
    fn idle_path_sleeps_when_there_is_nothing_to_do() {
        let (inner, _local) = idle_inner();
        assert!(inner.park_unless(Duration::from_millis(1), || false));
        assert!(!inner.park_unless(Duration::from_secs(10), || true));
        assert_eq!(*inner.sleepers.lock(), 0);
    }
}
