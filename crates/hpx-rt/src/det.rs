//! Deterministic single-threaded virtual scheduler ([`DetPool`]).
//!
//! `DetPool` implements the same task/future/dataflow surface as
//! [`crate::ThreadPool`] (via the [`Pool`] trait) but runs every task on the
//! *calling* thread, choosing which runnable task to execute next from a
//! seeded pseudo-random schedule. Because no OS concurrency is involved, a
//! given `(seed, policy)` pair always produces exactly the same interleaving
//! — the scheduler is a **deterministic concurrency-testing harness** in the
//! style of random-walk and PCT (probabilistic concurrency testing)
//! schedulers.
//!
//! Intended use (see `tests/det_schedules.rs` at the workspace root):
//!
//! ```
//! use hpx_rt::{async_spawn, DetPool, SchedulePolicy};
//!
//! let pool = DetPool::new(42); // seeded random-walk schedule
//! let f = async_spawn(&pool, || 21u64 * 2);
//! assert_eq!(f.get(), 42); // tasks run here, inside get()'s help loop
//! assert_eq!(pool.schedule_string(), DetPool::new(42).replay(|p| {
//!     assert_eq!(async_spawn(p, || 21u64 * 2).get(), 42);
//! }));
//! let _ = SchedulePolicy::Pct { change_points: 3 };
//! ```
//!
//! ## Replay
//!
//! A failing schedule is fully described by `(seed, policy)`; the decision
//! trace ([`DetPool::schedule_string`]) is recorded so failures can be
//! printed as a replay pair. Re-running the same program on a `DetPool` with
//! the same seed and policy reproduces the identical interleaving — this is
//! what `DET_SEED=<n> cargo test --test det_schedules` does.
//!
//! ## Execution model
//!
//! Tasks only run when the driving thread blocks in a work-helping wait
//! (`Future::get`, `CountdownLatch::wait_helping`, `fence`, …) or calls
//! [`DetPool::run_until_quiescent`]. If a wait's predicate is unsatisfied
//! while no task is runnable, no progress is possible on a single thread and
//! the pool panics with a **deadlock** diagnostic naming the seed — turning
//! a silent hang into a replayable failure.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::pool::{Pool, Spawner, Task};

/// How the deterministic scheduler picks the next runnable task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// Always run the oldest runnable task (arrival order).
    Fifo,
    /// Uniformly random choice among runnable tasks at every step
    /// (a random walk through the interleaving space).
    RandomWalk,
    /// PCT-style priority schedule: every task gets a random priority at
    /// spawn, the highest-priority runnable task always runs, and at
    /// `change_points` pseudo-random steps the currently highest priority is
    /// demoted below all others. Finds ordering bugs of depth
    /// ≤ `change_points + 1` with provable probability.
    Pct {
        /// Number of priority change points (the "d" of PCT).
        change_points: usize,
    },
}

struct Entry {
    /// Priority for [`SchedulePolicy::Pct`]; spawn sequence number otherwise.
    priority: u64,
    seq: u64,
    task: Task,
}

struct DetState {
    runnable: Vec<Entry>,
    rng: u64,
    next_seq: u64,
    steps: u64,
    /// Scheduling decisions taken so far: index into the runnable list at
    /// each step (the replayable schedule trace).
    trace: Vec<u32>,
    /// Pre-drawn steps at which PCT demotes the highest priority.
    change_steps: Vec<u64>,
}

/// Shared state of a [`DetPool`]; [`Spawner`]s hold a weak reference to it.
pub(crate) struct DetInner {
    state: Mutex<DetState>,
    seed: u64,
    policy: SchedulePolicy,
}

/// Worker count a [`DetPool`] reports (affects chunk planning only; all
/// execution remains on the calling thread).
const VIRTUAL_THREADS: usize = 4;

/// SplitMix64 step — a small, high-quality, dependency-free PRNG. Schedule
/// reproducibility only needs determinism, not cryptographic quality.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw from `0..n` via 128-bit multiply-shift (negligible bias).
fn below(rng: &mut u64, n: usize) -> usize {
    ((splitmix(rng) as u128 * n as u128) >> 64) as usize
}

impl DetInner {
    pub(crate) fn enqueue(&self, task: Task) {
        op2_trace::instant(op2_trace::EventKind::TaskSpawn, op2_trace::NO_NAME, 0, 0);
        let mut st = self.state.lock();
        let seq = st.next_seq;
        st.next_seq += 1;
        let priority = match self.policy {
            // Non-PCT policies ignore priorities; keep them equal to the
            // sequence number so traces stay meaningful.
            SchedulePolicy::Fifo | SchedulePolicy::RandomWalk => seq,
            SchedulePolicy::Pct { .. } => splitmix(&mut st.rng),
        };
        st.runnable.push(Entry {
            priority,
            seq,
            task,
        });
    }

    /// Pick, remove, and return the next task per the schedule policy.
    fn pick(&self) -> Option<Task> {
        let mut st = self.state.lock();
        if st.runnable.is_empty() {
            return None;
        }
        let idx = match self.policy {
            SchedulePolicy::Fifo => {
                // Oldest seq = arrival order (Vec order is arrival order).
                0
            }
            SchedulePolicy::RandomWalk => {
                let n = st.runnable.len();
                below(&mut st.rng, n)
            }
            SchedulePolicy::Pct { .. } => {
                let step = st.steps;
                if st.change_steps.contains(&step) {
                    // Demote the current highest priority below everything.
                    if let Some(hi) = (0..st.runnable.len())
                        .max_by_key(|&i| (st.runnable[i].priority, u64::MAX - st.runnable[i].seq))
                    {
                        let min = st.runnable.iter().map(|e| e.priority).min().unwrap_or(0);
                        st.runnable[hi].priority = min.saturating_sub(1);
                    }
                }
                (0..st.runnable.len())
                    .max_by_key(|&i| (st.runnable[i].priority, u64::MAX - st.runnable[i].seq))
                    .expect("non-empty runnable list")
            }
        };
        st.steps += 1;
        st.trace.push(idx as u32);
        Some(st.runnable.remove(idx).task)
    }

    pub(crate) fn try_execute_one(&self) -> bool {
        if let Some(task) = self.pick() {
            let span = op2_trace::begin();
            task();
            op2_trace::end(span, op2_trace::EventKind::Task, op2_trace::NO_NAME, 0, 0);
            true
        } else {
            false
        }
    }

    pub(crate) fn help_until(&self, pred: &mut dyn FnMut() -> bool) {
        while !pred() {
            if !self.try_execute_one() {
                panic!(
                    "DetPool deadlock: no runnable task and the awaited event has not \
                     occurred (seed={}, policy={:?}, steps={}). Replay with \
                     DET_SEED={} to reproduce this schedule.",
                    self.seed,
                    self.policy,
                    self.state.lock().steps,
                    self.seed
                );
            }
        }
    }
}

/// Deterministic virtual pool; see module docs.
///
/// Cheap handle semantics mirror [`crate::ThreadPool`]: primitives take
/// `&DetPool` and embed [`Spawner`]s internally.
pub struct DetPool {
    inner: Arc<DetInner>,
}

impl DetPool {
    /// A deterministic pool with a [`SchedulePolicy::RandomWalk`] schedule
    /// drawn from `seed` and 4 virtual threads (for chunk planning).
    pub fn new(seed: u64) -> Self {
        Self::with_policy(seed, SchedulePolicy::RandomWalk)
    }

    /// A deterministic pool with an explicit schedule policy.
    pub fn with_policy(seed: u64, policy: SchedulePolicy) -> Self {
        let mut rng = seed ^ 0xD1B5_4A32_D192_ED03;
        // Pre-draw the PCT change points over a fixed step horizon; small
        // test programs take well under 4096 scheduling steps.
        let change_steps = match policy {
            SchedulePolicy::Pct { change_points } => (0..change_points)
                .map(|_| splitmix(&mut rng) % 4096)
                .collect(),
            _ => Vec::new(),
        };
        DetPool {
            inner: Arc::new(DetInner {
                state: Mutex::new(DetState {
                    runnable: Vec::new(),
                    rng,
                    next_seq: 0,
                    steps: 0,
                    trace: Vec::new(),
                    change_steps,
                }),
                seed,
                policy,
            }),
        }
    }

    /// The seed this pool's schedule is drawn from.
    pub fn seed(&self) -> u64 {
        self.inner.seed
    }

    /// The schedule policy in use.
    pub fn policy(&self) -> SchedulePolicy {
        self.inner.policy
    }

    /// Scheduling decisions taken so far (index chosen at each step).
    pub fn trace(&self) -> Vec<u32> {
        self.inner.state.lock().trace.clone()
    }

    /// Compact rendering of the schedule trace, e.g. `"0.2.1.0"` — printed
    /// alongside the seed as the `(seed, schedule)` replay pair.
    pub fn schedule_string(&self) -> String {
        self.trace()
            .iter()
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join(".")
    }

    /// Run queued tasks (in schedule order) until none remain.
    pub fn run_until_quiescent(&self) {
        while self.inner.try_execute_one() {}
    }

    /// Convenience for doctests/examples: run `body` against this pool and
    /// return the resulting schedule string.
    pub fn replay(&self, body: impl FnOnce(&DetPool)) -> String {
        body(self);
        self.schedule_string()
    }
}

impl Pool for DetPool {
    fn num_threads(&self) -> usize {
        VIRTUAL_THREADS
    }

    fn spawn_boxed(&self, task: Task) {
        self.inner.enqueue(task);
    }

    fn try_execute_one(&self) -> bool {
        self.inner.try_execute_one()
    }

    fn spawner(&self) -> Spawner {
        Spawner::det(Arc::downgrade(&self.inner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_marked(pool: &DetPool, n: usize) -> Vec<usize> {
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..n {
            let order = Arc::clone(&order);
            pool.spawn_boxed(Box::new(move || order.lock().push(i)));
        }
        pool.run_until_quiescent();
        let v = order.lock().clone();
        v
    }

    #[test]
    fn fifo_runs_in_arrival_order() {
        let pool = DetPool::with_policy(0, SchedulePolicy::Fifo);
        assert_eq!(run_marked(&pool, 5), vec![0, 1, 2, 3, 4]);
        assert_eq!(pool.schedule_string(), "0.0.0.0.0");
    }

    #[test]
    fn random_walk_is_replayable() {
        let a = run_marked(&DetPool::new(7), 8);
        let b = run_marked(&DetPool::new(7), 8);
        assert_eq!(a, b, "same seed, same schedule");
        let c = run_marked(&DetPool::new(8), 8);
        // Overwhelmingly likely to differ for 8 tasks; if this seed pair ever
        // collides, change one of them.
        assert_ne!(a, c, "different seeds explore different schedules");
    }

    #[test]
    fn pct_is_replayable() {
        let p = SchedulePolicy::Pct { change_points: 3 };
        let a = run_marked(&DetPool::with_policy(11, p), 10);
        let b = run_marked(&DetPool::with_policy(11, p), 10);
        assert_eq!(a, b);
        let ta = DetPool::with_policy(11, p);
        run_marked(&ta, 10);
        let tb = DetPool::with_policy(11, p);
        run_marked(&tb, 10);
        assert_eq!(ta.trace(), tb.trace());
    }

    #[test]
    fn tasks_spawned_by_tasks_are_scheduled() {
        let pool = DetPool::new(3);
        let hits = Arc::new(Mutex::new(0));
        let sp = Pool::spawner(&pool);
        let hits2 = Arc::clone(&hits);
        pool.spawn_boxed(Box::new(move || {
            let hits3 = Arc::clone(&hits2);
            sp.spawn(Box::new(move || *hits3.lock() += 1))
                .ok()
                .expect("pool alive");
            *hits2.lock() += 1;
        }));
        pool.run_until_quiescent();
        assert_eq!(*hits.lock(), 2);
    }

    #[test]
    #[should_panic(expected = "DetPool deadlock")]
    fn deadlock_is_detected() {
        let pool = DetPool::new(1);
        let sp = Pool::spawner(&pool);
        sp.help_until(|| false);
    }
}
