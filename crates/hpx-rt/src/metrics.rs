//! Lightweight execution counters for a [`crate::ThreadPool`].
//!
//! These are the runtime's observable "performance counters" (HPX exposes a
//! much larger set); tests use them to assert scheduling behaviour (e.g. that
//! `par(task)` actually spawned tasks, or that stealing occurred) and benches
//! report them alongside timings.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters updated by the pool and its algorithms.
///
/// All counters use relaxed atomics: they are statistics, not synchronization.
#[derive(Debug, Default)]
pub struct PoolMetrics {
    /// Tasks submitted via `async_spawn`, `dataflow`, `for_each`, ….
    pub tasks_spawned: AtomicU64,
    /// Tasks actually executed (includes work-helping execution).
    pub tasks_executed: AtomicU64,
    /// Successful steals from a sibling worker's deque.
    pub steals: AtomicU64,
    /// Times a worker parked because no work was available.
    pub parks: AtomicU64,
    /// Times a thread actually blocked at a barrier (latch wait that found
    /// the latch still up, or an executor's implicit end-of-loop barrier).
    /// Counted whether or not a trace session is running: it is one relaxed
    /// increment on a path that is already blocking.
    pub barrier_waits: AtomicU64,
    /// Times a thread actually blocked on an unready future / dataflow
    /// dependency (`Future::get`, `SharedFuture::get`, handle waits).
    pub dep_waits: AtomicU64,
}

impl PoolMetrics {
    /// Snapshot all counters at once.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            tasks_spawned: self.tasks_spawned.load(Ordering::Relaxed),
            tasks_executed: self.tasks_executed.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            barrier_waits: self.barrier_waits.load(Ordering::Relaxed),
            dep_waits: self.dep_waits.load(Ordering::Relaxed),
        }
    }

    /// Count one blocking barrier wait (relaxed).
    pub fn count_barrier_wait(&self) {
        self.barrier_waits.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one blocking dependency wait (relaxed).
    pub fn count_dep_wait(&self) {
        self.dep_waits.fetch_add(1, Ordering::Relaxed);
    }
}

/// A point-in-time copy of [`PoolMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Tasks submitted.
    pub tasks_spawned: u64,
    /// Tasks executed.
    pub tasks_executed: u64,
    /// Successful steals.
    pub steals: u64,
    /// Worker park events.
    pub parks: u64,
    /// Blocking barrier waits.
    pub barrier_waits: u64,
    /// Blocking dependency waits.
    pub dep_waits: u64,
}

impl MetricsSnapshot {
    /// Counter deltas between two snapshots (`later - self`).
    pub fn delta(&self, later: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            tasks_spawned: later.tasks_spawned - self.tasks_spawned,
            tasks_executed: later.tasks_executed - self.tasks_executed,
            steals: later.steals - self.steals,
            parks: later.parks - self.parks,
            barrier_waits: later.barrier_waits - self.barrier_waits,
            dep_waits: later.dep_waits - self.dep_waits,
        }
    }
}
