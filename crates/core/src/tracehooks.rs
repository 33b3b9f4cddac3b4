//! Loop-level trace instrumentation shared by every executor.
//!
//! Each `Executor::execute` call is one **loop instance** with a unique id
//! (monotonic, starting at 1 — [`op2_trace::NO_INSTANCE`] is 0). The hooks
//! here emit the paired [`op2_trace::EventKind::LoopBegin`] /
//! [`op2_trace::EventKind::LoopEnd`] instants the assembler turns into
//! loop-instance nodes, and the [`op2_trace::EventKind::DepEdge`] instants
//! that connect them into the measured task graph:
//!
//! * synchronous executors (serial, fork-join, for-each) chain instances in
//!   program order via [`chain`] — each loop depends on the previous one
//!   issued on the same executor, which is exactly the semantics their
//!   implicit end-of-loop barrier enforces;
//! * the async executor records an edge from every instance the calling
//!   thread explicitly synchronized on ([`synced_push`] from
//!   `LoopHandle::wait`/`get`, drained by [`synced_drain`] at the next
//!   `execute`) — mirroring the paper's "programmer places the `.get()`"
//!   contract;
//! * the dataflow executor emits the real RAW/WAW/WAR edges from its
//!   dependency table.
//!
//! Instance ids are allocated unconditionally (one relaxed `fetch_add` per
//! loop — negligible next to plan lookup); everything else is one relaxed
//! load while no `op2_trace::Collector` is recording.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

use op2_trace::{EventKind, NO_NAME};

static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(1);

/// Allocate a fresh loop-instance id. Monotonic across all executors in the
/// process, so a dependency edge always points from a smaller id to a larger
/// one (the assembler rejects anything else as torn).
pub fn next_instance() -> u64 {
    NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed)
}

/// Record that loop `instance` (named `loop_name`, running under `executor`)
/// started executing.
#[inline]
pub fn loop_begin(loop_name: &str, executor: &'static str, instance: u64) {
    if op2_trace::enabled() {
        let name = op2_trace::intern(loop_name);
        let exec = op2_trace::intern(executor);
        op2_trace::instant(EventKind::LoopBegin, name, instance, exec as u64);
    }
}

/// Record that loop `instance` finished executing.
#[inline]
pub fn loop_end(instance: u64) {
    op2_trace::instant(EventKind::LoopEnd, NO_NAME, instance, 0);
}

/// Record a dependency edge `from → to` between two loop instances.
/// Sentinel (0) endpoints and self-edges are dropped.
#[inline]
pub fn edge(from: u64, to: u64) {
    if from != op2_trace::NO_INSTANCE && to != op2_trace::NO_INSTANCE && from != to {
        op2_trace::instant(EventKind::DepEdge, NO_NAME, from, to);
    }
}

/// Program-order chaining for synchronous executors: emit an edge from the
/// executor's previous instance (held in `last`) to `instance`, then make
/// `instance` the new tail.
#[inline]
pub fn chain(last: &AtomicU64, instance: u64) {
    let prev = last.swap(instance, Ordering::Relaxed);
    edge(prev, instance);
}

/// Record that `loop_name` rolled its write-set back (`ndats` dats restored).
#[inline]
pub fn rollback(loop_name: &str, ndats: u64) {
    if op2_trace::enabled() {
        let name = op2_trace::intern(loop_name);
        op2_trace::instant(EventKind::Rollback, name, ndats, 0);
    }
}

/// Record a supervisor retry of `loop_name` (attempt number within the
/// degradation-ladder rung).
#[inline]
pub fn retry(loop_name: &str, attempt: u64, rung: u64) {
    if op2_trace::enabled() {
        let name = op2_trace::intern(loop_name);
        op2_trace::instant(EventKind::Retry, name, attempt, rung);
    }
}

/// Record that dataflow node `instance` (loop `loop_name`) was poisoned by an
/// upstream failure and never ran.
#[inline]
pub fn poison(loop_name: &str, instance: u64) {
    if op2_trace::enabled() {
        let name = op2_trace::intern(loop_name);
        op2_trace::instant(EventKind::Poison, name, instance, 0);
    }
}

thread_local! {
    /// Loop instances this thread has synchronized on (`LoopHandle::wait` /
    /// `get`) since it last issued a loop.
    static SYNCED: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Note that the calling thread synchronized on loop `instance`.
#[inline]
pub fn synced_push(instance: u64) {
    if op2_trace::enabled() && instance != op2_trace::NO_INSTANCE {
        SYNCED.with(|v| v.borrow_mut().push(instance));
    }
}

/// Take (and clear) the list of instances the calling thread synchronized on.
#[inline]
pub fn synced_drain() -> Vec<u64> {
    if !op2_trace::enabled() {
        return Vec::new();
    }
    SYNCED.with(|v| std::mem::take(&mut *v.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instances_are_monotonic_and_nonzero() {
        let a = next_instance();
        let b = next_instance();
        assert!(a >= 1);
        assert!(b > a);
    }

    #[test]
    fn chain_swaps_tail() {
        let last = AtomicU64::new(0);
        chain(&last, 7);
        assert_eq!(last.load(Ordering::Relaxed), 7);
        chain(&last, 9);
        assert_eq!(last.load(Ordering::Relaxed), 9);
    }

    #[test]
    fn synced_list_roundtrip() {
        // With no active collector the list stays empty.
        synced_push(3);
        let drained = synced_drain();
        if op2_trace::enabled() {
            assert_eq!(drained, vec![3]);
        } else {
            assert!(drained.is_empty());
        }
    }
}
