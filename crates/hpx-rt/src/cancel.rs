//! Cooperative cancellation and deadlines for parallel algorithms.
//!
//! A [`CancelToken`] is a cheaply-cloneable flag that loop bodies poll
//! *between chunks* ([`crate::for_each_chunk_cancel`] and the
//! [`crate::for_each_index_task_cancel`] variant):
//! once cancelled — explicitly or by an expired deadline — remaining chunks
//! are abandoned and the loop surfaces a [`Cancelled`] panic payload at its
//! usual failure points (the blocking call, or the returned future). A
//! supervisor uses this to walk away from a hung or doomed loop instance
//! instead of waiting for it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// Why a loop was abandoned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// [`CancelToken::cancel`] was called.
    Cancelled,
    /// The deadline set via [`CancelToken::set_deadline`] passed.
    DeadlineExpired,
}

impl std::fmt::Display for CancelReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CancelReason::Cancelled => write!(f, "cancelled"),
            CancelReason::DeadlineExpired => write!(f, "deadline expired"),
        }
    }
}

/// Panic payload used when a parallel loop is abandoned: executors
/// `catch_unwind` it and map it to a typed error instead of a kernel panic.
#[derive(Debug, Clone, Copy)]
pub struct Cancelled(pub CancelReason);

struct Inner {
    cancelled: AtomicBool,
    deadline: Mutex<Option<Instant>>,
}

/// Shared cancellation flag + optional deadline. Clones observe the same
/// state.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    /// A fresh, un-cancelled token with no deadline.
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Mutex::new(None),
            }),
        }
    }

    /// Request cancellation; checked cooperatively between chunks.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Abandon work still running past `deadline`.
    pub fn set_deadline(&self, deadline: Instant) {
        *self.inner.deadline.lock() = Some(deadline);
    }

    /// [`CancelToken::set_deadline`] relative to now.
    pub fn deadline_after(&self, d: Duration) {
        self.set_deadline(Instant::now() + d);
    }

    /// The currently-armed deadline, if any. A supervisor snapshots this
    /// before tightening the deadline for one attempt, then restores it —
    /// composing a job-level deadline with per-attempt ones.
    pub fn deadline(&self) -> Option<Instant> {
        *self.inner.deadline.lock()
    }

    /// Set or clear the deadline (the `Option` form of
    /// [`CancelToken::set_deadline`]); the cancel flag is untouched.
    pub fn set_deadline_opt(&self, deadline: Option<Instant>) {
        *self.inner.deadline.lock() = deadline;
    }

    /// Reset the token: clears both the cancel flag and any deadline, so the
    /// token can be reused for the next attempt.
    pub fn clear(&self) {
        self.inner.cancelled.store(false, Ordering::Release);
        *self.inner.deadline.lock() = None;
    }

    /// Why (if at all) work under this token should stop now.
    ///
    /// The fast path is a single atomic load; the deadline is only consulted
    /// when one is set.
    pub fn check(&self) -> Option<CancelReason> {
        if self.inner.cancelled.load(Ordering::Acquire) {
            return Some(CancelReason::Cancelled);
        }
        let deadline = *self.inner.deadline.lock();
        match deadline {
            Some(d) if Instant::now() >= d => Some(CancelReason::DeadlineExpired),
            _ => None,
        }
    }

    /// Has [`CancelToken::cancel`] been called (deadline not consulted)?
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_and_clear() {
        let t = CancelToken::new();
        assert_eq!(t.check(), None);
        t.cancel();
        assert_eq!(t.check(), Some(CancelReason::Cancelled));
        let t2 = t.clone();
        assert_eq!(t2.check(), Some(CancelReason::Cancelled));
        t.clear();
        assert_eq!(t2.check(), None);
    }

    #[test]
    fn deadline_expiry() {
        let t = CancelToken::new();
        t.set_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(t.check(), Some(CancelReason::DeadlineExpired));
        t.clear();
        t.deadline_after(Duration::from_secs(3600));
        assert_eq!(t.check(), None);
    }
}
