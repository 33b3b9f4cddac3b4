//! The result of issuing a parallel loop: ready now, or a future.

use hpx_rt::SharedFuture;
use op2_trace::{EventKind, NO_INSTANCE, NO_NAME};
use parking_lot::Mutex;

use crate::recover::{FenceReport, LoopError};
use crate::tracehooks;

/// A loop's completion future. It resolves to a *value* either way: the
/// global reduction, or the typed [`LoopError`] (write-set already rolled
/// back, where the runtime rolls back) — the error travels inside the
/// future, never beside it.
pub(crate) type LoopFuture = SharedFuture<Result<Vec<f64>, LoopError>>;

/// Handle to an issued loop.
///
/// Synchronous backends return a handle that is already complete;
/// asynchronous ones (async / dataflow) return a pending handle — the
/// analogue of the `new_data` futures in Fig. 10 of the paper. The payload is
/// the loop's global reduction (empty when none was declared), or the
/// [`LoopError`] it failed with: [`LoopHandle::get`]/[`LoopHandle::wait`]
/// rethrow that error, [`LoopHandle::try_get`]/[`LoopHandle::try_wait`]
/// return it, as often as they are asked.
pub struct LoopHandle {
    inner: HandleInner,
    /// Trace loop-instance id ([`NO_INSTANCE`] when untraced), so waits on
    /// this handle attribute their blocked time to the awaited loop.
    instance: u64,
}

enum HandleInner {
    Ready(Vec<f64>),
    Pending(LoopFuture),
}

impl LoopHandle {
    /// A handle that is already complete.
    pub fn ready(gbl: Vec<f64>) -> Self {
        LoopHandle {
            inner: HandleInner::Ready(gbl),
            instance: NO_INSTANCE,
        }
    }

    /// A handle backed by the loop's completion future.
    pub fn pending(fut: SharedFuture<Result<Vec<f64>, LoopError>>) -> Self {
        LoopHandle {
            inner: HandleInner::Pending(fut),
            instance: NO_INSTANCE,
        }
    }

    /// Tag the handle with its trace loop-instance id.
    pub fn with_instance(mut self, instance: u64) -> Self {
        self.instance = instance;
        self
    }

    /// The trace loop-instance id ([`NO_INSTANCE`] when untraced).
    pub fn instance(&self) -> u64 {
        self.instance
    }

    /// Has the loop finished?
    pub fn is_ready(&self) -> bool {
        match &self.inner {
            HandleInner::Ready(_) => true,
            HandleInner::Pending(f) => f.is_ready(),
        }
    }

    /// Wait for completion without consuming the handle (the paper's
    /// `new_data.get()` used purely for synchronization).
    pub fn wait(&self) {
        self.try_wait().unwrap_or_else(|e| e.rethrow())
    }

    /// Wait for completion and return the global reduction.
    pub fn get(self) -> Vec<f64> {
        self.try_get().unwrap_or_else(|e| e.rethrow())
    }

    /// Wait for completion without consuming the handle, surfacing the
    /// loop's failure (if any) as a typed [`LoopError`] instead of a panic.
    pub fn try_wait(&self) -> Result<(), LoopError> {
        match &self.inner {
            HandleInner::Ready(_) => Ok(()),
            HandleInner::Pending(f) => await_loop(f, self.instance).map(drop),
        }
    }

    /// Wait for completion and return the global reduction, surfacing the
    /// loop's failure (if any) as a typed [`LoopError`] instead of a panic.
    pub fn try_get(self) -> Result<Vec<f64>, LoopError> {
        match self.inner {
            HandleInner::Ready(gbl) => Ok(gbl),
            HandleInner::Pending(f) => await_loop(&f, self.instance),
        }
    }
}

/// The wait every accessor goes through: a dependency-wait span tagged with
/// the awaited loop, and the loop noted as synchronized-on.
fn await_loop(f: &LoopFuture, instance: u64) -> Result<Vec<f64>, LoopError> {
    let span = op2_trace::begin();
    let res = f.get();
    op2_trace::end(span, EventKind::DepWait, NO_NAME, instance, 0);
    tracehooks::synced_push(instance);
    res
}

/// Loops below this many are never pruned from an [`Outstanding`] list.
pub(crate) const PRUNE_FLOOR: usize = 32;

/// The loops an asynchronous executor issued and does not yet know to have
/// succeeded: what its fence waits for, and reports from.
pub(crate) struct Outstanding {
    /// The futures, and the length at which to prune them next.
    inner: Mutex<(Vec<LoopFuture>, usize)>,
}

impl Default for Outstanding {
    fn default() -> Self {
        Outstanding {
            inner: Mutex::new((Vec::new(), PRUNE_FLOOR)),
        }
    }
}

impl Outstanding {
    /// Track a newly issued loop. Entries that completed `Ok` are dropped on
    /// the way (whenever the list has doubled since the last sweep, so the
    /// cost stays constant per loop): a march that fences once at its end
    /// holds its in-flight loops, not every loop it ever issued. Failed
    /// entries stay until a fence has reported them.
    pub(crate) fn push(&self, fut: LoopFuture) {
        let mut guard = self.inner.lock();
        let (list, prune_at) = &mut *guard;
        if list.len() >= *prune_at {
            list.retain(|f| !(f.is_ready() && matches!(f.try_get(), Ok(Ok(_)))));
            *prune_at = (2 * list.len()).max(PRUNE_FLOOR);
        }
        list.push(fut);
    }

    /// Wait for every tracked loop and report each failure, in issue order.
    pub(crate) fn fence(&self) -> Result<(), FenceReport> {
        // Taken out first: waiters work-help, and a body they run must not
        // find the lock held.
        let pending = std::mem::take(&mut self.inner.lock().0);
        let failures: Vec<LoopError> = pending.iter().filter_map(|f| f.get().err()).collect();
        if failures.is_empty() {
            Ok(())
        } else {
            Err(FenceReport { failures })
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().0.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ready_handle() {
        let h = LoopHandle::ready(vec![1.5]);
        assert!(h.is_ready());
        h.wait();
        assert_eq!(h.get(), vec![1.5]);
    }

    #[test]
    fn pending_handle() {
        let h = LoopHandle::pending(SharedFuture::ready(Ok(vec![2.0])));
        assert!(h.is_ready());
        assert_eq!(h.get(), vec![2.0]);
    }
}
