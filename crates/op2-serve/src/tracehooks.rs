//! Job-level trace instrumentation.
//!
//! Each dispatched job is one [`op2_trace::EventKind::Job`] span (name =
//! job name, `a` = job id, `b` = interned tenant); each admission shed is
//! one [`op2_trace::EventKind::Shed`] instant (name = tenant, `a` =
//! rejection code, `b` = queue depth). While no `op2_trace::Collector` is
//! recording, each hook is one relaxed load.

use op2_trace::EventKind;

/// Open a job span (worker-side, just before the program runs).
#[inline]
pub fn job_begin() -> op2_trace::SpanToken {
    op2_trace::begin()
}

/// Close a job span.
#[inline]
pub fn job_end(token: op2_trace::SpanToken, name: &str, id: u64, tenant: &str) {
    if op2_trace::enabled() {
        let n = op2_trace::intern(name);
        let t = op2_trace::intern(tenant);
        op2_trace::end(token, EventKind::Job, n, id, t as u64);
    }
}

/// Record a load shed (`code`: 0 queue-full, 1 quota, 2 shutdown).
#[inline]
pub fn shed(tenant: &str, code: u64, depth: u64) {
    if op2_trace::enabled() {
        let t = op2_trace::intern(tenant);
        op2_trace::instant(EventKind::Shed, t, code, depth);
    }
}
