//! Dataflow-order checking and coloring-bug injection for deterministic
//! schedule exploration.
//!
//! Always compiled and off until [`enable`] (checking) or
//! [`inject_coloring_bug`] (injection) arms it on a thread: off, the
//! dataflow hooks cost one relaxed load per loop issued and a plan build one
//! thread-local read. This module holds the two halves of the `det` layer
//! that live in `op2-core`:
//!
//! 1. **Dataflow ordering** — [`dataflow_register`] / [`dataflow_begin`] /
//!    [`dataflow_complete`] keep a thread-local [`crate::deps`] table of
//!    runtime tokens, fed in the dataflow executor's program order, and
//!    verify that no loop body starts before every loop it depends on (RAW,
//!    WAW, WAR) has completed. Under the deterministic scheduler
//!    (`hpx_rt::DetPool`) every task runs on the calling thread, so the
//!    thread-local checker observes the *complete* interleaving — and
//!    different tests (which Rust runs on different threads) get isolated
//!    checkers for free.
//! 2. **Coloring-bug injection** — [`inject_coloring_bug`] makes the next
//!    [`crate::Plan::build`] on this thread merge two colors. Same-color
//!    exclusivity is not checked per element: [`crate::Plan::validate_cached`]
//!    refuses a broken coloring from the `ArgSpec`s and map tables alone,
//!    and every executor runs it before a loop's first block, in every
//!    build. The hook is how the tests prove that refusal.
//!
//! Violations are *collected*, not thrown: [`disable`] returns the list of
//! [`RaceReport`]s so a test can assert emptiness and print the
//! `(seed, schedule)` replay pair of the failing interleaving.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::deps::{by_producer, Deps};

/// Which invariant a [`RaceReport`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceKind {
    /// A dataflow body began before one of its dependencies completed.
    DataflowOrder,
}

/// One detected violation.
#[derive(Debug, Clone)]
pub struct RaceReport {
    /// Invariant class.
    pub kind: RaceKind,
    /// Human-readable description (loop names and tokens).
    pub detail: String,
}

/// Cap on stored reports; one representative per class is all a test needs.
const MAX_REPORTS: usize = 256;

#[derive(Default)]
struct Checker {
    reports: Vec<RaceReport>,

    // Dataflow ordering: the dependency rule over runtime tokens.
    df_next_token: u64,
    df_deps: Deps<u64, u64>,
    /// token -> (loop name, tokens that must complete before it begins).
    df_pending: HashMap<u64, (String, Vec<u64>)>,
    df_completed: HashSet<u64>,
}

thread_local! {
    static CHECKER: RefCell<Option<Checker>> = const { RefCell::new(None) };
    static INJECT_COLORING_BUG: Cell<bool> = const { Cell::new(false) };
}

/// Number of threads with an active checker — the fast-path gate that keeps
/// the dataflow hooks to a single relaxed load when checking is off.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

impl Checker {
    fn report(&mut self, kind: RaceKind, detail: String) {
        if self.reports.len() < MAX_REPORTS {
            self.reports.push(RaceReport { kind, detail });
        }
    }
}

/// Enable checking on the calling thread (a fresh checker if one was on).
pub fn enable() {
    CHECKER.with(|d| {
        let mut d = d.borrow_mut();
        if d.is_none() {
            ACTIVE.fetch_add(1, Ordering::Relaxed);
        }
        *d = Some(Checker::default());
    });
}

/// Disable checking on the calling thread and return everything found.
pub fn disable() -> Vec<RaceReport> {
    CHECKER.with(|d| {
        let mut d = d.borrow_mut();
        match d.take() {
            Some(det) => {
                ACTIVE.fetch_sub(1, Ordering::Relaxed);
                det.reports
            }
            None => Vec::new(),
        }
    })
}

/// True if the calling thread has an active checker.
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0 && CHECKER.with(|d| d.borrow().is_some())
}

/// Register a loop with the dataflow-ordering checker, which derives its
/// dependencies by the executor's rule ([`crate::deps`]). Must be called in
/// **program order** (the dataflow executor calls it inside its table-lock
/// critical section).
/// Returns a token to pass to [`dataflow_begin`] / [`dataflow_complete`].
pub fn dataflow_register(loop_name: &str, reads: &[u64], writes: &[u64]) -> u64 {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return 0;
    }
    CHECKER.with(|d| {
        let mut d = d.borrow_mut();
        let Some(det) = d.as_mut() else { return 0 };
        det.df_next_token += 1;
        let token = det.df_next_token;
        let edges = det.df_deps.record(reads, writes, token);
        let need: Vec<u64> = by_producer(edges).map(|e| e[0].producer).collect();
        det.df_pending.insert(token, (loop_name.to_owned(), need));
        token
    })
}

/// Assert every dependency of `token` has completed (called as the loop body
/// starts). A violation means the executor reordered a body past a
/// dependency — e.g. a write overtook a pending reader.
pub fn dataflow_begin(token: u64) {
    if token == 0 || ACTIVE.load(Ordering::Relaxed) == 0 {
        return;
    }
    CHECKER.with(|d| {
        let mut d = d.borrow_mut();
        let Some(det) = d.as_mut() else { return };
        let Some((name, need)) = det.df_pending.get(&token).cloned() else {
            return;
        };
        for dep in need {
            if !det.df_completed.contains(&dep) {
                let dep_name = det
                    .df_pending
                    .get(&dep)
                    .map(|(n, _)| n.clone())
                    .unwrap_or_else(|| format!("token {dep}"));
                det.report(
                    RaceKind::DataflowOrder,
                    format!(
                        "loop {name} (token {token}) began before its dependency \
                         {dep_name} (token {dep}) completed"
                    ),
                );
            }
        }
    });
}

/// Mark `token`'s loop body as completed (called before its future resolves,
/// so dependents that begin afterwards observe it as done).
pub fn dataflow_complete(token: u64) {
    if token == 0 || ACTIVE.load(Ordering::Relaxed) == 0 {
        return;
    }
    CHECKER.with(|d| {
        if let Some(det) = d.borrow_mut().as_mut() {
            det.df_completed.insert(token);
        }
    });
}

/// Test-only hook: when set, the next [`crate::Plan::build`] on this thread
/// deliberately merges two colors, breaking the exclusivity invariant — used
/// to prove every executor refuses the broken plan. Reset it when done.
pub fn inject_coloring_bug(on: bool) {
    INJECT_COLORING_BUG.with(|f| f.set(on));
}

/// True if [`inject_coloring_bug`] is set on this thread.
pub fn coloring_bug_injected() -> bool {
    INJECT_COLORING_BUG.with(|f| f.get())
}

/// Applied by [`crate::Plan::build`] under the injection hook: merge color 1
/// into color 0 (remapping higher colors down), which makes formerly
/// conflicting blocks run in the same phase.
pub fn maybe_break_coloring(block_colors: &mut [u32], ncolors: &mut u32) {
    if !coloring_bug_injected() || *ncolors < 2 {
        return;
    }
    for c in block_colors.iter_mut() {
        *c = match *c {
            0 | 1 => 0,
            c => c - 1,
        };
    }
    *ncolors -= 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `f` with a fresh checker and return its reports.
    fn with_checker(f: impl FnOnce()) -> Vec<RaceReport> {
        enable();
        f();
        disable()
    }

    #[test]
    fn dataflow_order_violation_detected() {
        let reports = with_checker(|| {
            let a = dataflow_register("writer", &[], &[7]);
            let b = dataflow_register("reader", &[7], &[]);
            // The reader starts before the writer completed: RAW violation.
            dataflow_begin(b);
            dataflow_complete(b);
            dataflow_begin(a);
            dataflow_complete(a);
        });
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, RaceKind::DataflowOrder);
        assert!(reports[0].detail.contains("reader"), "{reports:?}");
    }

    #[test]
    fn dataflow_correct_order_is_clean() {
        let reports = with_checker(|| {
            let a = dataflow_register("writer", &[], &[7]);
            let b = dataflow_register("reader", &[7], &[]);
            let c = dataflow_register("writer2", &[], &[7]); // WAR on b, WAW on a
            dataflow_begin(a);
            dataflow_complete(a);
            dataflow_begin(b);
            dataflow_complete(b);
            dataflow_begin(c);
            dataflow_complete(c);
        });
        assert!(reports.is_empty(), "{reports:?}");
    }

    #[test]
    fn war_violation_detected() {
        let reports = with_checker(|| {
            let a = dataflow_register("writer", &[], &[7]);
            let b = dataflow_register("reader", &[7], &[]);
            let c = dataflow_register("writer2", &[], &[7]);
            dataflow_begin(a);
            dataflow_complete(a);
            // writer2 overtakes the pending reader: WAR violation.
            dataflow_begin(c);
            dataflow_complete(c);
            dataflow_begin(b);
            dataflow_complete(b);
        });
        assert!(
            reports
                .iter()
                .any(|r| r.kind == RaceKind::DataflowOrder && r.detail.contains("writer2")),
            "{reports:?}"
        );
    }

    #[test]
    fn disabled_checker_records_nothing() {
        assert!(!enabled());
        let a = dataflow_register("writer", &[], &[7]);
        assert_eq!(a, 0, "no token is handed out while checking is off");
        dataflow_begin(a);
        dataflow_complete(a);
        assert!(disable().is_empty());
    }

    #[test]
    fn injection_hook_merges_colors() {
        let mut colors = vec![0, 1, 2, 1];
        let mut n = 3;
        inject_coloring_bug(true);
        maybe_break_coloring(&mut colors, &mut n);
        inject_coloring_bug(false);
        assert_eq!(colors, vec![0, 0, 1, 0]);
        assert_eq!(n, 2);
        // Without the hook: untouched.
        let mut colors = vec![0, 1];
        let mut n = 2;
        maybe_break_coloring(&mut colors, &mut n);
        assert_eq!(colors, vec![0, 1]);
        assert_eq!(n, 2);
    }
}
