//! Dynamic race detection for deterministic schedule exploration
//! (`det` feature).
//!
//! Compiled only with `--features det`, this module provides a **thread-local
//! dynamic race detector** that the parallel executors (crate `op2-hpx`)
//! drive while running under the deterministic scheduler
//! (`hpx_rt::DetPool`). Because `DetPool` executes every task on the calling
//! thread, a thread-local detector observes the *complete* interleaved
//! execution of a loop — and different tests (which Rust runs on different
//! threads) get fully isolated detector instances for free.
//!
//! Three invariants are checked:
//!
//! 1. **Element exclusivity** — no two blocks scheduled in the same epoch
//!    (same loop, same color) may touch the same dat element with conflicting
//!    access modes (`Inc` counts as a write). [`record_access`] is called by
//!    the instrumented [`crate::DatView`] accessors.
//! 2. **Plan coloring** — [`check_plan`] re-validates
//!    [`crate::Plan::validate`]'s coloring invariant at execution time.
//! 3. **Dataflow ordering** — [`dataflow_register`] /
//!    [`dataflow_begin`] / [`dataflow_complete`] keep their own
//!    [`crate::deps`] table of runtime tokens, fed in the executor's program
//!    order, and verify that no loop body starts before every loop it depends
//!    on (RAW, WAW, WAR) has completed.
//!
//! Violations are *collected*, not thrown: [`disable`] returns the list of
//! [`RaceReport`]s so a test can assert emptiness (or, for deliberately
//! injected bugs, non-emptiness) and print the `(seed, schedule)` replay pair
//! of the failing interleaving.
//!
//! The only test-only back door is [`inject_coloring_bug`], which makes the
//! next [`crate::Plan::build`] merge two colors — deliberately breaking the
//! coloring so the acceptance test can prove the detector catches it.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::access::Access;
use crate::arg::ArgSpec;
use crate::deps::{by_producer, Deps};
use crate::plan::Plan;

/// Which invariant a [`RaceReport`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceKind {
    /// Two same-epoch blocks touched the same element, at least one writing.
    ElementConflict,
    /// A plan failed [`crate::Plan::validate`] at execution time.
    PlanInvariant,
    /// A dataflow body began before one of its dependencies completed.
    DataflowOrder,
}

/// One detected violation.
#[derive(Debug, Clone)]
pub struct RaceReport {
    /// Invariant class.
    pub kind: RaceKind,
    /// Human-readable description (dat/element/blocks or loop names).
    pub detail: String,
}

/// Cap on stored reports; a broken coloring conflicts on thousands of
/// elements and one representative per class is all a test needs.
const MAX_REPORTS: usize = 256;

struct ElemState {
    writer: Option<u32>,
    readers: Vec<u32>,
}

#[derive(Default)]
struct Detector {
    check_plans: bool,
    epoch: u64,
    /// Set while a kernel block is executing: (epoch, block index).
    current: Option<(u64, u32)>,
    /// Keyed by (epoch, dat, elem): epochs of different loops may interleave
    /// under the dataflow executor, so per-epoch state must not be reset by
    /// accesses from another epoch.
    elems: HashMap<(u64, u64, usize), ElemState>,
    accesses: u64,
    reports: Vec<RaceReport>,

    // Dataflow ordering: the dependency rule over runtime tokens.
    df_next_token: u64,
    df_deps: Deps<u64, u64>,
    /// token -> (loop name, tokens that must complete before it begins).
    df_pending: HashMap<u64, (String, Vec<u64>)>,
    df_completed: HashSet<u64>,
}

thread_local! {
    static DETECTOR: RefCell<Option<Detector>> = const { RefCell::new(None) };
    static INJECT_COLORING_BUG: Cell<bool> = const { Cell::new(false) };
}

/// Number of threads with an active detector — the fast-path gate that keeps
/// [`record_access`] to a single relaxed load when detection is off.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

impl Detector {
    fn report(&mut self, kind: RaceKind, detail: String) {
        if self.reports.len() < MAX_REPORTS {
            self.reports.push(RaceReport { kind, detail });
        }
    }
}

/// Enable detection on the calling thread with plan validation on.
pub fn enable() {
    enable_with(true);
}

/// Enable detection on the calling thread.
///
/// `check_plans` controls whether [`check_plan`] validates colorings; tests
/// that want to exercise *element-level* detection of a broken coloring turn
/// it off so the plan check doesn't mask the dynamic detector.
pub fn enable_with(check_plans: bool) {
    DETECTOR.with(|d| {
        let mut d = d.borrow_mut();
        if d.is_none() {
            ACTIVE.fetch_add(1, Ordering::Relaxed);
        }
        *d = Some(Detector {
            check_plans,
            ..Detector::default()
        });
    });
}

/// Disable detection on the calling thread and return everything found.
pub fn disable() -> Vec<RaceReport> {
    DETECTOR.with(|d| {
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

/// True if the calling thread has an active detector.
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0 && DETECTOR.with(|d| d.borrow().is_some())
}

/// Start a new exclusivity epoch (one per color of one loop execution) and
/// return its id. Blocks of different epochs never conflict.
pub fn begin_epoch() -> u64 {
    DETECTOR.with(|d| {
        let mut d = d.borrow_mut();
        match d.as_mut() {
            Some(det) => {
                det.epoch += 1;
                det.epoch
            }
            None => 0,
        }
    })
}

/// Mark the calling thread as executing block `block` of epoch `epoch`.
pub fn enter_block(epoch: u64, block: u32) {
    DETECTOR.with(|d| {
        if let Some(det) = d.borrow_mut().as_mut() {
            det.current = Some((epoch, block));
        }
    });
}

/// Leave the current block (accesses outside blocks are not checked).
pub fn exit_block() {
    DETECTOR.with(|d| {
        if let Some(det) = d.borrow_mut().as_mut() {
            det.current = None;
        }
    });
}

/// Record a kernel access to element `elem` of dat `dat` (called by the
/// instrumented [`crate::DatView`] accessors). `Inc` counts as a write: two
/// same-epoch increments from different blocks are exactly the race the
/// coloring exists to prevent.
pub fn record_access(dat: u64, elem: usize, access: Access) {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return;
    }
    DETECTOR.with(|d| {
        let mut d = d.borrow_mut();
        let Some(det) = d.as_mut() else { return };
        let Some((epoch, block)) = det.current else {
            return;
        };
        det.accesses += 1;
        let st = det.elems.entry((epoch, dat, elem)).or_insert(ElemState {
            writer: None,
            readers: Vec::new(),
        });
        let mut conflict: Option<(u32, &'static str)> = None;
        if access.writes() {
            if let Some(w) = st.writer {
                if w != block {
                    conflict = Some((w, "write/write"));
                }
            }
            if conflict.is_none() {
                if let Some(&r) = st.readers.iter().find(|&&r| r != block) {
                    conflict = Some((r, "read/write"));
                }
            }
            st.writer = Some(block);
        } else {
            if let Some(w) = st.writer {
                if w != block {
                    conflict = Some((w, "write/read"));
                }
            }
            if !st.readers.contains(&block) {
                st.readers.push(block);
            }
        }
        if let Some((other, kind)) = conflict {
            det.report(
                RaceKind::ElementConflict,
                format!(
                    "{kind} conflict on dat {dat} element {elem}: blocks {other} and {block} \
                     run concurrently in epoch {epoch} ({} access)",
                    access.op2_name()
                ),
            );
        }
    });
}

/// Accesses recorded inside blocks since [`enable`] on the calling thread.
pub fn accesses() -> u64 {
    DETECTOR.with(|d| d.borrow().as_ref().map_or(0, |det| det.accesses))
}

/// Re-validate a plan's coloring invariant at execution time (no-op when the
/// detector is off or was enabled with `check_plans = false`).
pub fn check_plan(plan: &Plan, args: &[ArgSpec], loop_name: &str) {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return;
    }
    DETECTOR.with(|d| {
        let mut d = d.borrow_mut();
        let Some(det) = d.as_mut() else { return };
        if !det.check_plans {
            return;
        }
        if let Err(e) = plan.validate(args) {
            det.report(
                RaceKind::PlanInvariant,
                format!("loop {loop_name}: plan coloring invalid: {e}"),
            );
        }
    });
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
    DETECTOR.with(|d| {
        let mut d = d.borrow_mut();
        let Some(det) = d.as_mut() else { return 0 };
        det.df_next_token += 1;
        let token = det.df_next_token;
        let edges = det.df_deps.record(reads, writes, token);
        let need: Vec<u64> = by_producer(edges).map(|e| e[0].producer).collect();
        det.df_pending
            .insert(token, (loop_name.to_owned(), need));
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
    DETECTOR.with(|d| {
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
    DETECTOR.with(|d| {
        if let Some(det) = d.borrow_mut().as_mut() {
            det.df_completed.insert(token);
        }
    });
}

/// Test-only hook: when set, the next [`crate::Plan::build`] on this thread
/// deliberately merges two colors, breaking the exclusivity invariant — used
/// to prove the detector catches real coloring bugs. Reset it when done.
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

    /// Run `f` with a fresh detector and return its reports.
    fn with_detector(check_plans: bool, f: impl FnOnce()) -> Vec<RaceReport> {
        enable_with(check_plans);
        f();
        disable()
    }

    #[test]
    fn same_block_accesses_never_conflict() {
        let reports = with_detector(true, || {
            let e = begin_epoch();
            enter_block(e, 0);
            record_access(1, 5, Access::Inc);
            record_access(1, 5, Access::Inc);
            record_access(1, 5, Access::Read);
            exit_block();
        });
        assert!(reports.is_empty(), "{reports:?}");
    }

    #[test]
    fn cross_block_write_write_detected() {
        let reports = with_detector(true, || {
            let e = begin_epoch();
            enter_block(e, 0);
            record_access(1, 5, Access::Inc);
            exit_block();
            enter_block(e, 1);
            record_access(1, 5, Access::Inc);
            exit_block();
        });
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, RaceKind::ElementConflict);
    }

    #[test]
    fn cross_block_read_write_detected() {
        let reports = with_detector(true, || {
            let e = begin_epoch();
            enter_block(e, 0);
            record_access(1, 5, Access::Read);
            exit_block();
            enter_block(e, 1);
            record_access(1, 5, Access::Write);
            exit_block();
        });
        assert_eq!(reports.len(), 1);
    }

    #[test]
    fn cross_block_reads_are_fine() {
        let reports = with_detector(true, || {
            let e = begin_epoch();
            enter_block(e, 0);
            record_access(1, 5, Access::Read);
            exit_block();
            enter_block(e, 1);
            record_access(1, 5, Access::Read);
            exit_block();
        });
        assert!(reports.is_empty(), "{reports:?}");
    }

    #[test]
    fn new_epoch_resets_exclusivity() {
        let reports = with_detector(true, || {
            let e1 = begin_epoch();
            enter_block(e1, 0);
            record_access(1, 5, Access::Inc);
            exit_block();
            // Next color: block 1 may now touch the same element.
            let e2 = begin_epoch();
            enter_block(e2, 1);
            record_access(1, 5, Access::Inc);
            exit_block();
        });
        assert!(reports.is_empty(), "{reports:?}");
    }

    #[test]
    fn dataflow_order_violation_detected() {
        let reports = with_detector(true, || {
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
        let reports = with_detector(true, || {
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
        let reports = with_detector(true, || {
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

    #[test]
    fn disabled_detector_records_nothing() {
        record_access(1, 1, Access::Write);
        let e = begin_epoch();
        enter_block(e, 0);
        record_access(1, 1, Access::Write);
        exit_block();
        assert!(!enabled());
    }
}
