//! Transactional loop execution and supervised recovery.
//!
//! Every OP2 loop declares its write-set exactly (each `OP_WRITE` / `OP_RW` /
//! `OP_INC` argument names a dat), which makes parallel loops *natural
//! transactions* — for whoever can use one. Nothing consumes a snapshot
//! unless something is there to retry the loop, so taking one is a property
//! of the runtime, off by default:
//!
//! * **A bare executor** (any backend over a plain [`Op2Runtime`]) promises a
//!   *typed* failure and nothing more. A kernel panic, a tripped
//!   [`ParLoop::guard_finite`] scan or a cancellation surfaces as a
//!   [`LoopError`] carrying full provenance (loop name, backend, element,
//!   kernel message) with `rolled_back: false`; whatever the failed run had
//!   already written is still in the dats. No copy is made between two
//!   loops.
//! * **A rollback-on runtime** ([`Op2Runtime::with_rollback`], which
//!   [`Supervisor::new`] / [`Supervisor::with_ladder`] derive for themselves
//!   from whatever runtime they are given) brackets every loop with
//!   [`WriteSet::capture`] and, on any of those failures, restores the
//!   snapshot **bit-identically** before the error becomes observable
//!   (`rolled_back: true`). What is captured is the declared write
//!   *footprint* ([`ParLoop::write_footprint`]): nothing for a dat the loop
//!   only `OP_WRITE`s directly (it never observed the old contents and a
//!   retry rewrites it in full, so it is left holding unspecified values —
//!   the one exception to "restored"), only the reachable rows for a dat
//!   written through map slots that reach at most half of it, the whole dat
//!   otherwise.
//!
//! `Transaction` is the one capture → run → guard → restore path; every
//! executor and both colored runners go through it, and the runtime's flag
//! has no other reader.
//!
//! Layered on top, a [`Supervisor`] implements the recovery ladder:
//!
//! 1. **rollback** — the transaction already restored the data;
//! 2. **retry** — re-run the same shape, bounded attempts with backoff;
//! 3. **degrade** — walk down the backend ladder (e.g. for_each → fork-join
//!    → serial) and retry on simpler, more deterministic execution;
//! 4. **escalate** — give up locally once the circuit-breaker quota is
//!    exhausted and return the last [`LoopError`] (a distributed driver then
//!    escalates to fabric-level checkpoint recovery, see `op2-dist`).
//!
//! Because every attempt starts from the restored pre-loop state, a
//! successful retry — even on a different backend — produces results
//! bit-identical to a run that never failed (all backends share plan-ordered
//! accumulation semantics).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hpx_rt::{CancelReason, TaskFailure, TaskPanic};
use op2_core::{DatSnapshot, ParLoop, PlanError, WriteFootprint};

use crate::factory::BackendKind;
use crate::handle::LoopHandle;
use crate::runtime::Op2Runtime;
use crate::tracehooks;
use crate::tune::kind_to_choice;
use crate::Executor;

/// Why a loop failed, with provenance, and its class: a [`Supervisor`] retries
/// *transient*, returns *deterministic* after one attempt, stops at *terminal*.
#[derive(Debug, Clone, PartialEq)]
pub enum FailureKind {
    /// The kernel panicked. Transient: the fault need not recur on the
    /// restored data.
    KernelPanic {
        /// Rendering of the kernel's panic payload.
        message: String,
        /// Iteration-set element being processed (per-block element
        /// tracking; `None` only for a panic raised outside a kernel body).
        element: Option<usize>,
    },
    /// The loop ran to completion but the [`ParLoop::guard_finite`] scan
    /// found a NaN/Inf in a written dat. Transient, like a panic: a fault
    /// outside the declared inputs need not recur.
    NonFinite {
        /// Name of the offending dat.
        dat: String,
        /// Element holding the first non-finite value.
        element: usize,
        /// Component within the element.
        component: usize,
    },
    /// The execution plan failed validation for this loop's arguments.
    /// Deterministic: the plan and its validation are cached.
    Plan(PlanError),
    /// The loop was abandoned cooperatively (supervisor cancel or deadline).
    /// Transient for an attempt's deadline, terminal for the job's.
    Cancelled(CancelReason),
    /// A dataflow node never ran because an upstream dependency failed.
    /// Transient (never seen by a supervisor, which runs loops blocking).
    Poisoned {
        /// Failure message of the upstream node that failed — the root of
        /// the chain, when the node's dependency was itself poisoned.
        origin: String,
    },
    /// The supervisor's circuit breaker is open: its failure quota was
    /// already exhausted, so no further execution was attempted. Terminal.
    CircuitOpen,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureKind::KernelPanic { message, element } => {
                write!(f, "kernel panicked")?;
                if let Some(e) = element {
                    write!(f, " at element {e}")?;
                }
                write!(f, ": {message}")
            }
            FailureKind::NonFinite {
                dat,
                element,
                component,
            } => write!(
                f,
                "non-finite value in written dat '{dat}' at element {element}[{component}]"
            ),
            FailureKind::Plan(e) => write!(f, "invalid plan: {e}"),
            FailureKind::Cancelled(r) => write!(f, "abandoned: {r}"),
            FailureKind::Poisoned { origin } => {
                write!(f, "poisoned by failed dependency: {origin}")
            }
            FailureKind::CircuitOpen => {
                write!(f, "circuit breaker open: failure quota exhausted")
            }
        }
    }
}

/// A failed parallel loop, with provenance and rollback status — the typed
/// error of [`crate::Executor::try_execute`].
#[derive(Debug, Clone, PartialEq)]
pub struct LoopError {
    /// Name of the failed loop.
    pub loop_name: String,
    /// Backend that executed (or refused) it.
    pub backend: &'static str,
    /// What went wrong.
    pub kind: FailureKind,
    /// Was the declared write-set restored to its pre-loop contents?
    ///
    /// `true` only on a rollback-on runtime ([`Op2Runtime::with_rollback`],
    /// which every [`Supervisor`] runs its attempts on) for a failure that
    /// ran the kernel or could have: kernel panic, tripped finite guard,
    /// cancellation. Every written dat then holds its pre-loop bits, with
    /// one exception: a dat that *every* argument naming it declares direct
    /// `OP_WRITE` holds unspecified contents — the loop never observed it
    /// and any retry rewrites it in full (`save_soln`'s `qold`, `adt_calc`'s
    /// `adt`, `update`'s `q`), so it is not copied.
    ///
    /// `false` on a bare executor — the failed run's partial writes are
    /// still in the dats — and for failures that never ran the kernel: plan
    /// errors, poisoned dataflow nodes, an open circuit breaker.
    pub rolled_back: bool,
}

impl LoopError {
    pub(crate) fn new(
        loop_name: &str,
        backend: &'static str,
        kind: FailureKind,
        rolled_back: bool,
    ) -> Self {
        LoopError {
            loop_name: loop_name.to_owned(),
            backend,
            kind,
            rolled_back,
        }
    }

    /// The element the failure is attributed to, when known.
    pub fn element(&self) -> Option<usize> {
        match &self.kind {
            FailureKind::KernelPanic { element, .. } => *element,
            FailureKind::NonFinite { element, .. } => Some(*element),
            _ => None,
        }
    }

    /// Re-raise this error as a panic — the legacy [`crate::Executor::execute`]
    /// surface. The payload is a [`TaskPanic`] so catchers keep the
    /// provenance; `resume_unwind` skips the panic hook (no spurious
    /// backtrace for an error that is being deliberately rethrown).
    pub fn rethrow(&self) -> ! {
        let message = match &self.kind {
            FailureKind::KernelPanic { message, .. } => message.clone(),
            other => other.to_string(),
        };
        std::panic::resume_unwind(Box::new(TaskPanic {
            message: message.into(),
            element: self.element(),
            context: Some(self.loop_name.clone()),
        }))
    }
}

impl std::fmt::Display for LoopError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "loop '{}' [{}]: {}", self.loop_name, self.backend, self.kind)?;
        if self.rolled_back {
            write!(f, " (write-set rolled back)")?;
        }
        Ok(())
    }
}

impl std::error::Error for LoopError {}

/// The declared write footprint of a loop, captured as type-erased
/// snapshots.
pub struct WriteSet {
    snaps: Vec<Box<dyn DatSnapshot>>,
}

impl WriteSet {
    /// Snapshot what `loop_` declares it may modify, bounded by
    /// [`ParLoop::write_footprint`]: each written dat once, whole, by the
    /// rows its writing map slots reach, or — written directly and never
    /// observed — not at all.
    pub fn capture(loop_: &ParLoop) -> WriteSet {
        let footprint = loop_.write_footprint();
        WriteSet {
            snaps: footprint.iter().filter_map(WriteFootprint::snapshot).collect(),
        }
    }

    /// Restore everything captured to its snapshotted contents,
    /// bit-identically.
    pub fn restore(&self) {
        for s in &self.snaps {
            s.restore();
        }
    }

    /// Number of dats captured (whole or by rows).
    pub fn len(&self) -> usize {
        self.snaps.len()
    }

    /// Was there nothing to capture (a pure-reduction loop, or one that only
    /// overwrites)?
    pub fn is_empty(&self) -> bool {
        self.snaps.is_empty()
    }
}

/// First non-finite value across the loop's written `f64` dats.
pub(crate) fn check_finite(loop_: &ParLoop) -> Option<FailureKind> {
    let mut seen: Vec<u64> = Vec::new();
    for a in loop_.args() {
        if a.access.writes() && !seen.contains(&a.dat_id) {
            seen.push(a.dat_id);
            if let Some((element, component)) = a.raw().find_nonfinite() {
                return Some(FailureKind::NonFinite {
                    dat: a.dat_name.clone(),
                    element,
                    component,
                });
            }
        }
    }
    None
}

/// What a failed task carried, as this crate's failure vocabulary.
impl From<TaskFailure> for FailureKind {
    fn from(failure: TaskFailure) -> Self {
        match failure {
            TaskFailure::Panic(tp) => FailureKind::KernelPanic {
                message: tp.message.into_owned(),
                element: tp.element,
            },
            TaskFailure::Cancelled(reason) => FailureKind::Cancelled(reason),
        }
    }
}

/// An open transaction on a loop's declared write-set: the snapshot, when
/// the runtime asks for one, is taken by [`Transaction::begin`];
/// [`Transaction::finish`] commits or aborts it. [`run_transaction`] brackets
/// a blocking body with the two; a continuation chain begins at issue and
/// finishes in its last continuation.
pub(crate) struct Transaction {
    /// `None` on a rollback-off runtime: nothing was copied, so a failure
    /// has nothing to restore.
    ws: Option<WriteSet>,
    backend: &'static str,
}

impl Transaction {
    /// `rollback` is [`Op2Runtime::rollback`] of the runtime the loop runs
    /// on — this is the flag's one reader.
    pub(crate) fn begin(loop_: &ParLoop, backend: &'static str, rollback: bool) -> Self {
        Transaction {
            ws: rollback.then(|| WriteSet::capture(loop_)),
            backend,
        }
    }

    /// Close the transaction with the body's outcome. A failed body — or a
    /// successful one whose finite-guard scan trips (the scan is a check the
    /// loop declared, so it runs with or without a snapshot) — becomes a
    /// typed error, after the snapshot, if there is one, has been restored
    /// bit-identically.
    pub(crate) fn finish(
        self,
        loop_: &ParLoop,
        outcome: Result<Vec<f64>, FailureKind>,
    ) -> Result<Vec<f64>, LoopError> {
        let kind = match outcome {
            Ok(gbl) => match loop_.guard_finite().then(|| check_finite(loop_)).flatten() {
                None => return Ok(gbl),
                Some(kind) => kind,
            },
            Err(kind) => kind,
        };
        if let Some(ws) = &self.ws {
            ws.restore();
            tracehooks::rollback(loop_.name(), ws.len() as u64);
        }
        Err(LoopError::new(loop_.name(), self.backend, kind, self.ws.is_some()))
    }
}

/// Run `body` as a transaction on `loop_`'s declared write-set: snapshot
/// first if `rollback`; on panic (or a failed finite-guard scan afterwards)
/// restore the snapshot, if any, and return a typed error.
pub(crate) fn run_transaction(
    loop_: &ParLoop,
    backend: &'static str,
    rollback: bool,
    body: impl FnOnce() -> Vec<f64>,
) -> Result<Vec<f64>, LoopError> {
    let tx = Transaction::begin(loop_, backend, rollback);
    let outcome = catch_unwind(AssertUnwindSafe(body));
    tx.finish(loop_, outcome.map_err(|p| TaskFailure::of(&p).into()))
}

/// Every failure a fence observed, in issue order — the aggregate error
/// of [`crate::Executor::try_fence`]. Asynchronous executors report *all*
/// pending failures here, not just the first.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FenceReport {
    /// The failed loops, each with full provenance.
    pub failures: Vec<LoopError>,
}

impl std::fmt::Display for FenceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} loop(s) failed at fence:", self.failures.len())?;
        for e in &self.failures {
            write!(f, "\n  {e}")?;
        }
        Ok(())
    }
}

impl std::error::Error for FenceReport {}

/// The tighter of two optional deadlines.
fn min_deadline(a: Option<Instant>, b: Option<Instant>) -> Option<Instant> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// Retry/degradation policy for a [`Supervisor`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Additional attempts per ladder rung after the first (so each rung
    /// executes at most `1 + max_retries` times).
    pub max_retries: usize,
    /// Backoff slept before retry `n` is `backoff * n` (linear).
    pub backoff: Duration,
    /// Circuit breaker: total failures tolerated across the supervisor's
    /// lifetime. Once spent, [`Supervisor::run`] fails fast with
    /// [`FailureKind::CircuitOpen`] without executing anything.
    pub quota: usize,
    /// Per-attempt deadline armed on the runtime's [`hpx_rt::CancelToken`];
    /// loops abandon cooperatively between chunks/colors when it expires.
    pub deadline: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 1,
            backoff: Duration::ZERO,
            quota: 8,
            deadline: None,
        }
    }
}

/// Policy wrapper executing loops with bounded retries and backend
/// degradation (see the module docs for the full ladder).
///
/// A supervisor is what consumes a rollback, so it turns rollback on: its
/// attempts run on a runtime derived from the one it was given (same pool,
/// plan cache, cancel token and tuner) with [`Op2Runtime::with_rollback`]
/// set — callers hand it any runtime and keep the guarantee.
///
/// A supervisor waits for every loop, so each attempt is one blocking run
/// of the rung's kind (`Op2Runtime::run_blocking`; a futurized kind runs
/// as the colored `for_each` its executor would have spawned): nothing is
/// constructed per attempt and a failed one leaves nothing pending behind,
/// and the transactional rollback guarantees each attempt starts from
/// pristine pre-loop data.
pub struct Supervisor {
    /// Rollback-on (see the struct docs).
    rt: Arc<Op2Runtime>,
    ladder: Vec<BackendKind>,
    /// The ladder as the tuner's menu.
    choices: Vec<op2_tune::BackendChoice>,
    policy: RetryPolicy,
    quota: AtomicUsize,
    last_instance: AtomicU64,
}

impl Supervisor {
    /// Supervisor whose ladder starts at `primary` and degrades through
    /// fork-join to serial (duplicates removed).
    pub fn new(rt: Arc<Op2Runtime>, primary: BackendKind, policy: RetryPolicy) -> Self {
        let mut ladder = vec![primary];
        for fallback in [BackendKind::ForkJoin, BackendKind::Serial] {
            if !ladder.contains(&fallback) {
                ladder.push(fallback);
            }
        }
        Self::with_ladder(rt, ladder, policy)
    }

    /// Supervisor with an explicit degradation ladder (tried left to right).
    /// An empty ladder degrades to `[BackendKind::Serial]`, the floor every
    /// ladder ends at.
    pub fn with_ladder(
        rt: Arc<Op2Runtime>,
        mut ladder: Vec<BackendKind>,
        policy: RetryPolicy,
    ) -> Self {
        if ladder.is_empty() {
            ladder.push(BackendKind::Serial);
        }
        let rt = if rt.rollback() {
            rt
        } else {
            Arc::new(rt.share().with_rollback())
        };
        let quota = AtomicUsize::new(policy.quota);
        Supervisor {
            rt,
            choices: ladder.iter().copied().map(kind_to_choice).collect(),
            ladder,
            policy,
            quota,
            last_instance: AtomicU64::new(0),
        }
    }

    /// The degradation ladder, most-preferred first.
    pub fn ladder(&self) -> &[BackendKind] {
        &self.ladder
    }

    /// Failures still tolerated before the circuit breaker opens.
    pub fn quota_remaining(&self) -> usize {
        self.quota.load(Ordering::Relaxed)
    }

    /// Spend one unit of quota; false if already exhausted.
    fn spend_quota(&self) -> bool {
        self.quota
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |q| q.checked_sub(1))
            .is_ok()
    }

    /// Execute `loop_` under the recovery ladder; returns the global
    /// reduction of the first successful attempt, the first deterministic
    /// failure ([`FailureKind::Plan`]), or the last failure once retries,
    /// degradation, and quota are exhausted.
    pub fn run(&self, loop_: &ParLoop) -> Result<Vec<f64>, LoopError> {
        let mut last: Option<LoopError> = None;
        let token = self.rt.cancel_token().clone();
        // The runtime token may carry *job-level* state armed by a service
        // (a cancel flag from `try_cancel`, a deadline from the job budget).
        // Both are sticky: an explicit cancel terminates the ladder, and the
        // job deadline is restored after every attempt tightens it.
        let job_deadline = token.deadline();
        // Feedback-directed first rung: the first attempt offers the
        // runtime's tuner (if any) the ladder's backends and runs its pick;
        // the degradation order behind it is unchanged. Retries and fallback
        // rungs ask the tuner nothing — they measure recovery, not a
        // candidate — so only a first-try success is credited to the trial.
        let mut menu = Some(&self.choices[..]);
        let mut kind = self.ladder[0];
        // What rung 0 ran: the primary, or the tuner's pick promoted over it.
        let mut first = kind;
        let mut rest = self.ladder.iter().copied();
        for rung in 0.. {
            for attempt in 0..=self.policy.max_retries {
                if self.quota_remaining() == 0 {
                    return Err(last.unwrap_or_else(|| {
                        LoopError::new(loop_.name(), "supervisor", FailureKind::CircuitOpen, false)
                    }));
                }
                if let Some(e) = self.job_abandoned(loop_, &token, job_deadline) {
                    return Err(e);
                }
                if rung > 0 || attempt > 0 {
                    tracehooks::retry(loop_.name(), attempt as u64, rung as u64);
                }
                if attempt > 0 && !self.policy.backoff.is_zero() {
                    std::thread::sleep(self.policy.backoff * attempt as u32);
                }
                let attempt_deadline = self.policy.deadline.map(|d| Instant::now() + d);
                token.set_deadline_opt(min_deadline(job_deadline, attempt_deadline));
                let (ran, result) =
                    self.rt.run_blocking(loop_, kind, menu.take(), &self.last_instance);
                token.set_deadline_opt(job_deadline);
                // A retry re-runs the shape that failed.
                kind = ran;
                match result.and_then(LoopHandle::try_get) {
                    Ok(gbl) => return Ok(gbl),
                    Err(e) => {
                        let _ = self.spend_quota();
                        if matches!(e.kind, FailureKind::Plan(_)) {
                            return Err(e);
                        }
                        last = Some(e);
                        // Retrying past the *job's* cancel/deadline is
                        // pointless: surface the abandonment now.
                        if let Some(e) = self.job_abandoned(loop_, &token, job_deadline) {
                            return Err(e);
                        }
                    }
                }
            }
            if rung == 0 {
                first = kind;
            }
            // Degrade to the next rung of the ladder that rung 0 did not run.
            match rest.find(|k| *k != first) {
                Some(next) => kind = next,
                None => break,
            }
        }
        Err(last.expect("ladder is non-empty, so at least one attempt ran"))
    }

    /// Terminal job-level abandonment: an external cancel, or an expired
    /// *job* deadline (per-attempt deadline expiry, by contrast, is retried).
    fn job_abandoned(
        &self,
        loop_: &ParLoop,
        token: &hpx_rt::CancelToken,
        job_deadline: Option<Instant>,
    ) -> Option<LoopError> {
        let reason = if token.is_cancelled() {
            CancelReason::Cancelled
        } else if job_deadline.is_some_and(|d| Instant::now() >= d) {
            CancelReason::DeadlineExpired
        } else {
            return None;
        };
        Some(LoopError::new(
            loop_.name(),
            "supervisor",
            FailureKind::Cancelled(reason),
            false,
        ))
    }
}

/// A supervisor is itself an [`Executor`]: each loop runs to completion under
/// the recovery ladder, so the handle is always ready and there is nothing
/// left to fence — drivers written against `&dyn Executor` march supervised
/// without a second copy of their loop sequence.
impl Executor for Supervisor {
    fn name(&self) -> &'static str {
        "supervisor"
    }

    fn try_execute(&self, loop_: &ParLoop) -> Result<LoopHandle, LoopError> {
        self.run(loop_).map(LoopHandle::ready)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use op2_core::{arg_direct, Access, Dat, Set};

    #[test]
    fn empty_ladder_degrades_to_serial() {
        let rt = Arc::new(Op2Runtime::new(2, 32));
        let sup = Supervisor::with_ladder(rt, vec![], RetryPolicy::default());
        assert_eq!(sup.ladder(), &[BackendKind::Serial]);

        let cells = Set::new("cells", 100);
        let q = Dat::filled("q", &cells, 1, 3.0f64);
        let qv = q.view();
        let square = ParLoop::build("square", &cells)
            .arg(arg_direct(&q, Access::ReadWrite))
            .kernel(move |e, _| unsafe {
                let [v] = qv.load(e);
                qv.store(e, [v * v]);
            });
        let handle = sup
            .try_execute(&square)
            .expect("serial floor runs the loop");
        assert!(handle.is_ready());
        assert!(q.to_vec().iter().all(|&v| v == 9.0));
    }
}
