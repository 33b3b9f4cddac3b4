//! The feedback-directed executor: lets the tuner pick the backend too.
//!
//! The five concrete executors each consult the tuner for *schedule knobs*
//! (chunk size, plan parameters) but cannot change what they are. The
//! [`TunedExecutor`] closes the last loop: per decision key it offers the
//! tuner the full backend menu, instantiates the chosen executor over a
//! tuning-resolved runtime (so the inner backend does not decide again), and
//! feeds the measured issue-to-drain wall time back. Execution is
//! synchronous — asynchronous candidates are fenced before returning — which
//! is exactly what makes their wall times comparable to the blocking ones.

use std::sync::Arc;

use hpx_rt::ChunkSize;
use op2_core::ParLoop;
use op2_tune::BackendChoice;

use crate::async_fe::AsyncExecutor;
use crate::dataflow::DataflowExecutor;
use crate::factory::{make_executor, BackendKind};
use crate::foreach::ForEachExecutor;
use crate::forkjoin::ForkJoinExecutor;
use crate::handle::LoopHandle;
use crate::recover::{run_to_fence, LoopError};
use crate::runtime::Op2Runtime;
use crate::serial::SerialExecutor;
use crate::tune::{self, choice_to_kind, LoopTrial};
use crate::Executor;

/// Backend menu offered to the tuner, cheapest-to-coordinate first.
pub const TUNABLE_BACKENDS: [BackendChoice; 5] = [
    BackendChoice::ForkJoin,
    BackendChoice::ForEach,
    BackendChoice::Async,
    BackendChoice::Dataflow,
    BackendChoice::Serial,
];

/// Instantiate `kind` on `rt` honoring a tuned chunk (in plan blocks) where
/// the backend has a chunk knob at all.
pub(crate) fn make_tuned_executor(
    kind: BackendKind,
    rt: Arc<Op2Runtime>,
    chunk_blocks: Option<usize>,
) -> Box<dyn Executor> {
    match (kind, chunk_blocks) {
        (BackendKind::ForEachAuto, Some(c)) => {
            Box::new(ForEachExecutor::with_chunk(rt, ChunkSize::Tuned(c)))
        }
        (BackendKind::Async, Some(c)) => {
            Box::new(AsyncExecutor::with_chunk(rt, ChunkSize::Tuned(c)))
        }
        (BackendKind::Dataflow, Some(c)) => {
            Box::new(DataflowExecutor::with_chunk(rt, ChunkSize::Tuned(c)))
        }
        (BackendKind::Serial, _) => Box::new(SerialExecutor::new(rt)),
        (BackendKind::ForkJoin, _) => Box::new(ForkJoinExecutor::new(rt)),
        (kind, _) => make_executor(kind, rt),
    }
}

/// Executor whose backend, chunk size, and plan parameters are all picked by
/// the runtime's tuner. Falls back to the given default backend when the
/// runtime carries no tuner.
pub struct TunedExecutor {
    rt: Arc<Op2Runtime>,
    fallback: BackendKind,
}

impl TunedExecutor {
    /// Tuned executor on `rt`, defaulting to fork-join when untuned.
    pub fn new(rt: Arc<Op2Runtime>) -> Self {
        Self::with_fallback(rt, BackendKind::ForkJoin)
    }

    /// Tuned executor with an explicit untuned-runtime fallback backend.
    pub fn with_fallback(rt: Arc<Op2Runtime>, fallback: BackendKind) -> Self {
        TunedExecutor { rt, fallback }
    }

    /// The backend used when the runtime has no tuner attached.
    pub fn fallback(&self) -> BackendKind {
        self.fallback
    }
}

/// One tuner consultation, resolved against the consulted runtime — the
/// single place a decided [`op2_tune::TuneConfig`] becomes something to run.
pub(crate) struct TunedDecision {
    /// The open measurement bracket (`None` when the runtime has no tuner);
    /// the caller closes it after a run that measured the decided config.
    pub(crate) trial: Option<LoopTrial>,
    /// The backend picked from the offered menu, if the decision names one.
    pub(crate) backend: Option<BackendKind>,
    /// Runtime to execute on. With a tuner it has tuning *resolved* — no
    /// tuner (one decision per execution, made here) and the decided plan
    /// parameters pinned — so the inner executor does not decide again.
    pub(crate) rt: Arc<Op2Runtime>,
    /// Tuned chunk in plan blocks, for backends that have a chunk knob.
    pub(crate) chunk_blocks: Option<usize>,
}

/// Consult `rt`'s tuner (if any) for `loop_`, offering it `menu`.
pub(crate) fn decide(
    rt: &Arc<Op2Runtime>,
    loop_: &ParLoop,
    menu: &[BackendChoice],
) -> TunedDecision {
    let Some(trial) = tune::begin(rt, loop_, menu) else {
        return TunedDecision {
            trial: None,
            backend: None,
            rt: Arc::clone(rt),
            chunk_blocks: None,
        };
    };
    let config = trial.config();
    let part_size = config
        .plan
        .map(|p| p.part_size)
        .unwrap_or_else(|| rt.part_size());
    TunedDecision {
        backend: config.backend.map(choice_to_kind),
        rt: Arc::new(rt.resolve_tuned(config.plan)),
        chunk_blocks: trial.chunk_blocks(part_size),
        trial: Some(trial),
    }
}

impl Executor for TunedExecutor {
    fn name(&self) -> &'static str {
        "tuned"
    }

    fn try_execute(&self, loop_: &ParLoop) -> Result<LoopHandle, LoopError> {
        let decision = decide(&self.rt, loop_, &TUNABLE_BACKENDS);
        let kind = decision.backend.unwrap_or(self.fallback);
        let exec = make_tuned_executor(kind, decision.rt, decision.chunk_blocks);
        // A failed attempt yields no observation: its wall time measures the
        // failure path, not the candidate.
        let gbl = run_to_fence(exec.as_ref(), loop_, "tuned")?;
        // Issue→drain wall: the honest cross-backend comparison — an async
        // candidate pays for its coordination here.
        if let Some(trial) = decision.trial {
            trial.finish();
        }
        Ok(LoopHandle::ready(gbl))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use op2_core::{arg_direct, Access, Dat, Set};
    use op2_tune::Tuner;

    fn square_loop(n: usize) -> (ParLoop, Dat<f64>) {
        let cells = Set::new("cells", n);
        let q = Dat::filled("q", &cells, 1, 3.0f64);
        let qv = q.view();
        let l = ParLoop::build("square", &cells)
            .arg(arg_direct(&q, Access::ReadWrite))
            .kernel(move |e, _| unsafe {
                let s = qv.slice_mut(e);
                s[0] *= s[0];
            });
        (l, q)
    }

    #[test]
    fn untuned_runtime_falls_back() {
        let rt = Arc::new(Op2Runtime::new(2, 32));
        let (l, q) = square_loop(256);
        let exec = TunedExecutor::new(rt);
        let h = exec.execute(&l);
        assert!(h.is_ready());
        assert!(q.to_vec().iter().all(|&v| v == 9.0));
    }

    #[test]
    fn tuned_runtime_explores_and_stays_correct() {
        let tuner = Arc::new(Tuner::with_seed(7));
        let rt = Arc::new(Op2Runtime::new(2, 32).with_tuner(Arc::clone(&tuner)));
        let exec = TunedExecutor::new(Arc::clone(&rt));
        // Drive the same loop shape repeatedly: every exploration trial must
        // produce the same bits regardless of which backend it lands on.
        for _ in 0..40 {
            let (l, q) = square_loop(512);
            let h = exec.execute(&l);
            h.wait();
            assert!(q.to_vec().iter().all(|&v| v == 9.0));
        }
        assert!(!tuner.snapshot().is_empty());
    }
}
