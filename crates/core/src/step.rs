//! The one interpreter of a time step: [`run_step`] issues an
//! [`op2_core::Step`]'s loops in order, runs its host code (after a fence
//! under dataflow, so no running loop sees its global change), and waits as
//! [`SyncStrategy`] says.

use op2_core::Step;

use crate::factory::BackendKind;
use crate::handle::LoopHandle;
use crate::recover::LoopError;
use crate::Executor;

/// How [`run_step`] synchronizes between loops: the paper's three drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncStrategy {
    /// Wait for each loop before issuing the next (the unchanged OP2 program).
    Blocking,
    /// Wait on the producers the dependency rule names (§III-A2, Fig. 10):
    /// [`Step::async_waits`].
    Fig10,
    /// No waits: the dataflow executor orders the loops (§III-B).
    Dataflow,
}

impl SyncStrategy {
    /// The strategy the paper pairs with each backend.
    pub fn for_backend(kind: BackendKind) -> SyncStrategy {
        match kind {
            BackendKind::Async => SyncStrategy::Fig10,
            BackendKind::Dataflow => SyncStrategy::Dataflow,
            _ => SyncStrategy::Blocking,
        }
    }
}

/// Issue one `step` on `exec` under `mode`; the first failure seen is returned.
/// `results` is cleared, then holds the step's result handles ([`Step::is_result`]).
pub fn run_step(
    exec: &dyn Executor,
    step: &Step,
    mode: SyncStrategy,
    results: &mut Vec<LoopHandle>,
) -> Result<(), LoopError> {
    results.clear();
    let n = step.loops().len();
    let waits = (mode == SyncStrategy::Fig10).then(|| step.async_waits());
    let wait = |issued: &[LoopHandle], i: usize| match &waits {
        Some(waits) => waits[i].iter().try_for_each(|&j| issued[j].try_wait()),
        None => Ok(()),
    };
    // Fig10 keeps every handle for its waits; the other modes only results.
    let mut issued: Vec<LoopHandle> = Vec::new();
    for (i, loop_) in step.loops().iter().enumerate() {
        wait(&issued, i)?;
        let mut h = exec.try_execute(loop_)?;
        if mode == SyncStrategy::Blocking {
            h.try_wait()?;
        }
        if let Some((global, host)) = step.host(i) {
            if mode == SyncStrategy::Dataflow {
                exec.try_fence().map_err(|mut r| r.failures.swap_remove(0))?;
            }
            let reduction = h.try_get()?;
            global.set(host(&reduction));
            h = LoopHandle::ready(reduction);
        }
        if waits.is_some() {
            issued.push(h);
        } else if step.is_result(i) {
            results.push(h);
        }
    }
    if waits.is_some() {
        wait(&issued, n)?;
        let all = issued.into_iter().enumerate();
        results.extend(all.filter(|(i, _)| step.is_result(*i)).map(|(_, h)| h));
    }
    Ok(())
}
