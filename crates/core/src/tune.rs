//! The executor ↔ tuner bridge: decision keys, trial brackets, and the
//! mapping between `op2_tune::BackendChoice` and this crate's `BackendKind`.
//!
//! Every executor opens a `LoopTrial` at its decision point
//! (`Op2Runtime::prepare`, the one caller of `begin`) and closes it when the
//! loop's work is done — immediately for blocking backends, in the
//! completion continuation for futurized ones.
//! Closing the trial feeds the measured wall time back into the tuner,
//! credited to the candidate the paired decision came from.

use std::sync::Arc;
use std::time::Instant;

use op2_core::ParLoop;
use op2_tune::{
    BackendChoice, IndirectionPattern, Observation, TuneConfig, TuneContext, TuneKey, Tuner,
};

use crate::factory::BackendKind;
use crate::runtime::Op2Runtime;

/// Map a tuner backend choice onto a concrete executor kind.
pub fn choice_to_kind(choice: BackendChoice) -> BackendKind {
    match choice {
        BackendChoice::Serial => BackendKind::Serial,
        BackendChoice::ForkJoin => BackendKind::ForkJoin,
        BackendChoice::ForEach => BackendKind::ForEachAuto,
        BackendChoice::Async => BackendKind::Async,
        BackendChoice::Dataflow => BackendKind::Dataflow,
    }
}

/// Map an executor kind onto the tuner's plain-data choice.
pub fn kind_to_choice(kind: BackendKind) -> BackendChoice {
    match kind {
        BackendKind::Serial => BackendChoice::Serial,
        BackendKind::ForkJoin => BackendChoice::ForkJoin,
        BackendKind::ForEachAuto | BackendKind::ForEachStatic(_) => BackendChoice::ForEach,
        BackendKind::Async => BackendChoice::Async,
        BackendKind::Dataflow => BackendChoice::Dataflow,
    }
}

/// True when `loop_`'s results cannot depend on plan order: no indirect
/// writes (single-color plans, every element's outputs disjoint) and no
/// global reduction (whose partials combine in block order). Only such loops
/// may have their block size tuned without moving floating-point bits.
pub fn plan_order_invariant(loop_: &ParLoop) -> bool {
    !loop_.has_indirect_writes() && loop_.gbl_dim() == 0
}

/// The tuner decision key for `loop_` on `rt`: loop signature, set size,
/// indirection pattern, and the plan cache's mesh-topology content hash.
pub fn key_for(rt: &Op2Runtime, loop_: &ParLoop) -> TuneKey {
    let pattern = if loop_.is_direct() {
        IndirectionPattern::Direct
    } else if loop_.has_indirect_writes() {
        IndirectionPattern::IndirectWrite
    } else {
        IndirectionPattern::IndirectRead
    };
    TuneKey {
        loop_name: loop_.name().to_string(),
        set_size: loop_.set().size(),
        pattern,
        topo: rt.plan_cache().loop_topology(loop_.set(), loop_.args()),
    }
}

/// An open measurement bracket for one loop execution.
pub(crate) struct LoopTrial {
    tuner: Arc<Tuner>,
    key: TuneKey,
    trial: Option<usize>,
    config: TuneConfig,
    /// Did the caller offer a backend menu?
    offered: bool,
    start: Instant,
}

impl LoopTrial {
    /// Block size the decision asks for (gated on invariance by `begin`).
    pub(crate) fn plan(&self) -> Option<usize> {
        self.config.plan
    }

    /// The backend picked from the menu the caller offered — `None` when it
    /// offered none, whatever a menu-offering sharer of the tuner made of
    /// the same key.
    pub(crate) fn backend(&self) -> Option<BackendKind> {
        self.config.backend.filter(|_| self.offered).map(choice_to_kind)
    }

    /// Tuned chunk converted from elements to plan blocks (the unit
    /// `run_colored` chunks over), given the plan's block size.
    pub(crate) fn chunk_blocks(&self, part_size: usize) -> Option<usize> {
        self.config
            .chunk
            .map(|elems| (elems / part_size.max(1)).max(1))
    }

    /// Close the bracket with wall time measured since the decision.
    pub(crate) fn finish(self) {
        let wall_ns = self.start.elapsed().as_nanos() as u64;
        self.finish_with(wall_ns);
    }

    /// Close the bracket with an externally measured wall time (futurized
    /// executors time issue → completion themselves).
    pub(crate) fn finish_with(self, wall_ns: u64) {
        self.tuner
            .observe(&self.key, self.trial, Observation { wall_ns });
    }
}

/// Open a trial for `loop_` if `rt` carries a tuner. `backends` is the set
/// the *caller* can actually run: the tuned executor passes its menu, a
/// supervisor its ladder, a fixed-backend executor none (it explores chunk
/// and block size only, and its observations still train the shared model).
pub(crate) fn begin(
    rt: &Op2Runtime,
    loop_: &ParLoop,
    backends: &[BackendChoice],
) -> Option<LoopTrial> {
    let tuner = Arc::clone(rt.tuner()?);
    let key = key_for(rt, loop_);
    let ctx = TuneContext {
        workers: rt.num_threads(),
        default_part_size: rt.part_size(),
        backends: backends.to_vec(),
        plan_order_invariant: plan_order_invariant(loop_),
        // Executors cannot re-declare dats mid-run (kernels hold views into
        // the declared storage), so the layout axis is closed here; tuned
        // layouts still flow in from a warm store and back out through it
        // for construction-time callers.
        layouts: Vec::new(),
    };
    let decision = tuner.decide(&key, &ctx);
    let mut config = decision.config;
    // The one gate on a tuned block size, whatever proposed it (exploration
    // or a warm store): a loop whose bits depend on plan order keeps the
    // runtime's plan.
    if !ctx.plan_order_invariant {
        config.plan = None;
    }
    Some(LoopTrial {
        tuner,
        key,
        trial: decision.trial,
        config,
        offered: !backends.is_empty(),
        start: Instant::now(),
    })
}
