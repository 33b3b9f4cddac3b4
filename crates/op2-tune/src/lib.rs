//! # op2-tune — feedback-directed online autotuning for OP2 loops.
//!
//! The source paper's scaling wins come from HPX adapting task granularity
//! and scheduling at runtime; the HPX overview paper attributes this to the
//! APEX feedback loop — performance counters flowing back into scheduling
//! decisions. This crate rebuilds that loop natively for the OP2 executors:
//!
//! * **observe** — completed loop executions report wall time into a
//!   [`Tuner`];
//! * **decide** — per decision key `(loop name, set size, indirection
//!   pattern, mesh-topology hash)` the tuner runs a *deterministic*
//!   explore-then-exploit search over backend choice and plan block size,
//!   and derives chunk size from measured throughput (replacing the static
//!   1 %-sample auto-partitioner);
//! * **persist** — learned configs round-trip through a versioned
//!   [`TuneStore`] file content-addressed by the same mesh-topology hash the
//!   plan cache uses, so warm runs start at the tuned configuration.
//!
//! ## Determinism and bit-identity
//!
//! Exploration order is a pure function of `(decision key, seed)` — the seed
//! defaults to `DET_SEED`, so tuned runs replay exactly. More importantly,
//! the tuner only moves **schedule-invariant knobs**: backend and chunk size
//! never change results (every backend executes the same colored plan with
//! block-ordered reductions), and the plan block size is explored only for
//! loops whose results are *plan-order invariant* — no indirect writes and no
//! global reduction. Loops outside that class keep their default plan (the
//! executor drops any block size a decision or a warm store carries for
//! them), so a tuned run is bit-identical to an untuned one.

#![warn(missing_docs)]

mod cost;
mod search;
mod store;

pub use cost::CostBook;
pub use search::{splitmix64, DetRng};
pub use store::{StoreEntry, TuneStore, STORE_VERSION};

use std::collections::HashMap;

use parking_lot::Mutex;

use op2_core::Layout;

/// Backend selection as plain data. Mirrors the executor factory's
/// `BackendKind` in `op2-hpx` without depending on it (that crate depends on
/// this one); the factory maps the two enums.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendChoice {
    /// Plan-order serial reference executor.
    Serial,
    /// Fork-join over colored blocks (OpenMP-style, implicit barrier).
    ForkJoin,
    /// `for_each` with runtime-chosen chunking.
    ForEach,
    /// Futurized per-loop executor (no end-of-loop barrier).
    Async,
    /// Dependency-graph executor (loops chained by data, not barriers).
    Dataflow,
}

impl BackendChoice {
    /// Stable short name (used in stores and reports).
    pub fn name(self) -> &'static str {
        match self {
            BackendChoice::Serial => "serial",
            BackendChoice::ForkJoin => "forkjoin",
            BackendChoice::ForEach => "foreach",
            BackendChoice::Async => "async",
            BackendChoice::Dataflow => "dataflow",
        }
    }

    /// Parse [`BackendChoice::name`] back; `None` for unknown spellings.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "serial" => BackendChoice::Serial,
            "forkjoin" => BackendChoice::ForkJoin,
            "foreach" => BackendChoice::ForEach,
            "async" => BackendChoice::Async,
            "dataflow" => BackendChoice::Dataflow,
            _ => return None,
        })
    }
}

/// How a loop touches memory — the coarse shape that decides which knobs are
/// worth (and safe to) move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndirectionPattern {
    /// No maps: embarrassingly parallel, single color.
    Direct,
    /// Reads through maps, writes only directly: single color, gather-heavy.
    IndirectRead,
    /// Writes/increments through maps: multi-color plans, the hard case.
    IndirectWrite,
}

impl IndirectionPattern {
    /// Stable short name.
    pub fn name(self) -> &'static str {
        match self {
            IndirectionPattern::Direct => "direct",
            IndirectionPattern::IndirectRead => "indirect-read",
            IndirectionPattern::IndirectWrite => "indirect-write",
        }
    }

    /// Parse [`IndirectionPattern::name`] back.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "direct" => IndirectionPattern::Direct,
            "indirect-read" => IndirectionPattern::IndirectRead,
            "indirect-write" => IndirectionPattern::IndirectWrite,
            _ => return None,
        })
    }
}

/// Decision key: one tuning state per distinct loop shape. The topology hash
/// (from `PlanCache::loop_topology`) content-addresses the mesh, so two jobs
/// declaring fresh mesh objects with identical connectivity share tuning
/// state — and a persisted store recognizes the mesh again next run.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TuneKey {
    /// Loop name (e.g. `res_calc`).
    pub loop_name: String,
    /// Iteration-set size.
    pub set_size: usize,
    /// Coarse access shape.
    pub pattern: IndirectionPattern,
    /// Parameter-independent content hash of the loop's topology.
    pub topo: u64,
}

/// Per-decision context the caller supplies: everything about the execution
/// environment the tuner must not hard-code.
#[derive(Debug, Clone)]
pub struct TuneContext {
    /// Worker threads available to parallel backends.
    pub workers: usize,
    /// The runtime's default mini-partition size.
    pub default_part_size: usize,
    /// Backends the caller is willing to run (in preference order; the first
    /// is the caller's default and exploration starts from it).
    pub backends: Vec<BackendChoice>,
    /// True when the loop's results cannot depend on plan order (no indirect
    /// writes, no global reduction): the block size may be explored without
    /// breaking bit-identity.
    pub plan_order_invariant: bool,
    /// Data layouts the caller can *rebuild its dats in* beyond the declared
    /// one (empty = layout is fixed). Layout is schedule-invariant — kernels
    /// reach storage only through layout-agnostic views, so every candidate
    /// produces bit-identical results — but it is a construction-time knob:
    /// executors mid-run pass an empty list, while job-level callers that
    /// declare fresh meshes per job (benchmarks, services) offer the full
    /// set and apply the tuned layout at their next mesh construction.
    pub layouts: Vec<Layout>,
}

/// One tuned configuration: the knob settings for a single loop execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuneConfig {
    /// Backend to run on; `None` = caller's default.
    pub backend: Option<BackendChoice>,
    /// Measured-throughput chunk size in *elements*; `None` = backend's own
    /// chunking (the probe-based auto-partitioner).
    pub chunk: Option<usize>,
    /// Plan block size (elements per block); `None` = the runtime's default.
    pub plan: Option<usize>,
    /// Data layout to declare the loop's dats in; `None` = whatever the
    /// caller declared. Schedule-invariant (results are bitwise independent
    /// of layout) but applied at mesh-construction time — see
    /// [`TuneContext::layouts`].
    pub layout: Option<Layout>,
}

impl TuneConfig {
    /// The all-defaults config (what an untuned run executes).
    pub fn baseline() -> Self {
        TuneConfig {
            backend: None,
            chunk: None,
            plan: None,
            layout: None,
        }
    }

    /// Compact human-readable form for reports and logs.
    pub fn render(&self) -> String {
        let backend = self.backend.map_or("default", BackendChoice::name);
        let chunk = self
            .chunk
            .map_or_else(|| "auto".to_string(), |c| c.to_string());
        let plan = self
            .plan
            .map_or_else(|| "default".to_string(), |p| p.to_string());
        let layout = self.layout.map_or("declared", Layout::label);
        format!("{backend}/chunk={chunk}/plan={plan}/layout={layout}")
    }
}

/// What [`Tuner::decide`] hands back: the config to run, plus the trial slot
/// an observation should be credited to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuneDecision {
    /// Knob settings for this execution.
    pub config: TuneConfig,
    /// `Some(candidate index)` while exploring; `None` once exploiting.
    pub trial: Option<usize>,
}

/// One completed execution, fed back via [`Tuner::observe`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Observation {
    /// End-to-end wall time of the loop, ns (the primary signal; always
    /// available, even with no trace session running).
    pub wall_ns: u64,
}

/// Tuning knobs for the tuner itself.
#[derive(Debug, Clone)]
pub struct TuneOptions {
    /// Seed for deterministic exploration order. Defaults to `DET_SEED` (or
    /// 0) so tuned runs replay exactly.
    pub seed: u64,
    /// Wall-time samples per candidate before scoring it (first sample of
    /// the whole key is discarded as warm-up).
    pub explore_samples: u32,
    /// Target per-chunk duration for measured-throughput chunking, ns (the
    /// paper's auto-partitioner targets 200 µs chunks).
    pub target_chunk_ns: u64,
    /// Sets at or below this size get the serial backend as a candidate even
    /// if the caller did not list it (parallel overhead dominates tiny sets).
    pub small_set: usize,
    /// Exploit-phase drift detection: re-explore a key after this many
    /// consecutive observations slower than 2× the recorded best. 0 disables.
    pub drift_limit: u32,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            seed: std::env::var("DET_SEED")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(0),
            explore_samples: 2,
            target_chunk_ns: 200_000,
            small_set: 4096,
            drift_limit: 8,
        }
    }
}

/// Search phase of one decision key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Measuring candidate `cursor`.
    Explore,
    /// Running the best-known config.
    Exploit,
}

/// Tuning state for one decision key.
struct LoopState {
    candidates: Vec<TuneConfig>,
    /// Collected wall-time samples per candidate. Exploration samples in
    /// round-robin sweeps (one sample of each candidate per sweep, repeated
    /// `explore_samples` times) rather than all samples of one candidate
    /// back-to-back: a load burst then inflates the same sweep for every
    /// candidate instead of landing entirely on whichever candidate owned
    /// that window, which would crown its unaffected rivals.
    samples: Vec<Vec<u64>>,
    /// Min-of-samples score per finished candidate (u64::MAX = unmeasured).
    scores: Vec<u64>,
    cursor: usize,
    phase: Phase,
    best: usize,
    best_ns: u64,
    /// Smoothed per-element time from recent observations, ns.
    per_elem_ns: f64,
    /// Total observations credited to this key.
    executions: u64,
    /// Consecutive exploit observations slower than 2× best.
    drift: u32,
    /// First observation of the key is warm-up (cold caches, lazy pool
    /// spin-up) and is not credited to any candidate.
    warmed: bool,
}

/// The online tuner: shared, thread-safe, one instance per runtime — or one
/// per *service*, so every tenant's jobs feed the same model.
pub struct Tuner {
    opts: TuneOptions,
    states: Mutex<HashMap<TuneKey, LoopState>>,
    costs: CostBook,
}

impl Tuner {
    /// A tuner with the given options.
    pub fn new(opts: TuneOptions) -> Self {
        Tuner {
            opts,
            states: Mutex::new(HashMap::new()),
            costs: CostBook::new(),
        }
    }

    /// A tuner with default options and an explicit seed.
    pub fn with_seed(seed: u64) -> Self {
        Tuner::new(TuneOptions {
            seed,
            ..TuneOptions::default()
        })
    }

    /// The options this tuner runs with.
    pub fn options(&self) -> &TuneOptions {
        &self.opts
    }

    /// Measured per-job cost accounting (the quota-refill feedback for
    /// `op2-serve`).
    pub fn costs(&self) -> &CostBook {
        &self.costs
    }

    /// Decide the configuration for the next execution of `key`.
    ///
    /// Idempotent between observations: calling `decide` repeatedly without
    /// an intervening [`Tuner::observe`] returns the same decision, so
    /// several layers (backend picker, plan construction) can consult the
    /// tuner within one execution and agree.
    pub fn decide(&self, key: &TuneKey, ctx: &TuneContext) -> TuneDecision {
        let mut states = self.states.lock();
        let state = states
            .entry(key.clone())
            .or_insert_with(|| self.fresh_state(key, ctx));
        match state.phase {
            Phase::Explore => TuneDecision {
                config: self.with_chunk(state, state.candidates[state.cursor], key, ctx),
                trial: Some(state.cursor),
            },
            Phase::Exploit => TuneDecision {
                config: self.with_chunk(state, state.candidates[state.best], key, ctx),
                trial: None,
            },
        }
    }

    /// Feed one completed execution back. `trial` must be the value the
    /// paired [`Tuner::decide`] returned; stale trials (an async loop landing
    /// after the cursor moved on) are counted but not credited.
    pub fn observe(&self, key: &TuneKey, trial: Option<usize>, obs: Observation) {
        if obs.wall_ns == 0 {
            return;
        }
        let mut states = self.states.lock();
        let Some(state) = states.get_mut(key) else {
            return;
        };
        state.executions += 1;
        // Smoothed throughput estimate feeds chunk derivation regardless of
        // which candidate produced it.
        let per_elem = obs.wall_ns as f64 / key.set_size.max(1) as f64;
        state.per_elem_ns = if state.per_elem_ns == 0.0 {
            per_elem
        } else {
            0.7 * state.per_elem_ns + 0.3 * per_elem
        };
        if !state.warmed {
            state.warmed = true;
            return;
        }
        match (state.phase, trial) {
            (Phase::Explore, Some(t)) if t == state.cursor => {
                state.samples[t].push(obs.wall_ns);
                let n = state.candidates.len();
                state.cursor = (state.cursor + 1) % n;
                let sweeps_done = state.samples[n - 1].len();
                if state.cursor == 0 && sweeps_done >= self.opts.explore_samples as usize {
                    // Score = mean of the fastest half of each candidate's
                    // samples. Timing noise is one-sided (interrupts and
                    // preemption only ever add time), so the slow tail is
                    // discarded as spikes — but a candidate with a bimodal
                    // slow mode (futurized backends on an oversubscribed
                    // box) must not be crowned off one lucky minimum
                    // either, which rules out the plain min.
                    let LoopState { samples, scores, .. } = state;
                    for (samp, score) in samples.iter_mut().zip(scores.iter_mut()) {
                        let mut s = std::mem::take(samp);
                        s.sort_unstable();
                        let m = s.len().div_ceil(2);
                        *score = s[..m].iter().sum::<u64>() / m as u64;
                    }
                    let (best, &best_ns) = state
                        .scores
                        .iter()
                        .enumerate()
                        .min_by_key(|&(_, &ns)| ns)
                        .expect("at least one candidate");
                    state.best = best;
                    state.best_ns = best_ns;
                    state.phase = Phase::Exploit;
                }
            }
            (Phase::Exploit, None) => {
                if self.opts.drift_limit > 0 {
                    if obs.wall_ns > state.best_ns.saturating_mul(2) {
                        state.drift += 1;
                        if state.drift >= self.opts.drift_limit {
                            // The world changed (load, thermal, data set):
                            // restart the search from scratch.
                            let cands = std::mem::take(&mut state.candidates);
                            *state = LoopState {
                                scores: vec![u64::MAX; cands.len()],
                                samples: vec![Vec::new(); cands.len()],
                                candidates: cands,
                                cursor: 0,
                                phase: Phase::Explore,
                                best: 0,
                                best_ns: u64::MAX,
                                per_elem_ns: state.per_elem_ns,
                                executions: state.executions,
                                drift: 0,
                                warmed: true,
                            };
                        }
                    } else {
                        state.drift = 0;
                        // Track improvement so drift detection stays honest.
                        state.best_ns = state.best_ns.min(obs.wall_ns);
                    }
                }
            }
            // Stale trial id or phase mismatch: ignore the credit.
            _ => {}
        }
    }

    /// The configuration currently favored for `key`, with its search phase
    /// — `(config, exploiting, executions)` — for report provenance. `None`
    /// if the key has never been decided.
    pub fn config_for(&self, key: &TuneKey) -> Option<(TuneConfig, bool, u64)> {
        let states = self.states.lock();
        let s = states.get(key)?;
        let idx = match s.phase {
            Phase::Exploit => s.best,
            Phase::Explore => s.cursor,
        };
        Some((
            s.candidates[idx],
            s.phase == Phase::Exploit,
            s.executions,
        ))
    }

    /// Snapshot every key's current state for provenance reports:
    /// `(key, rendered config, exploiting, executions)`.
    pub fn snapshot(&self) -> Vec<(TuneKey, String, bool, u64)> {
        let states = self.states.lock();
        let mut rows: Vec<_> = states
            .iter()
            .map(|(k, s)| {
                let idx = match s.phase {
                    Phase::Exploit => s.best,
                    Phase::Explore => s.cursor,
                };
                (
                    k.clone(),
                    s.candidates[idx].render(),
                    s.phase == Phase::Exploit,
                    s.executions,
                )
            })
            .collect();
        rows.sort_by(|a, b| a.0.loop_name.cmp(&b.0.loop_name).then(a.0.topo.cmp(&b.0.topo)));
        rows
    }

    /// True once every observed key has finished exploring.
    pub fn converged(&self) -> bool {
        let states = self.states.lock();
        !states.is_empty() && states.values().all(|s| s.phase == Phase::Exploit)
    }

    /// Export converged keys as a persistable [`TuneStore`].
    pub fn export(&self) -> TuneStore {
        let states = self.states.lock();
        let mut entries: Vec<StoreEntry> = states
            .iter()
            .filter(|(_, s)| s.phase == Phase::Exploit)
            .map(|(k, s)| StoreEntry::encode(k, &s.candidates[s.best], s.best_ns, s.per_elem_ns))
            .collect();
        entries.sort_by(|a, b| a.loop_name.cmp(&b.loop_name).then(a.topo.cmp(&b.topo)));
        TuneStore {
            version: STORE_VERSION,
            seed: self.opts.seed,
            entries,
        }
    }

    /// Warm-start from a persisted store: every entry whose topology hash
    /// matches a future key jumps straight to the exploit phase. A stored
    /// block size is kept as data; whether it may move a loop's plan is the
    /// executor's call, made where the plan is picked.
    pub fn import(&self, store: &TuneStore) {
        let mut states = self.states.lock();
        for e in &store.entries {
            let Some((key, config)) = e.decode() else {
                continue;
            };
            states.insert(
                key,
                LoopState {
                    candidates: vec![config],
                    samples: vec![Vec::new()],
                    scores: vec![e.best_ns],
                    cursor: 0,
                    phase: Phase::Exploit,
                    best: 0,
                    best_ns: e.best_ns,
                    per_elem_ns: e.per_elem_ns,
                    executions: 0,
                    drift: 0,
                    warmed: true,
                },
            );
        }
    }

    /// [`Tuner::export`] straight to a file (sealed + checksummed, atomic
    /// commit: write-temp → fsync → rename → fsync-dir).
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        self.export().save(path)
    }

    /// [`Tuner::import`] straight from a file.
    ///
    /// Degrades a corrupt, truncated, or version-skewed store to a **cold
    /// start**: the damage is logged and the tuner simply re-explores,
    /// because a warm start is an optimization and must never take the run
    /// down. A *missing* file still errors (callers treat that as the
    /// ordinary first-run signal), as do real IO failures.
    pub fn load(&self, path: &std::path::Path) -> std::io::Result<()> {
        match TuneStore::load(path) {
            Ok(store) => {
                self.import(&store);
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                eprintln!(
                    "op2-tune: store at {} is corrupt or stale ({e}); starting cold",
                    path.display()
                );
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Build the deterministic candidate list for a fresh key.
    fn fresh_state(&self, key: &TuneKey, ctx: &TuneContext) -> LoopState {
        let candidates = self.candidates(key, ctx);
        LoopState {
            scores: vec![u64::MAX; candidates.len()],
            samples: vec![Vec::new(); candidates.len()],
            candidates,
            cursor: 0,
            phase: Phase::Explore,
            best: 0,
            best_ns: u64::MAX,
            per_elem_ns: 0.0,
            executions: 0,
            drift: 0,
            warmed: false,
        }
    }

    /// Candidate enumeration: backends × block sizes, shuffled by the
    /// seeded PRNG — except the baseline config, which is always measured
    /// first so exploration never starts worse than an untuned run.
    fn candidates(&self, key: &TuneKey, ctx: &TuneContext) -> Vec<TuneConfig> {
        let mut backends: Vec<Option<BackendChoice>> = vec![None];
        for &b in &ctx.backends {
            if !backends.contains(&Some(b)) {
                backends.push(Some(b));
            }
        }
        // Tiny sets get a serial candidate — but only when the caller can
        // actually switch backends (an executor with a fixed backend passes
        // an empty list and explores block sizes alone).
        if !ctx.backends.is_empty()
            && key.set_size <= self.opts.small_set
            && !backends.contains(&Some(BackendChoice::Serial))
        {
            backends.push(Some(BackendChoice::Serial));
        }

        let mut plans: Vec<Option<usize>> = vec![None];
        if ctx.plan_order_invariant {
            let dp = ctx.default_part_size.max(1);
            for part in [dp / 4, dp * 4] {
                let part = part.clamp(16, key.set_size.max(16));
                if part != dp {
                    plans.push(Some(part));
                }
            }
        }

        // Layout is always schedule-invariant, so every offered layout is a
        // candidate axis; `None` (the declared layout) leads so the baseline
        // stays the true untuned config.
        let mut layouts: Vec<Option<Layout>> = vec![None];
        for &l in &ctx.layouts {
            if !layouts.contains(&Some(l)) {
                layouts.push(Some(l));
            }
        }

        let mut cands = Vec::with_capacity(backends.len() * plans.len() * layouts.len());
        for &l in &layouts {
            for &b in &backends {
                for &p in &plans {
                    // Serial ignores chunking and barely feels the plan: one
                    // candidate is enough.
                    if b == Some(BackendChoice::Serial) && p.is_some() {
                        continue;
                    }
                    // Non-default layouts explore against the default plan
                    // only: the layout choice moves memory behavior, not the
                    // coloring, so the full (plan × layout) product would
                    // just slow convergence.
                    if l.is_some() && p.is_some() {
                        continue;
                    }
                    cands.push(TuneConfig {
                        backend: b,
                        chunk: None,
                        plan: p,
                        layout: l,
                    });
                }
            }
        }
        // Deterministic order: baseline first, the rest shuffled by
        // (seed, key) so sweeps with different seeds walk the space in
        // different orders yet any single seed replays exactly.
        let mut rng = DetRng::new(self.opts.seed ^ key.topo ^ key.set_size as u64);
        if cands.len() > 2 {
            let tail = &mut cands[1..];
            for i in (1..tail.len()).rev() {
                let j = (rng.next() % (i as u64 + 1)) as usize;
                tail.swap(i, j);
            }
        }
        cands
    }

    /// Attach the measured-throughput chunk to a config once throughput is
    /// known. Chunks only apply to backends that take one.
    fn with_chunk(
        &self,
        state: &LoopState,
        mut config: TuneConfig,
        key: &TuneKey,
        ctx: &TuneContext,
    ) -> TuneConfig {
        let chunkable = matches!(
            config.backend,
            Some(BackendChoice::ForEach | BackendChoice::Async | BackendChoice::Dataflow)
        );
        if chunkable && state.per_elem_ns > 0.0 {
            let raw = (self.opts.target_chunk_ns as f64 / state.per_elem_ns) as usize;
            let cap = key.set_size.div_ceil(ctx.workers.max(1)).max(1);
            config.chunk = Some(raw.clamp(1, cap));
        }
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: usize) -> TuneKey {
        TuneKey {
            loop_name: "t".into(),
            set_size: n,
            pattern: IndirectionPattern::Direct,
            topo: 42,
        }
    }

    fn ctx() -> TuneContext {
        TuneContext {
            workers: 4,
            default_part_size: 256,
            backends: vec![BackendChoice::ForkJoin, BackendChoice::Dataflow],
            plan_order_invariant: true,
            layouts: Vec::new(),
        }
    }

    /// Drive a key to convergence with a synthetic cost model; returns the
    /// exploited config.
    fn converge(tuner: &Tuner, k: &TuneKey, c: &TuneContext, cost: impl Fn(&TuneConfig) -> u64) -> TuneConfig {
        for _ in 0..500 {
            let d = tuner.decide(k, c);
            tuner.observe(
                k,
                d.trial,
                Observation {
                    wall_ns: cost(&d.config),
                    ..Observation::default()
                },
            );
            if d.trial.is_none() {
                return d.config;
            }
        }
        panic!("did not converge in 500 executions");
    }

    #[test]
    fn exploration_is_deterministic_per_seed() {
        let k = key(10_000);
        let c = ctx();
        let walk = |seed: u64| -> Vec<String> {
            let t = Tuner::with_seed(seed);
            let mut order = Vec::new();
            for _ in 0..100 {
                let d = t.decide(&k, &c);
                if d.trial.is_none() {
                    break;
                }
                order.push(d.config.render());
                t.observe(&k, d.trial, Observation { wall_ns: 1000, ..Default::default() });
            }
            order
        };
        assert_eq!(walk(7), walk(7), "same seed, same walk");
        assert_ne!(walk(7), walk(8), "different seeds explore differently");
    }

    #[test]
    fn baseline_is_always_first_candidate() {
        for seed in 0..16 {
            let t = Tuner::with_seed(seed);
            let d = t.decide(&key(10_000), &ctx());
            // Warm-up observation precedes candidate credit, but the first
            // *decision* is always the untuned baseline.
            assert_eq!(d.config.backend, None, "seed {seed}");
            assert_eq!(d.config.plan, None, "seed {seed}");
        }
    }

    #[test]
    fn converges_to_cheapest_backend() {
        let t = Tuner::with_seed(3);
        let k = key(100_000);
        let c = ctx();
        let best = converge(&t, &k, &c, |cfg| match cfg.backend {
            Some(BackendChoice::Dataflow) => 500,
            _ => 5_000,
        });
        assert_eq!(best.backend, Some(BackendChoice::Dataflow));
        assert!(t.converged());
    }

    #[test]
    fn layout_knob_explored_and_converges_when_offered() {
        let t = Tuner::with_seed(9);
        let k = key(100_000);
        let mut c = ctx();
        c.layouts = vec![Layout::Soa];
        let best = converge(&t, &k, &c, |cfg| match cfg.layout {
            Some(Layout::Soa) => 300,
            _ => 4_000,
        });
        assert_eq!(best.layout, Some(Layout::Soa));
    }

    #[test]
    fn layout_axis_closed_without_offered_layouts() {
        let t = Tuner::with_seed(4);
        let k = key(50_000);
        let c = ctx(); // layouts empty
        for _ in 0..200 {
            let d = t.decide(&k, &c);
            assert_eq!(d.config.layout, None, "layout explored with closed axis");
            t.observe(&k, d.trial, Observation { wall_ns: 1000, ..Default::default() });
            if d.trial.is_none() {
                break;
            }
        }
    }

    #[test]
    fn small_sets_gain_a_serial_candidate_and_win() {
        let t = Tuner::with_seed(5);
        let k = key(64); // below small_set; ctx lists no serial backend
        let c = ctx();
        let best = converge(&t, &k, &c, |cfg| match cfg.backend {
            Some(BackendChoice::Serial) => 100,
            _ => 2_000,
        });
        assert_eq!(best.backend, Some(BackendChoice::Serial));
    }

    #[test]
    fn plan_params_gated_on_invariance() {
        let t = Tuner::with_seed(1);
        let mut c = ctx();
        c.plan_order_invariant = false;
        let k = TuneKey {
            pattern: IndirectionPattern::IndirectWrite,
            ..key(50_000)
        };
        // Walk every candidate: none may carry plan overrides.
        for _ in 0..200 {
            let d = t.decide(&k, &c);
            assert_eq!(d.config.plan, None, "plan explored on variant loop");
            t.observe(&k, d.trial, Observation { wall_ns: 1000, ..Default::default() });
            if d.trial.is_none() {
                break;
            }
        }
    }

    #[test]
    fn chunk_derived_from_measured_throughput() {
        let t = Tuner::with_seed(0);
        let k = key(1_000_000);
        let mut c = ctx();
        c.backends = vec![BackendChoice::ForEach];
        // 1 µs per element → 200 µs target chunk = 200 elements.
        let best = converge(&t, &k, &c, |_| 1_000_000_000);
        if best.backend == Some(BackendChoice::ForEach) {
            let chunk = best.chunk.expect("throughput known, chunk derived");
            assert!((100..=400).contains(&chunk), "chunk {chunk}");
        }
        // Whatever won, a foreach decision now carries a chunk.
        let d = t.decide(&k, &c);
        if d.config.backend == Some(BackendChoice::ForEach) {
            assert!(d.config.chunk.is_some());
        }
    }

    #[test]
    fn decide_is_idempotent_between_observations() {
        let t = Tuner::with_seed(9);
        let k = key(10_000);
        let c = ctx();
        let d1 = t.decide(&k, &c);
        let d2 = t.decide(&k, &c);
        assert_eq!(d1, d2);
    }

    #[test]
    fn store_round_trip_warm_starts() {
        let t = Tuner::with_seed(4);
        let k = key(100_000);
        let c = ctx();
        let best = converge(&t, &k, &c, |cfg| match cfg.backend {
            Some(BackendChoice::ForkJoin) => 700,
            _ => 7_000,
        });
        let store = t.export();
        assert_eq!(store.version, STORE_VERSION);
        assert_eq!(store.entries.len(), 1);

        let warm = Tuner::with_seed(99); // different seed: irrelevant when warm
        warm.import(&store);
        let d = warm.decide(&k, &c);
        assert_eq!(d.trial, None, "warm start skips exploration");
        assert_eq!(d.config.backend, best.backend);
    }

    #[test]
    fn corrupt_store_degrades_to_cold_start() {
        let dir = std::env::temp_dir().join("op2-tune-cold");
        let path = dir.join("store.json");
        let t = Tuner::with_seed(4);
        let k = key(100_000);
        let c = ctx();
        converge(&t, &k, &c, |_| 1_000);
        t.save(&path).unwrap();

        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        // Corruption is a logged cold start, not an error...
        let cold = Tuner::with_seed(4);
        cold.load(&path).unwrap();
        assert!(cold.decide(&k, &c).trial.is_some(), "cold start re-explores");

        // ...and so is a store without the seal (the pre-seal bare-JSON
        // format is no longer read).
        std::fs::write(&path, t.export().to_json()).unwrap();
        let cold = Tuner::with_seed(4);
        cold.load(&path).unwrap();
        assert!(cold.decide(&k, &c).trial.is_some(), "unsealed store re-explores");

        // ...and so is an intact version-2 store, whose rows still carry the
        // `coloring` column.
        let v3 = t.export().to_json();
        let v2 = v3
            .replacen("\"version\":3", "\"version\":2", 1)
            .replace("\"part_size\":", "\"coloring\":\"greedy\",\"part_size\":");
        assert!(
            v2.contains("\"version\":2") && v2.contains("\"coloring\""),
            "{v2}"
        );
        op2_store::write_sealed(&path, v2.as_bytes(), None).unwrap();
        assert_eq!(
            TuneStore::load(&path).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
        let cold = Tuner::with_seed(4);
        cold.load(&path).unwrap();
        assert!(
            cold.decide(&k, &c).trial.is_some(),
            "version-2 store re-explores"
        );

        // ...but a missing file still surfaces as an ordinary IO error.
        let missing = dir.join("nope.json");
        assert_eq!(
            Tuner::with_seed(4).load(&missing).unwrap_err().kind(),
            std::io::ErrorKind::NotFound
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drift_triggers_reexploration() {
        let t = Tuner::new(TuneOptions {
            seed: 0,
            drift_limit: 3,
            ..TuneOptions::default()
        });
        let k = key(10_000);
        let c = ctx();
        converge(&t, &k, &c, |_| 1_000);
        assert!(t.converged());
        // The world degrades 10×: after `drift_limit` bad observations the
        // key re-enters exploration.
        for _ in 0..3 {
            let d = t.decide(&k, &c);
            assert_eq!(d.trial, None);
            t.observe(&k, d.trial, Observation { wall_ns: 10_000, ..Default::default() });
        }
        let d = t.decide(&k, &c);
        assert!(d.trial.is_some(), "drift must reopen the search");
    }
}
