//! The multi-tenant job service.
//!
//! One [`Service`] owns a fixed set of dispatcher threads over one shared
//! task pool and admits many concurrent simulation jobs:
//!
//! ```text
//! submit ──▶ admission gate ──▶ weighted fair queue ──▶ dispatcher ──▶ per-job
//!            (bounded depth,     (tenant weight ×       threads        runtime +
//!             token-bucket        priority, virtual                    supervisor
//!             quota → typed       finish time)                         (bulkhead)
//!             shed)
//! ```
//!
//! **Bulkheads.** Each dispatched job gets its *own* `Op2Runtime` (own
//! cancel token) and its *own* [`Supervisor`] (own retry quota / circuit
//! breaker) over the *shared* pool and the *shared* plan cache. A tenant
//! whose kernels panic burns only its own supervisor quota; its failures
//! roll back transactionally and can never corrupt a co-tenant — the stress
//! tests assert co-tenant outputs are **bitwise identical** to solo runs,
//! which the schedule-independent accumulation semantics of every backend
//! make possible even under a contended pool.
//!
//! **Overload.** Admission never blocks and never panics: past the queue
//! bound or the quota the job is shed with a typed
//! [`AdmissionError`] (and a `Shed` trace instant).
//! Accepted jobs therefore see bounded queueing, keeping their tail latency
//! within a constant factor of an uncontended run.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hpx_rt::{DetPool, Pool, PoolBuilder};
use op2_core::PlanCache;
use op2_hpx::{BackendKind, FailureKind, Op2Runtime, RetryPolicy, Supervisor};
use op2_tune::Tuner;
use parking_lot::{Condvar, Mutex};

use crate::admission::{AdmissionError, QuotaSpec, TokenBucket};
use crate::fair::FairQueue;
use crate::job::{JobCtx, JobError, JobHandle, JobOutcome, JobSpec, Priority, Program};
use crate::journal::{JobJournal, PendingJob};
use crate::report::{LatencyStats, ServiceReport};
use crate::tracehooks;
use op2_store::StoreFaultPlan;

/// A registered program factory: rebuilds a durable job's [`Program`] on
/// submission and again on post-crash requeue (closures themselves cannot
/// be journaled).
pub type Recipe = Arc<dyn Fn() -> Program + Send + Sync + 'static>;

/// Where jobs execute.
#[derive(Debug, Clone, Copy)]
pub enum PoolMode {
    /// One shared work-stealing [`hpx_rt::ThreadPool`] with `threads`
    /// workers — the production shape (jobs contend, results stay bitwise
    /// schedule-independent).
    Shared { threads: usize },
    /// A fresh single-threaded deterministic [`hpx_rt::DetPool`] per job,
    /// seeded `seed ^ job_id` — the stress-test shape (fully reproducible
    /// interleaving per job).
    DetPerJob { seed: u64 },
}

/// Service configuration (builder-style).
pub struct ServeOptions {
    /// Dispatcher threads = maximum concurrently-running jobs.
    pub workers: usize,
    /// Execution pool shape.
    pub pool: PoolMode,
    /// Mini-partition size for plans.
    pub part_size: usize,
    /// Admission queue bound; submissions past it are shed.
    pub max_queue: usize,
    /// Optional token-bucket rate quota.
    pub quota: Option<QuotaSpec>,
    /// Deadline applied to jobs that don't carry their own.
    pub default_deadline: Option<Duration>,
    /// Primary backend for every job's supervisor ladder.
    pub backend: BackendKind,
    /// Retry/degradation policy cloned into every job's supervisor.
    pub retry: RetryPolicy,
    /// One online tuner shared by every job's runtime (`None` = untuned).
    /// Tenants pool their measurements: tenant B's airfoil march warm-starts
    /// from what tenant A's already taught the tuner.
    pub tuner: Option<Arc<Tuner>>,
    /// Persist/warm-start path for the tuner's [`op2_tune::TuneStore`]:
    /// loaded (best-effort) at start, saved at `drain`.
    pub tune_store: Option<PathBuf>,
    /// Wall time worth one quota token: a completed job records
    /// `wall / cost_unit` as its **measured** cost, and admission charges
    /// `max(declared, measured)` for repeats — an under-declaring tenant
    /// stops gaining share after its first job. Needs `tuner` (the cost
    /// book lives there).
    pub cost_unit: Duration,
    /// Durable job journal directory (`None` = in-memory service). With a
    /// journal, [`Service::submit_durable`] survives whole-process death:
    /// a restarted service requeues incomplete jobs and dedupes completed
    /// ones to their recorded outcome.
    pub journal: Option<PathBuf>,
    /// Deterministic storage-fault plan for the journal WAL
    /// (`STORE_FAULT_SEED` sweeps; `None` = clean disk).
    pub journal_faults: Option<StoreFaultPlan>,
    weights: HashMap<String, u64>,
    recipes: HashMap<String, Recipe>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 2,
            pool: PoolMode::Shared { threads: 2 },
            part_size: 64,
            max_queue: 64,
            quota: None,
            default_deadline: None,
            backend: BackendKind::Dataflow,
            retry: RetryPolicy::default(),
            tuner: None,
            tune_store: None,
            cost_unit: Duration::from_millis(100),
            journal: None,
            journal_faults: None,
            weights: HashMap::new(),
            recipes: HashMap::new(),
        }
    }
}

impl ServeOptions {
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    pub fn pool(mut self, mode: PoolMode) -> Self {
        self.pool = mode;
        self
    }

    pub fn part_size(mut self, n: usize) -> Self {
        self.part_size = n.max(1);
        self
    }

    pub fn max_queue(mut self, n: usize) -> Self {
        self.max_queue = n;
        self
    }

    pub fn quota(mut self, q: QuotaSpec) -> Self {
        self.quota = Some(q);
        self
    }

    pub fn default_deadline(mut self, d: Duration) -> Self {
        self.default_deadline = Some(d);
        self
    }

    pub fn backend(mut self, kind: BackendKind) -> Self {
        self.backend = kind;
        self
    }

    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Fair-share weight for `tenant` (default 1).
    pub fn tenant_weight(mut self, tenant: impl Into<String>, weight: u64) -> Self {
        self.weights.insert(tenant.into(), weight.max(1));
        self
    }

    /// Turn on autotuning with a fresh deterministically-seeded tuner.
    pub fn tuning(self, seed: u64) -> Self {
        self.shared_tuner(Arc::new(Tuner::with_seed(seed)))
    }

    /// Share an existing tuner (e.g. across service restarts or services).
    pub fn shared_tuner(mut self, tuner: Arc<Tuner>) -> Self {
        self.tuner = Some(tuner);
        self
    }

    /// Warm-start/persist the tuner store at `path`.
    pub fn tune_store(mut self, path: impl Into<PathBuf>) -> Self {
        self.tune_store = Some(path.into());
        self
    }

    /// Wall time that counts as one quota token for measured-cost charging.
    pub fn cost_unit(mut self, unit: Duration) -> Self {
        self.cost_unit = unit.max(Duration::from_micros(1));
        self
    }

    /// Journal durable jobs to the crash-consistent WAL at `dir`.
    pub fn journal(mut self, dir: impl Into<PathBuf>) -> Self {
        self.journal = Some(dir.into());
        self
    }

    /// Inject deterministic storage faults into journal appends.
    pub fn journal_faults(mut self, plan: StoreFaultPlan) -> Self {
        self.journal_faults = Some(plan);
        self
    }

    /// Register a program factory under `name` for durable submissions.
    pub fn recipe(
        mut self,
        name: impl Into<String>,
        factory: impl Fn() -> Program + Send + Sync + 'static,
    ) -> Self {
        self.recipes.insert(name.into(), Arc::new(factory));
        self
    }
}

/// Admission/lifecycle phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Accepting and running.
    Open,
    /// No new admissions; the queue drains, then dispatchers exit.
    Draining,
    /// No new admissions; queued jobs are cancelled, dispatchers exit.
    Closed,
}

/// A job that passed admission and waits for a dispatcher.
struct QueuedJob {
    handle: JobHandle,
    program: Program,
    /// Absolute deadline (admission time + spec/default deadline).
    deadline: Option<Instant>,
    submitted: Instant,
    /// Idempotency key of a journaled (durable) job.
    journal_key: Option<String>,
}

#[derive(Default)]
struct Stats {
    submitted: u64,
    accepted: u64,
    completed: u64,
    failed: u64,
    cancelled: u64,
    deadline_exceeded: u64,
    shed: u64,
    queue_peak: usize,
    latencies_us: Vec<u64>,
    /// Incomplete journaled jobs requeued at start (post-crash replay).
    requeued: u64,
    /// Durable submissions resolved from a recorded terminal outcome
    /// without rerunning.
    deduped: u64,
}

struct State {
    queue: FairQueue<QueuedJob>,
    phase: Phase,
    /// Token buckets — keyed by tenant (per-tenant quota) or "" (global).
    buckets: HashMap<String, TokenBucket>,
    /// Handles of jobs currently on a dispatcher (for hard shutdown).
    running: Vec<JobHandle>,
    /// In-flight durable jobs by idempotency key: a resubmission of a live
    /// key attaches to the existing handle instead of running twice.
    live: HashMap<String, JobHandle>,
}

struct Inner {
    state: Mutex<State>,
    /// Signals dispatchers: work queued or phase changed.
    cv: Condvar,
    stats: Mutex<Stats>,
    /// Content-addressed plan cache shared by every job's runtime.
    plans: Arc<PlanCache>,
    /// The shared pool (`PoolMode::Shared`), else per-job DetPools.
    pool: Option<Arc<dyn Pool>>,
    det_seed: Option<u64>,
    part_size: usize,
    backend: BackendKind,
    retry: RetryPolicy,
    /// Shared across every tenant's runtime (see [`ServeOptions::tuner`]).
    tuner: Option<Arc<Tuner>>,
    tune_store: Option<PathBuf>,
    cost_unit: Duration,
    max_queue: usize,
    default_deadline: Option<Duration>,
    quota: Option<QuotaSpec>,
    weights: HashMap<String, u64>,
    next_id: AtomicU64,
    started: Instant,
    /// Durable job journal (`None` = in-memory service).
    journal: Option<JobJournal>,
    /// Program factories for durable submissions and post-crash requeue.
    recipes: HashMap<String, Recipe>,
    /// Simulated process death: suppress journal terminal records so the
    /// disk looks exactly like the process vanished mid-flight.
    crashed: std::sync::atomic::AtomicBool,
}

/// The running service. Dropping it hard-stops (cancels queued jobs, joins
/// dispatchers); prefer [`Service::drain`] for a graceful end.
pub struct Service {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Service {
    /// Start a service with `opts`. Dispatcher threads are spawned
    /// immediately and park until work arrives.
    pub fn start(opts: ServeOptions) -> Service {
        let (pool, det_seed): (Option<Arc<dyn Pool>>, Option<u64>) = match opts.pool {
            PoolMode::Shared { threads } => (
                Some(Arc::new(
                    PoolBuilder::new()
                        .num_threads(threads.max(1))
                        .thread_name("op2-serve")
                        .build(),
                )),
                None,
            ),
            PoolMode::DetPerJob { seed } => (None, Some(seed)),
        };
        // Warm-start the tuner from a persisted store, best-effort: a
        // missing or stale file means a cold start, never a failed start.
        if let (Some(tuner), Some(path)) = (&opts.tuner, &opts.tune_store) {
            let _ = tuner.load(path);
        }
        // Open the durable journal before accepting anything: replay is
        // what makes a restart honour pre-crash admissions. A journal that
        // cannot even be opened (real IO failure — corruption is handled
        // by truncation inside the store) is a misconfiguration worth
        // failing loudly over, not running silently non-durable.
        let journal = opts.journal.as_ref().map(|dir| {
            JobJournal::open(dir, opts.journal_faults.clone())
                .unwrap_or_else(|e| panic!("op2-serve: cannot open job journal at {dir:?}: {e}"))
        });
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: FairQueue::new(),
                phase: Phase::Open,
                buckets: HashMap::new(),
                running: Vec::new(),
                live: HashMap::new(),
            }),
            cv: Condvar::new(),
            stats: Mutex::new(Stats::default()),
            plans: Arc::new(PlanCache::new()),
            pool,
            det_seed,
            part_size: opts.part_size,
            backend: opts.backend,
            retry: opts.retry,
            tuner: opts.tuner,
            tune_store: opts.tune_store,
            cost_unit: opts.cost_unit,
            max_queue: opts.max_queue,
            default_deadline: opts.default_deadline,
            quota: opts.quota,
            weights: opts.weights,
            next_id: AtomicU64::new(1),
            started: Instant::now(),
            journal,
            recipes: opts.recipes,
            crashed: std::sync::atomic::AtomicBool::new(false),
        });
        // Requeue every journaled job that was admitted before a crash but
        // never reached a terminal record. These already paid for
        // admission, so they bypass the queue bound and the quota.
        if let Some(journal) = &inner.journal {
            let mut st = inner.state.lock();
            let mut stats = inner.stats.lock();
            for p in journal.pending() {
                let Some(recipe) = inner.recipes.get(&p.recipe) else {
                    eprintln!(
                        "op2-serve: journaled job {:?} names unregistered recipe {:?}; \
                         left pending for a future restart",
                        p.key, p.recipe
                    );
                    continue;
                };
                let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
                let handle = JobHandle::queued(id, &p.key, &p.tenant);
                let weight =
                    inner.weights.get(&p.tenant).copied().unwrap_or(1) * p.priority.factor();
                let cost_units = (p.cost.max(1e-3) * 1024.0) as u64;
                st.queue.push(
                    &p.tenant,
                    weight,
                    cost_units,
                    QueuedJob {
                        handle: handle.clone(),
                        program: recipe(),
                        deadline: None,
                        submitted: Instant::now(),
                        journal_key: Some(p.key.clone()),
                    },
                );
                st.live.insert(p.key, handle);
                stats.submitted += 1;
                stats.accepted += 1;
                stats.requeued += 1;
            }
            stats.queue_peak = stats.queue_peak.max(st.queue.len());
        }
        let workers = (0..opts.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("op2-serve-disp-{i}"))
                    .spawn(move || dispatcher(inner))
                    .expect("spawn dispatcher thread")
            })
            .collect();
        Service { inner, workers }
    }

    /// Submit a job, or shed it with a typed error. Never blocks on
    /// execution (admission holds the state lock briefly), never panics.
    pub fn try_submit(&self, spec: JobSpec) -> Result<JobHandle, AdmissionError> {
        self.try_submit_inner(spec, None)
    }

    /// Submit a **durable** job, or shed it. `key` is the idempotency key
    /// (doubling as the job name and trace label); `recipe` names a
    /// program factory registered with [`ServeOptions::recipe`]. The
    /// admission is journaled before the job can run, the terminal outcome
    /// is journaled before the handle resolves, and across a restart:
    ///
    /// * a key whose terminal outcome is on disk **dedupes** — the handle
    ///   comes back born terminal with the recorded outcome, nothing
    ///   reruns;
    /// * a key admitted but unresolved at the crash is **requeued** by
    ///   [`Service::start`]; resubmitting it attaches to the live run.
    ///
    /// # Panics
    /// Panics if the service was started without
    /// [`ServeOptions::journal`] — durable submission needs the journal.
    pub fn try_submit_durable(
        &self,
        key: &str,
        recipe: &str,
        tenant: &str,
        priority: Priority,
        cost: f64,
    ) -> Result<JobHandle, AdmissionError> {
        let journal = self
            .inner
            .journal
            .as_ref()
            .expect("durable submission requires ServeOptions::journal");
        // Dedupe a completed key to its recorded outcome, without
        // re-running and without touching admission at all.
        if let Some(outcome) = journal.terminal_of(key) {
            self.inner.stats.lock().deduped += 1;
            return Ok(JobHandle::resolved(0, key, tenant, outcome));
        }
        // A key already in flight in this process attaches to the live
        // handle: exactly one run, however many submissions.
        if let Some(h) = self.inner.state.lock().live.get(key) {
            self.inner.stats.lock().deduped += 1;
            return Ok(h.clone());
        }
        let Some(factory) = self.inner.recipes.get(recipe) else {
            return Err(AdmissionError::UnknownRecipe {
                recipe: recipe.to_owned(),
            });
        };
        let program = factory();
        let spec = JobSpec::new(key, program)
            .tenant(tenant)
            .priority(priority)
            .cost(cost);
        self.try_submit_inner(spec, Some((key.to_owned(), recipe.to_owned())))
    }

    /// [`Service::try_submit_durable`] with the shed folded into the
    /// handle (like [`Service::submit`]).
    pub fn submit_durable(&self, key: &str, recipe: &str) -> JobHandle {
        match self.try_submit_durable(key, recipe, "default", Priority::Normal, 1.0) {
            Ok(h) => h,
            Err(e) => JobHandle::rejected(0, key, "default", e),
        }
    }

    fn try_submit_inner(
        &self,
        spec: JobSpec,
        durable: Option<(String, String)>,
    ) -> Result<JobHandle, AdmissionError> {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        self.inner.stats.lock().submitted += 1;
        let admit = || -> Result<JobHandle, AdmissionError> {
            let mut st = self.inner.state.lock();
            if st.phase != Phase::Open {
                return Err(AdmissionError::ShuttingDown);
            }
            let depth = st.queue.len();
            if depth >= self.inner.max_queue {
                return Err(AdmissionError::QueueFull {
                    depth,
                    limit: self.inner.max_queue,
                });
            }
            // Charge the *chargeable* cost: the declared one, floored by the
            // measured cost of this tenant's earlier runs of the same job
            // (when a tuner is on). Under-declaring buys a tenant exactly one
            // cheap admission; from then on the meter decides.
            let charge = match &self.inner.tuner {
                Some(t) => t.costs().chargeable(&spec.tenant, &spec.name, spec.cost),
                None => spec.cost,
            };
            if let Some(q) = self.inner.quota {
                let key = if q.per_tenant {
                    spec.tenant.clone()
                } else {
                    String::new()
                };
                let now = Instant::now();
                let bucket = st
                    .buckets
                    .entry(key)
                    .or_insert_with(|| TokenBucket::new(q, now));
                if let Err(available) = bucket.try_take(charge, now) {
                    return Err(AdmissionError::QuotaExhausted {
                        tenant: spec.tenant.clone(),
                        available,
                        cost: charge,
                    });
                }
            }
            let handle = JobHandle::queued(id, &spec.name, &spec.tenant);
            let weight =
                self.inner.weights.get(&spec.tenant).copied().unwrap_or(1) * spec.priority.factor();
            // Fair-share accounting uses the same chargeable cost, so an
            // under-declared job's *queueing share* is honest too.
            let cost_units = (charge.max(1e-3) * 1024.0) as u64;
            let deadline = spec
                .deadline
                .or(self.inner.default_deadline)
                .map(|d| Instant::now() + d);
            // Journal the admission *before* the job becomes visible to a
            // dispatcher (still under the state lock): once anyone can run
            // it, the disk must already know it was admitted.
            let journal_key = durable.as_ref().map(|(key, recipe)| {
                let journal = self.inner.journal.as_ref().expect("durable implies journal");
                journal.admitted(&PendingJob {
                    key: key.clone(),
                    recipe: recipe.clone(),
                    tenant: spec.tenant.clone(),
                    priority: spec.priority,
                    cost: spec.cost,
                    started: false,
                });
                st.live.insert(key.clone(), handle.clone());
                key.clone()
            });
            st.queue.push(
                &spec.tenant,
                weight,
                cost_units,
                QueuedJob {
                    handle: handle.clone(),
                    program: spec.program,
                    deadline,
                    submitted: Instant::now(),
                    journal_key,
                },
            );
            let depth = st.queue.len();
            drop(st);
            let mut stats = self.inner.stats.lock();
            stats.accepted += 1;
            stats.queue_peak = stats.queue_peak.max(depth);
            drop(stats);
            self.inner.cv.notify_one();
            Ok(handle)
        };
        admit().map_err(|e| {
            self.inner.stats.lock().shed += 1;
            let depth = match &e {
                AdmissionError::QueueFull { depth, .. } => *depth as u64,
                _ => 0,
            };
            tracehooks::shed(&spec_tenant_of(&e), e.code(), depth);
            e
        })
    }

    /// Submit, folding a shed into the handle itself: a rejected job comes
    /// back as a handle already terminal with [`JobOutcome::Rejected`].
    pub fn submit(&self, spec: JobSpec) -> JobHandle {
        let name = spec.name.clone();
        let tenant = spec.tenant.clone();
        match self.try_submit(spec) {
            Ok(h) => h,
            Err(e) => JobHandle::rejected(0, &name, &tenant, e),
        }
    }

    /// Snapshot the service statistics.
    pub fn report(&self) -> ServiceReport {
        let stats = self.inner.stats.lock();
        let elapsed = self.inner.started.elapsed();
        ServiceReport {
            submitted: stats.submitted,
            accepted: stats.accepted,
            completed: stats.completed,
            failed: stats.failed,
            cancelled: stats.cancelled,
            deadline_exceeded: stats.deadline_exceeded,
            shed: stats.shed,
            queue_peak: stats.queue_peak,
            latency: LatencyStats::from_us(&stats.latencies_us),
            throughput_jps: if elapsed.as_secs_f64() > 0.0 {
                stats.completed as f64 / elapsed.as_secs_f64()
            } else {
                0.0
            },
            plan_builds: self.inner.plans.builds(),
            plan_topo_hits: self.inner.plans.topo_hits(),
            tuned_keys: self.inner.tuner.as_ref().map_or(0, |t| t.snapshot().len()),
            tuned_converged: self.inner.tuner.as_ref().is_some_and(|t| t.converged()),
            measured_costs: self.inner.tuner.as_ref().map_or(0, |t| t.costs().len()),
            requeued: stats.requeued,
            deduped: stats.deduped,
            elapsed,
        }
    }

    /// The shared tuner, if tuning is on.
    pub fn tuner(&self) -> Option<&Arc<Tuner>> {
        self.inner.tuner.as_ref()
    }

    /// Persist the tuner store if both a tuner and a store path are set.
    fn persist_tuner(&self) {
        if let (Some(tuner), Some(path)) = (&self.inner.tuner, &self.inner.tune_store) {
            let _ = tuner.save(path);
        }
    }

    /// Stop admissions, run the queue dry, join dispatchers, and return the
    /// final report. Every accepted job reaches its terminal outcome.
    pub fn drain(mut self) -> ServiceReport {
        {
            let mut st = self.inner.state.lock();
            if st.phase == Phase::Open {
                st.phase = Phase::Draining;
            }
        }
        self.inner.cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.persist_tuner();
        self.report()
    }

    /// Simulate whole-process death: stop dispatchers and vanish *without*
    /// journaling any further record — queued and running durable jobs stay
    /// **incomplete** on disk, exactly as a `kill -9` would leave them, so
    /// the next [`Service::start`] over the same journal requeues them.
    /// In-memory handles of unfinished jobs resolve `Cancelled` (so test
    /// waiters do not hang), but that resolution is deliberately *not*
    /// written to the journal — a dead process reports nothing.
    pub fn kill(mut self) {
        self.inner
            .crashed
            .store(true, std::sync::atomic::Ordering::SeqCst);
        let drained = {
            let mut st = self.inner.state.lock();
            st.phase = Phase::Closed;
            for h in &st.running {
                h.try_cancel();
            }
            st.queue.drain()
        };
        self.inner.cv.notify_all();
        for job in drained {
            job.handle.finish(JobOutcome::Cancelled);
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // No tuner persist, no journal terminals: the process is "dead".
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        let drained = {
            let mut st = self.inner.state.lock();
            st.phase = Phase::Closed;
            for h in &st.running {
                h.try_cancel();
            }
            st.queue.drain()
        };
        self.inner.cv.notify_all();
        let mut n_cancelled = 0u64;
        for job in drained {
            if finish_journaled(&self.inner, &job.journal_key, &job.handle, JobOutcome::Cancelled)
            {
                n_cancelled += 1;
            }
        }
        self.inner.stats.lock().cancelled += n_cancelled;
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Tenant string for a shed trace instant.
fn spec_tenant_of(e: &AdmissionError) -> String {
    match e {
        AdmissionError::QuotaExhausted { tenant, .. } => tenant.clone(),
        _ => String::new(),
    }
}

/// Dispatcher thread: pop fair-queue jobs and run each to a terminal
/// outcome. Exits when the phase leaves `Open` and the queue is dry (or
/// immediately on `Closed`).
fn dispatcher(inner: Arc<Inner>) {
    loop {
        let job = {
            let mut st = inner.state.lock();
            loop {
                if st.phase == Phase::Closed {
                    break None;
                }
                if let Some(job) = st.queue.pop() {
                    st.running.push(job.handle.clone());
                    break Some(job);
                }
                if st.phase == Phase::Draining {
                    break None;
                }
                inner.cv.wait(&mut st);
            }
        };
        let Some(job) = job else { return };
        if let (Some(journal), Some(key)) = (&inner.journal, &job.journal_key) {
            journal.started(key);
        }
        let id = job.handle.id();
        let key = job.journal_key.clone();
        run_job(&inner, job);
        let mut st = inner.state.lock();
        st.running.retain(|h| h.id() != id);
        if let Some(key) = key {
            st.live.remove(&key);
        }
    }
}

/// Journal the terminal outcome (unless a crash is being simulated), then
/// resolve the in-memory handle: the disk learns the outcome strictly
/// before any client can observe it.
fn finish_journaled(
    inner: &Inner,
    key: &Option<String>,
    handle: &JobHandle,
    outcome: JobOutcome,
) -> bool {
    if let (Some(journal), Some(key)) = (&inner.journal, key) {
        if !inner.crashed.load(Ordering::Acquire) {
            journal.terminal(key, &outcome);
        }
    }
    handle.finish(outcome)
}

/// Run one admitted job to its terminal outcome. Never panics: program
/// panics are caught and classified, and the handle is always resolved.
fn run_job(inner: &Arc<Inner>, job: QueuedJob) {
    let QueuedJob {
        handle,
        program,
        deadline,
        submitted,
        journal_key,
    } = job;

    // Resolve without running if the job was cancelled or timed out while
    // queued — precisely the load-shedding a deadline is for.
    if handle.cancel_requested() {
        if finish_journaled(inner, &journal_key, &handle, JobOutcome::Cancelled) {
            inner.stats.lock().cancelled += 1;
        }
        return;
    }
    if deadline.is_some_and(|d| Instant::now() >= d) {
        if finish_journaled(inner, &journal_key, &handle, JobOutcome::DeadlineExceeded) {
            inner.stats.lock().deadline_exceeded += 1;
        }
        return;
    }

    // Per-job runtime over the shared pool (or a per-job deterministic
    // pool) and the shared plan cache; its cancel token is the job's. The
    // *tuner* is shared too — that is the whole point of tuning a service:
    // every tenant's loops train one model.
    let mut rt = match (&inner.pool, inner.det_seed) {
        (Some(pool), _) => Op2Runtime::from_pool_with_cache(
            Arc::clone(pool),
            Arc::clone(&inner.plans),
            inner.part_size,
        ),
        (None, seed) => Op2Runtime::from_pool_with_cache(
            Arc::new(DetPool::new(seed.unwrap_or(0) ^ handle.id())),
            Arc::clone(&inner.plans),
            inner.part_size,
        ),
    };
    if let Some(tuner) = &inner.tuner {
        rt = rt.with_tuner(Arc::clone(tuner));
    }
    let rt = Arc::new(rt);
    let token = rt.cancel_token().clone();
    token.set_deadline_opt(deadline);
    handle.attach_token(token.clone());

    let sup = Supervisor::new(Arc::clone(&rt), inner.backend, inner.retry.clone());
    let ctx = JobCtx::new(rt, sup, handle.id(), handle.tenant(), handle.name());

    let span = tracehooks::job_begin();
    let run_start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| program(&ctx)));
    let run_wall = run_start.elapsed();
    tracehooks::job_end(span, handle.name(), handle.id(), handle.tenant());

    let expired = deadline.is_some_and(|d| Instant::now() >= d);
    let outcome = match result {
        Ok(Ok(output)) => JobOutcome::Completed(output),
        Ok(Err(err)) => interrupted_outcome(&handle, expired, err),
        Err(payload) => interrupted_outcome(
            &handle,
            expired,
            JobError::Panic(hpx_rt::panic_message(&payload)),
        ),
    };

    // Meter the completed run for measured-cost admission: what this
    // (tenant, job) actually costs, in quota tokens.
    if let (Some(tuner), JobOutcome::Completed(_)) = (&inner.tuner, &outcome) {
        tuner.costs().record(
            handle.tenant(),
            handle.name(),
            run_wall.as_secs_f64() / inner.cost_unit.as_secs_f64().max(1e-9),
        );
    }

    let mut stats = inner.stats.lock();
    match &outcome {
        JobOutcome::Completed(_) => {
            stats.completed += 1;
            stats
                .latencies_us
                .push(submitted.elapsed().as_micros() as u64);
        }
        JobOutcome::Failed(_) => stats.failed += 1,
        JobOutcome::Cancelled => stats.cancelled += 1,
        JobOutcome::DeadlineExceeded => stats.deadline_exceeded += 1,
        JobOutcome::Rejected(_) => {}
    }
    drop(stats);
    finish_journaled(inner, &journal_key, &handle, outcome);
}

/// Classify a program failure into its terminal outcome: an external
/// cancel or expired job deadline takes precedence over the error it
/// surfaced as (a cancelled loop reports `FailureKind::Cancelled`, a
/// cancelled non-loop section may surface as `Interrupted` or even a
/// panic payload — the *cause* is what the client asked for).
fn interrupted_outcome(handle: &JobHandle, deadline_expired: bool, err: JobError) -> JobOutcome {
    let cancel_like = matches!(
        &err,
        JobError::Interrupted(_)
            | JobError::Loop(op2_hpx::LoopError {
                kind: FailureKind::Cancelled(_),
                ..
            })
    );
    if cancel_like && handle.cancel_requested() {
        JobOutcome::Cancelled
    } else if cancel_like && deadline_expired {
        JobOutcome::DeadlineExceeded
    } else {
        JobOutcome::Failed(err)
    }
}
