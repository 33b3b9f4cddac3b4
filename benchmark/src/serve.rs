//! `serve_mix`: a closed loop of clients against `op2-serve`.
//!
//! `threads` client threads each submit their next job only after the
//! previous one completed, so a slow service receives less load (closed
//! loop, `threads` clients). A block is `block` jobs alternating the Airfoil
//! and shallow-water programs, in a seeded order, on two tenants.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use op2_hpx::{BackendKind, RetryPolicy};
use op2_serve::{apps, JobHandle, JobOutcome, JobSpec, PoolMode, Program, ServeOptions, Service};

use crate::app::Inputs;
use crate::bench::{guard, Bench, Check, Workload};
use crate::spans::SpanLog;
use crate::util::{timed, Rng};

/// Iterations each job marches.
pub const JOB_ITERS: usize = 10;
/// Independently tuned services the designated arm rotates over. Which
/// configuration a tuner settles on depends on timing noise, so one service
/// is one draw from that distribution; the arm's median is taken over
/// several draws so it describes the tuned service, not one tuner's luck.
const TUNED_SERVICES: usize = 5;
/// Plan block size of the service and of the solo reference (service default).
const SERVE_PART: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    Airfoil,
    Swe,
}

impl JobKind {
    pub fn recipe(self) -> &'static str {
        match self {
            JobKind::Airfoil => "air",
            JobKind::Swe => "swe",
        }
    }
}

/// Job dimensions: mesh and iterations.
#[derive(Debug, Clone, Copy)]
pub struct JobDims {
    pub nx: usize,
    pub ny: usize,
    pub iters: usize,
}

impl JobDims {
    /// Jobs on the mesh of `w`.
    pub fn of(w: &Workload) -> JobDims {
        JobDims {
            nx: w.mesh.nx,
            ny: w.mesh.ny,
            iters: JOB_ITERS,
        }
    }

    pub fn program(self, kind: JobKind) -> Program {
        match kind {
            JobKind::Airfoil => apps::airfoil_program(self.nx, self.ny, self.iters),
            JobKind::Swe => apps::swe_program(self.nx, self.ny, self.iters),
        }
    }

    /// Run one job outside any service on a single thread.
    pub fn solo(self, kind: JobKind) -> Result<u64, String> {
        apps::run_solo(
            self.program(kind),
            1,
            SERVE_PART,
            BackendKind::Serial,
            RetryPolicy::default(),
        )
        .map(|o| o.digest)
        .map_err(|e| format!("{e:?}"))
    }
}

/// `n` jobs alternating the two programs.
fn alternating(n: usize) -> Vec<JobKind> {
    (0..n)
        .map(|i| [JobKind::Airfoil, JobKind::Swe][i % 2])
        .collect()
}

fn base_options(threads: usize) -> ServeOptions {
    ServeOptions::default()
        .workers(threads)
        .pool(PoolMode::Shared { threads })
        .part_size(SERVE_PART)
        .max_queue(256)
        .tenant_weight("alpha", 2)
}

/// The tuned service of the designated path, warmed until its tuner has
/// finished exploring every loop shape of both programs. The warm-up jobs
/// arrive from the same closed loop of `threads` clients as the timed ones,
/// so the tuner explores under the contention it will then run under.
pub fn tuned_service(dims: JobDims, threads: usize, tuner_seed: u64, log: &mut SpanLog) -> Service {
    let (_, svc) = log.span("Service::start", "op2-serve", |_| {
        Service::start(
            base_options(threads)
                .backend(BackendKind::Dataflow)
                .tuning(tuner_seed),
        )
    });
    log.span("warm-up jobs until Tuner::converged", "op2-tune", |_| {
        let batch = alternating(2 * threads);
        let submit = |_: usize, kind: JobKind| svc.submit(JobSpec::new("warm", dims.program(kind)));
        for _ in 0..16 {
            // Outputs are checked on the timed jobs, not here.
            closed_loop(threads, &batch, [0, 0], &submit);
            if svc.tuner().is_some_and(|t| t.converged()) {
                break;
            }
        }
    });
    svc
}

/// One job's `(submit_start, submit_end, done)`, ns since its block began.
pub type JobTimes = (u64, u64, u64);

/// Outcome of one closed-loop block.
pub struct Batch {
    pub wall_s: f64,
    pub jobs: Vec<JobTimes>,
    pub bad: usize,
}

/// Drive `order` through `submit` from `clients` closed-loop client threads.
pub fn closed_loop(
    clients: usize,
    order: &[JobKind],
    oracle: [u64; 2],
    submit: &(dyn Fn(usize, JobKind) -> JobHandle + Sync),
) -> Batch {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let per_client: Vec<(Vec<JobTimes>, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut jobs = Vec::new();
                    let mut bad = 0;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&kind) = order.get(i) else { break };
                        let a = t0.elapsed().as_nanos() as u64;
                        let handle = submit(i, kind);
                        let b = t0.elapsed().as_nanos() as u64;
                        let outcome = handle.wait();
                        let c = t0.elapsed().as_nanos() as u64;
                        jobs.push((a, b, c));
                        let want = oracle[kind as usize];
                        match outcome {
                            JobOutcome::Completed(o) if o.digest == want => {}
                            _ => bad += 1,
                        }
                    }
                    (jobs, bad)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut jobs = Vec::new();
    let mut bad = 0;
    for (j, b) in per_client {
        jobs.extend(j);
        bad += b;
    }
    Batch { wall_s, jobs, bad }
}

pub struct ServeBench {
    dims: JobDims,
    threads: usize,
    order: Vec<JobKind>,
    oracle: [u64; 2],
    tuned: Vec<Service>,
    /// Blocks the designated arm has run (picks the tuned service).
    turn: usize,
    baseline: Option<Service>,
    durable: Option<Service>,
    journal_dir: PathBuf,
    durable_seq: AtomicUsize,
    bad_outputs: usize,
}

impl ServeBench {
    /// The designated path only: what `setup_s` times.
    pub fn designated(w: &Workload, inp: &Inputs, threads: usize, log: &mut SpanLog) -> Service {
        tuned_service(JobDims::of(w), threads, inp.tuner_seed, log)
    }

    pub fn new(
        w: &Workload,
        inp: &Inputs,
        threads: usize,
        scratch: &Path,
        designated_only: bool,
        log: &mut SpanLog,
    ) -> ServeBench {
        let dims = JobDims::of(w);
        let tuned: Vec<Service> = (0..TUNED_SERVICES)
            .map(|i| tuned_service(dims, threads, inp.tuner_seed.wrapping_add(i as u64), log))
            .collect();
        let journal_dir = scratch.join("journal");
        let (baseline, durable) = if designated_only {
            (None, None)
        } else {
            let baseline = Service::start(base_options(threads).backend(BackendKind::ForkJoin));
            let durable = Service::start(
                base_options(threads)
                    .backend(BackendKind::Dataflow)
                    .journal(&journal_dir)
                    .recipe("air", move || dims.program(JobKind::Airfoil))
                    .recipe("swe", move || dims.program(JobKind::Swe)),
            );
            for kind in [JobKind::Airfoil, JobKind::Swe] {
                baseline
                    .submit(JobSpec::new("warm", dims.program(kind)))
                    .wait();
                durable
                    .submit_durable(&format!("warm-{}", kind.recipe()), kind.recipe())
                    .wait();
            }
            (Some(baseline), Some(durable))
        };
        let mut order = alternating(w.block);
        Rng::new(inp.order_seed).shuffle(&mut order);
        let oracle = [
            dims.solo(JobKind::Airfoil).expect("solo airfoil oracle"),
            dims.solo(JobKind::Swe).expect("solo swe oracle"),
        ];
        ServeBench {
            dims,
            threads,
            order,
            oracle,
            tuned,
            turn: 0,
            baseline,
            durable,
            journal_dir,
            durable_seq: AtomicUsize::new(0),
            bad_outputs: 0,
        }
    }

    fn plain_submit<'a>(
        svc: &'a Service,
        dims: JobDims,
    ) -> impl Fn(usize, JobKind) -> JobHandle + Sync + 'a {
        move |i, kind| {
            let tenant = if i % 2 == 0 { "alpha" } else { "beta" };
            svc.submit(JobSpec::new(format!("job-{i}"), dims.program(kind)).tenant(tenant))
        }
    }
}

impl Bench for ServeBench {
    fn run_arm(&mut self, arm: usize, units: &mut Vec<f64>) -> Result<f64, String> {
        let dims = self.dims;
        let batch = match arm {
            0 | 1 => {
                let svc = if arm == 0 {
                    self.turn += 1;
                    &self.tuned[(self.turn - 1) % self.tuned.len()]
                } else {
                    self.baseline
                        .as_ref()
                        .ok_or("the baseline service was not started")?
                };
                closed_loop(
                    self.threads,
                    &self.order,
                    self.oracle,
                    &Self::plain_submit(svc, dims),
                )
            }
            2 => {
                // No service, no pool sharing, one thread: the reference cost
                // of the jobs themselves.
                let mut bad = 0;
                let (wall_s, ()) = timed(|| {
                    for &kind in &self.order {
                        match guard(|| dims.solo(kind)) {
                            Ok(Ok(d)) if d == self.oracle[kind as usize] => {}
                            _ => bad += 1,
                        }
                    }
                });
                Batch {
                    wall_s,
                    jobs: Vec::new(),
                    bad,
                }
            }
            _ => {
                let svc = self
                    .durable
                    .as_ref()
                    .ok_or("the journaled service was not started")?;
                let seq = &self.durable_seq;
                closed_loop(self.threads, &self.order, self.oracle, &|_, kind| {
                    let key = format!("g{}", seq.fetch_add(1, Ordering::Relaxed));
                    svc.submit_durable(&key, kind.recipe())
                })
            }
        };
        self.bad_outputs += batch.bad;
        if batch.bad > 0 {
            return Err(format!(
                "{} job(s) failed or returned a wrong digest",
                batch.bad
            ));
        }
        if arm == 0 {
            units.extend(batch.jobs.iter().map(|&(a, _, c)| (c - a) as f64 / 1e6));
        }
        Ok(batch.wall_s)
    }

    /// A unit is one job of the designated arm, submit → outcome; `run_arm`
    /// already took the latencies while that arm's block ran.
    fn run_units(&mut self, _units: &mut Vec<f64>) -> Result<(), String> {
        Ok(())
    }

    /// The tuned service's block times scatter the most (its jobs run on
    /// whatever the tuner picked under two-job contention): three blocks per
    /// round, so its block time and each round's p50 job latency rest on
    /// three times the samples.
    fn round(&self) -> &'static [usize] {
        &[0, 1, 0, 2, 0, 3]
    }

    fn verify(&mut self) -> Vec<Check> {
        let mut checks = vec![Check::new(
            "every job completed with its run_solo digest",
            self.bad_outputs == 0,
        )];
        let services = self
            .tuned
            .drain(..)
            .map(|s| ("tuned", s))
            .chain(self.baseline.take().map(|s| ("baseline", s)))
            .chain(self.durable.take().map(|s| ("durable", s)));
        for (name, svc) in services.collect::<Vec<_>>() {
            let rep = svc.drain();
            checks.push(Check::new(
                format!("{name} service: conserved, nothing shed or failed"),
                rep.is_conserved() && rep.shed == 0 && rep.failed == 0,
            ));
        }
        let _ = std::fs::remove_dir_all(&self.journal_dir);
        checks
    }
}
