//! The workloads and the arms each one times.
//!
//! Every workload exposes the same four arms plus a unit of latency, so one
//! list of end-to-end metrics is meaningful on all of them:
//!
//! | arm | shared-memory workloads | `serve_mix` | `dist_airfoil` |
//! |---|---|---|---|
//! | `march` (designated path) | dataflow executor | service, tuner on, dataflow primary | 2 ranks, overlapped halo exchange |
//! | `baseline` (the paper's baseline) | fork-join executor | service, fork-join backend, tuner off | 2 ranks, bulk-synchronous exchange |
//! | `serial` (single-thread reference) | `SerialExecutor` | the same jobs `run_solo` one after another on one thread | `SerialExecutor` march of the same mesh |
//! | `guarded` (fault-tolerance path on) | `run_supervised` through a `Supervisor` | journaled `submit_durable` | durable checkpoints every 5 iterations |
//! | unit | one iteration with the residual read back | one job, submit → outcome | a one-iteration distributed call |

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use op2_core::Layout;
use op2_hpx::{BackendKind, RetryPolicy, Supervisor};

use crate::app::{build_instance, AppKind, Inputs, Instance, MeshSpec};
use crate::dist::DistBench;
use crate::serve::ServeBench;
use crate::spans::SpanLog;
use crate::util::{fnv1a, timed};

pub const ARMS: [&str; 4] = ["march", "baseline", "serial", "guarded"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Shm,
    Serve,
    Dist,
}

/// One benchmark workload: what is marched, on which mesh, in what block.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub mesh: MeshSpec,
    /// Iterations (jobs for `serve_mix`) one timed block of an arm runs:
    /// 30 to 90 ms of the serial arm (the distributed calls, which start
    /// from the mesh tables every time, 190 ms), so a run fits dozens of
    /// blocks of every arm into `--seconds` and a slow second of the host
    /// touches few of them.
    pub block: usize,
}

const fn mesh(app: AppKind, nx: usize, ny: usize) -> MeshSpec {
    MeshSpec {
        app,
        nx,
        ny,
        layout: Layout::Aos,
        renumber: false,
        shuffle: false,
    }
}

/// The six workloads (see README.md for why each was chosen). `smoke`
/// shrinks every mesh so the whole set runs in seconds.
pub fn workloads(smoke: bool) -> Vec<Workload> {
    let (lx, ly) = if smoke { (48, 24) } else { (512, 256) };
    let (sx, sy) = if smoke { (16, 8) } else { (64, 32) };
    let (jx, jy) = if smoke { (24, 12) } else { (128, 64) };
    let shuffled = MeshSpec {
        layout: Layout::Soa,
        renumber: true,
        shuffle: true,
        ..mesh(AppKind::Airfoil, lx, ly)
    };
    vec![
        Workload {
            name: "airfoil_large",
            kind: Kind::Shm,
            mesh: mesh(AppKind::Airfoil, lx, ly),
            block: if smoke { 2 } else { 3 },
        },
        Workload {
            name: "airfoil_small",
            kind: Kind::Shm,
            mesh: mesh(AppKind::Airfoil, sx, sy),
            block: if smoke { 20 } else { 60 },
        },
        Workload {
            name: "airfoil_shuffled",
            kind: Kind::Shm,
            mesh: shuffled,
            block: if smoke { 2 } else { 3 },
        },
        Workload {
            name: "swe_large",
            kind: Kind::Shm,
            mesh: mesh(AppKind::Swe, lx, ly),
            block: if smoke { 2 } else { 6 },
        },
        Workload {
            name: "serve_mix",
            kind: Kind::Serve,
            mesh: mesh(AppKind::Airfoil, jx, jy),
            block: 8,
        },
        Workload {
            name: "dist_airfoil",
            kind: Kind::Dist,
            mesh: mesh(AppKind::Airfoil, lx, ly),
            block: 10,
        },
    ]
}

/// One correctness check made after the timed rounds.
#[derive(Debug, Clone)]
pub struct Check {
    pub what: String,
    pub ok: bool,
}

impl Check {
    pub fn new(what: impl Into<String>, ok: bool) -> Check {
        Check {
            what: what.into(),
            ok,
        }
    }
}

impl std::fmt::Display for Check {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {}",
            if self.ok { "ok" } else { "FAILED" },
            self.what
        )
    }
}

/// A workload ready to be timed. `setup` is everything the designated path
/// needs before its first timed iteration; the other arms are built after it.
pub trait Bench {
    /// Time one block of arm `arm` (index into [`ARMS`]); `Err` when the arm
    /// failed (a failed arm's timing is never reported). An arm whose block
    /// is made of units (the jobs of `serve_mix`) pushes their latencies, in
    /// ms, to `units`.
    fn run_arm(&mut self, arm: usize, units: &mut Vec<f64>) -> Result<f64, String>;
    /// Time one block's worth of separately issued units, pushing each
    /// latency in ms.
    fn run_units(&mut self, units: &mut Vec<f64>) -> Result<(), String>;
    /// The arms one full round times, in order. An arm may appear more than
    /// once when its block times scatter widely and it needs more samples.
    fn round(&self) -> &'static [usize] {
        &[0, 1, 2, 3]
    }
    /// Compare every arm's output against the serial oracle.
    fn verify(&mut self) -> Vec<Check>;
}

/// Build the designated path of `w` only (what `setup_s` times), run its
/// warm-up, and drop it.
pub fn setup_designated(w: &Workload, inp: &Inputs, threads: usize, log: &mut SpanLog) {
    match w.kind {
        Kind::Shm => {
            let inst = build_instance(&w.mesh, inp, BackendKind::Dataflow, threads, log);
            log.span("warm-up iteration", "bench", |_| inst.march(1));
        }
        Kind::Serve => drop(ServeBench::designated(w, inp, threads, log)),
        Kind::Dist => drop(DistBench::designated(w, inp, log)),
    }
}

/// Build the arms of `w`: all of them, or with `designated_only` just the
/// designated path and whatever its verification needs (the traced run).
pub fn build(
    w: &Workload,
    inp: &Inputs,
    threads: usize,
    scratch: &Path,
    designated_only: bool,
    log: &mut SpanLog,
) -> Box<dyn Bench> {
    match w.kind {
        Kind::Shm => Box::new(ShmBench::new(w, inp, threads, designated_only, log)),
        Kind::Serve => Box::new(ServeBench::new(
            w,
            inp,
            threads,
            scratch,
            designated_only,
            log,
        )),
        Kind::Dist => Box::new(DistBench::new(w, inp, scratch, log)),
    }
}

/// Run `f`, turning a panic into an `Err` with its message.
pub fn guard<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| hpx_rt::panic_message(&p))
}

/// Shared-memory workloads: six instances of the same mesh and inputs, one
/// per arm plus two for units (a round's p50 rests on two blocks' worth of
/// units, and every instance advances one block a round so all stay in lock
/// step). Their final states must agree bit for bit once each has marched
/// the same number of iterations.
pub struct ShmBench {
    block: usize,
    /// `march`, `baseline`, `serial`, `guarded`, then the two unit
    /// instances (`None`: not built, see [`build`]).
    insts: Vec<Option<Box<dyn Instance>>>,
    /// Iterations each instance has marched.
    done: [usize; 6],
    supervisor: Option<Supervisor>,
}

const SHM_NAMES: [&str; 6] = ["march", "baseline", "serial", "guarded", "unit", "unit-2"];

impl ShmBench {
    pub fn new(
        w: &Workload,
        inp: &Inputs,
        threads: usize,
        designated_only: bool,
        log: &mut SpanLog,
    ) -> ShmBench {
        let kinds = [
            BackendKind::Dataflow,
            BackendKind::ForkJoin,
            BackendKind::Serial,
            BackendKind::Dataflow,
            BackendKind::Dataflow,
            BackendKind::Dataflow,
        ];
        let insts: Vec<Option<Box<dyn Instance>>> = kinds
            .iter()
            .enumerate()
            .map(|(slot, &k)| {
                // The serial instance is the oracle: always there; the traced
                // run also takes unit latencies, from one unit instance.
                (!designated_only || matches!(slot, 0 | 2 | 4)).then(|| {
                    let inst = build_instance(&w.mesh, inp, k, threads, log);
                    inst.march(1);
                    inst
                })
            })
            .collect();
        let supervisor = insts[3].as_ref().map(|inst| {
            Supervisor::new(
                std::sync::Arc::clone(inst.rt()),
                BackendKind::Dataflow,
                RetryPolicy::default(),
            )
        });
        ShmBench {
            block: w.block,
            insts,
            done: [1; 6],
            supervisor,
        }
    }

    fn inst(&self, slot: usize) -> Result<&dyn Instance, String> {
        self.insts[slot]
            .as_deref()
            .ok_or_else(|| format!("the {} instance was not built", SHM_NAMES[slot]))
    }
}

impl Bench for ShmBench {
    fn run_arm(&mut self, arm: usize, _units: &mut Vec<f64>) -> Result<f64, String> {
        let inst = self.inst(arm)?;
        let block = self.block;
        let (secs, res) = match (arm, &self.supervisor) {
            (3, Some(sup)) => timed(|| {
                guard(|| inst.march_supervised(sup, block))
                    .and_then(|r| r.map_err(|e| e.to_string()))
            }),
            _ => timed(|| guard(|| inst.march(block))),
        };
        self.done[arm] += block;
        res.map(|()| secs)
    }

    fn run_units(&mut self, out: &mut Vec<f64>) -> Result<(), String> {
        for slot in [4, 5] {
            let Some(inst) = self.insts[slot].as_deref() else {
                continue;
            };
            for _ in 0..self.block {
                let (secs, res) = timed(|| guard(|| inst.march(1)));
                res?;
                out.push(secs * 1e3);
            }
            self.done[slot] += self.block;
        }
        Ok(())
    }

    fn verify(&mut self) -> Vec<Check> {
        // Bring every instance to the same iteration count (a no-op after
        // full rounds, where all arms marched in lock step).
        let target = self.done.iter().copied().max().unwrap_or(0);
        let mut checks = Vec::new();
        let mut digests = [None; 6];
        for (slot, inst) in self.insts.iter().enumerate() {
            let Some(inst) = inst else { continue };
            let behind = target - self.done[slot];
            if behind == 0 || guard(|| inst.march(behind)).is_ok() {
                digests[slot] = Some(fnv1a(&inst.state()));
            }
        }
        for (slot, name) in SHM_NAMES.iter().enumerate() {
            if self.insts[slot].is_some() {
                checks.push(Check::new(
                    format!("{name} state digest == SerialExecutor digest"),
                    digests[slot].is_some() && digests[slot] == digests[2],
                ));
            }
        }
        checks
    }
}
