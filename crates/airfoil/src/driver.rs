//! The Airfoil time-march driver.
//!
//! Reproduces `airfoil.cpp`: each iteration runs [`AirfoilLoops::step`] —
//! `save_soln`, then two explicit stages of `adt_calc → res_calc → bres_calc
//! → update` — and reports `sqrt(rms / ncells)` every `report_every`
//! iterations.
//!
//! The iteration is interpreted by [`op2_hpx::run_step`] under one of the
//! paper's three synchronization strategies ([`SyncStrategy`]): `Blocking`
//! waits on every loop (the unchanged OP2 program), `Fig10` waits on the
//! producers the dependency rule names (§III-A2, Fig. 10's `.get()`s,
//! derived instead of placed by hand), and `Dataflow` waits on nothing and
//! synchronizes only when it *reads* the RMS at report points (§III-B).

use op2_core::Step;
use op2_hpx::{run_step, Executor, LoopError, LoopHandle, Supervisor};
pub use op2_hpx::SyncStrategy;

use crate::constants::FlowConstants;
use crate::loops::AirfoilLoops;
use crate::mesh::Mesh;

/// A configured Airfoil simulation: mesh + iteration + executor + strategy.
pub struct Simulation {
    mesh: Mesh,
    step: Step,
    exec: Box<dyn Executor>,
    strategy: SyncStrategy,
}

impl Simulation {
    /// Build a simulation; `strategy` should normally be
    /// [`SyncStrategy::for_backend`] of the executor's kind.
    pub fn new(
        mesh: Mesh,
        consts: &FlowConstants,
        exec: Box<dyn Executor>,
        strategy: SyncStrategy,
    ) -> Simulation {
        let step = AirfoilLoops::new(&mesh, consts).step();
        Simulation {
            mesh,
            step,
            exec,
            strategy,
        }
    }

    /// The mesh (for state inspection after a run).
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The executor in use.
    pub fn executor(&self) -> &dyn Executor {
        self.exec.as_ref()
    }

    /// March `niter` iterations; returns `(iteration, sqrt(rms/ncells))`
    /// reports every `report_every` iterations (and always for the final
    /// iteration).
    pub fn run(&self, niter: usize, report_every: usize) -> Vec<(usize, f64)> {
        let reports = self
            .march(self.exec.as_ref(), self.strategy, niter, report_every)
            .unwrap_or_else(|e| e.rethrow());
        self.exec.fence();
        reports
    }

    /// [`Simulation::run`] as a *submittable job*: every loop executes
    /// through the recovery [`Supervisor`] (rollback → retry → backend
    /// degradation → circuit breaker), and the first unrecovered failure —
    /// including a job-level cancellation or deadline armed on the
    /// supervisor's runtime token — surfaces as a typed [`LoopError`]
    /// instead of a panic. Synchronization is blocking, so the reports are
    /// bit-identical to [`SyncStrategy::Blocking`] on any backend.
    pub fn run_supervised(
        &self,
        sup: &Supervisor,
        niter: usize,
        report_every: usize,
    ) -> Result<Vec<(usize, f64)>, LoopError> {
        self.march(sup, SyncStrategy::Blocking, niter, report_every)
    }

    /// The time march: one [`run_step`] per iteration, whose results are the
    /// two stages' `update` handles. A failure to issue is returned; a late
    /// failure of an asynchronous executor panics at the report's `get` (a
    /// supervisor's handles are always complete).
    fn march(
        &self,
        exec: &dyn Executor,
        mode: SyncStrategy,
        niter: usize,
        report_every: usize,
    ) -> Result<Vec<(usize, f64)>, LoopError> {
        let ncells = self.mesh.ncells() as f64;
        let mut reports = Vec::new();
        // Per-iteration update handles awaiting RMS resolution (dataflow
        // defers these to report points).
        let mut pending: Vec<(usize, LoopHandle, LoopHandle)> = Vec::new();
        let mut results = Vec::with_capacity(2);

        for iter in 1..=niter {
            run_step(exec, &self.step, mode, &mut results)?;
            let h2 = results.pop().expect("the second stage's RMS");
            let h1 = results.pop().expect("the first stage's RMS");
            pending.push((iter, h1, h2));

            let report_now = iter % report_every.max(1) == 0 || iter == niter;
            if report_now {
                for (it, h1, h2) in pending.drain(..) {
                    let rms = h1.get()[0] + h2.get()[0];
                    if it % report_every.max(1) == 0 || it == niter {
                        reports.push((it, (rms / ncells).sqrt()));
                    }
                }
            }
        }
        Ok(reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::MeshBuilder;
    use op2_hpx::{make_executor, BackendKind, Op2Runtime};
    use std::sync::Arc;

    fn simulation(kind: BackendKind, pulse: bool) -> Simulation {
        let consts = FlowConstants::default();
        let mesh = MeshBuilder::channel(24, 12).build(&consts);
        if pulse {
            mesh.add_pulse(1.0, 0.5, 0.25, 0.2, &consts);
        }
        let rt = Arc::new(Op2Runtime::new(2, 64));
        let exec = make_executor(kind, rt);
        Simulation::new(mesh, &consts, exec, SyncStrategy::for_backend(kind))
    }

    #[test]
    fn free_stream_is_preserved() {
        let sim = simulation(BackendKind::Serial, false);
        let reports = sim.run(5, 1);
        assert_eq!(reports.len(), 5);
        for (iter, rms) in reports {
            assert!(
                rms < 1e-12,
                "free stream not preserved at iter {iter}: rms = {rms:e}"
            );
        }
        // And the state is still (bit-for-bit close to) qinf.
        let consts = FlowConstants::default();
        let q = sim.mesh().p_q.to_vec();
        for cell in q.chunks(4) {
            for n in 0..4 {
                assert!((cell[n] - consts.qinf[n]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn pulse_produces_activity_then_decays() {
        let sim = simulation(BackendKind::Serial, true);
        let reports = sim.run(60, 10);
        let first = reports.first().unwrap().1;
        let last = reports.last().unwrap().1;
        assert!(first > 1e-6, "pulse should create residual activity");
        assert!(last < first, "march should damp the pulse: {first:e} → {last:e}");
        assert!(last.is_finite());
    }

    #[test]
    fn all_backends_bitwise_identical_rms() {
        let reference: Vec<(usize, f64)> = simulation(BackendKind::Serial, true).run(8, 2);
        for kind in [
            BackendKind::ForkJoin,
            BackendKind::ForEachAuto,
            BackendKind::ForEachStatic(4),
            BackendKind::Async,
            BackendKind::Dataflow,
        ] {
            let got = simulation(kind, true).run(8, 2);
            assert_eq!(got.len(), reference.len(), "{kind}");
            for ((i1, r1), (i2, r2)) in reference.iter().zip(&got) {
                assert_eq!(i1, i2);
                assert_eq!(
                    r1.to_bits(),
                    r2.to_bits(),
                    "rms diverged for {kind} at iter {i1}: {r1:e} vs {r2:e}"
                );
            }
        }
    }

    /// The RCM pass is a pure relabelling: marching the renumbered mesh and
    /// mapping the state back through the inverse permutation reproduces the
    /// original march to rounding (summation orders change, bits may not).
    #[test]
    fn renumbered_march_matches_original_within_tolerance() {
        use crate::mesh::MeshOptions;
        let consts = FlowConstants::default();
        let run = |opts: MeshOptions| {
            let mesh = MeshBuilder::channel(20, 10).build_with(&consts, &opts);
            mesh.add_pulse(1.0, 0.5, 0.25, 0.2, &consts);
            let rt = Arc::new(Op2Runtime::new(2, 64));
            let exec = make_executor(BackendKind::Serial, rt);
            let sim = Simulation::new(mesh, &consts, exec, SyncStrategy::Blocking);
            sim.run(10, 5);
            sim.mesh().unrenumbered_q()
        };
        let reference = run(MeshOptions::default());
        let renumbered = run(MeshOptions {
            renumber: true,
            ..Default::default()
        });
        assert_eq!(reference.len(), renumbered.len());
        for (i, (a, b)) in reference.iter().zip(&renumbered).enumerate() {
            assert!(
                (a - b).abs() <= 1e-12 * a.abs().max(1.0),
                "component {i}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn final_state_identical_across_backends() {
        let runf = |kind| {
            let sim = simulation(kind, true);
            sim.run(6, 3);
            sim.mesh()
                .p_q
                .to_vec()
                .into_iter()
                .map(f64::to_bits)
                .collect::<Vec<_>>()
        };
        let reference = runf(BackendKind::Serial);
        for kind in [BackendKind::ForkJoin, BackendKind::Async, BackendKind::Dataflow] {
            assert_eq!(runf(kind), reference, "{kind}");
        }
    }
}
