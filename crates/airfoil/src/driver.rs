//! The Airfoil time-march driver.
//!
//! Reproduces `airfoil.cpp`: each iteration saves the state and performs two
//! explicit stages of `adt_calc → res_calc → bres_calc → update`, reporting
//! `sqrt(rms / ncells)` every `report_every` iterations.
//!
//! Three synchronization strategies mirror the paper's three drivers:
//!
//! * [`SyncStrategy::Blocking`] — the unchanged OP2 program: every
//!   `op_par_loop` completes before the next is issued (OpenMP / `for_each`
//!   backends behave this way inherently).
//! * [`SyncStrategy::Fig10`] — the §III-A2 program: loops return futures and
//!   the driver places waits manually by data dependency, letting
//!   `save_soln` overlap the first stage (the paper's Fig. 10; we keep
//!   `res_calc`/`bres_calc` ordered so results stay bitwise-deterministic).
//! * [`SyncStrategy::Dataflow`] — the §III-B program: no waits at all; the
//!   dependency DAG orders everything and the driver only synchronizes when
//!   it *reads* the RMS at report points.

use op2_hpx::{BackendKind, Executor, LoopError, LoopHandle, Supervisor};

use crate::constants::FlowConstants;
use crate::loops::AirfoilLoops;
use crate::mesh::Mesh;

/// How the driver synchronizes between loops (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncStrategy {
    /// Wait for each loop before issuing the next.
    Blocking,
    /// Manual future placement per Fig. 10 (async backend).
    Fig10,
    /// No manual waits (dataflow backend).
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

/// A configured Airfoil simulation: mesh + loops + executor + strategy.
pub struct Simulation {
    mesh: Mesh,
    loops: AirfoilLoops,
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
        let loops = AirfoilLoops::new(&mesh, consts);
        Simulation {
            mesh,
            loops,
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
        let exec = self.exec.as_ref();
        let reports = self
            .march(niter, report_every, || match self.strategy {
                SyncStrategy::Blocking => self.iteration(exec, true),
                SyncStrategy::Fig10 => Ok(self.iteration_fig10()),
                SyncStrategy::Dataflow => self.iteration(exec, false),
            })
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
        self.march(niter, report_every, || self.iteration(sup, true))
    }

    /// The time march around one `iterate` call per iteration, which returns
    /// the two stages' `update` handles.
    fn march(
        &self,
        niter: usize,
        report_every: usize,
        iterate: impl Fn() -> Result<(LoopHandle, LoopHandle), LoopError>,
    ) -> Result<Vec<(usize, f64)>, LoopError> {
        let ncells = self.mesh.ncells() as f64;
        let mut reports = Vec::new();
        // Per-iteration update handles awaiting RMS resolution (dataflow
        // defers these to report points).
        let mut pending: Vec<(usize, LoopHandle, LoopHandle)> = Vec::new();

        for iter in 1..=niter {
            let (h1, h2) = iterate()?;
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

    /// One iteration, `save → 2 × (adt, res, bres, update)`, issued on
    /// `exec`. With `wait_each` every loop completes before the next is
    /// issued (the unchanged OP2 program); without it nothing waits and the
    /// executor orders the loops from their declared access modes (paper
    /// §III-B, dataflow only). A failure to issue is returned; a late
    /// failure of an asynchronous executor panics at the wait or at the
    /// report's `get` (a supervisor's handles are always complete).
    fn iteration(
        &self,
        exec: &dyn Executor,
        wait_each: bool,
    ) -> Result<(LoopHandle, LoopHandle), LoopError> {
        let l = &self.loops;
        let issue = |loop_| -> Result<LoopHandle, LoopError> {
            let h = exec.try_execute(loop_)?;
            if wait_each {
                h.wait();
            }
            Ok(h)
        };
        issue(&l.save_soln)?;
        let stage = || {
            issue(&l.adt_calc)?;
            issue(&l.res_calc)?;
            issue(&l.bres_calc)?;
            issue(&l.update)
        };
        Ok((stage()?, stage()?))
    }

    /// One iteration with manual future placement (paper Fig. 10):
    /// `save_soln` overlaps the first stage's `adt/res/bres`.
    fn iteration_fig10(&self) -> (LoopHandle, LoopHandle) {
        let l = &self.loops;
        let h_save = self.exec.execute(&l.save_soln);
        let mut handles = Vec::with_capacity(2);
        for k in 0..2 {
            let h_adt = self.exec.execute(&l.adt_calc);
            h_adt.wait(); // res/bres read p_adt
            let h_res = self.exec.execute(&l.res_calc);
            h_res.wait(); // bres increments the same p_res (keep bitwise order)
            let h_bres = self.exec.execute(&l.bres_calc);
            h_bres.wait(); // update rewrites p_res
            if k == 0 {
                h_save.wait(); // update reads p_qold
            }
            let h_up = self.exec.execute(&l.update);
            h_up.wait(); // next adt_calc reads p_q
            handles.push(h_up);
        }
        let h2 = handles.pop().expect("two stages");
        let h1 = handles.pop().expect("two stages");
        (h1, h2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::MeshBuilder;
    use op2_hpx::{make_executor, Op2Runtime};
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
