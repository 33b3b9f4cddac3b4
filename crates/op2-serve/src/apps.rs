//! Ready-made job programs for the two bundled applications, plus a solo
//! runner that serves as the bitwise oracle for bulkhead tests.
//!
//! Both programs build their mesh *inside* the job (meshes are per-job
//! state — the bulkhead), run the supervised march, and return the report
//! residuals as [`JobOutput`]. Because every backend accumulates in plan
//! order, a job's output is a pure function of its parameters — the same
//! program run solo or on a contended multi-tenant service yields the same
//! digest bit for bit. Plan construction, by contrast, is shared: two jobs
//! over the same `(imax, jmax)` channel have identical mesh topology, so
//! the service's content-addressed plan cache colors each loop shape once.

use std::sync::Arc;

use op2_airfoil::{FlowConstants, MeshBuilder, Simulation, SyncStrategy};
use op2_hpx::{make_executor, BackendKind, Op2Runtime, RetryPolicy};
use op2_swe::{SweApp, SweConfig};

use crate::job::{JobCtx, JobError, JobOutput, Program};

/// Airfoil channel-mesh march: `imax × jmax` cells with the standard
/// pulse, `niter` iterations, reporting every iteration.
pub fn airfoil_program(imax: usize, jmax: usize, niter: usize) -> Program {
    Box::new(move |ctx: &JobCtx| {
        let consts = FlowConstants::default();
        let mesh = MeshBuilder::channel(imax, jmax).build(&consts);
        mesh.add_pulse(1.0, 0.5, 0.25, 0.2, &consts);
        // The Simulation owns an executor for its unsupervised entry
        // points; run_supervised executes through the job's supervisor
        // instead, so a serial placeholder is fine here.
        let exec = make_executor(BackendKind::Serial, Arc::clone(ctx.runtime()));
        let sim = Simulation::new(mesh, &consts, exec, SyncStrategy::Blocking);
        let reports = sim.run_supervised(ctx.supervisor(), niter, 1)?;
        Ok(JobOutput::from_values(
            reports.into_iter().map(|(_, rms)| rms).collect(),
        ))
    })
}

/// Shallow-water dam break on a closed `imax × jmax` basin, `steps` steps,
/// reporting every step. Values are `[dt, rms]` pairs per report.
pub fn swe_program(imax: usize, jmax: usize, steps: usize) -> Program {
    Box::new(move |ctx: &JobCtx| {
        let app = SweApp::new(SweConfig {
            imax,
            jmax,
            ..SweConfig::default()
        });
        app.dam_break(0.4, 2.0, 1.0);
        let reports = app.run_supervised(ctx.supervisor(), steps, 1)?;
        Ok(JobOutput::from_values(
            reports
                .into_iter()
                .flat_map(|(_, dt, rms)| [dt, rms])
                .collect(),
        ))
    })
}

/// Run `program` outside any service, on a fresh runtime — the reference
/// the bulkhead tests compare service-run digests against.
pub fn run_solo(
    program: Program,
    threads: usize,
    part_size: usize,
    backend: BackendKind,
    retry: RetryPolicy,
) -> Result<JobOutput, JobError> {
    let rt = Arc::new(Op2Runtime::new(threads, part_size));
    let ctx = JobCtx::standalone(rt, backend, retry);
    program(&ctx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn airfoil_solo_is_reproducible() {
        let a = run_solo(
            airfoil_program(12, 6, 3),
            2,
            64,
            BackendKind::ForkJoin,
            RetryPolicy::default(),
        )
        .expect("solo airfoil");
        let b = run_solo(
            airfoil_program(12, 6, 3),
            2,
            64,
            BackendKind::Dataflow,
            RetryPolicy::default(),
        )
        .expect("solo airfoil");
        assert_eq!(a.digest, b.digest, "backends must agree bitwise");
        assert_eq!(a.values.len(), 3);
    }

    #[test]
    fn swe_solo_is_reproducible() {
        let a = run_solo(
            swe_program(16, 8, 3),
            2,
            64,
            BackendKind::ForkJoin,
            RetryPolicy::default(),
        )
        .expect("solo swe");
        assert_eq!(a.values.len(), 6);
        assert!(a.values.iter().all(|v| v.is_finite()));
    }
}
