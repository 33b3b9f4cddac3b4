//! The distributed shallow-water march — the second application on the
//! march engine, and the proof that the halo machinery is app-agnostic.
//!
//! The protocol — everything that touches the fabric, the store or
//! [`DistOptions`] — is the engine's and is described once, in its module
//! docs (`march.rs`). Each rank declares shallow water once per slice, as
//! [`op2_swe::SweApp::new`] does: [`SweLoops::new`] over the slice's
//! [`Topology`] (its tables over the shared coordinates, no Airfoil state)
//! and the engine's arrays, and [`SweLoops::flux_into`] once per halo group.
//! The hooks run those loops over windows of the slice
//! ([`op2_core::ParLoop::run_span`]), `swe_flux` four edges per instruction
//! where the host has AVX2:
//!
//! * 3 state components (`w`), no auxiliary array, one exchange stage per
//!   adaptive step, tags 500/600 (distinct from Airfoil's so one process
//!   could run both marches);
//! * `begin_iter` — `swe_save` over owned cells, then `swe_dt`'s local
//!   maximum wave speed; the engine max-reduces it and `step_scale` turns
//!   the global maximum into `dt = CFL · min_len / smax`, with `min_len`
//!   taken once per call from the global mesh (max and min are order-free,
//!   so `dt` is bitwise the single-node value on any rank count);
//! * `interior` / `boundary` — `swe_flux` over a window of the interior
//!   edges, `swe_bflux` over the boundary edges, into `res`;
//! * `group` — the group's own `swe_flux` into its scratch (no redundant
//!   per-cell halo compute);
//! * `update` — `swe_update` over owned cells, reading `dt` from its
//!   declared global.

use std::ops::Range;

use op2_airfoil::mesh::MeshData;
use op2_airfoil::Topology;
use op2_core::Dat;
use op2_swe::{cell_area, SweLoops};

use crate::checkpoint::CkptStats;
use crate::exec::{DistError, DistOptions, Recovery};
use crate::fault::FaultReport;
use crate::march::{group_targets, march, Arrays, DistApp, MarchOut, Rank};
use crate::partition::{HaloPlan, LocalMesh, Partition};

/// Outcome of a distributed shallow-water run.
#[derive(Debug, Clone)]
pub struct SweDistReport {
    /// `(step, dt, sqrt(rms/ncells))` at each report point. `dt` is
    /// bitwise-identical to the single-node march (max is order-free).
    pub reports: Vec<(usize, f64, f64)>,
    /// Final global state `w`, assembled in global cell order (3/cell).
    pub final_w: Vec<f64>,
    /// End-of-run fault/robustness counters (all zero for a clean run).
    pub faults: FaultReport,
    /// Checkpoint recoveries performed, in order.
    pub recoveries: Vec<Recovery>,
    /// Kernel-section rollbacks retried *locally* (summed over survivors) —
    /// failures masked without any fabric-level recovery.
    pub local_retries: usize,
    /// Order-free digest over every owned-cell post-exchange `res` of every
    /// step since the last recovery, combined across survivors — bulk and
    /// overlapped marches agree iff every intermediate residual is
    /// bit-identical. A test oracle: `Some` only when
    /// [`DistOptions::trajectory_digests`] asks for it.
    pub res_digest: Option<u64>,
    /// Step the run resumed from (`Some(k)` only for
    /// [`resume_swe_distributed_opts`]).
    pub resumed_from: Option<usize>,
    /// Durable checkpoint-log counters (all zero without a
    /// [`DistOptions::store_dir`]).
    pub ckpt: CkptStats,
}

impl From<MarchOut> for SweDistReport {
    fn from(out: MarchOut) -> SweDistReport {
        SweDistReport {
            reports: out.history,
            final_w: out.final_state,
            faults: out.faults,
            recoveries: out.recoveries,
            local_retries: out.local_retries,
            res_digest: out.digests.map(|d| d.res),
            resumed_from: out.resumed_from,
            ckpt: out.ckpt,
        }
    }
}

/// March `steps` adaptive shallow-water steps over `part` per
/// [`DistOptions`].
///
/// `w0` is the global initial state (`3 × ncells`); `g`/`cfl` mirror
/// [`op2_swe::SweConfig`]. Boundary condition codes come from `data.bound`
/// ([`op2_swe::kernels::SWE_WALL`] / [`op2_swe::kernels::SWE_OPEN`]).
///
/// # Errors
/// See [`DistError`]; a clean network never fails.
#[allow(clippy::too_many_arguments)]
pub fn run_swe_distributed_opts(
    data: &MeshData,
    g: f64,
    cfl: f64,
    w0: &[f64],
    part: &Partition,
    steps: usize,
    report_every: usize,
    opts: &DistOptions,
) -> Result<SweDistReport, DistError> {
    march(&Swe::new(data, g, cfl), data, w0, part, steps, report_every, opts, false).map(SweDistReport::from)
}

/// Restart a shallow-water march whose process died: reopen the durable
/// store at [`DistOptions::store_dir`], restore the newest verified
/// consistent boundary `k`, and march steps `k+1..=steps`. Falls back to
/// `w0` (cold start) if no consistent boundary survived.
///
/// # Errors
/// See [`DistError`] ([`DistError::Config`] without a `store_dir`).
#[allow(clippy::too_many_arguments)]
pub fn resume_swe_distributed_opts(
    data: &MeshData,
    g: f64,
    cfl: f64,
    w0: &[f64],
    part: &Partition,
    steps: usize,
    report_every: usize,
    opts: &DistOptions,
) -> Result<SweDistReport, DistError> {
    march(&Swe::new(data, g, cfl), data, w0, part, steps, report_every, opts, true).map(SweDistReport::from)
}

/// Shallow-water on the march engine (hooks listed in the module docs).
pub(crate) struct Swe {
    g: f64,
    cfl: f64,
    /// Square root of the smallest cell area of the global mesh.
    min_len: f64,
}

impl Swe {
    pub(crate) fn new(data: &MeshData, g: f64, cfl: f64) -> Swe {
        let areas = data.cell_nodes.chunks(4).map(|c| cell_area(&data.coords, c));
        let min_len = areas.fold(f64::INFINITY, f64::min).sqrt();
        Swe { g, cfl, min_len }
    }
}

impl DistApp for Swe {
    const COMP: usize = 3;
    const STAGES: usize = 1;
    const TAG_FORWARD: u64 = 500;
    const TAG_REVERSE: u64 = 600;
    type Loops = SweLoops;

    fn declare(
        &self,
        local: &LocalMesh,
        tables: MeshData,
        coords: &Dat<f64>,
        arrays: &Arrays,
        plan: &HaloPlan,
        scratch: &[Dat<f64>],
    ) -> Rank<SweLoops> {
        let t = Topology::over(coords, arrays.state.set(), tables);
        let inv_area: Vec<f64> = {
            let x = coords.data();
            t.pcell.table().chunks(4).map(|c| 1.0 / cell_area(&x, c)).collect()
        };
        let inv_area = Dat::new("inv_area", &t.cells, 1, inv_area);
        let (w, res) = (&arrays.state, &arrays.res);
        let loops = SweLoops::new(&t, [w, &arrays.old, res, &inv_area], self.g);
        let groups = group_targets(&t, plan, scratch)
            .map(|(edges, (sc, slots))| SweLoops::flux_into(&edges, w, (sc, &slots), self.g))
            .collect();
        Rank { loops, groups, nowned: local.nowned }
    }

    fn begin_iter(&self, r: &Rank<SweLoops>) -> Option<f64> {
        r.loops.save.run_span(0..r.nowned, &mut []);
        let mut smax = [f64::NEG_INFINITY];
        r.loops.dt_calc.run_span(0..r.nowned, &mut smax);
        Some(smax[0])
    }

    fn step_scale(&self, smax: f64) -> f64 {
        self.cfl * self.min_len / smax.max(1e-12)
    }

    fn interior(&self, r: &Rank<SweLoops>, edges: Range<usize>) {
        r.loops.flux.run_span(edges, &mut []);
    }

    fn boundary(&self, r: &Rank<SweLoops>) {
        r.loops.bflux.run_span(0..r.loops.bflux.set().size(), &mut []);
    }

    fn update(&self, r: &Rank<SweLoops>, dt: f64) -> f64 {
        r.loops.dt.set(dt);
        let mut rms = [0.0];
        r.loops.update.run_span(0..r.nowned, &mut rms);
        rms[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::JitterSpec;
    use crate::fault::FaultPlan;
    use op2_airfoil::MeshBuilder;
    use op2_swe::{kernels, SweApp, SweConfig};

    /// Channel mesh data with every boundary reflective (closed basin).
    fn walled_data(imax: usize, jmax: usize) -> MeshData {
        let mut data = MeshBuilder::channel(imax, jmax).data();
        data.bound.iter_mut().for_each(|b| *b = kernels::SWE_WALL);
        data
    }

    /// Serial oracle: the real SweApp in *natural* iteration order (the
    /// order the 1-rank distributed march uses), dam-break IC.
    fn serial_oracle(
        imax: usize,
        jmax: usize,
        steps: usize,
        report_every: usize,
    ) -> (Vec<f64>, Vec<f64>, Vec<(usize, f64, f64)>) {
        let app = SweApp::new(SweConfig { imax, jmax, ..SweConfig::default() });
        app.dam_break(2.0, 2.0, 1.0);
        let w0 = app.w.to_vec();
        let reports = app.run_natural(steps, report_every);
        (w0, app.w.to_vec(), reports)
    }

    #[test]
    fn swe_one_rank_matches_serial_bitwise() {
        let (imax, jmax, steps) = (24, 12, 6);
        let (w0, w_ref, rep_ref) = serial_oracle(imax, jmax, steps, 1);
        let data = walled_data(imax, jmax);
        let dist = run_swe_distributed_opts(
            &data,
            9.81,
            0.4,
            &w0,
            &Partition::strips(imax * jmax, 1),
            steps,
            1,
            &DistOptions::default(),
        )
        .unwrap();
        assert_eq!(
            dist.final_w.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            w_ref.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(dist.reports.len(), rep_ref.len());
        for ((s, dt, rms), (s2, dt2, rms2)) in dist.reports.iter().zip(&rep_ref) {
            assert_eq!(s, s2);
            assert_eq!(dt.to_bits(), dt2.to_bits());
            assert_eq!(rms.to_bits(), rms2.to_bits());
        }
    }

    #[test]
    fn swe_multi_rank_matches_serial_within_rounding() {
        let (imax, jmax, steps) = (24, 12, 8);
        let (w0, w_ref, rep_ref) = serial_oracle(imax, jmax, steps, 1);
        let data = walled_data(imax, jmax);
        for nranks in [2, 3, 5] {
            let dist = run_swe_distributed_opts(
            &data,
            9.81,
            0.4,
            &w0,
            &Partition::strips(imax * jmax, nranks),
            steps,
            1,
            &DistOptions::default(),
        )
        .unwrap();
            for (a, b) in dist.final_w.iter().zip(&w_ref) {
                assert!(
                    (a - b).abs() <= 1e-11 * b.abs().max(1.0),
                    "{nranks} ranks: {a} vs {b}"
                );
            }
            // dt flows from an order-free max: bitwise even across ranks.
            for ((_, dt, rms), (_, dt2, rms2)) in dist.reports.iter().zip(&rep_ref) {
                assert_eq!(dt.to_bits(), dt2.to_bits(), "{nranks} ranks dt");
                assert!((rms - rms2).abs() <= 1e-11, "{nranks} ranks rms");
            }
        }
    }

    #[test]
    fn swe_overlapped_march_matches_bulk_bitwise() {
        let (imax, jmax, steps) = (24, 12, 6);
        let (w0, _, _) = serial_oracle(imax, jmax, steps, 1);
        let data = walled_data(imax, jmax);
        let part = Partition::strips(imax * jmax, 3);
        let digests = DistOptions { trajectory_digests: true, ..DistOptions::default() };
        let bulk = run_swe_distributed_opts(&data, 9.81, 0.4, &w0, &part, steps, 1, &digests)
            .unwrap();
        assert!(bulk.res_digest.is_some(), "digests were asked for");
        let opts = DistOptions {
            overlap: true,
            jitter: Some(JitterSpec { seed: 7, max_us: 80 }),
            ..digests
        };
        let over = run_swe_distributed_opts(&data, 9.81, 0.4, &w0, &part, steps, 1, &opts).unwrap();
        assert_eq!(
            over.final_w.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            bulk.final_w.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(over.reports.len(), bulk.reports.len());
        for ((s, dt, rms), (s2, dt2, rms2)) in over.reports.iter().zip(&bulk.reports) {
            assert_eq!(s, s2);
            assert_eq!(dt.to_bits(), dt2.to_bits());
            assert_eq!(rms.to_bits(), rms2.to_bits());
        }
        assert_eq!(over.res_digest, bulk.res_digest, "res trajectory diverged");
    }

    #[test]
    fn swe_message_faults_are_masked_bit_identically() {
        let (imax, jmax, steps) = (24, 12, 5);
        let (w0, _, _) = serial_oracle(imax, jmax, steps, 1);
        let data = walled_data(imax, jmax);
        let part = Partition::strips(imax * jmax, 4);
        let digests = DistOptions { trajectory_digests: true, ..DistOptions::default() };
        let clean = run_swe_distributed_opts(&data, 9.81, 0.4, &w0, &part, steps, 1, &digests)
            .unwrap();
        assert!(clean.res_digest.is_some(), "digests were asked for");
        for overlap in [false, true] {
            let opts = DistOptions {
                plan: Some(FaultPlan::drop_first(3)),
                overlap,
                ..digests.clone()
            };
            let faulty =
                run_swe_distributed_opts(&data, 9.81, 0.4, &w0, &part, steps, 1, &opts).unwrap();
            assert_eq!(
                faulty.final_w.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                clean.final_w.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "overlap={overlap}"
            );
            assert_eq!(faulty.res_digest, clean.res_digest, "overlap={overlap}");
            assert!(faulty.faults.dropped > 0);
        }
    }

    #[test]
    fn swe_closed_basin_conserves_mass_distributed() {
        let (imax, jmax, steps) = (24, 12, 10);
        let (w0, _, _) = serial_oracle(imax, jmax, steps, 1);
        let data = walled_data(imax, jmax);
        // Mass = Σ h·area, with the app's shoelace areas.
        let areas: Vec<f64> = data.cell_nodes.chunks(4).map(|c| cell_area(&data.coords, c)).collect();
        let mass = |w: &[f64]| -> f64 { areas.iter().enumerate().map(|(c, a)| w[3 * c] * a).sum() };
        let mass0 = mass(&w0);
        let opts = DistOptions { overlap: true, ..DistOptions::default() };
        let part = Partition::strips(imax * jmax, 4);
        let dist =
            run_swe_distributed_opts(&data, 9.81, 0.4, &w0, &part, steps, 5, &opts).unwrap();
        let mass1 = mass(&dist.final_w);
        assert!(
            (mass1 - mass0).abs() < 1e-9 * mass0.abs(),
            "mass drifted: {mass0} -> {mass1}"
        );
        assert!(dist.reports.iter().all(|(_, dt, rms)| *dt > 0.0 && rms.is_finite()));
    }
}
