//! The distributed shallow-water march — the second application on the
//! march engine, and the proof that the halo machinery is app-agnostic.
//!
//! The protocol — everything that touches the fabric, the store or
//! [`DistOptions`] — is the engine's and is described once, in its module
//! docs (`march.rs`). Shallow-water supplies only its hooks:
//!
//! * 3 state components (`w`), no auxiliary array, one exchange stage per
//!   adaptive step, tags 500/600 (distinct from Airfoil's so one process
//!   could run both marches);
//! * declared per rank: the slice's tables and the engine's arrays, which
//!   its kernel glue reads and writes (not yet the app's own loops), owned
//!   inverse cell areas and the global `min_len`;
//! * `begin_iter` — save owned `w` and fold the local CFL maximum
//!   (`wave_speed`); the engine max-reduces it and `step_scale` turns the
//!   global maximum into `dt = CFL · min_len / smax` (max is order-free, so
//!   `dt` is bitwise the single-node value on any rank count);
//! * `interior` / `boundary` / `group` — Rusanov `flux` / `bflux` into `res`
//!   or the group's scratch (no redundant per-cell halo compute);
//! * `update` — `update` over owned cells with `dt / area`.

use std::ops::Range;

use op2_airfoil::mesh::MeshData;
use op2_core::Dat;
use op2_swe::kernels;

use crate::checkpoint::CkptStats;
use crate::exec::{two_cells_mut, xs, DistError, DistOptions, Recovery};
use crate::fault::FaultReport;
use crate::march::{march, Arrays, DistApp, MarchOut};
use crate::partition::{HaloGroup, LocalMesh, Partition};

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
    march(&Swe { g, cfl }, data, w0, part, steps, report_every, opts, false).map(SweDistReport::from)
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
    march(&Swe { g, cfl }, data, w0, part, steps, report_every, opts, true).map(SweDistReport::from)
}

/// Shallow-water on the march engine (hooks listed in the module docs).
struct Swe {
    g: f64,
    cfl: f64,
}

/// One rank's shallow-water: its slice's tables, the shared coordinates,
/// the arrays it reads and writes, and its geometry.
struct SweRank {
    tables: MeshData,
    coords: Dat<f64>,
    w: Dat<f64>,
    wold: Dat<f64>,
    res: Dat<f64>,
    nowned: usize,
    /// `1 / area` of each owned cell.
    inv_area: Vec<f64>,
    /// Square root of the smallest cell area of the *global* mesh — every
    /// rank derives it identically (min is order-free).
    min_len: f64,
}

/// Shoelace area of global cell `c`.
fn cell_area(data: &MeshData, c: usize) -> f64 {
    let mut a = 0.0;
    for k in 0..4 {
        let i = data.cell_nodes[4 * c + k] as usize;
        let j = data.cell_nodes[4 * c + (k + 1) % 4] as usize;
        a += data.coords[2 * i] * data.coords[2 * j + 1] - data.coords[2 * j] * data.coords[2 * i + 1];
    }
    a / 2.0
}

impl Swe {
    /// Rusanov `flux` for local edge `e`, accumulating its two cells'
    /// residuals into cells `s1`/`s2` of `into` (`res`, or a group's scratch).
    #[inline]
    fn flux_edge(&self, r: &SweRank, x: &[f64], w: &[f64], e: usize, into: &mut [f64], (s1, s2): (u32, u32)) {
        let t = &r.tables;
        let (c1, c2) = (t.edge_cells[2 * e] as usize, t.edge_cells[2 * e + 1] as usize);
        let (r1, r2) = two_cells_mut::<3>(into, s1 as usize, s2 as usize);
        kernels::flux(
            xs(x, t.edge_nodes[2 * e]),
            xs(x, t.edge_nodes[2 * e + 1]),
            &w[3 * c1..3 * c1 + 3],
            &w[3 * c2..3 * c2 + 3],
            r1,
            r2,
            self.g,
        );
    }
}

impl DistApp for Swe {
    const COMP: usize = 3;
    const STAGES: usize = 1;
    const TAG_FORWARD: u64 = 500;
    const TAG_REVERSE: u64 = 600;
    type Rank = SweRank;

    fn declare(
        &self,
        data: &MeshData,
        local: &LocalMesh,
        tables: MeshData,
        coords: &Dat<f64>,
        arrays: &Arrays,
    ) -> SweRank {
        let min_area = (0..data.ncells()).fold(f64::INFINITY, |m, c| m.min(cell_area(data, c)));
        let inv_area = local.cell_l2g[..local.nowned]
            .iter()
            .map(|&c| 1.0 / cell_area(data, c as usize))
            .collect();
        SweRank {
            tables,
            coords: coords.clone(),
            w: arrays.state.clone(),
            wold: arrays.old.clone(),
            res: arrays.res.clone(),
            nowned: local.nowned,
            inv_area,
            min_len: min_area.sqrt(),
        }
    }

    fn begin_iter(&self, r: &SweRank) -> Option<f64> {
        let (w, mut wold) = (r.w.data(), r.wold.data_mut());
        let mut smax = f64::NEG_INFINITY;
        for c in 0..r.nowned {
            wold[3 * c..3 * c + 3].copy_from_slice(&w[3 * c..3 * c + 3]);
            smax = smax.max(kernels::wave_speed(&w[3 * c..3 * c + 3], self.g));
        }
        Some(smax)
    }

    fn step_scale(&self, r: &SweRank, smax: f64) -> f64 {
        self.cfl * r.min_len / smax.max(1e-12)
    }

    fn interior(&self, r: &SweRank, edges: Range<usize>) {
        let (x, w, mut res) = (r.coords.data(), r.w.data(), r.res.data_mut());
        let cells = &r.tables.edge_cells;
        for e in edges {
            self.flux_edge(r, &x, &w, e, &mut res, (cells[2 * e], cells[2 * e + 1]));
        }
    }

    fn boundary(&self, r: &SweRank) {
        let (x, w, mut res) = (r.coords.data(), r.w.data(), r.res.data_mut());
        let t = &r.tables;
        for (be, &bound) in t.bound.iter().enumerate() {
            let c1 = t.bedge_cells[be] as usize;
            kernels::bflux(
                xs(&x, t.bedge_nodes[2 * be]),
                xs(&x, t.bedge_nodes[2 * be + 1]),
                &w[3 * c1..3 * c1 + 3],
                &mut res[3 * c1..3 * c1 + 3],
                bound,
                self.g,
            );
        }
    }

    fn group(&self, r: &SweRank, group: &HaloGroup, scratch: &mut [f64]) {
        let (x, w) = (r.coords.data(), r.w.data());
        for (&e, &at) in group.edges.iter().zip(&group.slots) {
            self.flux_edge(r, &x, &w, e as usize, scratch, at);
        }
    }

    fn update(&self, r: &SweRank, dt: f64) -> f64 {
        let (wold, mut w, mut res) = (r.wold.data(), r.w.data_mut(), r.res.data_mut());
        let mut rms = 0.0;
        for c in 0..r.nowned {
            kernels::update(
                &wold[3 * c..3 * c + 3],
                &mut w[3 * c..3 * c + 3],
                &mut res[3 * c..3 * c + 3],
                dt * r.inv_area[c],
                &mut rms,
            );
        }
        rms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::JitterSpec;
    use crate::fault::FaultPlan;
    use op2_airfoil::MeshBuilder;
    use op2_swe::{SweApp, SweConfig};

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
        // Mass = Σ h·area; areas from the shoelace formula as the driver.
        let mass = |w: &[f64]| -> f64 {
            let mut total = 0.0;
            for c in 0..imax * jmax {
                let mut a = 0.0;
                for k in 0..4 {
                    let i = data.cell_nodes[4 * c + k] as usize;
                    let j = data.cell_nodes[4 * c + (k + 1) % 4] as usize;
                    a += data.coords[2 * i] * data.coords[2 * j + 1]
                        - data.coords[2 * j] * data.coords[2 * i + 1];
                }
                total += w[3 * c] * (a / 2.0);
            }
            total
        };
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
