//! The shallow-water application: declarations, loops, and the adaptive
//! time-march driver.

use op2_airfoil::mesh::{Mesh, MeshOptions, Topology};
use op2_airfoil::{FlowConstants, MeshBuilder};
use op2_core::typed::{At, Inc, Read, Via};
use op2_core::{Dat, Global, Layout, Map, ParLoop, Real, Step, WideKernel};
use op2_hpx::{run_step, Executor, LoopError, NaturalExecutor, Supervisor, SyncStrategy};

use crate::kernels;

/// Configuration of a shallow-water run.
#[derive(Debug, Clone, Copy)]
pub struct SweConfig {
    /// Gravity.
    pub g: f64,
    /// CFL number for the adaptive step.
    pub cfl: f64,
    /// Cells in x.
    pub imax: usize,
    /// Cells in y.
    pub jmax: usize,
    /// Replace the channel's open left/right boundaries with reflective
    /// walls (closed basin — exact mass conservation).
    pub all_walls: bool,
    /// Data layout for all `f64` dats (mesh coordinates and flow state).
    pub layout: Layout,
    /// Run the RCM renumbering pass on the mesh before declaring sets.
    pub renumber: bool,
}

impl Default for SweConfig {
    fn default() -> Self {
        SweConfig {
            g: 9.81,
            cfl: 0.4,
            imax: 64,
            jmax: 32,
            all_walls: true,
            layout: Layout::Aos,
            renumber: false,
        }
    }
}

/// The assembled application: mesh, state dats, and the five loops.
pub struct SweApp {
    /// The underlying unstructured mesh (solver-agnostic tables).
    pub mesh: Mesh,
    /// Cell state `(h, hu, hv)`.
    pub w: Dat<f64>,
    /// Saved state.
    pub wold: Dat<f64>,
    /// Residual.
    pub res: Dat<f64>,
    /// Per-cell inverse area.
    pub inv_area: Dat<f64>,
    /// `wold ← w`.
    pub save: ParLoop,
    /// Global max wave speed (CFL).
    pub dt_calc: ParLoop,
    /// Interior Rusanov fluxes.
    pub flux: ParLoop,
    /// Boundary fluxes.
    pub bflux: ParLoop,
    /// Explicit update + RMS.
    pub update: ParLoop,
    /// The adaptive time step: set from `dt_calc`'s reduction, read by
    /// `update`.
    dt: Global,
    /// See [`SweApp::step`].
    step: Step,
    g: f64,
}

impl SweApp {
    /// Build the application on a channel basin.
    pub fn new(cfg: SweConfig) -> SweApp {
        // The mesh module is solver-agnostic; FlowConstants only seeds the
        // (unused) airfoil state dats.
        let opts = MeshOptions {
            layout: cfg.layout,
            renumber: cfg.renumber,
        };
        let mesh = MeshBuilder::channel(cfg.imax, cfg.jmax)
            .build_with(&FlowConstants::default(), &opts);
        if cfg.all_walls {
            let mut bound = mesh.p_bound.data_mut();
            bound.iter_mut().for_each(|b| *b = kernels::SWE_WALL);
        }

        let ncells = mesh.ncells();
        // Canonical AoS order keeps the areas independent of the layout.
        let coords = mesh.p_x.to_aos_vec();
        let areas: Vec<f64> = mesh.pcell.table().chunks(4).map(|c| cell_area(&coords, c)).collect();
        drop(coords);
        let min_len = areas.iter().fold(f64::INFINITY, |m, &a| m.min(a)).sqrt();

        let w = Dat::with_layout(
            "w",
            &mesh.cells,
            3,
            cfg.layout,
            (0..ncells).flat_map(|_| [1.0, 0.0, 0.0]).collect(),
        );
        let wold = Dat::filled_with_layout("wold", &mesh.cells, 3, cfg.layout, 0.0);
        let res = Dat::filled_with_layout("res", &mesh.cells, 3, cfg.layout, 0.0);
        let inv_area = Dat::with_layout(
            "inv_area",
            &mesh.cells,
            1,
            cfg.layout,
            areas.iter().map(|a| 1.0 / a).collect(),
        );
        let SweLoops { save, dt_calc, flux, bflux, update, dt } =
            SweLoops::new(&mesh, [&w, &wold, &res, &inv_area], cfg.g);

        let cfl = cfg.cfl;
        let step = Step::default()
            .then(&save)
            .then(&dt_calc)
            .set(&dt, move |smax| cfl * min_len / smax[0].max(1e-12))
            .then(&flux)
            .then(&bflux)
            .then(&update);

        SweApp {
            mesh,
            w,
            wold,
            res,
            inv_area,
            save,
            dt_calc,
            flux,
            bflux,
            update,
            dt,
            step,
            g: cfg.g,
        }
    }

    /// A dam-break initial condition: depth `h_hi` for `x < x_split`, `h_lo`
    /// beyond, fluid at rest.
    pub fn dam_break(&self, x_split: f64, h_hi: f64, h_lo: f64) {
        // Canonical AoS order — layout independent.
        let coords = self.mesh.p_x.to_aos_vec();
        let mut w = self.w.to_aos_vec();
        for c in 0..self.mesh.ncells() {
            let mut x = 0.0;
            for k in 0..4 {
                x += coords[2 * self.mesh.pcell.at(c, k)] / 4.0;
            }
            let h = if x < x_split { h_hi } else { h_lo };
            w[3 * c] = h;
            w[3 * c + 1] = 0.0;
            w[3 * c + 2] = 0.0;
        }
        self.w.write_aos(&w);
    }

    /// Total mass `Σ h·area` (exact conservation oracle for closed basins).
    pub fn total_mass(&self) -> f64 {
        let w = self.w.to_aos_vec();
        let ia = self.inv_area.to_aos_vec();
        (0..self.mesh.ncells())
            .map(|c| w[3 * c] / ia[c])
            .sum()
    }

    /// The cell state in canonical AoS order and — when the mesh was
    /// renumbered — mapped back to the *original* cell numbering, so runs
    /// with different layout/renumbering options compare element-for-element.
    pub fn unrenumbered_w(&self) -> Vec<f64> {
        let w = self.w.to_aos_vec();
        match &self.mesh.renumbering {
            Some(ren) => ren.cells.unpermute_rows(&w, 3),
            None => w,
        }
    }

    /// March `steps` adaptive steps on `exec`; returns
    /// `(step, dt, sqrt(rms/ncells))` reports.
    ///
    /// The adaptive `dt` is a declared global: host code sets it from the
    /// `dt_calc` max-reduction, and `update` reads it as an argument, so the
    /// dependency rule orders `update` after `dt_calc` like any dat. Every
    /// loop is waited on, whatever the backend.
    pub fn run(&self, exec: &dyn Executor, steps: usize, report_every: usize) -> Vec<(usize, f64, f64)> {
        let reports = self
            .march(exec, steps, report_every)
            .unwrap_or_else(|e| e.rethrow());
        exec.fence();
        reports
    }

    /// [`SweApp::run`] as a *submittable job*: every loop executes through
    /// the recovery [`Supervisor`] ladder, and the first unrecovered failure
    /// — including a job-level cancellation or deadline armed on the
    /// supervisor's runtime token — surfaces as a typed [`LoopError`]
    /// instead of a panic. Reports are bit-identical to [`SweApp::run`] on
    /// any backend.
    pub fn run_supervised(
        &self,
        sup: &Supervisor,
        steps: usize,
        report_every: usize,
    ) -> Result<Vec<(usize, f64, f64)>, LoopError> {
        self.march(sup, steps, report_every)
    }

    /// [`SweApp::run`] in single-threaded *natural* iteration order
    /// ([`NaturalExecutor`]): every loop visits its set in ascending index
    /// order, no coloring. This is the order the 1-rank distributed march
    /// uses, so it serves as the bitwise oracle for `op2-dist`'s
    /// shallow-water driver.
    pub fn run_natural(&self, steps: usize, report_every: usize) -> Vec<(usize, f64, f64)> {
        self.run(&NaturalExecutor, steps, report_every)
    }

    /// The adaptive march on `exec`: one blocking [`run_step`] per step,
    /// whose one result is `update`'s RMS.
    fn march(
        &self,
        exec: &dyn Executor,
        steps: usize,
        report_every: usize,
    ) -> Result<Vec<(usize, f64, f64)>, LoopError> {
        let ncells = self.mesh.ncells() as f64;
        let (mut reports, mut results) = (Vec::new(), Vec::with_capacity(1));
        for step in 1..=steps {
            run_step(exec, &self.step, SyncStrategy::Blocking, &mut results)?;
            let rms = results.pop().expect("update's RMS").try_get()?[0];
            if step % report_every.max(1) == 0 || step == steps {
                reports.push((step, self.dt.get(), (rms / ncells).sqrt()));
            }
        }
        Ok(reports)
    }

    /// One step: the five loops and the host code that sets `dt`.
    pub fn step(&self) -> &Step {
        &self.step
    }

    /// Gravity in use.
    pub fn gravity(&self) -> f64 {
        self.g
    }
}

/// The five shallow-water loops, declared once over a mesh topology and the
/// state: by [`SweApp::new`], and by every rank of a distributed run over its
/// slice.
pub struct SweLoops {
    /// `wold ← w`.
    pub save: ParLoop,
    /// Global max wave speed (CFL).
    pub dt_calc: ParLoop,
    /// Interior Rusanov fluxes.
    pub flux: ParLoop,
    /// Boundary fluxes.
    pub bflux: ParLoop,
    /// Explicit update + RMS.
    pub update: ParLoop,
    /// The adaptive time step `update` reads.
    pub dt: Global,
}

impl SweLoops {
    /// The loops over `t` and the dats `[w, wold, res, inv_area]` (3, 3, 3
    /// and 1 wide, over `t.cells`), with gravity `g`.
    pub fn new(t: &Topology, [w, wold, res, inv_area]: [&Dat<f64>; 4], g: f64) -> SweLoops {
        let save = ParLoop::build("swe_save", &t.cells)
            .args((w.read::<3>(), wold.write::<3>()))
            .kernel(|(w, wold), _| *wold = *w);

        let dt_calc = ParLoop::build("swe_dt", &t.cells)
            .gbl_max(1)
            .args(w.read::<3>())
            .kernel(move |w, gbl| gbl[0] = gbl[0].max(kernels::wave_speed(w, g)));

        let flux = SweLoops::flux_into(t, w, (res, &t.pecell), g);

        let bflux = ParLoop::build("swe_bflux", &t.bedges)
            .args((
                t.p_x.read::<2>().via::<2>(&t.pbedge),
                w.read::<3>().via::<1>(&t.pbecell),
                res.inc::<3>().via::<1>(&t.pbecell),
                t.p_bound.read::<1>(),
            ))
            .kernel(move |([x1, x2], [w1], [r1], [bound]), _| {
                kernels::bflux(x1, x2, w1, r1, *bound, g);
            });

        let dt = Global::new("dt", 0.0);
        let update = ParLoop::build("swe_update", &t.cells)
            .gbl_inc(1)
            .args((wold.read::<3>(), w.write::<3>(), res.rw::<3>(), inv_area.read::<1>(), dt.read()))
            .kernel(move |(wold, w, res, [inv_area], [dt]), gbl| {
                kernels::update(wold, w, res, *dt * *inv_area, &mut gbl[0]);
            });

        SweLoops { save, dt_calc, flux, bflux, update, dt }
    }

    /// `swe_flux` over `t`'s edges with INC into `inc`'s dat through its
    /// map: `(res, pecell)` in [`SweLoops::new`], a halo group's scratch and
    /// slot map on a distributed rank. Same `0.0 + f` argument as Airfoil's
    /// `res_calc`.
    pub fn flux_into(t: &Topology, w: &Dat<f64>, (res, to): (&Dat<f64>, &Map), g: f64) -> ParLoop {
        ParLoop::build("swe_flux", &t.edges)
            .args((
                t.p_x.read::<2>().via::<2>(&t.pedge),
                w.read::<3>().via::<2>(&t.pecell),
                res.inc::<3>().via::<2>(to),
            ))
            .wide_kernel(Flux(g))
    }
}

/// Shoelace area of the quad whose four corner nodes are `corners`, with
/// node coordinates `coords` (two per node, AoS).
pub fn cell_area(coords: &[f64], corners: &[u32]) -> f64 {
    let mut a = 0.0;
    for k in 0..4 {
        let (i, j) = (corners[k] as usize, corners[(k + 1) % 4] as usize);
        a += coords[2 * i] * coords[2 * j + 1] - coords[2 * j] * coords[2 * i + 1];
    }
    a / 2.0
}

/// `swe_flux`'s body, written once over [`Real`]. The other loops reduce
/// (`swe_dt`, `swe_update`) or branch per edge (`swe_bflux`): `f64` bodies.
struct Flux(f64);

impl WideKernel for Flux {
    type Args = (Via<f64, 2, 2, Read>, Via<f64, 3, 2, Read>, Via<f64, 3, 2, Inc>);

    #[inline(always)]
    fn run<R: Real>(&self, ([x1, x2], [w1, w2], [r1, r2]): &mut At<Self::Args, R>) {
        kernels::flux(x1, x2, w1, w2, r1, r2, self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use op2_hpx::{make_executor, BackendKind, Op2Runtime};
    use std::sync::Arc;

    fn exec(kind: BackendKind) -> Box<dyn Executor> {
        make_executor(kind, Arc::new(Op2Runtime::new(2, 32)))
    }

    #[test]
    fn lake_at_rest_stays_at_rest() {
        let app = SweApp::new(SweConfig::default());
        // Uniform depth, zero velocity — must be a discrete steady state.
        let reports = app.run(exec(BackendKind::Serial).as_ref(), 10, 1);
        for (step, _dt, rms) in reports {
            assert!(rms < 1e-13, "lake not at rest at step {step}: rms={rms:e}");
        }
        let w = app.w.to_vec();
        for c in w.chunks(3) {
            assert!((c[0] - 1.0).abs() < 1e-12);
            assert_eq!(c[1], 0.0);
            assert_eq!(c[2], 0.0);
        }
    }

    #[test]
    fn dam_break_conserves_mass_in_closed_basin() {
        let app = SweApp::new(SweConfig {
            imax: 48,
            jmax: 24,
            ..SweConfig::default()
        });
        app.dam_break(2.0, 2.0, 1.0);
        let mass0 = app.total_mass();
        let reports = app.run(exec(BackendKind::ForkJoin).as_ref(), 60, 20);
        let mass1 = app.total_mass();
        assert!(
            (mass1 - mass0).abs() < 1e-9 * mass0,
            "mass drifted: {mass0} -> {mass1}"
        );
        // The wave does something.
        assert!(reports.iter().all(|(_, dt, rms)| *dt > 0.0 && rms.is_finite()));
        assert!(reports[0].2 > 1e-6, "no dynamics from the dam break");
    }

    #[test]
    fn adaptive_dt_responds_to_depth() {
        let shallow = SweApp::new(SweConfig::default());
        let deep = SweApp::new(SweConfig::default());
        {
            let mut w = deep.w.data_mut();
            for c in w.chunks_mut(3) {
                c[0] = 4.0; // 4× depth → 2× wave speed → ~half the dt
            }
        }
        let r_shallow = shallow.run(exec(BackendKind::Serial).as_ref(), 1, 1);
        let r_deep = deep.run(exec(BackendKind::Serial).as_ref(), 1, 1);
        let ratio = r_shallow[0].1 / r_deep[0].1;
        assert!((ratio - 2.0).abs() < 1e-6, "dt ratio {ratio}");
    }

    #[test]
    fn backends_bitwise_identical_on_dam_break() {
        let run = |kind: BackendKind| {
            let app = SweApp::new(SweConfig {
                imax: 32,
                jmax: 16,
                ..SweConfig::default()
            });
            app.dam_break(2.0, 1.5, 1.0);
            let reports = app.run(exec(kind).as_ref(), 12, 3);
            let w: Vec<u64> = app.w.to_vec().into_iter().map(f64::to_bits).collect();
            (w, reports.into_iter().map(|(s, d, r)| (s, d.to_bits(), r.to_bits())).collect::<Vec<_>>())
        };
        let reference = run(BackendKind::Serial);
        for kind in [
            BackendKind::ForkJoin,
            BackendKind::ForEachStatic(4),
            BackendKind::Async,
            BackendKind::Dataflow,
        ] {
            let got = run(kind);
            assert_eq!(got.0, reference.0, "state diverged under {kind}");
            assert_eq!(got.1, reference.1, "reports diverged under {kind}");
        }
    }

    /// FNV-1a over 64-bit words, byte by byte.
    fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
        words
            .into_iter()
            .flat_map(u64::to_le_bytes)
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    }

    /// The twin of Airfoil's contract test: every loop's body, driven through
    /// `run_span` over uneven spans in step order, leaves the state (`w`,
    /// `wold`, `res`, canonical order) and the reduction bit for bit where the
    /// per-element reference left them: one digest per loop, taken from the
    /// hand-written per-element bodies this wiring replaced, the same on both
    /// layouts.
    #[test]
    fn span_bodies_match_per_element_reference() {
        const DIGESTS: [u64; 5] = [
            0xba80_b890_31c6_30a5,
            0xb91b_4fec_9536_5340,
            0x6975_533b_92ea_3176,
            0xc4c5_b648_a07d_6b22,
            0x5949_bf1f_d8e1_e058,
        ];
        for layout in [Layout::Aos, Layout::Soa] {
            let a = SweApp::new(SweConfig {
                imax: 12,
                jmax: 6,
                layout,
                ..SweConfig::default()
            });
            a.dam_break(2.0, 2.0, 1.0);
            a.dt.set(1e-3);
            let digests = [&a.save, &a.dt_calc, &a.flux, &a.bflux, &a.update].map(|l| {
                let n = l.set().size();
                let mut gbl = vec![l.gbl_op().identity(); l.gbl_dim()];
                let mut at = 0usize;
                for (i, w) in [7usize, 1, 13, 64, 3].iter().cycle().enumerate() {
                    if at >= n {
                        break;
                    }
                    let hi = (at + w + i % 2).min(n);
                    l.run_span(at..hi, &mut gbl);
                    at = hi;
                }
                let state = [&a.w, &a.wold, &a.res].into_iter().flat_map(|d| d.to_aos_vec());
                let values = gbl.into_iter().chain(state);
                fnv1a(values.map(f64::to_bits))
            });
            assert_eq!(digests, DIGESTS, "{layout:?}");
        }
    }

    /// Each typed tuple expands to the `ArgSpec`s the loops declared one
    /// `.arg(…)` at a time: same dats, maps, slots, access kinds and order.
    #[test]
    fn arg_lists_are_the_declared_ones() {
        let a = SweApp::new(SweConfig::default());
        let want: [(&ParLoop, &[&str]); 5] = [
            (&a.save, &["w Read", "wold Write"]),
            (&a.dt_calc, &["w Read"]),
            (
                &a.flux,
                &[
                    "p_x pedge[0] Read",
                    "p_x pedge[1] Read",
                    "w pecell[0] Read",
                    "w pecell[1] Read",
                    "res pecell[0] Inc",
                    "res pecell[1] Inc",
                ],
            ),
            (
                &a.bflux,
                &[
                    "p_x pbedge[0] Read",
                    "p_x pbedge[1] Read",
                    "w pbecell[0] Read",
                    "res pbecell[0] Inc",
                    "p_bound Read",
                ],
            ),
            (&a.update, &["wold Read", "w Write", "res ReadWrite", "inv_area Read"]),
        ];
        for (l, want) in want {
            let got: Vec<String> = l
                .args()
                .iter()
                .map(|a| match &a.map_ref {
                    op2_core::MapRef::Direct => format!("{} {:?}", a.dat_name, a.access),
                    op2_core::MapRef::Indirect { map, idx } => {
                        format!("{} {}[{idx}] {:?}", a.dat_name, map.name(), a.access)
                    }
                })
                .collect();
            assert_eq!(got, want, "{}", l.name());
        }
    }

    #[test]
    fn uniform_flow_through_open_channel_is_steady() {
        // The SWE analogue of Airfoil's free-stream test: uniform depth and
        // velocity with open inflow/outflow and slip walls is an exact
        // discrete steady state.
        let app = SweApp::new(SweConfig {
            imax: 32,
            jmax: 8,
            all_walls: false,
            ..SweConfig::default()
        });
        {
            let mut w = app.w.data_mut();
            for c in w.chunks_mut(3) {
                c[0] = 1.0;
                c[1] = 0.5; // uniform rightward momentum
                c[2] = 0.0;
            }
        }
        let mass0 = app.total_mass();
        let reports = app.run(exec(BackendKind::Dataflow).as_ref(), 20, 5);
        for (step, _dt, rms) in reports {
            assert!(rms < 1e-13, "uniform flow disturbed at step {step}: {rms:e}");
        }
        assert!((app.total_mass() - mass0).abs() < 1e-10);
    }
}
