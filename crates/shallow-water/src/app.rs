//! The shallow-water application: declarations, loops, and the adaptive
//! time-march driver.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use op2_airfoil::mesh::{Mesh, MeshOptions};
use op2_airfoil::{FlowConstants, MeshBuilder};
use op2_core::{arg_direct, arg_indirect, Access, Dat, DatView, Layout, MapView, ParLoop};
use op2_hpx::Executor;

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
    /// Current `dt` (f64 bits), read by the update kernel.
    dt_bits: Arc<AtomicU64>,
    /// Shortest cell length scale, for the CFL formula.
    min_len: f64,
    g: f64,
    cfl: f64,
}

/// One `swe_save` element: `wold[e] ← w[e]` (pure copy).
#[inline(always)]
unsafe fn save_one(wv: &DatView<f64>, woldv: &DatView<f64>, e: usize) {
    let w: [f64; 3] = wv.load(e);
    woldv.store(e, w);
}

/// One `swe_dt` element: fold the cell's wave speed into the running max.
#[inline(always)]
unsafe fn dt_one(wv: &DatView<f64>, g: f64, e: usize, smax: &mut f64) {
    let w: [f64; 3] = wv.load(e);
    *smax = smax.max(kernels::wave_speed(&w, g));
}

/// One `swe_flux` element. Flux lands in local zero-initialized accumulators
/// applied with `add_vec` — bit-identical to incrementing the live residual
/// (same `-0.0` argument as airfoil's `res_one`: each component receives
/// exactly one `±f`, and the live residual never holds `-0.0`).
#[inline(always)]
unsafe fn flux_one(
    xv: &DatView<f64>,
    wv: &DatView<f64>,
    resv: &DatView<f64>,
    pedge: MapView<2>,
    pecell: MapView<2>,
    g: f64,
    e: usize,
) {
    let [c1, c2] = pecell.row(e);
    let [n1, n2] = pedge.row(e);
    let x1: [f64; 2] = xv.load(n1);
    let x2: [f64; 2] = xv.load(n2);
    let w1: [f64; 3] = wv.load(c1);
    let w2: [f64; 3] = wv.load(c2);
    let mut r1 = [0.0f64; 3];
    let mut r2 = [0.0f64; 3];
    kernels::flux(&x1, &x2, &w1, &w2, &mut r1, &mut r2, g);
    resv.add_vec(c1, r1);
    resv.add_vec(c2, r2);
}

/// One `swe_bflux` element (same local-accumulator argument as [`flux_one`]).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn bflux_one(
    xv: &DatView<f64>,
    wv: &DatView<f64>,
    resv: &DatView<f64>,
    boundv: &DatView<i32>,
    pbedge: MapView<2>,
    pbecell: MapView<1>,
    g: f64,
    e: usize,
) {
    let [c1] = pbecell.row(e);
    let [n1, n2] = pbedge.row(e);
    let x1: [f64; 2] = xv.load(n1);
    let x2: [f64; 2] = xv.load(n2);
    let w1: [f64; 3] = wv.load(c1);
    let [bound] = boundv.load(e);
    let mut r1 = [0.0f64; 3];
    kernels::bflux(&x1, &x2, &w1, &mut r1, bound, g);
    resv.add_vec(c1, r1);
}

/// One `swe_update` element. Element-outer order is load-bearing for the RMS
/// partial sum, so the span body iterates elements ascending.
#[inline(always)]
unsafe fn update_one(
    woldv: &DatView<f64>,
    wv: &DatView<f64>,
    resv: &DatView<f64>,
    iav: &DatView<f64>,
    dt: f64,
    e: usize,
    rms: &mut f64,
) {
    let wold: [f64; 3] = woldv.load(e);
    let mut w = [0.0f64; 3];
    let mut res: [f64; 3] = resv.load(e);
    let [inv_area] = iav.load(e);
    kernels::update(&wold, &mut w, &mut res, dt * inv_area, rms);
    wv.store(e, w);
    resv.store(e, res);
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
        // Per-cell areas via the shoelace formula (works for any quad mesh);
        // canonical AoS order keeps this independent of the declared layout.
        let coords = mesh.p_x.to_aos_vec();
        let mut areas = Vec::with_capacity(ncells);
        for c in 0..ncells {
            let mut a = 0.0;
            for k in 0..4 {
                let i = mesh.pcell.at(c, k);
                let j = mesh.pcell.at(c, (k + 1) % 4);
                a += coords[2 * i] * coords[2 * j + 1] - coords[2 * j] * coords[2 * i + 1];
            }
            areas.push(a / 2.0);
        }
        drop(coords);
        let min_len = areas
            .iter()
            .fold(f64::INFINITY, |m, &a| m.min(a))
            .sqrt();

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

        let g = cfg.g;
        let (wv, woldv, resv, iav) = (w.view(), wold.view(), res.view(), inv_area.view());
        let xv = mesh.p_x.view();

        let save = ParLoop::build("swe_save", &mesh.cells)
            .arg(arg_direct(&w, Access::Read))
            .arg(arg_direct(&wold, Access::Write))
            // Not `.kernel(`: its per-element `current.set(e)` blocks wide moves.
            .kernel_span(move |span, _| unsafe {
                for e in span {
                    save_one(&wv, &woldv, e);
                }
            });

        let dt_calc = ParLoop::build("swe_dt", &mesh.cells)
            .arg(arg_direct(&w, Access::Read))
            .gbl_max(1)
            .kernel_span(move |span, gbl| unsafe {
                // The running max stays in a register for the whole span.
                let mut m = gbl[0];
                for e in span {
                    dt_one(&wv, g, e, &mut m);
                }
                gbl[0] = m;
            });

        let (pedge, pecell) = (mesh.pedge.view(), mesh.pecell.view());
        let flux = ParLoop::build("swe_flux", &mesh.edges)
            .arg(arg_indirect(&mesh.p_x, 0, &mesh.pedge, Access::Read))
            .arg(arg_indirect(&mesh.p_x, 1, &mesh.pedge, Access::Read))
            .arg(arg_indirect(&w, 0, &mesh.pecell, Access::Read))
            .arg(arg_indirect(&w, 1, &mesh.pecell, Access::Read))
            .arg(arg_indirect(&res, 0, &mesh.pecell, Access::Inc))
            .arg(arg_indirect(&res, 1, &mesh.pecell, Access::Inc))
            .kernel(move |e, _| unsafe {
                flux_one(&xv, &wv, &resv, pedge, pecell, g, e);
            });

        let (pbedge, pbecell) = (mesh.pbedge.view(), mesh.pbecell.view());
        let boundv = mesh.p_bound.view();
        let bflux = ParLoop::build("swe_bflux", &mesh.bedges)
            .arg(arg_indirect(&mesh.p_x, 0, &mesh.pbedge, Access::Read))
            .arg(arg_indirect(&mesh.p_x, 1, &mesh.pbedge, Access::Read))
            .arg(arg_indirect(&w, 0, &mesh.pbecell, Access::Read))
            .arg(arg_indirect(&res, 0, &mesh.pbecell, Access::Inc))
            .arg(arg_direct(&mesh.p_bound, Access::Read))
            .kernel(move |e, _| unsafe {
                bflux_one(&xv, &wv, &resv, &boundv, pbedge, pbecell, g, e);
            });

        let dt_bits = Arc::new(AtomicU64::new(0));
        let dt_for_kernel = Arc::clone(&dt_bits);
        let update = ParLoop::build("swe_update", &mesh.cells)
            .arg(arg_direct(&wold, Access::Read))
            .arg(arg_direct(&w, Access::Write))
            .arg(arg_direct(&res, Access::ReadWrite))
            .arg(arg_direct(&inv_area, Access::Read))
            .gbl_inc(1)
            .kernel_span(move |span, gbl| unsafe {
                // One atomic load of the step per span, not per element.
                let dt = f64::from_bits(dt_for_kernel.load(Ordering::Acquire));
                for e in span {
                    update_one(&woldv, &wv, &resv, &iav, dt, e, &mut gbl[0]);
                }
            });

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
            dt_bits,
            min_len,
            g: cfg.g,
            cfl: cfg.cfl,
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
    /// The adaptive `dt` flows from the `dt_calc` max-reduction to the
    /// `update` kernel through a driver-level value, so the driver must
    /// resolve `dt_calc` before issuing `update` — a data dependency the dat
    /// system cannot see (documented; all other ordering is per backend).
    pub fn run(&self, exec: &dyn Executor, steps: usize, report_every: usize) -> Vec<(usize, f64, f64)> {
        let reports = self
            .march(exec, steps, report_every)
            .unwrap_or_else(|e| e.rethrow());
        exec.fence();
        reports
    }

    /// [`SweApp::run`] as a *submittable job*: every loop executes through
    /// the recovery [`op2_hpx::Supervisor`] ladder, and the first
    /// unrecovered failure — including a job-level cancellation or deadline
    /// armed on the supervisor's runtime token — surfaces as a typed
    /// [`op2_hpx::LoopError`] instead of a panic. Reports are bit-identical
    /// to [`SweApp::run`] on any backend.
    pub fn run_supervised(
        &self,
        sup: &op2_hpx::Supervisor,
        steps: usize,
        report_every: usize,
    ) -> Result<Vec<(usize, f64, f64)>, op2_hpx::LoopError> {
        self.march(sup, steps, report_every)
    }

    /// The adaptive march on `exec`, every loop waited on before the next.
    /// A failure to issue is returned; a late failure of an asynchronous
    /// executor panics at the wait (a supervisor's handles are always
    /// complete).
    fn march(
        &self,
        exec: &dyn Executor,
        steps: usize,
        report_every: usize,
    ) -> Result<Vec<(usize, f64, f64)>, op2_hpx::LoopError> {
        let ncells = self.mesh.ncells() as f64;
        let mut reports = Vec::new();
        for step in 1..=steps {
            exec.try_execute(&self.save)?.wait();
            let smax = exec.try_execute(&self.dt_calc)?.get()[0];
            let dt = self.cfl * self.min_len / smax.max(1e-12);
            self.dt_bits.store(dt.to_bits(), Ordering::Release);
            exec.try_execute(&self.flux)?.wait();
            exec.try_execute(&self.bflux)?.wait();
            let rms = exec.try_execute(&self.update)?.get()[0];
            if step % report_every.max(1) == 0 || step == steps {
                reports.push((step, dt, (rms / ncells).sqrt()));
            }
        }
        Ok(reports)
    }

    /// [`SweApp::run`] in single-threaded *natural* iteration order
    /// (`op2_core::serial::execute_natural`): every loop visits its set in
    /// ascending index order, no coloring. This is the order the 1-rank
    /// distributed march uses, so it serves as the bitwise oracle for
    /// `op2-dist`'s shallow-water driver.
    pub fn run_natural(&self, steps: usize, report_every: usize) -> Vec<(usize, f64, f64)> {
        use op2_core::serial::execute_natural;
        let ncells = self.mesh.ncells() as f64;
        let mut reports = Vec::new();
        for step in 1..=steps {
            execute_natural(&self.save);
            let smax = execute_natural(&self.dt_calc)[0];
            let dt = self.cfl * self.min_len / smax.max(1e-12);
            self.dt_bits.store(dt.to_bits(), Ordering::Release);
            execute_natural(&self.flux);
            execute_natural(&self.bflux);
            let rms = execute_natural(&self.update)[0];
            if step % report_every.max(1) == 0 || step == steps {
                reports.push((step, dt, (rms / ncells).sqrt()));
            }
        }
        reports
    }

    /// Gravity in use.
    pub fn gravity(&self) -> f64 {
        self.g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use op2_hpx::{make_executor, BackendKind, Op2Runtime};

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

    /// The twin of Airfoil's contract test: every loop's one body, driven
    /// through `run_span` over uneven spans, is bit-identical to iterating
    /// the `*_one` reference directly on both layouts — the `dt`/`update`
    /// hoists included.
    #[test]
    fn span_bodies_match_per_element_reference() {
        type PerElement<'a> = Box<dyn Fn(usize, &mut [f64]) + 'a>;
        for layout in [Layout::Aos, Layout::Soa] {
            let build = || {
                let app = SweApp::new(SweConfig {
                    imax: 12,
                    jmax: 6,
                    layout,
                    ..SweConfig::default()
                });
                app.dam_break(2.0, 2.0, 1.0);
                app.dt_bits.store(1e-3f64.to_bits(), Ordering::Release);
                app
            };
            let (a, b) = (build(), build());
            let (wv, woldv, resv, iav) = (b.w.view(), b.wold.view(), b.res.view(), b.inv_area.view());
            let (xv, boundv) = (b.mesh.p_x.view(), b.mesh.p_bound.view());
            let (m, g) = (&b.mesh, b.g);
            let reference: [(&ParLoop, PerElement); 5] = [
                (&a.save, Box::new(|e, _| unsafe { save_one(&wv, &woldv, e) })),
                (&a.dt_calc, Box::new(|e, gbl| unsafe { dt_one(&wv, g, e, &mut gbl[0]) })),
                (
                    &a.flux,
                    Box::new(|e, _| unsafe {
                        flux_one(&xv, &wv, &resv, m.pedge.view(), m.pecell.view(), g, e)
                    }),
                ),
                (
                    &a.bflux,
                    Box::new(|e, _| unsafe {
                        bflux_one(&xv, &wv, &resv, &boundv, m.pbedge.view(), m.pbecell.view(), g, e)
                    }),
                ),
                (
                    &a.update,
                    Box::new(|e, gbl| unsafe {
                        update_one(&woldv, &wv, &resv, &iav, 1e-3, e, &mut gbl[0])
                    }),
                ),
            ];
            for (la, one) in &reference {
                let n = la.set().size();
                let mut gbl_a = vec![la.gbl_op().identity(); la.gbl_dim()];
                let mut gbl_b = gbl_a.clone();
                let mut at = 0usize;
                for (i, w) in [7usize, 1, 13, 64, 3].iter().cycle().enumerate() {
                    if at >= n {
                        break;
                    }
                    let hi = (at + w + i % 2).min(n);
                    la.run_span(at..hi, &mut gbl_a);
                    for e in at..hi {
                        one(e, &mut gbl_b);
                    }
                    at = hi;
                }
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&gbl_a), bits(&gbl_b), "{} ({layout:?}): reduction", la.name());
            }
            for (da, db) in [(&a.w, &b.w), (&a.wold, &b.wold), (&a.res, &b.res)] {
                let bits = |d: &Dat<f64>| {
                    d.to_aos_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                };
                assert_eq!(bits(da), bits(db), "{} ({layout:?}) differs", da.name());
            }
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
