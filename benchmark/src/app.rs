//! The two applications behind one small interface, so arms, probes and the
//! ledger pass are written once for Airfoil and shallow water.
//!
//! Both apps have the same five-loop shape; the per-layer metrics name the
//! loops by *slot* so one metric list serves every workload:
//!
//! | slot | Airfoil | shallow water |
//! |---|---|---|
//! | `save` | `save_soln` | `swe_save` |
//! | `dt` | `adt_calc` | `swe_dt` (global max) |
//! | `flux` | `res_calc` | `swe_flux` |
//! | `bflux` | `bres_calc` | `swe_bflux` |
//! | `update` | `update` (RMS sum) | `swe_update` (RMS sum) |

use std::cell::OnceCell;
use std::sync::Arc;

use op2_airfoil::mesh::{MeshOptions, MeshRenumbering};
use op2_airfoil::{AirfoilLoops, FlowConstants, Mesh, MeshBuilder, Simulation, SyncStrategy};
use op2_core::{Layout, ParLoop};
use op2_hpx::{make_executor, BackendKind, Executor, LoopError, Op2Runtime, Supervisor};
use op2_swe::{SweApp, SweConfig};

use crate::spans::SpanLog;
use crate::util::Rng;

pub const SLOTS: [&str; 5] = ["save", "dt", "flux", "bflux", "update"];

/// Mini-partition size of every runtime the benchmark starts (OP2's default).
pub const PART_SIZE: usize = op2_core::plan::DEFAULT_PART_SIZE;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKind {
    Airfoil,
    Swe,
}

/// Which mesh an instance marches on.
#[derive(Debug, Clone, Copy)]
pub struct MeshSpec {
    pub app: AppKind,
    pub nx: usize,
    pub ny: usize,
    pub layout: Layout,
    /// RCM-renumber inside `Mesh::from_data_opts` (lands in set-up).
    pub renumber: bool,
    /// Hand the mesh over in a seeded shuffled numbering first (Airfoil only).
    pub shuffle: bool,
}

impl MeshSpec {
    pub fn ncells(&self) -> usize {
        self.nx * self.ny
    }
}

/// Everything `--seed` decides. The program sees only these values.
#[derive(Debug, Clone, Copy)]
pub struct Inputs {
    /// Airfoil pressure pulse `(cx, cy, r, amp)` on the 4×1 channel.
    pub pulse: [f64; 4],
    /// Dam break `(x_split, h_hi, h_lo)`.
    pub dam: [f64; 3],
    pub shuffle_seed: u64,
    pub order_seed: u64,
    pub tuner_seed: u64,
}

impl Inputs {
    pub fn from_seed(seed: u64) -> Inputs {
        let mut rng = Rng::new(seed);
        Inputs {
            pulse: [
                rng.range(0.8, 1.6),
                rng.range(0.35, 0.65),
                rng.range(0.2, 0.3),
                rng.range(0.15, 0.25),
            ],
            dam: [rng.range(1.0, 3.0), rng.range(1.8, 2.2), 1.0],
            shuffle_seed: rng.next_u64(),
            order_seed: rng.next_u64(),
            tuner_seed: rng.next_u64(),
        }
    }
}

/// One application instance: mesh + state + loops + an executor.
pub trait Instance {
    fn rt(&self) -> &Arc<Op2Runtime>;
    fn exec(&self) -> &dyn Executor;
    /// March `iters` iterations with the app's own driver on this instance's
    /// executor (`Simulation::run` / `SweApp::run`). Panics on a loop failure.
    fn march(&self, iters: usize);
    /// The same march through a recovery [`Supervisor`].
    fn march_supervised(&self, sup: &Supervisor, iters: usize) -> Result<(), LoopError>;
    /// The five loops in slot order, for the per-loop probes of `--trace 1`.
    fn loops(&self) -> [&ParLoop; 5];
    /// Final state in canonical order: AoS, original (generator) numbering.
    fn state(&self) -> Vec<f64>;
    /// Overwrite the state from canonical order (restart a march).
    fn set_state(&self, canonical: &[f64]);
}

pub struct AirfoilInst {
    rt: Arc<Op2Runtime>,
    sim: Simulation,
    /// `Simulation` keeps its loops private, so the probes declare the same
    /// loops over the same dats a second time — on first use, so no arm and
    /// no timed set-up pays for it.
    probe_loops: OnceCell<AirfoilLoops>,
    shuffle: Option<MeshRenumbering>,
}

/// Slots executed by one iteration of `app`, in issue order.
pub fn schedule(app: AppKind) -> &'static [usize] {
    match app {
        AppKind::Airfoil => &[0, 1, 2, 3, 4, 1, 2, 3, 4],
        AppKind::Swe => &[0, 1, 2, 3, 4],
    }
}

/// Build the Airfoil mesh of `spec` with the seeded pulse applied; returns
/// the mesh and the shuffle permutation (when one was applied).
pub fn airfoil_mesh(
    spec: &MeshSpec,
    inp: &Inputs,
    log: &mut SpanLog,
) -> (Mesh, Option<MeshRenumbering>) {
    let consts = FlowConstants::default();
    let (_, data) = log.span("MeshBuilder::data", "op2-airfoil", |_| {
        MeshBuilder::channel(spec.nx, spec.ny).data()
    });
    let (data, shuffle) = if spec.shuffle {
        let (_, (d, r)) = log.span("MeshData::shuffled", "op2-airfoil", |_| {
            data.shuffled(inp.shuffle_seed)
        });
        (d, Some(r))
    } else {
        (data, None)
    };
    let opts = MeshOptions {
        layout: spec.layout,
        renumber: spec.renumber,
    };
    let (_, mesh) = log.span("Mesh::from_data_opts", "op2-airfoil", |_| {
        Mesh::from_data_opts(data, &consts, &opts)
    });
    let [cx, cy, r, amp] = inp.pulse;
    log.span("Mesh::add_pulse", "op2-airfoil", |_| {
        mesh.add_pulse(cx, cy, r, amp, &consts)
    });
    (mesh, shuffle)
}

impl AirfoilInst {
    pub fn build(
        spec: &MeshSpec,
        inp: &Inputs,
        rt: Arc<Op2Runtime>,
        exec: Box<dyn Executor>,
        strategy: SyncStrategy,
        log: &mut SpanLog,
    ) -> AirfoilInst {
        let (mesh, shuffle) = airfoil_mesh(spec, inp, log);
        let (_, sim) = log.span("Simulation::new", "op2-airfoil", |_| {
            Simulation::new(mesh, &FlowConstants::default(), exec, strategy)
        });
        AirfoilInst {
            rt,
            sim,
            probe_loops: OnceCell::new(),
            shuffle,
        }
    }
}

impl Instance for AirfoilInst {
    fn rt(&self) -> &Arc<Op2Runtime> {
        &self.rt
    }

    fn exec(&self) -> &dyn Executor {
        self.sim.executor()
    }

    fn march(&self, iters: usize) {
        self.sim.run(iters, iters);
    }

    fn march_supervised(&self, sup: &Supervisor, iters: usize) -> Result<(), LoopError> {
        self.sim.run_supervised(sup, iters, iters).map(|_| ())
    }

    fn loops(&self) -> [&ParLoop; 5] {
        let l = self
            .probe_loops
            .get_or_init(|| AirfoilLoops::new(self.sim.mesh(), &FlowConstants::default()));
        [
            &l.save_soln,
            &l.adt_calc,
            &l.res_calc,
            &l.bres_calc,
            &l.update,
        ]
    }

    fn state(&self) -> Vec<f64> {
        let q = self.sim.mesh().unrenumbered_q();
        match &self.shuffle {
            Some(ren) => ren.cells.unpermute_rows(&q, 4),
            None => q,
        }
    }

    fn set_state(&self, canonical: &[f64]) {
        let mesh = self.sim.mesh();
        let q = match &self.shuffle {
            Some(ren) => ren.cells.permute_rows(canonical, 4),
            None => canonical.to_vec(),
        };
        let q = match &mesh.renumbering {
            Some(ren) => ren.cells.permute_rows(&q, 4),
            None => q,
        };
        mesh.p_q.write_aos(&q);
    }
}

pub struct SweInst {
    rt: Arc<Op2Runtime>,
    app: SweApp,
    exec: Box<dyn Executor>,
}

/// The shallow-water configuration of `spec` (closed basin, default physics).
pub fn swe_config(spec: &MeshSpec) -> SweConfig {
    SweConfig {
        imax: spec.nx,
        jmax: spec.ny,
        layout: spec.layout,
        renumber: spec.renumber,
        ..SweConfig::default()
    }
}

impl SweInst {
    pub fn build(
        spec: &MeshSpec,
        inp: &Inputs,
        rt: Arc<Op2Runtime>,
        exec: Box<dyn Executor>,
        log: &mut SpanLog,
    ) -> SweInst {
        let (_, app) = log.span("SweApp::new", "op2-swe", |_| SweApp::new(swe_config(spec)));
        let [x_split, h_hi, h_lo] = inp.dam;
        log.span("SweApp::dam_break", "op2-swe", |_| {
            app.dam_break(x_split, h_hi, h_lo)
        });
        SweInst { rt, app, exec }
    }
}

impl Instance for SweInst {
    fn rt(&self) -> &Arc<Op2Runtime> {
        &self.rt
    }

    fn exec(&self) -> &dyn Executor {
        self.exec.as_ref()
    }

    fn march(&self, iters: usize) {
        self.app.run(self.exec.as_ref(), iters, iters);
    }

    fn march_supervised(&self, sup: &Supervisor, iters: usize) -> Result<(), LoopError> {
        self.app.run_supervised(sup, iters, iters).map(|_| ())
    }

    fn loops(&self) -> [&ParLoop; 5] {
        let a = &self.app;
        [&a.save, &a.dt_calc, &a.flux, &a.bflux, &a.update]
    }

    fn state(&self) -> Vec<f64> {
        self.app.unrenumbered_w()
    }

    fn set_state(&self, canonical: &[f64]) {
        let w = match &self.app.mesh.renumbering {
            Some(ren) => ren.cells.permute_rows(canonical, 3),
            None => canonical.to_vec(),
        };
        self.app.w.write_aos(&w);
    }
}

/// Build an instance of `spec` on an executor the caller made over `rt`.
/// `strategy` is how Airfoil's driver synchronises (shallow water always
/// waits on every loop).
pub fn build_instance_on(
    spec: &MeshSpec,
    inp: &Inputs,
    rt: Arc<Op2Runtime>,
    exec: Box<dyn Executor>,
    strategy: SyncStrategy,
    log: &mut SpanLog,
) -> Box<dyn Instance> {
    match spec.app {
        AppKind::Airfoil => Box::new(AirfoilInst::build(spec, inp, rt, exec, strategy, log)),
        AppKind::Swe => Box::new(SweInst::build(spec, inp, rt, exec, log)),
    }
}

/// Start a runtime and build an instance of `spec` on backend `kind`.
pub fn build_instance(
    spec: &MeshSpec,
    inp: &Inputs,
    kind: BackendKind,
    threads: usize,
    log: &mut SpanLog,
) -> Box<dyn Instance> {
    let (_, rt) = log.span("Op2Runtime::new", "op2-hpx", |_| {
        Arc::new(Op2Runtime::new(threads, PART_SIZE))
    });
    let (_, exec) = log.span("make_executor", "op2-hpx", |_| {
        make_executor(kind, Arc::clone(&rt))
    });
    build_instance_on(spec, inp, rt, exec, SyncStrategy::for_backend(kind), log)
}
