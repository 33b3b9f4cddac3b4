//! The five Airfoil parallel loops, wired exactly as in Fig. 2/4 of the
//! paper: every data access the kernels perform is declared as an `ArgSpec`,
//! which is what the planner (coloring) and the dataflow dependency analysis
//! consume.
//!
//! Every loop has **one kernel body**, a per-element `*_one` function.
//! `adt_calc`, `res_calc` and `bres_calc` hand it to
//! [`op2_core::ParLoopBuilder::kernel`], which derives the span loop around
//! it; `save_soln` and `update` wrap it in one ascending element loop of
//! their own ([`op2_core::ParLoopBuilder::kernel_span`]). The `*_one`
//! functions are also the reference the contract test below iterates.
//!
//! The bodies never see the layout: they reach their dats only through the
//! const-width [`DatView`] accessors (`load`/`store`/`add_vec`), so the same
//! wiring serves AoS and SoA meshes with bitwise identical results, and
//! their maps only through [`MapView`]s.

use op2_core::{arg_direct, arg_indirect, Access, Dat, DatView, MapView, ParLoop};

use crate::constants::FlowConstants;
use crate::kernels;
use crate::mesh::Mesh;

/// One `save_soln` element: `qold[e] ← q[e]` (pure copy — bitwise
/// order-independent).
#[inline(always)]
unsafe fn save_one(qv: &DatView<f64>, qoldv: &DatView<f64>, e: usize) {
    let q: [f64; 4] = qv.load(e);
    qoldv.store(e, q);
}

/// One `adt_calc` element (writes only `adt[e]` — element-independent).
#[inline(always)]
unsafe fn adt_one(
    xv: &DatView<f64>,
    qv: &DatView<f64>,
    adtv: &DatView<f64>,
    pcell: MapView<4>,
    c: &FlowConstants,
    e: usize,
) {
    let [n1, n2, n3, n4] = pcell.row(e);
    let x1: [f64; 2] = xv.load(n1);
    let x2: [f64; 2] = xv.load(n2);
    let x3: [f64; 2] = xv.load(n3);
    let x4: [f64; 2] = xv.load(n4);
    let q: [f64; 4] = qv.load(e);
    let mut adt = [0.0f64];
    kernels::adt_calc(&x1, &x2, &x3, &x4, &q, &mut adt, c);
    adtv.store(e, adt);
}

/// One `res_calc` element. The flux lands in local zero-initialized
/// accumulators and is applied with `add_vec`; since each component receives
/// exactly one `+= f`, the applied increment is `0.0 + f`, bit-identical to
/// incrementing the live residual directly (the residual never holds `-0.0`:
/// it is zeroed to `+0.0` and `+0.0 + x` cannot produce `-0.0`).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn res_one(
    xv: &DatView<f64>,
    qv: &DatView<f64>,
    adtv: &DatView<f64>,
    resv: &DatView<f64>,
    pedge: MapView<2>,
    pecell: MapView<2>,
    c: &FlowConstants,
    e: usize,
) {
    let [c1, c2] = pecell.row(e);
    let [n1, n2] = pedge.row(e);
    let x1: [f64; 2] = xv.load(n1);
    let x2: [f64; 2] = xv.load(n2);
    let q1: [f64; 4] = qv.load(c1);
    let q2: [f64; 4] = qv.load(c2);
    let [adt1] = adtv.load(c1);
    let [adt2] = adtv.load(c2);
    let mut r1 = [0.0f64; 4];
    let mut r2 = [0.0f64; 4];
    kernels::res_calc(&x1, &x2, &q1, &q2, adt1, adt2, &mut r1, &mut r2, c);
    resv.add_vec(c1, r1);
    resv.add_vec(c2, r2);
}

/// One `bres_calc` element (same local-accumulator argument as [`res_one`]).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn bres_one(
    xv: &DatView<f64>,
    qv: &DatView<f64>,
    adtv: &DatView<f64>,
    resv: &DatView<f64>,
    boundv: &DatView<i32>,
    pbedge: MapView<2>,
    pbecell: MapView<1>,
    c: &FlowConstants,
    e: usize,
) {
    let [c1] = pbecell.row(e);
    let [n1, n2] = pbedge.row(e);
    let x1: [f64; 2] = xv.load(n1);
    let x2: [f64; 2] = xv.load(n2);
    let q1: [f64; 4] = qv.load(c1);
    let [adt1] = adtv.load(c1);
    let [bound] = boundv.load(e);
    let mut r1 = [0.0f64; 4];
    kernels::bres_calc(&x1, &x2, &q1, adt1, &mut r1, bound, c);
    resv.add_vec(c1, r1);
}

/// One `update` element. Element-outer, component-inner order is load-bearing:
/// the RMS partial sum accumulates in exactly this order, so the span body
/// must (and does) iterate elements ascending.
#[inline(always)]
unsafe fn update_one(
    qoldv: &DatView<f64>,
    qv: &DatView<f64>,
    resv: &DatView<f64>,
    adtv: &DatView<f64>,
    e: usize,
    rms: &mut f64,
) {
    let qold: [f64; 4] = qoldv.load(e);
    let mut q = [0.0f64; 4];
    let mut res: [f64; 4] = resv.load(e);
    let [adt] = adtv.load(e);
    kernels::update(&qold, &mut q, &mut res, adt, rms);
    qv.store(e, q);
    resv.store(e, res);
}

/// The five loops of one Airfoil stage, ready to hand to any executor.
pub struct AirfoilLoops {
    /// `qold ← q` (direct).
    pub save_soln: ParLoop,
    /// Local time step (indirect reads of node coordinates).
    pub adt_calc: ParLoop,
    /// Interior fluxes (indirect, `OP_INC` on residuals).
    pub res_calc: ParLoop,
    /// Boundary fluxes (indirect, `OP_INC`).
    pub bres_calc: ParLoop,
    /// Explicit update + RMS reduction (direct).
    pub update: ParLoop,
    /// Keep-alive handles: the kernels capture raw `DatView`s into these
    /// dats' storage, so the loops must co-own the dats (the mesh may be
    /// dropped independently).
    _dats: (Dat<f64>, Dat<f64>, Dat<f64>, Dat<f64>, Dat<f64>, Dat<i32>),
}

impl AirfoilLoops {
    /// Build the loops against `mesh` with flow constants `consts`.
    pub fn new(mesh: &Mesh, consts: &FlowConstants) -> AirfoilLoops {
        let c = *consts;

        // save_soln -------------------------------------------------------
        let qv = mesh.p_q.view();
        let qoldv = mesh.p_qold.view();
        let save_soln = ParLoop::build("save_soln", &mesh.cells)
            .arg(arg_direct(&mesh.p_q, Access::Read))
            .arg(arg_direct(&mesh.p_qold, Access::Write))
            // Not `.kernel(`: its per-element `current.set(e)` blocks wide moves.
            .kernel_span(move |span, _| unsafe {
                for e in span {
                    save_one(&qv, &qoldv, e);
                }
            });

        // adt_calc ---------------------------------------------------------
        let xv = mesh.p_x.view();
        let adtv = mesh.p_adt.view();
        let pcell = mesh.pcell.view();
        let adt_calc = ParLoop::build("adt_calc", &mesh.cells)
            .arg(arg_indirect(&mesh.p_x, 0, &mesh.pcell, Access::Read))
            .arg(arg_indirect(&mesh.p_x, 1, &mesh.pcell, Access::Read))
            .arg(arg_indirect(&mesh.p_x, 2, &mesh.pcell, Access::Read))
            .arg(arg_indirect(&mesh.p_x, 3, &mesh.pcell, Access::Read))
            .arg(arg_direct(&mesh.p_q, Access::Read))
            .arg(arg_direct(&mesh.p_adt, Access::Write))
            // adt divides the residual everywhere downstream: a NaN/Inf here
            // (e.g. sqrt of a negative pressure from a blown-up state) would
            // silently corrupt the whole march, so fail the loop instead.
            .guard_finite()
            .kernel(move |e, _| unsafe {
                adt_one(&xv, &qv, &adtv, pcell, &c, e);
            });

        // res_calc ---------------------------------------------------------
        let resv = mesh.p_res.view();
        let (pedge, pecell) = (mesh.pedge.view(), mesh.pecell.view());
        let res_calc = ParLoop::build("res_calc", &mesh.edges)
            .arg(arg_indirect(&mesh.p_x, 0, &mesh.pedge, Access::Read))
            .arg(arg_indirect(&mesh.p_x, 1, &mesh.pedge, Access::Read))
            .arg(arg_indirect(&mesh.p_q, 0, &mesh.pecell, Access::Read))
            .arg(arg_indirect(&mesh.p_q, 1, &mesh.pecell, Access::Read))
            .arg(arg_indirect(&mesh.p_adt, 0, &mesh.pecell, Access::Read))
            .arg(arg_indirect(&mesh.p_adt, 1, &mesh.pecell, Access::Read))
            .arg(arg_indirect(&mesh.p_res, 0, &mesh.pecell, Access::Inc))
            .arg(arg_indirect(&mesh.p_res, 1, &mesh.pecell, Access::Inc))
            // The derived span loop's ascending order is load-bearing: two
            // edges of one block may increment the same cell.
            .kernel(move |e, _| unsafe {
                res_one(&xv, &qv, &adtv, &resv, pedge, pecell, &c, e);
            });

        // bres_calc --------------------------------------------------------
        let boundv = mesh.p_bound.view();
        let (pbedge, pbecell) = (mesh.pbedge.view(), mesh.pbecell.view());
        let bres_calc = ParLoop::build("bres_calc", &mesh.bedges)
            .arg(arg_indirect(&mesh.p_x, 0, &mesh.pbedge, Access::Read))
            .arg(arg_indirect(&mesh.p_x, 1, &mesh.pbedge, Access::Read))
            .arg(arg_indirect(&mesh.p_q, 0, &mesh.pbecell, Access::Read))
            .arg(arg_indirect(&mesh.p_adt, 0, &mesh.pbecell, Access::Read))
            .arg(arg_indirect(&mesh.p_res, 0, &mesh.pbecell, Access::Inc))
            .arg(arg_direct(&mesh.p_bound, Access::Read))
            .kernel(move |e, _| unsafe {
                bres_one(&xv, &qv, &adtv, &resv, &boundv, pbedge, pbecell, &c, e);
            });

        // update -----------------------------------------------------------
        let update = ParLoop::build("update", &mesh.cells)
            .arg(arg_direct(&mesh.p_qold, Access::Read))
            .arg(arg_direct(&mesh.p_q, Access::Write))
            .arg(arg_direct(&mesh.p_res, Access::ReadWrite))
            .arg(arg_direct(&mesh.p_adt, Access::Read))
            .gbl_inc(1)
            // RMS in a local for the span: the reference's add order, same bits.
            .kernel_span(move |span, gbl| unsafe {
                let mut rms = gbl[0];
                for e in span {
                    update_one(&qoldv, &qv, &resv, &adtv, e, &mut rms);
                }
                gbl[0] = rms;
            });

        AirfoilLoops {
            save_soln,
            adt_calc,
            res_calc,
            bres_calc,
            update,
            _dats: (
                mesh.p_x.clone(),
                mesh.p_q.clone(),
                mesh.p_qold.clone(),
                mesh.p_adt.clone(),
                mesh.p_res.clone(),
                mesh.p_bound.clone(),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::MeshBuilder;

    #[test]
    fn loops_have_expected_shapes() {
        let consts = FlowConstants::default();
        let mesh = MeshBuilder::channel(8, 4).build(&consts);
        let loops = AirfoilLoops::new(&mesh, &consts);
        assert!(loops.save_soln.is_direct());
        assert!(!loops.adt_calc.is_direct());
        assert!(!loops.adt_calc.has_indirect_writes(), "adt only reads via map");
        assert!(loops.res_calc.has_indirect_writes());
        assert!(loops.bres_calc.has_indirect_writes());
        assert!(loops.update.is_direct());
        assert_eq!(loops.update.gbl_dim(), 1);
    }

    #[test]
    fn res_calc_plan_coloring_is_valid() {
        let consts = FlowConstants::default();
        let mesh = MeshBuilder::channel(16, 8).build(&consts);
        let loops = AirfoilLoops::new(&mesh, &consts);
        for part in [1, 8, 64] {
            let plan =
                op2_core::Plan::build(loops.res_calc.set(), loops.res_calc.args(), part);
            plan.validate(loops.res_calc.args())
                .unwrap_or_else(|e| panic!("part={part}: {e}"));
            if part <= 8 {
                assert!(plan.ncolors > 1, "shared cells must force multiple colors");
            }
        }
    }

    /// Every loop's one body, driven through `run_span` over uneven spans,
    /// must be bit-identical to iterating the `*_one` reference directly —
    /// the contract every executor and det sweep relies on, on both layouts
    /// (`update`'s span-local RMS included).
    #[test]
    fn span_bodies_match_per_element_reference() {
        type PerElement<'a> = Box<dyn Fn(usize, &mut [f64]) + 'a>;
        let consts = FlowConstants::default();
        for layout in [op2_core::Layout::Aos, op2_core::Layout::Soa] {
            let opts = crate::mesh::MeshOptions {
                layout,
                ..Default::default()
            };
            let build = || {
                let mesh = MeshBuilder::channel(12, 6).build_with(&consts, &opts);
                mesh.add_pulse(2.0, 0.5, 0.4, 0.2, &consts);
                mesh
            };
            let (mesh, mesh2) = (build(), build());
            let a = AirfoilLoops::new(&mesh, &consts);
            let m = &mesh2;
            let (xv, qv, qoldv) = (m.p_x.view(), m.p_q.view(), m.p_qold.view());
            let (adtv, resv, boundv) = (m.p_adt.view(), m.p_res.view(), m.p_bound.view());
            let c = &consts;
            let reference: [(&ParLoop, PerElement); 5] = [
                (&a.save_soln, Box::new(|e, _| unsafe { save_one(&qv, &qoldv, e) })),
                (
                    &a.adt_calc,
                    Box::new(|e, _| unsafe { adt_one(&xv, &qv, &adtv, m.pcell.view(), c, e) }),
                ),
                (
                    &a.res_calc,
                    Box::new(|e, _| unsafe {
                        res_one(&xv, &qv, &adtv, &resv, m.pedge.view(), m.pecell.view(), c, e)
                    }),
                ),
                (
                    &a.bres_calc,
                    Box::new(|e, _| unsafe {
                        let (pbedge, pbecell) = (m.pbedge.view(), m.pbecell.view());
                        bres_one(&xv, &qv, &adtv, &resv, &boundv, pbedge, pbecell, c, e)
                    }),
                ),
                (
                    &a.update,
                    Box::new(|e, gbl| unsafe {
                        update_one(&qoldv, &qv, &resv, &adtv, e, &mut gbl[0])
                    }),
                ),
            ];
            for (la, one) in &reference {
                let n = la.set().size();
                let mut gbl_a = vec![0.0f64; la.gbl_dim()];
                let mut gbl_b = vec![0.0f64; la.gbl_dim()];
                // Uneven spans force the fast paths through their edge cases.
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
                assert_eq!(
                    gbl_a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    gbl_b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{} ({layout:?}): reduction differs",
                    la.name()
                );
            }
            for (da, db) in [
                (&mesh.p_q, &mesh2.p_q),
                (&mesh.p_qold, &mesh2.p_qold),
                (&mesh.p_res, &mesh2.p_res),
                (&mesh.p_adt, &mesh2.p_adt),
            ] {
                let bits_a: Vec<u64> =
                    da.to_aos_vec().iter().map(|v| v.to_bits()).collect();
                let bits_b: Vec<u64> =
                    db.to_aos_vec().iter().map(|v| v.to_bits()).collect();
                assert_eq!(bits_a, bits_b, "{} ({layout:?}) differs", da.name());
            }
        }
    }
}
