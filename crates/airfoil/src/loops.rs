//! The five Airfoil parallel loops, wired exactly as in Fig. 2/4 of the
//! paper: each loop states its arguments once, as a typed tuple that is both
//! the `ArgSpec`s the planner (coloring) and the dataflow dependency analysis
//! consume and the values its kernel receives.
//!
//! The kernels are safe and never see the layout or a map: the framework
//! gathers each element's values, calls the kernel and stores or increments
//! what it declared, so the same wiring serves AoS and SoA meshes with
//! bitwise identical results. `adt_calc` and `res_calc` are [`WideKernel`]s;
//! `update` reduces and `bres_calc` branches per edge, so they stay `f64`.

use op2_core::typed::{At, Direct, Inc, Read, Via, Write};
use op2_core::{ParLoop, Real, Step, WideKernel};

use crate::constants::FlowConstants;
use crate::kernels;
use crate::mesh::Mesh;

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
}

impl AirfoilLoops {
    /// Build the loops against `mesh` with flow constants `consts`.
    pub fn new(mesh: &Mesh, consts: &FlowConstants) -> AirfoilLoops {
        let c = *consts;
        let m = mesh;

        let save_soln = ParLoop::build("save_soln", &m.cells)
            .args((m.p_q.read::<4>(), m.p_qold.write::<4>()))
            .kernel(|(q, qold), _| *qold = *q);

        let adt_calc = ParLoop::build("adt_calc", &m.cells)
            // adt divides the residual everywhere downstream: a NaN/Inf here
            // (e.g. sqrt of a negative pressure from a blown-up state) would
            // silently corrupt the whole march, so fail the loop instead.
            .guard_finite()
            .args((m.p_x.read::<2>().via::<4>(&m.pcell), m.p_q.read::<4>(), m.p_adt.write::<1>()))
            .wide_kernel(AdtCalc(c));

        // Each residual component receives exactly one `±f` onto the zeroed
        // INC value, so the increment is `0.0 + f` — bit-identical to adding
        // into the live residual, which never holds `-0.0`.
        let res_calc = ParLoop::build("res_calc", &m.edges)
            .args((
                m.p_x.read::<2>().via::<2>(&m.pedge),
                m.p_q.read::<4>().via::<2>(&m.pecell),
                m.p_adt.read::<1>().via::<2>(&m.pecell),
                m.p_res.inc::<4>().via::<2>(&m.pecell),
            ))
            .wide_kernel(ResCalc(c));

        let bres_calc = ParLoop::build("bres_calc", &m.bedges)
            .args((
                m.p_x.read::<2>().via::<2>(&m.pbedge),
                m.p_q.read::<4>().via::<1>(&m.pbecell),
                m.p_adt.read::<1>().via::<1>(&m.pbecell),
                m.p_res.inc::<4>().via::<1>(&m.pbecell),
                m.p_bound.read::<1>(),
            ))
            .kernel(move |([x1, x2], [q1], [[adt1]], [r1], [bound]), _| {
                kernels::bres_calc(x1, x2, q1, *adt1, r1, *bound, &c);
            });

        // Element-outer, component-inner RMS order, as the reference's.
        let update = ParLoop::build("update", &m.cells)
            .gbl_inc(1)
            .args((
                m.p_qold.read::<4>(),
                m.p_q.write::<4>(),
                m.p_res.rw::<4>(),
                m.p_adt.read::<1>(),
            ))
            .kernel(|(qold, q, res, [adt]), gbl| kernels::update(qold, q, res, *adt, &mut gbl[0]));

        AirfoilLoops {
            save_soln,
            adt_calc,
            res_calc,
            bres_calc,
            update,
        }
    }

    /// One Airfoil iteration, as `airfoil.cpp` calls its loops: `save_soln`,
    /// then two stages of `adt_calc → res_calc → bres_calc → update`. Its
    /// results are the two stages' RMS reductions.
    pub fn step(&self) -> Step {
        let stage = |s: Step| {
            s.then(&self.adt_calc).then(&self.res_calc).then(&self.bres_calc).then(&self.update)
        };
        stage(stage(Step::default().then(&self.save_soln)))
    }
}

/// `adt_calc`'s body: node coordinates through `pcell`, `q`, `adt`.
struct AdtCalc(FlowConstants);

impl WideKernel for AdtCalc {
    type Args = (Via<f64, 2, 4, Read>, Direct<f64, 4, Read>, Direct<f64, 1, Write>);

    #[inline(always)]
    fn run<R: Real>(&self, ([x1, x2, x3, x4], q, adt): &mut At<Self::Args, R>) {
        kernels::adt_calc(x1, x2, x3, x4, q, adt, &self.0);
    }
}

/// `res_calc`'s body: node coordinates through `pedge`; `q`, `adt` and the
/// `res` increments through `pecell`.
struct ResCalc(FlowConstants);

impl WideKernel for ResCalc {
    type Args = (Via<f64, 2, 2, Read>, Via<f64, 4, 2, Read>, Via<f64, 1, 2, Read>, Via<f64, 4, 2, Inc>);

    #[inline(always)]
    fn run<R: Real>(&self, ([x1, x2], [q1, q2], [[adt1], [adt2]], [r1, r2]): &mut At<Self::Args, R>) {
        kernels::res_calc(x1, x2, q1, q2, *adt1, *adt2, r1, r2, &self.0);
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

    /// One loop's arguments as `dat map[slot] access`, `map[slot]` left out
    /// for a direct one.
    fn arg_list(l: &ParLoop) -> Vec<String> {
        l.args()
            .iter()
            .map(|a| match &a.map_ref {
                op2_core::MapRef::Direct => format!("{} {:?}", a.dat_name, a.access),
                op2_core::MapRef::Indirect { map, idx } => {
                    format!("{} {}[{idx}] {:?}", a.dat_name, map.name(), a.access)
                }
            })
            .collect()
    }

    /// Each typed tuple expands to the `ArgSpec`s the loops declared one
    /// `.arg(…)` at a time: same dats, maps, slots, access kinds and order.
    #[test]
    fn arg_lists_are_the_declared_ones() {
        let consts = FlowConstants::default();
        let mesh = MeshBuilder::channel(8, 4).build(&consts);
        let a = AirfoilLoops::new(&mesh, &consts);
        let want: [(&ParLoop, &[&str]); 5] = [
            (&a.save_soln, &["p_q Read", "p_qold Write"]),
            (
                &a.adt_calc,
                &[
                    "p_x pcell[0] Read",
                    "p_x pcell[1] Read",
                    "p_x pcell[2] Read",
                    "p_x pcell[3] Read",
                    "p_q Read",
                    "p_adt Write",
                ],
            ),
            (
                &a.res_calc,
                &[
                    "p_x pedge[0] Read",
                    "p_x pedge[1] Read",
                    "p_q pecell[0] Read",
                    "p_q pecell[1] Read",
                    "p_adt pecell[0] Read",
                    "p_adt pecell[1] Read",
                    "p_res pecell[0] Inc",
                    "p_res pecell[1] Inc",
                ],
            ),
            (
                &a.bres_calc,
                &[
                    "p_x pbedge[0] Read",
                    "p_x pbedge[1] Read",
                    "p_q pbecell[0] Read",
                    "p_adt pbecell[0] Read",
                    "p_res pbecell[0] Inc",
                    "p_bound Read",
                ],
            ),
            (&a.update, &["p_qold Read", "p_q Write", "p_res ReadWrite", "p_adt Read"]),
        ];
        for (l, want) in want {
            assert_eq!(arg_list(l), want, "{}", l.name());
        }
    }

    /// FNV-1a over 64-bit words, byte by byte.
    fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
        words
            .into_iter()
            .flat_map(u64::to_le_bytes)
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    }

    /// Every loop's body, driven through `run_span` over uneven spans in
    /// stage order, leaves the state (`q`, `qold`, `adt`, `res`, canonical
    /// order) and the reduction bit for bit where the per-element reference
    /// left them: one digest per loop, taken from the hand-written
    /// per-element bodies this wiring replaced, the same on both layouts.
    #[test]
    fn span_bodies_match_per_element_reference() {
        const DIGESTS: [u64; 5] = [
            0xd2c7_8fd2_5a46_60a5,
            0x102c_1308_c00a_6d8b,
            0xdf6e_5119_cd9b_632b,
            0xf173_5d53_5160_c25c,
            0x78f8_24b8_ff2f_755d,
        ];
        let consts = FlowConstants::default();
        for layout in [op2_core::Layout::Aos, op2_core::Layout::Soa] {
            let opts = crate::mesh::MeshOptions {
                layout,
                ..Default::default()
            };
            let mesh = MeshBuilder::channel(12, 6).build_with(&consts, &opts);
            mesh.add_pulse(2.0, 0.5, 0.4, 0.2, &consts);
            let a = AirfoilLoops::new(&mesh, &consts);
            let loops = [&a.save_soln, &a.adt_calc, &a.res_calc, &a.bres_calc, &a.update];
            let digests = loops.map(|l| {
                let n = l.set().size();
                let mut gbl = vec![0.0f64; l.gbl_dim()];
                // Uneven spans force the span loop through its edge cases.
                let mut at = 0usize;
                for (i, w) in [7usize, 1, 13, 64, 3].iter().cycle().enumerate() {
                    if at >= n {
                        break;
                    }
                    let hi = (at + w + i % 2).min(n);
                    l.run_span(at..hi, &mut gbl);
                    at = hi;
                }
                let state = [&mesh.p_q, &mesh.p_qold, &mesh.p_adt, &mesh.p_res];
                let values = gbl.into_iter().chain(state.into_iter().flat_map(|d| d.to_aos_vec()));
                fnv1a(values.map(f64::to_bits))
            });
            assert_eq!(digests, DIGESTS, "{layout:?}");
        }
    }
}
