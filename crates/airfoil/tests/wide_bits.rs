//! Airfoil's wide loops against the scalar kernels, bit for bit.
//!
//! `adt_calc` and `res_calc` are written once over `Real`; where the host has
//! AVX2 their loops run four elements per instruction. Whatever ran,
//! `run_span` must leave exactly the bits of the kernel called at `f64` one
//! element at a time over raw AoS slices, as the benchmark's hand-written
//! floor calls it, with `res_calc`'s increments added slot by slot in
//! element order. Checked over spans of length 0–9 and 16–25 at odd starts
//! and over every block of a real plan; on 64×32 and 512×256 channels in AoS, SoA
//! and SoA with RCM renumbering; with a cell whose pressure is negative
//! (`sqrt` gives NaN there, and `guard_finite` must name that element) and
//! a band of cells at rest, whose fluxes hold signed zeros.

use std::ops::Range;
use std::sync::Arc;

use op2_airfoil::mesh::{Mesh, MeshOptions};
use op2_airfoil::{kernels, AirfoilLoops, FlowConstants, MeshBuilder};
use op2_core::{Layout, ParLoop, Plan};
use op2_hpx::{make_executor, BackendKind, Op2Runtime};

/// The cell given a negative pressure: inside the span `97..115`.
const NEGATIVE_PRESSURE: usize = 101;
/// Cells set at rest.
const AT_REST: Range<usize> = 120..400;

/// The mesh's tables and state as raw AoS arrays, in its own numbering.
struct Raw {
    coords: Vec<f64>,
    cell_nodes: Vec<usize>,
    edge_nodes: Vec<usize>,
    edge_cells: Vec<usize>,
    q: Vec<f64>,
    adt: Vec<f64>,
    res: Vec<f64>,
}

impl Raw {
    fn of(mesh: &Mesh) -> Raw {
        let table = |m: &op2_core::Map| m.table().iter().map(|&t| t as usize).collect();
        Raw {
            coords: mesh.p_x.to_aos_vec(),
            cell_nodes: table(&mesh.pcell),
            edge_nodes: table(&mesh.pedge),
            edge_cells: table(&mesh.pecell),
            q: mesh.p_q.to_aos_vec(),
            adt: mesh.p_adt.to_aos_vec(),
            res: mesh.p_res.to_aos_vec(),
        }
    }

    fn x(&self, n: usize) -> &[f64] {
        &self.coords[2 * n..2 * n + 2]
    }

    /// `adt_calc` at `f64`, cell by cell.
    fn adt_calc(&mut self, span: Range<usize>, c: &FlowConstants) {
        for cell in span {
            let n = &self.cell_nodes[4 * cell..4 * cell + 4];
            let (x1, x2, x3, x4) = (self.x(n[0]), self.x(n[1]), self.x(n[2]), self.x(n[3]));
            let q = &self.q[4 * cell..4 * cell + 4];
            let mut adt = [0.0];
            kernels::adt_calc(x1, x2, x3, x4, q, &mut adt, c);
            self.adt[cell] = adt[0];
        }
    }

    /// `res_calc` at `f64`, edge by edge, each edge's increments added to
    /// its first cell and then its second.
    fn res_calc(&mut self, span: Range<usize>, c: &FlowConstants) {
        for e in span {
            let (n1, n2) = (self.edge_nodes[2 * e], self.edge_nodes[2 * e + 1]);
            let (c1, c2) = (self.edge_cells[2 * e], self.edge_cells[2 * e + 1]);
            let (mut r1, mut r2) = ([0.0; 4], [0.0; 4]);
            kernels::res_calc(
                self.x(n1),
                self.x(n2),
                &self.q[4 * c1..4 * c1 + 4],
                &self.q[4 * c2..4 * c2 + 4],
                self.adt[c1],
                self.adt[c2],
                &mut r1,
                &mut r2,
                c,
            );
            for (cell, r) in [(c1, r1), (c2, r2)] {
                for (slot, v) in self.res[4 * cell..4 * cell + 4].iter_mut().zip(r) {
                    *slot += v;
                }
            }
        }
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A channel with a pulse, one cell at negative pressure, a band at rest,
/// and a residual that is not zero, so increments land on something, with
/// a `-0.0` in every fifth component (a zero increment turns it to `+0.0`).
fn mesh(imax: usize, jmax: usize, opts: MeshOptions, c: &FlowConstants) -> Mesh {
    let mesh = MeshBuilder::channel(imax, jmax).build_with(c, &opts);
    mesh.add_pulse(2.0, 0.5, 0.4, 0.2, c);
    let mut q = mesh.p_q.to_aos_vec();
    q[4 * NEGATIVE_PRESSURE + 3] = -1.0;
    for cell in AT_REST {
        q[4 * cell..4 * cell + 4].copy_from_slice(&[1.0, 0.0, 0.0, 2.5]);
    }
    mesh.p_q.write_aos(&q);
    let res = (0..4 * mesh.ncells()).map(|i| if i % 5 == 0 { -0.0 } else { (i % 7) as f64 * 0.125 - 0.25 });
    let res: Vec<f64> = res.collect();
    mesh.p_res.write_aos(&res);
    mesh
}

/// Spans of length 0–9 (which run at `f64`) and 16–25 (groups on lanes
/// and a remainder of 0–3) at odd starts, then every block of a plan.
fn spans(l: &ParLoop) -> Vec<Range<usize>> {
    let mut at = 1;
    let mut out: Vec<Range<usize>> = Vec::new();
    for len in (0..10).chain(16..26) {
        out.push(at..at + len);
        at += len + 2 - len % 2;
    }
    out.extend(Plan::build(l.set(), l.args(), 128).blocks);
    out
}

#[test]
fn wide_loops_match_the_scalar_kernels_bit_for_bit() {
    let c = FlowConstants::default();
    let layouts = [
        ("aos", MeshOptions { layout: Layout::Aos, renumber: false }),
        ("soa", MeshOptions { layout: Layout::Soa, renumber: false }),
        ("soa+rcm", MeshOptions { layout: Layout::Soa, renumber: true }),
    ];
    for (imax, jmax) in [(64, 32), (512, 256)] {
        for (name, opts) in layouts {
            let case = format!("{imax}x{jmax} {name}");
            let mesh = mesh(imax, jmax, opts, &c);
            let loops = AirfoilLoops::new(&mesh, &c);
            println!("{case}: adt_calc ran {} lanes, res_calc {}", loops.adt_calc.lanes(), loops.res_calc.lanes());
            assert_eq!(loops.adt_calc.lanes(), loops.res_calc.lanes(), "{case}");
            assert_eq!(loops.adt_calc.lanes(), op2_core::lane_width(), "{case}");
            let mut raw = Raw::of(&mesh);

            for span in spans(&loops.adt_calc) {
                loops.adt_calc.run_span(span.clone(), &mut []);
                raw.adt_calc(span.clone(), &c);
                if span.len() < 26 {
                    assert_eq!(bits(&mesh.p_adt.to_aos_vec()), bits(&raw.adt), "{case}: adt_calc over {span:?}");
                }
            }
            assert_eq!(bits(&mesh.p_adt.to_aos_vec()), bits(&raw.adt), "{case}: adt_calc over every plan block");
            assert!(raw.adt[NEGATIVE_PRESSURE].is_nan(), "{case}: negative pressure must give NaN");
            let zeros = raw.q[4 * AT_REST.start..4 * AT_REST.end].iter().filter(|v| **v == 0.0);
            assert!(zeros.count() > 0, "{case}");

            for span in spans(&loops.res_calc) {
                loops.res_calc.run_span(span.clone(), &mut []);
                raw.res_calc(span.clone(), &c);
                if span.len() < 26 {
                    assert_eq!(bits(&mesh.p_res.to_aos_vec()), bits(&raw.res), "{case}: res_calc over {span:?}");
                }
            }
            let res = mesh.p_res.to_aos_vec();
            assert_eq!(bits(&res), bits(&raw.res), "{case}: res_calc over every plan block");
            assert!(res.iter().any(|v| v.is_nan()), "{case}: the NaN adt reached no residual");

            // The guard scans what the wide body wrote and names the element
            // the scalar kernel made non-finite first.
            let first = raw.adt.iter().position(|a| !a.is_finite());
            let exec = make_executor(BackendKind::Serial, Arc::new(Op2Runtime::new(1, 128)));
            let run = exec.try_execute(&loops.adt_calc).and_then(|h| h.try_wait());
            let err = run.expect_err("guard_finite must trip");
            assert_eq!(err.element(), first, "{case}: {err}");
        }
    }
}
