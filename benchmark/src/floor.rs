//! The floor: what the same arithmetic costs with no framework at all.
//!
//! * a STREAM-style triad, for the bandwidth one thread of this host sustains
//!   at the workload's working-set size and out of DRAM;
//! * a hand-written serial loop nest over raw slices that calls the scalar
//!   `kernels::*` of each app. Direct loops run in natural order; the two
//!   incrementing loops visit edges in the order of the same colored plan the
//!   executors use, so the floor's final state is bit-for-bit the
//!   `SerialExecutor`'s and the comparison is exact, not approximate.

use std::hint::black_box;

use op2_airfoil::mesh::MeshData;
use op2_airfoil::{kernels as ak, FlowConstants};
use op2_core::Plan;
use op2_swe::kernels as sk;

use crate::util::median_time;

/// Single-thread triad `a = b + s·c` over three arrays of `n` doubles;
/// GB/s counting 24 bytes per element (two reads, one write), from the median
/// of the sweeps that fit in `budget_s`.
pub fn triad_gbps(n: usize, budget_s: f64) -> f64 {
    let n = n.max(1024);
    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let s = black_box(3.0);
    let secs = median_time(budget_s, || {
        for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = bi + s * ci;
        }
        black_box(&mut a);
    });
    24.0 * n as f64 / secs / 1e9
}

/// Edge visiting order of a colored plan: colors ascending, blocks in color
/// order, elements ascending — exactly `SerialExecutor`'s.
fn plan_order(plan: &Plan) -> Vec<u32> {
    let mut order = Vec::with_capacity(plan.set_size);
    for color in &plan.color_blocks {
        for &b in color {
            order.extend(plan.blocks[b as usize].clone().map(|e| e as u32));
        }
    }
    order
}

/// `res[c] += r`, component by component (the `add_vec` of the framework).
#[inline(always)]
fn add_row<const D: usize>(res: &mut [f64], c: usize, r: &[f64; D]) {
    for (slot, inc) in res[c * D..c * D + D].iter_mut().zip(r) {
        *slot += inc;
    }
}

#[inline(always)]
fn row<const D: usize>(xs: &[f64], i: usize) -> &[f64] {
    &xs[i * D..i * D + D]
}

/// Hand-written Airfoil over raw AoS slices.
pub struct FloorAirfoil {
    data: MeshData,
    consts: FlowConstants,
    edge_order: Vec<u32>,
    bedge_order: Vec<u32>,
    pub q: Vec<f64>,
    qold: Vec<f64>,
    adt: Vec<f64>,
    res: Vec<f64>,
}

impl FloorAirfoil {
    /// `q0` is the AoS initial state in `data`'s numbering; the two plans are
    /// those of `res_calc` and `bres_calc` on the same mesh.
    pub fn new(data: MeshData, q0: Vec<f64>, res_plan: &Plan, bres_plan: &Plan) -> FloorAirfoil {
        let ncells = data.ncells();
        FloorAirfoil {
            consts: FlowConstants::default(),
            edge_order: plan_order(res_plan),
            bedge_order: plan_order(bres_plan),
            qold: vec![0.0; ncells * 4],
            adt: vec![0.0; ncells],
            res: vec![0.0; ncells * 4],
            q: q0,
            data,
        }
    }

    pub fn iterate(&mut self) -> f64 {
        let d = &self.data;
        let c = &self.consts;
        let ncells = d.ncells();
        self.qold.copy_from_slice(&self.q);
        let mut rms = 0.0;
        for _stage in 0..2 {
            for cell in 0..ncells {
                let n = &d.cell_nodes[cell * 4..cell * 4 + 4];
                ak::adt_calc(
                    row::<2>(&d.coords, n[0] as usize),
                    row::<2>(&d.coords, n[1] as usize),
                    row::<2>(&d.coords, n[2] as usize),
                    row::<2>(&d.coords, n[3] as usize),
                    row::<4>(&self.q, cell),
                    &mut self.adt[cell..cell + 1],
                    c,
                );
            }
            for &e in &self.edge_order {
                let e = e as usize;
                let (n1, n2) = (
                    d.edge_nodes[2 * e] as usize,
                    d.edge_nodes[2 * e + 1] as usize,
                );
                let (c1, c2) = (
                    d.edge_cells[2 * e] as usize,
                    d.edge_cells[2 * e + 1] as usize,
                );
                let mut r1 = [0.0f64; 4];
                let mut r2 = [0.0f64; 4];
                ak::res_calc(
                    row::<2>(&d.coords, n1),
                    row::<2>(&d.coords, n2),
                    row::<4>(&self.q, c1),
                    row::<4>(&self.q, c2),
                    self.adt[c1],
                    self.adt[c2],
                    &mut r1,
                    &mut r2,
                    c,
                );
                add_row(&mut self.res, c1, &r1);
                add_row(&mut self.res, c2, &r2);
            }
            for &be in &self.bedge_order {
                let be = be as usize;
                let (n1, n2) = (
                    d.bedge_nodes[2 * be] as usize,
                    d.bedge_nodes[2 * be + 1] as usize,
                );
                let c1 = d.bedge_cells[be] as usize;
                let mut r1 = [0.0f64; 4];
                ak::bres_calc(
                    row::<2>(&d.coords, n1),
                    row::<2>(&d.coords, n2),
                    row::<4>(&self.q, c1),
                    self.adt[c1],
                    &mut r1,
                    d.bound[be],
                    c,
                );
                add_row(&mut self.res, c1, &r1);
            }
            for cell in 0..ncells {
                let span = cell * 4..cell * 4 + 4;
                ak::update(
                    &self.qold[span.clone()],
                    &mut self.q[span.clone()],
                    &mut self.res[span],
                    self.adt[cell],
                    &mut rms,
                );
            }
        }
        rms
    }
}

/// Hand-written shallow water over raw AoS slices (closed basin).
pub struct FloorSwe {
    data: MeshData,
    g: f64,
    cfl: f64,
    min_len: f64,
    edge_order: Vec<u32>,
    bedge_order: Vec<u32>,
    inv_area: Vec<f64>,
    pub w: Vec<f64>,
    wold: Vec<f64>,
    res: Vec<f64>,
}

impl FloorSwe {
    pub fn new(
        data: MeshData,
        w0: Vec<f64>,
        g: f64,
        cfl: f64,
        flux_plan: &Plan,
        bflux_plan: &Plan,
    ) -> FloorSwe {
        let ncells = data.ncells();
        // Shoelace areas, in the expression order `SweApp::new` uses, so the
        // time step matches it bit for bit.
        let mut areas = Vec::with_capacity(ncells);
        for cell in 0..ncells {
            let mut a = 0.0;
            for k in 0..4 {
                let i = data.cell_nodes[cell * 4 + k] as usize;
                let j = data.cell_nodes[cell * 4 + (k + 1) % 4] as usize;
                a += data.coords[2 * i] * data.coords[2 * j + 1]
                    - data.coords[2 * j] * data.coords[2 * i + 1];
            }
            areas.push(a / 2.0);
        }
        let min_len = areas.iter().fold(f64::INFINITY, |m, &a| m.min(a)).sqrt();
        FloorSwe {
            g,
            cfl,
            min_len,
            edge_order: plan_order(flux_plan),
            bedge_order: plan_order(bflux_plan),
            inv_area: areas.iter().map(|a| 1.0 / a).collect(),
            wold: vec![0.0; ncells * 3],
            res: vec![0.0; ncells * 3],
            w: w0,
            data,
        }
    }

    pub fn iterate(&mut self) -> f64 {
        let d = &self.data;
        let g = self.g;
        let ncells = d.ncells();
        self.wold.copy_from_slice(&self.w);
        let mut smax = 0.0f64;
        for cell in 0..ncells {
            smax = smax.max(sk::wave_speed(row::<3>(&self.w, cell), g));
        }
        let dt = self.cfl * self.min_len / smax.max(1e-12);
        for &e in &self.edge_order {
            let e = e as usize;
            let (n1, n2) = (
                d.edge_nodes[2 * e] as usize,
                d.edge_nodes[2 * e + 1] as usize,
            );
            let (c1, c2) = (
                d.edge_cells[2 * e] as usize,
                d.edge_cells[2 * e + 1] as usize,
            );
            let mut r1 = [0.0f64; 3];
            let mut r2 = [0.0f64; 3];
            sk::flux(
                row::<2>(&d.coords, n1),
                row::<2>(&d.coords, n2),
                row::<3>(&self.w, c1),
                row::<3>(&self.w, c2),
                &mut r1,
                &mut r2,
                g,
            );
            add_row(&mut self.res, c1, &r1);
            add_row(&mut self.res, c2, &r2);
        }
        for &be in &self.bedge_order {
            let be = be as usize;
            let (n1, n2) = (
                d.bedge_nodes[2 * be] as usize,
                d.bedge_nodes[2 * be + 1] as usize,
            );
            let c1 = d.bedge_cells[be] as usize;
            let mut r1 = [0.0f64; 3];
            sk::bflux(
                row::<2>(&d.coords, n1),
                row::<2>(&d.coords, n2),
                row::<3>(&self.w, c1),
                &mut r1,
                sk::SWE_WALL,
                g,
            );
            add_row(&mut self.res, c1, &r1);
        }
        let mut rms = 0.0;
        for cell in 0..ncells {
            let span = cell * 3..cell * 3 + 3;
            sk::update(
                &self.wold[span.clone()],
                &mut self.w[span.clone()],
                &mut self.res[span],
                dt * self.inv_area[cell],
                &mut rms,
            );
        }
        rms
    }
}
