//! Per-kernel data-layout × renumbering benchmark, exported as
//! `results/BENCH_kernel.json` (the checked-in seed baseline; see
//! EXPERIMENTS.md for the schema).
//!
//! Usage: `bench_kernel [OUT_DIR]` (default: `results/`).
//!
//! The mesh generator emits an artificially well-ordered numbering, so the
//! base mesh here is `MeshData::shuffled` — the badly-ordered numbering a
//! real mesh file or partitioner hands OP2, which is what the RCM pass
//! exists to repair. Two sections:
//!
//! * `arms` — per-kernel wall time of a serial airfoil march for each
//!   (layout × renumbered) arm, every loop driven over its whole set through
//!   [`ParLoop::run_span`]. The `aos/unrenumbered` arm is the default (AoS,
//!   mesh as handed to us). The gate (`scripts/bench_gate.py`) requires SoA
//!   or AoSoA with RCM to beat that default on `res_calc` and `update`.
//! * `backends` — full-march wall time of the default and tuned arms on
//!   every backend, pinning that the tuned arm stays bitwise identical
//!   across all of them (same digest).
//!
//! Digests are layout-independent by construction (the layout contract), but
//! renumbering legitimately reorders the `res_calc` increments, so the two
//! renumber classes carry two distinct digests — the gate checks exactly
//! that split.

use std::time::Instant;

use op2_airfoil::mesh::{Mesh, MeshData, MeshOptions};
use op2_airfoil::{AirfoilLoops, FlowConstants, MeshBuilder, Simulation, SyncStrategy};
use op2_core::{Layout, ParLoop};
use op2_hpx::{make_executor, BackendKind, Op2Runtime};
use serde::Value;
use std::sync::Arc;

/// Channel mesh size (cells): big enough that cache locality dominates,
/// small enough for CI.
const MESH: (usize, usize) = (96, 48);
/// Seed for the bad-ordering shuffle of the base mesh.
const SHUFFLE_SEED: u64 = 42;
/// March iterations per timed repeat (each runs 1×save + 2× the stage loops).
const ITERS: usize = 20;
/// Repeats; per-kernel times are min-of-repeats.
const REPEATS: usize = 3;
/// Backend-sweep march length and thread count.
const BACKEND_ITERS: usize = 10;
const BACKEND_THREADS: usize = 4;
const PART_SIZE: usize = 64;

const KERNELS: [&str; 5] = ["save_soln", "adt_calc", "res_calc", "bres_calc", "update"];

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// FNV-1a over the final state bits, mapped back to the original cell
/// numbering so renumbered and unrenumbered runs hash comparable data.
fn digest(mesh: &Mesh) -> u64 {
    mesh.unrenumbered_q()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
            (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn build(base: &MeshData, consts: &FlowConstants, opts: MeshOptions) -> Mesh {
    let mesh = Mesh::from_data_opts(base.clone(), consts, &opts);
    mesh.add_pulse(1.0, 0.5, 0.25, 0.2, consts);
    mesh
}

/// Run one loop over its full set in ascending order (exactly what the
/// serial executor does), returning elapsed ns.
fn run_loop(l: &ParLoop) -> u64 {
    let mut gbl = vec![0.0f64; l.gbl_dim()];
    let t0 = Instant::now();
    l.run_span(0..l.set().size(), &mut gbl);
    t0.elapsed().as_nanos() as u64
}

/// One timed serial march; returns accumulated ns per kernel (issue order).
fn march(loops: &AirfoilLoops) -> [u64; 5] {
    let mut ns = [0u64; 5];
    for _iter in 0..ITERS {
        ns[0] += run_loop(&loops.save_soln);
        for _k in 0..2 {
            ns[1] += run_loop(&loops.adt_calc);
            ns[2] += run_loop(&loops.res_calc);
            ns[3] += run_loop(&loops.bres_calc);
            ns[4] += run_loop(&loops.update);
        }
    }
    ns
}

/// Measure one (layout × renumbered) arm: min-of-repeats per kernel, each
/// repeat on a freshly built mesh.
fn measure_arm(base: &MeshData, consts: &FlowConstants, opts: MeshOptions) -> Value {
    let mut best = [u64::MAX; 5];
    let mut dig = 0u64;
    for _ in 0..REPEATS {
        let mesh = build(base, consts, opts);
        let loops = AirfoilLoops::new(&mesh, consts);
        let ns = march(&loops);
        for (b, n) in best.iter_mut().zip(ns) {
            *b = (*b).min(n);
        }
        dig = digest(&mesh);
    }
    let total: u64 = best.iter().sum();
    println!(
        "{:<7} ren={:<5} total {:>9.3} ms  res_calc {:>9.3} ms  update {:>9.3} ms",
        opts.layout.label(),
        opts.renumber,
        total as f64 / 1e6,
        best[2] as f64 / 1e6,
        best[4] as f64 / 1e6,
    );
    obj(vec![
        ("layout", Value::Str(opts.layout.label())),
        ("renumbered", Value::Bool(opts.renumber)),
        (
            "kernels",
            obj(KERNELS
                .iter()
                .zip(best)
                .map(|(k, ns)| (*k, Value::UInt(ns)))
                .collect()),
        ),
        ("total_ns", Value::UInt(total)),
        ("digest", Value::Str(format!("{dig:#018x}"))),
    ])
}

/// Full-march wall time of one arm on one backend (best-of-REPEATS), via the
/// real executors so plans, coloring, and futurization are all in the path.
fn backend_run(base: &MeshData, consts: &FlowConstants, kind: BackendKind, opts: MeshOptions) -> Value {
    let mut best_ns = u64::MAX;
    let mut dig = 0u64;
    for _ in 0..REPEATS {
        let mesh = build(base, consts, opts);
        let rt = Arc::new(Op2Runtime::new(BACKEND_THREADS, PART_SIZE));
        let exec = make_executor(kind, rt);
        let sim = Simulation::new(mesh, consts, exec, SyncStrategy::for_backend(kind));
        let t0 = Instant::now();
        sim.run(BACKEND_ITERS, BACKEND_ITERS);
        best_ns = best_ns.min(t0.elapsed().as_nanos() as u64);
        dig = digest(sim.mesh());
    }
    println!(
        "  {:<18} {:<7} ren={:<5} best {:>9.3} ms (digest {dig:#018x})",
        kind.to_string(),
        opts.layout.label(),
        opts.renumber,
        best_ns as f64 / 1e6,
    );
    obj(vec![
        ("backend", Value::Str(kind.to_string())),
        ("layout", Value::Str(opts.layout.label())),
        ("renumbered", Value::Bool(opts.renumber)),
        ("wall_ns", Value::UInt(best_ns)),
        ("digest", Value::Str(format!("{dig:#018x}"))),
    ])
}

fn main() {
    let out_dir = std::env::args().nth(1).unwrap_or_else(|| "results".into());
    std::fs::create_dir_all(&out_dir).expect("create output dir");

    let consts = FlowConstants::default();
    let (imax, jmax) = MESH;
    let (base, _) = MeshBuilder::channel(imax, jmax).data().shuffled(SHUFFLE_SEED);
    println!(
        "# airfoil {imax}x{jmax} shuffled({SHUFFLE_SEED}), {ITERS} iters, min of {REPEATS}"
    );

    let layouts = [Layout::Aos, Layout::Soa, Layout::AoSoA { block: 8 }];
    let mut arms = Vec::new();
    for renumber in [false, true] {
        for layout in layouts {
            arms.push(measure_arm(&base, &consts, MeshOptions { layout, renumber }));
        }
    }

    println!("# backends: {BACKEND_ITERS}-iter march, {BACKEND_THREADS} threads, default vs tuned arm");
    let default_arm = MeshOptions::default();
    let tuned_arm = MeshOptions {
        layout: Layout::Soa,
        renumber: true,
    };
    let mut backend_runs = Vec::new();
    for kind in BackendKind::all() {
        backend_runs.push(backend_run(&base, &consts, kind, default_arm));
        backend_runs.push(backend_run(&base, &consts, kind, tuned_arm));
    }

    let doc = obj(vec![
        ("bench", Value::Str("bench_kernel".into())),
        ("mesh", Value::Str(format!("{imax}x{jmax}"))),
        ("shuffle_seed", Value::UInt(SHUFFLE_SEED)),
        ("iters", Value::UInt(ITERS as u64)),
        ("repeats", Value::UInt(REPEATS as u64)),
        ("arms", Value::Array(arms)),
        (
            "backends",
            obj(vec![
                ("iters", Value::UInt(BACKEND_ITERS as u64)),
                ("threads", Value::UInt(BACKEND_THREADS as u64)),
                ("runs", Value::Array(backend_runs)),
            ]),
        ),
    ]);
    let path = format!("{out_dir}/BENCH_kernel.json");
    std::fs::write(&path, serde_json::to_string(&doc).expect("serialize"))
        .expect("write BENCH_kernel.json");
    println!("-> {path}");
}
