//! Heat diffusion on an irregular graph — a second domain application
//! showing the OP2 API is not Airfoil-specific.
//!
//! ```text
//! cargo run --release --example heat_unstructured -- [BACKEND] [STEPS]
//! ```
//!
//! Nodes carry a temperature; every graph edge conducts heat between its
//! endpoints (`flux` loop, `OP_INC`), then an explicit update applies the
//! accumulated flux (`apply` loop, direct). With a connected graph the
//! temperature field converges to the mean — which the example verifies.
//!
//! The app is its kernels and declarations: one [`Step`] states the loop
//! order, and `run_step` derives every wait the backend's driver needs.

use std::sync::Arc;

use op2_core::{Dat, Map, ParLoop, Set, Step};
use op2_hpx::{make_executor, run_step, BackendKind, Op2Runtime, SyncStrategy};

/// Deterministic pseudo-random graph: a ring (keeps it connected) plus
/// skip links, `extra` per node.
fn ring_with_skips(n: usize, extra: usize) -> Vec<u32> {
    let mut table = Vec::new();
    for i in 0..n as u32 {
        table.push(i);
        table.push((i + 1) % n as u32);
    }
    // xorshift for reproducible skip links without external crates.
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for i in 0..n as u32 {
        for _ in 0..extra {
            let j = (rng() % n as u64) as u32;
            if j != i {
                table.push(i);
                table.push(j);
            }
        }
    }
    table
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let backend = args
        .first()
        .map(|s| BackendKind::parse(s).unwrap_or_else(|| panic!("unknown backend `{s}`")))
        .unwrap_or(BackendKind::Dataflow);
    let steps: usize = args.get(1).map_or(400, |s| s.parse().expect("steps"));

    const N: usize = 20_000;
    let table = ring_with_skips(N, 2);
    let nedges = table.len() / 2;

    let nodes = Set::new("nodes", N);
    let links = Set::new("links", nedges);
    let ends = Map::new("ends", &links, &nodes, 2, table);

    // Hot spot in an otherwise cold field.
    let mut t0 = vec![0.0f64; N];
    t0[0] = 1000.0;
    let mean = 1000.0 / N as f64;
    let temp = Dat::new("temp", &nodes, 1, t0);
    let flux = Dat::filled("flux", &nodes, 1, 0.0f64);
    let degree = {
        // Conductance normalization: divide by max degree for stability.
        let mut deg = vec![0u32; N];
        for l in 0..nedges {
            deg[ends.at(l, 0)] += 1;
            deg[ends.at(l, 1)] += 1;
        }
        *deg.iter().max().expect("nonempty") as f64
    };
    let k = 0.4 / degree;

    // Typed arguments with compile-time widths, as in `quickstart`: each
    // link reads both end temperatures and increments both end fluxes.
    let conduct = ParLoop::build("conduct", &links)
        .args((temp.read::<1>().via::<2>(&ends), flux.inc::<1>().via::<2>(&ends)))
        .kernel(move |([[ta], [tb]], [[fa], [fb]]), _| {
            let f = k * (*ta - *tb);
            *fa = -f;
            *fb = f;
        });

    let apply = ParLoop::build("apply", &nodes)
        .gbl_inc(1)
        .args((flux.rw::<1>(), temp.rw::<1>()))
        .kernel(|([f], [t]), gbl| {
            *t += *f;
            gbl[0] += *f * *f;
            *f = 0.0;
        });

    let rt = Arc::new(Op2Runtime::new(
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        256,
    ));
    let exec = make_executor(backend, rt);
    let mode = SyncStrategy::for_backend(backend);
    println!("heat: backend={backend} nodes={N} links={nedges} steps={steps}");

    let heat = Step::default().then(&conduct).then(&apply);
    let (mut last_change, mut results) = (f64::INFINITY, Vec::with_capacity(1));
    for step in 1..=steps {
        run_step(exec.as_ref(), &heat, mode, &mut results).unwrap_or_else(|e| e.rethrow());
        if step % (steps / 8).max(1) == 0 || step == steps {
            last_change = results.pop().expect("apply's reduction").get()[0].sqrt();
            println!("  step {step:>6}  |ΔT| = {last_change:.6e}");
        }
    }
    exec.fence();

    // Convergence: change shrinking and field approaching the mean.
    let t = temp.to_vec();
    let max_dev = t.iter().map(|v| (v - mean).abs()).fold(0.0, f64::max);
    let total: f64 = t.iter().sum();
    println!("conservation: total = {total:.6} (expected 1000)");
    println!("max deviation from mean after {steps} steps: {max_dev:.3e}");
    assert!((total - 1000.0).abs() < 1e-6, "heat not conserved");
    assert!(last_change.is_finite());
}
