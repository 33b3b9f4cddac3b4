//! # op2-bench — the paper-reproduction pipeline
//!
//! Figures, ablations, the report and trace export; performance is measured
//! by `benchmark/` (`bench_e2e`), not here. One binary per figure of the
//! paper's evaluation section (run with
//! `cargo run -p op2-bench --release --bin figNN`):
//!
//! | binary | regenerates | series |
//! |---|---|---|
//! | `fig15` | Fig. 15 | execution time vs threads: omp, for_each, async, dataflow |
//! | `fig16` | Fig. 16 | strong-scaling speedup: omp vs `for_each(par)` auto vs static chunk |
//! | `fig17` | Fig. 17 | strong-scaling speedup: omp vs `async`+`for_each(par(task))` |
//! | `fig18` | Fig. 18 | strong-scaling speedup: omp vs `dataflow` |
//! | `fig19` | Fig. 19 | weak-scaling efficiency of all four methods |
//! | `summary` | §IV/§V text | 1-thread parity; 32-thread gains (async ≈ +5 %, dataflow ≈ +21 %) |
//! | `realrun` | — | runs the *real* backends on host threads (physical check) |
//! | `ablation_partsize` | DESIGN §5.2 | plan block-size sweep |
//! | `ablation_chunks` | DESIGN §5.1/5.4 | chunking & granularity sweep |
//!
//! Scaling curves are produced by the deterministic `op2-simsched` machine
//! model (this host does not have 32 hardware threads); `realrun`,
//! `breakdown --real` and `trace_export --real` exercise the real runtime.

pub mod realtrace;
pub mod svg;

use op2_simsched::{MachineParams, ScalePoint, SimMethod};

/// Standard mesh used by the figure binaries (the paper's `new_grid.dat` is
/// ~720k cells; 200×200 = 40k cells keeps regeneration fast while preserving
/// the block/color structure; override with `OP2_MESH=IMAXxJMAX`).
pub fn figure_mesh() -> (usize, usize) {
    if let Ok(s) = std::env::var("OP2_MESH") {
        if let Some(dims) = parse_mesh(&s) {
            return dims;
        }
        eprintln!("warning: ignoring malformed OP2_MESH={s} (expected IMAXxJMAX)");
    }
    (200, 200)
}

/// `IMAXxJMAX` with both dimensions positive (a zero-cell mesh has no
/// blocks to schedule).
fn parse_mesh(s: &str) -> Option<(usize, usize)> {
    let (a, b) = s.split_once('x')?;
    let (i, j): (usize, usize) = (a.parse().ok()?, b.parse().ok()?);
    (i > 0 && j > 0).then_some((i, j))
}

/// Mini-partition size used by the figure binaries.
pub const FIGURE_PART_SIZE: usize = 128;
/// Simulated time-march iterations per measurement.
pub const FIGURE_ITERS: usize = 3;

/// Render a series table: one row per thread count, one column per method.
pub fn print_table(title: &str, value_name: &str, points: &[ScalePoint], value: impl Fn(&ScalePoint) -> f64) {
    println!("# {title}");
    let mut methods: Vec<&str> = Vec::new();
    let mut threads: Vec<usize> = Vec::new();
    for p in points {
        if !methods.contains(&p.method.as_str()) {
            methods.push(&p.method);
        }
        if !threads.contains(&p.threads) {
            threads.push(p.threads);
        }
    }
    threads.sort_unstable();
    print!("{:>8}", "threads");
    for m in &methods {
        print!(" {:>16}", format!("{m}/{value_name}"));
    }
    println!();
    for t in threads {
        print!("{t:>8}");
        for m in &methods {
            let p = points
                .iter()
                .find(|p| p.method == *m && p.threads == t)
                .expect("grid complete");
            print!(" {:>16.4}", value(p));
        }
        println!();
    }
    println!();
}

/// Emit the same data as machine-readable CSV on stderr-free stdout section.
pub fn print_csv(points: &[ScalePoint]) {
    println!("method,threads,time_ns,speedup,efficiency");
    for p in points {
        println!(
            "{},{},{},{:.6},{:.6}",
            p.method, p.threads, p.time_ns, p.speedup, p.efficiency
        );
    }
    println!();
}

/// Thread counts for the figures (the paper's x-axis).
pub fn threads() -> Vec<usize> {
    op2_simsched::scaling::paper_thread_counts()
}

/// The default machine model, with a note for reproducibility.
pub fn machine() -> MachineParams {
    MachineParams::default()
}

/// Methods for Fig. 15/19 (the four compared implementations).
pub fn fig15_methods() -> Vec<SimMethod> {
    vec![
        SimMethod::OmpForkJoin,
        SimMethod::ForEachStatic,
        SimMethod::AsyncFutures,
        SimMethod::Dataflow,
    ]
}

#[cfg(test)]
mod tests {
    use super::parse_mesh;

    #[test]
    fn mesh_override_rejects_malformed_and_non_positive_dimensions() {
        assert_eq!(parse_mesh("64x32"), Some((64, 32)));
        for bad in ["0x5", "5x0", "0x0", "-3x4", "12", "x", "axb", ""] {
            assert_eq!(parse_mesh(bad), None, "{bad:?}");
        }
    }
}
