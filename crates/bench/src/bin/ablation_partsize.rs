//! Ablation: plan mini-partition (block) size vs 32-thread performance —
//! DESIGN.md §5.2. Small blocks → more colors and more dispatch; large
//! blocks → too few chunks to balance (especially in the HT regime).
use op2_bench::*;
use op2_simsched::methods::build_graph;
use op2_simsched::{airfoil_workload, simulate, SimMethod};

fn main() {
    let (imax, jmax) = figure_mesh();
    let m = machine();
    println!("# Ablation — part_size sweep at 32 threads ({imax}x{jmax})");
    println!("{:>10} {:>10} {:>12} {:>12}", "part", "blocks", "omp(ms)", "dataflow(ms)");
    for part in [32usize, 64, 128, 256, 512, 1024, 4096] {
        let spec = airfoil_workload(imax, jmax, part);
        let res_calc = &spec.program[2];
        let run = |meth| {
            simulate(&build_graph(meth, &spec, FIGURE_ITERS, 32, &m), 32, &m).makespan_ns as f64
                / 1e6
        };
        println!(
            "{part:>10} {:>10} {:>12.3} {:>12.3}",
            res_calc.nblocks(),
            run(SimMethod::OmpForkJoin),
            run(SimMethod::Dataflow)
        );
    }
}
