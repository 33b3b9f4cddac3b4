//! Workload extraction: per-block task costs from the real mesh, plans, and
//! coloring — Airfoil's in [`airfoil_workload`], any app's from its
//! [`Step`] through [`IterationSpec::of`].
//!
//! The simulator's *structure* is not synthetic: block counts, block sizes,
//! and the color partition come from [`op2_core::Plan`] built against the
//! actual generated mesh — the same plans the real backends execute — and
//! loop order from the step's declared reads and writes. Only the
//! per-element kernel costs are model constants (calibrated relative
//! weights of the five kernels).

use op2_airfoil::{AirfoilLoops, FlowConstants, MeshBuilder};
use op2_core::{PlanCache, Step};

/// Modeled per-element cost of each kernel, ns (relative weights matter more
/// than absolute values; they roughly track the kernels' flop counts).
pub mod kernel_cost {
    /// `save_soln`: 4 copies.
    pub const SAVE_NS: u64 = 25;
    /// `adt_calc`: 4 faces, one sqrt each.
    pub const ADT_NS: u64 = 90;
    /// `res_calc`: full flux, two cells.
    pub const RES_NS: u64 = 140;
    /// `bres_calc`: flux against the far-field state.
    pub const BRES_NS: u64 = 110;
    /// `update`: 4 multiply-adds + reduction.
    pub const UPDATE_NS: u64 = 55;
}

/// One loop's schedulable structure: block costs grouped by plan color, and
/// the dats whose versions order it against other loops.
#[derive(Debug, Clone)]
pub struct LoopSpec {
    /// Loop name (diagnostics).
    pub name: String,
    /// `colors[c]` lists the cost (ns) of every block of color `c`.
    pub colors: Vec<Vec<u64>>,
    /// Total nominal work, ns.
    pub total_ns: u64,
    /// Ids of the dats and globals the loop reads ([`Step::keys`]).
    pub reads: Vec<u64>,
    /// Ids of the dats and globals the loop writes ([`Step::keys`]).
    pub writes: Vec<u64>,
}

impl LoopSpec {
    /// Loop `i` of `step` under its plan of mini-partition size `part` from
    /// `plans`, every element costing `per_elem_ns`.
    pub fn of(step: &Step, i: usize, plans: &PlanCache, part: usize, per_elem_ns: u64) -> LoopSpec {
        let loop_ = &step.loops()[i];
        let (reads, writes) = step.keys(i);
        let plan = plans.get(loop_.set(), loop_.args(), part);
        let cost = |b: &u32| plan.blocks[*b as usize].len() as u64 * per_elem_ns;
        let colors: Vec<Vec<u64>> = plan.color_blocks.iter().map(|c| c.iter().map(cost).collect()).collect();
        let total_ns = colors.iter().flatten().sum();
        LoopSpec {
            name: loop_.name().to_owned(),
            colors,
            total_ns,
            reads,
            writes,
        }
    }

    /// Number of blocks across all colors.
    pub fn nblocks(&self) -> usize {
        self.colors.iter().map(Vec::len).sum()
    }
}

/// One iteration of an application, ready for graph building.
#[derive(Debug, Clone)]
pub struct IterationSpec {
    /// The iteration's loop invocations, in program order.
    pub program: Vec<LoopSpec>,
    /// Cell count of the underlying mesh.
    pub ncells: usize,
}

impl IterationSpec {
    /// One `step` of an app whose mesh has `ncells` cells, under plans of
    /// mini-partition size `part` taken from `plans` (a loop the step runs
    /// twice is colored once), a loop named `name` costing `cost(name)` per
    /// element.
    pub fn of(
        step: &Step,
        ncells: usize,
        plans: &PlanCache,
        part: usize,
        cost: impl Fn(&str) -> u64,
    ) -> Self {
        let loops = step.loops().iter().enumerate();
        let program = loops.map(|(i, l)| LoopSpec::of(step, i, plans, part, cost(l.name()))).collect();
        IterationSpec { program, ncells }
    }

    /// Total nominal work of one iteration, ns.
    pub fn iteration_work_ns(&self) -> u64 {
        self.program.iter().map(|l| l.total_ns).sum()
    }
}

/// Build the Airfoil workload for an `imax × jmax` channel mesh with
/// mini-partition size `part`: Airfoil's step ([`AirfoilLoops::step`]).
pub fn airfoil_workload(imax: usize, jmax: usize, part: usize) -> IterationSpec {
    airfoil_with(&PlanCache::new(), imax, jmax, part)
}

fn airfoil_with(plans: &PlanCache, imax: usize, jmax: usize, part: usize) -> IterationSpec {
    let consts = FlowConstants::default();
    let mesh = MeshBuilder::channel(imax, jmax).build(&consts);
    let step = AirfoilLoops::new(&mesh, &consts).step();
    IterationSpec::of(&step, mesh.ncells(), plans, part, |name| match name {
        "save_soln" => kernel_cost::SAVE_NS,
        "adt_calc" => kernel_cost::ADT_NS,
        "res_calc" => kernel_cost::RES_NS,
        "bres_calc" => kernel_cost::BRES_NS,
        "update" => kernel_cost::UPDATE_NS,
        other => unreachable!("Airfoil has no loop {other}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_structure_matches_mesh() {
        let spec = airfoil_workload(40, 20, 64);
        assert_eq!(spec.ncells, 800);
        let names: Vec<&str> = spec.program.iter().map(|l| l.name.as_str()).collect();
        assert_eq!(names[..5], ["save_soln", "adt_calc", "res_calc", "bres_calc", "update"]);
        assert_eq!(names[1..5], names[5..]);
        let [save, adt, res, _, update] = &spec.program[..5] else { unreachable!() };
        // Direct loops: one color.
        assert_eq!(save.colors.len(), 1);
        assert_eq!(update.colors.len(), 1);
        assert_eq!(adt.colors.len(), 1, "adt only reads indirectly");
        // res_calc needs multiple colors (shared cells between edge blocks).
        assert!(res.colors.len() > 1);
        // Work is positive and res dominates (most elements × highest cost).
        assert!(res.total_ns > save.total_ns);
        assert!(spec.iteration_work_ns() > 0);
    }

    /// Airfoil's step runs 9 loops, 5 of them distinct: each is colored
    /// once.
    #[test]
    fn each_distinct_loop_is_colored_once() {
        let plans = PlanCache::new();
        let spec = airfoil_with(&plans, 40, 20, 64);
        assert_eq!(spec.program.len(), 9);
        assert_eq!(plans.builds(), 5);
    }

    #[test]
    fn block_costs_sum_to_set_size_times_cost() {
        let spec = airfoil_workload(32, 16, 50);
        assert_eq!(
            spec.program[0].total_ns,
            (32 * 16) as u64 * kernel_cost::SAVE_NS
        );
        let nedges = (31 * 16 + 32 * 15) as u64;
        assert_eq!(spec.program[2].total_ns, nedges * kernel_cost::RES_NS);
    }
}
