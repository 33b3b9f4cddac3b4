//! Ablation: element ordering vs plan quality (DESIGN.md §5 — the locality
//! lever OP2 pulls with mesh renumbering).
//!
//! The airfoil channel mesh's edges are generated in a locality-friendly
//! order. Shuffling them scatters each block's write footprint and the
//! greedy coloring degrades; reordering edges by the RCM rank of their
//! first cell restores it.

use op2_airfoil::MeshBuilder;
use op2_core::renumber::{
    adjacency_from_pair_map, bandwidth, invert_permutation, order_by_key, rcm_order,
};
use op2_core::{arg_indirect, Access, Dat, Map, ParLoop, Plan, Set};

fn plan_stats(edge_cells: &[u32], ncells: usize, part: usize) -> (u32, usize) {
    let nedges = edge_cells.len() / 2;
    let edges = Set::new("edges", nedges);
    let cells = Set::new("cells", ncells);
    let m = Map::new("pecell", &edges, &cells, 2, edge_cells.to_vec());
    let res = Dat::filled("res", &cells, 1, 0.0f64);
    let l = ParLoop::build("inc", &edges)
        .arg(arg_indirect(&res, 0, &m, Access::Inc))
        .arg(arg_indirect(&res, 1, &m, Access::Inc))
        .kernel(|_, _| {});
    let plan = Plan::build(l.set(), l.args(), part);
    plan.validate(l.args()).expect("coloring invariant");
    (plan.ncolors, plan.nblocks())
}

fn main() {
    let data = MeshBuilder::channel(120, 60).data();
    let ncells = data.cell_nodes.len() / 4;
    let nedges = data.edge_cells.len() / 2;
    let part = 128;

    // Natural generator order.
    let (colors_nat, nblocks) = plan_stats(&data.edge_cells, ncells, part);

    // Deterministically shuffled edge order.
    let mut order: Vec<usize> = (0..nedges).collect();
    let mut state = 0xdeadbeefu64;
    for i in (1..nedges).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    let shuffled: Vec<u32> = order
        .iter()
        .flat_map(|&e| [data.edge_cells[2 * e], data.edge_cells[2 * e + 1]])
        .collect();
    let (colors_shuffled, _) = plan_stats(&shuffled, ncells, part);

    // RCM-based recovery: order edges by the RCM rank of their first cell
    // (a stable counting sort, so ties keep the shuffled order).
    let edges_set = Set::new("edges", nedges);
    let cells_set = Set::new("cells", ncells);
    let m = Map::new("pecell", &edges_set, &cells_set, 2, shuffled.clone());
    let adj = adjacency_from_pair_map(&m);
    let perm = rcm_order(&adj);
    let rank_of_cell = invert_permutation(&perm);
    let identity: Vec<u32> = (0..ncells as u32).collect();
    let bw_before = bandwidth(&adj, &identity);
    let bw_after = bandwidth(&adj, &perm);
    let first_rank: Vec<u32> = shuffled
        .chunks_exact(2)
        .map(|pair| rank_of_cell[pair[0] as usize])
        .collect();
    let recovered: Vec<u32> = order_by_key(&first_rank)
        .iter()
        .flat_map(|&e| [shuffled[2 * e as usize], shuffled[2 * e as usize + 1]])
        .collect();
    let (colors_rcm, _) = plan_stats(&recovered, ncells, part);

    println!("# Ablation — edge ordering vs plan coloring (channel 120x60, part {part})");
    println!("{:<28} {:>8} {:>8}", "ordering", "colors", "blocks");
    println!("{:<28} {:>8} {:>8}", "generator (natural)", colors_nat, nblocks);
    println!("{:<28} {:>8} {:>8}", "shuffled", colors_shuffled, nblocks);
    println!("{:<28} {:>8} {:>8}", "RCM-recovered", colors_rcm, nblocks);
    println!();
    println!("cell-graph bandwidth: shuffled-labels {bw_before} -> RCM {bw_after}");
    assert!(colors_shuffled > colors_nat, "shuffling must hurt coloring");
    assert!(colors_rcm < colors_shuffled, "RCM must recover coloring");
}
