//! Quickstart: declare a tiny unstructured mesh, write two parallel loops,
//! and run them under the dataflow backend.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! The mesh is a 1-D chain: `cells[0..N]` connected by `edges[0..N-1]`
//! (edge `e` joins cells `e` and `e+1`). Loop 1 initializes a per-cell
//! value from the cell positions; loop 2 gathers each edge's endpoint values
//! into both endpoint cells (`OP_INC`). The dataflow executor orders the two
//! loops automatically from their declared access modes.

use std::sync::Arc;

use op2_core::{Dat, Map, ParLoop, Set};
use op2_hpx::{DataflowExecutor, Executor, Op2Runtime};

fn main() {
    const N: usize = 10_000;

    // --- Declare the mesh (op_decl_set / op_decl_map / op_decl_dat) -------
    let cells = Set::new("cells", N);
    let edges = Set::new("edges", N - 1);
    let mut table = Vec::with_capacity((N - 1) * 2);
    for e in 0..(N - 1) as u32 {
        table.push(e);
        table.push(e + 1);
    }
    let pecell = Map::new("pecell", &edges, &cells, 2, table);

    let x = Dat::new("x", &cells, 1, (0..N).map(|c| c as f64).collect());
    let value = Dat::filled("value", &cells, 1, 0.0f64);
    let acc = Dat::filled("acc", &cells, 1, 0.0f64);

    // --- Loop 1: value[c] = x[c] (direct read, direct write) --------------
    // Each argument is declared once, with its access kind and its width as a
    // compile-time constant (`read::<1>`); the kernel gets exactly those
    // values and the framework stores what it wrote.
    let init = ParLoop::build("init", &cells)
        .args((x.read::<1>(), value.write::<1>()))
        .kernel(|(x, v), _| *v = *x);

    // --- Loop 2: acc[c] += value[left] + value[right] per edge (OP_INC) ---
    // `.via::<2>(&pecell)` reaches both ends of an edge: the kernel gets one
    // value per map slot, and each increment is added after it returns.
    let gather = ParLoop::build("gather", &edges)
        .gbl_inc(1)
        .args((value.read::<1>().via::<2>(&pecell), acc.inc::<1>().via::<2>(&pecell)))
        .kernel(|([[left], [right]], [[acc_l], [acc_r]]), gbl| {
            let s = *left + *right;
            *acc_l = s;
            *acc_r = s;
            gbl[0] += s;
        });

    // --- Execute under the dataflow backend -------------------------------
    let rt = Arc::new(Op2Runtime::with_threads(
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    ));
    let exec = DataflowExecutor::new(rt);

    let _ = exec.execute(&init); // returns immediately
    let h = exec.execute(&gather); // waits for `init` via the dependency DAG
    let total = h.get()[0];
    exec.fence();

    // Each edge contributes (e + e+1) to the reduction.
    let expect: f64 = (0..N - 1).map(|e| (2 * e + 1) as f64).sum();
    println!("edge-sum reduction: {total} (expected {expect})");
    assert_eq!(total, expect);

    // Interior cell c accumulated (c-1 + c) + (c + c+1) = 4c.
    let acc_data = acc.to_vec();
    assert_eq!(acc_data[5], 20.0);
    println!("quickstart OK: {} cells, {} edges", N, N - 1);
}
