//! The dependency graph of one Airfoil iteration in Graphviz DOT, read from
//! Airfoil's `Step` through the dependency rule: `results/airfoil_deps.dot`.
use op2_airfoil::{AirfoilLoops, FlowConstants, MeshBuilder};

fn main() {
    // The graph depends on the declared accesses alone, not on the mesh size.
    let consts = FlowConstants::default();
    let mesh = MeshBuilder::channel(8, 4).build(&consts);
    print!("{}", AirfoilLoops::new(&mesh, &consts).step().dot());
}
