//! Run the **translator-generated** Airfoil driver and verify it against the
//! hand-written application — the end-to-end test of the `op2rs-gen`
//! source-to-source translator (the paper's modified OP2 code generator).
//!
//! `examples/generated/airfoil_dataflow.rs` was produced by:
//!
//! ```text
//! cargo run -p op2-codegen --bin op2rs-gen -- \
//!     --target dataflow crates/codegen/tests/data/airfoil.op2rs \
//!     -o examples/generated/airfoil_dataflow.rs
//! ```

use std::sync::Arc;

use op2_airfoil::{kernels, FlowConstants, MeshBuilder, Simulation, SyncStrategy};
use op2_hpx::{make_executor, BackendKind, Op2Runtime};

#[path = "generated/airfoil_dataflow.rs"]
mod generated;

fn main() {
    let consts = FlowConstants::default();
    let builder = MeshBuilder::channel(48, 24);
    let iters = 20;

    // Shared initial condition: free stream + a pressure pulse (so the march
    // does real work and the RMS comparison is non-trivial).
    let reference_mesh = builder.build(&consts);
    reference_mesh.add_pulse(1.0, 0.5, 0.25, 0.2, &consts);
    let q0_shared = reference_mesh.p_q.to_vec();

    // ---- Generated path --------------------------------------------------
    let data = builder.data();
    let ncells = data.cell_nodes.len() / 4;
    let q0 = q0_shared.clone();
    let decls = generated::declare(generated::AirfoilInputs {
        nodes_size: data.coords.len() / 2,
        edges_size: data.edge_nodes.len() / 2,
        bedges_size: data.bedge_nodes.len() / 2,
        cells_size: ncells,
        pedge: data.edge_nodes.clone(),
        pecell: data.edge_cells.clone(),
        pbedge: data.bedge_nodes.clone(),
        pbecell: data.bedge_cells.clone(),
        pcell: data.cell_nodes.clone(),
        p_x: data.coords.clone(),
        p_q: q0,
        p_qold: vec![0.0; ncells * 4],
        p_adt: vec![0.0; ncells],
        p_res: vec![0.0; ncells * 4],
        p_bound: data.bound.clone(),
    });

    // Kernels: the same pure functions the hand-written app uses, wired to
    // the generated declarations.
    let c = consts;
    let (xv, qv, qoldv, adtv, resv, boundv) = (
        decls.p_x.view(),
        decls.p_q.view(),
        decls.p_qold.view(),
        decls.p_adt.view(),
        decls.p_res.view(),
        decls.p_bound.view(),
    );
    let (pcell, pedge, pecell, pbedge, pbecell) = (
        decls.pcell.clone(),
        decls.pedge.clone(),
        decls.pecell.clone(),
        decls.pbedge.clone(),
        decls.pbecell.clone(),
    );
    let loops = generated::AirfoilLoops::new(
        &decls,
        move |e, _| unsafe {
            let mut qold = [0.0; 4];
            kernels::save_soln(&qv.load::<4>(e), &mut qold);
            qoldv.store(e, qold);
        },
        {
            let pcell = pcell.clone();
            move |e, _| unsafe {
                let x = |j| xv.load::<2>(pcell.at(e, j));
                let mut adt = [0.0];
                kernels::adt_calc(&x(0), &x(1), &x(2), &x(3), &qv.load::<4>(e), &mut adt, &c);
                adtv.store(e, adt);
            }
        },
        move |e, _| unsafe {
            let (c1, c2) = (pecell.at(e, 0), pecell.at(e, 1));
            let (mut r1, mut r2) = ([0.0; 4], [0.0; 4]);
            kernels::res_calc(
                &xv.load::<2>(pedge.at(e, 0)),
                &xv.load::<2>(pedge.at(e, 1)),
                &qv.load::<4>(c1),
                &qv.load::<4>(c2),
                adtv.get(c1, 0),
                adtv.get(c2, 0),
                &mut r1,
                &mut r2,
                &c,
            );
            resv.add_vec(c1, r1);
            resv.add_vec(c2, r2);
        },
        move |e, _| unsafe {
            let c1 = pbecell.at(e, 0);
            let mut r1 = [0.0; 4];
            kernels::bres_calc(
                &xv.load::<2>(pbedge.at(e, 0)),
                &xv.load::<2>(pbedge.at(e, 1)),
                &qv.load::<4>(c1),
                adtv.get(c1, 0),
                &mut r1,
                boundv.get(e, 0),
                &c,
            );
            resv.add_vec(c1, r1);
        },
        move |e, gbl| unsafe {
            let mut q = [0.0; 4];
            let mut res = resv.load::<4>(e);
            kernels::update(&qoldv.load::<4>(e), &mut q, &mut res, adtv.get(e, 0), &mut gbl[0]);
            qv.store(e, q);
            resv.store(e, res);
        },
    );

    let rt = Arc::new(Op2Runtime::new(2, 128));
    let exec = make_executor(BackendKind::Dataflow, rt);
    let mut gen_rms = Vec::new();
    for _ in 0..iters {
        let handles = generated::run_program(exec.as_ref(), &loops);
        // Per iteration, handles 4 and 8 are the two `update` invocations.
        let mut handles = handles;
        let h8 = handles.remove(8);
        let h4 = handles.remove(4);
        gen_rms.push(((h4.get()[0] + h8.get()[0]) / ncells as f64).sqrt());
    }
    exec.fence();

    // ---- Hand-written path ------------------------------------------------
    let mesh = builder.build(&consts);
    mesh.p_q.data_mut().copy_from_slice(&q0_shared);
    let rt = Arc::new(Op2Runtime::new(2, 128));
    let exec = make_executor(BackendKind::Dataflow, rt);
    let sim = Simulation::new(mesh, &consts, exec, SyncStrategy::Dataflow);
    let hand: Vec<f64> = sim.run(iters, 1).into_iter().map(|(_, r)| r).collect();

    // ---- Compare ------------------------------------------------------------
    println!("iter  generated-rms      handwritten-rms");
    for (i, (g, h)) in gen_rms.iter().zip(&hand).enumerate() {
        if i % 5 == 0 || i == iters - 1 {
            println!("{:>4}  {g:.10e}  {h:.10e}", i + 1);
        }
        assert_eq!(
            g.to_bits(),
            h.to_bits(),
            "generated and hand-written drivers diverged at iter {}",
            i + 1
        );
    }
    println!("generated driver matches the hand-written application bitwise ✓");
}
