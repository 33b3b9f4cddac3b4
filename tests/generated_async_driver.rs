//! Runtime validation of the *async-target* translator output: the derived
//! `.wait()` placement must be sufficient for correctness on the real
//! `AsyncExecutor` — the generated program's results must match the
//! blocking fork-join execution bitwise. And the checked-in translator
//! outputs — the async and dataflow drivers and the dependency graph — must
//! be what the translator prints today.

use std::sync::Arc;

use op2_airfoil::{kernels, FlowConstants, MeshBuilder, Simulation, SyncStrategy};
use op2_codegen::{emit_dot, parse, translate, Target};
use op2_hpx::{make_executor, BackendKind, Op2Runtime};

#[path = "../examples/generated/airfoil_async.rs"]
mod generated;

const AIRFOIL_OP2RS: &str = include_str!("../crates/codegen/tests/data/airfoil.op2rs");

/// `examples/generated/airfoil_{async,dataflow}.rs` and
/// `results/airfoil_deps.dot` equal a fresh translator run byte for byte.
#[test]
fn committed_generated_files_are_current() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let dot = emit_dot(&parse(AIRFOIL_OP2RS).unwrap());
    for (path, fresh) in [
        ("examples/generated/airfoil_async.rs", translate(AIRFOIL_OP2RS, Target::Async).unwrap()),
        ("examples/generated/airfoil_dataflow.rs", translate(AIRFOIL_OP2RS, Target::Dataflow).unwrap()),
        ("results/airfoil_deps.dot", dot),
    ] {
        let committed = std::fs::read_to_string(root.join(path)).unwrap();
        assert_eq!(fresh, committed, "{path} is stale; regenerate with op2rs-gen");
    }
}

#[test]
fn generated_async_driver_matches_blocking_bitwise() {
    let consts = FlowConstants::default();
    let builder = MeshBuilder::channel(32, 16);
    let iters = 8;

    // Shared pulse initial condition.
    let ref_mesh = builder.build(&consts);
    ref_mesh.add_pulse(1.0, 0.5, 0.25, 0.2, &consts);
    let q0 = ref_mesh.p_q.to_vec();

    // --- Generated async driver -------------------------------------------
    let data = builder.data();
    let ncells = data.cell_nodes.len() / 4;
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
        p_q: q0.clone(),
        p_qold: vec![0.0; ncells * 4],
        p_adt: vec![0.0; ncells],
        p_res: vec![0.0; ncells * 4],
        p_bound: data.bound.clone(),
    });

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
        move |e, _| unsafe {
            let x = |j| xv.load::<2>(pcell.at(e, j));
            let mut adt = [0.0];
            kernels::adt_calc(&x(0), &x(1), &x(2), &x(3), &qv.load::<4>(e), &mut adt, &c);
            adtv.store(e, adt);
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

    let rt = Arc::new(Op2Runtime::new(3, 64));
    let exec = make_executor(BackendKind::Async, rt);
    let mut gen_rms = Vec::new();
    for _ in 0..iters {
        let handles = generated::run_program(exec.as_ref(), &loops);
        let mut handles = handles;
        let h8 = handles.remove(8);
        let h4 = handles.remove(4);
        gen_rms.push(((h4.get()[0] + h8.get()[0]) / ncells as f64).sqrt());
    }
    exec.fence();
    let gen_q: Vec<u64> = decls.p_q.to_vec().into_iter().map(f64::to_bits).collect();

    // --- Blocking fork-join oracle -----------------------------------------
    let mesh = builder.build(&consts);
    mesh.p_q.data_mut().copy_from_slice(&q0);
    let rt = Arc::new(Op2Runtime::new(3, 64));
    let exec = make_executor(BackendKind::ForkJoin, rt);
    let sim = Simulation::new(mesh, &consts, exec, SyncStrategy::Blocking);
    let ref_rms: Vec<f64> = sim.run(iters, 1).into_iter().map(|(_, r)| r).collect();
    let ref_q: Vec<u64> = sim
        .mesh()
        .p_q
        .to_vec()
        .into_iter()
        .map(f64::to_bits)
        .collect();

    assert_eq!(gen_q, ref_q, "state diverged");
    for (i, (g, r)) in gen_rms.iter().zip(&ref_rms).enumerate() {
        assert_eq!(g.to_bits(), r.to_bits(), "rms diverged at iter {}", i + 1);
    }
}
