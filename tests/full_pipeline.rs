//! Cross-crate integration: the real backends on the real Airfoil mesh; long
//! marches stay stable and bounded; the simulator's structural claims hold
//! against real plans.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use op2_airfoil::{FlowConstants, MeshBuilder, Simulation, SyncStrategy};
use op2_hpx::{make_executor, BackendKind, DataflowExecutor, Op2Runtime};

/// A longer march (several hundred iterations) under the dataflow backend:
/// numerically stable, and the executor's dependency table stays bounded
/// (reader compaction works).
#[test]
fn long_march_is_stable_and_bounded() {
    let consts = FlowConstants::default();
    let mesh = MeshBuilder::channel(32, 16).build(&consts);
    mesh.add_pulse(1.0, 0.5, 0.3, 0.15, &consts);
    let rt = Arc::new(Op2Runtime::new(2, 64));
    let exec = Box::new(DataflowExecutor::new(rt));
    let sim = Simulation::new(mesh, &consts, exec, SyncStrategy::Dataflow);
    let reports = sim.run(300, 50);
    assert_eq!(reports.len(), 6);
    for (iter, rms) in &reports {
        assert!(rms.is_finite(), "diverged at {iter}");
    }
    // The pulse decays toward the free-stream steady state.
    assert!(reports.last().unwrap().1 < reports.first().unwrap().1);
}

/// All six backends march the same pulse for 4 iterations and land on the
/// same state bit-for-bit — the end-to-end reproduction of the framework's
/// central correctness property.
#[test]
fn six_backends_full_app_bitwise() {
    let run = |kind: BackendKind| {
        let consts = FlowConstants::default();
        let mesh = MeshBuilder::channel(20, 10).build(&consts);
        mesh.add_pulse(1.0, 0.5, 0.3, 0.2, &consts);
        let rt = Arc::new(Op2Runtime::new(3, 32));
        let exec = make_executor(kind, rt);
        let sim = Simulation::new(mesh, &consts, exec, SyncStrategy::for_backend(kind));
        let reports = sim.run(4, 1);
        let q: Vec<u64> = sim
            .mesh()
            .p_q
            .to_vec()
            .into_iter()
            .map(f64::to_bits)
            .collect();
        (q, reports)
    };
    let reference = run(BackendKind::Serial);
    for kind in [
        BackendKind::ForkJoin,
        BackendKind::ForEachAuto,
        BackendKind::ForEachStatic(2),
        BackendKind::Async,
        BackendKind::Dataflow,
    ] {
        let got = run(kind);
        assert_eq!(got.0, reference.0, "state diverged under {kind}");
        for ((i1, r1), (i2, r2)) in reference.1.iter().zip(&got.1) {
            assert_eq!(i1, i2);
            assert_eq!(r1.to_bits(), r2.to_bits(), "{kind} rms at iter {i1}");
        }
    }
}

/// Repeated simulations share plans through the runtime's cache.
#[test]
fn plan_cache_shared_across_iterations() {
    let consts = FlowConstants::default();
    let mesh = MeshBuilder::channel(16, 8).build(&consts);
    let rt = Arc::new(Op2Runtime::new(1, 64));
    let exec = make_executor(BackendKind::ForkJoin, Arc::clone(&rt));
    let sim = Simulation::new(mesh, &consts, exec, SyncStrategy::Blocking);
    sim.run(5, 5);
    // 5 distinct loop shapes → exactly 5 plans, not 5 × iterations.
    assert_eq!(rt.plans_built(), 5);
}

/// The simulated workload's structure must match the real application's
/// plans (same color counts for the same mesh and part size).
#[test]
fn simulated_workload_mirrors_real_plans() {
    use op2_airfoil::AirfoilLoops;
    use op2_core::Plan;

    let spec = op2_simsched::airfoil_workload(24, 12, 32);
    let consts = FlowConstants::default();
    let mesh = MeshBuilder::channel(24, 12).build(&consts);
    let loops = AirfoilLoops::new(&mesh, &consts);
    let real = Plan::build(loops.res_calc.set(), loops.res_calc.args(), 32);
    let res = &spec.program[2];
    assert_eq!(res.name, "res_calc");
    assert_eq!(res.colors.len(), real.ncolors as usize);
    assert_eq!(res.nblocks(), real.nblocks());
}

/// `Executor::fence` is safe to call at any point and repeatedly on every
/// backend, including with nothing outstanding.
#[test]
fn fences_are_idempotent_everywhere() {
    for kind in BackendKind::all() {
        let rt = Arc::new(Op2Runtime::new(2, 64));
        let exec = make_executor(kind, rt);
        exec.fence();
        exec.fence();
    }
}

/// An injected kernel panic on each of the six backends — in a direct loop
/// and in an indirect one, which the async backend runs as a chain of
/// continuations — comes back as a typed `LoopError` naming the element,
/// with the declared write-set restored bit for bit (the runtime is built
/// `with_rollback()`); where there is a fence to ask, it reports the same
/// error value.
#[test]
fn injected_kernel_panic_is_typed_and_rolled_back_on_six_backends() {
    use op2_core::{arg_direct, arg_indirect, Access, Dat, Map, ParLoop, Set};
    use op2_hpx::FailureKind;

    let nedges = 40;
    let edges = Set::new("edges", nedges);
    let cells = Set::new("cells", nedges + 1);
    let table = (0..nedges as u32).flat_map(|e| [e, e + 1]).collect();
    let pecell = Map::new("pecell", &edges, &cells, 2, table);
    let res = Dat::new("res", &cells, 1, (0..=nedges).map(|c| 0.1 * c as f64).collect());
    let bits = || res.to_vec().into_iter().map(f64::to_bits).collect::<Vec<u64>>();

    let rv = res.view();
    let direct = ParLoop::build("direct", &cells)
        .arg(arg_direct(&res, Access::ReadWrite))
        .kernel(move |e, _| unsafe {
            rv.add(e, 0, 1.0);
            assert_ne!(e, 23, "injected kernel failure");
        });
    let (rv, mv) = (res.view(), pecell.clone());
    let indirect = ParLoop::build("indirect", &edges)
        .arg(arg_indirect(&res, 0, &pecell, Access::Inc))
        .arg(arg_indirect(&res, 1, &pecell, Access::Inc))
        .kernel(move |e, _| unsafe {
            rv.add(mv.at(e, 0), 0, 1.0);
            assert_ne!(e, 23, "injected kernel failure");
            rv.add(mv.at(e, 1), 0, 1.0);
        });

    let before = bits();
    for kind in BackendKind::all() {
        for l in [&direct, &indirect] {
            let exec = make_executor(kind, Arc::new(Op2Runtime::new(2, 8).with_rollback()));
            let err = exec
                .try_execute(l)
                .and_then(|h| h.try_get())
                .expect_err("the kernel panic must surface");
            assert_eq!((err.loop_name.as_str(), err.element()), (l.name(), Some(23)), "{kind}: {err}");
            assert!(matches!(err.kind, FailureKind::KernelPanic { .. }) && err.rolled_back, "{kind}: {err}");
            assert_eq!(bits(), before, "{kind}/{}: write-set not restored", l.name());
            if let Err(report) = exec.try_fence() {
                assert_eq!(report.failures, [err], "{kind}");
            }
        }
    }
}

/// The mirror image on a default runtime: the same injected panic is just as
/// typed and names the same element on all six backends, but nothing was
/// copied behind the caller's back — the error says `rolled_back: false` and
/// the failed run's partial increments are still in the dat.
#[test]
fn injected_kernel_panic_on_a_bare_executor_is_typed_and_not_rolled_back() {
    use op2_core::{arg_direct, arg_indirect, Access, Dat, Map, ParLoop, Set};
    use op2_hpx::FailureKind;

    let nedges = 40;
    let edges = Set::new("edges", nedges);
    let cells = Set::new("cells", nedges + 1);
    let table = (0..nedges as u32).flat_map(|e| [e, e + 1]).collect();
    let pecell = Map::new("pecell", &edges, &cells, 2, table);

    for kind in BackendKind::all() {
        for indirect in [false, true] {
            let res = Dat::filled("res", &cells, 1, 0.0f64);
            let (rv, mv) = (res.view(), pecell.clone());
            // Both bump element 23's own row before they panic on it.
            let l = if indirect {
                ParLoop::build("indirect", &edges)
                    .arg(arg_indirect(&res, 0, &pecell, Access::Inc))
                    .arg(arg_indirect(&res, 1, &pecell, Access::Inc))
                    .kernel(move |e, _| unsafe {
                        rv.add(mv.at(e, 0), 0, 1.0);
                        assert_ne!(e, 23, "injected kernel failure");
                        rv.add(mv.at(e, 1), 0, 1.0);
                    })
            } else {
                ParLoop::build("direct", &cells)
                    .arg(arg_direct(&res, Access::ReadWrite))
                    .kernel(move |e, _| unsafe {
                        rv.add(e, 0, 1.0);
                        assert_ne!(e, 23, "injected kernel failure");
                    })
            };
            let exec = make_executor(kind, Arc::new(Op2Runtime::new(2, 8)));
            let err = exec
                .try_execute(&l)
                .and_then(|h| h.try_get())
                .expect_err("the kernel panic must surface");
            assert_eq!((err.loop_name.as_str(), err.element()), (l.name(), Some(23)), "{kind}: {err}");
            assert!(matches!(err.kind, FailureKind::KernelPanic { .. }) && !err.rolled_back, "{kind}: {err}");
            assert!(!err.to_string().contains("rolled back"), "{kind}: {err}");
            assert!(res.get_at(23, 0) >= 1.0, "{kind}/{}: the partial increment is gone", l.name());
            if let Err(report) = exec.try_fence() {
                assert_eq!(report.failures, [err], "{kind}");
            }
        }
    }
}

/// Whoever waits on every loop runs it directly. A `Supervisor` march of the
/// Airfoil loops lands on `SerialExecutor`'s bits whatever its primary
/// backend, and so does a `TunedExecutor` march while its tuner explores; and
/// a supervised loop on the `Dataflow` primary is the blocking `for_each`
/// with `ChunkSize::Default` and nothing else — the same pool tasks, no task
/// to carry the loop, no future for the caller to block on.
#[test]
fn waited_on_loops_match_serial_and_spawn_only_their_chunks() {
    use op2_core::{arg_direct, Access, Dat, ParLoop, Set};
    use op2_hpx::{BlockingExecutor, Executor, RetryPolicy, Supervisor, TunedExecutor};

    let build = |exec: Box<dyn Executor>| {
        let consts = FlowConstants::default();
        let mesh = MeshBuilder::channel(20, 10).build(&consts);
        mesh.add_pulse(1.0, 0.5, 0.3, 0.2, &consts);
        Simulation::new(mesh, &consts, exec, SyncStrategy::Blocking)
    };
    let bits = |sim: &Simulation, reports: Vec<(usize, f64)>| {
        let q: Vec<u64> = sim.mesh().p_q.to_vec().into_iter().map(f64::to_bits).collect();
        let rms: Vec<(usize, u64)> = reports.into_iter().map(|(i, r)| (i, r.to_bits())).collect();
        (q, rms)
    };
    let serial = || make_executor(BackendKind::Serial, Arc::new(Op2Runtime::new(1, 32)));
    let sim = build(serial());
    let reference = bits(&sim, sim.run(4, 1));

    for primary in BackendKind::all() {
        let rt = Arc::new(Op2Runtime::new(3, 32));
        let sup = Supervisor::new(rt, primary, RetryPolicy::default());
        let sim = build(serial());
        let reports = sim.run_supervised(&sup, 4, 1).expect("a clean supervised march");
        assert_eq!(bits(&sim, reports), reference, "supervised march on {primary}");
    }
    let tuner = Arc::new(op2_tune::Tuner::with_seed(11));
    let rt = Arc::new(Op2Runtime::new(3, 32).with_tuner(tuner));
    let sim = build(Box::new(TunedExecutor::new(rt)));
    assert_eq!(bits(&sim, sim.run(4, 1)), reference, "tuned march");

    let rt = Arc::new(Op2Runtime::new(2, 16));
    let cells = Set::new("cells", 1000);
    let q = Dat::filled("q", &cells, 1, 1.0f64);
    // Two loops that have never run, so both runs below are cold and the
    // grain floor (which inlines a warm loop this small) spreads both alike.
    let double = || {
        let qv = q.view();
        ParLoop::build("double", &cells)
            .arg(arg_direct(&q, Access::ReadWrite))
            .kernel(move |e, _| unsafe { qv.set(e, 0, qv.get(e, 0) * 2.0) })
    };
    let counted = |f: &dyn Fn()| {
        let metrics = rt.pool().metrics().expect("a ThreadPool keeps counters");
        let before = metrics.snapshot();
        f();
        before.delta(&metrics.snapshot())
    };
    let (direct, supervised_loop) = (double(), double());
    // A blocking executor of a futurized kind runs the colored `for_each`
    // with `ChunkSize::Default` and nothing else.
    let blocking = BlockingExecutor::new(Arc::clone(&rt), BackendKind::Dataflow);
    let for_each = counted(&|| {
        blocking.execute(&direct).wait();
    });
    let sup = Supervisor::new(Arc::clone(&rt), BackendKind::Dataflow, RetryPolicy::default());
    let supervised = counted(&|| {
        sup.run(&supervised_loop).expect("a clean supervised loop");
    });
    assert!(for_each.tasks_spawned > 1, "{for_each:?}");
    assert_eq!(supervised.tasks_spawned, for_each.tasks_spawned);
    assert_eq!(supervised.dep_waits, 0);
    assert!(q.to_vec().iter().all(|&v| v == 4.0));
}

/// Fork-join forks each color. On a 2-thread pool a cold `res_calc` spawns
/// one chunk per worker *per color* — Σ min(2, |color|) tasks, where a chunk
/// sized from the whole plan made one task per color — and the march lands
/// on the serial oracle's bits. Once warm, every color of this small mesh is
/// predicted under the pool's hand-off floor, runs on the caller, and spawns
/// nothing; the same march on a `DetPool`, whose floor is zero, still spawns
/// every chunk for the schedule explorer to see, and lands on the same bits.
#[test]
fn forkjoin_forks_every_color_and_runs_warm_colors_under_the_floor_inline() {
    use hpx_rt::{DetPool, Pool};
    use op2_airfoil::{AirfoilLoops, Mesh};
    use op2_core::ParLoop;
    use op2_hpx::Executor;

    const PART: usize = 4;
    const ITERS: usize = 4;
    let consts = FlowConstants::default();
    let fresh = || {
        let mesh = MeshBuilder::channel(8, 4).build(&consts);
        mesh.add_pulse(1.0, 0.5, 0.3, 0.2, &consts);
        let loops = AirfoilLoops::new(&mesh, &consts);
        (mesh, loops)
    };
    let state = |mesh: &Mesh| {
        mesh.p_q
            .to_vec()
            .into_iter()
            .map(f64::to_bits)
            .collect::<Vec<_>>()
    };
    // One iteration, every loop waited on; the two stages' RMS bits.
    let iteration = |exec: &dyn Executor, l: &AirfoilLoops| {
        exec.execute(&l.save_soln).wait();
        let mut rms = Vec::new();
        for _ in 0..2 {
            for loop_ in [&l.adt_calc, &l.res_calc, &l.bres_calc] {
                exec.execute(loop_).wait();
            }
            rms.push(exec.execute(&l.update).get()[0].to_bits());
        }
        rms
    };

    let (mesh, loops) = fresh();
    let serial = make_executor(BackendKind::Serial, Arc::new(Op2Runtime::new(1, PART)));
    let rms: Vec<_> = (0..ITERS)
        .map(|_| iteration(serial.as_ref(), &loops))
        .collect();
    let oracle = (state(&mesh), rms);

    let rt = Arc::new(Op2Runtime::new(2, PART));
    let exec = make_executor(BackendKind::ForkJoin, Arc::clone(&rt));
    let metrics = rt.pool().metrics().expect("a ThreadPool keeps counters");
    let spawned = |f: &mut dyn FnMut()| {
        let before = metrics.snapshot();
        f();
        before.delta(&metrics.snapshot()).tasks_spawned
    };
    let (_cold_mesh, cold) = fresh();
    let plan = rt.plan_for(&cold.res_calc);
    let per_color: u64 = plan
        .color_blocks
        .iter()
        .map(|c| c.len().min(2) as u64)
        .sum();
    assert!(
        per_color > u64::from(plan.ncolors),
        "the fixture needs a color of two blocks or more"
    );
    assert_eq!(
        spawned(&mut || exec.execute(&cold.res_calc).wait()),
        per_color,
        "cold res_calc"
    );

    let (mesh, loops) = fresh();
    let mut rms = Vec::new();
    let per_iteration: Vec<u64> = (0..ITERS)
        .map(|_| spawned(&mut || rms.push(iteration(exec.as_ref(), &loops))))
        .collect();
    assert_eq!(
        (state(&mesh), rms),
        oracle,
        "fork-join march on a ThreadPool"
    );
    // The first iteration meets every loop cold; a warm one inlines every
    // color (the minimum, so a descheduled thread that inflated one busy-time
    // measurement cannot fail the test).
    assert!(per_iteration[0] > 0, "{per_iteration:?}");
    assert_eq!(
        per_iteration[1..].iter().min(),
        Some(&0),
        "{per_iteration:?}"
    );

    let det = Arc::new(DetPool::new(7));
    let rt = Arc::new(Op2Runtime::from_pool(
        Arc::clone(&det) as Arc<dyn Pool>,
        PART,
    ));
    let exec = make_executor(BackendKind::ForkJoin, Arc::clone(&rt));
    let (mesh, loops) = fresh();
    let chunks = |l: &ParLoop| -> usize {
        rt.plan_for(l)
            .color_blocks
            .iter()
            .map(|c| c.len().min(rt.num_threads()))
            .sum()
    };
    let stage = [
        &loops.adt_calc,
        &loops.res_calc,
        &loops.bres_calc,
        &loops.update,
    ];
    let every_chunk = chunks(&loops.save_soln) + 2 * stage.map(chunks).iter().sum::<usize>();
    let mut rms = Vec::new();
    for _ in 0..ITERS {
        let before = det.trace().len();
        rms.push(iteration(exec.as_ref(), &loops));
        assert_eq!(
            det.trace().len() - before,
            every_chunk,
            "a DetPool never inlines"
        );
    }
    assert_eq!((state(&mesh), rms), oracle, "fork-join march on a DetPool");
}

/// Holds the kernel that passes it until opened, and tells the test that a
/// kernel is waiting there — so the test knows a worker, not the test thread
/// helping in a fence, is running the loop it gates.
#[derive(Default)]
struct Gate {
    waiting: AtomicBool,
    open: AtomicBool,
}

impl Gate {
    fn opened() -> Arc<Gate> {
        let gate = Arc::new(Gate::default());
        gate.open.store(true, Ordering::Release);
        gate
    }

    fn close(&self) {
        self.waiting.store(false, Ordering::Release);
        self.open.store(false, Ordering::Release);
    }

    fn pass(&self) {
        self.waiting.store(true, Ordering::Release);
        while !self.open.load(Ordering::Acquire) {
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    }

    fn open_once_a_kernel_waits(&self) {
        while !self.waiting.load(Ordering::Acquire) {
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        self.open.store(true, Ordering::Release);
    }
}

const CHAIN: usize = 64;

/// `CHAIN` direct loops over `q`, loop `i` setting `q = q / 2 + i`: each reads
/// what the one before wrote, so they form one dependency chain. The head's
/// kernel passes `gate` first.
fn chain_loops(q: &op2_core::Dat<f64>, gate: &Arc<Gate>) -> Vec<op2_core::ParLoop> {
    use op2_core::{arg_direct, Access, ParLoop};
    (0..CHAIN)
        .map(|i| {
            let (qv, gate) = (q.view(), Arc::clone(gate));
            ParLoop::build(format!("step{i}"), q.set())
                .arg(arg_direct(q, Access::ReadWrite))
                .kernel(move |e, _| unsafe {
                    if i == 0 {
                        gate.pass();
                    }
                    qv.set(e, 0, qv.get(e, 0) / 2.0 + i as f64);
                })
        })
        .collect()
}

/// Run `loops` in order, fenced, until the grain floor would inline every
/// color of every one of them (a loop measured while its thread was
/// descheduled predicts too much; the next pass measures again). Returns the
/// number of passes.
fn warm(exec: &dyn op2_hpx::Executor, loops: &[&op2_core::ParLoop]) -> usize {
    let floor_ns = hpx_rt::ThreadPool::HANDOFF_FLOOR.as_nanos() as f64;
    for pass in 1..=20 {
        for l in loops {
            let _ = exec.execute(l);
        }
        exec.fence();
        let inlined = |l: &&op2_core::ParLoop| {
            l.work_per_element()
                .is_some_and(|ns| ns * (l.set().size() as f64) < floor_ns)
        };
        if loops.iter().all(inlined) {
            return pass;
        }
    }
    panic!("the loops never measured under the hand-off floor");
}

/// A dataflow node runs on the worker that resolved its last dependency. A
/// warm chain of direct loops (every color under the grain floor) issued
/// while its head still runs costs one pool task — the head's, spawned by
/// the issuing thread — however long it is: each node is the next task of
/// the worker that finished the one before, with no push, no wake and no
/// steal. The result is the serial executor's, bit for bit.
#[test]
fn dataflow_chain_runs_each_node_on_the_worker_that_readied_it() {
    use op2_core::{Dat, Set};
    use op2_hpx::Executor;

    let cells = Set::new("cells", 16);
    let q = Dat::filled("q", &cells, 1, 1.0f64);
    let gate = Gate::opened();
    let loops = chain_loops(&q, &gate);
    let rt = Arc::new(Op2Runtime::new(2, 16));
    let exec = DataflowExecutor::new(Arc::clone(&rt));
    let passes = warm(&exec, &loops.iter().collect::<Vec<_>>());

    gate.close();
    let metrics = rt.pool().metrics().expect("a ThreadPool keeps counters");
    let before = metrics.snapshot();
    let handles: Vec<_> = loops.iter().map(|l| exec.execute(l)).collect();
    gate.open_once_a_kernel_waits();
    exec.fence();
    let spawned = before.delta(&metrics.snapshot()).tasks_spawned;
    assert_eq!(spawned, 1, "a warm chain of {CHAIN} nodes spawned {spawned} tasks");
    assert!(handles.iter().all(|h| h.try_wait().is_ok()));

    let oracle = Dat::filled("q", &cells, 1, 1.0f64);
    let serial = make_executor(BackendKind::Serial, Arc::new(Op2Runtime::new(1, 16)));
    let oracle_loops = chain_loops(&oracle, &Gate::opened());
    for _ in 0..=passes {
        for l in &oracle_loops {
            serial.execute(l).wait();
        }
    }
    let bits = |d: &Dat<f64>| d.to_vec().into_iter().map(f64::to_bits).collect::<Vec<_>>();
    assert_eq!(bits(&q), bits(&oracle));
}

/// One completion that readies two independent nodes keeps one and hands
/// the other to the pool, so siblings still run in parallel: a warm head
/// and its two readers spawn two tasks — the head's and one reader's.
#[test]
fn dataflow_siblings_readied_together_spawn_all_but_one() {
    use op2_core::{arg_direct, Access, Dat, ParLoop, Set};
    use op2_hpx::Executor;

    let cells = Set::new("cells", 16);
    let [a, b, c] = ["a", "b", "c"].map(|name| Dat::filled(name, &cells, 1, 1.0f64));
    let gate = Gate::opened();
    let (av, head_gate) = (a.view(), Arc::clone(&gate));
    let head = ParLoop::build("head", &cells)
        .arg(arg_direct(&a, Access::ReadWrite))
        .kernel(move |e, _| unsafe {
            head_gate.pass();
            av.set(e, 0, av.get(e, 0) + 1.0);
        });
    let reader = |name: &str, out: &Dat<f64>| {
        let (av, ov) = (a.view(), out.view());
        ParLoop::build(name, &cells)
            .arg(arg_direct(&a, Access::Read))
            .arg(arg_direct(out, Access::ReadWrite))
            .kernel(move |e, _| unsafe { ov.set(e, 0, ov.get(e, 0) + av.get(e, 0)) })
    };
    let (left, right) = (reader("left", &b), reader("right", &c));
    let rt = Arc::new(Op2Runtime::new(2, 16));
    let exec = DataflowExecutor::new(Arc::clone(&rt));
    let passes = warm(&exec, &[&head, &left, &right]);

    gate.close();
    let metrics = rt.pool().metrics().expect("a ThreadPool keeps counters");
    let before = metrics.snapshot();
    for l in [&head, &left, &right] {
        let _ = exec.execute(l);
    }
    gate.open_once_a_kernel_waits();
    exec.fence();
    assert_eq!(before.delta(&metrics.snapshot()).tasks_spawned, 2);
    // Pass k leaves a = 1 + k and adds it to b and c.
    let want: f64 = 1.0 + (1..=passes + 1).map(|k| 1.0 + k as f64).sum::<f64>();
    for d in [&b, &c] {
        assert!(d.to_vec().iter().all(|&v| v == want), "{:?}", d.to_vec());
    }
}

/// On a `DetPool` every node stays a pool task, so schedule exploration and
/// the dataflow-order checker see each one: the chain spawns all its nodes.
#[test]
fn dataflow_chain_on_a_det_pool_spawns_every_node() {
    use hpx_rt::{DetPool, Pool};
    use op2_core::{Dat, Set};
    use op2_hpx::Executor;

    let cells = Set::new("cells", 16);
    let q = Dat::filled("q", &cells, 1, 1.0f64);
    let loops = chain_loops(&q, &Gate::opened());
    let det = Arc::new(DetPool::new(7));
    let rt = Arc::new(Op2Runtime::from_pool(Arc::clone(&det) as Arc<dyn Pool>, 16));
    let exec = DataflowExecutor::new(rt);
    // Warm as on the ThreadPool, though a floor of zero inlines nothing.
    warm(&exec, &loops.iter().collect::<Vec<_>>());
    let before = det.trace().len();
    for l in &loops {
        let _ = exec.execute(l);
    }
    exec.fence();
    // One block per loop: one node task and one chunk task per node.
    assert_eq!(det.trace().len() - before, 2 * CHAIN);
}
