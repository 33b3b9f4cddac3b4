//! Failure injection: kernels that panic must not poison the runtime —
//! panics surface at well-defined points (handle `get`/`wait`, `fence`),
//! the pool survives, subsequent loops run normally, and — on a runtime built
//! `with_rollback()`, as every test here that looks at the data builds its
//! own — every failed loop's declared write-set is rolled back
//! **bit-identically** to its pre-loop contents. (What a bare executor
//! promises instead is pinned by `tests/full_pipeline.rs`.)

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use op2_core::{arg_direct, Access, Dat, ParLoop, Set};
use op2_hpx::{make_executor, BackendKind, DataflowExecutor, Executor, FailureKind, Op2Runtime};

fn bits(d: &Dat<f64>) -> Vec<u64> {
    d.to_vec().into_iter().map(f64::to_bits).collect()
}

fn poison_loop(cells: &Set, q: &Dat<f64>, arm: Arc<AtomicBool>) -> ParLoop {
    let qv = q.view();
    ParLoop::build("maybe_panic", cells)
        .arg(arg_direct(q, Access::ReadWrite))
        .kernel(move |e, _| unsafe {
            if arm.load(Ordering::Relaxed) && e == 7 {
                panic!("injected kernel failure at element {e}");
            }
            qv.add(e, 0, 1.0);
        })
}

#[test]
fn synchronous_backends_rethrow_and_recover() {
    for kind in [
        BackendKind::ForkJoin,
        BackendKind::ForEachAuto,
        BackendKind::ForEachStatic(2),
    ] {
        let rt = Arc::new(Op2Runtime::new(2, 8).with_rollback());
        let exec = make_executor(kind, rt);
        let cells = Set::new("cells", 64);
        let q = Dat::filled("q", &cells, 1, 0.0f64);
        let arm = Arc::new(AtomicBool::new(true));
        let l = poison_loop(&cells, &q, Arc::clone(&arm));

        let before = bits(&q);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = exec.execute(&l);
        }));
        assert!(panicked.is_err(), "{kind}: kernel panic must surface");
        // Transactional rollback: even though other elements of the failed
        // run were incremented before the panic, the write-set is restored
        // bit-identically to its pre-loop contents.
        assert_eq!(bits(&q), before, "{kind}: write-set not rolled back");

        // Disarm and run again: the executor and pool must still work, and
        // because the failed run left no trace, the result is exactly one
        // increment everywhere.
        arm.store(false, Ordering::Relaxed);
        let h = exec.execute(&l);
        h.wait();
        exec.fence();
        assert!(q.to_vec().iter().all(|&v| v == 1.0), "{kind}");
    }
}

#[test]
fn typed_errors_carry_provenance_and_rollback_status() {
    for kind in [
        BackendKind::Serial,
        BackendKind::ForkJoin,
        BackendKind::ForEachStatic(2),
    ] {
        let rt = Arc::new(Op2Runtime::new(2, 8).with_rollback());
        let exec = make_executor(kind, rt);
        let cells = Set::new("cells", 64);
        let q = Dat::filled("q", &cells, 1, 0.0f64);
        let arm = Arc::new(AtomicBool::new(true));
        let l = poison_loop(&cells, &q, arm);

        let err = match exec.try_execute(&l) {
            Err(e) => e,
            Ok(_) => panic!("{kind}: failure must surface"),
        };
        assert_eq!(err.loop_name, "maybe_panic", "{kind}");
        assert!(err.rolled_back, "{kind}: rollback must be reported");
        match &err.kind {
            FailureKind::KernelPanic { message, element } => {
                assert!(message.contains("injected kernel failure"), "{kind}: {message}");
                assert_eq!(*element, Some(7), "{kind}: element provenance lost");
            }
            other => panic!("{kind}: unexpected failure kind: {other:?}"),
        }
        assert!(q.to_vec().iter().all(|&v| v == 0.0), "{kind}");
    }
}

/// Provenance names the exact failing element whichever way the kernel was
/// attached: a raw per-element closure, or a typed argument tuple whose
/// kernel never sees the element index (here it reads it from `ids`).
#[test]
fn provenance_is_the_exact_element_for_raw_and_typed_kernels() {
    for kind in [BackendKind::ForkJoin, BackendKind::Async, BackendKind::Dataflow] {
        let cells = Set::new("cells", 64);
        let q = Dat::filled("q", &cells, 1, 0.0f64);
        let ids = Dat::new("ids", &cells, 1, (0..64).map(f64::from).collect());
        let qv = q.view();
        let raw = ParLoop::build("raw", &cells)
            .arg(arg_direct(&q, Access::ReadWrite))
            .kernel(move |e, _| unsafe {
                if e == 13 {
                    panic!("injected kernel failure at element {e}");
                }
                qv.add(e, 0, 1.0);
            });
        let typed = ParLoop::build("typed", &cells)
            .args((ids.read::<1>(), q.rw::<1>()))
            .kernel(|([id], [v]), _| {
                if *id == 13.0 {
                    panic!("injected kernel failure at element {id}");
                }
                *v += 1.0;
            });
        for l in [&raw, &typed] {
            let exec = make_executor(kind, Arc::new(Op2Runtime::new(2, 8).with_rollback()));
            let err = exec
                .try_execute(l)
                .and_then(|h| h.try_get())
                .expect_err("failure must surface");
            assert_eq!(err.element(), Some(13), "{kind}/{}: {err}", l.name());
            assert!(err.rolled_back, "{kind}/{}", l.name());
            let _ = exec.try_fence();
            assert!(q.to_vec().iter().all(|&v| v == 0.0), "{kind}/{}", l.name());
        }
    }
}

#[test]
fn nan_guard_rolls_back_and_reports_the_site() {
    let rt = Arc::new(Op2Runtime::new(2, 8).with_rollback());
    let exec = make_executor(BackendKind::ForkJoin, rt);
    let cells = Set::new("cells", 32);
    let q = Dat::filled("q", &cells, 2, 1.0f64);
    let qv = q.view();
    let l = ParLoop::build("blow_up", &cells)
        .arg(arg_direct(&q, Access::ReadWrite))
        .guard_finite()
        .kernel(move |e, _| unsafe {
            qv.add(e, 0, 1.0);
            if e == 13 {
                qv.set(e, 1, f64::NAN);
            }
        });
    let before = bits(&q);
    let err = match exec.try_execute(&l) {
        Err(e) => e,
        Ok(_) => panic!("NaN must trip the guard"),
    };
    assert!(err.rolled_back);
    match &err.kind {
        FailureKind::NonFinite { dat, element, component } => {
            assert_eq!(dat, "q");
            assert_eq!((*element, *component), (13, 1));
        }
        other => panic!("unexpected failure kind: {other:?}"),
    }
    assert_eq!(bits(&q), before, "guard failure must roll the whole loop back");
}

#[test]
fn preset_cancellation_abandons_with_typed_error() {
    let rt = Arc::new(Op2Runtime::new(2, 8).with_rollback());
    let exec = make_executor(BackendKind::ForkJoin, Arc::clone(&rt));
    let cells = Set::new("cells", 64);
    let q = Dat::filled("q", &cells, 1, 5.0f64);
    let qv = q.view();
    let l = ParLoop::build("never_runs", &cells)
        .arg(arg_direct(&q, Access::ReadWrite))
        .kernel(move |e, _| unsafe { qv.add(e, 0, 1.0) });
    rt.cancel_token().cancel();
    let err = match exec.try_execute(&l) {
        Err(e) => e,
        Ok(_) => panic!("cancelled loop must not complete"),
    };
    rt.cancel_token().clear();
    assert!(
        matches!(err.kind, FailureKind::Cancelled(_)),
        "expected a cancellation, got: {err}"
    );
    assert!(err.rolled_back);
    assert!(q.to_vec().iter().all(|&v| v == 5.0), "data must be untouched");
    // Token cleared: the same executor runs the loop normally again.
    exec.execute(&l).wait();
    assert!(q.to_vec().iter().all(|&v| v == 6.0));
}

#[test]
fn async_backend_defers_panic_to_wait() {
    let rt = Arc::new(Op2Runtime::new(2, 8).with_rollback());
    let exec = make_executor(BackendKind::Async, rt);
    let cells = Set::new("cells", 64);
    let q = Dat::filled("q", &cells, 1, 0.0f64);
    let arm = Arc::new(AtomicBool::new(true));
    let l = poison_loop(&cells, &q, Arc::clone(&arm));

    // Issue succeeds; the panic surfaces at wait().
    let before = bits(&q);
    let h = exec.execute(&l);
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.wait()));
    assert!(panicked.is_err(), "panic must surface at wait()");
    // The transaction (including rollback) completed before the future
    // resolved, so the write-set is already pristine here.
    assert_eq!(bits(&q), before, "async write-set not rolled back");

    arm.store(false, Ordering::Relaxed);
    let h = exec.execute(&l);
    h.wait();
    // Fence still usable even though an earlier loop panicked: it must not
    // hang, and it rethrows nothing new for the healthy loop.
    let fence_result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| exec.fence()));
    // The failed loop is still in the outstanding list → fence may rethrow.
    let _ = fence_result;
}

#[test]
fn async_fence_surfaces_every_pending_failure() {
    let rt = Arc::new(Op2Runtime::new(2, 8).with_rollback());
    let exec = make_executor(BackendKind::Async, rt);
    let cells = Set::new("cells", 64);
    // Three failing loops on disjoint dats plus one healthy one.
    let mut arms = Vec::new();
    let mut dats = Vec::new();
    for i in 0..3 {
        let d = Dat::filled(format!("d{i}"), &cells, 1, 0.0f64);
        let arm = Arc::new(AtomicBool::new(true));
        let dv = d.view();
        let arm2 = Arc::clone(&arm);
        let l = ParLoop::build(format!("fail{i}"), &cells)
            .arg(arg_direct(&d, Access::ReadWrite))
            .kernel(move |e, _| unsafe {
                if arm2.load(Ordering::Relaxed) && e == 7 {
                    panic!("injected kernel failure at element {e}");
                }
                dv.add(e, 0, 1.0);
            });
        let _ = exec.try_execute(&l).expect("issue succeeds");
        arms.push(arm);
        dats.push(d);
    }
    let healthy = Dat::filled("healthy", &cells, 1, 0.0f64);
    let hv = healthy.view();
    let ok = ParLoop::build("ok", &cells)
        .arg(arg_direct(&healthy, Access::Write))
        .kernel(move |e, _| unsafe { hv.set(e, 0, 1.0) });
    let _ = exec.try_execute(&ok).expect("issue succeeds");

    let report = exec.try_fence().expect_err("fence must report failures");
    assert_eq!(
        report.failures.len(),
        3,
        "every pending failure must surface, got: {report}"
    );
    let mut failed: Vec<&str> = report.failures.iter().map(|e| e.loop_name.as_str()).collect();
    failed.sort_unstable();
    assert_eq!(failed, ["fail0", "fail1", "fail2"]);
    for e in &report.failures {
        assert!(e.rolled_back, "{e}");
        assert_eq!(e.element(), Some(7), "element provenance lost: {e}");
    }
    // All three failed write-sets rolled back; the healthy loop completed.
    for d in &dats {
        assert!(d.to_vec().iter().all(|&v| v == 0.0));
    }
    assert!(healthy.to_vec().iter().all(|&v| v == 1.0));
    // The fence drained everything: a second fence is clean.
    exec.try_fence().expect("drained fence must be clean");
}

#[test]
fn dataflow_poisons_dependents_but_not_independents() {
    let rt = Arc::new(Op2Runtime::new(2, 8).with_rollback());
    let exec = DataflowExecutor::new(rt);
    let cells = Set::new("cells", 32);
    let poisoned = Dat::filled("poisoned", &cells, 1, 0.0f64);
    let healthy = Dat::filled("healthy", &cells, 1, 0.0f64);

    let arm = Arc::new(AtomicBool::new(true));
    let bad = poison_loop(&cells, &poisoned, Arc::clone(&arm));
    // Dependent: reads the poisoned dat.
    let pv = poisoned.view();
    let dependent = ParLoop::build("dependent", &cells)
        .arg(arg_direct(&poisoned, Access::Read))
        .gbl_inc(1)
        .kernel(move |e, gbl| unsafe { gbl[0] += pv.get(e, 0) });
    // Independent: disjoint dat.
    let hv = healthy.view();
    let independent = ParLoop::build("independent", &cells)
        .arg(arg_direct(&healthy, Access::Write))
        .kernel(move |e, _| unsafe { hv.set(e, 0, 1.0) });

    let h_bad = exec.execute(&bad);
    let h_dep = exec.execute(&dependent);
    let h_ind = exec.execute(&independent);

    // Independent loop completes fine.
    h_ind.wait();
    assert!(healthy.to_vec().iter().all(|&v| v == 1.0));

    // The failed loop's handle reports a typed kernel panic with rollback…
    let err = h_bad.try_get().expect_err("failed loop must error");
    assert!(matches!(err.kind, FailureKind::KernelPanic { element: Some(7), .. }), "{err}");
    assert!(err.rolled_back, "{err}");
    assert!(poisoned.to_vec().iter().all(|&v| v == 0.0), "rollback failed");
    // …and the dependent reports poisoning (it never ran, nothing to roll
    // back) rather than hanging.
    let err = h_dep.try_get().expect_err("dependent must be poisoned");
    assert!(matches!(err.kind, FailureKind::Poisoned { .. }), "{err}");
    assert!(!err.rolled_back, "{err}");
    // The fence aggregates both failures (the independent loop is absent).
    let report = exec.try_fence().expect_err("fence must report failures");
    assert_eq!(report.failures.len(), 2, "{report}");
}

#[test]
fn broken_loop_then_fresh_executor_is_clean() {
    // After a poisoned dataflow run, a *fresh* executor on the same runtime
    // must work (the pool itself holds no poisoned state).
    let rt = Arc::new(Op2Runtime::new(2, 8));
    {
        let exec = DataflowExecutor::new(Arc::clone(&rt));
        let cells = Set::new("cells", 16);
        let q = Dat::filled("q", &cells, 1, 0.0f64);
        let arm = Arc::new(AtomicBool::new(true));
        let bad = poison_loop(&cells, &q, arm);
        let h = exec.execute(&bad);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.wait()));
    }
    let exec = DataflowExecutor::new(rt);
    let cells = Set::new("cells", 16);
    let q = Dat::filled("q", &cells, 1, 3.0f64);
    let qv = q.view();
    let ok = ParLoop::build("ok", &cells)
        .arg(arg_direct(&q, Access::ReadWrite))
        .kernel(move |e, _| unsafe { qv.add(e, 0, 1.0) });
    exec.execute(&ok).wait();
    exec.fence();
    assert!(q.to_vec().iter().all(|&v| v == 4.0));
}

/// The error travels inside the loop's future, so there is one value of it:
/// `try_wait`, a later `try_get` on the same handle and the fence all return
/// the same `LoopError` — and a dataflow descendant's `Poisoned::origin`
/// names the loop that failed.
#[test]
fn futurized_backends_hand_out_one_error_value_everywhere() {
    for kind in [BackendKind::Async, BackendKind::Dataflow] {
        let exec = make_executor(kind, Arc::new(Op2Runtime::new(2, 8).with_rollback()));
        let cells = Set::new("cells", 64);
        let q = Dat::filled("q", &cells, 1, 0.0f64);
        let bad = poison_loop(&cells, &q, Arc::new(AtomicBool::new(true)));
        let qv = q.view();
        let reader = ParLoop::build("reader", &cells)
            .arg(arg_direct(&q, Access::Read))
            .gbl_inc(1)
            .kernel(move |e, gbl| unsafe { gbl[0] += qv.get(e, 0) });

        let handle = exec.try_execute(&bad).expect("issue succeeds");
        let waited = handle.try_wait().expect_err("the failure surfaces at try_wait");
        // (The async backend orders nothing itself; the wait above is what
        // makes issuing a second loop on `q` legal there.)
        let descendant = exec.try_execute(&reader).and_then(|h| h.try_get());
        let got = handle.try_get().expect_err("and again at try_get");
        assert_eq!(waited, got, "{kind}");
        assert_eq!(waited.element(), Some(7), "{kind}: {waited}");
        let report = exec.try_fence().expect_err("and at the fence");

        if kind == BackendKind::Dataflow {
            let poisoned = descendant.expect_err("a reader of the failed write is poisoned");
            match &poisoned.kind {
                FailureKind::Poisoned { origin } => {
                    assert!(origin.contains("maybe_panic"), "origin must name the failed loop: {origin}")
                }
                other => panic!("expected poisoning, got {other:?}"),
            }
            assert_eq!(report.failures, [waited, poisoned]);
        } else {
            assert_eq!(descendant, Ok(vec![0.0]), "reader sees the rolled-back dat");
            assert_eq!(report.failures, [waited]);
        }
    }
}

/// A failed head poisons a 10 000-node chain, and each node is run by the
/// worker that poisoned the one before — as its next task, not a nested
/// call, so the chain costs no stack. Every node resolves to `Poisoned`
/// naming the head's failure, and the fence reports all of them.
#[test]
fn long_poisoned_chain_resolves_every_node_without_recursion() {
    const NODES: usize = 10_000;
    let exec = DataflowExecutor::new(Arc::new(Op2Runtime::new(2, 8)));
    let cells = Set::new("cells", 8);
    let q = Dat::filled("q", &cells, 1, 0.0f64);
    // The head fails only once every node is issued and a worker runs it.
    let (waiting, open) = (Arc::new(AtomicBool::new(false)), Arc::new(AtomicBool::new(false)));
    let (head_waiting, head_open) = (Arc::clone(&waiting), Arc::clone(&open));
    let head = ParLoop::build("head", &cells)
        .arg(arg_direct(&q, Access::ReadWrite))
        .kernel(move |_, _| {
            head_waiting.store(true, Ordering::Release);
            while !head_open.load(Ordering::Acquire) {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            panic!("injected head failure");
        });
    let qv = q.view();
    let step = ParLoop::build("step", &cells)
        .arg(arg_direct(&q, Access::ReadWrite))
        .kernel(move |e, _| unsafe { qv.add(e, 0, 1.0) });

    exec.try_execute(&head).expect("issue succeeds");
    for _ in 1..NODES {
        exec.try_execute(&step).expect("issue succeeds");
    }
    while !waiting.load(Ordering::Acquire) {
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    open.store(true, Ordering::Release);

    let report = exec.try_fence().expect_err("the fence reports the chain");
    assert_eq!(report.failures.len(), NODES);
    let root = &report.failures[0];
    assert!(matches!(root.kind, FailureKind::KernelPanic { .. }), "{root}");
    let origin = root.to_string();
    for poisoned in &report.failures[1..] {
        assert_eq!(poisoned.kind, FailureKind::Poisoned { origin: origin.clone() });
    }
    assert!(q.to_vec().iter().all(|&v| v == 0.0), "a poisoned node ran");
}
