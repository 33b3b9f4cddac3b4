//! Integration tests for the hpx-rt runtime: pool, futures, dataflow,
//! parallel algorithms. Many tests run on a 1-worker pool on purpose — the
//! work-helping design must keep everything deadlock-free there.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hpx_rt::{
    async_spawn, dataflow1, dataflow2, dataflow3, dataflow4, for_each_index, for_each_index_task,
    make_ready_future, par, par_task, seq, when_all, when_all_unit, ChunkSize,
    CountdownLatch, PoolBuilder, Promise, SharedFuture, ThreadPool,
};

// ---------------------------------------------------------------------------
// pool
// ---------------------------------------------------------------------------

#[test]
fn pool_executes_spawned_tasks() {
    let pool = ThreadPool::new(2);
    let hits = Arc::new(AtomicU64::new(0));
    let futures: Vec<_> = (0..64)
        .map(|_| {
            let hits = Arc::clone(&hits);
            async_spawn(&pool, move || {
                hits.fetch_add(1, Ordering::Relaxed);
            })
        })
        .collect();
    for f in futures {
        f.get();
    }
    assert_eq!(hits.load(Ordering::Relaxed), 64);
}

#[test]
fn pool_clamps_to_one_worker() {
    let pool = ThreadPool::new(0);
    assert_eq!(pool.num_threads(), 1);
    assert_eq!(async_spawn(&pool, || 7).get(), 7);
}

#[test]
fn pool_builder_names_threads() {
    let pool = PoolBuilder::new()
        .num_threads(1)
        .thread_name("custom")
        .build();
    // Wait on a channel (not get(), which would work-help and might run the
    // task on this very test thread) so the task executes on a pool worker.
    let (tx, rx) = std::sync::mpsc::channel();
    let f = async_spawn(&pool, move || {
        tx.send(std::thread::current().name().unwrap_or("").to_owned())
            .unwrap();
    });
    let name = rx.recv_timeout(Duration::from_secs(10)).unwrap();
    f.get();
    assert!(name.starts_with("custom-"), "got thread name {name:?}");
}

#[test]
fn pool_drop_joins_workers() {
    let hits = Arc::new(AtomicU64::new(0));
    {
        let pool = ThreadPool::new(2);
        for _ in 0..16 {
            let hits = Arc::clone(&hits);
            async_spawn(&pool, move || {
                hits.fetch_add(1, Ordering::Relaxed);
            })
            .get();
        }
    } // drop
    assert_eq!(hits.load(Ordering::Relaxed), 16);
}

#[test]
fn is_worker_thread_distinguishes_pools() {
    let pool_a = ThreadPool::new(1);
    let pool_b = ThreadPool::new(1);
    assert!(!pool_a.is_worker_thread());
    // Can't capture &pool in a 'static closure; check TLS indirectly: a task
    // on pool_b that spawns locally must still complete.
    let v = async_spawn(&pool_b, || 5).get();
    assert_eq!(v, 5);
    drop(pool_a);
}

#[test]
fn metrics_count_spawns_and_executions() {
    let pool = ThreadPool::new(2);
    let before = pool.metrics().snapshot();
    let fs: Vec<_> = (0..10).map(|i| async_spawn(&pool, move || i)).collect();
    let sum: i32 = fs.into_iter().map(|f| f.get()).sum();
    assert_eq!(sum, 45);
    let after = pool.metrics().snapshot();
    let d = before.delta(&after);
    assert!(d.tasks_spawned >= 10);
    assert!(d.tasks_executed >= 10);
}

#[test]
fn try_execute_one_helps_from_external_thread() {
    let pool = ThreadPool::new(1);
    // Saturate the single worker with a blocking task; only proceed once the
    // worker has actually *started* it (otherwise this external thread could
    // pick it up itself below and spin forever).
    let gate = Arc::new(CountdownLatch::new(1));
    let gate2 = Arc::clone(&gate);
    let started = Arc::new(AtomicU64::new(0));
    let started2 = Arc::clone(&started);
    let _long = async_spawn(&pool, move || {
        started2.store(1, Ordering::SeqCst);
        gate2.wait_helping();
    });
    while started.load(Ordering::SeqCst) == 0 {
        std::thread::yield_now();
    }
    let flag = Arc::new(AtomicU64::new(0));
    let flag2 = Arc::clone(&flag);
    let _short = async_spawn(&pool, move || {
        flag2.store(1, Ordering::Relaxed);
    });
    // The worker is busy; helping from this external thread must run the
    // short task.
    while flag.load(Ordering::Relaxed) == 0 {
        pool.try_execute_one();
    }
    gate.counter().count_down();
}

// ---------------------------------------------------------------------------
// futures
// ---------------------------------------------------------------------------

#[test]
fn future_get_returns_value() {
    let pool = ThreadPool::new(2);
    assert_eq!(async_spawn(&pool, || "hello".to_owned()).get(), "hello");
}

#[test]
fn future_get_from_inside_task_single_worker() {
    // The critical deadlock test: get() inside a task on a 1-worker pool must
    // work-help and complete.
    let pool = Arc::new(ThreadPool::new(1));
    let pool2 = Arc::clone(&pool);
    let outer = async_spawn(&pool, move || {
        let inner = async_spawn(&pool2, || 21);
        inner.get() * 2
    });
    assert_eq!(outer.get(), 42);
}

#[test]
fn future_deep_nesting_single_worker() {
    let pool = Arc::new(ThreadPool::new(1));
    fn nest(pool: &Arc<ThreadPool>, depth: u32) -> u64 {
        if depth == 0 {
            return 1;
        }
        let p = Arc::clone(pool);
        let f = async_spawn(pool, move || nest(&p, depth - 1));
        f.get() + 1
    }
    assert_eq!(nest(&pool, 20), 21);
}

#[test]
fn future_is_ready_transitions() {
    let (promise, future) = Promise::<i32>::new();
    assert!(!future.is_ready());
    promise.set_value(3);
    assert!(future.is_ready());
    assert_eq!(future.get(), 3);
}

#[test]
fn promise_fulfilled_from_external_thread() {
    let pool = ThreadPool::new(1);
    let (promise, future) = Promise::<i32>::with_pool(&pool);
    let t = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(20));
        promise.set_value(99);
    });
    assert_eq!(future.get(), 99);
    t.join().unwrap();
}

/// Regression: `Shared::complete` used to notify the pool (taking its
/// `sleepers` lock) while still holding the future's `state` lock, and a
/// non-worker `get()` evaluates its readiness predicate (taking `state`)
/// under `sleepers` — an ABBA inversion that hung within 40–160 000 round
/// trips. The loop runs on its own thread so a regression fails the test
/// after 60 s instead of hanging CI. `Future` and `SharedFuture` are views of
/// one state machine, so the shared view's `get()` is a second input to the
/// same lock-order check.
#[test]
fn spawn_get_round_trips_from_non_worker_never_deadlock() {
    round_trips_never_deadlock("Future", |pool| async_spawn(pool, || ()).get());
    round_trips_never_deadlock("SharedFuture", |pool| async_spawn(pool, || ()).share().get());
}

fn round_trips_never_deadlock(view: &str, round_trip: fn(&ThreadPool)) {
    const ROUND_TRIPS: usize = 300_000;
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let caller = std::thread::spawn(move || {
        let pool = ThreadPool::new(2);
        for _ in 0..ROUND_TRIPS {
            round_trip(&pool);
        }
        let _ = done_tx.send(());
    });
    // On a deadlock the stuck thread is deliberately leaked: it can never
    // be joined, and the test process ends with the failure.
    done_rx.recv_timeout(Duration::from_secs(60)).unwrap_or_else(|_| {
        panic!("spawn + {view}::get from a non-worker thread deadlocked (future state / pool sleepers lock order)")
    });
    caller.join().expect("round-trip thread panicked");
}

#[test]
#[should_panic(expected = "broken promise")]
fn dropped_promise_panics_getter() {
    let (promise, future) = Promise::<i32>::new();
    drop(promise);
    let _ = future.get();
}

#[test]
fn make_ready_future_is_immediate() {
    let f = make_ready_future(vec![1, 2, 3]);
    assert!(f.is_ready());
    assert_eq!(f.get(), vec![1, 2, 3]);
}

#[test]
fn then_chains_continuations() {
    let pool = ThreadPool::new(2);
    let f = async_spawn(&pool, || 2)
        .then(&pool, |x| x + 3)
        .then(&pool, |x| x * 10);
    assert_eq!(f.get(), 50);
}

#[test]
fn then_on_ready_future_still_runs() {
    let pool = ThreadPool::new(1);
    let f = make_ready_future(5).then(&pool, |x| x * 3);
    assert_eq!(f.get(), 15);
}

#[test]
fn task_panic_propagates_through_get() {
    let pool = ThreadPool::new(1);
    let f = async_spawn(&pool, || -> i32 { panic!("boom in task") });
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f.get()))
        .expect_err("expected panic");
    let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
    assert_eq!(msg, "boom in task");
}

#[test]
fn task_panic_propagates_through_then_chain() {
    let pool = ThreadPool::new(1);
    let ran_continuation = Arc::new(AtomicU64::new(0));
    let ran2 = Arc::clone(&ran_continuation);
    let f = async_spawn(&pool, || -> i32 { panic!("first stage") }).then(&pool, move |x| {
        ran2.fetch_add(1, Ordering::Relaxed);
        x + 1
    });
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f.get()));
    assert!(err.is_err());
    // The continuation must have been skipped.
    assert_eq!(ran_continuation.load(Ordering::Relaxed), 0);
}

#[test]
fn pool_survives_task_panics() {
    let pool = ThreadPool::new(1);
    for _ in 0..4 {
        let f = async_spawn(&pool, || -> i32 { panic!("recurring") });
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f.get())).is_err());
    }
    // Worker must still be alive.
    assert_eq!(async_spawn(&pool, || 1).get(), 1);
}

// ---------------------------------------------------------------------------
// shared futures
// ---------------------------------------------------------------------------

#[test]
fn shared_future_multiple_getters() {
    let pool = ThreadPool::new(2);
    let sf = async_spawn(&pool, || 7).share();
    let a = sf.clone();
    let b = sf.clone();
    assert_eq!(a.get(), 7);
    assert_eq!(b.get(), 7);
    assert_eq!(sf.get(), 7);
}

#[test]
fn shared_future_multiple_continuations() {
    let pool = ThreadPool::new(2);
    let sf = async_spawn(&pool, || 10).share();
    let f1 = sf.then(&pool, |x| x + 1);
    let f2 = sf.then(&pool, |x| x + 2);
    assert_eq!(f1.get(), 11);
    assert_eq!(f2.get(), 12);
}

#[test]
fn shared_future_ready_constructor() {
    let sf = SharedFuture::ready(3);
    assert!(sf.is_ready());
    assert_eq!(sf.get(), 3);
}

#[test]
#[should_panic(expected = "producer panicked")]
fn shared_future_panic_message() {
    let pool = ThreadPool::new(1);
    let sf = async_spawn(&pool, || -> i32 { panic!("shared boom") }).share();
    let _ = sf.get();
}

// ---------------------------------------------------------------------------
// dataflow / when_all
// ---------------------------------------------------------------------------

#[test]
fn when_all_preserves_order() {
    let pool = ThreadPool::new(4);
    let futures: Vec<_> = (0..32)
        .map(|i| {
            async_spawn(&pool, move || {
                // Finish out of order.
                if i % 3 == 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                i
            })
        })
        .collect();
    let all = when_all(&pool, futures).get();
    assert_eq!(all, (0..32).collect::<Vec<_>>());
}

#[test]
fn when_all_empty_is_ready() {
    let pool = ThreadPool::new(1);
    let all = when_all::<i32>(&pool, Vec::new());
    assert!(all.is_ready());
    assert_eq!(all.get(), Vec::<i32>::new());
}

#[test]
fn when_all_unit_counts_down() {
    let pool = ThreadPool::new(2);
    let futures: Vec<_> = (0..16).map(|_| async_spawn(&pool, || ())).collect();
    when_all_unit(&pool, futures).get();
}

#[test]
fn when_all_propagates_panic() {
    let pool = ThreadPool::new(2);
    let futures = vec![
        async_spawn(&pool, || 1),
        async_spawn(&pool, || -> i32 { panic!("wa boom") }),
        async_spawn(&pool, || 3),
    ];
    let all = when_all(&pool, futures);
    assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| all.get())).is_err());
}

#[test]
fn dataflow1_maps_value() {
    let pool = ThreadPool::new(1);
    let f = dataflow1(&pool, |x: i32| x * 2, make_ready_future(4));
    assert_eq!(f.get(), 8);
}

#[test]
fn dataflow2_waits_for_both() {
    let pool = ThreadPool::new(2);
    let slow = async_spawn(&pool, || {
        std::thread::sleep(Duration::from_millis(10));
        3
    });
    let fast = async_spawn(&pool, || 4);
    let f = dataflow2(&pool, |a, b| a * b, slow, fast);
    assert_eq!(f.get(), 12);
}

#[test]
fn dataflow2_fires_only_after_last_input() {
    let pool = ThreadPool::new(2);
    let (promise_a, fut_a) = Promise::<i32>::with_pool(&pool);
    let fut_b = make_ready_future(1);
    let fired = Arc::new(AtomicU64::new(0));
    let fired2 = Arc::clone(&fired);
    let out = dataflow2(
        &pool,
        move |a, b| {
            fired2.store(1, Ordering::SeqCst);
            a + b
        },
        fut_a,
        fut_b,
    );
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(fired.load(Ordering::SeqCst), 0, "fired before input ready");
    promise_a.set_value(41);
    assert_eq!(out.get(), 42);
    assert_eq!(fired.load(Ordering::SeqCst), 1);
}

#[test]
fn dataflow3_and_4_combine() {
    let pool = ThreadPool::new(2);
    let f3 = dataflow3(
        &pool,
        |a: i32, b: i32, c: i32| a + b + c,
        make_ready_future(1),
        make_ready_future(2),
        make_ready_future(3),
    );
    assert_eq!(f3.get(), 6);
    let f4 = dataflow4(
        &pool,
        |a: i32, b: i32, c: i32, d: i32| a * b * c * d,
        make_ready_future(1),
        make_ready_future(2),
        make_ready_future(3),
        make_ready_future(4),
    );
    assert_eq!(f4.get(), 24);
}

#[test]
fn dataflow_chain_builds_execution_tree() {
    // Mirrors the paper's Airfoil dependency chain:
    // save <- q; adt <- (x,q); res <- (x,q,adt); update <- (res,save).
    let pool = ThreadPool::new(2);
    let q = make_ready_future(1.0f64);
    let x = make_ready_future(2.0f64);
    let save = dataflow1(&pool, |q| q, q);
    let save = save.share();
    let q2 = make_ready_future(1.0f64);
    let adt = dataflow2(&pool, |x: f64, q: f64| x + q, x, q2);
    let adt = adt.share();
    let res = dataflow2(
        &pool,
        |adt: f64, save: f64| adt * 10.0 + save,
        adt.then(&pool, |v| v),
        save.then(&pool, |v| v),
    );
    assert_eq!(res.get(), 31.0);
}

// ---------------------------------------------------------------------------
// for_each / execution policies
// ---------------------------------------------------------------------------

fn check_all_touched(pool: &ThreadPool, policy: hpx_rt::ExecutionPolicy, n: usize) {
    let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
    for_each_index(pool, policy, 0..n, |i| {
        counts[i].fetch_add(1, Ordering::Relaxed);
    });
    for (i, c) in counts.iter().enumerate() {
        assert_eq!(c.load(Ordering::Relaxed), 1, "index {i} touched wrong count");
    }
}

#[test]
fn for_each_seq_touches_all() {
    let pool = ThreadPool::new(2);
    check_all_touched(&pool, seq(), 1000);
}

#[test]
fn for_each_par_touches_all() {
    let pool = ThreadPool::new(4);
    check_all_touched(&pool, par(), 10_000);
}

#[test]
fn for_each_par_static_chunk_touches_all() {
    let pool = ThreadPool::new(4);
    check_all_touched(&pool, par().with_chunk(ChunkSize::Static(7)), 1000);
}

#[test]
fn for_each_par_auto_chunk_touches_all() {
    let pool = ThreadPool::new(4);
    check_all_touched(&pool, par().with_chunk(ChunkSize::auto()), 5000);
}

#[test]
fn for_each_empty_range_is_noop() {
    let pool = ThreadPool::new(2);
    for_each_index(&pool, par(), 5..5, |_| panic!("must not run"));
}

#[test]
fn for_each_single_iteration() {
    let pool = ThreadPool::new(2);
    let hit = AtomicUsize::new(0);
    for_each_index(&pool, par().with_chunk(ChunkSize::auto()), 0..1, |_| {
        hit.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(hit.load(Ordering::Relaxed), 1);
}

#[test]
fn for_each_borrows_stack_data() {
    // The blocking variant accepts non-'static closures (borrowing locals).
    let pool = ThreadPool::new(4);
    let data: Vec<AtomicU64> = (0..1024).map(|_| AtomicU64::new(1)).collect();
    let factor = 3u64;
    for_each_index(&pool, par(), 0..data.len(), |i| {
        data[i].fetch_add(factor, Ordering::Relaxed);
    });
    assert!(data.iter().all(|v| v.load(Ordering::Relaxed) == 4));
}

#[test]
fn for_each_panic_rethrown_after_barrier() {
    let pool = ThreadPool::new(2);
    let completed = Arc::new(AtomicUsize::new(0));
    let completed2 = Arc::clone(&completed);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        for_each_index(&pool, par().with_chunk(ChunkSize::Static(1)), 0..64, |i| {
            if i == 13 {
                panic!("iteration 13");
            }
            completed2.fetch_add(1, Ordering::Relaxed);
        });
    }));
    assert!(result.is_err());
    // All other iterations still ran (barrier completed before rethrow).
    assert_eq!(completed.load(Ordering::Relaxed), 63);
    // Pool alive.
    assert_eq!(async_spawn(&pool, || 9).get(), 9);
}

#[test]
fn for_each_task_returns_future() {
    let pool = ThreadPool::new(2);
    let counts: Arc<Vec<AtomicUsize>> = Arc::new((0..4096).map(|_| AtomicUsize::new(0)).collect());
    let c2 = Arc::clone(&counts);
    let fut = for_each_index_task(&pool, par_task(), 0..4096, move |i| {
        c2[i].fetch_add(1, Ordering::Relaxed);
    });
    fut.get();
    assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
}

#[test]
fn for_each_task_empty_range() {
    let pool = ThreadPool::new(1);
    let fut = for_each_index_task(&pool, par_task(), 3..3, |_| panic!("must not run"));
    fut.get();
}

#[test]
fn for_each_task_with_auto_chunk() {
    let pool = ThreadPool::new(2);
    let counts: Arc<Vec<AtomicUsize>> = Arc::new((0..2000).map(|_| AtomicUsize::new(0)).collect());
    let c2 = Arc::clone(&counts);
    let fut = for_each_index_task(
        &pool,
        par_task().with_chunk(ChunkSize::auto()),
        0..2000,
        move |i| {
            c2[i].fetch_add(1, Ordering::Relaxed);
        },
    );
    fut.get();
    assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
}

#[test]
fn for_each_task_panic_propagates() {
    let pool = ThreadPool::new(2);
    let fut = for_each_index_task(&pool, par_task(), 0..100, |i| {
        if i == 50 {
            panic!("task loop panic");
        }
    });
    assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fut.get())).is_err());
}

#[test]
fn for_each_tasks_overlap_without_barrier() {
    // Two independent par(task) loops must be able to interleave: start loop A
    // whose iterations block on a latch, then loop B; B must finish while A is
    // still pending — impossible with a global barrier after A.
    let pool = ThreadPool::new(2);
    let gate = Arc::new(CountdownLatch::new(1));
    let gate_a = Arc::clone(&gate);
    let a_started = Arc::new(AtomicU64::new(0));
    let a_started2 = Arc::clone(&a_started);
    let fut_a = for_each_index_task(
        &pool,
        par_task().with_chunk(ChunkSize::Static(1)),
        0..1,
        move |_| {
            a_started2.store(1, Ordering::SeqCst);
            gate_a.wait_helping();
        },
    );
    // Ensure A's blocking iteration is pinned on a *worker* before we start
    // helping from this thread (otherwise we could pick it up and live-lock).
    while a_started.load(Ordering::SeqCst) == 0 {
        std::thread::yield_now();
    }
    let fut_b = for_each_index_task(&pool, par_task().with_chunk(ChunkSize::Static(8)), 0..64, |_| {});
    fut_b.get();
    assert!(!fut_a.is_ready(), "loop A should still be blocked");
    gate.counter().count_down();
    fut_a.get();
}

// ---------------------------------------------------------------------------
// latch
// ---------------------------------------------------------------------------

#[test]
fn latch_opens_at_zero() {
    let latch = CountdownLatch::new(3);
    assert!(!latch.is_open());
    let c = latch.counter();
    c.count_down();
    c.count_down();
    assert!(!latch.is_open());
    c.count_down();
    assert!(latch.is_open());
    latch.wait_helping(); // returns immediately
}

#[test]
fn latch_zero_count_starts_open() {
    let latch = CountdownLatch::new(0);
    assert!(latch.is_open());
    latch.wait_helping();
}

#[test]
fn latch_wait_helps_pool_tasks() {
    let pool = ThreadPool::new(1);
    let latch = Arc::new(CountdownLatch::with_pool(&pool, 4));
    for _ in 0..4 {
        let counter = latch.counter();
        // Future intentionally dropped: the latch is the synchronization.
        let _ = async_spawn(&pool, move || counter.count_down());
    }
    latch.wait_helping();
    assert!(latch.is_open());
}

#[test]
#[should_panic(expected = "below zero")]
fn latch_underflow_panics() {
    let latch = CountdownLatch::new(1);
    let c = latch.counter();
    c.count_down();
    c.count_down();
}
