//! Behavioral coverage for [`ChunkSize::Auto`], the HPX auto-partitioner:
//! whatever chunk sizes its timing probe derives, `for_each_index` /
//! `for_each_index_task` must visit every index exactly
//! once — including the probe iterations it runs sequentially up front —
//! and empty or tiny (< 100 iteration) loops must neither hang nor panic.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use hpx_rt::{for_each_index, for_each_index_task, par, par_task, ChunkSize, DetPool, ThreadPool};

/// Run `for_each_index` with Auto over `0..n` and return per-index visit
/// counts.
fn visit_counts(pool: &ThreadPool, n: usize) -> Vec<usize> {
    let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
    for_each_index(pool, par().with_chunk(ChunkSize::auto()), 0..n, |i| {
        counts[i].fetch_add(1, Ordering::Relaxed);
    });
    counts.into_iter().map(|c| c.into_inner()).collect()
}

#[test]
fn auto_empty_loop_is_a_noop() {
    let pool = ThreadPool::new(2);
    assert!(visit_counts(&pool, 0).is_empty());
}

#[test]
fn auto_tiny_loops_visit_every_index_exactly_once() {
    let pool = ThreadPool::new(4);
    // < 100 iterations: the 1% probe clamps to a single sequential
    // iteration and the remainder still has to be fully chunked.
    for n in [1usize, 2, 3, 7, 50, 99] {
        let counts = visit_counts(&pool, n);
        assert!(
            counts.iter().all(|&c| c == 1),
            "n={n}: visit counts {counts:?}"
        );
    }
}

#[test]
fn auto_large_loop_visits_every_index_exactly_once() {
    let pool = ThreadPool::new(4);
    let counts = visit_counts(&pool, 10_000);
    assert!(counts.iter().all(|&c| c == 1));
}

#[test]
fn auto_task_variant_visits_every_index_exactly_once() {
    let pool = ThreadPool::new(4);
    for n in [0usize, 1, 99, 5_000] {
        let counts: Arc<Vec<AtomicUsize>> =
            Arc::new((0..n).map(|_| AtomicUsize::new(0)).collect());
        let c2 = Arc::clone(&counts);
        let fut = for_each_index_task(
            &pool,
            par_task().with_chunk(ChunkSize::auto()),
            0..n,
            move |i| {
                c2[i].fetch_add(1, Ordering::Relaxed);
            },
        );
        fut.get();
        assert!(
            counts.iter().all(|c| c.load(Ordering::Relaxed) == 1),
            "n={n}"
        );
    }
}

#[test]
fn auto_works_on_det_pool_too() {
    // The probe's wall-clock measurement makes Auto's *chunking* schedule-
    // dependent (which is why det_schedules.rs excludes ForEachAuto), but
    // the every-index-exactly-once contract must hold on DetPool as well.
    let pool = DetPool::new(11);
    let counts: Vec<AtomicUsize> = (0..500).map(|_| AtomicUsize::new(0)).collect();
    for_each_index(&pool, par().with_chunk(ChunkSize::auto()), 0..500, |i| {
        counts[i].fetch_add(1, Ordering::Relaxed);
    });
    assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
}

#[test]
fn auto_custom_parameters_still_cover_everything() {
    let pool = ThreadPool::new(2);
    // A 10% probe and an aggressive 1 µs chunk target: lots of tiny chunks.
    let chunk = ChunkSize::Auto {
        probe_fraction: 0.1,
        target_chunk_micros: 1,
    };
    let counts: Vec<AtomicUsize> = (0..777).map(|_| AtomicUsize::new(0)).collect();
    for_each_index(&pool, par().with_chunk(chunk), 0..777, |i| {
        counts[i].fetch_add(1, Ordering::Relaxed);
    });
    assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
}
