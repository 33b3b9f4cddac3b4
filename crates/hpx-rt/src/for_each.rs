//! Parallel algorithms with execution policies.
//!
//! Mirrors `hpx::parallel::for_each` as used by the paper:
//!
//! * [`par`] — fork-join: chunks run on the pool, the caller **blocks** on an
//!   end-of-loop latch (work-helping, so the caller is a worker too). This is
//!   the semantic equivalent of `#pragma omp parallel for` / `for_each(par)`.
//! * [`par_task`] — asynchronous: [`for_each_index_task`] returns a
//!   `Future<()>` immediately (`for_each(par(task))`), eliminating the global
//!   barrier; the caller decides when (or whether) to wait.
//! * grain-size control — [`ChunkSize::Auto`] reproduces HPX's
//!   *auto-partitioner*, which sequentially executes ~1% of the iterations to
//!   estimate the per-iteration cost and derives a chunk size targeting a
//!   fixed task duration; [`ChunkSize::Static`] pins the chunk size
//!   (`hpx::parallel::static_chunk_size`), which the paper shows is superior
//!   for large loops (Fig. 16); [`ChunkSize::PerWorker`] is the
//!   default-constructed `static_chunk_size` — one contiguous chunk per
//!   worker of whatever range the call sees, OpenMP's `schedule(static)`.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::cancel::{CancelToken, Cancelled};
use crate::dataflow::Join;
use crate::future::{Future, PanicPayload, TaskFailure};
use crate::latch::CountdownLatch;
use crate::pool::Pool;

/// Grain-size selection strategy for parallel loops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChunkSize {
    /// `n / (4 × workers)` — a simple balanced default.
    Default,
    /// HPX auto-partitioner: sequentially execute `probe_fraction` of the
    /// iterations (at least one), derive the per-iteration time, and size
    /// chunks to take about `target_chunk_micros` each.
    Auto {
        /// Fraction of the iteration space executed sequentially as a probe
        /// (the paper: "sequentially executing 1% of the loop").
        probe_fraction: f64,
        /// Target wall-clock duration of one chunk, in microseconds.
        target_chunk_micros: u64,
    },
    /// Fixed number of iterations per chunk (`static_chunk_size scs(size)`):
    /// hand-pinned, or derived by a tuner from the *measured* throughput of
    /// prior executions of the same loop (no probe is run — the measurement
    /// already happened).
    Static(usize),
    /// One contiguous chunk per worker, sizes differing by at most one
    /// iteration: `min(workers, n)` chunks of the range the call is given.
    /// HPX's default-constructed `static_chunk_size` (iterations ÷ cores)
    /// and OpenMP's `schedule(static)` — so a loop run color by color gets
    /// one chunk per worker *per color*, not a chunk sized for the whole loop.
    PerWorker,
}

impl ChunkSize {
    /// The auto-partitioner with the paper's parameters (1% probe, 200 µs
    /// target chunks).
    pub fn auto() -> Self {
        ChunkSize::Auto {
            probe_fraction: 0.01,
            target_chunk_micros: 200,
        }
    }
}

/// How a parallel algorithm executes and synchronizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionPolicy {
    pub(crate) kind: PolicyKind,
    pub(crate) chunk: ChunkSize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PolicyKind {
    Seq,
    Par,
    ParTask,
}

/// Sequential execution policy (`hpx::execution::seq`).
pub fn seq() -> ExecutionPolicy {
    ExecutionPolicy {
        kind: PolicyKind::Seq,
        chunk: ChunkSize::Default,
    }
}

/// Parallel, blocking execution policy (`hpx::execution::par`).
pub fn par() -> ExecutionPolicy {
    ExecutionPolicy {
        kind: PolicyKind::Par,
        chunk: ChunkSize::Default,
    }
}

/// Parallel, asynchronous execution policy (`par(task)`): the algorithm
/// returns a future instead of blocking.
pub fn par_task() -> ExecutionPolicy {
    ExecutionPolicy {
        kind: PolicyKind::ParTask,
        chunk: ChunkSize::Default,
    }
}

impl ExecutionPolicy {
    /// Override the grain-size strategy (`par.with(scs)` in HPX).
    pub fn with_chunk(mut self, chunk: ChunkSize) -> Self {
        self.chunk = chunk;
        self
    }

    /// The configured grain-size strategy.
    pub fn chunk(&self) -> ChunkSize {
        self.chunk
    }
}

/// Split `range` into chunks according to `chunk`, after `probed` iterations
/// have already been executed by the auto-partitioner probe.
fn plan_chunks(
    range: Range<usize>,
    workers: usize,
    chunk: ChunkSize,
    per_iter: Option<Duration>,
) -> Vec<Range<usize>> {
    let n = range.len();
    if n == 0 {
        return Vec::new();
    }
    let mut chunks = Vec::new();
    match chunk {
        ChunkSize::Default => {
            let size = (n / (4 * workers).max(1)).max(1);
            push_fixed(&mut chunks, range, size);
        }
        ChunkSize::Auto {
            target_chunk_micros,
            ..
        } => {
            let per_iter = per_iter.unwrap_or(Duration::from_nanos(100));
            let target = Duration::from_micros(target_chunk_micros.max(1));
            let mut size = if per_iter.is_zero() {
                n.div_ceil(4 * workers.max(1))
            } else {
                (target.as_nanos() / per_iter.as_nanos().max(1)) as usize
            };
            size = size.clamp(1, n.div_ceil(workers.max(1)).max(1));
            push_fixed(&mut chunks, range, size);
        }
        ChunkSize::Static(size) => push_fixed(&mut chunks, range, size.max(1)),
        ChunkSize::PerWorker => {
            let parts = workers.clamp(1, n);
            let (size, extra) = (n / parts, n % parts);
            let mut lo = range.start;
            for k in 0..parts {
                let hi = lo + size + usize::from(k < extra);
                chunks.push(lo..hi);
                lo = hi;
            }
        }
    }
    chunks
}

fn push_fixed(chunks: &mut Vec<Range<usize>>, range: Range<usize>, size: usize) {
    let mut lo = range.start;
    while lo < range.end {
        let hi = (lo + size).min(range.end);
        chunks.push(lo..hi);
        lo = hi;
    }
}

/// Run the auto-partitioner probe: hand the first `probe_fraction × n`
/// iterations to `f` as one sequential chunk and return (next unprocessed
/// index, per-iteration time).
fn auto_probe<F: Fn(Range<usize>) + ?Sized>(
    range: &Range<usize>,
    probe_fraction: f64,
    f: &F,
) -> (usize, Duration) {
    let n = range.len();
    let probe = (((n as f64) * probe_fraction) as usize).clamp(1, n);
    let start = Instant::now();
    f(range.start..range.start + probe);
    let elapsed = start.elapsed();
    (range.start + probe, elapsed / probe as u32)
}

/// Apply `f` to every index in `range` under `policy`, blocking until done.
///
/// With [`par`], chunks execute on the pool and the calling thread
/// participates via work-helping until the end-of-loop latch opens — the
/// fork-join model with its implicit barrier. Panics from `f` are re-thrown
/// after all chunks finish.
///
/// The closure only needs `Fn(usize) + Sync` (it may borrow locals): all
/// tasks are guaranteed to finish before this function returns.
pub fn for_each_index<P, F>(pool: &P, policy: ExecutionPolicy, range: Range<usize>, f: F)
where
    P: Pool + ?Sized,
    F: Fn(usize) + Sync,
{
    for_each_chunk_cancel(pool, policy, range, None, |chunk| chunk.for_each(&f))
}

/// [`for_each_index`] that hands `f` each planned chunk (and the
/// auto-partitioner's probe) as one ascending range, so per-chunk work — a
/// timer, a buffer — is paid once per chunk rather than once per index; with
/// cooperative cancellation: `cancel` is polled between chunks; once it
/// fires, remaining chunks are skipped and the call rethrows a [`Cancelled`]
/// payload after the in-flight chunks drain (the barrier still closes — no
/// task is ever leaked).
pub fn for_each_chunk_cancel<P, F>(
    pool: &P,
    policy: ExecutionPolicy,
    range: Range<usize>,
    cancel: Option<&CancelToken>,
    f: F,
) where
    P: Pool + ?Sized,
    F: Fn(Range<usize>) + Sync,
{
    if range.is_empty() {
        return;
    }
    match policy.kind {
        PolicyKind::Seq => f(range),
        PolicyKind::Par | PolicyKind::ParTask => {
            // Blocking call: ParTask without a future degenerates to Par.
            let (start, per_iter) = match policy.chunk {
                ChunkSize::Auto { probe_fraction, .. } => {
                    let span = op2_trace::begin();
                    let (next, t) = auto_probe(&range, probe_fraction, &f);
                    op2_trace::end(
                        span,
                        op2_trace::EventKind::Mark,
                        op2_trace::intern("auto-probe"),
                        (next - range.start) as u64,
                        0,
                    );
                    (next, Some(t))
                }
                _ => (range.start, None),
            };
            let rest = start..range.end;
            if rest.is_empty() {
                return;
            }
            let chunks = plan_chunks(rest, pool.num_threads(), policy.chunk, per_iter);
            run_chunks_blocking(pool, &chunks, &f, cancel);
        }
    }
}

/// Execute `chunks` of `f` on the pool and wait on a latch (work-helping).
fn run_chunks_blocking<P, F>(
    pool: &P,
    chunks: &[Range<usize>],
    f: &F,
    cancel: Option<&CancelToken>,
) where
    P: Pool + ?Sized,
    F: Fn(Range<usize>) + Sync,
{
    let latch = CountdownLatch::with_pool(pool, chunks.len());
    let panic_slot: Mutex<Option<PanicPayload>> = Mutex::new(None);

    // SAFETY: every spawned task counts the latch down exactly once (even on
    // panic, via the catch_unwind below), and we do not return before
    // `wait_helping` observes all count-downs — so the borrows of `f` and
    // `panic_slot` outlive every task that uses them.
    type ChunkFn<'a> = dyn Fn(Range<usize>) + Sync + 'a;
    let f_obj: &ChunkFn<'_> = f;
    let f_static: &'static ChunkFn<'static> =
        unsafe { std::mem::transmute::<&ChunkFn<'_>, &'static ChunkFn<'static>>(f_obj) };
    let panic_raw: *const Mutex<Option<PanicPayload>> = &panic_slot;
    let panic_ptr: &'static Mutex<Option<PanicPayload>> = unsafe { &*panic_raw };

    for chunk in chunks {
        let chunk = chunk.clone();
        let counter = latch.counter();
        let cancel = cancel.cloned();
        pool.spawn_boxed(Box::new(move || {
            // Cooperative cancellation: checked once per chunk, before the
            // chunk body runs. Skipped chunks still count the latch down so
            // the barrier closes and nothing leaks.
            if let Some(reason) = cancel.as_ref().and_then(CancelToken::check) {
                let mut guard = panic_ptr.lock();
                if guard.is_none() {
                    *guard = Some(Box::new(Cancelled(reason)));
                }
                counter.count_down();
                return;
            }
            let result = catch_unwind(AssertUnwindSafe(|| f_static(chunk)));
            if let Err(p) = result {
                let mut guard = panic_ptr.lock();
                if guard.is_none() {
                    *guard = Some(p);
                }
            }
            counter.count_down();
        }));
    }
    latch.wait_helping();
    let panicked = panic_slot.lock().take();
    if let Some(p) = panicked {
        std::panic::resume_unwind(p);
    }
}

/// Apply `f` to every index in `range` asynchronously: returns a future that
/// becomes ready when the last chunk finishes (`for_each(par(task))`).
///
/// No barrier is executed on the calling thread — this is what lets loops
/// overlap. The closure must be `'static` (shared by reference-count with the
/// spawned chunks). Chunk planning (including the auto-partitioner probe)
/// runs inside the first pool task, so the call itself never blocks.
pub fn for_each_index_task<P, F>(
    pool: &P,
    policy: ExecutionPolicy,
    range: Range<usize>,
    f: F,
) -> Future<()>
where
    P: Pool + ?Sized,
    F: Fn(usize) + Send + Sync + 'static,
{
    for_each_index_task_cancel(pool, policy, range, None, f)
}

/// [`for_each_index_task`] with cooperative cancellation, polled between
/// chunks exactly as in [`for_each_chunk_cancel`]; the returned future then
/// completes with a [`Cancelled`] payload.
pub fn for_each_index_task_cancel<P, F>(
    pool: &P,
    policy: ExecutionPolicy,
    range: Range<usize>,
    cancel: Option<&CancelToken>,
    f: F,
) -> Future<()>
where
    P: Pool + ?Sized,
    F: Fn(usize) + Send + Sync + 'static,
{
    let cancel = cancel.cloned();
    let (out_shared, out) = Future::<()>::new_pair(Some(pool.spawner()));
    if range.is_empty() {
        out_shared.complete(Ok(()));
        return out;
    }
    let f = Arc::new(f);
    let workers = pool.num_threads();
    let spawner = pool.spawner();
    let chunk_policy = policy.chunk;
    // Everything (probe + chunk fan-out) happens inside this task so the
    // caller returns immediately.
    pool.spawn_boxed(Box::new(move || {
        let (start, per_iter) = match chunk_policy {
            ChunkSize::Auto { probe_fraction, .. } => {
                let span = op2_trace::begin();
                let probe = catch_unwind(AssertUnwindSafe(|| {
                    auto_probe(&range, probe_fraction, &|chunk: Range<usize>| {
                        chunk.for_each(f.as_ref())
                    })
                }));
                op2_trace::end(
                    span,
                    op2_trace::EventKind::Mark,
                    op2_trace::intern("auto-probe"),
                    0,
                    0,
                );
                match probe {
                    Ok((next, t)) => (next, Some(t)),
                    Err(p) => {
                        out_shared.complete(Err(TaskFailure::of(&p)));
                        return;
                    }
                }
            }
            _ => (range.start, None),
        };
        let chunks = plan_chunks(start..range.end, workers, chunk_policy, per_iter);
        let join = Join::new(chunks.len(), move |res| out_shared.complete(res));
        for chunk in chunks {
            let f = Arc::clone(&f);
            let join = Arc::clone(&join);
            let cancel = cancel.clone();
            let task: crate::pool::Task = Box::new(move || {
                join.arrive(match cancel.as_ref().and_then(CancelToken::check) {
                    Some(reason) => Err(TaskFailure::Cancelled(reason)),
                    None => catch_unwind(AssertUnwindSafe(|| {
                        for i in chunk {
                            f(i);
                        }
                    }))
                    .map_err(|p| TaskFailure::of(&p)),
                })
            });
            if let Err(task) = spawner.spawn(task) {
                task();
            }
        }
    }));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn auto(target_chunk_micros: u64) -> ChunkSize {
        ChunkSize::Auto {
            probe_fraction: 0.01,
            target_chunk_micros,
        }
    }

    /// Chunks must partition the range exactly: cover every index once, in
    /// order, with no empty chunks — for any policy.
    fn assert_partitions(chunks: &[Range<usize>], range: Range<usize>) {
        let mut next = range.start;
        for c in chunks {
            assert_eq!(c.start, next, "gap or overlap at {next}");
            assert!(c.end > c.start, "empty chunk {c:?}");
            next = c.end;
        }
        assert_eq!(next, range.end, "range not fully covered");
    }

    #[test]
    fn auto_empty_range_plans_no_chunks() {
        assert!(plan_chunks(0..0, 4, auto(200), None).is_empty());
        assert!(plan_chunks(7..7, 4, auto(200), Some(Duration::from_nanos(50))).is_empty());
    }

    #[test]
    fn auto_tiny_ranges_get_sane_chunks() {
        // Tiny loops (< 100 iterations): whatever the measured per-iteration
        // cost, every chunk must hold between 1 and ceil(n/workers) indices.
        for n in [1usize, 2, 3, 7, 10, 99] {
            for per_iter in [
                None,
                Some(Duration::ZERO),
                Some(Duration::from_nanos(1)),
                Some(Duration::from_micros(500)), // slower than the target chunk
            ] {
                let workers = 4;
                let chunks = plan_chunks(0..n, workers, auto(200), per_iter);
                assert_partitions(&chunks, 0..n);
                let cap = n.div_ceil(workers).max(1);
                for c in &chunks {
                    assert!(
                        c.len() <= cap,
                        "n={n} per_iter={per_iter:?}: chunk {c:?} exceeds cap {cap}"
                    );
                }
            }
        }
    }

    #[test]
    fn auto_slow_iterations_shrink_chunks() {
        // 1 ms per iteration against a 200 µs chunk target → chunks of 1.
        let chunks = plan_chunks(0..64, 4, auto(200), Some(Duration::from_millis(1)));
        assert_partitions(&chunks, 0..64);
        assert!(chunks.iter().all(|c| c.len() == 1), "{chunks:?}");
    }

    #[test]
    fn auto_fast_iterations_cap_at_per_worker_share() {
        // 1 ns per iteration → the raw estimate (200k iterations) must be
        // clamped to one chunk per worker, never a single serial chunk.
        let chunks = plan_chunks(0..1000, 4, auto(200), Some(Duration::from_nanos(1)));
        assert_partitions(&chunks, 0..1000);
        assert!(chunks.len() >= 4, "{} chunks", chunks.len());
    }

    #[test]
    fn static_survives_zero() {
        // A degenerate (tuned) size of 0 is clamped to 1 instead of looping
        // forever.
        let chunks = plan_chunks(0..5, 4, ChunkSize::Static(0), None);
        assert_partitions(&chunks, 0..5);
        assert!(chunks.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn per_worker_is_one_balanced_chunk_per_worker_of_the_range_given() {
        for (n, workers) in [(1, 2), (2, 2), (3, 2), (5, 4), (255, 2), (256, 3), (7, 1)] {
            let chunks = plan_chunks(10..10 + n, workers, ChunkSize::PerWorker, None);
            assert_partitions(&chunks, 10..10 + n);
            assert_eq!(chunks.len(), workers.min(n), "n={n} workers={workers}");
            let (lo, hi) = chunks.iter().fold((usize::MAX, 0), |(lo, hi), c| {
                (lo.min(c.len()), hi.max(c.len()))
            });
            assert!(hi - lo <= 1, "n={n} workers={workers}: {chunks:?}");
        }
    }

    #[test]
    fn all_policies_partition_exactly() {
        for chunk in [
            ChunkSize::Default,
            auto(200),
            ChunkSize::Static(3),
            ChunkSize::Static(7),
            ChunkSize::PerWorker,
        ] {
            for n in [0usize, 1, 5, 17, 100] {
                let chunks = plan_chunks(0..n, 3, chunk, None);
                assert_partitions(&chunks, 0..n);
            }
        }
    }
}
