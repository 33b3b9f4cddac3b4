//! # hpx-rt — an HPX-style asynchronous task runtime
//!
//! This crate is a from-scratch Rust reimplementation of the subset of the
//! [HPX](https://hpx.stellar-group.org/) C++ runtime system that the ICPP 2016
//! paper *"Using HPX and OP2 for Improving Parallel Scaling Performance of
//! Unstructured Grid Applications"* relies on:
//!
//! * a **work-stealing thread pool** of lightweight tasks ([`ThreadPool`]),
//! * **futures** with attachable continuations and a work-helping, deadlock-free
//!   [`Future::get`] ([`Future`], [`Promise`]) — one shared state under the
//!   unique [`Future`] and the cloning [`SharedFuture`] view of it, with a
//!   producer's failure kept inside it as a cloneable [`TaskFailure`],
//! * **asynchronous function execution** ([`async_spawn`], the analogue of
//!   `hpx::async`),
//! * **dataflow** — delayed function invocation that fires once all input
//!   futures are ready ([`dataflow2`], [`when_all`]; one join under every
//!   countdown),
//! * **parallel algorithms** with execution policies — [`for_each`] under
//!   `par` (blocking, fork-join) or `par(task)` (asynchronous, returns a
//!   future), with runtime-controlled grain size including the HPX
//!   *auto-partitioner* that estimates a chunk size by sequentially executing
//!   ~1% of the loop ([`ChunkSize::Auto`]).
//!
//! The scheduling semantics matter more than raw speed here: the OP2 backends
//! built on top of this runtime (crate `op2-hpx`) compare a fork-join,
//! globally-barriered execution style against future- and dataflow-based
//! styles, exactly as the paper does.
//!
//! ## Quick example
//!
//! ```
//! use hpx_rt::{ThreadPool, async_spawn, dataflow2, par, for_each_index};
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let pool = ThreadPool::new(4);
//!
//! // hpx::async — returns a future immediately.
//! let a = async_spawn(&pool, || 21u64);
//! let b = async_spawn(&pool, || 2u64);
//!
//! // hpx::dataflow — runs as soon as both inputs are ready.
//! let c = dataflow2(&pool, |x, y| x * y, a, b);
//! assert_eq!(c.get(), 42);
//!
//! // hpx::parallel::for_each(par, ...) — blocking parallel loop.
//! let hits = AtomicU64::new(0);
//! for_each_index(&pool, par(), 0..1000, |_i| {
//!     hits.fetch_add(1, Ordering::Relaxed);
//! });
//! assert_eq!(hits.load(Ordering::Relaxed), 1000);
//! ```

#![warn(missing_docs)]

pub mod cancel;
pub mod dataflow;
pub mod det;
pub mod for_each;
pub mod future;
pub mod latch;
pub mod metrics;
pub mod pool;
pub mod spawn;

pub use cancel::{CancelReason, CancelToken, Cancelled};
pub use dataflow::{
    dataflow1, dataflow2, dataflow3, dataflow4, when_all, when_all_shared_unit, when_all_unit,
};
pub use det::{DetPool, SchedulePolicy};
pub use for_each::{
    for_each_chunk_cancel, for_each_index, for_each_index_task, for_each_index_task_cancel, par,
    par_task, seq, ChunkSize, ExecutionPolicy,
};
pub use future::{
    make_ready_future, panic_message, Future, PanicPayload, Promise, SharedFuture, TaskFailure,
    TaskPanic,
};
pub use latch::CountdownLatch;
pub use metrics::{MetricsSnapshot, PoolMetrics};
pub use pool::{Pool, PoolBuilder, Spawner, Task, ThreadPool};
pub use spawn::async_spawn;
