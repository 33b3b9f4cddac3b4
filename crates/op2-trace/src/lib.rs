//! Real-runtime tracing for the OP2/HPX stack.
//!
//! The `simsched` crate can *simulate* where fork-join barriers leave
//! workers idle; this crate measures it on the live runtime. Instrumented
//! layers (`hpx-rt` pools/futures/latches, the `op2-hpx` executors, the
//! `op2-dist` fabric) call the recording entry points here; a
//! [`Collector`] session gathers per-thread lock-free event rings into a
//! [`Timeline`], which [`report::analyze`] turns into per-loop wait
//! attribution + a measured critical path, and [`chrome::to_chrome_json`]
//! exports in the same Chrome-trace schema as the simulator for
//! side-by-side viewing in Perfetto.
//!
//! ## Always compiled, idle until started
//!
//! There is one build. The recorder is ordinary code that stays idle until
//! [`Collector::start`]: an idle hook is one relaxed atomic load and records
//! nothing (see `tests/noop_guard.rs`), so instrumented crates and binaries
//! call [`begin`]/[`end`]/[`instant`] with no `cfg`, and turning tracing on
//! is a run-time choice, as with HPX's performance counters.
//!
//! ## Typical session
//!
//! ```
//! use op2_trace::{Collector, report};
//!
//! let c = Collector::start();
//! // ... run instrumented work ...
//! let timeline = c.stop();
//! let rep = report::analyze(&timeline);
//! println!("{}", rep.render());
//! ```

pub mod chrome;
mod collect;
mod event;
mod record;
pub mod report;

pub use collect::Timeline;
pub use event::{Event, EventKind, NO_INSTANCE, NO_NAME};
pub use record::{begin, enabled, end, instant, intern, Collector, SpanToken};

/// Pack two 32-bit values into an event payload word (fabric rank/peer,
/// epoch/seq tagging).
#[inline(always)]
pub const fn pack2(hi: u32, lo: u32) -> u64 {
    (hi as u64) << 32 | lo as u64
}

/// Inverse of [`pack2`].
#[inline(always)]
pub const fn unpack2(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}
