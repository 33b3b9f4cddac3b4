//! The recording half: per-thread lock-free event rings, always compiled and
//! idle until a [`Collector`] starts a session.
//!
//! Hot-path contract: one relaxed atomic load (the global enabled flag) when
//! tracing is idle; when active, an event costs five relaxed stores into a
//! thread-owned ring plus one release store of the ring's write counter.
//! Rings are single-writer (the owning thread), fixed capacity, and
//! overwrite oldest entries — the collector reports how many events were
//! dropped that way. A concurrent writer that raced past `Collector::stop`
//! can at worst garble the *values* of one in-flight slot (every word is an
//! atomic, so there is no UB); it cannot corrupt the ring.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::event::{Event, EventKind, NO_NAME};
use crate::Timeline;

/// Events retained per thread; older entries are overwritten (and
/// counted as dropped). 1<<16 slots × 40 B = 2.5 MiB per recording
/// thread, enough for several Airfoil iterations on a small mesh.
const RING_CAP: usize = 1 << 16;

/// One event: `[meta, a, b, start_ns, end_ns]` where
/// `meta = kind | name << 32`.
type Slot = [AtomicU64; 5];

struct Ring {
    tid: u32,
    /// Monotonic write counter; slot `i` lives at `i % RING_CAP`.
    /// Stored with `Release` after the slot words so a collector
    /// reading it with `Acquire` sees fully written slots.
    count: AtomicU64,
    slots: Box<[Slot]>,
}

impl Ring {
    fn new(tid: u32) -> Ring {
        let slots = (0..RING_CAP)
            .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
            .collect::<Vec<Slot>>()
            .into_boxed_slice();
        Ring { tid, count: AtomicU64::new(0), slots }
    }

    fn push(&self, kind: EventKind, name: u32, a: u64, b: u64, start_ns: u64, end_ns: u64) {
        let n = self.count.load(Ordering::Relaxed);
        let slot = &self.slots[(n as usize) % RING_CAP];
        let meta = kind as u64 | (name as u64) << 32;
        slot[0].store(meta, Ordering::Relaxed);
        slot[1].store(a, Ordering::Relaxed);
        slot[2].store(b, Ordering::Relaxed);
        slot[3].store(start_ns, Ordering::Relaxed);
        slot[4].store(end_ns, Ordering::Relaxed);
        self.count.store(n + 1, Ordering::Release);
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU32 = AtomicU32::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn registry() -> &'static Mutex<Vec<Arc<Ring>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn strings() -> &'static Mutex<(Vec<String>, HashMap<String, u32>)> {
    static STRINGS: OnceLock<Mutex<(Vec<String>, HashMap<String, u32>)>> = OnceLock::new();
    STRINGS.get_or_init(|| Mutex::new((Vec::new(), HashMap::new())))
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    static RING: Arc<Ring> = {
        let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        let ring = Arc::new(Ring::new(tid));
        lock(registry()).push(ring.clone());
        ring
    };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Whether a collector is currently recording.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Intern `s`, returning a stable id valid for the whole process (ids are
/// shared across recording sessions). Call once per loop/executor at setup,
/// not per event.
pub fn intern(s: &str) -> u32 {
    let mut g = lock(strings());
    if let Some(&id) = g.1.get(s) {
        return id;
    }
    let id = g.0.len() as u32;
    assert!(id < NO_NAME, "trace string table overflow");
    g.0.push(s.to_string());
    g.1.insert(s.to_string(), id);
    id
}

fn record(kind: EventKind, name: u32, a: u64, b: u64, start_ns: u64, end_ns: u64) {
    RING.with(|r| r.push(kind, name, a, b, start_ns, end_ns));
}

/// An in-flight recording session. Holding the guard serializes sessions
/// process-wide (concurrent collectors would attribute each other's
/// events).
pub struct Collector {
    _guard: MutexGuard<'static, ()>,
    /// `(tid, count)` per ring at start; rings registered later start at 0.
    start_counts: Vec<(u32, u64)>,
}

fn session_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

impl Collector {
    /// Begin recording. Events emitted before `start` are excluded from
    /// the resulting [`Timeline`].
    pub fn start() -> Collector {
        let guard = lock(session_lock());
        let start_counts = lock(registry())
            .iter()
            .map(|r| (r.tid, r.count.load(Ordering::Acquire)))
            .collect();
        ENABLED.store(true, Ordering::Relaxed);
        Collector { _guard: guard, start_counts }
    }

    /// Stop recording and assemble everything recorded since `start`.
    pub fn stop(self) -> Timeline {
        ENABLED.store(false, Ordering::Relaxed);
        let mut events = Vec::new();
        let mut dropped: u64 = 0;
        for ring in lock(registry()).iter() {
            let start = self
                .start_counts
                .iter()
                .find(|&&(tid, _)| tid == ring.tid)
                .map(|&(_, c)| c)
                .unwrap_or(0);
            let end = ring.count.load(Ordering::Acquire);
            let first = start.max(end.saturating_sub(RING_CAP as u64));
            dropped += first - start;
            for i in first..end {
                let slot = &ring.slots[(i as usize) % RING_CAP];
                let meta = slot[0].load(Ordering::Relaxed);
                let Some(kind) = EventKind::from_u8((meta & 0xff) as u8) else {
                    continue;
                };
                events.push(Event {
                    kind,
                    tid: ring.tid,
                    name: (meta >> 32) as u32,
                    a: slot[1].load(Ordering::Relaxed),
                    b: slot[2].load(Ordering::Relaxed),
                    start_ns: slot[3].load(Ordering::Relaxed),
                    end_ns: slot[4].load(Ordering::Relaxed),
                });
            }
        }
        events.sort_by_key(|e| (e.start_ns, e.end_ns, e.tid));
        let strings = lock(strings()).0.clone();
        Timeline { events, strings, dropped }
    }
}

/// Open span marker; see [`begin`].
#[derive(Debug)]
pub struct SpanToken {
    /// `u64::MAX` means "tracing was disabled at begin — drop at end".
    start_ns: u64,
}

const DISARMED: u64 = u64::MAX;

/// Begin a span. Cheap when tracing is idle (one relaxed load); the returned
/// token must be passed to [`end`].
#[inline]
pub fn begin() -> SpanToken {
    if enabled() {
        SpanToken { start_ns: now_ns() }
    } else {
        SpanToken { start_ns: DISARMED }
    }
}

/// Close a span opened by [`begin`], recording it if tracing was active at
/// both ends.
#[inline]
pub fn end(token: SpanToken, kind: EventKind, name: u32, a: u64, b: u64) {
    if token.start_ns != DISARMED && enabled() {
        let end_ns = now_ns();
        record(kind, name, a, b, token.start_ns, end_ns);
    }
}

/// Record a zero-duration event.
#[inline]
pub fn instant(kind: EventKind, name: u32, a: u64, b: u64) {
    if enabled() {
        let t = now_ns();
        record(kind, name, a, b, t, t);
    }
}
