//! Overhead guard: an idle recorder costs nothing observable.
//!
//! The recorder is always compiled and stays idle until a
//! [`Collector`] starts a session. Idle, a `begin`/`end` pair or an
//! `instant` is one relaxed load of the enabled flag: it allocates nothing
//! (this binary counts every allocation its threads make), flips no state,
//! and leaves nothing behind for a later session to find.
//!
//! Sessions are process-global, so both tests run under one mutex: an idle
//! loop must not run while the other test holds a session open.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

use op2_trace::{begin, enabled, end, instant, intern, Collector, EventKind};

/// Counts the allocations made by the calling thread, so tests running
/// beside this one on other threads cannot move the count.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

static SESSION: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    SESSION.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn idle_hooks_allocate_nothing_and_leave_no_trace() {
    let _g = locked();
    let marker = intern("idle_marker");
    assert!(!enabled());
    let before = ALLOCS.with(Cell::get);
    for i in 0..1_000_000u64 {
        let tok = begin();
        end(tok, EventKind::Task, marker, i, 0);
        instant(EventKind::Steal, marker, i, 0);
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(allocs, 0, "idle hooks allocated {allocs} times");
    assert!(!enabled(), "idle hooks must not flip any state");

    let timeline = Collector::start().stop();
    let leaked = timeline.events.iter().filter(|e| e.name == marker).count();
    assert_eq!(leaked, 0, "a later session holds {leaked} idle events");
}

#[test]
fn empty_session_analyzes_and_exports() {
    let _g = locked();
    let timeline = Collector::start().stop();
    assert!(timeline.is_empty());
    assert_eq!(timeline.dropped, 0);
    let rep = op2_trace::report::analyze(&timeline);
    assert_eq!(rep.wall_ns, 0);
    assert_eq!(rep.critical_path_ns, 0);
    assert!(rep.loops.is_empty());
    assert!(rep.render().contains("no events recorded"));
    assert_eq!(op2_trace::chrome::to_chrome_json(&timeline), "[\n]");
}
