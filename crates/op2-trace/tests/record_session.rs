//! Live-recording tests: what a started session records.
//!
//! Sessions are process-global, so every test runs under one mutex — the
//! `Collector` itself enforces this, but taking our own lock keeps assertion
//! failures (which poison nothing here) from cascading across tests.

use std::sync::Mutex;

use op2_trace::{begin, enabled, end, instant, intern, Collector, EventKind, NO_NAME};

static SESSION: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    SESSION.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn records_spans_and_instants() {
    let _g = locked();
    let name = intern("session_loop");
    assert_ne!(name, NO_NAME);
    let c = Collector::start();
    assert!(enabled());
    let tok = begin();
    std::thread::sleep(std::time::Duration::from_millis(1));
    end(tok, EventKind::Task, name, 7, 0);
    instant(EventKind::Steal, NO_NAME, 3, 0);
    let t = c.stop();
    assert!(!enabled());
    assert_eq!(t.dropped, 0);
    let task = t
        .of_kind(EventKind::Task)
        .find(|e| e.name == name)
        .expect("task span recorded");
    assert_eq!(task.a, 7);
    assert!(task.dur_ns() >= 1_000_000, "slept ≥1 ms: {}", task.dur_ns());
    assert_eq!(t.name_of(name), Some("session_loop"));
    assert!(t.of_kind(EventKind::Steal).any(|e| e.a == 3));
}

#[test]
fn events_outside_session_are_excluded() {
    let _g = locked();
    let name = intern("outside");
    // Before start: enabled() is false, so nothing records.
    let tok = begin();
    end(tok, EventKind::Task, name, 1, 0);
    let c = Collector::start();
    let tok = begin();
    end(tok, EventKind::Task, name, 2, 0);
    let t = c.stop();
    // After stop: dropped too.
    let tok = begin();
    end(tok, EventKind::Task, name, 3, 0);
    let ours: Vec<u64> = t
        .of_kind(EventKind::Task)
        .filter(|e| e.name == name)
        .map(|e| e.a)
        .collect();
    assert_eq!(ours, vec![2]);
}

#[test]
fn per_thread_order_is_preserved() {
    let _g = locked();
    let name = intern("ordered");
    let c = Collector::start();
    let handles: Vec<_> = (0..4)
        .map(|w| {
            std::thread::spawn(move || {
                for i in 0..100u64 {
                    instant(EventKind::Mark, NO_NAME, w, i);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let t = c.stop();
    assert_eq!(t.dropped, 0);
    let _ = name;
    // Within each recording thread, our payload counter must be ascending.
    for tid in t.thread_ids() {
        let seq: Vec<u64> = t
            .events
            .iter()
            .filter(|e| e.tid == tid && e.kind == EventKind::Mark)
            .map(|e| e.b)
            .collect();
        assert!(seq.windows(2).all(|w| w[0] < w[1]), "tid {tid}: {seq:?}");
    }
    // All 400 marks landed (4 OS threads, but thread-locals may reuse tids
    // across tests — count events, not threads).
    let marks = t.of_kind(EventKind::Mark).count();
    assert_eq!(marks, 400);
}

#[test]
fn interning_is_stable_across_sessions() {
    let _g = locked();
    let a = intern("stable-name");
    let b = intern("stable-name");
    assert_eq!(a, b);
    let c = Collector::start();
    instant(EventKind::Mark, a, 0, 0);
    let t = c.stop();
    assert_eq!(t.name_of(a), Some("stable-name"));
}
