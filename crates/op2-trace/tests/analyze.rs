//! Assembler/report/export unit tests over hand-built timelines: `Timeline`
//! fields are public, so the analysis and export halves are exercised
//! without a recording session.

use op2_trace::report::analyze;
use op2_trace::{chrome, Event, EventKind, Timeline};

fn ev(kind: EventKind, tid: u32, name: u32, a: u64, b: u64, start: u64, end: u64) -> Event {
    Event { kind, tid, name, a, b, start_ns: start, end_ns: end }
}

fn strings() -> Vec<String> {
    vec!["res_calc".into(), "update".into(), "forkjoin".into(), "dataflow".into()]
}

/// Two loops with an implicit-barrier wait on the first, partially helped.
fn barrier_timeline() -> Timeline {
    let exec = 2; // "forkjoin"
    let events = vec![
        ev(EventKind::LoopBegin, 0, 0, 1, exec as u64, 0, 0),
        // Caller blocked at the end-of-loop barrier for 100 ns...
        ev(EventKind::BarrierWait, 0, u32::MAX, 1, 0, 0, 100),
        // ...but helped with a 40 ns task inside the wait.
        ev(EventKind::Task, 0, u32::MAX, 7, 0, 30, 70),
        ev(EventKind::LoopEnd, 0, 0, 1, 0, 100, 100),
        ev(EventKind::LoopBegin, 0, 1, 2, exec as u64, 100, 100),
        ev(EventKind::LoopEnd, 0, 1, 2, 0, 160, 160),
        // Program-order edge loop 1 -> loop 2.
        ev(EventKind::DepEdge, 0, u32::MAX, 1, 2, 160, 160),
        // An untagged raw latch wait (per-color barrier inside a body).
        ev(EventKind::BarrierWait, 1, u32::MAX, 0, 0, 10, 25),
    ];
    Timeline { events, strings: strings(), dropped: 0 }
}

#[test]
fn barrier_attribution_gross_and_net() {
    let rep = analyze(&barrier_timeline());
    assert_eq!(rep.loops.len(), 2);
    let res = &rep.loops[0];
    assert_eq!(res.name, "res_calc");
    assert_eq!(res.executor, "forkjoin");
    assert_eq!(res.count, 1);
    assert_eq!(res.total_ns, 100);
    assert_eq!(res.barrier_blocked_ns, 100, "gross barrier time");
    assert_eq!(res.barrier_stalled_ns, 60, "net of the 40 ns helped task");
    let upd = &rep.loops[1];
    assert_eq!(upd.name, "update");
    assert_eq!(upd.barrier_blocked_ns, 0);
    assert_eq!(rep.untagged_barrier_ns, 15, "raw latch wait stays untagged");
    assert_eq!(rep.barrier_blocked_ns, 100);
    assert_eq!(rep.barrier_wait_ns(), 100);
}

#[test]
fn program_order_chain_makes_cp_the_sum() {
    let rep = analyze(&barrier_timeline());
    // Chain 1 -> 2 covers both instances: cp = 100 + 60.
    assert_eq!(rep.critical_path_ns, 160);
    assert_eq!(rep.critical_path_len, 2);
    assert_eq!(rep.loop_total_ns, 160);
}

#[test]
fn diamond_critical_path_takes_longest_branch() {
    let exec = 3u64; // "dataflow"
    let events = vec![
        ev(EventKind::LoopBegin, 0, 0, 1, exec, 0, 0),
        ev(EventKind::LoopEnd, 0, 0, 1, 0, 100, 100),
        ev(EventKind::LoopBegin, 1, 0, 2, exec, 100, 100),
        ev(EventKind::LoopEnd, 1, 0, 2, 0, 150, 150),
        ev(EventKind::LoopBegin, 2, 0, 3, exec, 100, 100),
        ev(EventKind::LoopEnd, 2, 0, 3, 0, 170, 170),
        ev(EventKind::LoopBegin, 0, 1, 4, exec, 170, 170),
        ev(EventKind::LoopEnd, 0, 1, 4, 0, 180, 180),
        ev(EventKind::DepEdge, 0, u32::MAX, 1, 2, 0, 0),
        ev(EventKind::DepEdge, 0, u32::MAX, 1, 3, 0, 0),
        ev(EventKind::DepEdge, 0, u32::MAX, 2, 4, 0, 0),
        ev(EventKind::DepEdge, 0, u32::MAX, 3, 4, 0, 0),
    ];
    let rep = analyze(&Timeline { events, strings: strings(), dropped: 0 });
    // 100 (a) + 70 (longer branch) + 10 (join) = 180.
    assert_eq!(rep.critical_path_ns, 180);
    assert_eq!(rep.critical_path_len, 3);
    // Backward/self edges must be ignored, not cycle.
    assert_eq!(rep.loops.len(), 2);
}

#[test]
fn dep_wait_attributes_to_awaited_loop() {
    let events = vec![
        ev(EventKind::LoopBegin, 0, 0, 1, 3, 0, 0),
        ev(EventKind::LoopEnd, 0, 0, 1, 0, 50, 50),
        // Main thread waits 30 ns on instance 1's handle.
        ev(EventKind::DepWait, 9, u32::MAX, 1, 0, 20, 50),
        // Raw future wait with no instance tag.
        ev(EventKind::DepWait, 9, u32::MAX, 0, 0, 60, 65),
    ];
    let rep = analyze(&Timeline { events, strings: strings(), dropped: 0 });
    assert_eq!(rep.loops[0].dep_wait_ns, 30);
    assert_eq!(rep.dep_wait_ns, 30);
    assert_eq!(rep.untagged_dep_ns, 5);
}

#[test]
fn idle_fraction_counts_only_task_running_threads() {
    let events = vec![
        // Worker 0 busy 60/100, worker 1 busy 20/100 (plus a park span).
        ev(EventKind::Task, 0, u32::MAX, 1, 0, 0, 60),
        ev(EventKind::Task, 1, u32::MAX, 2, 0, 0, 20),
        ev(EventKind::Park, 1, u32::MAX, 0, 0, 20, 100),
        // Thread 5 only emits a mark — not a worker.
        ev(EventKind::Mark, 5, u32::MAX, 0, 0, 100, 100),
    ];
    let rep = analyze(&Timeline { events, strings: strings(), dropped: 0 });
    assert_eq!(rep.workers, 2);
    assert_eq!(rep.tasks, 2);
    assert_eq!(rep.parks, 1);
    let expect = 1.0 - (60.0 + 20.0) / 200.0;
    assert!((rep.idle_fraction - expect).abs() < 1e-9, "{}", rep.idle_fraction);
}

#[test]
fn render_mentions_loops_and_totals() {
    let rep = analyze(&barrier_timeline());
    let text = rep.render();
    assert!(text.contains("res_calc"));
    assert!(text.contains("update"));
    assert!(text.contains("critical path"));
    assert!(text.contains("(total)"));
    assert!(text.contains("untagged"));
}

#[test]
fn chrome_json_parses_and_matches_sim_schema() {
    let json = chrome::to_chrome_json(&barrier_timeline());
    let v: serde::Value = serde_json::from_str(&json).expect("valid JSON");
    let arr = v.as_array().expect("chrome trace is an array");
    assert_eq!(arr.len(), 8);
    assert!(!json.contains(",\n]"), "no trailing comma");
    for e in arr {
        assert!(e.as_object().is_some(), "event object");
        for key in ["name", "cat", "ph", "ts", "pid", "tid"] {
            assert!(e.get(key).is_some(), "missing {key}: {e:?}");
        }
        match e.get("ph").and_then(|p| p.as_str()).unwrap() {
            "X" => assert!(e.get("dur").is_some()),
            "i" => assert_eq!(e.get("s").and_then(|s| s.as_str()), Some("t")),
            ph => panic!("unexpected phase {ph}"),
        }
    }
    // Spans and instants both present, with resolved names.
    assert!(json.contains("\"name\": \"res_calc\""));
    assert!(json.contains("\"cat\": \"barrier-wait\""));
    assert!(json.contains("\"ph\": \"X\""));
    assert!(json.contains("\"ph\": \"i\""));
}

#[test]
fn chrome_json_escapes_names() {
    let events = vec![ev(EventKind::LoopBegin, 0, 0, 1, 0, 0, 0)];
    let strings = vec!["weird \"loop\"\nname".to_string()];
    let json = chrome::to_chrome_json(&Timeline { events, strings, dropped: 0 });
    serde_json::from_str::<serde::Value>(&json).expect("escaped JSON parses");
}

#[test]
fn timeline_helpers() {
    let t = barrier_timeline();
    assert_eq!(t.thread_ids(), vec![0, 1]);
    assert_eq!(t.span_ns(), Some((0, 160)));
    assert_eq!(t.of_kind(EventKind::LoopBegin).count(), 2);
    assert_eq!(t.name_of(0), Some("res_calc"));
    assert_eq!(t.name_of(u32::MAX), None);
    assert!(chrome::name_resolves(&t, u32::MAX));
    assert!(chrome::name_resolves(&t, 3));
    assert!(!chrome::name_resolves(&t, 4));
}

#[test]
fn pack_helpers_round_trip() {
    let v = op2_trace::pack2(0xdead_beef, 42);
    assert_eq!(op2_trace::unpack2(v), (0xdead_beef, 42));
}
