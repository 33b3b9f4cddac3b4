//! Crash-restart behaviour of the durable job journal: a killed service's
//! incomplete jobs are requeued by the next start, completed ones dedupe
//! to their recorded outcome, nothing runs twice, and every key ends with
//! exactly one terminal outcome — under clean disks and under seeded
//! storage faults alike.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use op2_serve::{
    AdmissionError, JobJournal, JobOutcome, JobOutput, JournalState, Priority, ServeOptions,
    Service,
};
use op2_store::StoreFaultPlan;

fn tmpdir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("op2-serve-journal-{tag}-{}-{n}", std::process::id()))
}

/// Deterministic per-key output: whether a key runs before a crash, after
/// a restart, or twice-minus-dedupe, its completed values must be
/// bit-identical.
fn expected_values(key: &str) -> Vec<f64> {
    key.bytes()
        .map(|b| f64::from(b) * 0.5 + key.len() as f64)
        .collect()
}

type RunCounts = Arc<Mutex<HashMap<String, u32>>>;

/// A quick deterministic recipe that counts its executions per key.
fn quick_recipe(counts: RunCounts) -> impl Fn() -> op2_serve::Program + Send + Sync + 'static {
    move || {
        let counts = Arc::clone(&counts);
        Box::new(move |ctx| {
            *counts.lock().unwrap().entry(ctx.name().to_owned()).or_insert(0) += 1;
            Ok(JobOutput::from_values(expected_values(ctx.name())))
        })
    }
}

#[test]
fn killed_service_requeues_incomplete_and_dedupes_completed() {
    let dir = tmpdir("kill");
    let counts: RunCounts = Arc::new(Mutex::new(HashMap::new()));
    let gate_open = Arc::new(AtomicBool::new(false));
    let blocker_running = Arc::new(AtomicBool::new(false));

    let svc = {
        let counts = Arc::clone(&counts);
        let gate_open = Arc::clone(&gate_open);
        let blocker_running = Arc::clone(&blocker_running);
        Service::start(
            ServeOptions::default()
                .workers(1)
                .journal(&dir)
                .recipe("quick", quick_recipe(Arc::clone(&counts)))
                .recipe("blocker", move || {
                    let counts = Arc::clone(&counts);
                    let gate_open = Arc::clone(&gate_open);
                    let blocker_running = Arc::clone(&blocker_running);
                    Box::new(move |ctx| {
                        *counts.lock().unwrap().entry(ctx.name().to_owned()).or_insert(0) += 1;
                        blocker_running.store(true, Ordering::Release);
                        loop {
                            ctx.check_cancelled()?;
                            if gate_open.load(Ordering::Acquire) {
                                return Ok(JobOutput::from_values(expected_values(ctx.name())));
                            }
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    })
                }),
        )
    };

    // One job completes (its terminal outcome lands on disk), one is
    // mid-run at the kill, one never leaves the queue.
    let done = svc.submit_durable("job-done", "quick");
    assert!(done.wait().is_completed());
    let blocked = svc.submit_durable("job-blocked", "blocker");
    let queued = svc.submit_durable("job-queued", "quick");
    let t0 = Instant::now();
    while !blocker_running.load(Ordering::Acquire) {
        assert!(t0.elapsed() < Duration::from_secs(10), "blocker never started");
        std::thread::sleep(Duration::from_millis(1));
    }

    svc.kill();
    // The crash resolves in-memory handles without journaling: clients see
    // the process die, the disk keeps no terminal record for either job.
    assert!(!blocked.wait().is_completed());
    assert!(!queued.wait().is_completed());

    // The journal on disk: job-done terminal, the other two pending.
    {
        let j = JobJournal::open(&dir, None).unwrap();
        assert!(matches!(j.state_of("job-done"), Some(JournalState::Terminal(_))));
        let pending: Vec<_> = j.pending().into_iter().map(|p| p.key).collect();
        assert_eq!(pending, ["job-blocked", "job-queued"]);
    }

    // Restart over the same journal; the blocker's gate is now open, so
    // the requeued run completes.
    gate_open.store(true, Ordering::Release);
    let svc2 = {
        let counts = Arc::clone(&counts);
        Service::start(
            ServeOptions::default()
                .workers(1)
                .journal(&dir)
                .recipe("quick", quick_recipe(Arc::clone(&counts)))
                .recipe("blocker", quick_recipe(counts)),
        )
    };
    // Resubmitting the same keys attaches to the requeued runs (or
    // dedupes, if a requeued run already finished) — never a second
    // execution.
    let done2 = svc2.submit_durable("job-done", "quick");
    let blocked2 = svc2.submit_durable("job-blocked", "blocker");
    let queued2 = svc2.submit_durable("job-queued", "quick");
    match done2.wait() {
        JobOutcome::Completed(out) => {
            assert_eq!(
                out.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                expected_values("job-done").iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "deduped outcome must be the recorded one, bit for bit"
            );
        }
        other => panic!("job-done must dedupe to its completed outcome, got {other:?}"),
    }
    assert!(blocked2.wait().is_completed());
    assert!(queued2.wait().is_completed());

    let report = svc2.drain();
    assert_eq!(report.requeued, 2, "both incomplete jobs requeue");
    assert!(report.deduped >= 1, "job-done resolves from the journal");
    assert!(report.is_conserved());

    // Exactly one execution of the completed job across both lifetimes;
    // the interrupted blocker ran once per lifetime (its first run died).
    let counts = counts.lock().unwrap();
    assert_eq!(counts["job-done"], 1, "completed job must never rerun");
    assert_eq!(counts["job-queued"], 1, "queued job runs only after restart");
    assert_eq!(counts["job-blocked"], 2, "interrupted job reruns exactly once");
    drop(counts);

    // Every key now holds exactly one terminal outcome; nothing pending.
    let j = JobJournal::open(&dir, None).unwrap();
    for key in ["job-done", "job-blocked", "job-queued"] {
        match j.terminal_of(key) {
            Some(JobOutcome::Completed(out)) => {
                assert_eq!(
                    out.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    expected_values(key).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{key}: restart must converge on the uninterrupted outcome"
                );
            }
            other => panic!("{key}: expected completed terminal, got {other:?}"),
        }
    }
    assert!(j.pending().is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_recipe_is_shed_typed() {
    let dir = tmpdir("norecipe");
    let svc = Service::start(ServeOptions::default().journal(&dir));
    let h = svc.submit_durable("k", "not-registered");
    assert!(matches!(h.wait(), JobOutcome::Rejected(_)));
    let report = svc.drain();
    assert!(report.is_conserved());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Durable submission needs the journal: without one it is refused with a
/// typed shed (code 4), folded into a rejected handle by `submit_durable`.
#[test]
fn durable_submission_without_a_journal_is_shed_typed() {
    let svc = Service::start(ServeOptions::default());
    match svc.try_submit_durable("k", "quick", "default", Priority::Normal, 1.0) {
        Err(e) => assert_eq!((e.clone(), e.code()), (AdmissionError::NoJournal, 4)),
        Ok(h) => panic!("admitted without a journal: {:?}", h.wait()),
    }
    match svc.submit_durable("k", "quick").wait() {
        JobOutcome::Rejected(AdmissionError::NoJournal) => {}
        other => panic!("expected a NoJournal rejection, got {other:?}"),
    }
    assert!(svc.drain().is_conserved());
}

/// Seeded storage-fault sweep: journal appends are damaged (torn, short,
/// bit-flipped, ENOSPC) by a deterministic plan, the service is restarted
/// over whatever survived, and the run must still converge — every key
/// reaches exactly one terminal outcome with the deterministic expected
/// values, because replay lands on the newest *verified* consistent
/// prefix and simply reruns what the disk cannot prove finished.
#[test]
fn journal_fault_sweep_always_converges() {
    let base_seed: u64 = std::env::var("STORE_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let seeds: Vec<u64> = if std::env::var("STORE_FAULT_SEED").is_ok() {
        vec![base_seed]
    } else {
        (0..16).collect()
    };
    let keys: Vec<String> = (0..6).map(|i| format!("sweep-job-{i}")).collect();

    for &seed in &seeds {
        let dir = tmpdir(&format!("sweep-{seed}"));
        let counts: RunCounts = Arc::new(Mutex::new(HashMap::new()));

        // Lifetime 1: faulty disk. Jobs run and clients see completions,
        // but any journal record may have been damaged at append time.
        let svc = Service::start(
            ServeOptions::default()
                .workers(2)
                .journal(&dir)
                .journal_faults(StoreFaultPlan::new(seed, 2_500))
                .recipe("quick", quick_recipe(Arc::clone(&counts))),
        );
        let handles: Vec<_> = keys.iter().map(|k| svc.submit_durable(k, "quick")).collect();
        for (key, h) in keys.iter().zip(&handles) {
            assert!(
                h.wait().is_completed(),
                "replay: STORE_FAULT_SEED={seed} cargo test -p op2-serve --test journal ({key} lifetime 1)"
            );
        }
        svc.kill();

        // Lifetime 2: clean disk over the survivors. Damaged/truncated
        // tails make some keys pending or unknown again — they rerun;
        // survivors dedupe. Either way every key must converge on the
        // same bit-exact outcome.
        let svc2 = Service::start(
            ServeOptions::default()
                .workers(2)
                .journal(&dir)
                .recipe("quick", quick_recipe(Arc::clone(&counts))),
        );
        for key in &keys {
            let h = svc2.submit_durable(key, "quick");
            match h.wait() {
                JobOutcome::Completed(out) => assert_eq!(
                    out.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    expected_values(key).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "replay: STORE_FAULT_SEED={seed} cargo test -p op2-serve --test journal ({key})"
                ),
                other => panic!(
                    "replay: STORE_FAULT_SEED={seed} — {key} must complete, got {other:?}"
                ),
            }
        }
        let report = svc2.drain();
        assert!(report.is_conserved());

        // Exactly-one-terminal, durably: the journal holds one completed
        // outcome per key and no pending entries.
        let j = JobJournal::open(&dir, None).unwrap();
        for key in &keys {
            assert!(
                matches!(j.state_of(key.as_str()), Some(JournalState::Terminal(_))),
                "replay: STORE_FAULT_SEED={seed} — {key} not terminal after restart"
            );
        }
        assert!(j.pending().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
