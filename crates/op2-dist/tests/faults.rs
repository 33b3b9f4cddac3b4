//! Fault-injection and recovery integration tests for the distributed
//! time-march.
//!
//! Mirrors the seed discipline of `tests/det_schedules.rs`: the sweep runs
//! ≥16 seeds, every assertion message carries a `FAULT_SEED=<seed>` replay
//! line, and setting `FAULT_SEED` narrows the sweep to that one seed.
//!
//! What must hold:
//!
//! * **Masking** — injected message loss at every retry budget below
//!   exhaustion (plus duplicates, delays, reorders, replays) yields results
//!   bit-identical to the fault-free run for the same `(mesh, nranks)`.
//! * **Determinism under faults** — same `(mesh, nranks, FaultPlan seed)` ⇒
//!   bit-identical results *and* identical deterministic fault counters
//!   across independent runs.
//! * **Recovery** — a forced kill of one rank mid-march restores the last
//!   consistent checkpoint, re-partitions over the survivors, and finishes
//!   with results matching a fresh survivors-only run.
//! * **Overlap under fire** — the futurized march (`DistOptions::overlap`)
//!   must mask the same fault classes bit-identically, survive a kill that
//!   lands mid-overlap, and never let a stale-epoch halo payload fire a
//!   boundary block after recovery.

use op2_airfoil::mesh::MeshData;
use op2_airfoil::{FlowConstants, MeshBuilder};
use op2_dist::exec::{run_distributed_opts, DistError, DistOptions, KernelFaultSpec, Recovery};
use op2_dist::swe::run_swe_distributed_opts;
use op2_dist::{CommConfig, CommError, Fabric, FaultPlan, FaultReport, Partition};
use op2_swe::{SweApp, SweConfig};

/// Seeds swept (unless `FAULT_SEED` narrows the run to one).
const NUM_SEEDS: u64 = 16;

fn seeds_to_run() -> Vec<u64> {
    match std::env::var("FAULT_SEED") {
        Ok(s) => vec![s
            .trim()
            .parse()
            .expect("FAULT_SEED must be an unsigned integer")],
        Err(_) => (0..NUM_SEEDS).collect(),
    }
}

fn replay_hint(seed: u64) -> String {
    format!("replay: FAULT_SEED={seed} cargo test -p op2-dist --test faults")
}

fn setup(nx: usize, ny: usize) -> (MeshData, FlowConstants, Vec<f64>) {
    let consts = FlowConstants::default();
    let builder = MeshBuilder::channel(nx, ny);
    let mesh = builder.build(&consts);
    mesh.add_pulse(1.0, 0.5, 0.25, 0.2, &consts);
    (builder.data(), consts, mesh.p_q.to_vec())
}

fn bits(q: &[f64]) -> Vec<u64> {
    q.iter().map(|v| v.to_bits()).collect()
}

/// The applications the recovery ladder is exercised on. Recovery lives in
/// the march engine, so every kill / kernel-fault scenario below runs on
/// both — the shallow-water march has no recovery code of its own.
#[derive(Debug, Clone, Copy)]
enum App {
    Airfoil,
    Swe,
}

const APPS: [App; 2] = [App::Airfoil, App::Swe];

/// One app's mesh and initial state, ready to march.
struct Case {
    app: App,
    data: MeshData,
    consts: FlowConstants,
    state0: Vec<f64>,
}

/// What the recovery scenarios compare, common to both apps' reports.
struct Outcome {
    state: Vec<f64>,
    /// `(iteration, dt, rms)`; `dt` is 0 for Airfoil.
    reports: Vec<(usize, f64, f64)>,
    recoveries: Vec<Recovery>,
    local_retries: usize,
    faults: FaultReport,
}

impl Outcome {
    fn report_bits(&self) -> Vec<(usize, u64, u64)> {
        self.reports
            .iter()
            .map(|(i, dt, rms)| (*i, dt.to_bits(), rms.to_bits()))
            .collect()
    }
}

impl App {
    fn setup(self, nx: usize, ny: usize) -> Case {
        let (data, consts, state0) = match self {
            App::Airfoil => setup(nx, ny),
            App::Swe => {
                // Walled dam break, as in `tests/restart.rs`.
                let app = SweApp::new(SweConfig { imax: nx, jmax: ny, ..SweConfig::default() });
                app.dam_break(2.0, 2.0, 1.0);
                let mut data = MeshBuilder::channel(nx, ny).data();
                data.bound
                    .iter_mut()
                    .for_each(|b| *b = op2_swe::kernels::SWE_WALL);
                (data, FlowConstants::default(), app.w.to_vec())
            }
        };
        Case { app: self, data, consts, state0 }
    }
}

impl Case {
    /// March `niter` iterations from `state0` over `part`.
    fn run(
        &self,
        state0: &[f64],
        part: &Partition,
        niter: usize,
        report_every: usize,
        opts: &DistOptions,
    ) -> Result<Outcome, DistError> {
        match self.app {
            App::Airfoil => {
                run_distributed_opts(&self.data, &self.consts, state0, part, niter, report_every, opts)
                    .map(|r| Outcome {
                        state: r.final_q,
                        reports: r.rms.into_iter().map(|(i, rms)| (i, 0.0, rms)).collect(),
                        recoveries: r.recoveries,
                        local_retries: r.local_retries,
                        faults: r.faults,
                    })
            }
            App::Swe => {
                run_swe_distributed_opts(&self.data, 9.81, 0.4, state0, part, niter, report_every, opts)
                    .map(|r| Outcome {
                        state: r.final_w,
                        reports: r.reports,
                        recoveries: r.recoveries,
                        local_retries: r.local_retries,
                        faults: r.faults,
                    })
            }
        }
    }

    /// The survivors-only reference of a recovered march: the same march on
    /// a clean fabric over `part` up to the restored checkpoint, then a
    /// *fresh* run over strips of the survivor count for the rest. The
    /// recovered fabric's strips-over-survivors partition marches in the
    /// same order as that fresh run, so agreement is exact.
    fn survivors_only_reference(&self, part: &Partition, rec: &Recovery, niter: usize) -> Outcome {
        let clean = DistOptions::default();
        let k = rec.restored_iter;
        let pre = self
            .run(&self.state0, part, k, k, &clean)
            .expect("reference prefix run");
        let ncells = self.data.cell_nodes.len() / 4;
        let survivors = Partition::strips(ncells, rec.survivors.len());
        self.run(&pre.state, &survivors, niter - k, niter - k, &clean)
            .expect("reference survivors-only run")
    }
}

/// The tentpole sweep: for ≥16 seeds, a run under the seeded fault mix is
/// (a) replayable bit-for-bit, (b) bit-identical to the fault-free run
/// (every fault masked by the protocol), and (c) produces identical
/// deterministic fault counters across replays.
#[test]
fn seeded_fault_runs_are_deterministic_and_masked() {
    let (data, consts, q0) = setup(16, 8);
    let nranks = 3;
    let niter = 3;
    let part = Partition::strips(16 * 8, nranks);
    let clean = run_distributed_opts(
        &data,
        &consts,
        &q0,
        &part,
        niter,
        1,
        &DistOptions::default(),
    )
    .expect("clean run");

    for seed in seeds_to_run() {
        let hint = replay_hint(seed);
        let opts = DistOptions {
            plan: Some(FaultPlan::seeded(seed)),
            ..DistOptions::default()
        };
        let a = run_distributed_opts(&data, &consts, &q0, &part, niter, 1, &opts)
            .unwrap_or_else(|e| panic!("faulty run failed: {e}\n{hint}"));
        let b = run_distributed_opts(&data, &consts, &q0, &part, niter, 1, &opts)
            .unwrap_or_else(|e| panic!("faulty replay failed: {e}\n{hint}"));

        assert_eq!(bits(&a.final_q), bits(&b.final_q), "replay diverged\n{hint}");
        assert_eq!(a.rms, b.rms, "replay rms diverged\n{hint}");
        assert_eq!(
            a.faults.deterministic_part(),
            b.faults.deterministic_part(),
            "fault schedule not replayable\n{hint}"
        );
        assert_eq!(
            bits(&a.final_q),
            bits(&clean.final_q),
            "faults leaked into results\n{hint}"
        );
        assert_eq!(a.rms, clean.rms, "faults leaked into rms\n{hint}");
    }
}

/// Different fault seeds must actually inject different schedules
/// (otherwise the sweep above replays one scenario 16 times).
#[test]
fn different_fault_seeds_inject_different_schedules() {
    let (data, consts, q0) = setup(16, 8);
    let part = Partition::strips(16 * 8, 3);
    let mut schedules = std::collections::HashSet::new();
    for seed in 0..8 {
        let opts = DistOptions {
            plan: Some(FaultPlan::seeded(seed)),
            ..DistOptions::default()
        };
        let rep = run_distributed_opts(&data, &consts, &q0, &part, 2, 2, &opts)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", replay_hint(seed)));
        schedules.insert(rep.faults.deterministic_part());
    }
    assert!(
        schedules.len() > 1,
        "8 seeds produced a single fault schedule — injection is not exploring"
    );
}

/// Message loss at *every* retry budget below exhaustion is fully masked:
/// dropping the first `k` transmissions of every message leaves results
/// bit-identical for all `k <= max_retries`, and the first budget beyond
/// that fails loudly with `RetriesExhausted`.
#[test]
fn every_survivable_drop_budget_is_masked_and_one_beyond_fails() {
    let (data, consts, q0) = setup(16, 8);
    let nranks = 3;
    let niter = 3;
    let part = Partition::strips(16 * 8, nranks);
    let config = CommConfig {
        max_retries: 4,
        ..CommConfig::default()
    };
    let clean = run_distributed_opts(
        &data,
        &consts,
        &q0,
        &part,
        niter,
        1,
        &DistOptions { config: config.clone(), ..DistOptions::default() },
    )
    .expect("clean run");

    for k in 0..=config.max_retries {
        let opts = DistOptions {
            config: config.clone(),
            plan: Some(FaultPlan::drop_first(k)),
            ..DistOptions::default()
        };
        let rep = run_distributed_opts(&data, &consts, &q0, &part, niter, 1, &opts)
            .unwrap_or_else(|e| panic!("drop budget k={k} should be masked: {e}"));
        assert_eq!(bits(&rep.final_q), bits(&clean.final_q), "k = {k}");
        assert_eq!(rep.rms, clean.rms, "k = {k}");
        if k > 0 {
            assert_eq!(rep.faults.dropped, rep.faults.retries, "k = {k}");
            assert!(rep.faults.dropped > 0, "k = {k} injected nothing");
        }
    }

    // One drop beyond the budget: the sender must report exhaustion, not hang.
    let opts = DistOptions {
        config: config.clone(),
        plan: Some(FaultPlan::drop_first(config.max_retries + 1)),
        ..DistOptions::default()
    };
    match run_distributed_opts(&data, &consts, &q0, &part, niter, 1, &opts) {
        Err(DistError::Rank {
            error: CommError::RetriesExhausted { .. },
            ..
        }) => {}
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
}

/// The acceptance scenario: rank 1 of 4 is killed at the start of iteration
/// 5 of 8 with checkpoints every 2 iterations. The survivors must restore
/// the iteration-4 checkpoint, re-partition, and finish with exactly the
/// state a fresh survivors-only run produces from that checkpoint.
#[test]
fn kill_mid_march_recovers_and_matches_survivors_only_run() {
    for app in APPS {
        let case = app.setup(24, 12);
        let ncells = 24 * 12;
        let niter = 8;
        let kill_at = 5;
        let ckpt_every = 2;
        let seed_line =
            format!("replay: deterministic {app:?} kill scenario (rank 1 @ iter 5, ckpt every 2)");

        let part = Partition::strips(ncells, 4);
        let opts = DistOptions {
            plan: Some(FaultPlan::none().with_kill(1, kill_at)),
            checkpoint_every: ckpt_every,
            ..DistOptions::default()
        };
        let rep = case
            .run(&case.state0, &part, niter, niter, &opts)
            .unwrap_or_else(|e| panic!("march did not survive the kill: {e}\n{seed_line}"));

        assert_eq!(rep.recoveries.len(), 1, "{seed_line}");
        let rec = &rep.recoveries[0];
        assert_eq!(rec.failed, vec![1], "{seed_line}");
        assert_eq!(rec.survivors, vec![0, 2, 3], "{seed_line}");
        assert_eq!(rec.restored_iter, 4, "newest complete checkpoint before the kill\n{seed_line}");
        assert_eq!(rep.faults.rank_failures, 1, "{seed_line}");
        assert_eq!(rep.faults.recoveries, 1, "{seed_line}");

        let post = case.survivors_only_reference(&part, rec, niter);
        let mut sq = 0.0;
        for (a, b) in rep.state.iter().zip(&post.state) {
            sq += (a - b) * (a - b);
        }
        let rms_diff = (sq / post.state.len() as f64).sqrt();
        assert!(
            rms_diff <= 1e-12,
            "recovered state differs from survivors-only run: RMS {rms_diff:e}\n{seed_line}"
        );
        assert_eq!(
            bits(&rep.state),
            bits(&post.state),
            "recovered march not bit-identical to survivors-only run\n{seed_line}"
        );
    }
}

/// Kills swept across ranks and iterations: recovery must succeed and stay
/// internally consistent everywhere, not just in the curated scenario.
#[test]
fn kills_across_ranks_and_iterations_all_recover() {
    for app in APPS {
        let case = app.setup(16, 8);
        let ncells = 16 * 8;
        let niter = 6;
        let part = Partition::strips(ncells, 4);
        for victim in [1, 2, 3] {
            for kill_at in [2, 4, 6] {
                let what = format!("{app:?}: kill rank {victim} @ iter {kill_at}");
                let opts = DistOptions {
                    plan: Some(FaultPlan::none().with_kill(victim, kill_at)),
                    checkpoint_every: 2,
                    ..DistOptions::default()
                };
                let rep = case
                    .run(&case.state0, &part, niter, niter, &opts)
                    .unwrap_or_else(|e| panic!("{what} not survived: {e}"));
                assert_eq!(rep.recoveries.len(), 1, "{what}");
                assert!(
                    !rep.recoveries[0].survivors.contains(&victim),
                    "{what}: victim still in survivor set"
                );
                assert!(
                    rep.reports.iter().all(|(_, _, r)| r.is_finite()),
                    "{what}: non-finite rms"
                );
                assert_eq!(rep.state.len(), case.state0.len(), "{what}");
            }
        }
    }
}

/// Faults and a kill together: the fault schedule before and after the
/// re-formation is still fully masked and the whole scenario replays
/// bit-for-bit from its seed.
#[test]
fn kill_with_message_faults_still_replays_bitwise() {
    let (data, consts, q0) = setup(16, 8);
    let part = Partition::strips(16 * 8, 4);
    for seed in [3u64, 11, 29] {
        let hint = replay_hint(seed);
        let opts = DistOptions {
            plan: Some(FaultPlan::seeded(seed).with_kill(2, 3)),
            checkpoint_every: 2,
            ..DistOptions::default()
        };
        let a = run_distributed_opts(&data, &consts, &q0, &part, 5, 5, &opts)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{hint}"));
        let b = run_distributed_opts(&data, &consts, &q0, &part, 5, 5, &opts)
            .unwrap_or_else(|e| panic!("seed {seed} replay: {e}\n{hint}"));
        assert_eq!(bits(&a.final_q), bits(&b.final_q), "seed {seed}\n{hint}");
        assert_eq!(a.rms, b.rms, "seed {seed}\n{hint}");
        assert_eq!(a.recoveries, b.recoveries, "seed {seed}\n{hint}");
    }
}

/// Overlap × fault matrix: the seeded drop/duplicate/delay/replay mix must
/// be masked bit-identically by the *overlapped* march too — `try_recv`
/// rides the same sequenced, retransmitting links as blocking `recv`, and
/// boundary blocks fire in whatever order masked messages land without
/// moving a single bit.
#[test]
fn overlapped_march_masks_seeded_faults_bitwise() {
    let (data, consts, q0) = setup(16, 8);
    let nranks = 4;
    let niter = 3;
    let part = Partition::strips(16 * 8, nranks);
    let digests = DistOptions { trajectory_digests: true, ..DistOptions::default() };
    let clean = run_distributed_opts(&data, &consts, &q0, &part, niter, 1, &digests)
        .expect("clean bulk run");
    assert!(
        clean.adt_digest.is_some() && clean.res_digest.is_some(),
        "digests were asked for"
    );

    for seed in seeds_to_run() {
        let hint = replay_hint(seed);
        let opts = DistOptions {
            overlap: true,
            plan: Some(FaultPlan::seeded(seed)),
            ..digests.clone()
        };
        let a = run_distributed_opts(&data, &consts, &q0, &part, niter, 1, &opts)
            .unwrap_or_else(|e| panic!("overlapped faulty run failed: {e}\n{hint}"));
        let b = run_distributed_opts(&data, &consts, &q0, &part, niter, 1, &opts)
            .unwrap_or_else(|e| panic!("overlapped faulty replay failed: {e}\n{hint}"));

        assert_eq!(bits(&a.final_q), bits(&b.final_q), "replay diverged\n{hint}");
        assert_eq!(
            a.faults.deterministic_part(),
            b.faults.deterministic_part(),
            "fault schedule not replayable under overlap\n{hint}"
        );
        assert_eq!(
            bits(&a.final_q),
            bits(&clean.final_q),
            "faults leaked into the overlapped march\n{hint}"
        );
        assert_eq!(a.rms, clean.rms, "faults leaked into rms\n{hint}");
        assert_eq!(a.adt_digest, clean.adt_digest, "adt digest moved\n{hint}");
        assert_eq!(a.res_digest, clean.res_digest, "res digest moved\n{hint}");
    }
}

/// A kill that lands mid-overlap (halo futures outstanding, a pipelined
/// reduction in flight): the survivors must drop the in-flight state,
/// restore the newest checkpoint, and finish bit-identical to the
/// survivors-only reference — same contract as the bulk kill scenario.
#[test]
fn kill_mid_overlap_recovers_and_matches_survivors_only_run() {
    for app in APPS {
        let case = app.setup(24, 12);
        let ncells = 24 * 12;
        let niter = 8;
        let seed_line =
            format!("replay: deterministic {app:?} mid-overlap kill (rank 1 @ iter 5, ckpt every 2)");

        let part = Partition::strips(ncells, 4);
        let opts = DistOptions {
            overlap: true,
            plan: Some(FaultPlan::none().with_kill(1, 5)),
            checkpoint_every: 2,
            ..DistOptions::default()
        };
        let rep = case
            .run(&case.state0, &part, niter, niter, &opts)
            .unwrap_or_else(|e| {
                panic!("overlapped march did not survive the kill: {e}\n{seed_line}")
            });

        assert_eq!(rep.recoveries.len(), 1, "{seed_line}");
        let rec = &rep.recoveries[0];
        assert_eq!(rec.failed, vec![1], "{seed_line}");
        assert_eq!(rec.restored_iter, 4, "{seed_line}");

        let post = case.survivors_only_reference(&part, rec, niter);
        assert_eq!(
            bits(&rep.state),
            bits(&post.state),
            "overlapped recovery not bit-identical to survivors-only run\n{seed_line}"
        );
    }
}

/// Stale-epoch guard at the transport: a halo payload sent *before* a
/// recovery must never be delivered *after* it — the epoch bump discards
/// in-flight traffic, so a boundary block can only ever fire on
/// current-epoch data. The receiver here polls exactly the way the
/// overlapped march does.
#[test]
fn pre_recovery_halo_payload_never_delivered_after_epoch_bump() {
    use std::time::Duration;
    let run = Fabric::builder(3)
        .launch(|comm| match comm.rank() {
            2 => Err(comm.kill_self()),
            0 => {
                // Lands in rank 1's link queue in the pre-recovery epoch.
                comm.send(1, 9, vec![1.0])?;
                std::thread::sleep(Duration::from_millis(50));
                comm.recover()?;
                comm.send(1, 9, vec![2.0])?;
                Ok(0.0)
            }
            _ => {
                // Give the stale payload time to land, then re-form without
                // ever draining it.
                std::thread::sleep(Duration::from_millis(50));
                comm.recover()?;
                loop {
                    if let Some(p) = comm.try_recv(0, 9)? {
                        return Ok(p[0]);
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        })
        .expect("no rank panicked");
    match &run.results[1] {
        Ok(v) => assert_eq!(
            *v, 2.0,
            "receiver saw the pre-recovery payload after the epoch bump"
        ),
        Err(e) => panic!("receiver failed: {e}"),
    }
}

/// Protocol-bug coverage at the public API: a lone rank receiving from a
/// peer that never sends gets a deadline error, never a hang.
#[test]
fn recv_with_no_matching_send_fails_with_deadline_error() {
    let cfg = CommConfig {
        recv_deadline: std::time::Duration::from_millis(100),
        ..CommConfig::default()
    };
    let run = Fabric::builder(2)
        .config(cfg)
        .launch(|comm| {
            if comm.rank() == 0 {
                comm.recv(1, 77).map(|_| ())
            } else {
                std::thread::sleep(std::time::Duration::from_millis(150));
                Ok(())
            }
        })
        .expect("no rank panicked");
    match &run.results[0] {
        Err(CommError::Timeout { from: 1, tag: 77, .. }) => {}
        other => panic!("expected a deadline error, got {other:?}"),
    }
}

/// Local recovery ladder, rung 1: a kernel panic whose failure count fits
/// inside the local retry budget is rolled back and retried *on the rank* —
/// no fabric-level recovery, and results bit-identical to the clean run.
#[test]
fn kernel_fault_masked_by_local_retry_is_bit_identical() {
    for app in APPS {
        let case = app.setup(16, 8);
        let nranks = 3;
        let niter = 3;
        let part = Partition::strips(16 * 8, nranks);
        let clean = case
            .run(&case.state0, &part, niter, 1, &DistOptions::default())
            .expect("clean run");
        for seed in seeds_to_run() {
            let hint = format!("{app:?}\n{}", replay_hint(seed));
            let opts = DistOptions {
                kernel_fault: Some(KernelFaultSpec {
                    rank: seed as usize % nranks,
                    at_iter: 1 + seed as usize % niter,
                    failures: 1,
                }),
                ..DistOptions::default()
            };
            let rep = case
                .run(&case.state0, &part, niter, 1, &opts)
                .unwrap_or_else(|e| panic!("masked kernel fault failed the run: {e}\n{hint}"));
            assert_eq!(rep.local_retries, 1, "one local rollback+retry\n{hint}");
            assert!(rep.recoveries.is_empty(), "must not escalate to the fabric\n{hint}");
            assert_eq!(
                bits(&rep.state),
                bits(&clean.state),
                "local rollback+retry must be bit-invisible\n{hint}"
            );
            assert_eq!(rep.report_bits(), clean.report_bits(), "{hint}");
        }
    }
}

/// Local recovery ladder, rung 2: a kernel fault that outlives the local
/// retry budget escalates — the rank kills itself, and the survivors restore
/// the newest checkpoint exactly as for a process kill.
#[test]
fn kernel_fault_exhausting_local_budget_escalates_to_checkpoint_recovery() {
    for app in APPS {
        let case = app.setup(24, 12);
        let ncells = 24 * 12;
        let niter = 8;
        let ckpt_every = 2;
        let seed_line = format!(
            "replay: deterministic {app:?} kernel-fault scenario (rank 1 @ iter 5, 2 failures, 1 retry)"
        );

        let part = Partition::strips(ncells, 4);
        let opts = DistOptions {
            kernel_fault: Some(KernelFaultSpec { rank: 1, at_iter: 5, failures: 2 }),
            kernel_retries: 1,
            checkpoint_every: ckpt_every,
            ..DistOptions::default()
        };
        let rep = case
            .run(&case.state0, &part, niter, niter, &opts)
            .unwrap_or_else(|e| panic!("march did not survive the escalation: {e}\n{seed_line}"));

        assert_eq!(rep.recoveries.len(), 1, "{seed_line}");
        let rec = &rep.recoveries[0];
        assert_eq!(rec.failed, vec![1], "{seed_line}");
        assert_eq!(rec.survivors, vec![0, 2, 3], "{seed_line}");
        assert_eq!(rec.restored_iter, 4, "newest complete checkpoint\n{seed_line}");
        // The dying rank burned its one local retry before giving up, but it
        // did not survive to report it.
        assert_eq!(rep.local_retries, 0, "{seed_line}");

        // Same agreement argument as the kill scenario.
        let post = case.survivors_only_reference(&part, rec, niter);
        assert_eq!(
            bits(&rep.state),
            bits(&post.state),
            "recovered march must match the survivors-only reference\n{seed_line}"
        );
    }
}
