//! Whole-process crash-restart determinism for the distributed march.
//!
//! A march backed by a durable checkpoint store ([`DistOptions::store_dir`])
//! is killed dead at a deterministic iteration ([`DistOptions::die_at`] —
//! every rank stops, all in-memory state is lost), then restarted from
//! whatever the disk holds. Because the march is deterministic and the
//! store's replay always lands on the newest *verified* consistent
//! boundary, the resumed run's final state must be bit-identical to an
//! uninterrupted run — on a clean disk and under every seeded storage
//! fault (torn writes, short writes, bit flips, ENOSPC) alike.
//!
//! Mirrors the seed discipline of `tests/faults.rs`: ≥16 seeds per app,
//! every assertion message carries a `STORE_FAULT_SEED=<seed>` replay
//! line, and setting `STORE_FAULT_SEED` narrows the sweep to that seed.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use op2_airfoil::mesh::MeshData;
use op2_airfoil::{FlowConstants, MeshBuilder};
use op2_dist::exec::{
    resume_distributed_opts, run_distributed_opts, DistError, DistOptions,
};
use op2_dist::swe::{resume_swe_distributed_opts, run_swe_distributed_opts};
use op2_dist::Partition;
use op2_store::StoreFaultPlan;
use op2_swe::{SweApp, SweConfig};

/// Seeds swept (unless `STORE_FAULT_SEED` narrows the run to one).
const NUM_SEEDS: u64 = 16;

fn seeds_to_run() -> Vec<u64> {
    match std::env::var("STORE_FAULT_SEED") {
        Ok(s) => vec![s
            .trim()
            .parse()
            .expect("STORE_FAULT_SEED must be an unsigned integer")],
        Err(_) => (0..NUM_SEEDS).collect(),
    }
}

fn replay_hint(seed: u64) -> String {
    format!("replay: STORE_FAULT_SEED={seed} cargo test -p op2-dist --test restart")
}

fn tmpdir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("op2-dist-restart-{tag}-{}-{n}", std::process::id()))
}

fn bits(q: &[f64]) -> Vec<u64> {
    q.iter().map(|v| v.to_bits()).collect()
}

fn airfoil_setup(nx: usize, ny: usize) -> (MeshData, FlowConstants, Vec<f64>) {
    let consts = FlowConstants::default();
    let builder = MeshBuilder::channel(nx, ny);
    let mesh = builder.build(&consts);
    mesh.add_pulse(1.0, 0.5, 0.25, 0.2, &consts);
    (builder.data(), consts, mesh.p_q.to_vec())
}

fn swe_setup(imax: usize, jmax: usize) -> (MeshData, Vec<f64>) {
    let app = SweApp::new(SweConfig { imax, jmax, ..SweConfig::default() });
    app.dam_break(2.0, 2.0, 1.0);
    let w0 = app.w.to_vec();
    let mut data = MeshBuilder::channel(imax, jmax).data();
    data.bound
        .iter_mut()
        .for_each(|b| *b = op2_swe::kernels::SWE_WALL);
    (data, w0)
}

/// Durable-march options: checkpoint every `every` iterations into `dir`,
/// optionally damaging appends with `faults`, dying dead at `die_at`.
fn durable_opts(
    dir: &std::path::Path,
    every: usize,
    faults: Option<StoreFaultPlan>,
    die_at: Option<usize>,
    halt_after: Option<usize>,
) -> DistOptions {
    DistOptions {
        checkpoint_every: every,
        store_dir: Some(dir.to_path_buf()),
        store_faults: faults,
        die_at,
        halt_after,
        ..DistOptions::default()
    }
}

/// Clean-disk restart, airfoil: kill the march dead mid-run, resume from
/// disk, and demand the final state is bit-identical to an uninterrupted
/// run. Digests (which are windowed to "since the last recovery") are
/// checked against a second leg: a run *gracefully halted* at the same
/// boundary and then resumed — both resume legs march the same iterations
/// from the same restored state, so everything must agree bitwise.
#[test]
fn airfoil_killed_march_restarts_bit_identical() {
    let (data, consts, q0) = airfoil_setup(16, 8);
    let part = Partition::strips(16 * 8, 3);
    let (niter, every, die_at) = (6, 2, 5);

    let reference = run_distributed_opts(
        &data,
        &consts,
        &q0,
        &part,
        niter,
        1,
        &DistOptions::default(),
    )
    .expect("uninterrupted reference");

    // Leg A: die at iteration 5. Last durable boundary is 4.
    let dir_a = tmpdir("airfoil-kill");
    let opts = durable_opts(&dir_a, every, None, Some(die_at), None);
    match run_distributed_opts(&data, &consts, &q0, &part, niter, 1, &opts) {
        Err(DistError::Died { iter }) => assert_eq!(iter, die_at),
        other => panic!("march must die at {die_at}, got {other:?}"),
    }
    let resumed = resume_distributed_opts(
        &data,
        &consts,
        &q0,
        &part,
        niter,
        1,
        &DistOptions {
            trajectory_digests: true,
            ..durable_opts(&dir_a, every, None, None, None)
        },
    )
    .expect("resume after kill");
    assert_eq!(resumed.resumed_from, Some(4), "newest consistent boundary");
    assert!(resumed.ckpt.recovered > 0, "replay recovered no records");
    assert_eq!(
        bits(&resumed.final_q),
        bits(&reference.final_q),
        "restart must be bit-identical to the uninterrupted run"
    );
    // Post-restart report points must match the reference's bitwise.
    for (iter, rms) in &resumed.rms {
        let (_, rms_ref) = reference
            .rms
            .iter()
            .find(|(i, _)| i == iter)
            .expect("reference covers every resumed report point");
        assert_eq!(rms.to_bits(), rms_ref.to_bits(), "rms at iter {iter}");
    }

    // Leg B: graceful halt at the same boundary, then resume — the
    // digest-bearing windows now coincide with leg A's resume.
    let dir_b = tmpdir("airfoil-halt");
    run_distributed_opts(
        &data,
        &consts,
        &q0,
        &part,
        niter,
        1,
        &durable_opts(&dir_b, every, None, None, Some(4)),
    )
    .expect("graceful halt leg");
    let ref_leg = resume_distributed_opts(
        &data,
        &consts,
        &q0,
        &part,
        niter,
        1,
        &DistOptions {
            trajectory_digests: true,
            ..durable_opts(&dir_b, every, None, None, None)
        },
    )
    .expect("resume after halt");
    assert!(
        ref_leg.adt_digest.is_some() && ref_leg.res_digest.is_some(),
        "digests were asked for"
    );
    assert_eq!(ref_leg.resumed_from, Some(4));
    assert_eq!(bits(&ref_leg.final_q), bits(&resumed.final_q));
    assert_eq!(resumed.adt_digest, ref_leg.adt_digest, "adt digest window");
    assert_eq!(resumed.res_digest, ref_leg.res_digest, "res digest window");

    std::fs::remove_dir_all(&dir_a).unwrap();
    std::fs::remove_dir_all(&dir_b).unwrap();
}

/// An uninterrupted durable march perturbs nothing and writes the same log
/// every time: its final state is bit-identical to the in-memory
/// checkpointed march, and the append count and payload volume repeat
/// exactly run to run.
#[test]
fn durable_march_matches_in_memory_and_its_log_repeats() {
    let (data, consts, q0) = airfoil_setup(16, 8);
    let part = Partition::strips(16 * 8, 3);
    let (niter, every) = (6, 1);

    let in_memory = run_distributed_opts(
        &data,
        &consts,
        &q0,
        &part,
        niter,
        1,
        &DistOptions {
            checkpoint_every: every,
            ..DistOptions::default()
        },
    )
    .expect("in-memory march");
    assert_eq!(in_memory.ckpt.appends, 0, "in-memory store appends nothing");

    let durable = |tag: &str| {
        let dir = tmpdir(tag);
        let opts = durable_opts(&dir, every, None, None, None);
        let rep = run_distributed_opts(&data, &consts, &q0, &part, niter, 1, &opts)
            .expect("durable march");
        std::fs::remove_dir_all(&dir).unwrap();
        rep
    };
    let (first, second) = (durable("durable-a"), durable("durable-b"));
    assert_eq!(bits(&first.final_q), bits(&in_memory.final_q));
    assert_eq!(bits(&second.final_q), bits(&in_memory.final_q));
    assert!(
        first.ckpt.appends > 0 && first.ckpt.bytes > 0,
        "{:?}",
        first.ckpt
    );
    assert_eq!(first.ckpt.appends, second.ckpt.appends, "append count");
    assert_eq!(first.ckpt.bytes, second.ckpt.bytes, "payload bytes");
}

/// Clean-disk restart, shallow water: same shape as the airfoil test for
/// the 3-component adaptive-`dt` app.
#[test]
fn swe_killed_march_restarts_bit_identical() {
    let (data, w0) = swe_setup(16, 8);
    let part = Partition::strips(16 * 8, 3);
    let (steps, every, die_at) = (6, 2, 5);

    let reference = run_swe_distributed_opts(
        &data,
        9.81,
        0.4,
        &w0,
        &part,
        steps,
        1,
        &DistOptions::default(),
    )
    .expect("uninterrupted reference");

    let dir = tmpdir("swe-kill");
    let opts = durable_opts(&dir, every, None, Some(die_at), None);
    match run_swe_distributed_opts(&data, 9.81, 0.4, &w0, &part, steps, 1, &opts) {
        Err(DistError::Died { iter }) => assert_eq!(iter, die_at),
        other => panic!("march must die at {die_at}, got {other:?}"),
    }
    let resumed = resume_swe_distributed_opts(
        &data,
        9.81,
        0.4,
        &w0,
        &part,
        steps,
        1,
        &durable_opts(&dir, every, None, None, None),
    )
    .expect("resume after kill");
    assert_eq!(resumed.resumed_from, Some(4), "newest consistent boundary");
    assert_eq!(
        bits(&resumed.final_w),
        bits(&reference.final_w),
        "restart must be bit-identical to the uninterrupted run"
    );
    for (step, dt, rms) in &resumed.reports {
        let (_, dt_ref, rms_ref) = reference
            .reports
            .iter()
            .find(|(s, _, _)| s == step)
            .expect("reference covers every resumed report point");
        assert_eq!(dt.to_bits(), dt_ref.to_bits(), "dt at step {step}");
        assert_eq!(rms.to_bits(), rms_ref.to_bits(), "rms at step {step}");
    }

    std::fs::remove_dir_all(&dir).unwrap();
}

/// The tentpole sweep: for ≥16 `STORE_FAULT_SEED`s and both apps, a march
/// whose durable appends are damaged by the deterministic storage-fault
/// shim (torn writes, short writes, bit flips, ENOSPC) is killed dead and
/// restarted. Replay must land on the newest *verified* consistent state —
/// possibly an earlier boundary than a clean disk would give, bottoming
/// out at the initial condition — and the resumed march must still finish
/// bit-identical to the uninterrupted reference.
#[test]
fn store_fault_sweep_restart_always_converges() {
    let (adata, consts, q0) = airfoil_setup(16, 8);
    let (sdata, w0) = swe_setup(16, 8);
    let part = Partition::strips(16 * 8, 3);
    let (niter, every, die_at) = (5, 2, 4);
    // 20% of durable ops damaged: across 16 seeds this exercises clean
    // survival, partial tails, and total checkpoint loss.
    let rate = 2_000;

    let a_ref = run_distributed_opts(
        &adata,
        &consts,
        &q0,
        &part,
        niter,
        1,
        &DistOptions::default(),
    )
    .expect("airfoil reference");
    let s_ref = run_swe_distributed_opts(
        &sdata,
        9.81,
        0.4,
        &w0,
        &part,
        niter,
        1,
        &DistOptions::default(),
    )
    .expect("swe reference");

    let sweeping = std::env::var("STORE_FAULT_SEED").is_err();
    let mut any_damage = false;

    for seed in seeds_to_run() {
        let hint = replay_hint(seed);

        // Airfoil: faulty disk, killed dead, resumed over the survivors.
        let dir = tmpdir(&format!("sweep-airfoil-{seed}"));
        let faulty = durable_opts(
            &dir,
            every,
            Some(StoreFaultPlan::new(seed, rate)),
            Some(die_at),
            None,
        );
        match run_distributed_opts(&adata, &consts, &q0, &part, niter, 1, &faulty) {
            Err(DistError::Died { iter }) => assert_eq!(iter, die_at, "{hint}"),
            other => panic!("airfoil march must die, got {other:?}\n{hint}"),
        }
        let resumed = resume_distributed_opts(
            &adata,
            &consts,
            &q0,
            &part,
            niter,
            1,
            &durable_opts(&dir, every, None, None, None),
        )
        .unwrap_or_else(|e| panic!("airfoil resume failed: {e}\n{hint}"));
        // With die_at = 4 and a commit every 2 steps, a clean disk restores
        // boundary 2; a damaged one restores an earlier boundary (0 at the
        // bottom), never a later or unaligned one.
        let clean_boundary = ((die_at - 1) / every) * every;
        let boundary = resumed.resumed_from.expect("resume reports its boundary");
        assert!(
            boundary <= clean_boundary && boundary % every == 0,
            "boundary {boundary} must be a committed step\n{hint}"
        );
        any_damage |= resumed.ckpt.torn_tail || boundary < clean_boundary;
        assert_eq!(
            bits(&resumed.final_q),
            bits(&a_ref.final_q),
            "airfoil restart diverged under storage faults\n{hint}"
        );
        std::fs::remove_dir_all(&dir).unwrap();

        // Shallow water: same scenario, 3-component state.
        let dir = tmpdir(&format!("sweep-swe-{seed}"));
        let faulty = durable_opts(
            &dir,
            every,
            Some(StoreFaultPlan::new(seed.wrapping_add(0x5157), rate)),
            Some(die_at),
            None,
        );
        match run_swe_distributed_opts(&sdata, 9.81, 0.4, &w0, &part, niter, 1, &faulty) {
            Err(DistError::Died { iter }) => assert_eq!(iter, die_at, "{hint}"),
            other => panic!("swe march must die, got {other:?}\n{hint}"),
        }
        let resumed = resume_swe_distributed_opts(
            &sdata,
            9.81,
            0.4,
            &w0,
            &part,
            niter,
            1,
            &durable_opts(&dir, every, None, None, None),
        )
        .unwrap_or_else(|e| panic!("swe resume failed: {e}\n{hint}"));
        assert_eq!(
            bits(&resumed.final_w),
            bits(&s_ref.final_w),
            "swe restart diverged under storage faults\n{hint}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // The shim must have actually bitten somewhere in a full sweep —
    // otherwise the matrix above silently degenerated to 16 clean disks.
    if sweeping {
        assert!(any_damage, "no seed in the sweep damaged the store");
    }
}
