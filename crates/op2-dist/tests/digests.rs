//! Trajectory digests are read-only.
//!
//! `DistOptions::trajectory_digests` makes every rank hash its owned
//! `aux`/`res` values after each stage's exchange. Hashing must never touch
//! what the march computes or writes, so for {Airfoil, shallow-water} ×
//! ranks {1, 2, 4} × overlap × renumber — the matrix `golden.rs` pins, run
//! here with durable checkpoints every 2 iterations — a run with digests off
//! must return the same final state, report history and checkpoint-log
//! counters, bit for bit, as the same run with digests on. The off run
//! reports `None`; the on run reports exactly the digests `golden.rs` pins
//! (read from that file's tables, so the two cannot drift apart).

use std::path::PathBuf;

use op2_airfoil::{FlowConstants, MeshBuilder};
use op2_dist::exec::{run_distributed_opts, DistOptions};
use op2_dist::swe::run_swe_distributed_opts;
use op2_dist::Partition;
use op2_swe::{SweApp, SweConfig};

const NX: usize = 24;
const NY: usize = 12;
const NITER: usize = 6;
const REPORT_EVERY: usize = 2;

/// `(nranks, overlap, renumber)` in `golden.rs`'s table order.
fn cases() -> Vec<(usize, bool, bool)> {
    let mut v = Vec::new();
    for nranks in [1, 2, 4] {
        for overlap in [false, true] {
            for renumber in [false, true] {
                v.push((nranks, overlap, renumber));
            }
        }
    }
    v
}

/// The rows of `golden.rs`'s table `name`, parsed from its source.
fn golden(name: &str) -> Vec<Vec<u64>> {
    let src = include_str!("golden.rs");
    let decl = &src[src.find(&format!("const {name}:")).expect("table declared")..];
    let body = &decl[decl.find("= [\n").expect("table body") + 4..];
    let body = &body[..body.find("\n];").expect("table end")];
    body.lines()
        .map(|line| {
            let row = line
                .trim()
                .strip_prefix('[')
                .and_then(|r| r.strip_suffix("],"));
            row.expect("one row per line")
                .split(',')
                .map(|h| u64::from_str_radix(h.trim().trim_start_matches("0x"), 16).expect("hex"))
                .collect()
        })
        .collect()
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("op2-dist-digests-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn opts(overlap: bool, renumber: bool, digests: bool, dir: &std::path::Path) -> DistOptions {
    DistOptions {
        overlap,
        renumber,
        trajectory_digests: digests,
        checkpoint_every: 2,
        store_dir: Some(dir.to_path_buf()),
        ..DistOptions::default()
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn airfoil_digests_are_read_only() {
    let consts = FlowConstants::default();
    let builder = MeshBuilder::channel(NX, NY);
    let mesh = builder.build(&consts);
    mesh.add_pulse(1.0, 0.5, 0.25, 0.2, &consts);
    let (data, q0) = (builder.data(), mesh.p_q.to_vec());
    let pinned = golden("AIRFOIL_GOLDEN");

    for ((nranks, overlap, renumber), want) in cases().into_iter().zip(&pinned) {
        let case = format!("airfoil {nranks} ranks overlap={overlap} renumber={renumber}");
        let part = Partition::strips(NX * NY, nranks);
        let run = |digests: bool| {
            let dir = tmpdir(&format!("airfoil-{nranks}-{overlap}-{renumber}-{digests}"));
            let rep = run_distributed_opts(
                &data,
                &consts,
                &q0,
                &part,
                NITER,
                REPORT_EVERY,
                &opts(overlap, renumber, digests, &dir),
            )
            .unwrap_or_else(|e| panic!("{case}: {e}"));
            std::fs::remove_dir_all(&dir).unwrap();
            rep
        };
        let (off, on) = (run(false), run(true));
        assert_eq!(bits(&off.final_q), bits(&on.final_q), "{case}: final_q");
        let history = |r: &op2_dist::DistReport| -> Vec<(usize, u64)> {
            r.rms.iter().map(|&(i, v)| (i, v.to_bits())).collect()
        };
        assert_eq!(history(&off), history(&on), "{case}: rms history");
        assert_eq!(off.ckpt, on.ckpt, "{case}: checkpoint log");
        assert!(on.ckpt.appends > 0, "{case}: the durable log was written");
        assert_eq!(
            (off.adt_digest, off.res_digest),
            (None, None),
            "{case}: digests off"
        );
        assert_eq!(
            (on.adt_digest, on.res_digest),
            (Some(want[2]), Some(want[3])),
            "{case}: digests on must equal golden.rs's"
        );
    }
}

#[test]
fn swe_digests_are_read_only() {
    let app = SweApp::new(SweConfig {
        imax: NX,
        jmax: NY,
        ..SweConfig::default()
    });
    app.dam_break(2.0, 2.0, 1.0);
    let w0 = app.w.to_vec();
    let mut data = MeshBuilder::channel(NX, NY).data();
    data.bound
        .iter_mut()
        .for_each(|b| *b = op2_swe::kernels::SWE_WALL);
    let pinned = golden("SWE_GOLDEN");

    for ((nranks, overlap, renumber), want) in cases().into_iter().zip(&pinned) {
        let case = format!("swe {nranks} ranks overlap={overlap} renumber={renumber}");
        let part = Partition::strips(NX * NY, nranks);
        let run = |digests: bool| {
            let dir = tmpdir(&format!("swe-{nranks}-{overlap}-{renumber}-{digests}"));
            let rep = run_swe_distributed_opts(
                &data,
                9.81,
                0.4,
                &w0,
                &part,
                NITER,
                REPORT_EVERY,
                &opts(overlap, renumber, digests, &dir),
            )
            .unwrap_or_else(|e| panic!("{case}: {e}"));
            std::fs::remove_dir_all(&dir).unwrap();
            rep
        };
        let (off, on) = (run(false), run(true));
        assert_eq!(bits(&off.final_w), bits(&on.final_w), "{case}: final_w");
        let history = |r: &op2_dist::swe::SweDistReport| -> Vec<(usize, u64, u64)> {
            r.reports
                .iter()
                .map(|&(s, dt, v)| (s, dt.to_bits(), v.to_bits()))
                .collect()
        };
        assert_eq!(history(&off), history(&on), "{case}: report history");
        assert_eq!(off.ckpt, on.ckpt, "{case}: checkpoint log");
        assert!(on.ckpt.appends > 0, "{case}: the durable log was written");
        assert_eq!(off.res_digest, None, "{case}: digest off");
        assert_eq!(
            on.res_digest,
            Some(want[2]),
            "{case}: digest on must equal golden.rs's"
        );
    }
}
