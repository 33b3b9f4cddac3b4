//! Golden cross-commit pin for both distributed marches.
//!
//! The other sweeps pin *relations* inside one build (bulk = overlap,
//! 1 rank = serial, faulty = clean). This file pins the multi-rank results
//! themselves across commits: for {Airfoil, shallow-water} × ranks {1, 2, 4}
//! × overlap × renumber on a 24×12 mesh, 6 iterations, reports every 2, the
//! FNV-1a digests of the final state, of the report history and the march's
//! own `adt`/`res` digests (asked for through
//! `DistOptions::trajectory_digests`) are hard-coded. A refactor of the march must leave
//! every one of them untouched.
//!
//! The constants were generated from the tree before the two per-app marches
//! were folded into one engine. To regenerate after an *intended* arithmetic
//! change, run the test: on mismatch it prints the full actual table in
//! source form.
//!
//! The 24×12 strips give every halo group exactly 24 edges. A second matrix
//! (`*_SHORT_GOLDEN`: a 25×13 mesh on 3 ranks, strips and RCB, × overlap ×
//! renumber) pins groups the first cannot: some under 16 edges, which run
//! element by element, and some whose length is not a multiple of 4, which
//! leave a lane remainder. Its constants were taken while every rank still
//! called the flux kernels itself, before the group loops were declared.

use op2_airfoil::mesh::MeshData;
use op2_airfoil::{FlowConstants, MeshBuilder};
use op2_dist::exec::{run_distributed_opts, DistOptions};
use op2_dist::partition::build_local;
use op2_dist::swe::run_swe_distributed_opts;
use op2_dist::{cell_centroids, HaloPlan, Partition};
use op2_swe::{SweApp, SweConfig};

const NX: usize = 24;
const NY: usize = 12;
const NITER: usize = 6;
const REPORT_EVERY: usize = 2;
const SHORT_NX: usize = 25;
const SHORT_NY: usize = 13;

/// FNV-1a over the little-endian bytes of a word stream.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `(nranks, overlap, renumber)` in table order.
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

fn opts(overlap: bool, renumber: bool) -> DistOptions {
    DistOptions {
        overlap,
        renumber,
        trajectory_digests: true,
        ..DistOptions::default()
    }
}

/// Per case: `[fnv(final_q), fnv(rms history), adt_digest, res_digest]`.
const AIRFOIL_GOLDEN: [[u64; 4]; 12] = [
    [0x09b1305090754c79, 0x2ddf7d75b8476d5f, 0xc5e0220fd0724445, 0x8705505a05e0c7d4],
    [0x7235400e5ed1471b, 0x5de7727bf8e659c5, 0x7d3da9e98c51a56e, 0x8c753d62add04fda],
    [0x09b1305090754c79, 0x2ddf7d75b8476d5f, 0xc5e0220fd0724445, 0x8705505a05e0c7d4],
    [0x7235400e5ed1471b, 0x5de7727bf8e659c5, 0x7d3da9e98c51a56e, 0x8c753d62add04fda],
    [0xe90dcfcf7b4a8337, 0xc96b32d4d6ca5b12, 0x4fb96a034bae9219, 0x11621dc7f7f02fa2],
    [0x78828997652d0fd3, 0xdd2115c67576cea0, 0xf1da6bd45cbe9482, 0x6ca1c908dc58be0f],
    [0xe90dcfcf7b4a8337, 0xc96b32d4d6ca5b12, 0x4fb96a034bae9219, 0x11621dc7f7f02fa2],
    [0x78828997652d0fd3, 0xdd2115c67576cea0, 0xf1da6bd45cbe9482, 0x6ca1c908dc58be0f],
    [0x8a8cf47001894951, 0x1a8bdb2a4c7ed4cd, 0xf2fd95d87ed9599a, 0xb9a38bba645e1937],
    [0x1361cf09748a7ad9, 0x7d4831b397180baa, 0x48881a31aa8493e0, 0x267176451be50bb6],
    [0x8a8cf47001894951, 0x1a8bdb2a4c7ed4cd, 0xf2fd95d87ed9599a, 0xb9a38bba645e1937],
    [0x1361cf09748a7ad9, 0x7d4831b397180baa, 0x48881a31aa8493e0, 0x267176451be50bb6],
];

/// Per case: `[fnv(final_w), fnv(report history), res_digest]`.
const SWE_GOLDEN: [[u64; 3]; 12] = [
    [0x286188042ec7be5b, 0xf1cd457aa6e4a887, 0x56ab4a7f1b8d13d0],
    [0x5052d4dabaccbf95, 0x76b60e276edfb322, 0x8822869ff9f22147],
    [0x286188042ec7be5b, 0xf1cd457aa6e4a887, 0x56ab4a7f1b8d13d0],
    [0x5052d4dabaccbf95, 0x76b60e276edfb322, 0x8822869ff9f22147],
    [0x286188042ec7be5b, 0x3e7ee6cca9ce4623, 0x56ab4a7f1b8d13d0],
    [0xb84627b71e523b22, 0xc749a5601e23fa8d, 0xf364489703a0dda2],
    [0x286188042ec7be5b, 0x3e7ee6cca9ce4623, 0x56ab4a7f1b8d13d0],
    [0xb84627b71e523b22, 0xc749a5601e23fa8d, 0xf364489703a0dda2],
    [0x286188042ec7be5b, 0xb22582d92f1aeefe, 0x56ab4a7f1b8d13d0],
    [0xab3019eb6df0b145, 0x7e5912a7c6741c9c, 0x5e34c71cf7e0c14f],
    [0x286188042ec7be5b, 0xb22582d92f1aeefe, 0x56ab4a7f1b8d13d0],
    [0xab3019eb6df0b145, 0x7e5912a7c6741c9c, 0x5e34c71cf7e0c14f],
];

fn table<const N: usize>(name: &str, rows: &[[u64; N]]) -> String {
    let mut s = format!("const {name}: [[u64; {N}]; {}] = [\n", rows.len());
    for row in rows {
        let cells: Vec<String> = row.iter().map(|v| format!("{v:#018x}")).collect();
        s += &format!("    [{}],\n", cells.join(", "));
    }
    s + "];"
}

/// The 24×12 matrix: index strips on 1, 2 and 4 ranks.
fn strips_cases() -> Vec<(Partition, bool, bool)> {
    let strips = |(nranks, overlap, renumber)| (Partition::strips(NX * NY, nranks), overlap, renumber);
    cases().into_iter().map(strips).collect()
}

/// The 25×13 matrix: strips then RCB on 3 ranks, each × overlap × renumber.
fn short_cases(data: &MeshData) -> Vec<(Partition, bool, bool)> {
    let parts = [Partition::strips(data.ncells(), 3), Partition::rcb(&cell_centroids(data), 3)];
    let mut v = Vec::new();
    for part in parts {
        for overlap in [false, true] {
            for renumber in [false, true] {
                v.push((part.clone(), overlap, renumber));
            }
        }
    }
    v
}

/// Per case: `[fnv(final_q), fnv(rms history), adt_digest, res_digest]`.
const AIRFOIL_SHORT_GOLDEN: [[u64; 4]; 8] = [
    [0xa611de20412c0013, 0x203252d7547e452f, 0xb63d4215ed500630, 0xadbe1ef1a056ddf4],
    [0x704f4005bb86696e, 0x379b5402578eeb56, 0xab81093e086ff214, 0x0a451a45be99031b],
    [0xa611de20412c0013, 0x203252d7547e452f, 0xb63d4215ed500630, 0xadbe1ef1a056ddf4],
    [0x704f4005bb86696e, 0x379b5402578eeb56, 0xab81093e086ff214, 0x0a451a45be99031b],
    [0xeca3e1d96c1fec0a, 0xc15816d79d456dee, 0x17cdf3053cbf8279, 0x3ac7dac918963914],
    [0xeacda9c62e07317a, 0x8de51a1c2169c91e, 0x2797d33e9b4351d6, 0x00783731b2836c19],
    [0xeca3e1d96c1fec0a, 0xc15816d79d456dee, 0x17cdf3053cbf8279, 0x3ac7dac918963914],
    [0xeacda9c62e07317a, 0x8de51a1c2169c91e, 0x2797d33e9b4351d6, 0x00783731b2836c19],
];

/// Per case: `[fnv(final_w), fnv(report history), res_digest]`.
const SWE_SHORT_GOLDEN: [[u64; 3]; 8] = [
    [0xa7e24a708d37f343, 0xd87d96ccc7adb5b6, 0xed3224981a6790da],
    [0xd04cf521fd42cf5d, 0xbe741e961ed159bb, 0x4262210eb6b8457f],
    [0xa7e24a708d37f343, 0xd87d96ccc7adb5b6, 0xed3224981a6790da],
    [0xd04cf521fd42cf5d, 0xbe741e961ed159bb, 0x4262210eb6b8457f],
    [0x69ca398e7d917912, 0x78d80caf7022f960, 0xb297f61dc6e6251a],
    [0xe3a24f82a9faa4cf, 0xb658fba7c7fa9cc4, 0x4db12e54e6d0f6d3],
    [0x69ca398e7d917912, 0x78d80caf7022f960, 0xb297f61dc6e6251a],
    [0xe3a24f82a9faa4cf, 0xb658fba7c7fa9cc4, 0x4db12e54e6d0f6d3],
];

/// Airfoil's rows over an `nx`×`ny` channel with a pressure pulse.
fn airfoil_rows(nx: usize, ny: usize, cases: impl Fn(&MeshData) -> Vec<(Partition, bool, bool)>) -> Vec<[u64; 4]> {
    let consts = FlowConstants::default();
    let builder = MeshBuilder::channel(nx, ny);
    let mesh = builder.build(&consts);
    mesh.add_pulse(1.0, 0.5, 0.25, 0.2, &consts);
    let (data, q0) = (builder.data(), mesh.p_q.to_vec());

    let mut actual = Vec::new();
    for (part, overlap, renumber) in cases(&data) {
        let nranks = part.nranks;
        let rep = run_distributed_opts(
            &data,
            &consts,
            &q0,
            &part,
            NITER,
            REPORT_EVERY,
            &opts(overlap, renumber),
        )
        .unwrap_or_else(|e| panic!("airfoil {nranks} ranks overlap={overlap} renumber={renumber}: {e}"));
        assert_eq!(rep.rms.len(), NITER / REPORT_EVERY);
        actual.push([
            fnv1a(rep.final_q.iter().map(|v| v.to_bits())),
            fnv1a(rep.rms.iter().flat_map(|(i, r)| [*i as u64, r.to_bits()])),
            rep.adt_digest.expect("adt digest asked for"),
            rep.res_digest.expect("res digest asked for"),
        ]);
    }
    actual
}

/// Shallow-water's rows: a walled `nx`×`ny` basin after a dam break.
fn swe_rows(nx: usize, ny: usize, cases: impl Fn(&MeshData) -> Vec<(Partition, bool, bool)>) -> Vec<[u64; 3]> {
    let app = SweApp::new(SweConfig {
        imax: nx,
        jmax: ny,
        ..SweConfig::default()
    });
    app.dam_break(2.0, 2.0, 1.0);
    let w0 = app.w.to_vec();
    let mut data = MeshBuilder::channel(nx, ny).data();
    data.bound
        .iter_mut()
        .for_each(|b| *b = op2_swe::kernels::SWE_WALL);

    let mut actual = Vec::new();
    for (part, overlap, renumber) in cases(&data) {
        let nranks = part.nranks;
        let rep = run_swe_distributed_opts(
            &data,
            9.81,
            0.4,
            &w0,
            &part,
            NITER,
            REPORT_EVERY,
            &opts(overlap, renumber),
        )
        .unwrap_or_else(|e| panic!("swe {nranks} ranks overlap={overlap} renumber={renumber}: {e}"));
        assert_eq!(rep.reports.len(), NITER / REPORT_EVERY);
        actual.push([
            fnv1a(rep.final_w.iter().map(|v| v.to_bits())),
            fnv1a(
                rep.reports
                    .iter()
                    .flat_map(|(s, dt, r)| [*s as u64, dt.to_bits(), r.to_bits()]),
            ),
            rep.res_digest.expect("res digest asked for"),
        ]);
    }
    actual
}

#[test]
fn airfoil_matrix_matches_golden_digests() {
    let actual = airfoil_rows(NX, NY, |_| strips_cases());
    assert!(
        actual == AIRFOIL_GOLDEN,
        "airfoil distributed results moved; actual table:\n{}",
        table("AIRFOIL_GOLDEN", &actual)
    );
}

#[test]
fn swe_matrix_matches_golden_digests() {
    let actual = swe_rows(NX, NY, |_| strips_cases());
    assert!(
        actual == SWE_GOLDEN,
        "shallow-water distributed results moved; actual table:\n{}",
        table("SWE_GOLDEN", &actual)
    );
}

/// The short matrix's partitions give some rank a halo group of under 16
/// edges and one whose length leaves a lane remainder (and, so that both
/// paths run, one of 16 or more).
#[test]
fn short_matrix_has_short_and_ragged_groups() {
    let data = MeshBuilder::channel(SHORT_NX, SHORT_NY).data();
    let mut lens = Vec::new();
    for (part, _, _) in short_cases(&data) {
        for rank in 0..part.nranks {
            let plan = HaloPlan::build(&build_local(&data, &part, rank));
            lens.extend(plan.groups.iter().map(|g| g.edges.len()));
        }
    }
    assert!(lens.iter().any(|&n| n < 16), "no group under 16 edges: {lens:?}");
    assert!(lens.iter().any(|&n| n >= 16), "no group of 16 edges or more: {lens:?}");
    assert!(lens.iter().any(|&n| n % 4 != 0), "every group a multiple of 4: {lens:?}");
}

#[test]
fn airfoil_short_matrix_matches_golden_digests() {
    let actual = airfoil_rows(SHORT_NX, SHORT_NY, short_cases);
    assert!(
        actual == AIRFOIL_SHORT_GOLDEN,
        "airfoil distributed results moved on short groups; actual table:\n{}",
        table("AIRFOIL_SHORT_GOLDEN", &actual)
    );
}

#[test]
fn swe_short_matrix_matches_golden_digests() {
    let actual = swe_rows(SHORT_NX, SHORT_NY, short_cases);
    assert!(
        actual == SWE_SHORT_GOLDEN,
        "shallow-water distributed results moved on short groups; actual table:\n{}",
        table("SWE_SHORT_GOLDEN", &actual)
    );
}
