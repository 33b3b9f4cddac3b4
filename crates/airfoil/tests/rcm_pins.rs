//! Renumbering pins: the four permutations `MeshData::renumber_rcm` returns
//! for a shuffled channel mesh, as FNV-1a digests, for two seeds on two mesh
//! sizes. Every digest was taken before the RCM pass was reworked for speed
//! (packed sort keys, one shared adjacency builder, one neighbour buffer);
//! a change to the pass that moves any element of any permutation fails
//! here, and with it every renumbered plan and result downstream.

use op2_airfoil::MeshBuilder;

/// FNV-1a over the little-endian bytes of a permutation.
fn fnv1a(perm: &[u32]) -> u64 {
    perm.iter()
        .flat_map(|v| v.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
}

/// `(imax, jmax, shuffle seed, [cells, nodes, edges, bedges] digests)`.
const PINS: [(usize, usize, u64, [u64; 4]); 4] = [
    (
        64,
        32,
        7,
        [
            0x5607_a3bc_8899_cce9,
            0xb3ef_b71e_6783_6a7d,
            0x2144_31d7_04fc_3ef5,
            0xe7dd_d33a_7f25_0cf5,
        ],
    ),
    (
        64,
        32,
        1234,
        [
            0x8205_764c_4acd_8e41,
            0xc3c9_9117_be3c_5d5d,
            0x8298_40b5_aa60_dd49,
            0x1be1_fcfd_df82_21a5,
        ],
    ),
    (
        128,
        64,
        7,
        [
            0x9ee8_6371_8cdc_2f15,
            0x0440_b89d_0545_11b9,
            0x04c6_7193_78c4_dfa9,
            0xd522_88fd_dd58_2b45,
        ],
    ),
    (
        128,
        64,
        1234,
        [
            0x9708_9461_71f2_d4e5,
            0xda0a_1c4c_d8a3_db01,
            0x83e2_a604_5e13_f47d,
            0xa31b_b910_16cd_0919,
        ],
    ),
];

#[test]
fn rcm_permutations_match_pins() {
    let mut actual = Vec::new();
    for &(imax, jmax, seed, _) in &PINS {
        let (shuffled, _) = MeshBuilder::channel(imax, jmax).data().shuffled(seed);
        let (_, ren) = shuffled.renumber_rcm();
        let digests = [&ren.cells, &ren.nodes, &ren.edges, &ren.bedges].map(|p| fnv1a(p.perm()));
        actual.push((imax, jmax, seed, digests));
    }
    let table: String = actual
        .iter()
        .map(|(i, j, s, d)| {
            format!(
                "    ({i}, {j}, {s}, [{:#018x}, {:#018x}, {:#018x}, {:#018x}]),\n",
                d[0], d[1], d[2], d[3]
            )
        })
        .collect();
    assert_eq!(
        actual,
        PINS.to_vec(),
        "renumbering moved; actual pins:\n{table}"
    );
}
