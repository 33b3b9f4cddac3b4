//! Renumbering pins: the four permutations `MeshData::renumber_rcm` returns
//! for a shuffled channel mesh, as FNV-1a digests, for two seeds on two mesh
//! sizes. Every digest was taken before the RCM pass was reworked for speed
//! (packed sort keys, one shared adjacency builder, one neighbour buffer);
//! a change to the pass that moves any element of any permutation fails
//! here, and with it every renumbered plan and result downstream.
//!
//! The table pins go one step further: every table of the mesh
//! `MeshData::shuffled` hands back, and of the mesh `renumber_rcm` then
//! makes of it, as FNV-1a digests. They were taken before the pass moved to
//! a flat (CSR) cell graph, counting sorts and one-pass table permutes.

use op2_airfoil::mesh::MeshData;
use op2_airfoil::MeshBuilder;

/// FNV-1a over the little-endian bytes of a permutation.
fn fnv1a(perm: &[u32]) -> u64 {
    fnv1a_bytes(perm.iter().flat_map(|v| v.to_le_bytes()))
}

fn fnv1a_bytes(bytes: impl Iterator<Item = u8>) -> u64 {
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Digests of `coords`, `edge_nodes`, `edge_cells`, `bedge_nodes`,
/// `bedge_cells`, `bound` and `cell_nodes`, in that order.
fn table_digests(d: &MeshData) -> [u64; 7] {
    [
        fnv1a_bytes(d.coords.iter().flat_map(|v| v.to_bits().to_le_bytes())),
        fnv1a(&d.edge_nodes),
        fnv1a(&d.edge_cells),
        fnv1a(&d.bedge_nodes),
        fnv1a(&d.bedge_cells),
        fnv1a_bytes(d.bound.iter().flat_map(|v| v.to_le_bytes())),
        fnv1a(&d.cell_nodes),
    ]
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

/// `(imax, jmax, shuffle seed, shuffled tables, renumbered tables)`, each
/// tables entry as [`table_digests`] orders them.
type TablePin = (usize, usize, u64, [u64; 7], [u64; 7]);

const TABLE_PINS: [TablePin; 5] = [
    (
        64,
        32,
        7,
        [
            0x110f_5e46_04a2_8ba8,
            0x6532_39bf_b0d4_023a,
            0xb79b_a900_5767_9aed,
            0x0d16_625f_e529_cc01,
            0xb502_1995_a4b1_c965,
            0xab17_a49b_ac35_0405,
            0x053b_81a2_a750_144e,
        ],
        [
            0x5ddd_d47a_20e0_e410,
            0x45dd_6a68_d145_ddc1,
            0x3ff0_6127_ef6a_a375,
            0x48a8_e7bb_f15d_e491,
            0xf386_54ac_99f6_69a5,
            0x2ae9_40d4_ceed_5665,
            0x2ebb_ebb0_ed76_0576,
        ],
    ),
    (
        64,
        32,
        1234,
        [
            0x7c92_0acc_6061_b904,
            0xbf4c_ab39_7b03_02cd,
            0x359c_9bf9_1b86_cd09,
            0x79d2_a621_03b2_41e1,
            0x818f_94dc_9dc5_e161,
            0x0a5c_f0b2_38d1_de65,
            0xd643_3eba_d225_83a2,
        ],
        [
            0x6f88_82bc_d93f_fa90,
            0x9f41_2e36_1229_f376,
            0x1cdf_0360_2b0b_e6b9,
            0x8e58_245d_b4ec_c181,
            0xf386_54ac_99f6_69a5,
            0x78e0_5358_d676_2065,
            0xbf70_175f_fb98_966d,
        ],
    ),
    (
        128,
        64,
        7,
        [
            0x2720_0953_7644_bf84,
            0x8b6a_dea2_1d01_9156,
            0xd70b_0fe5_57e2_80b6,
            0xda62_feee_06a0_d165,
            0x2209_00c4_490b_476a,
            0x864d_14a1_2b08_3ec5,
            0x0e17_c606_2b8b_64a6,
        ],
        [
            0xea24_fe67_a2ea_23a0,
            0xebdd_6c0b_3206_93e7,
            0xfeb4_7ee0_48a2_a9a1,
            0x84f3_d8ab_28b0_2d21,
            0x0999_54d3_5685_e915,
            0x6314_bddf_06a6_1715,
            0xd452_fe56_3853_6393,
        ],
    ),
    (
        128,
        64,
        1234,
        [
            0xf912_9bee_e15e_c4c8,
            0x54d6_a50c_85f2_98f1,
            0x9c81_1923_4dc6_d641,
            0xc148_42b5_2185_0389,
            0x9460_e4d9_ee99_2cf1,
            0x357c_1ed4_93df_1e95,
            0x5d0f_7e05_8ef4_db57,
        ],
        [
            0xa2ed_82bf_62c0_17f0,
            0xd8c9_1c6f_09c3_be6a,
            0x27d3_40ba_854b_0e1d,
            0xe099_f93e_d505_1615,
            0x0999_54d3_5685_e915,
            0x7c1d_2a8d_303a_b1d5,
            0x3031_3a71_7a78_8f11,
        ],
    ),
    (
        512,
        256,
        12345,
        [
            0xad60_7228_ce32_a4f0,
            0xce27_f464_8631_cd5e,
            0x5bc8_a324_1a26_ba82,
            0xe172_308c_3668_2b51,
            0xa596_2539_7d1f_d016,
            0xe835_2dc8_2a0e_c195,
            0xbe3e_4a9d_cf0e_e424,
        ],
        [
            0x7d1a_f3d1_92b0_9670,
            0xe813_94e1_208d_568c,
            0x34df_6c50_7a38_72f5,
            0x4125_9d79_d98f_41bd,
            0x2e86_dd42_17d5_8d6d,
            0x7c2e_9db6_4142_05d5,
            0x8c0d_9b2f_9d4e_1639,
        ],
    ),
];

#[test]
fn rcm_tables_match_pins() {
    let mut actual = Vec::new();
    for &(imax, jmax, seed, _, _) in &TABLE_PINS {
        let (shuffled, _) = MeshBuilder::channel(imax, jmax).data().shuffled(seed);
        let (renumbered, _) = shuffled.renumber_rcm();
        actual.push((
            imax,
            jmax,
            seed,
            table_digests(&shuffled),
            table_digests(&renumbered),
        ));
    }
    let hex = |d: &[u64; 7]| d.map(|v| format!("{v:#018x}")).join(", ");
    let table: String = actual
        .iter()
        .map(|(i, j, s, a, b)| format!("    ({i}, {j}, {s}, [{}], [{}]),\n", hex(a), hex(b)))
        .collect();
    assert_eq!(
        actual,
        TABLE_PINS.to_vec(),
        "mesh tables moved; actual pins:\n{table}"
    );
}
