//! The WAL's on-disk bytes, pinned across commits.
//!
//! A fixed append sequence — a checkpoint-style meta record, raw payloads
//! whose `kind ‖ len ‖ payload` straddles XXH64's 32-byte stripe (0, 1, 26,
//! 31, 32, 33 bytes and 64 KiB), a record shaped like a checkpoint slice, and
//! enough volume to force two segment rotations — must write segment files
//! whose FNV-1a digests equal the ones recorded here. The digests were taken
//! from the implementation that framed each record by copying it into one
//! buffer and checksummed a second concatenated copy, so a faster write path
//! must leave every byte, checksum and segment boundary where it was.
//!
//! Beside the pins, property tests hold the record checksum to its
//! definition: XXH64 of `kind ‖ len ‖ payload` seeded by the record's offset,
//! however the streaming hasher is fed.

use std::fs;
use std::path::PathBuf;

use op2_store::wal::frame_checksum;
use op2_store::{xxhash64, ByteWriter, Wal, WalOptions, Xxh64};
use proptest::prelude::*;

/// FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `n` deterministic pseudo-random bytes (splitmix64 stream from `seed`).
fn bytes(n: usize, seed: u64) -> Vec<u8> {
    let mut x = seed;
    (0..n)
        .map(|_| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as u8
        })
        .collect()
}

/// The fixed append sequence: `(kind, payload)` in order.
fn sequence() -> Vec<(u16, Vec<u8>)> {
    let mut recs = Vec::new();
    let mut meta = ByteWriter::new();
    meta.u32(2).u32(131_072).u32(4);
    recs.push((1, meta.finish()));
    for (i, n) in [0usize, 1, 26, 31, 32, 33, 64 * 1024]
        .into_iter()
        .enumerate()
    {
        recs.push((2, bytes(n, i as u64)));
    }
    // A checkpoint slice: iteration, rank, owned cells, 4 values per cell
    // (signed zeros, subnormals and a NaN payload among them).
    let cells: Vec<u32> = (0..1820u32).map(|c| c.wrapping_mul(7919) % 4096).collect();
    let q: Vec<f64> = (0..4 * cells.len())
        .map(|i| match i % 5 {
            0 => -0.0,
            1 => f64::from_bits(1 + i as u64),
            2 => f64::from_bits(0x7ff8_0000_0000_0000 | i as u64),
            _ => (i as f64).sin() * 1e3,
        })
        .collect();
    let mut slice = ByteWriter::new();
    slice.u64(10).u32(1).u32s(&cells).f64s(&q);
    recs.push((2, slice.finish()));
    let mut truncate = ByteWriter::new();
    truncate.u64(5);
    recs.push((3, truncate.finish()));
    recs
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("op2-store-pins-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

/// FNV-1a of every segment file the fixed sequence writes, in segment order.
const SEGMENT_DIGESTS: [u64; 3] = [
    0xcfd8_39e3_5e62_4c70,
    0x8ce7_e82d_8324_a853,
    0x204d_6758_131a_7bf2,
];

#[test]
fn segment_files_are_pinned_bit_for_bit() {
    let dir = tmpdir("segments");
    let opts = || WalOptions::new(&dir).segment_bytes(1024);
    let recs = sequence();
    {
        let (mut wal, replay) = Wal::open(opts()).unwrap();
        assert!(replay.records.is_empty());
        for (kind, payload) in &recs {
            wal.append(*kind, payload).unwrap();
        }
        assert_eq!(wal.segment_index(), 2, "two forced rotations");
    }
    let mut names: Vec<String> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let digests: Vec<u64> = names
        .iter()
        .map(|n| fnv1a(&fs::read(dir.join(n)).unwrap()))
        .collect();
    assert_eq!(names, ["wal.000000", "wal.000001", "wal.000002"]);
    assert!(
        digests == SEGMENT_DIGESTS,
        "WAL bytes moved; actual digests: [{}]",
        digests
            .iter()
            .map(|d| format!("{d:#018x}"))
            .collect::<Vec<_>>()
            .join(", ")
    );

    // And the pinned bytes replay to exactly what was appended.
    let (_, replay) = Wal::open(opts()).unwrap();
    assert!(!replay.torn_tail);
    let got: Vec<(u16, Vec<u8>)> = replay
        .records
        .into_iter()
        .map(|r| (r.kind, r.payload))
        .collect();
    assert_eq!(got, recs);
    fs::remove_dir_all(&dir).unwrap();
}

/// FNV-1a of every segment file the same sequence writes under a seeded
/// storage-fault plan (torn, short, bit-flipped and `ENOSPC` appends), and
/// which appends reported `ENOSPC`.
const FAULTED_DIGESTS: [u64; 2] = [0x03a7_eb66_396b_7c5c, 0x2b6d_2d63_044a_6b82];
const FAULTED_NOSPACE: [bool; 10] = [
    true, false, true, false, false, true, true, true, false, false,
];

#[test]
fn faulted_segment_files_are_pinned_bit_for_bit() {
    let dir = tmpdir("faulted");
    let plan = op2_store::StoreFaultPlan::new(3, 6_000);
    let mut nospace = Vec::new();
    {
        let (mut wal, _) = Wal::open(
            WalOptions::new(&dir)
                .segment_bytes(1024)
                .faults(plan.clone()),
        )
        .unwrap();
        for (kind, payload) in &sequence() {
            match wal.append(*kind, payload) {
                Ok(()) => nospace.push(false),
                Err(op2_store::StoreError::NoSpace) => nospace.push(true),
                Err(e) => panic!("unexpected store error: {e}"),
            }
        }
    }
    let r = plan.report();
    assert_eq!(
        (r.clean, r.torn, r.short, r.bit_flips, r.enospc),
        (2, 1, 1, 1, 5),
        "every fault kind fires once or more"
    );
    let mut names: Vec<String> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let digests: Vec<u64> = names
        .iter()
        .map(|n| fnv1a(&fs::read(dir.join(n)).unwrap()))
        .collect();
    assert!(
        digests == FAULTED_DIGESTS && nospace == FAULTED_NOSPACE,
        "faulted WAL bytes moved; actual digests: [{}], ENOSPC: {nospace:?}",
        digests
            .iter()
            .map(|d| format!("{d:#018x}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    /// The record checksum is XXH64 of the concatenated `kind ‖ len ‖
    /// payload`, and the streaming hasher equals the one-shot hash of the
    /// concatenation however it is split: at every split point into two
    /// pieces, and fed one byte at a time.
    #[test]
    fn frame_checksum_is_xxhash64_of_the_concatenation(
        offset in any::<u64>(),
        kind in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..160),
    ) {
        let mut joined = kind.to_le_bytes().to_vec();
        joined.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        joined.extend_from_slice(&payload);
        let want = xxhash64(&joined, offset);
        prop_assert_eq!(frame_checksum(offset, kind, &payload), want);
        for split in 0..=joined.len() {
            let (a, b) = joined.split_at(split);
            prop_assert_eq!(Xxh64::new(offset).update(a).update(b).finish(), want, "split at {}", split);
        }
        let mut bytewise = Xxh64::new(offset);
        for b in &joined {
            bytewise.update(std::slice::from_ref(b));
        }
        prop_assert_eq!(bytewise.finish(), want);
    }
}
