//! # op2-store — crash-consistent persistence for the OP2/HPX stack
//!
//! The recovery ladder built by the distributed fabric ends at the process
//! boundary: rank-level checkpoints live in process memory, so whole-process
//! death loses every one of them. Real HPX deployments of OP2 applications
//! assume checkpoint/restart against a parallel file system as the
//! resilience floor beneath task-level fault tolerance; this crate is that
//! floor, rebuilt for the Rust port with the same discipline the rest of
//! the repo applies to scheduling and communication faults — every durable
//! byte is checksummed, every commit protocol is explicit, and every
//! failure mode is deterministically injectable from a seed.
//!
//! Three building blocks:
//!
//! * [`wal`] — append-only write-ahead segments of length-prefixed,
//!   xxhash64-checksummed records behind a versioned header. Replay walks
//!   the segments in order, verifies every record, and **truncates the torn
//!   tail** (a partial, short, or bit-flipped record and everything after
//!   it) instead of panicking: recovery always lands on the newest run of
//!   *verified* records.
//! * [`atomic`] — whole-file commits via write-temp → `fsync` → rename →
//!   `fsync`-dir, with the payload sealed in a checksummed envelope
//!   ([`atomic::seal`]/[`atomic::unseal`]) so a reader can tell a committed
//!   file from a damaged one.
//! * [`fault`] — a seeded deterministic storage-fault shim
//!   ([`fault::StoreFaultPlan`]): torn writes, short writes, single-bit
//!   flips and `ENOSPC`, decided by a pure hash of `(seed, op index)` and
//!   replayable from `STORE_FAULT_SEED` exactly like the scheduler's
//!   `DET_SEED` and the fabric's `FAULT_SEED`.
//!
//! Consumers in this workspace: the distributed march's durable
//! [`CheckpointStore`](../op2_dist/checkpoint) (whole-process
//! restart-from-disk), the `op2-serve` job journal (admitted / started /
//! terminal records, replayed at service restart), and the autotuner's
//! `TuneStore` (sealed atomic snapshot, corrupt file degrades to a cold
//! start).

#![warn(missing_docs)]

pub mod atomic;
pub mod codec;
pub mod fault;
pub mod hash;
pub mod wal;

pub use atomic::{read_sealed, seal, unseal, write_sealed};
pub use codec::{ByteReader, ByteWriter, CodecError};
pub use fault::{FaultKind, StoreFaultPlan, StoreFaultReport};
pub use hash::{xxhash64, Xxh64};
pub use wal::{Record, ReplaySummary, Wal, WalOptions};

use std::io;

/// Why a store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying filesystem failed (propagated `io::Error`).
    Io(io::Error),
    /// The device is full — injected by [`fault::StoreFaultPlan`] or real.
    /// Surfaced as its own variant so consumers can *degrade* (skip a
    /// checkpoint, keep the in-memory copy) instead of aborting.
    NoSpace,
    /// A sealed file or WAL header exists but carries the wrong magic or an
    /// unsupported version — written by a different build, or damaged in
    /// the first block. Readers treat it like corruption: regenerate.
    BadHeader {
        /// What the reader expected.
        expected: String,
        /// What it found.
        found: String,
    },
    /// A sealed file's payload does not match its recorded checksum.
    ChecksumMismatch {
        /// Checksum recorded in the envelope.
        recorded: u64,
        /// Checksum of the bytes actually read.
        computed: u64,
    },
    /// A sealed file is shorter than its header claims.
    Truncated {
        /// Bytes the header promised.
        expected: usize,
        /// Bytes present.
        found: usize,
    },
    /// A record payload failed to decode (consumer-level framing error).
    Codec(CodecError),
}

impl StoreError {
    /// True for errors that mean "the bytes on disk cannot be trusted"
    /// (as opposed to an environmental failure like permissions): readers
    /// with a regeneration path should degrade to a cold start on these.
    pub fn is_corruption(&self) -> bool {
        matches!(
            self,
            StoreError::BadHeader { .. }
                | StoreError::ChecksumMismatch { .. }
                | StoreError::Truncated { .. }
                | StoreError::Codec(_)
        )
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io error: {e}"),
            StoreError::NoSpace => write!(f, "store device full (ENOSPC)"),
            StoreError::BadHeader { expected, found } => {
                write!(f, "bad store header: expected {expected}, found {found}")
            }
            StoreError::ChecksumMismatch { recorded, computed } => write!(
                f,
                "store checksum mismatch: recorded {recorded:016x}, computed {computed:016x}"
            ),
            StoreError::Truncated { expected, found } => {
                write!(f, "store file truncated: expected {expected} bytes, found {found}")
            }
            StoreError::Codec(e) => write!(f, "store record decode failed: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> StoreError {
        if e.raw_os_error() == Some(28) {
            // ENOSPC from the real filesystem classifies like the injected one.
            StoreError::NoSpace
        } else {
            StoreError::Io(e)
        }
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> StoreError {
        StoreError::Codec(e)
    }
}
