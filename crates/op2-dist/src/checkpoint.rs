//! Checkpointed recovery state for the distributed time-march.
//!
//! Each rank periodically commits its *owned-cell* state (global cell ids +
//! the `ncomp`-component state per cell) to a shared [`CheckpointStore`]. A
//! checkpoint at iteration `k` is **consistent** once the committed slices
//! jointly cover every global cell; [`CheckpointStore::latest_consistent`]
//! returns the newest such iteration with the assembled global state.
//!
//! Consistency is what makes recovery deterministic: a rank that races a few
//! iterations ahead of a failure can only ever commit an *incomplete* entry
//! (the dead rank never contributes), so every survivor resolves the same
//! restore point no matter when it noticed the failure.
//!
//! ## Durable mode
//!
//! [`CheckpointStore::open_durable`] backs the store with an `op2-store`
//! write-ahead log, extending the recovery ladder below the process
//! boundary: local retry → checkpoint recovery (rank death) → **restart
//! from disk (whole-process death)**. Every commit is appended (and
//! fsynced) as a checksummed record *before* it becomes visible in memory;
//! reopening the same directory replays the verified prefix of the log and
//! rebuilds exactly the slices that were durable at the crash — a torn,
//! short, or bit-flipped tail is truncated by the WAL, so recovery always
//! lands on the newest *verified* consistent boundary. Injected `ENOSPC`
//! (or the real thing) degrades a commit to in-memory-only instead of
//! failing the march: the current process keeps its full recovery ladder,
//! only restartability lags until space returns.
//!
//! A durable commit writes its slice once: it is serialized into a per-rank
//! buffer that the store reuses from commit to commit, and the WAL
//! checksums that buffer in place and hands it to the file beside its frame
//! header. The only other copy is the in-memory slice that
//! [`CheckpointStore::latest_consistent`] assembles from.

use std::collections::BTreeMap;
use std::path::Path;

use parking_lot::Mutex;

use op2_store::{ByteReader, ByteWriter, StoreError, StoreFaultPlan, Wal, WalOptions};
use op2_trace::{pack2, EventKind, NO_NAME};

/// WAL record kinds used by the durable checkpoint log.
const REC_META: u16 = 1;
const REC_SLICE: u16 = 2;
const REC_TRUNCATE: u16 = 3;

/// Why a checkpoint operation failed.
#[derive(Debug)]
pub enum CheckpointError {
    /// `q` does not hold `ncomp` values per entry of `cells`.
    SliceLength {
        /// Expected `q` length (`ncomp × cells.len()`).
        expected: usize,
        /// Actual `q` length.
        found: usize,
    },
    /// The committing rank is outside the store's rank range.
    RankOutOfRange {
        /// The offending rank.
        rank: usize,
        /// The store's rank count.
        nranks: usize,
    },
    /// A durable log was opened with dimensions that disagree with the
    /// mesh it was written for — restarting a different problem against an
    /// old log would silently assemble garbage.
    DimensionMismatch {
        /// Which dimension disagreed (`"nranks"`, `"ncells"`, `"ncomp"`).
        field: &'static str,
        /// Value recorded in the log.
        stored: u32,
        /// Value requested at open.
        requested: u32,
    },
    /// The underlying store failed (non-degradable: real IO errors;
    /// `ENOSPC` never surfaces here — it degrades to in-memory-only).
    Store(StoreError),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::SliceLength { expected, found } => {
                write!(f, "checkpoint slice length mismatch: expected {expected} values, got {found}")
            }
            CheckpointError::RankOutOfRange { rank, nranks } => {
                write!(f, "rank {rank} out of range (store has {nranks} ranks)")
            }
            CheckpointError::DimensionMismatch { field, stored, requested } => write!(
                f,
                "durable checkpoint log was written for {field}={stored}, but {field}={requested} was requested"
            ),
            CheckpointError::Store(e) => write!(f, "checkpoint store failed: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<StoreError> for CheckpointError {
    fn from(e: StoreError) -> CheckpointError {
        CheckpointError::Store(e)
    }
}

impl From<op2_store::CodecError> for CheckpointError {
    fn from(e: op2_store::CodecError) -> CheckpointError {
        CheckpointError::Store(StoreError::Codec(e))
    }
}

/// One rank's committed slice at some iteration.
#[derive(Debug, Clone)]
struct Slice {
    /// Global ids of the cells covered.
    cells: Vec<u32>,
    /// `ncomp × cells.len()` state values, cell-major.
    q: Vec<f64>,
}

/// Counters describing the durable log's activity (all zero for an
/// in-memory store).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CkptStats {
    /// Slice records appended (and fsynced) this session.
    pub appends: u64,
    /// Payload bytes appended this session.
    pub bytes: u64,
    /// Commits degraded to in-memory-only by `ENOSPC`.
    pub enospc_skips: u64,
    /// Slice records recovered by replay at open.
    pub recovered: u64,
    /// True if replay truncated a torn/corrupt tail at open.
    pub torn_tail: bool,
}

struct DurableLog {
    wal: Wal,
    stats: CkptStats,
}

/// Shared store of per-iteration checkpoints (stand-in for a parallel FS),
/// optionally backed by a crash-consistent on-disk log.
pub struct CheckpointStore {
    ncells: usize,
    nranks: usize,
    ncomp: usize,
    /// iteration → per-rank slot.
    inner: Mutex<BTreeMap<usize, Vec<Option<Slice>>>>,
    /// Durable backing; `None` = in-memory only.
    log: Option<Mutex<DurableLog>>,
    /// Per rank, the buffer its slice records are serialized into, reused
    /// from commit to commit (empty for an in-memory store). One per rank,
    /// so ranks serialize concurrently and queue only for the append.
    payloads: Vec<Mutex<Vec<u8>>>,
}

impl CheckpointStore {
    /// An in-memory store for `nranks` ranks over a `ncells`-cell mesh with
    /// `ncomp` state components per cell (4 for Airfoil `q`, 3 for
    /// shallow-water `w`).
    pub fn new(nranks: usize, ncells: usize, ncomp: usize) -> CheckpointStore {
        assert!(ncomp > 0, "ncomp must be positive");
        CheckpointStore {
            ncells,
            nranks,
            ncomp,
            inner: Mutex::new(BTreeMap::new()),
            log: None,
            payloads: Vec::new(),
        }
    }

    /// Open (creating if necessary) a durable store at `dir`, replaying any
    /// verified slices a previous process left behind. `faults` attaches a
    /// deterministic storage-fault plan to subsequent appends.
    ///
    /// # Errors
    /// [`CheckpointError::DimensionMismatch`] if the log on disk was
    /// written for a different mesh; [`CheckpointError::Store`] for real IO
    /// failures. A corrupt tail is *not* an error — it is truncated and
    /// reported via [`CkptStats::torn_tail`].
    pub fn open_durable(
        dir: &Path,
        nranks: usize,
        ncells: usize,
        ncomp: usize,
        faults: Option<StoreFaultPlan>,
    ) -> Result<CheckpointStore, CheckpointError> {
        assert!(ncomp > 0, "ncomp must be positive");
        let mut wal_opts = WalOptions::new(dir);
        if let Some(plan) = faults {
            wal_opts = wal_opts.faults(plan);
        }
        let (mut wal, replay) = Wal::open(wal_opts)?;

        let mut inner: BTreeMap<usize, Vec<Option<Slice>>> = BTreeMap::new();
        let mut stats = CkptStats {
            torn_tail: replay.torn_tail,
            ..CkptStats::default()
        };
        let mut saw_meta = false;
        for rec in &replay.records {
            match rec.kind {
                REC_META => {
                    let mut r = ByteReader::new(&rec.payload);
                    let (sr, sc, sk) = (r.u32()?, r.u32()?, r.u32()?);
                    for (field, stored, requested) in [
                        ("nranks", sr, nranks as u32),
                        ("ncells", sc, ncells as u32),
                        ("ncomp", sk, ncomp as u32),
                    ] {
                        if stored != requested {
                            return Err(CheckpointError::DimensionMismatch {
                                field,
                                stored,
                                requested,
                            });
                        }
                    }
                    saw_meta = true;
                }
                REC_SLICE => {
                    let mut r = ByteReader::new(&rec.payload);
                    let iter = r.u64()? as usize;
                    let rank = r.u32()? as usize;
                    let cells = r.u32s()?;
                    let q = r.f64s()?;
                    r.done()?;
                    if rank >= nranks || q.len() != ncomp * cells.len() {
                        // A checksummed record with impossible contents can
                        // only be version skew; treat like a torn tail —
                        // trust nothing at or after it.
                        stats.torn_tail = true;
                        break;
                    }
                    let slot = inner.entry(iter).or_insert_with(|| vec![None; nranks]);
                    slot[rank] = Some(Slice { cells, q });
                    stats.recovered += 1;
                }
                REC_TRUNCATE => {
                    let mut r = ByteReader::new(&rec.payload);
                    let upto = r.u64()? as usize;
                    inner.retain(|&k, _| k <= upto);
                }
                _ => {
                    stats.torn_tail = true;
                    break;
                }
            }
        }
        if !saw_meta {
            // Fresh (or fully-truncated) log: stamp the dimensions first so
            // any later open against the wrong mesh is refused.
            let mut w = ByteWriter::new();
            w.u32(nranks as u32).u32(ncells as u32).u32(ncomp as u32);
            match wal.append(REC_META, &w.finish()) {
                Ok(()) | Err(StoreError::NoSpace) => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(CheckpointStore {
            ncells,
            nranks,
            ncomp,
            inner: Mutex::new(inner),
            log: Some(Mutex::new(DurableLog { wal, stats })),
            payloads: (0..nranks).map(|_| Mutex::new(Vec::new())).collect(),
        })
    }

    /// Total global cell count the store covers.
    pub fn ncells(&self) -> usize {
        self.ncells
    }

    /// State components per cell.
    pub fn ncomp(&self) -> usize {
        self.ncomp
    }

    /// True if the store is backed by an on-disk log.
    pub fn is_durable(&self) -> bool {
        self.log.is_some()
    }

    /// Durable-log counters (all zero for an in-memory store).
    pub fn stats(&self) -> CkptStats {
        self.log
            .as_ref()
            .map(|l| l.lock().stats)
            .unwrap_or_default()
    }

    /// Commit rank `rank`'s owned slice at iteration `iter`. `q` holds
    /// [`ncomp`](CheckpointStore::ncomp) values per entry of `cells`, in the
    /// same order. In durable mode the slice is appended to the log (and
    /// fsynced) *before* it becomes visible to
    /// [`latest_consistent`](CheckpointStore::latest_consistent); `ENOSPC`
    /// degrades to in-memory-only (counted in [`CkptStats::enospc_skips`]).
    ///
    /// # Errors
    /// Typed validation errors, plus [`CheckpointError::Store`] for
    /// non-degradable IO failures.
    pub fn commit(
        &self,
        iter: usize,
        rank: usize,
        cells: &[u32],
        q: &[f64],
    ) -> Result<(), CheckpointError> {
        if q.len() != self.ncomp * cells.len() {
            return Err(CheckpointError::SliceLength {
                expected: self.ncomp * cells.len(),
                found: q.len(),
            });
        }
        if rank >= self.nranks {
            return Err(CheckpointError::RankOutOfRange {
                rank,
                nranks: self.nranks,
            });
        }
        if let Some(log) = &self.log {
            let mut payload = self.payloads[rank].lock();
            let mut w = ByteWriter::reuse(std::mem::take(&mut *payload));
            w.u64(iter as u64).u32(rank as u32).u32s(cells).f64s(q);
            *payload = w.finish();
            let span = op2_trace::begin();
            let mut log = log.lock();
            let outcome = log.wal.append(REC_SLICE, &payload);
            match &outcome {
                Ok(()) => {
                    log.stats.appends += 1;
                    log.stats.bytes += payload.len() as u64;
                }
                Err(StoreError::NoSpace) => log.stats.enospc_skips += 1,
                Err(_) => {}
            }
            drop(log);
            op2_trace::end(
                span,
                EventKind::CkptIo,
                NO_NAME,
                pack2(rank as u32, iter as u32),
                payload.len() as u64,
            );
            match outcome {
                Ok(()) | Err(StoreError::NoSpace) => {}
                Err(e) => return Err(e.into()),
            }
        }
        let mut inner = self.inner.lock();
        let slot = inner
            .entry(iter)
            .or_insert_with(|| vec![None; self.nranks]);
        slot[rank] = Some(Slice {
            cells: cells.to_vec(),
            q: q.to_vec(),
        });
        Ok(())
    }

    /// The newest iteration whose committed slices cover every cell, with
    /// the assembled global state (length `ncomp × ncells`), or `None` if
    /// no consistent checkpoint exists yet.
    pub fn latest_consistent(&self) -> Option<(usize, Vec<f64>)> {
        let k = self.ncomp;
        let inner = self.inner.lock();
        for (&iter, slot) in inner.iter().rev() {
            let covered: usize = slot
                .iter()
                .flatten()
                .map(|s| s.cells.len())
                .sum();
            if covered != self.ncells {
                continue;
            }
            let mut q = vec![0.0; k * self.ncells];
            let mut seen = vec![false; self.ncells];
            let mut distinct = true;
            for s in slot.iter().flatten() {
                for (i, &g) in s.cells.iter().enumerate() {
                    let g = g as usize;
                    if seen[g] {
                        distinct = false;
                        break;
                    }
                    seen[g] = true;
                    q[k * g..k * g + k].copy_from_slice(&s.q[k * i..k * i + k]);
                }
            }
            // Overlapping commits (possible only transiently while ranks
            // with different partitions race a recovery) are not consistent.
            if distinct {
                return Some((iter, q));
            }
        }
        None
    }

    /// Drop every checkpoint newer than `iter` (called after a restore so
    /// later incomplete entries from pre-failure stragglers cannot shadow
    /// post-recovery commits). In durable mode a truncate marker is
    /// appended best-effort: the in-memory drop is what in-process recovery
    /// correctness needs, and replay applies the same superseding rules.
    pub fn truncate_after(&self, iter: usize) {
        if let Some(log) = &self.log {
            let mut w = ByteWriter::new();
            w.u64(iter as u64);
            let mut log = log.lock();
            if let Err(StoreError::NoSpace) = log.wal.append(REC_TRUNCATE, &w.finish()) {
                log.stats.enospc_skips += 1;
            }
        }
        self.inner.lock().retain(|&k, _| k <= iter);
    }

    /// Number of iterations with at least one committed slice.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True if nothing has been committed.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "op2-dist-ckpt-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn consistent_only_when_all_cells_covered() {
        let store = CheckpointStore::new(2, 4, 4);
        assert!(store.latest_consistent().is_none());
        store.commit(0, 0, &[0, 1], &[1.0; 8]).unwrap();
        assert!(store.latest_consistent().is_none(), "half-covered");
        store.commit(0, 1, &[2, 3], &[2.0; 8]).unwrap();
        let (iter, q) = store.latest_consistent().expect("complete now");
        assert_eq!(iter, 0);
        assert_eq!(&q[..8], &[1.0; 8]);
        assert_eq!(&q[8..], &[2.0; 8]);
    }

    #[test]
    fn latest_wins_and_incomplete_newer_is_ignored() {
        let store = CheckpointStore::new(2, 2, 4);
        store.commit(2, 0, &[0], &[1.0; 4]).unwrap();
        store.commit(2, 1, &[1], &[2.0; 4]).unwrap();
        store.commit(4, 0, &[0], &[9.0; 4]).unwrap(); // rank 1 died before iter 4
        let (iter, q) = store.latest_consistent().expect("iter 2 complete");
        assert_eq!(iter, 2);
        assert_eq!(q[0], 1.0);
        assert_eq!(q[4], 2.0);
    }

    #[test]
    fn recommit_overwrites_rank_slot() {
        let store = CheckpointStore::new(1, 1, 4);
        store.commit(1, 0, &[0], &[1.0; 4]).unwrap();
        store.commit(1, 0, &[0], &[5.0; 4]).unwrap();
        let (_, q) = store.latest_consistent().expect("complete");
        assert_eq!(q, vec![5.0; 4]);
    }

    #[test]
    fn truncate_after_drops_newer_entries() {
        let store = CheckpointStore::new(1, 1, 4);
        store.commit(2, 0, &[0], &[1.0; 4]).unwrap();
        store.commit(6, 0, &[0], &[2.0; 4]).unwrap();
        store.truncate_after(4);
        let (iter, _) = store.latest_consistent().expect("iter 2 kept");
        assert_eq!(iter, 2);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn overlapping_cover_is_not_consistent() {
        let store = CheckpointStore::new(2, 2, 4);
        store.commit(0, 0, &[0, 1], &[1.0; 8]).unwrap();
        store.commit(0, 1, &[1], &[2.0; 4]).unwrap();
        // 3 cell entries over 2 cells: covered != ncells, rejected.
        assert!(store.latest_consistent().is_none());
    }

    #[test]
    fn validation_errors_are_typed_not_panics() {
        let store = CheckpointStore::new(2, 2, 4);
        assert!(matches!(
            store.commit(0, 0, &[0], &[1.0; 3]),
            Err(CheckpointError::SliceLength { expected: 4, found: 3 })
        ));
        assert!(matches!(
            store.commit(0, 5, &[0], &[1.0; 4]),
            Err(CheckpointError::RankOutOfRange { rank: 5, nranks: 2 })
        ));
    }

    #[test]
    fn three_component_store_assembles_correctly() {
        let store = CheckpointStore::new(2, 2, 3);
        store.commit(1, 0, &[1], &[1.0, 2.0, 3.0]).unwrap();
        store.commit(1, 1, &[0], &[7.0, 8.0, 9.0]).unwrap();
        let (iter, w) = store.latest_consistent().expect("complete");
        assert_eq!(iter, 1);
        assert_eq!(w, vec![7.0, 8.0, 9.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn durable_store_survives_reopen_bit_identically() {
        let dir = tmpdir("reopen");
        let vals: Vec<f64> = vec![1.5e-300, -0.0, std::f64::consts::PI, 4.0];
        {
            let store = CheckpointStore::open_durable(&dir, 2, 2, 4, None).unwrap();
            store.commit(3, 0, &[0], &vals[..4].to_vec()).unwrap();
            store.commit(3, 1, &[1], &[9.0; 4]).unwrap();
            assert_eq!(store.stats().appends, 2);
        } // process dies here
        let store = CheckpointStore::open_durable(&dir, 2, 2, 4, None).unwrap();
        assert_eq!(store.stats().recovered, 2);
        assert!(!store.stats().torn_tail);
        let (iter, q) = store.latest_consistent().expect("replayed to consistency");
        assert_eq!(iter, 3);
        assert_eq!(
            q[..4].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "restart must be bitwise, not approximately, identical"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_reopen_refuses_wrong_dimensions() {
        let dir = tmpdir("dims");
        {
            let _ = CheckpointStore::open_durable(&dir, 2, 8, 4, None).unwrap();
        }
        let err = match CheckpointStore::open_durable(&dir, 2, 9, 4, None) {
            Ok(_) => panic!("reopen with wrong ncells must fail"),
            Err(e) => e,
        };
        assert!(matches!(
            err,
            CheckpointError::DimensionMismatch { field: "ncells", stored: 8, requested: 9 }
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_truncate_marker_survives_reopen() {
        let dir = tmpdir("trunc");
        {
            let store = CheckpointStore::open_durable(&dir, 1, 1, 4, None).unwrap();
            store.commit(2, 0, &[0], &[1.0; 4]).unwrap();
            store.commit(6, 0, &[0], &[2.0; 4]).unwrap();
            store.truncate_after(4);
        }
        let store = CheckpointStore::open_durable(&dir, 1, 1, 4, None).unwrap();
        let (iter, _) = store.latest_consistent().expect("iter 2 kept");
        assert_eq!(iter, 2, "truncate marker replayed: iter 6 stays dropped");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn enospc_degrades_to_in_memory_only() {
        let dir = tmpdir("enospc");
        // The fault kind at op N is a pure function of (seed, N): probe a
        // full-rate plan for the first ENOSPC at op >= 1 (op 0 is the meta
        // record appended by open_durable), then build the real plan to
        // fire exactly once, exactly there.
        let probe = StoreFaultPlan::new(5, 10_000);
        let mut enospc_op = None;
        for op in 0..300u64 {
            let d = probe.decide(64);
            if op >= 1 && d.kind == op2_store::FaultKind::Enospc {
                enospc_op = Some(op);
                break;
            }
        }
        let enospc_op = enospc_op.expect("no ENOSPC found at full rate");
        let plan = StoreFaultPlan::new(5, 10_000).after_op(enospc_op).max_faults(1);
        let store = CheckpointStore::open_durable(&dir, 1, 1, 4, Some(plan)).unwrap();
        for iter in 0..(enospc_op + 2) as usize {
            store.commit(iter, 0, &[0], &[iter as f64; 4]).unwrap();
        }
        assert_eq!(store.stats().enospc_skips, 1, "the injected ENOSPC fired");
        // In-process view unaffected: the skipped commit is still visible.
        let (iter, _) = store.latest_consistent().expect("in-memory intact");
        assert_eq!(iter, (enospc_op + 1) as usize);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
