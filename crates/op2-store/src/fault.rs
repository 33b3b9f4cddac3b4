//! Seeded deterministic storage-fault injection.
//!
//! The same philosophy as the fabric's `FaultPlan` and the scheduler's
//! `DET_SEED`: whether a given write tears, shorts, flips a bit or hits
//! `ENOSPC` is a pure function of `(seed, op index)`, so any failing sweep
//! case replays from a single environment variable, `STORE_FAULT_SEED`.
//! The plan is consulted by [`crate::wal::Wal`] at append time and by
//! [`crate::atomic::write_sealed`] at commit time; a plan with rate 0 (the
//! default) is free.

use parking_lot::Mutex;
use std::sync::Arc;

use crate::hash::xxhash64;

/// What happens to a particular durable write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The write lands intact.
    None,
    /// Only a prefix of the bytes reaches the disk (power cut mid-write).
    Torn,
    /// Only the record header reaches the disk; the payload is lost.
    Short,
    /// One bit of the written bytes is flipped (media / firmware error).
    BitFlip,
    /// The write fails with `ENOSPC`; nothing reaches the disk.
    Enospc,
}

/// Counters for what the plan actually injected, for test assertions and
/// report lines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreFaultReport {
    /// Writes that went through untouched.
    pub clean: u64,
    /// Torn writes injected.
    pub torn: u64,
    /// Short writes injected.
    pub short: u64,
    /// Bit flips injected.
    pub bit_flips: u64,
    /// `ENOSPC` failures injected.
    pub enospc: u64,
}

impl StoreFaultReport {
    /// Total faults injected (everything but clean writes).
    pub fn injected(&self) -> u64 {
        self.torn + self.short + self.bit_flips + self.enospc
    }
}

struct PlanState {
    next_op: u64,
    report: StoreFaultReport,
}

/// A deterministic schedule of storage faults.
///
/// Cloning shares the op counter, so a plan threaded through several files
/// of one store injects a single global sequence — the crash point is a
/// property of the run, not of one file.
#[derive(Clone)]
pub struct StoreFaultPlan {
    seed: u64,
    /// Faults per 10_000 ops (0 = never, 10_000 = always).
    rate: u32,
    /// Inject nothing before this op index (lets a test build a valid
    /// prefix, then corrupt the tail).
    after_op: u64,
    /// Stop the whole plan after injecting this many faults (0 = no cap).
    max_faults: u64,
    state: Arc<Mutex<PlanState>>,
}

impl std::fmt::Debug for StoreFaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreFaultPlan")
            .field("seed", &self.seed)
            .field("rate", &self.rate)
            .field("after_op", &self.after_op)
            .field("max_faults", &self.max_faults)
            .finish()
    }
}

impl StoreFaultPlan {
    /// A plan that injects faults at `rate` per 10_000 durable writes,
    /// decided by `seed`.
    pub fn new(seed: u64, rate: u32) -> StoreFaultPlan {
        StoreFaultPlan {
            seed,
            rate: rate.min(10_000),
            after_op: 0,
            max_faults: 0,
            state: Arc::new(Mutex::new(PlanState {
                next_op: 0,
                report: StoreFaultReport::default(),
            })),
        }
    }

    /// A plan that never injects (rate 0).
    pub fn disabled() -> StoreFaultPlan {
        StoreFaultPlan::new(0, 0)
    }

    /// Skip injection for the first `n` ops.
    pub fn after_op(mut self, n: u64) -> StoreFaultPlan {
        self.after_op = n;
        self
    }

    /// Cap the total number of injected faults.
    pub fn max_faults(mut self, n: u64) -> StoreFaultPlan {
        self.max_faults = n;
        self
    }

    /// The seed this plan replays from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Injection counters so far.
    pub fn report(&self) -> StoreFaultReport {
        self.state.lock().report
    }

    /// Decide the fate of the next durable write of `len` bytes.
    ///
    /// Returns the fault kind plus, for [`FaultKind::Torn`], how many bytes
    /// survive, and for [`FaultKind::BitFlip`], which bit index flips. The
    /// decision consumes one op index whether or not a fault fires, so the
    /// schedule is independent of earlier outcomes.
    pub fn decide(&self, len: usize) -> Decision {
        let mut st = self.state.lock();
        let op = st.next_op;
        st.next_op += 1;

        if self.rate == 0
            || op < self.after_op
            || (self.max_faults > 0 && st.report.injected() >= self.max_faults)
        {
            st.report.clean += 1;
            return Decision::clean();
        }

        // Two independent draws from the (seed, op) point: one for
        // whether a fault fires, one for which kind / parameter.
        let fire = xxhash64(&op.to_le_bytes(), self.seed ^ 0x5f_au64);
        if (fire % 10_000) >= u64::from(self.rate) {
            st.report.clean += 1;
            return Decision::clean();
        }
        let pick = xxhash64(&op.to_le_bytes(), self.seed ^ 0xc3_1du64);
        let decision = match pick % 4 {
            0 => {
                st.report.torn += 1;
                // Keep a strict prefix: at least 1 byte short, at least 0 kept.
                let keep = if len <= 1 { 0 } else { (pick >> 3) as usize % len };
                Decision {
                    kind: FaultKind::Torn,
                    keep_bytes: keep,
                    flip_bit: 0,
                }
            }
            1 => {
                st.report.short += 1;
                Decision {
                    kind: FaultKind::Short,
                    keep_bytes: 0,
                    flip_bit: 0,
                }
            }
            2 => {
                st.report.bit_flips += 1;
                let bits = (len.max(1) * 8) as u64;
                Decision {
                    kind: FaultKind::BitFlip,
                    keep_bytes: len,
                    flip_bit: ((pick >> 3) % bits) as usize,
                }
            }
            _ => {
                st.report.enospc += 1;
                Decision {
                    kind: FaultKind::Enospc,
                    keep_bytes: 0,
                    flip_bit: 0,
                }
            }
        };
        decision
    }
}

/// Outcome of one [`StoreFaultPlan::decide`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// The fault (or [`FaultKind::None`]).
    pub kind: FaultKind,
    /// For [`FaultKind::Torn`]: bytes that survive. Otherwise the full length.
    pub keep_bytes: usize,
    /// For [`FaultKind::BitFlip`]: bit index (into the written bytes) to flip.
    pub flip_bit: usize,
}

impl Decision {
    fn clean() -> Decision {
        Decision {
            kind: FaultKind::None,
            keep_bytes: usize::MAX,
            flip_bit: 0,
        }
    }
}

/// Apply a decision to the bytes about to be written. Returns the bytes
/// that should actually reach the file, or `None` for [`FaultKind::Enospc`]
/// (the caller must surface `StoreError::NoSpace` without writing).
pub(crate) fn mangle(decision: Decision, header_len: usize, bytes: &[u8]) -> Option<Vec<u8>> {
    match decision.kind {
        FaultKind::None => Some(bytes.to_vec()),
        FaultKind::Torn => Some(bytes[..decision.keep_bytes.min(bytes.len())].to_vec()),
        FaultKind::Short => Some(bytes[..header_len.min(bytes.len())].to_vec()),
        FaultKind::BitFlip => {
            let mut out = bytes.to_vec();
            if !out.is_empty() {
                let bit = decision.flip_bit % (out.len() * 8);
                out[bit / 8] ^= 1 << (bit % 8);
            }
            Some(out)
        }
        FaultKind::Enospc => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = StoreFaultPlan::new(42, 5_000);
        let b = StoreFaultPlan::new(42, 5_000);
        for len in [8usize, 64, 1024, 3, 512, 17] {
            assert_eq!(a.decide(len), b.decide(len));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let a = StoreFaultPlan::new(1, 10_000);
        let b = StoreFaultPlan::new(2, 10_000);
        let mut same = 0;
        for _ in 0..64 {
            if a.decide(256) == b.decide(256) {
                same += 1;
            }
        }
        assert!(same < 64, "seeds 1 and 2 produced identical schedules");
    }

    #[test]
    fn rate_zero_never_fires_and_counts_clean() {
        let p = StoreFaultPlan::disabled();
        for _ in 0..100 {
            assert_eq!(p.decide(128).kind, FaultKind::None);
        }
        assert_eq!(p.report().clean, 100);
        assert_eq!(p.report().injected(), 0);
    }

    #[test]
    fn after_op_and_max_faults_bound_the_schedule() {
        let p = StoreFaultPlan::new(9, 10_000).after_op(3).max_faults(2);
        let kinds: Vec<_> = (0..10).map(|_| p.decide(64).kind).collect();
        assert!(kinds[..3].iter().all(|k| *k == FaultKind::None));
        assert_eq!(p.report().injected(), 2);
        assert!(kinds[5..].iter().all(|k| *k == FaultKind::None));
    }

    #[test]
    fn all_kinds_reachable_at_full_rate() {
        let p = StoreFaultPlan::new(7, 10_000);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..256 {
            seen.insert(format!("{:?}", p.decide(128).kind));
        }
        for kind in ["Torn", "Short", "BitFlip", "Enospc"] {
            assert!(seen.contains(kind), "{kind} never injected in 256 ops");
        }
    }

    #[test]
    fn mangle_shapes() {
        let bytes = [0xAAu8; 32];
        let torn = Decision { kind: FaultKind::Torn, keep_bytes: 10, flip_bit: 0 };
        assert_eq!(mangle(torn, 16, &bytes).unwrap().len(), 10);
        let short = Decision { kind: FaultKind::Short, keep_bytes: 0, flip_bit: 0 };
        assert_eq!(mangle(short, 16, &bytes).unwrap().len(), 16);
        let flip = Decision { kind: FaultKind::BitFlip, keep_bytes: 32, flip_bit: 13 };
        let flipped = mangle(flip, 16, &bytes).unwrap();
        assert_eq!(flipped.len(), 32);
        let diff: u32 = flipped
            .iter()
            .zip(bytes.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1, "exactly one bit flipped");
        let no = Decision { kind: FaultKind::Enospc, keep_bytes: 0, flip_bit: 0 };
        assert!(mangle(no, 16, &bytes).is_none());
    }

    #[test]
    fn cloned_plan_shares_the_op_counter() {
        let p = StoreFaultPlan::new(3, 10_000);
        let q = p.clone();
        let _ = p.decide(64);
        let _ = q.decide(64);
        assert_eq!(p.report(), q.report());
        assert_eq!(p.report().clean + p.report().injected(), 2);
    }
}
