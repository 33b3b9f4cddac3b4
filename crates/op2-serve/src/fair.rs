//! Weighted fair-share scheduling (start-time fair queueing).
//!
//! The service multiplexes many tenants' jobs onto one pool. A plain FIFO
//! lets a chatty tenant starve everyone else; strict priorities let a
//! high-priority tenant starve low ones. Start-time fair queueing gives
//! every tenant a **weighted fraction of throughput** instead: each job is
//! stamped with a *virtual finish time*
//!
//! ```text
//! vstart  = max(global_vtime, tenant_last_vfinish)
//! vfinish = vstart + cost / weight
//! ```
//!
//! and the dispatcher always runs the queued job with the smallest
//! `vfinish`. A tenant with weight 2 accumulates virtual time half as fast
//! as a weight-1 tenant, so it gets twice the slots; a tenant that was idle
//! re-enters at the current virtual time rather than with banked credit.
//!
//! All arithmetic is integer (`cost << 16 / weight` in u128 virtual-time
//! units) and ties break on a monotonic submission sequence number, so the
//! dispatch order is a **pure function of the submission sequence** — the
//! deterministic stress tests rely on this.

use std::collections::{BTreeMap, HashMap};

/// Virtual-time scale: one cost unit at weight 1 advances virtual time by
/// `1 << VT_SHIFT`, leaving 16 fractional bits for weight division.
const VT_SHIFT: u32 = 16;

struct Entry<T> {
    vstart: u128,
    item: T,
}

/// A weighted fair queue of `T` (see module docs).
pub struct FairQueue<T> {
    /// Global virtual time: the `vstart` of the last dispatched job.
    vtime: u128,
    /// Monotonic tie-breaker.
    seq: u64,
    /// Last virtual finish per tenant.
    vlast: HashMap<String, u128>,
    /// Pending jobs keyed by `(vfinish, seq)`.
    queue: BTreeMap<(u128, u64), Entry<T>>,
}

impl<T> Default for FairQueue<T> {
    fn default() -> Self {
        FairQueue {
            vtime: 0,
            seq: 0,
            vlast: HashMap::new(),
            queue: BTreeMap::new(),
        }
    }
}

impl<T> FairQueue<T> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueue `item` for `tenant` with the given effective `weight`
    /// (tenant weight × priority factor, clamped to ≥ 1) and `cost` units.
    pub fn push(&mut self, tenant: &str, weight: u64, cost: u64, item: T) {
        let weight = weight.max(1) as u128;
        let cost = cost.max(1) as u128;
        let vlast = self.vlast.get(tenant).copied().unwrap_or(0);
        let vstart = self.vtime.max(vlast);
        let vfinish = vstart + ((cost << VT_SHIFT) / weight);
        self.vlast.insert(tenant.to_owned(), vfinish);
        let seq = self.seq;
        self.seq += 1;
        self.queue.insert((vfinish, seq), Entry { vstart, item });
    }

    /// Dispatch the job with the smallest virtual finish time (ties broken
    /// by submission order), advancing global virtual time to its start.
    pub fn pop(&mut self) -> Option<T> {
        let (_, entry) = self.queue.pop_first()?;
        self.vtime = self.vtime.max(entry.vstart);
        Some(entry.item)
    }

    /// Remove every pending job (used at hard shutdown, so each can still
    /// be resolved to a terminal outcome).
    pub fn drain(&mut self) -> Vec<T> {
        let drained = std::mem::take(&mut self.queue);
        drained.into_values().map(|e| e.item).collect()
    }

    pub fn len(&self) -> usize {
        self.queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_one_tenant() {
        let mut q = FairQueue::new();
        for i in 0..4 {
            q.push("a", 1, 1, i);
        }
        assert_eq!(q.len(), 4);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn weight_two_gets_twice_the_slots() {
        // Tenant a (weight 2) and b (weight 1) each enqueue 6 unit-cost
        // jobs up front; a's vfinish ladder climbs half as fast, so the
        // dispatch order interleaves 2:1.
        let mut q = FairQueue::new();
        for i in 0..6 {
            q.push("a", 2, 1, format!("a{i}"));
            q.push("b", 1, 1, format!("b{i}"));
        }
        let order: Vec<String> = std::iter::from_fn(|| q.pop()).collect();
        let a_in_first_nine = order[..9].iter().filter(|s| s.starts_with('a')).count();
        assert_eq!(
            a_in_first_nine, 6,
            "weight-2 tenant should finish its 6 jobs within the first 9 dispatches: {order:?}"
        );
        // And the exact order is deterministic (pure function of pushes).
        let mut q2 = FairQueue::new();
        for i in 0..6 {
            q2.push("a", 2, 1, format!("a{i}"));
            q2.push("b", 1, 1, format!("b{i}"));
        }
        let order2: Vec<String> = std::iter::from_fn(|| q2.pop()).collect();
        assert_eq!(order, order2);
    }

    #[test]
    fn idle_tenant_reenters_at_current_vtime() {
        let mut q = FairQueue::new();
        // b burns through 10 jobs while a is idle.
        for i in 0..10 {
            q.push("b", 1, 1, format!("b{i}"));
        }
        for _ in 0..10 {
            q.pop();
        }
        // a arrives late: it must not get 10 jobs' worth of banked credit —
        // the two tenants should now roughly alternate.
        for i in 0..4 {
            q.push("a", 1, 1, format!("a{i}"));
            q.push("b", 1, 1, format!("b{}", i + 10));
        }
        let order: Vec<String> = std::iter::from_fn(|| q.pop()).collect();
        let a_in_first_four = order[..4].iter().filter(|s| s.starts_with('a')).count();
        assert_eq!(a_in_first_four, 2, "late tenant must not monopolize: {order:?}");
    }

    #[test]
    fn drain_returns_everything() {
        let mut q = FairQueue::new();
        q.push("a", 1, 1, 1);
        q.push("b", 1, 1, 2);
        let drained = q.drain();
        assert_eq!(drained.len(), 2);
        assert!(q.is_empty());
    }
}
