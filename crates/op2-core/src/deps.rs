//! The one dependency rule: what orders two loops (§III-B).
//!
//! A loop that reads a dat follows the dat's last writer (read after write).
//! A loop that writes it follows the last writer and every reader since that
//! write (write after write, write after read). `OP_RW` and `OP_INC` both read
//! and write, so two increments of one dat keep their program order and their
//! sum its bits.
//!
//! [`Deps`] holds that state as a value: [`Deps::record`] takes one loop's
//! reads and writes and returns its edges. The dataflow executor, `det`'s
//! dataflow-order checker, the step interpreter's async waits, the DOT
//! graph and the machine model's task graphs all take loop order from it.

use std::collections::HashMap;
use std::hash::Hash;

/// One dependency of a recorded loop: it follows `producer` because of `dat`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge<K, P> {
    /// The dat that orders the two.
    pub dat: K,
    /// The earlier loop, or readers merged by [`Deps::merge_readers`].
    pub producer: P,
    /// When `producer` was recorded: one value per producer, ascending in
    /// program order.
    version: u64,
}

/// Per dat: the last writer and the readers since that write, each with its
/// version.
struct Dat<P> {
    writer: Option<(u64, P)>,
    readers: Vec<(u64, P)>,
}

/// The dat-version table: dats keyed by `K`, loops named by `P`.
pub struct Deps<K, P> {
    dats: HashMap<K, Dat<P>>,
    next: u64,
    edges: Vec<Edge<K, P>>,
}

impl<K, P> Default for Deps<K, P> {
    fn default() -> Self {
        Deps { dats: HashMap::new(), next: 0, edges: Vec::new() }
    }
}

impl<K: Clone + Eq + Hash + Ord, P: Clone> Deps<K, P> {
    /// Number of dats any recorded loop touched.
    pub fn dats(&self) -> usize {
        self.dats.len()
    }

    /// The edges of a loop reading `reads` and writing `writes` (a dat in
    /// both is written), then the loop itself recorded as `producer`.
    ///
    /// One edge per (producer, dat), sorted by version and then dat, so a
    /// producer's edges are adjacent ([`by_producer`]). The slice lives in
    /// the table and is overwritten by the next call.
    pub fn record(&mut self, reads: &[K], writes: &[K], producer: P) -> &[Edge<K, P>] {
        let edges = &mut self.edges;
        edges.clear();
        for dat in reads.iter().chain(writes) {
            let Some(d) = self.dats.get(dat) else { continue };
            let waits = if writes.contains(dat) { &d.readers[..] } else { &[] };
            for (version, producer) in d.writer.iter().chain(waits) {
                let (dat, producer, version) = (dat.clone(), producer.clone(), *version);
                edges.push(Edge { dat, producer, version });
            }
        }
        edges.sort_unstable_by(|a, b| (a.version, &a.dat).cmp(&(b.version, &b.dat)));
        edges.dedup_by(|a, b| (a.version, &a.dat) == (b.version, &b.dat));

        let version = self.next;
        self.next += 1;
        for dat in reads.iter().chain(writes) {
            let d = self.dats.entry(dat.clone()).or_insert(Dat { writer: None, readers: Vec::new() });
            if writes.contains(dat) {
                d.writer = Some((version, producer.clone()));
                d.readers.clear();
            } else {
                d.readers.push((version, producer.clone()));
            }
        }
        &self.edges
    }

    /// Replace the readers of `dat` since its last write by the one producer
    /// `merge` makes of them, once there are more than `max` — so a dat read
    /// every iteration and never written keeps a bounded list.
    pub fn merge_readers(&mut self, dat: &K, max: usize, merge: impl FnOnce(Vec<P>) -> P) {
        let Some(d) = self.dats.get_mut(dat) else { return };
        if d.readers.len() > max {
            let merged = merge(d.readers.drain(..).map(|(_, p)| p).collect());
            d.readers.push((self.next, merged));
            self.next += 1;
        }
    }
}

/// [`Deps::record`]'s edges grouped by producer, one slice each, oldest first.
pub fn by_producer<K, P>(edges: &[Edge<K, P>]) -> impl Iterator<Item = &[Edge<K, P>]> {
    edges.chunk_by(|a, b| a.version == b.version)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `OP_READ`, `OP_WRITE`, `OP_RW`, `OP_INC` as (reads, writes).
    const MODES: [(bool, bool); 4] = [(true, false), (false, true), (true, true), (true, true)];

    /// A loop's (reads, writes) from (dat, mode) arguments.
    fn rw(args: &[(u64, usize)]) -> (Vec<u64>, Vec<u64>) {
        let pick = |side: fn((bool, bool)) -> bool| {
            let mut v: Vec<u64> = args.iter().filter(|a| side(MODES[a.1])).map(|a| a.0).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        (pick(|m| m.0), pick(|m| m.1))
    }

    /// `reach[i][j]`: `j` follows `i` through the `edges` matrix.
    fn closure(mut reach: Vec<Vec<bool>>) -> Vec<Vec<bool>> {
        let n = reach.len();
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    reach[i][j] |= reach[i][k] && reach[k][j];
                }
            }
        }
        reach
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The table orders exactly what the brute-force pairwise rule does:
        /// loop `j` follows loop `i` iff they conflict on a dat that no loop
        /// between them writes. Same transitive closure, and no edge the
        /// reference lacks.
        #[test]
        fn table_matches_pairwise_reference(
            program in prop::collection::vec(prop::collection::vec((0u64..5, 0usize..4), 0..4), 1..14),
        ) {
            let loops: Vec<(Vec<u64>, Vec<u64>)> = program.iter().map(|a| rw(a)).collect();
            let n = loops.len();
            let mut table = Deps::default();
            let mut derived = vec![vec![false; n]; n];
            for (j, (reads, writes)) in loops.iter().enumerate() {
                let edges = table.record(reads, writes, j).to_vec();
                let mut pairs: Vec<(usize, u64)> = edges.iter().map(|e| (e.producer, e.dat)).collect();
                pairs.dedup();
                prop_assert_eq!(pairs.len(), edges.len());
                let producers: Vec<usize> = by_producer(&edges).map(|g| g[0].producer).collect();
                prop_assert!(producers.windows(2).all(|w| w[0] < w[1]), "{producers:?}");
                for e in &edges {
                    derived[e.producer][j] = true;
                }
            }
            let mut reference = vec![vec![false; n]; n];
            for j in 0..n {
                for i in 0..j {
                    let (ri, wi) = &loops[i];
                    let (rj, wj) = &loops[j];
                    reference[i][j] = (0..5u64).any(|d| {
                        let clash = (wi.contains(&d) && (rj.contains(&d) || wj.contains(&d)))
                            || (ri.contains(&d) && wj.contains(&d));
                        clash && !loops[i + 1..j].iter().any(|(_, w)| w.contains(&d))
                    });
                }
            }
            for i in 0..n {
                for j in 0..n {
                    prop_assert!(!derived[i][j] || reference[i][j], "edge {i} -> {j} is not in the rule");
                }
            }
            prop_assert_eq!(closure(derived), closure(reference));
        }
    }

    /// Two increments of one dat stay in program order, so their sum keeps
    /// its bits; a reader between them orders both ways.
    #[test]
    fn inc_after_inc_is_ordered() {
        let mut table = Deps::default();
        assert!(table.record(&[7], &[7], "inc0").is_empty());
        let edges = table.record(&[7], &[7], "inc1").to_vec();
        assert_eq!(edges.iter().map(|e| (e.dat, e.producer)).collect::<Vec<_>>(), [(7, "inc0")]);
        let edges = table.record(&[7], &[], "read").to_vec();
        assert_eq!(edges.iter().map(|e| e.producer).collect::<Vec<_>>(), ["inc1"]);
        let edges = table.record(&[7], &[7], "inc2").to_vec();
        assert_eq!(edges.iter().map(|e| e.producer).collect::<Vec<_>>(), ["inc1", "read"]);
    }

    /// A producer reached through several dats gives one edge per dat, kept
    /// adjacent; a loop reading and writing a dat waits on its writer once.
    #[test]
    fn edges_group_by_producer() {
        let mut table = Deps::default();
        table.record(&[], &[1, 2], 'a');
        table.record(&[3], &[], 'b');
        let edges = table.record(&[1, 2, 3], &[2, 3], 'c').to_vec();
        let pairs: Vec<(char, u64)> = edges.iter().map(|e| (e.producer, e.dat)).collect();
        assert_eq!(pairs, [('a', 1), ('a', 2), ('b', 3)]);
        let groups: Vec<usize> = by_producer(&edges).map(<[_]>::len).collect();
        assert_eq!(groups, [2, 1]);
        assert_eq!(table.dats(), 3);
    }

    /// Merged readers are one producer, newer than every loop recorded so
    /// far; the next writer waits on it alone.
    #[test]
    fn merged_readers_are_one_producer() {
        let mut table = Deps::default();
        table.record(&[], &[0], vec![0]);
        for r in 1..=4 {
            table.record(&[0], &[], vec![r]);
            table.merge_readers(&0, 3, |readers| readers.concat());
        }
        let edges = table.record(&[], &[0], vec![5]).to_vec();
        let producers: Vec<Vec<i32>> = by_producer(&edges).map(|g| g[0].producer.clone()).collect();
        assert_eq!(producers, [vec![0], vec![1, 2, 3, 4]]);
    }
}
