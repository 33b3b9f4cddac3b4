//! Property tests for [`MeshPermutation`]: a permutation and its inverse
//! must cancel exactly — on element ids, on row-major data of any dim, on
//! relabelled map values, and on layout-declared dats — and the RCM
//! ordering must itself be a deterministic permutation. These are the
//! algebraic facts the renumbering pass (mesh construction, `op2-dist`
//! ownership, result unpermutation) silently relies on.

use op2_core::renumber::{bandwidth, invert_permutation, rcm_order};
use op2_core::{Dat, Layout, MeshPermutation, Set};
use proptest::prelude::*;

/// A random permutation of `0..n` from proptest-chosen Fisher-Yates swaps.
fn perm_strategy(max: usize) -> impl Strategy<Value = Vec<u32>> {
    (1..max).prop_flat_map(|n| {
        prop::collection::vec(any::<prop::sample::Index>(), n..n + 1).prop_map(move |picks| {
            let mut perm: Vec<u32> = (0..n as u32).collect();
            for (i, pick) in picks.iter().enumerate().rev() {
                perm.swap(i, pick.index(i + 1));
            }
            perm
        })
    })
}

/// A random undirected graph on `1..max` vertices (sorted, deduped
/// neighbour lists — the shape `rcm_order` consumes).
fn graph_strategy(max: usize) -> impl Strategy<Value = Vec<Vec<u32>>> {
    (1..max).prop_flat_map(|n| {
        prop::collection::vec((any::<prop::sample::Index>(), any::<prop::sample::Index>()), 0..3 * n)
            .prop_map(move |pairs| {
                let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
                for (a, b) in pairs {
                    let (a, b) = (a.index(n), b.index(n));
                    if a != b {
                        adj[a].push(b as u32);
                        adj[b].push(a as u32);
                    }
                }
                for l in &mut adj {
                    l.sort_unstable();
                    l.dedup();
                }
                adj
            })
    })
}

proptest! {
    /// perm ∘ inverse = identity, elementwise and as double inversion.
    #[test]
    fn inverse_cancels(perm in perm_strategy(80)) {
        let p = MeshPermutation::from_perm(perm.clone());
        for i in 0..p.len() {
            prop_assert_eq!(p.new_of(p.old_of(i)), i);
            prop_assert_eq!(p.old_of(p.new_of(i)), i);
        }
        prop_assert_eq!(invert_permutation(&invert_permutation(&perm)), perm);
    }

    /// Row data of any dim survives a permute → unpermute round trip (and
    /// the reverse), for every dim the mesh tables actually use.
    #[test]
    fn rows_round_trip(perm in perm_strategy(60), dim in 1usize..5) {
        let p = MeshPermutation::from_perm(perm);
        let rows: Vec<u64> = (0..p.len() * dim).map(|i| i as u64 * 31 + 7).collect();
        prop_assert_eq!(p.unpermute_rows(&p.permute_rows(&rows, dim), dim), rows.clone());
        prop_assert_eq!(p.permute_rows(&p.unpermute_rows(&rows, dim), dim), rows);
    }

    /// The map/dat round trip of the renumbering pass: permute a dat into
    /// the new ordering and relabel map values pointing at it — every
    /// relabelled reference then resolves to the same payload as before.
    #[test]
    fn map_and_dat_stay_consistent(
        perm in perm_strategy(60),
        targets in prop::collection::vec(any::<prop::sample::Index>(), 1..120),
        layout_pick in 0usize..2,
    ) {
        let p = MeshPermutation::from_perm(perm);
        let n = p.len();
        let layout = [Layout::Aos, Layout::Soa][layout_pick];
        let set = Set::new("cells", n);
        let dim = 3;
        let payload: Vec<f64> = (0..n * dim).map(|i| i as f64 + 0.5).collect();
        let dat = Dat::with_layout("d", &set, dim, layout, payload.clone());
        // Permute the dat in place (layout-aware) and relabel the map values.
        p.permute_dat(&dat);
        let table: Vec<u32> = targets.iter().map(|t| t.index(n) as u32).collect();
        let relabelled = p.relabel(&table);
        let moved = dat.to_aos_vec();
        for (&old_t, &new_t) in table.iter().zip(&relabelled) {
            let (o, m) = (old_t as usize * dim, new_t as usize * dim);
            prop_assert_eq!(&payload[o..o + dim], &moved[m..m + dim]);
        }
    }

    /// RCM always yields a permutation, is deterministic, and never loses a
    /// vertex even on disconnected random graphs.
    #[test]
    fn rcm_is_deterministic_permutation(adj in graph_strategy(60)) {
        let order = rcm_order(&adj);
        prop_assert_eq!(order.clone(), rcm_order(&adj));
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..adj.len() as u32).collect::<Vec<u32>>());
        // Bandwidth is well-defined under the ordering (sanity: bounded by n).
        prop_assert!(bandwidth(&adj, &order) < adj.len().max(1));
    }
}
