//! Property tests for [`MeshPermutation`]: a permutation and its inverse
//! must cancel exactly — on element ids, on row-major data of any dim, on
//! relabelled map values, and on layout-declared dats — and the RCM
//! ordering must itself be a deterministic permutation. These are the
//! algebraic facts the renumbering pass (mesh construction, `op2-dist`
//! ownership, result unpermutation) silently relies on.
//!
//! The flat (CSR) graph, the Cuthill-McKee sweeps and the counting sort are
//! checked here against reference implementations kept only for that: one
//! neighbour `Vec` per vertex, a `VecDeque` BFS with a fresh distance array
//! per search, and sorts of packed keys.

use std::collections::VecDeque;

use op2_core::renumber::{
    adjacency_from_pairs, bandwidth, invert_permutation, order_by_key, rcm_order,
};
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

/// A random pair table over `1..max` vertices, as a 2-ary map holds it:
/// `(n, pairs)`. Up to `3n` random pairs: few enough at the low end that
/// some vertices stay isolated and the graph falls apart into several
/// components, enough at the high end that many rows are longer than four;
/// then a self-pair and a repeat (half the time reversed) of one pair, so
/// every table has both.
fn pairs_strategy(max: usize) -> impl Strategy<Value = (usize, Vec<u32>)> {
    (1..max).prop_flat_map(|n| {
        let pair = (any::<prop::sample::Index>(), any::<prop::sample::Index>());
        (
            prop::collection::vec(pair, 0..3 * n),
            any::<prop::sample::Index>(),
            any::<bool>(),
        )
            .prop_map(move |(picks, extra, reversed)| {
                let mut pairs: Vec<u32> = picks
                    .iter()
                    .flat_map(|(a, b)| [a.index(n) as u32, b.index(n) as u32])
                    .collect();
                let v = extra.index(n) as u32;
                pairs.extend([v, v]);
                let k = extra.index(pairs.len() / 2);
                let (a, b) = (pairs[2 * k], pairs[2 * k + 1]);
                pairs.extend(if reversed { [b, a] } else { [a, b] });
                (n, pairs)
            })
    })
}

/// Reference adjacency: one sorted, deduplicated neighbour list per vertex.
fn oracle_adjacency(n: usize, pairs: &[u32]) -> Vec<Vec<u32>> {
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for pair in pairs.chunks_exact(2) {
        let (a, b) = (pair[0], pair[1]);
        if a != b {
            adj[a as usize].push(b);
            adj[b as usize].push(a);
        }
    }
    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }
    adj
}

/// Reference BFS from `start`: the eccentricity and the minimum-(degree,
/// id) vertex of the deepest level.
fn oracle_eccentricity(adj: &[Vec<u32>], start: usize) -> (usize, usize) {
    let mut dist = vec![u32::MAX; adj.len()];
    dist[start] = 0;
    let mut queue = VecDeque::from([start as u32]);
    let (mut ecc, mut far) = (0usize, start);
    while let Some(v) = queue.pop_front() {
        let d = dist[v as usize] + 1;
        for &u in &adj[v as usize] {
            if dist[u as usize] == u32::MAX {
                dist[u as usize] = d;
                queue.push_back(u);
                let du = d as usize;
                let better = du > ecc
                    || (du == ecc && (adj[u as usize].len(), u as usize) < (adj[far].len(), far));
                if better {
                    ecc = du;
                    far = u as usize;
                }
            }
        }
    }
    (ecc, far)
}

/// Reference reverse Cuthill-McKee: seeds by a packed-key sort, a George–Liu
/// double sweep per component, then a `VecDeque` Cuthill-McKee BFS.
fn oracle_rcm(adj: &[Vec<u32>]) -> Vec<u32> {
    let n = adj.len();
    let mut visited = vec![false; n];
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let degree = |v: usize| adj[v].len();
    let mut seeds: Vec<u64> = (0..n)
        .map(|v| ((degree(v) as u64) << 32) | v as u64)
        .collect();
    seeds.sort_unstable();
    let mut queue = VecDeque::new();
    for seed in seeds.into_iter().map(|k| k as u32 as usize) {
        if visited[seed] {
            continue;
        }
        let (mut ecc, mut start) = oracle_eccentricity(adj, seed);
        loop {
            let (ecc_v, far) = oracle_eccentricity(adj, start);
            if ecc_v <= ecc {
                break;
            }
            (ecc, start) = (ecc_v, far);
        }
        visited[start] = true;
        queue.push_back(start as u32);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let mut next: Vec<u32> = adj[v as usize]
                .iter()
                .copied()
                .filter(|&u| !visited[u as usize])
                .collect();
            next.sort_unstable_by_key(|&u| (degree(u as usize), u));
            for u in next {
                visited[u as usize] = true;
                queue.push_back(u);
            }
        }
    }
    order.reverse();
    order
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
    /// the reverse), for every dim the mesh tables use and the wider ones.
    #[test]
    fn rows_round_trip(perm in perm_strategy(60), dim in 1usize..7) {
        let p = MeshPermutation::from_perm(perm);
        let rows: Vec<u64> = (0..p.len() * dim).map(|i| i as u64 * 31 + 7).collect();
        prop_assert_eq!(p.unpermute_rows(&p.permute_rows(&rows, dim), dim), rows.clone());
        prop_assert_eq!(p.permute_rows(&p.unpermute_rows(&rows, dim), dim), rows);
    }

    /// A map table renumbered on both sides in one pass equals its rows
    /// permuted, then its values relabelled, at every width.
    #[test]
    fn permute_relabel_is_permute_then_relabel(
        rows in perm_strategy(60),
        targets in perm_strategy(60),
        dim in 1usize..6,
        picks in prop::collection::vec(any::<prop::sample::Index>(), 300..301),
    ) {
        let (rows, targets) = (MeshPermutation::from_perm(rows), MeshPermutation::from_perm(targets));
        let table: Vec<u32> = picks[..rows.len() * dim].iter().map(|p| p.index(targets.len()) as u32).collect();
        prop_assert_eq!(
            rows.permute_relabel(&table, dim, &targets),
            targets.relabel(&rows.permute_rows(&table, dim))
        );
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
    fn rcm_is_deterministic_permutation(table in pairs_strategy(60)) {
        let (n, pairs) = table;
        let adj = adjacency_from_pairs(n, &pairs);
        let order = rcm_order(&adj);
        prop_assert_eq!(order.clone(), rcm_order(&adj));
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..adj.len() as u32).collect::<Vec<u32>>());
        // Bandwidth is well-defined under the ordering (sanity: bounded by n).
        prop_assert!(bandwidth(&adj, &order) < adj.len().max(1));
    }

    /// The flat graph's rows are the reference's sorted, deduplicated
    /// neighbour lists: self-pairs dropped, repeats merged, isolated
    /// vertices empty.
    #[test]
    fn csr_rows_equal_the_reference_lists(table in pairs_strategy(60)) {
        let (n, pairs) = table;
        let adj = adjacency_from_pairs(n, &pairs);
        let oracle = oracle_adjacency(n, &pairs);
        prop_assert_eq!(adj.len(), n);
        for (v, list) in oracle.iter().enumerate() {
            prop_assert_eq!(adj.row(v), list.as_slice(), "row {}", v);
            prop_assert_eq!(adj.degree(v), list.len());
        }
    }

    /// The Cuthill-McKee sweeps give the reference's order, element for
    /// element, on graphs of several components.
    #[test]
    fn rcm_equals_the_reference_order(table in pairs_strategy(120)) {
        let (n, pairs) = table;
        let adj = adjacency_from_pairs(n, &pairs);
        prop_assert_eq!(rcm_order(&adj), oracle_rcm(&oracle_adjacency(n, &pairs)));
    }

    /// The counting sort orders ids exactly as a sort of packed
    /// `key << 32 | id` keys does.
    #[test]
    fn counting_sort_equals_the_packed_key_sort(
        keys in prop::collection::vec(0u32..40, 0..200),
        spread in 0u32..3,
    ) {
        // Small keys make long runs of equal keys; spread some out wide.
        let keys: Vec<u32> = keys.iter().map(|&k| k << (5 * spread)).collect();
        let mut packed: Vec<u64> =
            keys.iter().enumerate().map(|(id, &k)| (u64::from(k) << 32) | id as u64).collect();
        packed.sort_unstable();
        let expect: Vec<u32> = packed.iter().map(|&p| p as u32).collect();
        prop_assert_eq!(order_by_key(&keys), expect);
    }
}
