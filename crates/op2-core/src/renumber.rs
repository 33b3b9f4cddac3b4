//! Mesh renumbering — reverse Cuthill-McKee (RCM).
//!
//! OP2 renumbers mesh elements to improve locality: consecutive elements
//! touch nearby data, which tightens block footprints, lowers the number of
//! plan colors, and improves cache behaviour. This module provides the
//! classic RCM ordering over an element adjacency graph (e.g. cells adjacent
//! through shared edges), plus helpers to build that graph from a
//! connectivity [`Map`] and to apply a permutation to mesh tables.

use crate::map::Map;

/// Build the target-set adjacency induced by a 2-ary map (e.g. `pecell`:
/// each edge makes its two cells mutually adjacent). Duplicate neighbours
/// are removed; lists are sorted.
pub fn adjacency_from_pair_map(map: &Map) -> Vec<Vec<u32>> {
    assert_eq!(map.dim(), 2, "pair adjacency needs a 2-ary map");
    adjacency_from_pairs(map.to_set().size(), map.table())
}

/// The adjacency over `n` vertices induced by a flat pair table
/// (`pairs[2i]`, `pairs[2i + 1]` mutually adjacent unless equal, as in a
/// 2-ary map's table). Duplicate neighbours are removed; lists are sorted.
pub fn adjacency_from_pairs(n: usize, pairs: &[u32]) -> Vec<Vec<u32>> {
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

/// One BFS from `start`: returns the eccentricity (deepest level) and the
/// minimum-degree vertex of the deepest level (ties broken by lowest id —
/// every choice here is deterministic).
fn bfs_eccentricity(adj: &[Vec<u32>], start: usize) -> (usize, usize) {
    let n = adj.len();
    let mut dist = vec![u32::MAX; n];
    dist[start] = 0;
    let mut queue = std::collections::VecDeque::from([start as u32]);
    let (mut ecc, mut far) = (0usize, start);
    while let Some(v) = queue.pop_front() {
        let d = dist[v as usize] + 1;
        for &u in &adj[v as usize] {
            if dist[u as usize] == u32::MAX {
                dist[u as usize] = d;
                queue.push_back(u);
                let du = d as usize;
                let better = du > ecc
                    || (du == ecc
                        && (adj[u as usize].len(), u as usize) < (adj[far].len(), far));
                if better {
                    ecc = du;
                    far = u as usize;
                }
            }
        }
    }
    (ecc, far)
}

/// Pseudo-peripheral vertex of `seed`'s component, by the George–Liu BFS
/// double sweep: walk to a minimum-degree vertex of the deepest BFS level
/// until the eccentricity stops growing. Deterministic (all ties break by
/// degree, then id).
fn pseudo_peripheral(adj: &[Vec<u32>], seed: usize) -> usize {
    let (mut ecc, mut v) = bfs_eccentricity(adj, seed);
    loop {
        let (ecc_v, far) = bfs_eccentricity(adj, v);
        if ecc_v > ecc {
            ecc = ecc_v;
            v = far;
        } else {
            return v;
        }
    }
}

/// Reverse Cuthill-McKee ordering.
///
/// Returns a permutation `perm` with `perm[new_id] = old_id`. Each connected
/// component is started from a **pseudo-peripheral vertex** (BFS double
/// sweep from the component's minimum-degree vertex), which is what makes
/// RCM's level structure long and thin and its bandwidth low; all
/// tie-breaks are (degree, id), so the ordering is stable across runs. The
/// overall ordering covers every vertex exactly once.
pub fn rcm_order(adj: &[Vec<u32>]) -> Vec<u32> {
    let n = adj.len();
    let mut visited = vec![false; n];
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let degree = |v: usize| adj[v].len();

    // Component seeds in ascending degree, then id: one packed key each
    // (unique, so an unstable sort is the same order). Each seed is then
    // upgraded to a pseudo-peripheral vertex of its component.
    let mut seeds: Vec<u64> = (0..n).map(|v| ((degree(v) as u64) << 32) | v as u64).collect();
    seeds.sort_unstable();

    let mut queue = std::collections::VecDeque::new();
    let mut next: Vec<u32> = Vec::new();
    for seed in seeds.into_iter().map(|k| k as u32 as usize) {
        if visited[seed] {
            continue;
        }
        let start = pseudo_peripheral(adj, seed);
        visited[start] = true;
        queue.push_back(start as u32);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            // Neighbours in ascending degree (Cuthill-McKee rule).
            next.clear();
            next.extend(adj[v as usize].iter().copied().filter(|&u| !visited[u as usize]));
            next.sort_unstable_by_key(|&u| (degree(u as usize), u));
            for &u in &next {
                visited[u as usize] = true;
                queue.push_back(u);
            }
        }
    }
    order.reverse(); // the "reverse" in RCM
    order
}

/// Graph bandwidth under a permutation (`perm[new] = old`): the maximum
/// |new(a) − new(b)| over all adjacent pairs. Lower is better for locality.
pub fn bandwidth(adj: &[Vec<u32>], perm: &[u32]) -> usize {
    let mut new_of = vec![0usize; adj.len()];
    for (new, &old) in perm.iter().enumerate() {
        new_of[old as usize] = new;
    }
    let mut bw = 0usize;
    for (a, list) in adj.iter().enumerate() {
        for &b in list {
            bw = bw.max(new_of[a].abs_diff(new_of[b as usize]));
        }
    }
    bw
}

/// Invert a permutation: returns `inv` with `inv[old] = new`.
pub fn invert_permutation(perm: &[u32]) -> Vec<u32> {
    let mut inv = vec![0u32; perm.len()];
    for (new, &old) in perm.iter().enumerate() {
        inv[old as usize] = new as u32;
    }
    inv
}

/// A set renumbering held together with its inverse — the first-class
/// preprocessing artifact that mesh construction, partitioning, and result
/// verification all share.
///
/// Conventions (matching [`rcm_order`]):
///
/// * `perm[new] = old` — where each new slot's contents come *from*;
/// * `inv[old] = new` — where each old element *went*.
///
/// Row-wise data (dat payloads, coordinate tables, partition owner arrays)
/// moves with [`MeshPermutation::permute_rows`]; map *values* that name
/// elements of the renumbered set are relabelled with
/// [`MeshPermutation::relabel`]; results computed on a renumbered mesh map
/// back to original ids with [`MeshPermutation::unpermute_rows`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MeshPermutation {
    perm: Vec<u32>,
    inv: Vec<u32>,
}

impl MeshPermutation {
    /// The identity permutation on `n` elements.
    pub fn identity(n: usize) -> Self {
        let perm: Vec<u32> = (0..n as u32).collect();
        MeshPermutation {
            inv: perm.clone(),
            perm,
        }
    }

    /// Wrap an explicit permutation (`perm[new] = old`).
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..perm.len()`.
    pub fn from_perm(perm: Vec<u32>) -> Self {
        let n = perm.len();
        let mut inv = vec![u32::MAX; n];
        for (new, &old) in perm.iter().enumerate() {
            assert!(
                (old as usize) < n && inv[old as usize] == u32::MAX,
                "not a permutation: slot {new} -> {old}"
            );
            inv[old as usize] = new as u32;
        }
        MeshPermutation { perm, inv }
    }

    /// RCM ordering of `adj` as a permutation (see [`rcm_order`]).
    pub fn rcm(adj: &[Vec<u32>]) -> Self {
        MeshPermutation::from_perm(rcm_order(adj))
    }

    /// Number of elements permuted.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// True for the empty permutation.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// True when this is the identity.
    pub fn is_identity(&self) -> bool {
        self.perm.iter().enumerate().all(|(new, &old)| new == old as usize)
    }

    /// `perm[new] = old` view.
    pub fn perm(&self) -> &[u32] {
        &self.perm
    }

    /// `inv[old] = new` view.
    pub fn inverse(&self) -> &[u32] {
        &self.inv
    }

    /// Where new slot `new`'s contents came from.
    #[inline]
    pub fn old_of(&self, new: usize) -> usize {
        self.perm[new] as usize
    }

    /// Where old element `old` went.
    #[inline]
    pub fn new_of(&self, old: usize) -> usize {
        self.inv[old] as usize
    }

    /// Reorder row-major data (`dim` values per element) into the new
    /// ordering: `out[new] = rows[old_of(new)]`. Works for dat payloads,
    /// coordinates, map *tables* (rows follow their from-set), partition
    /// owner arrays (`dim == 1`) — any per-element rows.
    pub fn permute_rows<T: Copy>(&self, rows: &[T], dim: usize) -> Vec<T> {
        assert_eq!(rows.len(), self.perm.len() * dim, "row data length mismatch");
        let mut out = Vec::with_capacity(rows.len());
        for &old in &self.perm {
            let o = old as usize * dim;
            out.extend_from_slice(&rows[o..o + dim]);
        }
        out
    }

    /// Map row-major data computed on the *renumbered* mesh back to the
    /// original ordering: `out[old] = rows[new_of(old)]` — the inverse of
    /// [`MeshPermutation::permute_rows`], used to compare renumbered
    /// results against an unrenumbered oracle.
    pub fn unpermute_rows<T: Copy>(&self, rows: &[T], dim: usize) -> Vec<T> {
        assert_eq!(rows.len(), self.inv.len() * dim, "row data length mismatch");
        let mut out = Vec::with_capacity(rows.len());
        for &new in &self.inv {
            let o = new as usize * dim;
            out.extend_from_slice(&rows[o..o + dim]);
        }
        out
    }

    /// Relabel map values that point *into* the renumbered set:
    /// `out[i] = new_of(targets[i])`.
    pub fn relabel(&self, targets: &[u32]) -> Vec<u32> {
        targets.iter().map(|&t| self.inv[t as usize]).collect()
    }

    /// Permute a dat's elements in place (layout-aware, via
    /// [`crate::Dat::permute`]).
    pub fn permute_dat<T: Copy + Send + Sync + 'static>(&self, dat: &crate::dat::Dat<T>) {
        dat.permute(&self.perm);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set::Set;

    fn chain_adj(n: usize) -> Vec<Vec<u32>> {
        (0..n)
            .map(|i| {
                let mut v = Vec::new();
                if i > 0 {
                    v.push(i as u32 - 1);
                }
                if i + 1 < n {
                    v.push(i as u32 + 1);
                }
                v
            })
            .collect()
    }

    #[test]
    fn rcm_is_a_permutation() {
        let adj = chain_adj(50);
        let perm = rcm_order(&adj);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn rcm_keeps_chain_bandwidth_one() {
        let adj = chain_adj(64);
        let perm = rcm_order(&adj);
        assert_eq!(bandwidth(&adj, &perm), 1);
    }

    #[test]
    fn rcm_reduces_bandwidth_of_shuffled_grid() {
        // A 2-D grid adjacency with randomly permuted labels: RCM must
        // recover a bandwidth close to the grid width, far below the
        // shuffled one.
        let (w, h) = (16usize, 16usize);
        let n = w * h;
        // Deterministic shuffle of labels.
        let mut label: Vec<usize> = (0..n).collect();
        let mut state = 12345u64;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            label.swap(i, j);
        }
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut connect = |a: usize, b: usize| {
            adj[label[a]].push(label[b] as u32);
            adj[label[b]].push(label[a] as u32);
        };
        for y in 0..h {
            for x in 0..w {
                let c = y * w + x;
                if x + 1 < w {
                    connect(c, c + 1);
                }
                if y + 1 < h {
                    connect(c, c + w);
                }
            }
        }
        for l in &mut adj {
            l.sort_unstable();
            l.dedup();
        }
        let identity: Vec<u32> = (0..n as u32).collect();
        let shuffled_bw = bandwidth(&adj, &identity);
        let rcm_bw = bandwidth(&adj, &rcm_order(&adj));
        assert!(
            rcm_bw * 3 < shuffled_bw,
            "RCM bandwidth {rcm_bw} not ≪ shuffled {shuffled_bw}"
        );
        assert!(rcm_bw <= 2 * w, "grid RCM bandwidth should be O(width)");
    }

    #[test]
    fn adjacency_from_map() {
        let edges = Set::new("edges", 3);
        let cells = Set::new("cells", 4);
        let m = Map::new("pecell", &edges, &cells, 2, vec![0, 1, 1, 2, 2, 3]);
        let adj = adjacency_from_pair_map(&m);
        assert_eq!(adj[0], vec![1]);
        assert_eq!(adj[1], vec![0, 2]);
        assert_eq!(adj[3], vec![2]);
    }

    #[test]
    fn invert_roundtrips() {
        let perm = vec![3u32, 0, 2, 1];
        let inv = invert_permutation(&perm);
        for (new, &old) in perm.iter().enumerate() {
            assert_eq!(inv[old as usize] as usize, new);
        }
    }

    #[test]
    fn disconnected_components_all_covered() {
        // Two disjoint triangles.
        let mut adj = vec![Vec::new(); 6];
        for (a, b) in [(0u32, 1u32), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            adj[a as usize].push(b);
            adj[b as usize].push(a);
        }
        let perm = rcm_order(&adj);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..6).collect::<Vec<u32>>());
    }
}
