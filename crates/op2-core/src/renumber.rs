//! Mesh renumbering — reverse Cuthill-McKee (RCM).
//!
//! OP2 renumbers mesh elements to improve locality: consecutive elements
//! touch nearby data, which tightens block footprints, lowers the number of
//! plan colors, and improves cache behaviour. This module provides the
//! classic RCM ordering over an element adjacency graph (e.g. cells adjacent
//! through shared edges), plus helpers to build that graph from a
//! connectivity [`Map`] and to apply a permutation to mesh tables.
//!
//! The pass runs once, at set-up, and at memory speed. The graph is one
//! flat [`CsrGraph`] (an offsets array and one neighbour array, built in
//! three sweeps); the breadth-first searches run on flat arrays with one
//! reused `seen` mark and a `Vec` for a queue, and the last George–Liu sweep
//! of a component is its Cuthill-McKee order; every ordering by a small
//! integer key is a stable counting sort ([`order_by_key`]); and every table
//! moves into its new order in one gather at a constant row width
//! ([`MeshPermutation::permute_rows`], [`MeshPermutation::permute_relabel`]).
//! Every tie breaks by (degree, id) or by id, so each result is a pure
//! function of its input.

use crate::map::Map;

/// An undirected graph in compressed sparse rows: vertex `v`'s neighbours
/// are `neighbours[offsets[v]..offsets[v + 1]]`, sorted ascending and free
/// of duplicates and of `v` itself.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<u32>,
    neighbours: Vec<u32>,
}

impl CsrGraph {
    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// True for the graph with no vertices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Vertex `v`'s neighbours, ascending.
    #[inline]
    pub fn row(&self, v: usize) -> &[u32] {
        &self.neighbours[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Vertex `v`'s number of distinct neighbours.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// `(degree << 32) | v`: the (degree, id) order every RCM tie-break uses,
    /// as one integer.
    #[inline]
    fn key(&self, v: u32) -> u64 {
        ((self.degree(v as usize) as u64) << 32) | u64::from(v)
    }
}

/// Build the target-set adjacency induced by a 2-ary map (e.g. `pecell`:
/// each edge makes its two cells mutually adjacent).
pub fn adjacency_from_pair_map(map: &Map) -> CsrGraph {
    assert_eq!(map.dim(), 2, "pair adjacency needs a 2-ary map");
    adjacency_from_pairs(map.to_set().size(), map.table())
}

/// The adjacency over `n` vertices induced by a flat pair table
/// (`pairs[2i]`, `pairs[2i + 1]` mutually adjacent unless equal, as in a
/// 2-ary map's table). Three sweeps: count degrees, take prefix sums, fill
/// each row from its end; then each row is sorted and deduplicated in place
/// and the rows are closed up.
///
/// # Panics
/// Panics if an entry is not below `n`.
pub fn adjacency_from_pairs(n: usize, pairs: &[u32]) -> CsrGraph {
    assert!(
        u32::try_from(pairs.len()).is_ok(),
        "pair table too long for u32 offsets"
    );
    assert!(
        !pairs.iter().fold(false, |bad, &v| bad | (v as usize >= n)),
        "pair table names a vertex not below {n}"
    );
    let pairs = pairs
        .chunks_exact(2)
        .map(|p| (p[0] as usize, p[1] as usize))
        .filter(|(a, b)| a != b);
    let mut offsets = vec![0u32; n + 1];
    for (a, b) in pairs.clone() {
        offsets[a] += 1;
        offsets[b] += 1;
    }
    // Inclusive prefix sums: `offsets[v]` is where row `v` ends, and the
    // fill walks it back to where the row starts.
    let mut end = 0;
    for o in &mut offsets {
        end += *o;
        *o = end;
    }
    let mut neighbours = vec![0u32; end as usize];
    for (a, b) in pairs {
        offsets[a] -= 1;
        neighbours[offsets[a] as usize] = b as u32;
        offsets[b] -= 1;
        neighbours[offsets[b] as usize] = a as u32;
    }
    // Sort and dedup each row, moving it down over the duplicates dropped
    // from the rows before it.
    let mut len = 0;
    for v in 0..n {
        let (start, end) = (offsets[v] as usize, offsets[v + 1] as usize);
        sort_short(&mut neighbours[start..end]);
        offsets[v] = len as u32;
        for i in start..end {
            if i == start || neighbours[i] != neighbours[i - 1] {
                neighbours[len] = neighbours[i];
                len += 1;
            }
        }
    }
    offsets[n] = len as u32;
    neighbours.truncate(len);
    CsrGraph {
        offsets,
        neighbours,
    }
}

/// Sort an adjacency row, most often a mesh element's handful of
/// neighbours: up to four by a branch-free sorting network, longer ones by
/// `sort_unstable`. On a shuffled 512×256 mesh this builds the graph in
/// 5.6–5.8 ms against 8.1–8.4 ms with `sort_unstable` alone, whose
/// insertion sort branches on every comparison.
fn sort_short(s: &mut [u32]) {
    fn exchange(s: &mut [u32], i: usize, j: usize) {
        let (a, b) = (s[i], s[j]);
        (s[i], s[j]) = (a.min(b), a.max(b));
    }
    let pairs: &[(usize, usize)] = match s.len() {
        0 | 1 => &[],
        2 => &[(0, 1)],
        3 => &[(0, 1), (1, 2), (0, 1)],
        4 => &[(0, 1), (2, 3), (0, 2), (1, 3), (1, 2)],
        _ => return s.sort_unstable(),
    };
    for &(i, j) in pairs {
        exchange(s, i, j);
    }
}

/// The permutation (`perm[new] = old`) that orders ids by `keys[id]`, then
/// by id: a stable counting sort, so ids ascend within each key and the
/// result is exactly the order of the packed keys `keys[id] << 32 | id`.
/// One bucket per key value up to the largest key.
pub fn order_by_key(keys: &[u32]) -> Vec<u32> {
    let nkeys = keys.iter().copied().max().map_or(0, |m| m as usize + 1);
    let mut start = vec![0u32; nkeys + 1];
    for &k in keys {
        start[k as usize + 1] += 1;
    }
    for k in 0..nkeys {
        start[k + 1] += start[k];
    }
    let mut perm = vec![0u32; keys.len()];
    for (id, &k) in keys.iter().enumerate() {
        perm[start[k as usize] as usize] = id as u32;
        start[k as usize] += 1;
    }
    perm
}

/// Cuthill-McKee sweeps over one graph: breadth-first searches that visit
/// each vertex's unseen neighbours in ascending (degree, id), sharing one
/// `seen` mark and one queue.
///
/// The depth of a search and the minimum-(degree, id) vertex of its deepest
/// level do not depend on the order a level is visited in, so the George–Liu
/// sweeps that find a start vertex can visit in Cuthill-McKee order too; the
/// last sweep, from the vertex they settle on, is then the component's
/// Cuthill-McKee order itself and is not run again.
struct Sweeps<'g> {
    g: &'g CsrGraph,
    /// Marks the vertices of finished components and of the current sweep.
    seen: Vec<bool>,
    /// The current sweep's vertices in visiting order.
    queue: Vec<u32>,
    /// One vertex's unseen neighbours as (degree, id) keys.
    next: Vec<u64>,
}

impl<'g> Sweeps<'g> {
    fn new(g: &'g CsrGraph) -> Self {
        Sweeps {
            g,
            seen: vec![false; g.len()],
            queue: Vec::with_capacity(g.len()),
            next: Vec::new(),
        }
    }

    /// One sweep from `start` over the unseen vertices, which it marks seen:
    /// returns the eccentricity (deepest level) and the minimum-(degree, id)
    /// vertex of the deepest level.
    fn sweep(&mut self, start: u32) -> (u32, u32) {
        let g = self.g;
        let (seen, queue, next) = (&mut self.seen, &mut self.queue, &mut self.next);
        queue.clear();
        queue.push(start);
        seen[start as usize] = true;
        let (mut level, mut ecc) = (0, 0);
        loop {
            let end = queue.len();
            for head in level..end {
                next.clear();
                for &u in g.row(queue[head] as usize) {
                    if !seen[u as usize] {
                        seen[u as usize] = true;
                        next.push(g.key(u));
                    }
                }
                next.sort_unstable();
                queue.extend(next.iter().map(|&key| key as u32));
            }
            if queue.len() == end {
                break;
            }
            (level, ecc) = (end, ecc + 1);
        }
        let far = queue[level..]
            .iter()
            .map(|&v| g.key(v))
            .min()
            .expect("a level is never empty");
        (ecc, far as u32)
    }

    /// The Cuthill-McKee order of `seed`'s component, started from a
    /// pseudo-peripheral vertex: sweep to the minimum-degree vertex of the
    /// deepest level until the eccentricity stops growing. The component
    /// stays marked seen.
    fn component(&mut self, seed: u32) -> &[u32] {
        let (mut ecc, mut v) = self.sweep(seed);
        loop {
            for &u in &self.queue {
                self.seen[u as usize] = false;
            }
            let (ecc_v, far) = self.sweep(v);
            if ecc_v <= ecc {
                return &self.queue;
            }
            (ecc, v) = (ecc_v, far);
        }
    }
}

/// Reverse Cuthill-McKee ordering.
///
/// Returns a permutation `perm` with `perm[new_id] = old_id`. Each connected
/// component is started from a **pseudo-peripheral vertex** (George–Liu BFS
/// sweeps from the component's minimum-degree vertex), which is what makes
/// RCM's level structure long and thin and its bandwidth low; all
/// tie-breaks are (degree, id), so the ordering is stable across runs. The
/// overall ordering covers every vertex exactly once.
pub fn rcm_order(g: &CsrGraph) -> Vec<u32> {
    let degrees: Vec<u32> = (0..g.len()).map(|v| g.degree(v) as u32).collect();
    let mut sweeps = Sweeps::new(g);
    let mut order: Vec<u32> = Vec::with_capacity(g.len());
    // Component seeds in ascending (degree, id).
    for seed in order_by_key(&degrees) {
        if !sweeps.seen[seed as usize] {
            order.extend_from_slice(sweeps.component(seed));
        }
    }
    order.reverse(); // the "reverse" in RCM
    order
}

/// Graph bandwidth under a permutation (`perm[new] = old`): the maximum
/// |new(a) − new(b)| over all adjacent pairs. Lower is better for locality.
pub fn bandwidth(g: &CsrGraph, perm: &[u32]) -> usize {
    let new_of = invert_permutation(perm);
    (0..g.len())
        .flat_map(|a| g.row(a).iter().map(move |&b| (a, b)))
        .map(|(a, b)| new_of[a].abs_diff(new_of[b as usize]) as usize)
        .max()
        .unwrap_or(0)
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
/// [`MeshPermutation::relabel`] (a map table renumbered on both sides
/// moves in one pass with [`MeshPermutation::permute_relabel`]); results
/// computed on a renumbered mesh map back to original ids with
/// [`MeshPermutation::unpermute_rows`].
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

    /// RCM ordering of `g` as a permutation (see [`rcm_order`]).
    pub fn rcm(g: &CsrGraph) -> Self {
        MeshPermutation::from_perm(rcm_order(g))
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
        gather(&self.perm, rows, dim, |v| v)
    }

    /// Map row-major data computed on the *renumbered* mesh back to the
    /// original ordering: `out[old] = rows[new_of(old)]` — the inverse of
    /// [`MeshPermutation::permute_rows`], used to compare renumbered
    /// results against an unrenumbered oracle.
    pub fn unpermute_rows<T: Copy>(&self, rows: &[T], dim: usize) -> Vec<T> {
        gather(&self.inv, rows, dim, |v| v)
    }

    /// Relabel map values that point *into* the renumbered set:
    /// `out[i] = new_of(targets[i])`.
    pub fn relabel(&self, targets: &[u32]) -> Vec<u32> {
        targets.iter().map(|&t| self.inv[t as usize]).collect()
    }

    /// A map table renumbered on both sides in one pass: its rows (`dim`
    /// targets each) move into this permutation's order and every value is
    /// relabelled by `targets`, the renumbering of the map's to-set. Equal
    /// to `targets.relabel(&self.permute_rows(table, dim))`.
    pub fn permute_relabel(
        &self,
        table: &[u32],
        dim: usize,
        targets: &MeshPermutation,
    ) -> Vec<u32> {
        gather(&self.perm, table, dim, |t| targets.inv[t as usize])
    }

    /// Permute a dat's elements in place (layout-aware, via
    /// [`crate::Dat::permute`]).
    pub fn permute_dat<T: Copy + Send + Sync + 'static>(&self, dat: &crate::dat::Dat<T>) {
        dat.permute(&self.perm);
    }
}

/// `out[i] = f(rows[order[i]])`, row by row, `dim` values a row: a gather
/// at a constant width for the widths meshes use.
fn gather<T: Copy>(order: &[u32], rows: &[T], dim: usize, f: impl Fn(T) -> T) -> Vec<T> {
    assert_eq!(rows.len(), order.len() * dim, "row data length mismatch");
    fn rows_of<T: Copy, const D: usize>(order: &[u32], rows: &[T], f: impl Fn(T) -> T) -> Vec<T> {
        order
            .iter()
            .flat_map(|&o| {
                <[T; D]>::try_from(&rows[o as usize * D..][..D])
                    .expect("a D-wide slice")
                    .map(&f)
            })
            .collect()
    }
    match dim {
        1 => rows_of::<T, 1>(order, rows, f),
        2 => rows_of::<T, 2>(order, rows, f),
        3 => rows_of::<T, 3>(order, rows, f),
        4 => rows_of::<T, 4>(order, rows, f),
        _ => order
            .iter()
            .flat_map(|&o| rows[o as usize * dim..][..dim].iter().map(|&v| f(v)))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set::Set;

    fn chain_adj(n: usize) -> CsrGraph {
        let pairs: Vec<u32> = (1..n as u32).flat_map(|i| [i - 1, i]).collect();
        adjacency_from_pairs(n, &pairs)
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
        let mut pairs = Vec::new();
        let mut connect = |a: usize, b: usize| pairs.extend([label[a] as u32, label[b] as u32]);
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
        let adj = adjacency_from_pairs(n, &pairs);
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
        assert_eq!(adj.len(), 4);
        assert_eq!(adj.row(0), [1]);
        assert_eq!(adj.row(1), [0, 2]);
        assert_eq!(adj.row(3), [2]);
    }

    /// An entry equal to `n` fits the offsets array's last slot, so only the
    /// up-front range check stops it from becoming a neighbour.
    #[test]
    #[should_panic(expected = "not below 3")]
    fn adjacency_rejects_an_entry_equal_to_n() {
        adjacency_from_pairs(3, &[0, 1, 1, 3]);
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
        let adj = adjacency_from_pairs(6, &[0, 1, 1, 2, 2, 0, 3, 4, 4, 5, 5, 3]);
        let perm = rcm_order(&adj);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..6).collect::<Vec<u32>>());
    }
}
