//! Mesh partitioning and halo construction.
//!
//! Cells are divided into contiguous strips (OP2 ships block/strip
//! partitioners; graph partitioners plug in the same way). Each rank:
//!
//! * **owns** its strip of cells — it alone updates their state;
//! * **executes** every interior edge whose *first* endpoint it owns, and
//!   every boundary edge whose cell it owns;
//! * **imports** (keeps halo copies of) the cells referenced by its edges
//!   but owned elsewhere.
//!
//! The import list from each neighbour is sorted by global cell id, and the
//! matching export list is derived from the same global information, so the
//! two sides of every exchange agree on order without negotiation.
//!
//! Node coordinates are read-only for the whole march and are replicated on
//! every rank (a documented simplification of OP2's distributed sets).

use std::collections::HashMap;

use op2_airfoil::mesh::MeshData;

/// Ownership of cells by rank (arbitrary assignments; strips and RCB
/// constructors provided).
#[derive(Debug, Clone)]
pub struct Partition {
    /// Rank count.
    pub nranks: usize,
    owner: Vec<u32>,
    /// Owned global cells per rank, ascending.
    owned: Vec<Vec<u32>>,
}

impl Partition {
    /// Build from an explicit owner array.
    pub fn from_owner(owner: Vec<u32>, nranks: usize) -> Partition {
        let nranks = nranks.max(1);
        let mut owned: Vec<Vec<u32>> = vec![Vec::new(); nranks];
        for (c, &r) in owner.iter().enumerate() {
            assert!((r as usize) < nranks, "cell {c} owned by missing rank {r}");
            owned[r as usize].push(c as u32);
        }
        Partition {
            nranks,
            owner,
            owned,
        }
    }

    /// Contiguous strips of cell indices, as even as possible.
    pub fn strips(ncells: usize, nranks: usize) -> Partition {
        let nranks = nranks.max(1);
        let base = ncells / nranks;
        let extra = ncells % nranks;
        let mut owner = Vec::with_capacity(ncells);
        for r in 0..nranks {
            let len = base + usize::from(r < extra);
            owner.extend(std::iter::repeat_n(r as u32, len));
        }
        Partition::from_owner(owner, nranks)
    }

    /// Contiguous strips assigned to an explicit subset of ranks — the
    /// re-partitioning used when the fabric re-forms after a rank failure.
    /// Strip `i` (of `ranks.len()` equal strips) goes to `ranks[i]`; the
    /// partition still spans `nranks_total` rank ids, so `owner` values
    /// remain valid fabric ranks and dead ranks simply own nothing.
    ///
    /// With `ranks == [0, 1, …, n-1]` this equals
    /// [`Partition::strips`]`(ncells, n)` exactly, and because survivor
    /// ranks ascend with strip index, the recovered march's exchange and
    /// reduction orders match a fresh `n`-rank run bit for bit.
    pub fn strips_over(ncells: usize, ranks: &[usize], nranks_total: usize) -> Partition {
        assert!(!ranks.is_empty(), "survivor set must be non-empty");
        let n = ranks.len();
        let base = ncells / n;
        let extra = ncells % n;
        let mut owner = Vec::with_capacity(ncells);
        for (i, &r) in ranks.iter().enumerate() {
            assert!(r < nranks_total, "rank {r} outside fabric of {nranks_total}");
            let len = base + usize::from(i < extra);
            owner.extend(std::iter::repeat_n(r as u32, len));
        }
        Partition::from_owner(owner, nranks_total)
    }

    /// Recursive coordinate bisection over cell centroids: repeatedly split
    /// the largest-extent axis at the median. `nranks` need not be a power
    /// of two (splits are weighted by the rank counts of each half).
    pub fn rcb(centroids: &[(f64, f64)], nranks: usize) -> Partition {
        let nranks = nranks.max(1);
        let mut owner = vec![0u32; centroids.len()];
        let mut ids: Vec<u32> = (0..centroids.len() as u32).collect();
        rcb_split(centroids, &mut ids, 0, nranks, &mut owner);
        Partition::from_owner(owner, nranks)
    }

    /// Owner rank of global cell `c`.
    pub fn owner(&self, c: usize) -> usize {
        self.owner[c] as usize
    }

    /// The same ownership assignment in a renumbered cell id space:
    /// ownership follows the cell, so each rank owns exactly the cells it
    /// owned before, under their new ids. `cells` is the cell permutation of
    /// an RCM (or other) renumbering pass.
    pub fn renumbered(&self, cells: &op2_core::MeshPermutation) -> Partition {
        assert_eq!(cells.len(), self.owner.len(), "permutation covers every cell");
        Partition::from_owner(cells.permute_rows(&self.owner, 1), self.nranks)
    }

    /// Global cells owned by `rank`, ascending.
    pub fn owned_cells(&self, rank: usize) -> &[u32] {
        &self.owned[rank]
    }
}

/// Assign `ids` (a slice of cell ids) to ranks `base..base+nranks`.
fn rcb_split(
    centroids: &[(f64, f64)],
    ids: &mut [u32],
    base: usize,
    nranks: usize,
    owner: &mut [u32],
) {
    if nranks == 1 {
        for &c in ids.iter() {
            owner[c as usize] = base as u32;
        }
        return;
    }
    // Pick the axis with the larger extent.
    let (mut lo_x, mut hi_x) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut lo_y, mut hi_y) = (f64::INFINITY, f64::NEG_INFINITY);
    for &c in ids.iter() {
        let (x, y) = centroids[c as usize];
        lo_x = lo_x.min(x);
        hi_x = hi_x.max(x);
        lo_y = lo_y.min(y);
        hi_y = hi_y.max(y);
    }
    let use_x = (hi_x - lo_x) >= (hi_y - lo_y);
    // Weighted split: left gets ⌈nranks/2⌉'s share of the cells.
    let left_ranks = nranks.div_ceil(2);
    let split = ids.len() * left_ranks / nranks;
    ids.sort_by(|&a, &b| {
        let ka = if use_x { centroids[a as usize].0 } else { centroids[a as usize].1 };
        let kb = if use_x { centroids[b as usize].0 } else { centroids[b as usize].1 };
        ka.partial_cmp(&kb).expect("finite coordinates").then(a.cmp(&b))
    });
    let (left, right) = ids.split_at_mut(split);
    rcb_split(centroids, left, base, left_ranks, owner);
    rcb_split(centroids, right, base + left_ranks, nranks - left_ranks, owner);
}

/// Total number of halo (imported) cells across all ranks — the
/// communication-volume metric partitioners minimize.
pub fn total_halo_cells(data: &MeshData, part: &Partition) -> usize {
    (0..part.nranks)
        .map(|r| {
            let l = build_local(data, part, r);
            l.ncells_local() - l.nowned
        })
        .sum()
}

/// Cell centroids of a mesh (for [`Partition::rcb`]).
pub fn cell_centroids(data: &MeshData) -> Vec<(f64, f64)> {
    let ncells = data.cell_nodes.len() / 4;
    (0..ncells)
        .map(|c| {
            let mut x = 0.0;
            let mut y = 0.0;
            for k in 0..4 {
                let n = data.cell_nodes[4 * c + k] as usize;
                x += data.coords[2 * n] / 4.0;
                y += data.coords[2 * n + 1] / 4.0;
            }
            (x, y)
        })
        .collect()
}

/// One rank's slice of the mesh, with halo metadata.
#[derive(Debug)]
pub struct LocalMesh {
    /// This rank.
    pub rank: usize,
    /// Number of *owned* local cells; local ids `0..nowned` are owned (in
    /// ascending global order), ids `nowned..` are halo copies.
    pub nowned: usize,
    /// Local → global cell id.
    pub cell_l2g: Vec<u32>,
    /// Corner nodes (4 per local cell, global node ids — coordinates are
    /// replicated).
    pub cell_nodes: Vec<u32>,
    /// Assigned interior edges: global node pair per edge.
    pub edge_nodes: Vec<(u32, u32)>,
    /// Assigned interior edges: *local* cell pair per edge.
    pub edge_cells: Vec<(u32, u32)>,
    /// Assigned boundary edges: (global n1, global n2, local cell, bound).
    pub bedges: Vec<(u32, u32, u32, i32)>,
    /// For each peer rank (ascending, self excluded): local *halo* ids this
    /// rank imports from that peer, in ascending global order.
    pub imports: Vec<(usize, Vec<u32>)>,
    /// For each peer rank (ascending): local *owned* ids this rank must send
    /// to that peer, in the exact order of the peer's import list.
    pub exports: Vec<(usize, Vec<u32>)>,
}

impl LocalMesh {
    /// Total local cells (owned + halo).
    pub fn ncells_local(&self) -> usize {
        self.cell_l2g.len()
    }

    /// This slice as mesh tables an app declares itself over: the local
    /// cells (owned, then halo), the assigned edges and boundary edges, and
    /// `global`'s node set, replicated (`imax`/`jmax` are `global`'s too).
    pub fn mesh_data(&self, global: &MeshData) -> MeshData {
        MeshData {
            imax: global.imax,
            jmax: global.jmax,
            coords: global.coords.clone(),
            edge_nodes: self.edge_nodes.iter().flat_map(|&(a, b)| [a, b]).collect(),
            edge_cells: self.edge_cells.iter().flat_map(|&(a, b)| [a, b]).collect(),
            bedge_nodes: self.bedges.iter().flat_map(|&(a, b, _, _)| [a, b]).collect(),
            bedge_cells: self.bedges.iter().map(|b| b.2).collect(),
            bound: self.bedges.iter().map(|b| b.3).collect(),
            cell_nodes: self.cell_nodes.clone(),
        }
    }
}

/// Build rank `rank`'s local mesh.
pub fn build_local(data: &MeshData, part: &Partition, rank: usize) -> LocalMesh {
    let ncells = data.cell_nodes.len() / 4;
    let owned = part.owned_cells(rank);
    let is_owned = |c: u32| part.owner(c as usize) == rank;

    // One pass over the interior edges. An edge is assigned to the owner of
    // its first endpoint: here, or a peer — whose halo then holds every
    // endpoint owned here, i.e. exactly what this rank exports to it.
    let nedges = data.edge_cells.len() / 2;
    let mut my_edges: Vec<usize> = Vec::new();
    let mut exported: Vec<Vec<u32>> = vec![Vec::new(); part.nranks];
    for e in 0..nedges {
        let ends = [data.edge_cells[2 * e], data.edge_cells[2 * e + 1]];
        let assignee = part.owner(ends[0] as usize);
        if assignee == rank {
            my_edges.push(e);
        } else {
            exported[assignee].extend(ends.into_iter().filter(|&c| is_owned(c)));
        }
    }
    // Assigned boundary edges.
    let nbedges = data.bedge_cells.len();
    let my_bedges: Vec<usize> = (0..nbedges)
        .filter(|&be| part.owner(data.bedge_cells[be] as usize) == rank)
        .collect();

    // Halo cells: referenced, not owned, ascending global order.
    let mut halo: Vec<u32> = my_edges
        .iter()
        .flat_map(|&e| [data.edge_cells[2 * e], data.edge_cells[2 * e + 1]])
        .filter(|&c| !is_owned(c))
        .collect();
    halo.sort_unstable();
    halo.dedup();

    // Local numbering: owned (ascending global), then halo (ascending);
    // `g2l` is dense over the global cells (`u32::MAX` = not local).
    let mut cell_l2g: Vec<u32> = owned.to_vec();
    cell_l2g.extend_from_slice(&halo);
    let mut g2l = vec![u32::MAX; ncells];
    for (l, &g) in cell_l2g.iter().enumerate() {
        g2l[g as usize] = l as u32;
    }
    let g2l = |g: u32| g2l[g as usize];

    let mut cell_nodes: Vec<u32> = Vec::with_capacity(4 * cell_l2g.len());
    for &g in &cell_l2g {
        let g = g as usize;
        cell_nodes.extend_from_slice(&data.cell_nodes[4 * g..4 * g + 4]);
    }

    let edge_nodes: Vec<(u32, u32)> = my_edges
        .iter()
        .map(|&e| (data.edge_nodes[2 * e], data.edge_nodes[2 * e + 1]))
        .collect();
    let edge_cells: Vec<(u32, u32)> = my_edges
        .iter()
        .map(|&e| (g2l(data.edge_cells[2 * e]), g2l(data.edge_cells[2 * e + 1])))
        .collect();
    let bedges: Vec<(u32, u32, u32, i32)> = my_bedges
        .iter()
        .map(|&be| {
            (
                data.bedge_nodes[2 * be],
                data.bedge_nodes[2 * be + 1],
                g2l(data.bedge_cells[be]),
                data.bound[be],
            )
        })
        .collect();

    // Import lists grouped by owner rank (ascending) — halo is sorted by
    // global id, so per-peer sublists are too.
    let mut imports: Vec<(usize, Vec<u32>)> = Vec::new();
    for &g in &halo {
        let peer = part.owner(g as usize);
        match imports.last_mut() {
            Some((p, list)) if *p == peer => list.push(g2l(g)),
            _ => imports.push((peer, vec![g2l(g)])),
        }
    }

    // Export lists, ascending peer: each peer's import list from this rank,
    // derived from global data alone (no negotiation needed).
    let exports: Vec<(usize, Vec<u32>)> = exported
        .into_iter()
        .enumerate()
        .filter(|(_, cells)| !cells.is_empty())
        .map(|(peer, mut cells)| {
            cells.sort_unstable();
            cells.dedup();
            (peer, cells.into_iter().map(g2l).collect())
        })
        .collect();

    LocalMesh {
        rank,
        nowned: owned.len(),
        cell_l2g,
        cell_nodes,
        edge_nodes,
        edge_cells,
        bedges,
        imports,
        exports,
    }
}

/// One boundary block of the overlapped march: the edges of a rank that
/// touch halo cells imported from a single peer. The block becomes runnable
/// the moment that peer's forward halo message lands — independently of the
/// other peers and of the interior edges.
///
/// Flux contributions of group edges go into a private **scratch** vector
/// (one slot per touched cell, both owned and halo side) instead of directly
/// into `res`. That makes the merge into `res` a separate, canonically
/// ordered pass: the bulk-synchronous and overlapped marches perform the
/// same additions in the same order regardless of *when* each group fired,
/// which is what makes the two marches bit-identical.
#[derive(Debug)]
pub struct HaloGroup {
    /// The peer whose forward message gates this block.
    pub peer: usize,
    /// Indices into [`LocalMesh::edge_cells`], original (assignment) order.
    pub edges: Vec<u32>,
    /// Per edge (parallel to `edges`): scratch slots of its two cells.
    pub slots: Vec<(u32, u32)>,
    /// Scratch slot count (slots are assigned first-touch over `edges`).
    pub nslots: usize,
    /// `(slot, owned local cell)` in first-touch order: the owned-side
    /// contributions merged into `res` by the canonical merge pass.
    pub merge: Vec<(u32, u32)>,
    /// Scratch slot of each halo cell in this peer's import-list order —
    /// the layout of the reverse (halo-residual) payload sent back.
    pub send_slots: Vec<u32>,
}

/// Interior/boundary split of one rank's assigned edges, the static schedule
/// of the comm/compute-overlapped march (see [`crate::exec`]).
#[derive(Debug)]
pub struct HaloPlan {
    /// Edges touching only owned cells (indices into
    /// [`LocalMesh::edge_cells`], original order): runnable with no remote
    /// dependency, i.e. while halo receives are still outstanding.
    pub interior: Vec<u32>,
    /// One gated block per import peer, ascending peer order (parallel to
    /// [`LocalMesh::imports`]).
    pub groups: Vec<HaloGroup>,
}

impl HaloPlan {
    /// Classify `local`'s edges. Every assigned edge has an owned first
    /// endpoint, so an edge depends on at most one peer (via its second
    /// endpoint) and lands in exactly one group — or in `interior`.
    pub fn build(local: &LocalMesh) -> HaloPlan {
        let nowned = local.nowned as u32;
        // Halo local id − `nowned` → index of the group (= import entry) it
        // belongs to.
        let mut group_of = vec![usize::MAX; local.ncells_local() - local.nowned];
        for (gi, (_, halos)) in local.imports.iter().enumerate() {
            for &h in halos {
                group_of[(h - nowned) as usize] = gi;
            }
        }
        let mut interior: Vec<u32> = Vec::new();
        let mut group_edges: Vec<Vec<u32>> = vec![Vec::new(); local.imports.len()];
        for (e, &(c1, c2)) in local.edge_cells.iter().enumerate() {
            assert!(c1 < nowned, "assigned edge with non-owned first endpoint");
            if c2 < nowned {
                interior.push(e as u32);
            } else {
                let gi = group_of[(c2 - nowned) as usize];
                group_edges[gi].push(e as u32);
            }
        }
        let groups = local
            .imports
            .iter()
            .zip(group_edges)
            .map(|((peer, halos), edges)| {
                let mut slot_of: HashMap<u32, u32> = HashMap::new();
                let mut merge: Vec<(u32, u32)> = Vec::new();
                let mut slots: Vec<(u32, u32)> = Vec::with_capacity(edges.len());
                let mut next = 0u32;
                let mut slot = |c: u32| {
                    *slot_of.entry(c).or_insert_with(|| {
                        let s = next;
                        next += 1;
                        if c < nowned {
                            merge.push((s, c));
                        }
                        s
                    })
                };
                for &e in &edges {
                    let (c1, c2) = local.edge_cells[e as usize];
                    slots.push((slot(c1), slot(c2)));
                }
                let send_slots: Vec<u32> = halos
                    .iter()
                    .map(|h| {
                        *slot_of
                            .get(h)
                            .expect("every imported halo cell is touched by a group edge")
                    })
                    .collect();
                HaloGroup {
                    peer: *peer,
                    edges,
                    slots,
                    nslots: next as usize,
                    merge,
                    send_slots,
                }
            })
            .collect();
        HaloPlan { interior, groups }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use op2_airfoil::MeshBuilder;

    fn mesh_data() -> MeshData {
        MeshBuilder::channel(12, 6).data()
    }

    #[test]
    fn strips_cover_everything() {
        for (ncells, nranks) in [(10, 3), (7, 7), (100, 1), (5, 8)] {
            let p = Partition::strips(ncells, nranks);
            let mut covered = 0;
            for r in 0..nranks {
                for &c in p.owned_cells(r) {
                    assert_eq!(p.owner(c as usize), r);
                    covered += 1;
                }
            }
            assert_eq!(covered, ncells);
        }
    }

    #[test]
    fn strips_over_full_rank_set_equals_strips() {
        for (ncells, nranks) in [(10, 3), (7, 7), (100, 4)] {
            let all: Vec<usize> = (0..nranks).collect();
            let a = Partition::strips(ncells, nranks);
            let b = Partition::strips_over(ncells, &all, nranks);
            for c in 0..ncells {
                assert_eq!(a.owner(c), b.owner(c), "cell {c}");
            }
        }
    }

    #[test]
    fn strips_over_survivors_covers_all_cells_and_skips_dead_ranks() {
        let survivors = [0usize, 2, 3];
        let p = Partition::strips_over(10, &survivors, 4);
        assert_eq!(p.nranks, 4, "partition spans the full fabric");
        assert!(p.owned_cells(1).is_empty(), "dead rank owns nothing");
        let total: usize = survivors.iter().map(|&r| p.owned_cells(r).len()).sum();
        assert_eq!(total, 10);
        // Survivor ranks ascend with strip index (10 = 4 + 3 + 3).
        assert_eq!(p.owned_cells(0), (0..4).collect::<Vec<u32>>());
        assert_eq!(p.owned_cells(2), (4..7).collect::<Vec<u32>>());
        assert_eq!(p.owned_cells(3), (7..10).collect::<Vec<u32>>());
    }

    #[test]
    fn every_edge_assigned_to_exactly_one_rank() {
        let data = mesh_data();
        let nedges = data.edge_cells.len() / 2;
        let p = Partition::strips(72, 3);
        let locals: Vec<LocalMesh> = (0..3).map(|r| build_local(&data, &p, r)).collect();
        let total: usize = locals.iter().map(|l| l.edge_cells.len()).sum();
        assert_eq!(total, nedges);
        let btotal: usize = locals.iter().map(|l| l.bedges.len()).sum();
        assert_eq!(btotal, data.bedge_cells.len());
    }

    #[test]
    fn owned_cells_partition_cell_set() {
        let data = mesh_data();
        let p = Partition::strips(72, 4);
        let mut seen = vec![false; 72];
        for r in 0..4 {
            let l = build_local(&data, &p, r);
            for &g in &l.cell_l2g[..l.nowned] {
                assert!(!seen[g as usize], "cell {g} owned twice");
                seen[g as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn import_export_lists_are_symmetric() {
        let data = mesh_data();
        let p = Partition::strips(72, 3);
        let locals: Vec<LocalMesh> = (0..3).map(|r| build_local(&data, &p, r)).collect();
        for l in &locals {
            for (peer, my_halo_locals) in &l.imports {
                let peer_mesh = &locals[*peer];
                let (_, their_exports) = peer_mesh
                    .exports
                    .iter()
                    .find(|(to, _)| *to == l.rank)
                    .unwrap_or_else(|| panic!("rank {peer} has no export list to {}", l.rank));
                // Same cells in the same order, in global ids.
                let mine: Vec<u32> = my_halo_locals
                    .iter()
                    .map(|&loc| l.cell_l2g[loc as usize])
                    .collect();
                let theirs: Vec<u32> = their_exports
                    .iter()
                    .map(|&loc| peer_mesh.cell_l2g[loc as usize])
                    .collect();
                assert_eq!(mine, theirs, "halo order mismatch {} <- {peer}", l.rank);
            }
        }
    }

    #[test]
    fn halo_cells_follow_owned_cells() {
        let data = mesh_data();
        let p = Partition::strips(72, 3);
        let l = build_local(&data, &p, 1);
        for (i, &g) in l.cell_l2g.iter().enumerate() {
            if i < l.nowned {
                assert_eq!(p.owner(g as usize), 1);
            } else {
                assert_ne!(p.owner(g as usize), 1);
            }
        }
        // Edges are assigned by their *first* endpoint (the lower-indexed
        // row for this channel numbering), so the middle strip executes the
        // edges into the strip above it: it imports only from rank 2 and
        // exports only to rank 0 (whose edges read rank 1's bottom row).
        assert_eq!(l.imports.len(), 1);
        assert_eq!(l.imports[0].0, 2);
        assert_eq!(l.exports.len(), 1);
        assert_eq!(l.exports[0].0, 0);
    }

    #[test]
    fn halo_plan_partitions_edges_and_covers_imports() {
        let data = mesh_data();
        for nranks in [2, 3, 4] {
            let p = Partition::strips(72, nranks);
            for r in 0..nranks {
                let l = build_local(&data, &p, r);
                let plan = HaloPlan::build(&l);
                // Every assigned edge is in exactly one bucket, order kept.
                let mut all: Vec<u32> = plan.interior.clone();
                for g in &plan.groups {
                    all.extend_from_slice(&g.edges);
                }
                all.sort_unstable();
                assert_eq!(all, (0..l.edge_cells.len() as u32).collect::<Vec<_>>());
                // Interior edges touch no halo cell.
                for &e in &plan.interior {
                    let (c1, c2) = l.edge_cells[e as usize];
                    assert!((c1 as usize) < l.nowned && (c2 as usize) < l.nowned);
                }
                // Groups parallel the import lists and cover every halo cell.
                assert_eq!(plan.groups.len(), l.imports.len());
                for (g, (peer, halos)) in plan.groups.iter().zip(&l.imports) {
                    assert_eq!(g.peer, *peer);
                    assert_eq!(g.send_slots.len(), halos.len());
                    for &e in &g.edges {
                        let c2 = l.edge_cells[e as usize].1;
                        assert!(halos.contains(&c2), "group edge crosses peers");
                    }
                }
            }
        }
    }

    #[test]
    fn halo_plan_scratch_slots_are_consistent() {
        let data = mesh_data();
        let p = Partition::strips(72, 3);
        for r in 0..3 {
            let l = build_local(&data, &p, r);
            let plan = HaloPlan::build(&l);
            for g in &plan.groups {
                // Slot per touched cell, stable across the group.
                let mut cell_of_slot: Vec<Option<u32>> = vec![None; g.nslots];
                for (&e, &(s1, s2)) in g.edges.iter().zip(&g.slots) {
                    let (c1, c2) = l.edge_cells[e as usize];
                    for (s, c) in [(s1, c1), (s2, c2)] {
                        match cell_of_slot[s as usize] {
                            None => cell_of_slot[s as usize] = Some(c),
                            Some(prev) => assert_eq!(prev, c, "slot reused across cells"),
                        }
                    }
                }
                assert!(cell_of_slot.iter().all(|c| c.is_some()), "unused slot");
                // Merge entries are exactly the owned-side slots.
                for &(s, c) in &g.merge {
                    assert_eq!(cell_of_slot[s as usize], Some(c));
                    assert!((c as usize) < l.nowned);
                }
                let owned_slots =
                    cell_of_slot.iter().flatten().filter(|&&c| (c as usize) < l.nowned).count();
                assert_eq!(g.merge.len(), owned_slots);
                // Send slots point at the halo cells in import order.
                let halos = &l.imports.iter().find(|(p, _)| *p == g.peer).unwrap().1;
                for (&s, &h) in g.send_slots.iter().zip(halos.iter()) {
                    assert_eq!(cell_of_slot[s as usize], Some(h));
                }
            }
        }
    }

    #[test]
    fn single_rank_has_no_halo() {
        let data = mesh_data();
        let p = Partition::strips(72, 1);
        let l = build_local(&data, &p, 0);
        assert_eq!(l.nowned, 72);
        assert_eq!(l.ncells_local(), 72);
        assert!(l.imports.is_empty());
        assert!(l.exports.is_empty());
        // Local ids equal global ids.
        assert!(l.cell_l2g.iter().enumerate().all(|(i, &g)| i == g as usize));
    }
}
