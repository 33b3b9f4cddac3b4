//! Unstructured-mesh generation and I/O.
//!
//! The generator produces a structured `imax × jmax` quad grid over a
//! rectangular channel, *represented fully unstructured*: explicit sets for
//! nodes / edges / boundary edges / cells and explicit connectivity tables —
//! exactly the representation the original `new_grid.dat` provides for the
//! NACA0012 mesh. Interior edges carry two adjacent cells (`pecell`),
//! boundary edges one (`pbecell`) plus a boundary-condition code
//! (wall on top/bottom, far field on left/right).
//!
//! Orientation invariants (relied on by the kernels, verified by tests):
//! for an interior edge with nodes `(n1, n2)`, the vector
//! `(y1−y2, −(x1−x2))` is the outward normal of `pecell[0]`; for a boundary
//! edge it points out of the domain.

use op2_core::renumber::adjacency_from_pairs;
use op2_core::{Dat, Layout, Map, MeshPermutation, Set};
use serde::{Deserialize, Serialize};

use crate::constants::FlowConstants;
use crate::kernels::{BOUND_FARFIELD, BOUND_WALL};

/// Mesh construction knobs: the storage [`Layout`] for the dats and whether
/// to run the RCM renumbering preprocessing pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct MeshOptions {
    /// Storage layout for every mesh dat (state, coordinates, residuals).
    pub layout: Layout,
    /// Renumber cells with RCM (and nodes/edges/bedges to follow) before
    /// declaring sets and maps. The applied permutations are kept on
    /// [`Mesh::renumbering`] so results can be mapped back to original ids.
    pub renumber: bool,
}

/// The permutations applied by the renumbering pass, one per mesh set
/// (`perm[new] = old` convention throughout — see
/// [`op2_core::MeshPermutation`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeshRenumbering {
    /// Cell permutation (RCM over the cell-adjacency graph).
    pub cells: MeshPermutation,
    /// Node permutation (first touch by the new cell order).
    pub nodes: MeshPermutation,
    /// Interior-edge permutation (sorted by lowest adjacent new cell).
    pub edges: MeshPermutation,
    /// Boundary-edge permutation (sorted by adjacent new cell).
    pub bedges: MeshPermutation,
}

/// Raw mesh tables — the serializable on-disk form (the `new_grid.dat`
/// analogue).
#[derive(Debug, Clone, Default, Serialize, Deserialize, PartialEq)]
pub struct MeshData {
    /// Cells in x.
    pub imax: usize,
    /// Cells in y.
    pub jmax: usize,
    /// Node coordinates, 2 per node.
    pub coords: Vec<f64>,
    /// Edge → node (2 per edge).
    pub edge_nodes: Vec<u32>,
    /// Edge → cell (2 per edge).
    pub edge_cells: Vec<u32>,
    /// Boundary edge → node (2 per bedge).
    pub bedge_nodes: Vec<u32>,
    /// Boundary edge → cell (1 per bedge).
    pub bedge_cells: Vec<u32>,
    /// Boundary condition code per bedge.
    pub bound: Vec<i32>,
    /// Cell → corner nodes (4 per cell, counter-clockwise).
    pub cell_nodes: Vec<u32>,
}

impl MeshData {
    /// Number of nodes.
    pub fn nnodes(&self) -> usize {
        self.coords.len() / 2
    }

    /// Number of cells.
    pub fn ncells(&self) -> usize {
        self.cell_nodes.len() / 4
    }

    /// Number of interior edges.
    pub fn nedges(&self) -> usize {
        self.edge_nodes.len() / 2
    }

    /// Number of boundary edges.
    pub fn nbedges(&self) -> usize {
        self.bedge_nodes.len() / 2
    }

    /// Cell-adjacency lists induced by the interior edges (two cells are
    /// adjacent iff an edge connects them); sorted, deduplicated.
    pub fn cell_adjacency(&self) -> Vec<Vec<u32>> {
        adjacency_from_pairs(self.ncells(), &self.edge_cells)
    }

    /// Apply an explicit per-set renumbering: rows of every table move to
    /// their set's new order and every stored id is relabelled into the
    /// target set's new ids. The mesh this returns is topologically
    /// identical — only names changed.
    pub fn permuted(&self, ren: &MeshRenumbering) -> MeshData {
        MeshData {
            imax: self.imax,
            jmax: self.jmax,
            coords: ren.nodes.permute_rows(&self.coords, 2),
            edge_nodes: ren.nodes.relabel(&ren.edges.permute_rows(&self.edge_nodes, 2)),
            edge_cells: ren.cells.relabel(&ren.edges.permute_rows(&self.edge_cells, 2)),
            bedge_nodes: ren.nodes.relabel(&ren.bedges.permute_rows(&self.bedge_nodes, 2)),
            bedge_cells: ren.cells.relabel(&ren.bedges.permute_rows(&self.bedge_cells, 1)),
            bound: ren.bedges.permute_rows(&self.bound, 1),
            cell_nodes: ren.nodes.relabel(&ren.cells.permute_rows(&self.cell_nodes, 4)),
        }
    }

    /// The RCM preprocessing pass: reorder cells by reverse Cuthill-McKee
    /// over the cell-adjacency graph, then renumber nodes by first touch in
    /// the new cell order and sort interior/boundary edges by their lowest
    /// adjacent new cell (original id breaks every tie, so the pass is
    /// deterministic). Returns the renumbered mesh and the applied
    /// permutations.
    pub fn renumber_rcm(&self) -> (MeshData, MeshRenumbering) {
        let cells = MeshPermutation::rcm(&self.cell_adjacency());

        // Nodes: first touch by the new cell order (corner order preserved),
        // untouched nodes appended in original order.
        let nnodes = self.nnodes();
        let mut node_new = vec![u32::MAX; nnodes];
        let mut node_perm = Vec::with_capacity(nnodes);
        for new_c in 0..cells.len() {
            let old_c = cells.old_of(new_c);
            for k in 0..4 {
                let nd = self.cell_nodes[old_c * 4 + k];
                if node_new[nd as usize] == u32::MAX {
                    node_new[nd as usize] = node_perm.len() as u32;
                    node_perm.push(nd);
                }
            }
        }
        for nd in 0..nnodes as u32 {
            if node_new[nd as usize] == u32::MAX {
                node_new[nd as usize] = node_perm.len() as u32;
                node_perm.push(nd);
            }
        }
        let nodes = MeshPermutation::from_perm(node_perm);

        // Edges follow their lowest-ranked adjacent cell; bedges their cell.
        let edges = sorted_by_cell(self.edge_cells.chunks_exact(2).map(|pair| {
            cells.new_of(pair[0] as usize).min(cells.new_of(pair[1] as usize))
        }));
        let bedges = sorted_by_cell(self.bedge_cells.iter().map(|&c| cells.new_of(c as usize)));

        let ren = MeshRenumbering {
            cells,
            nodes,
            edges,
            bedges,
        };
        (self.permuted(&ren), ren)
    }

    /// Deterministically shuffle every set's numbering (seeded LCG
    /// Fisher-Yates). Mesh generators emit artificially well-ordered
    /// numberings; benchmarks use this to recreate the badly-ordered
    /// numbering a real mesh file or partitioner hands OP2, which is what
    /// the RCM pass exists to repair.
    pub fn shuffled(&self, seed: u64) -> (MeshData, MeshRenumbering) {
        fn shuffle_perm(n: usize, state: &mut u64) -> MeshPermutation {
            let mut perm: Vec<u32> = (0..n as u32).collect();
            for i in (1..n).rev() {
                *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let j = (*state >> 33) as usize % (i + 1);
                perm.swap(i, j);
            }
            MeshPermutation::from_perm(perm)
        }
        let mut state = seed ^ 0x9e3779b97f4a7c15;
        let ren = MeshRenumbering {
            cells: shuffle_perm(self.ncells(), &mut state),
            nodes: shuffle_perm(self.nnodes(), &mut state),
            edges: shuffle_perm(self.nedges(), &mut state),
            bedges: shuffle_perm(self.nbedges(), &mut state),
        };
        (self.permuted(&ren), ren)
    }
}

/// The permutation that orders elements by `cell[id]`, then by id: one
/// packed `cell << 32 | id` key per element, computed once and sorted
/// (unique keys, so an unstable sort is the same order).
fn sorted_by_cell(cell: impl Iterator<Item = usize>) -> MeshPermutation {
    let mut keys: Vec<u64> = cell.enumerate().map(|(id, c)| ((c as u64) << 32) | id as u64).collect();
    keys.sort_unstable();
    MeshPermutation::from_perm(keys.into_iter().map(|k| k as u32).collect())
}

/// Generator for channel meshes.
#[derive(Debug, Clone)]
pub struct MeshBuilder {
    imax: usize,
    jmax: usize,
    length: f64,
    height: f64,
}

impl MeshBuilder {
    /// A channel of `imax × jmax` cells (at least 2×2).
    pub fn channel(imax: usize, jmax: usize) -> Self {
        MeshBuilder {
            imax: imax.max(2),
            jmax: jmax.max(2),
            length: 4.0,
            height: 1.0,
        }
    }

    /// Override the physical extents.
    pub fn extent(mut self, length: f64, height: f64) -> Self {
        self.length = length;
        self.height = height;
        self
    }

    /// Generate the raw tables.
    pub fn data(&self) -> MeshData {
        let (imax, jmax) = (self.imax, self.jmax);
        let nx = imax + 1;
        let node = |i: usize, j: usize| (j * nx + i) as u32;
        let cell = |i: usize, j: usize| (j * imax + i) as u32;
        let dx = self.length / imax as f64;
        let dy = self.height / jmax as f64;

        let mut coords = Vec::with_capacity(nx * (jmax + 1) * 2);
        for j in 0..=jmax {
            for i in 0..=imax {
                coords.push(i as f64 * dx);
                coords.push(j as f64 * dy);
            }
        }

        let mut cell_nodes = Vec::with_capacity(imax * jmax * 4);
        for j in 0..jmax {
            for i in 0..imax {
                cell_nodes.extend_from_slice(&[
                    node(i, j),
                    node(i + 1, j),
                    node(i + 1, j + 1),
                    node(i, j + 1),
                ]);
            }
        }

        let mut edge_nodes = Vec::new();
        let mut edge_cells = Vec::new();
        // Vertical interior edges between cells (i-1,j) and (i,j):
        // x1 = top node, x2 = bottom node ⇒ normal +x out of the left cell.
        for j in 0..jmax {
            for i in 1..imax {
                edge_nodes.extend_from_slice(&[node(i, j + 1), node(i, j)]);
                edge_cells.extend_from_slice(&[cell(i - 1, j), cell(i, j)]);
            }
        }
        // Horizontal interior edges between cells (i,j-1) and (i,j):
        // x1 = left node, x2 = right node ⇒ normal +y out of the bottom cell.
        for j in 1..jmax {
            for i in 0..imax {
                edge_nodes.extend_from_slice(&[node(i, j), node(i + 1, j)]);
                edge_cells.extend_from_slice(&[cell(i, j - 1), cell(i, j)]);
            }
        }

        let mut bedge_nodes = Vec::new();
        let mut bedge_cells = Vec::new();
        let mut bound = Vec::new();
        // Bottom wall (outward −y): x1 = right, x2 = left.
        for i in 0..imax {
            bedge_nodes.extend_from_slice(&[node(i + 1, 0), node(i, 0)]);
            bedge_cells.push(cell(i, 0));
            bound.push(BOUND_WALL);
        }
        // Top wall (outward +y): x1 = left, x2 = right.
        for i in 0..imax {
            bedge_nodes.extend_from_slice(&[node(i, jmax), node(i + 1, jmax)]);
            bedge_cells.push(cell(i, jmax - 1));
            bound.push(BOUND_WALL);
        }
        // Left far field (outward −x): x1 = bottom, x2 = top.
        for j in 0..jmax {
            bedge_nodes.extend_from_slice(&[node(0, j), node(0, j + 1)]);
            bedge_cells.push(cell(0, j));
            bound.push(BOUND_FARFIELD);
        }
        // Right far field (outward +x): x1 = top, x2 = bottom.
        for j in 0..jmax {
            bedge_nodes.extend_from_slice(&[node(imax, j + 1), node(imax, j)]);
            bedge_cells.push(cell(imax - 1, j));
            bound.push(BOUND_FARFIELD);
        }

        MeshData {
            imax,
            jmax,
            coords,
            edge_nodes,
            edge_cells,
            bedge_nodes,
            bedge_cells,
            bound,
            cell_nodes,
        }
    }

    /// Generate and wrap into OP2 declarations with flow dats initialized to
    /// the free stream of `consts`.
    pub fn build(&self, consts: &FlowConstants) -> Mesh {
        Mesh::from_data(self.data(), consts)
    }

    /// Like [`MeshBuilder::build`], but with explicit data-layout and
    /// renumbering options.
    pub fn build_with(&self, consts: &FlowConstants, opts: &MeshOptions) -> Mesh {
        Mesh::from_data_opts(self.data(), consts, opts)
    }
}

/// The Airfoil mesh as OP2 sets/maps/dats, with the flow state dats.
pub struct Mesh {
    /// Raw tables (kept for I/O round-trips and diagnostics).
    pub data: MeshData,
    /// Node set.
    pub nodes: Set,
    /// Interior edge set.
    pub edges: Set,
    /// Boundary edge set.
    pub bedges: Set,
    /// Cell set.
    pub cells: Set,
    /// Edge → nodes map (dim 2).
    pub pedge: Map,
    /// Edge → cells map (dim 2).
    pub pecell: Map,
    /// Boundary edge → nodes map (dim 2).
    pub pbedge: Map,
    /// Boundary edge → cell map (dim 1).
    pub pbecell: Map,
    /// Cell → corner nodes map (dim 4).
    pub pcell: Map,
    /// Node coordinates (dim 2).
    pub p_x: Dat<f64>,
    /// Boundary condition code per bedge (dim 1).
    pub p_bound: Dat<i32>,
    /// Cell state `(ρ, ρu, ρv, ρE)` (dim 4).
    pub p_q: Dat<f64>,
    /// Old cell state (dim 4).
    pub p_qold: Dat<f64>,
    /// Local time-step measure (dim 1).
    pub p_adt: Dat<f64>,
    /// Cell residual (dim 4).
    pub p_res: Dat<f64>,
    /// Data layout all `f64` dats were declared with.
    pub layout: Layout,
    /// Permutations applied by the RCM preprocessing pass, when enabled.
    /// `None` means the mesh keeps its original numbering.
    pub renumbering: Option<MeshRenumbering>,
}

impl Mesh {
    /// Wrap raw tables into OP2 declarations; flow state starts at the free
    /// stream. AoS layout, original numbering.
    pub fn from_data(data: MeshData, consts: &FlowConstants) -> Mesh {
        Mesh::from_data_opts(data, consts, &MeshOptions::default())
    }

    /// Wrap raw tables into OP2 declarations with explicit layout and
    /// renumbering options. When `opts.renumber` is set the RCM
    /// preprocessing pass runs first and the returned mesh (sets, maps,
    /// dats) lives entirely in the renumbered id space; the applied
    /// permutations are kept in [`Mesh::renumbering`] so results can be
    /// mapped back to the original numbering.
    pub fn from_data_opts(data: MeshData, consts: &FlowConstants, opts: &MeshOptions) -> Mesh {
        let (data, renumbering) = if opts.renumber {
            let (renumbered, ren) = data.renumber_rcm();
            (renumbered, Some(ren))
        } else {
            (data, None)
        };

        let tables = MeshData {
            imax: data.imax,
            jmax: data.jmax,
            coords: Vec::new(),
            edge_nodes: data.edge_nodes.clone(),
            edge_cells: data.edge_cells.clone(),
            bedge_nodes: data.bedge_nodes.clone(),
            bedge_cells: data.bedge_cells.clone(),
            bound: data.bound.clone(),
            cell_nodes: data.cell_nodes.clone(),
        };
        let layout = opts.layout;
        let nodes = Set::new("nodes", data.nnodes());
        let cells = Set::new("cells", data.ncells());
        let p_x = Dat::with_layout("p_x", &nodes, 2, layout, data.coords.clone());
        let q0 = consts.qinf.repeat(data.ncells());
        let state = [
            Dat::with_layout("p_q", &cells, 4, layout, q0),
            Dat::filled_with_layout("p_qold", &cells, 4, layout, 0.0),
            Dat::filled_with_layout("p_adt", &cells, 1, layout, 0.0),
            Dat::filled_with_layout("p_res", &cells, 4, layout, 0.0),
        ];
        Mesh { data, renumbering, ..Mesh::over(&p_x, tables, state) }
    }

    /// Declare a mesh over tables it takes, without copying them or any
    /// state: the nodes are `p_x`'s (shared; `tables.coords` is not read),
    /// the connectivity tables move into the maps, and `state` are the dats
    /// `[p_q, p_qold, p_adt, p_res]`, over one cell set and in `p_x`'s
    /// layout. What a rank of a distributed run declares over its slice. The
    /// result's `data` keeps `tables`' `imax` and `jmax` only.
    ///
    /// # Panics
    /// Panics unless the state dats share a cell set, are 4, 4, 1 and 4
    /// wide and in `p_x`'s layout, and every table fits its sets.
    pub fn over(p_x: &Dat<f64>, tables: MeshData, state: [Dat<f64>; 4]) -> Mesh {
        let [p_q, p_qold, p_adt, p_res] = state;
        let (nodes, cells, layout) = (p_x.set().clone(), p_q.set().clone(), p_x.layout());
        for (d, dim) in [(&p_q, 4), (&p_qold, 4), (&p_adt, 1), (&p_res, 4)] {
            let fits = d.set().same(&cells) && d.dim() == dim && d.layout() == layout;
            assert!(fits, "state dat {}: not {dim} wide, {layout}, over {}", d.name(), cells.name());
        }
        let edges = Set::new("edges", tables.nedges());
        let bedges = Set::new("bedges", tables.nbedges());
        let MeshData { imax, jmax, edge_nodes, edge_cells, bedge_nodes, bedge_cells, bound, cell_nodes, .. } =
            tables;
        Mesh {
            data: MeshData { imax, jmax, ..MeshData::default() },
            pedge: Map::new("pedge", &edges, &nodes, 2, edge_nodes),
            pecell: Map::new("pecell", &edges, &cells, 2, edge_cells),
            pbedge: Map::new("pbedge", &bedges, &nodes, 2, bedge_nodes),
            pbecell: Map::new("pbecell", &bedges, &cells, 1, bedge_cells),
            pcell: Map::new("pcell", &cells, &nodes, 4, cell_nodes),
            p_x: p_x.clone(),
            p_bound: Dat::new("p_bound", &bedges, 1, bound),
            p_q,
            p_qold,
            p_adt,
            p_res,
            nodes,
            edges,
            bedges,
            cells,
            layout,
            renumbering: None,
        }
    }

    /// Number of cells.
    pub fn ncells(&self) -> usize {
        self.cells.size()
    }

    /// Add a Gaussian pressure/density pulse centred at `(cx, cy)` with
    /// radius `r` and relative amplitude `amp` — a dynamic initial condition
    /// so the march actually does work.
    pub fn add_pulse(&self, cx: f64, cy: f64, r: f64, amp: f64, consts: &FlowConstants) {
        // Work in canonical AoS order regardless of the declared layout so
        // the produced state is bitwise independent of `self.layout`.
        let mut q = self.p_q.to_aos_vec();
        let coords = self.p_x.to_aos_vec();
        for c in 0..self.ncells() {
            // Cell centroid from its four corner nodes.
            let mut x = 0.0;
            let mut y = 0.0;
            for k in 0..4 {
                let n = self.pcell.at(c, k);
                x += coords[2 * n] / 4.0;
                y += coords[2 * n + 1] / 4.0;
            }
            let d2 = ((x - cx) * (x - cx) + (y - cy) * (y - cy)) / (r * r);
            let factor = 1.0 + amp * (-d2).exp();
            // Scale density and energy, keeping velocity (u, v) fixed.
            let u = q[4 * c + 1] / q[4 * c];
            let v = q[4 * c + 2] / q[4 * c];
            let rho = consts.qinf[0] * factor;
            let p = 1.0 * factor;
            q[4 * c] = rho;
            q[4 * c + 1] = rho * u;
            q[4 * c + 2] = rho * v;
            q[4 * c + 3] = p / consts.gm1 + 0.5 * rho * (u * u + v * v);
        }
        self.p_q.write_aos(&q);
    }

    /// The cell state in canonical AoS order and — when the mesh was
    /// renumbered — mapped back to the *original* cell numbering, so runs
    /// with different `MeshOptions` can be compared element-for-element.
    pub fn unrenumbered_q(&self) -> Vec<f64> {
        let q = self.p_q.to_aos_vec();
        match &self.renumbering {
            Some(ren) => ren.cells.unpermute_rows(&q, 4),
            None => q,
        }
    }

    /// Serialize the raw tables as JSON (the redistributable stand-in for
    /// `new_grid.dat`).
    pub fn save_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let json = serde_json::to_string(&self.data).expect("mesh serializes");
        std::fs::write(path, json)
    }

    /// Load raw tables from JSON and wrap them.
    pub fn load_json(path: &std::path::Path, consts: &FlowConstants) -> std::io::Result<Mesh> {
        let json = std::fs::read_to_string(path)?;
        let data: MeshData =
            serde_json::from_str(&json).map_err(|e| std::io::Error::other(e.to_string()))?;
        Ok(Mesh::from_data(data, consts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_consistent() {
        let m = MeshBuilder::channel(8, 4).build(&FlowConstants::default());
        assert_eq!(m.nodes.size(), 9 * 5);
        assert_eq!(m.cells.size(), 32);
        // Interior edges: vertical (imax-1)*jmax + horizontal imax*(jmax-1).
        assert_eq!(m.edges.size(), 7 * 4 + 8 * 3);
        // Boundary: 2*imax + 2*jmax.
        assert_eq!(m.bedges.size(), 2 * 8 + 2 * 4);
    }

    #[test]
    fn every_cell_has_four_distinct_ccw_nodes() {
        let m = MeshBuilder::channel(5, 3).build(&FlowConstants::default());
        let coords = m.p_x.data();
        for c in 0..m.ncells() {
            let n: Vec<usize> = (0..4).map(|k| m.pcell.at(c, k)).collect();
            let mut sorted = n.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "cell {c} has repeated nodes");
            // Shoelace area must be positive (counter-clockwise).
            let mut area = 0.0;
            for k in 0..4 {
                let (a, b) = (n[k], n[(k + 1) % 4]);
                area += coords[2 * a] * coords[2 * b + 1] - coords[2 * b] * coords[2 * a + 1];
            }
            assert!(area > 0.0, "cell {c} not counter-clockwise");
        }
    }

    #[test]
    fn interior_edge_normals_point_out_of_cell1() {
        let m = MeshBuilder::channel(6, 4).build(&FlowConstants::default());
        let coords = m.p_x.data();
        let centroid = |c: usize| {
            let mut x = 0.0;
            let mut y = 0.0;
            for k in 0..4 {
                let n = m.pcell.at(c, k);
                x += coords[2 * n] / 4.0;
                y += coords[2 * n + 1] / 4.0;
            }
            (x, y)
        };
        for e in 0..m.edges.size() {
            let n1 = m.pedge.at(e, 0);
            let n2 = m.pedge.at(e, 1);
            let (dx, dy) = (
                coords[2 * n1] - coords[2 * n2],
                coords[2 * n1 + 1] - coords[2 * n2 + 1],
            );
            let normal = (dy, -dx);
            let c1 = centroid(m.pecell.at(e, 0));
            let c2 = centroid(m.pecell.at(e, 1));
            let towards_c2 = (c2.0 - c1.0, c2.1 - c1.1);
            let dot = normal.0 * towards_c2.0 + normal.1 * towards_c2.1;
            assert!(dot > 0.0, "edge {e}: normal does not point from cell1 to cell2");
        }
    }

    #[test]
    fn boundary_edge_normals_point_outward() {
        let m = MeshBuilder::channel(6, 4).build(&FlowConstants::default());
        let coords = m.p_x.data();
        let (lx, ly) = (4.0, 1.0);
        for be in 0..m.bedges.size() {
            let n1 = m.pbedge.at(be, 0);
            let n2 = m.pbedge.at(be, 1);
            let (dx, dy) = (
                coords[2 * n1] - coords[2 * n2],
                coords[2 * n1 + 1] - coords[2 * n2 + 1],
            );
            let normal = (dy, -dx);
            // Midpoint → domain centre must oppose the normal.
            let mx = (coords[2 * n1] + coords[2 * n2]) / 2.0;
            let my = (coords[2 * n1 + 1] + coords[2 * n2 + 1]) / 2.0;
            let inward = (lx / 2.0 - mx, ly / 2.0 - my);
            let dot = normal.0 * inward.0 + normal.1 * inward.1;
            assert!(dot < 0.0, "bedge {be}: normal points inward");
        }
    }

    #[test]
    fn bound_codes_cover_walls_and_farfield() {
        let m = MeshBuilder::channel(8, 4).build(&FlowConstants::default());
        let bound = m.p_bound.data();
        let walls = bound.iter().filter(|&&b| b == BOUND_WALL).count();
        let ff = bound.iter().filter(|&&b| b == BOUND_FARFIELD).count();
        assert_eq!(walls, 16);
        assert_eq!(ff, 8);
    }

    #[test]
    fn json_roundtrip() {
        let data = MeshBuilder::channel(4, 3).data();
        let dir = std::env::temp_dir().join("op2_airfoil_mesh_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mesh.json");
        let consts = FlowConstants::default();
        let m = Mesh::from_data(data.clone(), &consts);
        m.save_json(&path).unwrap();
        let m2 = Mesh::load_json(&path, &consts).unwrap();
        assert_eq!(m2.data, data);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn pulse_changes_state_locally() {
        let consts = FlowConstants::default();
        let m = MeshBuilder::channel(16, 8).build(&consts);
        m.add_pulse(2.0, 0.5, 0.3, 0.1, &consts);
        let q = m.p_q.data();
        // Centre cell perturbed, far corner nearly unperturbed.
        let centre = 8 * 16 / 2 + 8; // roughly the middle cell row
        assert!(q[4 * centre] > consts.qinf[0] * 1.01);
        assert!((q[0] - consts.qinf[0]).abs() < 1e-3);
    }

    /// Geometric invariant under any renumbering: the multiset of cell
    /// areas (shoelace over corner nodes) is preserved, and every table
    /// entry stays in range.
    fn cell_areas(d: &MeshData) -> Vec<f64> {
        let mut areas: Vec<f64> = (0..d.ncells())
            .map(|c| {
                let mut a = 0.0;
                for k in 0..4 {
                    let i = d.cell_nodes[c * 4 + k] as usize;
                    let j = d.cell_nodes[c * 4 + (k + 1) % 4] as usize;
                    a += d.coords[2 * i] * d.coords[2 * j + 1]
                        - d.coords[2 * j] * d.coords[2 * i + 1];
                }
                a / 2.0
            })
            .collect();
        areas.sort_by(f64::total_cmp);
        areas
    }

    #[test]
    fn renumber_rcm_preserves_topology_and_reduces_bandwidth() {
        let data = MeshBuilder::channel(20, 10).data();
        // Start from a deterministically shuffled numbering so RCM has real
        // work to do (the generator's numbering is already banded).
        let (shuffled, _) = data.shuffled(7);
        let (ren_data, ren) = shuffled.renumber_rcm();

        assert_eq!(ren_data.ncells(), data.ncells());
        assert_eq!(ren_data.nnodes(), data.nnodes());
        assert_eq!(ren_data.nedges(), data.nedges());
        assert_eq!(ren_data.nbedges(), data.nbedges());
        assert_eq!(cell_areas(&ren_data), cell_areas(&data), "geometry changed");
        for &c in ren_data.edge_cells.iter().chain(&ren_data.bedge_cells) {
            assert!((c as usize) < ren_data.ncells());
        }
        for &n in ren_data.cell_nodes.iter().chain(&ren_data.edge_nodes) {
            assert!((n as usize) < ren_data.nnodes());
        }
        assert!(!ren.cells.is_identity(), "shuffled mesh must get reordered");

        // The point of the pass: the cell-graph bandwidth shrinks.
        let bw = |d: &MeshData| {
            let mut m = 0usize;
            for pair in d.edge_cells.chunks_exact(2) {
                m = m.max((pair[0] as isize - pair[1] as isize).unsigned_abs());
            }
            m
        };
        assert!(
            bw(&ren_data) < bw(&shuffled) / 2,
            "RCM should at least halve the shuffled bandwidth: {} -> {}",
            bw(&shuffled),
            bw(&ren_data)
        );

        // Determinism: the pass is a pure function of the tables.
        let (again, ren2) = shuffled.renumber_rcm();
        assert_eq!(again, ren_data);
        assert_eq!(ren2, ren);
    }

    /// A renumbered mesh is *different content* to the planner and tuner:
    /// its map tables differ, so the content-addressed topology hash must
    /// differ too — renumbered and original plans never alias in the cache.
    #[test]
    fn renumbering_changes_plan_cache_topology_hash() {
        use crate::loops::AirfoilLoops;
        use op2_core::PlanCache;

        let consts = FlowConstants::default();
        let base = MeshBuilder::channel(12, 6);
        let orig = base.build(&consts);
        let ren = base.build_with(
            &consts,
            &MeshOptions {
                renumber: true,
                ..Default::default()
            },
        );
        assert!(ren.renumbering.is_some());

        let cache = PlanCache::new();
        let lo = AirfoilLoops::new(&orig, &consts);
        let lr = AirfoilLoops::new(&ren, &consts);
        let to = cache.loop_topology(lo.res_calc.set(), lo.res_calc.args());
        let tr = cache.loop_topology(lr.res_calc.set(), lr.res_calc.args());
        assert_ne!(to, tr, "renumbered res_calc must not alias the original plan");

        // While two builds of the *same* renumbered mesh do alias.
        let ren2 = base.build_with(
            &consts,
            &MeshOptions {
                renumber: true,
                ..Default::default()
            },
        );
        let lr2 = AirfoilLoops::new(&ren2, &consts);
        assert_eq!(
            tr,
            cache.loop_topology(lr2.res_calc.set(), lr2.res_calc.args())
        );
    }
}
