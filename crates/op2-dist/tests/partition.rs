//! The local edge order a rank's slice is declared in: interior edges (both
//! cells owned) first, then the halo edges, each class in assignment
//! (global) order, so that `HaloPlan::interior` is a prefix the march runs in
//! windows and every halo group keeps the edges, and so the scratch slots,
//! it had. Checked over a generated and a shuffled numbering, each also
//! RCM-renumbered, on 1–4 ranks. A 1-rank march, whose edges are all
//! interior, is still the natural serial order bit for bit.

use op2_airfoil::mesh::MeshData;
use op2_airfoil::{AirfoilLoops, FlowConstants, Mesh, MeshBuilder};
use op2_core::serial::execute_natural;
use op2_dist::partition::build_local;
use op2_dist::{run_distributed_opts, DistOptions, HaloPlan, LocalMesh, Partition};

/// `(name, mesh, strips over it)`: 24×12 as generated and shuffled, each
/// also RCM-renumbered with its partition moved along.
fn cases(nranks: usize) -> Vec<(String, MeshData, Partition)> {
    let base = MeshBuilder::channel(24, 12).data();
    let shuffled = base.shuffled(7).0;
    let mut out = Vec::new();
    for (name, data) in [("24x12", base), ("shuffled", shuffled)] {
        let part = Partition::strips(data.ncells(), nranks);
        let (rdata, ren) = data.renumber_rcm();
        let rpart = part.renumbered(&ren.cells);
        out.push((name.to_string(), data, part));
        out.push((format!("{name}+rcm"), rdata, rpart));
    }
    out
}

/// An edge by what it joins: its two nodes and its two global cells.
type Joins = [u32; 4];

fn local_edge(l: &LocalMesh, e: usize) -> Joins {
    let t = &l.tables;
    let cell = |k: usize| l.cell_l2g[t.edge_cells[2 * e + k] as usize];
    [
        t.edge_nodes[2 * e],
        t.edge_nodes[2 * e + 1],
        cell(0),
        cell(1),
    ]
}

#[test]
fn interior_edges_come_first_and_groups_keep_assignment_order() {
    for nranks in 1..=4 {
        for (name, data, part) in cases(nranks) {
            for rank in 0..nranks {
                let case = format!("{name}, {nranks} ranks, rank {rank}");
                let l = build_local(&data, &part, rank);
                let plan = HaloPlan::build(&l);
                let owns = |c: u32| part.owner(c as usize) == rank;
                // What the rank is assigned, in assignment order.
                let (interior, halo): (Vec<Joins>, Vec<Joins>) = (0..data.nedges())
                    .map(|e| {
                        let (n, c) = (&data.edge_nodes[2 * e..], &data.edge_cells[2 * e..]);
                        [n[0], n[1], c[0], c[1]]
                    })
                    .filter(|j| owns(j[2]))
                    .partition(|j| owns(j[3]));
                let local: Vec<Joins> = (0..l.tables.nedges()).map(|e| local_edge(&l, e)).collect();
                assert_eq!(plan.interior, 0..interior.len(), "{case}: interior prefix");
                assert_eq!(
                    local[plan.interior.clone()],
                    interior[..],
                    "{case}: interior order"
                );

                // One import list, one message, per peer, ascending.
                let peers: Vec<usize> = l.imports.iter().map(|(p, _)| *p).collect();
                assert!(
                    peers.windows(2).all(|w| w[0] < w[1]),
                    "{case}: import peers {peers:?}"
                );
                let mut grouped = 0;
                for (g, (peer, halos)) in plan.groups.iter().zip(&l.imports) {
                    assert_eq!(g.peer, *peer, "{case}");
                    let run: Vec<u32> = g.halos.clone().map(|h| h as u32).collect();
                    assert_eq!(&run, halos, "{case}: peer {peer}'s halo cells");
                    let want: Vec<Joins> = halo
                        .iter()
                        .filter(|j| part.owner(j[3] as usize) == *peer)
                        .copied()
                        .collect();
                    let got: Vec<Joins> = g
                        .edges
                        .iter()
                        .map(|&e| local_edge(&l, e as usize))
                        .collect();
                    assert_eq!(got, want, "{case}: peer {peer}'s edges");
                    // Scratch slots are handed out by first touch.
                    let mut touched: Vec<u32> = Vec::new();
                    for (&e, &(s1, s2)) in g.edges.iter().zip(&g.slots) {
                        let cells = &l.tables.edge_cells[2 * e as usize..];
                        for (c, s) in [(cells[0], s1), (cells[1], s2)] {
                            let slot = touched.iter().position(|&t| t == c).unwrap_or_else(|| {
                                touched.push(c);
                                touched.len() - 1
                            });
                            assert_eq!(s as usize, slot, "{case}: slot of local cell {c}");
                        }
                    }
                    assert_eq!(g.nslots, touched.len(), "{case}");
                    grouped += got.len();
                }
                assert_eq!(grouped, halo.len(), "{case}: every halo edge in a group");
            }
        }
    }
}

#[test]
fn one_rank_march_is_the_natural_serial_order_bit_for_bit() {
    let consts = FlowConstants::default();
    let niter = 4;
    for (name, data, part) in cases(1) {
        let mesh = Mesh::from_data(data.clone(), &consts);
        mesh.add_pulse(1.0, 0.5, 0.25, 0.2, &consts);
        let q0 = mesh.p_q.to_vec();
        let dist = run_distributed_opts(
            &data,
            &consts,
            &q0,
            &part,
            niter,
            1,
            &DistOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));

        let loops = AirfoilLoops::new(&mesh, &consts);
        let mut rms = Vec::new();
        for _ in 0..niter {
            execute_natural(&loops.save_soln);
            let mut sum = 0.0;
            for _stage in 0..2 {
                execute_natural(&loops.adt_calc);
                execute_natural(&loops.res_calc);
                execute_natural(&loops.bres_calc);
                sum += execute_natural(&loops.update)[0];
            }
            rms.push((sum / mesh.ncells() as f64).sqrt());
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&dist.final_q),
            bits(&mesh.p_q.to_vec()),
            "{name}: final q"
        );
        let dist_rms: Vec<f64> = dist.rms.iter().map(|&(_, r)| r).collect();
        assert_eq!(bits(&dist_rms), bits(&rms), "{name}: rms history");
    }
}
