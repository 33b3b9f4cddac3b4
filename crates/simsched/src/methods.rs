//! Task-graph builders for the four execution strategies.
//!
//! All builders emit the *same work* (the block costs of the real plans) and
//! take loop order from the loops' declared dat reads and writes through
//! [`op2_core::deps`], so they model any `ParLoop` sequence. They differ only
//! in what the paper varies:
//!
//! | method | chunking | placement | per-color sync | inter-loop sync |
//! |---|---|---|---|---|
//! | `OmpForkJoin` | one chunk per thread (Fig. 5 static schedule) | pinned | fork + barrier | blocking driver |
//! | `ForEachAuto` | auto-partitioner (1% serial probe, then fine chunks) | stealing | latch | blocking driver |
//! | `ForEachStatic` | user static chunk ≈ one per thread (Fig. 7) | stealing | latch | blocking driver |
//! | `AsyncFutures` | per-thread chunks (Fig. 8 computes start/finish from the thread count) | stealing | latch | futures + driver `get()` per producer, at its first consumer (Fig. 10) |
//! | `Dataflow` | per-block tasks (Fig. 13 iterates `blockIdx`) | stealing | continuation | automatic DAG, no driver waits |

use serde::{Deserialize, Serialize};

use op2_core::deps::{by_producer, Deps};

use crate::graph::{TaskGraph, TaskId, TaskKind};
use crate::machine::MachineParams;
use crate::workload::{IterationSpec, LoopSpec};

/// The execution strategies compared in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SimMethod {
    /// `#pragma omp parallel for` baseline.
    OmpForkJoin,
    /// `for_each(par)` with the auto-partitioner (§III-A1).
    ForEachAuto,
    /// `for_each(par)` with a static chunk size (§III-A1).
    ForEachStatic,
    /// `async` + `for_each(par(task))` with manual `get()`s (§III-A2).
    AsyncFutures,
    /// `dataflow` with the modified OP2 API (§III-B).
    Dataflow,
}

impl SimMethod {
    /// All methods in presentation order.
    pub fn all() -> [SimMethod; 5] {
        [
            SimMethod::OmpForkJoin,
            SimMethod::ForEachAuto,
            SimMethod::ForEachStatic,
            SimMethod::AsyncFutures,
            SimMethod::Dataflow,
        ]
    }

    /// Short label used in figures.
    pub fn label(&self) -> &'static str {
        match self {
            SimMethod::OmpForkJoin => "omp",
            SimMethod::ForEachAuto => "foreach-auto",
            SimMethod::ForEachStatic => "foreach-static",
            SimMethod::AsyncFutures => "async",
            SimMethod::Dataflow => "dataflow",
        }
    }
}

/// Split `costs` into at most `n` contiguous groups (cost sums).
fn group_contiguous(costs: &[u64], n: usize) -> Vec<u64> {
    let n = n.max(1);
    let per = costs.len().div_ceil(n).max(1);
    costs.chunks(per).map(|c| c.iter().sum()).collect()
}

/// One chunk per thread (OpenMP static / Fig. 8 manual partitioning).
fn coarse_chunks(costs: &[u64], threads: usize) -> Vec<u64> {
    group_contiguous(costs, threads)
}

/// ~4 chunks per thread (HPX default chunker / per-block dataflow tasks).
fn fine_chunks(costs: &[u64], threads: usize) -> Vec<u64> {
    group_contiguous(costs, 4 * threads)
}

/// Emit one synchronized parallel region (one plan color) and return the id
/// of its completion node.
#[allow(clippy::too_many_arguments)]
fn region(
    g: &mut TaskGraph,
    chunk_costs: &[u64],
    deps: &[TaskId],
    entry_cost: u64,
    exit_cost: u64,
    per_task_extra: u64,
    pinned: bool,
) -> TaskId {
    let entry = g.add_kind(entry_cost, TaskKind::Sync, None, deps);
    let chunks: Vec<TaskId> = chunk_costs
        .iter()
        .enumerate()
        .map(|(i, &c)| g.add(c + per_task_extra, pinned.then_some(i), &[entry]))
        .collect();
    g.add_kind(exit_cost, TaskKind::Sync, None, &chunks)
}

/// Emit a whole loop (all colors, chained) and return its completion id.
#[allow(clippy::too_many_arguments)]
fn emit_loop(
    g: &mut TaskGraph,
    loop_: &LoopSpec,
    deps: &[TaskId],
    threads: usize,
    m: &MachineParams,
    method: SimMethod,
) -> TaskId {
    let hpx_extra = m.dispatch_ns + m.hpx_task_extra_ns;
    let omp_extra = m.dispatch_ns;
    if loop_.colors.is_empty() {
        // Empty set: the loop is a no-op joining its dependencies.
        return g.add(0, None, deps);
    }
    let mut prev: Vec<TaskId> = deps.to_vec();
    let mut last = 0;
    for color in &loop_.colors {
        last = match method {
            SimMethod::OmpForkJoin => region(
                g,
                &coarse_chunks(color, threads),
                &prev,
                m.fork_cost(threads),
                m.barrier_cost(threads),
                omp_extra,
                true,
            ),
            SimMethod::ForEachStatic => region(
                g,
                &coarse_chunks(color, threads),
                &prev,
                m.foreach_entry_ns,
                m.latch_cost(threads),
                hpx_extra,
                false,
            ),
            SimMethod::ForEachAuto => {
                // The auto-partitioner first runs ~1% of the color serially
                // to estimate a chunk size (the paper: "sequentially
                // executing 1% of the loop").
                let total: u64 = color.iter().sum();
                let probe_cost = (total as f64 * m.auto_probe_fraction) as u64;
                let probe = g.add_kind(probe_cost, TaskKind::Probe, None, &prev);
                let scaled: Vec<u64> = fine_chunks(color, threads)
                    .iter()
                    .map(|&c| (c as f64 * (1.0 - m.auto_probe_fraction)) as u64)
                    .collect();
                region(
                    g,
                    &scaled,
                    &[probe],
                    m.foreach_entry_ns,
                    m.latch_cost(threads),
                    hpx_extra,
                    false,
                )
            }
            SimMethod::AsyncFutures => region(
                g,
                &coarse_chunks(color, threads),
                &prev,
                m.latch_cost(threads) / 2,
                m.latch_cost(threads),
                hpx_extra,
                false,
            ),
            SimMethod::Dataflow => region(
                g,
                &fine_chunks(color, threads),
                &prev,
                m.dataflow_node_ns,
                m.dataflow_node_ns,
                hpx_extra,
                false,
            ),
        };
        prev = vec![last];
    }
    last
}

/// Build the task graph of `niter` iterations of `spec` under `method`.
///
/// Loop order comes from the loops' declared reads and writes through
/// [`op2_core::deps`]. Blocking methods chain the program. Dataflow gives
/// each loop the rule's edges. Async routes each edge through a driver `get`
/// of the producer, made the first time a later loop needs it (newest
/// producer first, the order of Fig. 10's hand placement), and ends with a
/// fence that gets every loop no later loop needed.
pub fn build_graph(
    method: SimMethod,
    spec: &IterationSpec,
    niter: usize,
    threads: usize,
    m: &MachineParams,
) -> TaskGraph {
    let mut g = TaskGraph::new();
    let mut deps = Deps::default();
    // Per program position: its completion node and (async) its driver get.
    let mut done: Vec<TaskId> = Vec::new();
    let mut got: Vec<Option<TaskId>> = Vec::new();
    let get = |g: &mut TaskGraph, dep: TaskId| g.add_kind(m.get_latency_ns, TaskKind::Driver, None, &[dep]);
    for (i, l) in (0..niter).flat_map(|_| &spec.program).enumerate() {
        let before: Vec<TaskId> = match method {
            SimMethod::OmpForkJoin | SimMethod::ForEachAuto | SimMethod::ForEachStatic => {
                done.last().copied().into_iter().collect()
            }
            SimMethod::AsyncFutures | SimMethod::Dataflow => {
                let edges = deps.record(&l.reads, &l.writes, i);
                let producers: Vec<usize> = by_producer(edges).map(|e| e[0].producer).collect();
                if method == SimMethod::Dataflow {
                    producers.iter().map(|&p| done[p]).collect()
                } else {
                    for &p in producers.iter().rev() {
                        if got[p].is_none() {
                            got[p] = Some(get(&mut g, done[p]));
                        }
                    }
                    producers.iter().filter_map(|&p| got[p]).collect()
                }
            }
        };
        done.push(emit_loop(&mut g, l, &before, threads, m, method));
        got.push(None);
    }
    if method == SimMethod::AsyncFutures {
        for p in (0..done.len()).filter(|&p| got[p].is_none()) {
            get(&mut g, done[p]);
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::simulate;
    use crate::workload::airfoil_workload;

    /// Airfoil's graph as it was placed by hand before [`build_graph`]
    /// derived it: Fig. 10's `get()`s, and the same edges for dataflow.
    fn hand_graph(
        method: SimMethod,
        spec: &IterationSpec,
        niter: usize,
        threads: usize,
        m: &MachineParams,
    ) -> TaskGraph {
        let [save, adt, res, bres, update] = &spec.program[..5] else { unreachable!() };
        let mut g = TaskGraph::new();
        match method {
            SimMethod::OmpForkJoin | SimMethod::ForEachAuto | SimMethod::ForEachStatic => {
                let mut prev: Vec<TaskId> = Vec::new();
                for _ in 0..niter {
                    for l in [save, adt, res, bres, update, adt, res, bres, update] {
                        prev = vec![emit_loop(&mut g, l, &prev, threads, m, method)];
                    }
                }
            }
            SimMethod::AsyncFutures | SimMethod::Dataflow => {
                let get = if method == SimMethod::AsyncFutures { m.get_latency_ns } else { 0 };
                let wait = |g: &mut TaskGraph, dep: TaskId| -> TaskId {
                    if get > 0 {
                        g.add_kind(get, TaskKind::Driver, None, &[dep])
                    } else {
                        dep
                    }
                };
                let mut prev_update: Option<TaskId> = None;
                for _ in 0..niter {
                    let start: Vec<TaskId> = prev_update.iter().copied().collect();
                    let save = emit_loop(&mut g, save, &start, threads, m, method);
                    let mut upd = None;
                    for stage in 0..2 {
                        let adt_dep: Vec<TaskId> = match (stage, upd, prev_update) {
                            (0, _, Some(p)) => vec![p],
                            (1, Some(u), _) => vec![u],
                            _ => vec![],
                        };
                        let adt = emit_loop(&mut g, adt, &adt_dep, threads, m, method);
                        let adt_w = wait(&mut g, adt);
                        let res = emit_loop(&mut g, res, &[adt_w], threads, m, method);
                        let res_w = wait(&mut g, res);
                        let bres = emit_loop(&mut g, bres, &[res_w], threads, m, method);
                        let mut update_deps = vec![wait(&mut g, bres)];
                        if stage == 0 {
                            update_deps.push(wait(&mut g, save));
                        }
                        let u = emit_loop(&mut g, update, &update_deps, threads, m, method);
                        upd = Some(if method == SimMethod::AsyncFutures { wait(&mut g, u) } else { u });
                    }
                    prev_update = upd;
                }
            }
        }
        g
    }

    /// `reach[t]`: the tasks reachable from task `t`, as a bitset.
    fn reachability(g: &TaskGraph) -> Vec<Vec<u64>> {
        let words = g.len().div_ceil(64);
        let mut reach = vec![vec![0u64; words]; g.len()];
        for t in (0..g.len()).rev() {
            for &s in g.successors_of(t) {
                let below = std::mem::take(&mut reach[s]);
                for (w, b) in reach[t].iter_mut().zip(&below) {
                    *w |= b;
                }
                reach[t][s / 64] |= 1 << (s % 64);
                reach[s] = below;
            }
        }
        reach
    }

    /// The derived graph is the hand-placed one: the same tasks, in the same
    /// order, the same reachability, and the same simulation.
    #[test]
    fn derived_graph_equals_hand_placement() {
        let s = airfoil_workload(24, 12, 32);
        let m = MachineParams::default();
        for method in SimMethod::all() {
            for t in [1, 2, 32] {
                let (derived, hand) = (build_graph(method, &s, 2, t, &m), hand_graph(method, &s, 2, t, &m));
                let label = format!("{} at {t}", method.label());
                assert_eq!(derived.len(), hand.len(), "{label}");
                for id in 0..hand.len() {
                    let (d, h) = (derived.task(id), hand.task(id));
                    assert_eq!((d.duration_ns, d.pinned, d.kind), (h.duration_ns, h.pinned, h.kind), "{label}: task {id}");
                }
                assert!(reachability(&derived) == reachability(&hand), "{label}: reachability");
                let (d, h) = (simulate(&derived, t, &m), simulate(&hand, t, &m));
                assert_eq!((d.makespan_ns, d.busy_ns), (h.makespan_ns, h.busy_ns), "{label}");
            }
        }
    }

    /// Any app's step gives its graph: shallow water's, with no code of its
    /// own. `swe_flux` only reads what `swe_dt` reads, so it does not wait
    /// on it; `swe_update` reads `dt`, which `swe_dt`'s reduction sets, and
    /// overwrites `w`, which `swe_dt` read.
    #[test]
    fn shallow_water_graph_from_its_loops() {
        let app = op2_swe::SweApp::new(op2_swe::SweConfig { imax: 16, jmax: 8, ..Default::default() });
        let costs =
            [("swe_save", 25), ("swe_dt", 40), ("swe_flux", 120), ("swe_bflux", 90), ("swe_update", 50)];
        let cost = |name: &str| costs.iter().find(|c| c.0 == name).expect("an SWE loop").1;
        let spec = IterationSpec::of(app.step(), app.mesh.ncells(), &op2_core::PlanCache::new(), 16, cost);
        let (global, _) = app.step().host(1).expect("swe_dt's reduction sets a global");
        assert_eq!(global.name(), "dt");
        assert_eq!(spec.program[1].writes, [global.id()], "swe_dt writes dt alone");
        assert!(spec.program[4].reads.contains(&global.id()), "swe_update reads dt");
        let m = MachineParams::default();
        let g = build_graph(SimMethod::Dataflow, &spec, 1, 4, &m);
        // Dataflow adds no task between loops: each loop's completion task
        // is the last of the tasks it emits on its own.
        let ends: Vec<TaskId> = spec
            .program
            .iter()
            .scan(0, |next, l| {
                *next += emit_loop(&mut TaskGraph::new(), l, &[], 4, &m, SimMethod::Dataflow) + 1;
                Some(*next - 1)
            })
            .collect();
        assert_eq!(ends.last(), Some(&(g.len() - 1)));
        let reach = reachability(&g);
        let follows = |a: usize, b: usize| reach[a][b / 64] >> (b % 64) & 1 == 1;
        let [save, dt, flux, _bflux, update] = ends[..] else { unreachable!() };
        assert!(!follows(dt, flux), "swe_flux must not wait on swe_dt");
        assert!(follows(dt, update), "swe_update reads dt, which swe_dt sets");
        assert!(follows(save, update));
        for method in SimMethod::all() {
            let g = build_graph(method, &spec, 2, 4, &m);
            assert!(simulate(&g, 4, &m).makespan_ns > 0, "{}", method.label());
        }
    }

    fn spec() -> IterationSpec {
        airfoil_workload(80, 40, 64)
    }

    #[test]
    fn all_methods_execute_same_work() {
        let s = spec();
        let m = MachineParams::default();
        // Kernel work (excluding overhead nodes) must be ≥ the iteration
        // work for every method; overheads differ.
        let base: u64 = s.iteration_work_ns();
        for method in SimMethod::all() {
            let g = build_graph(method, &s, 1, 4, &m);
            assert!(
                g.total_work_ns() >= base,
                "{}: {} < {base}",
                method.label(),
                g.total_work_ns()
            );
            // And not wildly more (overheads bounded by 10%+probe).
            // Fine-grained methods pay per-task dispatch on many small
            // blocks; bound the total overhead at 25% on this small mesh
            // (it is <2% at the paper's mesh scale).
            assert!(
                g.total_work_ns() < base + base / 4,
                "{}: overhead out of hand ({} vs {base})",
                method.label(),
                g.total_work_ns()
            );
        }
    }

    #[test]
    fn graphs_simulate_without_cycles() {
        let s = spec();
        let m = MachineParams::default();
        for method in SimMethod::all() {
            for t in [1, 2, 32] {
                let g = build_graph(method, &s, 2, t, &m);
                let r = simulate(&g, t, &m);
                assert!(r.makespan_ns > 0, "{} at {t}", method.label());
            }
        }
    }

    #[test]
    fn one_thread_near_parity() {
        // The paper: "Airfoil had the same performance using HPX and OpenMP
        // running on 1 thread". Parity is a property of realistic mesh sizes
        // (fixed overheads amortize), so use a larger mesh here.
        let s = airfoil_workload(100, 100, 128);
        let m = MachineParams::default();
        let omp = simulate(&build_graph(SimMethod::OmpForkJoin, &s, 3, 1, &m), 1, &m).makespan_ns;
        for method in [SimMethod::AsyncFutures, SimMethod::Dataflow, SimMethod::ForEachStatic] {
            let t = simulate(&build_graph(method, &s, 3, 1, &m), 1, &m).makespan_ns;
            let ratio = t as f64 / omp as f64;
            assert!(
                (0.97..=1.03).contains(&ratio),
                "{} vs omp at 1 thread: ratio {ratio}",
                method.label()
            );
        }
    }

    #[test]
    fn chunk_helpers() {
        assert_eq!(coarse_chunks(&[1, 2, 3, 4, 5], 2), vec![6, 9]);
        assert_eq!(coarse_chunks(&[1, 2], 8).len(), 2);
        assert_eq!(fine_chunks(&[1; 16], 2).len(), 8);
        assert_eq!(group_contiguous(&[5], 3), vec![5]);
    }
}
