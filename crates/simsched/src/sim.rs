//! Deterministic discrete-event list scheduling.
//!
//! Greedy scheduler: whenever a worker is idle and a task is ready, the task
//! starts immediately (work-conserving — the idealization of work stealing).
//! Tasks pinned to a worker (static OpenMP schedules) wait for *that* worker.
//! Ties are broken by ascending task id and ascending worker id, so results
//! are exactly reproducible.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};

use crate::graph::{TaskGraph, TaskId};
use crate::machine::MachineParams;
use crate::trace::TraceEvent;

/// Outcome of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Finish time of the last task, ns.
    pub makespan_ns: u64,
    /// Per-worker busy time, ns (scaled durations).
    pub busy_ns: Vec<u64>,
    /// Tasks executed (always the full graph).
    pub tasks_executed: usize,
}

impl SimResult {
    /// Machine utilization in [0, 1]: busy worker-time over elapsed
    /// worker-time.
    pub fn utilization(&self) -> f64 {
        if self.makespan_ns == 0 {
            return 1.0;
        }
        let busy: u64 = self.busy_ns.iter().sum();
        busy as f64 / (self.makespan_ns as f64 * self.busy_ns.len() as f64)
    }
}

/// Simulate `graph` on `nworkers` workers of machine `m`.
///
/// # Panics
/// Panics if the graph contains a dependency cycle.
pub fn simulate(graph: &TaskGraph, nworkers: usize, m: &MachineParams) -> SimResult {
    run(graph, nworkers, m, None)
}

/// The one event loop behind [`simulate`] and
/// [`crate::trace::simulate_traced`]: with `trace`, every task's placement
/// and timing is appended in completion order; the scheduling decisions are
/// the same either way.
pub(crate) fn run(
    graph: &TaskGraph,
    nworkers: usize,
    m: &MachineParams,
    mut trace: Option<&mut Vec<TraceEvent>>,
) -> SimResult {
    let nworkers = nworkers.max(1);
    let mut indegree = graph.indegrees();
    let mut ready_unpinned: BTreeSet<TaskId> = BTreeSet::new();
    let mut ready_pinned: Vec<VecDeque<TaskId>> = vec![VecDeque::new(); nworkers];
    for id in 0..graph.len() {
        if indegree[id] == 0 {
            enqueue(graph, id, nworkers, &mut ready_unpinned, &mut ready_pinned);
        }
    }

    // (finish_time, task, worker) completion events.
    let mut events: BinaryHeap<Reverse<(u64, TaskId, usize)>> = BinaryHeap::new();
    let mut idle: BTreeSet<usize> = (0..nworkers).collect();
    let mut busy_ns = vec![0u64; nworkers];
    // Start time of each worker's current task (read only when tracing).
    let mut started = vec![0u64; nworkers];
    let mut now = 0u64;
    let mut executed = 0usize;
    let mut makespan = 0u64;

    loop {
        // Assign ready tasks to idle workers, lowest worker id first.
        let idle_snapshot: Vec<usize> = idle.iter().copied().collect();
        for w in idle_snapshot {
            let task = ready_pinned[w]
                .pop_front()
                .or_else(|| ready_unpinned.pop_first());
            if let Some(tid) = task {
                let speed = m.speed(w);
                let scaled = (graph.task(tid).duration_ns as f64 / speed).round() as u64;
                busy_ns[w] += scaled;
                started[w] = now;
                idle.remove(&w);
                events.push(Reverse((now + scaled, tid, w)));
            }
        }

        let Some(Reverse((t, tid, w))) = events.pop() else {
            break;
        };
        now = t;
        makespan = makespan.max(t);
        idle.insert(w);
        executed += 1;
        if let Some(trace) = trace.as_deref_mut() {
            trace.push(TraceEvent { task: tid, worker: w, start_ns: started[w], end_ns: t });
        }
        for &s in graph.successors_of(tid) {
            indegree[s] -= 1;
            if indegree[s] == 0 {
                enqueue(graph, s, nworkers, &mut ready_unpinned, &mut ready_pinned);
            }
        }
    }

    assert_eq!(
        executed,
        graph.len(),
        "task graph has a cycle or pinned tasks target missing workers"
    );
    SimResult {
        makespan_ns: makespan,
        busy_ns,
        tasks_executed: executed,
    }
}

fn enqueue(
    graph: &TaskGraph,
    id: TaskId,
    nworkers: usize,
    unpinned: &mut BTreeSet<TaskId>,
    pinned: &mut [VecDeque<TaskId>],
) {
    match graph.task(id).pinned {
        // A pin beyond the current worker count folds onto an existing
        // worker (an OpenMP static schedule at fewer threads).
        Some(w) => pinned[w % nworkers].push_back(id),
        None => {
            unpinned.insert(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> MachineParams {
        MachineParams::default()
    }

    #[test]
    fn serial_chain_sums_durations() {
        let mut g = TaskGraph::new();
        let a = g.add(100, None, &[]);
        let b = g.add(200, None, &[a]);
        let _c = g.add(300, None, &[b]);
        let r = simulate(&g, 4, &m());
        assert_eq!(r.makespan_ns, 600);
        assert_eq!(r.tasks_executed, 3);
    }

    #[test]
    fn independent_tasks_run_in_parallel() {
        let mut g = TaskGraph::new();
        for _ in 0..4 {
            g.add(100, None, &[]);
        }
        let r = simulate(&g, 4, &m());
        assert_eq!(r.makespan_ns, 100);
        let r1 = simulate(&g, 1, &m());
        assert_eq!(r1.makespan_ns, 400);
    }

    #[test]
    fn pinned_tasks_serialize_on_their_worker() {
        let mut g = TaskGraph::new();
        g.add(100, Some(0), &[]);
        g.add(100, Some(0), &[]);
        g.add(100, Some(1), &[]);
        let r = simulate(&g, 2, &m());
        assert_eq!(r.makespan_ns, 200, "two tasks pinned to worker 0");
    }

    #[test]
    fn pins_fold_when_fewer_workers() {
        let mut g = TaskGraph::new();
        g.add(100, Some(5), &[]);
        let r = simulate(&g, 2, &m());
        assert_eq!(r.makespan_ns, 100);
    }

    #[test]
    fn hyperthread_workers_run_slower() {
        let params = MachineParams {
            physical_cores: 1,
            ht_factor: 0.5,
            ..MachineParams::default()
        };
        let mut g = TaskGraph::new();
        g.add(100, Some(0), &[]);
        g.add(100, Some(1), &[]);
        let r = simulate(&g, 2, &params);
        assert_eq!(r.makespan_ns, 200, "worker 1 takes 2x");
    }

    #[test]
    fn work_stealing_balances_heterogeneous_speeds() {
        // 8 unpinned unit tasks on 1 fast + 1 half-speed worker: greedy gives
        // more tasks to the fast worker.
        let params = MachineParams {
            physical_cores: 1,
            ht_factor: 0.5,
            ..MachineParams::default()
        };
        let mut g = TaskGraph::new();
        for _ in 0..9 {
            g.add(100, None, &[]);
        }
        let r = simulate(&g, 2, &params);
        // Fast worker: 6 tasks (600), slow: 3 tasks (600).
        assert_eq!(r.makespan_ns, 600);
    }

    #[test]
    fn deterministic_across_runs() {
        let mut g = TaskGraph::new();
        let mut prev = Vec::new();
        for i in 0..50 {
            let deps: Vec<_> = prev.iter().copied().filter(|&p| p % 3 == i % 3).collect();
            prev.push(g.add(10 + i as u64 * 7 % 90, None, &deps));
        }
        let a = simulate(&g, 3, &m());
        let b = simulate(&g, 3, &m());
        assert_eq!(a, b);
    }

    #[test]
    fn utilization_bounded() {
        let mut g = TaskGraph::new();
        let a = g.add(100, None, &[]);
        g.add(100, None, &[a]);
        let r = simulate(&g, 2, &m());
        assert!(r.utilization() > 0.0 && r.utilization() <= 1.0);
        // Serial chain on 2 workers: utilization 0.5.
        assert!((r.utilization() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_graph() {
        let g = TaskGraph::new();
        let r = simulate(&g, 2, &m());
        assert_eq!(r.makespan_ns, 0);
        assert_eq!(r.utilization(), 1.0);
    }
}
