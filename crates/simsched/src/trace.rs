//! Schedule trace export (Chrome tracing / Perfetto JSON).
//!
//! [`simulate_traced`] runs the same deterministic simulation as
//! [`crate::simulate`] but records every task's placement and timing, and
//! can serialize the result in the `chrome://tracing` array format — open it
//! in Perfetto or `chrome://tracing` to *see* the fork-join bubbles close up
//! when switching from the OpenMP schedule to dataflow.

use crate::graph::{TaskGraph, TaskId};
use crate::machine::MachineParams;
use crate::sim::{self, SimResult};

/// One executed task instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// The task.
    pub task: TaskId,
    /// Worker it ran on.
    pub worker: usize,
    /// Start time, ns.
    pub start_ns: u64,
    /// End time, ns.
    pub end_ns: u64,
}

/// A full schedule trace.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Events in completion order.
    pub events: Vec<TraceEvent>,
    /// The aggregate result (identical to [`crate::simulate`]'s).
    pub result: SimResult,
}

impl Trace {
    /// Serialize as a Chrome tracing JSON array (`ph: "X"` complete events).
    pub fn to_chrome_json(&self, label: &str) -> String {
        let mut out = String::from("[\n");
        for (i, e) in self.events.iter().enumerate() {
            // Durations in microseconds (the chrome format's unit).
            out.push_str(&format!(
                "  {{\"name\": \"t{}\", \"cat\": \"{label}\", \"ph\": \"X\", \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 0, \"tid\": {}}}{}\n",
                e.task,
                e.start_ns as f64 / 1000.0,
                (e.end_ns - e.start_ns) as f64 / 1000.0,
                e.worker,
                if i + 1 == self.events.len() { "" } else { "," }
            ));
        }
        out.push(']');
        out
    }

    /// Total idle time across workers (makespan × workers − busy), ns.
    pub fn total_idle_ns(&self) -> u64 {
        let span = self.result.makespan_ns * self.result.busy_ns.len() as u64;
        span.saturating_sub(self.result.busy_ns.iter().sum())
    }
}

/// [`crate::simulate`] with event recording; same scheduling decisions, same
/// deterministic outcome.
pub fn simulate_traced(graph: &TaskGraph, nworkers: usize, m: &MachineParams) -> Trace {
    let mut events = Vec::with_capacity(graph.len());
    let result = sim::run(graph, nworkers, m, Some(&mut events));
    Trace { events, result }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::simulate;

    fn diamond() -> TaskGraph {
        let mut g = TaskGraph::new();
        let a = g.add(100, None, &[]);
        let b = g.add(50, None, &[a]);
        let c = g.add(70, None, &[a]);
        g.add(10, None, &[b, c]);
        g
    }

    #[test]
    fn traced_matches_untraced() {
        let g = diamond();
        let m = MachineParams::default();
        let plain = simulate(&g, 2, &m);
        let traced = simulate_traced(&g, 2, &m);
        assert_eq!(traced.result, plain);
        assert_eq!(traced.events.len(), g.len());
    }

    #[test]
    fn events_respect_dependencies() {
        let g = diamond();
        let m = MachineParams::default();
        let t = simulate_traced(&g, 2, &m);
        let find = |id: usize| t.events.iter().find(|e| e.task == id).unwrap().clone();
        let (a, b, c, d) = (find(0), find(1), find(2), find(3));
        assert!(b.start_ns >= a.end_ns);
        assert!(c.start_ns >= a.end_ns);
        assert!(d.start_ns >= b.end_ns.max(c.end_ns));
    }

    #[test]
    fn events_on_one_worker_never_overlap() {
        let g = crate::methods::build_graph(
            crate::SimMethod::Dataflow,
            &crate::airfoil_workload(24, 12, 32),
            1,
            4,
            &MachineParams::default(),
        );
        let t = simulate_traced(&g, 4, &MachineParams::default());
        let mut per_worker: Vec<Vec<(u64, u64)>> = vec![Vec::new(); 4];
        for e in &t.events {
            per_worker[e.worker].push((e.start_ns, e.end_ns));
        }
        for spans in &mut per_worker {
            spans.sort_unstable();
            for w in spans.windows(2) {
                assert!(w[0].1 <= w[1].0, "overlap: {:?}", w);
            }
        }
    }

    #[test]
    fn chrome_json_is_well_formed_ish() {
        let g = diamond();
        let t = simulate_traced(&g, 2, &MachineParams::default());
        let json = t.to_chrome_json("test");
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 4);
        // Must not have a trailing comma before the closing bracket.
        assert!(!json.contains(",\n]"));
    }

    #[test]
    fn idle_accounting() {
        let mut g = TaskGraph::new();
        let a = g.add(100, None, &[]);
        g.add(100, None, &[a]); // serial chain on 2 workers → 1 worker idle
        let t = simulate_traced(&g, 2, &MachineParams::default());
        assert_eq!(t.total_idle_ns(), 200);
    }
}
