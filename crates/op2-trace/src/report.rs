//! Post-run analysis: per-loop wait attribution, worker idle fraction, and
//! the measured critical path through the loop-instance dependency graph.
//!
//! Attribution model (structural, so it is deterministic even on a single
//! hardware thread):
//!
//! - **barrier wait** — time a thread was held at the *implicit end-of-loop
//!   barrier* of a synchronous executor (tagged [`EventKind::BarrierWait`]
//!   spans, `a` = loop instance). Asynchronous executors return a handle
//!   instead of blocking, so their tagged barrier time is zero by
//!   construction — exactly the "barrier bubble" the paper's futurized
//!   variants remove.
//! - **dependency wait** — time a thread was blocked on a specific loop's
//!   completion (tagged [`EventKind::DepWait`] spans from `LoopHandle`
//!   waits and fences, `a` = awaited instance).
//! - **stalled** — barrier wait minus time the waiting thread spent
//!   *helping* (executing tasks) inside the wait: the truly idle residue.
//! - untagged barrier/dep spans (raw latch and future waits inside loop
//!   bodies, `a == 0`) are summed separately and never double-counted into
//!   a loop's attribution.
//!
//! The critical path runs over loop instances (node weight = measured
//! duration) connected by [`EventKind::DepEdge`] events; synchronous
//! executors emit program-order edges, the dataflow executor emits its
//! actual RAW/WAW/WAR edges. For the serial executor the program-order chain
//! covers every instance, so the critical path equals the sum of loop
//! durations exactly.

use std::collections::HashMap;

use crate::event::EventKind;
use crate::Timeline;

/// Aggregate statistics for one named loop.
#[derive(Debug, Clone)]
pub struct LoopStat {
    /// Loop name (e.g. `res_calc`).
    pub name: String,
    /// Executor that ran it (first seen; loops don't switch executors
    /// mid-run in practice).
    pub executor: String,
    /// Completed instances.
    pub count: u64,
    /// Sum of instance durations (begin→end), ns.
    pub total_ns: u64,
    /// Gross time threads were held at this loop's end-of-loop barrier, ns.
    pub barrier_blocked_ns: u64,
    /// [`LoopStat::barrier_blocked_ns`] minus time spent helping (running
    /// tasks) inside the wait — the truly idle residue, ns.
    pub barrier_stalled_ns: u64,
    /// Time threads were blocked waiting on this loop's completion through
    /// an explicit handle/fence wait, ns.
    pub dep_wait_ns: u64,
}

/// Whole-run summary produced by [`analyze`].
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// First event start to last event end, ns.
    pub wall_ns: u64,
    /// Longest weighted path through the loop-instance dependency graph, ns.
    pub critical_path_ns: u64,
    /// Number of loop instances on that path.
    pub critical_path_len: usize,
    /// Per-loop stats in order of first execution.
    pub loops: Vec<LoopStat>,
    /// Sum of all loop instance durations, ns.
    pub loop_total_ns: u64,
    /// Totals across loops (tagged spans only).
    pub barrier_blocked_ns: u64,
    /// Total truly idle barrier residue across loops, ns.
    pub barrier_stalled_ns: u64,
    /// Total tagged dependency-wait time, ns.
    pub dep_wait_ns: u64,
    /// Raw latch waits not attributed to a loop barrier (per-color latches
    /// inside loop bodies), ns.
    pub untagged_barrier_ns: u64,
    /// Raw future waits not attributed to a loop, ns.
    pub untagged_dep_ns: u64,
    /// Task executions recorded.
    pub tasks: u64,
    /// Successful steals recorded.
    pub steals: u64,
    /// Park episodes recorded.
    pub parks: u64,
    /// Fabric operations recorded (send + recv + barrier + allreduce).
    pub fabric_ops: u64,
    /// Total time inside fabric send spans (including retry backoff), ns.
    pub fabric_send_ns: u64,
    /// Total time blocked inside fabric receive spans, ns.
    pub fabric_recv_ns: u64,
    /// Total time held at fabric barriers, ns.
    pub fabric_barrier_ns: u64,
    /// Total time inside fabric allreduce spans (gather recvs nest their own
    /// [`RunReport::fabric_recv_ns`] spans, so don't add the two), ns.
    pub fabric_allreduce_ns: u64,
    /// Total time ranks idled polling for halo traffic while overlapped
    /// boundary work was gated on outstanding receives, ns.
    pub halo_wait_ns: u64,
    /// Transactional write-set rollbacks recorded.
    pub rollbacks: u64,
    /// Supervisor retry attempts recorded.
    pub retries: u64,
    /// Dataflow nodes poisoned by upstream failures.
    pub poisons: u64,
    /// Service jobs executed (`op2-serve` job spans).
    pub jobs: u64,
    /// Total time inside service job spans (admission→terminal work), ns.
    pub job_ns: u64,
    /// Service submissions shed under overload.
    pub sheds: u64,
    /// Durable checkpoint commits recorded (`CkptIo` spans).
    pub ckpt_ops: u64,
    /// Total time inside durable checkpoint IO (serialize + append +
    /// fsync), ns. Attributed separately from comm wait so the durability
    /// overhead of restart-capable runs is measurable.
    pub ckpt_io_ns: u64,
    /// Service journal appends recorded (`JournalIo` spans).
    pub journal_ops: u64,
    /// Total time inside journal IO, ns.
    pub journal_io_ns: u64,
    /// Threads that executed or slept for tasks (pool workers + helpers).
    pub workers: usize,
    /// Mean fraction of wall time those threads spent *not* running tasks.
    pub idle_fraction: f64,
    /// Events lost to ring overwrite.
    pub dropped: u64,
}

/// Union length of possibly-overlapping `(start, end)` intervals.
/// `spans` must be sorted by start.
fn union_ns(spans: &[(u64, u64)]) -> u64 {
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in spans {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                let _ = cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Length of `(lo, hi)` covered by the sorted interval list.
fn overlap_ns(lo: u64, hi: u64, spans: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = spans
        .iter()
        .filter(|&&(s, e)| e > lo && s < hi)
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .collect();
    clipped.sort_unstable();
    union_ns(&clipped)
}

/// Assemble a [`RunReport`] from a timeline. Cheap relative to the run it
/// describes; call after `Collector::stop`.
pub fn analyze(t: &Timeline) -> RunReport {
    let mut report = RunReport {
        dropped: t.dropped,
        ..RunReport::default()
    };
    let Some((t0, t1)) = t.span_ns() else {
        return report;
    };
    report.wall_ns = t1 - t0;

    // -- loop instances ----------------------------------------------------
    struct Instance {
        name: u32,
        exec: u32,
        begin_ns: u64,
        end_ns: Option<u64>,
    }
    let mut instances: HashMap<u64, Instance> = HashMap::new();
    for e in &t.events {
        match e.kind {
            EventKind::LoopBegin => {
                instances.insert(
                    e.a,
                    Instance { name: e.name, exec: e.b as u32, begin_ns: e.start_ns, end_ns: None },
                );
            }
            EventKind::LoopEnd => {
                if let Some(inst) = instances.get_mut(&e.a) {
                    inst.end_ns = Some(e.start_ns);
                }
            }
            _ => {}
        }
    }
    let dur_of = |inst: &Instance| -> Option<u64> {
        inst.end_ns.map(|e| e.saturating_sub(inst.begin_ns))
    };

    // -- per-thread task spans, for helped-time subtraction and idle -------
    let mut task_spans: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for e in t.of_kind(EventKind::Task) {
        task_spans.entry(e.tid).or_default().push((e.start_ns, e.end_ns));
    }
    for spans in task_spans.values_mut() {
        spans.sort_unstable();
    }

    // -- per-loop aggregation (first-execution order) ----------------------
    let mut order: Vec<u32> = Vec::new();
    let mut by_name: HashMap<u32, LoopStat> = HashMap::new();
    let resolve = |id: u32| t.name_of(id).unwrap_or("?").to_string();
    let mut ids: Vec<u64> = instances.keys().copied().collect();
    ids.sort_unstable();
    for &id in &ids {
        let inst = &instances[&id];
        let Some(dur) = dur_of(inst) else { continue };
        let stat = by_name.entry(inst.name).or_insert_with(|| {
            order.push(inst.name);
            LoopStat {
                name: resolve(inst.name),
                executor: resolve(inst.exec),
                count: 0,
                total_ns: 0,
                barrier_blocked_ns: 0,
                barrier_stalled_ns: 0,
                dep_wait_ns: 0,
            }
        });
        stat.count += 1;
        stat.total_ns += dur;
    }

    // -- wait attribution --------------------------------------------------
    for e in &t.events {
        match e.kind {
            EventKind::BarrierWait => {
                let dur = e.dur_ns();
                if e.a != 0 {
                    if let Some(inst) = instances.get(&e.a) {
                        if let Some(stat) = by_name.get_mut(&inst.name) {
                            stat.barrier_blocked_ns += dur;
                            let helped = task_spans
                                .get(&e.tid)
                                .map(|s| overlap_ns(e.start_ns, e.end_ns, s))
                                .unwrap_or(0);
                            stat.barrier_stalled_ns += dur.saturating_sub(helped);
                            continue;
                        }
                    }
                }
                report.untagged_barrier_ns += dur;
            }
            EventKind::DepWait => {
                let dur = e.dur_ns();
                if e.a != 0 {
                    if let Some(inst) = instances.get(&e.a) {
                        if let Some(stat) = by_name.get_mut(&inst.name) {
                            stat.dep_wait_ns += dur;
                            continue;
                        }
                    }
                }
                report.untagged_dep_ns += dur;
            }
            EventKind::Task => report.tasks += 1,
            EventKind::Steal => report.steals += 1,
            EventKind::Park => report.parks += 1,
            EventKind::FabricSend => {
                report.fabric_ops += 1;
                report.fabric_send_ns += e.dur_ns();
            }
            EventKind::FabricRecv => {
                report.fabric_ops += 1;
                report.fabric_recv_ns += e.dur_ns();
            }
            EventKind::FabricBarrier => {
                report.fabric_ops += 1;
                report.fabric_barrier_ns += e.dur_ns();
            }
            EventKind::FabricAllreduce => {
                report.fabric_ops += 1;
                report.fabric_allreduce_ns += e.dur_ns();
            }
            EventKind::HaloWait => report.halo_wait_ns += e.dur_ns(),
            EventKind::Rollback => report.rollbacks += 1,
            EventKind::Retry => report.retries += 1,
            EventKind::Poison => report.poisons += 1,
            EventKind::Job => {
                report.jobs += 1;
                report.job_ns += e.dur_ns();
            }
            EventKind::Shed => report.sheds += 1,
            EventKind::CkptIo => {
                report.ckpt_ops += 1;
                report.ckpt_io_ns += e.dur_ns();
            }
            EventKind::JournalIo => {
                report.journal_ops += 1;
                report.journal_io_ns += e.dur_ns();
            }
            _ => {}
        }
    }

    for name in &order {
        let stat = by_name.remove(name).expect("stat recorded for ordered name");
        report.loop_total_ns += stat.total_ns;
        report.barrier_blocked_ns += stat.barrier_blocked_ns;
        report.barrier_stalled_ns += stat.barrier_stalled_ns;
        report.dep_wait_ns += stat.dep_wait_ns;
        report.loops.push(stat);
    }

    // -- critical path over DepEdge graph ----------------------------------
    let mut preds: HashMap<u64, Vec<u64>> = HashMap::new();
    for e in t.of_kind(EventKind::DepEdge) {
        // Instance ids are allocated monotonically at execute time, so
        // well-formed edges point forward; drop anything else (torn slot).
        if e.a < e.b && instances.contains_key(&e.a) && instances.contains_key(&e.b) {
            preds.entry(e.b).or_default().push(e.a);
        }
    }
    let mut cp: HashMap<u64, (u64, usize)> = HashMap::new();
    for &id in &ids {
        let Some(dur) = dur_of(&instances[&id]) else { continue };
        let (best, best_len) = preds
            .get(&id)
            .into_iter()
            .flatten()
            .filter_map(|p| cp.get(p).copied())
            .max()
            .unwrap_or((0, 0));
        cp.insert(id, (best + dur, best_len + 1));
    }
    if let Some(&(ns, len)) = cp.values().max() {
        report.critical_path_ns = ns;
        report.critical_path_len = len;
    }

    // -- worker idle fraction ----------------------------------------------
    let mut worker_tids: Vec<u32> = t
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Task | EventKind::Park))
        .map(|e| e.tid)
        .collect();
    worker_tids.sort_unstable();
    worker_tids.dedup();
    report.workers = worker_tids.len();
    if report.wall_ns > 0 && !worker_tids.is_empty() {
        let busy: u64 = worker_tids
            .iter()
            .map(|tid| task_spans.get(tid).map(|s| union_ns(s)).unwrap_or(0))
            .sum();
        let span = report.wall_ns as f64 * worker_tids.len() as f64;
        report.idle_fraction = (1.0 - busy as f64 / span).clamp(0.0, 1.0);
    }

    report
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl RunReport {
    /// Total tagged barrier-wait time; the headline number compared across
    /// executors (dataflow's must be below fork-join's).
    pub fn barrier_wait_ns(&self) -> u64 {
        self.barrier_blocked_ns
    }

    /// Distributed communication wait: blocking receive + barrier + halo
    /// polling time across all ranks. Allreduce spans are excluded because a
    /// blocking allreduce nests its gather receives, which are already
    /// counted in [`RunReport::fabric_recv_ns`] — adding both would double
    /// count. This is the number the overlapped march must shrink.
    pub fn comm_wait_ns(&self) -> u64 {
        self.fabric_recv_ns + self.fabric_barrier_ns + self.halo_wait_ns
    }

    /// Plain-text per-loop report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== op2-trace run report ==\n");
        if self.wall_ns == 0 && self.loops.is_empty() {
            out.push_str("(no events recorded — was a Collector started around the work?)\n");
            return out;
        }
        out.push_str(&format!(
            "wall {:.3} ms | critical path {:.3} ms ({} loop instances{})\n",
            ms(self.wall_ns),
            ms(self.critical_path_ns),
            self.critical_path_len,
            if self.wall_ns > 0 {
                format!(", {:.1}% of wall", 100.0 * self.critical_path_ns as f64 / self.wall_ns as f64)
            } else {
                String::new()
            }
        ));
        out.push_str(&format!(
            "workers {} | idle {:.1}% | tasks {} | steals {} | parks {} | fabric ops {} | dropped {}\n",
            self.workers,
            100.0 * self.idle_fraction,
            self.tasks,
            self.steals,
            self.parks,
            self.fabric_ops,
            self.dropped
        ));
        if self.fabric_ops > 0 || self.halo_wait_ns > 0 {
            out.push_str(&format!(
                "fabric wait: recv {:.3} ms | barrier {:.3} ms | halo {:.3} ms | send {:.3} ms | allreduce {:.3} ms\n",
                ms(self.fabric_recv_ns),
                ms(self.fabric_barrier_ns),
                ms(self.halo_wait_ns),
                ms(self.fabric_send_ns),
                ms(self.fabric_allreduce_ns)
            ));
        }
        if self.rollbacks + self.retries + self.poisons > 0 {
            out.push_str(&format!(
                "recovery: rollbacks {} | retries {} | poisoned nodes {}\n",
                self.rollbacks, self.retries, self.poisons
            ));
        }
        if self.ckpt_ops + self.journal_ops > 0 {
            out.push_str(&format!(
                "store io: ckpt {} ops {:.3} ms | journal {} ops {:.3} ms\n",
                self.ckpt_ops,
                ms(self.ckpt_io_ns),
                self.journal_ops,
                ms(self.journal_io_ns)
            ));
        }
        out.push_str(&format!(
            "{:<20} {:>10} {:>6} {:>12} {:>12} {:>12} {:>12}\n",
            "loop", "executor", "count", "total ms", "barrier ms", "stalled ms", "dep-wait ms"
        ));
        for l in &self.loops {
            out.push_str(&format!(
                "{:<20} {:>10} {:>6} {:>12.3} {:>12.3} {:>12.3} {:>12.3}\n",
                l.name,
                l.executor,
                l.count,
                ms(l.total_ns),
                ms(l.barrier_blocked_ns),
                ms(l.barrier_stalled_ns),
                ms(l.dep_wait_ns)
            ));
        }
        out.push_str(&format!(
            "{:<20} {:>10} {:>6} {:>12.3} {:>12.3} {:>12.3} {:>12.3}\n",
            "(total)",
            "",
            self.loops.iter().map(|l| l.count).sum::<u64>(),
            ms(self.loop_total_ns),
            ms(self.barrier_blocked_ns),
            ms(self.barrier_stalled_ns),
            ms(self.dep_wait_ns)
        ));
        if self.untagged_barrier_ns > 0 || self.untagged_dep_ns > 0 {
            out.push_str(&format!(
                "untagged: latch-wait {:.3} ms, future-wait {:.3} ms\n",
                ms(self.untagged_barrier_ns),
                ms(self.untagged_dep_ns)
            ));
        }
        out
    }
}
