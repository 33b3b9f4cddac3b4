//! One time step, declared once: an iteration's `op_par_loop` calls in order
//! and the host code between them, which sets a [`Global`] from a loop's
//! reduction ([`Step::set`], as SWE's `dt`) for later loops to read
//! ([`Global::read`]). [`crate::deps`] keys a global beside the dats.
//! `op2_hpx::run_step` interprets a step.

use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::access::Access;
use crate::deps::{by_producer, Deps};
use crate::ids::next_id;
use crate::loops::ParLoop;

/// A declared global scalar: set by a step's host code, read by loops.
#[derive(Clone)]
pub struct Global {
    id: u64,
    name: Arc<str>,
    bits: Arc<AtomicU64>,
}

impl Global {
    /// A global named `name` holding `value`.
    pub fn new(name: &str, value: f64) -> Global {
        Global { id: next_id(), name: name.into(), bits: Arc::new(AtomicU64::new(value.to_bits())) }
    }

    /// Process-unique id, from the dats' id space.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Name (diagnostics, dependency graphs).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Replace the value (Relaxed: a loop is issued, which happens-before it runs, after this).
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    pub(crate) fn cell(&self) -> &AtomicU64 {
        &self.bits
    }
}

/// Host code after a loop: its global's new value, from the loop's reduction.
pub type HostFn = Arc<dyn Fn(&[f64]) -> f64 + Send + Sync>;

/// Where a step that waits only on the producers the dependency rule names
/// (the paper's Fig. 10) waits, for a step of `loops` (reads, writes): entry
/// `i < n` before loop `i`, entry `n` at the end. Before each loop, every
/// producer `deps` names not yet waited on, oldest first; the rule also runs
/// over the next step, whose producers here still un-waited are waited last.
pub fn async_waits<K: Clone + Eq + Hash + Ord>(loops: &[(Vec<K>, Vec<K>)]) -> Vec<Vec<usize>> {
    let n = loops.len();
    let mut deps = Deps::default();
    let mut waited = vec![false; n];
    let mut waits = vec![Vec::new(); n + 1];
    for at in 0..2 * n {
        let (reads, writes) = &loops[at % n];
        for edge in by_producer(deps.record(reads, writes, at)) {
            let j = edge[0].producer;
            if j < n && !std::mem::replace(&mut waited[j], true) {
                waits[at.min(n)].push(j);
            }
        }
    }
    waits
}

/// The loops of one time step in program order, each with the host code
/// that follows it, if any.
#[derive(Clone, Default)]
pub struct Step {
    loops: Vec<ParLoop>,
    hosts: Vec<Option<(Global, HostFn)>>,
    /// [`Step::async_waits`], derived on first use.
    waits: OnceLock<Vec<Vec<usize>>>,
}

impl Step {
    /// Append `loop_`: one `op_par_loop` call.
    pub fn then(mut self, loop_: &ParLoop) -> Step {
        self.loops.push(loop_.clone());
        self.hosts.push(None);
        self.waits = OnceLock::new();
        self
    }

    /// Follow the last loop with host code: `global ← f(its reduction)`.
    /// Panics unless the last loop declares a reduction and no host code.
    pub fn set(mut self, global: &Global, f: impl Fn(&[f64]) -> f64 + Send + Sync + 'static) -> Step {
        let reduces = self.loops.last().is_some_and(|l| l.gbl_dim() > 0);
        let host = self.hosts.last_mut().filter(|h| h.is_none() && reduces);
        *host.expect("step: a global set after no reduction, or twice") = Some((global.clone(), Arc::new(f)));
        self.waits = OnceLock::new();
        self
    }

    /// [`async_waits`] of this step's [`Step::keys`]: derived on the first
    /// call and kept with the step, which they depend on alone.
    pub fn async_waits(&self) -> &[Vec<usize>] {
        self.waits.get_or_init(|| {
            let keys: Vec<_> = (0..self.loops.len()).map(|i| self.keys(i)).collect();
            async_waits(&keys)
        })
    }

    /// The loops, in program order.
    pub fn loops(&self) -> &[ParLoop] {
        &self.loops
    }

    /// The host code after loop `i`, if any: the global it sets, and how.
    pub fn host(&self, i: usize) -> Option<&(Global, HostFn)> {
        self.hosts[i].as_ref()
    }

    /// Is loop `i`'s reduction a result: declared, and read by no host code?
    pub fn is_result(&self, i: usize) -> bool {
        self.loops[i].gbl_dim() > 0 && self.hosts[i].is_none()
    }

    /// Loop `i`'s reads and writes as [`crate::deps`] keys, its host's global among the writes.
    pub fn keys(&self, i: usize) -> (Vec<u64>, Vec<u64>) {
        self.keys_by(i, |id, _| id)
    }

    /// [`Step::keys`] mapped through `key(id, name)`.
    fn keys_by<'a, K: Ord>(&'a self, i: usize, key: impl Fn(u64, &'a str) -> K) -> (Vec<K>, Vec<K>) {
        let (l, key) = (&self.loops[i], &key);
        let dats = |by: fn(Access) -> bool| l.args().iter().filter(move |a| by(a.access)).map(|a| key(a.dat_id, &a.dat_name));
        let global = |g: &'a Global| key(g.id, g.name());
        let mut reads: Vec<K> = dats(Access::reads).chain(l.globals().iter().map(global)).collect();
        let mut writes: Vec<K> = dats(Access::writes).chain(self.host(i).map(|h| global(&h.0))).collect();
        for keys in [&mut reads, &mut writes] {
            keys.sort_unstable();
            keys.dedup();
        }
        (reads, writes)
    }

    /// The dependency graph in Graphviz DOT: a node per loop, an edge per
    /// producer the rule names, labelled with the dats and globals by name.
    pub fn dot(&self) -> String {
        let mut out = String::from("digraph dependencies {\n  rankdir=TB;\n  node [shape=box, fontname=\"Helvetica\"];\n");
        for (i, l) in self.loops.iter().enumerate() {
            out += &format!("  n{i} [label=\"{i}: {}\"];\n", l.name());
        }
        let mut deps = Deps::default();
        for j in 0..self.loops.len() {
            let (reads, writes) = self.keys_by(j, |_, name| name);
            for e in by_producer(deps.record(&reads, &writes, j)) {
                let dats: Vec<&str> = e.iter().map(|e| e.dat).collect();
                out += &format!("  n{} -> n{j} [label=\"{}\"];\n", e[0].producer, dats.join(", "));
            }
        }
        out + "}\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dat, Set};

    /// A global read by a later loop orders it after the loop whose
    /// reduction sets it, and the host code runs on that reduction.
    #[test]
    fn a_global_orders_its_reader_after_its_setter() {
        let cells = Set::new("cells", 8);
        let u = Dat::filled("u", &cells, 1, 2.0f64);
        let dt = Global::new("dt", 0.0);
        let peak = ParLoop::build("peak", &cells)
            .gbl_max(1)
            .args(u.read::<1>())
            .kernel(|[u], gbl| gbl[0] = gbl[0].max(*u));
        let scale = ParLoop::build("scale", &cells)
            .args((u.rw::<1>(), dt.read()))
            .kernel(|([u], [dt]), _| *u *= *dt);
        let step = Step::default().then(&peak).set(&dt, |r| 1.0 / r[0]).then(&scale);
        assert_eq!(step.keys(0), (vec![u.id()], vec![dt.id()]));
        assert_eq!(step.keys(1), (vec![u.id(), dt.id()], vec![u.id()]));
        assert!(!step.is_result(0) && !step.is_result(1));
        assert!(step.dot().contains("n0 -> n1 [label=\"dt, u\"]"), "{}", step.dot());

        let (global, host) = step.host(0).expect("peak sets dt");
        global.set(host(&crate::serial::execute_natural(&step.loops()[0])));
        assert_eq!(dt.get(), 0.5);
        crate::serial::execute_natural(&step.loops()[1]);
        assert!(u.to_vec().iter().all(|&v| v == 1.0));
    }

    /// The waits are derived once per step: repeated calls return the one
    /// table, and appending a loop derives them afresh.
    #[test]
    fn async_waits_are_derived_once_per_step() {
        let cells = Set::new("cells", 4);
        let u = Dat::filled("u", &cells, 1, 0.0f64);
        let l = ParLoop::build("l", &cells).args(u.rw::<1>()).kernel(|_, _| {});
        let step = Step::default().then(&l).then(&l);
        let first = step.async_waits();
        assert!(std::ptr::eq(first, step.async_waits()), "the waits were derived twice");
        assert_eq!(first, [vec![], vec![0], vec![1]]);
        let step = step.then(&l);
        assert_eq!(step.async_waits(), [vec![], vec![0], vec![1], vec![2]]);
    }

    #[test]
    #[should_panic(expected = "after no reduction")]
    fn only_a_reduction_sets_a_global() {
        let cells = Set::new("cells", 1);
        let u = Dat::filled("u", &cells, 1, 0.0f64);
        let l = ParLoop::build("l", &cells).args(u.rw::<1>()).kernel(|_, _| {});
        let _ = Step::default().then(&l).set(&Global::new("g", 0.0), |r| r[0]);
    }
}
