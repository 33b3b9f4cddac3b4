//! Parallel-loop descriptors — the analogue of `op_par_loop`.
//!
//! A loop states its arguments once, as a typed tuple
//! ([`ParLoopBuilder::args`], see [`crate::typed`]) that is both its
//! [`ArgSpec`]s and its kernel's values. The framework owns the one span loop
//! every kernel runs in. [`ParLoopBuilder::kernel`] takes a raw per-element
//! closure instead, for tests and fault injection, which
//! reach their dats through captured [`crate::DatView`]s as OP2's generated
//! code does through raw pointers.

use std::cell::Cell;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::access::Access;
use crate::arg::{ArgSpec, MapRef};
use crate::reduction::GblOp;
use crate::set::Set;
use crate::snapshot::{write_footprint, WriteFootprint};
use crate::step::Global;

/// The kernel body: called once per contiguous element span, which it visits
/// in ascending order — so dynamic dispatch is paid per span, never per
/// element.
///
/// Arguments: the span, a per-block scratch slice for global (reduction)
/// increments — empty when the loop declares no global argument — and a cell
/// the body leaves at the element a panic unwound from, which is where
/// executors read kernel-panic provenance from.
///
/// There is one body per loop, derived by [`ParLoopBuilder`]'s span loop.
pub type KernelFn = Arc<dyn Fn(Range<usize>, &mut [f64], &Cell<usize>) + Send + Sync>;

/// A parallel loop over a set: name, iteration set, argument declarations,
/// optional global reduction, and the kernel.
///
/// Construct with [`ParLoop::build`]; execute with one of the backends in the
/// `op2-hpx` crate, or with [`crate::serial`] for reference semantics.
#[derive(Clone)]
pub struct ParLoop {
    name: String,
    set: Set,
    args: Vec<ArgSpec>,
    pub(crate) globals: Vec<Global>,
    gbl_dim: usize,
    gbl_op: GblOp,
    guard_finite: bool,
    kernel: KernelFn,
    lanes: usize,
    /// [`ParLoop::write_footprint`], classified on first use; clones share it.
    footprint: Arc<OnceLock<Vec<WriteFootprint>>>,
    /// [`ParLoop::work_per_element`] as `f64` bits (0 = never measured);
    /// clones share it.
    work: Arc<AtomicU64>,
}

/// Builder for [`ParLoop`]: the loop without its kernel. Validates
/// argument/set consistency.
pub struct ParLoopBuilder(pub(crate) ParLoop);

impl ParLoop {
    /// Start building a loop named `name` over `set`.
    pub fn build(name: impl Into<String>, set: &Set) -> ParLoopBuilder {
        ParLoopBuilder(ParLoop {
            name: name.into(),
            set: set.clone(),
            args: Vec::new(),
            globals: Vec::new(),
            gbl_dim: 0,
            gbl_op: GblOp::Sum,
            guard_finite: false,
            kernel: Arc::new(|_: Range<usize>, _: &mut [f64], _: &Cell<usize>| {}),
            lanes: 1,
            footprint: Arc::default(),
            work: Arc::default(),
        })
    }

    /// Loop name (diagnostics, plan cache keys).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The iteration set.
    pub fn set(&self) -> &Set {
        &self.set
    }

    /// The declared arguments.
    pub fn args(&self) -> &[ArgSpec] {
        &self.args
    }

    /// The globals the loop reads.
    pub fn globals(&self) -> &[Global] {
        &self.globals
    }

    /// Dimension of the global reduction (0 = none).
    pub fn gbl_dim(&self) -> usize {
        self.gbl_dim
    }

    /// Combining operator of the global reduction.
    pub fn gbl_op(&self) -> GblOp {
        self.gbl_op
    }

    /// The kernel body. Executors that report kernel-panic provenance call
    /// it directly with their own element cell; everything else goes through
    /// [`ParLoop::run_span`].
    pub fn kernel(&self) -> &KernelFn {
        &self.kernel
    }

    /// Elements per kernel instruction: 4 on lanes ([`crate::WideKernel`]), else 1.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Run the kernel over a contiguous span of elements in ascending order —
    /// the single dispatch point every executor funnels block execution
    /// through.
    #[inline]
    pub fn run_span(&self, span: Range<usize>, scratch: &mut [f64]) {
        let current = Cell::new(span.start);
        (self.kernel)(span, scratch, &current);
    }

    /// The same loop — name, set, arguments, so the same plan — restricted to
    /// the elements of `window`: its kernel visits `span ∩ window` of each
    /// span it is handed and is not called when that is empty. This is OP2's
    /// MPI owned/exec-halo split: a rank runs a loop's core (owned) elements
    /// while the halo exchange is in flight and its exec-halo elements once
    /// the halo has landed, or skips the halo for loops that only update what
    /// it owns. The copy measures its own [`ParLoop::work_per_element`].
    pub fn window(&self, window: Range<usize>) -> ParLoop {
        let inner = Arc::clone(&self.kernel);
        ParLoop {
            kernel: Arc::new(
                move |span: Range<usize>, gbl: &mut [f64], current: &Cell<usize>| {
                    let span = span.start.max(window.start)..span.end.min(window.end);
                    if !span.is_empty() {
                        inner(span, gbl, current);
                    }
                },
            ),
            work: Arc::default(),
            ..self.clone()
        }
    }

    /// Should executors scan this loop's written `f64` dats for NaN/Inf
    /// after it runs (a hit is a typed error, rolled back where the runtime
    /// snapshots)?
    pub fn guard_finite(&self) -> bool {
        self.guard_finite
    }

    /// Every dat the loop declares it may modify, with how much of it a
    /// rollback has to be able to put back (see [`crate::Footprint`]).
    /// Classified on the first call — the one place that walks the writing
    /// maps — and kept for the life of the loop and its clones, so a run that
    /// never snapshots never pays for it.
    pub fn write_footprint(&self) -> &[WriteFootprint] {
        self.footprint.get_or_init(|| write_footprint(&self.args))
    }

    /// The kernel's measured work per element, in nanoseconds: busy time —
    /// summed over every thread that ran a block, so the same work reads the
    /// same whether it ran on one thread or spread over many — of the last
    /// complete run [`ParLoop::record_work`] was told about, over the
    /// elements it ran. `None` until then. Kept for the life of the loop and
    /// its clones.
    pub fn work_per_element(&self) -> Option<f64> {
        match self.work.load(Ordering::Relaxed) {
            0 => None,
            bits => Some(f64::from_bits(bits)),
        }
    }

    /// Record that running `elements` elements kept threads busy for
    /// `busy_ns` nanoseconds in total (see [`ParLoop::work_per_element`]).
    pub fn record_work(&self, busy_ns: u64, elements: usize) {
        if elements > 0 {
            let per_element = (busy_ns as f64 / elements as f64).max(f64::MIN_POSITIVE);
            self.work.store(per_element.to_bits(), Ordering::Relaxed);
        }
    }

    /// Does any argument write through a map? (If so, execution needs a
    /// colored plan; otherwise the loop is a *direct* loop for scheduling
    /// purposes.)
    pub fn has_indirect_writes(&self) -> bool {
        self.args
            .iter()
            .any(|a| a.is_indirect() && a.access.writes())
    }

    /// Is this a direct loop (no argument goes through a map)?
    pub fn is_direct(&self) -> bool {
        !self.args.iter().any(ArgSpec::is_indirect)
    }

    /// Ids of dats whose *existing* values the loop observes
    /// (`OP_READ`, `OP_RW`, `OP_INC`).
    pub fn dat_reads(&self) -> Vec<u64> {
        self.dat_ids(Access::reads)
    }

    /// Ids of dats the loop modifies (`OP_WRITE`, `OP_RW`, `OP_INC`).
    pub fn dat_writes(&self) -> Vec<u64> {
        self.dat_ids(Access::writes)
    }

    fn dat_ids(&self, by: fn(Access) -> bool) -> Vec<u64> {
        let ids = self.args.iter().filter(|a| by(a.access)).map(|a| a.dat_id);
        let mut ids: Vec<u64> = ids.collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

impl fmt::Debug for ParLoop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ParLoop({} over {}, {} args{})",
            self.name,
            self.set.name(),
            self.args.len(),
            if self.gbl_dim > 0 { ", gbl" } else { "" }
        )
    }
}

/// The span loop's counter, which tells the executor's cell where the loop
/// was when a panic unwound out of it (or, harmlessly, that it finished).
pub(crate) struct Provenance<'a> {
    pub(crate) cell: &'a Cell<usize>,
    pub(crate) e: usize,
}

impl Drop for Provenance<'_> {
    fn drop(&mut self) {
        self.cell.set(self.e);
    }
}

impl ParLoopBuilder {
    /// Add an argument declaration ([`crate::arg_direct`] /
    /// [`crate::arg_indirect`]).
    ///
    /// # Panics
    /// Panics if the argument is inconsistent with the iteration set:
    /// a direct arg's dat must live on the loop's set; an indirect arg's map
    /// must originate from the loop's set.
    pub fn arg(mut self, arg: ArgSpec) -> Self {
        let (name, set) = (&self.0.name, &self.0.set);
        match &arg.map_ref {
            MapRef::Direct => assert!(
                arg.dat_set.same(set),
                "loop {name}: direct arg {} lives on set {}, loop iterates {}",
                arg.dat_name,
                arg.dat_set.name(),
                set.name()
            ),
            MapRef::Indirect { map, .. } => assert!(
                map.from_set().same(set),
                "loop {name}: indirect arg {} uses map {} from set {}, loop iterates {}",
                arg.dat_name,
                map.name(),
                map.from_set().name(),
                set.name()
            ),
        }
        self.0.args.push(arg);
        self
    }

    /// Declare a global `f64` reduction of dimension `dim` (OP2's
    /// `op_arg_gbl(…, OP_INC)`); the kernel receives a scratch slice of this
    /// length and partial sums are combined deterministically in block order.
    pub fn gbl_inc(self, dim: usize) -> Self {
        self.gbl(dim, GblOp::Sum)
    }

    /// Declare a global minimum reduction (OP2's `op_arg_gbl(…, OP_MIN)`);
    /// the kernel scratch starts at `+∞` and the kernel applies `min`.
    pub fn gbl_min(self, dim: usize) -> Self {
        self.gbl(dim, GblOp::Min)
    }

    /// Declare a global maximum reduction (OP2's `op_arg_gbl(…, OP_MAX)`).
    pub fn gbl_max(self, dim: usize) -> Self {
        self.gbl(dim, GblOp::Max)
    }

    fn gbl(mut self, dim: usize, op: GblOp) -> Self {
        (self.0.gbl_dim, self.0.gbl_op) = (dim, op);
        self
    }

    /// Ask executors to validate that every written `f64` dat is finite
    /// after the loop runs; a NaN/Inf surfaces a typed error (and rolls the
    /// write-set back on a runtime that snapshots). Opt-in because the scan is O(written values)
    /// per execution — wire it on loops that can overflow/underflow (e.g.
    /// `sqrt`/division kernels like Airfoil's `adt_calc`).
    pub fn guard_finite(mut self) -> Self {
        self.0.guard_finite = true;
        self
    }

    /// Attach a raw per-element kernel `f(element, gbl)` and finish. It
    /// reaches its dats through captured [`crate::DatView`]s, so keeping them
    /// to what the `ArgSpec`s declare is the caller's contract; applications
    /// declare [`ParLoopBuilder::args`] instead.
    pub fn kernel(self, f: impl Fn(usize, &mut [f64]) + Send + Sync + 'static) -> ParLoop {
        self.span_loop((), move |_, e, gbl| f(e, gbl))
    }

    /// Finish with the one span loop every kernel runs in: `state` is copied
    /// into a local at span start, then `body(&state, e, gbl)` runs for each
    /// element in ascending order, monomorphized so the body inlines into a
    /// plain counted loop. A panic is attributed to the exact element by a
    /// drop guard that is the loop counter, not by a store per element.
    pub(crate) fn span_loop<S: Copy + Send + Sync + 'static>(
        self,
        state: S,
        body: impl Fn(&S, usize, &mut [f64]) + Send + Sync + 'static,
    ) -> ParLoop {
        let kernel: KernelFn = Arc::new(
            move |span: Range<usize>, gbl: &mut [f64], current: &Cell<usize>| {
                let state = state;
                let mut at = Provenance { cell: current, e: span.start };
                while at.e < span.end {
                    body(&state, at.e, gbl);
                    at.e += 1;
                }
            },
        );
        self.finish(1, kernel)
    }

    /// Finish with `kernel`, which runs `lanes` elements per instruction.
    pub(crate) fn finish(self, lanes: usize, kernel: KernelFn) -> ParLoop {
        ParLoop { kernel, lanes, ..self.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::Access;
    use crate::arg::{arg_direct, arg_indirect};
    use crate::dat::Dat;
    use crate::map::Map;

    fn fixture() -> (Set, Set, Map, Dat<f64>, Dat<f64>) {
        let edges = Set::new("edges", 4);
        let cells = Set::new("cells", 5);
        let m = Map::new("pecell", &edges, &cells, 2, vec![0, 1, 1, 2, 2, 3, 3, 4]);
        let q = Dat::filled("q", &cells, 4, 1.0);
        let res = Dat::filled("res", &cells, 4, 0.0);
        (edges, cells, m, q, res)
    }

    #[test]
    fn loop_classification() {
        let (edges, cells, m, q, res) = fixture();
        let direct = ParLoop::build("save", &cells)
            .arg(arg_direct(&q, Access::Read))
            .kernel(|_, _| {});
        assert!(direct.is_direct());
        assert!(!direct.has_indirect_writes());

        let indirect = ParLoop::build("res_calc", &edges)
            .arg(arg_indirect(&q, 0, &m, Access::Read))
            .arg(arg_indirect(&res, 0, &m, Access::Inc))
            .arg(arg_indirect(&res, 1, &m, Access::Inc))
            .kernel(|_, _| {});
        assert!(!indirect.is_direct());
        assert!(indirect.has_indirect_writes());
    }

    #[test]
    fn read_write_sets() {
        let (edges, _cells, m, q, res) = fixture();
        let l = ParLoop::build("res_calc", &edges)
            .arg(arg_indirect(&q, 0, &m, Access::Read))
            .arg(arg_indirect(&res, 0, &m, Access::Inc))
            .kernel(|_, _| {});
        assert_eq!(l.dat_reads(), {
            let mut v = vec![q.id(), res.id()];
            v.sort_unstable();
            v
        });
        assert_eq!(l.dat_writes(), vec![res.id()]);
    }

    /// The footprint is classified once per loop, not once per clone: the
    /// futurized executors clone the loop on every issue.
    #[test]
    fn clones_share_the_classified_write_footprint() {
        let (edges, _cells, m, _q, res) = fixture();
        let l = ParLoop::build("res_calc", &edges)
            .arg(arg_indirect(&res, 0, &m, Access::Inc))
            .kernel(|_, _| {});
        let clone = l.clone();
        assert!(std::ptr::eq(l.write_footprint(), clone.write_footprint()));
        assert_eq!(l.write_footprint().len(), 1);
    }

    /// A loop starts unmeasured; what one clone records, every clone reads;
    /// an empty run records nothing and a zero-time run still counts as
    /// measured.
    #[test]
    fn clones_share_the_measured_work_per_element() {
        let (edges, _cells, m, _q, res) = fixture();
        let l = ParLoop::build("res_calc", &edges)
            .arg(arg_indirect(&res, 0, &m, Access::Inc))
            .kernel(|_, _| {});
        let clone = l.clone();
        assert_eq!(l.work_per_element(), None);
        clone.record_work(1_000, 0);
        assert_eq!(l.work_per_element(), None);
        clone.record_work(1_000, 4);
        assert_eq!(l.work_per_element(), Some(250.0));
        l.record_work(0, 4);
        assert!(clone.work_per_element().is_some_and(|ns| ns < 1e-300));
    }

    /// A loop over 12 cells whose body logs every element it visits and
    /// folds them into an order-sensitive reduction.
    fn logging(cells: &Set, log: &Arc<std::sync::Mutex<Vec<usize>>>) -> ParLoop {
        let log = Arc::clone(log);
        ParLoop::build("logging", cells).gbl_inc(1).kernel(move |e, gbl| {
            log.lock().unwrap().push(e);
            gbl[0] = gbl[0] * 0.75 + e as f64;
        })
    }

    /// A window runs each span's intersection with it exactly as the whole
    /// loop runs that intersection directly; an empty intersection never
    /// calls the kernel; the whole-set window is the loop itself, bit for
    /// bit; and the window measures its own work.
    #[test]
    fn window_runs_only_the_intersection() {
        let cells = Set::new("cells", 12);
        let spans = [0..2, 2..5, 5..6, 6..9, 9..12];
        for (lo, hi) in [(3, 8), (0, 12), (12, 12)] {
            let (win_log, ref_log) = (Arc::default(), Arc::default());
            let win = logging(&cells, &win_log).window(lo..hi);
            let whole = logging(&cells, &ref_log);
            for span in spans.clone() {
                let (mut ga, mut gb) = ([0.5f64], [0.5f64]);
                win.run_span(span.clone(), &mut ga);
                // For 0..12 the cut is the span: the unwindowed loop.
                let cut = span.start.max(lo)..span.end.min(hi);
                if !cut.is_empty() {
                    whole.run_span(cut, &mut gb);
                }
                assert_eq!(ga[0].to_bits(), gb[0].to_bits(), "{lo}..{hi}");
            }
            let win_log = win_log.lock().unwrap();
            assert_eq!(*win_log, *ref_log.lock().unwrap(), "{lo}..{hi}");
            assert!(lo < hi || win_log.is_empty(), "an empty window called the kernel");
            win.record_work(1_000, 4);
            assert_eq!(whole.work_per_element(), None);
        }
    }

    #[test]
    #[should_panic(expected = "direct arg")]
    fn rejects_direct_arg_on_wrong_set() {
        let (edges, _cells, _m, q, _res) = fixture();
        let _ = ParLoop::build("bad", &edges)
            .arg(arg_direct(&q, Access::Read))
            .kernel(|_, _| {});
    }

    #[test]
    #[should_panic(expected = "from set")]
    fn rejects_indirect_arg_with_wrong_map_origin() {
        let (_edges, cells, m, q, _res) = fixture();
        let _ = ParLoop::build("bad", &cells)
            .arg(arg_indirect(&q, 0, &m, Access::Read))
            .kernel(|_, _| {});
    }
}
