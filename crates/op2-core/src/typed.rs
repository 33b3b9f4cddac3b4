//! Typed loop arguments: a loop's argument list stated once, as OP2's
//! `op_par_loop(kernel, set, op_arg_dat(…), …)` states it.
//!
//! A typed argument is a dat, an access kind and a width `D`: [`Dat::read`],
//! [`Dat::write`], [`Dat::rw`] or [`Dat::inc`]. [`Direct::via`] makes it
//! indirect through every slot of an `M`-wide map, OP2's vector argument. A
//! tuple of them, given to [`ParLoopBuilder::args`], expands to the loop's
//! [`ArgSpec`]s (one per direct argument, one per map slot of an indirect one,
//! in declaration order) and hands the kernel its values for each element:
//! `[T; D]` direct, `[[T; D]; M]` in slot order indirect. READ is loaded.
//! WRITE starts zeroed and is stored whole. RW is loaded and stored back. INC
//! starts zeroed and is added to its targets after the kernel. Stores and
//! increments land in declaration order, then slot order. The kernel is a
//! safe `Fn(&mut vals, gbl)`: it reaches what the `ArgSpec`s declare and
//! nothing else.
//!
//! A kernel written once over [`Real`] ([`WideKernel`], attached with
//! [`TypedLoopBuilder::wide_kernel`]) also runs four consecutive elements
//! per instruction where the host has AVX2: each group of four loads its
//! values into lanes, runs the body once, then commits element by element in
//! the scalar order above, so the bits are those of the `f64` body run one
//! element at a time. A span's last elements short of a group, spans under
//! 16 elements and every host without AVX2 run the `f64` body.

use std::marker::PhantomData;
use std::ops::AddAssign;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::access::Access;
use crate::arg::{arg_direct, arg_indirect, ArgSpec};
use crate::dat::{Dat, DatView};
use crate::lanes::{self, Real};
#[cfg(target_arch = "x86_64")]
use crate::lanes::{Avx2, F64x4};
use crate::loops::{ParLoop, ParLoopBuilder};
use crate::map::{Map, MapView};
use crate::step::Global;

/// A value a typed argument carries: WRITE and INC start at `T::default()`.
pub trait Value: Copy + Default + AddAssign + Send + Sync + 'static {}
impl<T: Copy + Default + AddAssign + Send + Sync + 'static> Value for T {}

/// The access kind a typed argument carries in its type, so that its load and
/// commit compile to what the kind needs.
pub trait Mode: Send + Sync + 'static {
    /// The kind its `ArgSpec`s declare.
    const ACCESS: Access;
}

macro_rules! modes {
    ($($(#[$doc:meta])* $mode:ident = $access:ident;)*) => {$(
        $(#[$doc])*
        #[derive(Debug)]
        pub struct $mode;
        impl Mode for $mode {
            const ACCESS: Access = Access::$access;
        }
    )*};
}

modes! {
    /// `OP_READ`.
    Read = Read;
    /// `OP_WRITE`.
    Write = Write;
    /// `OP_RW`.
    Rw = ReadWrite;
    /// `OP_INC`.
    Inc = Inc;
}

/// A direct typed argument: element `e` of its dat, `D` values wide.
pub struct Direct<T, const D: usize, A> {
    dat: Dat<T>,
    mode: PhantomData<A>,
}

/// An indirect typed argument: the `M` targets of element `e` through its map,
/// `D` values wide each.
pub struct Via<T, const D: usize, const M: usize, A> {
    arg: Direct<T, D, A>,
    map: Map,
}

/// What a [`Via`] hands the span loop: its dat's view and its map's rows.
#[derive(Clone, Copy)]
pub struct ViaView<T, const M: usize>(DatView<T>, MapView<M>);

/// Typed arguments for [`ParLoopBuilder::args`]. Each panics, naming the
/// dat, unless the width `D` is the dat's `dim`.
impl<T: Value> Dat<T> {
    /// A direct `OP_READ` argument of width `D`.
    pub fn read<const D: usize>(&self) -> Direct<T, D, Read> {
        Direct::new(self)
    }

    /// A direct `OP_WRITE` argument of width `D`.
    pub fn write<const D: usize>(&self) -> Direct<T, D, Write> {
        Direct::new(self)
    }

    /// A direct `OP_RW` argument of width `D`.
    pub fn rw<const D: usize>(&self) -> Direct<T, D, Rw> {
        Direct::new(self)
    }

    /// A direct `OP_INC` argument of width `D`.
    pub fn inc<const D: usize>(&self) -> Direct<T, D, Inc> {
        Direct::new(self)
    }
}

impl<T: Value, const D: usize, A: Mode> Direct<T, D, A> {
    fn new(dat: &Dat<T>) -> Self {
        let dim = dat.dim();
        assert!(D == dim, "typed arg for dat {}: width {D}, dat dim {dim}", dat.name());
        Direct { dat: dat.clone(), mode: PhantomData }
    }

    /// The same argument reached through all `M` slots of `map`.
    ///
    /// # Panics
    /// Panics, naming the dat, unless `M` is the map's `dim`.
    pub fn via<const M: usize>(self, map: &Map) -> Via<T, D, M, A> {
        let (name, dim) = (self.dat.name(), map.dim());
        assert!(M == dim, "typed arg for dat {name}: {M} slots of map {} (dim {dim})", map.name());
        Via { arg: self, map: map.clone() }
    }
}

mod sealed {
    pub trait Sealed {}
}

/// A typed argument, or a tuple of up to eight: what [`ParLoopBuilder::args`]
/// takes. Sealed: [`Direct`], [`Via`], [`Global`] and tuples of them are all there is,
/// which lets [`TypedLoopBuilder::kernel`] argue its one `unsafe` once.
pub trait Args: sealed::Sealed + Send + Sync + 'static {
    /// What the kernel receives for one element.
    type Vals;
    /// The raw access the span loop copies into locals.
    type Views: Copy + Send + Sync + 'static;
    /// Append this declaration's `ArgSpec`s in order, and the globals it
    /// reads, and return its views.
    fn split(self, specs: &mut Vec<ArgSpec>, globals: &mut Vec<Global>) -> Self::Views;
    /// The kernel's values for element `e`.
    ///
    /// # Safety
    /// `e` runs as the plan of the loop these views were split for allows.
    unsafe fn load(views: &Self::Views, e: usize) -> Self::Vals;
    /// Store or add what the kernel left in `vals` for element `e`.
    ///
    /// # Safety
    /// As [`Args::load`].
    unsafe fn commit(views: &Self::Views, e: usize, vals: Self::Vals);
}

impl<T, const D: usize, A> sealed::Sealed for Direct<T, D, A> {}
impl<T: Value, const D: usize, A: Mode> Args for Direct<T, D, A> {
    type Vals = [T; D];
    type Views = DatView<T>;

    fn split(self, specs: &mut Vec<ArgSpec>, _: &mut Vec<Global>) -> DatView<T> {
        specs.push(arg_direct(&self.dat, A::ACCESS));
        self.dat.view()
    }

    #[inline(always)]
    unsafe fn load(dat: &DatView<T>, e: usize) -> [T; D] {
        match A::ACCESS {
            Access::Read | Access::ReadWrite => dat.load(e),
            Access::Write | Access::Inc => [T::default(); D],
        }
    }

    #[inline(always)]
    unsafe fn commit(dat: &DatView<T>, e: usize, vals: [T; D]) {
        match A::ACCESS {
            Access::Read => {}
            Access::Write | Access::ReadWrite => dat.store(e, vals),
            Access::Inc => dat.add_vec(e, vals),
        }
    }
}

impl<T, const D: usize, const M: usize, A> sealed::Sealed for Via<T, D, M, A> {}
impl<T: Value, const D: usize, const M: usize, A: Mode> Args for Via<T, D, M, A> {
    type Vals = [[T; D]; M];
    type Views = ViaView<T, M>;

    fn split(self, specs: &mut Vec<ArgSpec>, _: &mut Vec<Global>) -> ViaView<T, M> {
        let dat = &self.arg.dat;
        specs.extend((0..M).map(|slot| arg_indirect(dat, slot, &self.map, A::ACCESS)));
        ViaView(dat.view(), self.map.view())
    }

    #[inline(always)]
    unsafe fn load(ViaView(dat, map): &ViaView<T, M>, e: usize) -> [[T; D]; M] {
        let rows = map.row(e);
        std::array::from_fn(|s| Direct::<T, D, A>::load(dat, rows[s]))
    }

    #[inline(always)]
    unsafe fn commit(ViaView(dat, map): &ViaView<T, M>, e: usize, vals: [[T; D]; M]) {
        if A::ACCESS.writes() {
            for (t, vals) in map.row(e).into_iter().zip(vals) {
                Direct::<T, D, A>::commit(dat, t, vals);
            }
        }
    }
}

impl Global {
    /// This global as a loop's argument, OP2's `op_arg_gbl(…, OP_READ)`: the
    /// kernel receives `[f64; 1]`, and the loop lists the global as a read.
    pub fn read(&self) -> Global {
        self.clone()
    }
}

/// A global's cell as the span loop reads it: raw and `Copy`, like a dat's view.
#[derive(Clone, Copy)]
pub struct GlobalView(*const AtomicU64);

// SAFETY: the one field points at an `AtomicU64`, which is `Sync`, and is
// only read, atomically; the loop holding the view holds the global too.
unsafe impl Send for GlobalView {}
unsafe impl Sync for GlobalView {}

impl sealed::Sealed for Global {}
impl Args for Global {
    type Vals = [f64; 1];
    type Views = GlobalView;

    fn split(self, _: &mut Vec<ArgSpec>, globals: &mut Vec<Global>) -> GlobalView {
        globals.push(self.clone());
        GlobalView(self.cell())
    }

    #[inline(always)]
    unsafe fn load(view: &GlobalView, _: usize) -> [f64; 1] {
        // SAFETY: `split` put the global among its loop's reads, so the cell
        // lives as long as any kernel that reads it.
        [f64::from_bits((*view.0).load(Ordering::Relaxed))]
    }

    #[inline(always)]
    unsafe fn commit(_: &GlobalView, _: usize, _: [f64; 1]) {}
}

macro_rules! tuples {
    ($(($($a:ident $i:tt),+))*) => {$(
        impl<$($a),+> sealed::Sealed for ($($a,)+) {}
        impl<$($a: Args),+> Args for ($($a,)+) {
            type Vals = ($($a::Vals,)+);
            type Views = ($($a::Views,)+);

            fn split(self, specs: &mut Vec<ArgSpec>, globals: &mut Vec<Global>) -> Self::Views {
                ($(self.$i.split(specs, globals),)+)
            }

            #[inline(always)]
            unsafe fn load(views: &Self::Views, e: usize) -> Self::Vals {
                ($($a::load(&views.$i, e),)+)
            }

            #[inline(always)]
            unsafe fn commit(views: &Self::Views, e: usize, vals: Self::Vals) {
                $($a::commit(&views.$i, e, vals.$i);)+
            }
        }

        impl<$($a: WideArgs),+> WideArgs for ($($a,)+) {
            type At<R: Real> = ($($a::At<R>,)+);

            #[cfg(target_arch = "x86_64")]
            #[inline(always)]
            unsafe fn load4(views: &Self::Views, e: usize) -> Self::At<F64x4> {
                ($($a::load4(&views.$i, e),)+)
            }

            #[cfg(target_arch = "x86_64")]
            #[inline(always)]
            fn lane(vals: &Self::At<F64x4>, l: usize) -> Self::At<f64> {
                ($($a::lane(&vals.$i, l),)+)
            }
        }
    )*};
}

tuples! {
    (A0 0)
    (A0 0, A1 1)
    (A0 0, A1 1, A2 2)
    (A0 0, A1 1, A2 2, A3 3)
    (A0 0, A1 1, A2 2, A3 3, A4 4)
    (A0 0, A1 1, A2 2, A3 3, A4 4, A5 5)
    (A0 0, A1 1, A2 2, A3 3, A4 4, A5 5, A6 6)
    (A0 0, A1 1, A2 2, A3 3, A4 4, A5 5, A6 6, A7 7)
}

/// Typed arguments a [`WideKernel`] takes: `f64` dats and tuples of them.
/// At `f64` their values are [`Args::Vals`].
pub trait WideArgs: Args<Vals = <Self as WideArgs>::At<f64>> {
    /// What the kernel receives at number type `R`: [`Args::Vals`] with `R`
    /// in place of `f64`.
    type At<R: Real>: Copy;
    /// The values of elements `e..e + 4` in lanes, as [`Args::load`] loads
    /// each.
    ///
    /// # Safety
    /// As [`Args::load`] for each of the four elements.
    #[cfg(target_arch = "x86_64")]
    #[doc(hidden)]
    unsafe fn load4(views: &Self::Views, e: usize) -> Self::At<F64x4>;
    /// Lane `l`'s values: those of element `e + l` of a group loaded at `e`.
    #[cfg(target_arch = "x86_64")]
    #[doc(hidden)]
    fn lane(vals: &Self::At<F64x4>, l: usize) -> Self::At<f64>;
}

/// What a [`WideKernel`] over `A` receives at number type `R`.
pub type At<A, R> = <A as WideArgs>::At<R>;

impl<const D: usize, A: Mode> WideArgs for Direct<f64, D, A> {
    type At<R: Real> = [R; D];

    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn load4(dat: &DatView<f64>, e: usize) -> [F64x4; D] {
        match A::ACCESS {
            Access::Read | Access::ReadWrite => dat.load_run4(e),
            Access::Write | Access::Inc => [F64x4::splat(0.0); D],
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn lane(vals: &[F64x4; D], l: usize) -> [f64; D] {
        F64x4::row(vals, l)
    }
}

impl<const D: usize, const M: usize, A: Mode> WideArgs for Via<f64, D, M, A> {
    type At<R: Real> = [[R; D]; M];

    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn load4(ViaView(dat, map): &ViaView<f64, M>, e: usize) -> [[F64x4; D]; M] {
        match A::ACCESS {
            Access::Read | Access::ReadWrite => {
                let rows = [map.row(e), map.row(e + 1), map.row(e + 2), map.row(e + 3)];
                let mut out = [[F64x4::splat(0.0); D]; M];
                for (s, slot) in out.iter_mut().enumerate() {
                    *slot = dat.load_x4([rows[0][s], rows[1][s], rows[2][s], rows[3][s]]);
                }
                out
            }
            Access::Write | Access::Inc => [[F64x4::splat(0.0); D]; M],
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn lane(vals: &[[F64x4; D]; M], l: usize) -> [[f64; D]; M] {
        let mut out = [[0.0; D]; M];
        for (o, slot) in out.iter_mut().zip(vals) {
            *o = F64x4::row(slot, l);
        }
        out
    }
}

/// A kernel body written once, generic over the number type: the loop runs
/// it at `f64`, one element at a time, and where the host has AVX2 also at a
/// four-lane type, four consecutive elements per instruction (see
/// [`crate::typed`]). Mark [`WideKernel::run`] and everything it calls
/// `#[inline(always)]`: only what inlines into the wide span loop runs with
/// AVX2 enabled.
pub trait WideKernel: Send + Sync + 'static {
    /// The arguments, as declared with [`ParLoopBuilder::args`].
    type Args: WideArgs;
    /// The body: one element's values at `f64`, or four elements' in lanes.
    fn run<R: Real>(&self, vals: &mut At<Self::Args, R>);
}

impl ParLoopBuilder {
    /// Declare every argument at once as a typed tuple (see [`crate::typed`]):
    /// exactly the `ArgSpec`s of the matching [`ParLoopBuilder::arg`] calls,
    /// in the same order, and panics as they do. Declare any global reduction
    /// and [`ParLoopBuilder::guard_finite`] first.
    pub fn args<A: Args>(self, args: A) -> TypedLoopBuilder<A> {
        let (mut specs, mut globals) = (Vec::new(), Vec::new());
        let views = args.split(&mut specs, &mut globals);
        let mut builder = specs.into_iter().fold(self, ParLoopBuilder::arg);
        builder.0.globals = globals;
        TypedLoopBuilder { builder, views }
    }
}

/// A [`ParLoopBuilder`] whose arguments are declared: only the kernel is left.
pub struct TypedLoopBuilder<A: Args> {
    builder: ParLoopBuilder,
    views: A::Views,
}

impl<A: Args> TypedLoopBuilder<A> {
    /// Attach the kernel `f(vals, gbl)` and finish: each element's `vals` as
    /// [`crate::typed`] describes, `gbl` as [`ParLoopBuilder::kernel`] has it.
    pub fn kernel(self, f: impl Fn(&mut A::Vals, &mut [f64]) + Send + Sync + 'static) -> ParLoop {
        self.builder.span_loop(self.views, move |views, e, gbl| {
            // SAFETY: `views` were split from the declarations that made this
            // loop's `ArgSpec`s, and `Args` is sealed, so element `e` touches
            // exactly the targets its `ArgSpec`s name, with their access
            // kinds, at the widths checked when they were declared. The
            // `ArgSpec`s hold the dats and maps, so no view outlives its
            // storage. Every parallel executor runs `e` in a block of a plan
            // built from these `ArgSpec`s and checked by
            // `Plan::validate_cached`, so no block running at the same time
            // writes what `e` touches or touches what `e` writes.
            unsafe {
                let mut vals = A::load(views, e);
                f(&mut vals, gbl);
                A::commit(views, e, vals);
            }
        })
    }
}

impl<A: WideArgs> TypedLoopBuilder<A> {
    /// Attach a kernel written once over [`Real`] and finish: four elements
    /// per instruction where [`crate::lane_width`] is 4 and no dat an argument
    /// loads is written by another or through a map ([`ParLoop::lanes`] is
    /// then 4), else one; the same bits.
    ///
    /// # Panics
    /// Panics, naming the loop, if it declares a global reduction, which is
    /// element-sequential: such a loop takes [`TypedLoopBuilder::kernel`].
    pub fn wide_kernel<K: WideKernel<Args = A>>(self, k: K) -> ParLoop {
        let TypedLoopBuilder { builder, views } = self;
        let name = builder.0.name();
        assert!(builder.0.gbl_dim() == 0, "loop {name}: a wide kernel takes no global reduction");
        #[cfg(target_arch = "x86_64")]
        if lanes::width() == 4 && lane_safe(builder.0.args()) {
            return builder.finish(4, wide_span_loop(views, k));
        }
        builder.span_loop(views, move |views, e, _| {
            // SAFETY: as in `TypedLoopBuilder::kernel`: `views` were split
            // from this loop's declarations, and executors run `e` as its
            // validated plan allows.
            unsafe { run_one(views, e, &k) }
        })
    }
}

/// Element `e`: load, the `f64` body, commit.
///
/// # Safety
/// As [`Args::load`].
#[inline(always)]
unsafe fn run_one<K: WideKernel>(views: &<K::Args as Args>::Views, e: usize, k: &K) {
    let mut vals = K::Args::load(views, e);
    k.run::<f64>(&mut vals);
    K::Args::commit(views, e, vals);
}

/// Does a group loading before any of it commits load what one element at a
/// time would? Not if a dat an argument loads (READ, RW) is written by
/// another argument, or loaded and written through a map.
fn lane_safe(args: &[ArgSpec]) -> bool {
    let loads = |a: &ArgSpec| matches!(a.access, Access::Read | Access::ReadWrite);
    args.iter().enumerate().filter(|(_, r)| loads(r)).all(|(i, r)| {
        let clash = |(j, w): (usize, &ArgSpec)| {
            w.dat_id == r.dat_id && w.access.writes() && (j != i || r.is_indirect())
        };
        !args.iter().enumerate().any(clash)
    })
}

/// The span body of a wide loop: groups of four elements on lanes, under
/// AVX2, then the rest at `f64`. A panic names its group's first element.
#[cfg(target_arch = "x86_64")]
fn wide_span_loop<K: WideKernel>(views: <K::Args as Args>::Views, k: K) -> crate::KernelFn {
    use crate::loops::Provenance;
    std::sync::Arc::new(move |span: std::ops::Range<usize>, _: &mut [f64], current: &std::cell::Cell<usize>| {
        let views = views;
        let mut at = Provenance { cell: current, e: span.start };
        // Short spans stay `f64`: on a 2-vCPU Xeon, 4-element blocks handed
        // between pool threads measured ~20× the scalar time per element on lanes.
        if span.len() >= 16 {
            let groups = Groups { views: &views, k: &k, e: &mut at.e, end: span.end };
            // SAFETY: the loop runs on lanes only where `lanes::width()` was 4.
            unsafe { lanes::avx2(groups) };
        }
        while at.e < span.end {
            // SAFETY: as in `TypedLoopBuilder::wide_kernel`.
            unsafe { run_one(&views, at.e, &k) };
            at.e += 1;
        }
    })
}

/// Whole groups of four from `*e` up to `end`; `*e` ends at the first left.
#[cfg(target_arch = "x86_64")]
struct Groups<'a, K: WideKernel> {
    views: &'a <K::Args as Args>::Views,
    k: &'a K,
    e: &'a mut usize,
    end: usize,
}

#[cfg(target_arch = "x86_64")]
impl<K: WideKernel> Avx2 for Groups<'_, K> {
    #[inline(always)]
    fn run(self) {
        while *self.e + 4 <= self.end {
            let e = *self.e;
            // SAFETY: as in `TypedLoopBuilder::wide_kernel`, for each of four
            // elements of the span the executor handed over; by `lane_safe`
            // and the commit order, the same accesses as one at a time.
            unsafe {
                let mut vals = K::Args::load4(self.views, e);
                self.k.run::<F64x4>(&mut vals);
                for l in 0..4 {
                    K::Args::commit(self.views, e + l, K::Args::lane(&vals, l));
                }
            }
            *self.e = e + 4;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{arg_direct, arg_indirect, Access, Dat, Layout, Map, ParLoop, Set};

    const LAYOUTS: [Layout; 2] = [Layout::Aos, Layout::Soa];

    fn bits(d: &Dat<f64>) -> Vec<u64> {
        d.to_aos_vec().into_iter().map(f64::to_bits).collect()
    }

    /// A typed tuple expands to exactly the `ArgSpec`s of the matching
    /// `.arg(…)` calls: declaration order first, then one per map slot.
    #[test]
    fn args_expand_to_the_arg_specs_in_declaration_then_slot_order() {
        let (edges, cells) = (Set::new("edges", 3), Set::new("cells", 4));
        let m = Map::new("pecell", &edges, &cells, 2, vec![0, 1, 1, 2, 2, 3]);
        let x = Dat::filled("x", &cells, 2, 0.0f64);
        let e = Dat::filled("e", &edges, 1, 0.0f64);
        let r = Dat::filled("r", &cells, 4, 0.0f64);
        let typed = ParLoop::build("l", &edges)
            .args((x.read::<2>().via::<2>(&m), e.rw::<1>(), r.inc::<4>().via::<2>(&m)))
            .kernel(|_, _| {});
        let want = [
            arg_indirect(&x, 0, &m, Access::Read),
            arg_indirect(&x, 1, &m, Access::Read),
            arg_direct(&e, Access::ReadWrite),
            arg_indirect(&r, 0, &m, Access::Inc),
            arg_indirect(&r, 1, &m, Access::Inc),
        ];
        let key = |a: &crate::ArgSpec| (a.dat_id, format!("{:?}", a.map_ref), a.access);
        let got: Vec<_> = typed.args().iter().map(key).collect();
        assert_eq!(got, want.iter().map(key).collect::<Vec<_>>());
    }

    /// WRITE reaches the kernel zeroed and is stored whole, components the
    /// kernel left alone included; RW reaches it loaded and, left alone,
    /// goes back bit for bit (`-0.0` and a NaN payload included).
    #[test]
    fn write_is_zeroed_and_stored_whole_and_rw_round_trips() {
        let odd = [-0.0, f64::from_bits(0x7ff8_0000_0000_0bad), 3.5];
        for layout in LAYOUTS {
            let cells = Set::new("cells", 5);
            let init: Vec<f64> = (0..15).map(|i| odd[i % 3] + (i / 3) as f64).collect();
            let w = Dat::with_layout("w", &cells, 3, layout, init.clone());
            let rw = Dat::with_layout("rw", &cells, 3, layout, init);
            let before = bits(&rw);
            ParLoop::build("l", &cells)
                .args((w.write::<3>(), rw.rw::<3>()))
                .kernel(|(w, rw), _| {
                    assert_eq!(w.map(f64::to_bits), [0; 3], "WRITE must start zeroed");
                    w[1] = rw[2];
                })
                .run_span(0..5, &mut []);
            assert_eq!(bits(&rw), before, "{layout:?}: RW did not round-trip");
            let want: Vec<f64> = (0..5).flat_map(|e| [0.0, 3.5 + e as f64, 0.0]).collect();
            assert_eq!(w.to_aos_vec(), want, "{layout:?}: WRITE not stored whole");
        }
    }

    /// INC values start zeroed and land on their targets after the kernel,
    /// in declaration order and then slot order. The adds are chosen so that
    /// any other order on the one shared target gives other bits.
    #[test]
    fn inc_commits_in_declaration_then_slot_order() {
        for layout in LAYOUTS {
            let (edges, cells) = (Set::new("edges", 1), Set::new("cells", 1));
            let m = Map::new("both", &edges, &cells, 2, vec![0, 0]);
            let t = Dat::with_layout("t", &cells, 1, layout, vec![1.0f64]);
            let adds = [1e16, 1.0, -1e16, 3.0];
            ParLoop::build("l", &edges)
                .args((t.inc::<1>().via::<2>(&m), t.inc::<1>().via::<2>(&m)))
                .kernel(move |([[a], [b]], [[c], [d]]), _| {
                    assert_eq!([*a, *b, *c, *d], [0.0; 4], "INC must start zeroed");
                    [*a, *b, *c, *d] = adds;
                })
                .run_span(0..1, &mut []);
            let sum = |order: [usize; 4]| order.iter().fold(1.0f64, |s, &i| s + adds[i]);
            assert_ne!(sum([0, 1, 2, 3]).to_bits(), sum([1, 0, 2, 3]).to_bits());
            assert_ne!(sum([0, 1, 2, 3]).to_bits(), sum([2, 3, 0, 1]).to_bits());
            assert_eq!(t.to_aos_vec(), [sum([0, 1, 2, 3])], "{layout:?}");
        }
    }

    #[test]
    #[should_panic(expected = "typed arg for dat q: width 3, dat dim 4")]
    fn a_wrong_width_is_rejected_with_the_dat_name() {
        let cells = Set::new("cells", 2);
        let _ = Dat::filled("q", &cells, 4, 0.0f64).read::<3>();
    }

    #[test]
    #[should_panic(expected = "typed arg for dat res: 4 slots of map pecell (dim 2)")]
    fn a_wrong_slot_count_is_rejected_with_the_dat_name() {
        let (edges, cells) = (Set::new("edges", 1), Set::new("cells", 2));
        let m = Map::new("pecell", &edges, &cells, 2, vec![0, 1]);
        let _ = Dat::filled("res", &cells, 4, 0.0f64).inc::<4>().via::<4>(&m);
    }

    /// A direct argument's four consecutive elements, loaded into lanes,
    /// hold what four one-element loads return, bit for bit (`-0.0`, a NaN
    /// payload and a subnormal included), at every width, on both layouts
    /// and from every offset.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn load4_is_four_loads() {
        use super::{Args, Direct, Read, WideArgs};
        use crate::lanes::F64x4;
        if crate::lane_width() != 4 {
            return println!("no AVX2 on this host: nothing to compare");
        }
        fn check<const D: usize>(layout: Layout) {
            let n = 11;
            let odd = [-0.0, f64::from_bits(0x7ff8_0000_dead_beef), 1e-310];
            let aos = (0..n * D).map(|i| if i % 5 < 3 { odd[i % 5] } else { i as f64 * 0.25 - 2.0 });
            let dat = Dat::with_layout("d", &Set::new("cells", n), D, layout, aos.collect());
            let view = dat.read::<D>().split(&mut Vec::new(), &mut Vec::new());
            for e in 0..=n - 4 {
                // SAFETY: elements `e..e + 4` are the dat's, and AVX2 is present.
                let lanes = unsafe { <Direct<f64, D, Read> as WideArgs>::load4(&view, e) };
                for l in 0..4 {
                    // SAFETY: as above.
                    let one: [f64; D] = unsafe { <Direct<f64, D, Read> as Args>::load(&view, e + l) };
                    let row = F64x4::row(&lanes, l);
                    assert_eq!(row.map(f64::to_bits), one.map(f64::to_bits), "{layout:?} D={D} e={e} lane {l}");
                }
            }
        }
        for layout in LAYOUTS {
            check::<1>(layout);
            check::<2>(layout);
            check::<3>(layout);
            check::<4>(layout);
        }
    }
}
