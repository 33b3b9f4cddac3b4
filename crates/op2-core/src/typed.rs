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

use std::marker::PhantomData;
use std::ops::AddAssign;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::access::Access;
use crate::arg::{arg_direct, arg_indirect, ArgSpec};
use crate::dat::{Dat, DatView};
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
}
