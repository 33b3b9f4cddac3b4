//! Dats — data attached to the elements of a set.
//!
//! Storage is parameterized by a [`Layout`]: element-major AoS (the
//! default, and OP2's native CPU layout) or component-major SoA. The layout
//! is fixed at construction and hidden behind the same `data`/`view` API, so
//! kernels written against the [`DatView`] accessors (`get`/`set`/`add` and
//! their const-width `load`/`store`/`add_vec`) are layout-agnostic; only code
//! that touches raw storage order (`data`, `to_vec`) sees the difference.

use std::fmt;
use std::sync::Arc;

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::ids::next_id;
use crate::set::Set;

/// Memory layout of a dat's per-element components.
///
/// For a dat of `n` elements × `dim` components, component `j` of element
/// `e` lives at raw index:
///
/// * `Aos` — `e*dim + j` (element-major, OP2's default);
/// * `Soa` — `j*n + e` (component-major).
///
/// Both store exactly `n * dim` values. Kernels never branch on it: the
/// [`DatView`] accessors resolve the formula per access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layout {
    /// Array-of-structures: `e*dim + j`.
    Aos,
    /// Structure-of-arrays: `j*n + e`.
    Soa,
}

impl Layout {
    /// Raw index of component `j` of element `e`.
    #[inline(always)]
    pub fn index(self, e: usize, j: usize, n: usize, dim: usize) -> usize {
        match self {
            Layout::Aos => e * dim + j,
            Layout::Soa => j * n + e,
        }
    }

    /// Stable short label (`aos`, `soa`) for artifacts and the tuner's
    /// persisted models.
    pub fn label(self) -> &'static str {
        match self {
            Layout::Aos => "aos",
            Layout::Soa => "soa",
        }
    }

    /// Inverse of [`Layout::label`].
    pub fn parse(s: &str) -> Option<Layout> {
        match s {
            "aos" => Some(Layout::Aos),
            "soa" => Some(Layout::Soa),
            _ => None,
        }
    }
}

impl Default for Layout {
    fn default() -> Self {
        Layout::Aos
    }
}

impl fmt::Display for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Typed construction failures for [`Dat::try_new`] and friends.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DatError {
    /// `dim == 0`.
    ZeroDim {
        /// Declared dat name.
        name: String,
    },
    /// Initial data length does not equal `set.size() * dim`.
    LengthMismatch {
        /// Declared dat name.
        name: String,
        /// Supplied data length.
        len: usize,
        /// Set size the dat was declared over.
        set_size: usize,
        /// Declared components per element.
        dim: usize,
    },
}

impl fmt::Display for DatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatError::ZeroDim { name } => {
                write!(f, "dat {name}: dimension must be positive")
            }
            DatError::LengthMismatch {
                name,
                len,
                set_size,
                dim,
            } => write!(
                f,
                "dat {name}: data length {len} != set.size {set_size} * dim {dim}"
            ),
        }
    }
}

impl std::error::Error for DatError {}

struct DatInner<T> {
    id: u64,
    name: String,
    set: Set,
    dim: usize,
    layout: Layout,
    /// Storage in `layout` order (see [`Layout`] for the index formulas).
    /// The box is never resized, so the payload address is stable and raw
    /// views stay valid for the lifetime of the dat.
    data: RwLock<Box<[T]>>,
}

/// Data on a set (the paper's `op_decl_dat`): `dim` values of type `T` per
/// element.
///
/// Cheap to clone (shared handle). Two access paths:
///
/// * **safe, locked** — [`Dat::data`] / [`Dat::data_mut`] for setup,
///   verification, and I/O (raw storage order; use [`Dat::to_aos_vec`] /
///   [`Dat::get_at`] for layout-independent access);
/// * **unlocked, inside a parallel loop** — typed arguments
///   ([`Dat::read`], [`Dat::write`], [`Dat::rw`], [`Dat::inc`]), or a raw
///   kernel's [`Dat::view`], where the framework (plan coloring + declared
///   access modes) — not the borrow checker — guarantees race freedom,
///   exactly as in OP2.
pub struct Dat<T> {
    inner: Arc<DatInner<T>>,
}

impl<T> Clone for Dat<T> {
    fn clone(&self) -> Self {
        Dat {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Copy + Send + Sync + 'static> Dat<T> {
    /// Declare a dat over `set` with `dim` values per element, initialized
    /// from `data` (element-major, length `set.size() * dim`), stored AoS.
    ///
    /// # Panics
    /// Panics on a length mismatch or `dim == 0`; use [`Dat::try_new`] for
    /// a typed error instead.
    pub fn new(name: impl Into<String>, set: &Set, dim: usize, data: Vec<T>) -> Self {
        match Dat::try_new(name, set, dim, data) {
            Ok(d) => d,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Dat::new`].
    pub fn try_new(
        name: impl Into<String>,
        set: &Set,
        dim: usize,
        data: Vec<T>,
    ) -> Result<Self, DatError> {
        Dat::try_with_layout(name, set, dim, Layout::Aos, data)
    }

    /// Declare a dat with an explicit storage [`Layout`]. `data` is always
    /// supplied element-major (AoS canonical order) and is converted into
    /// the requested layout.
    ///
    /// # Panics
    /// As [`Dat::new`]; use [`Dat::try_with_layout`] for a typed error.
    pub fn with_layout(
        name: impl Into<String>,
        set: &Set,
        dim: usize,
        layout: Layout,
        data: Vec<T>,
    ) -> Self {
        match Dat::try_with_layout(name, set, dim, layout, data) {
            Ok(d) => d,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Dat::with_layout`].
    pub fn try_with_layout(
        name: impl Into<String>,
        set: &Set,
        dim: usize,
        layout: Layout,
        data: Vec<T>,
    ) -> Result<Self, DatError> {
        let name = name.into();
        if dim == 0 {
            return Err(DatError::ZeroDim { name });
        }
        let n = set.size();
        if data.len() != n * dim {
            return Err(DatError::LengthMismatch {
                name,
                len: data.len(),
                set_size: n,
                dim,
            });
        }
        let storage = match (layout, data.first().copied()) {
            (Layout::Aos, _) | (_, None) => data,
            (_, Some(fill)) => {
                let mut out = vec![fill; n * dim];
                for e in 0..n {
                    for j in 0..dim {
                        out[layout.index(e, j, n, dim)] = data[e * dim + j];
                    }
                }
                out
            }
        };
        Ok(Dat {
            inner: Arc::new(DatInner {
                id: next_id(),
                name,
                set: set.clone(),
                dim,
                layout,
                data: RwLock::new(storage.into_boxed_slice()),
            }),
        })
    }

    /// Declare a dat filled with `value` (AoS).
    pub fn filled(name: impl Into<String>, set: &Set, dim: usize, value: T) -> Self {
        Dat::new(name, set, dim, vec![value; set.size() * dim])
    }

    /// Declare a dat filled with `value` in an explicit layout.
    pub fn filled_with_layout(
        name: impl Into<String>,
        set: &Set,
        dim: usize,
        layout: Layout,
        value: T,
    ) -> Self {
        Dat::with_layout(name, set, dim, layout, vec![value; set.size() * dim])
    }

    /// Locked read access to the raw storage in **layout order** (setup /
    /// verification only — do not call from inside a kernel). For
    /// layout-independent element access use [`Dat::get_at`] or
    /// [`Dat::to_aos_vec`].
    pub fn data(&self) -> RwLockReadGuard<'_, Box<[T]>> {
        self.inner.data.read()
    }

    /// Locked write access to the raw storage in layout order (setup only).
    pub fn data_mut(&self) -> RwLockWriteGuard<'_, Box<[T]>> {
        self.inner.data.write()
    }

    /// Snapshot the raw storage (layout order — bit-stable for
    /// checkpoint/rollback regardless of layout).
    pub fn to_vec(&self) -> Vec<T> {
        self.data().to_vec()
    }

    /// Snapshot the contents in canonical element-major (AoS) order,
    /// independent of the storage layout. Use this for digests and
    /// cross-layout comparisons.
    pub fn to_aos_vec(&self) -> Vec<T> {
        let n = self.inner.set.size();
        let dim = self.inner.dim;
        let guard = self.data();
        match self.inner.layout {
            Layout::Aos => guard.to_vec(),
            layout => {
                let mut out = Vec::with_capacity(n * dim);
                for e in 0..n {
                    for j in 0..dim {
                        out.push(guard[layout.index(e, j, n, dim)]);
                    }
                }
                out
            }
        }
    }

    /// Overwrite the contents from canonical element-major (AoS) data,
    /// independent of the storage layout (setup / restore only).
    ///
    /// # Panics
    /// Panics if `aos.len() != set.size() * dim`.
    pub fn write_aos(&self, aos: &[T]) {
        let n = self.inner.set.size();
        let dim = self.inner.dim;
        assert_eq!(
            aos.len(),
            n * dim,
            "dat {}: write_aos length {} != {}",
            self.inner.name,
            aos.len(),
            n * dim
        );
        let layout = self.inner.layout;
        let mut guard = self.data_mut();
        match layout {
            Layout::Aos => guard.copy_from_slice(aos),
            Layout::Soa => {
                for e in 0..n {
                    for j in 0..dim {
                        guard[layout.index(e, j, n, dim)] = aos[e * dim + j];
                    }
                }
            }
        }
    }

    /// Layout-independent single-value read (locked; setup/verification
    /// only).
    ///
    /// # Panics
    /// Panics unless `e < set.size()` and `j < dim`.
    pub fn get_at(&self, e: usize, j: usize) -> T {
        self.data()[self.checked_index(e, j)]
    }

    /// Layout-independent single-value write (locked; setup only).
    ///
    /// # Panics
    /// As [`Dat::get_at`].
    pub fn set_at(&self, e: usize, j: usize, v: T) {
        let i = self.checked_index(e, j);
        self.data_mut()[i] = v;
    }

    /// Raw index of component `j` of element `e`, range-checked: an
    /// unchecked `j == dim` or `e == n` would alias another element's slot.
    fn checked_index(&self, e: usize, j: usize) -> usize {
        let (n, dim) = (self.inner.set.size(), self.inner.dim);
        assert!(e < n && j < dim, "dat {}: ({e}, {j}) outside {n} x {dim}", self.inner.name);
        self.inner.layout.index(e, j, n, dim)
    }

    /// Reorder elements in place under a permutation `old_of_new`
    /// (`old_of_new[new] = old`, the convention of
    /// [`crate::renumber::rcm_order`]). Contents move; layout, identity and
    /// storage address stay.
    ///
    /// # Panics
    /// Panics if `old_of_new.len() != set.size()`.
    pub fn permute(&self, old_of_new: &[u32]) {
        let n = self.inner.set.size();
        assert_eq!(
            old_of_new.len(),
            n,
            "dat {}: permutation length {} != set size {n}",
            self.inner.name,
            old_of_new.len()
        );
        let dim = self.inner.dim;
        let aos = self.to_aos_vec();
        let mut out = Vec::with_capacity(n * dim);
        for &old in old_of_new {
            let old = old as usize;
            out.extend_from_slice(&aos[old * dim..(old + 1) * dim]);
        }
        self.write_aos(&out);
    }

    /// A raw, unlocked view for use inside parallel-loop kernels.
    ///
    /// The view's accessors are `unsafe`: the caller must be executing
    /// inside a [`crate::ParLoop`] whose declared arguments cover the access
    /// (the executor's plan then guarantees exclusivity). See module docs.
    ///
    /// A view holds a raw pointer into this dat's storage and does not keep
    /// the dat alive; a loop whose [`crate::ArgSpec`]s declare the dat does.
    /// Typed arguments ([`crate::typed`]) take their views themselves.
    pub fn view(&self) -> DatView<T> {
        let guard = self.inner.data.read();
        let ptr = guard.as_ptr() as *mut T;
        let len = guard.len();
        DatView {
            ptr,
            len,
            n: self.inner.set.size(),
            dim: self.inner.dim,
            layout: self.inner.layout,
        }
    }

    /// Values per element.
    pub fn dim(&self) -> usize {
        self.inner.dim
    }

    /// Storage layout.
    pub fn layout(&self) -> Layout {
        self.inner.layout
    }

    /// The set this dat lives on.
    pub fn set(&self) -> &Set {
        &self.inner.set
    }

    /// Declared name (diagnostics only).
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Process-unique identity (used by the dataflow backend's dependency
    /// table).
    pub fn id(&self) -> u64 {
        self.inner.id
    }
}

impl<T> fmt::Debug for Dat<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Dat({} #{} on {}, dim={}, {})",
            self.inner.name,
            self.inner.id,
            self.inner.set.name(),
            self.inner.dim,
            self.inner.layout.label()
        )
    }
}

/// Raw per-element view of a dat's storage, for kernels.
///
/// `Copy` and sendable across threads; all accessors are `unsafe` because the
/// framework, not the compiler, proves exclusivity (see [`Dat::view`]).
/// Every accessor works for every [`Layout`]: `get`/`set`/`add` move one
/// component, `load`/`store`/`add_vec` a whole element of compile-time width.
pub struct DatView<T> {
    ptr: *mut T,
    len: usize,
    /// Set size (needed for SoA component strides).
    n: usize,
    dim: usize,
    layout: Layout,
}

impl<T> Clone for DatView<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for DatView<T> {}

// SAFETY: the view is a typed pointer into storage owned by a `Dat` whose
// executors guarantee disjoint access per the declared access modes.
unsafe impl<T: Send + Sync> Send for DatView<T> {}
unsafe impl<T: Send + Sync> Sync for DatView<T> {}

impl<T: Copy> DatView<T> {
    /// Raw index of component `j` of element `e` under this view's layout.
    #[inline(always)]
    fn idx(&self, e: usize, j: usize) -> usize {
        self.layout.index(e, j, self.n, self.dim)
    }

    /// [`DatView::idx`] with the compile-time `D` (`== dim`) in place of `dim`.
    #[inline(always)]
    fn idx_d<const D: usize>(&self, e: usize, j: usize) -> usize {
        match self.layout {
            Layout::Aos => e * D + j,
            Layout::Soa => j * self.n + e,
        }
    }

    /// Read a single value.
    ///
    /// # Safety
    /// Must be called from a kernel whose loop declared (at least) read
    /// access to this dat at element `e`, with `e < n` and `j < dim` (only
    /// `debug_assert`ed); no concurrent writer may exist (guaranteed by the
    /// plan when declarations are correct).
    #[inline]
    pub unsafe fn get(&self, e: usize, j: usize) -> T {
        debug_assert!(j < self.dim);
        debug_assert!(self.idx(e, j) < self.len);
        *self.ptr.add(self.idx(e, j))
    }

    /// Write a single value.
    ///
    /// # Safety
    /// As [`DatView::get`], with write/rw access declared: the plan
    /// guarantees no other thread touches element `e` concurrently.
    #[inline]
    pub unsafe fn set(&self, e: usize, j: usize, v: T) {
        debug_assert!(j < self.dim);
        debug_assert!(self.idx(e, j) < self.len);
        *self.ptr.add(self.idx(e, j)) = v;
    }

    /// Read element `e`'s `D` components into a stack array (layout-
    /// agnostic; on AoS one `[T; D]` read at `e * D`).
    ///
    /// # Safety
    /// As [`DatView::get`], and `D == dim` (only `debug_assert`ed).
    #[inline]
    pub unsafe fn load<const D: usize>(&self, e: usize) -> [T; D] {
        debug_assert!(D == self.dim && e < self.n);
        // SAFETY: with `D == dim` and `e < n`, each `idx_d(e, j)`, `j < D`, is
        // inside the `n * dim` storage, and AoS element `e` is the `D` values
        // from `idx_d(e, 0)`; `[T; D]` has `T`'s alignment.
        match self.layout {
            Layout::Aos => self.ptr.add(self.idx_d::<D>(e, 0)).cast::<[T; D]>().read(),
            Layout::Soa => std::array::from_fn(|j| *self.ptr.add(self.idx_d::<D>(e, j))),
        }
    }

    /// Write element `e`'s `D` components (addressed as [`DatView::load`]).
    ///
    /// # Safety
    /// As [`DatView::set`], and `D == dim` (only `debug_assert`ed).
    #[inline]
    pub unsafe fn store<const D: usize>(&self, e: usize, vals: [T; D]) {
        debug_assert!(D == self.dim && e < self.n);
        // SAFETY: `load`'s bounds; the caller holds element `e` exclusively.
        match self.layout {
            Layout::Aos => self.ptr.add(self.idx_d::<D>(e, 0)).cast::<[T; D]>().write(vals),
            Layout::Soa => {
                for (j, v) in vals.into_iter().enumerate() {
                    *self.ptr.add(self.idx_d::<D>(e, j)) = v;
                }
            }
        }
    }
}

impl<T: Copy + std::ops::AddAssign> DatView<T> {
    /// Increment a single value (`OP_INC` access).
    ///
    /// # Safety
    /// As [`DatView::set`]; coloring guarantees no concurrent increment of
    /// the same element.
    #[inline]
    pub unsafe fn add(&self, e: usize, j: usize, v: T) {
        debug_assert!(j < self.dim);
        debug_assert!(self.idx(e, j) < self.len);
        *self.ptr.add(self.idx(e, j)) += v;
    }

    /// Increment element `e`'s `D` components in ascending `j`
    /// (layout-agnostic `OP_INC`; addressed as [`DatView::load`]).
    ///
    /// # Safety
    /// As [`DatView::add`], and `D == dim` (only `debug_assert`ed).
    #[inline]
    pub unsafe fn add_vec<const D: usize>(&self, e: usize, vals: [T; D]) {
        debug_assert!(D == self.dim && e < self.n);
        // SAFETY: `load`'s bounds; the coloring gives the caller element `e`.
        match self.layout {
            Layout::Aos => {
                let row = &mut *self.ptr.add(self.idx_d::<D>(e, 0)).cast::<[T; D]>();
                row.iter_mut().zip(vals).for_each(|(slot, v)| *slot += v);
            }
            Layout::Soa => {
                for (j, v) in vals.into_iter().enumerate() {
                    *self.ptr.add(self.idx_d::<D>(e, j)) += v;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dat_roundtrip() {
        let cells = Set::new("cells", 3);
        let d = Dat::new("q", &cells, 2, vec![1.0f64, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.layout(), Layout::Aos);
        assert_eq!(d.to_vec(), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        d.data_mut()[4] = 50.0;
        assert_eq!(d.data()[4], 50.0);
    }

    #[test]
    fn dat_filled() {
        let cells = Set::new("cells", 4);
        let d = Dat::filled("adt", &cells, 1, 0.5f64);
        assert_eq!(d.to_vec(), vec![0.5; 4]);
    }

    #[test]
    fn view_accesses_elements() {
        let cells = Set::new("cells", 3);
        let d = Dat::new("q", &cells, 2, vec![0i64; 6]);
        let v = d.view();
        unsafe {
            v.set(1, 0, 10);
            v.add(1, 0, 5);
            v.set(2, 1, 7);
        }
        assert_eq!(d.to_vec(), vec![0, 0, 15, 0, 0, 7]);
        unsafe {
            assert_eq!(v.get(1, 0), 15);
            assert_eq!(&v.load::<2>(2), &[0, 7]);
        }
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn dat_rejects_bad_length() {
        let cells = Set::new("cells", 3);
        let _ = Dat::new("q", &cells, 2, vec![0.0f32; 5]);
    }

    #[test]
    fn dat_try_new_reports_typed_errors() {
        let cells = Set::new("cells", 3);
        match Dat::try_new("q", &cells, 2, vec![0.0f64; 5]) {
            Err(DatError::LengthMismatch { len, set_size, dim, .. }) => {
                assert_eq!((len, set_size, dim), (5, 3, 2));
            }
            other => panic!("expected LengthMismatch, got {other:?}"),
        }
        assert!(matches!(
            Dat::try_new("q", &cells, 0, vec![0.0f64; 0]),
            Err(DatError::ZeroDim { .. })
        ));
    }

    #[test]
    fn dat_clone_shares_storage() {
        let cells = Set::new("cells", 2);
        let a = Dat::new("x", &cells, 1, vec![1, 2]);
        let b = a.clone();
        a.data_mut()[0] = 9;
        assert_eq!(b.to_vec(), vec![9, 2]);
        assert_eq!(a.id(), b.id());
    }

    #[test]
    fn layout_index_formulas() {
        // 5 elements × 3 components.
        let (n, dim) = (5usize, 3usize);
        assert_eq!(Layout::Aos.index(2, 1, n, dim), 7);
        assert_eq!(Layout::Soa.index(2, 1, n, dim), 5 + 2);
    }

    #[test]
    fn layout_labels_roundtrip() {
        for l in [Layout::Aos, Layout::Soa] {
            assert_eq!(Layout::parse(l.label()), Some(l));
        }
        assert_eq!(Layout::parse("soa8"), None);
        assert_eq!(Layout::parse("garbage"), None);
    }

    #[test]
    fn soa_dat_roundtrips_through_aos_canon() {
        let cells = Set::new("cells", 3);
        let aos = vec![1.0f64, 2.0, 3.0, 4.0, 5.0, 6.0];
        let d = Dat::with_layout("q", &cells, 2, Layout::Soa, aos.clone());
        // Raw storage is component-major.
        assert_eq!(d.to_vec(), vec![1.0, 3.0, 5.0, 2.0, 4.0, 6.0]);
        // Canonical order is recovered.
        assert_eq!(d.to_aos_vec(), aos);
        assert_eq!(d.get_at(1, 1), 4.0);
        d.set_at(1, 1, 40.0);
        assert_eq!(d.to_aos_vec(), vec![1.0, 2.0, 3.0, 40.0, 5.0, 6.0]);
    }

    /// The const-width accessors are the per-component ones, bit for bit:
    /// `load`/`store`/`add_vec` at every width 1–4 on both layouts against
    /// `get`/`set`/`add` on a twin dat, with `-0.0` and NaN payloads among
    /// the values. Loads and stores copy, so every payload must survive;
    /// Rust leaves the payload of a NaN that arithmetic produces unspecified
    /// (the optimizer may fold it either way), so after `add_vec` a NaN need
    /// only be a NaN.
    #[test]
    fn view_layout_agnostic_accessors_agree() {
        fn check<const D: usize>() {
            let n = 7;
            let cells = Set::new("cells", n);
            let odd = [-0.0, f64::from_bits(0x7ff8_0000_dead_beef), f64::from_bits(0xfff4_0000_0000_0042)];
            let value = |i: usize| if i % 4 < 3 { odd[i % 4] } else { i as f64 * 0.5 - 3.0 };
            let aos: Vec<f64> = (0..n * D).map(value).collect();
            let bits = |d: &Dat<f64>| d.to_aos_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let sums = |d: &Dat<f64>| {
                d.to_aos_vec().iter().map(|v| if v.is_nan() { None } else { Some(v.to_bits()) }).collect::<Vec<_>>()
            };
            for layout in [Layout::Aos, Layout::Soa] {
                let a = Dat::with_layout("a", &cells, D, layout, aos.clone());
                let b = Dat::with_layout("b", &cells, D, layout, aos.clone());
                let (va, vb) = (a.view(), b.view());
                unsafe {
                    for e in 0..n {
                        let row: [f64; D] = va.load(e);
                        for (j, v) in row.iter().enumerate() {
                            assert_eq!(v.to_bits(), vb.get(e, j).to_bits(), "{layout:?} D={D} e={e}");
                            assert_eq!(v.to_bits(), aos[e * D + j].to_bits());
                        }
                    }
                    for e in 0..n {
                        let vals: [f64; D] = std::array::from_fn(|j| value(e + 3 * j + 1));
                        va.store(e, vals);
                        vals.iter().enumerate().for_each(|(j, &v)| vb.set(e, j, v));
                    }
                    assert_eq!(bits(&a), bits(&b), "{layout:?} D={D}: store");
                    for e in 0..n {
                        let vals: [f64; D] = std::array::from_fn(|j| value(2 * e + j));
                        va.add_vec(e, vals);
                        vals.iter().enumerate().for_each(|(j, &v)| vb.add(e, j, v));
                    }
                    assert_eq!(sums(&a), sums(&b), "{layout:?} D={D}: add_vec");
                }
            }
        }
        check::<1>();
        check::<2>();
        check::<3>();
        check::<4>();
    }

    /// `Dat::get_at`/`set_at` and `Map::at` refuse every index that the raw
    /// formula would fold onto another element's slot: `j == dim` (AoS and
    /// maps: element `e + 1`, slot 0) and `e == n` (SoA: element 0,
    /// component `j + 1`), with a panic that names the dat or map.
    #[test]
    fn out_of_range_indices_never_alias() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let panics_naming = |who: &str, f: &dyn Fn()| {
            let payload = catch_unwind(AssertUnwindSafe(f)).err();
            payload.and_then(|p| p.downcast::<String>().ok()).is_some_and(|m| m.starts_with(who))
        };
        let cells = Set::new("cells", 4);
        let aos: Vec<f64> = (0..12).map(f64::from).collect();
        let aliasing = [(0, 3), (1, 3), (2, 4), (4, 0), (4, 1), (5, 0)];
        for layout in [Layout::Aos, Layout::Soa] {
            let d = Dat::with_layout("q", &cells, 3, layout, aos.clone());
            for (e, j) in aliasing {
                let get = || {
                    d.get_at(e, j);
                };
                assert!(panics_naming("dat q: ", &get), "{layout:?} get_at({e}, {j})");
                let set = || d.set_at(e, j, -1.0);
                assert!(panics_naming("dat q: ", &set), "{layout:?} set_at({e}, {j})");
            }
            assert_eq!(d.to_aos_vec(), aos, "{layout:?}");
        }
        let m = crate::Map::new("m", &cells, &cells, 3, (0..12).map(|i| i % 4).collect());
        for (e, j) in aliasing {
            let at = || {
                m.at(e, j);
            };
            assert!(panics_naming("map m: ", &at), "at({e}, {j})");
        }
    }

    #[test]
    fn soa_permute() {
        let cells = Set::new("cells", 4);
        let aos: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let s = Dat::with_layout("q", &cells, 2, Layout::Soa, aos);

        // perm[new] = old: reverse the elements.
        s.permute(&[3, 2, 1, 0]);
        assert_eq!(s.to_aos_vec(), vec![6.0, 7.0, 4.0, 5.0, 2.0, 3.0, 0.0, 1.0]);
    }
}
