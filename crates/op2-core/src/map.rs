//! Maps — connectivity between sets.
//!
//! A map of dimension `d` associates each element of its *from* set with `d`
//! elements of its *to* set (e.g. `pecell`: each edge → its 2 adjacent cells,
//! `pcell`: each cell → its 4 corner nodes). Indirect loop arguments access
//! data through a map, which is what creates the race the execution plan's
//! coloring resolves.

use std::fmt;
use std::sync::Arc;

use crate::ids::next_id;
use crate::set::Set;

/// Typed construction failures for [`Map::try_new`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MapError {
    /// `dim == 0`.
    ZeroDim {
        /// Declared map name.
        name: String,
    },
    /// Table length does not equal `from.size() * dim`.
    LengthMismatch {
        /// Declared map name.
        name: String,
        /// Supplied table length.
        len: usize,
        /// From-set size the map was declared over.
        from_size: usize,
        /// Declared arity.
        dim: usize,
    },
    /// A table entry points outside the target set.
    TargetOutOfRange {
        /// Declared map name.
        name: String,
        /// Flat table index of the offending entry.
        entry: usize,
        /// The out-of-range value.
        value: u32,
        /// Target set name.
        to: String,
        /// Target set size.
        to_size: usize,
    },
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::ZeroDim { name } => {
                write!(f, "map {name}: dimension must be positive")
            }
            MapError::LengthMismatch {
                name,
                len,
                from_size,
                dim,
            } => write!(
                f,
                "map {name}: table length {len} != from.size {from_size} * dim {dim}"
            ),
            MapError::TargetOutOfRange {
                name,
                entry,
                value,
                to,
                to_size,
            } => write!(
                f,
                "map {name}: entry {entry} = {value} out of range for target set {to} (size {to_size})"
            ),
        }
    }
}

impl std::error::Error for MapError {}

struct MapInner {
    id: u64,
    name: String,
    from: Set,
    to: Set,
    dim: usize,
    table: Box<[u32]>,
}

/// Connectivity table from one set to another (the paper's `op_decl_map`).
///
/// Cheap to clone (shared handle).
#[derive(Clone)]
pub struct Map {
    inner: Arc<MapInner>,
}

impl Map {
    /// Declare a map.
    ///
    /// `table` is row-major: entry `e * dim + j` is the `j`-th target of
    /// element `e`.
    ///
    /// # Panics
    /// Panics if `table.len() != from.size() * dim`, if `dim == 0`, or if any
    /// entry is out of range for `to`; use [`Map::try_new`] for a typed
    /// error instead.
    pub fn new(
        name: impl Into<String>,
        from: &Set,
        to: &Set,
        dim: usize,
        table: Vec<u32>,
    ) -> Self {
        match Map::try_new(name, from, to, dim, table) {
            Ok(m) => m,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Map::new`].
    pub fn try_new(
        name: impl Into<String>,
        from: &Set,
        to: &Set,
        dim: usize,
        table: Vec<u32>,
    ) -> Result<Self, MapError> {
        let name = name.into();
        if dim == 0 {
            return Err(MapError::ZeroDim { name });
        }
        if table.len() != from.size() * dim {
            return Err(MapError::LengthMismatch {
                name,
                len: table.len(),
                from_size: from.size(),
                dim,
            });
        }
        // One branch-free pass (an or-reduction, which vectorizes) decides;
        // only a bad table is scanned again, to name its first bad entry.
        let to_size = to.size();
        let out_of_range = |t: u32| t as usize >= to_size;
        if table.iter().fold(false, |bad, &t| bad | out_of_range(t)) {
            let (entry, value) = table
                .iter()
                .copied()
                .enumerate()
                .find(|&(_, t)| out_of_range(t))
                .expect("a bad entry");
            return Err(MapError::TargetOutOfRange {
                name,
                entry,
                value,
                to: to.name().to_string(),
                to_size,
            });
        }
        Ok(Map {
            inner: Arc::new(MapInner {
                id: next_id(),
                name,
                from: from.clone(),
                to: to.clone(),
                dim,
                table: table.into_boxed_slice(),
            }),
        })
    }

    /// The `j`-th target of element `e`.
    ///
    /// # Panics
    /// Panics unless `e < from.size()` and `j < dim`: an unchecked
    /// `j == dim` would read element `e + 1`'s first target.
    #[inline]
    pub fn at(&self, e: usize, j: usize) -> usize {
        let (n, dim) = (self.inner.from.size(), self.inner.dim);
        assert!(e < n && j < dim, "map {}: at({e}, {j}) outside {n} x {dim}", self.inner.name);
        self.inner.table[e * dim + j] as usize
    }

    /// A raw view of the table for typed arguments' span loops, as
    /// [`crate::Dat::view`] is for a dat (other code reads through
    /// [`Map::at`]).
    ///
    /// # Panics
    /// Panics unless `D` is the map's `dim`: the view's one width check.
    pub(crate) fn view<const D: usize>(&self) -> MapView<D> {
        let (dim, table) = (self.inner.dim, &self.inner.table);
        assert!(D == dim, "map {}: view of width {D}, map dim {dim}", self.inner.name);
        MapView { table: table.as_ptr(), len: table.len() }
    }

    /// The full row-major connectivity table (entry `e * dim + j` is the
    /// `j`-th target of element `e`) — content addressing for plan caches.
    pub fn table(&self) -> &[u32] {
        &self.inner.table
    }

    /// Arity of the map.
    pub fn dim(&self) -> usize {
        self.inner.dim
    }

    /// The set this map originates from.
    pub fn from_set(&self) -> &Set {
        &self.inner.from
    }

    /// The set this map points into.
    pub fn to_set(&self) -> &Set {
        &self.inner.to
    }

    /// Declared name (diagnostics only).
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Process-unique identity.
    pub fn id(&self) -> u64 {
        self.inner.id
    }
}

impl fmt::Debug for Map {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Map({} #{}: {}[{}] -> {})",
            self.name(),
            self.id(),
            self.from_set().name(),
            self.dim(),
            self.to_set().name()
        )
    }
}

/// A raw, `Copy` view of a [`Map`]'s table, arity `D` a constant: a row is one
/// `[u32; D]` read, no `Arc` to re-read or bounds check after a kernel's
/// stores. It does not keep the map alive; the loop's [`crate::ArgSpec`]s do.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MapView<const D: usize> {
    table: *const u32,
    len: usize,
}

// SAFETY: `table` points into a `Map`'s table, never mutated after
// `Map::try_new`, so sharing it shares only reads; `len` is a plain value.
unsafe impl<const D: usize> Send for MapView<D> {}
unsafe impl<const D: usize> Sync for MapView<D> {}

impl<const D: usize> MapView<D> {
    /// The `D` targets of element `e`, `[at(e, 0), …, at(e, D - 1)]`.
    ///
    /// # Safety
    /// The map must be alive and `e` in its from-set (only `debug_assert`ed);
    /// every target is in its to-set, as [`Map::try_new`] checked.
    #[inline(always)]
    pub(crate) unsafe fn row(&self, e: usize) -> [usize; D] {
        debug_assert!(e * D + D <= self.len);
        // SAFETY: `D == dim` (`Map::view`), so row `e` is the `D` entries from
        // `e * D` of the `from.size() * dim` table; `[u32; D]` is `u32`-aligned.
        let row = self.table.add(e * D).cast::<[u32; D]>().read();
        // Not `array::map`: its closure can stay out of line (`crate::lanes`).
        let mut out = [0; D];
        for (o, t) in out.iter_mut().zip(row) {
            *o = t as usize;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sets() -> (Set, Set) {
        (Set::new("edges", 3), Set::new("cells", 4))
    }

    #[test]
    fn map_lookups() {
        let (edges, cells) = sets();
        let m = Map::new("pecell", &edges, &cells, 2, vec![0, 1, 1, 2, 2, 3]);
        assert_eq!(m.at(0, 0), 0);
        assert_eq!(m.at(2, 1), 3);
        assert_eq!(unsafe { m.view::<2>().row(1) }, [1, 2]);
        assert_eq!(m.dim(), 2);
    }

    /// Every row a view hands a kernel is the map's own, at every width
    /// Airfoil declares (`pbecell` 1, `pecell` 2, `pcell` 4).
    #[test]
    fn view_rows_equal_at_for_every_element() {
        fn check<const D: usize>() {
            let (from, to) = (Set::new("from", 7), Set::new("to", 11));
            let table = (0..7 * D as u32).map(|i| (i * 5 + 3) % 11).collect();
            let m = Map::new("m", &from, &to, D, table);
            let v = m.view::<D>();
            for e in 0..7 {
                let row = unsafe { v.row(e) };
                let at: Vec<usize> = (0..D).map(|j| m.at(e, j)).collect();
                assert_eq!(row.to_vec(), at, "D={D} e={e}");
            }
        }
        check::<1>();
        check::<2>();
        check::<4>();
    }

    #[test]
    #[should_panic(expected = "view of width 4, map dim 2")]
    fn view_of_the_wrong_width_is_rejected_where_it_is_made() {
        let (edges, cells) = sets();
        let m = Map::new("pecell", &edges, &cells, 2, vec![0, 1, 1, 2, 2, 3]);
        let _ = m.view::<4>();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn map_rejects_out_of_range() {
        let (edges, cells) = sets();
        let _ = Map::new("bad", &edges, &cells, 2, vec![0, 1, 1, 2, 2, 9]);
    }

    #[test]
    #[should_panic(expected = "table length")]
    fn map_rejects_wrong_length() {
        let (edges, cells) = sets();
        let _ = Map::new("bad", &edges, &cells, 2, vec![0, 1, 1]);
    }

    #[test]
    fn map_try_new_reports_typed_errors() {
        let (edges, cells) = sets();
        assert!(matches!(
            Map::try_new("bad", &edges, &cells, 0, vec![]),
            Err(MapError::ZeroDim { .. })
        ));
        assert!(matches!(
            Map::try_new("bad", &edges, &cells, 2, vec![0, 1, 1]),
            Err(MapError::LengthMismatch { len: 3, from_size: 3, dim: 2, .. })
        ));
        match Map::try_new("bad", &edges, &cells, 2, vec![0, 1, 1, 2, 2, 9]) {
            Err(MapError::TargetOutOfRange { entry, value, to_size, .. }) => {
                assert_eq!((entry, value, to_size), (5, 9, 4));
            }
            other => panic!("expected TargetOutOfRange, got {other:?}"),
        }
    }

    /// The one-pass range check names the first bad entry wherever it is,
    /// with the same `entry` and `value` as an entry-by-entry scan.
    #[test]
    fn map_try_new_names_the_first_bad_entry() {
        let from = Set::new("from", 1000);
        let to = Set::new("to", 50);
        let table = |bad: &[(usize, u32)]| {
            let mut t: Vec<u32> = (0..1000).map(|i| i % 50).collect();
            for &(i, v) in bad {
                t[i] = v;
            }
            t
        };
        for (bad, first) in [
            (vec![(0, 50)], (0, 50)),
            (vec![(517, 99), (800, 50)], (517, 99)),
            (vec![(999, u32::MAX)], (999, u32::MAX)),
        ] {
            match Map::try_new("bad", &from, &to, 1, table(&bad)) {
                Err(MapError::TargetOutOfRange { entry, value, to_size, .. }) => {
                    assert_eq!((entry, value, to_size), (first.0, first.1, 50));
                }
                other => panic!("expected TargetOutOfRange, got {other:?}"),
            }
        }
        assert!(Map::try_new("good", &from, &to, 1, table(&[])).is_ok());
    }
}
