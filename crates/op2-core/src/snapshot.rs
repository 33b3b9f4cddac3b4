//! Type-erased dat snapshots — the storage layer of transactional loops.
//!
//! Every [`crate::ArgSpec`] holds an `Arc<dyn RawDat>` handle to its dat.
//! The handle serves two purposes: it keeps the storage alive (the old
//! keep-alive role), and it lets an executor capture/restore the dat's
//! contents *without knowing the element type* — which is what makes
//! per-loop write-set rollback possible from the type-erased loop
//! descriptor alone.
//!
//! A rollback only has to put back what the loop can have changed, and the
//! argument declarations say what that is: [`crate::ParLoop::write_footprint`]
//! classifies every written dat as [`Footprint::Skip`], [`Footprint::Rows`] or
//! [`Footprint::Whole`], and [`WriteFootprint::snapshot`] copies exactly
//! that much.

use std::any::TypeId;
use std::sync::Arc;

use crate::access::Access;
use crate::arg::{ArgSpec, MapRef};
use crate::dat::{Dat, Layout};

/// Type-erased operations on a dat's storage.
pub trait RawDat: Send + Sync {
    /// Process-unique identity of the dat (same as [`Dat::id`]).
    fn dat_id(&self) -> u64;

    /// Dat name (diagnostics).
    fn dat_name(&self) -> &str;

    /// Capture the current contents; [`DatSnapshot::restore`] writes them
    /// back bit-identically.
    fn snapshot(&self) -> Box<dyn DatSnapshot>;

    /// Capture only the elements `rows` (every component of each, whatever
    /// the [`Layout`]); [`DatSnapshot::restore`] writes exactly those back,
    /// bit-identically, and touches nothing else.
    ///
    /// # Panics
    /// Panics if a row is not an element of the dat's set.
    fn snapshot_rows(&self, rows: &Arc<[u32]>) -> Box<dyn DatSnapshot>;

    /// First non-finite value, as `(element, component)`, when the dat holds
    /// `f64`s; `None` for other element types or when every value is finite.
    fn find_nonfinite(&self) -> Option<(usize, usize)>;
}

/// A captured copy of one dat's storage (all of it, or some of its rows).
pub trait DatSnapshot: Send {
    /// Write the captured bytes back over the live storage.
    fn restore(&self);

    /// Identity of the dat this snapshot belongs to.
    fn dat_id(&self) -> u64;
}

impl<T: Copy + Send + Sync + 'static> RawDat for Dat<T> {
    fn dat_id(&self) -> u64 {
        self.id()
    }

    fn dat_name(&self) -> &str {
        self.name()
    }

    fn snapshot(&self) -> Box<dyn DatSnapshot> {
        Box::new(Snapshot {
            dat: self.clone(),
            saved: self.to_vec(),
        })
    }

    fn snapshot_rows(&self, rows: &Arc<[u32]>) -> Box<dyn DatSnapshot> {
        let (n, dim, layout) = (self.set().size(), self.dim(), self.layout());
        let data = self.data();
        let mut saved = Vec::with_capacity(rows.len() * dim);
        for &e in rows.iter() {
            let e = e as usize;
            assert!(e < n, "dat {}: row {e} outside its set of {n}", self.name());
            saved.extend((0..dim).map(|j| data[layout.index(e, j, n, dim)]));
        }
        drop(data);
        Box::new(RowSnapshot {
            dat: self.clone(),
            rows: Arc::clone(rows),
            saved,
        })
    }

    fn find_nonfinite(&self) -> Option<(usize, usize)> {
        if TypeId::of::<T>() != TypeId::of::<f64>() {
            return None;
        }
        let guard = self.data();
        // SAFETY: T == f64, checked by TypeId above; same layout, same length.
        let vals =
            unsafe { std::slice::from_raw_parts(guard.as_ptr() as *const f64, guard.len()) };
        let dim = self.dim();
        match self.layout() {
            Layout::Aos => vals
                .iter()
                .position(|v| !v.is_finite())
                .map(|i| (i / dim, i % dim)),
            layout => {
                // Walk elements in canonical order.
                let n = self.set().size();
                for e in 0..n {
                    for j in 0..dim {
                        if !vals[layout.index(e, j, n, dim)].is_finite() {
                            return Some((e, j));
                        }
                    }
                }
                None
            }
        }
    }
}

struct Snapshot<T> {
    dat: Dat<T>,
    saved: Vec<T>,
}

impl<T: Copy + Send + Sync + 'static> DatSnapshot for Snapshot<T> {
    fn restore(&self) {
        self.dat.data_mut().copy_from_slice(&self.saved);
    }

    fn dat_id(&self) -> u64 {
        self.dat.id()
    }
}

/// Some rows of a dat, saved row-major (`rows[k]`'s components are
/// `saved[k * dim..][..dim]`) whatever the dat's layout.
struct RowSnapshot<T> {
    dat: Dat<T>,
    rows: Arc<[u32]>,
    saved: Vec<T>,
}

impl<T: Copy + Send + Sync + 'static> DatSnapshot for RowSnapshot<T> {
    fn restore(&self) {
        let (n, dim, layout) = (self.dat.set().size(), self.dat.dim(), self.dat.layout());
        let mut data = self.dat.data_mut();
        for (&e, row) in self.rows.iter().zip(self.saved.chunks_exact(dim)) {
            for (j, v) in row.iter().enumerate() {
                data[layout.index(e as usize, j, n, dim)] = *v;
            }
        }
    }

    fn dat_id(&self) -> u64 {
        self.dat.id()
    }
}

/// How much of a written dat a rollback has to be able to put back, as far
/// as the loop's argument declarations tell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Footprint {
    /// Nothing. Every argument naming the dat is a direct `OP_WRITE`: the
    /// loop never observes the old contents and any re-execution rewrites
    /// the dat in full, so after a failed run it holds unspecified values
    /// until the retry (or whoever runs next) overwrites them.
    Skip,
    /// Only these elements (ascending, unique): the dat is written through
    /// map slots alone and they reach at most half of it — a boundary loop's
    /// handful of cells.
    Rows(Arc<[u32]>),
    /// All of it: written directly (and read, or read-modified), or through
    /// maps that reach more than half of it.
    Whole,
}

/// One dat a loop declares it may modify, with the extent a rollback must
/// cover — an entry of [`crate::ParLoop::write_footprint`].
pub struct WriteFootprint {
    raw: Arc<dyn RawDat>,
    extent: Footprint,
}

impl WriteFootprint {
    /// How much of it a rollback has to cover.
    pub fn extent(&self) -> &Footprint {
        &self.extent
    }

    /// Capture what [`WriteFootprint::extent`] says; `None` when that is
    /// nothing.
    pub fn snapshot(&self) -> Option<Box<dyn DatSnapshot>> {
        match &self.extent {
            Footprint::Skip => None,
            Footprint::Rows(rows) => Some(self.raw.snapshot_rows(rows)),
            Footprint::Whole => Some(self.raw.snapshot()),
        }
    }
}

/// Classify every dat `args` may modify (one entry per dat, in declaration
/// order). Walks each writing map slot once — up to the point where more
/// than half the dat is known to be reachable — so
/// [`crate::ParLoop::write_footprint`] keeps the result, per loop.
pub(crate) fn write_footprint(args: &[ArgSpec]) -> Vec<WriteFootprint> {
    let mut out: Vec<WriteFootprint> = Vec::new();
    for a in args {
        if a.access.writes() && !out.iter().any(|f| f.raw.dat_id() == a.dat_id) {
            out.push(WriteFootprint {
                raw: Arc::clone(a.raw()),
                extent: classify(a, args),
            });
        }
    }
    out
}

/// The extent of the dat `first` names, over every argument naming it.
fn classify(first: &ArgSpec, args: &[ArgSpec]) -> Footprint {
    let naming = || args.iter().filter(|a| a.dat_id == first.dat_id);
    if naming().all(|a| !a.is_indirect() && a.access == Access::Write) {
        return Footprint::Skip;
    }
    let n = first.dat_set.size();
    let mut reached = vec![false; n];
    let mut count = 0;
    for a in naming().filter(|a| a.access.writes()) {
        // A direct writer covers the whole set.
        let MapRef::Indirect { map, idx } = &a.map_ref else {
            return Footprint::Whole;
        };
        for &row in map.table().iter().skip(*idx).step_by(map.dim()) {
            if !std::mem::replace(&mut reached[row as usize], true) {
                count += 1;
                if count * 2 > n {
                    return Footprint::Whole;
                }
            }
        }
    }
    let rows = (0..n as u32).filter(|&r| reached[r as usize]);
    Footprint::Rows(rows.collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arg::{arg_direct, arg_indirect};
    use crate::loops::ParLoop;
    use crate::map::Map;
    use crate::set::Set;

    #[test]
    fn snapshot_restores_bit_identically() {
        let cells = Set::new("cells", 4);
        let d = Dat::new("q", &cells, 2, vec![1.0f64, -0.0, 2.5, 3.0, 4.0, 5.0, 6.0, 7.0]);
        let raw: &dyn RawDat = &d;
        let before: Vec<u64> = d.to_vec().iter().map(|v| v.to_bits()).collect();
        let snap = raw.snapshot();
        d.data_mut().iter_mut().for_each(|v| *v = f64::NAN);
        snap.restore();
        let after: Vec<u64> = d.to_vec().iter().map(|v| v.to_bits()).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn nonfinite_located_for_f64() {
        let cells = Set::new("cells", 3);
        let d = Dat::new("q", &cells, 2, vec![0.0f64, 1.0, 2.0, f64::INFINITY, 4.0, 5.0]);
        let raw: &dyn RawDat = &d;
        assert_eq!(raw.find_nonfinite(), Some((1, 1)));
        d.data_mut()[3] = 3.0;
        assert_eq!(raw.find_nonfinite(), None);
    }

    #[test]
    fn nonfinite_ignores_non_f64() {
        let cells = Set::new("cells", 2);
        let d = Dat::new("ids", &cells, 1, vec![1i64, 2]);
        let raw: &dyn RawDat = &d;
        assert_eq!(raw.find_nonfinite(), None);
    }

    /// Raw storage bits.
    fn raw_bits(d: &Dat<f64>) -> Vec<u64> {
        d.to_vec().into_iter().map(f64::to_bits).collect()
    }

    #[test]
    fn row_snapshot_restores_its_rows_bit_exactly_and_nothing_else() {
        // Values carry a negative zero and NaNs with distinct payloads.
        let (n, dim) = (10, 3);
        let cells = Set::new("cells", n);
        let init: Vec<f64> = (0..n * dim)
            .map(|i| match i % 5 {
                0 => -0.0,
                1 => f64::from_bits(0x7ff8_0000_0000_0000 | i as u64),
                _ => i as f64 * 0.5,
            })
            .collect();
        for layout in [Layout::Aos, Layout::Soa] {
            let d = Dat::with_layout("q", &cells, dim, layout, init.clone());
            let before = raw_bits(&d);
            let rows: Arc<[u32]> = vec![0, 3, 9].into();
            let raw: &dyn RawDat = &d;
            let snap = raw.snapshot_rows(&rows);
            assert_eq!(snap.dat_id(), d.id());

            let scribble = f64::from_bits(0xdead_beef_dead_beef);
            d.data_mut().iter_mut().for_each(|v| *v = scribble);
            snap.restore();

            let mut want = vec![scribble.to_bits(); before.len()];
            for &e in rows.iter() {
                for j in 0..dim {
                    let i = layout.index(e as usize, j, n, dim);
                    want[i] = before[i];
                }
            }
            assert_eq!(raw_bits(&d), want, "{layout}");
        }
    }

    #[test]
    #[should_panic(expected = "outside its set")]
    fn row_snapshot_rejects_a_row_outside_the_set() {
        let cells = Set::new("cells", 4);
        let d = Dat::filled("q", &cells, 1, 0.0f64);
        let raw: &dyn RawDat = &d;
        let _ = raw.snapshot_rows(&vec![4].into());
    }

    /// `edges` → `cells` fixture: edge `e` maps to `(table[2e], table[2e+1])`.
    struct Mesh {
        edges: Set,
        cells: Set,
        pecell: Map,
    }

    fn mesh(ncells: usize, table: Vec<u32>) -> Mesh {
        let edges = Set::new("edges", table.len() / 2);
        let cells = Set::new("cells", ncells);
        let pecell = Map::new("pecell", &edges, &cells, 2, table);
        Mesh { edges, cells, pecell }
    }

    /// `(dat name, extent)` per written dat, rows as a plain vector.
    fn extents(l: &ParLoop) -> Vec<(String, Footprint)> {
        l.write_footprint()
            .iter()
            .map(|f| (f.raw.dat_name().to_owned(), f.extent.clone()))
            .collect()
    }

    fn rows(r: &[u32]) -> Footprint {
        Footprint::Rows(r.into())
    }

    #[test]
    fn direct_args_are_skipped_only_when_nothing_observes_the_dat() {
        let m = mesh(8, vec![0, 1, 1, 2]);
        let q = Dat::filled("q", &m.cells, 2, 0.0f64);
        let qold = Dat::filled("qold", &m.cells, 2, 0.0f64);
        let res = Dat::filled("res", &m.cells, 2, 0.0f64);
        // save_soln / update shape: read one, overwrite one, read-modify one.
        let l = ParLoop::build("update", &m.cells)
            .arg(arg_direct(&q, Access::Read))
            .arg(arg_direct(&qold, Access::Write))
            .arg(arg_direct(&res, Access::ReadWrite))
            .kernel(|_, _| {});
        assert_eq!(
            extents(&l),
            [("qold".to_owned(), Footprint::Skip), ("res".to_owned(), Footprint::Whole)]
        );
        // A skipped dat is not captured at all.
        assert!(l.write_footprint()[0].snapshot().is_none());
        assert!(l.write_footprint()[1].snapshot().is_some());

        // OP_WRITE-direct in one arg, read by another arg of the same loop
        // (here through a cell → cell map): the loop observes old values of
        // rows a failed run may already have overwritten, so not skipped.
        let next = Map::new("next", &m.cells, &m.cells, 1, (0..8).map(|c| (c + 1) % 8).collect());
        let shift = ParLoop::build("shift", &m.cells)
            .arg(arg_direct(&q, Access::Write))
            .arg(arg_indirect(&q, 0, &next, Access::Read))
            .kernel(|_, _| {});
        assert_eq!(extents(&shift), [("q".to_owned(), Footprint::Whole)]);
    }

    #[test]
    fn indirect_writes_cover_the_union_of_the_rows_their_slots_reach() {
        // Three boundary-like edges over 16 cells.
        let m = mesh(16, vec![9, 2, 2, 5, 9, 14]);
        let res = Dat::filled("res", &m.cells, 1, 0.0f64);
        let one_slot = ParLoop::build("bres", &m.edges)
            .arg(arg_indirect(&res, 0, &m.pecell, Access::Inc))
            .kernel(|_, _| {});
        assert_eq!(extents(&one_slot), [("res".to_owned(), rows(&[2, 9]))]);

        let two_slots = ParLoop::build("res_calc", &m.edges)
            .arg(arg_indirect(&res, 0, &m.pecell, Access::Inc))
            .arg(arg_indirect(&res, 1, &m.pecell, Access::Inc))
            .kernel(|_, _| {});
        assert_eq!(extents(&two_slots), [("res".to_owned(), rows(&[2, 5, 9, 14]))]);

        // A second map into the same dat: still one entry, rows united.
        let other = Map::new("other", &m.edges, &m.cells, 1, vec![0, 5, 15]);
        let two_maps = ParLoop::build("two_maps", &m.edges)
            .arg(arg_indirect(&res, 1, &m.pecell, Access::Inc))
            .arg(arg_indirect(&res, 0, &other, Access::ReadWrite))
            .kernel(|_, _| {});
        assert_eq!(extents(&two_maps), [("res".to_owned(), rows(&[0, 2, 5, 14, 15]))]);

        // An indirect *read* of the same dat adds nothing to restore.
        let q = Dat::filled("q", &m.cells, 1, 0.0f64);
        let reads_too = ParLoop::build("reads_too", &m.edges)
            .arg(arg_indirect(&q, 0, &m.pecell, Access::Read))
            .arg(arg_indirect(&res, 1, &m.pecell, Access::Read))
            .arg(arg_indirect(&res, 0, &m.pecell, Access::Inc))
            .kernel(|_, _| {});
        assert_eq!(extents(&reads_too), [("res".to_owned(), rows(&[2, 9]))]);
    }

    #[test]
    fn written_directly_and_through_a_map_is_whole() {
        let next: Vec<u32> = (0..8).map(|c| (c + 1) % 8).collect();
        let cells = Set::new("cells", 8);
        let ring = Map::new("ring", &cells, &cells, 1, next);
        let q = Dat::filled("q", &cells, 1, 0.0f64);
        let l = ParLoop::build("push", &cells)
            .arg(arg_indirect(&q, 0, &ring, Access::Inc))
            .arg(arg_direct(&q, Access::Write))
            .kernel(|_, _| {});
        assert_eq!(extents(&l), [("q".to_owned(), Footprint::Whole)]);
    }

    #[test]
    fn rows_up_to_half_the_dat_then_whole() {
        let res_on = |m: &Mesh| {
            let res = Dat::filled("res", &m.cells, 1, 0.0f64);
            let l = ParLoop::build("inc", &m.edges)
                .arg(arg_indirect(&res, 0, &m.pecell, Access::Inc))
                .arg(arg_indirect(&res, 1, &m.pecell, Access::Inc))
                .kernel(|_, _| {});
            extents(&l).remove(0).1
        };
        // Exactly half of 8 cells (a repeat does not count twice): rows.
        assert_eq!(res_on(&mesh(8, vec![0, 1, 1, 6, 6, 7])), rows(&[0, 1, 6, 7]));
        // One more: whole. Same table on a 9-cell dat is under half again.
        assert_eq!(res_on(&mesh(8, vec![0, 1, 1, 6, 6, 7, 7, 3])), Footprint::Whole);
        assert_eq!(res_on(&mesh(9, vec![0, 1, 1, 6, 6, 7])), rows(&[0, 1, 6, 7]));
    }
}
