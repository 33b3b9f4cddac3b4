//! Loop arguments — the typed-erased access declarations of `op_arg_dat`.

use std::sync::Arc;

use crate::access::Access;
use crate::dat::Dat;
use crate::map::Map;
use crate::set::Set;
use crate::snapshot::RawDat;

/// How an argument reaches its data: directly (the iteration element itself)
/// or through one slot of a map.
#[derive(Debug, Clone)]
pub enum MapRef {
    /// Direct access (`OP_ID` / index −1 in OP2): element `e` touches dat
    /// element `e`.
    Direct,
    /// Indirect access: element `e` touches dat element `map.at(e, idx)`.
    Indirect {
        /// The connectivity used.
        map: Map,
        /// Which of the map's targets (0‥map.dim).
        idx: usize,
    },
}

/// A type-erased argument declaration for a parallel loop (the analogue of
/// `op_arg_dat(dat, idx, map, dim, "double", access)` in Fig. 2 of the
/// paper).
///
/// The `ArgSpec` is the *metadata* the planner and the dataflow dependency
/// analysis consume. A typed argument tuple ([`crate::typed`]) expands to
/// its `ArgSpec`s and hands the kernel exactly the values they declare; a raw
/// [`crate::ParLoopBuilder::kernel`] captures its own [`crate::DatView`]s,
/// and keeping those to the `ArgSpec`s is its caller's contract.
///
/// Every `ArgSpec` also holds a type-erased clone of its [`Dat`] as an
/// [`Arc<dyn RawDat>`]: a loop **keeps its data alive** (so the raw views its
/// kernel reads through cannot dangle even if the application drops its own
/// dat handles), and executors can snapshot/restore the declared write-set
/// for transactional rollback without knowing the element type.
#[derive(Clone)]
pub struct ArgSpec {
    /// Identity of the dat being accessed.
    pub dat_id: u64,
    /// Dat name (diagnostics).
    pub dat_name: String,
    /// The set the dat lives on.
    pub dat_set: Set,
    /// Values per element of the dat.
    pub dat_dim: usize,
    /// Direct or indirect addressing.
    pub map_ref: MapRef,
    /// Declared access mode.
    pub access: Access,
    /// Type-erased handle to the dat: keep-alive + snapshot/restore (see
    /// struct docs).
    raw: Arc<dyn RawDat>,
}

impl std::fmt::Debug for ArgSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArgSpec")
            .field("dat", &self.dat_name)
            .field("dat_id", &self.dat_id)
            .field("dim", &self.dat_dim)
            .field("map_ref", &self.map_ref)
            .field("access", &self.access)
            .finish()
    }
}

impl ArgSpec {
    /// Is this argument accessed through a map?
    pub fn is_indirect(&self) -> bool {
        matches!(self.map_ref, MapRef::Indirect { .. })
    }

    /// The type-erased storage handle (snapshot/restore, NaN scanning).
    pub fn raw(&self) -> &Arc<dyn RawDat> {
        &self.raw
    }
}

/// Declare a direct argument (OP2's `op_arg_dat(dat, -1, OP_ID, …)`).
pub fn arg_direct<T: Copy + Send + Sync + 'static>(dat: &Dat<T>, access: Access) -> ArgSpec {
    ArgSpec {
        dat_id: dat.id(),
        dat_name: dat.name().to_owned(),
        dat_set: dat.set().clone(),
        dat_dim: dat.dim(),
        map_ref: MapRef::Direct,
        access,
        raw: Arc::new(dat.clone()),
    }
}

/// Declare an indirect argument (OP2's `op_arg_dat(dat, idx, map, …)`).
///
/// # Panics
/// Panics if `idx` is out of range for the map, or if the map's target set is
/// not the dat's set.
pub fn arg_indirect<T: Copy + Send + Sync + 'static>(
    dat: &Dat<T>,
    idx: usize,
    map: &Map,
    access: Access,
) -> ArgSpec {
    let (name, dim, to) = (dat.name(), map.dim(), map.to_set());
    let map_name = map.name();
    assert!(
        idx < dim,
        "arg for dat {name}: map index {idx} out of range for map {map_name} (dim {dim})"
    );
    assert!(
        to.same(dat.set()),
        "arg for dat {name}: map {map_name} targets set {}, but the dat lives on set {}",
        to.name(),
        dat.set().name()
    );
    let map_ref = MapRef::Indirect { map: map.clone(), idx };
    ArgSpec { map_ref, ..arg_direct(dat, access) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_arg() {
        let cells = Set::new("cells", 4);
        let q = Dat::filled("q", &cells, 4, 0.0f64);
        let a = arg_direct(&q, Access::Read);
        assert!(!a.is_indirect());
        assert_eq!(a.dat_dim, 4);
        assert_eq!(a.access, Access::Read);
    }

    #[test]
    fn indirect_arg() {
        let edges = Set::new("edges", 2);
        let cells = Set::new("cells", 3);
        let m = Map::new("pecell", &edges, &cells, 2, vec![0, 1, 1, 2]);
        let res = Dat::filled("res", &cells, 4, 0.0f64);
        let a = arg_indirect(&res, 1, &m, Access::Inc);
        assert!(a.is_indirect());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn indirect_arg_bad_idx() {
        let edges = Set::new("edges", 2);
        let cells = Set::new("cells", 3);
        let m = Map::new("pecell", &edges, &cells, 2, vec![0, 1, 1, 2]);
        let res = Dat::filled("res", &cells, 4, 0.0f64);
        let _ = arg_indirect(&res, 2, &m, Access::Inc);
    }

    #[test]
    #[should_panic(expected = "targets set")]
    fn indirect_arg_wrong_set() {
        let edges = Set::new("edges", 2);
        let cells = Set::new("cells", 3);
        let nodes = Set::new("nodes", 5);
        let m = Map::new("pecell", &edges, &cells, 2, vec![0, 1, 1, 2]);
        let x = Dat::filled("x", &nodes, 2, 0.0f64);
        let _ = arg_indirect(&x, 0, &m, Access::Read);
    }
}

#[cfg(test)]
mod keepalive_tests {
    use super::*;

    /// Declared args keep the dat storage alive: a loop may outlive every
    /// application-held handle to its dats without dangling kernel views.
    #[test]
    fn args_keep_dats_alive() {
        use crate::loops::ParLoop;

        let cells = Set::new("cells", 64);
        let loop_ = {
            let d = Dat::filled("ephemeral", &cells, 1, 1.0f64);
            let dv = d.view();
            ParLoop::build("touch", &cells)
                .arg(arg_direct(&d, Access::ReadWrite))
                .kernel(move |e, _| unsafe { dv.add(e, 0, 1.0) })
            // `d` dropped here — the ArgSpec's keep-alive must hold storage.
        };
        crate::serial::execute_natural(&loop_);
        crate::serial::execute_natural(&loop_);
        // No way to read `ephemeral` back (all handles gone), but the two
        // executions must not touch freed memory (run under ASan/Miri to
        // really see it; here the absence of a crash is the check).
    }
}
