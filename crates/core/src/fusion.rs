//! Direct-loop fusion — the paper's "interleaving execution of direct loops
//! can be done during compile-time", implemented as a loop transform.
//!
//! Two *direct* loops over the same set only carry element-aligned
//! dependencies (element `e` of loop 2 can depend only on element `e` of
//! loop 1), so running `k2(e)` immediately after `k1(e)` preserves the
//! sequential semantics exactly while saving one synchronization and one
//! pass over memory. [`fuse_direct`] performs the transform and the
//! equivalence tests verify bitwise agreement with unfused execution.
//!
//! Restrictions (reported as a typed [`FusionError`] by [`try_fuse_direct`],
//! flattened to `None` by [`fuse_direct`]):
//! * both loops must be direct (any map access breaks element alignment);
//! * both loops must iterate the *same* set;
//! * at most one loop may declare a global reduction, or both must use the
//!   same operator (scratch slices are concatenated and split per kernel).

use op2_core::{GblOp, ParLoop};

/// Why two loops could not be fused ([`try_fuse_direct`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FusionError {
    /// A loop uses an indirection map, breaking element alignment.
    NotDirect {
        /// Name of the offending (indirect) loop.
        loop_name: String,
    },
    /// The loops iterate different sets.
    DifferentSets {
        /// First loop's iteration set.
        set1: String,
        /// Second loop's iteration set.
        set2: String,
    },
    /// Both loops declare global reductions with different operators, which
    /// cannot share one scratch slice.
    MixedReductionOps,
}

impl std::fmt::Display for FusionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FusionError::NotDirect { loop_name } => {
                write!(f, "loop '{loop_name}' is indirect and cannot be fused")
            }
            FusionError::DifferentSets { set1, set2 } => {
                write!(f, "loops iterate different sets ('{set1}' vs '{set2}')")
            }
            FusionError::MixedReductionOps => {
                write!(f, "loops declare global reductions with different operators")
            }
        }
    }
}

impl std::error::Error for FusionError {}

/// Fuse two direct loops over the same set into one; `None` when the
/// preconditions don't hold. The fused loop's global reduction is the
/// concatenation `[gbl1, gbl2]`.
pub fn fuse_direct(l1: &ParLoop, l2: &ParLoop) -> Option<ParLoop> {
    try_fuse_direct(l1, l2).ok()
}

/// [`fuse_direct`] with a typed error naming the violated precondition.
pub fn try_fuse_direct(l1: &ParLoop, l2: &ParLoop) -> Result<ParLoop, FusionError> {
    for l in [l1, l2] {
        if !l.is_direct() {
            return Err(FusionError::NotDirect {
                loop_name: l.name().to_string(),
            });
        }
    }
    if !l1.set().same(l2.set()) {
        return Err(FusionError::DifferentSets {
            set1: l1.set().name().to_string(),
            set2: l2.set().name().to_string(),
        });
    }
    let (d1, d2) = (l1.gbl_dim(), l2.gbl_dim());
    let op = match (d1, d2) {
        (0, 0) => GblOp::Sum,
        (_, 0) => l1.gbl_op(),
        (0, _) => l2.gbl_op(),
        (_, _) if l1.gbl_op() == l2.gbl_op() => l1.gbl_op(),
        // Mixed reduction operators cannot share one scratch slice.
        _ => return Err(FusionError::MixedReductionOps),
    };

    let mut builder = ParLoop::build(format!("{}+{}", l1.name(), l2.name()), l1.set());
    for a in l1.args().iter().chain(l2.args()) {
        builder = builder.arg(a.clone());
    }
    builder = match op {
        GblOp::Sum => builder.gbl_inc(d1 + d2),
        GblOp::Min => builder.gbl_min(d1 + d2),
        GblOp::Max => builder.gbl_max(d1 + d2),
    };
    // A NaN guard on either original applies to the fusion: the fused loop
    // writes both originals' write-sets, so either guard must still fire.
    if l1.guard_finite() || l2.guard_finite() {
        builder = builder.guard_finite();
    }

    let (l1, l2) = (l1.clone(), l2.clone());
    Ok(builder.kernel(move |e, gbl| {
        let (g1, g2) = gbl.split_at_mut(d1);
        l1.run_span(e..e + 1, g1);
        l2.run_span(e..e + 1, g2);
    }))
}

/// Split a fused loop's combined reduction back into the two originals'
/// parts (`d1` = first loop's `gbl_dim`).
pub fn split_gbl(gbl: Vec<f64>, d1: usize) -> (Vec<f64>, Vec<f64>) {
    let mut g1 = gbl;
    let g2 = g1.split_off(d1);
    (g1, g2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{make_executor, BackendKind, Op2Runtime};
    use op2_core::{arg_direct, arg_indirect, Access, Dat, Map, Set};
    use std::sync::Arc;

    fn fixture() -> (Set, Dat<f64>, Dat<f64>, ParLoop, ParLoop) {
        let cells = Set::new("cells", 500);
        let a = Dat::new("a", &cells, 1, (0..500).map(|i| i as f64).collect());
        let b = Dat::filled("b", &cells, 1, 0.0);
        let av = a.view();
        let bv = b.view();
        // l1: b = 2a (+ gbl sum of a); l2: a = a + b (element-aligned RAW!).
        let l1 = ParLoop::build("double", &cells)
            .arg(arg_direct(&a, Access::Read))
            .arg(arg_direct(&b, Access::Write))
            .gbl_inc(1)
            .kernel(move |e, gbl| unsafe {
                bv.set(e, 0, 2.0 * av.get(e, 0));
                gbl[0] += av.get(e, 0);
            });
        let l2 = ParLoop::build("add", &cells)
            .arg(arg_direct(&b, Access::Read))
            .arg(arg_direct(&a, Access::ReadWrite))
            .gbl_inc(1)
            .kernel(move |e, gbl| unsafe {
                let v = av.get(e, 0) + bv.get(e, 0);
                av.set(e, 0, v);
                gbl[0] += v;
            });
        (cells, a, b, l1, l2)
    }

    #[test]
    fn fused_matches_sequential_bitwise() -> Result<(), FusionError> {
        // Unfused reference.
        let (_s, a_ref, b_ref, l1, l2) = fixture();
        let rt = Arc::new(Op2Runtime::new(2, 32));
        let exec = make_executor(BackendKind::ForkJoin, Arc::clone(&rt));
        let g1 = exec.execute(&l1).get();
        let g2 = exec.execute(&l2).get();

        // Fused run on fresh data.
        let (_s, a_f, b_f, f1, f2) = fixture();
        let fused = try_fuse_direct(&f1, &f2)?;
        assert_eq!(fused.gbl_dim(), 2);
        let exec = make_executor(BackendKind::ForkJoin, rt);
        let g = exec.execute(&fused).get();
        let (gf1, gf2) = split_gbl(g, 1);

        assert_eq!(gf1, g1);
        assert_eq!(gf2, g2);
        let bits = |d: &Dat<f64>| d.to_vec().into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(&a_f), bits(&a_ref));
        assert_eq!(bits(&b_f), bits(&b_ref));
        Ok(())
    }

    #[test]
    fn fused_works_on_every_backend() -> Result<(), FusionError> {
        let reference = {
            let (_s, a, _b, l1, l2) = fixture();
            let rt = Arc::new(Op2Runtime::new(1, 32));
            let exec = make_executor(BackendKind::Serial, rt);
            exec.execute(&l1).wait();
            exec.execute(&l2).wait();
            a.to_vec().into_iter().map(f64::to_bits).collect::<Vec<_>>()
        };
        for kind in [BackendKind::ForkJoin, BackendKind::Async, BackendKind::Dataflow] {
            let (_s, a, _b, l1, l2) = fixture();
            let fused = try_fuse_direct(&l1, &l2)?;
            let rt = Arc::new(Op2Runtime::new(3, 32));
            let exec = make_executor(kind, rt);
            let h = exec.execute(&fused);
            h.wait();
            exec.fence();
            assert_eq!(
                a.to_vec().into_iter().map(f64::to_bits).collect::<Vec<_>>(),
                reference,
                "{kind}"
            );
        }
        Ok(())
    }

    #[test]
    fn refuses_indirect_loops() {
        let edges = Set::new("edges", 4);
        let cells = Set::new("cells", 5);
        let m = Map::new("m", &edges, &cells, 2, vec![0, 1, 1, 2, 2, 3, 3, 4]);
        let d = Dat::filled("d", &cells, 1, 0.0f64);
        let indirect = ParLoop::build("ind", &edges)
            .arg(arg_indirect(&d, 0, &m, Access::Inc))
            .kernel(|_, _| {});
        let direct = ParLoop::build("dir", &edges).kernel(|_, _| {});
        assert!(fuse_direct(&indirect, &direct).is_none());
        assert!(fuse_direct(&direct, &indirect).is_none());
        assert!(matches!(
            try_fuse_direct(&indirect, &direct),
            Err(FusionError::NotDirect { ref loop_name }) if loop_name == "ind"
        ));
    }

    #[test]
    fn refuses_different_sets() {
        let s1 = Set::new("s1", 10);
        let s2 = Set::new("s2", 10);
        let l1 = ParLoop::build("a", &s1).kernel(|_, _| {});
        let l2 = ParLoop::build("b", &s2).kernel(|_, _| {});
        assert!(fuse_direct(&l1, &l2).is_none());
        assert!(matches!(
            try_fuse_direct(&l1, &l2),
            Err(FusionError::DifferentSets { .. })
        ));
    }

    #[test]
    fn refuses_mixed_reduction_ops() -> Result<(), FusionError> {
        let s = Set::new("s", 10);
        let lmin = ParLoop::build("a", &s).gbl_min(1).kernel(|_, _| {});
        let lsum = ParLoop::build("b", &s).gbl_inc(1).kernel(|_, _| {});
        assert!(fuse_direct(&lmin, &lsum).is_none());
        assert!(matches!(
            try_fuse_direct(&lmin, &lsum),
            Err(FusionError::MixedReductionOps)
        ));
        // Same op is fine.
        let lmin2 = ParLoop::build("c", &s).gbl_min(2).kernel(|_, _| {});
        let f = try_fuse_direct(&lmin, &lmin2)?;
        assert_eq!(f.gbl_dim(), 3);
        assert_eq!(f.gbl_op(), GblOp::Min);
        Ok(())
    }

    #[test]
    fn split_gbl_roundtrips() {
        let (a, b) = split_gbl(vec![1.0, 2.0, 3.0], 1);
        assert_eq!(a, vec![1.0]);
        assert_eq!(b, vec![2.0, 3.0]);
        let (a, b) = split_gbl(vec![5.0], 0);
        assert!(a.is_empty());
        assert_eq!(b, vec![5.0]);
    }
}
