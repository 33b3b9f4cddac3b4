//! Serial reference executors.
//!
//! Two orders are provided:
//!
//! * [`execute_natural`] — plain element order `0..n`. This is what OP2's
//!   generated *sequential* target does; numerically it is the textbook
//!   semantics, but for `OP_INC` arguments the accumulation order differs
//!   from plan-ordered execution, so floating-point results agree only to
//!   rounding.
//! * [`execute_plan_order`] — colors ascending, blocks ascending within a
//!   color, elements ascending within a block. Every parallel backend uses
//!   the same plan and therefore produces results **bitwise identical** to
//!   this executor (two same-colored blocks never contribute to the same
//!   target, so their relative timing cannot change any sum). This is the
//!   oracle the cross-backend equivalence tests compare against.
//!
//! Both return the loop's global reduction (empty vec when none declared).

use crate::loops::ParLoop;
use crate::plan::Plan;
use crate::reduction::GlobalAcc;

/// Execute `loop_` sequentially in natural element order.
pub fn execute_natural(loop_: &ParLoop) -> Vec<f64> {
    let mut gbl = vec![loop_.gbl_op().identity(); loop_.gbl_dim()];
    loop_.run_span(0..loop_.set().size(), &mut gbl);
    gbl
}

/// Execute `loop_` sequentially in plan order (colors → blocks → elements),
/// with the block-ordered deterministic reduction. Dispatches through
/// [`ParLoop::run_span`], so the kernel body runs over exactly the plan's
/// block spans — the same spans every parallel backend uses.
pub fn execute_plan_order(loop_: &ParLoop, plan: &Plan) -> Vec<f64> {
    let acc = GlobalAcc::with_op(loop_.gbl_dim(), plan.nblocks(), loop_.gbl_op());
    for color in &plan.color_blocks {
        for &b in color {
            let mut scratch = acc.scratch();
            loop_.run_span(plan.blocks[b as usize].clone(), &mut scratch);
            acc.store(b as usize, scratch);
        }
    }
    acc.combine()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::Access;
    use crate::arg::{arg_direct, arg_indirect};
    use crate::dat::Dat;
    use crate::map::Map;
    use crate::plan::Plan;
    use crate::set::Set;

    #[test]
    fn natural_executes_all_elements() {
        let cells = Set::new("cells", 100);
        let q = Dat::filled("q", &cells, 1, 1.0f64);
        let qv = q.view();
        let l = ParLoop::build("double", &cells)
            .arg(arg_direct(&q, Access::ReadWrite))
            .kernel(move |e, _| unsafe {
                let [v] = qv.load(e);
                qv.store(e, [v * 2.0]);
            });
        let gbl = execute_natural(&l);
        assert!(gbl.is_empty());
        assert!(q.to_vec().iter().all(|&v| v == 2.0));
    }

    #[test]
    fn plan_order_matches_natural_for_direct_loops() {
        let cells = Set::new("cells", 257);
        let a = Dat::filled("a", &cells, 2, 3.0f64);
        let b = Dat::filled("b", &cells, 2, 0.0f64);
        let make = |dst: &Dat<f64>| {
            let av = a.view();
            let dv = dst.view();
            ParLoop::build("copy", &cells)
                .arg(arg_direct(&a, Access::Read))
                .arg(arg_direct(dst, Access::Write))
                .kernel(move |e, _| unsafe {
                    dv.store::<2>(e, av.load(e));
                })
        };
        let l = make(&b);
        let plan = Plan::build(&cells, l.args(), 64);
        execute_plan_order(&l, &plan);
        assert_eq!(b.to_vec(), a.to_vec());
    }

    #[test]
    fn global_reduction_accumulates() {
        let cells = Set::new("cells", 1000);
        let l = ParLoop::build("sum_indices", &cells)
            .gbl_inc(1)
            .kernel(|e, gbl| gbl[0] += e as f64);
        let gbl = execute_natural(&l);
        assert_eq!(gbl[0], (0..1000).sum::<usize>() as f64);

        let plan = Plan::build(&cells, l.args(), 64);
        let gbl2 = execute_plan_order(&l, &plan);
        assert_eq!(gbl2[0], gbl[0]);
    }

    #[test]
    fn indirect_inc_chain() {
        // Edge e increments cells e and e+1 by 1 → interior cells get 2.
        let nedges = 64;
        let edges = Set::new("edges", nedges);
        let cells = Set::new("cells", nedges + 1);
        let mut table = Vec::new();
        for e in 0..nedges as u32 {
            table.push(e);
            table.push(e + 1);
        }
        let m = Map::new("pecell", &edges, &cells, 2, table);
        let res = Dat::filled("res", &cells, 1, 0.0f64);
        let rv = res.view();
        let mv = m.clone();
        let l = ParLoop::build("inc", &edges)
            .arg(arg_indirect(&res, 0, &m, Access::Inc))
            .arg(arg_indirect(&res, 1, &m, Access::Inc))
            .kernel(move |e, _| unsafe {
                rv.add(mv.at(e, 0), 0, 1.0);
                rv.add(mv.at(e, 1), 0, 1.0);
            });
        let plan = Plan::build(&edges, l.args(), 8);
        plan.validate(l.args()).unwrap();
        execute_plan_order(&l, &plan);
        let data = res.to_vec();
        assert_eq!(data[0], 1.0);
        assert_eq!(data[nedges], 1.0);
        assert!(data[1..nedges].iter().all(|&v| v == 2.0));
    }
}
