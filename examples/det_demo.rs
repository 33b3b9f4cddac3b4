//! Deterministic execution demo: seeded schedules, replay, dataflow-order
//! checking, and a broken coloring refused before it runs.
//!
//! ```sh
//! cargo run --example det_demo            # seed 42
//! cargo run --example det_demo -- 7       # any seed: same seed → same run
//! ```
//!
//! Runs a small edge→cell gather program on the dataflow backend over an
//! [`hpx_rt::DetPool`] with the dataflow-order checker armed, prints the
//! schedule trace, replays it to show the trace and results are a pure
//! function of the seed, sweeps a few more seeds, and finally shows a
//! deliberately broken plan coloring refused as a typed error.

use std::sync::Arc;

use hpx_rt::{DetPool, Pool, SchedulePolicy};
use op2_core::{det, Dat, Map, ParLoop, Set};
use op2_hpx::{make_executor, BackendKind, Executor, FailureKind, Op2Runtime};

/// Chain mesh: edge `e` joins cells `e` and `e+1`.
const NEDGES: usize = 24;
const PART_SIZE: usize = 4;

/// The program: `init` writes a value per cell, `gather` increments both
/// endpoint cells of every edge and sums into a global.
struct Program {
    res: Dat<f64>,
    init: ParLoop,
    gather: ParLoop,
}

fn program() -> Program {
    let edges = Set::new("edges", NEDGES);
    let cells = Set::new("cells", NEDGES + 1);
    let mut table = Vec::new();
    for e in 0..NEDGES as u32 {
        table.push(e);
        table.push(e + 1);
    }
    let m = Map::new("pecell", &edges, &cells, 2, table);
    let w = Dat::filled("w", &cells, 1, 0.0f64);
    let res = Dat::filled("res", &cells, 1, 0.0f64);
    let x = Dat::new("x", &cells, 1, (0..=NEDGES).map(|c| c as f64).collect());

    let init = ParLoop::build("init", &cells)
        .args((x.read::<1>(), w.write::<1>()))
        .kernel(|(x, w), _| *w = *x);
    let gather = ParLoop::build("gather", &edges)
        .gbl_inc(1)
        .args((w.read::<1>().via::<2>(&m), res.inc::<1>().via::<2>(&m)))
        .kernel(|([[w1], [w2]], [[r1], [r2]]), gbl| {
            let s = *w1 + *w2;
            *r1 = s;
            *r2 = s;
            gbl[0] += s;
        });
    Program { res, init, gather }
}

/// A dataflow executor over a seeded deterministic pool.
fn det_executor(seed: u64) -> (Arc<DetPool>, Box<dyn Executor>) {
    let pool = Arc::new(DetPool::with_policy(seed, SchedulePolicy::RandomWalk));
    let rt = Arc::new(Op2Runtime::from_pool(
        Arc::clone(&pool) as Arc<dyn Pool>,
        PART_SIZE,
    ));
    (pool, make_executor(BackendKind::Dataflow, rt))
}

/// One deterministic dataflow run with the dataflow-order checker armed;
/// returns (gather reduction, cell values, schedule trace, checker reports).
fn run(seed: u64) -> (Vec<f64>, Vec<f64>, String, Vec<det::RaceReport>) {
    let (pool, exec) = det_executor(seed);
    let p = program();
    det::enable();
    let _ = exec.execute(&p.init);
    let h = exec.execute(&p.gather);
    exec.fence();
    let reports = det::disable();
    (h.get(), p.res.to_vec(), pool.schedule_string(), reports)
}

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seed must be an unsigned integer"))
        .unwrap_or(42);

    println!("== deterministic dataflow run, seed {seed} ==");
    let (gbl_a, res_a, sched_a, reports) = run(seed);
    println!("gather reduction: {:?}", gbl_a);
    println!("schedule trace:   {sched_a}");
    assert!(
        reports.is_empty(),
        "dataflow-order checker fired: {reports:?}"
    );

    let (gbl_b, res_b, sched_b, _) = run(seed);
    assert_eq!(gbl_a, gbl_b);
    assert_eq!(res_a, res_b);
    assert_eq!(sched_a, sched_b);
    println!("replay:           identical trace and bitwise-identical results");

    println!("\n== dataflow-order checker over a seeded sweep ==");
    let mut schedules = std::collections::HashSet::new();
    for s in seed..seed + 16 {
        let (gbl, res, sched, reports) = run(s);
        assert!(
            reports.is_empty(),
            "seed {s}: {reports:?}\nschedule: {sched}"
        );
        assert_eq!(
            (gbl, res),
            (gbl_a.clone(), res_a.clone()),
            "seed {s} diverged"
        );
        schedules.insert(sched);
    }
    println!(
        "16 seeds, {} distinct schedules: no body began before a dependency \
         completed, every result bitwise identical",
        schedules.len()
    );

    println!("\n== a deliberately broken coloring ==");
    let (_, exec) = det_executor(seed);
    let p = program();
    det::inject_coloring_bug(true);
    let refused = exec.try_execute(&p.gather);
    det::inject_coloring_bug(false);
    let Err(err) = refused else {
        panic!("the injected coloring bug must be refused");
    };
    println!("refused: {err}");
    assert!(matches!(err.kind, FailureKind::Plan(_)), "{err}");
    assert!(!err.rolled_back && p.res.to_vec().iter().all(|&v| v == 0.0));
    println!(
        "the plan validator refused it before the first block: nothing ran, nothing to roll back"
    );
}
