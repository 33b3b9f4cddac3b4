//! Property-based tests of the runtime: random task DAGs evaluated through
//! dataflow must equal direct evaluation; parallel algorithms must visit
//! every index exactly once under arbitrary chunking.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use hpx_rt::{
    async_spawn, dataflow2, for_each_index, for_each_index_task, make_ready_future, par, par_task,
    when_all, ChunkSize, ThreadPool,
};
use proptest::prelude::*;

/// A random arithmetic DAG node.
#[derive(Debug, Clone)]
enum Node {
    Leaf(i64),
    /// Combine two earlier nodes (indices strictly smaller).
    Add(usize, usize),
    Mul(usize, usize),
}

fn dag_strategy() -> impl Strategy<Value = Vec<Node>> {
    // First node is a leaf; later nodes reference earlier ones.
    prop::collection::vec(any::<i64>(), 1..6).prop_flat_map(|leaves| {
        let n_leaves = leaves.len();
        prop::collection::vec((any::<bool>(), any::<prop::sample::Index>(), any::<prop::sample::Index>()), 0..12)
            .prop_map(move |ops| {
                let mut nodes: Vec<Node> = leaves
                    .iter()
                    .map(|&v| Node::Leaf(v % 1000))
                    .collect();
                for (mul, a, b) in &ops {
                    let len = nodes.len();
                    let ia = a.index(len);
                    let ib = b.index(len);
                    nodes.push(if *mul {
                        Node::Mul(ia, ib)
                    } else {
                        Node::Add(ia, ib)
                    });
                }
                let _ = n_leaves;
                nodes
            })
    })
}

fn eval_direct(nodes: &[Node]) -> i64 {
    let mut vals: Vec<i64> = Vec::with_capacity(nodes.len());
    for n in nodes {
        let v = match n {
            Node::Leaf(v) => *v,
            Node::Add(a, b) => vals[*a].wrapping_add(vals[*b]),
            Node::Mul(a, b) => vals[*a].wrapping_mul(vals[*b]),
        };
        vals.push(v);
    }
    *vals.last().expect("nonempty")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Dataflow evaluation of a random DAG equals direct evaluation,
    /// regardless of scheduling (shared futures fan out node results).
    #[test]
    fn dataflow_dag_matches_direct(nodes in dag_strategy(), threads in 1usize..4) {
        let pool = ThreadPool::new(threads);
        let mut futures: Vec<hpx_rt::SharedFuture<i64>> = Vec::with_capacity(nodes.len());
        for n in &nodes {
            let fut = match n {
                Node::Leaf(v) => make_ready_future(*v).share(),
                Node::Add(a, b) => {
                    let (fa, fb) = (futures[*a].clone(), futures[*b].clone());
                    dataflow2(
                        &pool,
                        |x: i64, y: i64| x.wrapping_add(y),
                        fa.then(&pool, |v| v),
                        fb.then(&pool, |v| v),
                    )
                    .share()
                }
                Node::Mul(a, b) => {
                    let (fa, fb) = (futures[*a].clone(), futures[*b].clone());
                    dataflow2(
                        &pool,
                        |x: i64, y: i64| x.wrapping_mul(y),
                        fa.then(&pool, |v| v),
                        fb.then(&pool, |v| v),
                    )
                    .share()
                }
            };
            futures.push(fut);
        }
        prop_assert_eq!(futures.last().expect("nonempty").get(), eval_direct(&nodes));
    }

    /// Every index visited exactly once, any range/chunking/thread count.
    #[test]
    fn for_each_touches_each_index_once(
        n in 0usize..2000,
        chunk in prop_oneof![
            Just(ChunkSize::Default),
            (1usize..128).prop_map(ChunkSize::Static),
            Just(ChunkSize::auto()),
        ],
        threads in 1usize..4,
        as_task in any::<bool>(),
    ) {
        let pool = ThreadPool::new(threads);
        let counts: Arc<Vec<AtomicUsize>> =
            Arc::new((0..n).map(|_| AtomicUsize::new(0)).collect());
        if as_task {
            let c = Arc::clone(&counts);
            for_each_index_task(&pool, par_task().with_chunk(chunk), 0..n, move |i| {
                c[i].fetch_add(1, Ordering::Relaxed);
            })
            .get();
        } else {
            for_each_index(&pool, par().with_chunk(chunk), 0..n, |i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
        }
        for (i, c) in counts.iter().enumerate() {
            prop_assert_eq!(c.load(Ordering::Relaxed), 1, "index {}", i);
        }
    }

    /// `when_all` preserves input order for arbitrary completion orders.
    #[test]
    fn when_all_order(values in prop::collection::vec(any::<i32>(), 0..64), threads in 1usize..4) {
        let pool = ThreadPool::new(threads);
        let futures = values
            .iter()
            .map(|&v| async_spawn(&pool, move || v))
            .collect();
        prop_assert_eq!(when_all(&pool, futures).get(), values);
    }
}
