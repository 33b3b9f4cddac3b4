//! Asynchronous function execution — the analogue of `hpx::async`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::future::{Future, TaskFailure};
use crate::pool::Pool;

/// Schedule `f` for asynchronous execution on `pool` and immediately return a
/// [`Future`] for its result (the paper's
/// `hpx::async(hpx::launch::async, f)`).
///
/// Panics inside `f` are captured and re-thrown by [`Future::get`].
///
/// ```
/// use hpx_rt::{ThreadPool, async_spawn};
/// let pool = ThreadPool::new(2);
/// let f = async_spawn(&pool, || (1..=10).sum::<u32>());
/// assert_eq!(f.get(), 55);
/// ```
pub fn async_spawn<T, F>(pool: &(impl Pool + ?Sized), f: F) -> Future<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (shared, future) = Future::<T>::new_pair(Some(pool.spawner()));
    pool.spawn_boxed(Box::new(move || {
        let result = catch_unwind(AssertUnwindSafe(f));
        shared.complete(result.map_err(|p| TaskFailure::of(&p)));
    }));
    future
}
