//! Minimal offline stand-in for the `rayon` crate.
//!
//! The build environment has no registry access, so this in-tree shim
//! provides exactly the data-parallel surface the workspace uses:
//!
//! - `slice.par_chunks_mut(n)` / `slice.par_chunks(n)` / `par_iter_mut()` /
//!   `par_iter()` with `enumerate`, `zip`, and `for_each`;
//! - `ThreadPoolBuilder::new().num_threads(n).build()` and
//!   `ThreadPool::install` (scoped thread-count override);
//! - `current_num_threads()`.
//!
//! Work items are distributed round-robin over `current_num_threads()`
//! scoped OS threads (no work stealing, no persistent pool). That is a
//! much simpler execution model than real rayon's, but it preserves the
//! three properties the solver code relies on: disjoint mutable chunks are
//! processed concurrently, the set of per-item side effects is identical
//! to a serial loop (only ordering across items differs), and — as in a
//! real pool — a region opened from inside a region adds no threads: the
//! workers of a region inherit its thread count, and a nested region runs
//! its items inline on the worker that opened it.

use std::cell::Cell;

thread_local! {
    /// Thread-count override installed by [`ThreadPool::install`] (or
    /// inherited from the region that spawned this thread); 0 = unset.
    static POOL_THREADS: Cell<usize> = const { Cell::new(0) };
    /// Whether this thread is currently running items of a region.
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
}

/// Sets a thread-local cell for a scope and restores it on drop.
struct Restore<T: Copy + 'static>(&'static std::thread::LocalKey<Cell<T>>, T);

impl<T: Copy + 'static> Restore<T> {
    fn set(key: &'static std::thread::LocalKey<Cell<T>>, value: T) -> Self {
        Restore(key, key.with(|c| c.replace(value)))
    }
}

impl<T: Copy + 'static> Drop for Restore<T> {
    fn drop(&mut self) {
        self.0.with(|c| c.set(self.1));
    }
}

/// Number of threads parallel iterators fan out to on this thread: the
/// innermost `ThreadPool::install` override, else the machine parallelism.
pub fn current_num_threads() -> usize {
    let t = POOL_THREADS.with(|c| c.get());
    if t != 0 {
        t
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Error type for [`ThreadPoolBuilder::build`] (never actually produced).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// A "pool" is just a requested thread count; threads are spawned per
/// outermost parallel call (scoped), not kept alive.
pub struct ThreadPool {
    n: usize,
}

impl ThreadPool {
    /// Run `f` with parallel iterators on this thread fanning out to
    /// `self.n` threads.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let _restore = Restore::set(&POOL_THREADS, self.n);
        f()
    }

    pub fn current_num_threads(&self) -> usize {
        self.n
    }
}

#[derive(Default)]
pub struct ThreadPoolBuilder {
    n: Option<usize>,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn num_threads(mut self, n: usize) -> Self {
        self.n = Some(n);
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = match self.n {
            Some(0) | None => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            Some(n) => n,
        };
        Ok(ThreadPool { n })
    }
}

/// Distribute `items` round-robin over the current thread count. Group 0
/// runs on the calling thread so a single-thread "pool" never spawns, and
/// a region opened while this thread is already running one (on a spawned
/// worker or on the caller's own group) runs serially in place.
fn drive<I: Send>(items: Vec<I>, f: &(impl Fn(I) + Sync)) {
    let pool = current_num_threads().max(1);
    let n = pool.min(items.len().max(1));
    if n <= 1 || IN_REGION.with(|c| c.get()) {
        for item in items {
            f(item);
        }
        return;
    }
    let mut groups: Vec<Vec<I>> = (0..n).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        groups[i % n].push(item);
    }
    let run = move |group: Vec<I>| {
        let _threads = Restore::set(&POOL_THREADS, pool);
        let _region = Restore::set(&IN_REGION, true);
        for item in group {
            f(item);
        }
    };
    std::thread::scope(|scope| {
        let mut groups = groups.into_iter();
        let local = groups.next().expect("n >= 1 group");
        for group in groups {
            scope.spawn(move || run(group));
        }
        run(local);
    });
}

/// The combinator surface shared by every shim parallel iterator. Unlike
/// real rayon this materializes the item list eagerly; chains are short
/// and item counts are small (chunks, not elements) everywhere it matters.
pub trait ParallelIterator: Sized {
    type Item: Send;

    fn into_items(self) -> Vec<Self::Item>;

    fn enumerate(self) -> Enumerate<Self> {
        Enumerate(self)
    }

    fn zip<B: ParallelIterator>(self, other: B) -> Zip<Self, B> {
        Zip(self, other)
    }

    fn for_each<F: Fn(Self::Item) + Sync>(self, f: F) {
        drive(self.into_items(), &f);
    }

    fn with_min_len(self, _min: usize) -> Self {
        self
    }
}

pub struct Enumerate<P>(P);

impl<P: ParallelIterator> ParallelIterator for Enumerate<P> {
    type Item = (usize, P::Item);
    fn into_items(self) -> Vec<Self::Item> {
        self.0.into_items().into_iter().enumerate().collect()
    }
}

pub struct Zip<A, B>(A, B);

impl<A: ParallelIterator, B: ParallelIterator> ParallelIterator for Zip<A, B> {
    type Item = (A::Item, B::Item);
    fn into_items(self) -> Vec<Self::Item> {
        self.0
            .into_items()
            .into_iter()
            .zip(self.1.into_items())
            .collect()
    }
}

pub struct ParChunksMut<'a, T>(Vec<&'a mut [T]>);

impl<'a, T: Send> ParallelIterator for ParChunksMut<'a, T> {
    type Item = &'a mut [T];
    fn into_items(self) -> Vec<Self::Item> {
        self.0
    }
}

pub struct ParChunks<'a, T>(Vec<&'a [T]>);

impl<'a, T: Sync> ParallelIterator for ParChunks<'a, T> {
    type Item = &'a [T];
    fn into_items(self) -> Vec<Self::Item> {
        self.0
    }
}

pub struct ParIterMut<'a, T>(Vec<&'a mut T>);

impl<'a, T: Send> ParallelIterator for ParIterMut<'a, T> {
    type Item = &'a mut T;
    fn into_items(self) -> Vec<Self::Item> {
        self.0
    }
}

pub struct ParIter<'a, T>(Vec<&'a T>);

impl<'a, T: Sync> ParallelIterator for ParIter<'a, T> {
    type Item = &'a T;
    fn into_items(self) -> Vec<Self::Item> {
        self.0
    }
}

pub trait ParallelSlice<T: Sync> {
    fn par_chunks(&self, chunk_size: usize) -> ParChunks<'_, T>;
    fn par_iter(&self) -> ParIter<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> ParChunks<'_, T> {
        ParChunks(self.chunks(chunk_size).collect())
    }
    fn par_iter(&self) -> ParIter<'_, T> {
        ParIter(self.iter().collect())
    }
}

pub trait ParallelSliceMut<T: Send> {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        ParChunksMut(self.chunks_mut(chunk_size).collect())
    }
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T> {
        ParIterMut(self.iter_mut().collect())
    }
}

pub mod prelude {
    pub use crate::{ParallelIterator, ParallelSlice, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_mut_matches_serial() {
        let mut v: Vec<f64> = (0..100).map(|i| i as f64).collect();
        v.par_chunks_mut(7).enumerate().for_each(|(i, chunk)| {
            for x in chunk.iter_mut() {
                *x += i as f64;
            }
        });
        let expect: Vec<f64> = (0..100).map(|i| (i + i / 7) as f64).collect();
        assert_eq!(v, expect);
    }

    #[test]
    fn zip_pairs_up() {
        let mut a = [0.0; 12];
        let b: Vec<f64> = (0..12).map(|i| i as f64).collect();
        a.par_chunks_mut(4).zip(b.par_chunks(4)).for_each(|(x, y)| {
            for (xv, yv) in x.iter_mut().zip(y) {
                *xv = 2.0 * yv;
            }
        });
        assert_eq!(a[11], 22.0);
    }

    #[test]
    fn install_overrides_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(pool.install(current_num_threads), 3);
        let mut v = vec![1.0; 64];
        pool.install(|| {
            v.par_iter_mut().enumerate().for_each(|(i, x)| {
                *x = i as f64;
            });
        });
        assert_eq!(v[63], 63.0);
    }

    #[test]
    fn workers_inherit_the_installed_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let seen = std::sync::Mutex::new(Vec::new());
        pool.install(|| {
            [(); 9].par_iter().for_each(|_| {
                seen.lock().unwrap().push(current_num_threads());
            });
        });
        assert_eq!(seen.into_inner().unwrap(), vec![3; 9]);
    }

    #[test]
    fn nested_region_adds_no_threads() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let ids = std::sync::Mutex::new(std::collections::HashSet::new());
        let mut outer = [[0u32; 8]; 4];
        pool.install(|| {
            outer.par_iter_mut().for_each(|inner| {
                inner.par_iter_mut().for_each(|x| {
                    *x += 1;
                    ids.lock().unwrap().insert(std::thread::current().id());
                });
            });
        });
        assert_eq!(outer, [[1; 8]; 4]);
        assert_eq!(ids.into_inner().unwrap().len(), 2);
        // The caller is no longer inside a region afterwards.
        assert!(!IN_REGION.with(|c| c.get()));
    }
}
