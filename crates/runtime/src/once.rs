//! Once per key, per process: the cell behind everything the stack builds
//! from content and may build again — a lowered plan, a loaded native
//! library, a tabulated material.
//!
//! [`OnceMap::get_or_init`] holds the map's lock only to fetch or insert a
//! key's `Arc<OnceLock<_>>`; the build runs outside it, on the cell. So two
//! threads asking for one key build once (the second waits on the cell and
//! takes the first's value), two keys build side by side, and a builder
//! that panics leaves its cell empty and the map untouched — the next call,
//! for that key or any other, simply builds. The map keeps [`CAPACITY`]
//! keys, least recently asked out; an evicted value lives on in whoever
//! holds it and is rebuilt when asked for again. There is nothing to
//! configure.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Keys a map keeps. The workloads here hold a handful at a time (the warm
/// sweep: four plans, three materials); the bound is what keeps a
/// long-lived process from growing with every content it has ever seen.
pub const CAPACITY: usize = 8;

/// A process-wide once-per-key store (see the module text).
pub struct OnceMap<K, V> {
    /// Least recently asked first.
    slots: Mutex<Vec<(K, Arc<OnceLock<V>>)>>,
    /// Times a builder ran.
    built: AtomicU64,
}

impl<K, V> Default for OnceMap<K, V> {
    fn default() -> Self {
        OnceMap::new()
    }
}

impl<K, V> OnceMap<K, V> {
    pub const fn new() -> OnceMap<K, V> {
        OnceMap {
            slots: Mutex::new(Vec::new()),
            built: AtomicU64::new(0),
        }
    }

    /// How many times a builder has run: the misses.
    pub fn built(&self) -> u64 {
        // A statistic; it publishes nothing.
        self.built.load(Ordering::Relaxed)
    }

    /// Drop every stored value, as if the process had just started. For
    /// tests that compare a reuse with a first build.
    #[doc(hidden)]
    pub fn forget(&self) {
        self.lock().clear();
    }

    /// Every update leaves the vector valid, so a lock poisoned by a panic
    /// (in a key's `eq` or `clone` — no builder runs under it) is taken
    /// over, not propagated.
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<(K, Arc<OnceLock<V>>)>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<K: PartialEq + Clone, V: Clone> OnceMap<K, V> {
    /// The value of `key`, built by `build` if this process has none. A
    /// `None` key names nothing: `build` runs and its value is not kept.
    pub fn get_or_init(&self, key: Option<&K>, build: impl FnOnce() -> V) -> V {
        let build = || {
            self.built.fetch_add(1, Ordering::Relaxed);
            build()
        };
        let Some(key) = key else { return build() };
        let cell = {
            let mut slots = self.lock();
            let slot = match slots.iter().position(|(k, _)| k == key) {
                Some(at) => slots.remove(at),
                None => {
                    if slots.len() == CAPACITY {
                        slots.remove(0);
                    }
                    (key.clone(), Arc::default())
                }
            };
            slots.push(slot);
            slots.last().expect("just pushed").1.clone()
        };
        cell.get_or_init(build).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use std::sync::Barrier;
    use std::time::Duration;

    #[test]
    fn one_key_builds_once_however_many_ask() {
        let map: OnceMap<u32, usize> = OnceMap::new();
        let runs = AtomicUsize::new(0);
        let start = Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    start.wait();
                    let v = map.get_or_init(Some(&7), || {
                        runs.fetch_add(1, Ordering::SeqCst);
                        42
                    });
                    assert_eq!(v, 42);
                });
            }
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        assert_eq!(map.built(), 1);
        assert_eq!(map.get_or_init(Some(&7), || unreachable!()), 42);
    }

    /// The map's lock is not held across a build: while key 1 is building,
    /// key 2 is asked for, built and returned. Held across, this deadlocks
    /// (and the timeout fails the test).
    #[test]
    fn another_key_proceeds_while_one_builds() {
        let map: OnceMap<u32, u32> = OnceMap::new();
        let (entered_tx, entered_rx) = mpsc::channel();
        let (other_done_tx, other_done_rx) = mpsc::channel();
        std::thread::scope(|s| {
            let map = &map;
            s.spawn(move || {
                map.get_or_init(Some(&1), || {
                    entered_tx.send(()).unwrap();
                    other_done_rx
                        .recv_timeout(Duration::from_secs(20))
                        .expect("key 2 finished while key 1 was building");
                    10
                })
            });
            entered_rx.recv().unwrap();
            assert_eq!(map.get_or_init(Some(&2), || 20), 20);
            other_done_tx.send(()).unwrap();
        });
        assert_eq!(map.get_or_init(Some(&1), || unreachable!()), 10);
    }

    #[test]
    fn a_panicking_builder_poisons_nothing() {
        let map: OnceMap<u32, u32> = OnceMap::new();
        let panicked = std::thread::scope(|s| {
            s.spawn(|| map.get_or_init(Some(&1), || panic!("builder failed")))
                .join()
        });
        assert!(panicked.is_err());
        // Another key, and the same key again, both build.
        assert_eq!(map.get_or_init(Some(&2), || 2), 2);
        assert_eq!(map.get_or_init(Some(&1), || 1), 1);
        assert_eq!(map.get_or_init(Some(&1), || unreachable!()), 1);
    }

    #[test]
    fn a_poisoned_map_is_recovered() {
        #[derive(Clone)]
        struct Key(u32);
        impl PartialEq for Key {
            fn eq(&self, other: &Key) -> bool {
                assert!(other.0 != 13, "an unlucky comparison");
                self.0 == other.0
            }
        }
        let map: OnceMap<Key, u32> = OnceMap::new();
        assert_eq!(map.get_or_init(Some(&Key(1)), || 1), 1);
        // Panics inside `position`, under the map's lock.
        let panicked =
            std::thread::scope(|s| s.spawn(|| map.get_or_init(Some(&Key(13)), || 13)).join());
        assert!(panicked.is_err());
        assert_eq!(map.get_or_init(Some(&Key(1)), || unreachable!()), 1);
        assert_eq!(map.get_or_init(Some(&Key(2)), || 2), 2);
    }

    #[test]
    fn the_least_recently_asked_key_goes_first() {
        let map: OnceMap<usize, usize> = OnceMap::new();
        for k in 0..CAPACITY {
            map.get_or_init(Some(&k), || k);
        }
        // Touch 0, then overflow by one: 1 is the oldest now.
        map.get_or_init(Some(&0), || unreachable!());
        map.get_or_init(Some(&CAPACITY), || CAPACITY);
        assert_eq!(map.built(), CAPACITY as u64 + 1);
        map.get_or_init(Some(&0), || unreachable!());
        assert_eq!(map.get_or_init(Some(&1), || 100), 100, "1 was evicted");
        assert_eq!(map.built(), CAPACITY as u64 + 2);
    }

    #[test]
    fn no_key_builds_every_time_and_keeps_nothing() {
        let map: OnceMap<u32, u32> = OnceMap::new();
        assert_eq!(map.get_or_init(None, || 1), 1);
        assert_eq!(map.get_or_init(None, || 2), 2);
        assert_eq!(map.built(), 2);
        assert!(map.lock().is_empty());
        map.get_or_init(Some(&1), || 1);
        map.forget();
        assert_eq!(map.get_or_init(Some(&1), || 5), 5);
    }
}
