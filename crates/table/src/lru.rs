//! [`CappedCache`] — a concurrent, size-capped memo cache with
//! approximate-LRU eviction and hit/miss/eviction telemetry.
//!
//! The encoding layer and the testers built on it memoize per-variable-set
//! artifacts (joint encodings, design matrices, residual vectors). In a
//! batch-scoped session those caches are naturally bounded by the workload;
//! in a *long-lived* service they are not — every distinct conditioning set
//! a client ever asks about would stay resident forever. This cache bounds
//! them: lookups run under a read lock (recency is tracked with a relaxed
//! atomic tick, so hits never take the write lock), inserts evict the
//! least-recently-used entry once the cap is reached.
//!
//! Eviction only ever discards *memoized* values that can be recomputed
//! bit-identically, so a capped cache changes memory behavior and nothing
//! else — the property the bounded-cache regression tests in
//! `fairsel-tests` pin down.
//!
//! [`CappedCache::get_or_build`] builds each missing value once even when
//! several threads miss it together: the first builds, the others wait
//! for that build and read it, so the miss counter and whatever a build
//! books beside it count each value once; [`CappedCache::try_get_or_build`]
//! does the same for a build that can fail, and
//! [`CappedCache::build_missing`] claims a list of keys and builds the
//! missing ones in one call. These caches hold joint encodings and
//! numeric columns, G-test/CMI scaffolds and patchable tables, Fisher-z
//! residuals, RCIT contexts, report memos, and the server registry's
//! workloads and uploads.

use crate::encode::EncodeStats;
use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::convert::Infallible;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError, RwLock};

struct Slot<V> {
    value: V,
    last_used: AtomicU64,
}

/// A bounded concurrent memo cache. `V` is cloned out on every hit, so it
/// should be a cheap handle (`Arc<...>` in every use here).
pub struct CappedCache<K, V> {
    // analyze: bounded-by this IS the capped cache; insert evicts at `cap`
    map: RwLock<HashMap<K, Slot<V>>>,
    /// Keys a `get_or_build` caller is building right now; `built` wakes
    /// the callers waiting on one of them.
    // analyze: bounded-by keys in flight; each is removed when its build returns or unwinds, so it holds only the builds running now (one per thread and nesting level)
    building: Mutex<HashSet<K>>,
    built: Condvar,
    cap: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Inserts that actually took residency (racing duplicates excluded) —
    /// with `evictions`, the exact ledger behind the scaffold conservation
    /// law: `inserted == len() + evictions` at every instant.
    inserted: AtomicU64,
}

impl<K: Eq + Hash + Clone, V: Clone> CappedCache<K, V> {
    /// Cache holding at most `cap` entries (`cap == 0` is clamped to 1).
    pub fn new(cap: usize) -> Self {
        Self {
            map: RwLock::new(HashMap::new()),
            building: Mutex::new(HashSet::new()),
            built: Condvar::new(),
            cap: cap.max(1),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            inserted: AtomicU64::new(0),
        }
    }

    /// Maximum number of entries retained.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.map.read().expect("cache lock").len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look a key up, bumping its recency. Counts a hit on success; a miss
    /// is only counted by [`CappedCache::insert`] (so recursive fills
    /// account once per value actually computed).
    /// Borrowed key forms are accepted (`&[ColId]` for a `Vec<ColId>` key)
    /// so hot hit paths never allocate.
    pub fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        let map = self.map.read().expect("cache lock");
        let slot = map.get(key)?;
        slot.last_used
            .store(self.tick.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(slot.value.clone())
    }

    /// Look a key up without touching hit or recency telemetry — a pure
    /// residency probe. The dataset-extension patching path uses this to
    /// check preconditions (is the scaffold resident in the child?)
    /// without skewing the hit/miss ledger or the LRU ordering.
    pub fn peek<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        let map = self.map.read().expect("cache lock");
        map.get(key).map(|slot| slot.value.clone())
    }

    /// Resident entries, in unspecified order, without touching hit or
    /// recency telemetry. The dataset-extension path walks a parent
    /// cache's resident set through this to extend each value in place.
    pub fn snapshot(&self) -> Vec<(K, V)> {
        let map = self.map.read().expect("cache lock");
        // analyze: unordered-ok callers own the ordering contract — the
        // extension path sorts snapshots before iterating (K is not Ord
        // here, so this method cannot sort for them).
        map.iter()
            .map(|(k, s)| (k.clone(), s.value.clone()))
            .collect()
    }

    /// Look `key` up, or build its value once and insert it. The caller
    /// that finds the key neither resident nor being built runs `build`
    /// and counts the miss; a caller that misses while another builds the
    /// same key waits for that build and counts a hit, as every caller
    /// that finds the value resident does. A build that panics leaves the
    /// key unbuilt (the panic goes on to its caller), and the next caller
    /// to find it missing builds it.
    ///
    /// `build` must not look up `key` itself; it may look up other keys
    /// (an encoding builds its shorter prefixes through here), as long as
    /// no two keys' builds need each other.
    pub fn get_or_build<Q>(&self, key: &Q, build: impl FnOnce() -> V) -> V
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ToOwned<Owned = K> + ?Sized,
    {
        let built = self.try_get_or_build(key, || Ok::<V, Infallible>(build()));
        built.unwrap_or_else(|never| match never {})
    }

    /// [`CappedCache::get_or_build`] for a build that can fail. A failed
    /// build returns its error to the caller that ran it and, like a
    /// panic, leaves the key unbuilt and unflagged; a caller that was
    /// waiting on the key then builds it.
    pub fn try_get_or_build<Q, E>(
        &self,
        key: &Q,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ToOwned<Owned = K> + ?Sized,
    {
        if let Some(hit) = self.get(key) {
            return Ok(hit);
        }
        let mut building = self.building.lock().expect("cache lock");
        loop {
            // A build inserts its value before it clears its flag, so a
            // key that is not being built is either resident or missing.
            if let Some(hit) = self.get(key) {
                return Ok(hit);
            }
            if !building.contains(key) {
                break;
            }
            building = self.built.wait(building).expect("cache lock");
        }
        building.insert(key.to_owned());
        drop(building);
        let _flags = BuildFlags(self, &[key]);
        let value = build()?;
        Ok(self.insert(key.to_owned(), value))
    }

    /// Claim the keys of `keys` that are neither resident nor being built,
    /// build them with one call of `build` (given the claimed keys in list
    /// order, returning one value each) and insert them, counting a miss
    /// each. A key found resident or in flight counts a hit, as a caller
    /// waiting on it would; nothing waits here, and a build that panics
    /// leaves its claims unbuilt and unflagged.
    pub fn build_missing(&self, keys: &[K], build: impl FnOnce(&[K]) -> Vec<V>) {
        let mut building = self.building.lock().expect("cache lock");
        let mut claimed = Vec::new();
        for key in keys {
            if self.get(key).is_none() {
                if building.insert(key.clone()) {
                    claimed.push(key.clone());
                } else {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        drop(building);
        if claimed.is_empty() {
            return;
        }
        let refs: Vec<&K> = claimed.iter().collect();
        let _flags = BuildFlags(self, &refs);
        let values = build(&claimed);
        assert_eq!(values.len(), claimed.len(), "one value per claimed key");
        for (key, value) in claimed.iter().zip(values) {
            self.insert(key.clone(), value);
        }
    }

    /// Insert a freshly computed value, evicting the least-recently-used
    /// entry if the cache is full. Counts a miss. When another thread
    /// raced the same key in first, the resident value wins and is
    /// returned — values for one key are bit-identical by construction,
    /// and keeping one canonical handle preserves `Arc` sharing.
    pub fn insert(&self, key: K, value: V) -> V {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.insert_inner(key, value)
    }

    /// Insert a value carried over from a parent cache on dataset
    /// extension. Identical to [`CappedCache::insert`] except no miss is
    /// counted: the value was structurally extended, not recomputed, and
    /// the miss counter is the honest measure of computation.
    pub fn insert_transferred(&self, key: K, value: V) -> V {
        self.insert_inner(key, value)
    }

    fn insert_inner(&self, key: K, value: V) -> V {
        let mut map = self.map.write().expect("cache lock");
        if let Some(existing) = map.get(&key) {
            return existing.value.clone();
        }
        // Every insert keeps `len() <= cap`, so one victim makes room.
        let mut evicted = None;
        if map.len() >= self.cap {
            // Approximate LRU: evict the minimum recency tick. O(n) scan,
            // but only on inserts into a full cache.
            // analyze: unordered-ok the victim choice on recency ties is
            // arbitrary by contract (K is not Ord) — eviction only ever
            // discards memoized values recomputed bit-identically, so it
            // changes memory behavior and nothing else.
            let victim = map
                .iter()
                .min_by_key(|(_, s)| s.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone());
            if let Some(k) = victim {
                evicted = map.remove(&k);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.inserted.fetch_add(1, Ordering::Relaxed);
        map.insert(
            key,
            Slot {
                value: value.clone(),
                last_used: AtomicU64::new(self.tick.fetch_add(1, Ordering::Relaxed)),
            },
        );
        // An evicted value drops once the lock is released: its drop (a
        // workload's worker pool) may take locks of its own.
        drop(map);
        drop(evicted);
        value
    }

    /// Inserts that took residency (transfers included, racing losers
    /// excluded). Structurally `inserted() == len() + evictions()`.
    pub fn inserted(&self) -> u64 {
        self.inserted.load(Ordering::Relaxed)
    }

    /// Entries evicted by the cap so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Cumulative telemetry.
    pub fn stats(&self) -> EncodeStats {
        EncodeStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            ..EncodeStats::default()
        }
    }
}

/// Clears the in-flight flags of the keys a caller claimed when its build
/// returns or unwinds, and wakes the callers waiting on them.
struct BuildFlags<'c, K: Eq + Hash + Borrow<Q>, V, Q: Eq + Hash + ?Sized>(
    &'c CappedCache<K, V>,
    &'c [&'c Q],
);

impl<K: Eq + Hash + Borrow<Q>, V, Q: Eq + Hash + ?Sized> Drop for BuildFlags<'_, K, V, Q> {
    fn drop(&mut self) {
        // No code that can panic runs under this lock, but a poisoned
        // lock must not turn an unwinding build into an abort.
        let mut building = self
            .0
            .building
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        for key in self.1 {
            building.remove(*key);
        }
        drop(building);
        self.0.built.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Arc, Barrier};
    use std::time::Duration;

    #[test]
    fn get_insert_and_telemetry() {
        let c: CappedCache<u32, Arc<u32>> = CappedCache::new(8);
        assert!(c.get(&1).is_none());
        c.insert(1, Arc::new(10));
        assert_eq!(*c.get(&1).unwrap(), 10);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 1, 0));
    }

    #[test]
    fn evicts_least_recently_used() {
        let c: CappedCache<u32, Arc<u32>> = CappedCache::new(2);
        c.insert(1, Arc::new(10));
        c.insert(2, Arc::new(20));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(c.get(&1).is_some());
        c.insert(3, Arc::new(30));
        assert_eq!(c.len(), 2);
        assert!(c.get(&2).is_none(), "LRU entry must be evicted");
        assert!(c.get(&1).is_some());
        assert!(c.get(&3).is_some());
        assert_eq!(c.stats().evictions, 1);
        // Conservation ledger: every resident entry was inserted once.
        assert_eq!(c.inserted(), c.len() as u64 + c.evictions());
    }

    #[test]
    fn racing_insert_keeps_first_value() {
        let c: CappedCache<u32, Arc<u32>> = CappedCache::new(4);
        let a = c.insert(7, Arc::new(1));
        let b = c.insert(7, Arc::new(2));
        assert!(Arc::ptr_eq(&a, &b), "second insert must return resident");
        assert_eq!(c.len(), 1);
        assert_eq!(c.inserted(), 1, "racing loser must not count as inserted");
    }

    #[test]
    fn snapshot_and_transfer_insert_skip_telemetry() {
        let c: CappedCache<u32, Arc<u32>> = CappedCache::new(8);
        c.insert(1, Arc::new(10));
        c.insert_transferred(2, Arc::new(20));
        let mut snap = c.snapshot();
        snap.sort_by_key(|(k, _)| *k);
        assert_eq!(snap.len(), 2);
        assert_eq!((snap[0].0, *snap[0].1), (1, 10));
        assert_eq!((snap[1].0, *snap[1].1), (2, 20));
        let s = c.stats();
        // One real insert, one transfer, no gets: 1 miss, 0 hits.
        assert_eq!((s.hits, s.misses), (0, 1));
    }

    #[test]
    fn peek_skips_telemetry_and_recency() {
        let c: CappedCache<u32, Arc<u32>> = CappedCache::new(2);
        c.insert(1, Arc::new(10));
        c.insert(2, Arc::new(20));
        assert_eq!(*c.peek(&1).unwrap(), 10);
        assert!(c.peek(&9).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (0, 2), "peek must not count");
        // Peeking 1 did not bump its recency: it is still the LRU victim.
        c.insert(3, Arc::new(30));
        assert!(c.peek(&1).is_none(), "peek must not protect from eviction");
        assert!(c.peek(&2).is_some());
    }

    /// Callers that miss a key while its build is held wait for it: one
    /// build, one miss, every other caller a hit on the one value.
    #[test]
    fn concurrent_misses_build_once() {
        const WAITERS: usize = 6;
        let c: CappedCache<u32, Arc<u32>> = CappedCache::new(4);
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::scope(|s| {
            let c = &c;
            let builder = s.spawn(move || {
                c.get_or_build(&7, || {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    Arc::new(70)
                })
            });
            started_rx.recv().unwrap();
            let waiters: Vec<_> = (0..WAITERS)
                .map(|_| {
                    let done_tx = done_tx.clone();
                    s.spawn(move || {
                        let v = c.get_or_build(&7, || Arc::new(71));
                        done_tx.send(()).unwrap();
                        v
                    })
                })
                .collect();
            // No caller can return before the held build does.
            let early = done_rx.recv_timeout(Duration::from_millis(50));
            release_tx.send(()).unwrap();
            assert!(
                early.is_err(),
                "a caller returned while the key was being built"
            );
            let built = builder.join().unwrap();
            assert_eq!(*built, 70);
            for w in waiters {
                assert!(Arc::ptr_eq(&w.join().unwrap(), &built));
            }
        });
        let st = c.stats();
        assert_eq!((st.misses, st.hits), (1, WAITERS as u64));
        assert_eq!(c.inserted(), c.len() as u64 + c.evictions());
        assert!(c.building.lock().unwrap().is_empty());
    }

    /// A build that panics leaves the key unbuilt and unflagged; the next
    /// caller builds it.
    #[test]
    fn panicking_build_leaves_the_key_unbuilt() {
        let c: CappedCache<u32, Arc<u32>> = CappedCache::new(4);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.get_or_build(&3, || panic!("build failed"))
        }));
        assert!(r.is_err());
        assert!(c.peek(&3).is_none());
        assert!(c.building.lock().unwrap().is_empty());
        assert_eq!(*c.get_or_build(&3, || Arc::new(30)), 30);
        assert_eq!(*c.get_or_build(&3, || unreachable!("resident")), 30);
        let st = c.stats();
        assert_eq!((st.misses, st.hits), (1, 1));
    }

    /// A failed build returns its error to the caller that ran it and
    /// leaves the key unbuilt and unflagged; of the callers that waited on
    /// it, one builds it, once, and the rest read that value.
    #[test]
    fn failing_build_hands_the_key_to_a_waiter() {
        const WAITERS: usize = 4;
        let c: CappedCache<u32, Arc<u32>> = CappedCache::new(4);
        assert_eq!(c.try_get_or_build(&3, || Err("no")), Err("no"));
        assert!(c.peek(&3).is_none());
        assert!(c.building.lock().unwrap().is_empty());

        let builds = AtomicU64::new(0);
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::scope(|s| {
            let (c, builds) = (&c, &builds);
            let failing = s.spawn(move || {
                c.try_get_or_build(&7, || {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    Err("build failed")
                })
            });
            started_rx.recv().unwrap();
            let waiters: Vec<_> = (0..WAITERS)
                .map(|_| {
                    let done_tx = done_tx.clone();
                    s.spawn(move || {
                        let v = c.try_get_or_build(&7, || {
                            builds.fetch_add(1, Ordering::Relaxed);
                            Ok::<_, &str>(Arc::new(70))
                        });
                        done_tx.send(()).unwrap();
                        v.unwrap()
                    })
                })
                .collect();
            let early = done_rx.recv_timeout(Duration::from_millis(50));
            release_tx.send(()).unwrap();
            assert!(early.is_err(), "a waiter returned during the build");
            assert_eq!(failing.join().unwrap(), Err("build failed"));
            let values: Vec<_> = waiters.into_iter().map(|w| w.join().unwrap()).collect();
            assert_eq!(*values[0], 70);
            assert!(values.iter().all(|v| Arc::ptr_eq(v, &values[0])));
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1, "one waiter builds");
        let st = c.stats();
        assert_eq!((st.misses, st.hits), (1, WAITERS as u64 - 1));
        assert!(c.building.lock().unwrap().is_empty());
    }

    /// The claim call builds only the keys neither resident nor in flight,
    /// in one call and in list order; resident keys count hits, claimed
    /// keys misses, and a panicking build leaves its claims unbuilt.
    #[test]
    fn build_missing_claims_only_missing_keys() {
        let c: CappedCache<u32, Arc<u32>> = CappedCache::new(8);
        c.insert(2, Arc::new(20));
        let mut calls = Vec::new();
        c.build_missing(&[5, 2, 1, 5], |keys| {
            calls.push(keys.to_vec());
            keys.iter().map(|&k| Arc::new(k * 10)).collect()
        });
        assert_eq!(calls, [vec![5, 1]]);
        assert_eq!((*c.peek(&5).unwrap(), *c.peek(&1).unwrap()), (50, 10));
        let st = c.stats();
        // Misses: 2 inserted, 5 and 1. Hits: 2 resident, 5 repeated.
        assert_eq!((st.misses, st.hits), (3, 2));
        c.build_missing(&[1, 2], |_| unreachable!("both resident"));

        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.build_missing(&[8, 9], |_| panic!("build failed"))
        }));
        assert!(r.is_err());
        assert!(c.peek(&8).is_none() && c.peek(&9).is_none());
        assert!(c.building.lock().unwrap().is_empty());
    }

    /// Threads released together on overlapping key lists build every key
    /// once, book it once, and read one `Arc` per key.
    #[test]
    fn concurrent_claims_build_each_key_once() {
        const THREADS: usize = 6;
        const KEYS: u32 = 12;
        let c: CappedCache<u32, Arc<u32>> = CappedCache::new(64);
        let builds: Vec<AtomicU64> = (0..KEYS).map(|_| AtomicU64::new(0)).collect();
        let barrier = Barrier::new(THREADS);
        // Thread t claims keys t..t+6, wrapped: every key is on 3 lists.
        let list =
            |t: usize| -> Vec<u32> { (0..KEYS / 2).map(|i| (t as u32 * 2 + i) % KEYS).collect() };
        let seen: Vec<Vec<Arc<u32>>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (c, builds, barrier) = (&c, &builds, &barrier);
                    // A thread may read a key before any list holding it
                    // is claimed, and then builds it there.
                    let build = move |k: u32| {
                        builds[k as usize].fetch_add(1, Ordering::Relaxed);
                        Arc::new(k)
                    };
                    s.spawn(move || {
                        barrier.wait();
                        c.build_missing(&list(t), |keys| keys.iter().map(|&k| build(k)).collect());
                        (0..KEYS).map(|k| c.get_or_build(&k, || build(k))).collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (k, n) in builds.iter().enumerate() {
            assert_eq!(n.load(Ordering::Relaxed), 1, "key {k} built once");
        }
        for values in &seen[1..] {
            assert!(values.iter().zip(&seen[0]).all(|(a, b)| Arc::ptr_eq(a, b)));
        }
        // One miss per key; every other listing or read is a hit.
        let st = c.stats();
        let touches = (THREADS * KEYS as usize / 2 + THREADS * KEYS as usize) as u64;
        assert_eq!((st.misses, st.hits), (KEYS as u64, touches - KEYS as u64));
        assert_eq!(c.inserted(), KEYS as u64);
    }

    /// An evicted value drops after the map lock is released, so a drop
    /// that takes locks of its own never runs under it.
    #[test]
    fn evicted_values_drop_outside_the_lock() {
        struct Probe(&'static CappedCache<u32, Arc<Probe>>, &'static AtomicU64);
        impl Drop for Probe {
            fn drop(&mut self) {
                assert!(self.0.map.try_write().is_ok(), "dropped under the lock");
                self.1.fetch_add(1, Ordering::Relaxed);
            }
        }
        let cache = Box::leak(Box::new(CappedCache::new(1)));
        let drops = Box::leak(Box::new(AtomicU64::new(0)));
        cache.insert(1, Arc::new(Probe(cache, drops)));
        cache.insert(2, Arc::new(Probe(cache, drops)));
        assert_eq!(
            drops.load(Ordering::Relaxed),
            1,
            "the evicted value dropped"
        );
        assert_eq!((cache.len(), cache.evictions()), (1, 1));
    }

    #[test]
    fn zero_cap_clamped() {
        let c: CappedCache<u32, u32> = CappedCache::new(0);
        assert_eq!(c.cap(), 1);
        c.insert(1, 1);
        c.insert(2, 2);
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().evictions, 1);
    }
}
