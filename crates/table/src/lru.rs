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
//! books beside it count each value once.

use crate::encode::EncodeStats;
use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
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
        if let Some(hit) = self.get(key) {
            return hit;
        }
        let mut building = self.building.lock().expect("cache lock");
        loop {
            // A build inserts its value before it clears its flag, so a
            // key that is not being built is either resident or missing.
            if let Some(hit) = self.get(key) {
                return hit;
            }
            if !building.contains(key) {
                break;
            }
            building = self.built.wait(building).expect("cache lock");
        }
        building.insert(key.to_owned());
        drop(building);
        let _flag = BuildFlag { cache: self, key };
        let value = build();
        self.insert(key.to_owned(), value)
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
        while map.len() >= self.cap {
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
            match victim {
                Some(k) => {
                    map.remove(&k);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => break,
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

/// Clears a key's in-flight flag when its build returns or unwinds, and
/// wakes the callers waiting on it.
struct BuildFlag<'c, K: Eq + Hash + Borrow<Q>, V, Q: Eq + Hash + ?Sized> {
    cache: &'c CappedCache<K, V>,
    key: &'c Q,
}

impl<K: Eq + Hash + Borrow<Q>, V, Q: Eq + Hash + ?Sized> Drop for BuildFlag<'_, K, V, Q> {
    fn drop(&mut self) {
        // No code that can panic runs under this lock, but a poisoned
        // lock must not turn an unwinding build into an abort.
        let mut building = self
            .cache
            .building
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        building.remove(self.key);
        drop(building);
        self.cache.built.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Arc};
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
