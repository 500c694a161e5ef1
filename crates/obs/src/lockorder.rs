//! Debug-build lock-order checker: [`TrackedMutex`], a `Mutex` wrapper that
//! records per-thread acquisition stacks into a global lock-order graph and
//! panics the moment any thread acquires two locks in an order that forms a
//! cycle with an order some thread used before — a deadlock made loud and
//! deterministic instead of a once-a-month CI hang.
//!
//! Mechanics (debug builds): every `TrackedMutex` carries a `&'static str`
//! name. `lock()` consults a thread-local stack of currently held names;
//! for each held lock `h` it inserts the edge `h → name` into a global
//! graph, stamped with the two [`std::panic::Location`]s that first
//! witnessed the pair (holder's acquisition site and the current call
//! site, via `#[track_caller]`). Before inserting, a DFS checks whether
//! `name ⇝ h` is already reachable — if so the new edge closes a cycle,
//! and the panic message names both acquisition sites of the conflicting
//! edge plus the current one. Same-name edges are skipped: distinct
//! per-workload instances sharing a name (e.g. one mutex per session slot)
//! are never ordered against each other by construction here, and a true
//! self-deadlock panics in std anyway.
//!
//! In release builds the wrapper is a transparent `Mutex` with a
//! poison-tolerant `lock()` — no name, no thread-local, no graph, zero
//! overhead — so production code routes through the same API it ships
//! with and every debug test run doubles as a deadlock-freedom check.
//!
//! `lock()` is poison-tolerant in both builds (`PoisonError::into_inner`):
//! the workspace's invariant-bearing state is guarded by conservation-law
//! tests, not by poisoning, and the server's panic budget is confined to
//! `catch_unwind` per connection.

#[cfg(debug_assertions)]
pub use checked::{TrackedGuard, TrackedMutex};

#[cfg(not(debug_assertions))]
pub use passthrough::{TrackedGuard, TrackedMutex};

#[cfg(debug_assertions)]
mod checked {
    use std::cell::RefCell;
    use std::collections::{BTreeMap, BTreeSet};
    use std::ops::{Deref, DerefMut};
    use std::panic::Location;
    use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

    type Site = &'static Location<'static>;

    /// First-witness lock-order graph: edge `(a, b)` means some thread
    /// acquired `b` while holding `a`, stamped with where `a` was held and
    /// where `b` was taken the first time the pair was seen.
    #[derive(Default)]
    struct OrderGraph {
        // analyze: bounded-by ordered pairs of distinct lock names, a static set in the code
        edges: BTreeMap<(&'static str, &'static str), (Site, Site)>,
        // analyze: bounded-by one entry per static lock name
        adj: BTreeMap<&'static str, BTreeSet<&'static str>>,
    }

    impl OrderGraph {
        /// Is `to` reachable from `from` along recorded edges?
        fn reachable(&self, from: &'static str, to: &'static str) -> bool {
            let mut stack = vec![from];
            let mut seen = BTreeSet::new();
            while let Some(n) = stack.pop() {
                if n == to {
                    return true;
                }
                if !seen.insert(n) {
                    continue;
                }
                if let Some(next) = self.adj.get(n) {
                    stack.extend(next.iter().copied());
                }
            }
            false
        }
    }

    fn graph() -> &'static Mutex<OrderGraph> {
        static GRAPH: OnceLock<Mutex<OrderGraph>> = OnceLock::new();
        GRAPH.get_or_init(|| Mutex::new(OrderGraph::default()))
    }

    thread_local! {
        /// Names + acquisition sites of TrackedMutexes this thread holds,
        /// in acquisition order.
        static HELD: RefCell<Vec<(&'static str, Site)>> = const { RefCell::new(Vec::new()) };
    }

    /// Validate acquiring `name` at `site` against everything this thread
    /// already holds, recording first-witness edges. Panics on an
    /// order inversion.
    fn check_and_record(name: &'static str, site: Site) {
        // `try_with`: during thread teardown the TLS slot may already be
        // destroyed (a guard dropped from another TLS destructor) — skip
        // tracking rather than abort.
        let held: Vec<(&'static str, Site)> =
            HELD.try_with(|h| h.borrow().clone()).unwrap_or_default();
        if held.is_empty() {
            return;
        }
        let mut g = graph().lock().unwrap_or_else(|e| e.into_inner());
        for &(h, h_site) in &held {
            if h == name {
                continue;
            }
            if g.edges.contains_key(&(h, name)) {
                continue;
            }
            if g.reachable(name, h) {
                // Adding h → name would close a cycle. Dig out the edge(s)
                // of the existing name ⇝ h path for the message; the
                // direct edge exists in the common two-lock case.
                let conflict = g
                    .edges
                    .get(&(name, h))
                    .map(|(a, b)| {
                        format!(
                            "previously `{name}` (held at {a}) was ordered before \
                             `{h}` (acquired at {b})"
                        )
                    })
                    .unwrap_or_else(|| {
                        format!("`{name}` already reaches `{h}` through recorded orders")
                    });
                drop(g);
                panic!(
                    "lock-order inversion: acquiring `{name}` at {site} while \
                     holding `{h}` (acquired at {h_site}); {conflict}"
                );
            }
            g.edges.insert((h, name), (h_site, site));
            g.adj.entry(h).or_default().insert(name);
        }
    }

    fn push_held(name: &'static str, site: Site) {
        let _ = HELD.try_with(|h| h.borrow_mut().push((name, site)));
    }

    fn pop_held(name: &'static str) {
        let _ = HELD.try_with(|h| {
            let mut v = h.borrow_mut();
            if let Some(i) = v.iter().rposition(|&(n, _)| n == name) {
                v.remove(i);
            }
        });
    }

    /// A named mutex whose acquisitions are checked against the global
    /// lock-order graph (debug builds only — see the module docs).
    pub struct TrackedMutex<T> {
        name: &'static str,
        inner: Mutex<T>,
    }

    /// Guard for a [`TrackedMutex`]; releases the thread's held-stack entry
    /// on drop.
    pub struct TrackedGuard<'a, T> {
        // `Option` so `wait` can move the std guard through a Condvar.
        guard: Option<MutexGuard<'a, T>>,
        name: &'static str,
    }

    impl<T> TrackedMutex<T> {
        /// A tracked mutex named `name`. Use one name per *role* (e.g.
        /// `"server.registry.workload"`): instances sharing a name are not
        /// ordered against each other.
        pub const fn new(name: &'static str, value: T) -> Self {
            TrackedMutex {
                name,
                inner: Mutex::new(value),
            }
        }

        /// Acquire, panicking on a cycle-forming order inversion (debug
        /// builds). Poison-tolerant: a panic elsewhere never cascades here.
        #[track_caller]
        pub fn lock(&self) -> TrackedGuard<'_, T> {
            let site = Location::caller();
            check_and_record(self.name, site);
            let guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            push_held(self.name, site);
            TrackedGuard {
                guard: Some(guard),
                name: self.name,
            }
        }

        /// Condvar wait: releases and reacquires *this* mutex. The held
        /// stack keeps its entry — the reacquisition cannot introduce a
        /// new edge (same lock, same order position).
        pub fn wait<'a>(&self, cv: &Condvar, mut g: TrackedGuard<'a, T>) -> TrackedGuard<'a, T> {
            let inner = g.guard.take().expect("guard present outside wait");
            let inner = cv.wait(inner).unwrap_or_else(|e| e.into_inner());
            g.guard = Some(inner);
            g
        }
    }

    impl<T> Deref for TrackedGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.guard.as_ref().expect("guard present")
        }
    }

    impl<T> DerefMut for TrackedGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.guard.as_mut().expect("guard present")
        }
    }

    impl<T> Drop for TrackedGuard<'_, T> {
        fn drop(&mut self) {
            pop_held(self.name);
        }
    }
}

#[cfg(not(debug_assertions))]
mod passthrough {
    use std::sync::{Condvar, Mutex, MutexGuard};

    /// Release builds: a transparent `Mutex` wrapper — the name is
    /// discarded at construction, `lock()` is the plain poison-tolerant
    /// acquisition, and the guard is the std guard itself. Zero overhead.
    pub struct TrackedMutex<T> {
        inner: Mutex<T>,
    }

    /// In release builds the guard is exactly [`std::sync::MutexGuard`].
    pub type TrackedGuard<'a, T> = MutexGuard<'a, T>;

    impl<T> TrackedMutex<T> {
        pub const fn new(_name: &'static str, value: T) -> Self {
            TrackedMutex {
                inner: Mutex::new(value),
            }
        }

        #[inline]
        pub fn lock(&self) -> MutexGuard<'_, T> {
            self.inner.lock().unwrap_or_else(|e| e.into_inner())
        }

        #[inline]
        pub fn wait<'a>(&self, cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
            cv.wait(g).unwrap_or_else(|e| e.into_inner())
        }
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::TrackedMutex;

    /// A deliberate A→B then B→A inversion panics, and the message names
    /// both acquisition sites (this file) plus both lock names.
    #[test]
    fn inversion_panics_with_both_sites() {
        static A: TrackedMutex<i32> = TrackedMutex::new("lockorder.test.a", 0);
        static B: TrackedMutex<i32> = TrackedMutex::new("lockorder.test.b", 0);
        {
            let _a = A.lock();
            let _b = B.lock(); // records a → b
        }
        let err = std::panic::catch_unwind(|| {
            let _b = B.lock();
            let _a = A.lock(); // b → a closes the cycle
        })
        .expect_err("inversion must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("lock-order inversion"),
            "unexpected panic: {msg}"
        );
        assert!(msg.contains("lockorder.test.a") && msg.contains("lockorder.test.b"));
        // Both acquisition sites of the conflicting order are named: the
        // current site and the first-witness sites all live in this file.
        assert!(
            msg.matches("lockorder.rs").count() >= 3,
            "expected current + both first-witness sites in: {msg}"
        );
    }

    /// Consistent ordering across many acquisitions never panics, and
    /// re-locking after release is clean.
    #[test]
    fn consistent_order_is_silent() {
        static C: TrackedMutex<i32> = TrackedMutex::new("lockorder.test.c", 0);
        static D: TrackedMutex<i32> = TrackedMutex::new("lockorder.test.d", 0);
        for _ in 0..64 {
            let mut c = C.lock();
            let mut d = D.lock();
            *c += 1;
            *d += 1;
        }
        assert_eq!(*C.lock(), 64);
    }

    /// Same-name instances are exempt: per-slot mutexes sharing a role
    /// name must not order against each other.
    #[test]
    fn same_name_instances_exempt() {
        let m1 = TrackedMutex::new("lockorder.test.slot", 1);
        let m2 = TrackedMutex::new("lockorder.test.slot", 2);
        let g1 = m1.lock();
        let g2 = m2.lock();
        assert_eq!(*g1 + *g2, 3);
    }

    /// Condvar wait round-trips the guard without disturbing tracking.
    #[test]
    fn condvar_wait_roundtrip() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::{Arc, Condvar};
        let m = Arc::new(TrackedMutex::new("lockorder.test.cv", false));
        let cv = Arc::new(Condvar::new());
        let flagged = Arc::new(AtomicBool::new(false));
        let (m2, cv2, f2) = (Arc::clone(&m), Arc::clone(&cv), Arc::clone(&flagged));
        let t = std::thread::spawn(move || {
            let mut g = m2.lock();
            *g = true;
            f2.store(true, Ordering::SeqCst);
            drop(g);
            cv2.notify_all();
        });
        let mut g = m.lock();
        while !*g {
            g = m.wait(&cv, g);
        }
        drop(g);
        t.join().expect("notifier thread");
        assert!(flagged.load(Ordering::SeqCst));
    }
}
