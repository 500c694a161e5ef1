//! Conditional-independence (CI) testing.
//!
//! The paper's algorithms are *oracle algorithms*: they assume a procedure
//! answering "is X ⊥ Y | Z?" and they differ only in which and how many
//! queries they issue (SeqSel: `O(n)`, GrpSel: `O(k log n)`, §4.3). This
//! crate supplies the oracles:
//!
//! * [`GTest`] — likelihood-ratio (G) test on discrete data with adaptive
//!   degrees of freedom; the workhorse for categorical tables and the PC
//!   algorithm.
//! * [`PermutationCmi`] — plug-in conditional mutual information with a
//!   within-stratum permutation null; slower but assumption-free.
//! * [`FisherZ`] — partial-correlation test for (linear-)Gaussian data.
//! * [`Rcit`] — the paper's choice for real datasets (§5.1 uses the RCIT R
//!   package): random Fourier features + ridge residualization + a
//!   Satterthwaite–Welch gamma tail approximation. Handles multivariate
//!   `X`, `Y`, `Z` of mixed type, which is what group testing needs.
//! * [`OracleCi`] / [`NoisyOracleCi`] — answer queries from ground-truth
//!   d-separation on a known causal graph, optionally with per-test error
//!   to model the spurious correlations that §5.3 attributes to running
//!   too many tests.
//!
//! All testers implement [`CiTest`]; [`CountingCi`] wraps any of them to
//! produce the test counts reported in Table 2 and Figures 4-5.
//!
//! The data-driven testers ([`GTest`], [`PermutationCmi`], [`FisherZ`],
//! [`Rcit`]) additionally implement [`CiTestBatch`]: they evaluate whole
//! *batches* of queries through a shared [`fairsel_table::EncodedTable`]
//! so one columnar encoding pass (or one residualization, for Fisher-z)
//! is amortized across every query of a GrpSel frontier level — and, via
//! the Z-grouped entry point ([`CiTestBatch::eval_z_group`]), amortize
//! the whole per-conditioning-set scaffold: one stratification for the
//! discrete testers, one ridge solve from the columns for Fisher-z, one
//! standardized conditioning block for RCIT, all byte-identical to
//! per-query evaluation. The randomized testers derive a private RNG
//! stream per canonical query ([`derived_query_seed`]), which is what
//! makes them shareable at all.
//!
//! The discrete testers evaluate a single query as a Z-group of one, and
//! they, their retained append-patched tables and the fairness report's
//! plug-in CMI ([`cmi::cmi_from_codes`]) count through one contingency
//! implementation: a dense and a sparse counting arena, one walk per
//! layout, and the G statistic and CMI each defined once over any walk.
//! The hashed per-query count it replaced is kept only as a test-side
//! reference (`tests/kernel_reference/reference.rs`), against which the
//! property tests and kernel references check every output bit.

pub mod cmi;
mod contingency;
pub mod fisher_z;
pub mod gtest;
pub mod oracle;
pub mod rcit;

pub use cmi::PermutationCmi;
pub use fisher_z::FisherZ;
pub use gtest::GTest;
pub use oracle::{NoisyOracleCi, OracleCi};
pub use rcit::{Rcit, RcitConfig};

pub use fairsel_table::{EncodeStats, EncodedTable};

use std::sync::Arc;

/// Conservation ledger for a tester's per-conditioning-set scaffolds
/// (stratifications, residual vectors, standardized conditioning blocks)
/// across a dataset extension ([`CiTestBatch::extend_over`]).
///
/// Every scaffold a tester holds was either *extended* (structurally
/// carried over from the parent tester and appended to) or *rebuilt*
/// (computed from scratch on the child table), and every scaffold that
/// ever took cache residency is still resident or was evicted. The exact
/// law — enforced by the append property tests:
///
/// `extended + rebuilt == resident + evictions`
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScaffoldStats {
    /// Scaffolds transferred from a parent tester and extended in place.
    pub extended: u64,
    /// Scaffolds computed from scratch (cache inserts minus transfers).
    pub rebuilt: u64,
    /// Scaffolds currently resident in the tester's caches.
    pub resident: u64,
    /// Scaffolds evicted by the cache bound since construction.
    pub evictions: u64,
    /// Sufficient-statistic tables (retained per-query contingency counts,
    /// discrete testers only) currently resident. Kept out of the scaffold
    /// conservation law above — suff tables have their own lifecycle (they
    /// are dropped, not rebuilt, when patching preconditions fail).
    pub suff_tables: u64,
    /// Sufficient-statistic tables evicted by their cache bound.
    pub suff_evictions: u64,
}

impl ScaffoldStats {
    /// Does the conservation law hold?
    pub fn conserved(&self) -> bool {
        self.extended + self.rebuilt == self.resident + self.evictions
    }

    /// Sum two ledgers (a tester with several scaffold caches).
    pub fn merged(&self, other: ScaffoldStats) -> ScaffoldStats {
        ScaffoldStats {
            extended: self.extended + other.extended,
            rebuilt: self.rebuilt + other.rebuilt,
            resident: self.resident + other.resident,
            evictions: self.evictions + other.evictions,
            suff_tables: self.suff_tables + other.suff_tables,
            suff_evictions: self.suff_evictions + other.suff_evictions,
        }
    }
}

/// Variables are identified by opaque indices; each tester defines what an
/// index means (a table column, a graph node, ...).
pub type VarId = usize;

/// Result of one CI test.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CiOutcome {
    /// The decision at the tester's significance level.
    pub independent: bool,
    /// p-value under the null of independence (1.0 for oracle testers that
    /// answer "independent", 0.0 otherwise).
    pub p_value: f64,
    /// The raw test statistic (tester-specific; 0.0 for oracles).
    pub statistic: f64,
}

impl CiOutcome {
    /// Outcome for an oracle-style decision without a statistic.
    pub fn decided(independent: bool) -> Self {
        Self {
            independent,
            p_value: if independent { 1.0 } else { 0.0 },
            statistic: 0.0,
        }
    }
}

/// A conditional-independence tester over variables `0..n_vars()`.
///
/// `&mut self` lets implementations cache, count, and consume randomness.
pub trait CiTest {
    /// Test `X ⊥ Y | Z`. Sets may be multi-variable; implementations that
    /// only support scalar sides document the restriction.
    fn ci(&mut self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome;

    /// Number of variables in scope.
    fn n_vars(&self) -> usize;

    /// Short human-readable name for experiment logs.
    fn name(&self) -> &'static str {
        "ci"
    }
}

/// CI testers that can also answer queries through a *shared* reference.
///
/// This is the capability the execution engine's parallel batch scheduler
/// needs: a batch of independent queries is fanned out across worker
/// threads that all borrow the tester immutably. Testers that are pure
/// functions of their inputs (d-separation oracle, G-test, Fisher-z)
/// implement it directly; randomized testers ([`PermutationCmi`],
/// [`Rcit`]) qualify by deriving a private RNG stream per query
/// ([`derived_query_seed`]) instead of mutating a shared stream. Only
/// [`NoisyOracleCi`] — whose per-call flips are *deliberately*
/// order-dependent — falls back to the engine's sequential path.
///
/// Contract: `ci_shared` must return exactly what [`CiTest::ci`] would.
pub trait CiTestShared: CiTest + Sync {
    /// Test `X ⊥ Y | Z` without mutating the tester.
    fn ci_shared(&self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome;
}

/// A shared reference to a shared-capable tester is itself a tester:
/// `ci` routes through `ci_shared` (they agree by the [`CiTestShared`]
/// contract), so sessions can borrow testers immutably.
impl<T: CiTestShared + ?Sized> CiTest for &T {
    fn ci(&mut self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
        (**self).ci_shared(x, y, z)
    }
    fn n_vars(&self) -> usize {
        (**self).n_vars()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

impl<T: CiTestShared + ?Sized> CiTestShared for &T {
    fn ci_shared(&self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
        (**self).ci_shared(x, y, z)
    }
}

/// One query of a batch, borrowing its sides from the caller.
#[derive(Clone, Copy, Debug)]
pub struct CiQueryRef<'q> {
    pub x: &'q [VarId],
    pub y: &'q [VarId],
    pub z: &'q [VarId],
}

/// Canonical test sides: each sorted and deduplicated, the
/// lexicographically smaller one first — the same quotient the engine's
/// cache key uses. Testers that want byte-identical outcomes across all
/// spellings of one query (the [`CiTestBatch`] contract) canonicalize
/// through this single definition.
pub fn canonical_sides(x: &[VarId], y: &[VarId]) -> (Vec<VarId>, Vec<VarId>) {
    fn canon(side: &[VarId]) -> Vec<VarId> {
        let mut v = side.to_vec();
        v.sort_unstable();
        v.dedup();
        v
    }
    let xs = canon(x);
    let ys = canon(y);
    if ys < xs {
        (ys, xs)
    } else {
        (xs, ys)
    }
}

/// Canonical conditioning set: sorted and deduplicated — the same
/// quotient the engine's cache key, the derived RNG seeds, and the
/// Z-grouped scheduler all use. The single definition every tester
/// canonicalizes through, so the byte-identity contract has one spelling
/// of "same `Z`".
pub fn canonical_set(z: &[VarId]) -> Vec<VarId> {
    let mut zs = z.to_vec();
    zs.sort_unstable();
    zs.dedup();
    zs
}

/// Seed for a *per-query* private RNG stream: `base` mixed with a stable
/// hash of the canonicalized query (sides via [`canonical_sides`], `z`
/// sorted and deduplicated).
///
/// Stochastic testers ([`PermutationCmi`], [`Rcit`]) draw all their
/// randomness from a stream seeded here instead of one mutable stream: any
/// two evaluations of the same query — sequential, batched, across worker
/// threads, in any order — consume identical randomness and return
/// byte-identical outcomes. That is what makes a randomized tester
/// [`CiTestShared`]/[`CiTestBatch`]-capable.
///
/// FNV-1a over the canonical sides with separators, then a splitmix-style
/// finalizer; stable across platforms and runs.
pub fn derived_query_seed(base: u64, x: &[VarId], y: &[VarId], z: &[VarId]) -> u64 {
    let (xs, ys) = canonical_sides(x, y);
    canonical_query_hash(base, &xs, &ys, &canonical_set(z))
}

/// The fold behind [`derived_query_seed`], over sides that are *already*
/// canonical (as [`canonical_sides`] and [`canonical_set`] return them):
/// FNV-1a with one step per variable and a separator after each side,
/// then a splitmix-style finalizer. The engine's memo key hashes itself
/// with this once at construction, so a lookup never re-reads `Z`.
pub fn canonical_query_hash(base: u64, xs: &[VarId], ys: &[VarId], zs: &[VarId]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ base;
    let mut byte = |b: u64| {
        h ^= b;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for side in [xs, ys, zs] {
        for &v in side {
            byte(v as u64 + 1);
        }
        byte(0); // side separator
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// CI testers that can evaluate a whole *batch* of queries at once.
///
/// This is the capability GrpSel's level-synchronous frontiers want: all
/// queries of a level share structure (one conditioning set, nested group
/// sides), so a batch-aware tester amortizes its per-variable-set work —
/// joint encodings, residualizations — across the batch instead of
/// re-deriving it per query.
///
/// # Contract
///
/// * `eval_batch(qs)[i]` must be **byte-identical** to
///   `ci_shared(qs[i].x, qs[i].y, qs[i].z)` — same `independent` flag,
///   same `p_value` and `statistic` bits. The engine relies on this to
///   route frontiers through whichever path is fastest without changing
///   selections (see the `batch_equivalence` property tests in
///   `fairsel-tests`).
/// * Results must not depend on the order of queries within the batch, on
///   how a batch is split across calls, or on how many worker threads
///   evaluate chunks concurrently (implementations share caches behind
///   locks; cached values must equal freshly computed ones).
/// * `encode_cache_stats` reports cumulative shared-cache telemetry
///   (encoding/residual cache hits and misses) for the engine's
///   `encode_cache_*` counters; testers without a cache keep the default.
///
/// The default `eval_batch` is the per-query fallback: correct for every
/// [`CiTestShared`] tester, it simply forgoes batch-level amortization.
///
/// # Z-grouped evaluation
///
/// `eval_z_group` is the *grouped* entry point the engine's Z-grouped
/// scheduler drives: the caller partitions a batch by canonical
/// conditioning set and hands each group over with its shared `z`, so the
/// tester can build the per-`Z` scaffold — stratification, normal-equation
/// factorization, standardized conditioning block — **once** and evaluate
/// every `(x, y)` pair of the group against it. The same byte-identity
/// contract applies: `eval_z_group(z, qs)[i]` must equal
/// `ci_shared(qs[i].x, qs[i].y, qs[i].z)` bit for bit, and callers must be
/// free to split one group across concurrent calls (a giant stratum is
/// chunked so it cannot serialize a frontier level). The default is the
/// per-query fallback.
pub trait CiTestBatch: CiTestShared {
    /// Evaluate a batch of independent queries, results in input order.
    fn eval_batch(&self, queries: &[CiQueryRef<'_>]) -> Vec<CiOutcome> {
        queries
            .iter()
            .map(|q| self.ci_shared(q.x, q.y, q.z))
            .collect()
    }

    /// Evaluate queries that all share the canonical conditioning set `z`
    /// (sorted, deduplicated; each `queries[i].z` canonicalizes to it).
    /// Implementations amortize per-`Z` scaffolding across the group.
    fn eval_z_group(&self, z: &[VarId], queries: &[CiQueryRef<'_>]) -> Vec<CiOutcome> {
        debug_assert!(queries.iter().all(|q| canonical_set(q.z) == z));
        queries
            .iter()
            .map(|q| self.ci_shared(q.x, q.y, q.z))
            .collect()
    }

    /// Cumulative shared-cache telemetry (hits/misses of the columnar
    /// encoding or residual caches backing this tester).
    fn encode_cache_stats(&self) -> EncodeStats {
        EncodeStats::default()
    }

    /// Rebuild this tester over an *extended* encoding layer (`child` is
    /// the result of [`fairsel_table::EncodedTable::extend`] on the layer
    /// this tester reads), carrying over whatever per-conditioning-set
    /// scaffolds stay valid under row append and extending them in place.
    ///
    /// Contract: the returned tester must be **byte-identical** to a cold
    /// construction over the child table with the same configuration —
    /// extension changes where scaffolds come from, never what any query
    /// answers. Outcomes themselves are *not* carried over (every p-value
    /// changes with `n`); memo invalidation is the session's job.
    ///
    /// The default declines (`None`), which tells callers to rebuild cold;
    /// the data-driven testers override it.
    fn extend_over(&self, child: Arc<EncodedTable>) -> Option<Box<dyn CiTestBatch + Send + Sync>> {
        let _ = child;
        None
    }

    /// On a tester produced by [`CiTestBatch::extend_over`]: answer the
    /// query from a *patched* sufficient statistic — the memoized
    /// contingency table carried over from the parent with only the
    /// appended rows counted in — instead of re-evaluating from scratch.
    ///
    /// Contract: a `Some` outcome must be **byte-identical** to what
    /// `ci_shared` on this tester (equivalently, on a cold tester over the
    /// concatenated table) would return for the same query. `None` means
    /// the query cannot be patched — the statistic was never retained, was
    /// evicted, its encoding isn't provably append-stable, or the tester's
    /// statistic fundamentally doesn't patch (Fisher-z / RCIT moment sums
    /// reassociate floating point when split at the append boundary) —
    /// and the caller must fall back to invalidation. The default declines
    /// every query.
    fn patched_outcome(&self, x: &[VarId], y: &[VarId], z: &[VarId]) -> Option<CiOutcome> {
        let _ = (x, y, z);
        None
    }

    /// Conservation ledger for this tester's scaffold caches (see
    /// [`ScaffoldStats`]). Testers without scaffolds keep the default
    /// all-zero ledger, which is trivially conserved.
    fn scaffold_stats(&self) -> ScaffoldStats {
        ScaffoldStats::default()
    }
}

impl<T: CiTestBatch + ?Sized> CiTestBatch for &T {
    fn eval_batch(&self, queries: &[CiQueryRef<'_>]) -> Vec<CiOutcome> {
        (**self).eval_batch(queries)
    }
    fn eval_z_group(&self, z: &[VarId], queries: &[CiQueryRef<'_>]) -> Vec<CiOutcome> {
        (**self).eval_z_group(z, queries)
    }
    fn encode_cache_stats(&self) -> EncodeStats {
        (**self).encode_cache_stats()
    }
    fn extend_over(&self, child: Arc<EncodedTable>) -> Option<Box<dyn CiTestBatch + Send + Sync>> {
        (**self).extend_over(child)
    }
    fn scaffold_stats(&self) -> ScaffoldStats {
        (**self).scaffold_stats()
    }
    fn patched_outcome(&self, x: &[VarId], y: &[VarId], z: &[VarId]) -> Option<CiOutcome> {
        (**self).patched_outcome(x, y, z)
    }
}

/// Forward through mutable references so algorithms can take `&mut dyn CiTest`.
impl<T: CiTest + ?Sized> CiTest for &mut T {
    fn ci(&mut self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
        (**self).ci(x, y, z)
    }
    fn n_vars(&self) -> usize {
        (**self).n_vars()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// Forward through boxes so factories can hand out `Box<dyn CiTest>`.
impl<T: CiTest + ?Sized> CiTest for Box<T> {
    fn ci(&mut self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
        (**self).ci(x, y, z)
    }
    fn n_vars(&self) -> usize {
        (**self).n_vars()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// Boxed shared testers stay shared — what lets the session service hold
/// heterogeneous testers as `Box<dyn CiTestBatch + Send + Sync>`.
impl<T: CiTestShared + ?Sized> CiTestShared for Box<T>
where
    Box<T>: Sync,
{
    fn ci_shared(&self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
        (**self).ci_shared(x, y, z)
    }
}

impl<T: CiTestBatch + ?Sized> CiTestBatch for Box<T>
where
    Box<T>: Sync,
{
    fn eval_batch(&self, queries: &[CiQueryRef<'_>]) -> Vec<CiOutcome> {
        (**self).eval_batch(queries)
    }
    fn eval_z_group(&self, z: &[VarId], queries: &[CiQueryRef<'_>]) -> Vec<CiOutcome> {
        (**self).eval_z_group(z, queries)
    }
    fn encode_cache_stats(&self) -> EncodeStats {
        (**self).encode_cache_stats()
    }
    fn extend_over(&self, child: Arc<EncodedTable>) -> Option<Box<dyn CiTestBatch + Send + Sync>> {
        (**self).extend_over(child)
    }
    fn scaffold_stats(&self) -> ScaffoldStats {
        (**self).scaffold_stats()
    }
    fn patched_outcome(&self, x: &[VarId], y: &[VarId], z: &[VarId]) -> Option<CiOutcome> {
        (**self).patched_outcome(x, y, z)
    }
}

/// Wrapper that counts tests — the instrument behind Table 2 and
/// Figures 4-5 of the paper.
pub struct CountingCi<T> {
    inner: T,
    count: u64,
}

impl<T: CiTest> CountingCi<T> {
    pub fn new(inner: T) -> Self {
        Self { inner, count: 0 }
    }

    /// Number of CI tests issued so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Reset the counter (e.g. between experiment repetitions).
    pub fn reset(&mut self) {
        self.count = 0;
    }

    /// Unwrap the inner tester.
    pub fn into_inner(self) -> T {
        self.inner
    }

    /// Borrow the inner tester.
    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<T: CiTest> CiTest for CountingCi<T> {
    fn ci(&mut self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
        self.count += 1;
        self.inner.ci(x, y, z)
    }

    fn n_vars(&self) -> usize {
        self.inner.n_vars()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

// The test-side kernel references name this crate by its public path, so
// the unit tests can include them unchanged.
#[cfg(test)]
extern crate self as fairsel_ci;

/// The hashed per-query kernels the arena kernels replaced, shared with
/// `tests/kernel_reference.rs`.
#[cfg(test)]
#[path = "../tests/kernel_reference/reference.rs"]
mod kernel_reference;

#[cfg(test)]
mod tests {
    use super::*;

    struct AlwaysIndependent(usize);
    impl CiTest for AlwaysIndependent {
        fn ci(&mut self, _: &[VarId], _: &[VarId], _: &[VarId]) -> CiOutcome {
            CiOutcome::decided(true)
        }
        fn n_vars(&self) -> usize {
            self.0
        }
    }

    #[test]
    fn counting_wrapper_counts() {
        let mut c = CountingCi::new(AlwaysIndependent(3));
        assert_eq!(c.count(), 0);
        c.ci(&[0], &[1], &[]);
        c.ci(&[0], &[2], &[1]);
        assert_eq!(c.count(), 2);
        c.reset();
        assert_eq!(c.count(), 0);
        assert_eq!(c.n_vars(), 3);
    }

    /// The stochastic testers' randomness is keyed by these seeds, so they
    /// are pinned: any change to the fold changes every permutation and
    /// RCIT p-value.
    #[test]
    fn derived_query_seeds_pinned() {
        type Side = &'static [VarId];
        let cases: [(u64, [Side; 3], u64); 4] = [
            (0, [&[], &[], &[]], 0xea84_b5f3_461f_8f55),
            (7, [&[3, 1], &[0], &[9, 2, 2]], 0x0af2_4d16_4114_d370),
            (0xdead_beef, [&[40], &[5, 6, 7], &[]], 0x119e_2fd0_12d5_e1d2),
            (
                u64::MAX,
                [&[1, 2, 3], &[1, 2], &[100, 0, 50]],
                0x0fa0_4a4e_9f48_ffa5,
            ),
        ];
        for (base, [x, y, z], want) in cases {
            assert_eq!(derived_query_seed(base, x, y, z), want);
            assert_eq!(derived_query_seed(base, y, x, z), want, "symmetric");
        }
    }

    #[test]
    fn decided_outcome_pvalues() {
        assert_eq!(CiOutcome::decided(true).p_value, 1.0);
        assert_eq!(CiOutcome::decided(false).p_value, 0.0);
    }

    #[test]
    fn trait_object_via_mut_ref() {
        let mut t = AlwaysIndependent(2);
        let dynref: &mut dyn CiTest = &mut t;
        let mut counted = CountingCi::new(dynref);
        counted.ci(&[0], &[1], &[]);
        assert_eq!(counted.count(), 1);
    }
}
