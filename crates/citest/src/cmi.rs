//! Conditional mutual information: the plug-in estimator (used for the
//! fairness audit in Table 2, `CMI(S; Y′ | A)`) and a permutation CI test
//! built on it.
//!
//! Lemma 2 of the paper: `I(Y′; S | A) = 0` is a *sufficient* condition for
//! causal fairness, so the audit metric the paper reports is exactly this
//! estimator. Slightly negative plug-in estimates are truncated to 0
//! following Mukherjee et al. \[39\], as footnote 3 of the paper prescribes.

use crate::contingency::{
    carry_over, encode_cache_stats, scaffold_stats, z_scaffold, Arenas, Scaffold, ScaffoldCache,
    Strata, StratumRows, SuffKey, SuffTable, ZPartition,
};
use crate::{CiOutcome, CiTest, VarId};
use fairsel_table::{with_codes, CappedCache, CodeValue, EncodedTable, Encoding, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Plug-in conditional mutual information `I(X; Y | Z)` in nats from joint
/// codes. Equals `G / (2n)` for the same contingency tables. Accumulation
/// order is first-occurrence (deterministic in the codes).
pub fn cmi_from_codes(x: &[u32], y: &[u32], z: &[u32]) -> f64 {
    let n = x.len();
    if n == 0 {
        assert!(y.is_empty() && z.is_empty(), "cmi: length mismatch");
        return 0.0;
    }
    cmi_from_strata(&Strata::count(x, y, z), n)
}

/// CMI from hashed contingency counts ([`Strata::count`]), summed in their
/// first-occurrence order.
pub(crate) fn cmi_from_strata(strata: &Strata, n: usize) -> f64 {
    let nf = n as f64;
    let mut cmi = 0.0;
    for s in &strata.strata {
        for &((xv, yv), nxy) in &s.cells {
            let nx = s.xm[&xv];
            let ny = s.ym[&yv];
            cmi += (nxy / nf) * ((nxy * s.total) / (nx * ny)).ln();
        }
    }
    // Truncate tiny negatives (footnote 3 of the paper, after [39]).
    cmi.max(0.0)
}

/// Plug-in CMI over table columns (joint-coded sets).
pub fn cmi_discrete(table: &Table, x: &[VarId], y: &[VarId], z: &[VarId]) -> f64 {
    let (xc, _) = table.joint_codes_dense(x);
    let (yc, _) = table.joint_codes_dense(y);
    let (zc, _) = table.joint_codes_dense(z);
    cmi_from_codes(&xc, &yc, &zc)
}

/// Permutation CI test: the null distribution of the CMI statistic is
/// produced by permuting `X` *within each stratum of Z*, which preserves
/// both marginals `P(X|Z)` and `P(Y|Z)` while destroying any conditional
/// association. Assumption-free but `B`× the cost of one statistic.
///
/// Randomness is drawn from a stream *derived per query* (base seed mixed
/// with the canonicalized query), not from one mutable stream: any two
/// evaluations of the same query — sequential, batched, across worker
/// threads, in any order — consume identical randomness and return
/// byte-identical outcomes. That is what makes this tester
/// [`crate::CiTestShared`]/[`crate::CiTestBatch`]-capable despite being a
/// permutation test (the ROADMAP's "per-worker RNG streams keyed by
/// canonical query").
pub struct PermutationCmi {
    enc: Arc<EncodedTable>,
    alpha: f64,
    permutations: usize,
    seed: u64,
    degenerate: AtomicU64,
    /// Cells zeroed+filled by the dense counting arena (telemetry:
    /// `dense_count_cells`).
    dense_cells: AtomicU64,
    /// Memoized conditioning-set scaffolds, keyed by canonical set and
    /// bounded like every other data-path cache — so concurrent chunks of
    /// one Z-group (and later frontier levels) share one stratification.
    partitions: ScaffoldCache,
    /// Retained sufficient statistics — the observed-data contingency
    /// table of each evaluated query, keyed by the canonical query
    /// triple. On dataset extension each resident table is patched with
    /// the appended rows ([`SuffTable::patch`]), so re-answering the
    /// query costs O(batch) counting for the observed statistic (the `B`
    /// permutation replicates still recount — their tables depend on the
    /// permuted codes, not on retained state).
    suff: CappedCache<SuffKey, Arc<SuffTable>>,
    /// Scaffolds carried over from a parent tester on dataset extension
    /// (see [`PermutationCmi::extended_from`]).
    extended_scaffolds: u64,
}

impl PermutationCmi {
    /// `permutations` controls null resolution (p-values are quantized to
    /// `1/(B+1)`); 99–499 is typical.
    pub fn new(table: &Table, alpha: f64, permutations: usize, seed: u64) -> Self {
        Self::over(
            Arc::new(EncodedTable::new(table)),
            alpha,
            permutations,
            seed,
        )
    }

    /// Build over a shared encoding layer (see [`crate::GTest::over`]).
    pub fn over(enc: Arc<EncodedTable>, alpha: f64, permutations: usize, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&alpha) && alpha > 0.0, "alpha in (0,1)");
        assert!(permutations > 0, "need at least one permutation");
        let cap = enc.cache_cap();
        Self {
            enc,
            alpha,
            permutations,
            seed,
            degenerate: AtomicU64::new(0),
            dense_cells: AtomicU64::new(0),
            partitions: CappedCache::new(cap),
            suff: CappedCache::new(cap),
            extended_scaffolds: 0,
        }
    }

    /// Build a tester over an extended (appended-to) dataset, carrying the
    /// parent's memoized conditioning scaffolds forward: each resident
    /// stratification and its CSR row layout are extended over the
    /// appended rows (`extend_scaffold`) — deterministic, so every
    /// transferred scaffold is bit-identical to what a cold tester on the
    /// concatenated table would derive — and every retained observed-data
    /// table is patched with the appended rows. Test configuration (alpha,
    /// permutation count, base seed) is inherited; evaluation telemetry
    /// starts fresh, matching a cold run's counters.
    pub fn extended_from(parent: &PermutationCmi, enc: Arc<EncodedTable>) -> PermutationCmi {
        let mut child = PermutationCmi::over(enc, parent.alpha, parent.permutations, parent.seed);
        child.extended_scaffolds = carry_over(
            &child.enc,
            &parent.partitions,
            &parent.suff,
            &child.partitions,
            &child.suff,
        );
        child
    }

    /// The shared encoding layer.
    pub fn encoded(&self) -> &Arc<EncodedTable> {
        &self.enc
    }

    /// Queries short-circuited on all-singleton conditioning strata.
    pub fn degenerate_short_circuits(&self) -> u64 {
        self.degenerate.load(Ordering::Relaxed)
    }

    /// One query against a prepared conditioning scaffold. `x`/`y` arrive
    /// in caller spelling (canonicalized here, so the derived RNG stream
    /// matches every other spelling); `zkey` is the canonical conditioning
    /// set; `part`/`rows` are its stratification. The observed statistic
    /// *and* every permutation replicate count against the scaffold — the
    /// same arithmetic in the same order as the unscaffolded path, derived
    /// once instead of `B + 1` times per query.
    fn eval_prepared(
        &self,
        x: &[VarId],
        y: &[VarId],
        zkey: &[VarId],
        ze: &Encoding,
        part: &ZPartition,
        rows: &StratumRows,
    ) -> CiOutcome {
        let (x, y) = crate::canonical_sides(x, y);
        let (x, y) = (x.as_slice(), y.as_slice());
        let xe = self.enc.encode(x);
        let ye = self.enc.encode(y);
        let n = ze.codes.len();
        let seed = crate::derived_query_seed(self.seed, x, y, zkey);
        let (xa, ya) = (xe.arity.max(1) as usize, ye.arity.max(1) as usize);
        // Sides are already canonical here, so the retained table's
        // as-evaluated spelling *is* the canonical cache key.
        let key: SuffKey = (x.to_vec(), y.to_vec(), zkey.to_vec());
        let retain_key = self.suff.peek(&key).is_none().then_some(key);
        let mut retained: Option<SuffTable> = None;
        let (observed, p) = with_codes!(&xe.codes, |xc| with_codes!(&ye.codes, |yc| {
            let (observed, p, cells) = permute_and_count_narrow(
                xc,
                xa,
                yc,
                ya,
                part,
                rows,
                n,
                seed,
                self.permutations,
                retain_key.is_some().then_some(&mut retained),
            );
            if cells > 0 {
                self.dense_cells.fetch_add(cells, Ordering::Relaxed);
            }
            (observed, p)
        }));
        if let (Some(key), Some(mut t)) = (retain_key, retained) {
            t.xset = x.to_vec();
            t.yset = y.to_vec();
            self.suff.insert(key, Arc::new(t));
        }
        CiOutcome {
            independent: p > self.alpha,
            p_value: p,
            statistic: observed,
        }
    }
}

/// The observed statistic and permutation p-value through the narrow/arena
/// kernels: one reusable pair of arenas (dense, or sparse when the cell
/// space is too large) serves the observed statistic and all `B`
/// replicates, and the permutation runs at the codes' native width. The
/// statistic values — and therefore the `>= observed` comparisons and the
/// p-value — are bit-identical to hashed counting of each permuted copy
/// ([`cmi_from_codes`]). Returns `(observed, p, dense cells used)`.
#[allow(clippy::too_many_arguments)]
fn permute_and_count_narrow<X: CodeValue, Y: CodeValue>(
    xcodes: &[X],
    xa: usize,
    ycodes: &[Y],
    ya: usize,
    part: &ZPartition,
    rows: &StratumRows,
    n: usize,
    seed: u64,
    permutations: usize,
    suff_out: Option<&mut Option<SuffTable>>,
) -> (f64, f64, u64) {
    let mut arenas = Arenas::default();
    let (observed, dense) = arenas.cmi(xcodes, ycodes, xa, ya, part, rows);
    // Snapshot the observed-data counts before the replicates refill the
    // arena — the table a later dataset extension can patch.
    if let (Some(out), Some(_)) = (suff_out, dense) {
        *out = Some(arenas.dense.snapshot_suff(n));
    }
    let (p, replicate_cells) = replicate_pvalue(
        observed,
        xcodes,
        ycodes,
        xa,
        ya,
        part,
        rows,
        seed,
        permutations,
        &mut arenas,
    );
    let cells_used = dense.map(|c| c as u64).unwrap_or(0) + replicate_cells;
    (observed, p, cells_used)
}

/// The permutation-null tail probability of `observed`: run the `B`
/// within-strata replicates and count those whose statistic is
/// `>= observed` (the observed statistic counts itself). The replicate
/// stream — randomness, counting arithmetic, comparisons — depends only
/// on `(seed, codes, scaffold)`, never on *how* `observed` was produced,
/// so the cold path and the append-patched path (observed from a patched
/// [`SuffTable`] walk) consume identical randomness and return identical
/// bits. Returns `(p, dense cells counted by the replicates)`.
#[allow(clippy::too_many_arguments)]
fn replicate_pvalue<X: CodeValue, Y: CodeValue>(
    observed: f64,
    xcodes: &[X],
    ycodes: &[Y],
    xa: usize,
    ya: usize,
    part: &ZPartition,
    rows: &StratumRows,
    seed: u64,
    permutations: usize,
    arenas: &mut Arenas,
) -> (f64, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut xperm: Vec<X> = xcodes.to_vec();
    let mut at_least = 1usize; // the observed statistic counts itself
    let mut cells = 0u64;
    for _ in 0..permutations {
        shuffle_within_strata(&mut xperm, rows, &mut rng);
        let (stat, dense) = arenas.cmi(&xperm, ycodes, xa, ya, part, rows);
        cells += dense.map_or(0, |c| c as u64);
        if stat >= observed {
            at_least += 1;
        }
    }
    let p = at_least as f64 / (permutations + 1) as f64;
    (p, cells)
}

/// Fisher-Yates within each stratum, strata in first-occurrence order,
/// rows ascending — the CSR layout reproduces the old per-stratum row
/// lists exactly, so the same randomness is consumed in the same order
/// regardless of code width.
fn shuffle_within_strata<T: Copy>(xperm: &mut [T], rows: &StratumRows, rng: &mut StdRng) {
    for s in 0..rows.n_strata() {
        let stratum = rows.stratum(s);
        for i in (1..stratum.len()).rev() {
            let j = rng.gen_range(0..=i);
            xperm.swap(stratum[i] as usize, stratum[j] as usize);
        }
    }
}

impl CiTest for PermutationCmi {
    fn ci(&mut self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
        crate::CiTestShared::ci_shared(self, x, y, z)
    }

    fn n_vars(&self) -> usize {
        self.enc.table().n_cols()
    }

    fn name(&self) -> &'static str {
        "perm-cmi"
    }
}

impl crate::CiTestShared for PermutationCmi {
    fn ci_shared(&self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
        if x.is_empty() || y.is_empty() {
            return CiOutcome::decided(true);
        }
        let zkey = crate::canonical_set(z);
        let ze = self.enc.encode(&zkey);
        if ze.all_singletons() {
            // One row per stratum: the observed CMI is exactly 0 and every
            // within-stratum permutation is the identity, so p = 1 without
            // any contingency storage or randomness.
            self.degenerate.fetch_add(1, Ordering::Relaxed);
            return CiOutcome {
                independent: true,
                p_value: 1.0,
                statistic: 0.0,
            };
        }
        // Shared scaffold: the stratification is derived once per
        // conditioning set and reused by the observed statistic and all B
        // permutation replicates (sides are canonicalized inside, so
        // every spelling — including the symmetric swap — permutes the
        // same side with the same randomness and returns byte-identical
        // outcomes).
        let scaffold = z_scaffold(&self.partitions, &zkey, &ze);
        self.eval_prepared(x, y, &zkey, &ze, &scaffold.0, &scaffold.1)
    }
}

impl crate::CiTestBatch for PermutationCmi {
    /// Z-grouped evaluation: one stratification (and one row-list layout)
    /// for the whole group, shared by every query's `B + 1` statistic
    /// computations. Byte-identical to the per-query path, which runs the
    /// same `PermutationCmi::eval_prepared` on a privately derived
    /// scaffold.
    fn eval_z_group(&self, z: &[VarId], queries: &[crate::CiQueryRef<'_>]) -> Vec<CiOutcome> {
        let zkey = crate::canonical_set(z);
        let mut scaffold: Option<(Arc<Encoding>, Option<Arc<Scaffold>>)> = None;
        queries
            .iter()
            .map(|q| {
                if q.x.is_empty() || q.y.is_empty() {
                    return CiOutcome::decided(true);
                }
                let (ze, rest) = scaffold.get_or_insert_with(|| {
                    let ze = self.enc.encode(&zkey);
                    let rest = if ze.all_singletons() {
                        None
                    } else {
                        Some(z_scaffold(&self.partitions, &zkey, &ze))
                    };
                    (ze, rest)
                });
                let Some(sc) = rest else {
                    self.degenerate.fetch_add(1, Ordering::Relaxed);
                    return CiOutcome {
                        independent: true,
                        p_value: 1.0,
                        statistic: 0.0,
                    };
                };
                self.eval_prepared(q.x, q.y, &zkey, ze, &sc.0, &sc.1)
            })
            .collect()
    }

    fn encode_cache_stats(&self) -> crate::EncodeStats {
        encode_cache_stats(&self.enc, &self.partitions, &self.dense_cells)
    }

    fn extend_over(
        &self,
        child: Arc<EncodedTable>,
    ) -> Option<Box<dyn crate::CiTestBatch + Send + Sync>> {
        Some(Box::new(PermutationCmi::extended_from(self, child)))
    }

    fn scaffold_stats(&self) -> crate::ScaffoldStats {
        scaffold_stats(&self.partitions, &self.suff, self.extended_scaffolds)
    }

    /// Answer a memoized query from its retained-and-patched observed
    /// table: the observed statistic is one `SuffTable::cmi` walk over
    /// the already-patched counts (O(batch) counting happened at
    /// extension); the `B` permutation replicates re-run against the
    /// extended scaffold with the query's derived seed — the identical
    /// randomness and arithmetic a cold evaluation consumes, so every
    /// output bit matches. `None` routes the query to the invalidate
    /// path.
    fn patched_outcome(&self, x: &[VarId], y: &[VarId], z: &[VarId]) -> Option<CiOutcome> {
        if x.is_empty() || y.is_empty() {
            return Some(CiOutcome::decided(true));
        }
        let zkey = crate::canonical_set(z);
        let (x, y) = crate::canonical_sides(x, y);
        // A retained table was counted on a conditioning set that was not
        // all singletons, and the extended rows keep every one of its
        // strata, so only a query without one can be degenerate now.
        let Some(t) = self.suff.peek(&(x.clone(), y.clone(), zkey.clone())) else {
            // Degenerate on the extended rows too — the same short-circuit
            // a cold evaluation takes.
            return self
                .enc
                .encode(&zkey)
                .all_singletons()
                .then_some(CiOutcome {
                    independent: true,
                    p_value: 1.0,
                    statistic: 0.0,
                });
        };
        let n = self.enc.n_rows();
        if t.n_rows != n {
            return None;
        }
        let sc = self.partitions.peek(&zkey)?;
        let xe = self.enc.encode(&x);
        let ye = self.enc.encode(&y);
        let seed = crate::derived_query_seed(self.seed, &x, &y, &zkey);
        let observed = t.cmi(n);
        let mut arenas = Arenas::default();
        let (p, cells) = with_codes!(&xe.codes, |xc| with_codes!(&ye.codes, |yc| {
            replicate_pvalue(
                observed,
                xc,
                yc,
                t.xa,
                t.ya,
                &sc.0,
                &sc.1,
                seed,
                self.permutations,
                &mut arenas,
            )
        }));
        if cells > 0 {
            self.dense_cells.fetch_add(cells, Ordering::Relaxed);
        }
        Some(CiOutcome {
            independent: p > self.alpha,
            p_value: p,
            statistic: observed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel_reference::ReferencePermutationCmi;
    use fairsel_math::assert_close;
    use fairsel_table::{Column, Role};

    #[test]
    fn cmi_of_identical_binary_is_entropy() {
        // X == Y uniform binary: I(X;Y) = H(X) = ln 2.
        let codes: Vec<u32> = (0..1000).map(|i| (i % 2) as u32).collect();
        let z = vec![0u32; 1000];
        let cmi = cmi_from_codes(&codes, &codes, &z);
        assert_close!(cmi, std::f64::consts::LN_2, 1e-9);
    }

    #[test]
    fn cmi_of_independent_is_near_zero() {
        // Deterministic interleaving that makes X and Y exactly independent.
        let x: Vec<u32> = (0..1000).map(|i| ((i / 2) % 2) as u32).collect();
        let y: Vec<u32> = (0..1000).map(|i| (i % 2) as u32).collect();
        let z = vec![0u32; 1000];
        assert_close!(cmi_from_codes(&x, &y, &z), 0.0, 1e-9);
    }

    #[test]
    fn cmi_never_negative() {
        let x = vec![0, 1, 0, 1, 1, 0];
        let y = vec![1, 0, 1, 1, 0, 0];
        let z = vec![0, 0, 1, 1, 2, 2];
        assert!(cmi_from_codes(&x, &y, &z) >= 0.0);
    }

    #[test]
    fn conditioning_on_mediator_removes_information() {
        // X -> Z -> Y deterministic: I(X;Y|Z) = 0 but I(X;Y) = ln 2.
        let x: Vec<u32> = (0..2000).map(|i| (i % 2) as u32).collect();
        let z = x.clone();
        let y = z.clone();
        let zeros = vec![0u32; 2000];
        assert_close!(cmi_from_codes(&x, &y, &zeros), std::f64::consts::LN_2, 1e-9);
        assert_close!(cmi_from_codes(&x, &y, &z), 0.0, 1e-9);
    }

    fn xor_table(n: usize) -> Table {
        // y = x1 XOR x2 with uniform inputs: pairwise independent, jointly
        // dependent — the case marginal tests miss but group tests catch.
        let mut x1 = Vec::with_capacity(n);
        let mut x2 = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..n {
            let a: u32 = rng.gen_range(0..2);
            let b: u32 = rng.gen_range(0..2);
            x1.push(a);
            x2.push(b);
            y.push(a ^ b);
        }
        Table::new(vec![
            Column::cat("x1", Role::Feature, x1, 2),
            Column::cat("x2", Role::Feature, x2, 2),
            Column::cat("y", Role::Target, y, 2),
        ])
        .unwrap()
    }

    #[test]
    fn permutation_test_detects_xor_jointly() {
        let t = xor_table(1500);
        let mut tester = PermutationCmi::new(&t, 0.05, 99, 7);
        // Marginal: x1 ⊥ y.
        assert!(tester.ci(&[0], &[2], &[]).independent);
        // Joint: {x1, x2} ̸⊥ y.
        assert!(!tester.ci(&[0, 1], &[2], &[]).independent);
        // Conditional: x1 ̸⊥ y | x2.
        assert!(!tester.ci(&[0], &[2], &[1]).independent);
    }

    #[test]
    fn permutation_pvalue_reasonable_under_null() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(21);
        let n = 400;
        let a: Vec<u32> = (0..n).map(|_| rng.gen_range(0..2)).collect();
        let b: Vec<u32> = (0..n).map(|_| rng.gen_range(0..2)).collect();
        let t = Table::new(vec![
            Column::cat("a", Role::Feature, a, 2),
            Column::cat("b", Role::Feature, b, 2),
        ])
        .unwrap();
        let mut tester = PermutationCmi::new(&t, 0.05, 199, 3);
        let out = tester.ci(&[0], &[1], &[]);
        assert!(out.p_value > 0.05, "independent data should not reject");
    }

    /// The arena kernels agree bit for bit with the hashed reference that
    /// recounts every replicate (`tests/kernel_reference/reference.rs`).
    #[test]
    fn kernel_modes_agree_bit_for_bit() {
        use crate::CiTestShared;
        let t = xor_table(800);
        let narrow = PermutationCmi::new(&t, 0.05, 49, 7);
        let reference = ReferencePermutationCmi::new(&t, 0.05, 49, 7);
        for (x, y, z) in [
            (vec![0], vec![2], vec![]),
            (vec![0, 1], vec![2], vec![]),
            (vec![0], vec![2], vec![1]),
            (vec![1], vec![0], vec![2]),
        ] {
            let a = narrow.ci_shared(&x, &y, &z);
            let b = reference.ci_shared(&x, &y, &z);
            assert_eq!(
                a.p_value.to_bits(),
                b.p_value.to_bits(),
                "{x:?} {y:?} {z:?}"
            );
            assert_eq!(
                a.statistic.to_bits(),
                b.statistic.to_bits(),
                "{x:?} {y:?} {z:?}"
            );
            assert_eq!(a.independent, b.independent);
        }
        use crate::CiTestBatch;
        assert!(narrow.encode_cache_stats().dense_count_cells > 0);
    }

    /// A conditioning set that leaves most strata with one row misses the
    /// dense budget, so the narrow path counts the observed statistic and
    /// every replicate on the sparse arena. Statistic and p-value must
    /// match the hashed reference bit for bit.
    #[test]
    fn sparse_shaped_kernel_modes_agree_bit_for_bit() {
        use crate::contingency::{dense_cell_space, ZPartition};
        use crate::{CiTestBatch, CiTestShared};
        use rand::Rng;
        let n = 600;
        let mut rng = StdRng::seed_from_u64(5);
        let x: Vec<u32> = (0..n).map(|_| rng.gen_range(0..16)).collect();
        let w: Vec<u32> = (0..n).map(|_| rng.gen_range(0..3)).collect();
        let z: Vec<u32> = (0..n).map(|_| rng.gen_range(0..900)).collect();
        let y: Vec<u32> = (0..n)
            .map(|i| (x[i] + z[i] + u32::from(rng.gen_bool(0.2))) % 2)
            .collect();
        let t = Table::new(vec![
            Column::cat("x", Role::Feature, x, 16),
            Column::cat("y", Role::Target, y, 2),
            Column::cat("z", Role::Feature, z, 900),
            Column::cat("w", Role::Feature, w, 3),
        ])
        .unwrap();
        let narrow = PermutationCmi::new(&t, 0.05, 49, 7);
        let reference = ReferencePermutationCmi::new(&t, 0.05, 49, 7);
        let part = ZPartition::from_encoding(&narrow.encoded().encode(&[2]));
        let ones = part.sizes.iter().filter(|&&s| s == 1).count();
        assert!(
            ones * 2 > part.n_strata,
            "{ones} of {} strata",
            part.n_strata
        );
        assert!(dense_cell_space(n, part.n_strata, 16, 2).is_none());
        for (x, y, z) in [
            (vec![0], vec![1], vec![2]),
            (vec![1], vec![0], vec![2]),
            (vec![0, 3], vec![1], vec![2]),
        ] {
            let a = narrow.ci_shared(&x, &y, &z);
            let b = reference.ci_shared(&x, &y, &z);
            assert_eq!(
                a.statistic.to_bits(),
                b.statistic.to_bits(),
                "{x:?} {y:?} {z:?}"
            );
            assert_eq!(
                a.p_value.to_bits(),
                b.p_value.to_bits(),
                "{x:?} {y:?} {z:?}"
            );
            assert!(a.statistic > 0.0, "{x:?} {y:?} {z:?}");
        }
        assert_eq!(
            narrow.encode_cache_stats().dense_count_cells,
            0,
            "the sparse arena served every count"
        );
    }

    /// A tester extended over appended rows consumes the same derived
    /// randomness and returns bit-identical outcomes to a cold tester on
    /// the concatenated table, with the scaffold ledger conserved.
    #[test]
    fn extended_tester_matches_cold_and_conserves_scaffolds() {
        use crate::{CiTestBatch, CiTestShared};
        let parent_t = xor_table(700);
        let batch = xor_table(300);
        let parent = PermutationCmi::new(&parent_t, 0.05, 29, 7);
        let warm: [(Vec<usize>, Vec<usize>, Vec<usize>); 2] =
            [(vec![0], vec![2], vec![]), (vec![0], vec![2], vec![1])];
        for (x, y, z) in &warm {
            parent.ci_shared(x, y, z);
        }
        let child_enc = Arc::new(parent.encoded().extend(&batch).unwrap());
        let ext = PermutationCmi::extended_from(&parent, child_enc);
        let birth = ext.scaffold_stats();
        assert_eq!(birth.extended, 2);
        assert_eq!(birth.rebuilt, 0);
        assert!(birth.conserved(), "{birth:?}");

        let concat = parent_t.concat(&batch).unwrap();
        let cold = PermutationCmi::new(&concat, 0.05, 29, 7);
        // Every warmed query's observed table was retained and patched at
        // extension; its patched outcome — one table walk plus the
        // replicate stream — is bit-identical to the cold evaluation.
        assert_eq!(birth.suff_tables, 2, "{birth:?}");
        assert!(ext.patched_outcome(&[1], &[2], &[0]).is_none());
        for (x, y, z) in &warm {
            let got = ext.patched_outcome(x, y, z).expect("patched table answers");
            let want = cold.ci_shared(x, y, z);
            assert_eq!(got.statistic.to_bits(), want.statistic.to_bits());
            assert_eq!(got.p_value.to_bits(), want.p_value.to_bits());
            assert_eq!(got.independent, want.independent);
        }
        let mut queries = warm.to_vec();
        queries.push((vec![1], vec![2], vec![0])); // fresh conditioning set
        for (x, y, z) in &queries {
            let a = ext.ci_shared(x, y, z);
            let b = cold.ci_shared(x, y, z);
            assert_eq!(
                a.p_value.to_bits(),
                b.p_value.to_bits(),
                "{x:?} {y:?} {z:?}"
            );
            assert_eq!(
                a.statistic.to_bits(),
                b.statistic.to_bits(),
                "{x:?} {y:?} {z:?}"
            );
        }
        let s = ext.scaffold_stats();
        assert_eq!((s.extended, s.rebuilt), (2, 1));
        assert!(s.conserved(), "{s:?}");
    }

    #[test]
    fn cmi_discrete_on_table_matches_codes() {
        let t = xor_table(500);
        let via_table = cmi_discrete(&t, &[0, 1], &[2], &[]);
        let (xc, _) = t.joint_codes(&[0, 1]);
        let (yc, _) = t.joint_codes(&[2]);
        let via_codes = cmi_from_codes(&xc, &yc, &vec![0; 500]);
        assert_close!(via_table, via_codes, 1e-12);
    }
}
