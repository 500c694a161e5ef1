//! The G-test (log-likelihood-ratio test) of conditional independence for
//! discrete data.
//!
//! For each stratum `z` of the conditioning variables the statistic
//! accumulates `2 Σ n_xyz · ln(n_xyz n_z / (n_xz n_yz))`, which is
//! asymptotically χ² with `Σ_z (r_z − 1)(c_z − 1)` degrees of freedom.
//! Degrees of freedom are computed *adaptively* from the categories
//! actually observed per stratum (the convention of pcalg/tetrad), which
//! keeps the test calibrated on sparse strata — important here because
//! group testing multiplies arities together.

use crate::contingency::{
    carry_over, encode_cache_stats, scaffold_stats, z_scaffold, Arenas, DenseArena, Scaffold,
    ScaffoldCache, Strata, StratumRows, SuffKey, SuffTable, ZPartition,
};
use crate::{CiOutcome, CiTest, VarId};
use fairsel_math::special::chi2_sf;
use fairsel_table::{with_codes, CappedCache, CodeValue, EncodedTable, Table};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// G-test over the categorical columns of a [`Table`], reading every
/// joint encoding through a shared [`EncodedTable`] so repeated variable
/// sets — a frontier's common conditioning set, nested group sides — are
/// encoded once per session rather than once per query.
///
/// Variables are table column ids; all referenced columns must be
/// categorical (the paper's discrete synthetic benchmarks and simulated
/// datasets are generated categorically).
///
/// Besides the per-query path, the tester implements the Z-grouped batch
/// entry point ([`crate::CiTestBatch::eval_z_group`]): the conditioning
/// set's stratification is derived once per group (and memoized per
/// canonical set, so concurrent chunks of one giant group share it) and
/// every `(x, y)` pair counts against that scaffold — byte-identical to
/// the per-query statistic, at a fraction of the per-row hashing.
pub struct GTest {
    enc: Arc<EncodedTable>,
    alpha: f64,
    degenerate: AtomicU64,
    /// Cells zeroed+filled by the dense counting arena (telemetry:
    /// `dense_count_cells`).
    dense_cells: AtomicU64,
    /// Memoized conditioning-set stratifications (partition + CSR stratum
    /// rows) for grouped evaluation, keyed by the canonical (sorted,
    /// deduplicated) variable set and bounded like every other data-path
    /// cache.
    partitions: ScaffoldCache,
    /// Retained sufficient statistics — the per-query contingency tables —
    /// keyed by the canonical query triple. On dataset extension each
    /// resident table is patched with the appended rows
    /// ([`SuffTable::patch`]) so the re-evaluated query costs O(batch)
    /// counting instead of O(n).
    suff: CappedCache<SuffKey, Arc<SuffTable>>,
    /// Stratifications carried over (and extended) from a parent tester
    /// by [`GTest::extended_from`] — the `extended` side of the scaffold
    /// conservation ledger.
    extended_scaffolds: u64,
}

impl GTest {
    /// Create a tester at significance level `alpha` (paper default: 0.01,
    /// swept to 0.05 in §5.2 with stable results), with a private
    /// encoding cache.
    pub fn new(table: &Table, alpha: f64) -> Self {
        Self::over(Arc::new(EncodedTable::new(table)), alpha)
    }

    /// Create a tester sharing an existing encoding layer — how several
    /// testers (G-test + CMI audit) amortize one cache.
    pub fn over(enc: Arc<EncodedTable>, alpha: f64) -> Self {
        assert!((0.0..1.0).contains(&alpha) && alpha > 0.0, "alpha in (0,1)");
        let cap = enc.cache_cap();
        Self {
            enc,
            alpha,
            degenerate: AtomicU64::new(0),
            dense_cells: AtomicU64::new(0),
            partitions: CappedCache::new(cap),
            suff: CappedCache::new(cap),
            extended_scaffolds: 0,
        }
    }

    /// Build the tester a dataset *extension* warrants: same configuration
    /// as `parent`, reading the extended encoding layer `enc`, with every
    /// resident conditioning-set stratification carried over and extended
    /// (`extend_scaffold`) instead of rebuilt. Query outcomes are
    /// byte-identical to a cold `GTest::over(enc, alpha)` — only where the
    /// scaffolds come from changes. Telemetry (degenerate short-circuits,
    /// dense-arena cells) starts fresh, matching a cold tester's counters.
    pub fn extended_from(parent: &GTest, enc: Arc<EncodedTable>) -> GTest {
        let mut child = GTest::over(enc, parent.alpha);
        // Retained sufficient statistics are patched with the appended
        // rows now — O(batch) integer counting per table.
        child.extended_scaffolds = carry_over(
            &child.enc,
            &parent.partitions,
            &parent.suff,
            &child.partitions,
            &child.suff,
        );
        child
    }

    /// The underlying table.
    pub fn table(&self) -> &Table {
        self.enc.table()
    }

    /// The shared encoding layer.
    pub fn encoded(&self) -> &Arc<EncodedTable> {
        &self.enc
    }

    /// How many queries short-circuited on an all-singleton conditioning
    /// stratum structure (p = 1 without building contingency tables).
    pub fn degenerate_short_circuits(&self) -> u64 {
        self.degenerate.load(Ordering::Relaxed)
    }

    /// Raw statistic and p-value for `X ⊥ Y | Z` without thresholding.
    pub fn g_statistic(&self, x: &[VarId], y: &[VarId], z: &[VarId]) -> (f64, f64) {
        // Encodings are dense where needed: group queries can multiply
        // arities past u32 (32 binary features already overflow); the G
        // statistic only depends on the induced partition, so dense
        // re-encoding is exact.
        let zkey = crate::canonical_set(z);
        let ze = self.enc.encode(&zkey);
        if ze.all_singletons() {
            // Every row its own stratum: no stratum can be informative
            // (df = 0), so the full computation would return (0, 1) after
            // allocating a contingency entry per row. Skip it.
            self.degenerate.fetch_add(1, Ordering::Relaxed);
            return (0.0, 1.0);
        }
        let xe = self.enc.encode(x);
        let ye = self.enc.encode(y);
        // The per-query path runs the same grouped kernel against the
        // (memoized) stratification scaffold — bit-identical to the hashed
        // per-query statistic (see `grouped_statistic_is_byte_identical`).
        let sc = z_scaffold(&self.partitions, &zkey, &ze);
        self.grouped_kernel(&xe, &ye, &sc, &mut Arenas::default(), Some((x, y, &zkey)))
    }

    /// Dispatch the narrow grouped kernel over the encodings' native code
    /// widths, accounting dense-arena traffic. When the dense path ran
    /// and `retain` names the query, the filled counts are snapshot as
    /// the query's sufficient statistic for later append-patching.
    fn grouped_kernel(
        &self,
        xe: &fairsel_table::Encoding,
        ye: &fairsel_table::Encoding,
        sc: &Scaffold,
        arenas: &mut Arenas,
        retain: Option<(&[VarId], &[VarId], &[VarId])>,
    ) -> (f64, f64) {
        let (part, rows) = sc;
        let (g, p, cells) = with_codes!(&xe.codes, |xc| with_codes!(&ye.codes, |yc| {
            g_test_grouped_narrow(xc, xe.arity, yc, ye.arity, part, rows, arenas)
        }));
        if cells > 0 {
            self.dense_cells.fetch_add(cells, Ordering::Relaxed);
            if let Some((x, y, zkey)) = retain {
                self.retain_suff(x, y, zkey, &arenas.dense, part.stratum_of.len());
            }
        }
        (g, p)
    }

    /// Retain the arena's just-filled counts (the statistic walk leaves
    /// them intact) as the query's sufficient statistic, so the next
    /// dataset extension can patch them with only the appended rows
    /// instead of recounting from scratch.
    fn retain_suff(&self, x: &[VarId], y: &[VarId], zkey: &[VarId], arena: &DenseArena, n: usize) {
        let (xs, ys) = crate::canonical_sides(x, y);
        let key = (xs, ys, zkey.to_vec());
        if self.suff.peek(&key).is_some() {
            return;
        }
        let mut t = arena.snapshot_suff(n);
        t.xset = x.to_vec();
        t.yset = y.to_vec();
        self.suff.insert(key, Arc::new(t));
    }
}

impl CiTest for GTest {
    fn ci(&mut self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
        crate::CiTestShared::ci_shared(self, x, y, z)
    }

    fn n_vars(&self) -> usize {
        self.table().n_cols()
    }

    fn name(&self) -> &'static str {
        "g-test"
    }
}

impl crate::CiTestShared for GTest {
    fn ci_shared(&self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
        if x.is_empty() || y.is_empty() {
            return CiOutcome::decided(true);
        }
        let (g, p) = self.g_statistic(x, y, z);
        CiOutcome {
            independent: p > self.alpha,
            p_value: p,
            statistic: g,
        }
    }
}

impl crate::CiTestBatch for GTest {
    /// Z-grouped evaluation: one stratification scaffold per group, every
    /// pair counted against it. Byte-identical to [`GTest::g_statistic`]
    /// (same strata order, same cell order, same float accumulation).
    fn eval_z_group(&self, z: &[VarId], queries: &[crate::CiQueryRef<'_>]) -> Vec<CiOutcome> {
        let zkey = crate::canonical_set(z);
        // Built lazily so a group of empty-sided queries never encodes.
        // One pair of arenas serves every query of the group.
        let mut scaffold: Option<(Arc<fairsel_table::Encoding>, Option<Arc<Scaffold>>)> = None;
        let mut arenas = Arenas::default();
        queries
            .iter()
            .map(|q| {
                if q.x.is_empty() || q.y.is_empty() {
                    return CiOutcome::decided(true);
                }
                let (_, part) = scaffold.get_or_insert_with(|| {
                    let ze = self.enc.encode(&zkey);
                    let part = if ze.all_singletons() {
                        None
                    } else {
                        Some(z_scaffold(&self.partitions, &zkey, &ze))
                    };
                    (ze, part)
                });
                let Some(sc) = part else {
                    // Degenerate conditioning: p = 1 without contingency
                    // work, exactly as the per-query short-circuit.
                    self.degenerate.fetch_add(1, Ordering::Relaxed);
                    return CiOutcome {
                        independent: true,
                        p_value: 1.0,
                        statistic: 0.0,
                    };
                };
                let xe = self.enc.encode(q.x);
                let ye = self.enc.encode(q.y);
                let (g, p) =
                    self.grouped_kernel(&xe, &ye, sc, &mut arenas, Some((q.x, q.y, &zkey)));
                CiOutcome {
                    independent: p > self.alpha,
                    p_value: p,
                    statistic: g,
                }
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
        Some(Box::new(GTest::extended_from(self, child)))
    }

    fn scaffold_stats(&self) -> crate::ScaffoldStats {
        scaffold_stats(&self.partitions, &self.suff, self.extended_scaffolds)
    }

    /// Answer a memoized query from its retained-and-patched sufficient
    /// statistic: the table already holds the concatenated counts (the
    /// extension constructor patched it), so only the statistic walk —
    /// identical, bit for bit, to a cold arena walk — runs here. `None`
    /// routes the query to the invalidate path.
    fn patched_outcome(&self, x: &[VarId], y: &[VarId], z: &[VarId]) -> Option<CiOutcome> {
        if x.is_empty() || y.is_empty() {
            return Some(CiOutcome::decided(true));
        }
        let zkey = crate::canonical_set(z);
        let (xs, ys) = crate::canonical_sides(x, y);
        // A retained table was counted on a conditioning set that was not
        // all singletons, and the extended rows keep every one of its
        // strata, so only a query without one can be degenerate now.
        let Some(t) = self.suff.peek(&(xs, ys, zkey.clone())) else {
            // Degenerate on the *extended* rows too — same short-circuit
            // a cold evaluation takes (the counter is deliberately not
            // bumped: patched answers do no contingency work to skip).
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
        if t.n_rows != self.enc.n_rows() {
            return None;
        }
        let (g, df) = t.g();
        let (g, p) = finish_g(g, df);
        Some(CiOutcome {
            independent: p > self.alpha,
            p_value: p,
            statistic: g,
        })
    }
}

/// Core G computation from pre-encoded joint codes. Returns `(G, p_value)`.
///
/// Strata are formed over distinct observed `z` codes; within each stratum
/// counts are accumulated sparsely so high-arity joint codes stay cheap.
/// Strata and cells accumulate in first-occurrence order, so the result is
/// a deterministic function of the codes — the property the batched and
/// worker-pool execution paths rely on for byte-identical outcomes.
pub fn g_test_from_codes(x: &[u32], y: &[u32], z: &[u32]) -> (f64, f64) {
    if x.is_empty() {
        assert!(y.is_empty() && z.is_empty(), "g_test: length mismatch");
        return (0.0, 1.0);
    }
    g_from_strata(&Strata::count(x, y, z))
}

/// The narrow/arena Z-grouped G computation ([`Arenas`]). When the dense
/// cell space `n_strata × xa × ya` is small relative to the row count,
/// counting runs on the reusable flat table, otherwise on the reusable
/// sparse arena; neither allocates per query once its buffers have grown,
/// and both are generic over the stored code width. Both paths are
/// byte-identical to [`g_test_from_codes`]: strata keep the partition's
/// first-occurrence order, cells accumulate in first-occurrence row
/// order, marginals are exact integer sums, and the G summation walks the
/// same cells in the same order. Returns `(G, p, dense cells used)`.
fn g_test_grouped_narrow<X: CodeValue, Y: CodeValue>(
    x: &[X],
    xa: u32,
    y: &[Y],
    ya: u32,
    part: &ZPartition,
    rows: &StratumRows,
    arenas: &mut Arenas,
) -> (f64, f64, u64) {
    if x.is_empty() {
        return (0.0, 1.0, 0);
    }
    let (xa, ya) = (xa.max(1) as usize, ya.max(1) as usize);
    let (g, df, cells) = arenas.g(x, y, xa, ya, part, rows);
    let (g, p) = finish_g(g, df);
    (g, p, cells.unwrap_or(0) as u64)
}

/// Finish the G statistic: df = 0 cannot reject; tiny negative G from
/// float cancellation is clamped before the χ² tail.
pub(crate) fn finish_g(g: f64, df: usize) -> (f64, f64) {
    if df == 0 {
        return (0.0, 1.0);
    }
    let g = g.max(0.0);
    (g, chi2_sf(g, df as f64))
}

/// The G statistic and p-value from hashed contingency counts
/// ([`Strata::count`]), summed in their first-occurrence order.
pub(crate) fn g_from_strata(strata: &Strata) -> (f64, f64) {
    let mut g = 0.0;
    let mut df = 0usize;
    for s in &strata.strata {
        for &((xv, yv), nxy) in &s.cells {
            let nx = s.xm[&xv];
            let ny = s.ym[&yv];
            // nxy > 0 by construction.
            g += 2.0 * nxy * ((nxy * s.total) / (nx * ny)).ln();
        }
        let r = s.xm.len();
        let c = s.ym.len();
        if r > 1 && c > 1 {
            df += (r - 1) * (c - 1);
        }
    }
    if df == 0 {
        // No informative stratum: cannot reject independence.
        return (0.0, 1.0);
    }
    let g = g.max(0.0); // guard tiny negative from float cancellation
    (g, chi2_sf(g, df as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsel_graph::DagBuilder;
    use fairsel_scm::DiscreteScmBuilder;
    use fairsel_table::{Column, Role, Table};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Sample the chain S -> X -> Y and wrap as a table.
    fn chain_table(n: usize, seed: u64) -> Table {
        let g = DagBuilder::new()
            .nodes(["S", "X", "Y"])
            .edge("S", "X")
            .edge("X", "Y")
            .build();
        let s = g.expect_node("S");
        let x = g.expect_node("X");
        let y = g.expect_node("Y");
        let scm = DiscreteScmBuilder::uniform_arity(g.clone(), 2)
            .cpt(s, vec![0.5, 0.5])
            .unwrap()
            .cpt(x, vec![0.9, 0.1, 0.1, 0.9])
            .unwrap()
            .cpt(y, vec![0.85, 0.15, 0.2, 0.8])
            .unwrap()
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let cols = scm.sample(&mut rng, n);
        Table::new(vec![
            Column::cat("S", Role::Sensitive, cols[s.index()].clone(), 2),
            Column::cat("X", Role::Feature, cols[x.index()].clone(), 2),
            Column::cat("Y", Role::Target, cols[y.index()].clone(), 2),
        ])
        .unwrap()
    }

    #[test]
    fn detects_marginal_dependence() {
        let t = chain_table(4000, 1);
        let mut g = GTest::new(&t, 0.01);
        // S and Y dependent marginally.
        assert!(!g.ci(&[0], &[2], &[]).independent);
        // S and X dependent.
        assert!(!g.ci(&[0], &[1], &[]).independent);
    }

    #[test]
    fn detects_conditional_independence() {
        let t = chain_table(4000, 2);
        let mut g = GTest::new(&t, 0.01);
        // S ⊥ Y | X in the chain.
        let out = g.ci(&[0], &[2], &[1]);
        assert!(out.independent, "chain CI should hold, p={}", out.p_value);
    }

    #[test]
    fn independent_columns_pass() {
        let mut rng = StdRng::seed_from_u64(3);
        use rand::Rng;
        let n = 3000;
        let a: Vec<u32> = (0..n).map(|_| rng.gen_range(0..3)).collect();
        let b: Vec<u32> = (0..n).map(|_| rng.gen_range(0..4)).collect();
        let t = Table::new(vec![
            Column::cat("a", Role::Feature, a, 3),
            Column::cat("b", Role::Feature, b, 4),
        ])
        .unwrap();
        let mut g = GTest::new(&t, 0.01);
        assert!(g.ci(&[0], &[1], &[]).independent);
    }

    #[test]
    fn deterministic_copy_is_dependent() {
        let codes: Vec<u32> = (0..500).map(|i| (i % 2) as u32).collect();
        let t = Table::new(vec![
            Column::cat("a", Role::Feature, codes.clone(), 2),
            Column::cat("b", Role::Feature, codes, 2),
        ])
        .unwrap();
        let mut g = GTest::new(&t, 0.01);
        let out = g.ci(&[0], &[1], &[]);
        assert!(!out.independent);
        assert!(out.p_value < 1e-10);
    }

    #[test]
    fn conditioning_on_copy_gives_independence() {
        // a == z, b depends on z: a ⊥ b | z must hold (degenerate strata).
        let mut rng = StdRng::seed_from_u64(4);
        use rand::Rng;
        let n = 2000;
        let z: Vec<u32> = (0..n).map(|_| rng.gen_range(0..2)).collect();
        let b: Vec<u32> = z
            .iter()
            .map(|&zv| if rng.gen::<f64>() < 0.8 { zv } else { 1 - zv })
            .collect();
        let t = Table::new(vec![
            Column::cat("a", Role::Feature, z.clone(), 2),
            Column::cat("b", Role::Feature, b, 2),
            Column::cat("z", Role::Feature, z, 2),
        ])
        .unwrap();
        let mut g = GTest::new(&t, 0.01);
        assert!(g.ci(&[0], &[1], &[2]).independent);
    }

    #[test]
    fn group_query_uses_joint_codes() {
        let t = chain_table(4000, 5);
        let mut g = GTest::new(&t, 0.01);
        // Group {X, Y} vs S: dependent (X depends on S).
        assert!(!g.ci(&[1, 2], &[0], &[]).independent);
    }

    #[test]
    fn empty_sides_are_independent() {
        let t = chain_table(100, 6);
        let mut g = GTest::new(&t, 0.01);
        assert!(g.ci(&[], &[0], &[]).independent);
        assert!(g.ci(&[0], &[], &[1]).independent);
    }

    #[test]
    fn calibration_under_null() {
        // Independent uniform pairs: rejection rate at alpha=0.05 should be
        // near 5%.
        use rand::Rng;
        let mut rejections = 0;
        let trials = 400;
        for seed in 0..trials {
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let n = 300;
            let a: Vec<u32> = (0..n).map(|_| rng.gen_range(0..2)).collect();
            let b: Vec<u32> = (0..n).map(|_| rng.gen_range(0..2)).collect();
            let z: Vec<u32> = (0..n).map(|_| rng.gen_range(0..2)).collect();
            let (_, p) = g_test_from_codes(&a, &b, &z);
            if p <= 0.05 {
                rejections += 1;
            }
        }
        let rate = rejections as f64 / trials as f64;
        assert!(
            (0.01..=0.10).contains(&rate),
            "null rejection rate {rate} not near 0.05"
        );
    }

    #[test]
    fn zero_rows_is_independent() {
        let (g, p) = g_test_from_codes(&[], &[], &[]);
        assert_eq!(g, 0.0);
        assert_eq!(p, 1.0);
    }

    /// The arena grouped counters (dense and sparse) are bit-for-bit the
    /// hashed per-query statistic, across arities small enough for the
    /// dense path, large enough to force the sparse arena, and at every
    /// narrowed code width.
    #[test]
    fn grouped_statistic_is_byte_identical() {
        use crate::contingency::{dense_cell_space, Arenas, StratumRows, ZPartition};
        use rand::Rng;
        const MOSTLY_ONE_ROW: &str = "mostly one-row strata";
        let mut rng = StdRng::seed_from_u64(17);
        let mut cases: Vec<(u32, u32, Vec<u32>, &str)> = Vec::new();
        for (xa, ya, za) in [(2u32, 3u32, 4u32), (40, 50, 60), (5000, 4000, 8)] {
            let z = (0..400).map(|_| rng.gen_range(0..za)).collect();
            cases.push((xa, ya, z, "uniform strata"));
        }
        // The shape of `stream-append`'s group tests: a conditioning set
        // that gives most rows a stratum of their own, against a group
        // side of joint arity 8 or 32 and a binary target.
        for xa in [8u32, 32] {
            let z = (0..2000u32)
                .map(|i| {
                    if i % 8 < 3 {
                        rng.gen_range(0..225)
                    } else {
                        10_000 + i
                    }
                })
                .collect();
            cases.push((xa, 2, z, MOSTLY_ONE_ROW));
        }
        let bits = |(g, p): (f64, f64)| (g.to_bits(), p.to_bits());
        // One pair of arenas serves every case, as one Z-group's would.
        let mut arenas = Arenas::default();
        for (xa, ya, z, shape) in cases {
            let n = z.len();
            let x: Vec<u32> = (0..n).map(|_| rng.gen_range(0..xa)).collect();
            let y: Vec<u32> = (0..n).map(|_| rng.gen_range(0..ya)).collect();
            let part = ZPartition::from_codes(z.as_slice());
            let rows = StratumRows::from_partition(&part);
            let label = format!("{shape} ({xa},{ya}) over {} strata", part.n_strata);
            if shape == MOSTLY_ONE_ROW {
                let ones = part.sizes.iter().filter(|&&s| s == 1).count();
                assert!(
                    ones * 100 >= part.n_strata * 80,
                    "{label}: {ones} one-row strata"
                );
                assert!(
                    dense_cell_space(n, part.n_strata, xa as usize, ya as usize).is_none(),
                    "{label}: the shape must miss the dense budget so the sparse arena runs"
                );
            }
            let reference = bits(g_test_from_codes(&x, &y, &z));
            let (g, p, _) =
                g_test_grouped_narrow(x.as_slice(), xa, &y[..], ya, &part, &rows, &mut arenas);
            assert_eq!(reference, bits((g, p)), "narrow u32, {label}");
            // Narrowed storage widths count identically.
            if xa <= 256 && ya <= 256 {
                let x8: Vec<u8> = x.iter().map(|&v| v as u8).collect();
                let y8: Vec<u8> = y.iter().map(|&v| v as u8).collect();
                let (g, p, _) =
                    g_test_grouped_narrow(&x8[..], xa, &y8[..], ya, &part, &rows, &mut arenas);
                assert_eq!(reference, bits((g, p)), "narrow u8, {label}");
            }
            let x16: Vec<u16> = x.iter().map(|&v| v as u16).collect();
            let (g, p, _) =
                g_test_grouped_narrow(&x16[..], xa, &y[..], ya, &part, &rows, &mut arenas);
            assert_eq!(reference, bits((g, p)), "narrow u16/u32, {label}");
        }
    }

    /// A tester extended over an appended dataset answers bit-for-bit what
    /// a cold tester on the concatenated table answers, its transferred
    /// stratifications included, and the scaffold ledger stays conserved.
    #[test]
    fn extended_tester_matches_cold_and_conserves_scaffolds() {
        use crate::CiTestBatch;
        let parent_t = chain_table(800, 31);
        let batch = chain_table(200, 32);
        let parent = GTest::new(&parent_t, 0.01);
        let warm: [(Vec<usize>, Vec<usize>, Vec<usize>); 3] = [
            (vec![0], vec![2], vec![]),
            (vec![0], vec![2], vec![1]),
            (vec![0, 1], vec![2], vec![1]),
        ];
        for (x, y, z) in &warm {
            parent.g_statistic(x, y, z);
        }
        let child_enc = Arc::new(parent.encoded().extend(&batch).unwrap());
        let ext = GTest::extended_from(&parent, child_enc);
        let birth = ext.scaffold_stats();
        assert_eq!(birth.extended, 2, "zkeys [] and [1] carried over");
        assert_eq!(birth.rebuilt, 0);
        assert!(birth.conserved(), "{birth:?}");

        let concat = parent_t.concat(&batch).unwrap();
        let cold = GTest::new(&concat, 0.01);
        // Every warmed query's sufficient statistic was retained and
        // patched at extension; it answers bit-for-bit what the cold
        // tester computes. A query never evaluated has nothing to patch.
        assert_eq!(birth.suff_tables, 3, "{birth:?}");
        assert!(ext.patched_outcome(&[1], &[2], &[0]).is_none());
        for (x, y, z) in &warm {
            let got = ext.patched_outcome(x, y, z).expect("patched table answers");
            let (cg, cp) = cold.g_statistic(x, y, z);
            assert_eq!(got.statistic.to_bits(), cg.to_bits(), "patched statistic");
            assert_eq!(got.p_value.to_bits(), cp.to_bits(), "patched p-value");
        }
        let mut queries = warm.to_vec();
        queries.push((vec![1], vec![2], vec![0])); // fresh conditioning set
        for (x, y, z) in &queries {
            let a = ext.g_statistic(x, y, z);
            let b = cold.g_statistic(x, y, z);
            assert_eq!(a.0.to_bits(), b.0.to_bits(), "statistic {x:?} {y:?} {z:?}");
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "p-value {x:?} {y:?} {z:?}");
        }
        let s = ext.scaffold_stats();
        assert_eq!(s.extended, 2);
        assert_eq!(s.rebuilt, 1, "the fresh conditioning set rebuilt once");
        assert!(s.conserved(), "{s:?}");
        // The trait entry point routes to the same construction.
        assert!(parent
            .extend_over(Arc::new(parent.encoded().extend(&batch).unwrap()))
            .is_some());
    }

    /// Per-query evaluation through the arena kernels returns the bit
    /// patterns of the hashed reference (`tests/kernel_reference/`), and
    /// exercises the per-query arena routing.
    #[test]
    fn kernel_modes_agree_per_query() {
        let t = chain_table(2000, 9);
        let narrow = GTest::new(&t, 0.01);
        let reference = crate::kernel_reference::ReferenceGTest::new(&t, 0.01);
        for (x, y, z) in [
            (vec![0], vec![2], vec![]),
            (vec![0], vec![2], vec![1]),
            (vec![1, 2], vec![0], vec![]),
            (vec![0, 1], vec![2], vec![1]),
        ] {
            let a = narrow.g_statistic(&x, &y, &z);
            let b = crate::CiTestShared::ci_shared(&reference, &x, &y, &z);
            assert_eq!(
                a.0.to_bits(),
                b.statistic.to_bits(),
                "statistic {x:?} {y:?} {z:?}"
            );
            assert_eq!(
                a.1.to_bits(),
                b.p_value.to_bits(),
                "p-value {x:?} {y:?} {z:?}"
            );
        }
        // The narrow path counted through the dense arena.
        use crate::CiTestBatch;
        assert!(narrow.encode_cache_stats().dense_count_cells > 0);
    }
}
