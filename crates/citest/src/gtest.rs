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

use crate::contingency::{arity, g_stat, Arenas, DiscreteState, Scaffold};
use crate::{CiOutcome, CiQueryRef, CiTest, CiTestBatch, CiTestShared, VarId};
use fairsel_math::special::chi2_sf;
use fairsel_table::{with_codes, EncodedTable, Table};
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
/// Every query is evaluated as part of a Z-group
/// ([`crate::CiTestBatch::eval_z_group`]; a single query is a group of
/// one): the conditioning set's stratification is derived once per group
/// (and memoized per canonical set, so concurrent chunks of one giant
/// group share it) and every `(x, y)` pair counts against that scaffold.
/// Each dense count is retained as the query's sufficient statistic, so an
/// extension over appended rows ([`GTest::extended_from`]) patches it with
/// the batch instead of recounting.
pub struct GTest {
    state: DiscreteState,
    alpha: f64,
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
        Self {
            state: DiscreteState::over(enc),
            alpha,
        }
    }

    /// Build the tester a dataset *extension* warrants: same configuration
    /// as `parent`, reading the extended encoding layer `enc`, with every
    /// resident conditioning-set stratification carried over and extended
    /// (`extend_scaffold`) instead of rebuilt, and every retained table
    /// patched with the appended rows now — O(batch) integer counting per
    /// table. Query outcomes are byte-identical to a cold
    /// `GTest::over(enc, alpha)` — only where the scaffolds come from
    /// changes. Telemetry (degenerate short-circuits, dense-arena cells)
    /// starts fresh, matching a cold tester's counters.
    pub fn extended_from(parent: &GTest, enc: Arc<EncodedTable>) -> GTest {
        GTest {
            state: DiscreteState::extended_from(&parent.state, enc),
            alpha: parent.alpha,
        }
    }

    /// The underlying table.
    pub fn table(&self) -> &Table {
        self.state.enc.table()
    }

    /// The shared encoding layer.
    pub fn encoded(&self) -> &Arc<EncodedTable> {
        &self.state.enc
    }

    /// How many queries short-circuited on an all-singleton conditioning
    /// stratum structure (p = 1 without building contingency tables).
    pub fn degenerate_short_circuits(&self) -> u64 {
        self.state.degenerate()
    }

    /// Raw statistic and p-value for `X ⊥ Y | Z` without thresholding.
    pub fn g_statistic(&self, x: &[VarId], y: &[VarId], z: &[VarId]) -> (f64, f64) {
        let out = self.ci_shared(x, y, z);
        (out.statistic, out.p_value)
    }

    /// One query against its group's scaffold. Encodings are dense where
    /// needed: group queries can multiply arities past u32 (32 binary
    /// features already overflow); the G statistic only depends on the
    /// induced partition, so dense re-encoding is exact.
    fn eval(
        &self,
        x: &[VarId],
        y: &[VarId],
        zkey: &[VarId],
        sc: &Scaffold,
        arenas: &mut Arenas,
    ) -> CiOutcome {
        let (xe, ye) = (self.state.enc.encode(x), self.state.enc.encode(y));
        let dense = with_codes!(&xe.codes, |xc| with_codes!(&ye.codes, |yc| {
            arenas.fill(xc, arity(&xe), yc, arity(&ye), sc)
        }));
        let (g, p) = finish_g(g_stat(arenas));
        if let Some(cells) = dense {
            self.state.dense_counted(cells);
            self.state.retain(x, y, zkey, &arenas.dense);
        }
        CiOutcome {
            independent: p > self.alpha,
            p_value: p,
            statistic: g,
        }
    }
}

impl CiTest for GTest {
    fn ci(&mut self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
        self.ci_shared(x, y, z)
    }

    fn n_vars(&self) -> usize {
        self.table().n_cols()
    }

    fn name(&self) -> &'static str {
        "g-test"
    }
}

impl CiTestShared for GTest {
    /// A Z-group of one.
    fn ci_shared(&self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
        self.eval_z_group(&crate::canonical_set(z), &[CiQueryRef { x, y, z }])[0]
    }
}

impl CiTestBatch for GTest {
    /// Z-grouped evaluation: one stratification scaffold per group, one
    /// set of counting arenas, every pair counted against them.
    fn eval_z_group(&self, z: &[VarId], queries: &[CiQueryRef<'_>]) -> Vec<CiOutcome> {
        self.state.eval_group(z, queries, |q, zkey, sc, arenas| {
            self.eval(q.x, q.y, zkey, sc, arenas)
        })
    }

    fn encode_cache_stats(&self) -> crate::EncodeStats {
        self.state.encode_cache_stats()
    }

    fn extend_over(&self, child: Arc<EncodedTable>) -> Option<Box<dyn CiTestBatch + Send + Sync>> {
        Some(Box::new(GTest::extended_from(self, child)))
    }

    fn scaffold_stats(&self) -> crate::ScaffoldStats {
        self.state.scaffold_stats()
    }

    /// Answer a memoized query from its retained-and-patched sufficient
    /// statistic: the table already holds the concatenated counts (the
    /// extension constructor patched it), so only the walk — the arena's
    /// own, bit for bit a cold evaluation's — runs here. `None` routes the
    /// query to the invalidate path.
    fn patched_outcome(&self, x: &[VarId], y: &[VarId], z: &[VarId]) -> Option<CiOutcome> {
        let (_, t) = match self.state.retained(x, y, z) {
            Ok(found) => found,
            Err(answer) => return answer,
        };
        let (g, p) = finish_g(g_stat(&mut &*t));
        Some(CiOutcome {
            independent: p > self.alpha,
            p_value: p,
            statistic: g,
        })
    }
}

/// Finish the G statistic: df = 0 (no informative stratum) cannot reject;
/// tiny negative G from float cancellation is clamped before the χ² tail.
pub(crate) fn finish_g((g, df): (f64, usize)) -> (f64, f64) {
    if df == 0 {
        return (0.0, 1.0);
    }
    let g = g.max(0.0);
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
            let t = Table::new(vec![
                Column::cat("a", Role::Feature, a, 2),
                Column::cat("b", Role::Feature, b, 2),
                Column::cat("z", Role::Feature, z, 2),
            ])
            .unwrap();
            let (_, p) = GTest::new(&t, 0.05).g_statistic(&[0], &[1], &[2]);
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
        let t = Table::new(vec![
            Column::cat("a", Role::Feature, vec![], 2),
            Column::cat("b", Role::Feature, vec![], 3),
            Column::cat("z", Role::Feature, vec![], 2),
        ])
        .unwrap();
        let (g, p) = GTest::new(&t, 0.01).g_statistic(&[0], &[1], &[2]);
        assert_eq!(g, 0.0);
        assert_eq!(p, 1.0);
    }

    /// The arena grouped counters (dense and sparse) are bit-for-bit the
    /// hashed per-query statistic, across arities small enough for the
    /// dense path, large enough to force the sparse arena, and at every
    /// narrowed code width.
    #[test]
    fn grouped_statistic_is_byte_identical() {
        use crate::contingency::{dense_cell_space, StratumRows, ZPartition};
        use crate::kernel_reference::g_test_from_codes;
        use fairsel_table::CodeValue;
        use rand::Rng;
        /// Finished G and p bits through the arenas.
        fn grouped<X: CodeValue, Y: CodeValue>(
            x: &[X],
            xa: u32,
            y: &[Y],
            ya: u32,
            sc: &Scaffold,
            arenas: &mut Arenas,
        ) -> (u64, u64) {
            arenas.fill(x, xa as usize, y, ya as usize, sc);
            let (g, p) = finish_g(g_stat(arenas));
            (g.to_bits(), p.to_bits())
        }
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
            let sc = (part, rows);
            let got = grouped(x.as_slice(), xa, &y[..], ya, &sc, &mut arenas);
            assert_eq!(reference, got, "narrow u32, {label}");
            // Narrowed storage widths count identically.
            if xa <= 256 && ya <= 256 {
                let x8: Vec<u8> = x.iter().map(|&v| v as u8).collect();
                let y8: Vec<u8> = y.iter().map(|&v| v as u8).collect();
                let got = grouped(&x8[..], xa, &y8[..], ya, &sc, &mut arenas);
                assert_eq!(reference, got, "narrow u8, {label}");
            }
            let x16: Vec<u16> = x.iter().map(|&v| v as u16).collect();
            let got = grouped(&x16[..], xa, &y[..], ya, &sc, &mut arenas);
            assert_eq!(reference, got, "narrow u16/u32, {label}");
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
