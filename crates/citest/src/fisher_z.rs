//! Fisher-z partial-correlation test for (linear-)Gaussian data.
//!
//! The classical test behind most PC-algorithm implementations: regress
//! `x` and `y` on the conditioning set, correlate the residuals, apply the
//! Fisher z-transform, and compare `√(n−|Z|−3)·atanh(r)` to a standard
//! normal. Exact for multivariate Gaussian data; a useful fast tester for
//! the linear-Gaussian SCM workloads.

use crate::{CiOutcome, CiTest, VarId};
use fairsel_math::special::{fisher_z, normal_two_sided_p};
use fairsel_math::stats::pearson;
use fairsel_math::Mat;
use fairsel_table::{CappedCache, ColId, EncodedTable, Table};
use std::sync::Arc;

/// Memoized residual vectors keyed by `(column, canonical z set)`,
/// bounded by the encoding layer's cache cap.
type ResidualCache = CappedCache<(ColId, Vec<ColId>), Arc<Vec<f64>>>;

/// Fisher-z tester over the columns of a [`Table`] (all columns are read
/// as `f64`; categorical codes are treated numerically).
///
/// Multivariate `X`/`Y` sides are handled by testing every `(xᵢ, yⱼ)` pair
/// and Bonferroni-combining: the set is declared dependent if any pair is
/// significant at `alpha / (|X|·|Y|)`.
///
/// Per-query work is amortized through shared caches: materialized `f64`
/// columns live in the [`EncodedTable`] layer, and for each conditioning
/// set the design matrix and per-column residuals are memoized — a GrpSel
/// frontier level conditions every query on the same `Z`, so the ridge
/// solves collapse from `O(batch)` to `O(distinct columns)`. Both caches
/// are bounded at the encoding layer's cap (LRU eviction), so a
/// long-lived service holding a FisherZ tester stays memory-bounded.
pub struct FisherZ {
    enc: Arc<EncodedTable>,
    alpha: f64,
    designs: CappedCache<Vec<ColId>, Arc<Mat>>,
    residuals: ResidualCache,
    /// Design matrices carried over from a parent tester on dataset
    /// extension (see [`FisherZ::extended_from`]).
    extended_scaffolds: u64,
}

impl FisherZ {
    pub fn new(table: &Table, alpha: f64) -> Self {
        Self::over(Arc::new(EncodedTable::new(table)), alpha)
    }

    /// Build over a shared encoding layer (see [`crate::GTest::over`]).
    pub fn over(enc: Arc<EncodedTable>, alpha: f64) -> Self {
        assert!((0.0..1.0).contains(&alpha) && alpha > 0.0, "alpha in (0,1)");
        let cap = enc.cache_cap();
        Self {
            enc,
            alpha,
            designs: CappedCache::new(cap),
            residuals: CappedCache::new(cap),
            extended_scaffolds: 0,
        }
    }

    /// Build a tester over an extended (appended-to) dataset. Design
    /// matrices carry over — a design is the raw conditioning columns plus
    /// intercept, so appending the new rows reproduces exactly what a cold
    /// build over the concatenated table assembles. Residual vectors do
    /// **not** carry over: the ridge solution changes with `n`, so every
    /// residual is recomputed on demand (bit-identical to cold, because it
    /// is the cold computation).
    pub fn extended_from(parent: &FisherZ, enc: Arc<EncodedTable>) -> FisherZ {
        let mut child = FisherZ::over(enc, parent.alpha);
        if child.enc.caching() {
            let n_child = child.table().n_rows();
            let mut snap = parent.designs.snapshot();
            snap.sort_by(|a, b| a.0.cmp(&b.0));
            for (zkey, mat) in snap {
                let n_parent = mat.rows();
                let mut data = mat.as_slice().to_vec();
                data.reserve((n_child - n_parent) * (zkey.len() + 1));
                let cols: Vec<Arc<Vec<f64>>> =
                    zkey.iter().map(|&c| child.enc.numeric_col(c)).collect();
                for i in n_parent..n_child {
                    data.push(1.0);
                    for col in &cols {
                        data.push(col[i]);
                    }
                }
                let extended = Arc::new(Mat::from_vec(n_child, zkey.len() + 1, data));
                child.designs.insert_transferred(zkey, extended);
                child.extended_scaffolds += 1;
            }
        }
        child
    }

    /// The shared encoding layer.
    pub fn encoded(&self) -> &Arc<EncodedTable> {
        &self.enc
    }

    fn table(&self) -> &Table {
        self.enc.table()
    }

    /// Residualize a column on the conditioning design matrix (with
    /// intercept) via ridge-stabilized least squares.
    fn residualize(col: &[f64], design: &Mat) -> Vec<f64> {
        let n = col.len();
        let t = Mat::from_vec(n, 1, col.to_vec());
        let w = Mat::ridge_solve(design, &t, 1e-8);
        let fitted = design.matmul(&w);
        (0..n).map(|i| col[i] - fitted[(i, 0)]).collect()
    }

    /// Design matrix (intercept + columns of the canonical `z` set),
    /// memoized per conditioning set (unless the encoding layer runs
    /// uncached — the per-query benchmark baseline).
    fn design(&self, zkey: &[ColId]) -> Arc<Mat> {
        if self.enc.caching() {
            if let Some(hit) = self.designs.get(zkey) {
                return hit;
            }
        }
        let n = self.table().n_rows();
        let cols: Vec<Arc<Vec<f64>>> = zkey.iter().map(|&c| self.enc.numeric_col(c)).collect();
        let mut data = Vec::with_capacity(n * (zkey.len() + 1));
        for i in 0..n {
            data.push(1.0);
            for col in &cols {
                data.push(col[i]);
            }
        }
        let design = Arc::new(Mat::from_vec(n, zkey.len() + 1, data));
        if self.enc.caching() {
            self.designs.insert(zkey.to_vec(), design)
        } else {
            self.designs.note_miss();
            design
        }
    }

    /// Residuals of `col` on the canonical `z` set, memoized.
    fn residual(&self, col: ColId, zkey: &[ColId]) -> Arc<Vec<f64>> {
        let key = (col, zkey.to_vec());
        if self.enc.caching() {
            if let Some(hit) = self.residuals.get(&key) {
                return hit;
            }
        }
        let design = self.design(zkey);
        let vals = self.enc.numeric_col(col);
        let res = Arc::new(Self::residualize(&vals, &design));
        if self.enc.caching() {
            self.residuals.insert(key, res)
        } else {
            self.residuals.note_miss();
            res
        }
    }

    fn canonical_z(z: &[VarId]) -> Vec<ColId> {
        crate::canonical_set(z)
    }

    /// Z-grouped scaffold: residualize every column a group of queries
    /// needs on `zkey` in **one** ridge solve. The per-query path pays one
    /// `ZᵀZ` formation + Cholesky factorization per `(column, Z)` pair;
    /// here the factorization is shared across the whole group and only
    /// the right-hand sides multiply. Results are inserted into the same
    /// residual cache the per-query path reads.
    ///
    /// Byte-identity: `t_matmul`, `solve_spd`, and `matmul` all process
    /// right-hand-side columns independently (the elimination multipliers
    /// depend only on the design), so column `j` of the blocked solve is
    /// bit-for-bit the vector [`FisherZ::residualize`] computes for that
    /// column alone — the property the grouped-equivalence tests pin down.
    fn prefill_residuals(&self, zkey: &[ColId], queries: &[crate::CiQueryRef<'_>]) {
        let mut need: Vec<ColId> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for q in queries {
            if q.x.is_empty() || q.y.is_empty() {
                continue;
            }
            let (x, y) = crate::canonical_sides(q.x, q.y);
            for &c in x.iter().chain(&y) {
                if seen.insert(c) && self.residuals.get(&(c, zkey.to_vec())).is_none() {
                    need.push(c);
                }
            }
        }
        if need.is_empty() {
            return;
        }
        let design = self.design(zkey);
        let n = self.table().n_rows();
        let k = need.len();
        let cols: Vec<Arc<Vec<f64>>> = need.iter().map(|&c| self.enc.numeric_col(c)).collect();
        let mut data = vec![0.0; n * k];
        for i in 0..n {
            for (j, col) in cols.iter().enumerate() {
                data[i * k + j] = col[i];
            }
        }
        let t = Mat::from_vec(n, k, data);
        let w = Mat::ridge_solve(&design, &t, 1e-8);
        let fitted = design.matmul(&w);
        // Extract each residual column with a strided read over the
        // row-major fitted matrix. (A fused single pass filling all k
        // buffers at once measured *slower* at 500k rows under the worker
        // pool — too many concurrent write streams — so the per-column
        // walk is the kernel of record; the grouped win lives in the
        // shared ridge solve above and the fused [`pearson`] the
        // correlations run on afterwards.)
        for (j, (&c, col)) in need.iter().zip(&cols).enumerate() {
            let res: Vec<f64> = (0..n).map(|i| col[i] - fitted[(i, j)]).collect();
            self.residuals.insert((c, zkey.to_vec()), Arc::new(res));
        }
    }

    /// Partial correlation of two scalar columns given `z` columns.
    pub fn partial_correlation(&self, x: VarId, y: VarId, z: &[VarId]) -> f64 {
        let zkey = Self::canonical_z(z);
        if zkey.is_empty() {
            return pearson(&self.enc.numeric_col(x), &self.enc.numeric_col(y));
        }
        let rx = self.residual(x, &zkey);
        let ry = self.residual(y, &zkey);
        pearson(&rx, &ry)
    }

    /// Scalar test returning `(statistic, p_value)`.
    pub fn test_pair(&self, x: VarId, y: VarId, z: &[VarId]) -> (f64, f64) {
        let n = self.table().n_rows() as f64;
        let dof = n - Self::canonical_z(z).len() as f64 - 3.0;
        if dof <= 0.0 {
            return (0.0, 1.0);
        }
        let r = self.partial_correlation(x, y, z);
        let stat = dof.sqrt() * fisher_z(r);
        (stat, normal_two_sided_p(stat))
    }
}

impl CiTest for FisherZ {
    fn ci(&mut self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
        crate::CiTestShared::ci_shared(self, x, y, z)
    }

    fn n_vars(&self) -> usize {
        self.table().n_cols()
    }

    fn name(&self) -> &'static str {
        "fisher-z"
    }
}

impl crate::CiTestShared for FisherZ {
    fn ci_shared(&self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
        if x.is_empty() || y.is_empty() {
            return CiOutcome::decided(true);
        }
        // Canonicalize the sides so every spelling of a query scans the
        // (xᵢ, yⱼ) pairs in one order — min-p ties then resolve to the
        // same statistic, keeping outcomes byte-identical across
        // spellings (the engine's cache quotient).
        let (x, y) = crate::canonical_sides(x, y);
        let (x, y) = (x.as_slice(), y.as_slice());
        let pairs = (x.len() * y.len()) as f64;
        let level = self.alpha / pairs;
        let mut min_p = 1.0f64;
        let mut max_stat = 0.0f64;
        for &xi in x {
            for &yj in y {
                let (stat, p) = self.test_pair(xi, yj, z);
                if p < min_p {
                    min_p = p;
                    max_stat = stat;
                }
            }
        }
        CiOutcome {
            independent: min_p > level,
            p_value: (min_p * pairs).min(1.0), // Bonferroni-adjusted
            statistic: max_stat,
        }
    }
}

impl crate::CiTestBatch for FisherZ {
    /// Z-grouped evaluation: prefill the design/residual caches with one
    /// blocked ridge solve for the whole group, then answer each query
    /// through the ordinary per-query path (which now only reads caches).
    /// Outcomes are trivially byte-identical — it *is* the per-query path,
    /// fed bit-identical residuals (see `FisherZ::prefill_residuals`).
    fn eval_z_group(&self, z: &[VarId], queries: &[crate::CiQueryRef<'_>]) -> Vec<CiOutcome> {
        let zkey = Self::canonical_z(z);
        if !zkey.is_empty() && self.enc.caching() {
            self.prefill_residuals(&zkey, queries);
        }
        queries
            .iter()
            .map(|q| crate::CiTestShared::ci_shared(self, q.x, q.y, q.z))
            .collect()
    }

    fn encode_cache_stats(&self) -> crate::EncodeStats {
        self.enc
            .stats()
            .merged(self.designs.stats())
            .merged(self.residuals.stats())
    }

    fn extend_over(
        &self,
        child: Arc<EncodedTable>,
    ) -> Option<Box<dyn crate::CiTestBatch + Send + Sync>> {
        Some(Box::new(FisherZ::extended_from(self, child)))
    }

    fn scaffold_stats(&self) -> crate::ScaffoldStats {
        // Two scaffold caches share one ledger: designs (extendable) and
        // residuals (always rebuilt — the solution changes with n).
        crate::ScaffoldStats {
            extended: self.extended_scaffolds,
            rebuilt: self
                .designs
                .inserted()
                .saturating_sub(self.extended_scaffolds)
                + self.residuals.inserted(),
            resident: (self.designs.len() + self.residuals.len()) as u64,
            evictions: self.designs.evictions() + self.residuals.evictions(),
            // Moment sums reassociate floats under append, so this tester
            // never retains patchable sufficient statistics.
            ..crate::ScaffoldStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsel_graph::DagBuilder;
    use fairsel_math::assert_close;
    use fairsel_scm::GaussianScmBuilder;
    use fairsel_table::{Column, Role};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Sample z -> x, z -> y (confounder) as a table.
    fn fork_table(n: usize, seed: u64) -> Table {
        let g = DagBuilder::new()
            .nodes(["z", "x", "y"])
            .edge("z", "x")
            .edge("z", "y")
            .build();
        let z = g.expect_node("z");
        let x = g.expect_node("x");
        let y = g.expect_node("y");
        let scm = GaussianScmBuilder::new(g)
            .weight(z, x, 1.2)
            .weight(z, y, -0.9)
            .build();
        let mut rng = StdRng::seed_from_u64(seed);
        let cols = scm.sample(&mut rng, n);
        Table::new(vec![
            Column::num("z", Role::Feature, cols[z.index()].clone()),
            Column::num("x", Role::Feature, cols[x.index()].clone()),
            Column::num("y", Role::Feature, cols[y.index()].clone()),
        ])
        .unwrap()
    }

    #[test]
    fn confounder_induces_marginal_dependence() {
        let t = fork_table(2000, 1);
        let mut f = FisherZ::new(&t, 0.01);
        assert!(!f.ci(&[1], &[2], &[]).independent);
    }

    #[test]
    fn conditioning_on_confounder_restores_independence() {
        let t = fork_table(2000, 2);
        let mut f = FisherZ::new(&t, 0.01);
        let out = f.ci(&[1], &[2], &[0]);
        assert!(out.independent, "x ⊥ y | z should hold, p={}", out.p_value);
    }

    #[test]
    fn partial_correlation_matches_theory() {
        let t = fork_table(60_000, 3);
        let f = FisherZ::new(&t, 0.01);
        // corr(x,y) = (1.2·-0.9) / (sqrt(1+1.44)·sqrt(1+0.81)) ≈ -0.516
        let r = f.partial_correlation(1, 2, &[]);
        assert_close!(r, -1.08 / (2.44f64.sqrt() * 1.81f64.sqrt()), 0.02);
        let rp = f.partial_correlation(1, 2, &[0]);
        assert_close!(rp, 0.0, 0.02);
    }

    #[test]
    fn multivariate_sides_bonferroni() {
        let t = fork_table(2000, 4);
        let mut f = FisherZ::new(&t, 0.01);
        // Group {x, y} vs z: dependent (both members depend on z).
        assert!(!f.ci(&[1, 2], &[0], &[]).independent);
    }

    #[test]
    fn tiny_sample_degrades_to_independent() {
        let t = fork_table(4, 5);
        let mut f = FisherZ::new(&t, 0.01);
        // dof <= 0 with |z|=1 and n=4: must not reject.
        assert!(f.ci(&[1], &[2], &[0]).independent);
    }

    /// An extended tester carries designs forward, rebuilds residuals, and
    /// answers bit-for-bit what a cold tester on the concatenated table
    /// answers; the scaffold ledger stays conserved.
    #[test]
    fn extended_tester_matches_cold_and_conserves_scaffolds() {
        use crate::{CiTestBatch, CiTestShared};
        let parent_t = fork_table(900, 11);
        let batch = fork_table(300, 12);
        let parent = FisherZ::new(&parent_t, 0.01);
        parent.ci_shared(&[1], &[2], &[0]); // warms design [0] + two residuals
        let child_enc = Arc::new(parent.encoded().extend(&batch).unwrap());
        let ext = FisherZ::extended_from(&parent, child_enc);
        let birth = ext.scaffold_stats();
        assert_eq!(birth.extended, 1, "one design matrix carried over");
        assert_eq!(birth.rebuilt, 0, "residuals must not carry over");
        assert!(birth.conserved(), "{birth:?}");

        let concat = parent_t.concat(&batch).unwrap();
        let cold = FisherZ::new(&concat, 0.01);
        for (x, y, z) in [
            (vec![1], vec![2], vec![0]),
            (vec![1], vec![2], vec![]),
            (vec![0], vec![1, 2], vec![]),
            (vec![2], vec![0], vec![1]), // fresh conditioning set
        ] {
            let a = ext.ci_shared(&x, &y, &z);
            let b = cold.ci_shared(&x, &y, &z);
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
        assert_eq!(s.extended, 1);
        // Rebuilt: design [1] plus residuals (1,[0]), (2,[0]), (2,[1]), (0,[1]).
        assert_eq!(s.rebuilt, 5);
        assert!(s.conserved(), "{s:?}");
    }

    #[test]
    fn null_calibration() {
        // Independent Gaussians: rejection rate at alpha=0.05 ≈ 5%.
        use fairsel_math::dist::sample_std_normal;
        let mut rejections = 0;
        let trials = 300;
        for seed in 0..trials {
            let mut rng = StdRng::seed_from_u64(9000 + seed);
            let n = 200;
            let a: Vec<f64> = (0..n).map(|_| sample_std_normal(&mut rng)).collect();
            let b: Vec<f64> = (0..n).map(|_| sample_std_normal(&mut rng)).collect();
            let t = Table::new(vec![
                Column::num("a", Role::Feature, a),
                Column::num("b", Role::Feature, b),
            ])
            .unwrap();
            let mut f = FisherZ::new(&t, 0.05);
            if !f.ci(&[0], &[1], &[]).independent {
                rejections += 1;
            }
        }
        let rate = rejections as f64 / trials as f64;
        assert!((0.01..=0.10).contains(&rate), "null rejection rate {rate}");
    }
}
