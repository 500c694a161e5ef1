//! RCIT: the Randomized Conditional Independence Test (Strobl, Zhang &
//! Visweswaran 2019), the tester the paper uses for all real-dataset
//! experiments (§5.1: "We use RCIT \[50\] package in R for CI tests").
//!
//! The approach approximates a kernel conditional-independence test with
//! random Fourier features so its cost is linear in the sample size and
//! mild in the conditioning-set dimension — exactly the scaling Figure 3(b)
//! of the paper measures (runtime vs. conditioning-set size 1..256):
//!
//! 1. standardize `X`, `Y`, `Z` and pick RBF bandwidths by the median
//!    heuristic on a subsample;
//! 2. map each block through random Fourier features
//!    `f(v) = √(2/D)·cos(vW/σ + b)`;
//! 3. residualize `f(X)` and `f(Y)` on `f(Z)` with ridge regression
//!    (the conditional-covariance operator trick);
//! 4. statistic `S = n·‖Cov(e_x, e_y)‖²_F`, whose null is a weighted sum
//!    of χ²₁; the tail is approximated by moment-matching a gamma
//!    distribution (Satterthwaite–Welch).
//!
//! With an empty conditioning set this reduces to RIT, an unconditional
//! kernel independence test.
//!
//! Randomness (the Fourier frequencies `W` and phases `b`) is drawn from a
//! stream *derived per query* ([`crate::derived_query_seed`]) rather than
//! one mutable stream, so any two evaluations of the same query —
//! sequential, batched, across worker threads, in any order — consume
//! identical randomness and return byte-identical outcomes. That makes
//! RCIT [`crate::CiTestShared`]/[`crate::CiTestBatch`]-capable, and its
//! column extraction reads through the shared [`EncodedTable`] layer so
//! repeated columns are materialized once per session.

use crate::{CiOutcome, CiTest, VarId};
use fairsel_math::dist::sample_std_normal;
use fairsel_math::special::gamma_sf;
use fairsel_math::stats::{median_pairwise_distance, standardize};
use fairsel_math::Mat;
use fairsel_table::{CappedCache, EncodedTable, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The query-independent part of a conditioning block: the standardized
/// `Z` matrix and its median-heuristic bandwidth.
type ZContext = (Mat, f64);

/// RCIT hyperparameters.
#[derive(Clone, Debug)]
pub struct RcitConfig {
    /// Random Fourier features for the X and Y blocks (RCIT default: 5).
    pub num_features_xy: usize,
    /// Random Fourier features for the conditioning block (RCIT default: 25).
    pub num_features_z: usize,
    /// Rows subsampled for the median-distance bandwidth heuristic.
    pub median_sample: usize,
    /// Ridge regularization for the residualization step.
    pub ridge: f64,
    /// Significance level.
    pub alpha: f64,
}

impl Default for RcitConfig {
    fn default() -> Self {
        Self {
            num_features_xy: 5,
            num_features_z: 25,
            median_sample: 500,
            ridge: 1e-3,
            alpha: 0.01,
        }
    }
}

/// RCIT tester over table columns (categorical codes read as numeric, as
/// the R package does with factor levels).
pub struct Rcit {
    enc: Arc<EncodedTable>,
    cfg: RcitConfig,
    seed: u64,
    /// Memoized conditioning contexts for grouped evaluation, keyed by
    /// canonical set and bounded like every other data-path cache — so
    /// concurrent chunks of one Z-group (and later frontier levels)
    /// share one standardization + bandwidth pass.
    zctx: CappedCache<Vec<VarId>, Arc<ZContext>>,
    /// Median-heuristic bandwidths by canonical column set, for the `x`
    /// and `y` sides and for `Z` on the per-query route (a Z-group's
    /// context holds its own): a block's bandwidth depends only on its
    /// columns, never on a query's random stream, so each set's is
    /// computed once. No counter reads this cache.
    bandwidths: CappedCache<Vec<VarId>, f64>,
}

impl Rcit {
    pub fn new(table: &Table, cfg: RcitConfig, seed: u64) -> Self {
        Self::over(Arc::new(EncodedTable::new(table)), cfg, seed)
    }

    /// Build over a shared encoding layer (see [`crate::GTest::over`]);
    /// materialized numeric columns are shared with every other tester on
    /// the same layer.
    pub fn over(enc: Arc<EncodedTable>, cfg: RcitConfig, seed: u64) -> Self {
        assert!(cfg.num_features_xy > 0 && cfg.num_features_z > 0);
        assert!(cfg.ridge > 0.0, "ridge must be positive");
        let cap = enc.cache_cap();
        Self {
            enc,
            cfg,
            seed,
            zctx: CappedCache::new(cap),
            bandwidths: CappedCache::new(cap),
        }
    }

    /// Build a tester over an extended (appended-to) dataset. Nothing
    /// carries over beyond configuration and seed: every RCIT scaffold is
    /// a whole-sample standardization plus median-heuristic bandwidth,
    /// both of which change with `n`, so conditioning contexts and
    /// bandwidths are rebuilt on demand — which also makes them trivially
    /// bit-identical to cold.
    pub fn extended_from(parent: &Rcit, enc: Arc<EncodedTable>) -> Rcit {
        Rcit::over(enc, parent.cfg.clone(), parent.seed)
    }

    /// Conditioning context for the canonical set `zs`, memoized and
    /// built once however many workers miss it together.
    fn z_context(&self, zs: &[VarId]) -> Arc<ZContext> {
        self.zctx.get_or_build(zs, || {
            let zm = self.extract(zs);
            let sz = median_pairwise_distance(
                zm.as_slice(),
                zm.rows(),
                zm.cols(),
                self.cfg.median_sample,
            );
            Arc::new((zm, sz))
        })
    }

    /// Tester with default hyperparameters at level `alpha`.
    pub fn with_alpha(table: &Table, alpha: f64, seed: u64) -> Self {
        Self::new(
            table,
            RcitConfig {
                alpha,
                ..Default::default()
            },
            seed,
        )
    }

    /// The shared encoding layer.
    pub fn encoded(&self) -> &Arc<EncodedTable> {
        &self.enc
    }

    fn table(&self) -> &Table {
        self.enc.table()
    }

    /// Extract columns as a standardized `n × d` matrix (shared
    /// materialized columns, standardized into a private buffer).
    fn extract(&self, cols: &[VarId]) -> Mat {
        let n = self.table().n_rows();
        let d = cols.len();
        let mut buf = vec![0.0; n * d];
        for (j, &c) in cols.iter().enumerate() {
            let mut col = (*self.enc.numeric_col(c)).clone();
            standardize(&mut col);
            for i in 0..n {
                buf[i * d + j] = col[i];
            }
        }
        Mat::from_vec(n, d, buf)
    }

    /// Random Fourier feature map of `data` with RBF bandwidth `sigma`,
    /// drawing frequencies and phases from the query's private stream.
    fn fourier_features(rng: &mut StdRng, data: &Mat, num: usize, sigma: f64) -> Mat {
        let n = data.rows();
        let d = data.cols();
        // W ~ N(0, 1/σ²) entrywise, b ~ U[0, 2π).
        let mut w = Mat::zeros(d, num);
        for i in 0..d {
            for j in 0..num {
                w[(i, j)] = sample_std_normal(rng) / sigma;
            }
        }
        let b: Vec<f64> = (0..num)
            .map(|_| rng.gen::<f64>() * 2.0 * std::f64::consts::PI)
            .collect();
        let mut proj = data.matmul(&w);
        let scale = (2.0 / num as f64).sqrt();
        for i in 0..n {
            let row = proj.row_mut(i);
            for (v, &bj) in row.iter_mut().zip(&b) {
                *v = scale * (*v + bj).cos();
            }
        }
        proj
    }

    /// The median-heuristic bandwidth of the canonical column set `cols`,
    /// whose standardized extraction is `data`, computed once per set.
    fn bandwidth(&self, cols: &[VarId], data: &Mat) -> f64 {
        self.bandwidths.get_or_build(cols, || {
            median_pairwise_distance(
                data.as_slice(),
                data.rows(),
                data.cols(),
                self.cfg.median_sample,
            )
        })
    }

    /// Full test, returning `(statistic, p_value)`.
    ///
    /// Sides are canonicalized ([`crate::canonical_sides`], `z` sorted and
    /// deduplicated) and all randomness comes from a stream seeded by the
    /// canonical query, so every spelling of one query is byte-identical —
    /// the [`crate::CiTestBatch`] contract.
    pub fn test(&self, x: &[VarId], y: &[VarId], z: &[VarId]) -> (f64, f64) {
        let (x, y) = crate::canonical_sides(x, y);
        self.test_canonical(&x, &y, &crate::canonical_set(z), None)
    }

    /// The test over canonicalized sides, optionally reusing a prepared
    /// conditioning context `(standardized Z matrix, bandwidth)` — the
    /// query-independent part of the computation a Z-group shares. The
    /// context never touches the per-query RNG stream, so a prepared run
    /// is byte-identical to an unprepared one.
    fn test_canonical(
        &self,
        x: &[VarId],
        y: &[VarId],
        z: &[VarId],
        zctx: Option<&(Mat, f64)>,
    ) -> (f64, f64) {
        let mut rng = StdRng::seed_from_u64(crate::derived_query_seed(self.seed, x, y, z));
        let n = self.table().n_rows();
        if n < 8 {
            return (0.0, 1.0);
        }
        let xm = self.extract(x);
        let ym = self.extract(y);
        let sx = self.bandwidth(x, &xm);
        let sy = self.bandwidth(y, &ym);
        let mut fx = Self::fourier_features(&mut rng, &xm, self.cfg.num_features_xy, sx);
        let mut fy = Self::fourier_features(&mut rng, &ym, self.cfg.num_features_xy, sy);
        fx.center_cols();
        fy.center_cols();
        let (ex, ey) = if z.is_empty() {
            (fx, fy)
        } else {
            let local;
            let (zm, sz) = match zctx {
                Some((zm, sz)) => (zm, *sz),
                None => {
                    let zm = self.extract(z);
                    let sz = self.bandwidth(z, &zm);
                    local = zm;
                    (&local, sz)
                }
            };
            let mut fz = Self::fourier_features(&mut rng, zm, self.cfg.num_features_z, sz);
            fz.center_cols();
            let wx = Mat::ridge_solve(&fz, &fx, self.cfg.ridge);
            let wy = Mat::ridge_solve(&fz, &fy, self.cfg.ridge);
            let mut ex = fx.sub(&fz.matmul(&wx));
            let mut ey = fy.sub(&fz.matmul(&wy));
            ex.center_cols();
            ey.center_cols();
            (ex, ey)
        };
        let dx = ex.cols();
        let dy = ey.cols();
        // Cross-covariance of residual features and the statistic.
        let cxy = ex.t_matmul(&ey).scale(1.0 / n as f64);
        let stat = n as f64 * cxy.frob_sq();

        // Null moments via the covariance of per-sample feature products
        // v_t = vec(e_x[t] ⊗ e_y[t]).
        let d = dx * dy;
        let mut vbar = vec![0.0; d];
        let mut prods = Mat::zeros(n, d);
        for t in 0..n {
            let exr = ex.row(t);
            let eyr = ey.row(t);
            let prow = prods.row_mut(t);
            let mut k = 0;
            for &a in exr {
                for &b in eyr {
                    prow[k] = a * b;
                    vbar[k] += a * b;
                    k += 1;
                }
            }
        }
        for v in &mut vbar {
            *v /= n as f64;
        }
        for t in 0..n {
            let prow = prods.row_mut(t);
            for (p, &m) in prow.iter_mut().zip(&vbar) {
                *p -= m;
            }
        }
        let sigma = prods.t_matmul(&prods).scale(1.0 / n as f64);
        let mean_null = sigma.trace();
        let var_null = 2.0 * sigma.frob_sq();
        if mean_null <= 1e-12 || var_null <= 1e-20 {
            // Degenerate null: the residual products are (near-)constant,
            // which happens under *deterministic* relationships (e.g. X a
            // copy of Y). A positive statistic then has no sampling
            // variability at all — reject outright; otherwise accept.
            return if stat > 1e-8 * n as f64 {
                (stat, 0.0)
            } else {
                (stat, 1.0)
            };
        }
        // Satterthwaite–Welch: gamma with k = mean²/var·2, θ = var/(2·mean)
        // (for a gamma, mean = kθ and var = kθ²).
        let shape = mean_null * mean_null / var_null;
        let scale = var_null / mean_null;
        let p = gamma_sf(stat, shape, scale);
        (stat, p)
    }
}

impl CiTest for Rcit {
    fn ci(&mut self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
        crate::CiTestShared::ci_shared(self, x, y, z)
    }

    fn n_vars(&self) -> usize {
        self.table().n_cols()
    }

    fn name(&self) -> &'static str {
        "rcit"
    }
}

impl crate::CiTestShared for Rcit {
    fn ci_shared(&self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
        if x.is_empty() || y.is_empty() {
            return CiOutcome::decided(true);
        }
        let (stat, p) = self.test(x, y, z);
        CiOutcome {
            independent: p > self.cfg.alpha,
            p_value: p,
            statistic: stat,
        }
    }
}

/// Batch evaluation uses the per-query default (each query re-derives its
/// own RNG stream, so there is no cross-query randomness to amortize);
/// the Z-grouped entry point shares the query-*independent* conditioning
/// work — the standardized `Z` matrix and its median-heuristic bandwidth,
/// `O(n·|Z|)` per query in the Figure 3(b) regime — across the group.
impl crate::CiTestBatch for Rcit {
    fn eval_z_group(&self, z: &[VarId], queries: &[crate::CiQueryRef<'_>]) -> Vec<CiOutcome> {
        let zs = crate::canonical_set(z);
        let n = self.table().n_rows();
        let zctx = if zs.is_empty() || n < 8 {
            None
        } else {
            Some(self.z_context(&zs))
        };
        queries
            .iter()
            .map(|q| {
                if q.x.is_empty() || q.y.is_empty() {
                    return CiOutcome::decided(true);
                }
                let (x, y) = crate::canonical_sides(q.x, q.y);
                let (stat, p) = self.test_canonical(&x, &y, &zs, zctx.as_deref());
                CiOutcome {
                    independent: p > self.cfg.alpha,
                    p_value: p,
                    statistic: stat,
                }
            })
            .collect()
    }

    fn encode_cache_stats(&self) -> crate::EncodeStats {
        self.enc.stats().merged(self.zctx.stats())
    }

    fn extend_over(
        &self,
        child: Arc<EncodedTable>,
    ) -> Option<Box<dyn crate::CiTestBatch + Send + Sync>> {
        Some(Box::new(Rcit::extended_from(self, child)))
    }

    fn scaffold_stats(&self) -> crate::ScaffoldStats {
        // No scaffold survives extension (whole-sample standardization),
        // so `extended` is structurally zero here.
        crate::ScaffoldStats {
            extended: 0,
            rebuilt: self.zctx.inserted(),
            resident: self.zctx.len() as u64,
            evictions: self.zctx.evictions(),
            // Random-feature moment sums reassociate floats under append:
            // never patched, always rebuilt.
            ..crate::ScaffoldStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsel_graph::DagBuilder;
    use fairsel_scm::GaussianScmBuilder;
    use fairsel_table::{Column, Role};

    fn gauss_table(edges: &[(&str, &str, f64)], nodes: &[&str], n: usize, seed: u64) -> Table {
        let mut b = DagBuilder::new().nodes(nodes.iter().copied());
        for &(f, t, _) in edges {
            b = b.edge(f, t);
        }
        let g = b.build();
        let mut sb = GaussianScmBuilder::new(g.clone());
        for &(f, t, w) in edges {
            sb = sb.weight(g.expect_node(f), g.expect_node(t), w);
        }
        let scm = sb.build();
        let mut rng = StdRng::seed_from_u64(seed);
        let cols = scm.sample(&mut rng, n);
        Table::new(
            nodes
                .iter()
                .map(|&name| {
                    Column::num(
                        name,
                        Role::Feature,
                        cols[g.expect_node(name).index()].clone(),
                    )
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn detects_linear_dependence() {
        let t = gauss_table(&[("x", "y", 0.8)], &["x", "y"], 1000, 1);
        let mut r = Rcit::with_alpha(&t, 0.01, 42);
        let out = r.ci(&[0], &[1], &[]);
        assert!(
            !out.independent,
            "strong dependence missed, p={}",
            out.p_value
        );
    }

    #[test]
    fn accepts_independence() {
        let t = gauss_table(&[], &["x", "y"], 1000, 2);
        let mut r = Rcit::with_alpha(&t, 0.01, 42);
        let out = r.ci(&[0], &[1], &[]);
        assert!(out.independent, "independent rejected, p={}", out.p_value);
    }

    #[test]
    fn conditional_independence_in_chain() {
        // x -> m -> y: x ⊥ y | m.
        let t = gauss_table(
            &[("x", "m", 1.0), ("m", "y", 1.0)],
            &["x", "m", "y"],
            1500,
            3,
        );
        let mut r = Rcit::with_alpha(&t, 0.01, 7);
        assert!(
            !r.ci(&[0], &[2], &[]).independent,
            "marginal dependence missed"
        );
        let out = r.ci(&[0], &[2], &[1]);
        assert!(out.independent, "chain CI missed, p={}", out.p_value);
    }

    #[test]
    fn detects_nonlinear_dependence() {
        // y = x² + noise: zero linear correlation, kernel test must catch it.
        use fairsel_math::dist::sample_std_normal;
        let mut rng = StdRng::seed_from_u64(4);
        let n = 1200;
        let x: Vec<f64> = (0..n).map(|_| sample_std_normal(&mut rng)).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|&v| v * v + 0.3 * sample_std_normal(&mut rng))
            .collect();
        let t = Table::new(vec![
            Column::num("x", Role::Feature, x),
            Column::num("y", Role::Feature, y),
        ])
        .unwrap();
        let mut r = Rcit::with_alpha(&t, 0.01, 11);
        let out = r.ci(&[0], &[1], &[]);
        assert!(
            !out.independent,
            "nonlinear dependence missed, p={}",
            out.p_value
        );
    }

    #[test]
    fn conditional_dependence_detected() {
        // Collider x -> c <- y: conditioning on c induces dependence.
        let t = gauss_table(
            &[("x", "c", 1.0), ("y", "c", 1.0)],
            &["x", "y", "c"],
            1500,
            5,
        );
        let mut r = Rcit::with_alpha(&t, 0.01, 13);
        assert!(
            r.ci(&[0], &[1], &[]).independent,
            "collider marginal should be independent"
        );
        let out = r.ci(&[0], &[1], &[2]);
        assert!(
            !out.independent,
            "collider conditioning missed, p={}",
            out.p_value
        );
    }

    #[test]
    fn multivariate_group_sides() {
        // z -> x1, z -> x2, z -> y: group {x1, x2} dependent on y
        // marginally, independent given z.
        let t = gauss_table(
            &[("z", "x1", 1.0), ("z", "x2", 1.0), ("z", "y", 1.0)],
            &["z", "x1", "x2", "y"],
            2000,
            6,
        );
        let mut r = Rcit::with_alpha(&t, 0.01, 17);
        assert!(!r.ci(&[1, 2], &[3], &[]).independent);
        let out = r.ci(&[1, 2], &[3], &[0]);
        assert!(
            out.independent,
            "group CI given z missed, p={}",
            out.p_value
        );
    }

    #[test]
    fn null_calibration_reasonable() {
        // Independent pairs: rejection rate at alpha=0.05 should be small
        // (the gamma approximation is slightly conservative).
        let mut rejections = 0;
        let trials = 120;
        for seed in 0..trials {
            let t = gauss_table(&[], &["x", "y"], 300, 100 + seed);
            let mut r = Rcit::with_alpha(&t, 0.05, seed);
            if !r.ci(&[0], &[1], &[]).independent {
                rejections += 1;
            }
        }
        let rate = rejections as f64 / trials as f64;
        assert!(rate <= 0.12, "null rejection rate too high: {rate}");
    }

    #[test]
    fn tiny_sample_returns_independent() {
        let t = gauss_table(&[("x", "y", 2.0)], &["x", "y"], 4, 9);
        let mut r = Rcit::with_alpha(&t, 0.01, 3);
        assert!(r.ci(&[0], &[1], &[]).independent);
    }

    /// An extended RCIT rebuilds everything (whole-sample standardization
    /// invalidates all scaffolds) yet stays bit-identical to a cold tester
    /// on the concatenated table, and its ledger stays conserved.
    #[test]
    fn extended_tester_matches_cold_and_conserves_scaffolds() {
        use crate::{CiQueryRef, CiTestBatch, CiTestShared};
        let parent_t = gauss_table(
            &[("x", "m", 1.0), ("m", "y", 1.0)],
            &["x", "m", "y"],
            600,
            31,
        );
        let batch = gauss_table(
            &[("x", "m", 1.0), ("m", "y", 1.0)],
            &["x", "m", "y"],
            200,
            32,
        );
        let parent = Rcit::with_alpha(&parent_t, 0.01, 7);
        // Warm a conditioning context on the parent via the grouped path.
        let x: [usize; 1] = [0];
        let y: [usize; 1] = [2];
        let z: [usize; 1] = [1];
        let q = [CiQueryRef {
            x: &x,
            y: &y,
            z: &z,
        }];
        parent.eval_z_group(&z, &q);
        let child_enc = Arc::new(parent.encoded().extend(&batch).unwrap());
        let ext = Rcit::extended_from(&parent, child_enc);
        let birth = ext.scaffold_stats();
        assert_eq!((birth.extended, birth.rebuilt), (0, 0));
        assert!(birth.conserved(), "{birth:?}");

        let concat = parent_t.concat(&batch).unwrap();
        let cold = Rcit::with_alpha(&concat, 0.01, 7);
        for (x, y, z) in [
            (vec![0], vec![2], vec![1]),
            (vec![0], vec![2], vec![]),
            (vec![0, 1], vec![2], vec![1]),
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
        // The grouped path on the extended tester rebuilds the context.
        let a = ext.eval_z_group(&z, &q);
        let b = cold.eval_z_group(&z, &q);
        assert_eq!(a[0].p_value.to_bits(), b[0].p_value.to_bits());
        let s = ext.scaffold_stats();
        assert_eq!(s.extended, 0);
        assert_eq!(s.rebuilt, 1, "context rebuilt once on the child");
        assert!(s.conserved(), "{s:?}");
    }

    #[test]
    fn works_on_categorical_codes() {
        // Binary S copied into X: RCIT reads codes numerically and must
        // flag dependence.
        let codes: Vec<u32> = (0..600).map(|i| (i % 2) as u32).collect();
        let t = Table::new(vec![
            Column::cat("s", Role::Sensitive, codes.clone(), 2),
            Column::cat("x", Role::Feature, codes, 2),
        ])
        .unwrap();
        let mut r = Rcit::with_alpha(&t, 0.01, 21);
        assert!(!r.ci(&[0], &[1], &[]).independent);
    }

    /// Pins RCIT's outcome bits: the p-value, statistic and verdict of five
    /// pairs, each tested marginally, given one variable and given three,
    /// on each of three seeded 12-feature tables, folded into one FNV-1a
    /// digest. Every conditional query solves its ridge regression on the
    /// 25-column `Z` feature block, so a change to the summation order of
    /// any product moves the digest, where the decision tests above would
    /// still pass.
    #[test]
    fn outcome_bits_are_pinned() {
        let nodes: Vec<String> = (0..12).map(|i| format!("v{i}")).collect();
        let names: Vec<&str> = nodes.iter().map(String::as_str).collect();
        let edges: Vec<(&str, &str, f64)> = [
            (0, 1, 0.9),
            (1, 2, -0.7),
            (0, 3, 0.5),
            (3, 4, 1.2),
            (2, 5, 0.8),
            (4, 5, -0.6),
            (5, 6, 1.0),
            (6, 7, 0.4),
            (1, 8, -1.1),
            (8, 9, 0.7),
            (9, 10, 0.9),
            (7, 11, -0.8),
        ]
        .iter()
        .map(|&(f, t, w)| (names[f], names[t], w))
        .collect();
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut outcomes = 0;
        for seed in [41, 42, 43] {
            let mut r = Rcit::with_alpha(&gauss_table(&edges, &names, 200, seed), 0.01, seed);
            for q in 0..5 {
                let x = q * 5 % 12;
                let y = (x + 3 + 2 * q) % 12;
                let others: Vec<usize> = (0..12).filter(|&v| v != x && v != y).collect();
                for zlen in [0, 1, 3] {
                    let z: Vec<usize> = (0..zlen).map(|k| others[(q * 3 + k * 4) % 10]).collect();
                    let out = r.ci(&[x], &[y], &z);
                    for word in [
                        out.p_value.to_bits(),
                        out.statistic.to_bits(),
                        u64::from(out.independent),
                    ] {
                        digest = (digest ^ word).wrapping_mul(0x0100_0000_01b3);
                    }
                    outcomes += 1;
                }
            }
        }
        assert_eq!(outcomes, 45);
        assert_eq!(format!("{digest:016x}"), "6c73e67c45d73961");
    }

    #[test]
    fn large_conditioning_set_runs() {
        // Smoke test for the Figure 3(b) regime: |Z| = 64.
        let nodes: Vec<String> = (0..66).map(|i| format!("v{i}")).collect();
        let names: Vec<&str> = nodes.iter().map(String::as_str).collect();
        let t = gauss_table(&[], &names, 400, 10);
        let mut r = Rcit::with_alpha(&t, 0.01, 5);
        let z: Vec<usize> = (2..66).collect();
        let out = r.ci(&[0], &[1], &z);
        assert!(out.p_value >= 0.0 && out.p_value <= 1.0);
    }
}
