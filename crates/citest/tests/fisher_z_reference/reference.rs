//! The row-major Fisher-z route that `FisherZ` replaced, kept as the
//! bit-identity reference: build the `n × (|Z|+1)` design matrix (intercept
//! first), solve the normal equations for every needed column at once with
//! `Mat::ridge_solve`, form the fitted values with `Mat::matmul`, extract
//! each residual with a strided read, and correlate every `(xᵢ, yⱼ)` pair
//! with the two-pass fused Pearson kernel.
//!
//! It memoizes nothing: each conditioning set's residuals are recomputed
//! for every call. `Mat::ridge_solve` panics where the normal equations are
//! not numerically positive definite; `FisherZ` solves those on the
//! columns it can keep instead.

use fairsel_ci::{
    canonical_set, canonical_sides, CiOutcome, CiQueryRef, CiTest, CiTestBatch, CiTestShared, VarId,
};
use fairsel_math::special::{fisher_z, normal_two_sided_p};
use fairsel_math::Mat;
use fairsel_table::Table;
use std::collections::HashMap;

/// Fisher-z over a table's columns read as `f64`, the row-major way.
pub struct ReferenceFisherZ {
    cols: Vec<Vec<f64>>,
    alpha: f64,
}

impl ReferenceFisherZ {
    pub fn new(table: &Table, alpha: f64) -> Self {
        let cols = (0..table.n_cols()).map(|c| table.col(c).to_f64()).collect();
        Self { cols, alpha }
    }

    fn n_rows(&self) -> usize {
        self.cols.first().map_or(0, Vec::len)
    }

    /// Residuals of each of `need` on the canonical `zkey`, one blocked
    /// ridge solve for all of them.
    pub fn residuals(&self, zkey: &[VarId], need: &[VarId]) -> Vec<Vec<f64>> {
        let n = self.n_rows();
        let mut data = Vec::with_capacity(n * (zkey.len() + 1));
        for i in 0..n {
            data.push(1.0);
            for &c in zkey {
                data.push(self.cols[c][i]);
            }
        }
        let design = Mat::from_vec(n, zkey.len() + 1, data);
        let k = need.len();
        let mut rhs = vec![0.0; n * k];
        for i in 0..n {
            for (j, &c) in need.iter().enumerate() {
                rhs[i * k + j] = self.cols[c][i];
            }
        }
        let w = Mat::ridge_solve(&design, &Mat::from_vec(n, k, rhs), 1e-8);
        let fitted = design.matmul(&w);
        need.iter()
            .enumerate()
            .map(|(j, &c)| (0..n).map(|i| self.cols[c][i] - fitted[(i, j)]).collect())
            .collect()
    }

    /// Outcomes of queries that share the canonical conditioning set `z`.
    pub fn outcomes(&self, z: &[VarId], queries: &[CiQueryRef<'_>]) -> Vec<CiOutcome> {
        let zkey = canonical_set(z);
        let mut need: Vec<VarId> = Vec::new();
        for q in queries {
            let (x, y) = canonical_sides(q.x, q.y);
            for c in x.into_iter().chain(y) {
                if !need.contains(&c) {
                    need.push(c);
                }
            }
        }
        let vectors: HashMap<VarId, Vec<f64>> = if zkey.is_empty() {
            need.iter().map(|&c| (c, self.cols[c].clone())).collect()
        } else if need.is_empty() {
            HashMap::new()
        } else {
            need.iter()
                .copied()
                .zip(self.residuals(&zkey, &need))
                .collect()
        };
        let n = self.n_rows() as f64;
        let dof = n - zkey.len() as f64 - 3.0;
        queries
            .iter()
            .map(|q| {
                if q.x.is_empty() || q.y.is_empty() {
                    return CiOutcome::decided(true);
                }
                let (x, y) = canonical_sides(q.x, q.y);
                let pairs = (x.len() * y.len()) as f64;
                let mut min_p = 1.0f64;
                let mut max_stat = 0.0f64;
                for xi in &x {
                    for yj in &y {
                        let (stat, p) = if dof <= 0.0 {
                            (0.0, 1.0)
                        } else {
                            let r = pearson(&vectors[xi], &vectors[yj]);
                            let stat = dof.sqrt() * fisher_z(r);
                            (stat, normal_two_sided_p(stat))
                        };
                        if p < min_p {
                            min_p = p;
                            max_stat = stat;
                        }
                    }
                }
                CiOutcome {
                    independent: min_p > self.alpha / pairs,
                    p_value: (min_p * pairs).min(1.0),
                    statistic: max_stat,
                }
            })
            .collect()
    }
}

/// The fused two-pass Pearson kernel: one sweep for both means, one for
/// the three centered second moments, each sum in ascending row order.
fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "pearson: length mismatch");
    if xs.len() < 2 {
        return 0.0;
    }
    let nf = xs.len() as f64;
    let (mut sx, mut sy) = (0.0f64, 0.0f64);
    for (&x, &y) in xs.iter().zip(ys) {
        sx += x;
        sy += y;
    }
    let (mx, my) = (sx / nf, sy / nf);
    let (mut vxx, mut vyy, mut vxy) = (0.0f64, 0.0f64, 0.0f64);
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        vxx += dx * dx;
        vyy += dy * dy;
        vxy += dx * dy;
    }
    let sdx = (vxx / nf).sqrt();
    let sdy = (vyy / nf).sqrt();
    if sdx == 0.0 || sdy == 0.0 {
        return 0.0;
    }
    ((vxy / nf) / (sdx * sdy)).clamp(-1.0, 1.0)
}

impl CiTest for ReferenceFisherZ {
    fn ci(&mut self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
        self.ci_shared(x, y, z)
    }

    fn n_vars(&self) -> usize {
        self.cols.len()
    }

    fn name(&self) -> &'static str {
        "fisher-z-reference"
    }
}

impl CiTestShared for ReferenceFisherZ {
    fn ci_shared(&self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
        self.outcomes(z, &[CiQueryRef { x, y, z }])[0]
    }
}

impl CiTestBatch for ReferenceFisherZ {
    fn eval_z_group(&self, z: &[VarId], queries: &[CiQueryRef<'_>]) -> Vec<CiOutcome> {
        self.outcomes(z, queries)
    }
}
