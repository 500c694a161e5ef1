//! L2-regularized logistic regression fit by IRLS (Newton–Raphson).
//!
//! This is the paper's primary classifier (§5.1 uses sklearn's logistic
//! regression with default settings). IRLS converges in a handful of
//! iterations on the ≤ few-hundred-dimensional design matrices the
//! featurizer produces, and it is fully deterministic — important because
//! the experiment harness compares eight pipelines on identical splits.
//!
//! Featurized designs hold many exact zeros: a binary column is 0 wherever
//! its code is, and a reference-coded one-hot block has at most one 1 per
//! row. The fit therefore lists each row's nonzero columns once, in ascending
//! order, and every Newton pass computes the linear predictor, the
//! gradient and the upper triangle of XᵀWX over those columns alone. A
//! pass costs O(Σᵢ nnzᵢ²) for the Hessian instead of O(n·d²), where nnzᵢ
//! is the number of nonzeros in row i.
//!
//! The result is bit-identical to the dense sweep over every column. Each
//! accumulator sees its nonzero terms in the dense order (rows ascending,
//! columns ascending within a row), and each skipped term is a ±0 added
//! to a running sum that is never −0, which leaves the sum unchanged. (A
//! sum is −0 only if every addend is; each accumulator starts at +0, or
//! at the intercept, which starts at +0.) That holds for any finite design
//! whose fit does not overflow: an infinite coefficient times a skipped 0
//! would be NaN in the dense sweep. Every design [`crate::Featurizer`]
//! builds from a finite table qualifies.

use crate::{check_fit_inputs, Classifier};
use fairsel_math::Mat;

/// Logistic regression configuration.
#[derive(Clone, Debug)]
pub struct LogisticConfig {
    /// L2 penalty (like sklearn's `1/C`; default 1.0).
    pub l2: f64,
    /// Maximum Newton iterations.
    pub max_iter: usize,
    /// Stop when the max absolute coefficient update drops below this.
    pub tol: f64,
}

impl Default for LogisticConfig {
    fn default() -> Self {
        Self {
            l2: 1.0,
            max_iter: 50,
            tol: 1e-8,
        }
    }
}

/// Fitted logistic-regression model.
#[derive(Clone, Debug)]
pub struct LogisticRegression {
    cfg: LogisticConfig,
    /// Coefficients, one per feature (empty before `fit`).
    weights: Vec<f64>,
    intercept: f64,
}

impl LogisticRegression {
    pub fn new(cfg: LogisticConfig) -> Self {
        Self {
            cfg,
            weights: Vec::new(),
            intercept: 0.0,
        }
    }

    /// Model with default hyperparameters.
    pub fn default_model() -> Self {
        Self::new(LogisticConfig::default())
    }

    /// Fitted coefficients (per feature dimension).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Fitted intercept.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// |coefficient| per feature dimension — the feature-importance proxy
    /// used by the SPred baseline.
    pub fn importance(&self) -> Vec<f64> {
        self.weights.iter().map(|w| w.abs()).collect()
    }

    fn decision(&self, x: &Mat, row: usize) -> f64 {
        let mut z = self.intercept;
        for (j, &w) in self.weights.iter().enumerate() {
            z += w * x[(row, j)];
        }
        z
    }
}

/// Numerically-stable logistic function.
#[inline]
pub fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        let e = (-z).exp();
        1.0 / (1.0 + e)
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// Each row's nonzero column ids, ascending, in one buffer allocated at
/// exact capacity: row `i` owns `cols[starts[i]..starts[i + 1]]`.
struct RowNonzeros {
    starts: Vec<usize>,
    cols: Vec<u32>,
}

impl RowNonzeros {
    fn of(x: &Mat) -> Self {
        let nnz = x.as_slice().iter().filter(|&&v| v != 0.0).count();
        let mut starts = Vec::with_capacity(x.rows() + 1);
        let mut cols = Vec::with_capacity(nnz);
        starts.push(0);
        for i in 0..x.rows() {
            for (j, &v) in x.row(i).iter().enumerate() {
                if v != 0.0 {
                    cols.push(u32::try_from(j).expect("design wider than u32 columns"));
                }
            }
            starts.push(cols.len());
        }
        Self { starts, cols }
    }

    fn row(&self, i: usize) -> &[u32] {
        &self.cols[self.starts[i]..self.starts[i + 1]]
    }
}

impl Classifier for LogisticRegression {
    fn fit(&mut self, x: &Mat, y: &[u32], sample_weights: Option<&[f64]>) {
        check_fit_inputs(x, y, sample_weights);
        let n = x.rows();
        let d = x.cols();
        // Design with intercept as an extra trailing column.
        let dim = d + 1;
        let mut beta = vec![0.0; dim];
        let unit = vec![1.0; n];
        let sw = sample_weights.unwrap_or(&unit);
        let nonzeros = RowNonzeros::of(x);

        for _ in 0..self.cfg.max_iter {
            // p_i, and the IRLS working weights w_i = sw_i · p_i (1 - p_i).
            let mut grad = vec![0.0; dim];
            let mut hess = Mat::zeros(dim, dim);
            for i in 0..n {
                let row = x.row(i);
                let ids = nonzeros.row(i);
                let mut z = beta[d];
                for &j in ids {
                    z += beta[j as usize] * row[j as usize];
                }
                let p = sigmoid(z);
                let r = sw[i] * (y[i] as f64 - p);
                let w = (sw[i] * p * (1.0 - p)).max(1e-10);
                for &j in ids {
                    grad[j as usize] += r * row[j as usize];
                }
                grad[d] += r;
                // Accumulate upper triangle of XᵀWX.
                for (a, &j) in ids.iter().enumerate() {
                    let xw = w * row[j as usize];
                    if xw == 0.0 {
                        continue;
                    }
                    let h = hess.row_mut(j as usize);
                    for &k in &ids[a..] {
                        h[k as usize] += xw * row[k as usize];
                    }
                    h[d] += xw;
                }
                hess[(d, d)] += w;
            }
            // Symmetrize, add ridge (not on the intercept), add penalty grad.
            for j in 0..dim {
                for k in 0..j {
                    hess[(j, k)] = hess[(k, j)];
                }
            }
            for j in 0..d {
                hess[(j, j)] += self.cfg.l2;
                grad[j] -= self.cfg.l2 * beta[j];
            }
            hess[(d, d)] += 1e-8; // keep SPD when all weights degenerate

            let g = Mat::from_vec(dim, 1, grad);
            let step = match hess.solve_spd(&g) {
                Some(s) => s,
                None => break, // Hessian collapsed; keep current estimate
            };
            let mut max_step = 0.0f64;
            for j in 0..dim {
                beta[j] += step[(j, 0)];
                max_step = max_step.max(step[(j, 0)].abs());
            }
            if max_step < self.cfg.tol {
                break;
            }
        }
        self.intercept = beta[d];
        beta.truncate(d);
        self.weights = beta;
    }

    fn predict_proba(&self, x: &Mat) -> Vec<f64> {
        assert_eq!(x.cols(), self.weights.len(), "predict: dimension mismatch");
        (0..x.rows())
            .map(|i| sigmoid(self.decision(x, i)))
            .collect()
    }

    fn name(&self) -> &'static str {
        "logistic-regression"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsel_math::assert_close;
    use fairsel_math::dist::sample_std_normal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Linearly separable-ish data: y = 1{2·x0 − x1 + 0.5 + ε > 0}.
    fn synthetic(n: usize, seed: u64) -> (Mat, Vec<u32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(n * 2);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let a = sample_std_normal(&mut rng);
            let b = sample_std_normal(&mut rng);
            data.push(a);
            data.push(b);
            let score = 2.0 * a - b + 0.5 + 0.3 * sample_std_normal(&mut rng);
            y.push(u32::from(score > 0.0));
        }
        (Mat::from_vec(n, 2, data), y)
    }

    #[test]
    fn sigmoid_stability() {
        assert_close!(sigmoid(0.0), 0.5, 1e-12);
        assert_close!(sigmoid(800.0), 1.0, 1e-12);
        assert_close!(sigmoid(-800.0), 0.0, 1e-12);
        assert!((sigmoid(3.0) + sigmoid(-3.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn learns_separating_direction() {
        let (x, y) = synthetic(2000, 1);
        let mut lr = LogisticRegression::default_model();
        lr.fit(&x, &y, None);
        assert!(
            lr.weights()[0] > 0.5,
            "w0 should be positive: {:?}",
            lr.weights()
        );
        assert!(
            lr.weights()[1] < -0.2,
            "w1 should be negative: {:?}",
            lr.weights()
        );
        let preds = lr.predict(&x);
        let acc = preds.iter().zip(&y).filter(|(p, t)| p == t).count() as f64 / y.len() as f64;
        assert!(acc > 0.93, "training accuracy {acc} too low");
    }

    #[test]
    fn generalizes_to_fresh_sample() {
        let (xtr, ytr) = synthetic(2000, 2);
        let (xte, yte) = synthetic(1000, 3);
        let mut lr = LogisticRegression::default_model();
        lr.fit(&xtr, &ytr, None);
        let preds = lr.predict(&xte);
        let acc = preds.iter().zip(&yte).filter(|(p, t)| p == t).count() as f64 / yte.len() as f64;
        assert!(acc > 0.9, "test accuracy {acc} too low");
    }

    #[test]
    fn deterministic_fit() {
        let (x, y) = synthetic(500, 4);
        let mut a = LogisticRegression::default_model();
        let mut b = LogisticRegression::default_model();
        a.fit(&x, &y, None);
        b.fit(&x, &y, None);
        assert_eq!(a.weights(), b.weights());
        assert_eq!(a.intercept(), b.intercept());
    }

    #[test]
    fn strong_l2_shrinks_weights() {
        let (x, y) = synthetic(500, 5);
        let mut loose = LogisticRegression::new(LogisticConfig {
            l2: 0.01,
            ..Default::default()
        });
        let mut tight = LogisticRegression::new(LogisticConfig {
            l2: 1000.0,
            ..Default::default()
        });
        loose.fit(&x, &y, None);
        tight.fit(&x, &y, None);
        assert!(tight.weights()[0].abs() < loose.weights()[0].abs() * 0.2);
    }

    #[test]
    fn sample_weights_shift_the_fit() {
        // Duplicate-by-weight should match duplicate-by-row.
        let x = Mat::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]);
        let y = vec![0, 0, 1, 1];
        let w = vec![1.0, 1.0, 3.0, 1.0];
        let mut weighted = LogisticRegression::default_model();
        weighted.fit(&x, &y, Some(&w));
        let x_dup = Mat::from_rows(&[&[0.0], &[1.0], &[2.0], &[2.0], &[2.0], &[3.0]]);
        let y_dup = vec![0, 0, 1, 1, 1, 1];
        let mut duped = LogisticRegression::default_model();
        duped.fit(&x_dup, &y_dup, None);
        assert_close!(weighted.weights()[0], duped.weights()[0], 1e-5);
        assert_close!(weighted.intercept(), duped.intercept(), 1e-5);
    }

    #[test]
    fn constant_labels_predict_constant() {
        let (x, _) = synthetic(200, 6);
        let y = vec![1u32; 200];
        let mut lr = LogisticRegression::default_model();
        lr.fit(&x, &y, None);
        let proba = lr.predict_proba(&x);
        assert!(
            proba.iter().all(|&p| p > 0.9),
            "all-ones data should predict ~1"
        );
    }

    #[test]
    fn importance_is_abs_weights() {
        let (x, y) = synthetic(500, 7);
        let mut lr = LogisticRegression::default_model();
        lr.fit(&x, &y, None);
        let imp = lr.importance();
        assert_close!(imp[0], lr.weights()[0].abs(), 1e-12);
        assert!(imp[0] > imp[1], "x0 is the stronger feature");
    }

    #[test]
    #[should_panic(expected = "labels must be binary")]
    fn rejects_nonbinary_labels() {
        let x = Mat::from_rows(&[&[1.0]]);
        let mut lr = LogisticRegression::default_model();
        lr.fit(&x, &[2], None);
    }
}
