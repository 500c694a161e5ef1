//! Bit-identity of [`LogisticRegression::fit`] against the dense IRLS
//! reference.
//!
//! The library fit walks only each row's nonzero columns. The reference
//! below is the dense Newton loop it replaced: every pass sweeps all n·d
//! design entries. On any finite design whose fit does not overflow the two
//! must agree to the bit — weights, intercept and predicted probabilities.

use fairsel_datasets::sim::sample_table;
use fairsel_datasets::synthetic::{synthetic_instance, synthetic_scm, SyntheticConfig};
use fairsel_math::dist::sample_std_normal;
use fairsel_math::Mat;
use fairsel_ml::linear::{sigmoid, LogisticConfig};
use fairsel_ml::{Classifier, Featurizer, LogisticRegression};
use fairsel_table::Role;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The dense IRLS loop: O(n·d²) per Newton pass. Returns
/// `(weights, intercept)`.
fn dense_fit(
    cfg: &LogisticConfig,
    x: &Mat,
    y: &[u32],
    sample_weights: Option<&[f64]>,
) -> (Vec<f64>, f64) {
    let n = x.rows();
    let d = x.cols();
    let dim = d + 1;
    let mut beta = vec![0.0; dim];
    let unit = vec![1.0; n];
    let sw = sample_weights.unwrap_or(&unit);

    for _ in 0..cfg.max_iter {
        let mut grad = vec![0.0; dim];
        let mut hess = Mat::zeros(dim, dim);
        for i in 0..n {
            let mut z = beta[d];
            for j in 0..d {
                z += beta[j] * x[(i, j)];
            }
            let p = sigmoid(z);
            let r = sw[i] * (y[i] as f64 - p);
            let w = (sw[i] * p * (1.0 - p)).max(1e-10);
            for j in 0..d {
                grad[j] += r * x[(i, j)];
            }
            grad[d] += r;
            for j in 0..d {
                let xw = w * x[(i, j)];
                if xw == 0.0 {
                    continue;
                }
                for k in j..d {
                    hess[(j, k)] += xw * x[(i, k)];
                }
                hess[(j, d)] += xw;
            }
            hess[(d, d)] += w;
        }
        for j in 0..dim {
            for k in 0..j {
                hess[(j, k)] = hess[(k, j)];
            }
        }
        for j in 0..d {
            hess[(j, j)] += cfg.l2;
            grad[j] -= cfg.l2 * beta[j];
        }
        hess[(d, d)] += 1e-8;

        let g = Mat::from_vec(dim, 1, grad);
        let step = match hess.solve_spd(&g) {
            Some(s) => s,
            None => break,
        };
        let mut max_step = 0.0f64;
        for j in 0..dim {
            beta[j] += step[(j, 0)];
            max_step = max_step.max(step[(j, 0)].abs());
        }
        if max_step < cfg.tol {
            break;
        }
    }
    let intercept = beta[d];
    beta.truncate(d);
    (beta, intercept)
}

/// Dense `sigmoid(b + Σⱼ wⱼ xᵢⱼ)` over every column.
fn dense_predict(weights: &[f64], intercept: f64, x: &Mat) -> Vec<f64> {
    (0..x.rows())
        .map(|i| {
            let mut z = intercept;
            for (j, &w) in weights.iter().enumerate() {
                z += w * x[(i, j)];
            }
            sigmoid(z)
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|f| f.to_bits()).collect()
}

/// Fit both ways and compare every output bit.
fn assert_bit_identical(cfg: &LogisticConfig, x: &Mat, y: &[u32], sw: Option<&[f64]>, label: &str) {
    let (ref_w, ref_b) = dense_fit(cfg, x, y, sw);
    let mut model = LogisticRegression::new(cfg.clone());
    model.fit(x, y, sw);
    assert!(
        ref_w.iter().all(|w| w.is_finite()) && ref_b.is_finite(),
        "{label}: the reference fit overflowed, so the case proves nothing"
    );
    assert_eq!(bits(model.weights()), bits(&ref_w), "{label}: weights");
    assert_eq!(
        model.intercept().to_bits(),
        ref_b.to_bits(),
        "{label}: intercept"
    );
    assert_eq!(
        bits(&model.predict_proba(x)),
        bits(&dense_predict(&ref_w, ref_b, x)),
        "{label}: predict_proba"
    );
}

/// One column block of a random design.
#[derive(Clone, Copy, Debug)]
enum Block {
    /// 0/1 column with the given share of ones (0 gives an all-zero column).
    Binary(f64),
    /// Reference-coded one-hot of a categorical with `width + 1` levels.
    OneHot(usize),
    /// Standardized numeric column, optionally salted with exact zeros and
    /// tiny (±1e-300) entries.
    Numeric { zeros: f64, tiny: f64 },
    /// Every entry 0.
    Zero,
}

fn pick<R: Rng, T: Copy>(rng: &mut R, choices: &[T]) -> T {
    choices[rng.gen_range(0..choices.len())]
}

fn random_block<R: Rng>(rng: &mut R) -> Block {
    match rng.gen_range(0..10u32) {
        0..=3 => Block::Binary(pick(rng, &[0.0, 0.05, 0.5, 0.9, 1.0])),
        4..=6 => Block::OneHot(rng.gen_range(1..=5)),
        7 | 8 => Block::Numeric {
            zeros: pick(rng, &[0.0, 0.3]),
            tiny: pick(rng, &[0.0, 0.1]),
        },
        _ => Block::Zero,
    }
}

fn block_width(b: Block) -> usize {
    match b {
        Block::OneHot(width) => width,
        _ => 1,
    }
}

/// Fill `data` (row-major, `d` wide) at column offset `j` with block `b`.
fn fill_block<R: Rng>(rng: &mut R, data: &mut [f64], n: usize, d: usize, j: usize, b: Block) {
    match b {
        Block::Binary(p) => {
            for i in 0..n {
                data[i * d + j] = f64::from(u8::from(rng.gen_bool(p)));
            }
        }
        Block::OneHot(width) => {
            for i in 0..n {
                let level = rng.gen_range(0..=width);
                if level > 0 {
                    data[i * d + j + level - 1] = 1.0;
                }
            }
        }
        Block::Numeric { zeros, tiny } => {
            let raw: Vec<f64> = (0..n).map(|_| 3.0 * sample_std_normal(rng) + 1.0).collect();
            let mean = raw.iter().sum::<f64>() / n as f64;
            let var = raw.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
            let sd = if var > 0.0 { var.sqrt() } else { 1.0 };
            for (i, v) in raw.into_iter().enumerate() {
                let u: f64 = rng.gen();
                data[i * d + j] = if u < zeros {
                    0.0
                } else if u < zeros + tiny {
                    if rng.gen_bool(0.5) {
                        1e-300
                    } else {
                        -1e-300
                    }
                } else {
                    (v - mean) / sd
                };
            }
        }
        Block::Zero => {}
    }
}

/// A random design: blocks up to `d_max` columns, with some all-zero rows.
fn random_design<R: Rng>(rng: &mut R, n: usize, d_max: usize) -> Mat {
    let mut blocks = Vec::new();
    let mut d = 0;
    let target = rng.gen_range(0..=d_max);
    while d < target {
        let mut b = random_block(rng);
        if let Block::OneHot(w) = b {
            b = Block::OneHot(w.min(target - d));
        }
        d += block_width(b);
        blocks.push(b);
    }
    let mut data = vec![0.0; n * d];
    let mut j = 0;
    for b in blocks {
        fill_block(rng, &mut data, n, d, j, b);
        j += block_width(b);
    }
    let zero_rows = pick(rng, &[0.0, 0.2]);
    for i in 0..n {
        if rng.gen_bool(zero_rows) {
            data[i * d..(i + 1) * d].fill(0.0);
        }
    }
    Mat::from_vec(n, d, data)
}

/// Labels: Bernoulli from a random linear score, constant, or separable
/// (the sign of a linear score, which perfectly splits the rows).
fn random_labels<R: Rng>(rng: &mut R, x: &Mat) -> Vec<u32> {
    let d = x.cols();
    let v: Vec<f64> = (0..d).map(|_| sample_std_normal(rng)).collect();
    let score = |i: usize| -> f64 { (0..d).map(|j| v[j] * x[(i, j)]).sum::<f64>() };
    match rng.gen_range(0..6u32) {
        0 => vec![0; x.rows()],
        1 => vec![1; x.rows()],
        2 => (0..x.rows()).map(|i| u32::from(score(i) > 0.0)).collect(),
        _ => (0..x.rows())
            .map(|i| u32::from(rng.gen_bool(sigmoid(score(i) - 0.3))))
            .collect(),
    }
}

/// No weights, or per-row weights with some exact zeros (never all zero).
fn random_weights<R: Rng>(rng: &mut R, n: usize) -> Option<Vec<f64>> {
    if rng.gen_bool(0.5) {
        return None;
    }
    let mut w: Vec<f64> = (0..n)
        .map(|_| pick(rng, &[0.0, 0.5, 1.0, 2.0, 3.7]))
        .collect();
    if w.iter().all(|&v| v == 0.0) {
        w[rng.gen_range(0..n)] = 1.0;
    }
    Some(w)
}

fn random_config<R: Rng>(rng: &mut R) -> LogisticConfig {
    if rng.gen_bool(0.5) {
        return LogisticConfig::default();
    }
    LogisticConfig {
        l2: pick(rng, &[1.0, 0.1, 10.0, 1e-3]),
        max_iter: pick(rng, &[1, 3, 8, 50]),
        tol: pick(rng, &[1e-8, 1e-4, 0.0]),
    }
}

/// `cases` random fits from `seed`, each compared bit for bit.
fn random_fits(seed: u64, cases: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut with_weights = 0;
    for case in 0..cases {
        // Mostly small fits, with the full n ∈ [1, 400] range covered.
        let n = if case % 10 == 0 {
            rng.gen_range(1..=400)
        } else {
            rng.gen_range(1..=60)
        };
        let x = random_design(&mut rng, n, 40);
        let y = random_labels(&mut rng, &x);
        let sw = random_weights(&mut rng, n);
        with_weights += usize::from(sw.is_some());
        let cfg = random_config(&mut rng);
        let label = format!("seed {seed} case {case} (n={n}, d={}, {cfg:?})", x.cols());
        assert_bit_identical(&cfg, &x, &y, sw.as_deref(), &label);
    }
    assert!(with_weights * 4 > cases, "weighted fits under-sampled");
}

// 2,000 random fits in four shards, so the test harness can run them in
// parallel.
#[test]
fn sparse_irls_matches_dense_reference_shard_0() {
    random_fits(0x1415, 500);
}

#[test]
fn sparse_irls_matches_dense_reference_shard_1() {
    random_fits(0x9265, 500);
}

#[test]
fn sparse_irls_matches_dense_reference_shard_2() {
    random_fits(0x3589, 500);
}

#[test]
fn sparse_irls_matches_dense_reference_shard_3() {
    random_fits(0x7932, 500);
}

#[test]
fn edge_shapes_match_dense_reference() {
    let cfg = LogisticConfig::default();
    // One row, no columns.
    assert_bit_identical(&cfg, &Mat::zeros(1, 0), &[1], None, "1x0");
    // All-zero design.
    assert_bit_identical(&cfg, &Mat::zeros(5, 4), &[0, 1, 1, 0, 1], None, "zeros");
    // Dense design with no zero entry at all.
    let x = Mat::from_rows(&[&[1.5, -2.0], &[0.25, 3.0], &[-1.0, -1.0]]);
    assert_bit_identical(&cfg, &x, &[1, 0, 1], None, "dense");
    // Zero sample weights on all but one row.
    let x = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
    assert_bit_identical(&cfg, &x, &[1, 0, 0], Some(&[0.0, 0.0, 2.0]), "weights");
}

#[test]
fn featurized_warm_serve_shaped_design_matches_dense_reference() {
    // 24 features, 5,000 rows: the shape of a warm-serve dataset. The
    // model trains on a 70% sample of the rows over every feature column,
    // the widest design that table yields.
    let cfg = SyntheticConfig {
        n_features: 24,
        biased_fraction: 0.2,
        predictive_fraction: 0.25,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(11);
    let inst = synthetic_instance(&mut rng, &cfg);
    let scm = synthetic_scm(&mut rng, &inst, 1.5);
    let table = sample_table(&scm, &inst.roles, 5000, &mut rng);
    let train = table.split_rows_stable(3, 0.7).train;
    let cols: Vec<usize> = (0..train.n_cols())
        .filter(|&c| matches!(train.col(c).role, Role::Feature | Role::Admissible))
        .collect();
    let target = (0..train.n_cols())
        .find(|&c| train.col(c).role == Role::Target)
        .expect("target column");
    let y: Vec<u32> = train.col(target).codes().expect("categorical").to_vec();
    let featurizer = Featurizer::fit(&train, &cols);
    let x = featurizer.transform(&train);
    let zeros = x.as_slice().iter().filter(|&&v| v == 0.0).count();
    assert!(
        zeros * 4 > x.as_slice().len(),
        "the design should be sparse: {zeros} zeros of {}",
        x.as_slice().len()
    );
    assert_bit_identical(&LogisticConfig::default(), &x, &y, None, "featurized");
}
