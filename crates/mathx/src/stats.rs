//! Descriptive statistics over `f64` slices: moments, quantiles,
//! correlation, and standardization. Used by the featurizer, the CI
//! testers (median heuristic for RCIT bandwidths), and the experiment
//! harnesses.

/// Arithmetic mean. Returns 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance (normalized by `n`). Returns 0.0 for len < 2.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Sample covariance of two equal-length slices (normalized by `n`).
pub fn covariance(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "covariance: length mismatch");
    if xs.len() < 2 {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    xs.iter()
        .zip(ys)
        .map(|(x, y)| (x - mx) * (y - my))
        .sum::<f64>()
        / xs.len() as f64
}

/// The mean and population standard deviation of one vector, as
/// [`pearson_with`] reads them: a vector shared by many correlations
/// computes these once, and each correlation then costs one pass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Moments {
    /// `Σ xᵢ / n`.
    pub mean: f64,
    /// `√(Σ (xᵢ − mean)² / n)`.
    pub sd: f64,
}

impl Moments {
    /// Both moments of `xs`, each a sum over the elements in ascending
    /// order from +0.0 (NaN for an empty slice).
    pub fn of(xs: &[f64]) -> Moments {
        let nf = xs.len() as f64;
        let mut sum = 0.0f64;
        // order: element index ascending (reassociating this sum is the
        // known dead end: it flips low-order bits of every correlation).
        for &x in xs {
            sum += x;
        }
        let mean = sum / nf;
        let mut sq = 0.0f64;
        // order: element index ascending over the centered squares.
        for &x in xs {
            let d = x - mean;
            sq += d * d;
        }
        Moments {
            mean,
            sd: (sq / nf).sqrt(),
        }
    }
}

/// The cross term of a correlation, `Σ (xᵢ − mx)(yᵢ − my)`, in one pass.
fn centered_cross(xs: &[f64], mx: f64, ys: &[f64], my: f64) -> f64 {
    let mut acc = 0.0f64;
    // order: row index ascending from +0.0.
    for (&x, &y) in xs.iter().zip(ys) {
        acc += (x - mx) * (y - my);
    }
    acc
}

/// Pearson correlation coefficient of two vectors whose [`Moments`] are
/// already known, in one pass over the pair; 0.0 if either side is
/// constant or shorter than two.
///
/// With `Moments::of` of each side it takes every sum in the element
/// order of the separate [`std_dev`] and [`covariance`] passes, so it is
/// bit-identical to `covariance(xs, ys) / (std_dev(xs) · std_dev(ys))`.
///
/// # Panics
/// Panics on a length mismatch.
pub fn pearson_with(xs: &[f64], mx: Moments, ys: &[f64], my: Moments) -> f64 {
    assert_eq!(xs.len(), ys.len(), "pearson: length mismatch");
    if xs.len() < 2 || mx.sd == 0.0 || my.sd == 0.0 {
        return 0.0;
    }
    let nf = xs.len() as f64;
    let vxy = centered_cross(xs, mx.mean, ys, my.mean);
    ((vxy / nf) / (mx.sd * my.sd)).clamp(-1.0, 1.0)
}

/// `q`-quantile (0 ≤ q ≤ 1) with linear interpolation, like numpy's default.
///
/// # Panics
/// Panics on an empty slice or `q` outside [0, 1].
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile: empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile: q={q} outside [0,1]");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("quantile: NaN in data"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median (0.5-quantile).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Standardize in place to zero mean / unit variance; constant columns are
/// centered only. Returns `(mean, std)` so test data can reuse the fit.
pub fn standardize(xs: &mut [f64]) -> (f64, f64) {
    let m = mean(xs);
    let s = std_dev(xs);
    if s > 0.0 {
        for x in xs.iter_mut() {
            *x = (*x - m) / s;
        }
    } else {
        for x in xs.iter_mut() {
            *x -= m;
        }
    }
    (m, s)
}

/// Median of pairwise Euclidean distances between up to `cap` rows of a
/// flattened `n × d` row-major buffer — the RCIT kernel-bandwidth
/// ("median") heuristic. Returns 1.0 if all distances are zero.
pub fn median_pairwise_distance(data: &[f64], n: usize, d: usize, cap: usize) -> f64 {
    assert_eq!(data.len(), n * d, "median_pairwise_distance: bad shape");
    let m = n.min(cap);
    if m < 2 {
        return 1.0;
    }
    let mut dists = Vec::with_capacity(m * (m - 1) / 2);
    for i in 0..m {
        for j in (i + 1)..m {
            let mut acc = 0.0;
            // order: feature index k ascending per pair distance.
            for k in 0..d {
                let diff = data[i * d + k] - data[j * d + k];
                acc += diff * diff;
            }
            dists.push(acc.sqrt());
        }
    }
    let med = median(&dists);
    if med > 0.0 {
        med
    } else {
        1.0
    }
}

/// Argmax over a slice, breaking ties towards the lower index.
///
/// # Panics
/// Panics on an empty slice.
pub fn argmax(xs: &[f64]) -> usize {
    assert!(!xs.is_empty(), "argmax: empty slice");
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate().skip(1) {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;

    #[test]
    fn mean_variance_basics() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_close!(mean(&xs), 2.5, 1e-12);
        assert_close!(variance(&xs), 1.25, 1e-12);
        assert_close!(std_dev(&xs), 1.25f64.sqrt(), 1e-12);
    }

    #[test]
    fn empty_and_singleton_are_safe() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(variance(&[5.0]), 0.0);
    }

    fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
        pearson_with(xs, Moments::of(xs), ys, Moments::of(ys))
    }

    #[test]
    fn covariance_and_pearson() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert_close!(pearson(&xs, &ys), 1.0, 1e-12);
        let ys_neg: Vec<f64> = ys.iter().map(|y| -y).collect();
        assert_close!(pearson(&xs, &ys_neg), -1.0, 1e-12);
        let constant = [3.0; 4];
        assert_eq!(pearson(&xs, &constant), 0.0);
    }

    #[test]
    fn pearson_fused_bits_match_naive() {
        // Awkward magnitudes so any reassociation of a moment or cross
        // sum would flip low-order bits against the separate passes.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let xs: Vec<f64> = (0..1000).map(|i| next() * 1e6 + i as f64 * 1e-7).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x * 0.3 + next() * 1e5 - 5e4).collect();
        let naive = (covariance(&xs, &ys) / (std_dev(&xs) * std_dev(&ys))).clamp(-1.0, 1.0);
        assert_eq!(pearson(&xs, &ys).to_bits(), naive.to_bits());
        let m = Moments::of(&xs);
        assert_eq!(m.mean.to_bits(), mean(&xs).to_bits());
        assert_eq!(m.sd.to_bits(), std_dev(&xs).to_bits());
        // Degenerate shapes are uncorrelated.
        assert_eq!(pearson(&[], &[]), 0.0);
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_close!(quantile(&xs, 0.0), 1.0, 1e-12);
        assert_close!(quantile(&xs, 1.0), 4.0, 1e-12);
        assert_close!(median(&xs), 2.5, 1e-12);
        assert_close!(quantile(&xs, 0.25), 1.75, 1e-12);
    }

    #[test]
    fn quantile_order_insensitive() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_close!(median(&xs), 2.5, 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_empty_panics() {
        quantile(&[], 0.5);
    }

    #[test]
    fn standardize_gives_zero_mean_unit_var() {
        let mut xs = vec![10.0, 20.0, 30.0, 40.0, 50.0];
        let (m, s) = standardize(&mut xs);
        assert_close!(m, 30.0, 1e-12);
        assert!(s > 0.0);
        assert_close!(mean(&xs), 0.0, 1e-12);
        assert_close!(variance(&xs), 1.0, 1e-12);
    }

    #[test]
    fn standardize_constant_column() {
        let mut xs = vec![7.0; 5];
        let (_, s) = standardize(&mut xs);
        assert_eq!(s, 0.0);
        assert!(xs.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn median_pairwise_distance_simple() {
        // Three collinear points 0, 3, 4 -> distances {3, 4, 1}, median 3.
        let data = [0.0, 3.0, 4.0];
        assert_close!(median_pairwise_distance(&data, 3, 1, 100), 3.0, 1e-12);
    }

    #[test]
    fn median_pairwise_distance_degenerate() {
        let data = [1.0, 1.0, 1.0];
        assert_eq!(median_pairwise_distance(&data, 3, 1, 100), 1.0);
        assert_eq!(median_pairwise_distance(&data[..1], 1, 1, 100), 1.0);
    }

    #[test]
    fn argmax_breaks_ties_low() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[5.0]), 0);
    }
}
