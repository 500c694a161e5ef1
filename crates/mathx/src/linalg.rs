//! Dense row-major matrix with the handful of operations the workspace
//! needs: products, Cholesky factorization, SPD solves (plain and ridge),
//! column means, and sample covariance.
//!
//! This is deliberately not a general linear-algebra library — it exists so
//! the RCIT conditional-independence test and the logistic-regression IRLS
//! step have exactly the kernels they need, with no `unsafe` and no
//! dependencies.
//!
//! The products come in two implementations: the blocked kernels
//! ([`Mat::matmul`] / [`Mat::t_matmul`], cache-tiled over *independent
//! output cells*) and the plain triple loops
//! ([`Mat::matmul_naive`] / [`Mat::t_matmul_naive`]). Both accumulate each
//! output cell's dot product in the same ascending-k order with the same
//! zero skip, so they are bit-for-bit identical on finite inputs; the
//! naive pair is kept as the benchmark/property-test reference and can be
//! forced globally via [`set_naive_kernels`] or the
//! `FAIRSEL_NAIVE_KERNELS` environment variable.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static NAIVE_KERNELS: AtomicBool = AtomicBool::new(false);
static NAIVE_ENV: OnceLock<bool> = OnceLock::new();

/// Route [`Mat::matmul`] / [`Mat::t_matmul`] through the naive reference
/// loops (process-wide). Safe to toggle at any time: both implementations
/// return bit-identical results — this exists so benchmarks can measure
/// the blocked kernels against the reference.
pub fn set_naive_kernels(on: bool) {
    NAIVE_KERNELS.store(on, Ordering::Relaxed);
}

/// True when the naive reference kernels are forced, either via
/// [`set_naive_kernels`] or `FAIRSEL_NAIVE_KERNELS=1` in the environment.
pub fn naive_kernels() -> bool {
    let env = *NAIVE_ENV.get_or_init(|| {
        std::env::var("FAIRSEL_NAIVE_KERNELS")
            .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
            .unwrap_or(false)
    });
    env || NAIVE_KERNELS.load(Ordering::Relaxed)
}

/// Output-column tile width for the blocked products: a `128`-wide f64
/// panel is 1 KiB per row — a handful of these (one output panel row, one
/// rhs panel row) sit comfortably in L1 while `k` streams.
const JB: usize = 128;
/// Row-block height for `matmul`: bounds the set of output rows touched
/// per tile so the rhs panel stays resident across them.
const IB: usize = 64;
/// Inner-dimension block depth for `matmul`: caps the rhs panel at
/// `KB × JB` f64 (256 KiB — L2-resident) so it is reused across all `IB`
/// output rows of a tile instead of being streamed from memory once per
/// row. Blocking `k` does not reassociate anything: each output cell
/// still accumulates directly into its slot, k-block by k-block in
/// ascending order, so the per-cell ascending-`k` contract (and with it
/// bit-identity to the naive kernels) is preserved.
const KB: usize = 256;
/// Minimum width at which [`Mat::gram`] switches from the full naive
/// product to the upper-triangle kernel. Below this the triangle's short
/// tail loops cost more than the saved FLOPs (measured break-even ≈16
/// columns at 500k rows).
const GRAM_TRI_MIN: usize = 16;

/// Dense row-major `rows × cols` matrix of `f64`.
#[derive(Clone, Debug, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Mat::from_vec: buffer length {} != {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Build from a slice of rows (convenient in tests).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        assert!(r > 0, "Mat::from_rows: empty");
        let c = rows[0].len();
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "Mat::from_rows: ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The underlying row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Transpose.
    pub fn t(&self) -> Mat {
        let mut out = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Matrix product `self * rhs`.
    ///
    /// Cache-blocked on all three dimensions: the output is tiled into
    /// `IB × JB` panels, and the shared dimension is cut into `KB`-deep
    /// blocks so each `KB × JB` rhs panel stays cache-resident across
    /// every output row of the tile (above the tile sizes the old
    /// two-level blocking re-streamed the full rhs column panel per
    /// output row). Each output cell still accumulates its dot product
    /// in the same ascending-`k` order with the same zero skip as
    /// [`Mat::matmul_naive`] — k-blocks are visited in ascending order
    /// and accumulate straight into the output slot, never into partial
    /// sums — so the result is bit-identical.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Mat) -> Mat {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        if naive_kernels() || rhs.cols <= JB {
            // One column panel covers the whole output: the naive i-k-j
            // loop already visits exactly the blocked order.
            return self.matmul_naive(rhs);
        }
        let m = rhs.cols;
        let kk = self.cols;
        let mut out = Mat::zeros(self.rows, m);
        for jb in (0..m).step_by(JB) {
            let jw = JB.min(m - jb);
            for ib in (0..self.rows).step_by(IB) {
                let iw = IB.min(self.rows - ib);
                for kb in (0..kk).step_by(KB) {
                    let kw = KB.min(kk - kb);
                    for i in ib..ib + iw {
                        let arow = &self.row(i)[kb..kb + kw];
                        let obase = i * m + jb;
                        for (dk, &a) in arow.iter().enumerate() {
                            if a == 0.0 {
                                continue;
                            }
                            let rrow = &rhs.row(kb + dk)[jb..jb + jw];
                            let orow = &mut out.data[obase..obase + jw];
                            // order: each out cell accumulates over k
                            // ascending (kb blocks in order, dk ascending
                            // within) — identical to the naive i-k-j walk.
                            for (o, &r) in orow.iter_mut().zip(rrow) {
                                *o += a * r;
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Reference matrix product: plain i-k-j triple loop. Bit-identical to
    /// [`Mat::matmul`]; kept as the pre-blocking baseline for benchmarks
    /// and property tests.
    pub fn matmul_naive(&self, rhs: &Mat) -> Mat {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Mat::zeros(self.rows, rhs.cols);
        // i-k-j loop order: streams through `rhs` rows, cache-friendly for
        // row-major storage.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let rrow = rhs.row(k);
                let orow = out.row_mut(i);
                // order: k ascending per out cell — the reference order the
                // blocked kernel reproduces.
                for (o, &r) in orow.iter_mut().zip(rrow) {
                    *o += a * r;
                }
            }
        }
        out
    }

    /// `selfᵀ * rhs` without materializing the transpose.
    ///
    /// Cache-blocked over output panels on *both* axes: `JB`-wide column
    /// panels as before, and `IB`-tall output-row blocks so that at
    /// feature-map widths above the tile (`self.cols > IB`) each pass
    /// over the shared row dimension touches an `IB × JB` output slab
    /// (64 KiB) instead of the full `cols × JB` slab, which stops
    /// fitting cache exactly when RCIT's feature maps get wide. Each
    /// output cell belongs to exactly one tile and accumulates in the
    /// same ascending-row order (and zero skip) as
    /// [`Mat::t_matmul_naive`], so the result is bit-identical.
    pub fn t_matmul(&self, rhs: &Mat) -> Mat {
        assert_eq!(
            self.rows, rhs.rows,
            "t_matmul: {}x{} ᵀ* {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        if naive_kernels() || rhs.cols <= JB {
            return self.t_matmul_naive(rhs);
        }
        let m = rhs.cols;
        let p = self.cols;
        let mut out = Mat::zeros(p, m);
        for jb in (0..m).step_by(JB) {
            let jw = JB.min(m - jb);
            for ib in (0..p).step_by(IB) {
                let iw = IB.min(p - ib);
                for r in 0..self.rows {
                    let lrow = &self.row(r)[ib..ib + iw];
                    let rrow = &rhs.row(r)[jb..jb + jw];
                    for (di, &l) in lrow.iter().enumerate() {
                        if l == 0.0 {
                            continue;
                        }
                        let obase = (ib + di) * m + jb;
                        let orow = &mut out.data[obase..obase + jw];
                        // order: each out cell accumulates over the shared
                        // row dimension r ascending — identical to the
                        // naive single-pass walk.
                        for (o, &v) in orow.iter_mut().zip(rrow) {
                            *o += l * v;
                        }
                    }
                }
            }
        }
        out
    }

    /// Reference `selfᵀ * rhs`: single pass over the shared row dimension.
    /// Bit-identical to [`Mat::t_matmul`]; kept as the pre-blocking
    /// baseline for benchmarks and property tests.
    pub fn t_matmul_naive(&self, rhs: &Mat) -> Mat {
        assert_eq!(
            self.rows, rhs.rows,
            "t_matmul: {}x{} ᵀ* {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Mat::zeros(self.cols, rhs.cols);
        for r in 0..self.rows {
            let lrow = self.row(r);
            let rrow = rhs.row(r);
            for (i, &l) in lrow.iter().enumerate() {
                if l == 0.0 {
                    continue;
                }
                let orow = out.row_mut(i);
                // order: shared row dimension r ascending per out cell —
                // the reference order the blocked kernel reproduces.
                for (o, &v) in orow.iter_mut().zip(rrow) {
                    *o += l * v;
                }
            }
        }
        out
    }

    /// Gram matrix `selfᵀ * self`, exploiting symmetry: only the upper
    /// triangle (diagonal included) is accumulated — in exactly the order
    /// `t_matmul_naive(self)` accumulates those cells — and the lower
    /// triangle is mirrored. Mirroring is bit-identical on finite inputs:
    /// cell `(j, i)` of the naive product sums the same `a·b` terms as
    /// `(i, j)` (float multiplication is commutative), and the summands
    /// present in one accumulation but not the other are exact `±0.0`
    /// products, which never alter a finite running sum. Halves the FLOPs
    /// of the normal-equation formation in [`Mat::ridge_solve`] — the
    /// dominant cost of tall-skinny Fisher-z residualization.
    ///
    /// Falls back to the full [`Mat::t_matmul_naive`] when the naive
    /// kernels are forced (see [`set_naive_kernels`]) or when the matrix
    /// is narrower than `GRAM_TRI_MIN` columns: the triangle's
    /// shrinking inner loops (average length `cols / 2`) lose more to
    /// loop overhead than the halved FLOPs save until the width clears
    /// the vectorization break-even. Both paths are bit-identical, so
    /// the dispatch is purely a speed choice.
    pub fn gram(&self) -> Mat {
        if naive_kernels() || self.cols < GRAM_TRI_MIN {
            return self.t_matmul_naive(self);
        }
        let c = self.cols;
        let mut out = Mat::zeros(c, c);
        for r in 0..self.rows {
            let lrow = self.row(r);
            for (i, &l) in lrow.iter().enumerate() {
                if l == 0.0 {
                    continue;
                }
                let obase = i * c;
                let orow = &mut out.data[obase + i..obase + c];
                // order: row dimension r ascending per upper-triangle cell;
                // register-chunking this loop reassociates the sums and
                // breaks bit-identity (known dead end — do not retry).
                for (o, &v) in orow.iter_mut().zip(&lrow[i..]) {
                    *o += l * v;
                }
            }
        }
        for i in 0..c {
            for j in 0..i {
                out.data[i * c + j] = out.data[j * c + i];
            }
        }
        out
    }

    /// Elementwise `self + rhs`.
    pub fn add(&self, rhs: &Mat) -> Mat {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "add: shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Mat {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Elementwise `self - rhs`.
    pub fn sub(&self, rhs: &Mat) -> Mat {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "sub: shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Mat {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Scale every entry by `s`.
    pub fn scale(&self, s: f64) -> Mat {
        let data = self.data.iter().map(|a| a * s).collect();
        Mat {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Frobenius norm squared `Σ aᵢⱼ²`.
    pub fn frob_sq(&self) -> f64 {
        self.data.iter().map(|a| a * a).sum()
    }

    /// Trace of a square matrix.
    pub fn trace(&self) -> f64 {
        assert_eq!(self.rows, self.cols, "trace: non-square");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Per-column means.
    pub fn col_means(&self) -> Vec<f64> {
        let mut m = vec![0.0; self.cols];
        // order: row index i ascending per column accumulator.
        for i in 0..self.rows {
            for (acc, &v) in m.iter_mut().zip(self.row(i)) {
                *acc += v;
            }
        }
        let n = self.rows.max(1) as f64;
        for v in &mut m {
            *v /= n;
        }
        m
    }

    /// Center columns in place (subtract each column's mean); returns the means.
    pub fn center_cols(&mut self) -> Vec<f64> {
        let means = self.col_means();
        for i in 0..self.rows {
            for (v, &m) in self.row_mut(i).iter_mut().zip(&means) {
                *v -= m;
            }
        }
        means
    }

    /// Sample covariance of the columns of `x` and `y` (both `n × ·`,
    /// normalized by `n`): `Cov = Xcᵀ Yc / n` where `Xc`, `Yc` are centered.
    pub fn cross_cov(x: &Mat, y: &Mat) -> Mat {
        assert_eq!(x.rows, y.rows, "cross_cov: row mismatch");
        let mut xc = x.clone();
        let mut yc = y.clone();
        xc.center_cols();
        yc.center_cols();
        xc.t_matmul(&yc).scale(1.0 / x.rows.max(1) as f64)
    }

    /// Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite
    /// matrix; returns lower-triangular `L`, or `None` if the matrix is not
    /// (numerically) positive definite.
    pub fn cholesky(&self) -> Option<Mat> {
        assert_eq!(self.rows, self.cols, "cholesky: non-square");
        let n = self.rows;
        let mut l = Mat::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 {
                        return None;
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Some(l)
    }

    /// Solve `A X = B` for SPD `A` (self) via Cholesky. Returns `None` when
    /// `A` is not positive definite.
    pub fn solve_spd(&self, b: &Mat) -> Option<Mat> {
        assert_eq!(self.rows, b.rows, "solve_spd: dimension mismatch");
        let l = self.cholesky()?;
        let n = self.rows;
        let m = b.cols;
        // Forward substitution: L Y = B
        let mut y = b.clone();
        for i in 0..n {
            for c in 0..m {
                let mut v = y[(i, c)];
                for k in 0..i {
                    v -= l[(i, k)] * y[(k, c)];
                }
                y[(i, c)] = v / l[(i, i)];
            }
        }
        // Back substitution: Lᵀ X = Y
        let mut x = y;
        for i in (0..n).rev() {
            for c in 0..m {
                let mut v = x[(i, c)];
                for k in i + 1..n {
                    v -= l[(k, i)] * x[(k, c)];
                }
                x[(i, c)] = v / l[(i, i)];
            }
        }
        Some(x)
    }

    /// Ridge-regularized least squares: returns `W` minimizing
    /// `‖Z W - T‖² + λ‖W‖²`, i.e. `W = (ZᵀZ + λI)⁻¹ ZᵀT`.
    ///
    /// Used by RCIT to residualize feature maps on the conditioning set.
    /// `lambda` must be positive, which guarantees positive-definiteness.
    pub fn ridge_solve(z: &Mat, t: &Mat, lambda: f64) -> Mat {
        assert!(lambda > 0.0, "ridge_solve: lambda must be positive");
        let mut ztz = z.gram();
        // order: single ridge add per diagonal cell, after the gram sums.
        for i in 0..ztz.rows {
            ztz[(i, i)] += lambda;
        }
        let ztt = z.t_matmul(t);
        ztz.solve_spd(&ztt)
            .expect("ridge_solve: ZᵀZ + λI must be positive definite")
    }
}

impl std::ops::Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols, "Mat index out of range");
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols, "Mat index out of range");
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;

    #[test]
    fn matmul_known_product() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Mat::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Mat::from_rows(&[&[1.0, -2.0, 0.5], &[3.5, 4.0, -1.0]]);
        assert_eq!(a.matmul(&Mat::eye(3)), a);
        assert_eq!(Mat::eye(2).matmul(&a), a);
    }

    #[test]
    fn t_matmul_equals_explicit_transpose() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Mat::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 1.0, 1.0], &[1.0, 1.0, 0.0]]);
        assert_eq!(a.t_matmul(&b), a.t().matmul(&b));
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_shape_mismatch_panics() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_involution() {
        let a = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.t().t(), a);
    }

    #[test]
    fn cholesky_recomposes() {
        // SPD matrix
        let a = Mat::from_rows(&[&[4.0, 2.0, 0.6], &[2.0, 5.0, 1.0], &[0.6, 1.0, 3.0]]);
        let l = a.cholesky().expect("SPD");
        let recon = l.matmul(&l.t());
        for i in 0..3 {
            for j in 0..3 {
                assert_close!(recon[(i, j)], a[(i, j)], 1e-12);
            }
        }
        // Strictly lower triangular above diagonal must be zero.
        assert_eq!(l[(0, 1)], 0.0);
        assert_eq!(l[(0, 2)], 0.0);
        assert_eq!(l[(1, 2)], 0.0);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(a.cholesky().is_none());
    }

    #[test]
    fn solve_spd_solves() {
        let a = Mat::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let b = Mat::from_rows(&[&[1.0], &[2.0]]);
        let x = a.solve_spd(&b).unwrap();
        let ax = a.matmul(&x);
        assert_close!(ax[(0, 0)], 1.0, 1e-12);
        assert_close!(ax[(1, 0)], 2.0, 1e-12);
    }

    #[test]
    fn ridge_solve_shrinks_towards_zero() {
        // With huge lambda the solution goes to ~0; with tiny lambda it
        // approaches the least-squares solution of a well-posed system.
        let z = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let t = Mat::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let w_small = Mat::ridge_solve(&z, &t, 1e-9);
        let w_big = Mat::ridge_solve(&z, &t, 1e9);
        assert_close!(w_small[(0, 0)], 1.0, 1e-5);
        assert_close!(w_small[(1, 0)], 2.0, 1e-5);
        assert!(w_big[(0, 0)].abs() < 1e-6);
        assert!(w_big[(1, 0)].abs() < 1e-6);
    }

    #[test]
    fn col_means_and_centering() {
        let mut a = Mat::from_rows(&[&[1.0, 10.0], &[3.0, 20.0]]);
        let means = a.center_cols();
        assert_eq!(means, vec![2.0, 15.0]);
        assert_eq!(a, Mat::from_rows(&[&[-1.0, -5.0], &[1.0, 5.0]]));
        assert_eq!(a.col_means(), vec![0.0, 0.0]);
    }

    #[test]
    fn cross_cov_of_identical_columns_is_variance() {
        let x = Mat::from_rows(&[&[1.0], &[2.0], &[3.0], &[4.0]]);
        let c = Mat::cross_cov(&x, &x);
        // population variance of {1,2,3,4} = 1.25
        assert_close!(c[(0, 0)], 1.25, 1e-12);
    }

    #[test]
    fn cross_cov_independent_columns_near_zero() {
        // Orthogonal patterns -> zero covariance.
        let x = Mat::from_rows(&[&[1.0], &[-1.0], &[1.0], &[-1.0]]);
        let y = Mat::from_rows(&[&[1.0], &[1.0], &[-1.0], &[-1.0]]);
        let c = Mat::cross_cov(&x, &y);
        assert_close!(c[(0, 0)], 0.0, 1e-12);
    }

    #[test]
    fn frob_and_trace() {
        let a = Mat::from_rows(&[&[3.0, 0.0], &[4.0, 1.0]]);
        assert_close!(a.frob_sq(), 26.0, 1e-12);
        assert_close!(a.trace(), 4.0, 1e-12);
    }

    /// Deterministic pseudorandom matrix with a sprinkling of exact zeros,
    /// so the zero-skip path is exercised.
    fn pseudo_mat(rows: usize, cols: usize, seed: u64) -> Mat {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let data = (0..rows * cols)
            .map(|_| {
                let r = next();
                if r % 7 == 0 {
                    0.0
                } else {
                    (r % 2001) as f64 / 1000.0 - 1.0
                }
            })
            .collect();
        Mat::from_vec(rows, cols, data)
    }

    fn assert_bits_eq(a: &Mat, b: &Mat) {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn blocked_matmul_bit_identical_to_naive() {
        // Shapes straddling the JB/IB/KB tile sizes, including
        // non-multiples and shared dimensions deeper than one KB block.
        for &(n, k, m, seed) in &[
            (3, 5, 4, 1u64),
            (65, 33, 129, 2),
            (70, 40, 300, 3),
            (128, 64, 256, 4),
            (1, 200, 257, 5),
            (64, 256, 129, 6),
            (70, 300, 200, 7),
            (129, 513, 257, 8),
        ] {
            let a = pseudo_mat(n, k, seed);
            let b = pseudo_mat(k, m, seed + 100);
            assert_bits_eq(&a.matmul(&b), &a.matmul_naive(&b));
        }
    }

    #[test]
    fn blocked_t_matmul_bit_identical_to_naive() {
        // `p` spans scalar to above the IB output-row block, including
        // non-multiples, so every tile edge of the two-axis blocking is hit.
        for &(n, p, m, seed) in &[
            (5, 3, 4, 11u64),
            (200, 17, 129, 12),
            (333, 25, 300, 13),
            (64, 128, 256, 14),
            (100, 64, 129, 15),
            (150, 65, 200, 16),
            (333, 200, 257, 17),
        ] {
            let a = pseudo_mat(n, p, seed);
            let b = pseudo_mat(n, m, seed + 100);
            assert_bits_eq(&a.t_matmul(&b), &a.t_matmul_naive(&b));
        }
    }

    #[test]
    fn gram_bit_identical_to_t_matmul_naive() {
        // pseudo_mat plants exact zeros (~1/7 of entries), exercising the
        // asymmetric zero-skip the mirror argument has to survive, at
        // shapes from scalar to wider-than-tile.
        for &(n, p, seed) in &[
            (1, 1, 31u64),
            (7, 3, 32),
            (200, 17, 33),
            (333, 25, 34),
            (64, 140, 35),
        ] {
            let a = pseudo_mat(n, p, seed);
            assert_bits_eq(&a.gram(), &a.t_matmul_naive(&a));
        }
    }

    #[test]
    fn naive_toggle_routes_both_products() {
        let a = pseudo_mat(40, 20, 21);
        let b = pseudo_mat(20, 150, 22);
        let c = pseudo_mat(40, 150, 23);
        let blocked = (a.matmul(&b), a.t_matmul(&c), a.gram());
        set_naive_kernels(true);
        let naive = (a.matmul(&b), a.t_matmul(&c), a.gram());
        set_naive_kernels(false);
        assert_bits_eq(&blocked.0, &naive.0);
        assert_bits_eq(&blocked.1, &naive.1);
        assert_bits_eq(&blocked.2, &naive.2);
    }

    #[test]
    fn add_sub_scale_roundtrip() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[0.5, 0.5], &[0.5, 0.5]]);
        assert_eq!(a.add(&b).sub(&b), a);
        assert_eq!(a.scale(2.0).scale(0.5), a);
    }
}
