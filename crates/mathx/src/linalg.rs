//! Dense row-major matrix with the handful of operations the workspace
//! needs: products, Cholesky factorization, SPD solves (plain and ridge),
//! column means, and column centering.
//!
//! This is deliberately not a general linear-algebra library — it exists so
//! the RCIT conditional-independence test and the logistic-regression IRLS
//! step have exactly the kernels they need, with no `unsafe` and no
//! dependencies.
//!
//! [`Mat::matmul`] and [`Mat::t_matmul`] are plain loops: each output cell
//! sums its products in ascending order of the shared index, from +0.0,
//! skipping a zero left factor.
//!
//! [`ridge_residuals`] is Fisher-z's residualization. It computes the same
//! sums as the `Mat` route (design matrix, [`Mat::ridge_solve`],
//! [`Mat::matmul`]) in the same order, straight from the columns and
//! without building any matrix of `n` rows.

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

    /// Matrix product `self * rhs`: the i-k-j triple loop, so each output
    /// cell sums its products in ascending `k` from +0.0, skipping a zero
    /// left factor.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Mat) -> Mat {
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
                // order: k ascending per out cell.
                for (o, &r) in orow.iter_mut().zip(rrow) {
                    *o += a * r;
                }
            }
        }
        out
    }

    /// `selfᵀ * rhs` without materializing the transpose: one pass over the
    /// shared row dimension, so each output cell sums its products in
    /// ascending row order from +0.0, skipping a zero left factor.
    ///
    /// # Panics
    /// Panics on row-count mismatch.
    pub fn t_matmul(&self, rhs: &Mat) -> Mat {
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
                // order: shared row dimension r ascending per out cell.
                for (o, &v) in orow.iter_mut().zip(rrow) {
                    *o += l * v;
                }
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

    /// Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite
    /// matrix; returns lower-triangular `L`, or `None` if the matrix is not
    /// (numerically) positive definite.
    pub fn cholesky(&self) -> Option<Mat> {
        let (l, kept) = self.cholesky_kept();
        (kept.len() == self.rows).then_some(l)
    }

    /// Cholesky factorization that drops, in order, each column whose
    /// pivot is non-positive given the columns kept before it. Returns the
    /// kept column indices and `L` over them: entry `(p, q)` of `L` pairs
    /// the `p`-th and `q`-th kept columns, and only the leading
    /// `kept.len()` square block is meaningful. When nothing is dropped
    /// this is the plain Cholesky factor, computed in the same order.
    fn cholesky_kept(&self) -> (Mat, Vec<usize>) {
        assert_eq!(self.rows, self.cols, "cholesky: non-square");
        let n = self.rows;
        let mut l = Mat::zeros(n, n);
        let mut kept = Vec::with_capacity(n);
        for i in 0..n {
            // Row `p` of `L` belongs to column `i` if its pivot survives; a
            // dropped candidate's partial row is overwritten by the next.
            let p = kept.len();
            for (q, &j) in kept.iter().enumerate() {
                let mut sum = self[(i, j)];
                for k in 0..q {
                    sum -= l[(p, k)] * l[(q, k)];
                }
                l[(p, q)] = sum / l[(q, q)];
            }
            let mut sum = self[(i, i)];
            for k in 0..p {
                sum -= l[(p, k)] * l[(p, k)];
            }
            if sum <= 0.0 {
                continue;
            }
            l[(p, p)] = sum.sqrt();
            kept.push(i);
        }
        (l, kept)
    }

    /// Solve `A X = B` for SPD `A` (self) via Cholesky. Returns `None` when
    /// `A` is not positive definite.
    pub fn solve_spd(&self, b: &Mat) -> Option<Mat> {
        assert_eq!(self.rows, b.rows, "solve_spd: dimension mismatch");
        let (l, kept) = self.cholesky_kept();
        (kept.len() == self.rows).then(|| Self::substitute(&l, &kept, b))
    }

    /// Solve `A X = B` for symmetric `A` (self), dropping each column whose
    /// Cholesky pivot is non-positive given the columns kept before it
    /// (see [`Mat::cholesky_kept`]) and solving on the rest; the rows of
    /// `X` for dropped columns are zero. Where `A` is positive definite
    /// nothing is dropped and the result is bit-identical to
    /// [`Mat::solve_spd`].
    fn solve_spd_dropping(&self, b: &Mat) -> Mat {
        assert_eq!(self.rows, b.rows, "solve_spd: dimension mismatch");
        let (l, kept) = self.cholesky_kept();
        Self::substitute(&l, &kept, b)
    }

    /// Forward then back substitution through the factor of
    /// [`Mat::cholesky_kept`], on the rows of `b` it kept.
    fn substitute(l: &Mat, kept: &[usize], b: &Mat) -> Mat {
        let k = kept.len();
        let m = b.cols;
        // Forward substitution: L Y = B
        let mut y = Mat::zeros(k, m);
        for (p, &i) in kept.iter().enumerate() {
            for c in 0..m {
                let mut v = b[(i, c)];
                for q in 0..p {
                    v -= l[(p, q)] * y[(q, c)];
                }
                y[(p, c)] = v / l[(p, p)];
            }
        }
        // Back substitution: Lᵀ X = Y
        for p in (0..k).rev() {
            for c in 0..m {
                let mut v = y[(p, c)];
                for q in p + 1..k {
                    v -= l[(q, p)] * y[(q, c)];
                }
                y[(p, c)] = v / l[(p, p)];
            }
        }
        if k == b.rows {
            return y;
        }
        let mut x = Mat::zeros(b.rows, m);
        for (p, &i) in kept.iter().enumerate() {
            x.row_mut(i).copy_from_slice(y.row(p));
        }
        x
    }

    /// Ridge-regularized least squares: returns `W` minimizing
    /// `‖Z W - T‖² + λ‖W‖²`, i.e. `W = (ZᵀZ + λI)⁻¹ ZᵀT`.
    ///
    /// Used by RCIT to residualize feature maps on the conditioning set.
    /// `lambda` must be positive, which guarantees positive-definiteness.
    pub fn ridge_solve(z: &Mat, t: &Mat, lambda: f64) -> Mat {
        assert!(lambda > 0.0, "ridge_solve: lambda must be positive");
        let mut ztz = z.t_matmul(z);
        // order: single ridge add per diagonal cell, after the product sums.
        for i in 0..ztz.rows {
            ztz[(i, i)] += lambda;
        }
        let ztt = z.t_matmul(t);
        ztz.solve_spd(&ztt)
            .expect("ridge_solve: ZᵀZ + λI must be positive definite")
    }
}

/// Ridge least-squares residuals of each `targets` column on an intercept
/// plus the `zcols` columns: with the design `D = [1 Z]`,
/// `rᶜ = tᶜ − D wᶜ` where `W = (DᵀD + λI)⁻¹ DᵀT`. Returns one residual
/// vector per target, in order.
///
/// Bit-identical on finite input, wherever that route does not panic, to
/// building the row-major `n × (|Z|+1)` design and computing
/// `Mat::ridge_solve(&D, &T, lambda)` then `t − D.matmul(&W)` column by
/// column. Every cell of `DᵀD` and `DᵀT` is the same ordered dot product
/// of two columns as in [`Mat::t_matmul`] and every fitted value the same
/// ordered sum over the design columns as in [`Mat::matmul`]; only the
/// loops around those sums move, so the work reads the columns where they
/// lie and no design, right-hand-side or fitted matrix is built. `DᵀD` is
/// summed on and above the diagonal and mirrored, which is exact: cell
/// `(j, i)` sums the products of cell `(i, j)` with their factors
/// commuted. The row-major kernels skip a zero left factor, where these
/// add its product: that is ±0.0 whenever the right factor is finite, and
/// adding ±0.0 leaves a sum that starts at +0.0 unchanged (such a sum is
/// never −0.0).
///
/// Where a value is NaN or ±∞ the two routes differ only inside residual
/// vectors that are non-finite in both: a non-finite conditioning value
/// makes every weight NaN, and a non-finite target or weight makes that
/// target's intercept weight, and with it every fitted value of the
/// target, non-finite.
///
/// Where `DᵀD + λI` is not numerically positive definite — collinear
/// columns at a scale where `λ` is below the rounding error of the sums —
/// the solve drops, in order, each design column whose pivot is
/// non-positive given the columns kept before it, and dropped columns get
/// weight 0; where nothing is dropped the solve is [`Mat::solve_spd`]'s.
///
/// # Panics
/// Panics when `lambda` is not positive or the columns differ in length.
pub fn ridge_residuals(zcols: &[&[f64]], targets: &[&[f64]], lambda: f64) -> Vec<Vec<f64>> {
    assert!(lambda > 0.0, "ridge_residuals: lambda must be positive");
    let n = targets.first().map_or(0, |t| t.len());
    assert!(
        zcols.iter().chain(targets).all(|c| c.len() == n),
        "ridge_residuals: columns differ in length"
    );
    let ones = vec![1.0; n];
    let design: Vec<&[f64]> = std::iter::once(ones.as_slice())
        .chain(zcols.iter().copied())
        .collect();
    let (p, m) = (design.len(), targets.len());
    let mut gram = Mat::zeros(p, p);
    let mut dt = Mat::zeros(p, m);
    let mut dots = vec![0.0; p + m];
    let mut right: Vec<&[f64]> = Vec::with_capacity(p + m);
    for (i, &left) in design.iter().enumerate() {
        right.clear();
        right.extend(design[i..].iter().chain(targets));
        let dots = &mut dots[..right.len()];
        column_dots(left, &right, dots);
        gram.row_mut(i)[i..].copy_from_slice(&dots[..p - i]);
        dt.row_mut(i).copy_from_slice(&dots[p - i..]);
    }
    // Cell `(i, j)` below the diagonal sums the products of cell `(j, i)`
    // with their factors commuted, so the mirror is exact.
    for i in 0..p {
        for j in 0..i {
            gram[(i, j)] = gram[(j, i)];
        }
    }
    // order: single ridge add per diagonal cell, after the gram sums.
    for i in 0..p {
        gram[(i, i)] += lambda;
    }
    let w = gram.solve_spd_dropping(&dt);
    fit_residuals(&design, targets, &w)
}

/// Row-chunk height of [`fit_residuals`]: one chunk of every design column
/// and the fitted buffer stay cache-resident while each target's weights
/// are applied.
const FIT_ROWS: usize = 256;

/// `out[j] = Σ_r left[r] · right[j][r]` for every right column, eight
/// columns at a time, then four, then one: the left value is loaded once
/// per row and each column sums in its own register.
fn column_dots(left: &[f64], right: &[&[f64]], out: &mut [f64]) {
    let mut j = 0;
    while j + 8 <= right.len() {
        let block: [&[f64]; 8] = right[j..j + 8].try_into().expect("eight columns");
        out[j..j + 8].copy_from_slice(&dot_block(left, block));
        j += 8;
    }
    if j + 4 <= right.len() {
        let block: [&[f64]; 4] = right[j..j + 4].try_into().expect("four columns");
        out[j..j + 4].copy_from_slice(&dot_block(left, block));
        j += 4;
    }
    for (o, &col) in out[j..].iter_mut().zip(&right[j..]) {
        *o = dot_block(left, [col])[0];
    }
}

/// `W` dot products of `left` against `right`, in `W` independent
/// accumulators.
#[inline(always)]
fn dot_block<const W: usize>(left: &[f64], right: [&[f64]; W]) -> [f64; W] {
    let right = right.map(|c| &c[..left.len()]);
    let mut acc = [0.0f64; W];
    for (r, &l) in left.iter().enumerate() {
        // order: rows ascending from +0.0 per accumulator — the per-cell
        // order of `Mat::t_matmul`; the accumulators are independent
        // cells, never partial sums of one cell.
        for (a, col) in acc.iter_mut().zip(&right) {
            *a += l * col[r];
        }
    }
    acc
}

/// `tᶜ − D wᶜ` for every target `c`, a chunk of [`FIT_ROWS`] rows at a
/// time.
fn fit_residuals(design: &[&[f64]], targets: &[&[f64]], w: &Mat) -> Vec<Vec<f64>> {
    let n = targets.first().map_or(0, |t| t.len());
    let mut out: Vec<Vec<f64>> = targets.iter().map(|_| vec![0.0; n]).collect();
    let mut buf = [0.0f64; FIT_ROWS];
    for start in (0..n).step_by(FIT_ROWS) {
        let end = (start + FIT_ROWS).min(n);
        let fitted = &mut buf[..end - start];
        for (c, (t, res)) in targets.iter().zip(&mut out).enumerate() {
            fitted.fill(0.0);
            for (d, col) in design.iter().enumerate() {
                let wd = w[(d, c)];
                // order: design columns ascending from +0.0 per fitted
                // cell — the per-cell order of `Mat::matmul`. The
                // loop runs across rows, so it vectorizes without
                // reordering any cell's sum.
                for (f, &x) in fitted.iter_mut().zip(&col[start..end]) {
                    *f += x * wd;
                }
            }
            for ((r, &tv), &f) in res[start..end]
                .iter_mut()
                .zip(&t[start..end])
                .zip(fitted.iter())
            {
                *r = tv - f;
            }
        }
    }
    out
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
    fn frob_and_trace() {
        let a = Mat::from_rows(&[&[3.0, 0.0], &[4.0, 1.0]]);
        assert_close!(a.frob_sq(), 26.0, 1e-12);
        assert_close!(a.trace(), 4.0, 1e-12);
    }

    #[test]
    fn add_sub_scale_roundtrip() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[0.5, 0.5], &[0.5, 0.5]]);
        assert_eq!(a.add(&b).sub(&b), a);
        assert_eq!(a.scale(2.0).scale(0.5), a);
    }
}
