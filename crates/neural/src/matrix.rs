//! A dense row-major `f64` matrix with exactly the operations backprop and
//! the crossbar mapping need.

use std::fmt;
use std::ops::{Index, IndexMut};

use prng::Rng;

/// A dense `rows × cols` matrix of `f64`, stored row-major.
///
/// ```
/// use neural::Matrix;
///
/// let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// assert_eq!(m[(0, 1)], 2.0);
/// assert_eq!(m.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(
            rows > 0 && cols > 0,
            "matrix dimensions must be nonzero: {rows}×{cols}"
        );
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build a matrix from nested row vectors.
    ///
    /// # Panics
    ///
    /// Panics if the rows are empty or ragged.
    #[must_use]
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(
            !rows.is_empty() && !rows[0].is_empty(),
            "matrix must be non-empty"
        );
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), cols, "row {i} has inconsistent length");
            data.extend_from_slice(row);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Build a matrix by evaluating `f(row, col)` at every position.
    #[must_use]
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = f(r, c);
            }
        }
        m
    }

    /// A matrix of i.i.d. uniform samples in `[-limit, limit)` — used for
    /// Xavier/Glorot initialization.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is negative or non-finite.
    #[must_use]
    pub fn random_uniform<R: Rng + ?Sized>(
        rows: usize,
        cols: usize,
        limit: f64,
        rng: &mut R,
    ) -> Self {
        assert!(
            limit >= 0.0 && limit.is_finite(),
            "init limit must be finite and non-negative"
        );
        Self::from_fn(rows, cols, |_, _| rng.gen_range(-limit..=limit))
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// A view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A mutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub(crate) fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row {r} out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The `cols × rows` transpose.
    #[must_use]
    pub(crate) fn transpose(&self) -> Matrix {
        Self::from_fn(self.cols, self.rows, |r, c| self.data[c * self.cols + r])
    }

    /// Flat read-only access to the storage (row-major).
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Flat mutable access to the storage (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// `y = A·x` (length `rows`).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    #[must_use]
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// `y ← A·x` into a caller-provided buffer — the allocation-free form
    /// of [`matvec`](Self::matvec), same arithmetic.
    ///
    /// Each `y[r]` is one dot product summed in ascending column order from
    /// `+0.0`. Four rows run interleaved, so four independent add chains
    /// overlap instead of one chain's latency bounding the loop; the order
    /// within each row, and with it every bit, is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `y.len() != rows`.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        assert_eq!(y.len(), self.rows, "matvec output length mismatch");
        dot_rows(&self.data, x, y);
    }

    /// `y = Aᵀ·x` (length `cols`) without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows`.
    #[must_use]
    pub fn matvec_transpose(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.cols];
        self.matvec_transpose_into(x, &mut y);
        y
    }

    /// `y ← Aᵀ·x` into a caller-provided buffer — the allocation-free form
    /// of [`matvec_transpose`](Self::matvec_transpose), same arithmetic.
    ///
    /// An axpy over the rows of `A` that skips every row whose `x[r]` is
    /// zero. On finite data the skip is exact: each `y[c]` starts at `+0.0`
    /// and sums its terms in ascending `r`, such a sum is never `−0.0`, and
    /// adding the skipped `±0.0` term would leave it unchanged. So `y[c]`
    /// has the bits of the dot product `Σ_r A[r][c]·x[r]` that
    /// [`matvec_into`](Self::matvec_into) computes on the transpose of `A`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows` or `y.len() != cols`.
    pub fn matvec_transpose_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "transpose matvec dimension mismatch");
        assert_eq!(
            y.len(),
            self.cols,
            "transpose matvec output length mismatch"
        );
        y.fill(0.0);
        axpy_rows(&self.data, x, y);
    }

    /// Rank-1 update `A += α·u·vᵀ` — the weight-gradient accumulation of
    /// backprop.
    ///
    /// Skips every row whose `α·u[r]` is zero. On finite data the skip is
    /// exact as long as `A` holds no `−0.0` — true of any accumulator that
    /// starts at `+0.0` and only ever adds — so the result has the bits of
    /// the branch-free update.
    ///
    /// # Panics
    ///
    /// Panics if `u.len() != rows` or `v.len() != cols`.
    #[allow(clippy::needless_range_loop)] // row-major kernel: indexing is the clear form
    pub fn add_outer(&mut self, alpha: f64, u: &[f64], v: &[f64]) {
        assert_eq!(u.len(), self.rows, "outer-product row dimension mismatch");
        assert_eq!(
            v.len(),
            self.cols,
            "outer-product column dimension mismatch"
        );
        for r in 0..self.rows {
            let s = alpha * u[r];
            if s == 0.0 {
                continue;
            }
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (a, b) in row.iter_mut().zip(v) {
                *a += s * b;
            }
        }
    }

    /// Fused rank-1 update `A += α·u·vᵀ` with **no** zero-skip branch:
    /// for a dense `u`, where [`add_outer`](Self::add_outer)'s sparsity
    /// test would only mispredict. Identical results on finite data
    /// (skipping a `0.0·v` contribution equals adding it).
    ///
    /// # Panics
    ///
    /// Panics if `u.len() != rows` or `v.len() != cols`.
    pub fn rank_one_add(&mut self, alpha: f64, u: &[f64], v: &[f64]) {
        assert_eq!(u.len(), self.rows, "rank-1 row dimension mismatch");
        assert_eq!(v.len(), self.cols, "rank-1 column dimension mismatch");
        for (row, &ur) in self.data.chunks_exact_mut(self.cols).zip(u) {
            let s = alpha * ur;
            for (a, b) in row.iter_mut().zip(v) {
                *a += s * b;
            }
        }
    }

    /// `A += α·B` element-wise.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_scaled(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Multiply every element by `alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Set every element to zero.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Largest absolute element (zero for the zero matrix).
    #[must_use]
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
    }

    /// Copy out nested row vectors (the format the crossbar mapping takes).
    #[must_use]
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        (0..self.rows).map(|r| self.row(r).to_vec()).collect()
    }
}

/// `y[r] ← rows[r]·x` for the row-major `rows` (`x.len()` wide): each dot
/// product summed in ascending column order from `+0.0`, four rows
/// interleaved so four independent add chains overlap.
pub(crate) fn dot_rows(rows: &[f64], x: &[f64], y: &mut [f64]) {
    let n = x.len();
    debug_assert_eq!(rows.len(), n * y.len());
    let mut blocks = rows.chunks_exact(4 * n);
    let mut out = y.chunks_exact_mut(4);
    for (block, ys) in (&mut blocks).zip(&mut out) {
        let (r0, rest) = block.split_at(n);
        let (r1, rest) = rest.split_at(n);
        let (r2, r3) = rest.split_at(n);
        let mut acc = [0.0f64; 4];
        for c in 0..n {
            let xc = x[c];
            acc[0] += r0[c] * xc;
            acc[1] += r1[c] * xc;
            acc[2] += r2[c] * xc;
            acc[3] += r3[c] * xc;
        }
        ys.copy_from_slice(&acc);
    }
    for (row, yr) in blocks.remainder().chunks_exact(n).zip(out.into_remainder()) {
        let mut acc = 0.0;
        for (a, b) in row.iter().zip(x) {
            acc += a * b;
        }
        *yr = acc;
    }
}

/// `y += Σ_r x[r]·rows[r]` over the row-major `rows` (`y.len()` wide), in
/// ascending `r`, skipping every row whose `x[r]` is zero.
pub(crate) fn axpy_rows(rows: &[f64], x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(rows.len(), x.len() * y.len());
    for (row, &xr) in rows.chunks_exact(y.len()).zip(x) {
        if xr == 0.0 {
            continue;
        }
        for (yc, a) in y.iter_mut().zip(row) {
            *yc += a * xr;
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}×{} matrix:", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:8.4}", self[(r, c)])?;
            }
            writeln!(f, "{}]", if self.cols > 8 { ", …" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prng::rngs::StdRng;
    use prng::SeedableRng;

    #[test]
    fn zeros_has_right_shape() {
        let m = Matrix::zeros(2, 3);
        assert_eq!((m.rows(), m.cols()), (2, 3));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "dimensions must be nonzero")]
    fn zeros_rejects_zero_dim() {
        let _ = Matrix::zeros(0, 3);
    }

    #[test]
    #[should_panic(expected = "inconsistent length")]
    fn from_rows_rejects_ragged() {
        let _ = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn indexing_round_trips() {
        let mut m = Matrix::zeros(2, 2);
        m[(1, 0)] = 5.0;
        assert_eq!(m[(1, 0)], 5.0);
        assert_eq!(m.row(1), &[5.0, 0.0]);
    }

    #[test]
    fn matvec_and_transpose_agree_with_manual() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(m.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
        assert_eq!(m.matvec_transpose(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn transpose_matvec_is_adjoint() {
        // ⟨A x, y⟩ == ⟨x, Aᵀ y⟩ for specific vectors.
        let m = Matrix::from_rows(&[vec![1.0, -2.0], vec![0.5, 3.0], vec![2.0, 2.0]]);
        let x = [0.3, -0.7];
        let y = [1.0, 2.0, -1.0];
        let ax = m.matvec(&x);
        let aty = m.matvec_transpose(&y);
        let lhs: f64 = ax.iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f64 = x.iter().zip(&aty).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn add_outer_matches_manual_rank1() {
        let mut m = Matrix::zeros(2, 3);
        m.add_outer(2.0, &[1.0, -1.0], &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(0), &[2.0, 4.0, 6.0]);
        assert_eq!(m.row(1), &[-2.0, -4.0, -6.0]);
    }

    #[test]
    fn rank_one_add_matches_naive_outer_product_loop() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut m = Matrix::random_uniform(5, 7, 1.0, &mut rng);
        let naive_base = m.clone();
        let u: Vec<f64> = (0..5).map(|i| (i as f64 - 2.0) * 0.7).collect(); // includes u[2] == 0
        let v: Vec<f64> = (0..7).map(|i| (i as f64 * 1.3).sin()).collect();
        let alpha = -0.35;
        m.rank_one_add(alpha, &u, &v);
        let mut naive = naive_base.clone();
        for r in 0..5 {
            for c in 0..7 {
                naive[(r, c)] += alpha * u[r] * v[c];
            }
        }
        for r in 0..5 {
            for c in 0..7 {
                assert!(
                    (m[(r, c)] - naive[(r, c)]).abs() < 1e-15,
                    "({r},{c}): {} vs {}",
                    m[(r, c)],
                    naive[(r, c)]
                );
            }
        }
        // And bit-identical to the branchy add_outer on the same inputs.
        let mut branchy = naive_base;
        branchy.add_outer(alpha, &u, &v);
        assert_eq!(m.as_slice(), branchy.as_slice());
    }

    #[test]
    fn add_outer_matches_naive_outer_product_loop_bitwise() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut m = Matrix::random_uniform(5, 7, 1.0, &mut rng);
        let mut naive = m.clone();
        let u: Vec<f64> = (0..5).map(|i| (i as f64 - 2.0) * 0.7).collect(); // includes u[2] == 0
        let v: Vec<f64> = (0..7).map(|i| (i as f64 * 1.3).sin()).collect();
        let alpha = -0.35;
        m.add_outer(alpha, &u, &v);
        for r in 0..5 {
            for c in 0..7 {
                naive[(r, c)] += alpha * u[r] * v[c];
            }
        }
        assert_eq!(m.as_slice(), naive.as_slice());
    }

    #[test]
    fn transposed_kernels_match_row_major_kernels_bitwise() {
        // The trainer keeps weights input-major: Wᵀ·x by axpy with
        // zero skip must equal W·x by dot products, and Wᵀ's dot
        // products must equal W's transposed axpy, bit for bit.
        let mut rng = StdRng::seed_from_u64(23);
        let w = Matrix::random_uniform(6, 9, 1.5, &mut rng);
        let wt = w.transpose();
        assert_eq!(wt.transpose(), w);
        assert_eq!((wt.rows(), wt.cols()), (9, 6));
        let x: Vec<f64> = (0..9)
            .map(|i| if i % 3 == 0 { 0.0 } else { (i as f64).cos() })
            .collect();
        assert_eq!(w.matvec(&x), wt.matvec_transpose(&x));
        let d: Vec<f64> = (0..6).map(|i| (i as f64 * 0.7).sin() - 0.2).collect();
        assert_eq!(w.matvec_transpose(&d), wt.matvec(&d));
        // Gradient accumulation: Gᵀ += a·δᵀ is G += δ·aᵀ transposed.
        let mut g = Matrix::zeros(6, 9);
        let mut gt = Matrix::zeros(9, 6);
        g.add_outer(1.0, &d, &x);
        gt.add_outer(1.0, &x, &d);
        assert_eq!(g.transpose(), gt);
    }

    #[test]
    fn into_variants_match_allocating_kernels_bitwise() {
        let mut rng = StdRng::seed_from_u64(17);
        let m = Matrix::random_uniform(4, 6, 2.0, &mut rng);
        let x: Vec<f64> = (0..6).map(|i| i as f64 * 0.25 - 0.7).collect();
        let mut y = vec![f64::NAN; 4]; // stale contents must be overwritten
        m.matvec_into(&x, &mut y);
        assert_eq!(y, m.matvec(&x));
        let t = [0.5, 0.0, -1.25, 2.0];
        let mut yt = vec![f64::NAN; 6];
        m.matvec_transpose_into(&t, &mut yt);
        assert_eq!(yt, m.matvec_transpose(&t));
    }

    #[test]
    #[should_panic(expected = "matvec output length mismatch")]
    fn matvec_into_rejects_wrong_output_length() {
        let m = Matrix::zeros(2, 3);
        let mut y = vec![0.0; 3];
        m.matvec_into(&[0.0; 3], &mut y);
    }

    #[test]
    fn add_scaled_and_scale() {
        let mut a = Matrix::from_rows(&[vec![1.0, 1.0]]);
        let b = Matrix::from_rows(&[vec![2.0, -2.0]]);
        a.add_scaled(0.5, &b);
        assert_eq!(a.row(0), &[2.0, 0.0]);
        a.scale(2.0);
        assert_eq!(a.row(0), &[4.0, 0.0]);
        a.fill_zero();
        assert_eq!(a.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn max_abs_finds_extreme() {
        let m = Matrix::from_rows(&[vec![1.0, -7.0], vec![3.0, 2.0]]);
        assert_eq!(m.max_abs(), 7.0);
    }

    #[test]
    fn random_uniform_respects_limit() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = Matrix::random_uniform(10, 10, 0.3, &mut rng);
        assert!(m.as_slice().iter().all(|v| v.abs() <= 0.3));
        // Not all identical (i.e., actually random).
        assert!(m.as_slice().windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn to_rows_round_trips() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        assert_eq!(Matrix::from_rows(&rows).to_rows(), rows);
    }

    #[test]
    fn display_is_nonempty_and_truncates() {
        let m = Matrix::zeros(10, 10);
        let s = format!("{m}");
        assert!(s.contains("10×10"));
        assert!(s.contains('…'));
    }
}
