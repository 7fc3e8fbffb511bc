//! Dense row-major tensors.
//!
//! The layer library operates on small 2-D matrices (token × feature) and, for the
//! convolutional baseline, 3-D `(height, width, channels)` volumes. [`Tensor`] stores
//! the data flat with an explicit shape and provides exactly the operations the
//! handwritten forward/backward passes need.

use crate::{NeuralError, NeuralResult};
use serde::{Deserialize, Serialize};

/// A dense row-major tensor of `f32` values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Tensor {
    /// Creates a zero-filled tensor with the given shape.
    ///
    /// # Panics
    ///
    /// Panics when the shape is empty or has a zero dimension.
    pub fn zeros(shape: &[usize]) -> Self {
        let numel = checked_numel(shape);
        Self { data: vec![0.0; numel], shape: shape.to_vec() }
    }

    /// Creates a tensor filled with a constant value.
    ///
    /// # Panics
    ///
    /// Panics when the shape is empty or has a zero dimension.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let numel = checked_numel(shape);
        Self { data: vec![value; numel], shape: shape.to_vec() }
    }

    /// Wraps an existing buffer.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::ShapeMismatch`] when the buffer length does not match the
    /// shape product.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> NeuralResult<Self> {
        let numel: usize = shape.iter().product();
        if shape.is_empty() || numel != data.len() {
            return Err(NeuralError::ShapeMismatch {
                expected: format!("{numel} values for shape {shape:?}"),
                actual: format!("{} values", data.len()),
            });
        }
        Ok(Self { data, shape: shape.to_vec() })
    }

    /// Shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Number of rows of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics when the tensor is not 2-D.
    pub fn rows(&self) -> usize {
        assert_eq!(self.shape.len(), 2, "rows() requires a 2-D tensor");
        self.shape[0]
    }

    /// Number of columns of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics when the tensor is not 2-D.
    pub fn cols(&self) -> usize {
        assert_eq!(self.shape.len(), 2, "cols() requires a 2-D tensor");
        self.shape[1]
    }

    /// Immutable flat view of the data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat view of the data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// 2-D element access.
    ///
    /// # Panics
    ///
    /// Panics on non-2-D tensors or out-of-range indices.
    #[inline]
    pub fn at(&self, row: usize, col: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 2);
        self.data[row * self.shape[1] + col]
    }

    /// Mutable 2-D element access.
    ///
    /// # Panics
    ///
    /// Panics on non-2-D tensors or out-of-range indices.
    #[inline]
    pub fn at_mut(&mut self, row: usize, col: usize) -> &mut f32 {
        debug_assert_eq!(self.shape.len(), 2);
        &mut self.data[row * self.shape[1] + col]
    }

    /// Returns a reshaped copy sharing the same element order.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::ShapeMismatch`] when the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> NeuralResult<Tensor> {
        let numel: usize = shape.iter().product();
        if numel != self.data.len() || shape.is_empty() {
            return Err(NeuralError::ShapeMismatch {
                expected: format!("{} elements", self.data.len()),
                actual: format!("shape {shape:?} with {numel}"),
            });
        }
        Ok(Tensor { data: self.data.clone(), shape: shape.to_vec() })
    }

    /// Matrix product of two 2-D tensors: `(n, k) × (k, m) → (n, m)`.
    ///
    /// Uses the cache-blocked, register-tiled kernel and splits output rows
    /// across [`runtime::default_threads`] worker threads when the product is
    /// large enough to amortise the spawns. Per-element accumulation order is
    /// fixed (ascending inner index), so results are bitwise identical for
    /// every thread count and match [`Tensor::matmul_naive`].
    ///
    /// # Example
    ///
    /// ```
    /// use neural::tensor::Tensor;
    ///
    /// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
    /// let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2])?;
    /// let c = a.matmul(&b);
    /// assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    /// # Ok::<(), neural::NeuralError>(())
    /// ```
    ///
    /// # Panics
    ///
    /// Panics when either tensor is not 2-D or the inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        self.matmul_with_threads(other, runtime::default_threads())
    }

    /// [`Tensor::matmul`] with an explicit worker-thread count (used by the
    /// determinism tests and benchmarks).
    ///
    /// # Panics
    ///
    /// Panics when either tensor is not 2-D or the inner dimensions differ.
    pub fn matmul_with_threads(&self, other: &Tensor, num_threads: usize) -> Tensor {
        assert_eq!(self.shape.len(), 2, "matmul: lhs must be 2-D");
        assert_eq!(other.shape.len(), 2, "matmul: rhs must be 2-D");
        let (n, k) = (self.shape[0], self.shape[1]);
        let (k2, m) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul: inner dimensions must agree ({k} vs {k2})");
        let mut out = Tensor::zeros(&[n, m]);
        // Below ~2^18 multiply-adds the spawn overhead outweighs the work.
        let threads = if n * k * m < (1 << 18) { 1 } else { num_threads };
        runtime::par_map_rows(&mut out.data, m, threads, |first_row, chunk| {
            matmul_row_block(&self.data, &other.data, chunk, first_row, k, m);
        });
        out
    }

    /// Reference scalar triple-loop matmul kept for equivalence tests and the
    /// before/after benchmarks (this was the shipping implementation before the
    /// blocked kernel).
    ///
    /// # Panics
    ///
    /// Panics when either tensor is not 2-D or the inner dimensions differ.
    pub fn matmul_naive(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "matmul: lhs must be 2-D");
        assert_eq!(other.shape.len(), 2, "matmul: rhs must be 2-D");
        let (n, k) = (self.shape[0], self.shape[1]);
        let (k2, m) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul: inner dimensions must agree ({k} vs {k2})");
        let mut out = Tensor::zeros(&[n, m]);
        for i in 0..n {
            for p in 0..k {
                let a = self.data[i * k + p];
                let row_other = &other.data[p * m..(p + 1) * m];
                let row_out = &mut out.data[i * m..(i + 1) * m];
                for (o, &b) in row_out.iter_mut().zip(row_other.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Transpose of a 2-D tensor (cache-blocked: both source and destination
    /// are walked in 32×32 tiles so neither side strides a whole row per
    /// element).
    ///
    /// # Panics
    ///
    /// Panics when the tensor is not 2-D.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "transpose requires a 2-D tensor");
        const TILE: usize = 32;
        let (n, m) = (self.shape[0], self.shape[1]);
        let mut out = Tensor::zeros(&[m, n]);
        for i0 in (0..n).step_by(TILE) {
            let i1 = (i0 + TILE).min(n);
            for j0 in (0..m).step_by(TILE) {
                let j1 = (j0 + TILE).min(m);
                for i in i0..i1 {
                    for j in j0..j1 {
                        out.data[j * n + i] = self.data[i * m + j];
                    }
                }
            }
        }
        out
    }

    /// Element-wise sum of two tensors of identical shape.
    ///
    /// # Panics
    ///
    /// Panics when the shapes differ.
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "add: shape mismatch");
        let data = self.data.iter().zip(other.data.iter()).map(|(a, b)| a + b).collect();
        Tensor { data, shape: self.shape.clone() }
    }

    /// Element-wise difference `self − other`.
    ///
    /// # Panics
    ///
    /// Panics when the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "sub: shape mismatch");
        let data = self.data.iter().zip(other.data.iter()).map(|(a, b)| a - b).collect();
        Tensor { data, shape: self.shape.clone() }
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics when the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "mul: shape mismatch");
        let data = self.data.iter().zip(other.data.iter()).map(|(a, b)| a * b).collect();
        Tensor { data, shape: self.shape.clone() }
    }

    /// Scales every element by `k`.
    pub fn scale(&self, k: f32) -> Tensor {
        Tensor { data: self.data.iter().map(|v| v * k).collect(), shape: self.shape.clone() }
    }

    /// Adds a row vector to every row of a 2-D tensor (bias broadcast).
    ///
    /// # Panics
    ///
    /// Panics when `bias` is not `[1, cols]`-shaped (or `[cols]`).
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "add_row_broadcast requires a 2-D tensor");
        let cols = self.shape[1];
        assert_eq!(bias.numel(), cols, "bias length must equal column count");
        let mut out = self.clone();
        for row in 0..self.shape[0] {
            for col in 0..cols {
                out.data[row * cols + col] += bias.data[col];
            }
        }
        out
    }

    /// Sums a 2-D tensor over its rows, producing a `[1, cols]` tensor (bias gradient).
    ///
    /// # Panics
    ///
    /// Panics when the tensor is not 2-D.
    pub fn sum_rows(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "sum_rows requires a 2-D tensor");
        let (n, m) = (self.shape[0], self.shape[1]);
        let mut out = Tensor::zeros(&[1, m]);
        for i in 0..n {
            for j in 0..m {
                out.data[j] += self.data[i * m + j];
            }
        }
        out
    }

    /// Extracts columns `[start, start + len)` of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics when the range is out of bounds.
    pub fn slice_cols(&self, start: usize, len: usize) -> Tensor {
        assert_eq!(self.shape.len(), 2, "slice_cols requires a 2-D tensor");
        let (n, m) = (self.shape[0], self.shape[1]);
        assert!(start + len <= m, "column slice out of range");
        let mut out = Tensor::zeros(&[n, len]);
        for i in 0..n {
            out.data[i * len..(i + 1) * len].copy_from_slice(&self.data[i * m + start..i * m + start + len]);
        }
        out
    }

    /// Writes `block` into columns `[start, start + block.cols())` of the tensor.
    ///
    /// # Panics
    ///
    /// Panics when shapes are incompatible.
    pub fn set_cols(&mut self, start: usize, block: &Tensor) {
        assert_eq!(self.shape.len(), 2, "set_cols requires a 2-D tensor");
        assert_eq!(block.shape.len(), 2);
        let (n, m) = (self.shape[0], self.shape[1]);
        let (bn, bm) = (block.shape[0], block.shape[1]);
        assert_eq!(n, bn, "row count mismatch");
        assert!(start + bm <= m, "column block out of range");
        for i in 0..n {
            self.data[i * m + start..i * m + start + bm].copy_from_slice(&block.data[i * bm..(i + 1) * bm]);
        }
    }

    /// Mean of all elements (0 for an empty tensor, which cannot be constructed).
    pub fn mean(&self) -> f32 {
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }

    /// Largest absolute element value.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// Sum of squared elements.
    pub fn sum_squares(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Applies a function element-wise, returning a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor { data: self.data.iter().map(|&v| f(v)).collect(), shape: self.shape.clone() }
    }

    /// Returns `true` if all elements are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

/// [`Tensor::matmul`] of a row-major slice `a` (`n × k`, with `k =
/// b.rows()`) into `out` (`n × m`), on the calling thread and without
/// allocating — for per-row forwards that keep their activations in reused
/// buffers. Same kernel, hence the same bits, as [`Tensor::matmul`].
///
/// # Panics
///
/// Panics when `b` is not 2-D, or when `a` and `out` do not hold the same
/// whole number of rows.
pub fn matmul_into(a: &[f32], b: &Tensor, out: &mut [f32]) {
    assert_eq!(b.shape.len(), 2, "matmul: rhs must be 2-D");
    let (k, m) = (b.shape[0], b.shape[1]);
    let n = out.len() / m;
    assert!(
        out.len() == n * m && a.len() == n * k,
        "matmul_into: {} lhs values and {} outputs do not fit a {k}x{m} rhs",
        a.len(),
        out.len()
    );
    matmul_row_block(a, &b.data, out, 0, k, m);
}

/// Fills `out` — the contiguous block of output rows starting at global row
/// `first_row` — with `A × B` for row-major `a` (`? × k`) and `b` (`k × m`).
///
/// The kernel is register-tiled: each `MR × NR` (8×32) tile of `C` is
/// accumulated entirely in registers over the full inner dimension before one
/// write-back, so the steady-state memory traffic per FMA is a single
/// streaming read of `B`. For every output element the additions happen in
/// ascending `p` order, keeping results bitwise identical to the naive triple
/// loop regardless of tiling, thread count, or `runtime::simd` dispatch tier:
/// the scalar tier runs the naive loop as the reference, while portable and
/// native run the tiled body (autovectorized for the build's target, with no
/// multiply-add fusion that could change rounding).
fn matmul_row_block(a: &[f32], b: &[f32], out: &mut [f32], first_row: usize, k: usize, m: usize) {
    match runtime::simd::mode() {
        runtime::simd::SimdMode::Scalar => matmul_row_block_scalar(a, b, out, first_row, k, m),
        runtime::simd::SimdMode::Portable | runtime::simd::SimdMode::Native => {
            matmul_row_block_body(a, b, out, first_row, k, m)
        }
    }
}

/// Naive ascending-`p` triple loop: the bitwise reference for the tiled body.
fn matmul_row_block_scalar(a: &[f32], b: &[f32], out: &mut [f32], first_row: usize, k: usize, m: usize) {
    let rows = out.len() / m.max(1);
    for r in 0..rows {
        let a_base = (first_row + r) * k;
        for j in 0..m {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[a_base + p] * b[p * m + j];
            }
            out[r * m + j] = acc;
        }
    }
}

/// Register-tile width (output columns per full-width micro-kernel call).
const NR: usize = 32;
/// Register-tile height (output rows per micro-kernel call).
const MR: usize = 8;

#[inline(always)]
fn matmul_row_block_body(a: &[f32], b: &[f32], out: &mut [f32], first_row: usize, k: usize, m: usize) {
    let rows = out.len() / m.max(1);
    let mut r = 0;
    while r + MR <= rows {
        column_tiles::<MR>(a, b, out, first_row + r, r, k, m);
        r += MR;
    }
    // Row remainder: single-row tiles.
    while r < rows {
        column_tiles::<1>(a, b, out, first_row + r, r, k, m);
        r += 1;
    }
}

/// Covers every output column of `R` rows with register tiles of constant
/// width: full `NR`-wide tiles, then the remainder as 16-, 8-, 4-, 2- and
/// 1-wide tiles, so the model's narrow layers (m = 2..16) also keep whole
/// output rows in registers.
#[inline(always)]
fn column_tiles<const R: usize>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    a_row: usize,
    out_row: usize,
    k: usize,
    m: usize,
) {
    let mut j0 = 0;
    while j0 + NR <= m {
        tile::<R, NR>(a, b, out, a_row, out_row, k, m, j0);
        j0 += NR;
    }
    if m - j0 >= 16 {
        tile::<R, 16>(a, b, out, a_row, out_row, k, m, j0);
        j0 += 16;
    }
    if m - j0 >= 8 {
        tile::<R, 8>(a, b, out, a_row, out_row, k, m, j0);
        j0 += 8;
    }
    if m - j0 >= 4 {
        tile::<R, 4>(a, b, out, a_row, out_row, k, m, j0);
        j0 += 4;
    }
    if m - j0 >= 2 {
        tile::<R, 2>(a, b, out, a_row, out_row, k, m, j0);
        j0 += 2;
    }
    if m - j0 == 1 {
        tile::<R, 1>(a, b, out, a_row, out_row, k, m, j0);
    }
}

/// One `R × W` tile of `C` at column `j0`, accumulated in registers over the
/// whole inner dimension before one write-back: per multiply-add the only
/// memory traffic is streaming `B`. Each output element adds its products
/// in ascending-`p` order from `0.0`, exactly like the scalar reference.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile<const R: usize, const W: usize>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    a_row: usize,
    out_row: usize,
    k: usize,
    m: usize,
    j0: usize,
) {
    let a_rows: [&[f32]; R] = std::array::from_fn(|q| &a[(a_row + q) * k..(a_row + q + 1) * k]);
    let mut acc = [[0.0f32; W]; R];
    for p in 0..k {
        let bvals: &[f32; W] = b[p * m + j0..p * m + j0 + W].try_into().unwrap();
        for (acc_row, a_row) in acc.iter_mut().zip(&a_rows) {
            let av = a_row[p];
            for (o, &bv) in acc_row.iter_mut().zip(bvals) {
                *o += av * bv;
            }
        }
    }
    for (q, acc_row) in acc.iter().enumerate() {
        let o = (out_row + q) * m + j0;
        out[o..o + W].copy_from_slice(acc_row);
    }
}

fn checked_numel(shape: &[usize]) -> usize {
    assert!(!shape.is_empty(), "Tensor shape must not be empty");
    assert!(shape.iter().all(|&d| d > 0), "Tensor dimensions must be nonzero");
    shape.iter().product()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_shape() {
        let t = Tensor::zeros(&[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.numel(), 6);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.cols(), 3);
        let f = Tensor::full(&[2], 1.5);
        assert_eq!(f.as_slice(), &[1.5, 1.5]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
        assert!(Tensor::from_vec(vec![], &[]).is_err());
    }

    #[test]
    fn matmul_known_result() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_with_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let eye = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
        assert_eq!(a.matmul(&eye), a);
        assert_eq!(eye.matmul(&a), a);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_dimension_mismatch_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let t = a.transpose();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.at(0, 1), 4.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, -1.0], &[2]).unwrap();
        assert_eq!(a.add(&b).as_slice(), &[4.0, 1.0]);
        assert_eq!(a.sub(&b).as_slice(), &[-2.0, 3.0]);
        assert_eq!(a.mul(&b).as_slice(), &[3.0, -2.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!(a.map(|v| v * v).as_slice(), &[1.0, 4.0]);
    }

    #[test]
    fn broadcast_and_row_sum() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let bias = Tensor::from_vec(vec![10.0, 20.0], &[1, 2]).unwrap();
        let y = x.add_row_broadcast(&bias);
        assert_eq!(y.as_slice(), &[11.0, 22.0, 13.0, 24.0]);
        let s = x.sum_rows();
        assert_eq!(s.shape(), &[1, 2]);
        assert_eq!(s.as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn column_slicing_and_setting() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let s = x.slice_cols(1, 2);
        assert_eq!(s.shape(), &[2, 2]);
        assert_eq!(s.as_slice(), &[2.0, 3.0, 5.0, 6.0]);
        let mut y = Tensor::zeros(&[2, 3]);
        y.set_cols(1, &s);
        assert_eq!(y.as_slice(), &[0.0, 2.0, 3.0, 0.0, 5.0, 6.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let r = x.reshape(&[4]).unwrap();
        assert_eq!(r.shape(), &[4]);
        assert_eq!(r.as_slice(), x.as_slice());
        assert!(x.reshape(&[3]).is_err());
    }

    #[test]
    fn statistics() {
        let x = Tensor::from_vec(vec![1.0, -3.0, 2.0, 0.0], &[4]).unwrap();
        assert_eq!(x.mean(), 0.0);
        assert_eq!(x.max_abs(), 3.0);
        assert_eq!(x.sum_squares(), 14.0);
        assert!(x.is_finite());
        let bad = Tensor::from_vec(vec![f32::NAN], &[1]).unwrap();
        assert!(!bad.is_finite());
    }

    #[test]
    #[should_panic(expected = "dimensions must be nonzero")]
    fn zero_dimension_panics() {
        let _ = Tensor::zeros(&[2, 0]);
    }

    fn pseudo_random_tensor(shape: &[usize], seed: u64) -> Tensor {
        let numel: usize = shape.iter().product();
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let data = (0..numel)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 40) as f32 / (1u64 << 24) as f32) * 4.0 - 2.0
            })
            .collect();
        Tensor::from_vec(data, shape).unwrap()
    }

    #[test]
    fn blocked_matmul_matches_naive_reference() {
        // Shapes straddle the 8-row and 32-column register tiles and every
        // const-width remainder tile, then the Tiny-VBF layers' own shapes
        // (encoder, scores, attention·V, decoder output, MLP input).
        let shapes = [
            (1, 1, 1, 1),
            (3, 5, 2, 2),
            (4, 130, 7, 3),
            (17, 129, 33, 4),
            (64, 257, 96, 5),
            (9, 7, 31, 6),
            (128, 128, 8, 7),
            (128, 4, 128, 8),
            (128, 128, 4, 9),
            (128, 16, 2, 10),
            (128, 8, 16, 11),
        ];
        for (n, k, m, seed) in shapes {
            let a = pseudo_random_tensor(&[n, k], seed);
            let b = pseudo_random_tensor(&[k, m], seed + 100);
            let fast = a.matmul(&b);
            let reference = a.matmul_naive(&b);
            assert_eq!(fast.shape(), reference.shape());
            for (i, (f, r)) in fast.as_slice().iter().zip(reference.as_slice()).enumerate() {
                assert_eq!(f.to_bits(), r.to_bits(), "{n}x{k}x{m} element {i}: {f} vs {r}");
            }
            let mut into = vec![f32::NAN; n * m];
            matmul_into(a.as_slice(), &b, &mut into);
            assert_eq!(into, fast.as_slice(), "{n}x{k}x{m}: matmul_into");
        }
    }

    #[test]
    fn matmul_is_identical_across_thread_counts() {
        // Large enough to clear the parallel-dispatch threshold.
        let a = pseudo_random_tensor(&[96, 80], 7);
        let b = pseudo_random_tensor(&[80, 64], 8);
        let serial = a.matmul_with_threads(&b, 1);
        for threads in [2, 3, 8] {
            let parallel = a.matmul_with_threads(&b, threads);
            assert_eq!(serial, parallel, "threads {threads}");
        }
    }

    #[test]
    fn blocked_transpose_matches_strided_reference() {
        for (n, m) in [(1, 1), (5, 3), (31, 33), (64, 70), (100, 1)] {
            let a = pseudo_random_tensor(&[n, m], (n * 1000 + m) as u64);
            let t = a.transpose();
            assert_eq!(t.shape(), &[m, n]);
            for i in 0..n {
                for j in 0..m {
                    assert_eq!(t.at(j, i), a.at(i, j), "({i},{j}) of {n}x{m}");
                }
            }
        }
    }
}
