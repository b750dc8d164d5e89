//! The dense, owned, row-major `f32` tensor.

use crate::{Result, Shape, TensorError};
use rand::Rng;

/// An owned, contiguous, row-major `f32` n-dimensional array.
///
/// `Tensor` is deliberately simple: no views, no reference counting, no
/// laziness. The LightTS workloads (small convolutional students, Gaussian
/// processes over a few dozen points) are well served by eager contiguous
/// buffers, and the simplicity keeps every backward rule easy to audit.
///
/// Every tensor's buffer comes from (and returns to) the thread-local
/// [`crate::pool`]: `Clone` copies into a pooled slab and `Drop` recycles the
/// slab instead of freeing it, so op-heavy loops reuse memory instead of
/// hitting the allocator.
#[derive(Debug, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        Tensor { shape: self.shape.clone(), data: crate::pool::take_copy(&self.data) }
    }
}

/// A copy into a pooled slab, so an API that keeps a tensor
/// (`impl Into<Tensor>`) takes it by value or by reference.
impl From<&Tensor> for Tensor {
    fn from(t: &Tensor) -> Self {
        t.clone()
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        crate::pool::recycle(std::mem::take(&mut self.data));
    }
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a tensor from raw data and a shape.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch { len: data.len(), expected: shape.volume() });
        }
        Ok(Tensor { shape, data })
    }

    /// A tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let v = shape.volume();
        Tensor { shape, data: crate::pool::take_zeroed(v) }
    }

    /// A tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let v = shape.volume();
        Tensor { shape, data: crate::pool::take_filled(v, value) }
    }

    /// A scalar (rank-1, length-1) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor { shape: Shape::new(&[1]), data: crate::pool::take_filled(1, value) }
    }

    /// A tensor with elements drawn i.i.d. from `N(0, std^2)`.
    ///
    /// Uses the Box–Muller transform so only `rand`'s uniform sampling is
    /// required.
    pub fn randn<R: Rng>(rng: &mut R, dims: &[usize], std: f32) -> Self {
        let shape = Shape::new(dims);
        let n = shape.volume();
        let mut data = crate::pool::take_empty(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < n {
                data.push(r * theta.sin() * std);
            }
        }
        Tensor { shape, data }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The shape's dimension extents.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// The shape object.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of dimensions.
    #[inline]
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its buffer.
    ///
    /// The buffer leaves the pool's custody: dropping the returned vector
    /// frees it normally. Use only outside steady-state loops.
    pub fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.data)
    }

    /// Element at a multi-index.
    pub fn get(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Sets the element at a multi-index.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.shape.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// The single element of a scalar-like tensor.
    pub fn item(&self) -> Result<f32> {
        if self.data.len() != 1 {
            return Err(TensorError::RankMismatch { found: self.rank(), expected: 1, op: "item" });
        }
        Ok(self.data[0])
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Transposes a rank-2 tensor.
    pub fn transpose2(&self) -> Result<Self> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                found: self.rank(),
                expected: 2,
                op: "transpose2",
            });
        }
        let (m, n) = (self.dims()[0], self.dims()[1]);
        let mut out = crate::pool::take_zeroed(m * n);
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor::from_vec(out, &[n, m])
    }

    /// Extracts row `i` of a rank-2 tensor as a rank-1 tensor.
    pub fn row(&self, i: usize) -> Result<Self> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch { found: self.rank(), expected: 2, op: "row" });
        }
        let (m, n) = (self.dims()[0], self.dims()[1]);
        if i >= m {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![i],
                shape: self.dims().to_vec(),
            });
        }
        Tensor::from_vec(crate::pool::take_copy(&self.data[i * n..(i + 1) * n]), &[n])
    }

    /// Gathers rows of a rank-2 tensor into a new rank-2 tensor, in the
    /// order given by `indices` (rows may repeat).
    pub fn gather_rows(&self, indices: &[usize]) -> Result<Self> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                found: self.rank(),
                expected: 2,
                op: "gather_rows",
            });
        }
        let (m, n) = (self.dims()[0], self.dims()[1]);
        let mut data = crate::pool::take_empty(indices.len() * n);
        for &i in indices {
            if i >= m {
                return Err(TensorError::IndexOutOfBounds {
                    index: vec![i],
                    shape: self.dims().to_vec(),
                });
            }
            data.extend_from_slice(&self.data[i * n..(i + 1) * n]);
        }
        Tensor::from_vec(data, &[indices.len(), n])
    }

    /// Stacks rank-1 tensors of equal length into a rank-2 tensor (rows).
    pub fn stack_rows(rows: &[Tensor]) -> Result<Self> {
        let first = rows.first().ok_or(TensorError::Empty { op: "stack_rows" })?;
        let n = first.len();
        let mut data = crate::pool::take_empty(rows.len() * n);
        for r in rows {
            if r.len() != n {
                return Err(TensorError::ShapeMismatch {
                    left: first.dims().to_vec(),
                    right: r.dims().to_vec(),
                    op: "stack_rows",
                });
            }
            data.extend_from_slice(r.data());
        }
        Tensor::from_vec(data, &[rows.len(), n])
    }

    // ------------------------------------------------------------------
    // Element-wise operations
    // ------------------------------------------------------------------

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        let mut data = crate::pool::take_empty(self.data.len());
        data.extend(self.data.iter().map(|&x| f(x)));
        Tensor { shape: self.shape.clone(), data }
    }

    /// Applies `f` pairwise to elements of `self` and `other`.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Self> {
        if self.dims() != other.dims() {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
                op: "zip_map",
            });
        }
        let mut data = crate::pool::take_empty(self.data.len());
        data.extend(self.data.iter().zip(other.data.iter()).map(|(&a, &b)| f(a, b)));
        Ok(Tensor { shape: self.shape.clone(), data })
    }

    /// Element-wise binary op through a [`crate::simd`] slice kernel.
    ///
    /// The SIMD element-wise kernels apply one position-independent,
    /// single-rounding operation per element, so lane width never affects
    /// bits; this is the vectorized analogue of [`Tensor::zip_map`].
    fn zip_simd(
        &self,
        other: &Tensor,
        op: &'static str,
        f: impl Fn(&mut [f32], &[f32]),
    ) -> Result<Self> {
        if self.dims() != other.dims() {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
                op,
            });
        }
        let mut out = crate::pool::take_copy(&self.data);
        f(&mut out, other.data());
        Ok(Tensor { shape: self.shape.clone(), data: out })
    }

    /// Element-wise sum.
    pub fn add(&self, other: &Tensor) -> Result<Self> {
        self.zip_simd(other, "add", crate::simd::add_assign)
    }

    /// Element-wise difference.
    pub fn sub(&self, other: &Tensor) -> Result<Self> {
        self.zip_simd(other, "sub", crate::simd::sub_assign)
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Self {
        let mut out = crate::pool::take_copy(&self.data);
        crate::simd::scale(&mut out, s);
        Tensor { shape: self.shape.clone(), data: out }
    }

    /// Adds `s` to every element.
    pub fn add_scalar(&self, s: f32) -> Self {
        self.map(|x| x + s)
    }

    /// In-place `self += other * s` (axpy).
    pub fn axpy(&mut self, other: &Tensor, s: f32) -> Result<()> {
        if self.dims() != other.dims() {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
                op: "axpy",
            });
        }
        // Unfused multiply-then-add per element (simd::axpy), exactly the
        // historical optimizer update — bitwise backend-invariant.
        crate::simd::axpy(&mut self.data, other.data(), s);
        Ok(())
    }

    /// Element-wise rectified linear unit `max(x, 0)`: `NaN` and `-0.0`
    /// both map to `+0.0`, like `f32::max(x, 0.0)`.
    pub fn relu(&self) -> Self {
        self.map(|x| if x > 0.0 { x } else { 0.0 })
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements.
    ///
    /// Reduced in fixed-size chunks of 8192 elements whose partial sums are
    /// combined in order; tensors smaller than one chunk sum exactly
    /// left-to-right.
    pub fn sum(&self) -> f32 {
        chunked_sum(&self.data)
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (`-inf` for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (`+inf` for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the maximum element of a rank-1 tensor.
    pub fn argmax(&self) -> Result<usize> {
        if self.data.is_empty() {
            return Err(TensorError::Empty { op: "argmax" });
        }
        let mut best = 0usize;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        Ok(best)
    }

    /// Squared L2 norm of all elements.
    ///
    /// Computed by the striped [`crate::simd::reduce_sum_sq`] kernel:
    /// bitwise identical across SIMD backends (8 fixed stripes, canonical
    /// combine tree), and exactly the plain left-to-right sum for tensors
    /// of at most 8 elements.
    pub fn norm_sq(&self) -> f32 {
        crate::simd::reduce_sum_sq(&self.data)
    }

    // ------------------------------------------------------------------
    // Row-wise softmax family (rank-2 [batch, classes])
    // ------------------------------------------------------------------

    /// Row-wise softmax of a rank-2 tensor.
    ///
    /// Exactly [`Tensor::log_softmax_rows`] followed by the element-wise
    /// [`crate::simd::vec_exp`] kernel — the same two steps (and therefore
    /// the same bits) as the serving path's `predict_proba_into`.
    pub fn softmax_rows(&self) -> Result<Self> {
        let mut lsm = self.log_softmax_rows()?;
        crate::simd::vec_exp(&mut lsm.data);
        Ok(lsm)
    }

    /// Row-wise log-softmax of a rank-2 tensor (numerically stabilized).
    ///
    /// Each row runs [`crate::simd::log_softmax_row`]: subtract the row
    /// max, exponentiate through the vectorized `vec_exp` kernel, sum the
    /// exponentials strictly left-to-right, subtract the log-sum. The
    /// result is bitwise identical across SIMD backends (see
    /// `docs/NUMERICS.md`).
    pub fn log_softmax_rows(&self) -> Result<Self> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                found: self.rank(),
                expected: 2,
                op: "log_softmax_rows",
            });
        }
        let (m, n) = (self.dims()[0], self.dims()[1]);
        if n == 0 {
            return Tensor::from_vec(Vec::new(), &[m, n]);
        }
        let mut out = crate::pool::take_copy(&self.data);
        for row in out.chunks_exact_mut(n) {
            crate::simd::log_softmax_row(row);
        }
        Tensor::from_vec(out, &[m, n])
    }

    // ------------------------------------------------------------------
    // Matrix multiplication (rank-2)
    // ------------------------------------------------------------------

    /// Rank-2 matrix product `self[m,k] @ other[k,n] -> [m,n]`.
    ///
    /// Delegates to [`crate::linalg::matmul_into`]: one call of the
    /// register tile, which accumulates each output in `k`-ascending order.
    pub fn matmul(&self, other: &Tensor) -> Result<Self> {
        if self.rank() != 2 || other.rank() != 2 {
            return Err(TensorError::RankMismatch {
                found: if self.rank() != 2 { self.rank() } else { other.rank() },
                expected: 2,
                op: "matmul",
            });
        }
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (other.dims()[0], other.dims()[1]);
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
                op: "matmul",
            });
        }
        let mut out = crate::pool::take_zeroed(m * n);
        crate::linalg::matmul_into(&mut out, &self.data, &other.data, m, k, n);
        Tensor::from_vec(out, &[m, n])
    }
}

/// Chunk size of [`chunked_sum`]. Fixed, so a sum depends only on the data;
/// tensors smaller than one chunk reduce exactly like a plain left-to-right
/// loop.
const REDUCE_CHUNK: usize = 8192;

/// Sums `data` by reducing fixed-size chunks left-to-right and then
/// combining the chunk partials in order (the association behind
/// [`Tensor::sum`]).
fn chunked_sum(data: &[f32]) -> f32 {
    data.chunks(REDUCE_CHUNK).map(|chunk| chunk.iter().sum::<f32>()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn chunked_sum_matches_plain_sum_small() {
        let data: Vec<f32> = (0..100).map(|i| i as f32 * 0.25).collect();
        let plain: f32 = data.iter().sum();
        assert_eq!(chunked_sum(&data), plain);
    }

    #[test]
    fn chunked_sum_is_reproducible_large() {
        let data: Vec<f32> = (0..3 * REDUCE_CHUNK + 17).map(|i| (i as f32).sin()).collect();
        let a = chunked_sum(&data);
        let b = chunked_sum(&data);
        assert_eq!(a.to_bits(), b.to_bits());
        let plain: f32 = data.iter().sum();
        assert!((a - plain).abs() < 1e-2 * plain.abs().max(1.0));
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 7.0).unwrap();
        assert_eq!(t.get(&[1, 2]).unwrap(), 7.0);
        assert_eq!(t.get(&[0, 0]).unwrap(), 0.0);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[5.0, 7.0, 9.0]);
        assert_eq!(a.sub(&b).unwrap().data(), &[-3.0, -3.0, -3.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn elementwise_shape_mismatch() {
        let a = Tensor::zeros(&[3]);
        let b = Tensor::zeros(&[4]);
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]).unwrap();
        let b = Tensor::from_vec(vec![2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0], &[2, 4]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.dims(), &[3, 4]);
        assert_eq!(&c.data()[0..4], &[2.0, 3.0, 4.0, 5.0]);
        assert_eq!(&c.data()[8..12], &[8.0, 10.0, 12.0, 14.0]);
    }

    #[test]
    fn matmul_shape_check() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        let t = a.transpose2().unwrap();
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.get(&[2, 1]).unwrap(), a.get(&[1, 2]).unwrap());
        assert_eq!(t.transpose2().unwrap(), a);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]).unwrap();
        let s = a.softmax_rows().unwrap();
        for i in 0..2 {
            let row_sum: f32 = s.row(i).unwrap().data().iter().sum();
            assert!((row_sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn log_softmax_is_stable_for_large_logits() {
        let a = Tensor::from_vec(vec![1000.0, 1001.0], &[1, 2]).unwrap();
        let s = a.log_softmax_rows().unwrap();
        assert!(s.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]).unwrap();
        assert_eq!(a.sum(), 2.0);
        assert_eq!(a.max(), 3.0);
        assert_eq!(a.min(), -2.0);
        assert_eq!(a.argmax().unwrap(), 2);
        assert!((a.mean() - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(a.norm_sq(), 14.0);
    }

    #[test]
    fn randn_moments_are_plausible() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::randn(&mut rng, &[10_000], 1.0);
        assert!(t.mean().abs() < 0.05);
        let var = t.map(|x| x * x).mean() - t.mean() * t.mean();
        assert!((var - 1.0).abs() < 0.1, "variance was {var}");
    }

    #[test]
    fn stack_rows_builds_matrix() {
        let r0 = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let r1 = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        let m = Tensor::stack_rows(&[r0, r1]).unwrap();
        assert_eq!(m.dims(), &[2, 2]);
        assert_eq!(m.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn gather_rows_selects_and_repeats() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]).unwrap();
        let g = t.gather_rows(&[2, 0, 2]).unwrap();
        assert_eq!(g.dims(), &[3, 2]);
        assert_eq!(g.data(), &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
        assert!(t.gather_rows(&[3]).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_vec(vec![1.0, 1.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![2.0, 3.0], &[2]).unwrap();
        a.axpy(&b, 0.5).unwrap();
        assert_eq!(a.data(), &[2.0, 2.5]);
    }
}
