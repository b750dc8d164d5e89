//! Small dense linear algebra for the Gaussian-process estimator and the
//! dense-layer matmul kernel.
//!
//! The encoded multi-objective Bayesian optimization (paper Section 3.3.3)
//! needs the GP posterior mean and variance (Eqs. 8–9), which reduce to
//! solving linear systems against the kernel matrix `K`. `K` is symmetric
//! positive definite (after jitter), so we use Cholesky factorization with
//! forward/backward substitution — numerically stable and `O(n³)` exactly as
//! the paper's complexity analysis assumes.
//!
//! [`matmul_into`] is the matrix multiply that backs [`Tensor::matmul`]
//! (and through it the tape's dense layers), one call of the register tile
//! every convolution pass runs.

use crate::{simd, Result, Tensor, TensorError};

/// `c += a · b` for row-major `a: [m,k]`, `b: [k,n]`, `c: [m,n]`: one
/// [`crate::simd::gemm_tile`] call on the dense layout, the kernel under
/// every convolution pass too.
///
/// Both callers, [`Tensor::matmul`] and the f32 serving plan's FC head,
/// pass a zeroed `c`, so training dense layers and serving plans reduce
/// through this exact call and their numerics cannot drift apart. Each
/// output element is one chain from `+0.0`, `k`-ascending, one
/// `mul_add_fast` per term: multiply then add under the scalar backend,
/// one fused rounding under AVX2 and AVX-512 (see `docs/NUMERICS.md`).
/// The tile skips a step `p` when the `a` values of all rows in its block
/// (up to six) are zero; a zero in a step that runs adds a `±0.0` term,
/// which can change only the sign of an output that is exactly zero.
pub fn matmul_into(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "matmul_into: lhs length");
    assert_eq!(b.len(), k * n, "matmul_into: rhs length");
    assert_eq!(c.len(), m * n, "matmul_into: out length");
    let _prof = lightts_obs::prof::scope("gemm.matmul");
    let t = simd::Tile { rows: m, k, n, ldc: n, lda: k, b_step: n, b_run: k, b_jump: 0 };
    simd::gemm_tile(c, a, b, &t);
}

/// Cholesky factorization of a symmetric positive-definite matrix.
///
/// Holds the lower-triangular factor `L` with `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    n: usize,
    /// Row-major lower-triangular factor (upper part is zero).
    l: Vec<f64>,
}

impl Cholesky {
    /// Factors `a` (rank-2, square, symmetric positive definite).
    ///
    /// Computation runs in `f64` to keep the GP numerically healthy even
    /// though tensors store `f32`.
    pub fn new(a: &Tensor) -> Result<Self> {
        if a.rank() != 2 || a.dims()[0] != a.dims()[1] {
            return Err(TensorError::RankMismatch {
                found: a.rank(),
                expected: 2,
                op: "cholesky (square matrix required)",
            });
        }
        let n = a.dims()[0];
        let ad = a.data();
        let mut l = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..=i {
                let mut sum = ad[i * n + j] as f64;
                for k in 0..j {
                    sum -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(TensorError::NotPositiveDefinite { pivot: i });
                    }
                    l[i * n + j] = sum.sqrt();
                } else {
                    l[i * n + j] = sum / l[j * n + j];
                }
            }
        }
        Ok(Cholesky { n, l })
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// `L y = b` by forward substitution, in `f64`.
    #[allow(clippy::needless_range_loop)] // triangular solves have loop-carried deps
    fn forward_substitute(&self, b: &[f32]) -> Result<Vec<f64>> {
        if b.len() != self.n {
            return Err(TensorError::LengthMismatch { len: b.len(), expected: self.n });
        }
        let n = self.n;
        let mut y = vec![0.0f64; n];
        for i in 0..n {
            let mut sum = b[i] as f64;
            for k in 0..i {
                sum -= self.l[i * n + k] * y[k];
            }
            y[i] = sum / self.l[i * n + i];
        }
        Ok(y)
    }

    /// Solves `A x = b` via `L y = b` then `Lᵀ x = y`.
    #[allow(clippy::needless_range_loop)]
    pub fn solve(&self, b: &[f32]) -> Result<Vec<f32>> {
        let n = self.n;
        let y = self.forward_substitute(b)?;
        // backward substitution with Lᵀ
        let mut x = vec![0.0f64; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in (i + 1)..n {
                sum -= self.l[k * n + i] * x[k];
            }
            x[i] = sum / self.l[i * n + i];
        }
        Ok(x.into_iter().map(|v| v as f32).collect())
    }

    /// Solves `L y = b` only (used for the GP variance term
    /// `κ(x*,x*) − vᵀv` with `v = L⁻¹ κ(X, x*)`).
    pub fn solve_lower(&self, b: &[f32]) -> Result<Vec<f32>> {
        Ok(self.forward_substitute(b)?.into_iter().map(|v| v as f32).collect())
    }
}

/// Dot product of two equal-length slices.
///
/// Deliberately a plain left-to-right scalar fold, *not* a striped SIMD
/// reduction like [`crate::simd::reduce_sum_sq`]: these helpers feed the
/// Gaussian-process estimator, whose inputs are short hyper-parameter
/// encodings (nothing to vectorize) and whose seeded search trajectories
/// are pinned by tests — keeping the historical summation order keeps them
/// backend-independent.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum()
}

/// Squared Euclidean distance between two equal-length slices
/// (left-to-right scalar fold; see [`dot`] for why).
#[inline]
pub fn dist_sq(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b.iter()).map(|(&x, &y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn random_spd(n: usize, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = Tensor::randn(&mut rng, &[n, n], 1.0);
        // A = M Mᵀ + n·I is SPD.
        let mt = m.transpose2().unwrap();
        let mut a = m.matmul(&mt).unwrap();
        for i in 0..n {
            let d = a.data()[i * n + i] + n as f32;
            a.data_mut()[i * n + i] = d;
        }
        a
    }

    #[test]
    fn cholesky_reconstructs_matrix() {
        let a = random_spd(5, 1);
        let ch = Cholesky::new(&a).unwrap();
        let n = 5;
        // rebuild L·Lᵀ
        for i in 0..n {
            for j in 0..n {
                let mut v = 0.0f64;
                for k in 0..n {
                    v += ch.l[i * n + k] * ch.l[j * n + k];
                }
                let expect = a.data()[i * n + j] as f64;
                assert!((v - expect).abs() < 1e-3, "({i},{j}): {v} vs {expect}");
            }
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn solve_recovers_known_solution() {
        let a = random_spd(6, 2);
        let x_true: Vec<f32> = (0..6).map(|i| (i as f32) - 2.5).collect();
        // b = A x
        let n = 6;
        let mut b = vec![0.0f32; n];
        for i in 0..n {
            for j in 0..n {
                b[i] += a.data()[i * n + j] * x_true[j];
            }
        }
        let ch = Cholesky::new(&a).unwrap();
        let x = ch.solve(&b).unwrap();
        for (xs, xt) in x.iter().zip(x_true.iter()) {
            assert!((xs - xt).abs() < 1e-3, "{xs} vs {xt}");
        }
    }

    #[test]
    fn identity_solve_is_identity() {
        let mut a = Tensor::zeros(&[3, 3]);
        for i in 0..3 {
            a.set(&[i, i], 1.0).unwrap();
        }
        let ch = Cholesky::new(&a).unwrap();
        let x = ch.solve(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn non_spd_is_rejected() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 2.0, 1.0], &[2, 2]).unwrap(); // eigenvalues 3, -1
        assert!(matches!(Cholesky::new(&a), Err(TensorError::NotPositiveDefinite { .. })));
    }

    #[test]
    fn solve_lower_matches_full_solve_composition() {
        let a = random_spd(4, 3);
        let ch = Cholesky::new(&a).unwrap();
        let b = [0.3f32, -0.1, 0.7, 0.2];
        // ‖L⁻¹ b‖² should equal bᵀ A⁻¹ b
        let v = ch.solve_lower(&b).unwrap();
        let lhs: f32 = v.iter().map(|x| x * x).sum();
        let x = ch.solve(&b).unwrap();
        let rhs = dot(&b, &x);
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn dot_and_dist() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(dist_sq(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn rejects_non_square() {
        let a = Tensor::zeros(&[2, 3]);
        assert!(Cholesky::new(&a).is_err());
    }

    #[test]
    fn solve_rejects_wrong_length() {
        let a = random_spd(3, 4);
        let ch = Cholesky::new(&a).unwrap();
        assert!(ch.solve(&[1.0, 2.0]).is_err());
    }
}
