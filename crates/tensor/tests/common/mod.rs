//! The test-local reference for the f32 GEMM kernel, shared by the suites
//! that pin its bits (`simd_equivalence.rs`, `conv_lowering.rs`).

use lightts_tensor::simd::{cpu_supports, SimdBackend};

/// Whether the kernels fuse their multiply-adds under `bk` on this host: a
/// vector backend the CPU runs (a request it cannot run falls back to
/// scalar).
pub fn fuses(bk: SimdBackend) -> bool {
    bk != SimdBackend::Scalar && cpu_supports(bk)
}

/// One GEMM output row, `c += a · b` for `a: [k]`, `b: [k, n]`, `c: [n]`,
/// written as plainly as possible: per element one chain, `p`-ascending,
/// skipping `a[p] = ±0.0`, each step fused when `fused` (the AVX2 and
/// AVX-512 contract) and multiply-then-add otherwise (the scalar one).
pub fn gemm_row_ref(c: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize, fused: bool) {
    for (p, &av) in a.iter().enumerate().take(k) {
        if av == 0.0 {
            continue;
        }
        let brow = &b[p * n..p * n + n];
        for j in 0..n {
            c[j] = if fused { av.mul_add(brow[j], c[j]) } else { av * brow[j] + c[j] };
        }
    }
}
