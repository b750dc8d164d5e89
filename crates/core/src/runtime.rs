//! Process-wide runtime configuration for the tensor kernels.
//!
//! The kernels (convolution, matmul, elementwise, reductions) dispatch onto
//! a SIMD backend (AVX-512 for the register tiles, AVX2+FMA, or a scalar
//! oracle), resolved once per process:
//! 1. [`set_simd_backend`] — explicit override (scalar if the CPU cannot
//!    run it);
//! 2. the `LIGHTTS_SIMD` environment variable (`avx2`/`scalar`);
//! 3. runtime CPU feature detection, the only way to AVX-512.
//!
//! The backend *can* change result bits — but only for the FMA-fused
//! GEMM/convolution family, only between scalar and the fused backends
//! (AVX-512 and AVX2 agree), and deterministically per backend. The full contract is in
//! `docs/NUMERICS.md`.
//!
//! ```no_run
//! use lightts::runtime::{set_simd_backend, simd_backend, SimdBackend};
//!
//! set_simd_backend(SimdBackend::Scalar);
//! assert_eq!(simd_backend(), SimdBackend::Scalar);
//! assert_eq!(lightts::runtime::num_threads(), 1);
//! ```

pub use lightts_tensor::simd::{
    backend as simd_backend, cpu_supports, set_simd_backend, SimdBackend,
};

/// The number of threads one tensor kernel call uses: always 1.
///
/// Every kernel runs on the calling thread. The students are small enough
/// that one kernel call costs less than handing it to another thread, so
/// parallelism lives at coarse grain instead: ensemble members train on
/// scoped threads and the serve runtime runs its shards on their own
/// threads. Kept so run reports can record the figure.
pub const fn num_threads() -> usize {
    1
}
