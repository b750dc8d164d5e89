//! Process-wide runtime configuration for the tensor execution layer.
//!
//! The tensor kernels (convolution, matmul, elementwise, reductions) run on
//! a shared thread pool. This module is the user-facing switchboard:
//!
//! ```no_run
//! // Pin the kernels to 4 threads (including the calling thread).
//! lightts::runtime::set_num_threads(4);
//! assert_eq!(lightts::runtime::num_threads(), 4);
//! ```
//!
//! Thread-count resolution order:
//! 1. [`set_num_threads`] — takes effect for all subsequent kernel calls;
//! 2. the `LIGHTTS_NUM_THREADS` environment variable;
//! 3. `std::thread::available_parallelism()`.
//!
//! Setting one thread yields the fully serial kernels. Either way results
//! are bitwise identical: parallel
//! kernels only split work along disjoint output rows and reduce in fixed
//! chunk order, never reassociating arithmetic across threads.
//!
//! The same kernels also dispatch onto a SIMD backend (AVX2+FMA, SSE2, or
//! a scalar oracle), resolved once per process:
//! 1. [`set_simd_backend`] — explicit override, clamped to CPU support;
//! 2. the `LIGHTTS_SIMD` environment variable (`avx2`/`sse2`/`scalar`);
//! 3. runtime CPU feature detection.
//!
//! Unlike the thread count, the backend *can* change result bits — but only
//! for the FMA-fused GEMM/convolution family, only between AVX2 and the
//! scalar/SSE2 pair, and deterministically per backend. The full contract
//! is in `docs/NUMERICS.md`.

pub use lightts_tensor::par::{num_threads, set_num_threads};
pub use lightts_tensor::simd::{
    backend as simd_backend, cpu_supports, set_simd_backend, SimdBackend,
};
