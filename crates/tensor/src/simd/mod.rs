//! Runtime-dispatched SIMD backends for the f32 and integer kernels.
//!
//! This module is the single point where the crate's inner loops meet the
//! instruction set. It provides a small portable-vector abstraction over
//! `core::arch` x86-64 — AVX2+FMA, AVX-512 for the two register tiles, and
//! a scalar oracle that is always available — plus one-time runtime
//! feature detection and an explicit override. Every hot kernel (the
//! register tile under [`crate::linalg`] and [`crate::conv`], the
//! element-wise tensor ops, and the `vec_exp` exponential behind the
//! softmax family) is written once, generically, and lowered onto
//! whichever backend is selected.
//!
//! # Backend selection
//!
//! The active backend resolves once, then is cached process-wide:
//!
//! 1. [`set_simd_backend`] — explicit programmatic override, wins over
//!    everything, takes effect for subsequent kernel calls;
//! 2. the `LIGHTTS_SIMD` environment variable (`avx2` | `scalar`,
//!    case-insensitive; any other value, `avx512` included, is ignored);
//! 3. runtime CPU feature detection (AVX-512F+BW with AVX2+FMA →
//!    [`SimdBackend::Avx512`], AVX2+FMA → [`SimdBackend::Avx2`], otherwise
//!    scalar).
//!
//! Avx512 is reached by detection (or [`set_simd_backend`]) only:
//! `LIGHTTS_SIMD=avx2` keeps the 256-bit tiles on an AVX-512 host. A
//! request the CPU cannot run resolves to scalar, so forcing
//! `LIGHTTS_SIMD=avx2` on a host without AVX2 is safe. On non-x86-64
//! targets every request resolves to scalar. [`cpu_supports`] reports what
//! the host can actually run.
//!
//! Avx512 widens only the two register tiles, [`gemm_tile`] and
//! [`qgemm_tile`], to `zmm` blocks; every other kernel runs its AVX2 code
//! there. The tiles keep each output element's chain, so Avx512 and Avx2
//! give the same bits on every kernel.
//!
//! # Determinism
//!
//! `docs/NUMERICS.md` states the full contract; in brief, four classes:
//!
//! * **Backend-invariant, element-wise**: [`add_assign`], [`sub_assign`],
//!   [`scale`], [`sub_scalar`], [`axpy`], [`fake_quant`], [`vec_exp`],
//!   [`sum_exp`], [`log_softmax_row`] — single-rounding ops (or a fixed
//!   polynomial algorithm, or IEEE rounding to an integer) applied per
//!   element, so scalar and AVX2 produce identical bits for every shape,
//!   including remainder lanes.
//! * **Backend-invariant, striped**: [`reduce_sum_sq`] — eight fixed
//!   stripes folded by one canonical pairing tree on every backend
//!   (degenerating to a plain serial sum for `n < 8`).
//! * **Backend-sensitive (FMA)**: [`gemm_tile`], the one f32 GEMM kernel
//!   (under every conv pass and every `Tensor::matmul`) — scalar
//!   multiplies then adds (two roundings); AVX2 and AVX-512 fuse each
//!   multiply-add into one rounding, producing different, but equally
//!   deterministic, bits (the same on both fused backends). For a fixed
//!   backend the result is independent of call context; how rows group
//!   into blocks (batch samples, in a dense layer) can flip only the sign
//!   of an output that is exactly zero.
//! * **Integer-exact (quantized)**: [`qgemm_tile`], the one integer kernel
//!   (the int8 conv and FC head) — i8×i8 products accumulated in i32.
//!   Two's-complement addition is associative, so both backends are
//!   bitwise identical for every input and every shape, remainder lanes
//!   included — the strongest class (see "Quantized inference" in
//!   `docs/NUMERICS.md`).
//!
//! Each public kernel has a `*_with(backend, …)` twin that runs under an
//! explicit backend without consulting or mutating process-wide
//! state — that is what the `simd_equivalence` suite uses to compare
//! backends concurrently from many test threads.
#![allow(unsafe_code)]
// SAFETY AUDIT: this module (with its `vec`/`x86`/`kernels`/`qkernels`
// submodules) is the crate's only `unsafe` island, all of it `core::arch`
// intrinsic plumbing: the vector types in `x86.rs` and `qkernels.rs` wrap
// `__m256`/`__m512` and `__m256i`/`__m512i` intrinsics, and `kernels.rs`
// and `qkernels.rs` instantiate the generic loop bodies behind `#[target_feature]` wrappers.
// Soundness rests on one invariant, enforced in exactly one place:
// `effective()` below never returns a vector backend unless `cpu_supports`
// confirmed the CPU features (a request the CPU cannot run resolves to
// scalar). The integer lane type's safe methods lean on it through its one
// constructor, `load`, which only those wrappers reach. Slice accesses in
// the kernels are all bounds-checked, `debug_assert`-guarded against
// lengths the loops themselves maintain, or, in the two register tiles,
// covered by one `Tile::check`.

mod kernels;
mod qkernels;
mod vec;
#[cfg(target_arch = "x86_64")]
mod x86;

pub use qkernels::{i16_pair, qgemm_tile, qgemm_tile_with, QDOT_MAX_K};

pub use kernels::{
    add_assign, add_assign_with, axpy, axpy_with, fake_quant, fake_quant_with, gemm_tile,
    gemm_tile_with, reduce_sum_sq, reduce_sum_sq_with, scale, scale_with, sub_assign,
    sub_assign_with, sub_scalar, sub_scalar_with, sum_exp, sum_exp_with, vec_exp, vec_exp_with,
    Tile,
};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// A SIMD instruction-set backend for the f32 and integer kernels.
///
/// Ordering is by capability: `Scalar < Avx2 < Avx512`, and a CPU that
/// runs one backend runs every lesser one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdBackend {
    /// Plain `f32` arithmetic — the oracle the vector path is tested
    /// against. Always available.
    Scalar,
    /// AVX2 `ymm` vectors (8 × f32) with FMA. The GEMM/conv family fuses
    /// multiply-adds, so its bits differ (deterministically) from the
    /// scalar oracle; everything else stays bitwise identical.
    Avx2,
    /// The two register tiles on AVX-512 `zmm` vectors (16 × f32 or i32),
    /// every other kernel on AVX2. Bitwise identical to [`Self::Avx2`].
    Avx512,
}

impl SimdBackend {
    /// Stable lower-case name (`"scalar"` / `"avx2"` / `"avx512"`), as
    /// recorded in bench output; `LIGHTTS_SIMD` accepts the first two.
    pub fn name(self) -> &'static str {
        match self {
            SimdBackend::Scalar => "scalar",
            SimdBackend::Avx2 => "avx2",
            SimdBackend::Avx512 => "avx512",
        }
    }

    /// The backend a `LIGHTTS_SIMD` value names, case-insensitively;
    /// `None` for any other value. Avx512 has no value: detection alone
    /// chooses it.
    fn parse(value: &str) -> Option<SimdBackend> {
        [SimdBackend::Scalar, SimdBackend::Avx2]
            .into_iter()
            .find(|bk| value.eq_ignore_ascii_case(bk.name()))
    }

    fn from_u8(v: u8) -> SimdBackend {
        match v {
            3 => SimdBackend::Avx512,
            2 => SimdBackend::Avx2,
            _ => SimdBackend::Scalar,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            SimdBackend::Avx512 => 3,
            SimdBackend::Avx2 => 2,
            SimdBackend::Scalar => 1,
        }
    }
}

/// Resolved backend, encoded via `as_u8` (0 = not yet resolved).
static BACKEND: AtomicU8 = AtomicU8::new(0);

/// Whether the running CPU can execute `bk`.
///
/// [`SimdBackend::Scalar`] is always supported; [`SimdBackend::Avx2`]
/// requires an x86-64 CPU with the AVX2 *and* FMA feature flags, and
/// [`SimdBackend::Avx512`] those plus AVX-512F and AVX-512BW.
pub fn cpu_supports(bk: SimdBackend) -> bool {
    match bk {
        SimdBackend::Scalar => true,
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Avx2 => is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Avx512 => {
            cpu_supports(SimdBackend::Avx2)
                && is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512bw")
        }
        #[cfg(not(target_arch = "x86_64"))]
        SimdBackend::Avx2 | SimdBackend::Avx512 => false,
    }
}

/// The most capable backend the CPU runs, probed once per process.
fn native() -> SimdBackend {
    static NATIVE: OnceLock<SimdBackend> = OnceLock::new();
    *NATIVE.get_or_init(|| {
        [SimdBackend::Avx512, SimdBackend::Avx2]
            .into_iter()
            .find(|&bk| cpu_supports(bk))
            .unwrap_or(SimdBackend::Scalar)
    })
}

/// The backend that runs for `request` on a CPU whose most capable
/// backend is `native`. No request (`LIGHTTS_SIMD` unset or naming no
/// backend it accepts) takes the native choice; a request the CPU cannot
/// run resolves to scalar.
fn resolve(request: Option<SimdBackend>, native: SimdBackend) -> SimdBackend {
    match request {
        None => native,
        Some(bk) if bk <= native => bk,
        Some(_) => SimdBackend::Scalar,
    }
}

/// `bk` if the CPU can run it, else scalar.
pub(crate) fn effective(bk: SimdBackend) -> SimdBackend {
    resolve(Some(bk), native())
}

fn detect() -> SimdBackend {
    let request = std::env::var("LIGHTTS_SIMD").ok().and_then(|v| SimdBackend::parse(&v));
    resolve(request, native())
}

/// The process-wide SIMD backend all dispatched kernels currently use.
///
/// Resolved lazily on first use from [`set_simd_backend`] /
/// `LIGHTTS_SIMD` / CPU detection, in that priority order, then cached.
pub fn backend() -> SimdBackend {
    match BACKEND.load(Ordering::Relaxed) {
        0 => {
            let bk = detect();
            // A concurrent `set_simd_backend` may win the race; re-read so
            // every caller observes one consistent resolution.
            let _ = BACKEND.compare_exchange(0, bk.as_u8(), Ordering::Relaxed, Ordering::Relaxed);
            SimdBackend::from_u8(BACKEND.load(Ordering::Relaxed))
        }
        v => SimdBackend::from_u8(v),
    }
}

/// Overrides the process-wide SIMD backend for all subsequent kernel
/// calls; a backend the CPU cannot run installs scalar instead. Returns
/// the backend actually installed.
///
/// This is a process-wide toggle intended for startup configuration and
/// benchmarks; concurrent kernels pick up the change at their next
/// dispatch. Code that needs a specific backend without touching global
/// state (e.g. equivalence tests running on many threads) should call the
/// `*_with` kernel variants instead.
pub fn set_simd_backend(bk: SimdBackend) -> SimdBackend {
    let e = effective(bk);
    BACKEND.store(e.as_u8(), Ordering::Relaxed);
    e
}

/// In-place log-softmax of one row: `row ← row − max(row) − ln Σ exp(row −
/// max(row))`, with the exponentials from the [`vec_exp`] kernel and both
/// folds (max, sum) running strictly left-to-right in scalar order.
///
/// Bitwise backend-invariant, and the *single* softmax algorithm of the
/// workspace: `Tensor::log_softmax_rows`, `Tensor::softmax_rows`, and the
/// serving path's `predict_proba_into` all reduce to this row routine (plus
/// [`vec_exp`] for the probability variants), which is what keeps batched
/// serving, per-sample serving, and training losses bitwise consistent
/// with each other.
pub fn log_softmax_row(row: &mut [f32]) {
    log_softmax_row_with(backend(), row);
}

/// [`log_softmax_row`] under an explicit backend (scalar if the CPU
/// cannot run it).
pub fn log_softmax_row_with(bk: SimdBackend, row: &mut [f32]) {
    if row.is_empty() {
        return;
    }
    let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    sub_scalar_with(bk, row, mx);
    let lse = sum_exp_with(bk, row).ln();
    sub_scalar_with(bk, row, lse);
}

#[cfg(test)]
mod tests {
    use super::*;

    use SimdBackend::{Avx2, Avx512, Scalar};

    #[test]
    fn sse2_is_an_unknown_value_and_takes_the_native_choice() {
        for value in ["sse2", "SSE2", "Sse2", "", "avx512", "neon"] {
            assert_eq!(SimdBackend::parse(value), None, "{value:?}");
            for native in [Scalar, Avx2, Avx512] {
                assert_eq!(resolve(SimdBackend::parse(value), native), native, "{value:?}");
            }
        }
    }

    #[test]
    fn backend_names_parse_in_any_case() {
        for value in ["avx2", "AVX2", "Avx2"] {
            assert_eq!(SimdBackend::parse(value), Some(Avx2), "{value:?}");
        }
        for value in ["scalar", "SCALAR", "Scalar"] {
            assert_eq!(SimdBackend::parse(value), Some(Scalar), "{value:?}");
        }
    }

    /// Every request against every CPU: no request takes the CPU's most
    /// capable backend, a request the CPU runs is honoured, and any other
    /// request resolves to scalar. Avx512 is requested only through
    /// `set_simd_backend` and the `*_with` kernels.
    #[test]
    fn a_request_the_cpu_cannot_run_resolves_to_scalar() {
        // (request, on a CPU without AVX2, AVX2-only, AVX-512)
        let table = [
            (None, Scalar, Avx2, Avx512),
            (Some(Avx512), Scalar, Scalar, Avx512),
            (Some(Avx2), Scalar, Avx2, Avx2),
            (Some(Scalar), Scalar, Scalar, Scalar),
        ];
        for (request, none, avx2_only, avx512) in table {
            assert_eq!(resolve(request, Scalar), none, "{request:?} without AVX2");
            assert_eq!(resolve(request, Avx2), avx2_only, "{request:?} on AVX2 only");
            assert_eq!(resolve(request, Avx512), avx512, "{request:?} on AVX-512");
        }
    }

    #[test]
    fn the_native_choice_is_the_most_capable_supported_backend() {
        let native = native();
        for bk in [Scalar, Avx2, Avx512] {
            assert_eq!(cpu_supports(bk), bk <= native, "{bk:?}");
        }
    }
}
