//! Deterministic random-number helpers.
//!
//! Every stochastic component of the reproduction (weight initialization,
//! dataset synthesis, Gumbel noise, Bayesian-optimization sampling) takes an
//! explicit seed so experiments are exactly reproducible. This module
//! provides the seeded generator constructor and the Gumbel sampler used by
//! the confident teacher-removal reparameterization (paper Section 3.2.2).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Creates a deterministic generator from a 64-bit seed.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Captures a generator's full internal state (its stream position).
///
/// Checkpointed loops save this next to their weights so a resumed run
/// draws the exact random sequence the uninterrupted run would have —
/// see [`rng_from_state`].
pub fn rng_state(rng: &StdRng) -> [u64; 4] {
    rng.state()
}

/// Rebuilds a generator at the exact stream position captured by
/// [`rng_state`].
pub fn rng_from_state(s: [u64; 4]) -> StdRng {
    StdRng::from_state(s)
}

/// Derives a child seed from a parent seed and a stream index.
///
/// Uses SplitMix64 finalization so nearby `(seed, stream)` pairs produce
/// decorrelated child seeds — this is how, e.g., the ten base models of an
/// ensemble receive "different random states to ensure diversity"
/// (paper Section 4.1.4).
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    // `splitmix64` adds the increment γ once more, so this finalizes
    // `seed + γ·(stream + 1)`: the `stream`-th SplitMix64 output from `seed`.
    lightts_obs::splitmix64(seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream)))
}

/// Samples standard Gumbel(0, 1) noise: `-ln(-ln(U))`, `U ~ U(0,1)`.
///
/// Used by the Gumbel-Max trick in the teacher-removal reparameterization
/// `γ_i = exp((-λ_i + gs_i)/τ) / Σ_j exp((-λ_j + gs_j)/τ)`.
pub fn gumbel<R: Rng>(rng: &mut R) -> f32 {
    let u: f32 = rng.gen_range(f32::EPSILON..1.0);
    -(-u.ln()).ln()
}

/// Samples `n` standard Gumbel values.
pub fn gumbel_vec<R: Rng>(rng: &mut R, n: usize) -> Vec<f32> {
    (0..n).map(|_| gumbel(rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic() {
        let mut a = seeded(42);
        let mut b = seeded(42);
        let xa: f64 = a.gen();
        let xb: f64 = b.gen();
        assert_eq!(xa, xb);
    }

    #[test]
    fn derive_seed_decorrelates_streams() {
        let s0 = derive_seed(1, 0);
        let s1 = derive_seed(1, 1);
        let s2 = derive_seed(2, 0);
        assert_ne!(s0, s1);
        assert_ne!(s0, s2);
        // stability: derived seeds are part of the reproducibility contract
        assert_eq!(s0, 0x910a_2dec_8902_5cc1);
    }

    #[test]
    fn gumbel_mean_is_near_euler_mascheroni() {
        // E[Gumbel(0,1)] = γ ≈ 0.5772.
        let mut rng = seeded(9);
        let n = 20_000;
        let mean: f32 = (0..n).map(|_| gumbel(&mut rng)).sum::<f32>() / n as f32;
        assert!((mean - 0.5772).abs() < 0.03, "mean was {mean}");
    }

    #[test]
    fn gumbel_vec_len() {
        let mut rng = seeded(1);
        assert_eq!(gumbel_vec(&mut rng, 5).len(), 5);
    }
}
