//! Weight initialization schemes.
//!
//! The paper initializes base models "with different random states to ensure
//! diversity" (Section 4.1.4); these helpers implement the standard schemes
//! used for convolutional and fully-connected layers.

use lightts_tensor::Tensor;
use rand::Rng;

/// He (Kaiming) normal initialization for ReLU networks:
/// `N(0, sqrt(2 / fan_in))`.
pub fn he_normal<R: Rng>(rng: &mut R, dims: &[usize], fan_in: usize) -> Tensor {
    let std = (2.0 / fan_in.max(1) as f32).sqrt();
    Tensor::randn(rng, dims, std)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightts_tensor::rng::seeded;

    #[test]
    fn he_normal_std_scales_with_fan_in() {
        let mut rng = seeded(1);
        let wide = he_normal(&mut rng, &[10_000], 1000);
        let narrow = he_normal(&mut rng, &[10_000], 10);
        let std = |t: &Tensor| (t.map(|x| x * x).mean() - t.mean() * t.mean()).sqrt();
        assert!(std(&wide) < std(&narrow));
        assert!((std(&narrow) - (2.0f32 / 10.0).sqrt()).abs() < 0.02);
    }
}
