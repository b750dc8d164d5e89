//! Stateless activation functions over tape variables.
//!
//! Layers in this crate historically called `tape.relu` directly; this
//! module gives the activation family one named surface so model builders
//! can select an activation by value (e.g. from a search-space config)
//! without touching the tape API. All three functions record a single tape
//! op whose forward pass runs on the runtime-dispatched SIMD kernels in
//! [`lightts_tensor::simd`]:
//!
//! * [`Activation::Relu`] → `max(x, 0)` via the `relu` kernel;
//! * [`Activation::Sigmoid`] → `1 / (1 + e^{−x})` via `vec_sigmoid`;
//! * [`Activation::Tanh`] → `tanh(x)` via `vec_tanh`.
//!
//! The transcendental kernels are polynomial approximations that are
//! bitwise identical across SIMD backends (scalar / AVX2) and
//! accurate to within a few ULP of the correctly rounded result — the
//! exact bounds are stated in `docs/NUMERICS.md`. Backward rules reuse the
//! forward output: `σ′ = y(1−y)`, `tanh′ = 1−y²`.

use crate::Result;
use lightts_tensor::tape::{Tape, Var};

/// A stateless element-wise activation, selectable by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit, `max(x, 0)`.
    Relu,
    /// Logistic sigmoid, `1 / (1 + e^{−x})`.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Stable lower-case name (`"relu"` / `"sigmoid"` / `"tanh"`).
    pub fn name(self) -> &'static str {
        match self {
            Activation::Relu => "relu",
            Activation::Sigmoid => "sigmoid",
            Activation::Tanh => "tanh",
        }
    }

    /// Applies the activation to `x`, recording one op on `tape`.
    pub fn apply(self, tape: &mut Tape, x: Var) -> Result<Var> {
        let y = match self {
            Activation::Relu => tape.relu(x),
            Activation::Sigmoid => tape.sigmoid(x),
            Activation::Tanh => tape.tanh(x),
        };
        Ok(y?)
    }
}

/// [`Activation::Relu`] applied to `x` (shorthand for
/// [`Activation::apply`]).
pub fn relu(tape: &mut Tape, x: Var) -> Result<Var> {
    Activation::Relu.apply(tape, x)
}

/// [`Activation::Sigmoid`] applied to `x`.
pub fn sigmoid(tape: &mut Tape, x: Var) -> Result<Var> {
    Activation::Sigmoid.apply(tape, x)
}

/// [`Activation::Tanh`] applied to `x`.
pub fn tanh(tape: &mut Tape, x: Var) -> Result<Var> {
    Activation::Tanh.apply(tape, x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightts_tensor::Tensor;

    fn grad_of(act: Activation, x0: f32) -> (f32, f32) {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![x0], &[1]).unwrap(), true);
        let y = act.apply(&mut tape, x).unwrap();
        let s = tape.sum(y).unwrap();
        let fx = tape.value(y).unwrap().data()[0];
        let grads = tape.backward(s).unwrap();
        (fx, grads.get(x).unwrap().data()[0])
    }

    #[test]
    fn activations_match_reference_values() {
        let (y, _) = grad_of(Activation::Relu, -2.0);
        assert_eq!(y, 0.0);
        let (y, _) = grad_of(Activation::Sigmoid, 0.0);
        assert_eq!(y, 0.5);
        let (y, _) = grad_of(Activation::Tanh, 0.0);
        assert_eq!(y, 0.0);
    }

    #[test]
    fn gradients_match_finite_differences() {
        for act in [Activation::Relu, Activation::Sigmoid, Activation::Tanh] {
            for &x0 in &[-1.5_f32, -0.25, 0.4, 2.0] {
                let (_, g) = grad_of(act, x0);
                let h = 1e-3_f32;
                let (fp, _) = grad_of(act, x0 + h);
                let (fm, _) = grad_of(act, x0 - h);
                let fd = (fp - fm) / (2.0 * h);
                assert!((g - fd).abs() < 5e-3, "{}({x0}): analytic {g} vs fd {fd}", act.name());
            }
        }
    }

    #[test]
    fn names_round_trip() {
        assert_eq!(Activation::Relu.name(), "relu");
        assert_eq!(Activation::Sigmoid.name(), "sigmoid");
        assert_eq!(Activation::Tanh.name(), "tanh");
    }
}
