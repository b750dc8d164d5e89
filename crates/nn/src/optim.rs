//! Optimizers: stochastic gradient descent (with momentum) and Adam.
//!
//! The paper trains teacher ensembles with Adam and distills students with
//! SGD (Section 4.1.5); both are provided. Optimizers mutate the
//! full-precision shadow parameters in a [`ParamStore`]; quantization is
//! re-applied on the next forward bind (standard QAT).

use crate::serialize::{put_tensor, read_tensor};
use crate::{NnError, ParamRef, ParamStore, Result};
use lightts_obs::checkpoint::{Cursor, SectionReader, SectionWriter};
use lightts_tensor::Tensor;
use std::collections::HashMap;

/// A gradient-descent parameter updater.
pub trait Optimizer {
    /// Applies one update step given `(parameter, gradient)` pairs.
    fn step(&mut self, store: &mut ParamStore, grads: &[(ParamRef, Tensor)]) -> Result<()>;

    /// Current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (e.g. for schedules).
    fn set_learning_rate(&mut self, lr: f32);

    /// Serializes the optimizer's mutable state (momentum / moment
    /// accumulators, step count) for checkpointing.
    ///
    /// Restoring via [`load_state_bytes`](Self::load_state_bytes) into an
    /// optimizer constructed with the same hyperparameters reproduces the
    /// exact update sequence — part of the bit-identical resume contract
    /// (skipping it would silently reset momentum to zero, which *looks*
    /// like a successful resume but diverges from the uninterrupted run).
    fn state_bytes(&self) -> Vec<u8>;

    /// Restores state captured by [`state_bytes`](Self::state_bytes).
    fn load_state_bytes(&mut self, bytes: &[u8]) -> Result<()>;
}

/// Container kinds of the two optimizers' state.
const SGD_KIND: &str = "optim.sgd";
const ADAM_KIND: &str = "optim.adam";

/// Encodes a `param index → tensor` slot map, sorted by index so the
/// bytes are deterministic regardless of `HashMap` iteration order.
fn slot_map_bytes(map: &HashMap<usize, Tensor>) -> Vec<u8> {
    let mut keys: Vec<usize> = map.keys().copied().collect();
    keys.sort_unstable();
    let mut buf = (keys.len() as u32).to_le_bytes().to_vec();
    for k in keys {
        buf.extend_from_slice(&(k as u64).to_le_bytes());
        put_tensor(&mut buf, &map[&k]);
    }
    buf
}

fn read_slot_map(bytes: &[u8]) -> Result<HashMap<usize, Tensor>> {
    let mut c = Cursor::new(bytes);
    let count = c.u32()?;
    let mut map = HashMap::new();
    for _ in 0..count {
        let k = c.u64()? as usize;
        if map.insert(k, read_tensor(&mut c)?).is_some() {
            return Err(NnError::BadConfig { what: format!("optimizer slot {k} stored twice") });
        }
    }
    c.finish()?;
    Ok(map)
}

/// SGD with classical momentum: `v ← μv + g`, `θ ← θ − lr·v`.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: HashMap<usize, Tensor>,
}

impl Sgd {
    /// Creates an SGD optimizer. `momentum = 0` gives plain SGD.
    pub fn new(lr: f32, momentum: f32) -> Self {
        Sgd { lr, momentum, velocity: HashMap::new() }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, store: &mut ParamStore, grads: &[(ParamRef, Tensor)]) -> Result<()> {
        let _prof = lightts_obs::prof::scope("optim.step");
        for (r, g) in grads {
            let update = if self.momentum > 0.0 {
                let v = self.velocity.entry(r.index()).or_insert_with(|| Tensor::zeros(g.dims()));
                *v = v.scale(self.momentum).add(g)?;
                v.clone()
            } else {
                g.clone()
            };
            let p = store.get_mut(*r)?;
            p.value.axpy(&update, -self.lr)?;
        }
        Ok(())
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn state_bytes(&self) -> Vec<u8> {
        let mut w = SectionWriter::new(SGD_KIND);
        w.section("velocity", &slot_map_bytes(&self.velocity));
        w.finish()
    }

    fn load_state_bytes(&mut self, bytes: &[u8]) -> Result<()> {
        let r = SectionReader::parse(bytes, SGD_KIND)?;
        self.velocity = read_slot_map(r.require("velocity")?)?;
        Ok(())
    }
}

/// Adam with bias correction (Kingma & Ba).
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: HashMap<usize, Tensor>,
    v: HashMap<usize, Tensor>,
}

impl Adam {
    /// Creates an Adam optimizer with the standard β₁=0.9, β₂=0.999.
    pub fn new(lr: f32) -> Self {
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m: HashMap::new(), v: HashMap::new() }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, store: &mut ParamStore, grads: &[(ParamRef, Tensor)]) -> Result<()> {
        let _prof = lightts_obs::prof::scope("optim.step");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (r, g) in grads {
            let m = self.m.entry(r.index()).or_insert_with(|| Tensor::zeros(g.dims()));
            let v = self.v.entry(r.index()).or_insert_with(|| Tensor::zeros(g.dims()));
            *m = m.scale(self.beta1).add(&g.scale(1.0 - self.beta1))?;
            *v = v.scale(self.beta2).add(&g.mul(g)?.scale(1.0 - self.beta2))?;
            let p = store.get_mut(*r)?;
            let (lr, eps) = (self.lr, self.eps);
            let update = m.zip_map(v, |mi, vi| {
                let m_hat = mi / bc1;
                let v_hat = vi / bc2;
                m_hat / (v_hat.sqrt() + eps)
            })?;
            p.value.axpy(&update, -lr)?;
        }
        Ok(())
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn state_bytes(&self) -> Vec<u8> {
        let mut w = SectionWriter::new(ADAM_KIND);
        w.section("t", &self.t.to_le_bytes());
        w.section("m", &slot_map_bytes(&self.m));
        w.section("v", &slot_map_bytes(&self.v));
        w.finish()
    }

    fn load_state_bytes(&mut self, bytes: &[u8]) -> Result<()> {
        let r = SectionReader::parse(bytes, ADAM_KIND)?;
        let mut t = r.cursor("t")?;
        let step = t.u64()?;
        t.finish()?;
        let (m, v) = (read_slot_map(r.require("m")?)?, read_slot_map(r.require("v")?)?);
        (self.t, self.m, self.v) = (step, m, v);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightts_tensor::rng::seeded;
    use lightts_tensor::tape::Tape;
    use lightts_tensor::Tensor;

    /// Minimizes f(θ) = ‖θ − c‖² with the given optimizer; returns final θ.
    fn run_quadratic<O: Optimizer>(opt: &mut O, steps: usize) -> Tensor {
        let mut rng = seeded(11);
        let mut store = ParamStore::new();
        let target = Tensor::from_vec(vec![1.0, -2.0, 0.5], &[3]).unwrap();
        let theta = store.register("theta", Tensor::randn(&mut rng, &[3], 1.0), 32);
        for _ in 0..steps {
            let mut tape = Tape::new();
            let mut bind = crate::Bindings::new();
            let tv = bind.bind(&mut tape, &store, theta).unwrap();
            let loss = tape.mse_to_target(tv, &target).unwrap();
            let grads = tape.backward(loss).unwrap();
            opt.step(&mut store, &bind.collect_grads(grads)).unwrap();
        }
        store.get(theta).unwrap().value.clone()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.5, 0.0);
        let theta = run_quadratic(&mut opt, 200);
        assert!((theta.data()[0] - 1.0).abs() < 1e-2);
        assert!((theta.data()[1] + 2.0).abs() < 1e-2);
    }

    #[test]
    fn sgd_momentum_converges() {
        let mut opt = Sgd::new(0.2, 0.9);
        let theta = run_quadratic(&mut opt, 300);
        assert!((theta.data()[2] - 0.5).abs() < 5e-2);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        let theta = run_quadratic(&mut opt, 300);
        assert!((theta.data()[0] - 1.0).abs() < 2e-2);
        assert!((theta.data()[1] + 2.0).abs() < 2e-2);
    }

    #[test]
    fn learning_rate_is_adjustable() {
        let mut opt = Sgd::new(0.1, 0.0);
        assert_eq!(opt.learning_rate(), 0.1);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }

    /// Runs `total` optimizer steps; at `split`, serializes the optimizer
    /// state into a freshly constructed optimizer and continues with it.
    /// The final parameters must be bit-identical to the uninterrupted run.
    fn split_resume_matches<O: Optimizer>(mk: impl Fn() -> O, total: usize, split: usize) {
        let run = |resume_at: Option<usize>| -> Vec<u32> {
            let mut rng = seeded(17);
            let mut store = ParamStore::new();
            let target = Tensor::from_vec(vec![1.0, -2.0, 0.5], &[3]).unwrap();
            let theta = store.register("theta", Tensor::randn(&mut rng, &[3], 1.0), 32);
            let mut opt = mk();
            for step in 0..total {
                if resume_at == Some(step) {
                    let state = opt.state_bytes();
                    let mut fresh = mk();
                    fresh.load_state_bytes(&state).unwrap();
                    opt = fresh;
                }
                let mut tape = Tape::new();
                let mut bind = crate::Bindings::new();
                let tv = bind.bind(&mut tape, &store, theta).unwrap();
                let loss = tape.mse_to_target(tv, &target).unwrap();
                let grads = tape.backward(loss).unwrap();
                opt.step(&mut store, &bind.collect_grads(grads)).unwrap();
            }
            store.get(theta).unwrap().value.data().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(run(None), run(Some(split)));
    }

    #[test]
    fn sgd_state_roundtrip_is_bit_identical() {
        split_resume_matches(|| Sgd::new(0.2, 0.9), 20, 7);
    }

    #[test]
    fn adam_state_roundtrip_is_bit_identical() {
        split_resume_matches(|| Adam::new(0.1), 20, 7);
    }

    #[test]
    fn step_with_no_grads_is_noop() {
        let mut store = ParamStore::new();
        store.register("w", Tensor::ones(&[2]), 32);
        let mut opt = Adam::new(0.1);
        opt.step(&mut store, &[]).unwrap();
    }
}
