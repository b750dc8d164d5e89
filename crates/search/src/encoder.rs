//! The two-phase encoder `Φ` (paper Section 3.3.3, Algorithm 2, Figure 12).
//!
//! Euclidean distance on raw settings misorders similarity (paper Eq. 10:
//! a bit-width change of 8 looks "farther" than a layer change of 3 even
//! though the latter alters accuracy far more). The remedy is a learned
//! continuous embedding:
//!
//! 1. **Autoencoder phase** — encoder `Φ` + decoder `Γ` reconstruct `R`
//!    *unevaluated* settings (no accuracies needed), giving a smooth
//!    continuous code space.
//! 2. **Predictor phase** — every `ps` epochs, encoder `Φ` + predictor `Ψ`
//!    regress the accuracies of the `P` *evaluated* settings, aligning the
//!    code space with accuracy semantics.
//!
//! The GP of the encoded MOBO then operates on `z = Φ(x)`.

use crate::space::{SearchSpace, StudentSetting};
use crate::{Result, SearchError};
use lightts_nn::layers::Linear;
use lightts_nn::optim::{Adam, Optimizer};
use lightts_nn::{Bindings, ParamStore};
use lightts_tensor::rng::seeded;
use lightts_tensor::tape::{Tape, Var};
use lightts_tensor::Tensor;

/// Hyper-parameters of encoder training (Algorithm 2).
#[derive(Debug, Clone, Copy)]
pub struct EncoderConfig {
    /// Latent dimensionality of `z`.
    pub latent_dim: usize,
    /// Hidden width of the encoder/decoder MLPs.
    pub hidden_dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Predictor phase every `ps` epochs (paper: adjusted every 50 epochs).
    pub predictor_every: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Number `R` of unevaluated settings for the autoencoder phase
    /// (`R ≫ P`).
    pub r_samples: usize,
    /// Autoencoder mini-batch size.
    pub batch: usize,
    /// Gradient steps per predictor phase. The paper runs one step per `ps`
    /// epochs over a ~1500-epoch schedule; at this reproduction's shorter
    /// schedules several steps per phase reach the same regime.
    pub predictor_steps: usize,
    /// Final predictor-only fine-tune steps after the interleaved loop,
    /// aligning the latent space with accuracy before the GP consumes it.
    pub final_tune_steps: usize,
    /// Seed for sampling and initialization.
    pub seed: u64,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        EncoderConfig {
            latent_dim: 12,
            hidden_dim: 48,
            epochs: 100,
            predictor_every: 3,
            lr: 0.02,
            r_samples: 1024,
            batch: 32,
            predictor_steps: 4,
            final_tune_steps: 40,
            seed: 0xE7C0,
        }
    }
}

/// A trained two-phase encoder.
pub struct TwoPhaseEncoder {
    store: ParamStore,
    enc1: Linear,
    enc2: Linear,
    dec1: Linear,
    dec2: Linear,
    pred1: Linear,
    pred2: Linear,
    input_dim: usize,
    latent_dim: usize,
}

impl TwoPhaseEncoder {
    fn build(input_dim: usize, cfg: &EncoderConfig) -> Result<Self> {
        let mut rng = seeded(cfg.seed);
        let mut store = ParamStore::new();
        let enc1 = Linear::with_name(&mut store, &mut rng, "enc1", input_dim, cfg.hidden_dim, 32)?;
        let enc2 =
            Linear::with_name(&mut store, &mut rng, "enc2", cfg.hidden_dim, cfg.latent_dim, 32)?;
        let dec1 =
            Linear::with_name(&mut store, &mut rng, "dec1", cfg.latent_dim, cfg.hidden_dim, 32)?;
        let dec2 = Linear::with_name(&mut store, &mut rng, "dec2", cfg.hidden_dim, input_dim, 32)?;
        let pred_hidden = (cfg.hidden_dim / 4).max(4);
        let pred1 =
            Linear::with_name(&mut store, &mut rng, "pred1", cfg.latent_dim, pred_hidden, 32)?;
        let pred2 = Linear::with_name(&mut store, &mut rng, "pred2", pred_hidden, 1, 32)?;
        Ok(TwoPhaseEncoder {
            store,
            enc1,
            enc2,
            dec1,
            dec2,
            pred1,
            pred2,
            input_dim,
            latent_dim: cfg.latent_dim,
        })
    }

    /// Latent dimensionality.
    pub fn latent_dim(&self) -> usize {
        self.latent_dim
    }

    fn encode_tape(&self, tape: &mut Tape, bind: &mut Bindings, x: Var) -> Result<Var> {
        let h = self.enc1.forward(tape, bind, &self.store, x)?;
        let h = tape.relu(h)?;
        Ok(self.enc2.forward(tape, bind, &self.store, h)?)
    }

    /// Encodes a batch of one-hot settings `[n, D] → [n, latent]` (inference
    /// path).
    pub fn encode_batch(&self, onehot: &Tensor) -> Result<Tensor> {
        if onehot.dims()[1] != self.input_dim {
            return Err(SearchError::BadConfig {
                what: format!(
                    "encoder input dim {} != expected {}",
                    onehot.dims()[1],
                    self.input_dim
                ),
            });
        }
        let h = self.enc1.eval_forward(&self.store, onehot)?;
        let h = h.map(|v| v.max(0.0));
        Ok(self.enc2.eval_forward(&self.store, &h)?)
    }

    /// Encodes a single setting through the space's one-hot representation.
    pub fn encode(&self, space: &SearchSpace, setting: &StudentSetting) -> Result<Vec<f32>> {
        let oh = Tensor::from_vec(space.encode_onehot(setting), &[1, self.input_dim])?;
        Ok(self.encode_batch(&oh)?.into_vec())
    }

    /// Predicted accuracy of a setting via `Ψ(Φ(x))`.
    pub fn predict_accuracy(&self, space: &SearchSpace, setting: &StudentSetting) -> Result<f32> {
        let oh = Tensor::from_vec(space.encode_onehot(setting), &[1, self.input_dim])?;
        let z = self.encode_batch(&oh)?;
        let h = self.pred1.eval_forward(&self.store, &z)?;
        let h = h.map(|v| v.max(0.0));
        let out = self.pred2.eval_forward(&self.store, &h)?;
        Ok(out.data()[0])
    }
}

/// Trains the encoder per Algorithm 2.
///
/// `evaluated` supplies the `(x_p, accuracy_p)` pairs of the predictor
/// phase; pass `with_predictor = false` for the single-phase (autoencoder
/// only) ablation of Table 5.
pub fn train_encoder(
    space: &SearchSpace,
    evaluated: &[(StudentSetting, f64)],
    cfg: &EncoderConfig,
    with_predictor: bool,
) -> Result<TwoPhaseEncoder> {
    space.validate()?;
    if with_predictor && evaluated.is_empty() {
        return Err(SearchError::BadConfig {
            what: "two-phase encoder needs evaluated settings".into(),
        });
    }
    let input_dim = space.onehot_len();
    let enc = TwoPhaseEncoder::build(input_dim, cfg)?;
    let mut enc = enc;
    let mut rng = seeded(cfg.seed.wrapping_add(1));

    // R unevaluated settings for the reconstruction phase
    let r_settings = space.sample_distinct(&mut rng, cfg.r_samples.max(cfg.batch));
    let r_onehot: Vec<Vec<f32>> = r_settings.iter().map(|s| space.encode_onehot(s)).collect();

    // P evaluated settings for the predictor phase
    let p_onehot: Vec<f32> = evaluated.iter().flat_map(|(s, _)| space.encode_onehot(s)).collect();
    let p_targets: Vec<f32> = evaluated.iter().map(|(_, a)| *a as f32).collect();

    let mut opt = Adam::new(cfg.lr);
    let ps = cfg.predictor_every.max(1);
    for epoch in 0..cfg.epochs {
        // ----- autoencoder phase (lines 6–7) -----
        let mut order: Vec<usize> = (0..r_onehot.len()).collect();
        use rand::seq::SliceRandom;
        order.shuffle(&mut rng);
        for chunk in order.chunks(cfg.batch) {
            let mut flat = Vec::with_capacity(chunk.len() * input_dim);
            for &i in chunk {
                flat.extend_from_slice(&r_onehot[i]);
            }
            let x = Tensor::from_vec(flat, &[chunk.len(), input_dim])?;
            let mut tape = Tape::new();
            let mut bind = Bindings::new();
            let xv = tape.constant(x.clone());
            let z = enc.encode_tape(&mut tape, &mut bind, xv)?;
            let h = enc.dec1.forward(&mut tape, &mut bind, &enc.store, z)?;
            let h = tape.relu(h)?;
            let recon = enc.dec2.forward(&mut tape, &mut bind, &enc.store, h)?;
            let loss = tape.mse_to_target(recon, &x)?;
            let grads = tape.backward(loss)?;
            let pairs = bind.collect_grads(grads);
            opt.step(&mut enc.store, &pairs)?;
        }
        // ----- predictor phase (lines 8–10) -----
        if with_predictor && epoch % ps == ps - 1 {
            for _ in 0..cfg.predictor_steps.max(1) {
                predictor_step(
                    &mut enc,
                    &p_onehot,
                    &p_targets,
                    evaluated.len(),
                    input_dim,
                    &mut opt,
                )?;
            }
        }
    }
    // final predictor-only fine-tune: align the latent with accuracy
    if with_predictor {
        for _ in 0..cfg.final_tune_steps {
            predictor_step(&mut enc, &p_onehot, &p_targets, evaluated.len(), input_dim, &mut opt)?;
        }
    }
    Ok(enc)
}

/// One full-batch gradient step of the predictor phase
/// (`arg min_{Φ,Ψ} L_accur`, Algorithm 2 line 10).
fn predictor_step(
    enc: &mut TwoPhaseEncoder,
    p_onehot: &[f32],
    p_targets: &[f32],
    n: usize,
    input_dim: usize,
    opt: &mut Adam,
) -> Result<()> {
    let x = Tensor::from_vec(p_onehot.to_vec(), &[n, input_dim])?;
    let target = Tensor::from_vec(p_targets.to_vec(), &[n, 1])?;
    let mut tape = Tape::new();
    let mut bind = Bindings::new();
    let xv = tape.constant(x);
    let z = enc.encode_tape(&mut tape, &mut bind, xv)?;
    let h = enc.pred1.forward(&mut tape, &mut bind, &enc.store, z)?;
    let h = tape.relu(h)?;
    let pred = enc.pred2.forward(&mut tape, &mut bind, &enc.store, h)?;
    let loss = tape.mse_to_target(pred, &target)?;
    let grads = tape.backward(loss)?;
    let pairs = bind.collect_grads(grads);
    opt.step(&mut enc.store, &pairs)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightts_nn::loss::mse;

    fn space() -> SearchSpace {
        SearchSpace::paper_default(1, 32, 5, 4)
    }

    fn quick_cfg() -> EncoderConfig {
        EncoderConfig { epochs: 80, r_samples: 768, ..Default::default() }
    }

    /// A synthetic "accuracy" driven mostly by layers (as in the paper's
    /// Eq. 10 discussion: layers matter, bits matter less).
    fn synth_acc(s: &StudentSetting) -> f64 {
        let layers: usize = s.0.iter().map(|b| b.0).sum();
        let bits: u32 = s.0.iter().map(|b| u32::from(b.2)).sum();
        0.3 + 0.04 * layers as f64 + 0.001 * f64::from(bits)
    }

    #[test]
    fn autoencoder_learns_to_reconstruct() {
        let sp = space();
        let enc = train_encoder(&sp, &[], &quick_cfg(), false).unwrap();
        // reconstruction error should beat predicting the mean one-hot
        let mut rng = seeded(9);
        let settings = sp.sample_distinct(&mut rng, 16);
        let mut recon_err = 0.0f32;
        for s in &settings {
            let oh = Tensor::from_vec(sp.encode_onehot(s), &[1, sp.onehot_len()]).unwrap();
            let z = enc.encode_batch(&oh).unwrap();
            let h = enc.dec1.eval_forward(&enc.store, &z).unwrap().map(|v| v.max(0.0));
            let r = enc.dec2.eval_forward(&enc.store, &h).unwrap();
            recon_err += mse(&r, &oh).unwrap();
        }
        recon_err /= settings.len() as f32;
        // one-hot density is 3/14 per block-slot; mean-prediction MSE ≈ p(1−p) ≈ 0.17
        assert!(recon_err < 0.12, "reconstruction MSE {recon_err}");
    }

    #[test]
    fn latent_dim_is_respected() {
        let sp = space();
        let enc = train_encoder(&sp, &[], &quick_cfg(), false).unwrap();
        let mut rng = seeded(10);
        let s = sp.random_setting(&mut rng);
        let z = enc.encode(&sp, &s).unwrap();
        assert_eq!(z.len(), enc.latent_dim());
    }

    #[test]
    fn two_phase_encoder_predicts_accuracy_trend() {
        let sp = space();
        let mut rng = seeded(11);
        // 48 labeled points and double the quick epoch budget: with only 24
        // points the tiny regression head learns the trend only for lucky
        // RNG streams, which made this test flake when the random sequence
        // changed.
        let evaluated: Vec<(StudentSetting, f64)> = sp
            .sample_distinct(&mut rng, 48)
            .into_iter()
            .map(|s| {
                let a = synth_acc(&s);
                (s, a)
            })
            .collect();
        let cfg = EncoderConfig { epochs: 160, ..quick_cfg() };
        let enc = train_encoder(&sp, &evaluated, &cfg, true).unwrap();
        // prediction should correlate with the ground truth on fresh points
        let fresh = sp.sample_distinct(&mut rng, 24);
        let preds: Vec<f64> =
            fresh.iter().map(|s| f64::from(enc.predict_accuracy(&sp, s).unwrap())).collect();
        let truth: Vec<f64> = fresh.iter().map(synth_acc).collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let (mp, mt) = (mean(&preds), mean(&truth));
        let cov: f64 = preds.iter().zip(truth.iter()).map(|(&p, &t)| (p - mp) * (t - mt)).sum();
        let vp: f64 = preds.iter().map(|&p| (p - mp) * (p - mp)).sum();
        let vt: f64 = truth.iter().map(|&t| (t - mt) * (t - mt)).sum();
        let corr = cov / (vp.sqrt() * vt.sqrt()).max(1e-12);
        assert!(corr > 0.3, "prediction/truth correlation {corr}");
    }

    #[test]
    fn two_phase_requires_evaluated_points() {
        let sp = space();
        assert!(train_encoder(&sp, &[], &quick_cfg(), true).is_err());
    }

    #[test]
    fn encode_batch_checks_dims() {
        let sp = space();
        let enc = train_encoder(&sp, &[], &quick_cfg(), false).unwrap();
        let bad = Tensor::zeros(&[1, 3]);
        assert!(enc.encode_batch(&bad).is_err());
    }

    use lightts_tensor::rng::seeded;
}
