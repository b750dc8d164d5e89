//! A quantizable convolutional forecaster: the [`InceptionTime`] network
//! with a regression head.
//!
//! The paper (Section 3.2.1) claims AED "can be applied to forecasting by
//! replacing the cross entropy term in Equation 2 by a forecasting error
//! term, e.g., mean square error"; this model is the student/teacher family
//! for that extension. It runs the classifier's network (parallel convs
//! with halving filter lengths → batch-norm → ReLU, global average pooling,
//! a linear head), reads the head's `out_len` outputs as forecasts, and
//! trains them with MSE. Its exports are their own container kind, so a
//! forecaster never loads or serves as a classifier.

use crate::inception::{config_bytes, read_config, InceptionConfig, InceptionTime};
use crate::Result;
use lightts_data::forecast::ForecastDataset;
use lightts_nn::optim::Adam;
use lightts_nn::serialize::StoreForm;
use lightts_obs::checkpoint::SectionReader;
use lightts_tensor::rng::seeded;
use lightts_tensor::Tensor;
use rand::Rng;

/// Configuration of a convolutional forecaster: an InceptionTime
/// backbone plus the forecast head size.
#[derive(Debug, Clone, PartialEq)]
pub struct ForecastConfig {
    /// Backbone blocks (layers/filter-length/bits per block, as in the
    /// classification search space). Its `num_classes` is stored with the
    /// model but unused: the head has `out_len` outputs.
    pub backbone: InceptionConfig,
    /// Output values per window: `dims × horizon`.
    pub out_len: usize,
}

impl ForecastConfig {
    /// A small default forecaster for the given task shape.
    pub fn for_task(ds: &ForecastDataset, filters: usize, bits: u8) -> Self {
        let mut backbone = InceptionConfig::student(
            ds.dims(),
            ds.history(),
            // num_classes is unused by the backbone body; keep it valid
            1,
            filters,
            bits,
        );
        // forecasting favours shorter filters than classification
        for b in &mut backbone.blocks {
            b.filter_len = b.filter_len.min(ds.history());
        }
        ForecastConfig { backbone, out_len: ds.dims() * ds.horizon() }
    }
}

/// Container kind of forecaster exports.
const KIND: &str = "forecaster";

/// A trainable, quantizable convolutional forecaster.
pub struct Forecaster {
    config: ForecastConfig,
    /// The backbone with an `out_len`-wide head.
    net: InceptionTime,
}

impl Forecaster {
    /// Builds a randomly initialized forecaster. The backbone must pass the
    /// same validation as an [`InceptionTime`] classifier's config.
    pub fn new<R: Rng>(config: ForecastConfig, rng: &mut R) -> Result<Self> {
        let net_config = InceptionConfig { num_classes: config.out_len, ..config.backbone.clone() };
        let net = InceptionTime::build(net_config, "fblock", "head", rng)?;
        Ok(Forecaster { config, net })
    }

    /// The model configuration.
    pub fn config(&self) -> &ForecastConfig {
        &self.config
    }

    /// Model size in bits (quantized accounting).
    pub fn size_bits(&self) -> u64 {
        self.net.size_bits()
    }

    /// The network, for trainers that run its mini-batch loop
    /// ([`InceptionTime::train_epochs`]) with their own loss.
    pub fn net_mut(&mut self) -> &mut InceptionTime {
        &mut self.net
    }

    /// Inference predictions on plain tensors.
    pub fn predict(&self, inputs: &Tensor) -> Result<Tensor> {
        self.net.logits(inputs)
    }

    /// Supervised MSE training (teacher forecasters), in batches of 32.
    ///
    /// Returns the final-epoch training loss. Each call is one
    /// `teacher.fit` span, as [`InceptionTime::fit`](crate::inception::InceptionTime::fit).
    pub fn fit(
        &mut self,
        train: &ForecastDataset,
        epochs: usize,
        lr: f32,
        seed: u64,
    ) -> Result<f32> {
        let batch = 32;
        let mut sp = lightts_obs::span!("teacher.fit", {
            samples: train.len(),
            epochs: epochs,
            batch: batch,
        });
        let loss = self.net.train_epochs(
            train.len(),
            batch,
            epochs,
            &mut Adam::new(lr),
            &mut seeded(seed),
            |rows| Ok(train.batch(rows)?),
            |tape, pred, _, y| Ok(tape.mse_to_target(pred, y)?),
        )?;
        sp.record("loss", loss);
        Ok(loss)
    }

    /// Mean squared forecast error on a dataset.
    pub fn mse_on(&self, ds: &ForecastDataset) -> Result<f32> {
        let pred = self.predict(ds.inputs())?;
        Ok(lightts_nn::loss::mse(&pred, ds.targets())?)
    }

    /// Serializes the forecaster (backbone config, output head size,
    /// batch-norm running statistics, bit-packed parameters) as a
    /// container of kind `forecaster`.
    pub fn save_bytes(&self) -> Result<Vec<u8>> {
        let config = config_bytes(&self.config.backbone, Some(self.config.out_len));
        self.net.export(KIND, &config, StoreForm::Packed)
    }

    /// Loads a forecaster saved by [`Forecaster::save_bytes`].
    pub fn load_bytes(bytes: &[u8]) -> Result<Self> {
        let r = SectionReader::parse(bytes, KIND)?;
        let (backbone, out_len) = read_config(r.require("config")?, true)?;
        let mut model = Forecaster::new(ForecastConfig { backbone, out_len }, &mut seeded(0))?;
        model.net.restore(&r, StoreForm::Packed)?;
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightts_data::forecast::{synthetic_series, windows_from_series};

    fn task(seed: u64) -> lightts_data::forecast::ForecastSplits {
        let series = synthetic_series(1, 220, 0.05, seed);
        windows_from_series("f", &series, 16, 4, 2, 0.15, 0.15).unwrap()
    }

    #[test]
    fn forecaster_shapes() {
        let s = task(1);
        let cfg = ForecastConfig::for_task(&s.train, 4, 32);
        let mut rng = seeded(2);
        let f = Forecaster::new(cfg, &mut rng).unwrap();
        let pred = f.predict(s.train.inputs()).unwrap();
        assert_eq!(pred.dims(), &[s.train.len(), 4]);
    }

    #[test]
    fn training_beats_predicting_the_mean() {
        let s = task(3);
        let cfg = ForecastConfig::for_task(&s.train, 4, 32);
        let mut rng = seeded(4);
        let mut f = Forecaster::new(cfg, &mut rng).unwrap();
        f.fit(&s.train, 30, 0.01, 5).unwrap();
        let model_mse = f.mse_on(&s.test).unwrap();
        // baseline: predict the global mean of training targets
        let mean = s.train.targets().mean();
        let mut base = 0.0f32;
        for &v in s.test.targets().data() {
            base += (v - mean) * (v - mean);
        }
        base /= s.test.targets().len() as f32;
        assert!(model_mse < 0.7 * base, "forecaster MSE {model_mse} vs mean-baseline {base}");
    }

    #[test]
    fn quantized_forecaster_is_smaller_and_still_works() {
        let s = task(5);
        let mut rng = seeded(6);
        let f32bit = Forecaster::new(ForecastConfig::for_task(&s.train, 4, 32), &mut rng).unwrap();
        let f8bit = Forecaster::new(ForecastConfig::for_task(&s.train, 4, 8), &mut rng).unwrap();
        assert!(f8bit.size_bits() < f32bit.size_bits());
        let pred = f8bit.predict(s.test.inputs()).unwrap();
        assert!(pred.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn save_load_roundtrip_preserves_predictions() {
        let s = task(9);
        let cfg = ForecastConfig::for_task(&s.train, 4, 8);
        let mut rng = seeded(10);
        let mut f = Forecaster::new(cfg, &mut rng).unwrap();
        f.fit(&s.train, 5, 0.01, 11).unwrap();
        let bytes = f.save_bytes().unwrap();
        let loaded = Forecaster::load_bytes(&bytes).unwrap();
        let p1 = f.predict(s.test.inputs()).unwrap();
        let p2 = loaded.predict(s.test.inputs()).unwrap();
        for (a, b) in p1.data().iter().zip(p2.data().iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn rejects_zero_outputs() {
        let s = task(7);
        let mut cfg = ForecastConfig::for_task(&s.train, 4, 32);
        cfg.out_len = 0;
        let mut rng = seeded(8);
        assert!(Forecaster::new(cfg, &mut rng).is_err());
    }

    #[test]
    fn rejects_backbones_the_classifier_refuses() {
        let s = task(12);
        let mut rng = seeded(13);
        let mut no_blocks = ForecastConfig::for_task(&s.train, 4, 32);
        no_blocks.backbone.blocks.clear();
        assert!(Forecaster::new(no_blocks, &mut rng).is_err());
        let mut no_length = ForecastConfig::for_task(&s.train, 4, 32);
        no_length.backbone.in_len = 0;
        assert!(Forecaster::new(no_length, &mut rng).is_err());
    }
}
