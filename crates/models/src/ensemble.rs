//! Ensembles of base models — the teachers of LightTS (paper Figure 6).
//!
//! An [`Ensemble`] holds `N` trained base models that share a class set. Its
//! own prediction is the uniform average of member distributions (`1/N`, the
//! classic combination of paper Figure 1(a)) — that average is `FP-Ensem` in
//! the experiments — while distillation consumers query the *per-member*
//! distributions `q_i` directly.
//!
//! [`train_ensemble`] trains the N members in parallel with decorrelated
//! seeds ("initialized with different random states to ensure diversity",
//! Section 4.1.4).

use crate::inception::{InceptionConfig, InceptionTime, TrainConfig};
use crate::nondeep::cif::CanonicalIntervalForest;
use crate::nondeep::forest::{ForestConfig, TimeSeriesForest};
use crate::nondeep::tde::{TdeConfig, TemporalDictionaryEnsemble};
use crate::{Classifier, ModelError, Result};
use lightts_data::LabeledDataset;
use lightts_tensor::rng::{derive_seed, seeded};
use lightts_tensor::Tensor;

/// The base-model families evaluated in the paper (Section 4.1.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaseModelKind {
    /// InceptionTime (default, deep).
    InceptionTime,
    /// Temporal Dictionary Ensemble.
    Tde,
    /// Canonical Interval Forest.
    Cif,
    /// Time Series Forest.
    Forest,
}

impl BaseModelKind {
    /// Display name matching the paper's tables.
    pub fn as_str(&self) -> &'static str {
        match self {
            BaseModelKind::InceptionTime => "InceptionTime",
            BaseModelKind::Tde => "TDE",
            BaseModelKind::Cif => "CIF",
            BaseModelKind::Forest => "Forest",
        }
    }
}

/// Training configuration for [`train_ensemble`].
#[derive(Debug, Clone)]
pub struct EnsembleTrainConfig {
    /// Number of base models `N` (paper default: 10).
    pub n_members: usize,
    /// Master seed; member seeds are derived.
    pub seed: u64,
    /// InceptionTime width (filters per conv layer).
    pub filters: usize,
    /// InceptionTime training hyper-parameters.
    pub inception: TrainConfig,
    /// Interval-forest hyper-parameters (TSF and CIF).
    pub forest: ForestConfig,
    /// TDE hyper-parameters.
    pub tde: TdeConfig,
}

impl Default for EnsembleTrainConfig {
    fn default() -> Self {
        EnsembleTrainConfig {
            n_members: 10,
            seed: 0x7EAC,
            filters: 8,
            inception: TrainConfig::default(),
            forest: ForestConfig::default(),
            tde: TdeConfig::default(),
        }
    }
}

/// An ensemble of trained base models sharing one class set.
pub struct Ensemble {
    members: Vec<Box<dyn Classifier>>,
    name: String,
}

impl Ensemble {
    /// Wraps trained members, validating they agree on the class count.
    pub fn new(name: impl Into<String>, members: Vec<Box<dyn Classifier>>) -> Result<Self> {
        if members.is_empty() {
            return Err(ModelError::BadConfig { what: "ensemble needs ≥ 1 member".into() });
        }
        let k = members[0].num_classes();
        if members.iter().any(|m| m.num_classes() != k) {
            return Err(ModelError::BadConfig {
                what: "ensemble members disagree on class count".into(),
            });
        }
        Ok(Ensemble { members, name: name.into() })
    }

    /// Number of members `N`.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the ensemble is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Member `i`.
    pub fn member(&self, i: usize) -> Result<&dyn Classifier> {
        self.members
            .get(i)
            .map(|m| m.as_ref())
            .ok_or(ModelError::BadConfig { what: format!("no member {i}") })
    }

    /// Per-member class distributions `q_i` for a batch.
    pub fn member_probs(&self, inputs: &Tensor) -> Result<Vec<Tensor>> {
        self.members.iter().map(|m| m.predict_proba(inputs)).collect()
    }

    /// Per-member class distributions over a whole dataset.
    pub fn member_probs_dataset(&self, ds: &LabeledDataset) -> Result<Vec<Tensor>> {
        self.members.iter().map(|m| m.predict_proba_dataset(ds)).collect()
    }
}

impl Classifier for Ensemble {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_classes(&self) -> usize {
        self.members[0].num_classes()
    }

    /// Uniform-average combination `q = 1/N Σ q_i` (paper Figure 1(a)).
    fn predict_proba(&self, inputs: &Tensor) -> Result<Tensor> {
        let mut acc: Option<Tensor> = None;
        for m in &self.members {
            let p = m.predict_proba(inputs)?;
            acc = Some(match acc {
                None => p,
                Some(a) => a.add(&p)?,
            });
        }
        let acc = acc.expect("ensemble is non-empty");
        Ok(acc.scale(1.0 / self.members.len() as f32))
    }
}

/// Trains an `N`-member ensemble of the given kind, members in parallel.
pub fn train_ensemble(
    kind: BaseModelKind,
    train: &LabeledDataset,
    cfg: &EnsembleTrainConfig,
) -> Result<Ensemble> {
    if cfg.n_members == 0 {
        return Err(ModelError::BadConfig { what: "n_members must be ≥ 1".into() });
    }
    let results: Vec<Result<Box<dyn Classifier>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.n_members)
            .map(|i| {
                let member_seed = derive_seed(cfg.seed, i as u64);
                scope.spawn(move || train_member(kind, train, cfg, member_seed, i))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("trainer thread panicked")).collect()
    });
    let members = results.into_iter().collect::<Result<Vec<_>>>()?;
    Ensemble::new(format!("{}-ensemble", kind.as_str()), members)
}

fn train_member(
    kind: BaseModelKind,
    train: &LabeledDataset,
    cfg: &EnsembleTrainConfig,
    seed: u64,
    index: usize,
) -> Result<Box<dyn Classifier>> {
    match kind {
        BaseModelKind::InceptionTime => {
            let icfg = InceptionConfig::teacher(
                train.dims(),
                train.series_len(),
                train.num_classes(),
                cfg.filters,
            );
            let mut rng = seeded(seed);
            let mut model = InceptionTime::new(icfg, &mut rng)?;
            model.set_name(format!("InceptionTime-{index}"));
            let mut tc = cfg.inception;
            tc.seed = derive_seed(seed, 1);
            model.fit(train, &tc)?;
            Ok(Box::new(model))
        }
        BaseModelKind::Tde => Ok(Box::new(TemporalDictionaryEnsemble::fit(train, &cfg.tde, seed)?)),
        BaseModelKind::Cif => Ok(Box::new(CanonicalIntervalForest::fit(train, &cfg.forest, seed)?)),
        BaseModelKind::Forest => Ok(Box::new(TimeSeriesForest::fit(train, &cfg.forest, seed)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use lightts_data::synth::{Generator, SynthConfig};

    fn data(classes: usize, n: usize, seed: u64) -> LabeledDataset {
        let gen = Generator::new(
            SynthConfig { classes, dims: 1, length: 32, difficulty: 0.15, waveforms: 3 },
            seed,
        );
        gen.split("ens-test", n, seed + 1).unwrap()
    }

    fn quick_cfg(n: usize) -> EnsembleTrainConfig {
        EnsembleTrainConfig {
            n_members: n,
            seed: 1,
            filters: 4,
            inception: TrainConfig { epochs: 10, batch_size: 16, lr: 0.01, adam: true, seed: 2 },
            ..EnsembleTrainConfig::default()
        }
    }

    #[test]
    fn forest_ensemble_beats_chance_and_averages() {
        let train = data(3, 60, 70);
        let ens = train_ensemble(BaseModelKind::Forest, &train, &quick_cfg(3)).unwrap();
        assert_eq!(ens.len(), 3);
        let batch = train.full_batch().unwrap();
        let probs = ens.predict_proba(&batch.inputs).unwrap();
        let acc = accuracy(&probs, &batch.labels).unwrap();
        assert!(acc > 0.5, "ensemble accuracy {acc}");

        // average of member distributions equals ensemble output
        let member_probs = ens.member_probs(&batch.inputs).unwrap();
        let mut avg = Tensor::zeros(probs.dims());
        for p in &member_probs {
            avg = avg.add(p).unwrap();
        }
        let avg = avg.scale(1.0 / member_probs.len() as f32);
        for (a, b) in avg.data().iter().zip(probs.data().iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn members_are_diverse() {
        let train = data(3, 40, 71);
        let ens = train_ensemble(BaseModelKind::Tde, &train, &quick_cfg(3)).unwrap();
        let batch = train.full_batch().unwrap();
        let probs = ens.member_probs(&batch.inputs).unwrap();
        assert!(probs[0] != probs[1] || probs[1] != probs[2], "members should differ across seeds");
    }

    #[test]
    fn inception_ensemble_trains_in_parallel() {
        let train = data(2, 32, 72);
        let ens = train_ensemble(BaseModelKind::InceptionTime, &train, &quick_cfg(2)).unwrap();
        assert_eq!(ens.len(), 2);
        let batch = train.full_batch().unwrap();
        let acc = accuracy(&ens.predict_proba(&batch.inputs).unwrap(), &batch.labels).unwrap();
        assert!(acc > 0.5, "inception ensemble train accuracy {acc}");
    }

    #[test]
    fn empty_ensemble_rejected() {
        assert!(Ensemble::new("x", vec![]).is_err());
        let train = data(2, 16, 73);
        let cfg = EnsembleTrainConfig { n_members: 0, ..quick_cfg(1) };
        assert!(train_ensemble(BaseModelKind::Forest, &train, &cfg).is_err());
    }
}
