//! The LightTS teacher-removal loop (paper Section 3.2.2, Figure 9).
//!
//! After each AED run the teacher with the smallest weight λ̂ is removed and
//! AED re-runs on the remaining set — at most `N − 1` removals, hence the
//! linear `O(N · E · BP_w)` complexity the paper contrasts with the
//! factorial leave-one-out search. The configuration with the best
//! *validation* accuracy across rounds is returned.
//!
//! Three strategies are provided to reproduce the Table 3 ablation:
//! no removal, softmax-weight removal, and the confident Gumbel removal
//! LightTS uses.

use crate::aed::{run_aed, AedConfig};
use crate::teacher::TeacherProbs;
use crate::weights::{argmin_weight, WeightTransform};
use crate::Result;
use lightts_data::Splits;
use lightts_models::inception::{InceptionConfig, InceptionTime};
use lightts_obs as obs;

/// How teachers are removed between AED rounds (Table 3 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemovalStrategy {
    /// No removal: one AED round on the full ensemble (AED-One).
    None,
    /// Remove the argmin of the plain softmax weights each round.
    Softmax,
    /// Remove the argmin of the Gumbel-confident weights λ̂ each round
    /// (the LightTS default).
    GumbelConfident,
}

/// One round of the removal loop.
#[derive(Debug, Clone)]
pub struct RemovalRound {
    /// Teacher indices (into the original ensemble) used this round.
    pub kept: Vec<usize>,
    /// Validation accuracy of the student trained this round.
    pub val_accuracy: f64,
    /// The final weights of this round (aligned with `kept`).
    pub weights: Vec<f32>,
}

/// Outcome of the removal loop: the best round's student and provenance.
#[derive(Debug)]
pub struct RemovalResult {
    /// The best student found (highest validation accuracy).
    pub student: InceptionTime,
    /// The teacher subset that produced it.
    pub kept: Vec<usize>,
    /// Its validation accuracy.
    pub val_accuracy: f64,
    /// Its validation top-5 accuracy.
    pub val_top5: f64,
    /// Every round, in execution order.
    pub history: Vec<RemovalRound>,
    /// Number of AED runs executed (the cost driver).
    pub aed_runs: usize,
}

fn transform_for(strategy: RemovalStrategy, base: WeightTransform) -> WeightTransform {
    match strategy {
        RemovalStrategy::None | RemovalStrategy::Softmax => WeightTransform::Softmax,
        RemovalStrategy::GumbelConfident => match base {
            WeightTransform::GumbelConfident { tau } => WeightTransform::GumbelConfident { tau },
            WeightTransform::Softmax => WeightTransform::GumbelConfident { tau: 0.5 },
        },
    }
}

/// Runs AED with iterative teacher removal, returning the best round.
pub fn lightts_removal(
    splits: &Splits,
    teachers: &TeacherProbs,
    config: &InceptionConfig,
    aed_cfg: &AedConfig,
    strategy: RemovalStrategy,
) -> Result<RemovalResult> {
    let mut cfg = *aed_cfg;
    cfg.transform = transform_for(strategy, aed_cfg.transform);
    let remove = strategy != RemovalStrategy::None;
    let (best, kept, history) = remove_teachers(teachers.len(), remove, |kept| {
        let res = run_aed(splits, &teachers.subset(kept)?, config, &cfg)?;
        Ok((res.weights.clone(), res.val_accuracy, res))
    })?;
    Ok(RemovalResult {
        student: best.student,
        kept,
        val_accuracy: best.val_accuracy,
        val_top5: best.val_top5,
        aed_runs: history.len(),
        history,
    })
}

/// The removal loop shared by [`lightts_removal`] and forecasting's
/// [`forecast_lightts`](crate::forecast::forecast_lightts).
///
/// Starting from all `n` teachers, `round` runs on the kept teachers'
/// original indices and returns its final weights λ̂ (aligned with the kept
/// indices), a validation score, where higher is better, and its result.
/// After each round the teacher with the smallest λ̂ is dropped, down to
/// one teacher; with `remove` false only the first round runs. Each round
/// emits a `removal.round` event. Returns the first round with the best
/// score, its kept indices, and every round's record (`val_accuracy`
/// holds the score).
pub(crate) fn remove_teachers<R>(
    n: usize,
    remove: bool,
    mut round: impl FnMut(&[usize]) -> Result<(Vec<f32>, f64, R)>,
) -> Result<(R, Vec<usize>, Vec<RemovalRound>)> {
    let mut kept: Vec<usize> = (0..n).collect();
    let mut history = Vec::new();
    let mut best: Option<(R, Vec<usize>, f64)> = None;
    loop {
        let (weights, score, res) = round(&kept)?;
        let victim =
            (remove && kept.len() > 1).then(|| argmin_weight(&weights).expect("non-empty weights"));
        obs::event!("removal.round", {
            round: history.len(),
            kept: format!("{kept:?}"),
            removed: victim.map_or_else(|| "none".into(), |v| kept[v].to_string()),
            score: score,
            weights: format!("{weights:?}"),
        });
        history.push(RemovalRound { kept: kept.clone(), val_accuracy: score, weights });
        if best.as_ref().is_none_or(|b| score > b.2) {
            best = Some((res, kept.clone(), score));
        }
        let Some(v) = victim else { break };
        kept.remove(v);
    }
    let (best, best_kept, _) = best.expect("at least one round ran");
    Ok((best, best_kept, history))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::StudentTrainOpts;
    use lightts_data::synth::{Generator, SynthConfig};
    use lightts_models::inception::BlockSpec;
    use lightts_tensor::Tensor;

    fn splits(classes: usize, seed: u64) -> Splits {
        let gen = Generator::new(
            SynthConfig { classes, dims: 1, length: 24, difficulty: 0.2, waveforms: 3 },
            seed,
        );
        gen.splits("rm-test", 48, 24, 24, seed + 1).unwrap()
    }

    fn student_cfg(classes: usize) -> InceptionConfig {
        InceptionConfig {
            blocks: vec![BlockSpec { layers: 2, filter_len: 8, bits: 8 }; 2],
            filters: 4,
            in_dims: 1,
            in_len: 24,
            num_classes: classes,
        }
    }

    fn quick_aed(epochs: usize) -> AedConfig {
        AedConfig {
            train: StudentTrainOpts { epochs, batch_size: 16, ..Default::default() },
            v: 4,
            lambda_lr: 2.0,
            transform: WeightTransform::GumbelConfident { tau: 0.5 },
        }
    }

    /// Three teachers: two oracles and one anti-oracle.
    fn teachers(s: &Splits) -> TeacherProbs {
        let mk = |ds: &lightts_data::LabeledDataset, invert: bool, sharp: f32| {
            let k = ds.num_classes();
            let mut t = Tensor::full(&[ds.len(), k], (1.0 - sharp) / (k as f32 - 1.0));
            for (i, &l) in ds.labels().iter().enumerate() {
                let target = if invert { (l + 1) % k } else { l };
                t.set(&[i, target], sharp).unwrap();
            }
            t
        };
        TeacherProbs::from_raw(
            vec![mk(&s.train, false, 0.9), mk(&s.train, false, 0.8), mk(&s.train, true, 0.9)],
            vec![
                mk(&s.validation, false, 0.9),
                mk(&s.validation, false, 0.8),
                mk(&s.validation, true, 0.9),
            ],
            s.validation.labels(),
        )
        .unwrap()
    }

    #[test]
    fn none_strategy_runs_exactly_once() {
        let s = splits(2, 110);
        let t = teachers(&s);
        let res =
            lightts_removal(&s, &t, &student_cfg(2), &quick_aed(8), RemovalStrategy::None).unwrap();
        assert_eq!(res.aed_runs, 1);
        assert_eq!(res.history.len(), 1);
        assert_eq!(res.kept, vec![0, 1, 2]);
    }

    #[test]
    fn gumbel_removal_explores_all_rounds() {
        let s = splits(2, 111);
        let t = teachers(&s);
        let res = lightts_removal(
            &s,
            &t,
            &student_cfg(2),
            &quick_aed(8),
            RemovalStrategy::GumbelConfident,
        )
        .unwrap();
        // 3 teachers ⇒ rounds with 3, 2, 1 teachers = 3 AED runs (linear)
        assert_eq!(res.aed_runs, 3);
        assert_eq!(res.history.len(), 3);
        assert_eq!(res.history[0].kept.len(), 3);
        assert_eq!(res.history[2].kept.len(), 1);
        // best round's subset is recorded and non-empty
        assert!(!res.kept.is_empty());
        assert!(res.val_accuracy > 0.4, "val accuracy {}", res.val_accuracy);
    }

    #[test]
    fn history_weights_align_with_kept() {
        let s = splits(2, 112);
        let t = teachers(&s);
        let res = lightts_removal(&s, &t, &student_cfg(2), &quick_aed(8), RemovalStrategy::Softmax)
            .unwrap();
        for round in &res.history {
            assert_eq!(round.kept.len(), round.weights.len());
        }
    }

    #[test]
    fn empty_teachers_rejected() {
        let s = splits(2, 113);
        let t = teachers(&s);
        let empty =
            TeacherProbs { train: vec![], val: vec![], val_accuracy: vec![], num_classes: 2 };
        assert!(lightts_removal(&s, &empty, &student_cfg(2), &quick_aed(4), RemovalStrategy::None)
            .is_err());
        drop(t);
    }
}
