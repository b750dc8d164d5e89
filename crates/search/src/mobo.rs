//! Multi-objective Bayesian optimization (paper Section 3.3.3, Figure 11).
//!
//! The loop: evaluate `P` random settings with the (expensive) accuracy
//! oracle, then repeat until `Q` evaluations — fit a GP on the evaluated
//! settings' representations, draw a random scalarization weight `β`
//! (\[29\]'s random-trade-off strategy), score a candidate pool with Expected
//! Improvement on the joint objective `g(x) = β·f(x) − (1−β)·Size(x)`, and
//! evaluate the winner. Four search variants reproduce the paper's
//! comparisons:
//!
//! * [`SpaceRepr::Original`] — GP on raw `(L, F, W)` values (classic MOBO).
//! * [`SpaceRepr::Normalized`] — GP on min-max-scaled values.
//! * [`SpaceRepr::SingleEncoder`] — GP on an autoencoder latent (ablation).
//! * [`SpaceRepr::TwoPhaseEncoder`] — GP on the accuracy-aligned latent
//!   (the full Encoded MOBO).
//!
//! Plus [`random_search`], the no-model baseline of Figure 22/Table 6.

use crate::acquisition::expected_improvement;
use crate::encoder::{train_encoder, EncoderConfig, TwoPhaseEncoder};
use crate::gp::GaussianProcess;
use crate::pareto::{pareto_frontier, Evaluated};
use crate::space::{SearchSpace, StudentSetting};
use crate::{Result, SearchError};
use lightts_obs as obs;
use lightts_obs::checkpoint::{
    atomic_write, read_checkpoint, Cursor, SectionReader, SectionWriter,
};
use lightts_tensor::rng::{rng_from_state, rng_state, seeded};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

/// The setting representation the GP operates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpaceRepr {
    /// Raw discrete values (the paper's problematic "original space").
    Original,
    /// Min-max normalized values.
    Normalized,
    /// Autoencoder latent without accuracy alignment (single phase).
    SingleEncoder,
    /// The full two-phase encoder latent (Encoded MOBO).
    TwoPhaseEncoder,
}

impl SpaceRepr {
    /// Display name matching the paper's Table 5 rows.
    pub fn as_str(&self) -> &'static str {
        match self {
            SpaceRepr::Original => "Original",
            SpaceRepr::Normalized => "Normalized",
            SpaceRepr::SingleEncoder => "Single Encoder",
            SpaceRepr::TwoPhaseEncoder => "Two-phase Encoder",
        }
    }
}

/// MOBO configuration (paper: `P = 10`, `Q = 50`).
#[derive(Debug, Clone, Copy)]
pub struct MoboConfig {
    /// Total accuracy evaluations `Q`.
    pub q: usize,
    /// Random initial evaluations `P`.
    pub p_init: usize,
    /// Candidate pool size scored per iteration.
    pub candidates: usize,
    /// Setting representation for the GP.
    pub repr: SpaceRepr,
    /// Encoder hyper-parameters (encoder representations only).
    pub encoder: EncoderConfig,
    /// Refresh (retrain) the encoder after this many new evaluations.
    pub encoder_refresh: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MoboConfig {
    fn default() -> Self {
        MoboConfig {
            q: 50,
            p_init: 10,
            candidates: 256,
            repr: SpaceRepr::TwoPhaseEncoder,
            encoder: EncoderConfig::default(),
            encoder_refresh: 10,
            seed: 0x30B0,
        }
    }
}

/// Result of a search run.
#[derive(Debug, Clone)]
pub struct MoboOutcome {
    /// Every evaluated setting with accuracy and size, in evaluation order.
    pub evaluated: Vec<Evaluated>,
    /// The Pareto frontier of the evaluated set.
    pub frontier: Vec<Evaluated>,
    /// Wall-clock seconds spent (dominated by oracle calls).
    pub seconds: f64,
}

fn call_oracle<F>(oracle: &mut F, setting: &StudentSetting) -> Result<f64>
where
    F: FnMut(&StudentSetting) -> std::result::Result<f64, String>,
{
    oracle(setting).map_err(|what| SearchError::Evaluator { what })
}

/// Pure random search: evaluate `q` distinct random settings.
pub fn random_search<F>(
    space: &SearchSpace,
    mut oracle: F,
    q: usize,
    seed: u64,
) -> Result<MoboOutcome>
where
    F: FnMut(&StudentSetting) -> std::result::Result<f64, String>,
{
    space.validate()?;
    let start = Instant::now();
    let mut rng = seeded(seed);
    let settings = space.sample_distinct(&mut rng, q);
    let mut evaluated = Vec::with_capacity(settings.len());
    for s in settings {
        let accuracy = call_oracle(&mut oracle, &s)?;
        let size_bits = space.size_bits(&s);
        evaluated.push(Evaluated { setting: s, accuracy, size_bits });
    }
    let frontier = pareto_frontier(&evaluated);
    Ok(MoboOutcome { evaluated, frontier, seconds: start.elapsed().as_secs_f64() })
}

struct ReprBuilder<'a> {
    space: &'a SearchSpace,
    repr: SpaceRepr,
    encoder: Option<TwoPhaseEncoder>,
}

impl<'a> ReprBuilder<'a> {
    fn needs_encoder(repr: SpaceRepr) -> bool {
        matches!(repr, SpaceRepr::SingleEncoder | SpaceRepr::TwoPhaseEncoder)
    }

    fn refresh(&mut self, evaluated: &[Evaluated], cfg: &MoboConfig) -> Result<()> {
        if !Self::needs_encoder(self.repr) {
            return Ok(());
        }
        let pairs: Vec<(StudentSetting, f64)> =
            evaluated.iter().map(|e| (e.setting.clone(), e.accuracy)).collect();
        let with_predictor = self.repr == SpaceRepr::TwoPhaseEncoder;
        self.encoder = Some(train_encoder(self.space, &pairs, &cfg.encoder, with_predictor)?);
        Ok(())
    }

    fn encode(&self, setting: &StudentSetting) -> Result<Vec<f32>> {
        match self.repr {
            SpaceRepr::Original => Ok(self.space.encode_raw(setting)),
            SpaceRepr::Normalized => Ok(self.space.encode_normalized(setting)),
            SpaceRepr::SingleEncoder | SpaceRepr::TwoPhaseEncoder => self
                .encoder
                .as_ref()
                .ok_or_else(|| SearchError::BadConfig { what: "encoder not trained".into() })?
                .encode(self.space, setting),
        }
    }
}

/// Kind tag of MOBO checkpoint containers.
const CKPT_KIND: &str = "search.mobo";

fn ck(what: impl Into<String>) -> SearchError {
    SearchError::Checkpoint { what: what.into() }
}

/// Everything a crashed run needs to continue the exact trial sequence.
struct MoboState {
    /// `true` while the initial `P` random evaluations are still running.
    in_init: bool,
    evaluated: Vec<Evaluated>,
    /// Init settings sampled up front but not yet evaluated.
    pending_init: Vec<StudentSetting>,
    /// RNG stream position (captured *after* all draws so far).
    rng: [u64; 4],
    since_refresh: u64,
    /// `evaluated.len()` at the last encoder (re)train — resume retrains
    /// on exactly that prefix so the GP sees the same latent space.
    refresh_len: u64,
}

fn put_settings(buf: &mut Vec<u8>, settings: impl ExactSizeIterator<Item = StudentSetting>) {
    buf.extend_from_slice(&(settings.len() as u32).to_le_bytes());
    for s in settings {
        buf.extend_from_slice(&(s.0.len() as u32).to_le_bytes());
        for (layers, filters, bits) in s.0 {
            buf.extend_from_slice(&(layers as u32).to_le_bytes());
            buf.extend_from_slice(&(filters as u32).to_le_bytes());
            buf.push(bits);
        }
    }
}

fn read_settings(c: &mut Cursor<'_>) -> Result<Vec<StudentSetting>> {
    let count = c.u32()?;
    if count > 1 << 20 {
        return Err(ck("implausible setting count"));
    }
    let mut out = Vec::new();
    for _ in 0..count {
        let blocks = c.u32()?;
        if blocks > 1 << 10 {
            return Err(ck("implausible block count"));
        }
        let setting = (0..blocks)
            .map(|_| Ok((c.u32()? as usize, c.u32()? as usize, c.u8()?)))
            .collect::<Result<_>>()?;
        out.push(StudentSetting(setting));
    }
    Ok(out)
}

fn save_state(path: &Path, st: &MoboState) -> Result<()> {
    let mut w = SectionWriter::new(CKPT_KIND);
    w.section("phase", &[u8::from(st.in_init)]);
    w.section("rng", &st.rng.map(u64::to_le_bytes).concat());
    w.section("counters", &[st.since_refresh, st.refresh_len].map(u64::to_le_bytes).concat());
    let mut evs = Vec::new();
    put_settings(&mut evs, st.evaluated.iter().map(|e| e.setting.clone()));
    for e in &st.evaluated {
        evs.extend_from_slice(&e.accuracy.to_le_bytes());
        evs.extend_from_slice(&e.size_bits.to_le_bytes());
    }
    w.section("evaluated", &evs);
    let mut pending = Vec::new();
    put_settings(&mut pending, st.pending_init.iter().cloned());
    w.section("pending", &pending);
    atomic_write(path, &w.finish()).map_err(|e| ck(format!("writing {path:?}: {e}")))
}

fn load_state(path: &Path) -> Result<Option<MoboState>> {
    let Some(bytes) = read_checkpoint(path).map_err(|e| ck(format!("reading {path:?}: {e}")))?
    else {
        return Ok(None);
    };
    let r = SectionReader::parse(&bytes, CKPT_KIND)?;
    let in_init = match r.require("phase")? {
        [0] => false,
        [1] => true,
        _ => return Err(ck("malformed phase section")),
    };
    let mut c = r.cursor("rng")?;
    let rng = [c.u64()?, c.u64()?, c.u64()?, c.u64()?];
    c.finish()?;
    let mut c = r.cursor("counters")?;
    let (since_refresh, refresh_len) = (c.u64()?, c.u64()?);
    c.finish()?;
    let mut c = r.cursor("evaluated")?;
    let evaluated = read_settings(&mut c)?
        .into_iter()
        .map(|setting| Ok(Evaluated { setting, accuracy: c.f64()?, size_bits: c.u64()? }))
        .collect::<Result<Vec<_>>>()?;
    c.finish()?;
    let mut c = r.cursor("pending")?;
    let pending_init = read_settings(&mut c)?;
    c.finish()?;
    if refresh_len as usize > evaluated.len() {
        return Err(ck("refresh_len exceeds evaluated count"));
    }
    Ok(Some(MoboState { in_init, evaluated, pending_init, rng, since_refresh, refresh_len }))
}

/// Runs (encoded) multi-objective Bayesian optimization.
///
/// The oracle returns the AED accuracy of a setting; errors are surfaced as
/// [`SearchError::Evaluator`]. Returns all `Q` evaluations and their Pareto
/// frontier.
pub fn run_mobo<F>(space: &SearchSpace, oracle: F, cfg: &MoboConfig) -> Result<MoboOutcome>
where
    F: FnMut(&StudentSetting) -> std::result::Result<f64, String>,
{
    run_mobo_inner(space, oracle, cfg, None)
}

/// Like [`run_mobo`], but crash-safe: snapshots the full search state to
/// `ckpt` after every oracle evaluation and resumes from it if present.
///
/// A run killed at any trial (the `mobo.trial` failpoint, a process kill)
/// and restarted with the same space/config/oracle produces **exactly** the
/// trial sequence — settings, accuracies, frontier — of an uninterrupted
/// run: the snapshot carries the RNG stream position, the evaluated list,
/// the still-pending init settings, and the encoder refresh schedule
/// (`refresh_len`), from which the encoder is deterministically retrained
/// on resume. The checkpoint file is left in place on success.
pub fn run_mobo_resumable<F>(
    space: &SearchSpace,
    oracle: F,
    cfg: &MoboConfig,
    ckpt: &Path,
) -> Result<MoboOutcome>
where
    F: FnMut(&StudentSetting) -> std::result::Result<f64, String>,
{
    run_mobo_inner(space, oracle, cfg, Some(ckpt))
}

fn run_mobo_inner<F>(
    space: &SearchSpace,
    mut oracle: F,
    cfg: &MoboConfig,
    ckpt: Option<&Path>,
) -> Result<MoboOutcome>
where
    F: FnMut(&StudentSetting) -> std::result::Result<f64, String>,
{
    space.validate()?;
    if cfg.p_init == 0 || cfg.q < cfg.p_init {
        return Err(SearchError::BadConfig {
            what: format!("need 0 < P ≤ Q, got P={} Q={}", cfg.p_init, cfg.q),
        });
    }
    let start = Instant::now();
    let max_size = space.max_size_bits() as f64;

    let resumed = match ckpt {
        Some(path) => load_state(path)?,
        None => None,
    };
    let (mut rng, mut evaluated, mut pending_init, mut since_refresh, mut refresh_len, in_init): (
        StdRng,
        Vec<Evaluated>,
        Vec<StudentSetting>,
        usize,
        usize,
        bool,
    ) = match resumed {
        Some(st) => (
            rng_from_state(st.rng),
            st.evaluated,
            st.pending_init,
            st.since_refresh as usize,
            st.refresh_len as usize,
            st.in_init,
        ),
        None => {
            let mut rng = seeded(cfg.seed);
            // Sample every init setting up front (one rng consumption the
            // checkpoint does not need to replay piecewise).
            let pending = space.sample_distinct(&mut rng, cfg.p_init);
            (rng, Vec::with_capacity(cfg.q), pending, 0, 0, true)
        }
    };
    let mut seen: HashSet<StudentSetting> =
        evaluated.iter().map(|e| e.setting.clone()).chain(pending_init.iter().cloned()).collect();
    let save = |st: &MoboState| -> Result<()> {
        match ckpt {
            Some(path) => save_state(path, st),
            None => Ok(()),
        }
    };

    // ----- initialization: P random evaluations -----
    if in_init {
        while let Some(s) = pending_init.first().cloned() {
            obs::failpoint::hit("mobo.trial").map_err(|what| SearchError::Fault { what })?;
            let accuracy = call_oracle(&mut oracle, &s)?;
            let size_bits = space.size_bits(&s);
            pending_init.remove(0);
            evaluated.push(Evaluated { setting: s, accuracy, size_bits });
            save(&MoboState {
                in_init: true,
                evaluated: evaluated.clone(),
                pending_init: pending_init.clone(),
                rng: rng_state(&rng),
                since_refresh: 0,
                refresh_len: 0,
            })?;
        }
    }

    let mut reprs = ReprBuilder { space, repr: cfg.repr, encoder: None };
    if in_init {
        // Fresh (or resumed-mid-init) run reaching the end of init: train
        // the encoder on the full init set, exactly like before.
        reprs.refresh(&evaluated, cfg)?;
        refresh_len = evaluated.len();
        since_refresh = 0;
        save(&MoboState {
            in_init: false,
            evaluated: evaluated.clone(),
            pending_init: Vec::new(),
            rng: rng_state(&rng),
            since_refresh: 0,
            refresh_len: refresh_len as u64,
        })?;
    } else {
        // Resumed mid-BO: retrain the encoder on the prefix it was last
        // trained on, reproducing the latent space of the killed run.
        reprs.refresh(&evaluated[..refresh_len], cfg)?;
    }

    // ----- BO iterations -----
    let trial_counter = obs::global().counter("search.trials");
    let acq_ns = obs::global().histogram("search.acquisition_ns");
    while evaluated.len() < cfg.q {
        let t_acq = Instant::now();
        let xs: Vec<Vec<f32>> =
            evaluated.iter().map(|e| reprs.encode(&e.setting)).collect::<Result<_>>()?;
        let ys: Vec<f32> = evaluated.iter().map(|e| e.accuracy as f32).collect();
        let gp = GaussianProcess::fit(xs, &ys)?;

        // random scalarization trade-off (PACE-style)
        let beta: f32 = rng.gen_range(0.0..1.0);
        let g_of = |acc: f32, size_bits: u64| -> f32 {
            beta * acc - (1.0 - beta) * (size_bits as f64 / max_size) as f32
        };
        let best_g = evaluated
            .iter()
            .map(|e| g_of(e.accuracy as f32, e.size_bits))
            .fold(f32::NEG_INFINITY, f32::max);

        // candidate pool: unevaluated settings
        let mut best_candidate: Option<(StudentSetting, f32)> = None;
        let mut tried = 0usize;
        while tried < cfg.candidates {
            let s = space.random_setting(&mut rng);
            tried += 1;
            if seen.contains(&s) {
                continue;
            }
            let z = reprs.encode(&s)?;
            let (mu, var) = gp.predict(&z)?;
            let g_mean = g_of(mu, space.size_bits(&s));
            let g_var = beta * beta * var;
            let ei = expected_improvement(g_mean, g_var, best_g);
            if best_candidate.as_ref().is_none_or(|(_, b)| ei > *b) {
                best_candidate = Some((s, ei));
            }
        }
        let Some((chosen, _)) = best_candidate else {
            break; // space exhausted
        };
        let acquisition = t_acq.elapsed();
        acq_ns.record_duration(acquisition);

        obs::failpoint::hit("mobo.trial").map_err(|what| SearchError::Fault { what })?;
        let accuracy = call_oracle(&mut oracle, &chosen)?;
        let size_bits = space.size_bits(&chosen);
        seen.insert(chosen.clone());
        evaluated.push(Evaluated { setting: chosen, accuracy, size_bits });
        trial_counter.inc();
        obs::event!("mobo.trial", {
            trial: evaluated.len(),
            repr: cfg.repr.as_str(),
            beta: beta,
            acquisition_us: acquisition.as_secs_f64() * 1e6,
            accuracy: accuracy,
            size_bits: size_bits,
            frontier: pareto_frontier(&evaluated).len(),
        });

        since_refresh += 1;
        if since_refresh >= cfg.encoder_refresh.max(1) && ReprBuilder::needs_encoder(cfg.repr) {
            reprs.refresh(&evaluated, cfg)?;
            refresh_len = evaluated.len();
            since_refresh = 0;
        }
        save(&MoboState {
            in_init: false,
            evaluated: evaluated.clone(),
            pending_init: Vec::new(),
            rng: rng_state(&rng),
            since_refresh: since_refresh as u64,
            refresh_len: refresh_len as u64,
        })?;
    }

    let frontier = pareto_frontier(&evaluated);
    Ok(MoboOutcome { evaluated, frontier, seconds: start.elapsed().as_secs_f64() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto::hypervolume;

    fn space() -> SearchSpace {
        SearchSpace::paper_default(1, 32, 5, 4)
    }

    /// Cheap synthetic oracle: accuracy rises with layers and bits with
    /// diminishing returns — qualitatively like real students.
    fn oracle(s: &StudentSetting) -> std::result::Result<f64, String> {
        let layers: usize = s.0.iter().map(|b| b.0).sum();
        let bits: u32 = s.0.iter().map(|b| u32::from(b.2)).sum();
        let filt: usize = s.0.iter().map(|b| b.1).sum();
        let acc = 1.0
            - (-0.25 * layers as f64).exp() * 0.5
            - (-0.05 * f64::from(bits)).exp() * 0.3
            - (filt as f64 / 480.0 - 0.3).powi(2) * 0.2;
        Ok(acc.clamp(0.0, 1.0))
    }

    fn quick_cfg(repr: SpaceRepr) -> MoboConfig {
        MoboConfig {
            q: 18,
            p_init: 6,
            candidates: 64,
            repr,
            encoder: EncoderConfig { epochs: 15, r_samples: 64, ..Default::default() },
            encoder_refresh: 8,
            seed: 5,
        }
    }

    #[test]
    fn random_search_evaluates_q_settings() {
        let sp = space();
        let out = random_search(&sp, oracle, 12, 3).unwrap();
        assert_eq!(out.evaluated.len(), 12);
        assert!(!out.frontier.is_empty());
        // frontier points must come from the evaluated set
        for f in &out.frontier {
            assert!(out.evaluated.iter().any(|e| e.setting == f.setting));
        }
    }

    #[test]
    fn mobo_runs_to_q_with_original_repr() {
        let sp = space();
        let out = run_mobo(&sp, oracle, &quick_cfg(SpaceRepr::Original)).unwrap();
        assert_eq!(out.evaluated.len(), 18);
        // no duplicate evaluations
        let set: HashSet<_> = out.evaluated.iter().map(|e| e.setting.clone()).collect();
        assert_eq!(set.len(), 18);
    }

    #[test]
    fn encoded_mobo_runs_and_beats_or_matches_random_on_average() {
        let sp = space();
        let mobo = run_mobo(&sp, oracle, &quick_cfg(SpaceRepr::TwoPhaseEncoder)).unwrap();
        let rand = random_search(&sp, oracle, 18, 5).unwrap();
        let ref_size = sp.max_size_bits();
        let hv_m = hypervolume(&mobo.frontier, ref_size);
        let hv_r = hypervolume(&rand.frontier, ref_size);
        // with a smooth oracle, guided search should not be much worse
        assert!(hv_m > 0.6 * hv_r, "MOBO hv {hv_m} vs random hv {hv_r}");
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("lightts-mobo-{}-{name}", std::process::id()))
    }

    fn trial_fingerprint(out: &MoboOutcome) -> Vec<(StudentSetting, u64, u64)> {
        out.evaluated
            .iter()
            .map(|e| (e.setting.clone(), e.accuracy.to_bits(), e.size_bits))
            .collect()
    }

    #[test]
    fn resumable_fresh_run_matches_plain_run_exactly() {
        let sp = space();
        let cfg = quick_cfg(SpaceRepr::Normalized);
        let plain = run_mobo(&sp, oracle, &cfg).unwrap();
        let path = tmp("fresh.ckpt");
        let _ = std::fs::remove_file(&path);
        let resumable = run_mobo_resumable(&sp, oracle, &cfg, &path).unwrap();
        assert_eq!(trial_fingerprint(&plain), trial_fingerprint(&resumable));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn killed_and_resumed_run_is_bit_identical_to_uninterrupted() {
        let sp = space();
        let cfg = quick_cfg(SpaceRepr::TwoPhaseEncoder);
        let uninterrupted = run_mobo(&sp, oracle, &cfg).unwrap();
        // kill during init (trial 2), early BO (7), and post-encoder-refresh
        // BO (16; the refresh fires at evaluation 14 = p_init 6 + 8)
        for kill_at in [2usize, 7, 16] {
            let path = tmp(&format!("kill{kill_at}.ckpt"));
            let _ = std::fs::remove_file(&path);
            let calls = std::cell::Cell::new(0usize);
            let flaky = |s: &StudentSetting| {
                calls.set(calls.get() + 1);
                if calls.get() == kill_at {
                    Err("injected crash".to_string())
                } else {
                    oracle(s)
                }
            };
            let err = run_mobo_resumable(&sp, flaky, &cfg, &path).unwrap_err();
            assert!(matches!(err, SearchError::Evaluator { .. }), "{err}");
            let resumed = run_mobo_resumable(&sp, oracle, &cfg, &path).unwrap();
            assert_eq!(
                trial_fingerprint(&uninterrupted),
                trial_fingerprint(&resumed),
                "kill at trial {kill_at} diverged after resume"
            );
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn corrupt_mobo_checkpoint_is_a_typed_error() {
        let sp = space();
        let cfg = quick_cfg(SpaceRepr::Original);
        let path = tmp("corrupt.ckpt");
        std::fs::write(&path, b"garbage").unwrap();
        let err = run_mobo_resumable(&sp, oracle, &cfg, &path).unwrap_err();
        assert!(matches!(err, SearchError::Checkpoint { .. }), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn oracle_errors_propagate() {
        let sp = space();
        let failing = |_: &StudentSetting| Err::<f64, String>("boom".into());
        let err = random_search(&sp, failing, 4, 1).unwrap_err();
        assert!(matches!(err, SearchError::Evaluator { .. }));
    }

    #[test]
    fn config_validation() {
        let sp = space();
        let mut cfg = quick_cfg(SpaceRepr::Original);
        cfg.p_init = 0;
        assert!(run_mobo(&sp, oracle, &cfg).is_err());
        let mut cfg = quick_cfg(SpaceRepr::Original);
        cfg.q = 2;
        cfg.p_init = 6;
        assert!(run_mobo(&sp, oracle, &cfg).is_err());
    }

    #[test]
    fn repr_names_match_table5() {
        assert_eq!(SpaceRepr::Original.as_str(), "Original");
        assert_eq!(SpaceRepr::Normalized.as_str(), "Normalized");
        assert_eq!(SpaceRepr::SingleEncoder.as_str(), "Single Encoder");
        assert_eq!(SpaceRepr::TwoPhaseEncoder.as_str(), "Two-phase Encoder");
    }
}
