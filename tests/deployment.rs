//! Deployment-path integration test: distill → export packed bytes → reload
//! → identical inference, for every base-model family — and the reloaded
//! student served through the batched queue. This is the edge-device story
//! of the paper's introduction made concrete.

use lightts::models::inception::InceptionTime;
use lightts::prelude::*;
use lightts::serve::{ModelRegistry, ServeConfig, Server};
use lightts_data::synth::{Generator, SynthConfig};

fn splits(seed: u64) -> Splits {
    let gen = Generator::new(
        SynthConfig { classes: 3, dims: 1, length: 24, difficulty: 0.2, waveforms: 3 },
        seed,
    );
    gen.splits("deploy", 36, 18, 18, seed + 1).unwrap()
}

/// The full pipeline for one base-model family: train a small teacher
/// ensemble, distill a 4-bit student, export it with `save_bytes`, reload,
/// and check that the deployed model (a) predicts identically, (b) honors
/// the packed-size promise, and (c) serves identically through the
/// micro-batching queue.
fn distill_export_reload_serve(kind: BaseModelKind, seed: u64) {
    let s = splits(seed);
    let ens_cfg = EnsembleTrainConfig { n_members: 2, ..EnsembleTrainConfig::default() };
    let ensemble = train_ensemble(kind, &s.train, &ens_cfg).unwrap();
    let teachers = TeacherProbs::compute(&ensemble, &s).unwrap();
    let cfg = InceptionConfig::student(1, 24, 3, 4, 4);
    let mut opts = DistillOpts::default();
    opts.aed.train.epochs = 6;
    opts.aed.v = 3;
    let out = run_method(Method::LightTs, &s, &teachers, &cfg, &opts).unwrap();

    // export and reload
    let bytes = out.student.save_bytes().unwrap();
    let loaded = InceptionTime::load_bytes(&bytes).unwrap();

    // the deployed model makes identical predictions
    let batch = s.test.full_batch().unwrap();
    let p_orig = out.student.predict_proba(&batch.inputs).unwrap();
    let p_load = loaded.predict_proba(&batch.inputs).unwrap();
    for (a, b) in p_orig.data().iter().zip(p_load.data().iter()) {
        assert!((a - b).abs() < 1e-5);
    }

    // the wire size honors the 4-bit promise: conv/fc payload packs to
    // ≈ bits/8 bytes per parameter, far below the f32 footprint
    let n_params = out.student.store().num_scalars();
    assert!(
        bytes.len() < n_params * 4,
        "packed export {}B should be well under the f32 footprint {}B",
        bytes.len(),
        n_params * 4
    );

    // the packed bytes load straight into the serving runtime, and the
    // batched queue answers bitwise identically to per-sample inference
    let mut registry = ModelRegistry::new();
    registry.load_packed("student", &bytes).unwrap();
    let server = Server::start(registry, ServeConfig::default());
    let handle = server.handle();
    let sample_len = 24; // in_dims × in_len
    let n = batch.inputs.dims()[0].min(6);
    let pendings: Vec<_> = (0..n)
        .map(|i| {
            let row = batch.inputs.data()[i * sample_len..(i + 1) * sample_len].to_vec();
            handle.submit("student", row).unwrap()
        })
        .collect();
    for (i, p) in pendings.into_iter().enumerate() {
        let got = p.wait().unwrap();
        let expect = &p_load.data()[i * 3..(i + 1) * 3];
        for (a, b) in expect.iter().zip(got.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "served row {i} differs from predict_proba");
        }
    }
    server.shutdown();
}

#[test]
fn forest_student_survives_packed_export() {
    distill_export_reload_serve(BaseModelKind::Forest, 700);
}

#[test]
fn tde_student_survives_packed_export() {
    distill_export_reload_serve(BaseModelKind::Tde, 710);
}

#[test]
fn cif_student_survives_packed_export() {
    distill_export_reload_serve(BaseModelKind::Cif, 720);
}
