//! One corruption suite for the one container every stored byte is framed
//! in (`lightts_obs::checkpoint`).
//!
//! It covers each kind the workspace stores: a packed export (the golden
//! student), an exact snapshot, a forecaster export, SGD and Adam state,
//! and a trainer and a MOBO checkpoint. For each, the intact bytes must
//! load, and all of the following must return `Err` without panicking:
//! every proper prefix, every single-bit flip, an appended byte, `0xFF`
//! written over every length-sized window, and the bytes read as every
//! other kind. Crafted configs that carry a valid checksum and the retired
//! magic-tagged formats are refused too.

use lightts::distill::checkpoint::train_student_checkpointed;
use lightts::distill::trainer::StudentTrainOpts;
use lightts::models::forecaster::{ForecastConfig, Forecaster};
use lightts::models::inception::{BlockSpec, InceptionConfig, InceptionTime};
use lightts::nn::optim::{Adam, Optimizer, Sgd};
use lightts::nn::ParamStore;
use lightts::search::mobo::{run_mobo_resumable, MoboConfig, SpaceRepr};
use lightts::search::{SearchSpace, StudentSetting};
use lightts::tensor::rng::seeded;
use lightts::tensor::Tensor;
use lightts_data::synth::{Generator, SynthConfig};
use lightts_data::LabeledDataset;
use lightts_obs::checkpoint::{SectionReader, SectionWriter};
use std::path::PathBuf;

const GOLDEN: &[u8] = include_bytes!("fixtures/golden_student.bin");

/// Loads `bytes` as one kind; `Ok` means it was accepted.
type Loader = fn(&[u8]) -> Result<(), String>;

/// A stored kind: its name, its loader, and how to make a sample.
type Kind = (&'static str, Loader, fn() -> Vec<u8>);

/// A temp path of this test thread's own (tests run on parallel threads).
fn tmp(name: &str) -> PathBuf {
    let (pid, thread) = (std::process::id(), std::thread::current().id());
    std::env::temp_dir().join(format!("lightts-corruption-{pid}-{thread:?}-{name}"))
}

fn ok<T, E: std::fmt::Display>(r: Result<T, E>) -> Result<(), String> {
    r.map(|_| ()).map_err(|e| e.to_string())
}

fn tiny_forecaster() -> Forecaster {
    let backbone = InceptionConfig {
        blocks: vec![BlockSpec { layers: 2, filter_len: 4, bits: 8 }],
        filters: 2,
        in_dims: 1,
        in_len: 8,
        num_classes: 1,
    };
    Forecaster::new(ForecastConfig { backbone, out_len: 2 }, &mut seeded(3)).unwrap()
}

/// An optimizer's state after two steps on a two-tensor store.
fn stepped_state(mut opt: impl Optimizer) -> Vec<u8> {
    let mut store = ParamStore::new();
    let w = store.register("w", Tensor::ones(&[2, 3]), 32);
    let b = store.register("b", Tensor::zeros(&[3]), 8);
    let gw = Tensor::from_vec(vec![0.1, -0.2, 0.3, 0.4, -0.5, 0.6], &[2, 3]).unwrap();
    let gb = Tensor::from_vec(vec![1.0, -1.0, 0.5], &[3]).unwrap();
    for _ in 0..2 {
        opt.step(&mut store, &[(w, gw.clone()), (b, gb.clone())]).unwrap();
    }
    opt.state_bytes()
}

fn trainer_student() -> InceptionConfig {
    InceptionConfig {
        blocks: vec![BlockSpec { layers: 1, filter_len: 4, bits: 8 }],
        filters: 2,
        in_dims: 1,
        in_len: 16,
        num_classes: 2,
    }
}

fn trainer_data() -> (LabeledDataset, Tensor) {
    let gen = Generator::new(
        SynthConfig { classes: 2, dims: 1, length: 16, difficulty: 0.2, waveforms: 2 },
        41,
    );
    let train = gen.split("corruption", 8, 42).unwrap();
    let q = Tensor::full(&[train.len(), 2], 0.5);
    (train, q)
}

const TRAINER_OPTS: StudentTrainOpts =
    StudentTrainOpts { alpha: 0.5, epochs: 1, batch_size: 8, lr: 0.01, adam: true, seed: 5 };

/// Resumes a one-epoch student run from `bytes`; a valid checkpoint holds
/// the finished epoch, so loading it is all the call does.
fn load_trainer(bytes: &[u8]) -> Result<(), String> {
    let path = tmp("trainer.ckpt");
    std::fs::write(&path, bytes).unwrap();
    let (train, q) = trainer_data();
    let r =
        train_student_checkpointed(&trainer_student(), &train, &[q], &[1.0], &TRAINER_OPTS, &path);
    std::fs::remove_file(&path).unwrap();
    ok(r)
}

fn mobo_space() -> SearchSpace {
    SearchSpace {
        blocks: 2,
        layer_choices: vec![1, 2],
        filter_choices: vec![4, 8],
        bit_choices: vec![4, 8],
        filters: 2,
        in_dims: 1,
        in_len: 16,
        num_classes: 2,
    }
}

fn mobo_config() -> MoboConfig {
    MoboConfig {
        q: 4,
        p_init: 3,
        candidates: 8,
        repr: SpaceRepr::Original,
        seed: 9,
        ..Default::default()
    }
}

fn mobo_oracle(s: &StudentSetting) -> Result<f64, String> {
    Ok(s.0.iter().map(|b| b.0 as f64 + f64::from(b.2)).sum::<f64>() / 20.0)
}

/// Resumes a finished four-trial MOBO run from `bytes`.
fn load_mobo(bytes: &[u8]) -> Result<(), String> {
    let path = tmp("mobo.ckpt");
    std::fs::write(&path, bytes).unwrap();
    let r = run_mobo_resumable(&mobo_space(), mobo_oracle, &mobo_config(), &path);
    std::fs::remove_file(&path).unwrap();
    ok(r)
}

/// Every stored kind.
const KINDS: [Kind; 7] = [
    ("inception", |b| ok(InceptionTime::load_bytes(b)), || GOLDEN.to_vec()),
    (
        "inception.exact",
        |b| ok(InceptionTime::load_bytes_exact(b)),
        || InceptionTime::load_bytes(GOLDEN).unwrap().save_bytes_exact().unwrap(),
    ),
    ("forecaster", |b| ok(Forecaster::load_bytes(b)), || tiny_forecaster().save_bytes().unwrap()),
    (
        "optim.sgd",
        |b| ok(Sgd::new(0.1, 0.9).load_state_bytes(b)),
        || stepped_state(Sgd::new(0.1, 0.9)),
    ),
    ("optim.adam", |b| ok(Adam::new(0.1).load_state_bytes(b)), || stepped_state(Adam::new(0.1))),
    ("distill.trainer", load_trainer, || {
        let path = tmp("trainer-sample.ckpt");
        let _ = std::fs::remove_file(&path);
        let (train, q) = trainer_data();
        train_student_checkpointed(&trainer_student(), &train, &[q], &[1.0], &TRAINER_OPTS, &path)
            .unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        bytes
    }),
    ("search.mobo", load_mobo, || {
        let path = tmp("mobo-sample.ckpt");
        let _ = std::fs::remove_file(&path);
        run_mobo_resumable(&mobo_space(), mobo_oracle, &mobo_config(), &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        bytes
    }),
];

fn assert_rejects_corruption(kind: &str) {
    let (_, load, sample) = KINDS.iter().find(|k| k.0 == kind).unwrap();
    let bytes = sample();
    let refuse = |what: String, corrupt: &[u8]| {
        assert!(load(corrupt).is_err(), "{kind}: {what} was accepted");
    };
    load(&bytes).unwrap_or_else(|e| panic!("{kind}: intact bytes refused: {e}"));
    for cut in 0..bytes.len() {
        refuse(format!("prefix of {cut} bytes"), &bytes[..cut]);
    }
    let mut flipped = bytes.clone();
    for i in 0..bytes.len() {
        for bit in 0..8 {
            flipped[i] ^= 1 << bit;
            refuse(format!("bit {bit} of byte {i} flipped"), &flipped);
            flipped[i] ^= 1 << bit;
        }
    }
    let mut longer = bytes.clone();
    longer.push(0);
    refuse("an appended byte".into(), &longer);
    // 0xFF over every window a u16/u32/u64 length could occupy, and over
    // everything after the magic and version.
    for width in [2, 4, 8] {
        for i in 0..bytes.len().saturating_sub(width - 1) {
            let mut hostile = bytes.clone();
            hostile[i..i + width].fill(0xFF);
            if hostile != bytes {
                refuse(format!("0xFF over bytes {i}..{}", i + width), &hostile);
            }
        }
    }
    let mut hostile = bytes.clone();
    hostile[6..].fill(0xFF);
    refuse("0xFF after the version".into(), &hostile);
}

#[test]
fn packed_export_rejects_corruption() {
    assert_rejects_corruption("inception");
}

#[test]
fn exact_snapshot_rejects_corruption() {
    assert_rejects_corruption("inception.exact");
}

#[test]
fn forecaster_export_rejects_corruption() {
    assert_rejects_corruption("forecaster");
}

#[test]
fn sgd_state_rejects_corruption() {
    assert_rejects_corruption("optim.sgd");
}

#[test]
fn adam_state_rejects_corruption() {
    assert_rejects_corruption("optim.adam");
}

#[test]
fn trainer_checkpoint_rejects_corruption() {
    assert_rejects_corruption("distill.trainer");
}

#[test]
fn mobo_checkpoint_rejects_corruption() {
    assert_rejects_corruption("search.mobo");
}

#[test]
fn every_kind_refuses_every_other_kind() {
    for (kind, _, sample) in &KINDS {
        let bytes = sample();
        for (other, load, _) in KINDS.iter().filter(|k| k.0 != *kind) {
            assert!(load(&bytes).is_err(), "{kind} bytes were accepted as {other}");
        }
    }
}

/// Rewrites the `config` section of a container and gives it a valid
/// checksum, as a crafted file would.
fn reseal(bytes: &[u8], kind: &str, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let r = SectionReader::parse(bytes, kind).unwrap();
    let mut config = r.require("config").unwrap().to_vec();
    edit(&mut config);
    let mut w = SectionWriter::new(kind);
    w.section("config", &config);
    w.section("bn", r.require("bn").unwrap());
    w.section("params", r.require("params").unwrap());
    w.finish()
}

/// Sets one little-endian `u32` of the `config` section (blocks count at
/// 0, then 9 bytes per block, then filters, in_dims, in_len, num_classes
/// and, for a forecaster, out_len).
fn set_u32(config: &mut [u8], at: usize, v: u32) {
    config[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// Asserts that the size bound refused a load before any model was built.
fn assert_implausible(load: Result<(), String>) {
    let err = load.unwrap_err();
    assert!(err.contains("implausible configuration"), "{err}");
}

#[test]
fn crafted_configs_with_valid_checksums_are_refused() {
    let load = |b: &[u8]| ok(InceptionTime::load_bytes(b));
    // Bit 15 of the golden student's `filters` (4 → 32772) passes every
    // per-field cap, but block 1's first conv alone would hold 8.6e9 f32.
    let filters_at = 4 + 9 * 2;
    assert_implausible(load(&reseal(GOLDEN, "inception", |c| c[filters_at + 1] ^= 0x80)));
    // `in_dims` and `in_len` at the old per-field caps: one input sample
    // alone would hold 2^36 values.
    assert_implausible(load(&reseal(GOLDEN, "inception", |c| {
        set_u32(c, filters_at + 4, 1 << 16);
        set_u32(c, filters_at + 8, 1 << 20);
    })));

    let load = |b: &[u8]| ok(Forecaster::load_bytes(b));
    let forecaster = tiny_forecaster().save_bytes().unwrap();
    let filters_at = 4 + 9;
    // The head, out_len × the last block's channels, and the filters.
    assert_implausible(load(&reseal(&forecaster, "forecaster", |c| {
        set_u32(c, filters_at + 16, 1 << 30)
    })));
    assert_implausible(load(&reseal(&forecaster, "forecaster", |c| {
        set_u32(c, filters_at, 1 << 24)
    })));
    // 70 layers halve the filter length past the word size. The size is
    // plausible, so the model is built and its mismatched `bn` section
    // refused.
    assert!(load(&reseal(&forecaster, "forecaster", |c| set_u32(c, 4, 70))).is_err());
}

#[test]
fn retired_magic_tagged_formats_are_typed_errors() {
    // The first bytes of the previous golden fixture, an `LTIM` export.
    let legacy = [
        b'L', b'T', b'I', b'M', 1, 0, 2, 0, 0, 0, 2, 0, 0, 0, 8, 0, 0, 0, 8, 2, 0, 0, 0, 4, 0, 0,
        0, 4, 4, 0, 0, 0,
    ];
    let err = InceptionTime::load_bytes(&legacy).unwrap_err();
    assert!(err.to_string().contains("bad magic"), "{err}");
    for magic in [b"LTTS", b"LTSE", b"LTIM", b"LTIX", b"LTFC", b"SGDM", b"ADAM"] {
        let mut bytes = magic.to_vec();
        bytes.extend_from_slice(&[1, 0]);
        bytes.extend_from_slice(&[0; 64]);
        for (kind, load, _) in &KINDS {
            assert!(load(&bytes).is_err(), "{kind} accepted a {magic:?} header");
        }
    }
}
