//! `bench_kernels`: the conv1d kernels plus SIMD backend comparisons,
//! single-threaded.
//!
//! * the conv passes at the InceptionTime-sized shapes `b=16, cin=32,
//!   cout=32, l=128, k ∈ {9,19,39}` through the entry points the training
//!   loop calls (rows `conv1d_{forward,backward_w,backward_x}_lowered`);
//! * the SIMD backends: the register tile `simd::gemm_tile` (rows
//!   `simd_gemm_panel/*`: one 4-row block over a dense `k=256, n=256`
//!   panel, the layout `linalg::matmul_into` runs for every
//!   `Tensor::matmul`) and the `vec_exp` transcendental must be ≥ 2×
//!   faster under the native vector backend (AVX-512 or AVX2+FMA where
//!   available) than under the forced scalar oracle; only the tile has an
//!   AVX-512 row, since `vec_exp` runs its AVX2 code there;
//! * the int8 conv `qint::qconv1d_same_into` at the `k=9` conv shape
//!   (row `quant_qconv1d_same`), against `conv1d_forward_lowered`.
//!
//! Results are merged into `BENCH_kernels.json` at the repository root —
//! SIMD rows carry the backend in both the bench name and the record's
//! `backend` field — and the speedup summaries are printed at the end.
//!
//! Set `LIGHTTS_BENCH_SMOKE=1` (as CI does) to shrink warm-up and
//! measurement windows to a compile-rot check rather than a measurement.

use criterion::{criterion_group, BenchmarkId, Criterion};
use lightts_bench::perf::{self, KernelRecord};
use lightts_tensor::conv::{conv1d_backward_input, conv1d_backward_weight, conv1d_forward};
use lightts_tensor::qint::{qconv1d_same_into, QuantizedMatrix};
use lightts_tensor::rng::seeded;
use lightts_tensor::simd::{cpu_supports, gemm_tile_with, vec_exp_with, SimdBackend, Tile};
use lightts_tensor::Tensor;
use std::hint::black_box;
use std::time::Duration;

const B: usize = 16;
const CIN: usize = 32;
const COUT: usize = 32;
const L: usize = 128;
const KS: [usize; 3] = [9, 19, 39];

/// GEMM panel shape for the SIMD comparison: one 4-row tile over a dense
/// `k=256, n=256` panel.
const GEMM_K: usize = 256;
const GEMM_N: usize = 256;
/// Elements per `vec_exp` call — one softmax-sized activation slab.
const EXP_N: usize = 4096;

/// The backends this host runs: the scalar oracle, plus AVX2+FMA and
/// AVX-512 where the CPU has them.
fn backends() -> Vec<SimdBackend> {
    [SimdBackend::Scalar, SimdBackend::Avx2, SimdBackend::Avx512]
        .into_iter()
        .filter(|&bk| cpu_supports(bk))
        .collect()
}

fn config() -> Criterion {
    let smoke = std::env::var_os("LIGHTTS_BENCH_SMOKE").is_some();
    let (warm_ms, meas_ms) = if smoke { (40, 120) } else { (300, 900) };
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(warm_ms))
        .measurement_time(Duration::from_millis(meas_ms))
}

fn bench_kernels(c: &mut Criterion) {
    let mut rng = seeded(23);
    let mut g = c.benchmark_group("kernels");
    for &k in &KS {
        let x = Tensor::randn(&mut rng, &[B, CIN, L], 1.0);
        let w = Tensor::randn(&mut rng, &[COUT, CIN, k], 0.3);
        let dy = Tensor::randn(&mut rng, &[B, COUT, L], 1.0);
        g.bench_function(BenchmarkId::new("forward_lowered", format!("k{k}")), |b| {
            b.iter(|| black_box(conv1d_forward(&x, &w).unwrap()))
        });
        g.bench_function(BenchmarkId::new("backward_w_lowered", format!("k{k}")), |b| {
            b.iter(|| black_box(conv1d_backward_weight(&dy, &x, w.dims()).unwrap()))
        });
        g.bench_function(BenchmarkId::new("backward_x_lowered", format!("k{k}")), |b| {
            b.iter(|| black_box(conv1d_backward_input(&dy, &w, x.dims()).unwrap()))
        });
    }
    g.finish();
}

fn bench_simd(c: &mut Criterion) {
    let mut rng = seeded(29);
    let mut g = c.benchmark_group("simd");

    let a = Tensor::randn(&mut rng, &[4, GEMM_K], 1.0);
    let bmat = Tensor::randn(&mut rng, &[GEMM_K, GEMM_N], 1.0);
    let xs = Tensor::randn(&mut rng, &[EXP_N], 1.0);
    let mut c_panel = vec![0.0f32; 4 * GEMM_N];
    let mut buf = vec![0.0f32; EXP_N];
    let panel = Tile {
        rows: 4,
        k: GEMM_K,
        n: GEMM_N,
        ldc: GEMM_N,
        lda: GEMM_K,
        b_step: GEMM_N,
        b_run: GEMM_K,
        b_jump: 0,
    };

    for bk in backends() {
        g.bench_function(BenchmarkId::new("gemm_panel", bk.name()), |bch| {
            bch.iter(|| {
                c_panel.fill(0.0);
                gemm_tile_with(bk, &mut c_panel, a.data(), bmat.data(), &panel);
                black_box(c_panel[0]);
            })
        });
        // AVX-512 runs vec_exp's AVX2 code, which the avx2 row measures.
        if bk == SimdBackend::Avx512 {
            continue;
        }
        // vec_exp is branch-free straight-line code (clamp + fixed
        // polynomial), so its timing is value-independent: exp-ing the
        // buffer in place repeatedly (values saturate after a few
        // iterations) measures the kernel without a memcpy in the loop.
        buf.copy_from_slice(xs.data());
        g.bench_function(BenchmarkId::new("vec_exp", bk.name()), |bch| {
            bch.iter(|| {
                vec_exp_with(bk, &mut buf);
                black_box(buf[0]);
            })
        });
    }
    g.finish();
}

/// The int8 conv at the conv acceptance shape, against
/// `kernels/forward_lowered`.
fn bench_quant(c: &mut Criterion) {
    let mut g = c.benchmark_group("quant");

    // Deterministic i8 codes (the integer kernel is value-independent, but
    // keep the data fixed anyway).
    let code = |i: usize| ((i as u64).wrapping_mul(2_654_435_761) >> 24) as u8 as i8;

    // Quantized conv at the conv acceptance shape (per-sample kernel, so
    // one iteration sweeps the same B samples as the f32 benches). Runs
    // under the process-default (native) backend like `forward_lowered`.
    let k = KS[0];
    let mut rng = seeded(31);
    let w = Tensor::randn(&mut rng, &[COUT, CIN, k], 0.3);
    let qw = QuantizedMatrix::quantize_rows_symmetric(w.data(), COUT, CIN * k).unwrap();
    let qx: Vec<i8> = (0..B * CIN * L).map(code).collect();
    let mut conv_out = vec![0i32; COUT * L];
    let mut pairs = Vec::new();
    g.bench_function(BenchmarkId::new("qconv1d_same", format!("k{k}")), |bch| {
        bch.iter(|| {
            for s in 0..B {
                let x = &qx[s * CIN * L..(s + 1) * CIN * L];
                qconv1d_same_into(&mut conv_out, &mut pairs, x, CIN, L, &qw, k, 0).unwrap();
            }
            black_box(conv_out[0]);
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_kernels, bench_simd, bench_quant
}

fn main() {
    benches();

    let scale = perf::current_scale();
    let native = lightts_tensor::simd::backend().name().to_string();
    let measurements = criterion::take_measurements();
    let records: Vec<KernelRecord> = measurements
        .iter()
        .map(|m| {
            let mut parts = m.name.splitn(3, '/');
            let group = parts.next().unwrap_or_default();
            let op = parts.next().unwrap_or("unknown");
            let tail = parts.next().unwrap_or_default();
            if group == "simd" {
                // "simd/gemm_panel/avx2" → op "simd_gemm_panel",
                // backend from the bench id.
                let shape = if op == "gemm_panel" {
                    format!("rows4_k{GEMM_K}_n{GEMM_N}")
                } else {
                    format!("n{EXP_N}")
                };
                KernelRecord {
                    op: format!("simd_{op}"),
                    shape,
                    median_ns: m.median_ns,
                    threads: 1,
                    scale: scale.to_string(),
                    backend: tail.to_string(),
                }
            } else {
                // "kernels/forward_lowered/k9" → op "conv1d_forward_lowered"
                // and "quant/qconv1d_same/k9" → op "quant_qconv1d_same",
                // shape "b16_cin32_cout32_l128_k9"; these run under the
                // process-default (native) backend.
                let prefix = if group == "quant" { "quant" } else { "conv1d" };
                KernelRecord {
                    op: format!("{prefix}_{op}"),
                    shape: format!("b{B}_cin{CIN}_cout{COUT}_l{L}_{tail}"),
                    median_ns: m.median_ns,
                    threads: 1,
                    scale: scale.to_string(),
                    backend: native.clone(),
                }
            }
        })
        .collect();
    let path = perf::default_path();
    perf::write_records(&path, &records).expect("write BENCH_kernels.json");
    println!("\nwrote {} records to {}", records.len(), path.display());

    // SIMD backend summary: scalar baseline vs each vector backend.
    let simd_median = |op: &str, bk: &str| {
        measurements.iter().find(|m| m.name == format!("simd/{op}/{bk}")).map(|m| m.median_ns)
    };
    println!("\nSIMD speedups vs scalar (native backend: {native}):");
    for op in ["gemm_panel", "vec_exp"] {
        for bk in ["avx2", "avx512"] {
            if let (Some(s), Some(v)) = (simd_median(op, "scalar"), simd_median(op, bk)) {
                println!("  {op:<10} {bk:<6} {:>6.2}x", s / v);
            }
        }
    }

    // Int8-vs-f32 summary: the quantized conv against the f32 lowered conv
    // at the acceptance shape, both under the native backend.
    let any_median =
        |name: String| measurements.iter().find(|m| m.name == name).map(|m| m.median_ns);
    if let (Some(f), Some(q)) = (
        any_median(format!("kernels/forward_lowered/k{}", KS[0])),
        any_median(format!("quant/qconv1d_same/k{}", KS[0])),
    ) {
        println!("\nint8 speedup vs f32 ({native}):");
        println!("  qconv1d_same vs forward_lowered k{}: {:>6.2}x", KS[0], f / q);
    }
}
