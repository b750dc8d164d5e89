//! Machine-readable kernel benchmark artifact (`BENCH_kernels.json`).
//!
//! The criterion stand-in records a [`Measurement`](criterion::Measurement)
//! per completed benchmark; the bench mains (`benches/kernels.rs`,
//! `benches/serve.rs`) drain those and call [`write_records`] to merge them
//! into one JSON array at the repository root. Each record carries
//! `(op, shape, median_ns, threads, scale, backend)`; merging is keyed on
//! everything but `median_ns`, so re-running a bench updates its timing in
//! place while other benches' rows survive. CI uploads the file as an
//! artifact, which is how the conv kernel timings and the ≥2×
//! AVX2-vs-scalar SIMD acceptance numbers are recorded.

use lightts_obs::json_string;
use lightts_obs::jsonl::{parse, Json};
use std::io::Write;
use std::path::{Path, PathBuf};

/// One benchmark result destined for `BENCH_kernels.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRecord {
    /// Operation name (e.g. `conv1d_forward_lowered` or a full bench path).
    pub op: String,
    /// Problem shape, `b16_cin32_cout32_l128_k9`-style.
    pub shape: String,
    /// Median per-iteration wall clock, nanoseconds.
    pub median_ns: f64,
    /// Part of the row key: `1` for kernel rows (every kernel runs on the
    /// calling thread), `0` for the serve rows, whose requests cross the
    /// client and scheduler threads.
    pub threads: usize,
    /// Measurement scale: `smoke` (CI compile-rot check) or `full`.
    pub scale: String,
    /// SIMD backend the kernel ran on (`scalar` / `avx2`; see
    /// `lightts_tensor::simd`). Rows written before the field existed read
    /// back as `unspecified`.
    pub backend: String,
}

impl KernelRecord {
    fn key(&self) -> (String, String, usize, String, String) {
        (
            self.op.clone(),
            self.shape.clone(),
            self.threads,
            self.scale.clone(),
            self.backend.clone(),
        )
    }

    fn to_json_line(&self) -> String {
        format!(
            "{{\"op\":{},\"shape\":{},\"median_ns\":{:.1},\"threads\":{},\"scale\":{},\"backend\":{}}}",
            json_string(&self.op),
            json_string(&self.shape),
            self.median_ns,
            self.threads,
            json_string(&self.scale),
            json_string(&self.backend)
        )
    }
}

/// The measurement scale in effect: `smoke` under `LIGHTTS_BENCH_SMOKE`
/// (the CI setting, shrunk timing windows), `full` otherwise.
pub fn current_scale() -> &'static str {
    if std::env::var_os("LIGHTTS_BENCH_SMOKE").is_some() {
        "smoke"
    } else {
        "full"
    }
}

/// The artifact location: `BENCH_kernels.json` at the repository root.
pub fn default_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_kernels.json")
}

fn record_from_json(v: &Json) -> Option<KernelRecord> {
    let o = v.as_obj()?;
    Some(KernelRecord {
        op: o.get("op")?.as_str()?.to_string(),
        shape: o.get("shape")?.as_str()?.to_string(),
        median_ns: o.get("median_ns")?.as_num()?,
        threads: o.get("threads")?.as_num()? as usize,
        scale: o.get("scale")?.as_str()?.to_string(),
        backend: o.get("backend").and_then(Json::as_str).unwrap_or("unspecified").to_string(),
    })
}

/// Reads the records already present in `path` (empty on a missing or
/// unparsable file — the artifact is regenerable, never load-bearing).
pub fn read_records(path: &Path) -> Vec<KernelRecord> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Ok(Json::Arr(items)) = parse(&text) else {
        return Vec::new();
    };
    items.iter().filter_map(record_from_json).collect()
}

/// Merges `records` into the JSON array at `path`: rows with the same
/// `(op, shape, threads, scale)` are replaced, everything else is kept, and
/// the result is written sorted by key (one object per line, so diffs stay
/// readable).
pub fn write_records(path: &Path, records: &[KernelRecord]) -> std::io::Result<()> {
    let mut merged = read_records(path);
    for r in records {
        if let Some(slot) = merged.iter_mut().find(|m| m.key() == r.key()) {
            *slot = r.clone();
        } else {
            merged.push(r.clone());
        }
    }
    merged.sort_by_key(|r| r.key());
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "[")?;
    for (i, r) in merged.iter().enumerate() {
        let sep = if i + 1 == merged.len() { "" } else { "," };
        writeln!(f, "  {}{}", r.to_json_line(), sep)?;
    }
    writeln!(f, "]")?;
    Ok(())
}

// ------------------------------------------------------------- serving SLO --

/// One closed-loop serving measurement destined for `BENCH_serve.json`.
///
/// Written by `bench_serve_cluster`, which sweeps scheduler shard counts
/// and closed-loop client concurrency against the TCP front door and
/// records the latency/throughput/shed curve; `bench_gate --serve` joins
/// two files on `(bench, shards, concurrency, scale)` and gates `p99_us`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRecord {
    /// Benchmark lane, e.g. `tcp_closed_loop`.
    pub bench: String,
    /// Scheduler shard count the server ran with.
    pub shards: usize,
    /// Closed-loop client connections issuing blocking requests.
    pub concurrency: usize,
    /// Measurement scale: `smoke` or `full` (see [`current_scale`]).
    pub scale: String,
    /// Completed OK requests per second over the measurement window.
    pub throughput_rps: f64,
    /// Median request latency, microseconds (exact sorted percentile).
    pub p50_us: f64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: f64,
    /// Fraction of requests shed (`OVERLOADED` + `DEADLINE`), 0.0–1.0.
    pub shed_rate: f64,
}

impl ServeRecord {
    fn key(&self) -> (String, usize, usize, String) {
        (self.bench.clone(), self.shards, self.concurrency, self.scale.clone())
    }

    /// The merge key, `(bench, shards, concurrency, scale)` — everything
    /// but the measured quantities.
    pub fn label(&self) -> String {
        format!("{}/shards{}/c{}/{}", self.bench, self.shards, self.concurrency, self.scale)
    }

    fn to_json_line(&self) -> String {
        format!(
            "{{\"bench\":{},\"shards\":{},\"concurrency\":{},\"scale\":{},\
             \"throughput_rps\":{:.1},\"p50_us\":{:.1},\"p99_us\":{:.1},\"shed_rate\":{:.4}}}",
            json_string(&self.bench),
            self.shards,
            self.concurrency,
            json_string(&self.scale),
            self.throughput_rps,
            self.p50_us,
            self.p99_us,
            self.shed_rate
        )
    }
}

/// The serving artifact location: `BENCH_serve.json` at the repository root.
pub fn default_serve_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json")
}

fn serve_record_from_json(v: &Json) -> Option<ServeRecord> {
    let o = v.as_obj()?;
    Some(ServeRecord {
        bench: o.get("bench")?.as_str()?.to_string(),
        shards: o.get("shards")?.as_num()? as usize,
        concurrency: o.get("concurrency")?.as_num()? as usize,
        scale: o.get("scale")?.as_str()?.to_string(),
        throughput_rps: o.get("throughput_rps")?.as_num()?,
        p50_us: o.get("p50_us")?.as_num()?,
        p99_us: o.get("p99_us")?.as_num()?,
        shed_rate: o.get("shed_rate")?.as_num()?,
    })
}

/// Reads the serving records in `path` (empty on a missing or unparsable
/// file — like the kernel artifact, it is regenerable, never load-bearing).
pub fn read_serve_records(path: &Path) -> Vec<ServeRecord> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Ok(Json::Arr(items)) = parse(&text) else {
        return Vec::new();
    };
    items.iter().filter_map(serve_record_from_json).collect()
}

/// Merges `records` into the JSON array at `path`, keyed on
/// `(bench, shards, concurrency, scale)` — same discipline as
/// [`write_records`]: re-running a sweep updates its cells in place,
/// other cells survive, output is sorted one object per line.
pub fn write_serve_records(path: &Path, records: &[ServeRecord]) -> std::io::Result<()> {
    let mut merged = read_serve_records(path);
    for r in records {
        if let Some(slot) = merged.iter_mut().find(|m| m.key() == r.key()) {
            *slot = r.clone();
        } else {
            merged.push(r.clone());
        }
    }
    merged.sort_by_key(|r| r.key());
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "[")?;
    for (i, r) in merged.iter().enumerate() {
        let sep = if i + 1 == merged.len() { "" } else { "," };
        writeln!(f, "  {}{}", r.to_json_line(), sep)?;
    }
    writeln!(f, "]")?;
    Ok(())
}

/// Exact percentile over sorted latency samples: index
/// `ceil(q·n) - 1` of the ascending order statistics (nearest-rank).
/// Returns 0.0 on an empty slice.
pub fn percentile_us(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len());
    sorted_ns[rank - 1] as f64 / 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(op: &str, median: f64) -> KernelRecord {
        KernelRecord {
            op: op.into(),
            shape: "b16_cin32_cout32_l128_k9".into(),
            median_ns: median,
            threads: 1,
            scale: "smoke".into(),
            backend: "scalar".into(),
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        let p =
            std::env::temp_dir().join(format!("lightts_bench_{tag}_{}.json", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn write_then_read_round_trips() {
        let p = temp_path("roundtrip");
        let rows = vec![rec("simd_vec_exp", 100.0), rec("conv1d_forward_lowered", 50.0)];
        write_records(&p, &rows).unwrap();
        let back = read_records(&p);
        assert_eq!(back.len(), 2);
        assert!(back.iter().any(|r| r.op == "conv1d_forward_lowered" && r.median_ns == 50.0));
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn merge_replaces_matching_keys_and_keeps_others() {
        let p = temp_path("merge");
        write_records(&p, &[rec("a", 10.0), rec("b", 20.0)]).unwrap();
        write_records(&p, &[rec("b", 25.0), rec("c", 30.0)]).unwrap();
        let back = read_records(&p);
        assert_eq!(back.len(), 3);
        assert_eq!(back.iter().find(|r| r.op == "b").unwrap().median_ns, 25.0);
        assert_eq!(back.iter().find(|r| r.op == "a").unwrap().median_ns, 10.0);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn unparsable_existing_file_is_overwritten_not_fatal() {
        let p = temp_path("garbage");
        std::fs::write(&p, "not json at all").unwrap();
        write_records(&p, &[rec("a", 1.0)]).unwrap();
        assert_eq!(read_records(&p).len(), 1);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn json_strings_are_escaped() {
        let r = KernelRecord {
            op: "weird\"op\\name".into(),
            shape: "s".into(),
            median_ns: 1.0,
            threads: 0,
            scale: "full".into(),
            backend: "avx2".into(),
        };
        let line = r.to_json_line();
        let parsed = parse(&line).unwrap();
        assert_eq!(parsed.as_obj().unwrap()["op"].as_str().unwrap(), "weird\"op\\name");
        assert_eq!(parsed.as_obj().unwrap()["backend"].as_str().unwrap(), "avx2");
    }

    fn srec(shards: usize, concurrency: usize, p99: f64) -> ServeRecord {
        ServeRecord {
            bench: "tcp_closed_loop".into(),
            shards,
            concurrency,
            scale: "smoke".into(),
            throughput_rps: 1000.0,
            p50_us: 250.0,
            p99_us: p99,
            shed_rate: 0.0,
        }
    }

    #[test]
    fn serve_records_round_trip_and_merge_on_key() {
        let p = temp_path("serve");
        write_serve_records(&p, &[srec(1, 4, 900.0), srec(2, 4, 500.0)]).unwrap();
        write_serve_records(&p, &[srec(2, 4, 450.0), srec(4, 8, 300.0)]).unwrap();
        let back = read_serve_records(&p);
        assert_eq!(back.len(), 3);
        assert_eq!(back.iter().find(|r| r.shards == 2).unwrap().p99_us, 450.0);
        assert_eq!(back.iter().find(|r| r.shards == 1).unwrap().p99_us, 900.0);
        std::fs::remove_file(&p).unwrap();
    }

    /// The committed artifacts are the writers' own output: re-writing
    /// them with no new rows reproduces them byte for byte.
    #[test]
    fn committed_artifacts_rewrite_unchanged() {
        let kernels = temp_path("committed_kernels");
        std::fs::copy(default_path(), &kernels).unwrap();
        write_records(&kernels, &[]).unwrap();
        let serve = temp_path("committed_serve");
        std::fs::copy(default_serve_path(), &serve).unwrap();
        write_serve_records(&serve, &[]).unwrap();
        for (rewritten, committed) in [(kernels, default_path()), (serve, default_serve_path())] {
            let same = std::fs::read(&rewritten).unwrap() == std::fs::read(&committed).unwrap();
            std::fs::remove_file(&rewritten).unwrap();
            assert!(same, "{} changes when re-written", committed.display());
        }
    }

    #[test]
    fn percentiles_are_exact_order_statistics() {
        let ns: Vec<u64> = (1..=100).map(|i| i * 1_000).collect();
        assert_eq!(percentile_us(&ns, 0.50), 50.0);
        assert_eq!(percentile_us(&ns, 0.99), 99.0);
        assert_eq!(percentile_us(&ns, 1.0), 100.0);
        assert_eq!(percentile_us(&[5_000], 0.99), 5.0);
        assert_eq!(percentile_us(&[], 0.5), 0.0);
    }

    #[test]
    fn rows_without_backend_field_read_back_as_unspecified() {
        let p = temp_path("compat");
        std::fs::write(
            &p,
            "[\n  {\"op\":\"a\",\"shape\":\"s\",\"median_ns\":1.0,\"threads\":1,\"scale\":\"full\"}\n]\n",
        )
        .unwrap();
        let back = read_records(&p);
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].backend, "unspecified");
        std::fs::remove_file(&p).unwrap();
    }
}
