//! End-to-end and per-layer benchmark of the amada warehouse.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest|query|churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload drives the public `amada_core::Warehouse` API from one
//! process and checks every answer against the no-index scan. With
//! `--trace 0` the last line of standard output is a JSON object holding
//! the end-to-end metrics; with `--trace 1` it holds the per-layer
//! metrics, taken from the driver's own spans around each layer call
//! (written to `perfbench/out/` at exit). The exit code is non-zero when
//! any check failed. See `perfbench/README.md` for the metric
//! definitions.

mod calib;
mod trace;
mod workloads;

use amada_obs::LatencySummary;
use std::fmt::Write as _;
use std::process::ExitCode;
use trace::Tracer;
use workloads::{median, Checker, Measured};

/// A seed no tuning run used, for confirming a later claim.
pub const HELD_OUT_SEED: u64 = 1_000_003;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Index a corpus under all four strategies.
    Ingest,
    /// Open-loop queries against a LUP and a 2LUPI index.
    Query,
    /// Replace documents, rebuild incrementally, query, in rounds.
    Churn,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Query => "query",
            Workload::Churn => "churn",
        }
    }

    fn docs(self) -> usize {
        match self {
            Workload::Ingest => workloads::INGEST_DOCS,
            Workload::Query => workloads::QUERY_DOCS,
            Workload::Churn => workloads::CHURN_DOCS,
        }
    }
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Length of the measuring window, in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "ingest" => Workload::Ingest,
                    "query" => Workload::Query,
                    "churn" => Workload::Churn,
                    other => return Err(format!("unknown workload {other:?}")),
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout, read from `.git` when there is one.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// Writes the traced run's spans under `perfbench/out/`.
pub fn write_spans(args: &Args, tr: &Tracer) {
    if !args.trace {
        return;
    }
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("spans-{}-{}.json", args.workload.name(), args.seed));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tr.to_json()))
    {
        eprintln!("could not write {}: {e}", path.display());
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
fn end_to_end(m: &Measured, chk: &Checker) -> Vec<(&'static str, f64, &'static str)> {
    let v = &m.virt;
    let lat = LatencySummary::from_durations(v.latencies.clone());
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    vec![
        ("setup_s", median(&m.setup_s), "s"),
        ("docs_indexed_per_s", median(&m.build_rate), "docs/s"),
        ("queries_per_s", median(&m.query_rate), "q/s"),
        ("peak_rss_mb", m.peak_rss_mb, "MiB"),
        ("virt_latency_p50_s", lat.p50.as_secs_f64(), "virt_s"),
        ("virt_latency_p99_s", lat.p99.as_secs_f64(), "virt_s"),
        (
            "usd_per_1k_queries",
            ratio(v.query_cost.dollars() * 1000.0, v.queries as f64),
            "usd",
        ),
        ("usd_index_build", v.build_cost.dollars(), "usd"),
        ("virt_index_build_s", v.build_time.as_secs_f64(), "virt_s"),
        (
            "index_bytes_per_doc_byte",
            ratio(v.index_bytes as f64, v.corpus_bytes as f64),
            "ratio",
        ),
        (
            "answer_ok_rate",
            1.0 - ratio(chk.failed as f64, chk.attempted as f64),
            "ratio",
        ),
    ]
}

/// The per-layer metrics and their units, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("xmark.gen_s", "s"),
    ("core.upload_s", "s"),
    ("core.prewarm_s", "s"),
    ("core.build_s", "s"),
    ("core.run_s", "s"),
    ("core.residual_s", "s"),
    ("bench.check_s", "s"),
    ("bench.calibrate_s", "s"),
    ("xml.parse_s", "s"),
    ("xml.parse_mib_per_s", "MiB/s"),
    ("index.extract_s", "s"),
    ("index.entries", "count"),
    ("index.write_s", "s"),
    ("index.items_written", "count"),
    ("index.lookup_s", "s"),
    ("index.lookup.get_ops", "count"),
    ("index.lookup.entries_processed", "count"),
    ("index.lookup.candidates", "count"),
    ("index.precision", "ratio"),
    ("index.cache.parse_hit_rate", "ratio"),
    ("index.cache.extract_hit_rate", "ratio"),
    ("index.retracted_items", "count"),
    ("pattern.eval_s", "s"),
    ("pattern.results", "count"),
    ("cloud.kv.put_units", "count"),
    ("cloud.kv.get_units", "count"),
    ("cloud.kv.api_requests", "count"),
    ("cloud.kv.throttled", "count"),
    ("cloud.s3.get_requests", "count"),
    ("cloud.s3.bytes_out", "bytes"),
    ("cloud.sqs.requests", "count"),
    ("cloud.sqs.redelivered", "count"),
    ("core.phase.lookup_get_s", "virt_s"),
    ("core.phase.plan_s", "virt_s"),
    ("core.phase.transfer_eval_s", "virt_s"),
    ("core.phase.queue_wait_s", "virt_s"),
    ("core.openloop.lateness_s", "virt_s"),
    ("core.openloop.drain_s", "virt_s"),
    ("obs.spans", "count"),
    ("obs.latency_samples", "count"),
    ("obs.record_overhead_s", "s"),
    ("bench.e2e_traced_s", "s"),
    ("bench.e2e_untraced_s", "s"),
    ("bench.trace_overhead_s", "s"),
    ("bench.reconcile_gap_frac", "ratio"),
];

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: amada-perfbench --workload <ingest|query|churn> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = amada_par::num_threads();
    println!(
        "provenance: workload={} seed={} held_out_seed={HELD_OUT_SEED} seconds={} trace={} \
         docs={} doc_bytes={} nproc={nproc} host_threads={threads} commit={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.workload.docs(),
        workloads::DOC_BYTES,
        commit(),
    );
    let mut chk = Checker::default();
    // A panic anywhere in the program is one more failed operation: the
    // run still ends with a result line, marked incorrect.
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match args.workload {
        Workload::Ingest => workloads::ingest(&args, &mut chk),
        Workload::Query => workloads::query(&args, &mut chk),
        Workload::Churn => workloads::churn(&args, &mut chk),
    }));
    let m = run.unwrap_or_else(|_| {
        chk.check(false, || "the program panicked".into());
        Measured::default()
    });
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = match name {
                    "obs.latency_samples" => m.virt.latencies.len() as f64,
                    _ => m.layers.get(name).copied().unwrap_or(0.0),
                };
                (name, v, unit)
            })
            .collect()
    } else {
        end_to_end(&m, &chk)
    };
    for (name, v, unit) in &metrics {
        println!("{name:<32} {v:>16.6} {unit}");
    }
    if !args.trace {
        println!(
            "as measured (before scaling to nominal host speed): setup_s {:.6} docs_indexed_per_s {:.3} \
             queries_per_s {:.3}; host speed / nominal: median {:.3} over {} units",
            median(&m.raw_setup_s),
            median(&m.raw_build_rate),
            median(&m.raw_query_rate),
            median(&m.scales),
            m.scales.len()
        );
    }
    let error_rate = chk.failed as f64 / chk.attempted.max(1) as f64;
    println!(
        "error_rate {error_rate} ({} of {} checks failed); virtual latency samples: {}",
        chk.failed,
        chk.attempted,
        m.virt.latencies.len()
    );
    let mut json = String::new();
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*v)
        );
    }
    let correct = chk.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        chk.attempted.max(1),
        chk.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
