//! `repro` — regenerate the paper's evaluation tables and figures.
//!
//! ```text
//! repro <artifact> [--scale F] [--docs N] [--doc-bytes B] [--repeats R]
//!
//! artifacts:
//!   table4   indexing times per strategy (8 large instances)
//!   fig7     indexing time vs. data size
//!   fig8     index sizes and monthly storage cost (± full-text)
//!   table5   per-query look-up precision and result sizes
//!   fig9     per-query response times + phase decomposition (l / xl)
//!   fig10    workload ×16 on 1 vs. 8 instances
//!   table6   indexing monetary costs by service
//!   fig11    per-query monetary costs
//!   fig12    workload cost decomposition (xl)
//!   fig13    index cost amortization
//!   table7   indexing comparison: SimpleDB [8] vs. DynamoDB
//!   table8   query comparison: SimpleDB [8] vs. DynamoDB
//!   trace    recorded pipeline: Chrome trace-event export
//!            (TRACE_repro.json) + span roll-up tables (beyond the paper)
//!   fault    pipeline under transient-fault injection (beyond the paper;
//!            seeded via AMADA_FAULT_SEED, not part of `all`)
//!   scale    elastic queue-depth autoscaling vs. static pools on bursty
//!            traffic (beyond the paper; not part of `all` — the
//!            autoscaled run's timings depend on its own knobs, and `all`
//!            stays byte-comparable to pre-elasticity runs)
//!   pushdown storage-side predicate filtering (LUP-PD) vs. document
//!            shipping, swept across predicate selectivity with the $
//!            crossover (beyond the paper; not part of `all` so `all`
//!            stays byte-comparable to pre-pushdown runs)
//!   churn    Figure 13 under document churn: per-run index maintenance
//!            (incremental rebuild + stale-entry retraction) vs. query
//!            savings, swept across update rates, with the rate at which
//!            the advisor flips to "index nothing" (beyond the paper;
//!            not part of `all` so `all` stays byte-comparable to
//!            pre-churn runs)
//!   shard    skew-aware sharded index vs. one table under an open-loop
//!            hot-key storm: exact p50/p95/p99 virtual latency and $/1k
//!            queries per shard plan (beyond the paper; not part of `all`
//!            so `all` stays byte-comparable to pre-sharding runs)
//!   advise   adaptive attribution-driven advisor vs. every static layout
//!            on a hot/cold/churning horizon under a monthly storage
//!            budget: per-deployment dollars, response times and the
//!            mixed plan adopted (beyond the paper; not part of `all` so
//!            `all` stays byte-comparable to pre-advisor runs)
//!   all      everything above except `fault`, `scale`, `pushdown`,
//!            `churn`, `shard` and `advise`, in order
//! ```
//!
//! A second mode runs the differential correctness harness instead of the
//! paper artifacts:
//!
//! ```text
//! repro check [--seed N[,N...]] [--cases M] [--billing-every K]
//! ```
//!
//! Each seed runs `M` randomized cases through the strategy-equivalence,
//! containment, twig-vs-naive, store round-trip and (sampled) billing
//! oracles of `amada-check`. On a violation the case is shrunk, the
//! reproducer is printed and written to `CHECK_reproducer.txt`, and the
//! process exits non-zero.
//!
//! Artifacts that share an expensive suite (e.g. `table4`/`fig8`/`table6`
//! all need the indexing suite) run sequentially within one host task so
//! the suite is built once; *independent* suites run concurrently, one
//! host thread each. Output order is always the selection order, and the
//! bodies are byte-identical to a sequential run — host threading never
//! touches virtual time. `AMADA_THREADS=1` forces a fully sequential run.
//!
//! Each invocation also writes `BENCH_repro.json` to the working
//! directory: wall-clock seconds per artifact, thread count, and the
//! process-wide host cache's counters and hit rate.

use amada_bench::experiments as exp;
use amada_bench::Scale;
use std::time::Instant;

/// `(name, body, wall seconds)` for one computed artifact.
type Computed = (String, String, f64);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        print_usage();
        return;
    }
    if args[0] == "check" {
        run_check_mode(&args[1..]);
        return;
    }
    // Leading non-flag arguments select artifacts (suites are shared
    // across them); flags follow.
    let mut artifacts: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() && !args[i].starts_with("--") {
        artifacts.push(args[i].as_str());
        i += 1;
    }
    let mut scale = Scale::default_scale();
    let mut enforce = false;
    while i < args.len() {
        let flag = args[i].as_str();
        // `--enforce` is a boolean flag (no argument).
        if flag == "--enforce" {
            enforce = true;
            i += 1;
            continue;
        }
        let value = || -> f64 {
            args.get(i + 1)
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| die(&format!("{flag} needs a numeric argument")))
        };
        match flag {
            "--scale" => scale = scale.scaled(value()),
            "--docs" => scale.docs = value() as usize,
            "--doc-bytes" => scale.doc_bytes = value() as usize,
            "--repeats" => scale.workload_repeats = value() as usize,
            other => die(&format!("unknown flag {other}")),
        }
        i += 2;
    }
    eprintln!(
        "# corpus: {} documents x ~{} bytes (paper: 20000 x ~2 MB); seed {:#x}",
        scale.docs, scale.doc_bytes, scale.seed
    );

    let known: &[&str] = &[
        "table4", "fig7", "fig8", "table5", "fig9", "fig10", "table6", "fig11", "fig12", "fig13",
        "table7", "table8", "ablation", "trace", "fault", "scale", "perf", "pushdown", "churn",
        "shard", "advise",
    ];
    // `all` deliberately leaves `fault` (output depends on
    // AMADA_FAULT_SEED), `scale` (beyond-the-paper elasticity run),
    // `perf` (host wall-clock timings), `pushdown` (beyond-the-paper
    // selectivity sweep), `churn` (beyond-the-paper churn-rate sweep),
    // `shard` (beyond-the-paper open-loop storm) and `advise`
    // (beyond-the-paper adaptive-advisor horizon) out, so `all` stays
    // byte-comparable run to run and release to release.
    let excluded = [
        "fault", "scale", "perf", "pushdown", "churn", "shard", "advise",
    ];
    let selected: Vec<&str> = if artifacts == ["all"] {
        known
            .iter()
            .copied()
            .filter(|a| !excluded.contains(a))
            .collect()
    } else {
        for a in &artifacts {
            if !known.contains(a) {
                die(&format!("unknown artifact '{a}'"));
            }
        }
        artifacts
    };

    let total = Instant::now();
    let computed = compute(&scale, &selected);
    let total_wall = total.elapsed().as_secs_f64();

    // Print in selection order, exactly as a sequential run would.
    for (name, body, wall) in &computed {
        println!("\n== {} ==\n{body}", title(name));
        eprintln!("# {name} computed in {wall:.1}s wall time");
    }

    let threads = amada_par::num_threads();
    eprintln!("# total {total_wall:.1}s wall time on {threads} host thread(s)");
    match write_report(&computed, total_wall, threads, &scale) {
        Ok(path) => eprintln!("# wrote {path}"),
        Err(e) => eprintln!("# warning: could not write BENCH_repro.json: {e}"),
    }
    if enforce {
        match exp::perf::enforce_floors() {
            Ok(msg) => eprintln!("# enforce: {msg}"),
            Err(msg) => {
                eprintln!("error: enforce: {msg}");
                std::process::exit(1);
            }
        }
    }
}

/// Runs every selected artifact, sharing expensive suites within a group
/// and running independent groups concurrently. Results come back in
/// selection order.
fn compute(scale: &Scale, selected: &[&str]) -> Vec<Computed> {
    // Which suite an artifact needs; artifacts with the same suite are
    // grouped onto one task so the suite is built once. `None` means the
    // artifact is self-contained and gets its own task.
    fn suite_of(artifact: &str) -> Option<&'static str> {
        match artifact {
            "table4" | "fig8" | "table6" => Some("indexing"),
            "table5" | "fig9" | "fig11" | "fig12" => Some("querying"),
            "table7" | "table8" => Some("comparison"),
            _ => None,
        }
    }

    let mut groups: Vec<(Option<&'static str>, Vec<&str>)> = Vec::new();
    for &a in selected {
        let key = suite_of(a);
        match groups.iter_mut().find(|(k, _)| k.is_some() && *k == key) {
            Some((_, members)) => members.push(a),
            None => groups.push((key, vec![a])),
        }
    }

    let tasks: Vec<Box<dyn FnOnce() -> Vec<Computed> + Send + '_>> = groups
        .into_iter()
        .map(|(_, members)| {
            let f: Box<dyn FnOnce() -> Vec<Computed> + Send + '_> = Box::new(move || {
                // Suites are built lazily by the first member that needs
                // them (its wall time includes the build, as in a
                // sequential run) and reused by the rest of the group.
                let mut indexing: Option<exp::IndexingSuite> = None;
                let mut querying: Option<exp::QuerySuite> = None;
                let mut comparing: Option<exp::ComparisonSuite> = None;
                members
                    .into_iter()
                    .map(|artifact| {
                        let start = Instant::now();
                        let body = match artifact {
                            "table4" => exp::table4(
                                indexing.get_or_insert_with(|| exp::indexing_suite(scale)),
                            )
                            .to_string(),
                            "fig7" => exp::fig7(scale).to_string(),
                            "fig8" => exp::fig8(
                                indexing.get_or_insert_with(|| exp::indexing_suite(scale)),
                            )
                            .to_string(),
                            "table5" => {
                                exp::table5(querying.get_or_insert_with(|| exp::query_suite(scale)))
                                    .to_string()
                            }
                            "fig9" => {
                                exp::fig9(querying.get_or_insert_with(|| exp::query_suite(scale)))
                            }
                            "fig10" => exp::fig10(scale).to_string(),
                            "table6" => exp::table6(
                                indexing.get_or_insert_with(|| exp::indexing_suite(scale)),
                            )
                            .to_string(),
                            "fig11" => {
                                exp::fig11(querying.get_or_insert_with(|| exp::query_suite(scale)))
                                    .to_string()
                            }
                            "fig12" => {
                                exp::fig12(querying.get_or_insert_with(|| exp::query_suite(scale)))
                                    .to_string()
                            }
                            "fig13" => exp::fig13(scale).to_string(),
                            "table7" => exp::table7(
                                comparing.get_or_insert_with(|| exp::comparison_suite(scale)),
                            )
                            .to_string(),
                            "table8" => exp::table8(
                                comparing.get_or_insert_with(|| exp::comparison_suite(scale)),
                            )
                            .to_string(),
                            "ablation" => exp::ablation(scale).to_string(),
                            "trace" => exp::trace(scale),
                            "fault" => exp::fault(scale).to_string(),
                            "scale" => exp::elastic(scale).to_string(),
                            "perf" => exp::perf(scale),
                            "pushdown" => exp::pushdown(scale).to_string(),
                            "churn" => exp::churn(scale).to_string(),
                            "shard" => exp::shard(scale).to_string(),
                            "advise" => exp::advise(scale).to_string(),
                            _ => unreachable!("validated in main"),
                        };
                        (artifact.to_string(), body, start.elapsed().as_secs_f64())
                    })
                    .collect()
            });
            f
        })
        .collect();

    // par_run caps workers at `num_threads()`, so AMADA_THREADS=1 makes
    // this a plain sequential loop.
    let per_group: Vec<Vec<Computed>> = amada_par::par_run(tasks);

    // Flatten back to selection order.
    let mut by_name: std::collections::HashMap<String, Computed> = per_group
        .into_iter()
        .flatten()
        .map(|c| (c.0.clone(), c))
        .collect();
    selected
        .iter()
        .map(|&a| by_name.remove(a).expect("every artifact computed"))
        .collect()
}

/// Writes `BENCH_repro.json` (hand-rolled JSON; the build environment has
/// no serde). Returns the path written.
fn write_report(
    computed: &[Computed],
    total_wall: f64,
    threads: usize,
    scale: &Scale,
) -> std::io::Result<&'static str> {
    let stats = amada_index::ExtractCache::shared().stats();
    let mut json = String::from("{\n");
    json.push_str("  \"schema\": \"amada-bench-repro/1\",\n");
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!(
        "  \"scale\": {{ \"docs\": {}, \"doc_bytes\": {}, \"workload_repeats\": {} }},\n",
        scale.docs, scale.doc_bytes, scale.workload_repeats
    ));
    json.push_str("  \"artifacts\": [\n");
    for (i, (name, _, wall)) in computed.iter().enumerate() {
        let comma = if i + 1 < computed.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{ \"name\": \"{name}\", \"wall_seconds\": {wall:.6} }}{comma}\n"
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"total_wall_seconds\": {total_wall:.6},\n"));
    let hit_rate = match stats.hit_rate() {
        Some(r) => format!("{r:.6}"),
        None => "null".to_string(),
    };
    json.push_str(&format!(
        "  \"cache\": {{ \"parse_hits\": {}, \"parse_misses\": {}, \"extract_hits\": {}, \
         \"extract_misses\": {}, \"eval_hits\": {}, \"eval_misses\": {}, \"hit_rate\": {} }},\n",
        stats.parse_hits,
        stats.parse_misses,
        stats.extract_hits,
        stats.extract_misses,
        stats.eval_hits,
        stats.eval_misses,
        hit_rate
    ));
    // Zero when the `trace` artifact was not selected.
    json.push_str(&format!(
        "  \"trace\": {{ \"spans\": {}, \"series_buckets\": {} }},\n",
        exp::trace::TRACE_SPANS.load(std::sync::atomic::Ordering::Relaxed),
        exp::trace::TRACE_BUCKETS.load(std::sync::atomic::Ordering::Relaxed)
    ));
    // Zero when the `scale` artifact was not selected.
    json.push_str(&format!(
        "  \"scaling\": {{ \"out_events\": {}, \"in_events\": {}, \"peak_pool\": {} }},\n",
        exp::elastic::SCALE_OUT_EVENTS.load(std::sync::atomic::Ordering::Relaxed),
        exp::elastic::SCALE_IN_EVENTS.load(std::sync::atomic::Ordering::Relaxed),
        exp::elastic::SCALE_PEAK_POOL.load(std::sync::atomic::Ordering::Relaxed)
    ));
    // Zero when the `pushdown` artifact was not selected.
    json.push_str(&format!(
        "  \"pushdown\": {{ \"sweep_points\": {}, \"pushdown_wins\": {}, \"bytes_scanned\": {}, \
         \"bytes_returned\": {} }},\n",
        exp::pushdown::PUSHDOWN_POINTS.load(std::sync::atomic::Ordering::Relaxed),
        exp::pushdown::PUSHDOWN_WINS.load(std::sync::atomic::Ordering::Relaxed),
        exp::pushdown::PUSHDOWN_SCANNED_BYTES.load(std::sync::atomic::Ordering::Relaxed),
        exp::pushdown::PUSHDOWN_RETURNED_BYTES.load(std::sync::atomic::Ordering::Relaxed)
    ));
    // Zero when the `churn` artifact was not selected.
    json.push_str(&format!(
        "  \"churn\": {{ \"sweep_points\": {}, \"strategy_flips\": {}, \"retracted_items\": {}, \
         \"advisor_flip_pct\": {} }},\n",
        exp::churn::CHURN_POINTS.load(std::sync::atomic::Ordering::Relaxed),
        exp::churn::CHURN_FLIPS.load(std::sync::atomic::Ordering::Relaxed),
        exp::churn::CHURN_RETRACTED_ITEMS.load(std::sync::atomic::Ordering::Relaxed),
        exp::churn::CHURN_ADVISOR_FLIP_PCT.load(std::sync::atomic::Ordering::Relaxed)
    ));
    // Zero when the `shard` artifact was not selected.
    json.push_str(&format!(
        "  \"shard\": {{ \"arrivals\": {}, \"single_p99_us\": {}, \"skew_p99_us\": {}, \
         \"single_per_1k_udollars\": {}, \"skew_per_1k_udollars\": {} }},\n",
        exp::shard::SHARD_ARRIVALS.load(std::sync::atomic::Ordering::Relaxed),
        exp::shard::SHARD_SINGLE_P99_US.load(std::sync::atomic::Ordering::Relaxed),
        exp::shard::SHARD_SKEW_P99_US.load(std::sync::atomic::Ordering::Relaxed),
        exp::shard::SHARD_SINGLE_PER1K_UDOLLARS.load(std::sync::atomic::Ordering::Relaxed),
        exp::shard::SHARD_SKEW_PER1K_UDOLLARS.load(std::sync::atomic::Ordering::Relaxed)
    ));
    // Zero when the `advise` artifact was not selected.
    json.push_str(&format!(
        "  \"advise\": {{ \"rounds\": {}, \"adaptive_total_udollars\": {}, \
         \"best_static_total_udollars\": {}, \"adaptive_mean_response_us\": {}, \
         \"best_static_mean_response_us\": {}, \"migrated_docs\": {}, \
         \"confirm_migrated_docs\": {}, \"budget_met\": {} }},\n",
        exp::advise::ADVISE_ROUNDS_RUN.load(std::sync::atomic::Ordering::Relaxed),
        exp::advise::ADVISE_ADAPTIVE_TOTAL_UDOLLARS.load(std::sync::atomic::Ordering::Relaxed),
        exp::advise::ADVISE_BEST_STATIC_TOTAL_UDOLLARS.load(std::sync::atomic::Ordering::Relaxed),
        exp::advise::ADVISE_ADAPTIVE_MEAN_RESPONSE_US.load(std::sync::atomic::Ordering::Relaxed),
        exp::advise::ADVISE_BEST_STATIC_MEAN_RESPONSE_US.load(std::sync::atomic::Ordering::Relaxed),
        exp::advise::ADVISE_MIGRATED_DOCS.load(std::sync::atomic::Ordering::Relaxed),
        exp::advise::ADVISE_CONFIRM_MIGRATED_DOCS.load(std::sync::atomic::Ordering::Relaxed),
        exp::advise::ADVISE_BUDGET_MET.load(std::sync::atomic::Ordering::Relaxed)
    ));
    // Null when the `perf` artifact was not selected.
    json.push_str(&format!(
        "  \"perf\": {}\n",
        exp::perf::perf_json().unwrap_or_else(|| "null".to_string())
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_repro.json", json)?;
    Ok("BENCH_repro.json")
}

fn title(artifact: &str) -> &'static str {
    match artifact {
        "table4" => "Table 4 - indexing times using 8 large (L) instances",
        "fig7" => "Figure 7 - indexing time vs. data size (8 large instances)",
        "fig8" => "Figure 8 - index size and monthly storage cost",
        "table5" => "Table 5 - query processing details (doc IDs from index)",
        "fig9" => "Figure 9 - response times and phase decomposition",
        "fig10" => "Figure 10 - impact of using multiple EC2 instances (workload x16)",
        "table6" => "Table 6 - indexing costs by service",
        "fig11" => "Figure 11 - query processing costs",
        "fig12" => "Figure 12 - workload evaluation cost details (XL instance)",
        "fig13" => "Figure 13 - index cost amortization (single L instance)",
        "table7" => "Table 7 - indexing comparison vs. [8] (SimpleDB)",
        "table8" => "Table 8 - query processing comparison vs. [8] (SimpleDB)",
        "ablation" => "Ablation - binary ID encoding and write batching (beyond the paper)",
        "trace" => {
            "Trace - recorded pipeline, Chrome trace export and span roll-ups (beyond the paper)"
        }
        "fault" => "Fault injection - the pipeline under transient faults (beyond the paper)",
        "scale" => {
            "Scale - elastic autoscaling vs. static pools on bursty traffic (beyond the paper)"
        }
        "perf" => {
            "Perf - hot-path microbenchmarks: parse / tokenize / decode / twig (beyond the paper)"
        }
        "pushdown" => {
            "Pushdown - storage-side filtering vs. document shipping by selectivity (beyond the paper)"
        }
        "churn" => {
            "Churn - index maintenance vs. query savings by update rate (beyond the paper)"
        }
        "shard" => {
            "Shard - skew-aware sharded index vs. one table under an open-loop storm (beyond the paper)"
        }
        "advise" => {
            "Advise - adaptive attribution-driven plan vs. static layouts under a budget (beyond the paper)"
        }
        _ => "unknown",
    }
}

/// `repro check`: the seeded differential correctness harness.
fn run_check_mode(args: &[String]) {
    use amada_check::{run_check, CheckConfig};

    let mut seeds: Vec<u64> = vec![0xA3ADA];
    let mut cases = 200usize;
    let mut billing_every = 10usize;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = || -> &String {
            args.get(i + 1)
                .unwrap_or_else(|| die(&format!("{flag} needs an argument")))
        };
        match flag {
            "--seed" => {
                seeds = value()
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .unwrap_or_else(|_| die(&format!("bad seed '{s}'")))
                    })
                    .collect();
            }
            "--cases" => {
                cases = value()
                    .parse()
                    .unwrap_or_else(|_| die("--cases needs a number"));
            }
            "--billing-every" => {
                billing_every = value()
                    .parse()
                    .unwrap_or_else(|_| die("--billing-every needs a number"));
            }
            other => die(&format!("unknown check flag {other}")),
        }
        i += 2;
    }

    let start = Instant::now();
    for &seed in &seeds {
        let cfg = CheckConfig {
            seed,
            cases,
            billing_every,
            mutation: Default::default(),
        };
        let outcome = run_check(&cfg);
        match outcome.failure {
            None => {
                eprintln!("# seed {seed:#x}: {} cases passed", outcome.cases_passed);
            }
            Some(repro) => {
                let text = repro.to_string();
                println!("{text}");
                match std::fs::write("CHECK_reproducer.txt", &text) {
                    Ok(()) => eprintln!("# wrote CHECK_reproducer.txt"),
                    Err(e) => eprintln!("# warning: could not write CHECK_reproducer.txt: {e}"),
                }
                eprintln!(
                    "# seed {seed:#x}: VIOLATION after {} passing cases",
                    outcome.cases_passed
                );
                std::process::exit(1);
            }
        }
    }
    eprintln!(
        "# check: {} seed(s) x {cases} cases passed in {:.1}s wall time",
        seeds.len(),
        start.elapsed().as_secs_f64()
    );
}

fn print_usage() {
    println!(
        "repro - regenerate the paper's tables and figures\n\n\
         usage: repro <artifact> [--scale F] [--docs N] [--doc-bytes B] [--repeats R] [--enforce]\n\
         \x20      repro check [--seed N[,N...]] [--cases M] [--billing-every K]\n\n\
         artifacts: table4 fig7 fig8 table5 fig9 fig10 table6 fig11 fig12 fig13 table7 table8 ablation trace fault scale perf pushdown churn shard advise all\n\n\
         --enforce (with perf): exit non-zero when a release build regresses more\n\
         than 30% past the repo-pinned parse / tokenize / decode rates or the\n\
         twig-join latency ceiling"
    );
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
