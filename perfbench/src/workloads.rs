//! The three workloads, the checks made on their outputs and the
//! per-layer quantities they record.
//!
//! Each workload runs in *units* of fixed work derived from the seed, so
//! every unit of one run must produce bit-identical virtual outcomes (the
//! determinism guard). Units repeat until the measuring window is spent;
//! host rates are medians over units, virtual metrics come from the first
//! unit.

use crate::calib;
use crate::trace::Tracer;
use crate::Args;
use amada_cloud::KvStore;
use amada_cloud::{CostSnapshot, DynamoDb, InstanceType, Money, SimDuration, SimTime, Span};
use amada_core::{
    ArrivalProcess, IndexBuildReport, Pool, QueryExecution, Warehouse, WarehouseConfig,
    WorkloadReport,
};
use amada_index::{
    entry_item_keys, extract, lookup_query, retract_keys, stale_keys, write_entries, CacheStats,
    ExtractCache, ExtractOptions, IndexEntry, Strategy,
};
use amada_obs::query_latencies;
use amada_pattern::{evaluate_query_on_documents, JoinedTuple, Query};
use amada_xmark::{generate_corpus, generate_document, CorpusConfig};
use amada_xml::Document;
use std::collections::BTreeMap;
use std::time::Instant;

/// Bytes per generated XMark document.
pub const DOC_BYTES: usize = 8192;
/// Documents in the `ingest` corpus.
pub const INGEST_DOCS: usize = 300;
/// Documents in the `query` corpus.
pub const QUERY_DOCS: usize = 150;
/// Seed of the `query` corpus (fixed; see [`query`]).
pub const QUERY_CORPUS_SEED: u64 = 0;
/// Documents in the `churn` corpus.
pub const CHURN_DOCS: usize = 300;
/// Open-loop arrivals per index and pass on `query`.
pub const ARRIVALS_PER_PASS: usize = 300;
/// Arrival schedules `query` sends, one per pass: a unit sends 1200
/// arrivals to each index and pools 2400 latencies. The schedule's random
/// gaps, bursts and Zipf picks move the host work of a pass by tens of
/// percent between seeds; more schedules per unit average that out.
pub const SCHEDULES: usize = 4;
/// Maintenance rounds per `churn` unit; each replaces every tenth
/// document.
pub const CHURN_ROUNDS: usize = 10;
/// Units measured at least, whatever the window.
pub const MIN_UNITS: usize = 3;
/// Largest share of the traced end-to-end host time that the layer
/// spans may leave uncovered.
pub const RECONCILE_GAP: f64 = 0.05;

/// The four paper strategies, in the order `ingest` builds them.
const STRATEGIES: [Strategy; 4] = [
    Strategy::Lu,
    Strategy::Lup,
    Strategy::Lui,
    Strategy::TwoLupi,
];
/// The two indexes `query` drives.
const QUERY_STRATEGIES: [Strategy; 2] = [Strategy::Lup, Strategy::TwoLupi];

/// Counts checked operations and the ones that failed.
#[derive(Debug, Default)]
pub struct Checker {
    /// Operations checked.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

impl Checker {
    /// Records one check; prints the first few failures to stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("check failed: {}", what());
            }
        }
    }
}

/// Per-unit sums of per-layer quantities, averaged over the units that
/// reported them.
#[derive(Debug, Default)]
struct Tally {
    unit: BTreeMap<&'static str, f64>,
    sums: BTreeMap<&'static str, (f64, u32)>,
}

impl Tally {
    fn add(&mut self, key: &'static str, v: f64) {
        *self.unit.entry(key).or_default() += v;
    }

    /// Keeps the largest value of `key` within the unit.
    fn max(&mut self, key: &'static str, v: f64) {
        let e = self.unit.entry(key).or_insert(v);
        *e = e.max(v);
    }

    /// Ends a unit: its sums join the averages.
    fn commit(&mut self) {
        for (k, v) in std::mem::take(&mut self.unit) {
            let e = self.sums.entry(k).or_default();
            e.0 += v;
            e.1 += 1;
        }
    }

    fn means(&self) -> BTreeMap<&'static str, f64> {
        self.sums
            .iter()
            .map(|(k, (s, n))| (*k, s / f64::from(*n)))
            .collect()
    }
}

/// The virtual (deterministic) outcome of one unit.
#[derive(Debug, Default, Clone)]
pub struct Virt {
    /// Per-query virtual latencies.
    pub latencies: Vec<SimDuration>,
    /// Queries answered.
    pub queries: u64,
    /// Charges of the query runs.
    pub query_cost: Money,
    /// Charges of the index builds.
    pub build_cost: Money,
    /// Summed build makespans.
    pub build_time: SimDuration,
    /// Index bytes stored (raw + overhead).
    pub index_bytes: u64,
    /// Corpus bytes those index bytes describe.
    pub corpus_bytes: u64,
}

/// What one run measured. Host times are at nominal host speed; the
/// `raw_` fields keep them as measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Host seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Documents indexed per host-second of `build_index`, per unit.
    pub build_rate: Vec<f64>,
    /// Queries simulated per host-second of the run calls, per unit.
    pub query_rate: Vec<f64>,
    /// `setup_s` as measured.
    pub raw_setup_s: Vec<f64>,
    /// `build_rate` as measured.
    pub raw_build_rate: Vec<f64>,
    /// `query_rate` as measured.
    pub raw_query_rate: Vec<f64>,
    /// Factor from measured to nominal host speed, per unit.
    pub scales: Vec<f64>,
    /// Peak resident set size (MiB) after the first unit: later units
    /// repeat its work, but how many run depends on host speed.
    pub peak_rss_mb: f64,
    /// Virtual outcome of the first unit.
    pub virt: Virt,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
}

/// One unit's host timings and virtual outcome.
#[derive(Debug, Default)]
struct UnitOut {
    /// Host seconds of the whole unit (its `unit` span).
    e2e_s: f64,
    /// Factor that scales this unit's host times to nominal host speed
    /// (see [`crate::calib`]).
    scale: f64,
    setup_s: f64,
    built: u64,
    build_s: f64,
    queries: u64,
    run_s: f64,
    virt: Virt,
    fingerprint: u64,
}

impl UnitOut {
    /// Adds this unit's samples.
    fn record(&self, m: &mut Measured) {
        let scale = self.scale;
        m.scales.push(scale);
        if self.setup_s > 0.0 {
            m.setup_s.push(self.setup_s * scale);
            m.raw_setup_s.push(self.setup_s);
        }
        if self.built > 0 {
            m.build_rate
                .push(self.built as f64 / (self.build_s * scale));
            m.raw_build_rate.push(self.built as f64 / self.build_s);
        }
        if self.queries > 0 {
            m.query_rate
                .push(self.queries as f64 / (self.run_s * scale));
            m.raw_query_rate.push(self.queries as f64 / self.run_s);
        }
    }
}

/// Incremental FNV-1a over the `Debug` form of virtual outcomes.
#[derive(Debug, Clone, Copy)]
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Fingerprint {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    fn add<T: std::fmt::Debug + ?Sized>(&mut self, v: &T) {
        for b in format!("{v:?}").bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// SplitMix64: derives independent seeds from the workload seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn corpus_config(seed: u64, docs: usize) -> CorpusConfig {
    CorpusConfig {
        seed: mix(seed, 1),
        num_documents: docs,
        target_doc_bytes: DOC_BYTES,
        ..Default::default()
    }
}

fn generate(cfg: &CorpusConfig) -> Vec<(String, String)> {
    generate_corpus(cfg)
        .into_iter()
        .map(|d| (d.uri, d.xml))
        .collect()
}

fn corpus_bytes(docs: &[(String, String)]) -> u64 {
    docs.iter().map(|(_, x)| x.len() as u64).sum()
}

/// The documents churn round `round` replaces and their new versions:
/// every tenth document, shifted by one per round, regenerated under a
/// round-specific seed (same URI, new body).
fn churn_versions(seed: u64, round: usize) -> Vec<(String, String)> {
    let mut cc = corpus_config(seed, CHURN_DOCS);
    cc.seed = mix(seed, 100 + round as u64);
    (0..CHURN_DOCS)
        .filter(|i| i % 10 == round % 10)
        .map(|i| {
            let d = generate_document(&cc, i);
            (d.uri, d.xml)
        })
        .collect()
}

/// The open-loop arrivals a `query` pass on `schedule` sends to each
/// index.
fn arrival_process(seed: u64, schedule: usize) -> ArrivalProcess {
    ArrivalProcess {
        seed: mix(seed, 10 + schedule as u64),
        arrivals: ARRIVALS_PER_PASS,
        base_rate_per_sec: 4.0,
        diurnal_amplitude: 0.4,
        diurnal_period: SimDuration::from_secs(60),
        burst_every: SimDuration::from_secs(20),
        burst_len: SimDuration::from_secs(4),
        burst_factor: 3.0,
        zipf_exponent: 1.0,
    }
}

fn warehouse(strategy: Strategy, record: bool, query_pool: Pool) -> Warehouse {
    let mut cfg = WarehouseConfig::with_strategy(strategy);
    cfg.host.record = record;
    cfg.query_pool = query_pool;
    Warehouse::new(cfg)
}

fn upload(w: &mut Warehouse, docs: &[(String, String)]) {
    w.upload_documents(docs.iter().map(|(u, x)| (u.as_str(), x.as_str())));
}

/// Builds the index, then takes a calibration sample. A traced run
/// prewarms explicitly first, so parse and extract show as their own
/// span; untraced, `build_index` prewarms itself. Returns the report and
/// the host seconds of both calls.
fn build(tr: &mut Tracer, w: &mut Warehouse) -> (IndexBuildReport, f64) {
    let mut secs = 0.0;
    if tr.is_on() {
        secs += tr.call("core.prewarm", || w.prewarm()).1;
    }
    let (report, s) = tr.call("core.build", || w.build_index());
    calibrate(tr);
    (report, secs + s)
}

/// Takes a calibration sample between two layer calls.
fn calibrate(tr: &mut Tracer) {
    tr.call("bench.calibrate", calib::tick);
}

/// Runs a unit between two calibration samples; returns its result and
/// the factor that scales its host times to nominal host speed (from the
/// samples taken during the unit, see [`crate::calib`]).
fn calibrated<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let mark = calib::mark();
    calib::tick();
    let r = f();
    calib::tick();
    (r, calib::scale_since(mark))
}

/// Runs `f` with `AMADA_THREADS` set to a thread count other than the
/// default (1, or 2 on a one-core host), then restores the variable.
/// Called only while no other thread runs.
fn with_other_thread_count<R>(f: impl FnOnce() -> R) -> R {
    let prev = std::env::var("AMADA_THREADS").ok();
    let other = if amada_par::num_threads() > 1 {
        "1"
    } else {
        "2"
    };
    std::env::set_var("AMADA_THREADS", other);
    let r = f();
    match prev {
        Some(v) => std::env::set_var("AMADA_THREADS", v),
        None => std::env::remove_var("AMADA_THREADS"),
    }
    r
}

type Rows = Vec<Vec<String>>;

fn rows(tuples: &[JoinedTuple]) -> Rows {
    let mut r: Rows = tuples.iter().map(|t| t.columns.clone()).collect();
    r.sort();
    r
}

/// The workload query an execution or arrival name (`q3`, `q3#17`) ran.
fn base_name(name: &str) -> &str {
    name.split('#').next().unwrap_or(name)
}

fn parse_all(docs: &[(String, String)]) -> BTreeMap<String, Document> {
    docs.iter()
        .map(|(u, x)| {
            let d =
                Document::parse(u.as_str(), x.as_bytes()).expect("generated XML is well-formed");
            (u.clone(), d)
        })
        .collect()
}

/// The no-index reference: each query evaluated over the whole corpus.
fn reference(queries: &[Query], docs: &BTreeMap<String, Document>) -> BTreeMap<String, Rows> {
    queries
        .iter()
        .map(|q| {
            let (tuples, _) = evaluate_query_on_documents(q, docs.values());
            (
                q.name.clone().expect("workload queries are named"),
                rows(&tuples),
            )
        })
        .collect()
}

/// Compares every execution's sorted results to the reference.
fn check_answers(
    chk: &mut Checker,
    executions: &[QueryExecution],
    sent: usize,
    expected: &BTreeMap<String, Rows>,
) {
    chk.check(executions.len() == sent, || {
        format!("{} executions for {sent} queries", executions.len())
    });
    for e in executions {
        let want = expected.get(base_name(&e.name));
        chk.check(want == Some(&rows(&e.results)), || {
            format!("{} answered differently from the no-index scan", e.name)
        });
    }
}

fn check_documents(chk: &mut Checker, report: &IndexBuildReport, uploaded: usize) {
    chk.check(report.documents == uploaded as u64, || {
        format!(
            "{} build indexed {} of {uploaded} uploaded documents",
            report.strategy, report.documents
        )
    });
}

fn add_build(virt: &mut Virt, report: &IndexBuildReport) {
    virt.build_cost += report.cost.total();
    virt.build_time += report.total_time;
}

fn add_cache(t: &mut Tally, before: CacheStats, after: CacheStats) {
    for (key, a, b) in [
        ("_parse_hits", after.parse_hits, before.parse_hits),
        ("_parse_misses", after.parse_misses, before.parse_misses),
        ("_extract_hits", after.extract_hits, before.extract_hits),
        (
            "_extract_misses",
            after.extract_misses,
            before.extract_misses,
        ),
    ] {
        t.add(key, (a - b) as f64);
    }
}

fn add_cloud(t: &mut Tally, before: &CostSnapshot, after: &CostSnapshot) {
    let (a, b) = (after, before);
    for (key, x, y) in [
        ("cloud.kv.put_units", a.kv.put_ops, b.kv.put_ops),
        ("cloud.kv.get_units", a.kv.get_ops, b.kv.get_ops),
        (
            "cloud.kv.api_requests",
            a.kv.api_requests,
            b.kv.api_requests,
        ),
        ("cloud.kv.throttled", a.kv.throttled, b.kv.throttled),
        (
            "cloud.s3.get_requests",
            a.s3.get_requests,
            b.s3.get_requests,
        ),
        ("cloud.s3.bytes_out", a.s3.bytes_out, b.s3.bytes_out),
        ("cloud.sqs.requests", a.sqs.requests, b.sqs.requests),
        (
            "cloud.sqs.redelivered",
            a.sqs.redelivered,
            b.sqs.redelivered,
        ),
    ] {
        t.add(key, x.saturating_sub(y) as f64);
    }
}

/// Records a query run's virtual outcome. `spans` are the recorder's
/// spans of this run (empty when the recorder is off, in which case the
/// processor-side response time stands in for the latency envelope).
fn add_run(virt: &mut Virt, t: &mut Tally, report: &WorkloadReport, spans: &[Span]) {
    let envelopes: BTreeMap<String, SimDuration> = query_latencies(spans).into_iter().collect();
    for e in &report.executions {
        let latency = envelopes.get(&e.name).copied().unwrap_or(e.response_time);
        virt.latencies.push(latency);
        t.add("_executions", 1.0);
        t.add("_lookup_get_s", e.phases.lookup_get.as_secs_f64());
        t.add("_plan_s", e.phases.plan.as_secs_f64());
        t.add("_transfer_eval_s", e.phases.transfer_eval.as_secs_f64());
        let wait = latency.micros().saturating_sub(e.response_time.micros());
        t.add(
            "_queue_wait_s",
            SimDuration::from_micros(wait).as_secs_f64(),
        );
        t.add("_docs_fetched", e.docs_fetched as f64);
        t.add("_docs_with_results", e.docs_with_results as f64);
    }
    virt.queries += report.executions.len() as u64;
    virt.query_cost += report.cost.total();
    t.add("obs.spans", spans.len() as f64);
}

/// The driver's own copy of one index, built by replaying the layers'
/// public functions on its own parse of the corpus.
struct Replica {
    strategy: Strategy,
    store: DynamoDb,
    /// Entries last written per document, to retract a replaced
    /// version's stale items as the loader does.
    written: BTreeMap<String, Vec<IndexEntry>>,
}

impl Replica {
    fn new(strategy: Strategy) -> Replica {
        Replica {
            strategy,
            store: DynamoDb::default(),
            written: BTreeMap::new(),
        }
    }

    /// Replays extract and write for `docs`; a document written before
    /// has its previous version's stale items retracted after the write.
    fn index<'a>(
        &mut self,
        tr: &mut Tracer,
        t: &mut Tally,
        docs: impl Iterator<Item = &'a Document> + Clone,
    ) {
        let strategy = self.strategy;
        let entries: Vec<Vec<IndexEntry>> = tr.replay("index.extract", || {
            docs.clone()
                .map(|d| extract(d, strategy, ExtractOptions::default()))
                .collect()
        });
        t.add(
            "index.entries",
            entries.iter().map(Vec::len).sum::<usize>() as f64,
        );
        let (store, written) = (&mut self.store, &mut self.written);
        let items = tr.replay("index.write", || {
            let profile = store.profile();
            let mut items = 0;
            for (d, e) in docs.zip(entries) {
                let uri = d.uri();
                let (m, _) = write_entries(store, SimTime::ZERO, &e, uri)
                    .expect("a fault-free store accepts every write");
                items += m.items;
                if let Some(old) = written.insert(uri.to_string(), e) {
                    let stale = stale_keys(
                        &entry_item_keys(&old, &profile, uri),
                        &entry_item_keys(&written[uri], &profile, uri),
                    );
                    retract_keys(store, SimTime::ZERO, &stale)
                        .expect("a fault-free store accepts every delete");
                }
            }
            items
        });
        t.add("index.items_written", items as f64);
    }

    /// Replays look-up and evaluation for every execution of a run, and
    /// checks the replayed answers against the reference.
    #[allow(clippy::too_many_arguments)]
    fn answer(
        &mut self,
        tr: &mut Tracer,
        t: &mut Tally,
        chk: &mut Checker,
        queries: &[Query],
        docs: &BTreeMap<String, Document>,
        executions: &[QueryExecution],
        expected: &BTreeMap<String, Rows>,
    ) {
        for e in executions {
            let name = base_name(&e.name);
            let q = queries
                .iter()
                .find(|q| q.name.as_deref() == Some(name))
                .expect("executions run workload queries");
            let (strategy, store) = (self.strategy, &mut self.store);
            let lookup = tr.replay("index.lookup", || {
                lookup_query(store, SimTime::ZERO, strategy, ExtractOptions::default(), q)
                    .expect("a fault-free store answers every get")
            });
            t.add("index.lookup.get_ops", lookup.get_ops() as f64);
            t.add(
                "index.lookup.entries_processed",
                lookup.entries_processed() as f64,
            );
            t.add("index.lookup.candidates", lookup.uris.len() as f64);
            let candidates: Vec<&Document> =
                lookup.uris.iter().filter_map(|u| docs.get(u)).collect();
            let (tuples, _) = tr.replay("pattern.eval", || {
                evaluate_query_on_documents(q, candidates.iter().copied())
            });
            t.add("pattern.results", tuples.len() as f64);
            chk.check(expected.get(name) == Some(&rows(&tuples)), || {
                format!("replayed {strategy} look-up misses answers of {name}")
            });
        }
    }
}

fn replay_parse(
    tr: &mut Tracer,
    t: &mut Tally,
    docs: &[(String, String)],
) -> BTreeMap<String, Document> {
    t.add("_parse_bytes", corpus_bytes(docs) as f64);
    tr.replay("xml.parse", || parse_all(docs))
}

/// Whether the measuring window is still open.
struct Window {
    start: Instant,
    seconds: f64,
}

impl Window {
    fn new(seconds: f64) -> Window {
        Window {
            start: Instant::now(),
            seconds,
        }
    }

    fn open(&self, done: usize, min: usize) -> bool {
        done < min || self.start.elapsed().as_secs_f64() < self.seconds
    }
}

/// Per-layer metrics of the traced units: layer self times and tallied
/// counts, as means per traced unit (a unit is one request id).
fn layer_metrics(tr: &Tracer, tally: &Tally, chk: &mut Checker) -> BTreeMap<&'static str, f64> {
    let mut requests: Vec<u64> = tr.spans().iter().map(|s| s.request).collect();
    requests.dedup();
    let n = requests.len().max(1) as f64;
    let mut out: BTreeMap<&'static str, f64> = tally.means();
    for (s, self_s) in tr.spans().iter().zip(tr.self_secs()) {
        let key = match s.name {
            "unit" => {
                *out.entry("bench.e2e_traced_s").or_default() += s.secs() / n;
                "_gap_s"
            }
            name => name,
        };
        *out.entry(key).or_default() += self_s / n;
    }
    let get = |k: &str| out.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let span_keys = [
        ("xmark.gen", "xmark.gen_s"),
        ("core.upload", "core.upload_s"),
        ("core.prewarm", "core.prewarm_s"),
        ("core.build", "core.build_s"),
        ("core.run", "core.run_s"),
        ("bench.check", "bench.check_s"),
        ("bench.calibrate", "bench.calibrate_s"),
        ("xml.parse", "xml.parse_s"),
        ("index.extract", "index.extract_s"),
        ("index.write", "index.write_s"),
        ("index.lookup", "index.lookup_s"),
        ("pattern.eval", "pattern.eval_s"),
    ];
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (span, metric) in span_keys {
        m.insert(metric, get(span));
    }
    m.insert(
        "core.residual_s",
        (get("core.build") - get("index.write"))
            + (get("core.run") - get("index.lookup") - get("pattern.eval"))
            + get("core.provision")
            + get("core.teardown"),
    );
    m.insert(
        "xml.parse_mib_per_s",
        ratio(get("_parse_bytes") / (1024.0 * 1024.0), get("xml.parse")),
    );
    m.insert(
        "index.cache.parse_hit_rate",
        ratio(
            get("_parse_hits"),
            get("_parse_hits") + get("_parse_misses"),
        ),
    );
    m.insert(
        "index.cache.extract_hit_rate",
        ratio(
            get("_extract_hits"),
            get("_extract_hits") + get("_extract_misses"),
        ),
    );
    m.insert(
        "index.precision",
        ratio(get("_docs_with_results"), get("_docs_fetched")),
    );
    for (sum, metric) in [
        ("_lookup_get_s", "core.phase.lookup_get_s"),
        ("_plan_s", "core.phase.plan_s"),
        ("_transfer_eval_s", "core.phase.transfer_eval_s"),
        ("_queue_wait_s", "core.phase.queue_wait_s"),
    ] {
        m.insert(metric, ratio(get(sum), get("_executions")));
    }
    for k in [
        "index.entries",
        "index.items_written",
        "index.lookup.get_ops",
        "index.lookup.entries_processed",
        "index.lookup.candidates",
        "index.retracted_items",
        "pattern.results",
        "cloud.kv.put_units",
        "cloud.kv.get_units",
        "cloud.kv.api_requests",
        "cloud.kv.throttled",
        "cloud.s3.get_requests",
        "cloud.s3.bytes_out",
        "cloud.sqs.requests",
        "cloud.sqs.redelivered",
        "obs.spans",
        "core.openloop.lateness_s",
        "core.openloop.drain_s",
        "bench.e2e_traced_s",
    ] {
        m.insert(k, get(k));
    }
    let e2e = get("bench.e2e_traced_s");
    let gap = ratio(get("_gap_s"), e2e);
    m.insert("bench.reconcile_gap_frac", gap);
    chk.check(gap <= RECONCILE_GAP, || {
        format!(
            "layer spans cover only {:.1}% of the traced host time",
            100.0 * (1.0 - gap)
        )
    });
    m
}

/// Median of a sample (0 for an empty one).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Compares a unit's fingerprint with the run's first.
fn check_deterministic(chk: &mut Checker, first: &mut Option<u64>, fp: u64, what: &str) {
    match first {
        None => *first = Some(fp),
        Some(f) => chk.check(*f == fp, || {
            format!("{what}: virtual outcome differs between units")
        }),
    }
}

/// Adds the trace-overhead metrics: the traced minus the untraced median
/// end-to-end host time of a unit.
fn add_overhead(m: &mut Measured, untraced: &[f64]) {
    let untraced = median(untraced);
    m.layers.insert("bench.e2e_untraced_s", untraced);
    let traced = m.layers.get("bench.e2e_traced_s").copied().unwrap_or(0.0);
    m.layers.insert("bench.trace_overhead_s", traced - untraced);
}

// ---------------------------------------------------------------- ingest

/// One `ingest` unit: generate the corpus, then for each strategy upload
/// it into a fresh warehouse (recorder off), build the index and check
/// the answers of one batch of the ten queries.
#[allow(clippy::too_many_arguments)]
fn ingest_unit(
    cfg: &CorpusConfig,
    queries: &[Query],
    expected: &BTreeMap<String, Rows>,
    tr: &mut Tracer,
    t: &mut Tally,
    chk: &mut Checker,
    request: u64,
) -> UnitOut {
    ExtractCache::shared().clear();
    let cache0 = ExtractCache::shared().stats();
    tr.set_request(request);
    tr.enter("unit");
    let mut u = UnitOut::default();
    let mut fp = Fingerprint::new();
    let (docs, gen_s) = tr.call("xmark.gen", || generate(cfg));
    u.setup_s += gen_s;
    let mut runs = Vec::new();
    for strategy in STRATEGIES {
        let (mut w, provision_s) = tr.call("core.provision", || {
            warehouse(strategy, false, Pool::new(1, InstanceType::Large))
        });
        u.setup_s += provision_s;
        let s0 = w.world().snapshot();
        u.setup_s += tr.call("core.upload", || upload(&mut w, &docs)).1;
        let (report, build_s) = build(tr, &mut w);
        u.built += docs.len() as u64;
        u.build_s += build_s;
        let (run, run_s) = tr.call("core.run", || w.run_workload(queries, 1));
        calibrate(tr);
        u.queries += queries.len() as u64;
        u.run_s += run_s;
        tr.call("bench.check", || {
            check_documents(chk, &report, docs.len());
            check_answers(chk, &run.executions, queries.len(), expected);
            add_build(&mut u.virt, &report);
            u.virt.index_bytes += report.index_raw_bytes + report.index_overhead_bytes;
            u.virt.corpus_bytes += w.corpus_bytes();
            add_run(&mut u.virt, t, &run, &[]);
            add_cloud(t, &s0, &w.world().snapshot());
            t.add("index.retracted_items", report.retracted_items as f64);
            fp.add(&report);
            fp.add(&run);
        });
        runs.push((strategy, run.executions));
        tr.call("core.teardown", || drop(w));
    }
    add_cache(t, cache0, ExtractCache::shared().stats());
    u.e2e_s = tr.exit();
    if tr.is_on() {
        let parsed = replay_parse(tr, t, &docs);
        for (strategy, executions) in &runs {
            let mut replica = Replica::new(*strategy);
            replica.index(tr, t, parsed.values());
            replica.answer(tr, t, chk, queries, &parsed, executions, expected);
        }
    }
    u.fingerprint = fp.0;
    u
}

/// The `ingest` workload.
pub fn ingest(args: &Args, chk: &mut Checker) -> Measured {
    let queries = amada_xmark::workload();
    let cfg = corpus_config(args.seed, INGEST_DOCS);
    let expected = reference(&queries, &parse_all(&generate(&cfg)));
    let mut m = Measured::default();
    let mut tr = Tracer::new(false);
    let mut tally = Tally::default();
    // An untimed first unit at another host thread count warms the process
    // up and gives the outcome every timed unit must reproduce.
    let warm = with_other_thread_count(|| {
        ingest_unit(
            &cfg,
            &queries,
            &expected,
            &mut tr,
            &mut Tally::default(),
            chk,
            0,
        )
    });
    let mut first = Some(warm.fingerprint);
    let mut untraced = Vec::new();
    let window = Window::new(args.seconds);
    let mut units = 0;
    while window.open(units, MIN_UNITS) {
        // A traced run alternates untraced and traced units; the
        // difference is the tracing overhead.
        tr.set_on(args.trace && units % 2 == 1);
        let (mut u, scale) = calibrated(|| {
            ingest_unit(
                &cfg,
                &queries,
                &expected,
                &mut tr,
                &mut tally,
                chk,
                units as u64,
            )
        });
        u.scale = scale;
        if !tr.is_on() {
            untraced.push(u.e2e_s);
            u.record(&mut m);
        }
        tally.commit();
        check_deterministic(chk, &mut first, u.fingerprint, "ingest");
        if units == 0 {
            m.peak_rss_mb = crate::peak_rss_mb();
            m.virt = u.virt;
        }
        units += 1;
    }
    tr.set_on(false);
    if args.trace {
        m.layers = layer_metrics(&tr, &tally, chk);
        add_overhead(&mut m, &untraced);
        m.layers.insert("obs.record_overhead_s", 0.0);
    }
    crate::write_spans(args, &tr);
    m
}

// ----------------------------------------------------------------- query

/// Warehouses built by one `query` set-up, with the driver's replicas of
/// their indexes when the set-up was traced.
struct QueryFleet {
    warehouses: Vec<Warehouse>,
    /// Whether the warehouses record spans.
    record: bool,
    replicas: Vec<Replica>,
    parsed: BTreeMap<String, Document>,
}

/// One `query` set-up: generate the corpus, upload it into a LUP and a
/// 2LUPI warehouse (recorder as given, eight extra-large query
/// processors) and build both indexes.
#[allow(clippy::too_many_arguments)]
fn query_setup(
    cfg: &CorpusConfig,
    seed: u64,
    record: bool,
    tr: &mut Tracer,
    t: &mut Tally,
    chk: &mut Checker,
    request: u64,
) -> (QueryFleet, UnitOut) {
    ExtractCache::shared().clear();
    let cache0 = ExtractCache::shared().stats();
    tr.set_request(request);
    tr.enter("unit");
    let mut u = UnitOut::default();
    let mut fp = Fingerprint::new();
    // The corpus is fixed; the seed picks the order it is uploaded in,
    // which moves which loader indexes which document.
    let (docs, gen_s) = tr.call("xmark.gen", || {
        let mut docs: Vec<_> = generate(cfg).into_iter().enumerate().collect();
        docs.sort_by_key(|(i, _)| mix(seed, *i as u64));
        docs.into_iter().map(|(_, d)| d).collect::<Vec<_>>()
    });
    u.setup_s += gen_s;
    let mut warehouses = Vec::new();
    for strategy in QUERY_STRATEGIES {
        let (mut w, provision_s) = tr.call("core.provision", || {
            warehouse(strategy, record, Pool::new(8, InstanceType::ExtraLarge))
        });
        u.setup_s += provision_s;
        let s0 = w.world().snapshot();
        u.setup_s += tr.call("core.upload", || upload(&mut w, &docs)).1;
        let (report, build_s) = build(tr, &mut w);
        u.setup_s += build_s;
        u.built += docs.len() as u64;
        u.build_s += build_s;
        tr.call("bench.check", || {
            check_documents(chk, &report, docs.len());
            add_build(&mut u.virt, &report);
            u.virt.index_bytes += report.index_raw_bytes + report.index_overhead_bytes;
            u.virt.corpus_bytes += w.corpus_bytes();
            add_cloud(t, &s0, &w.world().snapshot());
            fp.add(&report);
        });
        warehouses.push(w);
    }
    add_cache(t, cache0, ExtractCache::shared().stats());
    u.e2e_s = tr.exit();
    let mut fleet = QueryFleet {
        warehouses,
        record,
        replicas: Vec::new(),
        parsed: BTreeMap::new(),
    };
    if tr.is_on() {
        fleet.parsed = replay_parse(tr, t, &docs);
        for strategy in QUERY_STRATEGIES {
            let mut replica = Replica::new(strategy);
            replica.index(tr, t, fleet.parsed.values());
            fleet.replicas.push(replica);
        }
    }
    u.fingerprint = fp.0;
    (fleet, u)
}

/// Checks an open-loop run against its schedule: each arrival's first
/// span starts at its due time (the generator's lateness, recorded, is
/// zero in virtual time), every arrival left spans, and latencies in the
/// second half of the schedule stay within twice those of the first half
/// plus a second (no growing backlog). Records the lateness and the
/// drain: last completion minus last due time.
fn check_open_loop(
    chk: &mut Checker,
    t: &mut Tally,
    process: &ArrivalProcess,
    queries: &[Query],
    start: SimTime,
    spans: &[Span],
) {
    let mut envelope: BTreeMap<&str, (SimTime, SimTime)> = BTreeMap::new();
    for s in spans {
        if let Some(q) = s.ctx.query.as_deref() {
            let e = envelope.entry(q).or_insert((s.start, s.end));
            e.0 = e.0.min(s.start);
            e.1 = e.1.max(s.end);
        }
    }
    let mut lateness = 0u64;
    let mut last_due = start;
    let mut last_end = start;
    let mut latencies = Vec::new();
    for (seq, (offset, idx)) in process.offsets(queries.len()).into_iter().enumerate() {
        let name = format!("{}#{seq}", queries[idx].name.as_deref().unwrap_or("query"));
        let due = start + offset;
        last_due = due;
        let Some(&(first, end)) = envelope.get(name.as_str()) else {
            chk.check(false, || format!("arrival {name} left no spans"));
            continue;
        };
        chk.check(first >= due, || {
            format!("arrival {name} was sent before it was due")
        });
        lateness = lateness.max(first.0.saturating_sub(due.0));
        last_end = last_end.max(end);
        latencies.push(end.0.saturating_sub(due.0) as f64 / 1e6);
    }
    let half = latencies.len() / 2;
    let (early, late) = (median(&latencies[..half]), median(&latencies[half..]));
    chk.check(late <= 2.0 * early + 1.0, || {
        format!(
            "backlog grows: median latency {early:.3}s in the first half, {late:.3}s in the second"
        )
    });
    t.max("core.openloop.lateness_s", lateness as f64 / 1e6);
    t.max(
        "core.openloop.drain_s",
        last_end.0.saturating_sub(last_due.0) as f64 / 1e6,
    );
}

/// One `query` pass: the same open-loop arrival schedule sent to each
/// index of the fleet, every answer checked.
#[allow(clippy::too_many_arguments)]
fn query_pass(
    fleet: &mut QueryFleet,
    process: &ArrivalProcess,
    queries: &[Query],
    expected: &BTreeMap<String, Rows>,
    tr: &mut Tracer,
    t: &mut Tally,
    chk: &mut Checker,
    request: u64,
) -> UnitOut {
    ExtractCache::shared().clear();
    let cache0 = ExtractCache::shared().stats();
    tr.set_request(request);
    tr.enter("unit");
    let mut u = UnitOut::default();
    let mut fp = Fingerprint::new();
    let mut runs = Vec::new();
    let fleet_record = fleet.record;
    for w in &mut fleet.warehouses {
        let span0 = w.world().obs.span_count();
        let s0 = w.world().snapshot();
        let start = w.now();
        let (run, run_s) = tr.call("core.run", || w.run_workload_open_loop(queries, process));
        calibrate(tr);
        u.queries += process.arrivals as u64;
        u.run_s += run_s;
        tr.call("bench.check", || {
            let spans = w.spans();
            let spans = &spans[span0..];
            check_answers(chk, &run.executions, process.arrivals, expected);
            if fleet_record {
                check_open_loop(chk, t, process, queries, start, spans);
            }
            let lat0 = u.virt.latencies.len();
            add_run(&mut u.virt, t, &run, spans);
            add_cloud(t, &s0, &w.world().snapshot());
            fp.add(&run);
            fp.add(&u.virt.latencies[lat0..]);
        });
        runs.push(run.executions);
    }
    add_cache(t, cache0, ExtractCache::shared().stats());
    u.e2e_s = tr.exit();
    if tr.is_on() {
        for (replica, executions) in fleet.replicas.iter_mut().zip(&runs) {
            replica.answer(tr, t, chk, queries, &fleet.parsed, executions, expected);
        }
    }
    u.fingerprint = fp.0;
    u
}

/// One `query` unit: a set-up, then one pass per arrival schedule over
/// its fleet (a fresh fleet per unit keeps each unit's memory and
/// recorded spans the same).
#[allow(clippy::too_many_arguments)]
fn query_unit(
    cfg: &CorpusConfig,
    seed: u64,
    processes: &[ArrivalProcess],
    queries: &[Query],
    expected: &BTreeMap<String, Rows>,
    tr: &mut Tracer,
    t: &mut Tally,
    chk: &mut Checker,
    unit: u64,
) -> (UnitOut, Vec<UnitOut>) {
    let ((mut fleet, mut setup), scale) =
        calibrated(|| query_setup(cfg, seed, true, tr, t, chk, unit));
    setup.scale = scale;
    let passes = processes
        .iter()
        .map(|process| {
            let (mut u, scale) =
                calibrated(|| query_pass(&mut fleet, process, queries, expected, tr, t, chk, unit));
            u.scale = scale;
            u
        })
        .collect();
    t.commit();
    (setup, passes)
}

/// The `query` workload.
pub fn query(args: &Args, chk: &mut Checker) -> Measured {
    let queries = amada_xmark::workload();
    // The corpus is the same for every seed; the seed varies the arrival
    // schedules and the upload order. A seeded corpus of a few hundred
    // documents moved the candidate documents per query by ~15% and host
    // q/s by up to 30% between seeds, which would swamp the run-to-run
    // comparison this workload is for.
    let cfg = corpus_config(QUERY_CORPUS_SEED, QUERY_DOCS);
    let processes: Vec<ArrivalProcess> = (0..SCHEDULES)
        .map(|k| arrival_process(args.seed, k))
        .collect();
    let expected = reference(&queries, &parse_all(&generate(&cfg)));
    let mut m = Measured::default();
    let mut tr = Tracer::new(false);
    let mut tally = Tally::default();
    let mut first_setup = None;
    let mut first_pass = vec![None; SCHEDULES];
    let mut check = |chk: &mut Checker, setup: &UnitOut, passes: &[UnitOut]| {
        check_deterministic(chk, &mut first_setup, setup.fingerprint, "query set-up");
        for (p, first) in passes.iter().zip(&mut first_pass) {
            check_deterministic(chk, first, p.fingerprint, "query pass");
        }
    };
    // An untimed first unit at another host thread count warms the process
    // up and gives the outcomes every timed unit must reproduce.
    let (setup, passes) = with_other_thread_count(|| {
        query_unit(
            &cfg,
            args.seed,
            &processes,
            &queries,
            &expected,
            &mut tr,
            &mut Tally::default(),
            chk,
            0,
        )
    });
    check(chk, &setup, &passes);
    let (mut untraced_setup, mut untraced_pass, mut untraced_run) =
        (Vec::new(), Vec::new(), Vec::new());
    let window = Window::new(args.seconds);
    let mut units = 0;
    while window.open(units, MIN_UNITS) {
        tr.set_on(args.trace && units % 2 == 1);
        let (setup, passes) = query_unit(
            &cfg,
            args.seed,
            &processes,
            &queries,
            &expected,
            &mut tr,
            &mut tally,
            chk,
            units as u64,
        );
        check(chk, &setup, &passes);
        if !tr.is_on() {
            untraced_setup.push(setup.e2e_s);
            setup.record(&mut m);
            for p in &passes {
                untraced_pass.push(p.e2e_s);
                p.record(&mut m);
            }
            untraced_run.push(passes[0].run_s);
        }
        if units == 0 {
            m.peak_rss_mb = crate::peak_rss_mb();
            m.virt = setup.virt;
            for p in passes {
                m.virt.latencies.extend(p.virt.latencies);
                m.virt.queries += p.virt.queries;
                m.virt.query_cost += p.virt.query_cost;
            }
        }
        units += 1;
    }
    tr.set_on(false);
    if args.trace {
        m.layers = layer_metrics(&tr, &tally, chk);
        let per_unit = median(&untraced_setup) + SCHEDULES as f64 * median(&untraced_pass);
        add_overhead(&mut m, &[per_unit]);
        // The recorder's own overhead: one pass over a fleet with the
        // recorder off.
        let (mut off, _) = query_setup(
            &cfg,
            args.seed,
            false,
            &mut tr,
            &mut Tally::default(),
            chk,
            0,
        );
        let p = query_pass(
            &mut off,
            &processes[0],
            &queries,
            &expected,
            &mut tr,
            &mut Tally::default(),
            chk,
            0,
        );
        m.layers
            .insert("obs.record_overhead_s", median(&untraced_run) - p.run_s);
    }
    crate::write_spans(args, &tr);
    m
}

// ----------------------------------------------------------------- churn

/// One `churn` unit: build a 2LUPI warehouse (recorder as given) over a
/// fresh corpus, then run the maintenance rounds: replace a tenth of the
/// documents, rebuild incrementally, answer the ten queries as a batch.
#[allow(clippy::too_many_arguments)]
fn churn_unit(
    seed: u64,
    cfg: &CorpusConfig,
    queries: &[Query],
    expected: &[BTreeMap<String, Rows>],
    record: bool,
    tr: &mut Tracer,
    t: &mut Tally,
    chk: &mut Checker,
    request: u64,
) -> UnitOut {
    ExtractCache::shared().clear();
    let cache0 = ExtractCache::shared().stats();
    tr.set_request(request);
    tr.enter("unit");
    let mut u = UnitOut::default();
    let mut fp = Fingerprint::new();
    let (docs, gen_s) = tr.call("xmark.gen", || generate(cfg));
    let (mut w, provision_s) = tr.call("core.provision", || {
        warehouse(Strategy::TwoLupi, record, Pool::new(1, InstanceType::Large))
    });
    let s0 = w.world().snapshot();
    let upload_s = tr.call("core.upload", || upload(&mut w, &docs)).1;
    let (report, build_s) = build(tr, &mut w);
    u.setup_s = gen_s + provision_s + upload_s + build_s;
    tr.call("bench.check", || {
        check_documents(chk, &report, docs.len());
        fp.add(&report);
    });
    let mut rounds = Vec::new();
    for (r, expected) in expected.iter().enumerate() {
        let (versions, _) = tr.call("xmark.gen", || churn_versions(seed, r));
        tr.call("core.upload", || upload(&mut w, &versions));
        let (report, build_s) = build(tr, &mut w);
        u.built += versions.len() as u64;
        u.build_s += build_s;
        let span0 = w.world().obs.span_count();
        let (run, run_s) = tr.call("core.run", || w.run_workload(queries, 1));
        calibrate(tr);
        u.queries += queries.len() as u64;
        u.run_s += run_s;
        tr.call("bench.check", || {
            check_documents(chk, &report, versions.len());
            check_answers(chk, &run.executions, queries.len(), expected);
            add_build(&mut u.virt, &report);
            t.add("index.retracted_items", report.retracted_items as f64);
            add_run(&mut u.virt, t, &run, &w.spans()[span0..]);
            fp.add(&report);
            fp.add(&run);
        });
        rounds.push((versions, run.executions));
    }
    tr.call("bench.check", || {
        let s = w.world().snapshot();
        u.virt.index_bytes = s.kv.raw_bytes + s.kv.overhead_bytes;
        u.virt.corpus_bytes = w.corpus_bytes();
        add_cloud(t, &s0, &s);
        fp.add(&u.virt);
    });
    tr.call("core.teardown", || drop(w));
    add_cache(t, cache0, ExtractCache::shared().stats());
    u.e2e_s = tr.exit();
    if tr.is_on() {
        let mut parsed = replay_parse(tr, t, &docs);
        let mut replica = Replica::new(Strategy::TwoLupi);
        replica.index(tr, t, parsed.values());
        for ((versions, executions), expected) in rounds.iter().zip(expected) {
            let fresh = replay_parse(tr, t, versions);
            replica.index(tr, t, fresh.values());
            parsed.extend(fresh);
            replica.answer(tr, t, chk, queries, &parsed, executions, expected);
        }
    }
    u.fingerprint = fp.0;
    u
}

/// The `churn` workload.
pub fn churn(args: &Args, chk: &mut Checker) -> Measured {
    let queries = amada_xmark::workload();
    let cfg = corpus_config(args.seed, CHURN_DOCS);
    // The no-index reference after each round, from the driver's own
    // parse of the corpus as it then stands.
    let mut corpus = parse_all(&generate(&cfg));
    let expected: Vec<BTreeMap<String, Rows>> = (0..CHURN_ROUNDS)
        .map(|r| {
            corpus.extend(parse_all(&churn_versions(args.seed, r)));
            reference(&queries, &corpus)
        })
        .collect();
    drop(corpus);
    let mut m = Measured::default();
    let mut tr = Tracer::new(false);
    let mut tally = Tally::default();
    // An untimed first unit at another host thread count warms the process
    // up and gives the outcome every timed unit must reproduce.
    let warm = with_other_thread_count(|| {
        let t = &mut Tally::default();
        churn_unit(
            args.seed, &cfg, &queries, &expected, true, &mut tr, t, chk, 0,
        )
    });
    let mut first = Some(warm.fingerprint);
    let (mut untraced, mut untraced_run) = (Vec::new(), Vec::new());
    let window = Window::new(args.seconds);
    let mut units = 0;
    while window.open(units, MIN_UNITS) {
        tr.set_on(args.trace && units % 2 == 1);
        let (mut u, scale) = calibrated(|| {
            churn_unit(
                args.seed,
                &cfg,
                &queries,
                &expected,
                true,
                &mut tr,
                &mut tally,
                chk,
                units as u64,
            )
        });
        u.scale = scale;
        if !tr.is_on() {
            untraced.push(u.e2e_s);
            untraced_run.push(u.run_s);
            u.record(&mut m);
        }
        tally.commit();
        check_deterministic(chk, &mut first, u.fingerprint, "churn");
        if units == 0 {
            m.peak_rss_mb = crate::peak_rss_mb();
            m.virt = u.virt;
        }
        units += 1;
    }
    tr.set_on(false);
    if args.trace {
        m.layers = layer_metrics(&tr, &tally, chk);
        add_overhead(&mut m, &untraced);
        // The recorder's own overhead: one unit with the recorder off.
        let off = churn_unit(
            args.seed,
            &cfg,
            &queries,
            &expected,
            false,
            &mut tr,
            &mut Tally::default(),
            chk,
            0,
        );
        m.layers
            .insert("obs.record_overhead_s", median(&untraced_run) - off.run_s);
    }
    crate::write_spans(args, &tr);
    m
}
