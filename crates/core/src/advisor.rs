//! The index advisor — the paper's stated future work ("the development of
//! a platform and index advisor tool, which based on the expected dataset
//! and workload, estimates an application's performance and cost and picks
//! the best indexing strategy to use", Section 9).
//!
//! The advisor runs each candidate strategy over a *representative sample*
//! of the dataset and the expected workload inside the simulated cloud,
//! measures build cost, monthly storage and per-run query cost, and ranks
//! strategies by projected total cost of ownership over the expected
//! usage horizon. Because everything below it is deterministic, the
//! advice is reproducible.

use crate::config::WarehouseConfig;
use crate::warehouse::Warehouse;
use amada_cloud::Money;
use amada_index::{ExtractOptions, MixedPlan, PathSummary, Strategy, StrategyHint};
use amada_pattern::Query;
use amada_xml::Document;

/// Cost projection for one candidate deployment.
#[derive(Debug, Clone)]
pub struct StrategyEstimate {
    /// The indexing strategy, or `None` for the "index nothing" candidate
    /// (every query scans the whole corpus; no build, no index storage).
    pub strategy: Option<Strategy>,
    /// Cost of building the index over the sample (`ci$`; zero for
    /// `None`).
    pub build_cost: Money,
    /// Monthly storage charge for data + index.
    pub storage_per_month: Money,
    /// Cost of one workload run.
    pub run_cost: Money,
    /// Index maintenance billed per workload run at the declared churn
    /// rate: the incremental rebuild — stale-entry retraction plus
    /// re-indexing of the replaced documents — measured on the sample.
    /// Zero for the no-index candidate (replaced documents just overwrite
    /// their S3 objects) and for a churn-free horizon.
    pub maintenance_per_run: Money,
    /// Mean workload response time (seconds).
    pub mean_response_secs: f64,
    /// Projected total over the horizon:
    /// `build + runs × (run_cost + maintenance) + months × storage`.
    pub projected_total: Money,
}

/// The advisor's output: estimates for every candidate, best first.
#[derive(Debug, Clone)]
pub struct Advice {
    /// Ranked estimates (ascending projected total), including the
    /// no-index candidate — for a cold workload (few expected runs over a
    /// small corpus) *not* building an index is the honest
    /// recommendation, so it competes in the same ranking.
    pub ranked: Vec<StrategyEstimate>,
    /// The no-index baseline projection over the same horizon (the
    /// `strategy: None` entry's projected total).
    pub no_index_total: Money,
}

impl Advice {
    /// The cheapest candidate over the horizon.
    pub fn best(&self) -> &StrategyEstimate {
        &self.ranked[0]
    }

    /// Whether indexing at all beats scanning over the horizon.
    pub fn indexing_pays_off(&self) -> bool {
        self.best().strategy.is_some()
    }
}

/// Runs the advisor.
///
/// * `sample` — a representative document sample `(uri, xml)`;
/// * `workload` — the expected queries;
/// * `expected_runs` — how many times the workload will run over the
///   horizon;
/// * `months` — the storage horizon in months;
/// * `base` — deployment parameters (pools, prices, backend).
pub fn advise(
    sample: &[(String, String)],
    workload: &[Query],
    expected_runs: u32,
    months: f64,
    base: &WarehouseConfig,
) -> Advice {
    advise_churn(sample, workload, expected_runs, months, 0.0, base)
}

/// Runs the advisor for a churning corpus.
///
/// Like [`advise`], but each workload run is accompanied by a document
/// churn round replacing `churn_per_run` of the corpus (a fraction in
/// `0.0..=1.0`). The indexed candidates then pay a measured maintenance
/// charge per run — the incremental rebuild that retracts the replaced
/// documents' stale entries and indexes the new versions — while the
/// no-index candidate churns for free (new versions simply overwrite
/// their S3 objects, which both sides pay for anyway). At high churn
/// rates maintenance eats the query savings and the "index nothing"
/// candidate flips to best.
pub fn advise_churn(
    sample: &[(String, String)],
    workload: &[Query],
    expected_runs: u32,
    months: f64,
    churn_per_run: f64,
    base: &WarehouseConfig,
) -> Advice {
    // The four paper strategies, the pushdown variant, and the "index
    // nothing" baseline all compete in one ranking.
    let candidates = Strategy::ALL
        .iter()
        .copied()
        .chain([Strategy::LupPd])
        .map(Some)
        .chain([None]);
    let mut estimates = Vec::new();
    let mut no_index_total = Money::ZERO;
    for strategy in candidates {
        // The "index nothing" candidate is the empty plan.
        let mut w = Warehouse::new(WarehouseConfig {
            plan: MixedPlan::uniform(strategy),
            ..base.clone()
        });
        w.upload_documents(sample.iter().map(|(u, x)| (u.clone(), x.clone())));
        let (build_cost, storage) = match strategy {
            Some(_) => (w.build_index().cost.total(), w.storage_cost().total()),
            // No index is ever built: queries scan the corpus, and the
            // only storage billed is the file store itself.
            None => (Money::ZERO, w.storage_cost().file_store),
        };
        let mut run_cost = Money::ZERO;
        let mut response = 0.0;
        for q in workload {
            let r = w.run_query(q);
            run_cost += r.cost.total();
            response += r.exec.response_time.as_secs_f64();
        }
        let maintenance = match strategy {
            Some(_) if churn_per_run > 0.0 => measure_maintenance(&mut w, sample, churn_per_run),
            _ => Money::ZERO,
        };
        let projected = build_cost
            + (run_cost + maintenance) * expected_runs as u64
            + months_scaled(storage, months);
        if strategy.is_none() {
            no_index_total = projected;
        }
        estimates.push(StrategyEstimate {
            strategy,
            build_cost,
            storage_per_month: storage,
            run_cost,
            maintenance_per_run: maintenance,
            mean_response_secs: response / workload.len().max(1) as f64,
            projected_total: projected,
        });
    }
    rank_estimates(&mut estimates);
    Advice {
        ranked: estimates,
        no_index_total,
    }
}

/// The documented tie-break position of a candidate: the paper's
/// presentation order LU, LUP, LUI, 2LUPI, then the pushdown variant,
/// then the no-index candidate last.
pub(crate) fn candidate_ordinal(strategy: Option<Strategy>) -> u8 {
    match strategy {
        Some(Strategy::Lu) => 0,
        Some(Strategy::Lup) => 1,
        Some(Strategy::Lui) => 2,
        Some(Strategy::TwoLupi) => 3,
        Some(Strategy::LupPd) => 4,
        None => 5,
    }
}

/// Ranks candidate estimates: ascending projected total, equal totals in
/// the documented candidate order ([`candidate_ordinal`]). The key is a
/// pair of deterministic integers, so the ranking is identical across
/// runs and host thread counts regardless of enumeration order.
pub(crate) fn rank_estimates(estimates: &mut [StrategyEstimate]) {
    estimates.sort_by_key(|e| (e.projected_total, candidate_ordinal(e.strategy)));
}

/// One churn round on the sample warehouse: replace `fraction` of the
/// documents with edited versions and rebuild incrementally. Returns the
/// rebuild's bill alone — retraction deletes, re-indexing writes, loader
/// instance time and document fetches — excluding the S3 upload of the
/// new versions, which an unindexed deployment pays identically.
fn measure_maintenance(w: &mut Warehouse, sample: &[(String, String)], fraction: f64) -> Money {
    let k = ((sample.len() as f64 * fraction).ceil() as usize).clamp(1, sample.len());
    w.upload_documents(sample.iter().take(k).map(|(u, x)| (u.clone(), churned(x))));
    w.build_index().cost.total()
}

/// A deterministic edit standing in for a real update: one appended
/// subtree just inside the document element. The loader re-extracts and
/// rewrites the whole document either way, so the edit's size barely
/// moves the maintenance bill — its *presence* (new version, new entry
/// UUIDs, stale old entries) is what is being priced.
fn churned(xml: &str) -> String {
    match xml.rfind("</") {
        Some(at) => format!(
            "{}<updated><rev>1</rev></updated>{}",
            &xml[..at],
            &xml[at..]
        ),
        None => format!("<updated>{xml}</updated>"),
    }
}

/// Scales a monthly charge to a fractional-month horizon exactly: the
/// horizon resolves to micro-months and applies with round-half-up
/// integer scaling ([`Money::scaled`]), so a horizon billed in N slices
/// sums within a pico per slice of the aggregate. (Scaling through an
/// `f64` cast truncated and drifted above ~2⁵³ pico — ~$9k/month.)
pub(crate) fn months_scaled(per_month: Money, months: f64) -> Money {
    assert!(
        months >= 0.0 && months.is_finite(),
        "months must be non-negative: {months}"
    );
    per_month.scaled((months * 1e6).round() as u64, 1_000_000)
}

/// A sample document the advisor could not use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdviseError {
    /// URI of the offending sample document.
    pub uri: String,
    /// The parse failure, rendered.
    pub error: String,
}

impl std::fmt::Display for AdviseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sample document {} does not parse: {}",
            self.uri, self.error
        )
    }
}

impl std::error::Error for AdviseError {}

/// Per-query structural hints from a DataGuide summary of the sample —
/// the paper's Section 8.5 criterion for when the ID-granularity
/// strategies (LUI / 2LUPI) should beat the path-granularity ones.
///
/// Unlike [`advise`] (which simulates whole deployments), this is purely
/// static: it parses the sample once, builds the summary, and scores each
/// query — the cheap analysis a front end could run per incoming query.
///
/// An unparseable sample document fails the request with a typed
/// [`AdviseError`] naming the document, instead of killing the caller.
pub fn advise_queries(
    sample: &[(String, String)],
    workload: &[Query],
) -> Result<Vec<(String, Vec<StrategyHint>)>, AdviseError> {
    let docs: Vec<Document> = sample
        .iter()
        .map(|(u, x)| {
            Document::parse_str(u.clone(), x).map_err(|e| AdviseError {
                uri: u.clone(),
                error: format!("{e:?}"),
            })
        })
        .collect::<Result<_, _>>()?;
    let summary = PathSummary::build(docs.iter());
    Ok(workload
        .iter()
        .map(|q| {
            let name = q.name.clone().unwrap_or_default();
            let hints = q
                .patterns
                .iter()
                .map(|p| summary.recommend(p, ExtractOptions::default()))
                .collect();
            (name, hints)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use amada_xmark::{generate_corpus, workload_query, CorpusConfig};

    fn sample() -> Vec<(String, String)> {
        let cfg = CorpusConfig {
            num_documents: 25,
            target_doc_bytes: 1200,
            ..Default::default()
        };
        generate_corpus(&cfg)
            .into_iter()
            .map(|d| (d.uri, d.xml))
            .collect()
    }

    #[test]
    fn advisor_ranks_all_strategies() {
        let workload: Vec<Query> = ["q1", "q6"]
            .iter()
            .map(|n| workload_query(n).unwrap())
            .collect();
        let advice = advise(&sample(), &workload, 500, 1.0, &WarehouseConfig::default());
        // Four paper strategies + LUP-PD + the no-index candidate.
        assert_eq!(advice.ranked.len(), 6);
        assert_eq!(
            advice
                .ranked
                .iter()
                .filter(|e| e.strategy.is_none())
                .count(),
            1
        );
        // Ranking is ascending in projected total.
        for w in advice.ranked.windows(2) {
            assert!(w[0].projected_total <= w[1].projected_total);
        }
        // Over enough runs, indexing must beat scanning (the sample corpus
        // is tiny, so break-even needs many more runs than at real scale).
        assert!(advice.indexing_pays_off());
        // The baseline field mirrors the None entry.
        let none = advice.ranked.iter().find(|e| e.strategy.is_none()).unwrap();
        assert_eq!(none.projected_total, advice.no_index_total);
        assert_eq!(none.build_cost, Money::ZERO);
    }

    #[test]
    fn cold_workloads_are_advised_not_to_index() {
        // One expected run over a tiny corpus: the build cost can never be
        // amortized, so the honest recommendation is "index nothing".
        // (This candidate used to be absent from the ranking, so `best()`
        // recommended building an index that could not pay for itself.)
        let workload = vec![workload_query("q1").unwrap()];
        let advice = advise(&sample(), &workload, 1, 1.0, &WarehouseConfig::default());
        assert!(advice.best().strategy.is_none(), "{:?}", advice.best());
        assert!(!advice.indexing_pays_off());
    }

    #[test]
    fn heavy_churn_flips_the_advice_to_index_nothing() {
        let workload: Vec<Query> = ["q1", "q6"]
            .iter()
            .map(|n| workload_query(n).unwrap())
            .collect();
        let base = WarehouseConfig::default();
        // Enough runs that indexing pays on a static corpus...
        let calm = advise_churn(&sample(), &workload, 500, 1.0, 0.0, &base);
        assert!(calm.indexing_pays_off());
        // ...but with the whole corpus replaced between runs, every run's
        // savings are spent re-indexing, and scanning wins the horizon.
        let stormy = advise_churn(&sample(), &workload, 500, 1.0, 1.0, &base);
        assert!(!stormy.indexing_pays_off(), "{:?}", stormy.best());
        // Maintenance is billed to indexed candidates only, and a calm
        // horizon charges none at all.
        for e in &stormy.ranked {
            assert_eq!(e.maintenance_per_run > Money::ZERO, e.strategy.is_some());
        }
        for e in &calm.ranked {
            assert_eq!(e.maintenance_per_run, Money::ZERO);
        }
    }

    #[test]
    fn per_query_hints_cover_the_workload() {
        let workload = amada_xmark::workload();
        let hints = advise_queries(&sample(), &workload).unwrap();
        assert_eq!(hints.len(), 10);
        // Every pattern of every query received a hint with a sane
        // selectivity estimate.
        for (name, pattern_hints) in &hints {
            assert!(!pattern_hints.is_empty(), "{name}");
            for h in pattern_hints {
                assert!(h.estimated_selectivity >= 0.0 && h.estimated_selectivity <= 1.0);
                assert!(h.branches >= 1);
            }
        }
        // q1 is a two-branch point query: its estimate must be far more
        // selective than the linear bulk of the corpus.
        let q1 = &hints[0].1[0];
        assert!(q1.estimated_selectivity < 0.1, "{q1:?}");
    }

    #[test]
    fn malformed_sample_reports_a_typed_error_instead_of_panicking() {
        let mut docs = sample();
        docs.insert(1, ("broken.xml".into(), "<open><unclosed>".into()));
        let workload = vec![workload_query("q1").unwrap()];
        let err = advise_queries(&docs, &workload).unwrap_err();
        assert_eq!(err.uri, "broken.xml");
        assert!(!err.error.is_empty());
        assert!(err.to_string().contains("broken.xml"), "{err}");
        // A clean sample still succeeds.
        assert!(advise_queries(&sample(), &workload).is_ok());
    }

    #[test]
    fn months_scaling_is_exact_above_f64_precision() {
        // ~$9k/month storage crosses 2^53 pico, where the old f64 cast
        // truncated low bits.
        let storage = Money::from_pico((1u128 << 53) + 7);
        assert_eq!(months_scaled(storage, 1.0), storage);
        // Twelve monthly charges equal one annual charge exactly.
        assert_eq!(months_scaled(storage, 12.0), storage * 12);
        // Property: a horizon billed in N fractional-month slices sums
        // within 1 pico per slice of the aggregate charge (slices that
        // micro-months represent exactly; round-half-up bounds each
        // slice's rounding error by half a pico).
        for n in [2u64, 4, 5, 8, 10, 16, 1000] {
            let slice = months_scaled(storage, 1.0 / n as f64);
            let drift = (slice * n).signed_diff(storage).unsigned_abs();
            assert!(drift <= n as u128, "{n} slices drift {drift} pico");
        }
    }

    #[test]
    fn equal_totals_rank_in_documented_order_across_threads() {
        let estimate = |strategy: Option<Strategy>, total: u128| StrategyEstimate {
            strategy,
            build_cost: Money::ZERO,
            storage_per_month: Money::ZERO,
            run_cost: Money::ZERO,
            maintenance_per_run: Money::ZERO,
            mean_response_secs: 0.0,
            projected_total: Money::from_pico(total),
        };
        // All six candidates tie; enumeration order is scrambled.
        let scrambled: Vec<StrategyEstimate> = [
            None,
            Some(Strategy::LupPd),
            Some(Strategy::Lui),
            Some(Strategy::Lu),
            Some(Strategy::TwoLupi),
            Some(Strategy::Lup),
        ]
        .into_iter()
        .map(|s| estimate(s, 42))
        .collect();
        let expect = [
            Some(Strategy::Lu),
            Some(Strategy::Lup),
            Some(Strategy::Lui),
            Some(Strategy::TwoLupi),
            Some(Strategy::LupPd),
            None,
        ];
        // The same ranking must come back on every run and from every
        // host thread (the same bar as the sharding identity tests).
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let mut est = scrambled.clone();
                std::thread::spawn(move || {
                    rank_estimates(&mut est);
                    est.iter().map(|e| e.strategy).collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), expect);
        }
        // A cheaper total still outranks the documented order.
        let mut est = scrambled;
        est.push(estimate(Some(Strategy::TwoLupi), 7));
        rank_estimates(&mut est);
        assert_eq!(est[0].strategy, Some(Strategy::TwoLupi));
        assert_eq!(est[0].projected_total, Money::from_pico(7));
    }

    #[test]
    fn heavier_indexes_cost_more_to_build() {
        let workload = vec![workload_query("q2").unwrap()];
        let advice = advise(&sample(), &workload, 10, 1.0, &WarehouseConfig::default());
        let by = |s: Strategy| {
            advice
                .ranked
                .iter()
                .find(|e| e.strategy == Some(s))
                .unwrap()
                .build_cost
        };
        assert!(by(Strategy::Lu) < by(Strategy::Lup));
        assert!(by(Strategy::Lup) < by(Strategy::TwoLupi));
    }
}
