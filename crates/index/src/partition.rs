//! Per-partition strategy routing — the one routing type of the
//! warehouse.
//!
//! The paper picks *one* of LU/LUP/LUI/2LUPI for the whole corpus.
//! Production workloads are heterogeneous: a hot, selectively-queried
//! partition wants the ID-granularity index, a cold scan-heavy partition
//! wants the cheapest path index — or no index at all. A [`MixedPlan`]
//! assigns *partitions* (the URI's directory prefix) their own strategy,
//! or `None` for "index nothing, scan"; every partition the plan does not
//! name takes the plan's default route. The paper's layouts are the
//! uniform plans ([`MixedPlan::uniform`]), and the no-index baseline is
//! the empty plan `MixedPlan::uniform(None)`.
//!
//! Physically, each *named* partition owns its own tables —
//! `amada-index@hot`, `amada-index-path@hot`, … — derived from the global
//! table constants by [`partition_table`]; the default route keeps the
//! global tables (its home is the root partition, see
//! [`MixedPlan::home_of`]), so a uniform plan is the paper's
//! single-strategy layout whatever the URIs look like. Separate tables
//! are not an implementation convenience: LU, LUP and LUI all write the
//! *same* main table with incompatible payload encodings, so two
//! partitions on different single-table strategies must not share it;
//! and per-table stats give per-partition storage accounting for free.
//! Table names stay `&'static str` (the type every store API and
//! [`crate::ItemKey`] use) via a process-wide interner.
//!
//! Look-ups union per-home look-ups: each indexed home answers with its
//! own strategy against its own tables, and every document routed to an
//! unindexed home is a candidate (the no-index scan, scoped to those
//! documents). [`lookup_mixed`] returns the same [`QueryLookup`] shape as
//! the single-strategy [`crate::lookup_query`], so everything downstream
//! (fetch, evaluate, join, bill) is shared.
//!
//! LUP-PD is a *fetch* choice (storage-side scans instead of GETs), made
//! per query core, not an index layout: only the uniform LUP-PD plan
//! carries it, and no partition can be assigned it.

use crate::loadutil::{write_entries, DocIndexing};
use crate::lookup::{lookup_pattern_in, LookupOutcome, QueryLookup, StrategyTables};
use crate::strategy::{
    extract, ExtractOptions, IndexEntry, Strategy, TABLE_ID, TABLE_MAIN, TABLE_PATH,
};
use amada_cloud::{KvError, KvStore, SimTime};
use amada_pattern::Query;
use amada_xml::Document;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Mutex, OnceLock};

/// The partition a document belongs to: its URI's directory prefix
/// (`hot/doc3.xml` → `hot`), or the root partition `""` for a bare name.
/// Deterministic and derivable from the URI alone, so the loader, the
/// query processor and host-side retraction replay all agree without
/// consulting any shared state.
pub fn partition_of(uri: &str) -> &str {
    uri.split_once('/').map_or("", |(p, _)| p)
}

/// Interns a table name, returning the `&'static str` every store API
/// expects. Idempotent: the same name always returns the same pointer.
fn interned(name: String) -> &'static str {
    static POOL: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let mut pool = POOL
        .get_or_init(|| Mutex::new(BTreeSet::new()))
        .lock()
        .expect("table interner poisoned");
    if let Some(&s) = pool.get(name.as_str()) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.into_boxed_str());
    pool.insert(leaked);
    leaked
}

/// The partition-local variant of a global table: `amada-index@hot` for
/// (`amada-index`, `hot`). The root partition keeps the global name.
pub fn partition_table(base: &'static str, partition: &str) -> &'static str {
    if partition.is_empty() {
        base
    } else {
        interned(format!("{base}@{partition}"))
    }
}

/// The look-up tables of one `(strategy, partition)` pair.
pub fn partition_lookup_tables(partition: &str) -> StrategyTables {
    StrategyTables {
        main: partition_table(TABLE_MAIN, partition),
        path: partition_table(TABLE_PATH, partition),
        id: partition_table(TABLE_ID, partition),
    }
}

/// The physical tables `strategy` stores a partition's entries in, in the
/// strategy's own table order.
pub fn partition_tables(strategy: Strategy, partition: &str) -> Vec<&'static str> {
    strategy
        .tables()
        .iter()
        .map(|t| partition_table(t, partition))
        .collect()
}

/// Freshly-extracted entries redirected into their home partition's
/// tables. The root partition's entries already name the global tables,
/// so they are borrowed, never copied.
pub fn retarget_entries<'a>(entries: &'a [IndexEntry], home: &str) -> Cow<'a, [IndexEntry]> {
    if home.is_empty() {
        return Cow::Borrowed(entries);
    }
    let mut routed = entries.to_vec();
    for e in &mut routed {
        e.table = partition_table(e.table, home);
    }
    Cow::Owned(routed)
}

/// A per-partition strategy assignment: named partitions map to a
/// strategy or to `None` ("index nothing, scan") and own their tables;
/// every other partition takes the plan's default route into the global
/// tables. The root partition *is* the default route: naming it sets the
/// default.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixedPlan {
    assignments: BTreeMap<String, Option<Strategy>>,
    default: Option<Strategy>,
}

impl MixedPlan {
    /// A plan whose every partition uses `default` — the paper's layout
    /// for `Some(strategy)`, the no-index baseline for `None`.
    pub fn uniform(default: Option<Strategy>) -> MixedPlan {
        MixedPlan {
            assignments: BTreeMap::new(),
            default,
        }
    }

    /// Assigns a partition its strategy (builder form).
    pub fn with(mut self, partition: &str, strategy: Option<Strategy>) -> MixedPlan {
        self.assign(partition, strategy);
        self
    }

    /// Assigns a partition its strategy; the root partition `""` sets the
    /// default route.
    pub fn assign(&mut self, partition: &str, strategy: Option<Strategy>) {
        assert!(
            strategy != Some(Strategy::LupPd) && !self.pushdown(),
            "LUP-PD is a per-query-core fetch strategy, not routable per partition"
        );
        if partition.is_empty() {
            self.default = strategy;
        } else {
            self.assignments.insert(partition.to_string(), strategy);
        }
    }

    /// The strategy of a partition.
    pub fn strategy_of(&self, partition: &str) -> Option<Strategy> {
        self.assignments
            .get(partition)
            .copied()
            .unwrap_or(self.default)
    }

    /// The strategy routing a document.
    pub fn strategy_for_uri(&self, uri: &str) -> Option<Strategy> {
        self.strategy_of(partition_of(uri))
    }

    /// The partition whose tables hold a partition's entries: itself
    /// when the plan names it, the root partition (the global tables) for
    /// the default route.
    pub fn home<'a>(&self, partition: &'a str) -> &'a str {
        if self.assignments.contains_key(partition) {
            partition
        } else {
            ""
        }
    }

    /// The home partition of a document (see [`MixedPlan::home`]).
    pub fn home_of<'a>(&self, uri: &'a str) -> &'a str {
        self.home(partition_of(uri))
    }

    /// Where a document's entries live: its strategy and home partition,
    /// or `None` when its route indexes nothing.
    pub fn route<'a>(&self, uri: &'a str) -> Option<(Strategy, &'a str)> {
        let home = self.home_of(uri);
        self.strategy_of(home).map(|s| (s, home))
    }

    /// The default strategy of unnamed partitions.
    pub fn default_strategy(&self) -> Option<Strategy> {
        self.default
    }

    /// The named partition assignments, in partition order.
    pub fn assignments(&self) -> &BTreeMap<String, Option<Strategy>> {
        &self.assignments
    }

    /// Whether every route — named partitions and the default — carries
    /// an index. A fully indexed plan can never send a query to the scan
    /// path, so look-ups need no corpus listing to scope scan partitions.
    pub fn fully_indexed(&self) -> bool {
        self.default.is_some() && self.assignments.values().all(Option::is_some)
    }

    /// Whether any route carries an index; the empty plan's queries skip
    /// the look-up phase and scan the corpus.
    pub fn indexes_anything(&self) -> bool {
        self.default.is_some() || self.assignments.values().any(Option::is_some)
    }

    /// Whether queries fetch candidates by storage-side scans: exactly
    /// when the plan is the uniform LUP-PD plan.
    pub fn pushdown(&self) -> bool {
        self.default == Some(Strategy::LupPd)
    }

    /// The distinct strategies any partition indexes with (for cache
    /// prewarming).
    pub fn indexed_strategies(&self) -> Vec<Strategy> {
        let set: BTreeSet<&'static str> = self
            .assignments
            .values()
            .copied()
            .chain([self.default])
            .flatten()
            .map(Strategy::name)
            .collect();
        let mut out: Vec<Strategy> = set.into_iter().filter_map(Strategy::parse).collect();
        out.sort_by_key(|s| s.name());
        out
    }

    /// Every table the plan's routes store entries in.
    pub fn known_tables(&self) -> Vec<&'static str> {
        let mut out: BTreeSet<&'static str> = BTreeSet::new();
        for (partition, strategy) in &self.assignments {
            if let Some(s) = strategy {
                out.extend(partition_tables(*s, partition));
            }
        }
        if let Some(s) = self.default {
            out.extend(s.tables().iter().copied());
        }
        out.into_iter().collect()
    }
}

/// Indexes a document set under a plan, sequentially (host-side
/// convenience for the estimator, oracles and tests; the warehouse's
/// loader pool routes per document the same way). Documents on an
/// unindexed route contribute nothing to the store.
pub fn index_documents_mixed(
    store: &mut dyn KvStore,
    docs: &[Document],
    plan: &MixedPlan,
    opts: ExtractOptions,
) -> DocIndexing {
    let mut total = DocIndexing::default();
    let mut t = SimTime::ZERO;
    for d in docs {
        let Some((strategy, home)) = plan.route(d.uri()) else {
            continue;
        };
        let extracted = extract(d, strategy, opts);
        let entries = retarget_entries(&extracted, home);
        let (m, ready) =
            write_entries(store, t, &entries, d.uri()).expect("mixed indexing must succeed");
        t = ready;
        total.entries += m.entries;
        total.items += m.items;
        total.entry_bytes += m.entry_bytes;
        total.batches += m.batches;
    }
    total
}

/// Looks up a full query under a plan: each indexed home partition
/// answers with its own strategy against its own tables. Homes are
/// independent tables, so their look-ups for one pattern are issued
/// *concurrently* in virtual time — each starts at the pattern's start
/// time and the pattern completes when the slowest home responds
/// (round-trip latencies overlap; only the per-request service overheads
/// serialise through the shared front door). Patterns chain on one
/// another like the per-pattern chain of [`crate::lookup_query`]; under a
/// uniform plan the one home is the root partition and the look-up issues
/// exactly that chain's requests. Every document on an unindexed route
/// is a candidate for every pattern — the no-index scan scoped to those
/// documents.
///
/// `corpus_uris` is the document listing; it determines which documents
/// the scan routes contribute. `catalog` names the partitions the front
/// end knows exist without consulting the listing — the warehouse's own
/// upload records, free host-side metadata like the plan itself. A fully
/// indexed plan never needs the per-document listing, so its caller can
/// pass an empty `corpus_uris` (skipping the billed LIST) as long as the
/// catalog covers every partition that holds documents; a plan with scan
/// routes still needs the listing to enumerate their documents. With
/// neither, the root partition is looked up, as the paper's layout does.
pub fn lookup_mixed(
    store: &mut dyn KvStore,
    now: SimTime,
    plan: &MixedPlan,
    opts: ExtractOptions,
    query: &Query,
    corpus_uris: &[String],
    catalog: &BTreeSet<String>,
) -> Result<QueryLookup, KvError> {
    // Group the corpus listing by home once; catalog partitions exist
    // even when the listing (or their slice of it) is empty.
    let mut by_home: BTreeMap<&str, Vec<&String>> = BTreeMap::new();
    for partition in catalog {
        by_home.entry(plan.home(partition)).or_default();
    }
    for uri in corpus_uris {
        by_home.entry(plan.home_of(uri)).or_default().push(uri);
    }
    if by_home.is_empty() {
        by_home.insert("", Vec::new());
    }
    let mut indexed: Vec<(&str, Strategy)> = Vec::new();
    let mut scanned: BTreeSet<String> = BTreeSet::new();
    for (&home, uris) in &by_home {
        match plan.strategy_of(home) {
            Some(s) => {
                // The home's tables may be empty (nothing indexed yet)
                // but must exist for the look-up to run.
                for t in partition_tables(s, home) {
                    store.ensure_table(t);
                }
                indexed.push((home, s));
            }
            None => scanned.extend(uris.iter().map(|u| (*u).clone())),
        }
    }

    let mut per_pattern = Vec::with_capacity(query.patterns.len());
    // Only document IDs the index returns count (Table 5); scan
    // candidates are not look-up output.
    let mut from_index = 0;
    let mut t = now;
    for p in &query.patterns {
        let mut uris: BTreeSet<String> = scanned.clone();
        let mut merged = LookupOutcome::default();
        // Fan out: every home's look-up is issued at the pattern's start
        // time; the pattern is ready when the slowest responds.
        let mut ready = t;
        for &(home, strategy) in &indexed {
            let tables = partition_lookup_tables(home);
            let outcome = lookup_pattern_in(store, t, strategy, opts, p, tables)?;
            ready = ready.max(outcome.ready_at);
            merged.entries_processed += outcome.entries_processed;
            merged.get_ops += outcome.get_ops;
            from_index += outcome.uris.len();
            uris.extend(outcome.uris);
        }
        t = ready;
        merged.ready_at = t;
        merged.uris = uris.into_iter().collect();
        per_pattern.push(merged);
    }
    Ok(QueryLookup::new(per_pattern, from_index))
}

#[cfg(test)]
mod tests {
    use super::*;
    use amada_cloud::DynamoDb;
    use amada_pattern::parse_query;

    fn docs() -> Vec<Document> {
        [
            ("hot/a.xml", "<painting><name>Lion Hunt</name></painting>"),
            ("hot/b.xml", "<painting><name>Tiger Hunt</name></painting>"),
            ("cold/c.xml", "<sculpture><name>Lion</name></sculpture>"),
            ("d.xml", "<painting><name>Raft</name></painting>"),
        ]
        .into_iter()
        .map(|(u, x)| Document::parse_str(u, x).unwrap())
        .collect()
    }

    #[test]
    fn partition_is_the_directory_prefix() {
        assert_eq!(partition_of("hot/a.xml"), "hot");
        assert_eq!(partition_of("hot/sub/a.xml"), "hot");
        assert_eq!(partition_of("a.xml"), "");
    }

    #[test]
    fn partition_tables_intern_to_stable_statics() {
        let a = partition_table(TABLE_MAIN, "hot");
        let b = partition_table(TABLE_MAIN, "hot");
        assert_eq!(a, "amada-index@hot");
        assert!(std::ptr::eq(a, b), "same partition, same static");
        // The root partition keeps the paper's global layout.
        assert!(std::ptr::eq(partition_table(TABLE_MAIN, ""), TABLE_MAIN));
    }

    #[test]
    fn plans_route_by_partition_with_a_default() {
        let plan = MixedPlan::uniform(Some(Strategy::Lup))
            .with("hot", Some(Strategy::TwoLupi))
            .with("cold", None);
        assert_eq!(plan.strategy_for_uri("hot/a.xml"), Some(Strategy::TwoLupi));
        assert_eq!(plan.strategy_for_uri("cold/c.xml"), None);
        assert_eq!(plan.strategy_for_uri("d.xml"), Some(Strategy::Lup));
        assert_eq!(plan.strategy_for_uri("other/e.xml"), Some(Strategy::Lup));
        // Distinct indexed strategies, in name order ("2LUPI" < "LUP").
        assert_eq!(
            plan.indexed_strategies(),
            vec![Strategy::TwoLupi, Strategy::Lup]
        );
    }

    #[test]
    #[should_panic(expected = "LUP-PD")]
    fn pushdown_is_not_routable() {
        let _ = MixedPlan::uniform(None).with("hot", Some(Strategy::LupPd));
    }

    #[test]
    #[should_panic(expected = "LUP-PD")]
    fn a_pushdown_plan_takes_no_partition_assignments() {
        let _ = MixedPlan::uniform(Some(Strategy::LupPd)).with("hot", Some(Strategy::Lu));
    }

    #[test]
    fn pushdown_is_exactly_the_uniform_lup_pd_plan() {
        assert!(MixedPlan::uniform(Some(Strategy::LupPd)).pushdown());
        assert!(!MixedPlan::uniform(Some(Strategy::Lup)).pushdown());
        assert!(!MixedPlan::uniform(None).indexes_anything());
        assert!(MixedPlan::uniform(None)
            .with("hot", Some(Strategy::Lu))
            .indexes_anything());
    }

    #[test]
    fn the_root_partition_is_the_default_route() {
        let plan = MixedPlan::uniform(Some(Strategy::Lu))
            .with("", Some(Strategy::Lui))
            .with("hot", Some(Strategy::TwoLupi));
        assert_eq!(plan.default_strategy(), Some(Strategy::Lui));
        assert!(!plan.assignments().contains_key(""));
        // Named partitions own their tables; everything else shares the
        // global ones.
        assert_eq!(plan.route("hot/a.xml"), Some((Strategy::TwoLupi, "hot")));
        assert_eq!(plan.route("other/b.xml"), Some((Strategy::Lui, "")));
        assert_eq!(plan.route("c.xml"), Some((Strategy::Lui, "")));
    }

    #[test]
    fn mixed_lookup_unions_indexed_partitions_and_scan_partitions() {
        let docs = docs();
        let plan = MixedPlan::uniform(Some(Strategy::Lu))
            .with("hot", Some(Strategy::TwoLupi))
            .with("cold", None);
        let mut store = DynamoDb::default();
        let m = index_documents_mixed(&mut store, &docs, &plan, ExtractOptions::default());
        assert!(m.items > 0);
        // Entries landed in partition tables, not the global ones for
        // the named partitions.
        let tables: BTreeSet<String> = store.peek_all().into_iter().map(|(t, _)| t).collect();
        assert!(tables.contains("amada-index-path@hot"), "{tables:?}");
        assert!(tables.contains("amada-index"), "root partition: {tables:?}");
        assert!(!tables.iter().any(|t| t.contains("@cold")), "{tables:?}");

        let corpus: Vec<String> = docs.iter().map(|d| d.uri().to_string()).collect();
        let q = parse_query("//painting[/name{contains(Hunt)}]").unwrap();
        let lookup = lookup_mixed(
            &mut store,
            SimTime::ZERO,
            &plan,
            ExtractOptions::default(),
            &q,
            &corpus,
            &BTreeSet::new(),
        )
        .unwrap();
        // The hot partition answers precisely; the cold partition's doc
        // is a scan candidate regardless of content; the root partition's
        // LU index contributes nothing for a non-matching doc... but LU
        // keys only prune per-key, so d.xml (painting+name, no "hunt"
        // word match) is pruned by the word key.
        assert_eq!(
            lookup.uris,
            vec!["cold/c.xml", "hot/a.xml", "hot/b.xml"],
            "per-partition union"
        );
        assert!(lookup.get_ops() > 0);
    }

    #[test]
    fn mixed_lookup_fans_partitions_out_concurrently() {
        // Three indexed partitions answer one pattern. Their round-trip
        // latencies overlap, so the three-partition plan's ready time must
        // be far below three chained single-partition look-ups — only the
        // per-request service overheads serialise.
        let docs: Vec<Document> = [
            ("a/x.xml", "<painting><name>Lion Hunt</name></painting>"),
            ("b/y.xml", "<painting><name>Tiger Hunt</name></painting>"),
            ("c/z.xml", "<painting><name>Raft</name></painting>"),
        ]
        .into_iter()
        .map(|(u, x)| Document::parse_str(u, x).unwrap())
        .collect();
        let opts = ExtractOptions::default();
        let q = parse_query("//painting[/name]").unwrap();
        let corpus: Vec<String> = docs.iter().map(|d| d.uri().to_string()).collect();

        let plan = ["a", "b", "c"]
            .into_iter()
            .fold(MixedPlan::uniform(Some(Strategy::Lu)), |p, part| {
                p.with(part, Some(Strategy::Lu))
            });
        let mut store = DynamoDb::default();
        index_documents_mixed(&mut store, &docs, &plan, opts);
        let fanned = lookup_mixed(
            &mut store,
            SimTime::ZERO,
            &plan,
            opts,
            &q,
            &corpus,
            &BTreeSet::new(),
        )
        .unwrap();

        let solo_docs = vec![docs[0].clone()];
        let solo_corpus = vec![corpus[0].clone()];
        let mut solo_store = DynamoDb::default();
        index_documents_mixed(&mut solo_store, &solo_docs, &plan, opts);
        let solo = lookup_mixed(
            &mut solo_store,
            SimTime::ZERO,
            &plan,
            opts,
            &q,
            &solo_corpus,
            &BTreeSet::new(),
        )
        .unwrap();

        let fanned_at = fanned.per_pattern[0].ready_at;
        let solo_at = solo.per_pattern[0].ready_at;
        assert!(fanned_at >= solo_at, "three partitions cannot beat one");
        // Well under 2x a single partition (chaining would be ~3x).
        assert!(
            fanned_at.micros() < 2 * solo_at.micros(),
            "fan-out must overlap latencies: {} vs solo {}",
            fanned_at.micros(),
            solo_at.micros()
        );
    }

    #[test]
    fn docs_from_index_counts_only_indexed_partitions() {
        let docs = docs();
        let plan = MixedPlan::uniform(Some(Strategy::TwoLupi)).with("cold", None);
        let mut store = DynamoDb::default();
        index_documents_mixed(&mut store, &docs, &plan, ExtractOptions::default());
        let corpus: Vec<String> = docs.iter().map(|d| d.uri().to_string()).collect();
        let q = parse_query("//painting[/name{contains(Hunt)}]").unwrap();
        let lookup = lookup_mixed(
            &mut store,
            SimTime::ZERO,
            &plan,
            ExtractOptions::default(),
            &q,
            &corpus,
            &BTreeSet::new(),
        )
        .unwrap();
        // The scan partition's document is a candidate, but only the two
        // hunts came out of the index.
        assert_eq!(lookup.uris, vec!["cold/c.xml", "hot/a.xml", "hot/b.xml"]);
        assert_eq!(lookup.total_doc_ids, 2);
    }

    #[test]
    fn a_uniform_plan_matches_the_single_strategy_path_whatever_the_uris() {
        let docs: Vec<Document> = [
            ("a.xml", "<painting><name>Lion Hunt</name></painting>"),
            ("hot/b.xml", "<sculpture><name>Lion</name></sculpture>"),
            ("cold/c.xml", "<painting><name>Raft</name></painting>"),
        ]
        .into_iter()
        .map(|(u, x)| Document::parse_str(u, x).unwrap())
        .collect();
        let opts = ExtractOptions::default();
        let q = parse_query("//painting[/name]").unwrap();
        let catalog: BTreeSet<String> = ["", "hot", "cold"].map(String::from).into();
        for strategy in Strategy::ALL.into_iter().chain([Strategy::LupPd]) {
            let plan = MixedPlan::uniform(Some(strategy));
            // With the catalog, and with nothing at all (the root
            // partition is still looked up); fresh stores each time.
            for catalog in [&catalog, &BTreeSet::new()] {
                let mut mixed = DynamoDb::default();
                index_documents_mixed(&mut mixed, &docs, &plan, opts);
                let mut plain = DynamoDb::default();
                let mut t = SimTime::ZERO;
                for d in &docs {
                    t = crate::index_document(&mut plain, t, d, strategy, opts)
                        .unwrap()
                        .1;
                }
                assert_eq!(mixed.peek_all(), plain.peek_all(), "{strategy:?}");
                let a =
                    lookup_mixed(&mut mixed, SimTime::ZERO, &plan, opts, &q, &[], catalog).unwrap();
                let b = crate::lookup_query(&mut plain, SimTime::ZERO, strategy, opts, &q).unwrap();
                assert_eq!(a.uris, b.uris, "{strategy:?}");
                assert_eq!(a.get_ops(), b.get_ops(), "{strategy:?}");
                assert_eq!(a.ready_at(), b.ready_at(), "{strategy:?}");
                assert_eq!(a.total_doc_ids, b.total_doc_ids, "{strategy:?}");
            }
        }
    }
}
