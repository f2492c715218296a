//! Thread-safe host-side memo of the CPU-heavy work the simulation
//! repeats on stored documents: parsing, index extraction and tree-pattern
//! evaluation.
//!
//! The discrete-event simulation charges *virtual* time for every parse,
//! extraction and evaluation a cloud instance performs — instances are
//! stateless across tasks, exactly as in the paper. The *host* running the
//! simulation, however, sees the same document parsed and extracted once
//! per strategy, per experiment, per repetition, and the same pattern
//! evaluated on it once per arrival of its query; this cache spares that
//! redundant wall-clock work without touching a single virtual-time
//! charge.
//!
//! Design:
//!
//! * **Keyed by `(URI, content hash)`.** The hash is the stored object's
//!   ETag ([`Object::etag`]), computed once when the object was put, so a
//!   probe never rehashes bytes. Two warehouses that store different
//!   bodies under one URI get two entries and never see each other's
//!   work. The URI stays in the key because parsing records it and every
//!   evaluated [`Tuple`] carries it: equal bytes stored under two URIs
//!   must not share an entry.
//! * **Three memo levels.** Each entry holds the parsed [`Document`], the
//!   extraction output per `(Strategy, ExtractOptions)` — a loader core's
//!   CPU-heavy step — and the twig evaluation `(tuples, EvalStats)` per
//!   pattern, keyed by the pattern's canonical `Display` text (which the
//!   pattern parser inverts, so equal texts mean equal patterns) — a query
//!   processor's CPU-heavy step.
//! * **Sharded.** `SHARDS` independent `Mutex<HashMap>` shards keyed by a
//!   hash of the URI, so the parallel prewarm stage
//!   ([`crate::parallel::prewarm`]) and concurrent warehouses on other
//!   host threads do not serialize on one lock.

use crate::strategy::{extract, ExtractOptions, IndexEntry, Strategy};
use amada_cloud::{content_hash, Object};
use amada_pattern::{evaluate_pattern_twig, EvalStats, TreePattern, Tuple};
use amada_xml::Document;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Shard count. A small power of two: the prewarm stage runs one task per
/// document across `num_cpus` threads, so a few dozen shards keep
/// contention negligible.
const SHARDS: usize = 32;

/// Why a shard lock can fail: only a panic inside one of this module's
/// short critical sections poisons it.
const POISONED: &str = "no thread panics while holding a cache shard";

/// FNV-1a over the URI, used only to pick a shard.
fn shard_of(uri: &str) -> usize {
    (content_hash(uri.as_bytes()) as usize) % SHARDS
}

/// One pattern's twig evaluation on one document.
pub type Evaluation = (Vec<Tuple>, EvalStats);

/// A tree pattern with its canonical text, the evaluation memo's key.
/// Build it once per pattern, then probe with it per document.
pub struct PatternKey<'p> {
    pattern: &'p TreePattern,
    text: String,
}

impl<'p> PatternKey<'p> {
    /// Renders `pattern`'s canonical text.
    pub fn new(pattern: &'p TreePattern) -> Self {
        PatternKey {
            pattern,
            text: pattern.to_string(),
        }
    }
}

/// One cached document version: the content hash it was parsed from, the
/// parsed tree, and the memoized extractions and evaluations.
struct DocEntry {
    etag: u64,
    doc: Arc<Document>,
    extracts: HashMap<(Strategy, ExtractOptions), Arc<Vec<IndexEntry>>>,
    evals: HashMap<String, Arc<Evaluation>>,
}

#[derive(Default)]
struct Shard {
    /// URI → one entry per content hash cached under it.
    docs: HashMap<String, Vec<DocEntry>>,
}

impl Shard {
    fn entry(&self, uri: &str, etag: u64) -> Option<&DocEntry> {
        self.docs.get(uri)?.iter().find(|e| e.etag == etag)
    }

    fn entry_mut(&mut self, uri: &str, etag: u64) -> Option<&mut DocEntry> {
        self.docs.get_mut(uri)?.iter_mut().find(|e| e.etag == etag)
    }
}

/// Cumulative cache statistics (monotonic counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes answered from the cache without parsing.
    pub parse_hits: u64,
    /// Probes that had to parse.
    pub parse_misses: u64,
    /// Extraction probes answered from the memo.
    pub extract_hits: u64,
    /// Extraction probes that had to run the extractor.
    pub extract_misses: u64,
    /// Evaluation probes answered from the memo.
    pub eval_hits: u64,
    /// Evaluation probes that had to run the twig join.
    pub eval_misses: u64,
}

impl CacheStats {
    /// Hit fraction over all parse and extraction probes, `None` before
    /// the first one.
    pub fn hit_rate(&self) -> Option<f64> {
        let hits = self.parse_hits + self.extract_hits;
        let total = hits + self.parse_misses + self.extract_misses;
        (total > 0).then(|| hits as f64 / total as f64)
    }
}

/// Indices into [`ExtractCache::stats`], in [`CacheStats`] field order.
#[derive(Clone, Copy)]
enum Counter {
    ParseHit,
    ParseMiss,
    ExtractHit,
    ExtractMiss,
    EvalHit,
    EvalMiss,
}

/// A sharded, `Send + Sync` cache of parsed documents and their
/// extraction and evaluation results. Cheap to clone the handle via
/// [`Arc`].
pub struct ExtractCache {
    shards: Box<[Mutex<Shard>; SHARDS]>,
    stats: [AtomicU64; 6],
}

impl Default for ExtractCache {
    fn default() -> Self {
        ExtractCache {
            shards: Box::new(std::array::from_fn(|_| Mutex::new(Shard::default()))),
            stats: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl std::fmt::Debug for ExtractCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExtractCache")
            .field("stats", &self.stats())
            .finish()
    }
}

impl ExtractCache {
    /// The process-wide cache every [`shared`](Self::shared) caller gets a
    /// handle to.
    fn process_cache() -> &'static Arc<ExtractCache> {
        static PROCESS: std::sync::OnceLock<Arc<ExtractCache>> = std::sync::OnceLock::new();
        PROCESS.get_or_init(|| Arc::new(ExtractCache::default()))
    }

    /// A handle to the **process-wide** cache. Every warehouse in the
    /// process shares it, so a harness that builds many warehouses over
    /// the same corpus (e.g. `repro table4`, one warehouse per strategy)
    /// parses each document once, extracts once per `(strategy, opts)` and
    /// evaluates once per pattern — not once per warehouse. Sharing is
    /// safe because every entry is keyed by the object's URI *and* content
    /// hash: a warehouse holding other bytes under the same URI probes
    /// another key. Tests that need isolated statistics use
    /// [`ExtractCache::default`] directly.
    pub fn shared() -> Arc<ExtractCache> {
        Arc::clone(Self::process_cache())
    }

    fn bump(&self, c: Counter) {
        self.stats[c as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// This cache's statistics.
    pub fn stats(&self) -> CacheStats {
        let get = |c: Counter| self.stats[c as usize].load(Ordering::Relaxed);
        CacheStats {
            parse_hits: get(Counter::ParseHit),
            parse_misses: get(Counter::ParseMiss),
            extract_hits: get(Counter::ExtractHit),
            extract_misses: get(Counter::ExtractMiss),
            eval_hits: get(Counter::EvalHit),
            eval_misses: get(Counter::EvalMiss),
        }
    }

    fn shard(&self, uri: &str) -> std::sync::MutexGuard<'_, Shard> {
        self.shards[shard_of(uri)].lock().expect(POISONED)
    }

    /// Drops the entry of `uri` at content hash `etag` — called when the
    /// object is replaced, so superseded versions do not accumulate. Any
    /// other holder of those bytes simply re-parses on its next probe.
    pub fn forget(&self, uri: &str, etag: u64) {
        let mut shard = self.shard(uri);
        if let Some(versions) = shard.docs.get_mut(uri) {
            versions.retain(|e| e.etag != etag);
            if versions.is_empty() {
                shard.docs.remove(uri);
            }
        }
    }

    /// The parsed form of `uri`/`obj`, from cache when this version was
    /// parsed before.
    ///
    /// # Panics
    /// Panics if `obj` is not well-formed XML (stored documents always
    /// are; the warehouse validated them on the way in).
    pub fn parsed(&self, uri: &str, obj: &Object) -> Arc<Document> {
        let hit = self
            .shard(uri)
            .entry(uri, obj.etag())
            .map(|e| e.doc.clone());
        if let Some(doc) = hit {
            self.bump(Counter::ParseHit);
            return doc;
        }
        self.bump(Counter::ParseMiss);
        // Parse outside the lock: this is the expensive part, and the
        // prewarm stage runs it concurrently across shard-colliding URIs.
        let doc = Arc::new(Document::parse(uri, obj).expect("stored documents are well-formed"));
        let mut shard = self.shard(uri);
        let versions = shard.docs.entry(uri.to_string()).or_default();
        // A racing thread may have published this version meanwhile; keep
        // its entry (and any memo levels it already filled).
        match versions.iter().find(|e| e.etag == obj.etag()) {
            Some(e) => e.doc.clone(),
            None => {
                versions.push(DocEntry {
                    etag: obj.etag(),
                    doc: doc.clone(),
                    extracts: HashMap::new(),
                    evals: HashMap::new(),
                });
                doc
            }
        }
    }

    /// The parsed form *and* the extraction output of `uri`/`obj` under
    /// `(strategy, opts)`, both memoized.
    pub fn extracted(
        &self,
        uri: &str,
        obj: &Object,
        strategy: Strategy,
        opts: ExtractOptions,
    ) -> (Arc<Document>, Arc<Vec<IndexEntry>>) {
        let doc = self.parsed(uri, obj);
        let key = (strategy, opts);
        let hit = self
            .shard(uri)
            .entry(uri, obj.etag())
            .and_then(|e| e.extracts.get(&key).cloned());
        if let Some(entries) = hit {
            self.bump(Counter::ExtractHit);
            return (doc, entries);
        }
        self.bump(Counter::ExtractMiss);
        // Extract outside the lock, then publish. Two threads may race to
        // extract the same key; both produce identical output (extraction
        // is deterministic), so last-write-wins is correct.
        let entries = Arc::new(extract(&doc, strategy, opts));
        if let Some(e) = self.shard(uri).entry_mut(uri, obj.etag()) {
            e.extracts.insert(key, entries.clone());
        }
        (doc, entries)
    }

    /// The twig evaluation of `pattern` on `uri`/`obj` — exactly what
    /// [`evaluate_pattern_twig`] returns — memoized. A hit neither parses
    /// nor probes the parse level.
    pub fn evaluated(&self, uri: &str, obj: &Object, pattern: &PatternKey) -> Arc<Evaluation> {
        let hit = self
            .shard(uri)
            .entry(uri, obj.etag())
            .and_then(|e| e.evals.get(&pattern.text).cloned());
        if let Some(eval) = hit {
            self.bump(Counter::EvalHit);
            return eval;
        }
        self.bump(Counter::EvalMiss);
        let doc = self.parsed(uri, obj);
        // Evaluate outside the lock; racing evaluations are identical.
        let eval = Arc::new(evaluate_pattern_twig(&doc, pattern.pattern));
        if let Some(e) = self.shard(uri).entry_mut(uri, obj.etag()) {
            e.evals.insert(pattern.text.clone(), eval.clone());
        }
        eval
    }

    /// Number of cached document versions.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .expect(POISONED)
                    .docs
                    .values()
                    .map(Vec::len)
                    .sum::<usize>()
            })
            .sum()
    }

    /// True when no document is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached parse, extraction and evaluation.
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.lock().expect(POISONED).docs.clear();
        }
    }
}

// The whole point: the cache is shareable across host threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ExtractCache>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use amada_pattern::parse_pattern;

    fn obj(xml: &[u8]) -> Object {
        Object::new(xml.to_vec())
    }

    const XML_A: &[u8] = b"<a><b>x</b></a>";
    const XML_B: &[u8] = b"<a><c>y</c></a>";

    #[test]
    fn parse_probe_hits_after_miss() {
        let cache = ExtractCache::default();
        let a = obj(XML_A);
        let d1 = cache.parsed("d.xml", &a);
        let d2 = cache.parsed("d.xml", &a);
        assert!(Arc::ptr_eq(&d1, &d2));
        let s = cache.stats();
        assert_eq!((s.parse_hits, s.parse_misses), (1, 1));
    }

    #[test]
    fn reuploaded_body_misses() {
        let cache = ExtractCache::default();
        let (a, b) = (obj(XML_A), obj(XML_B));
        let key = parse_pattern("//a[/b{val}]").unwrap();
        let key = PatternKey::new(&key);
        let d1 = cache.parsed("d.xml", &a);
        let e1 = cache.evaluated("d.xml", &a, &key);
        assert_eq!(e1.0.len(), 1);
        // Replacing the object drops the old version's entry.
        cache.forget("d.xml", a.etag());
        assert_eq!(cache.len(), 0);
        let d2 = cache.parsed("d.xml", &b);
        assert!(!Arc::ptr_eq(&d1, &d2));
        assert_eq!(d2.elements_named("c").len(), 1);
        let e2 = cache.evaluated("d.xml", &b, &key);
        assert!(e2.0.is_empty());
        let s = cache.stats();
        assert_eq!((s.parse_hits, s.parse_misses), (2, 2));
        assert_eq!((s.eval_hits, s.eval_misses), (0, 2));
    }

    #[test]
    fn different_bodies_under_one_uri_keep_their_own_entries() {
        // Two warehouses storing different bodies under one URI: neither
        // probe may see the other's parse, in any interleaving.
        let cache = ExtractCache::default();
        let (a, b) = (obj(XML_A), obj(XML_B));
        let da = cache.parsed("d.xml", &a);
        let db = cache.parsed("d.xml", &b);
        assert_eq!(cache.len(), 2);
        assert!(Arc::ptr_eq(&da, &cache.parsed("d.xml", &a)));
        assert!(Arc::ptr_eq(&db, &cache.parsed("d.xml", &b)));
        assert_eq!(da.elements_named("b").len(), 1);
        assert_eq!(db.elements_named("c").len(), 1);
    }

    #[test]
    fn equal_bytes_under_two_uris_keep_their_own_uri() {
        let cache = ExtractCache::default();
        let a = obj(XML_A);
        let p = parse_pattern("//a[/b{val}]").unwrap();
        let key = PatternKey::new(&p);
        for uri in ["one.xml", "two.xml", "one.xml"] {
            let (tuples, _) = &*cache.evaluated(uri, &a, &key);
            assert_eq!(tuples.len(), 1);
            assert_eq!(&*tuples[0].uri, uri);
        }
        assert_eq!(cache.stats().eval_hits, 1);
    }

    #[test]
    fn extraction_is_memoized_per_strategy_and_opts() {
        let cache = ExtractCache::default();
        let a = obj(XML_A);
        let (_, e1) = cache.extracted("d.xml", &a, Strategy::Lu, ExtractOptions::default());
        let (_, e2) = cache.extracted("d.xml", &a, Strategy::Lu, ExtractOptions::default());
        assert!(Arc::ptr_eq(&e1, &e2));
        let (_, e3) = cache.extracted("d.xml", &a, Strategy::Lup, ExtractOptions::default());
        assert!(!Arc::ptr_eq(&e1, &e3));
        let no_words = ExtractOptions { index_words: false };
        let (_, e4) = cache.extracted("d.xml", &a, Strategy::Lu, no_words);
        assert!(!Arc::ptr_eq(&e1, &e4));
        let s = cache.stats();
        assert_eq!((s.extract_hits, s.extract_misses), (1, 3));
    }

    #[test]
    fn memoized_extraction_equals_direct_extraction() {
        let cache = ExtractCache::default();
        let a = obj(XML_A);
        for strategy in Strategy::ALL {
            let (doc, entries) = cache.extracted("d.xml", &a, strategy, ExtractOptions::default());
            let direct = extract(&doc, strategy, ExtractOptions::default());
            assert_eq!(*entries, direct, "{strategy}");
        }
    }

    #[test]
    fn memoized_evaluation_equals_direct_evaluation() {
        let corpus = amada_xmark::generate_corpus(&amada_xmark::CorpusConfig {
            seed: 7,
            num_documents: 40,
            ..Default::default()
        });
        let objects: Vec<(String, Object)> = corpus
            .into_iter()
            .map(|d| (d.uri, Object::new(d.xml.into_bytes())))
            .collect();
        let queries = amada_xmark::workload();
        let patterns: Vec<&TreePattern> = queries.iter().flat_map(|q| &q.patterns).collect();
        let cache = ExtractCache::default();
        // Twice: the first pass fills the memo, the second reads it.
        for _ in 0..2 {
            for p in &patterns {
                let key = PatternKey::new(p);
                for (uri, o) in &objects {
                    let doc = Document::parse(uri, o).unwrap();
                    let direct = evaluate_pattern_twig(&doc, p);
                    assert_eq!(*cache.evaluated(uri, o, &key), direct, "{p} on {uri}");
                }
            }
        }
        // Equal texts share an entry, so misses count distinct patterns.
        let distinct: std::collections::BTreeSet<String> =
            patterns.iter().map(|p| p.to_string()).collect();
        let s = cache.stats();
        let probes = (2 * patterns.len() * objects.len()) as u64;
        assert_eq!(s.eval_misses, (distinct.len() * objects.len()) as u64);
        assert_eq!(s.eval_hits + s.eval_misses, probes);
    }

    #[test]
    fn clear_empties_every_level() {
        let cache = ExtractCache::default();
        let a = obj(XML_A);
        let p = parse_pattern("//a[/b{val}]").unwrap();
        let key = PatternKey::new(&p);
        cache.extracted("d.xml", &a, Strategy::Lu, ExtractOptions::default());
        cache.evaluated("d.xml", &a, &key);
        cache.clear();
        assert!(cache.is_empty());
        let before = cache.stats();
        cache.evaluated("d.xml", &a, &key);
        cache.extracted("d.xml", &a, Strategy::Lu, ExtractOptions::default());
        let after = cache.stats();
        assert_eq!(after.eval_misses, before.eval_misses + 1);
        assert_eq!(after.extract_misses, before.extract_misses + 1);
        assert_eq!(after.parse_misses, before.parse_misses + 1);
    }

    #[test]
    fn concurrent_probes_agree() {
        let cache = ExtractCache::default();
        let uris: Vec<String> = (0..64).map(|i| format!("doc{i}.xml")).collect();
        let objects: Vec<Object> = (0..64)
            .map(|i| Object::new(format!("<a><b>{i}</b></a>").into_bytes()))
            .collect();
        let results = amada_par::par_map_with(8, &uris, |i, uri| {
            let (_, e) =
                cache.extracted(uri, &objects[i], Strategy::Lui, ExtractOptions::default());
            e.len()
        });
        // Re-probe sequentially: identical answers, all from cache.
        for (i, uri) in uris.iter().enumerate() {
            let (_, e) =
                cache.extracted(uri, &objects[i], Strategy::Lui, ExtractOptions::default());
            assert_eq!(e.len(), results[i]);
        }
        assert_eq!(cache.stats().extract_misses, 64);
    }
}
