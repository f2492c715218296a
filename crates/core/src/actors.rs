//! The warehouse's module programs, as discrete-event actors.
//!
//! * [`LoaderCore`] — one per core of each indexing-module instance
//!   (architecture steps 4–6): lease a document message, fetch the
//!   document from the file store, extract index entries, batch-write them
//!   to the index store, delete the message. The core is a state machine
//!   issuing **one index-store call per engine step**, so that concurrent
//!   cores interleave their writes at their true virtual arrival times and
//!   the store's provisioned-throughput queue sees the real concurrency
//!   (this is what makes the multi-instance indexing of Table 4 /
//!   Figure 10 behave like the paper's).
//! * [`QueryCore`] — one per query-processor instance (steps 9–15): lease
//!   a query message, look the query up in the index, fetch the candidate
//!   documents, evaluate, store results, respond. The paper treats one
//!   query as an atomic unit of processing on one instance, with
//!   intra-machine parallelism from multi-threading; the model reflects
//!   that by dividing the transfer + evaluation phase across the
//!   instance's cores. A query issues only a handful of index gets, so it
//!   executes in a single step; the residual arrival-order skew across
//!   concurrent query instances is bounded by those few calls.
//!
//! Fault tolerance follows the paper's Section 3 contract. A working core
//! renews the visibility lease on the message that started its task
//! ([`Lease`], at the lease half-life); a core configured to "crash"
//! (`crash_after`, or mid-upload via `crash_after_batches`) simply stops
//! stepping, its renewals stop, and after the visibility timeout the
//! message reappears for another core. Transient service throttles
//! (`amada_cloud::fault`) are retried with capped exponential backoff and
//! deterministic jitter; a *pre-commit* operation that exhausts its retry
//! budget abandons the task to redelivery, while commit operations retry
//! without bound so each task completes exactly once. A message delivered
//! more than `RetryPolicy::max_receives` times is dead-lettered. Every
//! retry is a billed request.

use crate::autoscale::DrainSignal;
use crate::config::{
    WarehouseConfig, DEAD_LETTER_QUEUE, DOC_BUCKET, LOADER_QUEUE, QUERY_QUEUE, RESPONSE_QUEUE,
    RESULT_BUCKET,
};
use crate::metrics::{QueryExecution, QueryPhases};
use crate::retry::{delete_with_retry, send_with_retry, Lease, RetryPolicy};
use amada_cloud::{
    Actor, ActorTag, InstanceId, KvError, KvItem, Phase, S3Error, ServiceKind, SimDuration,
    SimTime, Span, SqsError, StepResult, World,
};
use amada_index::{
    decode_tuples, lookup_mixed, partition_tables, retarget_entries, store::UuidGen, Evaluation,
    ExtractCache, ExtractOptions, ItemKey, MixedPlan, PatternKey, ScanPredicate,
};
use amada_pattern::{join_pattern_results, parse_query, EvalStats, Query, Tuple};
use amada_rng::StdRng;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

/// Host-side cache of parsed documents and memoized extraction and
/// evaluation results, keyed by URI and the stored object's content hash,
/// so a re-uploaded, changed document is re-parsed (virtual time still
/// charges every parse, extraction and evaluation — cloud instances are
/// stateless across tasks; the cache only spares the simulation host).
/// Sharded and `Send + Sync`: the warehouse prewarms it across all host
/// cores before the single-threaded engine runs.
pub type DocCache = Arc<ExtractCache>;

/// Stream-derivation tags for the per-core jitter RNGs, so loader and
/// query cores draw from independent streams under one master seed.
/// `pub(crate)` so the warehouse's autoscale launchers derive the same
/// stream for core *k* whether it was provisioned up-front or mid-run.
pub(crate) const LOADER_RNG_TAG: u64 = 0x10AD_0000;
pub(crate) const QUERY_RNG_TAG: u64 = 0x9E4F_0000;

/// Item keys of *replaced or deleted* document versions, pending index
/// retraction, keyed by URI. The front end records a version's keys here
/// *before* overwriting the object (the loader only ever sees the current
/// bytes); the loader deletes `recorded − current` after rewriting a
/// churned document and then clears the entry. Entries survive crashes
/// and abandons untouched, so a redelivered message retries the same
/// retraction — deletes are idempotent, making the whole scheme
/// exactly-once without tombstones. Per-URI sets are unioned across
/// repeated replaces, so no intermediate version can leak entries.
pub type RetractionRegistry = Rc<RefCell<HashMap<String, BTreeSet<ItemKey>>>>;

/// Aggregated loader-side totals (shared across all loader cores).
#[derive(Debug, Default)]
pub struct LoaderTotals {
    /// Documents indexed.
    pub docs: u64,
    /// Entries extracted.
    pub entries: u64,
    /// Items written.
    pub items: u64,
    /// Raw entry bytes.
    pub entry_bytes: u64,
    /// Cores that actually received at least one document (the divisor
    /// for the report's per-core averages; can be smaller than the
    /// configured pool when the corpus is smaller than the pool).
    pub active_cores: u64,
    /// Summed per-core extraction (parse + extract) time, microseconds.
    pub extraction_micros: u64,
    /// Summed per-core index-upload wait time, microseconds.
    pub upload_micros: u64,
    /// Stale index items deleted by update retraction.
    pub retracted_items: u64,
}

/// What a loader core is doing between steps.
enum LoaderState {
    /// About to poll the task queue.
    Idle,
    /// Fetching the leased document from the file store (separated from
    /// `Idle` so a throttled fetch can retry without re-receiving).
    Fetching { lease: Lease, uri: String },
    /// Writing the current document's item batches.
    Uploading {
        lease: Lease,
        uri: String,
        batches: VecDeque<(&'static str, Vec<KvItem>)>,
        /// Stale-key delete batches to issue once the writes land
        /// (non-empty only when the document replaced an indexed version).
        deletes: VecDeque<(&'static str, Vec<(String, String)>)>,
        entries: u64,
        items: u64,
        entry_bytes: u64,
    },
    /// New items written; deleting the replaced version's stale items
    /// (write-new-then-delete-stale keeps every key readable throughout).
    Retracting {
        lease: Lease,
        uri: String,
        deletes: VecDeque<(&'static str, Vec<(String, String)>)>,
    },
    /// All batches written; deleting the task message.
    Finishing { lease: Lease },
}

/// One core of an indexing-module instance.
pub struct LoaderCore {
    /// The instance this core belongs to (for uptime billing).
    pub instance: InstanceId,
    /// The core's compute rating.
    pub ecu: f64,
    /// The routing plan: each document's home partition picks the
    /// strategy that extracts it and the tables its entries land in; a
    /// route assigned `None` indexes nothing (its documents are answered
    /// by scans).
    pub plan: Rc<MixedPlan>,
    /// Extraction options.
    pub opts: ExtractOptions,
    /// Shared totals.
    pub totals: Rc<RefCell<LoaderTotals>>,
    /// Host document cache.
    pub cache: DocCache,
    /// Message lease duration.
    pub visibility: SimDuration,
    /// Idle poll interval.
    pub poll: SimDuration,
    /// Retry/backoff/dead-letter policy.
    pub policy: RetryPolicy,
    /// Fault injection: crash (stop deleting leases) after this many
    /// messages.
    pub crash_after: Option<u32>,
    /// Fault injection: crash *mid-upload*, after writing this many index
    /// batches (across all documents) — the already-written batches stay
    /// in the store, the message lease expires, and the document is
    /// redelivered to another core.
    pub crash_after_batches: Option<u64>,
    /// Index batches (puts *and* stale-key deletes) written so far by
    /// this core.
    pub batches_written: u64,
    /// Pending retractions shared with the warehouse front end (empty for
    /// a static corpus, so churn-free builds take the exact same path).
    pub retractions: RetractionRegistry,
    /// Messages fully processed so far.
    pub processed: u32,
    /// Autoscaling drain signal shared with the instance's other cores
    /// (`None` for a static pool). A draining core finishes its leased
    /// message, then exits instead of polling again; the last core out
    /// freezes the instance's billing window.
    pub drain: Option<DrainSignal>,
    state: LoaderState,
    /// Whether this core has received a document yet (first receipt
    /// increments `LoaderTotals::active_cores`).
    worked: bool,
    /// Backoff-jitter stream (only drawn from when a retry happens, so
    /// fault-free runs consume no randomness).
    rng: StdRng,
    /// Consecutive throttles of the current operation.
    attempt: u32,
}

impl LoaderCore {
    /// Creates an idle core. `rng_seed` seeds the backoff-jitter stream;
    /// give each core its own seed so concurrent retries decorrelate.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        instance: InstanceId,
        ecu: f64,
        plan: Rc<MixedPlan>,
        opts: ExtractOptions,
        totals: Rc<RefCell<LoaderTotals>>,
        cache: DocCache,
        visibility: SimDuration,
        poll: SimDuration,
        policy: RetryPolicy,
        rng_seed: u64,
    ) -> LoaderCore {
        LoaderCore {
            instance,
            ecu,
            plan,
            opts,
            totals,
            cache,
            visibility,
            poll,
            policy,
            crash_after: None,
            crash_after_batches: None,
            batches_written: 0,
            retractions: Rc::default(),
            processed: 0,
            drain: None,
            state: LoaderState::Idle,
            worked: false,
            rng: StdRng::seed_from_u64(rng_seed),
            attempt: 0,
        }
    }

    /// Exits the core: an autoscaled member reports to its drain signal
    /// (the last core out freezes the instance's billing window); a
    /// static core just bills its uptime.
    fn exit(&self, world: &mut World, t: SimTime) -> StepResult {
        match &self.drain {
            Some(d) => d.core_exited(world, t),
            None => world.ec2.extend(self.instance, t),
        }
        StepResult::Done
    }

    /// Builds the cores for one instance pool from a warehouse config.
    pub fn pool(
        cfg: &WarehouseConfig,
        world: &mut World,
        now: SimTime,
        totals: &Rc<RefCell<LoaderTotals>>,
        cache: &DocCache,
    ) -> Vec<LoaderCore> {
        let mut cores = Vec::new();
        let plan = Rc::new(cfg.plan.clone());
        for _ in 0..cfg.loader_pool.count {
            let instance = world.ec2.launch(cfg.loader_pool.itype, now);
            for _ in 0..cfg.loader_pool.itype.cores() {
                let idx = cores.len() as u64;
                cores.push(LoaderCore::new(
                    instance,
                    cfg.loader_pool.itype.ecu_per_core(),
                    plan.clone(),
                    cfg.extract,
                    totals.clone(),
                    cache.clone(),
                    cfg.visibility,
                    cfg.poll_interval,
                    cfg.retry,
                    cfg.faults.seed ^ (LOADER_RNG_TAG + idx),
                ));
            }
        }
        cores
    }

    /// Step 4: poll the task queue; on a message, lease it and move to
    /// [`LoaderState::Fetching`].
    fn step_idle(&mut self, now: SimTime, world: &mut World) -> StepResult {
        // A scale-in victim stops *receiving*; it only reaches Idle once
        // any leased message is fully processed, so draining never
        // abandons a lease.
        if self.drain.as_ref().is_some_and(|d| d.is_draining()) {
            return self.exit(world, now);
        }
        let (msg, t) = match world.sqs.receive(now, LOADER_QUEUE, self.visibility) {
            Ok(out) => out,
            Err(SqsError::Throttled { available_at }) => {
                self.attempt = (self.attempt + 1).min(self.policy.max_attempts);
                return StepResult::NextAt(
                    available_at + self.policy.backoff(self.attempt, &mut self.rng),
                );
            }
            Err(e) => panic!("loader queue exists: {e}"),
        };
        self.attempt = 0;
        let Some(msg) = msg else {
            if world
                .sqs
                .drained(LOADER_QUEUE)
                .expect("loader queue exists")
            {
                return self.exit(world, t);
            }
            world.ec2.extend(self.instance, t);
            return StepResult::NextAt(t + self.poll);
        };
        if self.crash_after.is_some_and(|n| self.processed >= n) {
            // Simulated crash after lease acquisition: the message is
            // neither processed nor deleted; SQS will redeliver it. The
            // instance was up for the receive — bill it.
            world.ec2.extend(self.instance, t);
            world
                .obs
                .record(|_, ctx| Span::new(ServiceKind::Actor, "crash", now, t, ctx));
            return StepResult::Done;
        }
        if msg.receive_count > self.policy.max_receives {
            // Poison message: every previous holder died or abandoned it.
            // Park it on the dead-letter queue instead of recirculating.
            let t = send_with_retry(
                &mut world.sqs,
                &self.policy,
                &mut self.rng,
                t,
                DEAD_LETTER_QUEUE,
                msg.body,
            );
            let t = delete_with_retry(
                &mut world.sqs,
                &self.policy,
                &mut self.rng,
                t,
                LOADER_QUEUE,
                msg.id,
            );
            return StepResult::NextAt(t);
        }
        self.processed += 1;
        if !self.worked {
            self.worked = true;
            self.totals.borrow_mut().active_cores += 1;
        }
        self.state = LoaderState::Fetching {
            lease: Lease::new(LOADER_QUEUE, msg.id, self.visibility, now),
            uri: msg.body,
        };
        StepResult::NextAt(t)
    }

    /// Step 5 plus extraction: fetch and parse the document, extract and
    /// encode the entries, batch them for upload.
    fn step_fetching(
        &mut self,
        now: SimTime,
        world: &mut World,
        mut lease: Lease,
        uri: String,
    ) -> StepResult {
        lease.keep_alive(&mut world.sqs, now);
        let (bytes, t) = match world.s3.get(now, DOC_BUCKET, &uri) {
            Ok(out) => out,
            Err(S3Error::SlowDown { available_at }) => {
                self.attempt += 1;
                if self.attempt > self.policy.max_attempts {
                    // Abandon: drop the lease; the message expires and is
                    // redelivered to (possibly) another core.
                    self.attempt = 0;
                    self.state = LoaderState::Idle;
                    return StepResult::NextAt(available_at + self.poll);
                }
                let resume = available_at + self.policy.backoff(self.attempt, &mut self.rng);
                lease.keep_alive(&mut world.sqs, resume);
                self.state = LoaderState::Fetching { lease, uri };
                return StepResult::NextAt(resume);
            }
            Err(S3Error::NoSuchKey { .. }) => {
                // The document was deleted after this message was
                // enqueued; the front end retracted its index entries at
                // delete time. Nothing is left to index — commit the
                // message (the GET miss was still a billed request).
                self.attempt = 0;
                self.state = LoaderState::Finishing { lease };
                return StepResult::NextAt(now);
            }
            Err(e) => panic!("loader messages reference stored documents: {e}"),
        };
        self.attempt = 0;
        // The plan routes the document: its home partition's strategy
        // extracts, and the entries land in the home's tables. A route
        // that indexes nothing extracts nothing — its only effect is
        // retracting whatever an earlier placement left behind for this
        // URI.
        let profile = world.kv.profile();
        let mut batches = VecDeque::new();
        let mut tables: Vec<&'static str> = Vec::new();
        let mut entry_count = 0u64;
        let mut items = 0u64;
        let mut entry_bytes = 0u64;
        let mut t = t;
        if let Some((strategy, home)) = self.plan.route(&uri) {
            // Parse, extract, encode (memoized on the host after the
            // prewarm stage; virtually charged in full either way).
            let (_doc, cached) = self.cache.extracted(&uri, &bytes, strategy, self.opts);
            let entries = retarget_entries(&cached, home);
            entry_count = entries.len() as u64;
            entry_bytes = entries.iter().map(|e| e.raw_bytes() as u64).sum();
            let extraction = world.work.parse(bytes.len() as u64, self.ecu)
                + world.work.extract(entry_bytes, self.ecu);
            let fetched_at = t;
            t = t + extraction;
            world.obs.record(|_, ctx| {
                Span::new(ServiceKind::Actor, "extract", fetched_at, t, ctx)
                    .bytes(bytes.len() as u64)
            });
            self.totals.borrow_mut().extraction_micros += extraction.micros();
            let mut uuids = UuidGen::for_document(&uri);
            let mut per_table: HashMap<&'static str, Vec<KvItem>> = HashMap::new();
            for e in entries.iter() {
                per_table
                    .entry(e.table)
                    .or_default()
                    .extend(amada_index::store::encode_entry(e, &profile, &mut uuids));
            }
            tables = partition_tables(strategy, home);
            for &table in &tables {
                if let Some(table_items) = per_table.remove(table) {
                    items += table_items.len() as u64;
                    for chunk in table_items.chunks(profile.batch_put_limit) {
                        batches.push_back((table, chunk.to_vec()));
                    }
                }
            }
        }
        // If this URI replaced an indexed version, the keys its old
        // versions held but the current one does not must be deleted
        // after the writes land. The registry entry stays in place until
        // the deletes complete, so a crash or abandon retries them on
        // redelivery (idempotently).
        let mut deletes = VecDeque::new();
        let stale: Vec<ItemKey> = match self.retractions.borrow().get(&uri) {
            None => Vec::new(),
            Some(old) => {
                let mut fresh: BTreeSet<ItemKey> = BTreeSet::new();
                for (table, batch) in &batches {
                    for item in batch {
                        fresh.insert((*table, item.hash_key.clone(), item.range_key.clone()));
                    }
                }
                old.iter()
                    .filter(|k| !fresh.contains(*k))
                    .cloned()
                    .collect()
            }
        };
        if stale.is_empty() {
            // An identical or purely-growing rewrite leaves nothing to
            // retract; drop the registry entry now.
            self.retractions.borrow_mut().remove(&uri);
        } else {
            let mut per_table: BTreeMap<&'static str, Vec<(String, String)>> = BTreeMap::new();
            for (table, hash, range) in stale {
                per_table.entry(table).or_default().push((hash, range));
            }
            // The current placement's tables keep the strategy's own
            // order (2LUPI: path, then ID); stale keys a migration left
            // in the previous placement's tables follow in name order.
            for &table in per_table.keys() {
                if !tables.contains(&table) {
                    tables.push(table);
                }
            }
            for table in tables {
                if let Some(keys) = per_table.remove(table) {
                    for chunk in keys.chunks(profile.batch_put_limit) {
                        deletes.push_back((table, chunk.to_vec()));
                    }
                }
            }
        }
        lease.keep_alive(&mut world.sqs, t);
        self.state = LoaderState::Uploading {
            lease,
            uri,
            batches,
            deletes,
            entries: entry_count,
            items,
            entry_bytes,
        };
        StepResult::NextAt(t)
    }

    /// Step 6: submit the document's remaining batches *at once* (the
    /// paper's uploader is multi-threaded per instance, so batch writes
    /// are in flight concurrently); the store's capacity queue serializes
    /// them, and the core proceeds when the last acknowledgement arrives.
    /// Submitting at one arrival time also keeps concurrent cores' writes
    /// interleaved at their true virtual times. A throttled batch pauses
    /// the burst; the remaining batches are resubmitted after backoff.
    #[allow(clippy::too_many_arguments)]
    fn step_uploading(
        &mut self,
        now: SimTime,
        world: &mut World,
        mut lease: Lease,
        uri: String,
        mut batches: VecDeque<(&'static str, Vec<KvItem>)>,
        deletes: VecDeque<(&'static str, Vec<(String, String)>)>,
        entries: u64,
        items: u64,
        entry_bytes: u64,
    ) -> StepResult {
        lease.keep_alive(&mut world.sqs, now);
        let retryable = world.kv.faults_active();
        let mut last = now;
        let mut throttled_at: Option<SimTime> = None;
        while let Some((table, batch)) = batches.pop_front() {
            if self
                .crash_after_batches
                .is_some_and(|n| self.batches_written >= n)
            {
                // Mid-upload crash: the batches already written stay in
                // the store; the lease expires and the document is
                // redelivered. Bill the uptime this step consumed.
                world.ec2.extend(self.instance, last);
                world
                    .obs
                    .record(|_, ctx| Span::new(ServiceKind::Actor, "crash", now, last, ctx));
                return StepResult::Done;
            }
            let res = if retryable {
                // Keep a retry copy only when the store can actually
                // throttle; fault-free runs move the batch without copying.
                match world.kv.batch_put(now, table, batch.clone()) {
                    Err(KvError::Throttled { available_at }) => {
                        batches.push_front((table, batch));
                        throttled_at = Some(available_at);
                        break;
                    }
                    other => other,
                }
            } else {
                world.kv.batch_put(now, table, batch)
            };
            let done = res.expect("index entries fit the store limits");
            self.batches_written += 1;
            last = last.max(done);
        }
        if let Some(available_at) = throttled_at {
            self.attempt += 1;
            if self.attempt > self.policy.max_attempts {
                // Abandon the document; redelivery will rewrite it
                // idempotently (deterministic range keys).
                self.attempt = 0;
                self.totals.borrow_mut().upload_micros += (last.max(available_at) - now).micros();
                self.state = LoaderState::Idle;
                return StepResult::NextAt(available_at + self.poll);
            }
            let resume = available_at + self.policy.backoff(self.attempt, &mut self.rng);
            self.totals.borrow_mut().upload_micros += (resume - now).micros();
            lease.keep_alive(&mut world.sqs, resume);
            self.state = LoaderState::Uploading {
                lease,
                uri,
                batches,
                deletes,
                entries,
                items,
                entry_bytes,
            };
            return StepResult::NextAt(resume);
        }
        self.attempt = 0;
        world.obs.record(|_, ctx| {
            Span::new(ServiceKind::Actor, "upload", now, last, ctx).bytes(entry_bytes)
        });
        let mut tot = self.totals.borrow_mut();
        tot.upload_micros += (last - now).micros();
        tot.docs += 1;
        tot.entries += entries;
        tot.items += items;
        tot.entry_bytes += entry_bytes;
        drop(tot);
        lease.keep_alive(&mut world.sqs, last);
        self.state = if deletes.is_empty() {
            LoaderState::Finishing { lease }
        } else {
            LoaderState::Retracting {
                lease,
                uri,
                deletes,
            }
        };
        StepResult::NextAt(last)
    }

    /// Retraction: delete the replaced version's stale items, with the
    /// same burst-submit / throttle-backoff / abandon discipline as the
    /// writes. Runs strictly *after* the new version's items landed, so
    /// every key stays readable throughout; the registry entry is cleared
    /// only once every delete succeeded, so a crash (`crash_after_batches`
    /// also counts delete batches) or abandon retries the retraction on
    /// redelivery.
    fn step_retracting(
        &mut self,
        now: SimTime,
        world: &mut World,
        mut lease: Lease,
        uri: String,
        mut deletes: VecDeque<(&'static str, Vec<(String, String)>)>,
    ) -> StepResult {
        lease.keep_alive(&mut world.sqs, now);
        let mut last = now;
        let mut removed = 0u64;
        let mut throttled_at: Option<SimTime> = None;
        while let Some((table, keys)) = deletes.pop_front() {
            if self
                .crash_after_batches
                .is_some_and(|n| self.batches_written >= n)
            {
                world.ec2.extend(self.instance, last);
                world
                    .obs
                    .record(|_, ctx| Span::new(ServiceKind::Actor, "crash", now, last, ctx));
                return StepResult::Done;
            }
            match world.kv.batch_delete(now, table, &keys) {
                Err(KvError::Throttled { available_at }) => {
                    deletes.push_front((table, keys));
                    throttled_at = Some(available_at);
                    break;
                }
                other => {
                    let done = other.expect("stale-key deletes fit the store limits");
                    removed += keys.len() as u64;
                    self.batches_written += 1;
                    last = last.max(done);
                }
            }
        }
        self.totals.borrow_mut().retracted_items += removed;
        if let Some(available_at) = throttled_at {
            self.attempt += 1;
            if self.attempt > self.policy.max_attempts {
                // Abandon: the registry entry is still in place, so the
                // redelivered message recomputes and reissues the
                // remaining deletes (reissuing completed ones would be
                // harmless too — deletes are idempotent).
                self.attempt = 0;
                self.totals.borrow_mut().upload_micros += (last.max(available_at) - now).micros();
                self.state = LoaderState::Idle;
                return StepResult::NextAt(available_at + self.poll);
            }
            let resume = available_at + self.policy.backoff(self.attempt, &mut self.rng);
            self.totals.borrow_mut().upload_micros += (resume - now).micros();
            lease.keep_alive(&mut world.sqs, resume);
            self.state = LoaderState::Retracting {
                lease,
                uri,
                deletes,
            };
            return StepResult::NextAt(resume);
        }
        self.attempt = 0;
        self.retractions.borrow_mut().remove(&uri);
        world
            .obs
            .record(|_, ctx| Span::new(ServiceKind::Actor, "retract", now, last, ctx));
        self.totals.borrow_mut().upload_micros += (last - now).micros();
        lease.keep_alive(&mut world.sqs, last);
        self.state = LoaderState::Finishing { lease };
        StepResult::NextAt(last)
    }

    /// Commit: delete the task message (unbounded retry — the document is
    /// fully indexed; losing the delete would cause a duplicate rewrite).
    fn step_finishing(&mut self, now: SimTime, world: &mut World, mut lease: Lease) -> StepResult {
        lease.keep_alive(&mut world.sqs, now);
        let t = delete_with_retry(
            &mut world.sqs,
            &self.policy,
            &mut self.rng,
            now,
            LOADER_QUEUE,
            lease.msg_id,
        );
        self.state = LoaderState::Idle;
        StepResult::NextAt(t)
    }
}

impl Actor for LoaderCore {
    fn step(&mut self, now: SimTime, world: &mut World) -> StepResult {
        let state = std::mem::replace(&mut self.state, LoaderState::Idle);
        world.obs.with_ctx(|c| {
            c.phase = Phase::Build;
            c.query = None;
            c.doc = match &state {
                LoaderState::Fetching { uri, .. }
                | LoaderState::Uploading { uri, .. }
                | LoaderState::Retracting { uri, .. } => Some(uri.as_str().into()),
                _ => None,
            };
            c.actor = Some(ActorTag {
                kind: "loader",
                instance: self.instance.0,
            });
        });
        let result = match state {
            LoaderState::Idle => self.step_idle(now, world),
            LoaderState::Fetching { lease, uri } => self.step_fetching(now, world, lease, uri),
            LoaderState::Uploading {
                lease,
                uri,
                batches,
                deletes,
                entries,
                items,
                entry_bytes,
            } => self.step_uploading(
                now,
                world,
                lease,
                uri,
                batches,
                deletes,
                entries,
                items,
                entry_bytes,
            ),
            LoaderState::Retracting {
                lease,
                uri,
                deletes,
            } => self.step_retracting(now, world, lease, uri, deletes),
            LoaderState::Finishing { lease } => self.step_finishing(now, world, lease),
        };
        if let StepResult::NextAt(t) = result {
            world.ec2.extend(self.instance, t);
        }
        result
    }
}

/// A query-processor instance (the whole instance: the transfer/eval phase
/// is divided across its cores, per the paper's intra-machine
/// parallelism).
pub struct QueryCore {
    /// The instance (for uptime billing).
    pub instance: InstanceId,
    /// Cores on the instance.
    pub cores: usize,
    /// Compute rating per core.
    pub ecu: f64,
    /// The routing plan: look-ups union each indexed home's own-strategy
    /// answer with scans of the unindexed routes' documents. The empty
    /// plan is the no-index baseline that scans the whole corpus; the
    /// uniform LUP-PD plan fetches candidates by storage-side scans.
    pub plan: Rc<MixedPlan>,
    /// The front end's partition catalog — every partition holding live
    /// documents, known from its own upload records (free host-side
    /// metadata, like the plan). A fully indexed plan fans its look-ups
    /// out over these instead of paying the billed corpus LIST.
    pub partitions: Rc<BTreeSet<String>>,
    /// Extraction options (must match how the index was built).
    pub opts: ExtractOptions,
    /// Host document cache.
    pub cache: DocCache,
    /// Message lease duration.
    pub visibility: SimDuration,
    /// Idle poll interval.
    pub poll: SimDuration,
    /// Completed executions (shared with the warehouse).
    pub executions: Rc<RefCell<Vec<QueryExecution>>>,
    /// Retry/backoff/dead-letter policy.
    pub policy: RetryPolicy,
    /// Backoff-jitter stream (only drawn from on a retry).
    pub rng: StdRng,
    /// Fault injection: crash after this many messages.
    pub crash_after: Option<u32>,
    /// Messages fully processed so far.
    pub processed: u32,
    /// Consecutive throttles of the current operation.
    pub attempt: u32,
    /// Autoscaling drain signal (`None` for a static pool). A query
    /// processor holds no lease between steps, so a draining one exits at
    /// its next wake-up — the query it was mid-way through (if any) was
    /// completed within the previous step.
    pub drain: Option<DrainSignal>,
}

impl QueryCore {
    /// Builds one actor per query-pool instance, routing by `plan` over
    /// the front end's partition catalog.
    pub fn pool(
        cfg: &WarehouseConfig,
        world: &mut World,
        now: SimTime,
        plan: &Rc<MixedPlan>,
        partitions: &Rc<BTreeSet<String>>,
        executions: &Rc<RefCell<Vec<QueryExecution>>>,
        cache: &DocCache,
    ) -> Vec<QueryCore> {
        (0..cfg.query_pool.count)
            .map(|i| QueryCore {
                instance: world.ec2.launch(cfg.query_pool.itype, now),
                cores: cfg.query_pool.itype.cores(),
                ecu: cfg.query_pool.itype.ecu_per_core(),
                plan: plan.clone(),
                partitions: partitions.clone(),
                opts: cfg.extract,
                cache: cache.clone(),
                visibility: cfg.visibility,
                poll: cfg.poll_interval,
                executions: executions.clone(),
                policy: cfg.retry,
                rng: StdRng::seed_from_u64(cfg.faults.seed ^ (QUERY_RNG_TAG + i as u64)),
                crash_after: None,
                processed: 0,
                attempt: 0,
                drain: None,
            })
            .collect()
    }

    /// Exits the processor: an autoscaled member reports to its drain
    /// signal (freezing the instance's billing window — a query instance
    /// has exactly one actor); a static one just bills its uptime.
    fn exit(&self, world: &mut World, t: SimTime) -> StepResult {
        match &self.drain {
            Some(d) => d.core_exited(world, t),
            None => world.ec2.extend(self.instance, t),
        }
        StepResult::Done
    }

    /// Executes one query message. Returns `Ok(completion time)`, or
    /// `Err(resume time)` when a pre-commit retry budget was exhausted and
    /// the task was abandoned (no execution recorded; the lease expires
    /// and the message is redelivered).
    fn process(
        &mut self,
        msg_id: u64,
        body: &str,
        t0: SimTime,
        world: &mut World,
        lease: &mut Lease,
    ) -> Result<SimTime, SimTime> {
        let (name, text) = body
            .split_once('\n')
            .expect("query messages carry name\\nquery");
        let query: Query = parse_query(text).expect("stored queries are well-formed");
        world.obs.with_ctx(|c| c.query = Some(name.into()));

        // Phase 1+2: index look-up and plan execution (step 10–12).
        let mut phases = QueryPhases::default();
        let mut t = t0;
        let get_ops_before = world.kv.stats().get_ops;
        // A throttle aborts the look-up mid-flight; the whole look-up is
        // retried (every aborted get stays billed).
        let lookup = loop {
            // The corpus listing enumerates the scan routes' documents.
            // `list` is never throttled but is billed like a GET
            // (LIST-class request), so a fully indexed plan — which can
            // never route a query to the scan path — skips it instead of
            // paying one billed request per arrival for a listing it
            // would throw away; its look-ups fan out over the partition
            // catalog instead.
            let corpus = if self.plan.fully_indexed() {
                Vec::new()
            } else {
                world
                    .s3
                    .list(t, DOC_BUCKET)
                    .expect("document bucket exists")
            };
            let res = lookup_mixed(
                world.kv.as_mut(),
                t,
                &self.plan,
                self.opts,
                &query,
                &corpus,
                &self.partitions,
            );
            match res {
                Ok(lookup) => break lookup,
                Err(KvError::Throttled { available_at }) => {
                    self.attempt += 1;
                    if self.attempt > self.policy.max_attempts {
                        self.attempt = 0;
                        return Err(available_at);
                    }
                    let resume = available_at + self.policy.backoff(self.attempt, &mut self.rng);
                    lease.keep_alive(&mut world.sqs, resume);
                    t = resume;
                }
                Err(e) => panic!("index look-up succeeds: {e}"),
            }
        };
        self.attempt = 0;
        // A plan that indexes nothing has no look-up phase: every pattern
        // is evaluated on every document.
        if self.plan.indexes_anything() {
            let t_get = lookup.ready_at();
            phases.lookup_get = t_get - t;
            let plan = world.work.plan(lookup.entries_processed(), self.ecu);
            phases.plan = plan;
            let t_lookup = t;
            world
                .obs
                .record(|_, ctx| Span::new(ServiceKind::Actor, "lookup_get", t_lookup, t_get, ctx));
            world
                .obs
                .record(|_, ctx| Span::new(ServiceKind::Actor, "plan", t_get, t_get + plan, ctx));
            t = t_get + plan;
        }
        let docs_from_index = lookup.total_doc_ids;
        // `|op(q, D, I)|` counts billed ops, throttled retries included.
        let index_get_ops = world.kv.stats().get_ops - get_ops_before;
        // Per pattern: the candidate documents to evaluate it on.
        let per_pattern_uris: Vec<Vec<String>> =
            lookup.per_pattern.into_iter().map(|o| o.uris).collect();

        // Phase 3: transfer candidate documents and evaluate (steps 13–14).
        // Work is accumulated serially and divided across the cores;
        // retry waits are serial work like the transfers they delay.
        let mut serial = SimDuration::ZERO;
        let mut fetched: BTreeSet<&String> = BTreeSet::new();
        // Per pattern, one shared evaluation per candidate document (one
        // per pattern under pushdown); the join reads them in place.
        let mut evaluations: Vec<Vec<Arc<Evaluation>>> = Vec::with_capacity(query.patterns.len());
        if self.plan.pushdown() {
            // Pushdown: the post-filter runs *inside* the store. Each
            // candidate is scanned (per pattern — the predicate differs),
            // only the matching tuples travel back, and the instance never
            // parses or evaluates the document — that work is what the
            // per-GB scan charge buys.
            for (p, uris) in query.patterns.iter().zip(&per_pattern_uris) {
                // Compiling round-trips the predicate through its wire
                // form once per pattern, exactly what ships to the store.
                let pred = ScanPredicate::compile(p);
                let mut tuples = Vec::new();
                for uri in uris {
                    fetched.insert(uri);
                    let (bytes, resp) = loop {
                        match world.s3.scan(t, DOC_BUCKET, uri, &pred) {
                            Ok(out) => break out,
                            Err(S3Error::SlowDown { available_at }) => {
                                self.attempt += 1;
                                if self.attempt > self.policy.max_attempts {
                                    self.attempt = 0;
                                    return Err(available_at);
                                }
                                serial += (available_at - t)
                                    + self.policy.backoff(self.attempt, &mut self.rng);
                            }
                            Err(e) => panic!("candidate documents exist: {e}"),
                        }
                    };
                    self.attempt = 0;
                    serial += resp - t;
                    tuples.extend(
                        decode_tuples(&bytes, uri).expect("store-encoded scan results decode"),
                    );
                }
                evaluations.push(vec![Arc::new((tuples, EvalStats::default()))]);
            }
        } else {
            let mut objects = HashMap::new();
            for uris in &per_pattern_uris {
                for uri in uris {
                    if !fetched.insert(uri) {
                        continue;
                    }
                    let (bytes, resp) = loop {
                        match world.s3.get(t, DOC_BUCKET, uri) {
                            Ok(out) => break out,
                            Err(S3Error::SlowDown { available_at }) => {
                                self.attempt += 1;
                                if self.attempt > self.policy.max_attempts {
                                    self.attempt = 0;
                                    return Err(available_at);
                                }
                                serial += (available_at - t)
                                    + self.policy.backoff(self.attempt, &mut self.rng);
                            }
                            Err(e) => panic!("candidate documents exist: {e}"),
                        }
                    };
                    self.attempt = 0;
                    serial += resp - t;
                    serial += world.work.parse(bytes.len() as u64, self.ecu);
                    objects.insert(uri, bytes);
                }
            }
            // The evaluations are memoized on the host; each one is still
            // charged its full virtual cost.
            for (p, uris) in query.patterns.iter().zip(&per_pattern_uris) {
                let key = PatternKey::new(p);
                let evals: Vec<Arc<Evaluation>> = uris
                    .iter()
                    .map(|uri| self.cache.evaluated(uri, &objects[uri], &key))
                    .collect();
                for e in &evals {
                    serial += world.work.eval(e.1.candidates, self.ecu);
                }
                evaluations.push(evals);
            }
        }
        let per_pattern: Vec<Vec<&Tuple>> = evaluations
            .iter()
            .map(|evals| evals.iter().flat_map(|e| &e.0).collect())
            .collect();
        let tuple_count: u64 = per_pattern.iter().map(|v| v.len() as u64).sum();
        let results = join_pattern_results(&query, &per_pattern);
        serial += world.work.plan(tuple_count, self.ecu);
        // `|r(q)|` is the size of the materialized result object — the
        // same bytes stored in the file store and later egressed.
        let mut payload = String::new();
        for r in &results {
            payload.push_str(&r.columns.join("\t"));
            payload.push('\n');
        }
        let result_bytes = payload.len() as u64;
        serial += world.work.materialize(result_bytes, self.ecu);
        let wall = SimDuration::from_micros(serial.micros() / self.cores as u64);
        phases.transfer_eval = wall;
        let t_eval = t;
        world.obs.record(|_, ctx| {
            Span::new(
                ServiceKind::Actor,
                "transfer_eval",
                t_eval,
                t_eval + wall,
                ctx,
            )
            .bytes(result_bytes)
        });
        t = t + wall;
        lease.keep_alive(&mut world.sqs, t);

        // Step 14–15: store results, respond, delete the task message.
        // These are the commit: the work is done, so every operation
        // retries without bound — completing twice (via redelivery) would
        // duplicate the response, whereas extra retries only cost money.
        let result_key = format!("{name}-{msg_id}.results");
        let payload = payload.into_bytes();
        let t = {
            let mut t = t;
            let mut attempt = 0u32;
            loop {
                match world.s3.put(t, RESULT_BUCKET, &result_key, payload.clone()) {
                    Ok(done) => break done,
                    Err(S3Error::SlowDown { available_at }) => {
                        attempt = (attempt + 1).min(self.policy.max_attempts);
                        t = available_at + self.policy.backoff(attempt, &mut self.rng);
                    }
                    Err(e) => panic!("result bucket exists: {e}"),
                }
            }
        };
        let t = send_with_retry(
            &mut world.sqs,
            &self.policy,
            &mut self.rng,
            t,
            RESPONSE_QUEUE,
            result_key,
        );
        let t_done = delete_with_retry(
            &mut world.sqs,
            &self.policy,
            &mut self.rng,
            t,
            QUERY_QUEUE,
            msg_id,
        );

        let docs_with_results: BTreeSet<&str> = results
            .iter()
            .flat_map(|r| r.uris.iter().map(|u| &**u))
            .collect();
        self.executions.borrow_mut().push(QueryExecution {
            name: name.to_string(),
            response_time: t_done - t0,
            phases,
            docs_from_index,
            docs_fetched: fetched.len(),
            docs_with_results: docs_with_results.len(),
            result_bytes,
            results,
            index_get_ops,
        });
        Ok(t_done)
    }
}

impl Actor for QueryCore {
    fn step(&mut self, now: SimTime, world: &mut World) -> StepResult {
        world.obs.with_ctx(|c| {
            c.phase = Phase::Query;
            c.query = None;
            c.doc = None;
            c.actor = Some(ActorTag {
                kind: "query",
                instance: self.instance.0,
            });
        });
        if self.drain.as_ref().is_some_and(|d| d.is_draining()) {
            return self.exit(world, now);
        }
        let (msg, t) = match world.sqs.receive(now, QUERY_QUEUE, self.visibility) {
            Ok(out) => out,
            Err(SqsError::Throttled { available_at }) => {
                self.attempt = (self.attempt + 1).min(self.policy.max_attempts);
                let resume = available_at + self.policy.backoff(self.attempt, &mut self.rng);
                world.ec2.extend(self.instance, available_at);
                return StepResult::NextAt(resume);
            }
            Err(e) => panic!("query queue exists: {e}"),
        };
        self.attempt = 0;
        let Some(msg) = msg else {
            if world.sqs.drained(QUERY_QUEUE).expect("query queue exists") {
                return self.exit(world, t);
            }
            world.ec2.extend(self.instance, t);
            return StepResult::NextAt(t + self.poll);
        };
        if self.crash_after.is_some_and(|n| self.processed >= n) {
            // The instance was up for the final receive — bill it.
            world.ec2.extend(self.instance, t);
            world
                .obs
                .record(|_, ctx| Span::new(ServiceKind::Actor, "crash", now, t, ctx));
            return StepResult::Done;
        }
        if msg.receive_count > self.policy.max_receives {
            let t = send_with_retry(
                &mut world.sqs,
                &self.policy,
                &mut self.rng,
                t,
                DEAD_LETTER_QUEUE,
                msg.body,
            );
            let t = delete_with_retry(
                &mut world.sqs,
                &self.policy,
                &mut self.rng,
                t,
                QUERY_QUEUE,
                msg.id,
            );
            world.ec2.extend(self.instance, t);
            return StepResult::NextAt(t);
        }
        self.processed += 1;
        let mut lease = Lease::new(QUERY_QUEUE, msg.id, self.visibility, now);
        match self.process(msg.id, &msg.body.clone(), t, world, &mut lease) {
            Ok(t_done) => {
                world.ec2.extend(self.instance, t_done);
                StepResult::NextAt(t_done)
            }
            Err(resume) => {
                // Abandoned: the lease expires on its own and the message
                // is redelivered (to this instance or another).
                let resume = resume + self.poll;
                world.ec2.extend(self.instance, resume);
                StepResult::NextAt(resume)
            }
        }
    }
}
