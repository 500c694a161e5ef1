//! The session registry: long-lived, fingerprint-sharded workload state.
//!
//! Every `select` request names a dataset (CSV text) and a tester
//! configuration. The registry maps the pair to a [`Workload`] holding the
//! train/test split, one shared [`EncodedTable`], and one memoizing
//! [`CiSession`] — so concurrent and repeated requests from many clients
//! share a single encode pass and a single CI-outcome dedup cache, which
//! is the whole point of running `fairsel serve` instead of one process
//! per request.
//!
//! Sharding is by *dataset fingerprint* (a stable hash of the schema and
//! every column's data) mixed with the split and tester knobs that define
//! the session's ground truth (`seed`, `train_frac`, tester, `alpha`).
//! Knobs that provably do not change CI outcomes — algorithm, worker
//! count, `max_group`, classifier — deliberately do *not* shard: a
//! `seqsel` request warms the cache for a later `grpsel` request on the
//! same data, exactly like the cross-algorithm dedup the engine property
//! tests establish.
//!
//! The registry itself is LRU-bounded (`max_datasets`), and each
//! workload's encoding caches are bounded by `cache_cap` — both with
//! eviction counters surfaced in the response telemetry.

use crate::proto::{CacheInfo, DatasetRef, MaxGroupSpec, WorkloadRequest};
use fairsel_ci::{CiTestBatch, FisherZ, GTest};
use fairsel_core::{
    render_methods_report, render_pipeline_report, run_all_methods_in, run_pipeline_batched_in,
    ClassifierKind, PipelineConfig, Problem, SelectConfig, SelectionAlgo,
};
use fairsel_engine::CiSession;
use fairsel_obs::TrackedMutex;
use fairsel_table::{csv, ColumnData, EncodedTable, Table};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Stable FNV-1a-with-finalizer hasher (the same construction the
/// testers' per-query seeds use; independent of `std`'s randomized
/// `HashMap` state, so fingerprints agree across processes and runs).
#[derive(Clone, Copy)]
pub struct StableHash(u64);

impl StableHash {
    pub fn new() -> Self {
        StableHash(0xcbf2_9ce4_8422_2325)
    }

    pub fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.byte(b);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        let mut h = self.0;
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 31)
    }
}

impl Default for StableHash {
    fn default() -> Self {
        Self::new()
    }
}

/// Fingerprint of a table: schema (names, roles, types) plus every
/// column's raw data. Two tables fingerprint equal iff a CI tester cannot
/// tell them apart.
pub fn fingerprint_table(table: &Table) -> u64 {
    let mut h = StableHash::new();
    h.bytes(table.schema_string().as_bytes());
    h.u64(table.n_rows() as u64);
    for col in table.columns() {
        match &col.data {
            ColumnData::Cat { codes, arity } => {
                h.u64(*arity as u64);
                for &c in codes {
                    h.u64(c as u64);
                }
            }
            ColumnData::Num(values) => {
                for &v in values {
                    h.u64(v.to_bits());
                }
            }
        }
    }
    h.finish()
}

/// The session type every workload holds: a boxed batch tester behind
/// the engine's memoizing executor.
pub type BoxedSession = CiSession<Box<dyn CiTestBatch + Send + Sync>>;

/// One resident workload: split tables, shared encoding layer, memoizing
/// session.
pub struct Workload {
    pub train: Arc<Table>,
    pub test: Table,
    pub enc: Arc<EncodedTable>,
    pub session: CiSession<Box<dyn CiTestBatch + Send + Sync>>,
    pub fingerprint: u64,
    pub sessions_served: u64,
    /// True when the row-stable split degenerated to a prefix cut
    /// ([`fairsel_table::StableSplit::fallback`]) — the prefix property
    /// does not hold then, so this workload cannot seed a warm child.
    pub split_fallback: bool,
}

struct Slot {
    state: Arc<TrackedMutex<Workload>>,
    last_used: u64,
}

/// Registry configuration.
#[derive(Clone, Copy, Debug)]
pub struct RegistryConfig {
    /// Bound on each workload's encoding/residual caches
    /// (`EncodedTable::from_arc_with_cap`).
    pub cache_cap: usize,
    /// Bound on resident dataset workloads (LRU eviction beyond it).
    pub max_datasets: usize,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        Self {
            cache_cap: fairsel_table::DEFAULT_CACHE_CAP,
            max_datasets: 16,
        }
    }
}

/// A dataset uploaded via `put`, addressable by fingerprint.
struct PutSlot {
    table: Arc<Table>,
    last_used: u64,
}

/// The fingerprint-sharded workload registry.
pub struct Registry {
    // analyze: bounded-by LRU-evicted at cfg.max_sessions by get_or_insert
    slots: TrackedMutex<HashMap<u64, Slot>>,
    /// Uploaded raw tables, keyed by dataset fingerprint — what `select`
    /// / `methods` requests with `{"fp":...}` resolve against. Bounded
    /// like the workload slots.
    // analyze: bounded-by LRU-evicted at cfg.max_puts by put_table
    puts: TrackedMutex<HashMap<u64, PutSlot>>,
    /// Append lineage: child fingerprint → parent fingerprint. When a
    /// workload for a child dataset is first requested, a resident parent
    /// workload (same tester knobs) seeds it warm — the parent session's
    /// scaffolds are *extended* over the appended rows instead of
    /// rebuilt. Unbounded by design: an entry is two u64s, and keeping
    /// lineage past put-store eviction lets a long append chain stay warm
    /// end to end.
    // analyze: bounded-by two u64s per append event; see doc comment for the retention rationale
    lineage: TrackedMutex<HashMap<u64, u64>>,
    cfg: RegistryConfig,
    tick: AtomicU64,
    requests: AtomicU64,
    evictions: AtomicU64,
    put_evictions: AtomicU64,
    warm_children: AtomicU64,
    /// Cumulative memo-ledger totals across every warm-child birth:
    /// parent outcomes re-derived by sufficient-statistic patching vs
    /// invalidated for on-demand re-issue.
    memo_patched: AtomicU64,
    memo_invalidated: AtomicU64,
}

impl Registry {
    pub fn new(cfg: RegistryConfig) -> Self {
        Self {
            slots: TrackedMutex::new("server.registry.slots", HashMap::new()),
            puts: TrackedMutex::new("server.registry.puts", HashMap::new()),
            lineage: TrackedMutex::new("server.registry.lineage", HashMap::new()),
            cfg,
            tick: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            put_evictions: AtomicU64::new(0),
            warm_children: AtomicU64::new(0),
            memo_patched: AtomicU64::new(0),
            memo_invalidated: AtomicU64::new(0),
        }
    }

    /// Resident workload count.
    pub fn resident(&self) -> usize {
        self.slots.lock().len()
    }

    /// Resident uploaded-dataset count.
    pub fn resident_puts(&self) -> usize {
        self.puts.lock().len()
    }

    /// Total workload requests served.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Workloads evicted by the LRU bound so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Uploaded datasets evicted by the LRU bound so far.
    pub fn put_evictions(&self) -> u64 {
        self.put_evictions.load(Ordering::Relaxed)
    }

    /// Workload sessions born warm from a parent via append lineage.
    pub fn warm_children(&self) -> u64 {
        self.warm_children.load(Ordering::Relaxed)
    }

    /// Total memoized outcomes patched in place across warm-child births.
    pub fn memo_patched(&self) -> u64 {
        self.memo_patched.load(Ordering::Relaxed)
    }

    /// Total memoized outcomes invalidated across warm-child births.
    pub fn memo_invalidated(&self) -> u64 {
        self.memo_invalidated.load(Ordering::Relaxed)
    }

    /// The recorded append parent of `child_fp`, if any.
    pub fn parent_of(&self, child_fp: u64) -> Option<u64> {
        self.lineage.lock().get(&child_fp).copied()
    }

    /// Streaming append: extend the dataset fingerprinted `fp` with a row
    /// batch, producing a *child* dataset addressable by its own
    /// fingerprint. The child is stored in the put store like any upload,
    /// and the parent→child lineage is recorded so the first workload
    /// session built on the child is born warm from a resident parent
    /// session. Returns `(child fingerprint, child row count)`.
    ///
    /// Fails clean (no state change) when the parent fingerprint is
    /// unknown or evicted, or when the batch's schema does not match —
    /// the same validation discipline as [`Table::concat`].
    pub fn append(&self, fp: u64, batch: Table) -> Result<(u64, usize), String> {
        if batch.n_rows() == 0 {
            return Err("append batch has no rows".into());
        }
        let parent = self.dataset(fp).ok_or_else(|| {
            format!(
                "unknown dataset fingerprint {fp:016x} \
                 (not uploaded, or evicted — put it again)"
            )
        })?;
        let child = parent
            .concat(&batch)
            .map_err(|e| format!("append batch rejected: {e}"))?;
        let rows = child.n_rows();
        let child_fp = self.put(child)?;
        if child_fp != fp {
            self.lineage.lock().insert(child_fp, fp);
        }
        Ok((child_fp, rows))
    }

    /// Store an uploaded dataset and return its fingerprint. Re-putting
    /// an identical table is a cheap no-op (same fingerprint, the first
    /// copy stays). The store is LRU-bounded by `max_datasets`.
    pub fn put(&self, table: Table) -> Result<u64, String> {
        if table.n_rows() < 10 {
            return Err(format!("too few rows ({})", table.n_rows()));
        }
        let fp = fingerprint_table(&table);
        let mut puts = self.puts.lock();
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = puts.get_mut(&fp) {
            slot.last_used = tick;
            return Ok(fp);
        }
        while puts.len() >= self.cfg.max_datasets {
            // Tie-break equal recency ticks by fingerprint so the evicted
            // victim never depends on hash iteration order.
            // analyze: unordered-ok min over the strict total order
            // (last_used, fp) is unique, so iteration order cannot leak.
            let victim = puts
                .iter()
                .min_by_key(|(k, s)| (s.last_used, **k))
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    puts.remove(&k);
                    self.put_evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
        puts.insert(
            fp,
            PutSlot {
                table: Arc::new(table),
                last_used: tick,
            },
        );
        Ok(fp)
    }

    /// Look up an uploaded dataset by fingerprint (touches its LRU slot).
    pub fn dataset(&self, fp: u64) -> Option<Arc<Table>> {
        let mut puts = self.puts.lock();
        let slot = puts.get_mut(&fp)?;
        slot.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
        Some(Arc::clone(&slot.table))
    }

    /// Resolve a workload's dataset reference to its fingerprint, plus
    /// the table itself when it traveled inline. A fingerprint reference
    /// resolves to `None` here: the table is only needed to *build* a
    /// workload session, so the put-store lookup is deferred to the
    /// session-miss path — a warm request against a resident session
    /// succeeds even after the put store evicted the raw table.
    fn resolve_fingerprint(
        &self,
        req: &WorkloadRequest,
    ) -> Result<(u64, Option<Arc<Table>>), String> {
        match &req.dataset {
            DatasetRef::Csv(text) => {
                let table = csv::from_csv_string(text).map_err(|e| format!("parsing csv: {e}"))?;
                if table.n_rows() < 10 {
                    return Err(format!("too few rows ({})", table.n_rows()));
                }
                let fp = fingerprint_table(&table);
                Ok((fp, Some(Arc::new(table))))
            }
            // `put` already validated the table (row floor included).
            DatasetRef::Fp(fp) => Ok((*fp, None)),
        }
    }

    /// Serve one `select` workload: resolve (or build) the shared session
    /// for the request's dataset + tester config, run the pipeline inside
    /// it, and return the rendered deterministic report plus telemetry.
    pub fn select(&self, req: &WorkloadRequest) -> Result<(String, String, CacheInfo), String> {
        let (fingerprint, table) = self.resolve_fingerprint(req)?;
        let key = self.workload_key(fingerprint, req);
        let state = self.get_or_insert(key, fingerprint, table, req)?;

        let mut guard = state.lock();
        let w = &mut *guard;
        let cfg = pipeline_config(req, w.train.n_rows())?;
        let train = Arc::clone(&w.train);
        let _sp = fairsel_obs::span_kv("registry.select", || {
            vec![("fingerprint", format!("{fingerprint:016x}"))]
        });
        let out = run_pipeline_batched_in(&mut w.session, &train, &w.test, &cfg);
        w.sessions_served += 1;
        self.requests.fetch_add(1, Ordering::Relaxed);
        let body = {
            let _sp = fairsel_obs::span("report.render");
            render_pipeline_report(&out, &w.train, &cfg, w.test.n_rows())
        };
        let stats_json = out.engine.to_json();
        let enc_stats = w.session.tester().encode_cache_stats();
        let cache = CacheInfo {
            fingerprint,
            sessions_served: w.sessions_served,
            shared_hits: out.engine.cache_hits,
            encode_hits: enc_stats.hits,
            encode_misses: enc_stats.misses,
            encode_evictions: enc_stats.evictions,
            dataset_evictions: self.evictions(),
        };
        Ok((body, stats_json, cache))
    }

    /// Serve one `methods` workload — the full baseline sweep (a-only /
    /// all / seqsel / grpsel / fair-pc) — **inside** the request's shared
    /// registry session, so the sweep shares the per-dataset CI-outcome
    /// dedup (and the Z-grouped batch path) with every other request:
    /// Fair-PC's marginal layer overlaps SeqSel's ∅-subset queries, GrpSel
    /// reuses SeqSel's singleton probes, and a warm repeat issues almost
    /// nothing. Per-method telemetry in the body therefore reports
    /// post-dedup costs.
    pub fn methods(&self, req: &WorkloadRequest) -> Result<(String, String, CacheInfo), String> {
        let (fingerprint, table) = self.resolve_fingerprint(req)?;
        let key = self.workload_key(fingerprint, req);
        let state = self.get_or_insert(key, fingerprint, table, req)?;

        let mut guard = state.lock();
        let w = &mut *guard;
        let cfg = pipeline_config(req, w.train.n_rows())?;
        let train = Arc::clone(&w.train);
        let _sp = fairsel_obs::span_kv("registry.methods", || {
            vec![("fingerprint", format!("{fingerprint:016x}"))]
        });
        let outs = run_all_methods_in(&mut w.session, &train, &w.test, &cfg);
        w.sessions_served += 1;
        self.requests.fetch_add(1, Ordering::Relaxed);
        let problem = Problem::from_table(&w.train);
        let body = {
            let _sp = fairsel_obs::span("report.render");
            render_methods_report(&outs, problem.n_features())
        };
        let stats_json = w.session.stats().to_json();
        let enc_stats = w.session.tester().encode_cache_stats();
        let cache = CacheInfo {
            fingerprint,
            sessions_served: w.sessions_served,
            shared_hits: w.session.stats().cache_hits,
            encode_hits: enc_stats.hits,
            encode_misses: enc_stats.misses,
            encode_evictions: enc_stats.evictions,
            dataset_evictions: self.evictions(),
        };
        Ok((body, stats_json, cache))
    }

    /// Session key: dataset fingerprint + the knobs that define the
    /// session's ground truth. See the module docs for what deliberately
    /// does *not* shard.
    fn workload_key(&self, fingerprint: u64, req: &WorkloadRequest) -> u64 {
        let mut h = StableHash::new();
        h.u64(fingerprint);
        h.bytes(req.tester.as_bytes());
        h.u64(req.alpha.to_bits());
        h.u64(req.train_frac.to_bits());
        h.u64(req.seed);
        h.finish()
    }

    /// Attempt to seed a child workload warm from a resident parent
    /// session recorded in the append lineage. The row-stable split's
    /// prefix property guarantees the child's train table is exactly the
    /// parent's train table followed by the appended train rows, so the
    /// parent's encodings and tester scaffolds can be *extended* over the
    /// suffix instead of rebuilt. Any missing precondition — no lineage,
    /// parent session not resident, parent built on a fallback split,
    /// tester declines extension, or no appended row landed in train —
    /// returns `None` and the caller builds cold (always correct, just
    /// slower).
    fn try_warm_child(
        &self,
        child_fp: u64,
        child_train: &Arc<Table>,
        req: &WorkloadRequest,
    ) -> Option<(Arc<EncodedTable>, BoxedSession)> {
        let parent_fp = self.parent_of(child_fp)?;
        let parent_key = self.workload_key(parent_fp, req);
        let parent_state = {
            let slots = self.slots.lock();
            Arc::clone(&slots.get(&parent_key)?.state)
        };
        let pw = parent_state.lock();
        if pw.split_fallback {
            return None;
        }
        let n_parent = pw.train.n_rows();
        let n_child = child_train.n_rows();
        if n_child <= n_parent {
            // No appended row landed on the train side (or something is
            // inconsistent) — nothing to extend over.
            return None;
        }
        // Times the extension itself: the batch copy, the encoding
        // extension and the session hand-off (its `engine.extend` child).
        let _sp = fairsel_obs::span_kv("session.warm_child", || {
            vec![
                ("fingerprint", format!("{child_fp:016x}")),
                ("parent", format!("{parent_fp:016x}")),
                ("appended_train_rows", (n_child - n_parent).to_string()),
            ]
        });
        let suffix: Vec<usize> = (n_parent..n_child).collect();
        let batch = child_train.take_rows(&suffix);
        let enc = Arc::new(pw.enc.extend(&batch).ok()?);
        let session = pw.session.extended_over(Arc::clone(&enc))?;
        // The child's birth stats carry the memo ledger: how many of the
        // parent's memoized outcomes were re-derived in O(batch) from
        // patched sufficient statistics vs invalidated for re-issue.
        let (patched, invalidated) = {
            let s = session.stats();
            (s.memo_patched, s.memo_invalidated)
        };
        self.memo_patched.fetch_add(patched, Ordering::Relaxed);
        self.memo_invalidated
            .fetch_add(invalidated, Ordering::Relaxed);
        Some((enc, session))
    }

    fn get_or_insert(
        &self,
        key: u64,
        fingerprint: u64,
        table: Option<Arc<Table>>,
        req: &WorkloadRequest,
    ) -> Result<Arc<TrackedMutex<Workload>>, String> {
        {
            let mut slots = self.slots.lock();
            if let Some(slot) = slots.get_mut(&key) {
                slot.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(&slot.state));
            }
        }
        // Session miss: only now is the raw table required — resolve a
        // fingerprint reference against the put store (the warm path
        // above never needs it, so an evicted upload does not invalidate
        // a resident session).
        let table = match table {
            Some(t) => t,
            None => self.dataset(fingerprint).ok_or_else(|| {
                format!(
                    "unknown dataset fingerprint {fingerprint:016x} \
                     (not uploaded, or evicted — put it again)"
                )
            })?,
        };
        // Cold path: build the workload with NO lock held — the train/test
        // split copies every column, which must not stall warm requests
        // for other datasets. Two racing cold requests may both build;
        // the publish step below keeps the first and discards the other
        // (the state is a pure function of the request, so either copy is
        // correct).
        let _sp = fairsel_obs::span_kv("session.build", || {
            vec![
                ("fingerprint", format!("{fingerprint:016x}")),
                ("rows", table.n_rows().to_string()),
            ]
        });
        // Row-stable split: membership depends only on (seed, row index),
        // so a dataset extended by append splits into exactly the parent's
        // split plus the new rows — the prefix property the warm-child
        // path below relies on.
        let split = table.split_rows_stable(req.seed, req.train_frac);
        let test = split.test;
        let mut train = Arc::new(split.train);
        let warm = if split.fallback {
            None
        } else {
            self.try_warm_child(fingerprint, &train, req)
        };
        let (enc, session) = match warm {
            Some((enc, session)) => {
                self.warm_children.fetch_add(1, Ordering::Relaxed);
                // The extended layer already holds the concatenated train
                // table (bit-identical to `train` by the prefix property);
                // share it instead of keeping two copies resident.
                train = Arc::clone(enc.table_arc());
                (enc, session)
            }
            None => {
                let enc = Arc::new(EncodedTable::from_arc_with_cap(
                    Arc::clone(&train),
                    self.cfg.cache_cap,
                ));
                let tester: Box<dyn CiTestBatch + Send + Sync> = match req.tester.as_str() {
                    "gtest" => Box::new(GTest::over(Arc::clone(&enc), req.alpha)),
                    "fisherz" => Box::new(FisherZ::over(Arc::clone(&enc), req.alpha)),
                    other => return Err(format!("unknown tester: {other} (gtest|fisherz)")),
                };
                (enc, CiSession::new(tester))
            }
        };
        let state = Arc::new(TrackedMutex::new(
            "server.registry.workload",
            Workload {
                train,
                test,
                enc,
                session,
                fingerprint,
                sessions_served: 0,
                split_fallback: split.fallback,
            },
        ));

        let mut slots = self.slots.lock();
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = slots.get_mut(&key) {
            // Lost the build race: keep the published workload (it may
            // already hold memoized outcomes).
            slot.last_used = tick;
            return Ok(Arc::clone(&slot.state));
        }
        while slots.len() >= self.cfg.max_datasets {
            // Tie-break equal recency ticks by key so the evicted victim
            // never depends on hash iteration order.
            // analyze: unordered-ok min over the strict total order
            // (last_used, key) is unique, so iteration order cannot leak.
            let victim = slots
                .iter()
                .min_by_key(|(k, s)| (s.last_used, **k))
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    slots.remove(&k);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
        slots.insert(
            key,
            Slot {
                state: Arc::clone(&state),
                last_used: tick,
            },
        );
        Ok(state)
    }
}

/// Translate a wire workload into the pipeline config a local CLI run
/// would build — field for field, so outputs are byte-identical.
pub fn pipeline_config(req: &WorkloadRequest, train_rows: usize) -> Result<PipelineConfig, String> {
    let algo = match req.algo.as_str() {
        "seqsel" => SelectionAlgo::SeqSel,
        "grpsel" => SelectionAlgo::GrpSel {
            seed: Some(req.seed),
        },
        other => return Err(format!("unknown algo: {other}")),
    };
    let classifier = ClassifierKind::parse(&req.classifier)
        .ok_or_else(|| format!("unknown classifier: {}", req.classifier))?;
    let max_group = match req.max_group {
        MaxGroupSpec::None => None,
        MaxGroupSpec::Auto => Some(SelectConfig::auto_max_group(train_rows)),
        MaxGroupSpec::Width(w) => Some(w),
    };
    Ok(PipelineConfig {
        select: SelectConfig {
            max_group,
            ..SelectConfig::default()
        },
        algo,
        classifier,
        workers: req.workers.max(1),
        model_seed: req.seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsel_table::{Column, Role};

    fn small_table(rows: usize, flip: bool) -> Table {
        Table::new(vec![
            Column::cat(
                "s",
                Role::Sensitive,
                (0..rows).map(|i| (i % 2) as u32).collect(),
                2,
            ),
            Column::cat(
                "x",
                Role::Feature,
                (0..rows)
                    .map(|i| ((i / 2 + usize::from(flip)) % 2) as u32)
                    .collect(),
                2,
            ),
            Column::cat(
                "y",
                Role::Target,
                (0..rows).map(|i| ((i / 4) % 2) as u32).collect(),
                2,
            ),
        ])
        .unwrap()
    }

    #[test]
    fn fingerprint_is_stable_and_data_sensitive() {
        let a = small_table(64, false);
        let b = small_table(64, false);
        let c = small_table(64, true);
        assert_eq!(fingerprint_table(&a), fingerprint_table(&b));
        assert_ne!(fingerprint_table(&a), fingerprint_table(&c));
        // Row count changes fingerprints too.
        assert_ne!(
            fingerprint_table(&a),
            fingerprint_table(&small_table(60, false))
        );
    }

    #[test]
    fn repeated_select_shares_session_and_reports_hits() {
        let reg = Registry::new(RegistryConfig::default());
        let req = WorkloadRequest::with_csv(csv::to_csv_string(&small_table(200, false)));
        let (body1, _, cache1) = reg.select(&req).unwrap();
        assert_eq!(cache1.sessions_served, 1);
        let (body2, _, cache2) = reg.select(&req).unwrap();
        assert_eq!(body1, body2, "warm request must be byte-identical");
        assert_eq!(cache2.sessions_served, 2);
        assert!(
            cache2.shared_hits > cache1.shared_hits,
            "warm request must hit the shared memo ({} !> {})",
            cache2.shared_hits,
            cache1.shared_hits
        );
        assert_eq!(cache1.fingerprint, cache2.fingerprint);
        assert_eq!(reg.requests(), 2);
        assert_eq!(reg.resident(), 1);
    }

    #[test]
    fn different_datasets_shard_and_evict_lru() {
        let reg = Registry::new(RegistryConfig {
            max_datasets: 2,
            ..Default::default()
        });
        for flip in [false, true] {
            let req = WorkloadRequest::with_csv(csv::to_csv_string(&small_table(
                120 + usize::from(flip) * 4,
                flip,
            )));
            reg.select(&req).unwrap();
        }
        assert_eq!(reg.resident(), 2);
        // A third dataset evicts the least-recently-used entry.
        let req = WorkloadRequest::with_csv(csv::to_csv_string(&small_table(240, false)));
        reg.select(&req).unwrap();
        assert_eq!(reg.resident(), 2);
        assert_eq!(reg.evictions(), 1);
    }

    #[test]
    fn algo_change_shares_the_session() {
        let reg = Registry::new(RegistryConfig::default());
        let base = WorkloadRequest {
            dataset: DatasetRef::Csv(csv::to_csv_string(&small_table(200, false))),
            algo: "grpsel".into(),
            ..Default::default()
        };
        reg.select(&base).unwrap();
        let seq = WorkloadRequest {
            algo: "seqsel".into(),
            ..base
        };
        let (_, _, cache) = reg.select(&seq).unwrap();
        assert_eq!(reg.resident(), 1, "algo must not shard the registry");
        assert!(cache.shared_hits > 0, "cross-algorithm dedup");
    }

    #[test]
    fn bad_requests_are_rejected() {
        let reg = Registry::new(RegistryConfig::default());
        let mut req = WorkloadRequest::with_csv("not a csv");
        assert!(reg.select(&req).is_err());
        req.dataset = DatasetRef::Csv(csv::to_csv_string(&small_table(200, false)));
        req.tester = "psychic".into();
        assert!(reg.select(&req).is_err());
        req.tester = "gtest".into();
        req.algo = "bogus".into();
        assert!(reg.select(&req).is_err());
    }

    /// A `put` followed by a fingerprint-addressed `select` is
    /// byte-identical to the same workload shipped as inline CSV — and
    /// both land in the *same* workload session, so either spelling
    /// warms the other.
    #[test]
    fn put_then_select_by_fp_matches_inline_csv() {
        let reg = Registry::new(RegistryConfig::default());
        let table = small_table(200, false);
        let csv_req = WorkloadRequest::with_csv(csv::to_csv_string(&table));
        let (csv_body, _, csv_cache) = reg.select(&csv_req).unwrap();

        let fp = reg.put(table).unwrap();
        assert_eq!(
            fp, csv_cache.fingerprint,
            "codec upload and CSV parse must fingerprint identically"
        );
        let fp_req = WorkloadRequest {
            dataset: DatasetRef::Fp(fp),
            ..Default::default()
        };
        let (fp_body, _, fp_cache) = reg.select(&fp_req).unwrap();
        assert_eq!(csv_body, fp_body, "fp-addressed select must be identical");
        assert_eq!(fp_cache.sessions_served, 2, "same session serves both");
        assert!(
            fp_cache.shared_hits > csv_cache.shared_hits,
            "the fp request is warm: the CSV request already paid the tests"
        );
        assert_eq!(reg.resident(), 1);
        assert_eq!(reg.resident_puts(), 1);
    }

    /// Regression: the put store and the workload slots evict
    /// independently; a warm fp-addressed request must be answered from
    /// the resident session even after the raw upload was evicted — the
    /// table is only needed to *build* a session, never to reuse one.
    #[test]
    fn warm_fp_request_survives_put_store_eviction() {
        let reg = Registry::new(RegistryConfig {
            max_datasets: 2,
            ..Default::default()
        });
        let fp_a = reg.put(small_table(200, false)).unwrap();
        let fp_req = |fp| WorkloadRequest {
            dataset: DatasetRef::Fp(fp),
            ..Default::default()
        };
        let (body_a, _, _) = reg.select(&fp_req(fp_a)).unwrap();

        // Evict A's upload (B and C fill the put store) …
        reg.put(small_table(124, true)).unwrap();
        reg.put(small_table(240, false)).unwrap();
        assert!(reg.dataset(fp_a).is_none(), "A's upload must be evicted");

        // … yet the warm request still succeeds, byte-identically, from
        // the resident session.
        let (body_warm, _, cache) = reg.select(&fp_req(fp_a)).unwrap();
        assert_eq!(body_a, body_warm);
        assert_eq!(cache.sessions_served, 2);
        assert!(cache.shared_hits > 0, "served from the warm session");

        // A *different* workload key on the evicted dataset (new split
        // seed ⇒ new session) genuinely needs the table and fails clean.
        let cold = WorkloadRequest {
            dataset: DatasetRef::Fp(fp_a),
            seed: 99,
            ..Default::default()
        };
        let err = reg.select(&cold).unwrap_err();
        assert!(err.contains("unknown dataset fingerprint"), "{err}");
    }

    #[test]
    fn unknown_fingerprint_is_a_clean_error() {
        let reg = Registry::new(RegistryConfig::default());
        let req = WorkloadRequest {
            dataset: DatasetRef::Fp(0xdead),
            ..Default::default()
        };
        let err = reg.select(&req).unwrap_err();
        assert!(err.contains("unknown dataset fingerprint"), "{err}");
    }

    /// The streaming-append tentpole, end to end at the registry layer:
    /// `put` a parent, warm its session, `append` a batch, and the first
    /// select on the child fingerprint is born warm from the parent's
    /// session — byte-identical to a cold run on the concatenated table.
    #[test]
    fn append_child_select_is_warm_and_byte_identical() {
        let reg = Registry::new(RegistryConfig::default());
        let parent = small_table(200, false);
        let batch = small_table(48, false);
        let concat = parent.concat(&batch).unwrap();

        let fp = reg.put(parent).unwrap();
        let fp_req = |fp| WorkloadRequest {
            dataset: DatasetRef::Fp(fp),
            ..Default::default()
        };
        // Warm the parent session so the child has something to extend.
        reg.select(&fp_req(fp)).unwrap();

        let (child_fp, rows) = reg.append(fp, batch).unwrap();
        assert_eq!(rows, 248);
        assert_ne!(child_fp, fp);
        assert_eq!(reg.parent_of(child_fp), Some(fp));
        assert_eq!(reg.warm_children(), 0, "no child session built yet");

        let (warm_body, warm_stats, warm_cache) = reg.select(&fp_req(child_fp)).unwrap();
        assert_eq!(warm_cache.fingerprint, child_fp);
        assert_eq!(
            reg.warm_children(),
            1,
            "child session must be born warm from the lineage parent"
        );
        assert!(
            warm_stats.contains("\"append_rows\":")
                && !warm_stats.contains("\"append_rows\":0,")
                && !warm_stats.contains("\"extended_scaffolds\":0,"),
            "engine stats must surface a nonzero append ledger: {warm_stats}"
        );
        // The memo ledger too: the warm child patched parent outcomes in
        // place (G-test sufficient statistics re-derived over the batch)
        // and the ledger conserves — patched + invalidated == before.
        assert!(
            warm_stats.contains("\"memoized_before\":")
                && warm_stats.contains("\"memo_patched\":")
                && !warm_stats.contains("\"memo_patched\":0,")
                && !warm_stats.contains("\"memo_patch_hits\":0,"),
            "warm child must patch parent memos in place: {warm_stats}"
        );

        // Ground truth: a cold registry run on the concatenated table.
        let cold = Registry::new(RegistryConfig::default());
        let (cold_body, _, cold_cache) = cold
            .select(&WorkloadRequest::with_csv(csv::to_csv_string(&concat)))
            .unwrap();
        assert_eq!(
            cold_cache.fingerprint, child_fp,
            "concat fingerprints as the child"
        );
        assert_eq!(
            warm_body, cold_body,
            "warm child select must be byte-identical to the cold run"
        );
        assert_eq!(cold.warm_children(), 0);
    }

    /// Appending to a fingerprint that was never uploaded — or whose
    /// upload the LRU already evicted — is a clean structured error, not
    /// a panic; a schema-mismatched batch is rejected with the concat
    /// validator's message.
    #[test]
    fn append_failure_modes_are_clean_errors() {
        let reg = Registry::new(RegistryConfig {
            max_datasets: 2,
            ..Default::default()
        });
        let err = reg.append(0xdead, small_table(40, false)).unwrap_err();
        assert!(err.contains("unknown dataset fingerprint"), "{err}");

        let fp_a = reg.put(small_table(120, false)).unwrap();
        // Evict A's upload, then append to it.
        reg.put(small_table(124, true)).unwrap();
        reg.put(small_table(240, false)).unwrap();
        assert!(reg.dataset(fp_a).is_none(), "A must be evicted");
        let err = reg.append(fp_a, small_table(40, false)).unwrap_err();
        assert!(err.contains("unknown dataset fingerprint"), "{err}");

        // Schema mismatch (missing column) fails concat validation.
        let fp_b = reg.put(small_table(120, false)).unwrap();
        let skinny = Table::new(vec![Column::cat(
            "s",
            Role::Sensitive,
            (0..20).map(|i| (i % 2) as u32).collect(),
            2,
        )])
        .unwrap();
        let err = reg.append(fp_b, skinny).unwrap_err();
        assert!(err.contains("append batch rejected"), "{err}");

        // Empty batches are refused before touching the store.
        let empty = Table::new(vec![Column::cat("s", Role::Sensitive, vec![], 2)]).unwrap();
        let err = reg.append(fp_b, empty).unwrap_err();
        assert!(err.contains("no rows"), "{err}");
    }

    #[test]
    fn put_store_is_lru_bounded() {
        let reg = Registry::new(RegistryConfig {
            max_datasets: 2,
            ..Default::default()
        });
        let fp_a = reg.put(small_table(120, false)).unwrap();
        let fp_b = reg.put(small_table(124, true)).unwrap();
        // Re-putting an identical table dedups on fingerprint.
        assert_eq!(reg.put(small_table(120, false)).unwrap(), fp_a);
        assert_eq!(reg.resident_puts(), 2);
        assert_eq!(reg.put_evictions(), 0);
        // Touch A so B is the LRU victim when C arrives.
        assert!(reg.dataset(fp_a).is_some());
        let fp_c = reg.put(small_table(240, false)).unwrap();
        assert_eq!(reg.resident_puts(), 2);
        assert_eq!(reg.put_evictions(), 1);
        assert!(reg.dataset(fp_b).is_none(), "B was evicted");
        assert!(reg.dataset(fp_a).is_some() && reg.dataset(fp_c).is_some());
        // Undersized uploads are rejected before they occupy a slot.
        assert!(reg.put(small_table(4, false)).is_err());
    }
}
