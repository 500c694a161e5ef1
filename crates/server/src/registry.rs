//! The session registry: long-lived, fingerprint-sharded workload state.
//!
//! Every `select` request names a dataset (CSV text) and a tester
//! configuration. The registry maps the pair to a [`Workload`] holding the
//! train/test split, one shared [`EncodedTable`], one memoizing
//! [`CiSession`] and one [`ReportMemo`] — so concurrent and repeated
//! requests from many clients share a single encode pass, a single
//! CI-outcome dedup cache and one fit per model, which is the whole point
//! of running `fairsel serve` instead of one process per request.
//!
//! The report memo is keyed on (classifier, model seed, model columns):
//! on the workload's split those fix the fitted model and its report, so
//! a repeated `select` or `methods` request runs its selection from the
//! CI memo and takes its report from the report memo, fitting nothing.
//! A workload born warm from an appended parent starts with an empty
//! report memo, because its train and test rows differ from the
//! parent's; evicting a workload drops its memo with it.
//!
//! Sharding is by *dataset fingerprint* mixed with the split and tester
//! knobs that define the session's ground truth (`seed`, `train_frac`,
//! tester, `alpha`). Knobs that provably do not change CI outcomes —
//! algorithm, worker count, `max_group`, classifier — deliberately do
//! *not* shard: a `seqsel` request warms the cache for a later `grpsel`
//! request on the same data, exactly like the cross-algorithm dedup the
//! engine property tests establish.
//!
//! The fingerprint ([`fingerprint_table`]) folds each column on its own
//! from a fixed basis, one 64-bit word per value, and combines the
//! schema, the row count, the arities and those column states through
//! [`StableHash`]. The put store keeps every dataset's column states, so
//! [`Registry::append`] fingerprints a child by continuing its parent's
//! states over the appended rows alone.
//!
//! The resident workloads and the put store are each a [`CappedCache`]
//! bounded by `max_datasets` (LRU eviction), and each workload's encoding
//! caches are bounded by `cache_cap` — all with eviction counters surfaced
//! in the response telemetry. Requests that miss one workload together
//! wait for a single build of it, so a warm child is born once and the
//! memo ledger counts its birth once.

use crate::proto::{CacheInfo, DatasetRef, MaxGroupSpec, WorkloadRequest};
use fairsel_ci::CiTestBatch;
use fairsel_core::{
    check_column_kinds, render_methods_report, render_pipeline_report, run_all_methods_in,
    run_pipeline_memo_in, ClassifierKind, PipelineConfig, Problem, ReportMemo, SelectConfig,
    SelectionAlgo, TesterSpec,
};
use fairsel_engine::CiSession;
use fairsel_obs::TrackedMutex;
use fairsel_table::{csv, CappedCache, ColumnData, EncodedTable, Table};
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

/// Fixed basis every column's fingerprint state starts from.
const FOLD_BASIS: u64 = 0x9e37_79b9_7f4a_7c15;

/// Continue a column's fingerprint state over one value word. The rotate
/// carries high bits down and the odd multiplier carries low bits up, and
/// each step is a bijection in both the state and the word, so changing
/// any one value changes the column's state.
fn fold_word(state: u64, word: u64) -> u64 {
    (state.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// Per-column fingerprint states: each column folded on its own from
/// [`FOLD_BASIS`], one word per value (a categorical code, or an `f64`'s
/// bits). Appending rows continues every state over the new rows alone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct ColumnFolds(Vec<u64>);

impl ColumnFolds {
    /// Every column of `table` folded from the basis.
    pub(crate) fn of(table: &Table) -> ColumnFolds {
        ColumnFolds(vec![FOLD_BASIS; table.n_cols()]).extended(table)
    }

    /// The states continued over the rows of `rows`, a table with the
    /// folded table's schema.
    pub(crate) fn extended(&self, rows: &Table) -> ColumnFolds {
        debug_assert_eq!(self.0.len(), rows.n_cols(), "fold schema mismatch");
        let states = self.0.iter().zip(rows.columns());
        ColumnFolds(
            states
                .map(|(&state, col)| match &col.data {
                    ColumnData::Cat { codes, .. } => {
                        codes.iter().fold(state, |h, &c| fold_word(h, c as u64))
                    }
                    ColumnData::Num(values) => {
                        values.iter().fold(state, |h, &v| fold_word(h, v.to_bits()))
                    }
                })
                .collect(),
        )
    }

    /// The fingerprint of `table`, whose columns these states fold.
    pub(crate) fn fingerprint(&self, table: &Table) -> u64 {
        let mut h = StableHash::new();
        h.bytes(table.schema_string().as_bytes());
        h.u64(table.n_rows() as u64);
        for (col, &state) in table.columns().iter().zip(&self.0) {
            if let Some(arity) = col.arity() {
                h.u64(arity as u64);
            }
            h.u64(state);
        }
        h.finish()
    }
}

/// Fingerprint of a table: schema (names, roles, types), row count,
/// arities and every column's raw data, each column folded on its own
/// from a fixed basis. Two tables fingerprint equal iff a CI tester cannot
/// tell them apart. A table extended by appended rows fingerprints the
/// same whether its states are folded from scratch or continued from its
/// parent's.
pub fn fingerprint_table(table: &Table) -> u64 {
    ColumnFolds::of(table).fingerprint(table)
}

/// The session type every workload holds: a boxed batch tester behind
/// the engine's memoizing executor.
pub type BoxedSession = CiSession<Box<dyn CiTestBatch + Send + Sync>>;

/// One resident workload: split tables, shared encoding layer, memoizing
/// session, and the reports of the models fit on this split.
pub struct Workload {
    pub train: Arc<Table>,
    pub test: Table,
    pub enc: Arc<EncodedTable>,
    pub session: CiSession<Box<dyn CiTestBatch + Send + Sync>>,
    /// Reports of the models fit on `train`, scored on `test`.
    pub memo: ReportMemo,
    pub fingerprint: u64,
    pub sessions_served: u64,
    /// True when the row-stable split degenerated to a prefix cut
    /// ([`fairsel_table::StableSplit::fallback`]) — the prefix property
    /// does not hold then, so this workload cannot seed a warm child.
    pub split_fallback: bool,
}

/// Registry configuration.
#[derive(Clone, Copy, Debug)]
pub struct RegistryConfig {
    /// Bound on each workload's encoding/residual caches
    /// (`EncodedTable::from_arc_with_cap`).
    pub cache_cap: usize,
    /// Bound on resident dataset workloads, and on uploaded datasets in
    /// the put store (LRU eviction beyond it, each counted on its own).
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

/// A dataset uploaded via `put` or born by `append`, addressable by
/// fingerprint, with the column states its fingerprint folds.
struct PutSlot {
    table: Arc<Table>,
    folds: ColumnFolds,
}

/// The fingerprint-sharded workload registry.
pub struct Registry {
    /// Resident workloads, keyed by [`Registry::workload_key`].
    slots: CappedCache<u64, Arc<TrackedMutex<Workload>>>,
    /// Uploaded raw tables, keyed by dataset fingerprint — what `select`
    /// / `methods` requests with `{"fp":...}` resolve against. Bounded
    /// like the workload slots.
    puts: CappedCache<u64, Arc<PutSlot>>,
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
    requests: AtomicU64,
    warm_children: AtomicU64,
    /// Cumulative memo-ledger totals across every warm-child birth:
    /// parent outcomes re-derived by sufficient-statistic patching vs
    /// invalidated for on-demand re-issue.
    memo_patched: AtomicU64,
    memo_invalidated: AtomicU64,
    /// Report-memo telemetry summed over every workload, evicted ones
    /// included.
    report_memo_hits: AtomicU64,
    report_memo_misses: AtomicU64,
    report_memo_evictions: AtomicU64,
}

impl Registry {
    pub fn new(cfg: RegistryConfig) -> Self {
        Self {
            slots: CappedCache::new(cfg.max_datasets),
            puts: CappedCache::new(cfg.max_datasets),
            lineage: TrackedMutex::new("server.registry.lineage", HashMap::new()),
            cfg,
            requests: AtomicU64::new(0),
            warm_children: AtomicU64::new(0),
            memo_patched: AtomicU64::new(0),
            memo_invalidated: AtomicU64::new(0),
            report_memo_hits: AtomicU64::new(0),
            report_memo_misses: AtomicU64::new(0),
            report_memo_evictions: AtomicU64::new(0),
        }
    }

    /// Resident workload count.
    pub fn resident(&self) -> usize {
        self.slots.len()
    }

    /// Resident uploaded-dataset count.
    pub fn resident_puts(&self) -> usize {
        self.puts.len()
    }

    /// Total workload requests served.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Workloads evicted by the LRU bound so far.
    pub fn evictions(&self) -> u64 {
        self.slots.evictions()
    }

    /// Uploaded datasets evicted by the LRU bound so far.
    pub fn put_evictions(&self) -> u64 {
        self.puts.evictions()
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

    /// Model reports answered from a workload's report memo.
    pub fn report_memo_hits(&self) -> u64 {
        self.report_memo_hits.load(Ordering::Relaxed)
    }

    /// Models fit because their workload's memo did not hold them.
    pub fn report_memo_misses(&self) -> u64 {
        self.report_memo_misses.load(Ordering::Relaxed)
    }

    /// Reports dropped by a workload memo's cap.
    pub fn report_memo_evictions(&self) -> u64 {
        self.report_memo_evictions.load(Ordering::Relaxed)
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
    /// Fails clean (no state change) when the batch holds a value the
    /// pipeline cannot read ([`check_column_kinds`]: a NaN or ±∞ in a
    /// numeric feature, say), when the parent fingerprint is unknown or
    /// evicted, or when the batch's schema does not match — the same
    /// validation discipline as [`Table::concat`].
    ///
    /// The child's fingerprint continues the parent's column states over
    /// the batch, so it costs O(batch × columns) and equals
    /// [`fingerprint_table`] of the concatenation.
    pub fn append(&self, fp: u64, batch: Table) -> Result<(u64, usize), String> {
        if batch.n_rows() == 0 {
            return Err("append batch has no rows".into());
        }
        // The parent passed this check when it was put or appended; the
        // batch alone decides whether the child still does.
        check_column_kinds(&batch, false).map_err(|e| format!("append batch rejected: {e}"))?;
        let parent = self.puts.get(&fp).ok_or_else(|| unknown_dataset(fp))?;
        let child = parent
            .table
            .concat(&batch)
            .map_err(|e| format!("append batch rejected: {e}"))?;
        let rows = child.n_rows();
        let child_fp = self.store(child, parent.folds.extended(&batch))?;
        if child_fp != fp {
            self.lineage.lock().insert(child_fp, fp);
        }
        Ok((child_fp, rows))
    }

    /// Store an uploaded dataset and return its fingerprint. Re-putting
    /// an identical table is a cheap no-op (same fingerprint, the first
    /// copy stays). The store is LRU-bounded by `max_datasets`.
    ///
    /// A table no workload can be built on is refused with the error of
    /// [`check_column_kinds`] (no sensitive column, not exactly one
    /// target column, more admissible columns than selection enumerates,
    /// a NaN or ±∞ in a numeric feature, a numeric target, sensitive or
    /// admissible column), and the store is left untouched, so it cannot
    /// evict a usable upload. Whether the G-test can read the features is
    /// decided per select.
    pub fn put(&self, table: Table) -> Result<u64, String> {
        check_column_kinds(&table, false).map_err(|e| format!("put rejected: {e}"))?;
        let folds = ColumnFolds::of(&table);
        self.store(table, folds)
    }

    /// Store `table`, whose column states are `folds`, under its
    /// fingerprint.
    fn store(&self, table: Table, folds: ColumnFolds) -> Result<u64, String> {
        if table.n_rows() < 10 {
            return Err(format!("too few rows ({})", table.n_rows()));
        }
        let fp = folds.fingerprint(&table);
        self.puts.get_or_build(&fp, || {
            Arc::new(PutSlot {
                table: Arc::new(table),
                folds,
            })
        });
        Ok(fp)
    }

    /// Look up an uploaded dataset by fingerprint (touches its LRU slot).
    pub fn dataset(&self, fp: u64) -> Option<Arc<Table>> {
        self.puts.get(&fp).map(|slot| Arc::clone(&slot.table))
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
        self.serve(req, "registry.select", |w, cfg| {
            let out = run_pipeline_memo_in(&mut w.session, &w.memo, &w.train, &w.test, cfg);
            let _sp = fairsel_obs::span("report.render");
            render_pipeline_report(&out, &w.train, cfg, w.test.n_rows())
        })
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
        self.serve(req, "registry.methods", |w, cfg| {
            let outs = run_all_methods_in(&mut w.session, &w.memo, &w.train, &w.test, cfg);
            let n_features = Problem::from_table(&w.train).n_features();
            let _sp = fairsel_obs::span("report.render");
            render_methods_report(&outs, n_features)
        })
    }

    /// The steps `select` and `methods` share: resolve (or build) the
    /// request's workload, lock it, and inside the span named `span` let
    /// `run` run the pipeline or the sweep and render the body; then add
    /// the request's report-memo change to the registry totals and read
    /// the telemetry from the session, whose stats the pipeline's result
    /// clones.
    fn serve(
        &self,
        req: &WorkloadRequest,
        span: &'static str,
        run: impl FnOnce(&mut Workload, &PipelineConfig) -> String,
    ) -> Result<(String, String, CacheInfo), String> {
        let (fingerprint, table) = self.resolve_fingerprint(req)?;
        let key = self.workload_key(fingerprint, req);
        let state = self.get_or_insert(key, fingerprint, table, req)?;
        let mut w = state.lock();
        let cfg = pipeline_config(req, w.train.n_rows())?;
        let _sp = fairsel_obs::span_kv(span, || {
            vec![("fingerprint", format!("{fingerprint:016x}"))]
        });
        let before = w.memo.stats();
        let body = run(&mut w, &cfg);
        let after = w.memo.stats();
        let add = |total: &AtomicU64, delta| total.fetch_add(delta, Ordering::Relaxed);
        add(&self.report_memo_hits, after.hits - before.hits);
        add(&self.report_memo_misses, after.misses - before.misses);
        add(
            &self.report_memo_evictions,
            after.evictions - before.evictions,
        );
        w.sessions_served += 1;
        self.requests.fetch_add(1, Ordering::Relaxed);
        let stats = w.session.stats();
        let enc_stats = w.session.tester().encode_cache_stats();
        let cache = CacheInfo {
            fingerprint,
            sessions_served: w.sessions_served,
            shared_hits: stats.cache_hits,
            encode_hits: enc_stats.hits,
            encode_misses: enc_stats.misses,
            encode_evictions: enc_stats.evictions,
            dataset_evictions: self.evictions(),
        };
        Ok((body, stats.to_json(), cache))
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
    /// session recorded in the append lineage. The parent's rows are the
    /// child's first rows and the parent's split did not fall back, so the
    /// child's split is the parent's split plus the split of the appended
    /// rows alone ([`Table::split_suffix_stable`]): the child's train
    /// table is the parent's train table followed by the appended train
    /// rows, and the parent's encodings and tester scaffolds are
    /// *extended* over those rows instead of rebuilt. Any missing
    /// precondition — no lineage, parent session not resident, parent
    /// built on a fallback split, tester declines extension, or no
    /// appended row landed in train — returns `None` and the caller builds
    /// cold (always correct, just slower). The parent workload's lock is
    /// held throughout, while requests for the child wait on its build; a
    /// birth books `warm_children` and the memo ledger.
    fn try_warm_child(
        &self,
        child_fp: u64,
        child: &Table,
        req: &WorkloadRequest,
    ) -> Option<Workload> {
        let parent_fp = self.parent_of(child_fp)?;
        let parent_key = self.workload_key(parent_fp, req);
        // A peek: seeding a child leaves the parent's recency as it was.
        let parent_state = self.slots.peek(&parent_key)?;
        let pw = parent_state.lock();
        if pw.split_fallback {
            return None;
        }
        let n_parent = pw.train.n_rows() + pw.test.n_rows();
        if child.n_rows() <= n_parent {
            return None;
        }
        let (train_rows, test_rows) = child.split_suffix_stable(n_parent, req.seed, req.train_frac);
        if train_rows.n_rows() == 0 {
            // No appended row landed on the train side: nothing to extend.
            return None;
        }
        // Times the extension itself: the encoding extension, the session
        // hand-off (its `engine.extend` child) and the test-side concat.
        let _sp = fairsel_obs::span_kv("session.warm_child", || {
            vec![
                ("fingerprint", format!("{child_fp:016x}")),
                ("parent", format!("{parent_fp:016x}")),
                ("appended_train_rows", train_rows.n_rows().to_string()),
            ]
        });
        let enc = Arc::new(pw.enc.extend(&train_rows).ok()?);
        let session = pw.session.extended_over(Arc::clone(&enc))?;
        let test = pw.test.concat(&test_rows).ok()?;
        // The child's birth stats carry the memo ledger: how many of the
        // parent's memoized outcomes were re-derived in O(batch) from
        // patched sufficient statistics vs invalidated for re-issue.
        let birth = session.stats();
        self.warm_children.fetch_add(1, Ordering::Relaxed);
        self.memo_patched
            .fetch_add(birth.memo_patched, Ordering::Relaxed);
        self.memo_invalidated
            .fetch_add(birth.memo_invalidated, Ordering::Relaxed);
        Some(Workload {
            // The extended layer holds the concatenated train table;
            // share it instead of keeping two copies resident.
            train: Arc::clone(enc.table_arc()),
            test,
            enc,
            session,
            // The parent's reports were fit and scored on other rows.
            memo: ReportMemo::new(),
            fingerprint: child_fp,
            sessions_served: 0,
            split_fallback: false,
        })
    }

    /// Build a workload from scratch: split the whole table, a fresh
    /// encoding layer and a fresh session.
    fn build_cold(
        &self,
        fingerprint: u64,
        table: &Table,
        req: &WorkloadRequest,
    ) -> Result<Workload, String> {
        let spec = TesterSpec::parse(&req.tester, req.alpha)?;
        check_column_kinds(table, spec.reads_codes())?;
        // Row-stable split: membership depends only on (seed, row index),
        // so a dataset extended by append splits into exactly the parent's
        // split plus the new rows — the prefix property the warm-child
        // path relies on.
        let split = table.split_rows_stable(req.seed, req.train_frac);
        let train = Arc::new(split.train);
        let enc = Arc::new(EncodedTable::from_arc_with_cap(
            Arc::clone(&train),
            self.cfg.cache_cap,
        ));
        let tester = spec.build_over(Some(&enc), &train, None);
        Ok(Workload {
            train,
            test: split.test,
            enc,
            session: CiSession::new(tester),
            memo: ReportMemo::new(),
            fingerprint,
            sessions_served: 0,
            split_fallback: split.fallback,
        })
    }

    /// The resident workload for `key`, built on a miss. Requests that
    /// miss it together wait for one build ([`CappedCache::try_get_or_build`]).
    /// The build holds no lock of the registry's own (a warm child's holds
    /// its parent workload's): the split and the extension copy every
    /// column, which must not stall requests for other datasets.
    fn get_or_insert(
        &self,
        key: u64,
        fingerprint: u64,
        table: Option<Arc<Table>>,
        req: &WorkloadRequest,
    ) -> Result<Arc<TrackedMutex<Workload>>, String> {
        self.slots.try_get_or_build(&key, || {
            // Only a miss needs the raw table: resolve a fingerprint
            // reference against the put store here, so an evicted upload
            // does not invalidate a resident session.
            let table = match table {
                Some(t) => t,
                None => self
                    .dataset(fingerprint)
                    .ok_or_else(|| unknown_dataset(fingerprint))?,
            };
            let _sp = fairsel_obs::span_kv("session.build", || {
                vec![
                    ("fingerprint", format!("{fingerprint:016x}")),
                    ("rows", table.n_rows().to_string()),
                ]
            });
            let workload = match self.try_warm_child(fingerprint, &table, req) {
                Some(w) => w,
                None => self.build_cold(fingerprint, &table, req)?,
            };
            Ok(Arc::new(TrackedMutex::new(
                "server.registry.workload",
                workload,
            )))
        })
    }
}

/// The error for a fingerprint the put store does not hold.
fn unknown_dataset(fp: u64) -> String {
    format!("unknown dataset fingerprint {fp:016x} (not uploaded, or evicted — put it again)")
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
    use fairsel_core::MAX_ADMISSIBLE;
    use fairsel_table::{Column, Role};
    use std::sync::Barrier;

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
        // The repeat's model report came from the workload's memo.
        assert_eq!((reg.report_memo_hits(), reg.report_memo_misses()), (1, 1));
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

    /// A table no workload can be built on is refused at `put`, before it
    /// takes a slot of the LRU-bounded store: the clean upload it would
    /// have evicted stays selectable.
    #[test]
    fn put_refuses_a_table_no_workload_can_read() {
        let reg = Registry::new(RegistryConfig {
            max_datasets: 1,
            ..Default::default()
        });
        let clean = small_table(200, false);
        let fp = reg.put(clean.clone()).unwrap();
        let mut cols = clean.columns().to_vec();
        let values = (0..200)
            .map(|i| if i == 7 { f64::NAN } else { i as f64 })
            .collect();
        cols[1] = Column::num("x", Role::Feature, values);
        let err = reg.put(Table::new(cols).unwrap()).unwrap_err();
        assert!(
            err.contains("put rejected: feature column x holds NaN at data row 8"),
            "{err}"
        );
        assert_eq!(reg.resident_puts(), 1);
        let req = WorkloadRequest {
            dataset: DatasetRef::Fp(fp),
            ..Default::default()
        };
        reg.select(&req).expect("the clean upload is still stored");
    }

    /// A table whose roles no selection can run on is refused at `put`:
    /// no sensitive column, no target, two targets, and more admissible
    /// columns than selection enumerates. None takes a slot.
    #[test]
    fn put_refuses_a_table_no_selection_can_run_on() {
        let reg = Registry::new(RegistryConfig::default());
        let clean = small_table(200, false);
        let with_role = |col: usize, role: Role| {
            let mut cols = clean.columns().to_vec();
            cols[col].role = role;
            Table::new(cols).unwrap()
        };
        let mut wide = clean.columns().to_vec();
        for i in 0..=MAX_ADMISSIBLE {
            let codes = (0..200).map(|r| ((r + i) % 2) as u32).collect();
            wide.push(Column::cat(format!("a{i}"), Role::Admissible, codes, 2));
        }
        for (table, message) in [
            (with_role(0, Role::Feature), "no sensitive column"),
            (with_role(2, Role::Feature), "0 target columns"),
            (with_role(1, Role::Target), "2 target columns"),
            (Table::new(wide).unwrap(), "13 admissible columns"),
        ] {
            let err = reg.put(table).unwrap_err();
            assert!(err.starts_with("put rejected: "), "{err}");
            assert!(err.contains(message), "{err}");
        }
        assert_eq!(reg.resident_puts(), 0);
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

    /// A table whose columns depend on each other, so selections test
    /// and keep something: `s` drives `x1`, `x1` and `a` drive `y`, `x2`
    /// follows `y`, `x3` is noise.
    fn sampled_table(rows: usize, seed: u64) -> Table {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cols: [Vec<u32>; 6] = Default::default();
        for _ in 0..rows {
            let s = rng.gen_range(0..2);
            let a = rng.gen_range(0..3);
            let x1 = if rng.gen_bool(0.8) { s } else { 1 - s };
            let y = u32::from((x1 + a) % 2 == 1) ^ u32::from(rng.gen_bool(0.15));
            let x2 = if rng.gen_bool(0.75) {
                y
            } else {
                rng.gen_range(0..3)
            };
            let x3 = rng.gen_range(0..3);
            for (col, v) in cols.iter_mut().zip([s, a, x1, x2, x3, y]) {
                col.push(v);
            }
        }
        let [s, a, x1, x2, x3, y] = cols;
        Table::new(vec![
            Column::cat("s", Role::Sensitive, s, 2),
            Column::cat("a", Role::Admissible, a, 3),
            Column::cat("x1", Role::Feature, x1, 2),
            Column::cat("x2", Role::Feature, x2, 3),
            Column::cat("x3", Role::Feature, x3, 3),
            Column::cat("y", Role::Target, y, 2),
        ])
        .unwrap()
    }

    /// Append lineage past one child: a three-generation chain, a fork
    /// (two children of one parent), a batch whose rows all land on the
    /// test side (built cold: nothing to extend), and a child of a parent
    /// whose split fell back to a prefix cut (built cold: no prefix
    /// property). Every child fingerprints as its concatenation, every
    /// select is byte-identical to a cold registry run on the
    /// concatenation, and `warm_children` counts exactly the warm births.
    #[test]
    fn append_lineage_chains_forks_and_cold_births() {
        let reg = Registry::new(RegistryConfig::default());
        let request = |dataset, seed, train_frac| WorkloadRequest {
            dataset,
            seed,
            train_frac,
            ..Default::default()
        };
        // Select `fp` and compare with a cold registry on `table`.
        let check = |fp: u64, table: &Table, seed: u64, train_frac: f64| {
            assert_eq!(
                fp,
                fingerprint_table(table),
                "fingerprint of the concatenation"
            );
            let (body, _, _) = reg
                .select(&request(DatasetRef::Fp(fp), seed, train_frac))
                .unwrap();
            let csv = DatasetRef::Csv(csv::to_csv_string(table));
            let (cold, _, _) = Registry::new(RegistryConfig::default())
                .select(&request(csv, seed, train_frac))
                .unwrap();
            assert_eq!(body, cold, "select on {fp:016x} differs from the cold run");
        };
        // Rows from `start` on that seed 0 at 0.7 puts on the test side.
        let test_rows_from = |start: usize| -> Vec<usize> {
            let rows = (0..start + 64).map(|i| i as f64).collect();
            let probe = Table::new(vec![Column::num("i", Role::Feature, rows)]).unwrap();
            let (_, test) = probe.split_suffix_stable(start, 0, 0.7);
            test.col(0).to_f64().iter().map(|&i| i as usize).collect()
        };

        let base = sampled_table(400, 1);
        let fp = reg.put(base.clone()).unwrap();
        check(fp, &base, 0, 0.7);
        // Three generations: base → child → grandchild, each born warm.
        let mut chain = (fp, base.clone());
        for (gen, rows) in [(1u64, 80), (2, 70)] {
            let batch = sampled_table(rows, 10 + gen);
            let table = chain.1.concat(&batch).unwrap();
            let (child, n) = reg.append(chain.0, batch).unwrap();
            assert_eq!((reg.parent_of(child), n), (Some(chain.0), table.n_rows()));
            check(child, &table, 0, 0.7);
            assert_eq!(reg.warm_children(), gen, "generation {gen} is born warm");
            chain = (child, table);
        }
        // A fork: a second child of the base, sized so that the row after
        // it lands on the test side.
        let fork_rows = (40..)
            .find(|&b| test_rows_from(base.n_rows() + b)[0] == base.n_rows() + b)
            .unwrap();
        let batch = sampled_table(fork_rows, 20);
        let fork = base.concat(&batch).unwrap();
        let (fork_fp, _) = reg.append(fp, batch).unwrap();
        check(fork_fp, &fork, 0, 0.7);
        assert_eq!(reg.warm_children(), 3, "the fork is born warm");
        // A batch of test rows only: nothing to extend, so built cold.
        let run = test_rows_from(fork.n_rows());
        let all_test = run
            .iter()
            .zip(fork.n_rows()..)
            .take_while(|&(&a, b)| a == b)
            .count();
        assert!(all_test >= 1);
        let batch = sampled_table(all_test, 21);
        let tested = fork.concat(&batch).unwrap();
        let (tested_fp, _) = reg.append(fork_fp, batch).unwrap();
        check(tested_fp, &tested, 0, 0.7);
        assert_eq!(reg.warm_children(), 3, "an all-test batch builds cold");

        // A parent whose split fell back to a prefix cut.
        let small = sampled_table(30, 30);
        let seed = (0..64)
            .find(|&seed| small.split_rows_stable(seed, 0.999).fallback)
            .expect("a seed whose split puts every row on the train side");
        let small_fp = reg.put(small.clone()).unwrap();
        check(small_fp, &small, seed, 0.999);
        let batch = sampled_table(20, 31);
        let grown = small.concat(&batch).unwrap();
        let (grown_fp, _) = reg.append(small_fp, batch).unwrap();
        check(grown_fp, &grown, seed, 0.999);
        assert_eq!(
            reg.warm_children(),
            3,
            "a fallback parent seeds no warm child"
        );
    }

    /// Requests released together on the first select of one appended
    /// child wait for one warm build of it: every body equals a cold run
    /// on the concatenation, the child is born warm once, and the memo
    /// ledger books one birth — what a registry that selects the child
    /// once books.
    #[test]
    fn racing_child_selects_build_the_child_once() {
        const CLIENTS: usize = 4;
        let parent = sampled_table(400, 1);
        let batch = sampled_table(80, 2);
        let fp_req = |fp| WorkloadRequest {
            dataset: DatasetRef::Fp(fp),
            ..Default::default()
        };
        // A registry with a warm parent and its appended child.
        let appended = || {
            let reg = Registry::new(RegistryConfig::default());
            let fp = reg.put(parent.clone()).unwrap();
            reg.select(&fp_req(fp)).unwrap();
            let (child_fp, _) = reg.append(fp, batch.clone()).unwrap();
            (reg, child_fp)
        };
        let (serial, child_fp) = appended();
        serial.select(&fp_req(child_fp)).unwrap();
        let one_birth = (serial.memo_patched(), serial.memo_invalidated());
        assert!(serial.warm_children() == 1 && one_birth.0 > 0);
        let concat = csv::to_csv_string(&parent.concat(&batch).unwrap());
        let (cold, _, _) = Registry::new(RegistryConfig::default())
            .select(&WorkloadRequest::with_csv(concat))
            .unwrap();

        for round in 0..5 {
            let (reg, child_fp) = appended();
            let barrier = Barrier::new(CLIENTS);
            let bodies: Vec<String> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..CLIENTS)
                    .map(|_| {
                        s.spawn(|| {
                            barrier.wait();
                            reg.select(&fp_req(child_fp)).unwrap().0
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert!(bodies.iter().all(|b| *b == cold), "round {round}");
            assert_eq!(reg.warm_children(), 1, "round {round}");
            assert_eq!(
                (reg.memo_patched(), reg.memo_invalidated()),
                one_birth,
                "round {round}"
            );
            assert_eq!((reg.resident(), reg.requests()), (2, 1 + CLIENTS as u64));
        }
    }

    /// The fingerprint continued over appended rows equals the one folded
    /// from scratch, over chains of appends to random tables with
    /// categorical and numeric columns (NaN, -0.0, +0.0 and ±∞ included,
    /// and empty batches).
    #[test]
    fn resumed_fingerprint_equals_fingerprint_of_the_concatenation() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xf1a9);
        let specials = [f64::NAN, -0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY];
        let mk = |rng: &mut StdRng, arities: &[Option<u32>], rows: usize| {
            let cols = arities.iter().enumerate().map(|(i, arity)| match *arity {
                Some(a) => Column::cat(
                    format!("c{i}"),
                    Role::Feature,
                    (0..rows).map(|_| rng.gen_range(0..a)).collect(),
                    a,
                ),
                None => Column::num(
                    format!("c{i}"),
                    Role::Feature,
                    (0..rows)
                        .map(|_| match rng.gen_range(0..8) {
                            k @ 0..=4 => specials[k],
                            _ => rng.gen_range(-1e3..1e3),
                        })
                        .collect(),
                ),
            });
            Table::new(cols.collect()).unwrap()
        };
        for _ in 0..100 {
            let arities: Vec<Option<u32>> = (0..rng.gen_range(1..6))
                .map(|_| rng.gen_bool(0.5).then(|| rng.gen_range(1..300)))
                .collect();
            let rows = rng.gen_range(0..60);
            let mut table = mk(&mut rng, &arities, rows);
            let mut folds = ColumnFolds::of(&table);
            for _ in 0..3 {
                let rows = rng.gen_range(0..40);
                let batch = mk(&mut rng, &arities, rows);
                table = table.concat(&batch).unwrap();
                folds = folds.extended(&batch);
                assert_eq!(folds, ColumnFolds::of(&table));
                assert_eq!(folds.fingerprint(&table), fingerprint_table(&table));
            }
        }
        // Bit patterns count: the two zeros fingerprint apart.
        let zero = |z: f64| {
            fingerprint_table(&Table::new(vec![Column::num("x", Role::Feature, vec![z])]).unwrap())
        };
        assert_ne!(zero(0.0), zero(-0.0));
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
