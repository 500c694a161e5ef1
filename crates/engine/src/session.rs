//! The memoizing session and its telemetry.

use crate::key::{CondSet, PreHashed, QueryKey};
use crate::pool::WorkerPool;
use fairsel_ci::{CiOutcome, CiTest, EncodeStats, VarId};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Telemetry for one phase of a session (e.g. "phase1", "skeleton-L2").
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseStats {
    /// Phase label.
    pub name: String,
    /// Logical queries routed through the session during this phase.
    pub requested: u64,
    /// Tester invocations actually issued (cache misses).
    pub issued: u64,
    /// Queries answered from the memo cache.
    pub cache_hits: u64,
    /// Wall time spent evaluating this phase's queries, in milliseconds.
    pub wall_ms: f64,
}

/// Whole-session telemetry, serializable to JSON for `BENCH_*.json`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineStats {
    /// Logical queries routed through the session.
    pub requested: u64,
    /// Tester invocations actually issued (requested − cache hits).
    pub issued: u64,
    /// Queries answered from the memo cache (or deduplicated in-batch).
    pub cache_hits: u64,
    /// Batches executed (sequential and parallel).
    pub batches: u64,
    /// Batches that ran on the parallel worker pool.
    pub parallel_batches: u64,
    /// Batches executed by the Z-grouped scheduler (conditioning-set
    /// partitioning + `eval_z_group`, inline or on the worker pool).
    pub grouped_batches: u64,
    /// Largest number of unique misses a single batch fanned out.
    pub max_batch: usize,
    /// Wall time spent inside tester evaluation, in milliseconds.
    pub wall_ms: f64,
    /// Encoding-layer cache hits reported by a batch-aware tester
    /// (cumulative; see `fairsel_ci::CiTestBatch::encode_cache_stats`).
    pub encode_cache_hits: u64,
    /// Encoding-layer cache misses (encodings actually computed).
    pub encode_cache_misses: u64,
    /// Encoding-layer values evicted by the LRU cache bound.
    pub encode_cache_evictions: u64,
    /// Bytes of narrow (width-adaptive) code storage built by the
    /// encoding layer — u8/u16/u32 per row depending on arity.
    pub narrow_code_bytes: u64,
    /// Contingency cells filled through the dense counting arenas
    /// (G-test and permutation-CMI kernels; hashed fallbacks count 0).
    pub dense_count_cells: u64,
    /// Rows appended to the encoding layer through dataset extension
    /// (`EncodedTable::extend`) across this session's lineage.
    pub append_rows: u64,
    /// Cached joint encodings extended in place (not rebuilt) on append.
    pub extended_encodings: u64,
    /// Tester scaffolds (stratifications, design matrices, …) carried
    /// over from a parent session on dataset extension.
    pub extended_scaffolds: u64,
    /// Tester scaffolds built from scratch on this session's dataset.
    pub rebuilt_scaffolds: u64,
    /// Tester scaffolds currently resident in the tester's caches.
    pub resident_scaffolds: u64,
    /// Tester scaffolds evicted by the cache bound.
    pub scaffold_evictions: u64,
    /// Outcomes the parent session had memoized at the moment this
    /// session was created by dataset extension — the total of the
    /// patch-or-invalidate ledger.
    pub memoized_before: u64,
    /// Parent outcomes recomputed at the new row count by *patching* the
    /// tester's retained sufficient statistic with the appended rows —
    /// O(batch) counting, no tester issue.
    pub memo_patched: u64,
    /// Parent outcomes dropped at extension (tester can't patch — float
    /// moment sums reassociate —, retained counts evicted, or a patch
    /// precondition failed); re-issued on next demand.
    pub memo_invalidated: u64,
    /// Demanded queries answered by a parked patched outcome
    /// (≤ `memo_patched`: patched answers stay outside the memo until
    /// demanded, so fingerprints only ever cover demanded work).
    pub memo_patch_hits: u64,
    /// Sufficient statistics (per-query contingency tables) resident in
    /// the tester's retention cache.
    pub resident_suff_tables: u64,
    /// Sufficient statistics evicted by the retention-cache bound.
    pub suff_evictions: u64,
    /// Per-phase breakdown, in phase order.
    pub phases: Vec<PhaseStats>,
}

impl EngineStats {
    /// Fraction of requested queries that never reached the tester.
    pub fn dedup_rate(&self) -> f64 {
        if self.requested == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.requested as f64
        }
    }

    /// Counter deltas since an earlier snapshot of the *same* session —
    /// what one request (or one method of a shared-session sweep) cost on
    /// its own. Every counter is a delta, including the encode-cache
    /// fields (accurate when both snapshots were taken after a
    /// `refresh_encode_stats`, as the shared-session sweep does). The two
    /// exceptions, by nature: `max_batch` is a high-water mark (carried
    /// as-is) and per-phase breakdowns are cumulative bookkeeping (not
    /// carried over).
    pub fn delta_since(&self, before: &EngineStats) -> EngineStats {
        EngineStats {
            requested: self.requested - before.requested,
            issued: self.issued - before.issued,
            cache_hits: self.cache_hits - before.cache_hits,
            batches: self.batches - before.batches,
            parallel_batches: self.parallel_batches - before.parallel_batches,
            grouped_batches: self.grouped_batches - before.grouped_batches,
            max_batch: self.max_batch,
            wall_ms: self.wall_ms - before.wall_ms,
            encode_cache_hits: self
                .encode_cache_hits
                .saturating_sub(before.encode_cache_hits),
            encode_cache_misses: self
                .encode_cache_misses
                .saturating_sub(before.encode_cache_misses),
            encode_cache_evictions: self
                .encode_cache_evictions
                .saturating_sub(before.encode_cache_evictions),
            narrow_code_bytes: self
                .narrow_code_bytes
                .saturating_sub(before.narrow_code_bytes),
            dense_count_cells: self
                .dense_count_cells
                .saturating_sub(before.dense_count_cells),
            append_rows: self.append_rows.saturating_sub(before.append_rows),
            extended_encodings: self
                .extended_encodings
                .saturating_sub(before.extended_encodings),
            extended_scaffolds: self
                .extended_scaffolds
                .saturating_sub(before.extended_scaffolds),
            rebuilt_scaffolds: self
                .rebuilt_scaffolds
                .saturating_sub(before.rebuilt_scaffolds),
            // Residency is a level, not a rate — carried as-is, like
            // `max_batch`.
            resident_scaffolds: self.resident_scaffolds,
            scaffold_evictions: self
                .scaffold_evictions
                .saturating_sub(before.scaffold_evictions),
            // The extension ledger is stamped once at session birth —
            // a level, carried as-is; only its consumption is a rate.
            memoized_before: self.memoized_before,
            memo_patched: self.memo_patched,
            memo_invalidated: self.memo_invalidated,
            memo_patch_hits: self.memo_patch_hits.saturating_sub(before.memo_patch_hits),
            resident_suff_tables: self.resident_suff_tables,
            suff_evictions: self.suff_evictions.saturating_sub(before.suff_evictions),
            phases: Vec::new(),
        }
    }

    /// The scaffold conservation law: every scaffold a session's tester
    /// ever held residency for was either carried over from a parent
    /// (`extended_scaffolds`) or built on this dataset
    /// (`rebuilt_scaffolds`), and is now either resident or evicted.
    /// Exact — not approximate — even under worker races, because the
    /// underlying cache ledger counts only residency-taking inserts.
    pub fn scaffolds_conserved(&self) -> bool {
        self.extended_scaffolds + self.rebuilt_scaffolds
            == self.resident_scaffolds + self.scaffold_evictions
    }

    /// The append memo ledger: every outcome memoized at the moment of
    /// dataset extension was either patched in place or invalidated —
    /// nothing is silently dropped, nothing double-counted.
    pub fn memos_conserved(&self) -> bool {
        self.memo_patched + self.memo_invalidated == self.memoized_before
    }

    /// Serialize to a self-contained JSON object (no external deps — the
    /// bench files only need numbers and short ASCII labels).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push('{');
        push_kv(&mut s, "requested", self.requested as f64, false);
        push_kv(&mut s, "issued", self.issued as f64, false);
        push_kv(&mut s, "cache_hits", self.cache_hits as f64, false);
        push_kv(&mut s, "batches", self.batches as f64, false);
        push_kv(
            &mut s,
            "parallel_batches",
            self.parallel_batches as f64,
            false,
        );
        push_kv(
            &mut s,
            "grouped_batches",
            self.grouped_batches as f64,
            false,
        );
        push_kv(&mut s, "max_batch", self.max_batch as f64, false);
        push_kv(&mut s, "dedup_rate", self.dedup_rate(), false);
        push_kv(&mut s, "wall_ms", self.wall_ms, false);
        push_kv(
            &mut s,
            "encode_cache_hits",
            self.encode_cache_hits as f64,
            false,
        );
        push_kv(
            &mut s,
            "encode_cache_misses",
            self.encode_cache_misses as f64,
            false,
        );
        push_kv(
            &mut s,
            "encode_cache_evictions",
            self.encode_cache_evictions as f64,
            false,
        );
        push_kv(
            &mut s,
            "narrow_code_bytes",
            self.narrow_code_bytes as f64,
            false,
        );
        push_kv(
            &mut s,
            "dense_count_cells",
            self.dense_count_cells as f64,
            false,
        );
        push_kv(&mut s, "append_rows", self.append_rows as f64, false);
        push_kv(
            &mut s,
            "extended_encodings",
            self.extended_encodings as f64,
            false,
        );
        push_kv(
            &mut s,
            "extended_scaffolds",
            self.extended_scaffolds as f64,
            false,
        );
        push_kv(
            &mut s,
            "rebuilt_scaffolds",
            self.rebuilt_scaffolds as f64,
            false,
        );
        push_kv(
            &mut s,
            "resident_scaffolds",
            self.resident_scaffolds as f64,
            false,
        );
        push_kv(
            &mut s,
            "scaffold_evictions",
            self.scaffold_evictions as f64,
            false,
        );
        push_kv(
            &mut s,
            "memoized_before",
            self.memoized_before as f64,
            false,
        );
        push_kv(&mut s, "memo_patched", self.memo_patched as f64, false);
        push_kv(
            &mut s,
            "memo_invalidated",
            self.memo_invalidated as f64,
            false,
        );
        push_kv(
            &mut s,
            "memo_patch_hits",
            self.memo_patch_hits as f64,
            false,
        );
        push_kv(
            &mut s,
            "resident_suff_tables",
            self.resident_suff_tables as f64,
            false,
        );
        push_kv(&mut s, "suff_evictions", self.suff_evictions as f64, false);
        s.push_str("\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('{');
            s.push_str(&format!("\"name\":\"{}\",", escape(&p.name)));
            push_kv(&mut s, "requested", p.requested as f64, false);
            push_kv(&mut s, "issued", p.issued as f64, false);
            push_kv(&mut s, "cache_hits", p.cache_hits as f64, false);
            push_kv(&mut s, "wall_ms", p.wall_ms, true);
            s.push('}');
        }
        s.push_str("]}");
        s
    }
}

pub(crate) fn push_kv(s: &mut String, k: &str, v: f64, last: bool) {
    s.push('"');
    s.push_str(k);
    s.push_str("\":");
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        s.push_str(&format!("{}", v as i64));
    } else {
        s.push_str(&format!("{v:.6}"));
    }
    if !last {
        s.push(',');
    }
}

pub(crate) fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// How one batch of unique misses was executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BatchKind {
    /// Per-query sequential evaluation.
    Sequential,
    /// Z-grouped scheduling (`eval_z_group` per conditioning-set group),
    /// evaluated inline.
    Grouped,
    /// Z-grouped scheduling with group chunks on the persistent pool.
    GroupedParallel,
}

impl BatchKind {
    const ALL: [BatchKind; 3] = [
        BatchKind::Sequential,
        BatchKind::Grouped,
        BatchKind::GroupedParallel,
    ];

    /// Registry name of this batch kind's latency histogram.
    fn histogram_name(self) -> &'static str {
        match self {
            BatchKind::Sequential => "engine_batch/sequential",
            BatchKind::Grouped => "engine_batch/grouped",
            BatchKind::GroupedParallel => "engine_batch/grouped_parallel",
        }
    }

    /// Process-wide latency histogram for this batch kind, looked up in
    /// the registry once per process, so recording a batch takes no lock.
    pub(crate) fn histogram(self) -> &'static Arc<fairsel_obs::Histogram> {
        static HANDLES: OnceLock<[Arc<fairsel_obs::Histogram>; 3]> = OnceLock::new();
        let handles = HANDLES.get_or_init(|| {
            BatchKind::ALL.map(|kind| fairsel_obs::histogram(kind.histogram_name()))
        });
        &handles[self as usize]
    }
}

/// A memoizing execution session around any CI tester.
///
/// Every query is canonicalized to a [`QueryKey`]; answers are cached so a
/// repeated query — from the same algorithm, a later phase, or an entirely
/// different caller sharing the session — costs a hash lookup instead of a
/// test. The session itself implements [`CiTest`], so it drops into every
/// existing call site (and nests: a session of a session is harmless).
///
/// Caching assumes the tester is a deterministic function of `(x, y, z)` up
/// to the key's equivalences — true for every tester in `fairsel_ci`. For
/// stochastic testers ([`fairsel_ci::NoisyOracleCi`]) the cache *pins* the
/// first answer, trading per-call flip independence for self-consistency
/// (the behavior a real cached service would exhibit).
pub struct CiSession<T> {
    tester: T,
    // analyze: bounded-by session memo; one per demanded query, sessions are LRU-evicted by the server registry and batch-scoped in the CLI
    cache: HashMap<QueryKey, CiOutcome, PreHashed>,
    stats: EngineStats,
    /// Index into `stats.phases` receiving current accounting.
    current_phase: Option<usize>,
    /// Long-lived worker pool for the Z-grouped scheduler, spawned on
    /// first use and kept for the session's lifetime (rebuilt only when a
    /// batch asks for more workers than the pool has threads; a batch
    /// asking for fewer runs on the larger pool).
    pool: Option<WorkerPool>,
    /// Outcomes recomputed by sufficient-statistic patching at dataset
    /// extension, parked until demanded. Kept *outside* the memo so
    /// `cache_len()` starts at 0 and `outcomes_fingerprint()` covers
    /// exactly the queries this session's workload demanded — the same
    /// set a cold session on the concatenated table would memoize. A
    /// memo miss consumes from here first (booking `memo_patch_hits`)
    /// before issuing to the tester.
    // analyze: bounded-by subset of the pre-extension memo; drained into the memo on demand
    patched_pending: HashMap<QueryKey, CiOutcome, PreHashed>,
}

impl<T: CiTest> CiSession<T> {
    /// Wrap a tester (commonly `&mut tester`, since `&mut T: CiTest`).
    pub fn new(tester: T) -> Self {
        Self {
            tester,
            cache: HashMap::default(),
            stats: EngineStats::default(),
            current_phase: None,
            pool: None,
            patched_pending: HashMap::default(),
        }
    }

    /// Direct accounting of a cached single query.
    pub fn query(&mut self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
        self.query_given(x, y, &CondSet::new(z))
    }

    /// [`CiSession::query`] on an interned conditioning set, which the
    /// key shares instead of copying; the tester sees its sorted slice.
    pub fn query_given(&mut self, x: &[VarId], y: &[VarId], z: &CondSet) -> CiOutcome {
        let key = QueryKey::given(x, y, z);
        self.stats.requested += 1;
        self.bump_phase(|p| p.requested += 1);
        if let Some(hit) = self.cache_get_tracked(&key) {
            self.stats.cache_hits += 1;
            self.bump_phase(|p| p.cache_hits += 1);
            return hit;
        }
        // analyze: wall-clock per-query wall_ms telemetry only; never branches execution
        let t0 = Instant::now();
        let out = self.tester.ci(x, y, z);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.stats.issued += 1;
        self.stats.wall_ms += ms;
        self.bump_phase(|p| {
            p.issued += 1;
            p.wall_ms += ms;
        });
        self.cache.insert(key, out);
        out
    }

    /// Switch telemetry accounting to the named phase (creating it on
    /// first use; re-entering a name resumes its bucket).
    pub fn set_phase(&mut self, name: &str) {
        let idx = match self.stats.phases.iter().position(|p| p.name == name) {
            Some(i) => i,
            None => {
                self.stats.phases.push(PhaseStats {
                    name: name.to_owned(),
                    ..Default::default()
                });
                self.stats.phases.len() - 1
            }
        };
        self.current_phase = Some(idx);
    }

    /// Stop attributing queries to any phase.
    pub fn clear_phase(&mut self) {
        self.current_phase = None;
    }

    fn bump_phase<F: FnOnce(&mut PhaseStats)>(&mut self, f: F) {
        if let Some(i) = self.current_phase {
            f(&mut self.stats.phases[i]);
        }
    }

    /// Session telemetry so far.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Telemetry as JSON.
    pub fn stats_json(&self) -> String {
        self.stats.to_json()
    }

    /// Number of distinct canonical queries memoized.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Drop all memoized answers (telemetry is kept).
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// Order-independent FNV-1a digest of every memoized outcome's exact
    /// bit patterns (p-value, statistic, verdict), folded in canonical
    /// query-key order. Two sessions that answered the same workload get
    /// the same fingerprint **iff** every answer is bit-identical — the
    /// hook the rows-scaling benchmark uses to enforce the byte-identity
    /// contract across kernel implementations.
    pub fn outcomes_fingerprint(&self) -> u64 {
        let mut entries: Vec<(&QueryKey, &CiOutcome)> = self.cache.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (_, out) in entries {
            fold(out.p_value.to_bits());
            fold(out.statistic.to_bits());
            fold(out.independent as u64);
        }
        h
    }

    /// Borrow the wrapped tester.
    pub fn tester(&self) -> &T {
        &self.tester
    }

    /// Unwrap the tester.
    pub fn into_inner(self) -> T {
        self.tester
    }

    /// Every memoized entry in canonical key order — the deterministic
    /// walk order the extension patch loop re-derives outcomes in.
    pub(crate) fn memo_snapshot(&self) -> Vec<(QueryKey, CiOutcome)> {
        let mut entries: Vec<(QueryKey, CiOutcome)> =
            self.cache.iter().map(|(k, v)| (k.clone(), *v)).collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    }

    /// Cache lookup for a demanded query: the memo first, then the
    /// patched outcomes parked at dataset extension.
    pub(crate) fn cache_get_tracked(&mut self, key: &QueryKey) -> Option<CiOutcome> {
        if let Some(hit) = self.cache.get(key).copied() {
            return Some(hit);
        }
        // A memo miss consumes a parked patched outcome instead of
        // issuing: the answer moves into the memo (so the fingerprint
        // sees it, exactly as if this session had computed it cold) and
        // one `memo_patch_hit` is booked. The caller still accounts the
        // hit under `cache_hits`, keeping the per-batch arithmetic
        // (`requested == issued + hits`) unchanged.
        if let Some(out) = self.patched_pending.remove(key) {
            self.cache.insert(key.clone(), out);
            self.stats.memo_patch_hits += 1;
            return Some(out);
        }
        None
    }

    /// Park a batch of patched outcomes and stamp the extension ledger.
    /// Called once at `extended_over` birth; `invalidated` counts the
    /// parent memos whose sufficient statistics could not be patched.
    pub(crate) fn set_patched_pending(
        &mut self,
        patched: HashMap<QueryKey, CiOutcome, PreHashed>,
        invalidated: u64,
    ) {
        self.stats.memoized_before = patched.len() as u64 + invalidated;
        self.stats.memo_patched = patched.len() as u64;
        self.stats.memo_invalidated = invalidated;
        self.patched_pending = patched;
    }

    pub(crate) fn cache_insert(&mut self, key: QueryKey, out: CiOutcome) {
        self.cache.insert(key, out);
    }

    pub(crate) fn tester_mut(&mut self) -> &mut T {
        &mut self.tester
    }

    /// Borrow the tester and the (lazily spawned) worker pool together —
    /// the two shared references a parallel batch dispatch needs.
    ///
    /// The pool only ever *grows* to the high-water worker count: a
    /// long-lived session serving callers with different `workers` values
    /// (the server registry deliberately shares sessions across that
    /// knob) must not tear threads down and respawn them per batch. Idle
    /// threads sleep on a condvar and cost nothing; a smaller request's
    /// chunks may therefore run with more concurrency than it asked for,
    /// which can only finish sooner and — by the byte-identity contract —
    /// never changes results.
    pub(crate) fn exec_parts(&mut self, workers: usize) -> (&T, &WorkerPool) {
        let grow = self.pool.as_ref().is_none_or(|p| p.threads() < workers);
        if grow {
            self.pool = Some(WorkerPool::new(workers));
        }
        (&self.tester, self.pool.as_ref().expect("pool just ensured"))
    }

    /// Overwrite the cumulative encoding-cache counters (read back from a
    /// batch-aware tester after each batched run).
    pub(crate) fn set_encode_stats(&mut self, stats: EncodeStats) {
        self.stats.encode_cache_hits = stats.hits;
        self.stats.encode_cache_misses = stats.misses;
        self.stats.encode_cache_evictions = stats.evictions;
        self.stats.narrow_code_bytes = stats.narrow_code_bytes;
        self.stats.dense_count_cells = stats.dense_count_cells;
        self.stats.append_rows = stats.append_rows;
        self.stats.extended_encodings = stats.extended_encodings;
    }

    /// Overwrite the cumulative scaffold-ledger counters (read back from
    /// the tester alongside the encode-cache counters).
    pub(crate) fn set_scaffold_stats(&mut self, stats: fairsel_ci::ScaffoldStats) {
        self.stats.extended_scaffolds = stats.extended;
        self.stats.rebuilt_scaffolds = stats.rebuilt;
        self.stats.resident_scaffolds = stats.resident;
        self.stats.scaffold_evictions = stats.evictions;
        self.stats.resident_suff_tables = stats.suff_tables;
        self.stats.suff_evictions = stats.suff_evictions;
    }

    pub(crate) fn account_batch(
        &mut self,
        requested: u64,
        issued: u64,
        hits: u64,
        wall_ms: f64,
        kind: BatchKind,
    ) {
        let st = &mut self.stats;
        st.requested += requested;
        st.issued += issued;
        st.cache_hits += hits;
        st.batches += 1;
        if kind == BatchKind::GroupedParallel {
            st.parallel_batches += 1;
        }
        if matches!(kind, BatchKind::Grouped | BatchKind::GroupedParallel) {
            st.grouped_batches += 1;
        }
        st.max_batch = st.max_batch.max(issued as usize);
        st.wall_ms += wall_ms;
        // Exact latency distribution per execution kind, beside the
        // cumulative wall_ms mean; counting a batch never changes it.
        kind.histogram().record((wall_ms * 1e3) as u64);
        if let Some(i) = self.current_phase {
            let p = &mut self.stats.phases[i];
            p.requested += requested;
            p.issued += issued;
            p.cache_hits += hits;
            p.wall_ms += wall_ms;
        }
    }
}

impl<T: CiTest> CiTest for CiSession<T> {
    fn ci(&mut self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
        self.query(x, y, z)
    }

    fn n_vars(&self) -> usize {
        self.tester.n_vars()
    }

    fn name(&self) -> &'static str {
        self.tester.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dependent iff x and y share parity; counts invocations.
    struct ParityCi {
        n: usize,
        calls: u64,
    }

    impl CiTest for ParityCi {
        fn ci(&mut self, x: &[VarId], y: &[VarId], _z: &[VarId]) -> CiOutcome {
            self.calls += 1;
            CiOutcome::decided((x[0] + y[0]) % 2 == 1)
        }
        fn n_vars(&self) -> usize {
            self.n
        }
    }

    #[test]
    fn cache_hit_on_repeat_and_symmetry() {
        let mut s = CiSession::new(ParityCi { n: 4, calls: 0 });
        let a = s.query(&[0], &[1], &[2]);
        let b = s.query(&[0], &[1], &[2]); // repeat
        let c = s.query(&[1], &[0], &[2]); // symmetric spelling
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(s.stats().requested, 3);
        assert_eq!(s.stats().issued, 1);
        assert_eq!(s.stats().cache_hits, 2);
        assert_eq!(s.tester().calls, 1);
        assert!((s.stats().dedup_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn distinct_conditioning_not_conflated() {
        let mut s = CiSession::new(ParityCi { n: 4, calls: 0 });
        s.query(&[0], &[1], &[]);
        s.query(&[0], &[1], &[2]);
        assert_eq!(s.stats().issued, 2);
        assert_eq!(s.cache_len(), 2);
    }

    #[test]
    fn phase_accounting_splits() {
        let mut s = CiSession::new(ParityCi { n: 6, calls: 0 });
        s.set_phase("p1");
        s.query(&[0], &[1], &[]);
        s.query(&[0], &[1], &[]);
        s.set_phase("p2");
        s.query(&[2], &[3], &[]);
        let st = s.stats();
        assert_eq!(st.phases.len(), 2);
        assert_eq!(st.phases[0].requested, 2);
        assert_eq!(st.phases[0].issued, 1);
        assert_eq!(st.phases[0].cache_hits, 1);
        assert_eq!(st.phases[1].requested, 1);
        assert_eq!(st.phases[1].issued, 1);
    }

    #[test]
    fn works_as_ci_test_and_nests() {
        let mut inner = CiSession::new(ParityCi { n: 4, calls: 0 });
        inner.query(&[0], &[1], &[]);
        let mut outer = CiSession::new(&mut inner);
        let out = outer.ci(&[1], &[0], &[]);
        assert!(out.independent);
        // Outer session missed; inner session answered from its cache.
        assert_eq!(outer.stats().issued, 1);
        assert_eq!(inner.stats().cache_hits, 1);
        assert_eq!(inner.tester().calls, 1);
    }

    #[test]
    fn json_shape() {
        let mut s = CiSession::new(ParityCi { n: 4, calls: 0 });
        s.set_phase("only");
        s.query(&[0], &[1], &[]);
        let j = s.stats_json();
        assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
        for needle in [
            "\"requested\":1",
            "\"issued\":1",
            "\"cache_hits\":0",
            "\"phases\":[",
            "\"name\":\"only\"",
        ] {
            assert!(j.contains(needle), "missing {needle} in {j}");
        }
    }

    #[test]
    fn batch_histograms_are_the_registry_handles() {
        for kind in BatchKind::ALL {
            let registered = fairsel_obs::histogram(kind.histogram_name());
            assert!(Arc::ptr_eq(kind.histogram(), &registered), "{kind:?}");
            assert!(Arc::ptr_eq(kind.histogram(), kind.histogram()), "{kind:?}");
        }
        let names: Vec<&str> = BatchKind::ALL.map(BatchKind::histogram_name).to_vec();
        assert_eq!(
            names,
            [
                "engine_batch/sequential",
                "engine_batch/grouped",
                "engine_batch/grouped_parallel"
            ]
        );
    }

    #[test]
    fn clear_cache_forces_reissue() {
        let mut s = CiSession::new(ParityCi { n: 4, calls: 0 });
        s.query(&[0], &[1], &[]);
        s.clear_cache();
        s.query(&[0], &[1], &[]);
        assert_eq!(s.stats().issued, 2);
    }
}
