//! Batch execution: cache-aware deduplication, then one of the two
//! executors — per-query evaluation ([`CiSession::run_batch`]) or the
//! Z-grouped scheduler on the worker pool ([`CiSession::run_batch_grouped`]).

use crate::key::{CiQuery, CondSet, PreHashed, QueryKey};
use crate::session::{BatchKind, CiSession};
use fairsel_ci::{CiOutcome, CiQueryRef, CiTest, CiTestBatch, VarId};
use std::collections::hash_map::{Entry, HashMap};
use std::time::Instant;

/// Worker count the Z-grouped scheduler defaults to: one per available
/// hardware thread.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// How one query of a batch is answered.
#[derive(Clone, Copy)]
enum Answer {
    /// From the memo (or a parked patched outcome).
    Known(CiOutcome),
    /// By the evaluation of this miss slot.
    Miss(usize),
}

/// Cache-resolution plan for one batch.
struct BatchPlan {
    /// One answer per query, in input order.
    answers: Vec<Answer>,
    /// Unique missing keys, first-occurrence order.
    miss_keys: Vec<QueryKey>,
    /// Index into `queries` of the representative of each missing key.
    miss_repr: Vec<usize>,
    /// Queries answered without a tester invocation (cache + in-batch dedup).
    hits: u64,
}

fn plan<T: CiTest>(session: &mut CiSession<T>, queries: &[CiQuery]) -> BatchPlan {
    let mut plan = BatchPlan {
        answers: Vec::with_capacity(queries.len()),
        miss_keys: Vec::new(),
        miss_repr: Vec::new(),
        hits: 0,
    };
    let keys: Vec<QueryKey> = queries.iter().map(CiQuery::key).collect();
    let mut slot_of: HashMap<&QueryKey, usize, PreHashed> =
        HashMap::with_capacity_and_hasher(keys.len(), PreHashed);
    for (i, key) in keys.iter().enumerate() {
        if let Some(hit) = session.cache_get_tracked(key) {
            plan.answers.push(Answer::Known(hit));
            plan.hits += 1;
            continue;
        }
        match slot_of.entry(key) {
            Entry::Occupied(e) => {
                // In-batch duplicate: evaluated once, counted as a hit.
                plan.answers.push(Answer::Miss(*e.get()));
                plan.hits += 1;
            }
            Entry::Vacant(e) => {
                e.insert(plan.miss_repr.len());
                plan.answers.push(Answer::Miss(plan.miss_repr.len()));
                plan.miss_repr.push(i);
            }
        }
    }
    drop(slot_of);
    // `miss_repr` ascends, so one pass moves each representative's key out
    // (no copy of a wide conditioning set).
    let mut repr = plan.miss_repr.iter().copied().peekable();
    plan.miss_keys = keys
        .into_iter()
        .enumerate()
        .filter_map(|(i, k)| repr.next_if_eq(&i).map(|_| k))
        .collect();
    plan
}

fn finish<T: CiTest>(
    session: &mut CiSession<T>,
    queries: &[CiQuery],
    mut plan: BatchPlan,
    evaluated: Vec<CiOutcome>,
    wall_ms: f64,
    kind: BatchKind,
) -> Vec<CiOutcome> {
    debug_assert_eq!(evaluated.len(), plan.miss_keys.len());
    for (key, &out) in plan.miss_keys.drain(..).zip(&evaluated) {
        session.cache_insert(key, out);
    }
    let issued = evaluated.len() as u64;
    session.account_batch(queries.len() as u64, issued, plan.hits, wall_ms, kind);
    plan.answers
        .into_iter()
        .map(|answer| match answer {
            Answer::Known(out) => out,
            Answer::Miss(slot) => evaluated[slot],
        })
        .collect()
}

impl<T: CiTest> CiSession<T> {
    /// Evaluate a batch of independent queries sequentially, deduplicated
    /// against the memo cache and against each other. Results come back in
    /// input order.
    pub fn run_batch(&mut self, queries: &[CiQuery]) -> Vec<CiOutcome> {
        let plan = plan(self, queries);
        // analyze: wall-clock batch wall_ms telemetry only; never branches execution
        let t0 = Instant::now();
        let _sp = fairsel_obs::span_kv("tester.eval", || {
            vec![
                ("kind", "sequential".into()),
                ("misses", plan.miss_repr.len().to_string()),
            ]
        });
        let evaluated: Vec<CiOutcome> = plan
            .miss_repr
            .iter()
            .map(|&i| {
                let q = &queries[i];
                self.tester_mut().ci(&q.x, &q.y, &q.z)
            })
            .collect();
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        finish(
            self,
            queries,
            plan,
            evaluated,
            wall_ms,
            BatchKind::Sequential,
        )
    }
}

/// Borrow the representative query of each unique miss as a
/// [`CiQueryRef`] batch.
fn miss_repr_refs<'q>(plan: &BatchPlan, queries: &'q [CiQuery]) -> Vec<CiQueryRef<'q>> {
    plan.miss_repr
        .iter()
        .map(|&i| {
            let q = &queries[i];
            CiQueryRef {
                x: &q.x,
                y: &q.y,
                z: &q.z,
            }
        })
        .collect()
}

impl<T: CiTestBatch> CiSession<T> {
    /// The Z-grouped scheduler — the production batch path.
    ///
    /// The unique cache misses are partitioned by *canonical conditioning
    /// set* and each group is evaluated through the tester's
    /// [`CiTestBatch::eval_z_group`], so the per-`Z` scaffold
    /// (stratification, normal-equation factorization, standardized
    /// conditioning block) is built once per distinct set instead of once
    /// per query. With `workers > 1` the groups are split into steal-able
    /// chunks on the session's persistent worker pool — one shared deque,
    /// so a giant group cannot serialize a frontier level — and results
    /// are reassembled in input order; outcomes are byte-identical at
    /// every worker count (the `eval_z_group` contract).
    pub fn run_batch_grouped(&mut self, queries: &[CiQuery], workers: usize) -> Vec<CiOutcome> {
        let plan = plan(self, queries);
        let items: Vec<CiQueryRef<'_>> = miss_repr_refs(&plan, queries);
        let total = items.len();

        // Partition by interned conditioning set (taken from the keys,
        // hashed once when interned), first-occurrence order.
        let mut group_of: HashMap<&CondSet, usize, PreHashed> = HashMap::default();
        let mut groups: Vec<(&[VarId], Vec<usize>)> = Vec::new();
        for (i, key) in plan.miss_keys.iter().enumerate() {
            let z = key.z();
            match group_of.get(z) {
                Some(&g) => groups[g].1.push(i),
                None => {
                    group_of.insert(z, groups.len());
                    groups.push((&z[..], vec![i]));
                }
            }
        }

        let parallel = workers > 1 && total > 1;
        // analyze: wall-clock batch wall_ms telemetry only; never branches execution
        let t0 = Instant::now();
        let _sp = fairsel_obs::span_kv("tester.eval", || {
            vec![
                (
                    "kind",
                    if parallel {
                        "grouped_parallel"
                    } else {
                        "grouped"
                    }
                    .into(),
                ),
                ("misses", total.to_string()),
                ("zgroups", groups.len().to_string()),
            ]
        });
        let mut evaluated: Vec<Option<CiOutcome>> = vec![None; total];
        if !parallel {
            let tester = self.tester();
            for (z, idxs) in &groups {
                let refs: Vec<CiQueryRef<'_>> = idxs.iter().map(|&i| items[i]).collect();
                let _sp = fairsel_obs::span_kv("zgroup.eval", || {
                    vec![
                        ("z_len", z.len().to_string()),
                        ("queries", refs.len().to_string()),
                    ]
                });
                let outs = tester.eval_z_group(z, &refs);
                for (&i, o) in idxs.iter().zip(outs) {
                    evaluated[i] = Some(o);
                }
            }
        } else {
            // Steal-able tasks: Z-groups split into chunks of
            // ceil(total / (workers·4)) queries, so one giant group spreads
            // across the pool; at most 4·workers misses make each query a task.
            let chunk = total.div_ceil(workers * 4).max(1);
            let tasks: Vec<(&[VarId], Vec<usize>)> = groups
                .iter()
                .flat_map(|(z, idxs)| idxs.chunks(chunk).map(|c| (*z, c.to_vec())))
                .collect();
            let mut outs: Vec<Option<Vec<CiOutcome>>> = vec![None; tasks.len()];
            let items_ref = &items;
            let (tester, pool) = self.exec_parts(workers);
            pool.run_scoped(
                outs.iter_mut()
                    .zip(&tasks)
                    .map(|(slot, (z, idxs))| {
                        move || {
                            let refs: Vec<CiQueryRef<'_>> =
                                idxs.iter().map(|&i| items_ref[i]).collect();
                            let _sp = fairsel_obs::span_kv("zgroup.eval", || {
                                vec![
                                    ("z_len", z.len().to_string()),
                                    ("queries", refs.len().to_string()),
                                ]
                            });
                            *slot = Some(tester.eval_z_group(z, &refs));
                        }
                    })
                    .collect(),
            );
            for ((_, idxs), outs) in tasks.iter().zip(outs) {
                for (&i, o) in idxs.iter().zip(outs.expect("pool task completed")) {
                    evaluated[i] = Some(o);
                }
            }
        }
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

        let evaluated: Vec<CiOutcome> = evaluated
            .into_iter()
            .map(|o| o.expect("missed query evaluated"))
            .collect();
        drop(groups);
        let kind = if parallel {
            BatchKind::GroupedParallel
        } else {
            BatchKind::Grouped
        };
        let out = finish(self, queries, plan, evaluated, wall_ms, kind);
        self.refresh_encode_stats();
        out
    }

    /// Copy the tester's cumulative encode-cache counters into the
    /// session telemetry. Batched runs do this automatically; call it
    /// after per-query routes (e.g. SeqSel's single-query path) so the
    /// `encode_cache_*` fields reflect the tester's real cache activity.
    pub fn refresh_encode_stats(&mut self) {
        let s = self.tester().encode_cache_stats();
        self.set_encode_stats(s);
        let sc = self.tester().scaffold_stats();
        self.set_scaffold_stats(sc);
    }

    /// Lineage-aware session transfer for dataset extension.
    ///
    /// Build a session over `child` — a table produced by appending rows
    /// to this session's dataset ([`fairsel_ci::EncodedTable::extend`]) —
    /// carrying forward what stays valid and re-deriving what can be
    /// re-derived in O(batch):
    ///
    /// * **Tester scaffolds are extended.** The tester decides per
    ///   scaffold kind what survives ([`CiTestBatch::extend_over`]):
    ///   stratifications and design matrices extend over the appended
    ///   rows; whole-sample artifacts (residuals, standardized blocks)
    ///   rebuild on demand. Either way the child answers bit-for-bit what
    ///   a cold session over the concatenated table answers.
    /// * **Memoized outcomes are patched or invalidated.** Every memoized
    ///   p-value depends on `n`, so none survives verbatim — but testers
    ///   whose sufficient statistic is an integer contingency table
    ///   ([`CiTestBatch::patched_outcome`]) re-derive the outcome at the
    ///   new `n` from retained per-stratum counts patched by the appended
    ///   rows alone. Patched outcomes are parked *outside* the memo and
    ///   consumed on first demand, so the child is born memo-empty and
    ///   its fingerprint covers exactly the demanded workload. Queries
    ///   whose counts were evicted, whose encoding isn't prefix-stable,
    ///   or whose tester can't patch (float moment sums reassociate) are
    ///   invalidated and re-issued on demand — the PR-8 path. The ledger
    ///   (`memoized_before = memo_patched + memo_invalidated`) is stamped
    ///   at birth.
    /// * **An empty batch patches everything trivially.** When the child
    ///   has no appended rows, every memoized outcome is still exact:
    ///   the whole memo parks as patched, zero invalidated, no tester
    ///   calls.
    ///
    /// Returns `None` when the tester has no extension path (the default
    /// for testers that never opted in) — the caller falls back to a cold
    /// rebuild. The child's scaffold/encode counters are refreshed before
    /// returning, so the warm-birth ledger (`extended_scaffolds`,
    /// `extended_encodings`, `append_rows`, `memo_patched`) is visible
    /// before any query. Traced as `engine.extend`.
    pub fn extended_over(
        &self,
        child: std::sync::Arc<fairsel_ci::EncodedTable>,
    ) -> Option<CiSession<Box<dyn CiTestBatch + Send + Sync>>> {
        let _sp = fairsel_obs::span("engine.extend");
        let empty_batch = child.n_rows() == child.base_rows();
        let tester = self.tester().extend_over(child)?;
        let mut session = CiSession::new(tester);
        let mut patched: HashMap<QueryKey, CiOutcome, PreHashed> = HashMap::default();
        let mut invalidated = 0u64;
        for (key, out) in self.memo_snapshot() {
            if empty_batch {
                // n is unchanged: the memoized outcome is still exact.
                patched.insert(key, out);
                continue;
            }
            match session.tester().patched_outcome(key.x(), key.y(), key.z()) {
                Some(out) => {
                    patched.insert(key, out);
                }
                None => invalidated += 1,
            }
        }
        session.set_patched_pending(patched, invalidated);
        session.refresh_encode_stats();
        Some(session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsel_ci::{CiTestShared, VarId};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Shared-capable tester: independent iff |x0 − y0| > 1. Counts calls
    /// atomically so parallel tests can assert issue counts.
    struct GapCi {
        n: usize,
        calls: AtomicU64,
    }

    impl GapCi {
        fn new(n: usize) -> Self {
            Self {
                n,
                calls: AtomicU64::new(0),
            }
        }
    }

    impl CiTest for GapCi {
        fn ci(&mut self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
            self.ci_shared(x, y, z)
        }
        fn n_vars(&self) -> usize {
            self.n
        }
    }

    impl CiTestShared for GapCi {
        fn ci_shared(&self, x: &[VarId], y: &[VarId], _z: &[VarId]) -> CiOutcome {
            self.calls.fetch_add(1, Ordering::Relaxed);
            CiOutcome::decided(x[0].abs_diff(y[0]) > 1)
        }
    }

    impl CiTestBatch for GapCi {}

    fn queries(n: usize) -> Vec<CiQuery> {
        (0..n).map(|i| CiQuery::new(&[i], &[i + 2], &[])).collect()
    }

    #[test]
    fn batch_results_in_input_order() {
        let mut s = CiSession::new(GapCi::new(64));
        let qs = queries(10);
        let out = s.run_batch(&qs);
        assert_eq!(out.len(), 10);
        assert!(out.iter().all(|o| o.independent));
        assert_eq!(s.stats().issued, 10);
        assert_eq!(s.stats().batches, 1);
    }

    #[test]
    fn batch_dedups_within_and_across() {
        let mut s = CiSession::new(GapCi::new(64));
        // Same canonical key three times (plain repeat + symmetric flip).
        let qs = vec![
            CiQuery::new(&[0], &[2], &[]),
            CiQuery::new(&[0], &[2], &[]),
            CiQuery::new(&[2], &[0], &[]),
            CiQuery::new(&[5], &[6], &[]),
        ];
        let out = s.run_batch(&qs);
        assert_eq!(s.stats().issued, 2, "two unique keys");
        assert_eq!(s.stats().cache_hits, 2);
        assert_eq!(out[0], out[1]);
        assert_eq!(out[0], out[2]);
        assert!(!out[3].independent);
        // A second batch of the same queries is all hits.
        s.run_batch(&qs);
        assert_eq!(s.stats().issued, 2);
        assert_eq!(s.stats().cache_hits, 6);
        assert_eq!(s.tester().calls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn parallel_matches_sequential() {
        let qs = queries(257);
        let mut seq = CiSession::new(GapCi::new(1024));
        let a = seq.run_batch(&qs);
        for workers in [2, 3, 8] {
            let mut par = CiSession::new(GapCi::new(1024));
            let b = par.run_batch_grouped(&qs, workers);
            assert_eq!(a, b, "parallel({workers}) diverged");
            assert_eq!(par.stats().issued, seq.stats().issued);
            assert_eq!(par.stats().parallel_batches, 1);
        }
    }

    #[test]
    fn parallel_small_batch_falls_back() {
        let mut s = CiSession::new(GapCi::new(8));
        let out = s.run_batch_grouped(&[CiQuery::new(&[0], &[3], &[])], 8);
        assert!(out[0].independent);
        assert_eq!(
            s.stats().parallel_batches,
            0,
            "single miss should not spawn"
        );
    }

    #[test]
    fn parallel_only_issues_misses() {
        let mut s = CiSession::new(GapCi::new(64));
        let qs = queries(20);
        s.run_batch(&qs[..10]);
        s.run_batch_grouped(&qs, 4);
        assert_eq!(s.stats().issued, 20);
        assert_eq!(s.tester().calls.load(Ordering::Relaxed), 20);
        assert_eq!(s.stats().cache_hits, 10);
        assert_eq!(s.stats().max_batch, 10);
    }

    #[test]
    fn default_workers_positive() {
        assert!(default_workers() >= 1);
    }

    /// Batch-aware tester: same decision rule as [`GapCi`], but counts
    /// `eval_z_group` invocations and reports fake encode-cache telemetry.
    struct BatchGapCi {
        inner: GapCi,
        group_calls: AtomicU64,
    }

    impl BatchGapCi {
        fn new(n: usize) -> Self {
            Self {
                inner: GapCi::new(n),
                group_calls: AtomicU64::new(0),
            }
        }
    }

    impl CiTest for BatchGapCi {
        fn ci(&mut self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
            self.inner.ci(x, y, z)
        }
        fn n_vars(&self) -> usize {
            self.inner.n_vars()
        }
    }

    impl CiTestShared for BatchGapCi {
        fn ci_shared(&self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
            self.inner.ci_shared(x, y, z)
        }
    }

    impl CiTestBatch for BatchGapCi {
        fn eval_z_group(&self, _z: &[VarId], queries: &[CiQueryRef<'_>]) -> Vec<CiOutcome> {
            self.group_calls.fetch_add(1, Ordering::Relaxed);
            queries
                .iter()
                .map(|q| self.ci_shared(q.x, q.y, q.z))
                .collect()
        }
        fn encode_cache_stats(&self) -> fairsel_ci::EncodeStats {
            fairsel_ci::EncodeStats {
                hits: self.inner.calls.load(Ordering::Relaxed),
                misses: 1,
                ..Default::default()
            }
        }
    }

    /// Queries spread over three conditioning sets, so the grouped
    /// scheduler actually partitions.
    fn grouped_queries(n: usize) -> Vec<CiQuery> {
        (0..n)
            .map(|i| CiQuery::new(&[i], &[i + 2], &[100 + i % 3]))
            .collect()
    }

    #[test]
    fn grouped_matches_per_query_paths() {
        let qs = grouped_queries(57);
        let mut seq = CiSession::new(GapCi::new(1024));
        let reference = seq.run_batch(&qs);
        for workers in [1usize, 2, 4] {
            let mut s = CiSession::new(BatchGapCi::new(1024));
            let got = s.run_batch_grouped(&qs, workers);
            assert_eq!(reference, got, "workers {workers}");
            assert_eq!(s.stats().issued, seq.stats().issued);
            assert_eq!(s.stats().grouped_batches, 1);
            assert_eq!(
                s.stats().parallel_batches,
                u64::from(workers > 1),
                "workers {workers}"
            );
        }
    }

    #[test]
    fn batched_dedups_and_reports_encode_stats() {
        let mut s = CiSession::new(BatchGapCi::new(64));
        let qs = vec![
            CiQuery::new(&[0], &[2], &[]),
            CiQuery::new(&[2], &[0], &[]), // symmetric duplicate
            CiQuery::new(&[5], &[6], &[]),
        ];
        s.run_batch_grouped(&qs, 1);
        assert_eq!(s.stats().issued, 2);
        assert_eq!(s.stats().cache_hits, 1);
        // Encode counters were synced from the tester after the batch.
        assert_eq!(s.stats().encode_cache_hits, 2);
        assert_eq!(s.stats().encode_cache_misses, 1);
        // Replaying the batch is all memo hits: no new group evaluation.
        s.run_batch_grouped(&qs, 1);
        assert_eq!(s.stats().issued, 2);
        assert_eq!(s.tester().group_calls.load(Ordering::Relaxed), 1);
        assert_eq!(s.tester().inner.calls.load(Ordering::Relaxed), 2);
    }

    /// Testers that never opt into extension make `extended_over` decline,
    /// signalling the caller to rebuild cold.
    #[test]
    fn extended_over_declines_without_tester_support() {
        use fairsel_table::{Column, Role, Table};
        let t = Table::new(vec![Column::cat("a", Role::Feature, vec![0, 1], 2)]).unwrap();
        let enc = std::sync::Arc::new(fairsel_ci::EncodedTable::new(&t));
        let s = CiSession::new(BatchGapCi::new(8));
        assert!(s.extended_over(enc).is_none());
    }

    /// Lineage-aware transfer with a real tester: the child session is
    /// born warm (append/extension counters visible before any query),
    /// memo-empty, and answers the whole workload byte-identically to a
    /// cold session over the concatenated table — including every engine
    /// counter that does not measure the transfer itself.
    #[test]
    fn extended_session_matches_cold_on_concatenated_table() {
        use fairsel_ci::GTest;
        use fairsel_table::{Column, Role, Table};

        // Deterministic mixed rows (splitmix-style) — no RNG dependency.
        let gen_rows = |n: usize, seed: u64| {
            let mix = |i: u64| {
                let mut v = (i + seed).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                v ^= v >> 31;
                v
            };
            let a: Vec<u32> = (0..n).map(|i| (mix(i as u64) % 3) as u32).collect();
            let b: Vec<u32> = a
                .iter()
                .enumerate()
                .map(|(i, &v)| (v + (mix(i as u64 ^ 0xff) % 2) as u32) % 3)
                .collect();
            let c: Vec<u32> = (0..n)
                .map(|i| (mix(i as u64 ^ 0xa5a5) % 2) as u32)
                .collect();
            Table::new(vec![
                Column::cat("a", Role::Feature, a, 3),
                Column::cat("b", Role::Feature, b, 3),
                Column::cat("c", Role::Target, c, 2),
            ])
            .unwrap()
        };
        let parent_t = gen_rows(600, 5);
        let batch = gen_rows(150, 6);
        let qs = vec![
            CiQuery::new(&[0], &[2], &[]),
            CiQuery::new(&[0], &[2], &[1]),
            CiQuery::new(&[1], &[2], &[0]),
            CiQuery::new(&[0, 1], &[2], &[]),
        ];

        let parent_enc = std::sync::Arc::new(fairsel_ci::EncodedTable::new(&parent_t));
        let mut parent = CiSession::new(GTest::over(parent_enc.clone(), 0.05));
        parent.run_batch_grouped(&qs, 1);

        let child_enc = std::sync::Arc::new(parent_enc.extend(&batch).unwrap());
        let mut warm = parent
            .extended_over(child_enc)
            .expect("GTest supports extension");
        // Born warm: transfer ledger visible before any query runs.
        let birth = warm.stats().clone();
        assert!(birth.append_rows > 0, "{birth:?}");
        assert!(birth.extended_encodings > 0, "{birth:?}");
        assert!(birth.extended_scaffolds > 0, "{birth:?}");
        assert_eq!(birth.rebuilt_scaffolds, 0, "{birth:?}");
        assert!(birth.scaffolds_conserved(), "{birth:?}");
        // The extension ledger is stamped at birth and conserved: every
        // parent memo either patched (sufficient statistic re-derived at
        // the new n) or invalidated.
        assert_eq!(birth.memoized_before, 4, "{birth:?}");
        assert!(birth.memos_conserved(), "{birth:?}");
        assert!(birth.memo_patched > 0, "{birth:?}");
        // Patched outcomes are parked, not memoized: the child is born
        // memo-empty so its fingerprint covers the demanded workload.
        assert_eq!(warm.cache_len(), 0);

        let concat = parent_t.concat(&batch).unwrap();
        let mut cold = CiSession::new(GTest::new(&concat, 0.05));
        for workers in [1, 4] {
            let a = warm.run_batch_grouped(&qs, workers);
            let b = cold.run_batch_grouped(&qs, workers);
            assert_eq!(a, b, "workers={workers}");
        }
        assert_eq!(warm.outcomes_fingerprint(), cold.outcomes_fingerprint());
        // Engine counters: every consumed patch replaces one cold issue
        // (and is booked as a cache hit), so issued + patch hits and
        // hits − patch hits are conserved against the cold run.
        let (w, c) = (warm.stats(), cold.stats());
        assert_eq!(w.requested, c.requested);
        assert_eq!(w.issued + w.memo_patch_hits, c.issued);
        assert_eq!(w.cache_hits, c.cache_hits + w.memo_patch_hits);
        assert_eq!(
            w.memo_patch_hits, w.memo_patched,
            "the workload demanded every patched key"
        );
        assert!(w.issued < c.issued, "patching must save issues");
        assert_eq!(w.batches, c.batches);
        assert!(w.scaffolds_conserved(), "{w:?}");
        // The savings: the warm session re-derived fewer scaffolds.
        assert!(
            w.rebuilt_scaffolds < c.rebuilt_scaffolds,
            "warm rebuilt {} vs cold {}",
            w.rebuilt_scaffolds,
            c.rebuilt_scaffolds
        );
    }
}
