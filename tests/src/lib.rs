//! Cross-crate property tests: the execution engine must be a *pure
//! optimization*. Selections computed through [`fairsel_engine::CiSession`]
//! — cached, batched, parallel — are compared against reference
//! implementations that call the testers directly, exactly as the paper's
//! pseudocode does.

/// Reference (engine-free) implementations of SeqSel and GrpSel: direct
/// tester invocations, depth-first recursion, no cache. These mirror the
/// paper's Algorithms 1–4 line by line and exist only as test oracles.
pub mod reference {
    use fairsel_ci::{CiTest, VarId};
    use fairsel_core::{Problem, SelectConfig, Selection};
    use fairsel_engine::CondSet;

    /// Algorithm 1 with direct tester calls.
    pub fn seqsel_direct<T: CiTest + ?Sized>(
        tester: &mut T,
        problem: &Problem,
        cfg: &SelectConfig,
    ) -> Selection {
        let subsets = cfg.admissible_subsets(&problem.admissible);
        let mut out = Selection::default();
        let mut remaining = Vec::new();
        for &x in &problem.features {
            let mut admitted = false;
            for sub in &subsets {
                out.tests_used += 1;
                if tester.ci(&[x], &problem.sensitive, sub).independent {
                    admitted = true;
                    break;
                }
            }
            if admitted {
                out.c1.push(x);
            } else {
                remaining.push(x);
            }
        }
        let mut cond: Vec<VarId> = problem.admissible.clone();
        cond.extend(&out.c1);
        for &x in &remaining {
            out.tests_used += 1;
            if tester.ci(&[x], &[problem.target], &cond).independent {
                out.c2.push(x);
            } else {
                out.rejected.push(x);
            }
        }
        out
    }

    /// Algorithms 2–4 with direct tester calls and depth-first halving.
    pub fn grpsel_direct<T: CiTest + ?Sized>(
        tester: &mut T,
        problem: &Problem,
        cfg: &SelectConfig,
    ) -> Selection {
        let subsets = cfg.admissible_subsets(&problem.admissible);
        let mut out = Selection::default();
        let mut remaining: Vec<VarId> = Vec::new();
        phase1(
            tester,
            problem,
            &subsets,
            &problem.features,
            &mut out,
            &mut remaining,
        );
        let mut cond: Vec<VarId> = problem.admissible.clone();
        cond.extend(&out.c1);
        phase2(tester, problem, &cond, &remaining, &mut out);
        out
    }

    fn phase1<T: CiTest + ?Sized>(
        tester: &mut T,
        problem: &Problem,
        subsets: &[CondSet],
        group: &[VarId],
        out: &mut Selection,
        remaining: &mut Vec<VarId>,
    ) {
        if group.is_empty() {
            return;
        }
        for sub in subsets {
            out.tests_used += 1;
            if tester.ci(group, &problem.sensitive, sub).independent {
                out.c1.extend_from_slice(group);
                return;
            }
        }
        if group.len() == 1 {
            remaining.push(group[0]);
            return;
        }
        let (left, right) = group.split_at(group.len() / 2);
        phase1(tester, problem, subsets, left, out, remaining);
        phase1(tester, problem, subsets, right, out, remaining);
    }

    fn phase2<T: CiTest + ?Sized>(
        tester: &mut T,
        problem: &Problem,
        cond: &[VarId],
        group: &[VarId],
        out: &mut Selection,
    ) {
        if group.is_empty() {
            return;
        }
        out.tests_used += 1;
        if tester.ci(group, &[problem.target], cond).independent {
            out.c2.extend_from_slice(group);
            return;
        }
        if group.len() == 1 {
            out.rejected.push(group[0]);
            return;
        }
        let (left, right) = group.split_at(group.len() / 2);
        phase2(tester, problem, cond, left, out);
        phase2(tester, problem, cond, right, out);
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{grpsel_direct, seqsel_direct};
    use fairsel_ci::{GTest, OracleCi};
    use fairsel_core::{
        grpsel, grpsel_batched_in, grpsel_in, seqsel, seqsel_in, Problem, SelectConfig,
    };
    use fairsel_datasets::sim::sample_table;
    use fairsel_datasets::synthetic::{synthetic_instance, synthetic_scm, SyntheticConfig};
    use fairsel_discovery::{pc, pc_in};
    use fairsel_engine::CiSession;
    use fairsel_graph::Dag;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn instance(seed: u64, n: usize, biased: f64) -> (Dag, Problem) {
        let cfg = SyntheticConfig {
            n_features: n,
            biased_fraction: biased,
            ..Default::default()
        };
        let inst = synthetic_instance(&mut StdRng::seed_from_u64(seed), &cfg);
        let problem = Problem::from_roles(&inst.roles);
        (inst.dag, problem)
    }

    /// SeqSel through the engine is byte-identical to direct tester calls
    /// — same partition, same number of issued tests — across random
    /// oracle instances.
    #[test]
    fn seqsel_engine_equals_direct_oracle() {
        for seed in 0..20u64 {
            let (dag, problem) = instance(seed, 31, 0.2);
            let cfg = SelectConfig::default();
            let direct = seqsel_direct(&mut OracleCi::from_dag(dag.clone()), &problem, &cfg);
            let engine = seqsel(&mut OracleCi::from_dag(dag), &problem, &cfg);
            assert_eq!(direct.c1, engine.c1, "seed {seed}");
            assert_eq!(direct.c2, engine.c2, "seed {seed}");
            assert_eq!(direct.rejected, engine.rejected, "seed {seed}");
            assert_eq!(direct.tests_used, engine.tests_used, "seed {seed}");
        }
    }

    /// GrpSel through the engine (frontier batches) equals the direct
    /// depth-first recursion: same partition as *sets* and the same test
    /// count (the frontier reorders queries, never adds or drops one).
    #[test]
    fn grpsel_engine_equals_direct_oracle() {
        for seed in 0..20u64 {
            let (dag, problem) = instance(seed, 37, 0.15);
            let cfg = SelectConfig::default();
            let direct =
                grpsel_direct(&mut OracleCi::from_dag(dag.clone()), &problem, &cfg).normalized();
            let engine = grpsel(&mut OracleCi::from_dag(dag), &problem, &cfg).normalized();
            assert_eq!(direct.c1, engine.c1, "seed {seed}");
            assert_eq!(direct.c2, engine.c2, "seed {seed}");
            assert_eq!(direct.rejected, engine.rejected, "seed {seed}");
            assert_eq!(direct.tests_used, engine.tests_used, "seed {seed}");
        }
    }

    /// The equivalence also holds on sampled data with the G-test — the
    /// tester the paper uses for discrete benchmarks — including the
    /// Z-grouped scheduler on the worker pool.
    #[test]
    fn selections_equal_on_data_tester() {
        let cfg_inst = SyntheticConfig {
            n_features: 18,
            biased_fraction: 0.2,
            predictive_fraction: 0.25,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(3);
        let inst = synthetic_instance(&mut rng, &cfg_inst);
        let scm = synthetic_scm(&mut rng, &inst, 1.5);
        let table = sample_table(&scm, &inst.roles, 3000, &mut rng);
        let problem = Problem::from_table(&table);
        let cfg = SelectConfig::default();

        let s_direct = seqsel_direct(&mut GTest::new(&table, 0.01), &problem, &cfg);
        let s_engine = seqsel(&mut GTest::new(&table, 0.01), &problem, &cfg);
        assert_eq!(s_direct.normalized(), s_engine.normalized());

        let g_direct = grpsel_direct(&mut GTest::new(&table, 0.01), &problem, &cfg).normalized();
        let g_engine = grpsel(&mut GTest::new(&table, 0.01), &problem, &cfg).normalized();
        assert_eq!(g_direct.c1, g_engine.c1);
        assert_eq!(g_direct.c2, g_engine.c2);
        assert_eq!(g_direct.rejected, g_engine.rejected);
        assert_eq!(g_direct.tests_used, g_engine.tests_used);

        for workers in [2usize, 4] {
            let mut session = CiSession::new(GTest::new(&table, 0.01));
            let g_par = grpsel_batched_in(&mut session, &problem, &cfg, None, workers).normalized();
            assert_eq!(g_direct.c1, g_par.c1, "workers {workers}");
            assert_eq!(g_direct.c2, g_par.c2);
            assert_eq!(g_direct.rejected, g_par.rejected);
            assert_eq!(g_direct.tests_used, g_par.tests_used);
        }
    }

    /// The acceptance-criterion test: a repeated-query workload through a
    /// shared session issues strictly fewer tests than the same workload
    /// against the bare tester. Replaying SeqSel is the extreme case —
    /// the second run is answered entirely from cache.
    #[test]
    fn cache_dedup_reduces_issued_tests() {
        let (dag, problem) = instance(11, 24, 0.2);
        let cfg = SelectConfig::default();

        // Direct: two runs cost exactly double.
        let mut tester = OracleCi::from_dag(dag.clone());
        let d1 = seqsel_direct(&mut tester, &problem, &cfg);
        let d2 = seqsel_direct(&mut tester, &problem, &cfg);
        let direct_total = d1.tests_used + d2.tests_used;

        // Shared session: the replay is free.
        let mut tester = OracleCi::from_dag(dag);
        let mut session = CiSession::new(&mut tester);
        let e1 = seqsel_in(&mut session, &problem, &cfg);
        let e2 = seqsel_in(&mut session, &problem, &cfg);
        assert_eq!(e1.tests_used, d1.tests_used, "cold run costs the same");
        assert_eq!(
            e1.clone().normalized().selected(),
            d1.clone().normalized().selected()
        );
        assert_eq!(e2.tests_used, 0, "replay must be fully cached");
        let engine_total = session.stats().issued;
        assert!(
            engine_total < direct_total,
            "engine {engine_total} !< direct {direct_total}"
        );
        assert_eq!(engine_total, d1.tests_used);
        assert!(session.stats().cache_hits >= d2.tests_used);
    }

    /// Sharing one session across algorithms also dedups: GrpSel's
    /// singleton phase-1 probes repeat queries SeqSel already issued.
    #[test]
    fn cross_algorithm_session_sharing_dedups() {
        let (dag, problem) = instance(13, 24, 0.3);
        let cfg = SelectConfig::default();

        let mut cold = OracleCi::from_dag(dag.clone());
        let grpsel_alone = grpsel(&mut cold, &problem, &cfg);

        let mut tester = OracleCi::from_dag(dag);
        let mut session = CiSession::new(&mut tester);
        let seq = seqsel_in(&mut session, &problem, &cfg);
        let grp = grpsel_in(&mut session, &problem, &cfg, None);
        assert_eq!(
            seq.selected(),
            grp.selected(),
            "algorithms agree under the oracle"
        );
        assert!(
            grp.tests_used < grpsel_alone.tests_used,
            "warm grpsel {} !< cold grpsel {}",
            grp.tests_used,
            grpsel_alone.tests_used
        );
        assert!(session.stats().cache_hits > 0);
    }

    /// PC through a warm session replays for free and returns the same
    /// CPDAG.
    #[test]
    fn pc_replay_is_cached() {
        let (dag, problem) = instance(17, 10, 0.2);
        let mut vars: Vec<usize> = problem.sensitive.clone();
        vars.extend(&problem.admissible);
        vars.extend(&problem.features);
        vars.push(problem.target);
        vars.sort_unstable();

        let cold = pc(&mut OracleCi::from_dag(dag.clone()), &vars, 2);

        let mut tester = OracleCi::from_dag(dag);
        let mut session = CiSession::new(&mut tester);
        let first = pc_in(&mut session, &vars, 2);
        let issued_after_first = session.stats().issued;
        let second = pc_in(&mut session, &vars, 2);
        assert_eq!(cold, first);
        assert_eq!(first, second);
        assert_eq!(
            session.stats().issued,
            issued_after_first,
            "replayed skeleton search must not issue new tests"
        );
    }

    /// Canonicalization across spellings: symmetric sides and reordered
    /// conditioning sets share one cache slot, even on a data tester.
    #[test]
    fn canonicalization_dedups_on_data() {
        let cfg_inst = SyntheticConfig {
            n_features: 6,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(5);
        let inst = synthetic_instance(&mut rng, &cfg_inst);
        let scm = synthetic_scm(&mut rng, &inst, 1.5);
        let table = sample_table(&scm, &inst.roles, 500, &mut rng);
        let mut tester = GTest::new(&table, 0.01);
        let mut session = CiSession::new(&mut tester);
        let a = session.query(&[0, 1], &[2], &[3, 4]);
        let b = session.query(&[2], &[1, 0], &[4, 3]);
        assert_eq!(a, b);
        assert_eq!(session.stats().issued, 1);
        assert_eq!(session.stats().cache_hits, 1);
    }

    /// End-to-end determinism: the engine-routed pipeline is reproducible
    /// under a fixed seed regardless of worker count.
    #[test]
    fn worker_count_never_changes_results() {
        let (dag, problem) = instance(23, 48, 0.1);
        let cfg = SelectConfig::default();
        let base = grpsel(&mut OracleCi::from_dag(dag.clone()), &problem, &cfg);
        for workers in [1usize, 2, 3, 7, 16] {
            let mut session = CiSession::new(OracleCi::from_dag(dag.clone()));
            let got = grpsel_batched_in(&mut session, &problem, &cfg, None, workers);
            assert_eq!(base.c1, got.c1, "workers {workers}");
            assert_eq!(base.c2, got.c2);
            assert_eq!(base.rejected, got.rejected);
            assert_eq!(base.tests_used, got.tests_used);
        }
    }

    /// Sanity: a non-trivial oracle CiTest invocation count flows through
    /// the whole stack (CountingCi wrapped *outside* the session sees
    /// exactly the issued tests).
    #[test]
    fn counting_wrapper_sees_only_issued() {
        let (dag, problem) = instance(29, 20, 0.2);
        let cfg = SelectConfig::default();
        let mut counted = fairsel_ci::CountingCi::new(OracleCi::from_dag(dag));
        let mut session = CiSession::new(&mut counted);
        let first = seqsel_in(&mut session, &problem, &cfg);
        let _second = seqsel_in(&mut session, &problem, &cfg);
        drop(session);
        assert_eq!(
            counted.count(),
            first.tests_used,
            "cache hits never reach the tester"
        );
    }
}

#[cfg(test)]
mod wide_group_regression {
    use fairsel_ci::GTest;
    use fairsel_core::{grpsel_batched_in, seqsel, Problem, SelectConfig};
    use fairsel_datasets::sim::sample_table;
    use fairsel_datasets::synthetic::{synthetic_instance, synthetic_scm, SyntheticConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Regression: a 32+-feature group query once overflowed the G-test's
    /// mixed-radix joint encoding (`joint_codes: joint arity overflow`).
    /// GrpSel's root group must survive arbitrary width on data testers.
    #[test]
    fn grpsel_gtest_survives_wide_groups() {
        let cfg_inst = SyntheticConfig {
            n_features: 36,
            biased_fraction: 0.15,
            predictive_fraction: 0.2,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(9);
        let inst = synthetic_instance(&mut rng, &cfg_inst);
        let scm = synthetic_scm(&mut rng, &inst, 1.5);
        let table = sample_table(&scm, &inst.roles, 1200, &mut rng);
        let problem = Problem::from_table(&table);
        let cfg = SelectConfig::default();
        let mut session = fairsel_engine::CiSession::new(GTest::new(&table, 0.01));
        let sel = grpsel_batched_in(&mut session, &problem, &cfg, None, 4);
        // Partition covers every feature; no panic is the real assertion.
        assert_eq!(
            sel.c1.len() + sel.c2.len() + sel.rejected.len(),
            problem.n_features()
        );
        // SeqSel on the same data also runs (scalar sides, wide phase-2
        // conditioning set exercises the dense z-encoding).
        let mut tester = GTest::new(&table, 0.01);
        let seq = seqsel(&mut tester, &problem, &cfg);
        assert_eq!(
            seq.c1.len() + seq.c2.len() + seq.rejected.len(),
            problem.n_features()
        );
    }
}

#[cfg(test)]
mod batch_equivalence {
    //! The `CiTestBatch` contract, verified: for every batch-aware data
    //! tester, `eval_batch` called directly and the engine's Z-grouped
    //! scheduler at workers 1/2/4 return outcomes *byte-identical* to
    //! sequential per-query evaluation, and Z-grouped GrpSel selections
    //! are byte-identical to the per-query engine path and to the
    //! pre-refactor encoding path.

    use super::reference::grpsel_direct;
    use fairsel_ci::{
        CiOutcome, CiQueryRef, CiTest, CiTestBatch, FisherZ, GTest, PermutationCmi, Rcit, VarId,
    };
    use fairsel_core::{grpsel, grpsel_batched_in, Problem, SelectConfig};
    use fairsel_datasets::sim::sample_table;
    use fairsel_datasets::synthetic::{synthetic_instance, synthetic_scm, SyntheticConfig};
    use fairsel_engine::{CiQuery, CiSession};
    use fairsel_table::Table;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sampled(seed: u64, n_features: usize, rows: usize) -> Table {
        let cfg = SyntheticConfig {
            n_features,
            biased_fraction: 0.2,
            predictive_fraction: 0.25,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = synthetic_instance(&mut rng, &cfg);
        let scm = synthetic_scm(&mut rng, &inst, 1.5);
        sample_table(&scm, &inst.roles, rows, &mut rng)
    }

    /// Random query workload shaped like the selectors': group sides of
    /// 1–4 variables, conditioning sets of 0–3, with deliberate repeats.
    fn workload(rng: &mut StdRng, n_vars: usize, count: usize) -> Vec<CiQuery> {
        let side = |max: usize, rng: &mut StdRng| -> Vec<VarId> {
            let len = rng.gen_range(1..=max);
            (0..len).map(|_| rng.gen_range(0..n_vars)).collect()
        };
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let x = side(4, rng);
            let y = side(2, rng);
            let zlen = rng.gen_range(0..=3usize);
            let z: Vec<VarId> = (0..zlen).map(|_| rng.gen_range(0..n_vars)).collect();
            out.push(CiQuery::new(&x, &y, &z));
            if rng.gen_range(0..4) == 0 {
                // Symmetric respelling of the previous query.
                out.push(CiQuery::new(&y, &x, &z));
            }
        }
        out
    }

    /// One tester's equivalence check across every execution path.
    fn assert_batch_equivalence<'t, F>(make: F, queries: &[CiQuery], label: &str)
    where
        F: Fn() -> Box<dyn SharedBatch + 't>,
    {
        // Reference: sequential per-query shared evaluation.
        let reference: Vec<CiOutcome> = {
            let t = make();
            queries.iter().map(|q| t.ci(&q.x, &q.y, &q.z)).collect()
        };
        // Direct eval_batch on a fresh tester.
        let direct: Vec<CiOutcome> = {
            let t = make();
            let refs: Vec<CiQueryRef<'_>> = queries
                .iter()
                .map(|q| CiQueryRef {
                    x: &q.x,
                    y: &q.y,
                    z: &q.z,
                })
                .collect();
            t.batch(&refs)
        };
        assert_eq!(reference, direct, "{label}: eval_batch != sequential eval");
        // Engine-routed, workers 1 / 2 / 4.
        for workers in [1usize, 2, 4] {
            let t = make();
            let got = t.run_through_session(queries, workers);
            assert_eq!(
                reference, got,
                "{label}: engine grouped (workers={workers}) diverged"
            );
        }
    }

    /// Object-safe adapter so one harness drives all three testers.
    trait SharedBatch {
        fn ci(&self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome;
        fn batch(&self, qs: &[CiQueryRef<'_>]) -> Vec<CiOutcome>;
        fn run_through_session(&self, qs: &[CiQuery], workers: usize) -> Vec<CiOutcome>;
    }

    impl<T: CiTestBatch> SharedBatch for T {
        fn ci(&self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
            self.ci_shared(x, y, z)
        }
        fn batch(&self, qs: &[CiQueryRef<'_>]) -> Vec<CiOutcome> {
            self.eval_batch(qs)
        }
        fn run_through_session(&self, qs: &[CiQuery], workers: usize) -> Vec<CiOutcome> {
            CiSession::new(self).run_batch_grouped(qs, workers)
        }
    }

    #[test]
    fn every_data_tester_is_batch_equivalent() {
        let table = sampled(41, 12, 800);
        let n_vars = table.n_cols();
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let queries = workload(&mut rng, n_vars, 40);
            assert_batch_equivalence(|| Box::new(GTest::new(&table, 0.01)), &queries, "g-test");
            assert_batch_equivalence(
                || Box::new(PermutationCmi::new(&table, 0.05, 19, 7)),
                &queries,
                "perm-cmi",
            );
            assert_batch_equivalence(
                || Box::new(FisherZ::new(&table, 0.01)),
                &queries,
                "fisher-z",
            );
        }
    }

    /// RCIT — a *randomized* tester, sequential-only before its port to
    /// per-query derived RNG streams — satisfies the same contract: batch
    /// and engine-routed evaluation at workers 1/2/4 is byte-identical to
    /// sequential per-query evaluation, including symmetric respellings
    /// (which share one derived stream by canonicalization).
    #[test]
    fn rcit_is_batch_equivalent_at_every_worker_count() {
        let table = sampled(47, 8, 300);
        let n_vars = table.n_cols();
        for seed in 0..2u64 {
            let mut rng = StdRng::seed_from_u64(300 + seed);
            let queries = workload(&mut rng, n_vars, 12);
            assert_batch_equivalence(
                || Box::new(Rcit::with_alpha(&table, 0.01, 5)),
                &queries,
                "rcit",
            );
        }
    }

    /// GrpSel through the batched engine path is byte-identical to the
    /// per-query engine path at every worker count.
    #[test]
    fn grpsel_batched_matches_per_query() {
        let table = sampled(43, 20, 2000);
        let problem = Problem::from_table(&table);
        for cfg in [
            SelectConfig::default(),
            SelectConfig {
                max_group: Some(5),
                ..Default::default()
            },
        ] {
            let base = grpsel(&mut GTest::new(&table, 0.01), &problem, &cfg);
            for workers in [1usize, 2, 4] {
                let mut session = CiSession::new(GTest::new(&table, 0.01));
                let got = grpsel_batched_in(&mut session, &problem, &cfg, None, workers);
                assert_eq!(base.c1, got.c1, "workers {workers}");
                assert_eq!(base.c2, got.c2);
                assert_eq!(base.rejected, got.rejected);
                assert_eq!(base.tests_used, got.tests_used);
            }
        }
    }

    /// The pre-refactor data path, preserved as a reference tester:
    /// per-query joint encodings straight off the `Table` (caller
    /// order, no cache), exactly as `GTest` computed before the
    /// `EncodedTable` layer existed.
    struct LegacyGTest<'a> {
        table: &'a Table,
        alpha: f64,
    }

    impl CiTest for LegacyGTest<'_> {
        fn ci(&mut self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
            if x.is_empty() || y.is_empty() {
                return CiOutcome::decided(true);
            }
            let (xc, _) = self.table.joint_codes_dense(x);
            let (yc, _) = self.table.joint_codes_dense(y);
            let (zc, _) = self.table.joint_codes_dense(z);
            let (g, p) = crate::kernel_reference::g_test_from_codes(&xc, &yc, &zc);
            CiOutcome {
                independent: p > self.alpha,
                p_value: p,
                statistic: g,
            }
        }
        fn n_vars(&self) -> usize {
            self.table.n_cols()
        }
    }

    /// Selections through the new encoded, batched stack are identical to
    /// the pre-refactor per-query path (same partition, same test count)
    /// — the encoding layer is a pure optimization.
    #[test]
    fn selections_match_pre_refactor_path() {
        for seed in [3u64, 17, 29] {
            let table = sampled(seed, 18, 2500);
            let problem = Problem::from_table(&table);
            let cfg = SelectConfig::default();
            let legacy = grpsel_direct(
                &mut LegacyGTest {
                    table: &table,
                    alpha: 0.01,
                },
                &problem,
                &cfg,
            )
            .normalized();
            let mut session = CiSession::new(GTest::new(&table, 0.01));
            let new = grpsel_batched_in(&mut session, &problem, &cfg, None, 4).normalized();
            assert_eq!(legacy.c1, new.c1, "seed {seed}");
            assert_eq!(legacy.c2, new.c2, "seed {seed}");
            assert_eq!(legacy.rejected, new.rejected, "seed {seed}");
            assert_eq!(legacy.tests_used, new.tests_used, "seed {seed}");
        }
    }
}

#[cfg(test)]
mod grouped_equivalence {
    //! The Z-grouped scheduler contract, verified for every batch-aware
    //! data tester: `eval_z_group` — called directly with the canonical
    //! conditioning set, or through the engine's grouped scheduler
    //! (`run_batch_grouped`) at workers 1/2/4/8 — returns outcomes
    //! **byte-identical** to sequential per-query `ci_shared`, on
    //! workloads with duplicated and symmetrically-respelled conditioning
    //! sets.

    use fairsel_ci::{
        CiOutcome, CiQueryRef, CiTestBatch, FisherZ, GTest, PermutationCmi, Rcit, VarId,
    };
    use fairsel_datasets::sim::sample_table;
    use fairsel_datasets::synthetic::{synthetic_instance, synthetic_scm, SyntheticConfig};
    use fairsel_engine::{CiQuery, CiSession};
    use fairsel_table::Table;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sampled(seed: u64, n_features: usize, rows: usize) -> Table {
        let cfg = SyntheticConfig {
            n_features,
            biased_fraction: 0.25,
            predictive_fraction: 0.25,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = synthetic_instance(&mut rng, &cfg);
        let scm = synthetic_scm(&mut rng, &inst, 1.5);
        sample_table(&scm, &inst.roles, rows, &mut rng)
    }

    /// One query as the caller spelled it: `[x, y, z]`, `z` in any order
    /// and with repeats (a [`CiQuery`] would intern `z` canonically).
    type Spelled = [Vec<VarId>; 3];

    /// A frontier-shaped workload: many queries share few conditioning
    /// sets (the Z-group structure), with deliberate repeats, reordered /
    /// duplicated conditioning spellings, and symmetric side swaps.
    fn grouped_workload(rng: &mut StdRng, n_vars: usize, count: usize) -> Vec<Spelled> {
        let zsets: Vec<Vec<VarId>> = vec![
            vec![],
            vec![rng.gen_range(0..n_vars)],
            (0..3).map(|_| rng.gen_range(0..n_vars)).collect(),
        ];
        let mut out = Vec::with_capacity(count * 2);
        for _ in 0..count {
            let xlen = rng.gen_range(1..=3usize);
            let x: Vec<VarId> = (0..xlen).map(|_| rng.gen_range(0..n_vars)).collect();
            let y = vec![rng.gen_range(0..n_vars)];
            let z = &zsets[rng.gen_range(0..zsets.len())];
            out.push([x.clone(), y.clone(), z.clone()]);
            match rng.gen_range(0..3) {
                0 => {
                    // Symmetric respelling of the same query.
                    out.push([y, x, z.clone()]);
                }
                1 => {
                    // Same conditioning set, reordered with a duplicate.
                    let mut respelled = z.clone();
                    respelled.reverse();
                    if let Some(&v) = respelled.first() {
                        respelled.push(v);
                    }
                    out.push([x, y, respelled]);
                }
                _ => {}
            }
        }
        out
    }

    /// Run one tester through every grouped execution shape and compare
    /// to sequential per-query evaluation of each query as spelled.
    fn assert_grouped_equivalence<T, F>(make: F, queries: &[Spelled], label: &str)
    where
        T: CiTestBatch,
        F: Fn() -> T,
    {
        let reference: Vec<CiOutcome> = {
            let t = make();
            queries
                .iter()
                .map(|[x, y, z]| t.ci_shared(x, y, z))
                .collect()
        };
        // Direct trait call, one group per canonical conditioning set.
        {
            let t = make();
            let mut order: Vec<Vec<VarId>> = Vec::new();
            let mut members: Vec<Vec<usize>> = Vec::new();
            for (i, [_, _, z]) in queries.iter().enumerate() {
                let mut zkey = z.clone();
                zkey.sort_unstable();
                zkey.dedup();
                match order.iter().position(|z| *z == zkey) {
                    Some(g) => members[g].push(i),
                    None => {
                        order.push(zkey);
                        members.push(vec![i]);
                    }
                }
            }
            for (zkey, idxs) in order.iter().zip(&members) {
                let refs: Vec<CiQueryRef<'_>> = idxs
                    .iter()
                    .map(|&i| {
                        let [x, y, z] = &queries[i];
                        CiQueryRef { x, y, z }
                    })
                    .collect();
                let outs = t.eval_z_group(zkey, &refs);
                for (&i, out) in idxs.iter().zip(&outs) {
                    assert_eq!(
                        reference[i], *out,
                        "{label}: direct eval_z_group diverged at query {i}"
                    );
                }
            }
        }
        // Engine-routed grouped scheduler at every worker count.
        let queries: Vec<CiQuery> = queries
            .iter()
            .map(|[x, y, z]| CiQuery::new(x, y, z))
            .collect();
        for workers in [1usize, 2, 4, 8] {
            let t = make();
            let mut session = CiSession::new(&t);
            let got = session.run_batch_grouped(&queries, workers);
            assert_eq!(
                reference, got,
                "{label}: grouped scheduler (workers={workers}) diverged"
            );
            assert_eq!(session.stats().grouped_batches, 1);
        }
    }

    #[test]
    fn gtest_and_fisherz_grouped_equivalence() {
        let table = sampled(61, 12, 900);
        let n_vars = table.n_cols();
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(500 + seed);
            let queries = grouped_workload(&mut rng, n_vars, 30);
            assert_grouped_equivalence(|| GTest::new(&table, 0.01), &queries, "g-test");
            assert_grouped_equivalence(|| FisherZ::new(&table, 0.01), &queries, "fisher-z");
        }
    }

    #[test]
    fn perm_cmi_and_rcit_grouped_equivalence() {
        let table = sampled(67, 8, 300);
        let n_vars = table.n_cols();
        let mut rng = StdRng::seed_from_u64(700);
        let queries = grouped_workload(&mut rng, n_vars, 10);
        assert_grouped_equivalence(
            || PermutationCmi::new(&table, 0.05, 19, 7),
            &queries,
            "perm-cmi",
        );
        assert_grouped_equivalence(|| Rcit::with_alpha(&table, 0.01, 5), &queries, "rcit");
    }

    /// Wide-arity group sides exercise the dense/hashed boundary of the
    /// grouped G computation (the dense cell space overflows its budget
    /// and must fall back byte-identically).
    #[test]
    fn gtest_grouped_equivalence_on_wide_group_sides() {
        let table = sampled(71, 30, 500);
        let n_vars = table.n_cols();
        let mut rng = StdRng::seed_from_u64(900);
        let mut queries = Vec::new();
        for _ in 0..12 {
            let xlen = rng.gen_range(8..=14usize);
            let x: Vec<VarId> = (0..xlen).map(|_| rng.gen_range(0..n_vars)).collect();
            let y = vec![rng.gen_range(0..n_vars)];
            let z: Vec<VarId> = (0..2).map(|_| rng.gen_range(0..n_vars)).collect();
            queries.push([x, y, z]);
        }
        assert_grouped_equivalence(|| GTest::new(&table, 0.01), &queries, "g-test/wide");
    }
}

/// The row-major Fisher-z route `FisherZ` replaced, shared with the
/// property tests in `crates/citest/tests/fisher_z_reference.rs`.
#[cfg(test)]
#[path = "../../crates/citest/tests/fisher_z_reference/reference.rs"]
mod fisher_z_reference;

/// The hashed per-query G-test and permutation-CMI kernels the arena
/// kernels replaced, shared with the property tests in
/// `crates/citest/tests/kernel_reference.rs`.
#[cfg(test)]
#[path = "../../crates/citest/tests/kernel_reference/reference.rs"]
mod kernel_reference;

#[cfg(test)]
mod kernel_identity {
    //! The hardware-shaped kernel contract: every kernel generation —
    //! narrow (u8/u16/u32) code widths + counting arenas vs the hashed
    //! per-query kernels they replaced, and Fisher-z's column kernels vs
    //! the row-major route they replaced — produces **bit-identical**
    //! p-values, statistics, and selection reports, at every worker count,
    //! on tables spanning all three storage widths (including joints that
    //! overflow u16).

    use crate::fisher_z_reference::ReferenceFisherZ;
    use crate::kernel_reference::{ReferenceGTest, ReferencePermutationCmi};
    use fairsel_ci::{CiOutcome, CiTestBatch, FisherZ, GTest, PermutationCmi};
    use fairsel_core::{grpsel_batched_in, Problem, SelectConfig};
    use fairsel_datasets::sim::sample_table;
    use fairsel_datasets::synthetic::{synthetic_instance, synthetic_scm, SyntheticConfig};
    use fairsel_engine::{CiQuery, CiSession};
    use fairsel_table::{Column, Role, Table};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Mixed-width table: binary columns (u8 codes), ~300-arity columns
    /// (u16), and a 70 000-arity column (u32); conditioning on the two
    /// medium columns together overflows u16 at compose time.
    fn mixed_width_table(rows: usize, seed: u64) -> Table {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let gen = |arity: u32, next: &mut dyn FnMut() -> u64| -> Vec<u32> {
            (0..rows).map(|_| (next() % arity as u64) as u32).collect()
        };
        let mut cols = Vec::new();
        for i in 0..4 {
            cols.push(Column::cat(
                format!("b{i}"),
                Role::Feature,
                gen(2, &mut next),
                2,
            ));
        }
        for i in 0..2 {
            cols.push(Column::cat(
                format!("m{i}"),
                Role::Feature,
                gen(300, &mut next),
                300,
            ));
        }
        cols.push(Column::cat(
            "w0",
            Role::Feature,
            gen(70_000, &mut next),
            70_000,
        ));
        Table::new(cols).unwrap()
    }

    /// Queries touching every width tier: u8/u16/u32 sides, empty and
    /// wide conditioning sets, and a joint Z whose arity overflows u16.
    fn width_workload() -> Vec<CiQuery> {
        vec![
            CiQuery::new(&[0], &[1], &[]),
            CiQuery::new(&[0], &[4], &[2]),
            CiQuery::new(&[1], &[2], &[4]),
            CiQuery::new(&[0], &[1], &[4, 5]),
            CiQuery::new(&[2], &[3], &[6]),
            CiQuery::new(&[4], &[0], &[1, 6]),
            CiQuery::new(&[0, 1], &[2], &[4]),
            CiQuery::new(&[4], &[5], &[0, 1]),
        ]
    }

    fn grouped_outcomes<T: CiTestBatch>(
        t: &T,
        queries: &[CiQuery],
        workers: usize,
    ) -> Vec<CiOutcome> {
        let mut session = CiSession::new(t);
        session.run_batch_grouped(queries, workers)
    }

    fn assert_bits(a: &[CiOutcome], b: &[CiOutcome], label: &str) {
        assert_eq!(a.len(), b.len(), "{label}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.independent, y.independent, "{label}[{i}]: verdict");
            assert_eq!(
                x.p_value.to_bits(),
                y.p_value.to_bits(),
                "{label}[{i}]: p-value bits ({} vs {})",
                x.p_value,
                y.p_value
            );
            assert_eq!(
                x.statistic.to_bits(),
                y.statistic.to_bits(),
                "{label}[{i}]: statistic bits ({} vs {})",
                x.statistic,
                y.statistic
            );
        }
    }

    #[test]
    fn gtest_kernel_modes_bit_identical_across_widths() {
        let table = mixed_width_table(1200, 3);
        let queries = width_workload();
        let reference = grouped_outcomes(&ReferenceGTest::new(&table, 0.01), &queries, 1);
        for workers in [1usize, 2, 4, 8] {
            let t = GTest::new(&table, 0.01);
            let got = grouped_outcomes(&t, &queries, workers);
            assert_bits(&reference, &got, &format!("g-test workers={workers}"));
        }
    }

    #[test]
    fn perm_cmi_kernel_modes_bit_identical_across_widths() {
        let table = mixed_width_table(700, 5);
        let queries = width_workload();
        let reference = grouped_outcomes(
            &ReferencePermutationCmi::new(&table, 0.05, 19, 7),
            &queries,
            1,
        );
        for workers in [1usize, 2, 4, 8] {
            let t = PermutationCmi::new(&table, 0.05, 19, 7);
            let got = grouped_outcomes(&t, &queries, workers);
            assert_bits(&reference, &got, &format!("perm-cmi workers={workers}"));
        }
    }

    fn sampled(seed: u64, n_features: usize, rows: usize) -> Table {
        let cfg = SyntheticConfig {
            n_features,
            biased_fraction: 0.25,
            predictive_fraction: 0.25,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = synthetic_instance(&mut rng, &cfg);
        let scm = synthetic_scm(&mut rng, &inst, 1.5);
        sample_table(&scm, &inst.roles, rows, &mut rng)
    }

    /// Fisher-z outcomes against the row-major reference at every worker
    /// count.
    #[test]
    fn fisherz_blocked_vs_naive_bit_identical() {
        let table = sampled(81, 14, 1100);
        let n_vars = table.n_cols();
        let queries: Vec<CiQuery> = (0..n_vars - 1)
            .map(|i| CiQuery::new(&[i], &[i + 1], &[(i + 2) % n_vars, (i + 5) % n_vars]))
            .collect();
        let reference = grouped_outcomes(&ReferenceFisherZ::new(&table, 0.01), &queries, 1);
        for workers in [1usize, 2, 4, 8] {
            let t = FisherZ::new(&table, 0.01);
            let got = grouped_outcomes(&t, &queries, workers);
            assert_bits(&reference, &got, &format!("fisher-z workers={workers}"));
        }
    }

    /// End-to-end: GrpSel selection reports are identical across kernel
    /// generations at every worker count.
    #[test]
    fn selections_identical_across_kernel_modes() {
        let table = sampled(83, 18, 1400);
        let problem = Problem::from_table(&table);
        let cfg = SelectConfig {
            max_group: Some(5),
            ..Default::default()
        };
        let reference = {
            let mut session = CiSession::new(ReferenceGTest::new(&table, 0.01));
            grpsel_batched_in(&mut session, &problem, &cfg, None, 1)
        };
        for workers in [1usize, 4, 8] {
            let mut session = CiSession::new(GTest::new(&table, 0.01));
            let got = grpsel_batched_in(&mut session, &problem, &cfg, None, workers);
            assert_eq!(reference.c1, got.c1, "workers {workers}");
            assert_eq!(reference.c2, got.c2, "workers {workers}");
            assert_eq!(reference.rejected, got.rejected, "workers {workers}");
        }
        // Fisher-z selections: column kernels vs the row-major reference.
        let fz_ref = {
            let mut session = CiSession::new(ReferenceFisherZ::new(&table, 0.01));
            grpsel_batched_in(&mut session, &problem, &cfg, None, 1)
        };
        let mut session = CiSession::new(FisherZ::new(&table, 0.01));
        let got = grpsel_batched_in(&mut session, &problem, &cfg, None, 4);
        assert_eq!(fz_ref.c1, got.c1);
        assert_eq!(fz_ref.c2, got.c2);
        assert_eq!(fz_ref.rejected, got.rejected);
    }
}

#[cfg(test)]
mod wide_group_power {
    //! The `max_group` knob: on wide discrete data the all-features root
    //! group is statistically vacuous (one category per row ⇒ no degrees
    //! of freedom ⇒ p = 1 ⇒ the root "passes" and biased features leak
    //! into C₁). Pre-splitting to width ⌊log₂ rows⌋ restores power.

    use fairsel_ci::{GTest, OracleCi};
    use fairsel_core::{grpsel, grpsel_batched_in, Problem, SelectConfig};
    use fairsel_datasets::fixtures;
    use fairsel_datasets::sim::sample_table;
    use fairsel_datasets::synthetic::{synthetic_instance, synthetic_scm, SyntheticConfig};
    use fairsel_engine::CiSession;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn max_group_recovers_phase1_truth_on_wide_data() {
        let cfg_inst = SyntheticConfig {
            n_features: 48,
            biased_fraction: 0.15,
            predictive_fraction: 0.25,
            ..Default::default()
        };
        let rows = 2000;
        let mut rng = StdRng::seed_from_u64(1);
        let inst = synthetic_instance(&mut rng, &cfg_inst);
        let scm = synthetic_scm(&mut rng, &inst, 1.5);
        let table = sample_table(&scm, &inst.roles, rows, &mut rng);
        let problem = Problem::from_table(&table);

        let truth = grpsel(
            &mut OracleCi::from_dag(inst.dag.clone()),
            &problem,
            &SelectConfig::default(),
        )
        .normalized();
        assert!(
            !truth.rejected.is_empty(),
            "instance must have biased features"
        );

        // Without the knob: the wide root passes vacuously and every
        // biased feature leaks into C1.
        let mut wide_session = CiSession::new(GTest::new(&table, 0.01));
        let wide = grpsel_batched_in(
            &mut wide_session,
            &problem,
            &SelectConfig::default(),
            None,
            1,
        )
        .normalized();
        assert_eq!(
            wide.c1.len(),
            problem.n_features(),
            "wide-group G-test should vacuously admit everything"
        );

        // With max_group = ⌊log2 rows⌋: phase 1 recovers the oracle C1
        // exactly — biased features no longer smuggled in.
        let cfg = SelectConfig {
            max_group: Some(SelectConfig::auto_max_group(rows)),
            ..Default::default()
        };
        assert_eq!(SelectConfig::auto_max_group(rows), 10);
        let mut session = CiSession::new(GTest::new(&table, 0.01));
        let narrow = grpsel_batched_in(&mut session, &problem, &cfg, None, 1).normalized();
        assert_eq!(narrow.c1, truth.c1, "phase-1 recovery of the oracle C1");
        for rejected in &truth.rejected {
            assert!(
                !narrow.c1.contains(rejected),
                "biased feature {rejected} leaked into C1"
            );
        }
    }

    /// On the Figure 6 fixture the ground truth is that `X2` must be
    /// rejected (no CI pattern certifies it) while `X3 ∈ C1`; GrpSel with
    /// the data tester and `max_group` set recovers exactly the oracle
    /// classification from sampled data.
    #[test]
    fn figure_6_truth_recovered_with_max_group() {
        let f = fixtures::figure_6();
        let scm = f.scm(1.5);
        let rows = 4000;
        let mut rng = StdRng::seed_from_u64(6);
        let table = sample_table(&scm, &f.roles, rows, &mut rng);
        let problem = Problem::from_table(&table);

        let truth = grpsel(
            &mut OracleCi::from_dag(f.dag.clone()),
            &problem,
            &SelectConfig::default(),
        )
        .normalized();
        let x2 = table.col_id("X2").unwrap();
        assert!(truth.rejected.contains(&x2), "fixture truth: X2 rejected");

        let cfg = SelectConfig {
            max_group: Some(SelectConfig::auto_max_group(rows)),
            ..Default::default()
        };
        let mut session = CiSession::new(GTest::new(&table, 0.01));
        let got = grpsel_batched_in(&mut session, &problem, &cfg, None, 2).normalized();
        assert_eq!(got.c1, truth.c1);
        assert_eq!(got.c2, truth.c2);
        assert_eq!(got.rejected, truth.rejected);
    }
}

#[cfg(test)]
mod degenerate_strata_regression {
    //! Regression for the degenerate-stratum short-circuit: a conditioning
    //! set wide enough that every row is its own stratum must return
    //! p = 1 instantly — no per-row contingency storage — for both
    //! discrete testers.

    use fairsel_ci::{CiTest, GTest, PermutationCmi};
    use fairsel_table::{Column, Role, Table};

    /// 34 binary conditioning columns spelling out the row index in
    /// binary, plus x/y columns: every row is a distinct stratum.
    fn wide_conditioning_table(rows: usize) -> (Table, Vec<usize>) {
        let mut cols = vec![
            Column::cat(
                "x",
                Role::Feature,
                (0..rows).map(|r| (r % 2) as u32).collect(),
                2,
            ),
            Column::cat(
                "y",
                Role::Feature,
                (0..rows).map(|r| ((r / 2) % 2) as u32).collect(),
                2,
            ),
        ];
        let n_cond = 34;
        for bit in 0..n_cond {
            cols.push(Column::cat(
                format!("z{bit}"),
                Role::Feature,
                (0..rows).map(|r| ((r >> (bit % 16)) & 1) as u32).collect(),
                2,
            ));
        }
        let t = Table::new(cols).unwrap();
        let z: Vec<usize> = (2..2 + n_cond).collect();
        (t, z)
    }

    #[test]
    fn gtest_short_circuits_all_singleton_strata() {
        let (t, z) = wide_conditioning_table(512);
        let mut g = GTest::new(&t, 0.01);
        assert_eq!(g.degenerate_short_circuits(), 0);
        let out = g.ci(&[0], &[1], &z);
        assert!(out.independent);
        assert_eq!(out.p_value, 1.0);
        assert_eq!(out.statistic, 0.0);
        assert_eq!(
            g.degenerate_short_circuits(),
            1,
            "wide conditioning set must take the degenerate fast path"
        );
        // Without the wide conditioning set the same pair is dependent on
        // nothing-degenerate strata — the short-circuit is surgical.
        let out = g.ci(&[0], &[1], &[2]);
        assert!(out.p_value < 1.0 || out.statistic == 0.0);
        assert_eq!(g.degenerate_short_circuits(), 1);
    }

    #[test]
    fn perm_cmi_short_circuits_without_consuming_randomness() {
        let (t, z) = wide_conditioning_table(256);
        let mut c = PermutationCmi::new(&t, 0.05, 99, 11);
        let out = c.ci(&[0], &[1], &z);
        assert!(out.independent);
        assert_eq!(out.p_value, 1.0);
        assert_eq!(out.statistic, 0.0);
        assert_eq!(c.degenerate_short_circuits(), 1);
    }

    /// The short-circuit is exact: on a *nearly* degenerate table (one
    /// duplicated row pattern) the full path still runs and agrees with
    /// the closed form p = 1 only when df = 0.
    #[test]
    fn short_circuit_matches_full_computation() {
        // 8 rows, 3 conditioning bits = every row its own stratum.
        let t = Table::new(vec![
            Column::cat("x", Role::Feature, vec![0, 1, 0, 1, 0, 1, 0, 1], 2),
            Column::cat("y", Role::Feature, vec![0, 0, 1, 1, 0, 0, 1, 1], 2),
            Column::cat("z0", Role::Feature, vec![0, 1, 0, 1, 0, 1, 0, 1], 2),
            Column::cat("z1", Role::Feature, vec![0, 0, 1, 1, 0, 0, 1, 1], 2),
            Column::cat("z2", Role::Feature, vec![0, 0, 0, 0, 1, 1, 1, 1], 2),
        ])
        .unwrap();
        let mut g = GTest::new(&t, 0.01);
        let fast = g.ci(&[0], &[1], &[2, 3, 4]);
        assert_eq!(g.degenerate_short_circuits(), 1);
        // Reference: the raw statistic over the same codes, full path.
        let (xc, _) = t.joint_codes_dense(&[0]);
        let (yc, _) = t.joint_codes_dense(&[1]);
        let (zc, _) = t.joint_codes_dense(&[2, 3, 4]);
        let (g_stat, p) = crate::kernel_reference::g_test_from_codes(&xc, &yc, &zc);
        assert_eq!((fast.statistic, fast.p_value), (g_stat, p));
    }
}

#[cfg(test)]
mod cache_bounds {
    //! The bounded-cache regression (the unbounded-growth bugfix): with an
    //! LRU cap far smaller than the workload's distinct variable sets,
    //! memory stays bounded (residency ≤ cap, evictions counted) while
    //! every selection remains byte-identical to the unbounded run —
    //! eviction only ever discards recomputable memo values.

    use fairsel_ci::{CiTestBatch, CiTestShared, FisherZ, GTest};
    use fairsel_core::{grpsel_batched_in, Problem, SelectConfig};
    use fairsel_datasets::sim::sample_table;
    use fairsel_datasets::synthetic::{synthetic_instance, synthetic_scm, SyntheticConfig};
    use fairsel_engine::CiSession;
    use fairsel_table::{EncodedTable, Table};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn sampled(seed: u64, n_features: usize, rows: usize) -> Table {
        let cfg = SyntheticConfig {
            n_features,
            biased_fraction: 0.25,
            predictive_fraction: 0.25,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = synthetic_instance(&mut rng, &cfg);
        let scm = synthetic_scm(&mut rng, &inst, 1.5);
        sample_table(&scm, &inst.roles, rows, &mut rng)
    }

    #[test]
    fn capped_gtest_selections_byte_identical_with_bounded_memory() {
        let table = sampled(7, 24, 1500);
        let problem = Problem::from_table(&table);
        let cfg = SelectConfig {
            max_group: Some(5),
            ..Default::default()
        };
        let cap = 8;

        let run = |enc: Arc<EncodedTable>| {
            let mut session = CiSession::new(GTest::over(enc, 0.01));
            let sel = grpsel_batched_in(&mut session, &problem, &cfg, None, 2).normalized();
            (sel, session.stats().clone())
        };
        let table_arc = Arc::new(table.clone());
        let (unbounded_sel, _) = run(Arc::new(EncodedTable::from_arc(Arc::clone(&table_arc))));
        let capped_enc = Arc::new(EncodedTable::from_arc_with_cap(table_arc, cap));
        let (capped_sel, capped_stats) = run(Arc::clone(&capped_enc));

        // Byte-identical partition and test count.
        assert_eq!(unbounded_sel.c1, capped_sel.c1);
        assert_eq!(unbounded_sel.c2, capped_sel.c2);
        assert_eq!(unbounded_sel.rejected, capped_sel.rejected);
        assert_eq!(unbounded_sel.tests_used, capped_sel.tests_used);

        // Memory stayed bounded across many distinct variable sets …
        assert!(
            capped_enc.cached_sets() <= cap,
            "residency {} exceeds cap {cap}",
            capped_enc.cached_sets()
        );
        // … because the LRU actually evicted (the workload touches far
        // more sets than the cap holds), and the telemetry says so.
        assert!(
            capped_enc.stats().evictions > 0,
            "workload must overflow the cap"
        );
        assert!(capped_stats.encode_cache_evictions > 0);
        assert!(
            capped_enc.stats().misses > capped_enc.stats().evictions,
            "evictions never exceed computed encodings"
        );
    }

    /// Workers that miss one encoding, conditioning scaffold or residual
    /// together build it once (`CappedCache::get_or_build`, and
    /// `build_missing` for Fisher-z's per-group solve), so a Z-grouped
    /// G-test or Fisher-z selection books the same encode and scaffold
    /// counters in every run at a worker count, and builds the same values
    /// at every worker count.
    #[test]
    fn parallel_selection_books_counters_once() {
        let table = sampled(11, 24, 20000);
        let problem = Problem::from_table(&table);
        // Narrow root groups put many queries on one fresh `Z` and one
        // fresh `S` in the first wave, so pool workers miss them together.
        let cfg = SelectConfig {
            max_group: Some(4),
            ..Default::default()
        };
        type Make = fn(&Table) -> Box<dyn CiTestBatch + Send + Sync>;
        let testers: [(&str, Make); 2] = [
            ("gtest", |t| Box::new(GTest::new(t, 0.01))),
            ("fisherz", |t| Box::new(FisherZ::new(t, 0.01))),
        ];
        for (name, make) in testers {
            let run = |workers: usize| {
                let mut session = CiSession::new(make(&table));
                let sel = grpsel_batched_in(&mut session, &problem, &cfg, None, workers);
                let st = session.stats();
                assert!(st.scaffolds_conserved(), "{name}: {st:?}");
                [
                    sel.tests_used,
                    st.encode_cache_hits,
                    st.encode_cache_misses,
                    st.narrow_code_bytes,
                    st.rebuilt_scaffolds,
                    st.resident_scaffolds,
                    st.dense_count_cells,
                ]
            };
            let mut built = Vec::new();
            for workers in [2, 4] {
                let first = run(workers);
                for attempt in 1..5 {
                    assert_eq!(
                        run(workers),
                        first,
                        "{name}, workers {workers}, run {attempt}"
                    );
                }
                // Issued tests, encode misses, code bytes, rebuilt scaffolds.
                built.push([first[0], first[2], first[3], first[4]]);
            }
            assert_eq!(
                built[0], built[1],
                "{name}: values built at workers 2 and 4"
            );
        }
    }

    #[test]
    fn capped_fisherz_residual_cache_evicts_and_stays_exact() {
        let table = sampled(9, 20, 400);
        let cap = 4;
        let unbounded = FisherZ::new(&table, 0.01);
        let capped = FisherZ::over(
            Arc::new(EncodedTable::from_arc_with_cap(
                Arc::new(table.clone()),
                cap,
            )),
            0.01,
        );
        // Many distinct conditioning sets — far more than the cap.
        for z in 2..table.n_cols() {
            for z2 in 2..z {
                let zs = [z, z2];
                let a = unbounded.ci_shared(&[0], &[1], &zs);
                let b = capped.ci_shared(&[0], &[1], &zs);
                assert_eq!(a, b, "z = {zs:?}");
            }
        }
        // Replay: answers still byte-identical after eviction churn.
        for z in 2..table.n_cols() {
            let a = unbounded.ci_shared(&[0], &[1], &[z]);
            let b = capped.ci_shared(&[0], &[1], &[z]);
            assert_eq!(a, b, "replay z = {z}");
        }
        let stats = capped.encode_cache_stats();
        assert!(
            stats.evictions > 0,
            "design/residual caches must evict under the cap"
        );
        assert_eq!(unbounded.encode_cache_stats().evictions, 0);
    }
}

#[cfg(test)]
mod frontier_order_regression {
    use super::reference::grpsel_direct;
    use fairsel_ci::{CiOutcome, CiTest, VarId};
    use fairsel_core::{grpsel, Problem, SelectConfig};

    /// Phase 1 always fails; phase 2 passes iff the group avoids `bad`.
    struct TwoPhase {
        sensitive: VarId,
        bad: Vec<VarId>,
    }

    impl CiTest for TwoPhase {
        fn ci(&mut self, x: &[VarId], y: &[VarId], _z: &[VarId]) -> CiOutcome {
            if y == [self.sensitive] {
                CiOutcome::decided(false)
            } else {
                CiOutcome::decided(!x.iter().any(|v| self.bad.contains(v)))
            }
        }
        fn n_vars(&self) -> usize {
            16
        }
    }

    /// Regression: the frontier planner exhausts phase-1 singletons in
    /// level (BFS) order, but phase-2 halving must run over the same
    /// member order as the depth-first recursion — otherwise its groups
    /// compose differently and test counts (and, with finite-sample
    /// testers, outcomes) diverge. This instance — every feature failing
    /// phase 1, phase-2 dependence exactly on {1,2} — told BFS and DFS
    /// apart before `remaining` was re-ordered.
    #[test]
    fn phase2_group_composition_matches_dfs() {
        let problem = Problem {
            sensitive: vec![10],
            admissible: vec![],
            features: (0..6).collect(),
            target: 11,
        };
        let cfg = SelectConfig::default();
        let mk = || TwoPhase {
            sensitive: 10,
            bad: vec![1, 2],
        };
        let direct = grpsel_direct(&mut mk(), &problem, &cfg).normalized();
        let engine = grpsel(&mut mk(), &problem, &cfg).normalized();
        // Same partition and — because phase-2 groups compose identically
        // — the same test count. (Emission order within c2 still differs:
        // the frontier admits level by level, DFS leaf by leaf.)
        assert_eq!(direct.c1, engine.c1);
        assert_eq!(direct.c2, engine.c2);
        assert_eq!(direct.rejected, engine.rejected);
        assert_eq!(direct.tests_used, engine.tests_used);
    }
}

#[cfg(test)]
mod server_equivalence {
    //! The session-service acceptance property: N concurrent clients
    //! issuing overlapping workloads against one `fairsel serve` process
    //! get bodies **byte-identical** to local single-process runs of the
    //! same workloads, and a repeated identical request reports nonzero
    //! shared-cache hits (encode reuse + CI-outcome memo) while having
    //! issued no new tests.

    use fairsel_ci::GTest;
    use fairsel_core::{render_pipeline_report, run_pipeline_batched};
    use fairsel_datasets::sim::sample_table;
    use fairsel_datasets::synthetic::{synthetic_instance, synthetic_scm, SyntheticConfig};
    use fairsel_server::{
        pipeline_config, request, Request, Response, ServeConfig, Server, WorkloadRequest,
    };
    use fairsel_table::csv;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn workload_csv(seed: u64, n_features: usize, rows: usize) -> String {
        let cfg = SyntheticConfig {
            n_features,
            biased_fraction: 0.2,
            predictive_fraction: 0.25,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = synthetic_instance(&mut rng, &cfg);
        let scm = synthetic_scm(&mut rng, &inst, 1.5);
        csv::to_csv_string(&sample_table(&scm, &inst.roles, rows, &mut rng))
    }

    /// What a local single-process `fairsel select` of this workload
    /// prints as its deterministic report (the CLI path, replicated).
    fn local_body(req: &WorkloadRequest) -> String {
        let table =
            csv::from_csv_string(req.dataset.as_csv().expect("inline csv workload")).expect("csv");
        let split = table.split_rows_stable(req.seed, req.train_frac);
        let (train, test) = (split.train, split.test);
        let cfg = pipeline_config(req, train.n_rows()).expect("config");
        let out = run_pipeline_batched(GTest::new(&train, req.alpha), &train, &test, &cfg);
        render_pipeline_report(&out, &train, &cfg, test.n_rows())
    }

    #[test]
    fn concurrent_clients_match_local_and_share_caches() {
        // Two overlapping workloads: same dataset + tester (one shared
        // session), different algorithms; plus a second dataset so the
        // registry actually shards.
        let csv_a = workload_csv(5, 14, 900);
        let csv_b = workload_csv(6, 10, 600);
        let wl = |csv: &str, algo: &str| WorkloadRequest {
            dataset: fairsel_server::DatasetRef::Csv(csv.to_owned()),
            algo: algo.into(),
            workers: 2,
            ..Default::default()
        };
        let workloads = [
            wl(&csv_a, "grpsel"),
            wl(&csv_a, "seqsel"),
            wl(&csv_b, "grpsel"),
        ];
        let expected: Vec<String> = workloads.iter().map(local_body).collect();

        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
        let addr = server.local_addr().to_string();
        let handle = server.spawn();

        // 4 concurrent clients, each cycling through the workloads twice.
        std::thread::scope(|scope| {
            for client in 0..4usize {
                let addr = addr.clone();
                let workloads = &workloads;
                let expected = &expected;
                scope.spawn(move || {
                    for round in 0..2 {
                        for (i, w) in workloads.iter().enumerate() {
                            let resp =
                                request(&addr, &Request::Select(w.clone())).expect("request");
                            let Response::Ok { body, cache, .. } = resp else {
                                panic!("client {client} round {round}: {resp:?}");
                            };
                            assert_eq!(
                                body, expected[i],
                                "client {client} round {round} workload {i}: \
                                 remote body diverged from local run"
                            );
                            assert!(cache.is_some());
                        }
                    }
                });
            }
        });

        // One more identical request: served warm from the shared state.
        let resp = request(&addr, &Request::Select(workloads[0].clone())).expect("warm");
        let Response::Ok { body, cache, .. } = resp else {
            panic!("warm request failed: {resp:?}");
        };
        assert_eq!(body, expected[0]);
        let cache = cache.expect("cache info");
        assert!(
            cache.shared_hits > 0,
            "warm request must report shared-cache hits"
        );
        assert!(cache.encode_hits > 0, "encode cache must have been reused");
        assert!(
            cache.sessions_served > 8,
            "the shared session served every overlapping request (got {})",
            cache.sessions_served
        );

        // Server-wide stats agree: every request was counted, both
        // datasets resident.
        let stats = request(&addr, &Request::Stats).expect("stats");
        let Response::Ok { stats: Some(s), .. } = stats else {
            panic!("stats failed");
        };
        assert_eq!(s.get_u64("requests"), Some(4 * 2 * 3 + 1));
        assert_eq!(s.get_u64("resident_datasets"), Some(2));

        handle.shutdown();
    }
}

#[cfg(test)]
mod server_saturation {
    //! The bounded-acceptor acceptance property: with more simultaneous
    //! clients than `--max-conns`, excess connections are shed with the
    //! **structured busy error** (not silently queued, not dropped),
    //! admitted connections complete **byte-identical** to local runs of
    //! the same workload, and the `shed_conns` / `active_conns` counters
    //! are exact.

    use fairsel_ci::GTest;
    use fairsel_core::{render_pipeline_report, run_pipeline_batched};
    use fairsel_datasets::sim::sample_table;
    use fairsel_datasets::synthetic::{synthetic_instance, synthetic_scm, SyntheticConfig};
    use fairsel_server::proto::{read_json, write_json};
    use fairsel_server::{
        pipeline_config, request, Request, Response, ServeConfig, Server, WorkloadRequest,
    };
    use fairsel_table::csv;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::net::TcpStream;
    use std::time::Duration;

    fn workload_csv(seed: u64, n_features: usize, rows: usize) -> String {
        let cfg = SyntheticConfig {
            n_features,
            biased_fraction: 0.2,
            predictive_fraction: 0.25,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = synthetic_instance(&mut rng, &cfg);
        let scm = synthetic_scm(&mut rng, &inst, 1.5);
        csv::to_csv_string(&sample_table(&scm, &inst.roles, rows, &mut rng))
    }

    fn local_body(req: &WorkloadRequest) -> String {
        let table = csv::from_csv_string(req.dataset.as_csv().expect("inline csv")).expect("csv");
        let split = table.split_rows_stable(req.seed, req.train_frac);
        let (train, test) = (split.train, split.test);
        let cfg = pipeline_config(req, train.n_rows()).expect("config");
        let out = run_pipeline_batched(GTest::new(&train, req.alpha), &train, &test, &cfg);
        render_pipeline_report(&out, &train, &cfg, test.n_rows())
    }

    #[test]
    fn saturating_clients_shed_exactly_and_admitted_match_local() {
        const MAX_CONNS: usize = 4;
        const EXCESS: usize = 3;

        let wl = WorkloadRequest::with_csv(workload_csv(19, 10, 500));
        let expected = local_body(&wl);

        let server = Server::bind(
            "127.0.0.1:0",
            ServeConfig {
                // One handler per admissible connection, so held-open
                // connections never starve each other.
                conn_workers: MAX_CONNS,
                max_conns: MAX_CONNS,
                ..Default::default()
            },
        )
        .expect("bind");
        let sock = server.local_addr();
        let addr = sock.to_string();
        let handle = server.spawn();

        // Fill every admission slot and prove each connection is live
        // (the ping round trip means the server admitted it).
        let mut held: Vec<TcpStream> = (0..MAX_CONNS)
            .map(|i| {
                let mut s =
                    TcpStream::connect_timeout(&sock, Duration::from_secs(5)).expect("connect");
                s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
                write_json(&mut s, &Request::Ping.to_json()).unwrap();
                let resp = Response::from_json(&read_json(&mut s).unwrap().unwrap()).unwrap();
                assert_eq!(resp, Response::ok("pong"), "held connection {i}");
                s
            })
            .collect();

        // Every client past the cap gets the structured busy error —
        // before it even writes a request.
        for i in 0..EXCESS {
            let mut extra =
                TcpStream::connect_timeout(&sock, Duration::from_secs(5)).expect("connect");
            extra
                .set_read_timeout(Some(Duration::from_secs(60)))
                .unwrap();
            let resp = Response::from_json(&read_json(&mut extra).unwrap().unwrap()).unwrap();
            assert_eq!(resp, Response::Busy, "excess connection {i} must be shed");
        }

        // The admitted connections now run the real workload
        // simultaneously — saturated server, responses byte-identical to
        // the local single-process run.
        std::thread::scope(|scope| {
            for (i, s) in held.iter_mut().enumerate() {
                let wl = &wl;
                let expected = &expected;
                scope.spawn(move || {
                    write_json(s, &Request::Select(wl.clone()).to_json()).unwrap();
                    let resp = Response::from_json(&read_json(s).unwrap().unwrap()).unwrap();
                    let Response::Ok { body, .. } = resp else {
                        panic!("admitted client {i} failed: {resp:?}");
                    };
                    assert_eq!(
                        &body, expected,
                        "client {i}: saturated-server body diverged from local run"
                    );
                });
            }
        });

        // Counters, read through a held connection so nothing else can
        // be shed in between: exactly EXCESS shed, exactly MAX_CONNS
        // active (the held ones — including the connection answering).
        write_json(&mut held[0], &Request::Stats.to_json()).unwrap();
        let resp = Response::from_json(&read_json(&mut held[0]).unwrap().unwrap()).unwrap();
        let Response::Ok { stats: Some(s), .. } = resp else {
            panic!("stats over held connection failed");
        };
        assert_eq!(s.get_u64("shed_conns"), Some(EXCESS as u64));
        assert_eq!(s.get_u64("active_conns"), Some(MAX_CONNS as u64));
        assert_eq!(s.get_u64("accepted_conns"), Some(MAX_CONNS as u64));
        assert_eq!(s.get_u64("max_conns"), Some(MAX_CONNS as u64));
        assert!(s.get_u64("bytes_rx").unwrap() > 0);
        assert!(s.get_u64("bytes_tx").unwrap() > 0);

        // Release the slots; the server is admitting again.
        drop(held);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            match request(&addr, &Request::Ping) {
                Ok(Response::Ok { .. }) => break,
                Ok(Response::Busy) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                other => panic!("ping after release: {other:?}"),
            }
        }
        handle.shutdown();
    }
}

#[cfg(test)]
mod fp_addressed_requests {
    //! The fingerprint-addressed transport acceptance property: after a
    //! single `put`, a warm `select` by fingerprint issues **zero** CI
    //! tests, ships **< 1 KiB** of request payload, and returns a body
    //! byte-identical to both the inline-CSV remote spelling and a local
    //! run.

    use fairsel_ci::GTest;
    use fairsel_core::{render_pipeline_report, run_pipeline_batched};
    use fairsel_datasets::sim::sample_table;
    use fairsel_datasets::synthetic::{synthetic_instance, synthetic_scm, SyntheticConfig};
    use fairsel_server::{
        pipeline_config, put_dataset, request, DatasetRef, Request, Response, ServeConfig, Server,
        WorkloadRequest,
    };
    use fairsel_table::{codec, csv, Table};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn workload_table(seed: u64, n_features: usize, rows: usize) -> Table {
        let cfg = SyntheticConfig {
            n_features,
            biased_fraction: 0.2,
            predictive_fraction: 0.25,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = synthetic_instance(&mut rng, &cfg);
        let scm = synthetic_scm(&mut rng, &inst, 1.5);
        sample_table(&scm, &inst.roles, rows, &mut rng)
    }

    #[test]
    fn warm_fp_select_issues_zero_tests_under_1_kib() {
        let table = workload_table(23, 12, 700);
        let csv_text = csv::to_csv_string(&table);

        // The local reference body.
        let csv_wl = WorkloadRequest::with_csv(csv_text.clone());
        let parsed = csv::from_csv_string(&csv_text).expect("csv");
        let split = parsed.split_rows_stable(csv_wl.seed, csv_wl.train_frac);
        let (train, test) = (split.train, split.test);
        let cfg = pipeline_config(&csv_wl, train.n_rows()).expect("config");
        let out = run_pipeline_batched(GTest::new(&train, csv_wl.alpha), &train, &test, &cfg);
        let expected = render_pipeline_report(&out, &train, &cfg, test.n_rows());

        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
        let addr = server.local_addr().to_string();
        let handle = server.spawn();

        // Upload once; the server fingerprints the decoded table.
        let resp = put_dataset(&addr, &codec::encode_table(&table)).expect("put");
        let Response::Ok { body: fp_hex, .. } = resp else {
            panic!("put failed: {resp:?}");
        };
        let fp = u64::from_str_radix(&fp_hex, 16).expect("hex fp");

        // Cold fp-addressed select: tiny request, full local fidelity.
        let fp_req = Request::Select(WorkloadRequest {
            dataset: DatasetRef::Fp(fp),
            ..Default::default()
        });
        let frame_bytes = fp_req.to_json().to_string().len() + 4;
        assert!(
            frame_bytes < 1024,
            "fp-addressed request frame is {frame_bytes} bytes, must be < 1 KiB"
        );
        let Response::Ok { body, stats, .. } = request(&addr, &fp_req).expect("fp select") else {
            panic!("fp select failed");
        };
        assert_eq!(body, expected, "fp-addressed body must match local run");
        let cold_issued = stats.unwrap().get_u64("issued").expect("issued");
        assert!(cold_issued > 0, "cold request pays the CI tests");

        // Warm repeat by fingerprint: zero new CI tests (cumulative
        // session `issued` unchanged), nonzero shared hits.
        let Response::Ok {
            body: warm_body,
            stats: warm_stats,
            cache,
            ..
        } = request(&addr, &fp_req).expect("warm fp select")
        else {
            panic!("warm fp select failed");
        };
        assert_eq!(warm_body, expected);
        let warm_stats = warm_stats.unwrap();
        assert_eq!(
            warm_stats.get_u64("issued"),
            Some(cold_issued),
            "warm fp select must issue 0 new CI tests"
        );
        assert!(cache.unwrap().shared_hits > 0);

        // The inline-CSV spelling lands in the same session and agrees
        // byte-for-byte — fp addressing is a pure transport optimization.
        let Response::Ok {
            body: csv_body,
            stats: csv_stats,
            ..
        } = request(&addr, &Request::Select(csv_wl)).expect("csv select")
        else {
            panic!("csv select failed");
        };
        assert_eq!(csv_body, expected);
        assert_eq!(
            csv_stats.unwrap().get_u64("issued"),
            Some(cold_issued),
            "csv spelling reuses the fp-warmed session"
        );

        handle.shutdown();
    }
}

#[cfg(test)]
mod collinear_conditioning {
    //! Fisher-z on a conditioning set holding one column twice, at a scale
    //! where the ridge `λ = 1e-8` is far below the rounding error of the
    //! normal equations. The row-major route panicked in `ridge_solve`;
    //! the column kernels drop each column whose Cholesky pivot is
    //! non-positive given the columns kept before it.

    use crate::fisher_z_reference::ReferenceFisherZ;
    use fairsel_ci::FisherZ;
    use fairsel_math::dist::sample_std_normal;
    use fairsel_table::{Column, Role, Table};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// 3,000 rows: S (2 levels), A (3 levels), X1 = (N(0,1) + a)·1e7 + 5e7,
    /// X2 = X1 bit for bit, X3 ~ N(0,1), X5 = s + N(0, 0.5) and
    /// Y = 1[(X1 − 5e7)/1e7 + N(0, 0.3) > 1].
    pub fn collinear_table(seed: u64) -> Table {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 3000;
        let (mut s, mut a, mut x1) = (Vec::new(), Vec::new(), Vec::new());
        let (mut x3, mut x5, mut y) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..n {
            let si: u32 = rng.gen_range(0..2);
            let ai: u32 = rng.gen_range(0..3);
            let v = (sample_std_normal(&mut rng) + ai as f64) * 1e7 + 5e7;
            x3.push(sample_std_normal(&mut rng));
            x5.push(si as f64 + 0.5 * sample_std_normal(&mut rng));
            y.push(u32::from(
                (v - 5e7) / 1e7 + 0.3 * sample_std_normal(&mut rng) > 1.0,
            ));
            s.push(si);
            a.push(ai);
            x1.push(v);
        }
        Table::new(vec![
            Column::cat("S", Role::Sensitive, s, 2),
            Column::cat("A", Role::Admissible, a, 3),
            Column::num("X1", Role::Feature, x1.clone()),
            Column::num("X2", Role::Feature, x1),
            Column::num("X3", Role::Feature, x3),
            Column::num("X5", Role::Feature, x5),
            Column::cat("Y", Role::Target, y, 2),
        ])
        .expect("equal-length columns")
    }

    /// Where the row-major route cannot factor the normal equations of
    /// {X1, X2}, X2 is dropped and weighted 0, so the partial correlation
    /// given {X1, X2} is bit for bit the one given {X1}; with A in the set
    /// too, the one given {A, X1}.
    #[test]
    fn duplicated_conditioning_column_is_dropped_not_a_panic() {
        let (a, x1, x2, x3, x5, y) = (1, 2, 3, 4, 5, 6);
        let mut dropped = 0;
        for seed in 1..=6 {
            let t = collinear_table(seed);
            let reference = ReferenceFisherZ::new(&t, 0.01);
            let fz = FisherZ::new(&t, 0.01);
            let sets = [(vec![x1, x2], vec![x1]), (vec![a, x1, x2], vec![a, x1])];
            for (with_dup, without) in sets {
                let panics = catch_unwind(AssertUnwindSafe(|| {
                    reference.residuals(&with_dup, &[x5]);
                }))
                .is_err();
                for (u, v) in [(x5, y), (x3, x5), (x3, y)] {
                    let got = fz.partial_correlation(u, v, &with_dup);
                    if panics {
                        let want = fz.partial_correlation(u, v, &without);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "seed {seed}: ({u}, {v}) given {with_dup:?} vs {without:?}"
                        );
                    }
                }
                dropped += usize::from(panics);
            }
        }
        assert!(dropped > 0, "no seed reached the dropping solve");
    }
}

#[cfg(test)]
mod request_validation {
    //! Wire-controlled `train_frac`, `alpha` and `workers` are checked
    //! where they enter the server: an out-of-range value gets a
    //! structured error reply instead of a panic in the handler, and the
    //! connection that carried it goes on serving valid requests. So does
    //! a frame that is not UTF-8 JSON or nests past `MAX_JSON_DEPTH`, and
    //! a dataset with a column whose kind or values the pipeline cannot
    //! read.

    use fairsel_ci::{FisherZ, GTest};
    use fairsel_core::{render_pipeline_report, run_pipeline_batched};
    use fairsel_datasets::sim::sample_table;
    use fairsel_datasets::synthetic::{synthetic_instance, synthetic_scm, SyntheticConfig};
    use fairsel_server::proto::{read_frame, write_frame};
    use fairsel_server::{
        fingerprint_table, pipeline_config, DatasetRef, Json, Request, Response, ServeConfig,
        Server, WorkloadRequest, MAX_JSON_DEPTH, MAX_WORKERS,
    };
    use fairsel_table::{codec, csv, ColumnData, Table};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::net::TcpStream;

    fn workload_csv(seed: u64, n_features: usize, rows: usize) -> String {
        let cfg = SyntheticConfig {
            n_features,
            biased_fraction: 0.2,
            predictive_fraction: 0.25,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = synthetic_instance(&mut rng, &cfg);
        let scm = synthetic_scm(&mut rng, &inst, 1.5);
        csv::to_csv_string(&sample_table(&scm, &inst.roles, rows, &mut rng))
    }

    /// One request/response exchange on an open connection.
    fn call(stream: &mut TcpStream, req: &Request) -> Response {
        call_raw(stream, req.to_json().to_string().as_bytes())
    }

    /// One exchange of a request that a payload frame follows (`put`,
    /// `append`).
    fn call_with_payload(stream: &mut TcpStream, req: &Request, payload: &[u8]) -> Response {
        write_frame(stream, req.to_json().to_string().as_bytes()).expect("send");
        call_raw(stream, payload)
    }

    /// One exchange of a request frame exactly as given.
    fn call_raw(stream: &mut TcpStream, frame: &[u8]) -> Response {
        write_frame(stream, frame).expect("send");
        let bytes = read_frame(stream)
            .expect("read")
            .expect("server closed the connection");
        let text = String::from_utf8(bytes).expect("utf-8 reply");
        Response::from_json(&Json::parse(&text).expect("json reply")).expect("response")
    }

    /// The report a local G-test run of an inline-CSV workload renders.
    fn local_gtest_select(wl: &WorkloadRequest) -> String {
        let table = csv::from_csv_string(wl.dataset.as_csv().expect("inline csv")).expect("csv");
        let split = table.split_rows_stable(wl.seed, wl.train_frac);
        let (train, test) = (split.train, split.test);
        let cfg = pipeline_config(wl, train.n_rows()).expect("config");
        let out = run_pipeline_batched(GTest::new(&train, wl.alpha), &train, &test, &cfg);
        render_pipeline_report(&out, &train, &cfg, test.n_rows())
    }

    #[test]
    fn bad_train_frac_and_workers_get_errors_on_a_connection_that_survives() {
        let csv_text = workload_csv(29, 10, 600);
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
        let addr = server.local_addr().to_string();
        let handle = server.spawn();
        let mut stream = TcpStream::connect(&addr).expect("connect");

        let bad = [
            (0.0, 0.01, 1, "train_frac"),
            (1.0, 0.01, 1, "train_frac"),
            (1.5, 0.01, 1, "train_frac"),
            (0.7, 0.0, 1, "alpha"),
            (0.7, 1.0, 1, "alpha"),
            (0.7, 1.5, 1, "alpha"),
            (0.7, -0.1, 1, "alpha"),
            (0.7, 0.01, MAX_WORKERS + 1, "workers"),
        ];
        for (train_frac, alpha, workers, field) in bad {
            let req = Request::Select(WorkloadRequest {
                dataset: DatasetRef::Csv(csv_text.clone()),
                train_frac,
                alpha,
                workers,
                ..Default::default()
            });
            let label = format!("train_frac {train_frac}, alpha {alpha}, workers {workers}");
            match call(&mut stream, &req) {
                Response::Err(e) => {
                    assert!(e.contains(field), "{label}: error {e:?} must name {field}")
                }
                other => panic!("{label}: got {other:?}"),
            }
        }

        // The same connection then serves a valid select, byte-identical
        // to a local run of the same workload.
        let wl = WorkloadRequest::with_csv(csv_text);
        let expected = local_gtest_select(&wl);
        // Older clients still send "speculate"; the decoder ignores it.
        let plain = Request::Select(wl.clone()).to_json().to_string();
        let older = format!(
            "{},\"speculate\":true}}",
            plain.strip_suffix('}').expect("object frame")
        );
        match call(&mut stream, &Request::Select(wl)) {
            Response::Ok { body, .. } => assert_eq!(body, expected),
            other => panic!("valid select after the rejected ones failed: {other:?}"),
        }
        match call_raw(&mut stream, older.as_bytes()) {
            Response::Ok { body, .. } => assert_eq!(body, expected),
            other => panic!("select frame carrying speculate failed: {other:?}"),
        }
        drop(stream);
        handle.shutdown();
    }

    /// A `workers`, `alpha` or `train_frac` that is present but of the
    /// wrong type gets an error naming the field, where it was once
    /// answered as if the field were absent. The connection then serves a
    /// select byte-identical to a local run.
    #[test]
    fn mistyped_fields_get_errors_on_a_connection_that_survives() {
        let wl = WorkloadRequest::with_csv(workload_csv(41, 8, 500));
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
        let addr = server.local_addr().to_string();
        let handle = server.spawn();
        let mut stream = TcpStream::connect(&addr).expect("connect");

        let bad = [
            ("workers", "-1"),
            ("workers", "1.5"),
            ("workers", "\"all\""),
            ("alpha", "\"x\""),
            ("alpha", "null"),
            ("train_frac", "\"x\""),
        ];
        for (field, value) in bad {
            let Json::Obj(mut pairs) = Request::Select(wl.clone()).to_json() else {
                panic!("a select is a JSON object");
            };
            let slot = pairs.iter_mut().find(|(k, _)| k == field).expect("field");
            slot.1 = Json::parse(value).expect("json value");
            let frame = Json::Obj(pairs).to_string();
            match call_raw(&mut stream, frame.as_bytes()) {
                Response::Err(e) => assert!(e.contains(field), "{field} {value}: {e:?}"),
                other => panic!("{field} {value} got {other:?}"),
            }
        }

        let expected = local_gtest_select(&wl);
        match call(&mut stream, &Request::Select(wl)) {
            Response::Ok { body, .. } => assert_eq!(body, expected),
            other => panic!("valid select after the mistyped ones failed: {other:?}"),
        }
        drop(stream);
        handle.shutdown();
    }

    /// The `last` count of a trace request is checked where it enters the
    /// server: past the sink's capacity it is answered with at most that
    /// many spans, and a value that is not an integer from 0 to 2^53 gets
    /// an error naming `last` instead of the default count. The
    /// connection then answers a ping.
    #[test]
    fn trace_last_is_checked_on_a_connection_that_survives() {
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
        let addr = server.local_addr().to_string();
        let handle = server.spawn();
        let mut stream = TcpStream::connect(&addr).expect("connect");
        let cap = fairsel_obs::DEFAULT_SINK_CAP;
        match call(&mut stream, &Request::Trace { last: cap + 1 }) {
            Response::Ok {
                stats: Some(stats), ..
            } => match stats.get("spans") {
                Some(Json::Arr(spans)) => assert!(spans.len() <= cap, "{} spans", spans.len()),
                other => panic!("no spans array: {other:?}"),
            },
            other => panic!("trace with last = {} failed: {other:?}", cap + 1),
        }
        for bad in ["-1", "1.5", "\"all\"", "1152921504606846976", "null"] {
            let frame = format!(r#"{{"cmd":"trace","last":{bad}}}"#);
            match call_raw(&mut stream, frame.as_bytes()) {
                Response::Err(e) => assert!(e.contains("last"), "last = {bad}: {e:?}"),
                other => panic!("last = {bad} got {other:?}"),
            }
        }
        assert!(matches!(
            call(&mut stream, &Request::Ping),
            Response::Ok { .. }
        ));
        drop(stream);
        handle.shutdown();
    }

    /// A trace request answers exactly the last `last` spans, `last: 0`
    /// included: after a select, `last: 0` returns an empty `spans` array
    /// (it once returned one span) and `last: 1` returns one span.
    #[test]
    fn trace_last_zero_returns_no_spans() {
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
        let addr = server.local_addr().to_string();
        let handle = server.spawn();
        let mut stream = TcpStream::connect(&addr).expect("connect");
        let wl = WorkloadRequest::with_csv(workload_csv(43, 6, 400));
        assert!(matches!(
            call(&mut stream, &Request::Select(wl)),
            Response::Ok { .. }
        ));
        let mut spans = |last: usize| match call(&mut stream, &Request::Trace { last }) {
            Response::Ok {
                stats: Some(stats), ..
            } => match stats.get("spans") {
                Some(Json::Arr(spans)) => spans.len(),
                other => panic!("no spans array: {other:?}"),
            },
            other => panic!("trace with last = {last} failed: {other:?}"),
        };
        assert_eq!(spans(0), 0, "last = 0");
        // The sink is process-wide and other tests toggle it; the spans of
        // a select stay in it, but wait for a worker's to drain there.
        let mut one = spans(1);
        for _ in 0..40 {
            if one == 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
            one = spans(1);
        }
        assert_eq!(one, 1, "last = 1");
        assert_eq!(spans(0), 0, "last = 0 after spans arrived");
        drop(stream);
        handle.shutdown();
    }

    /// Frames that are not a request each get a structured error reply
    /// on the connection that carried them: nesting at `MAX_JSON_DEPTH`
    /// (valid JSON, not a request), one level past it, a 10,000-byte run
    /// of `[` (which once overflowed the handler's stack and aborted the
    /// server), and bytes that are not UTF-8. The connection then serves
    /// a select byte-identical to a local run.
    #[test]
    fn malformed_frames_get_errors_on_a_connection_that_survives() {
        let csv_text = workload_csv(31, 8, 500);
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
        let addr = server.local_addr().to_string();
        let handle = server.spawn();
        let mut stream = TcpStream::connect(&addr).expect("connect");

        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let frames: [(Vec<u8>, &str); 4] = [
            (nested(MAX_JSON_DEPTH).into_bytes(), "missing cmd"),
            (nested(MAX_JSON_DEPTH + 1).into_bytes(), "nesting deeper"),
            (vec![b'['; 10_000], "nesting deeper"),
            (vec![b'{', 0xff, 0xfe, b'}'], "not utf-8"),
        ];
        for (frame, expected) in &frames {
            match call_raw(&mut stream, frame) {
                Response::Err(e) => assert!(e.contains(expected), "{e:?} must say {expected:?}"),
                other => panic!("a malformed frame got {other:?}"),
            }
        }

        let wl = WorkloadRequest::with_csv(csv_text);
        let expected = local_gtest_select(&wl);
        match call(&mut stream, &Request::Select(wl)) {
            Response::Ok { body, .. } => assert_eq!(body, expected),
            other => panic!("valid select after the malformed frames failed: {other:?}"),
        }
        drop(stream);
        handle.shutdown();
    }

    /// A NaN or ±∞ in a numeric feature gets an error naming the column
    /// and its first such row, however the dataset arrives: inline, by
    /// `put`, which is refused so that no workload-less upload takes a
    /// slot of the store, or in an appended batch, which is refused so
    /// that no child is ever born over it. The connection then serves a
    /// Fisher-z select of the clean parent, byte-identical to a local
    /// run.
    #[test]
    fn non_finite_numeric_features_get_errors_on_a_connection_that_survives() {
        let clean = crate::collinear_conditioning::collinear_table(2);
        let poisoned = |table: &Table, column: &str, row: usize, v: f64| {
            let mut cols = table.columns().to_vec();
            let col = cols.iter_mut().find(|c| c.name == column).expect("column");
            let ColumnData::Num(values) = &mut col.data else {
                panic!("{column} is not numeric");
            };
            values[row] = v;
            Table::new(cols).expect("table")
        };
        let fisherz = |dataset| WorkloadRequest {
            dataset,
            tester: "fisherz".into(),
            ..Default::default()
        };
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
        let addr = server.local_addr().to_string();
        let handle = server.spawn();
        let mut stream = TcpStream::connect(&addr).expect("connect");
        let expect_err = |resp: Response, expected: &str| match resp {
            Response::Err(e) => assert!(e.contains(expected), "{e:?} must say {expected:?}"),
            other => panic!("expected an error saying {expected:?}, got {other:?}"),
        };
        let fp_of = |resp: Response| match resp {
            Response::Ok { body, .. } => u64::from_str_radix(&body, 16).expect("hex fingerprint"),
            other => panic!("expected a fingerprint: {other:?}"),
        };

        // Inline CSV.
        let inline = csv::to_csv_string(&poisoned(&clean, "X3", 10, f64::NAN));
        expect_err(
            call(
                &mut stream,
                &Request::Select(fisherz(DatasetRef::Csv(inline))),
            ),
            "feature column X3 holds NaN at data row 11",
        );
        // Put: the upload is refused and not stored, so a select by its
        // fingerprint finds no dataset.
        let refused = poisoned(&clean, "X5", 0, f64::INFINITY);
        expect_err(
            call_with_payload(&mut stream, &Request::Put, &codec::encode_table(&refused)),
            "put rejected: feature column X5 holds inf at data row 1",
        );
        expect_err(
            call(
                &mut stream,
                &Request::Select(fisherz(DatasetRef::Fp(fingerprint_table(&refused)))),
            ),
            "unknown dataset fingerprint",
        );
        // Append: the batch is refused and no child is stored.
        let parent = fp_of(call_with_payload(
            &mut stream,
            &Request::Put,
            &codec::encode_table(&clean),
        ));
        let rows: Vec<usize> = (0..40).collect();
        let batch = poisoned(
            &crate::collinear_conditioning::collinear_table(3).take_rows(&rows),
            "X1",
            2,
            f64::NEG_INFINITY,
        );
        expect_err(
            call_with_payload(
                &mut stream,
                &Request::Append { fp: parent },
                &codec::encode_row_batch(&batch),
            ),
            "append batch rejected: feature column X1 holds -inf at data row 3",
        );
        let child = fingerprint_table(&clean.concat(&batch).expect("concat"));
        expect_err(
            call(
                &mut stream,
                &Request::Select(fisherz(DatasetRef::Fp(child))),
            ),
            "unknown dataset fingerprint",
        );

        let wl = fisherz(DatasetRef::Fp(parent));
        let split = clean.split_rows_stable(wl.seed, wl.train_frac);
        let (train, test) = (split.train, split.test);
        let cfg = pipeline_config(&wl, train.n_rows()).expect("config");
        let out = run_pipeline_batched(FisherZ::new(&train, wl.alpha), &train, &test, &cfg);
        let expected = render_pipeline_report(&out, &train, &cfg, test.n_rows());
        match call(&mut stream, &Request::Select(wl)) {
            Response::Ok { body, .. } => assert_eq!(body, expected),
            other => panic!("select after the rejected datasets failed: {other:?}"),
        }
        drop(stream);
        handle.shutdown();
    }

    /// Datasets with a column the pipeline cannot read each get an error
    /// naming that column — a numeric target, a numeric admissible column,
    /// and a numeric feature under the G-test (for `select` and `methods`)
    /// — on a connection that then serves a Fisher-z select on the
    /// collinear table, byte-identical to a local run.
    #[test]
    fn unreadable_column_kinds_get_errors_on_a_connection_that_survives() {
        let text = csv::to_csv_string(&crate::collinear_conditioning::collinear_table(1));
        let retyped = |from: &str, to: &str| {
            let (header, body) = text.split_once('\n').expect("csv header");
            format!("{}\n{body}", header.replacen(from, to, 1))
        };
        let workload = |csv_text: String, tester: &str| WorkloadRequest {
            dataset: DatasetRef::Csv(csv_text),
            tester: tester.into(),
            ..Default::default()
        };
        let cases = [
            (
                Request::Select(workload(retyped("Y:cat2", "Y:num"), "fisherz")),
                "target column Y is numeric",
            ),
            (
                Request::Select(workload(retyped("A:cat3", "A:num"), "fisherz")),
                "admissible column A is numeric",
            ),
            (
                Request::Select(workload(text.clone(), "gtest")),
                "feature column X1 is numeric",
            ),
            (
                Request::Methods(workload(text.clone(), "gtest")),
                "feature column X1 is numeric",
            ),
        ];
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
        let addr = server.local_addr().to_string();
        let handle = server.spawn();
        let mut stream = TcpStream::connect(&addr).expect("connect");
        for (req, expected) in &cases {
            match call(&mut stream, req) {
                Response::Err(e) => assert!(e.contains(expected), "{e:?} must say {expected:?}"),
                other => panic!("an unreadable dataset got {other:?}"),
            }
        }

        let wl = workload(text.clone(), "fisherz");
        let table = csv::from_csv_string(&text).expect("csv");
        let split = table.split_rows_stable(wl.seed, wl.train_frac);
        let (train, test) = (split.train, split.test);
        let cfg = pipeline_config(&wl, train.n_rows()).expect("config");
        let out = run_pipeline_batched(FisherZ::new(&train, wl.alpha), &train, &test, &cfg);
        let expected = render_pipeline_report(&out, &train, &cfg, test.n_rows());
        match call(&mut stream, &Request::Select(wl)) {
            Response::Ok { body, .. } => assert_eq!(body, expected),
            other => panic!("fisher-z select after the rejected datasets failed: {other:?}"),
        }
        drop(stream);
        handle.shutdown();
    }
}

#[cfg(test)]
mod observability {
    //! The tracing layer's core contract: telemetry observes, never
    //! steers. With the span sink enabled or disabled, every selection
    //! report is byte-identical and every engine counter unchanged, at
    //! every worker count; and a served `select` leaves a span trail
    //! covering the whole accept → respond lifecycle, with per-command
    //! latency percentiles in `stats`.

    use fairsel_ci::GTest;
    use fairsel_core::{render_pipeline_report, run_pipeline_batched};
    use fairsel_datasets::sim::sample_table;
    use fairsel_datasets::synthetic::{synthetic_instance, synthetic_scm, SyntheticConfig};
    use fairsel_engine::EngineStats;
    use fairsel_server::{
        append_rows, pipeline_config, put_dataset, request, DatasetRef, Json, Request, Response,
        ServeConfig, Server, WorkloadRequest,
    };
    use fairsel_table::{codec, csv, Table};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Mutex;

    /// Serializes the tests that flip the process-global span sink, so
    /// the lifecycle test below never observes a mid-request disable.
    static OBS_LOCK: Mutex<()> = Mutex::new(());

    fn workload_table(seed: u64, n_features: usize, rows: usize) -> Table {
        let cfg = SyntheticConfig {
            n_features,
            biased_fraction: 0.2,
            predictive_fraction: 0.25,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = synthetic_instance(&mut rng, &cfg);
        let scm = synthetic_scm(&mut rng, &inst, 1.5);
        sample_table(&scm, &inst.roles, rows, &mut rng)
    }

    /// Every counter that must be invariant under tracing. `wall_ms` and
    /// the per-phase wall times are timing, not behavior, and are the
    /// only exclusions.
    #[derive(Debug, PartialEq)]
    struct Counters {
        requested: u64,
        issued: u64,
        cache_hits: u64,
        batches: u64,
        parallel_batches: u64,
        grouped_batches: u64,
        max_batch: usize,
        encode_cache_hits: u64,
        encode_cache_misses: u64,
        encode_cache_evictions: u64,
        phases: Vec<(String, u64, u64, u64)>,
    }

    fn counter_tuple(s: &EngineStats) -> Counters {
        Counters {
            requested: s.requested,
            issued: s.issued,
            cache_hits: s.cache_hits,
            batches: s.batches,
            parallel_batches: s.parallel_batches,
            grouped_batches: s.grouped_batches,
            max_batch: s.max_batch,
            encode_cache_hits: s.encode_cache_hits,
            encode_cache_misses: s.encode_cache_misses,
            encode_cache_evictions: s.encode_cache_evictions,
            phases: s
                .phases
                .iter()
                .map(|p| (p.name.clone(), p.requested, p.issued, p.cache_hits))
                .collect(),
        }
    }

    #[test]
    fn tracing_toggle_is_invisible_to_selections_and_counters() {
        let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let table = workload_table(31, 12, 700);
        for workers in [1usize, 2, 4, 8] {
            let wl = WorkloadRequest {
                dataset: DatasetRef::Csv(String::new()),
                workers,
                ..Default::default()
            };
            let run = || {
                let split = table.split_rows_stable(wl.seed, wl.train_frac);
                let (train, test) = (split.train, split.test);
                let cfg = pipeline_config(&wl, train.n_rows()).expect("config");
                let out = run_pipeline_batched(GTest::new(&train, wl.alpha), &train, &test, &cfg);
                let body = render_pipeline_report(&out, &train, &cfg, test.n_rows());
                (body, counter_tuple(&out.engine))
            };
            fairsel_obs::set_enabled(false);
            let (body_off, counters_off) = run();
            fairsel_obs::set_enabled(true);
            let (body_on, counters_on) = run();
            assert_eq!(
                body_off, body_on,
                "workers={workers}: tracing changed the selection report"
            );
            assert_eq!(
                counters_off, counters_on,
                "workers={workers}: tracing changed engine counters"
            );
        }
    }

    #[test]
    fn served_select_leaves_full_span_trail_and_percentile_stats() {
        let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let table = workload_table(33, 10, 500);
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
        let addr = server.local_addr().to_string();
        let handle = server.spawn();

        let req = Request::Select(WorkloadRequest {
            dataset: DatasetRef::Csv(csv::to_csv_string(&table)),
            workers: 2,
            ..Default::default()
        });
        // The repeat takes its model report from the workload's memo.
        for _ in 0..2 {
            match request(&addr, &req).expect("select") {
                Response::Ok { .. } => {}
                other => panic!("select failed: {other:?}"),
            }
        }

        // Trace: spans covering accept → queue wait → parse → engine
        // phases → featurize, train, score (on the repeat, the report
        // memo) → render → respond. The sink is process-global, so other
        // tests' spans may interleave; containment is the assertion. A
        // handler thread flushes its span buffer when the root request
        // span drops — *after* the response bytes are written — so a
        // one-shot client can out-race the flush; poll briefly.
        const EXPECTED: [&str; 13] = [
            "server.queue_wait",
            "server.request",
            "server.parse",
            "server.respond",
            "registry.select",
            "planner.level",
            "tester.eval",
            "zgroup.eval",
            "pipeline.featurize",
            "ml.train",
            "ml.score",
            "report.memo",
            "report.render",
        ];
        let mut t = Json::Null;
        for attempt in 0..40 {
            if attempt > 0 {
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
            let resp = request(&addr, &Request::Trace { last: 2048 }).expect("trace");
            let Response::Ok {
                stats: Some(got), ..
            } = resp
            else {
                panic!("trace failed: {resp:?}");
            };
            let done = match got.get("spans") {
                Some(Json::Arr(spans)) => {
                    let names: Vec<&str> = spans.iter().filter_map(|s| s.get_str("name")).collect();
                    EXPECTED.iter().all(|e| names.contains(e))
                }
                _ => false,
            };
            t = got;
            if done {
                break;
            }
        }
        let Some(Json::Arr(spans)) = t.get("spans") else {
            panic!("trace response carried no spans array");
        };
        let names: Vec<&str> = spans.iter().filter_map(|s| s.get_str("name")).collect();
        for expected in EXPECTED {
            assert!(
                names.contains(&expected),
                "span {expected:?} missing from trace (got {names:?})"
            );
        }
        // Child spans link to their parents.
        let request_ids: Vec<u64> = spans
            .iter()
            .filter(|s| s.get_str("name") == Some("server.request"))
            .filter_map(|s| s.get_u64("id"))
            .collect();
        let parse_parents: Vec<u64> = spans
            .iter()
            .filter(|s| s.get_str("name") == Some("server.parse"))
            .filter_map(|s| s.get_u64("parent"))
            .collect();
        assert!(
            parse_parents.iter().any(|p| request_ids.contains(p)),
            "server.parse must nest under a server.request span"
        );
        assert!(t.get_num("spans_dropped").is_some());

        // Stats: per-command percentiles, queue wait, named histograms.
        let Response::Ok { stats: Some(s), .. } = request(&addr, &Request::Stats).expect("stats")
        else {
            panic!("stats failed");
        };
        for k in [
            "request_wall_p50_ms",
            "request_wall_p95_ms",
            "request_wall_p99_ms",
            "request_wall_max_ms",
            "queue_wait_ms",
            "queue_wait_p50_ms",
            "queue_wait_p95_ms",
            "queue_wait_p99_ms",
            "pool_busy_ms",
            "spans_dropped",
        ] {
            assert!(s.get_num(k).is_some(), "stats field {k} missing");
        }
        let p50 = s.get_num("request_wall_p50_ms").unwrap();
        let p95 = s.get_num("request_wall_p95_ms").unwrap();
        let p99 = s.get_num("request_wall_p99_ms").unwrap();
        let max = s.get_num("request_wall_max_ms").unwrap();
        assert!(
            p50 <= p95 && p95 <= p99 && p99 <= max,
            "request-wall percentiles must ascend ({p50} / {p95} / {p99} / max {max})"
        );
        let hists = s.get("histograms").expect("histograms object");
        let select_hist = hists
            .get("request_wall/select")
            .expect("per-command histogram for select");
        assert!(
            select_hist.get_num("count").unwrap_or(0.0) >= 1.0,
            "the select histogram must have counted the request"
        );
        let qwait = hists.get("queue_wait").expect("queue-wait histogram");
        assert!(
            qwait.get_num("count").unwrap_or(0.0) >= 2.0,
            "every admitted connection records its queue wait"
        );
        // The Prometheus rendering of these stats carries the bucket
        // lines the CI smoke step greps for.
        let prom = fairsel_server::render_prom(&s);
        assert!(
            prom.contains("fairsel_request_wall_ms_bucket{cmd=\"select\",le="),
            "prom rendering must expose select request-wall buckets"
        );
        assert!(prom.contains("# TYPE fairsel_request_wall_ms histogram"));

        handle.shutdown();
    }
    /// A child dataset born warm from its parent traces the extension
    /// itself: put → select → append → select leaves an `engine.extend`
    /// span under the child's `session.warm_child`, which sits under its
    /// `session.build`, and each span's interval lies inside its parent's.
    #[test]
    fn warm_child_span_covers_the_extension() {
        let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let full = workload_table(35, 10, 600);
        let base = full.take_rows(&(0..500).collect::<Vec<_>>());
        let batch = full.take_rows(&(500..600).collect::<Vec<_>>());
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
        let addr = server.local_addr().to_string();
        let handle = server.spawn();

        let fp_of = |resp: Response| match resp {
            Response::Ok { body, .. } => u64::from_str_radix(&body, 16).expect("hex fingerprint"),
            other => panic!("expected a fingerprint: {other:?}"),
        };
        let select = |fp: u64| {
            let req = Request::Select(WorkloadRequest {
                dataset: DatasetRef::Fp(fp),
                ..Default::default()
            });
            match request(&addr, &req).expect("select") {
                Response::Ok { .. } => {}
                other => panic!("select {fp:016x} failed: {other:?}"),
            }
        };
        let fp = fp_of(put_dataset(&addr, &codec::encode_table(&base)).expect("put"));
        select(fp);
        let child =
            fp_of(append_rows(&addr, fp, &codec::encode_row_batch(&batch)).expect("append"));
        select(child);
        let child_hex = format!("{child:016x}");

        // The sink is process-global and flushed when a handler's root
        // span drops, after the reply is written: poll for the chain.
        let span = |spans: &[Json], id: u64| -> Option<Json> {
            spans.iter().find(|s| s.get_u64("id") == Some(id)).cloned()
        };
        let chain = |spans: &[Json]| -> Option<[Json; 3]> {
            let warm = spans.iter().find(|s| {
                s.get_str("name") == Some("session.warm_child")
                    && s.get("kv").and_then(|kv| kv.get_str("fingerprint")) == Some(&child_hex)
            })?;
            let wid = warm.get_u64("id")?;
            let extend = spans.iter().find(|s| {
                s.get_str("name") == Some("engine.extend") && s.get_u64("parent") == Some(wid)
            })?;
            let build = span(spans, warm.get_u64("parent")?)?;
            Some([build, warm.clone(), extend.clone()])
        };
        let mut found = None;
        for attempt in 0..40 {
            if attempt > 0 {
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
            let Response::Ok { stats: Some(t), .. } =
                request(&addr, &Request::Trace { last: 4096 }).expect("trace")
            else {
                panic!("trace failed");
            };
            if let Some(Json::Arr(spans)) = t.get("spans") {
                found = chain(spans);
            }
            if found.is_some() {
                break;
            }
        }
        let [build, warm, extend] =
            found.expect("engine.extend under the child's session.warm_child");
        assert_eq!(build.get_str("name"), Some("session.build"));
        assert_eq!(
            build.get("kv").and_then(|kv| kv.get_str("fingerprint")),
            Some(child_hex.as_str())
        );
        let d = WorkloadRequest::default();
        let train_rows = |t: &Table| t.split_rows_stable(d.seed, d.train_frac).train.n_rows();
        let appended = (train_rows(&full) - train_rows(&base)).to_string();
        assert_eq!(
            warm.get("kv")
                .and_then(|kv| kv.get_str("appended_train_rows")),
            Some(appended.as_str())
        );
        let interval = |s: &Json| {
            let start = s.get_u64("start_us").expect("start_us");
            (start, start + s.get_u64("dur_us").expect("dur_us"))
        };
        for (outer, inner) in [(&build, &warm), (&warm, &extend)] {
            let (o, i) = (interval(outer), interval(inner));
            assert!(
                o.0 <= i.0 && i.1 <= o.1,
                "{:?} {i:?} must lie inside {:?} {o:?}",
                inner.get_str("name"),
                outer.get_str("name")
            );
        }
        handle.shutdown();
    }
}

#[cfg(test)]
mod streaming_append {
    //! The streaming-append tentpole contract, verified for every
    //! batch-aware tester: a session **extended** over an appended row
    //! batch (`CiSession::extended_over`) answers any workload
    //! byte-identically to a **cold** session on the concatenated table
    //! — same p-value and statistic bits, same engine counters — at
    //! workers 1/2/4/8, and the scaffold ledger conserves exactly
    //! (`extended + rebuilt == resident + evicted`) at birth and after
    //! every query.

    use fairsel_ci::{CiTestBatch, FisherZ, GTest, PermutationCmi, Rcit, VarId};
    use fairsel_datasets::sim::sample_table;
    use fairsel_datasets::synthetic::{synthetic_instance, synthetic_scm, SyntheticConfig};
    use fairsel_engine::{CiQuery, CiSession};
    use fairsel_table::{EncodedTable, Table, DEFAULT_CACHE_CAP};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    fn sampled(seed: u64, n_features: usize, rows: usize) -> Table {
        let cfg = SyntheticConfig {
            n_features,
            biased_fraction: 0.2,
            predictive_fraction: 0.25,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = synthetic_instance(&mut rng, &cfg);
        let scm = synthetic_scm(&mut rng, &inst, 1.5);
        sample_table(&scm, &inst.roles, rows, &mut rng)
    }

    /// Selector-shaped random workload (same shape as the batch
    /// equivalence suite uses): small group sides, conditioning sets of
    /// 0–3 variables, deliberate repeats.
    fn workload(rng: &mut StdRng, n_vars: usize, count: usize) -> Vec<CiQuery> {
        let side = |max: usize, rng: &mut StdRng| -> Vec<VarId> {
            let len = rng.gen_range(1..=max);
            (0..len).map(|_| rng.gen_range(0..n_vars)).collect()
        };
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let x = side(3, rng);
            let y = side(2, rng);
            let zlen = rng.gen_range(0..=3usize);
            let z: Vec<VarId> = (0..zlen).map(|_| rng.gen_range(0..n_vars)).collect();
            out.push(CiQuery::new(&x, &y, &z));
            if rng.gen_range(0..4) == 0 {
                out.push(CiQuery::new(&y, &x, &z));
            }
        }
        out
    }

    /// Warm a parent session, extend it over `batch`, and drive the
    /// extended session against a cold session on the concatenated
    /// table with the same probe workload. `patchable` marks testers
    /// whose sufficient statistic is an integer contingency table
    /// (G-test, permutation CMI): their memoized outcomes re-derive in
    /// O(batch) and the probe must consume them instead of issuing.
    #[allow(clippy::too_many_arguments)]
    fn assert_append_matches_cold<T: CiTestBatch, C: CiTestBatch>(
        parent: T,
        parent_enc: Arc<EncodedTable>,
        cold: C,
        batch: &Table,
        warm: &[CiQuery],
        probe: &[CiQuery],
        workers: usize,
        extendable: bool,
        patchable: bool,
        min_extended_encodings: u64,
        label: &str,
    ) {
        let mut psession = CiSession::new(parent);
        psession.run_batch_grouped(warm, workers);
        let memoized_before = psession.cache_len() as u64;

        let child_enc = Arc::new(parent_enc.extend(batch).expect("schema-compatible batch"));
        let mut ext = psession
            .extended_over(Arc::clone(&child_enc))
            .expect("every data tester must support extension");

        // Warm-birth ledger: visible before any query, exactly conserved,
        // outcomes invalidated (p-values change with n).
        let (b_rows, b_enc, b_ext, b_rebuilt) = {
            let s = ext.stats();
            assert!(
                s.scaffolds_conserved(),
                "{label} workers {workers}: birth ledger must conserve"
            );
            (
                s.append_rows,
                s.extended_encodings,
                s.extended_scaffolds,
                s.rebuilt_scaffolds,
            )
        };
        assert!(b_rows > 0, "{label}: append_rows ledger empty at birth");
        assert!(
            b_enc >= min_extended_encodings,
            "{label}: extended_encodings {b_enc} < {min_extended_encodings}"
        );
        if extendable {
            assert!(
                b_ext > 0,
                "{label} workers {workers}: warm scaffolds must carry over"
            );
            assert_eq!(
                b_rebuilt, 0,
                "{label} workers {workers}: nothing rebuilt at birth"
            );
        } else {
            assert_eq!(b_ext, 0, "{label}: full-rebuild tester extends nothing");
        }
        assert_eq!(
            ext.cache_len(),
            0,
            "{label}: patched outcomes park outside the memo until demanded"
        );
        // The memo ledger is stamped at birth and conserves exactly:
        // every parent memo either patched or invalidated.
        {
            let s = ext.stats();
            assert_eq!(
                s.memoized_before, memoized_before,
                "{label} workers {workers}: memoized_before"
            );
            assert!(
                s.memos_conserved(),
                "{label} workers {workers}: memo ledger must conserve \
                 (patched {} + invalidated {} != before {})",
                s.memo_patched,
                s.memo_invalidated,
                s.memoized_before
            );
            if patchable {
                assert!(
                    s.memo_patched > 0,
                    "{label} workers {workers}: a contingency-table tester must patch"
                );
            } else {
                assert_eq!(
                    s.memo_patched, 0,
                    "{label} workers {workers}: float moment sums must never patch"
                );
                assert_eq!(s.memo_invalidated, memoized_before, "{label}");
            }
        }

        // Probe: extended vs cold, bit-for-bit, same counters.
        let mut cold_session = CiSession::new(cold);
        let got = ext.run_batch_grouped(probe, workers);
        let want = cold_session.run_batch_grouped(probe, workers);
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.independent, w.independent,
                "{label} q{i} workers {workers}: verdict diverged"
            );
            assert_eq!(
                g.p_value.to_bits(),
                w.p_value.to_bits(),
                "{label} q{i} workers {workers}: p-value bits diverged"
            );
            assert_eq!(
                g.statistic.to_bits(),
                w.statistic.to_bits(),
                "{label} q{i} workers {workers}: statistic bits diverged"
            );
        }
        assert_eq!(
            ext.outcomes_fingerprint(),
            cold_session.outcomes_fingerprint(),
            "{label} workers {workers}: outcome fingerprints diverged"
        );
        let es = ext.stats();
        let cs = cold_session.stats();
        assert_eq!(es.requested, cs.requested, "{label}: requested");
        // Every consumed patch replaces one cold issue and is booked as
        // a cache hit — the conservation the patched fast path lives by.
        assert_eq!(
            es.issued + es.memo_patch_hits,
            cs.issued,
            "{label} workers {workers}: issued + patch hits must conserve"
        );
        assert_eq!(
            es.cache_hits,
            cs.cache_hits + es.memo_patch_hits,
            "{label} workers {workers}: cache_hits"
        );
        assert!(
            es.memo_patch_hits <= es.memo_patched,
            "{label}: consumed more patches than parked"
        );
        if patchable {
            assert!(
                es.memo_patch_hits > 0,
                "{label} workers {workers}: the probe replays the warm workload, \
                 so patched outcomes must be consumed"
            );
            assert!(
                es.issued < cs.issued,
                "{label} workers {workers}: patching must save issues"
            );
        } else {
            assert_eq!(es.memo_patch_hits, 0, "{label}: nothing parked to consume");
            assert_eq!(es.issued, cs.issued, "{label}: issued");
        }
        assert_eq!(es.batches, cs.batches, "{label}: batches");
        assert!(
            es.scaffolds_conserved(),
            "{label} workers {workers}: ledger must conserve after queries \
             (extended {} + rebuilt {} != resident {} + evicted {})",
            es.extended_scaffolds,
            es.rebuilt_scaffolds,
            es.resident_scaffolds,
            es.scaffold_evictions
        );
    }

    #[test]
    fn extended_sessions_match_cold_for_all_testers_at_all_worker_counts() {
        let full = sampled(61, 10, 800);
        let n = full.n_rows();
        let split_at = 600;
        let base = full.take_rows(&(0..split_at).collect::<Vec<_>>());
        let batch = full.take_rows(&(split_at..n).collect::<Vec<_>>());
        let n_vars = full.n_cols();
        let mut rng = StdRng::seed_from_u64(991);
        let warm = workload(&mut rng, n_vars, 18);
        // The probe replays the warm workload (the "re-select": every
        // patched outcome gets demanded) and then branches into fresh
        // queries that must issue cold.
        let mut probe = warm.clone();
        probe.extend(workload(&mut rng, n_vars, 30));

        let enc_over = |t: &Table| {
            Arc::new(EncodedTable::from_arc_with_cap(
                Arc::new(t.clone()),
                DEFAULT_CACHE_CAP,
            ))
        };
        for workers in [1usize, 2, 4, 8] {
            let enc = enc_over(&base);
            assert_append_matches_cold(
                GTest::over(Arc::clone(&enc), 0.01),
                enc,
                GTest::new(&full, 0.01),
                &batch,
                &warm,
                &probe,
                workers,
                true,
                true,
                1,
                "g-test",
            );

            let enc = enc_over(&base);
            assert_append_matches_cold(
                PermutationCmi::over(Arc::clone(&enc), 0.05, 11, 7),
                enc,
                PermutationCmi::new(&full, 0.05, 11, 7),
                &batch,
                &warm,
                &probe,
                workers,
                true,
                true,
                1,
                "perm-cmi",
            );

            // Fisher-z residuals depend on the whole sample too: nothing
            // extends, every residual rebuilds.
            let enc = enc_over(&base);
            assert_append_matches_cold(
                FisherZ::over(Arc::clone(&enc), 0.01),
                enc,
                FisherZ::new(&full, 0.01),
                &batch,
                &warm,
                &probe,
                workers,
                false,
                false,
                0,
                "fisher-z",
            );

            // RCIT standardizes over the whole sample, so its scaffolds
            // rebuild rather than extend — the ledger records that and
            // still conserves, and results still match cold exactly.
            let parent = Rcit::with_alpha(&base, 0.01, 5);
            let enc = Arc::clone(parent.encoded());
            assert_append_matches_cold(
                parent,
                enc,
                Rcit::with_alpha(&full, 0.01, 5),
                &batch,
                &warm,
                &probe,
                workers,
                false,
                false,
                0,
                "rcit",
            );
        }
    }

    /// Eviction-forced mixed sessions: with a tiny tester cache, many
    /// sufficient-statistic tables are evicted before the append, so the
    /// extension patches some memos and invalidates the rest — and the
    /// re-select is still byte-identical to cold with a conserved ledger.
    #[test]
    fn eviction_forced_mixed_patch_and_invalidate_still_matches_cold() {
        let full = sampled(67, 10, 700);
        let n = full.n_rows();
        let base = full.take_rows(&(0..560).collect::<Vec<_>>());
        let batch = full.take_rows(&(560..n).collect::<Vec<_>>());
        let n_vars = full.n_cols();
        let mut rng = StdRng::seed_from_u64(733);
        let warm = workload(&mut rng, n_vars, 40);
        let probe = warm.clone();

        // Cap of 6 against a 40-query warm workload: guaranteed churn.
        let tiny = 6;
        for workers in [1usize, 2, 4, 8] {
            let enc = Arc::new(EncodedTable::from_arc_with_cap(
                Arc::new(base.clone()),
                tiny,
            ));
            let mut parent = CiSession::new(GTest::over(Arc::clone(&enc), 0.01));
            parent.run_batch_grouped(&warm, workers);
            let memoized_before = parent.cache_len() as u64;

            let child_enc = Arc::new(enc.extend(&batch).expect("compatible batch"));
            let mut ext = parent.extended_over(child_enc).expect("extension path");
            let birth = ext.stats().clone();
            assert_eq!(birth.memoized_before, memoized_before);
            assert!(birth.memos_conserved(), "workers {workers}: {birth:?}");
            assert!(
                birth.memo_invalidated > 0,
                "workers {workers}: eviction churn must force invalidations ({birth:?})"
            );

            let concat = base.concat(&batch).unwrap();
            let cold_enc = Arc::new(EncodedTable::from_arc_with_cap(Arc::new(concat), tiny));
            let mut cold = CiSession::new(GTest::over(cold_enc, 0.01));
            let got = ext.run_batch_grouped(&probe, workers);
            let want = cold.run_batch_grouped(&probe, workers);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    g.p_value.to_bits(),
                    w.p_value.to_bits(),
                    "workers {workers} q{i}: p-value bits diverged"
                );
                assert_eq!(g.statistic.to_bits(), w.statistic.to_bits());
            }
            assert_eq!(ext.outcomes_fingerprint(), cold.outcomes_fingerprint());
            let (es, cs) = (ext.stats(), cold.stats());
            assert_eq!(es.issued + es.memo_patch_hits, cs.issued);
            assert_eq!(es.cache_hits, cs.cache_hits + es.memo_patch_hits);
        }
    }

    /// An empty append batch is a pure no-op: schema-validated, every
    /// memoized outcome patches trivially (n unchanged), nothing is
    /// invalidated, and replaying the warm workload issues zero tests.
    #[test]
    fn empty_batch_append_patches_everything_and_issues_nothing() {
        let base = sampled(71, 8, 500);
        let empty = base.take_rows(&[]);
        assert_eq!(empty.n_rows(), 0);
        let n_vars = base.n_cols();
        let mut rng = StdRng::seed_from_u64(811);
        let warm = workload(&mut rng, n_vars, 15);

        let enc = Arc::new(EncodedTable::from_arc_with_cap(
            Arc::new(base.clone()),
            DEFAULT_CACHE_CAP,
        ));
        let mut parent = CiSession::new(GTest::over(Arc::clone(&enc), 0.01));
        parent.run_batch_grouped(&warm, 2);
        let memoized_before = parent.cache_len() as u64;
        let parent_fp = parent.outcomes_fingerprint();

        let child_enc = Arc::new(enc.extend(&empty).expect("empty batch is schema-valid"));
        assert_eq!(child_enc.n_rows(), base.n_rows());
        let mut ext = parent.extended_over(child_enc).expect("extension path");
        let birth = ext.stats().clone();
        assert_eq!(birth.memoized_before, memoized_before, "{birth:?}");
        assert_eq!(birth.memo_patched, memoized_before, "{birth:?}");
        assert_eq!(birth.memo_invalidated, 0, "{birth:?}");
        assert!(birth.memos_conserved());
        assert_eq!(ext.cache_len(), 0, "patched outcomes park until demanded");

        ext.run_batch_grouped(&warm, 2);
        let es = ext.stats();
        assert_eq!(es.issued, 0, "n unchanged: nothing may be re-issued");
        assert_eq!(es.memo_patch_hits, memoized_before);
        assert_eq!(ext.outcomes_fingerprint(), parent_fp);
    }

    /// A single appended row exercises the smallest non-trivial patch:
    /// one integer add per resident table, still byte-identical to cold.
    #[test]
    fn single_row_append_matches_cold() {
        let full = sampled(73, 8, 501);
        let n = full.n_rows();
        let base = full.take_rows(&(0..n - 1).collect::<Vec<_>>());
        let batch = full.take_rows(&[n - 1]);
        assert_eq!(batch.n_rows(), 1);
        let n_vars = full.n_cols();
        let mut rng = StdRng::seed_from_u64(877);
        let warm = workload(&mut rng, n_vars, 15);
        let probe = warm.clone();

        for workers in [1usize, 4] {
            let enc = Arc::new(EncodedTable::from_arc_with_cap(
                Arc::new(base.clone()),
                DEFAULT_CACHE_CAP,
            ));
            assert_append_matches_cold(
                GTest::over(Arc::clone(&enc), 0.01),
                enc,
                GTest::new(&full, 0.01),
                &batch,
                &warm,
                &probe,
                workers,
                true,
                true,
                1,
                "g-test/1row",
            );
        }
    }
}

/// The serialized stats JSON is part of the byte-identity surface: bench
/// artifact diffs and the server's `stats_json` frame both compare it
/// verbatim, so key order and number formatting are pinned to the byte.
#[cfg(test)]
mod serialization_order {
    use fairsel_engine::EngineStats;

    /// Every byte of a default `EngineStats` serialization, literally.
    /// If this fails, either a counter was added (extend the literal AND
    /// `fairsel_bench::ENGINE_STATS_KEYS` AND the R5 analyzer contract)
    /// or key order / number formatting drifted — which silently breaks
    /// stored bench baselines.
    #[test]
    fn engine_stats_json_bytes_are_pinned() {
        let expected = concat!(
            "{\"requested\":0,\"issued\":0,\"cache_hits\":0,\"batches\":0,",
            "\"parallel_batches\":0,\"grouped_batches\":0,",
            "\"max_batch\":0,\"dedup_rate\":0,\"wall_ms\":0,",
            "\"encode_cache_hits\":0,\"encode_cache_misses\":0,",
            "\"encode_cache_evictions\":0,\"narrow_code_bytes\":0,",
            "\"dense_count_cells\":0,\"append_rows\":0,\"extended_encodings\":0,",
            "\"extended_scaffolds\":0,\"rebuilt_scaffolds\":0,",
            "\"resident_scaffolds\":0,\"scaffold_evictions\":0,",
            "\"memoized_before\":0,\"memo_patched\":0,\"memo_invalidated\":0,",
            "\"memo_patch_hits\":0,\"resident_suff_tables\":0,\"suff_evictions\":0,",
            "\"phases\":[]}"
        );
        assert_eq!(EngineStats::default().to_json(), expected);
    }

    /// Non-integer values use fixed 6-decimal formatting — no shortest-
    /// round-trip drift between toolchains.
    #[test]
    fn fractional_values_format_fixed_width() {
        let stats = EngineStats {
            requested: 3,
            cache_hits: 1,
            wall_ms: 1.5,
            ..Default::default()
        };
        let json = stats.to_json();
        assert!(json.contains("\"dedup_rate\":0.333333,"), "{json}");
        assert!(json.contains("\"wall_ms\":1.500000,"), "{json}");
    }

    /// The bench validator's key list and the writer agree exactly: every
    /// declared key appears in the serialization, in declaration order —
    /// the runtime half of the analyzer's cross-file R5 rule.
    #[test]
    fn bench_keys_match_writer_order() {
        let json = EngineStats::default().to_json();
        fairsel_bench::validate_stats_json(&json).expect("default stats must validate");
        let mut pos = 0usize;
        for key in fairsel_bench::ENGINE_STATS_KEYS {
            let quoted = format!("\"{key}\":");
            let at = json[pos..]
                .find(&quoted)
                .unwrap_or_else(|| panic!("key {key} missing or out of order in {json}"));
            pos += at + quoted.len();
        }
    }
}

/// Golden report bytes: the rendered selection + fairness report of every
/// algorithm × classifier pair on one seeded table, pinned by hash. Any
/// change to a selection, a prediction, a rendered metric or the
/// rendering shows up here, so a speed-up that claims identical outputs
/// is checked end to end.
#[cfg(test)]
mod report_golden {
    use fairsel_ci::GTest;
    use fairsel_core::{
        render_pipeline_report, run_pipeline_batched_in, run_pipeline_memo_in, PipelineConfig,
        PipelineResult, ReportMemo,
    };
    use fairsel_datasets::sim::sample_table;
    use fairsel_datasets::synthetic::{synthetic_instance, synthetic_scm, SyntheticConfig};
    use fairsel_engine::CiSession;
    use fairsel_server::registry::StableHash;
    use fairsel_server::{pipeline_config, MaxGroupSpec, WorkloadRequest};
    use fairsel_table::Table;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    type Session = CiSession<GTest>;

    /// `(algo, classifier, StableHash of the body)`, recorded with the
    /// dense IRLS loop that `LogisticRegression::fit` used before it
    /// walked only each row's nonzero columns.
    const GOLDEN: [(&str, &str, u64); 10] = [
        ("grpsel", "logistic", 0xaedb_68ed_c47d_96a0),
        ("grpsel", "tree", 0xbdd2_77f4_4316_3629),
        ("grpsel", "forest", 0x9123_91b5_ff9b_3756),
        ("grpsel", "adaboost", 0x4271_98dc_56a7_8ebb),
        ("grpsel", "nb", 0x955d_13eb_c43c_608a),
        ("seqsel", "logistic", 0x68e6_98bd_6cd6_998b),
        ("seqsel", "tree", 0x578e_d6b9_8571_c593),
        ("seqsel", "forest", 0x30ab_ba80_b7e4_c538),
        ("seqsel", "adaboost", 0x8bf7_145c_ce04_6a83),
        ("seqsel", "nb", 0xf034_8801_70e9_9e71),
    ];

    /// The golden split: 24 features and 5,000 rows, the shape of a
    /// warm-serve dataset.
    fn golden_split() -> (Table, Table) {
        let cfg = SyntheticConfig {
            n_features: 24,
            biased_fraction: 0.2,
            predictive_fraction: 0.25,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(2024);
        let inst = synthetic_instance(&mut rng, &cfg);
        let scm = synthetic_scm(&mut rng, &inst, 1.5);
        let table = sample_table(&scm, &inst.roles, 5000, &mut rng);
        let split = table.split_rows_stable(5, 0.7);
        (split.train, split.test)
    }

    /// The hash of every golden body, each pipeline run by `run` in
    /// `session`.
    fn body_hashes<F>(
        session: &mut Session,
        train: &Table,
        test: &Table,
        mut run: F,
    ) -> Vec<(&'static str, &'static str, u64)>
    where
        F: FnMut(&mut Session, &PipelineConfig) -> PipelineResult,
    {
        GOLDEN
            .iter()
            .map(|&(algo, classifier, _)| {
                let wl = WorkloadRequest {
                    algo: algo.into(),
                    classifier: classifier.into(),
                    max_group: MaxGroupSpec::Auto,
                    seed: 5,
                    ..Default::default()
                };
                let cfg = pipeline_config(&wl, train.n_rows()).expect("config");
                let out = run(session, &cfg);
                let body = render_pipeline_report(&out, train, &cfg, test.n_rows());
                let mut h = StableHash::new();
                h.bytes(body.as_bytes());
                (algo, classifier, h.finish())
            })
            .collect()
    }

    #[test]
    fn rendered_reports_match_pinned_hashes() {
        let (train, test) = golden_split();
        // One session for all ten runs, as the server shares one per
        // dataset: later runs answer their CI tests from the memo.
        let mut session = CiSession::new(GTest::new(&train, 0.01));
        let got = body_hashes(&mut session, &train, &test, |session, cfg| {
            run_pipeline_batched_in(session, &train, &test, cfg)
        });
        let table: Vec<String> = got
            .iter()
            .map(|(a, c, h)| format!("(\"{a}\", \"{c}\", 0x{h:016x}),"))
            .collect();
        assert_eq!(
            got,
            GOLDEN.to_vec(),
            "rendered report bytes changed; got:\n{}",
            table.join("\n")
        );
    }

    /// The same ten bodies through one report memo, twice: the first pass
    /// fits what it has not fit yet, the second answers all ten from the
    /// memo, and both render the pinned bytes.
    #[test]
    fn memoized_reports_match_pinned_hashes() {
        let (train, test) = golden_split();
        let mut session = CiSession::new(GTest::new(&train, 0.01));
        let memo = ReportMemo::new();
        for pass in 0..2 {
            let before = memo.stats();
            let got = body_hashes(&mut session, &train, &test, |session, cfg| {
                run_pipeline_memo_in(session, &memo, &train, &test, cfg)
            });
            assert_eq!(got, GOLDEN.to_vec(), "pass {pass}");
            let after = memo.stats();
            if pass == 1 {
                assert_eq!(
                    (after.hits - before.hits, after.misses - before.misses),
                    (GOLDEN.len() as u64, 0),
                    "the second pass must fit nothing"
                );
            }
        }
        assert_eq!(memo.stats().evictions, 0);
    }
}

/// The per-workload report memo, served: a repeated model is answered
/// from the memo with the bytes a fresh fit renders, a warm child fits
/// its own models instead of reading its parent's, and a `methods` repeat
/// fits nothing.
#[cfg(test)]
mod report_memo {
    use fairsel_ci::GTest;
    use fairsel_core::{
        render_methods_report, render_pipeline_report, run_all_methods, run_pipeline_batched,
        Problem, TesterSpec,
    };
    use fairsel_datasets::sim::sample_table;
    use fairsel_datasets::synthetic::{synthetic_instance, synthetic_scm, SyntheticConfig};
    use fairsel_server::{
        append_rows, pipeline_config, put_dataset, request, DatasetRef, Request, Response,
        ServeConfig, Server, WorkloadRequest,
    };
    use fairsel_table::{codec, ColId, Table};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    fn workload_table(seed: u64, n_features: usize, rows: usize) -> Table {
        let cfg = SyntheticConfig {
            n_features,
            biased_fraction: 0.2,
            predictive_fraction: 0.25,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = synthetic_instance(&mut rng, &cfg);
        let scm = synthetic_scm(&mut rng, &inst, 1.5);
        sample_table(&scm, &inst.roles, rows, &mut rng)
    }

    fn fp_request(fp: u64, algo: &str, classifier: &str) -> WorkloadRequest {
        WorkloadRequest {
            dataset: DatasetRef::Fp(fp),
            algo: algo.into(),
            classifier: classifier.into(),
            ..Default::default()
        }
    }

    /// The body a local `fairsel select` of `req` on `table` prints, and
    /// the columns its model trains on.
    fn local_select(table: &Table, req: &WorkloadRequest) -> (String, Vec<ColId>) {
        let split = table.split_rows_stable(req.seed, req.train_frac);
        let (train, test) = (split.train, split.test);
        let cfg = pipeline_config(req, train.n_rows()).expect("config");
        let out = run_pipeline_batched(GTest::new(&train, req.alpha), &train, &test, &cfg);
        let body = render_pipeline_report(&out, &train, &cfg, test.n_rows());
        (body, out.model_cols)
    }

    fn fingerprint(resp: Response) -> u64 {
        match resp {
            Response::Ok { body, .. } => u64::from_str_radix(&body, 16).expect("hex fingerprint"),
            other => panic!("expected a fingerprint: {other:?}"),
        }
    }

    fn body(addr: &str, req: Request) -> String {
        match request(addr, &req).expect("request") {
            Response::Ok { body, .. } => body,
            other => panic!("request failed: {other:?}"),
        }
    }

    /// The server's stats value for each of `keys`.
    fn stats<const N: usize>(addr: &str, keys: [&str; N]) -> [u64; N] {
        let Response::Ok { stats: Some(s), .. } = request(addr, &Request::Stats).expect("stats")
        else {
            panic!("stats failed");
        };
        keys.map(|k| s.get_u64(k).unwrap_or_else(|| panic!("stats lacks {k}")))
    }

    /// Report-memo hits and misses so far.
    fn memo_counts(addr: &str) -> [u64; 2] {
        stats(addr, ["report_memo_hits", "report_memo_misses"])
    }

    /// The change in hits and misses across `run`.
    fn memo_delta(addr: &str, run: impl FnOnce()) -> [u64; 2] {
        let before = memo_counts(addr);
        run();
        let after = memo_counts(addr);
        [after[0] - before[0], after[1] - before[1]]
    }

    /// Each of the five classifiers under both algorithms, selected
    /// twice on one live server: every body equals a local run, and the
    /// memo fits each distinct (classifier, model columns) once. Every
    /// repeat is a hit, and so is a first select whose model the other
    /// algorithm already fit.
    #[test]
    fn every_classifier_and_algorithm_repeat_is_a_byte_identical_hit() {
        let table = workload_table(47, 12, 900);
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
        let addr = server.local_addr().to_string();
        let handle = server.spawn();
        let fp = fingerprint(put_dataset(&addr, &codec::encode_table(&table)).expect("put"));

        let mut fit = BTreeSet::new();
        let mut repeats = 0u64;
        for classifier in ["logistic", "tree", "forest", "adaboost", "nb"] {
            for algo in ["grpsel", "seqsel"] {
                let req = fp_request(fp, algo, classifier);
                let (expected, model_cols) = local_select(&table, &req);
                let fit_before = !fit.insert((classifier, model_cols));
                for round in 0..2 {
                    let mut got = String::new();
                    let delta = memo_delta(&addr, || {
                        got = body(&addr, Request::Select(req.clone()));
                    });
                    assert_eq!(got, expected, "{classifier}/{algo}, round {round}");
                    let hit = round == 1 || fit_before;
                    assert_eq!(
                        delta,
                        [u64::from(hit), u64::from(!hit)],
                        "{classifier}/{algo}, round {round}: [hits, misses]"
                    );
                }
                repeats += 1;
            }
        }
        let [hits, misses, evictions] = stats(
            &addr,
            [
                "report_memo_hits",
                "report_memo_misses",
                "report_memo_evictions",
            ],
        );
        assert_eq!(misses, fit.len() as u64, "one fit per distinct model");
        assert_eq!(hits, 2 * repeats - misses);
        assert!(hits >= repeats, "every repeat is a hit");
        assert_eq!(evictions, 0);
        handle.shutdown();
    }

    /// A child born warm by `append` starts with an empty report memo:
    /// its first select fits its own model (a miss, though the parent fit
    /// the same classifier on what may be the same columns), and its body
    /// equals a local cold run on the concatenated table. Its repeat is a
    /// hit.
    #[test]
    fn a_warm_childs_first_select_misses_and_matches_a_cold_run() {
        let full = workload_table(49, 10, 900);
        let parent = full.take_rows(&(0..780).collect::<Vec<_>>());
        let batch = full.take_rows(&(780..900).collect::<Vec<_>>());
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
        let addr = server.local_addr().to_string();
        let handle = server.spawn();

        let fp = fingerprint(put_dataset(&addr, &codec::encode_table(&parent)).expect("put"));
        let select = |fp| Request::Select(fp_request(fp, "grpsel", "logistic"));
        let parent_delta = memo_delta(&addr, || {
            body(&addr, select(fp));
            body(&addr, select(fp));
        });
        assert_eq!(parent_delta, [1, 1], "the parent fits once, then hits");

        let child =
            fingerprint(append_rows(&addr, fp, &codec::encode_row_batch(&batch)).expect("append"));
        let mut got = String::new();
        let delta = memo_delta(&addr, || got = body(&addr, select(child)));
        assert_eq!(
            stats(&addr, ["warm_children"]),
            [1],
            "the child is born warm"
        );
        assert_eq!(delta, [0, 1], "the child's first select fits its model");
        let (expected, _) = local_select(&full, &fp_request(child, "grpsel", "logistic"));
        assert_eq!(got, expected, "warm child vs a local cold run");
        let delta = memo_delta(&addr, || got = body(&addr, select(child)));
        assert_eq!(delta, [1, 0], "the child's repeat is a hit");
        assert_eq!(got, expected);
        handle.shutdown();
    }

    /// A `methods` repeat answers all five methods from the memo, with the
    /// selections and metric columns of the first sweep, which match a
    /// local sweep's.
    #[test]
    fn a_methods_repeat_answers_every_method_from_the_memo() {
        let table = workload_table(51, 10, 700);
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
        let addr = server.local_addr().to_string();
        let handle = server.spawn();
        let fp = fingerprint(put_dataset(&addr, &codec::encode_table(&table)).expect("put"));
        let methods = || Request::Methods(fp_request(fp, "grpsel", "logistic"));

        let first = body(&addr, methods());
        let mut second = String::new();
        let delta = memo_delta(&addr, || second = body(&addr, methods()));
        assert_eq!(delta, [5, 0], "every method answers from the memo");

        // Method, selected count, accuracy, odds difference and CMI: the
        // tests and issued columns count what each sweep paid.
        let metrics = |body: &str| -> Vec<String> {
            body.lines()
                .skip(1)
                .map(|line| {
                    let f: Vec<&str> = line.split_whitespace().collect();
                    format!("{} {} {}", f[0], f[1], f[f.len() - 3..].join(" "))
                })
                .collect()
        };
        assert_eq!(metrics(&first).len(), 5);
        assert_eq!(metrics(&second), metrics(&first));

        let req = fp_request(fp, "grpsel", "logistic");
        let split = table.split_rows_stable(req.seed, req.train_frac);
        let cfg = pipeline_config(&req, split.train.n_rows()).expect("config");
        let local = run_all_methods(
            &TesterSpec::GTest { alpha: req.alpha },
            None,
            &split.train,
            &split.test,
            &cfg,
        );
        let n_features = Problem::from_table(&split.train).n_features();
        let local = render_methods_report(&local, n_features);
        assert_eq!(metrics(&first), metrics(&local), "served vs local sweep");
        handle.shutdown();
    }
}
