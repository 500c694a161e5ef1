//! GrpSel — Algorithms 2–4 of the paper: group testing for causal feature
//! selection.
//!
//! SeqSel issues one CI test chain per feature; when `n` is large the sheer
//! number of tests both costs time and — with finite-sample testers —
//! manufactures spurious dependence (§5.3). GrpSel instead tests whole
//! *groups* of features at once and recurses by halving only on failure,
//! which is sound by the graphoid axioms:
//!
//! * **Composition** (Lemma 1.2): if every member of `X` satisfies
//!   `Xᵢ ⊥ S | Z` then `X ⊥ S | Z` — so a passing group admits all its
//!   members at once.
//! * **Decomposition** (Lemma 1.1, = Lemmas 7–8): if `X ̸⊥ S | Z` then at
//!   least one member is dependent — so a failing group is worth splitting,
//!   and the recursion terminates at the offending singletons.
//!
//! With `k` unsafe features out of `n`, each phase costs `O(k log n)` group
//! tests (times the `2^|A|` subset factor in phase 1), versus `O(n)` for
//! SeqSel — the crossover measured in Figures 4 and 5.
//!
//! One paper erratum (DESIGN.md substitution 6): Algorithm 4 line 8 passes
//! `C2` as the conditioning set of the recursive call; Lemma 6 requires
//! conditioning on `A ∪ C₁`, which is what we do.

use crate::problem::{Problem, SelectConfig, Selection};
use fairsel_ci::{CiOutcome, CiTest, CiTestBatch, VarId};
use fairsel_engine::{CiQuery, CiSession, CondSet, HalvingPlanner, VarSlice};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Run GrpSel (Algorithm 2) with any CI tester. Groups are split at the
/// midpoint of the (caller-provided) feature order; pass a seed to
/// [`grpsel_in`] to randomize the initial order, which is what the
/// paper's `random_partition` amounts to after the first shuffle.
///
/// Execution routes through the engine: each recursion level becomes a
/// *frontier* of independent group queries, issued as engine batches (see
/// [`fairsel_engine::HalvingPlanner`]). The query multiset — and therefore
/// [`Selection::tests_used`] — is identical to the depth-first recursion.
pub fn grpsel<T: CiTest + ?Sized>(
    tester: &mut T,
    problem: &Problem,
    cfg: &SelectConfig,
) -> Selection {
    let mut session = CiSession::new(tester);
    grpsel_in(&mut session, problem, cfg, None)
}

/// GrpSel on the engine's reference path ([`CiSession::run_batch`]): one
/// query at a time, for any [`CiTest`]. `seed` shuffles the feature order
/// once before the recursive halving, making every split a uniform random
/// partition.
pub fn grpsel_in<T: CiTest>(
    session: &mut CiSession<T>,
    problem: &Problem,
    cfg: &SelectConfig,
    seed: Option<u64>,
) -> Selection {
    run(
        problem,
        cfg,
        seed,
        session,
        &mut |s: &mut CiSession<T>, qs| s.run_batch(qs),
    )
}

/// GrpSel on the engine's **Z-grouped scheduler**
/// ([`CiSession::run_batch_grouped`]), the production path: every
/// frontier level's unique queries are partitioned by canonical
/// conditioning set and evaluated through the tester's
/// [`fairsel_ci::CiTestBatch::eval_z_group`], so the per-`Z` scaffold
/// (stratification, design factorization) is built once per distinct set;
/// with `workers > 1` the groups become steal-able chunks on the
/// session's persistent worker pool. Outcomes are byte-identical to
/// [`grpsel_in`] at every worker count; only the execution strategy
/// changes.
pub fn grpsel_batched_in<T: CiTestBatch>(
    session: &mut CiSession<T>,
    problem: &Problem,
    cfg: &SelectConfig,
    seed: Option<u64>,
    workers: usize,
) -> Selection {
    run(
        problem,
        cfg,
        seed,
        session,
        &mut |s: &mut CiSession<T>, qs| s.run_batch_grouped(qs, workers),
    )
}

/// How a batch of frontier queries is executed against the session —
/// one query at a time or Z-grouped.
type BatchExec<'a, T> = &'a mut dyn FnMut(&mut CiSession<T>, &[CiQuery]) -> Vec<CiOutcome>;

fn run<T: CiTest>(
    problem: &Problem,
    cfg: &SelectConfig,
    seed: Option<u64>,
    session: &mut CiSession<T>,
    exec: BatchExec<'_, T>,
) -> Selection {
    let issued_before = session.stats().issued;
    let mut features = problem.features.clone();
    if let Some(seed) = seed {
        features.shuffle(&mut StdRng::seed_from_u64(seed));
    }
    let subsets = cfg.admissible_subsets(&problem.admissible);
    let mut out = Selection::default();

    // Phase 1 (Algorithm 3): a frontier of groups seeking some A' ⊆ A
    // with group ⊥ S | A'. Each (frontier level × subset) wave is one
    // engine batch; groups certified at an earlier subset drop out of
    // later waves, mirroring the sequential ∃-search's early exit. Each
    // subset is interned once for the whole phase, and every query shares
    // its group's run of the root list and one copy of S.
    session.set_phase("grpsel/phase1");
    let sensitive = VarSlice::new(&problem.sensitive);
    let mut remaining: Vec<VarId> = Vec::new();
    let mut planner = root_planner(&features, cfg);
    while !planner.is_done() {
        let verdicts =
            fairsel_engine::exists_with(planner.frontier(), &sensitive, &subsets, |qs| {
                exec(session, qs)
            });
        let step = planner.advance(&verdicts);
        for group in step.admitted {
            out.c1.extend_from_slice(&group);
        }
        remaining.extend(step.exhausted);
    }
    // Level-order traversal exhausts singletons in BFS order; the
    // depth-first recursion this mirrors emits them left to right. Phase 2
    // halves over `remaining`, so its composition must match the DFS
    // reference exactly — restore feature order before continuing.
    {
        let exhausted: std::collections::HashSet<VarId> = remaining.iter().copied().collect();
        remaining = features
            .iter()
            .copied()
            .filter(|v| exhausted.contains(v))
            .collect();
    }

    // Phase 2 (Algorithm 4): remaining groups against Y given A ∪ C₁
    // (the Lemma-6 conditioning set; see the erratum note above). The
    // whole phase shares one conditioning set, interned once, so no
    // query or key copies, sorts or hashes it again; queries share their
    // group's run and one copy of the target side.
    session.set_phase("grpsel/phase2");
    let cond = CondSet::new(&[problem.admissible.as_slice(), &out.c1].concat());
    let target = VarSlice::new(&[problem.target]);
    let mut planner = root_planner(&remaining, cfg);
    while !planner.is_done() {
        let batch: Vec<CiQuery> = planner
            .frontier()
            .iter()
            .map(|g| CiQuery {
                x: g.clone(),
                y: target.clone(),
                z: cond.clone(),
            })
            .collect();
        let outcomes = exec(session, &batch);
        let verdicts: Vec<bool> = outcomes.iter().map(|o| o.independent).collect();
        let step = planner.advance(&verdicts);
        for group in step.admitted {
            out.c2.extend_from_slice(&group);
        }
        out.rejected.extend(step.exhausted);
    }
    session.clear_phase();
    out.tests_used = session.stats().issued - issued_before;
    out
}

/// Root frontier for a phase: the single full group (Algorithm 2), or —
/// with [`SelectConfig::max_group`] set — contiguous subgroups of at most
/// that width, so finite-sample group tests never see a joint side whose
/// code space dwarfs the sample (the "wide-group power" fix). Either way
/// the groups are runs of one copy of `items`.
fn root_planner(items: &[VarId], cfg: &SelectConfig) -> HalvingPlanner {
    match cfg.max_group {
        Some(w) => HalvingPlanner::chunked(items, w),
        None => HalvingPlanner::new(items),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seqsel::fixtures::*;
    use crate::seqsel::seqsel;
    use fairsel_ci::{CountingCi, OracleCi};
    use fairsel_datasets::synthetic::{synthetic_instance, SyntheticConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn names(dag: &fairsel_graph::Dag, vars: &[usize]) -> Vec<String> {
        vars.iter()
            .map(|&v| dag.name(fairsel_graph::NodeId(v as u32)).to_owned())
            .collect()
    }

    #[test]
    fn figure_1a_matches_seqsel() {
        let (dag, problem) = figure_1a();
        let cfg = SelectConfig::default();
        let s = seqsel(&mut OracleCi::from_dag(dag.clone()), &problem, &cfg).normalized();
        let g = grpsel(&mut OracleCi::from_dag(dag), &problem, &cfg).normalized();
        assert_eq!(s.c1, g.c1);
        assert_eq!(s.c2, g.c2);
        assert_eq!(s.rejected, g.rejected);
    }

    #[test]
    fn figure_1b_all_admitted() {
        let (dag, problem) = figure_1b();
        let sel = grpsel(
            &mut OracleCi::from_dag(dag.clone()),
            &problem,
            &SelectConfig::default(),
        )
        .normalized();
        assert!(sel.rejected.is_empty(), "{:?}", names(&dag, &sel.rejected));
        let c2 = names(&dag, &sel.c2);
        assert!(
            c2.contains(&"X2".to_owned()),
            "X2 screened off from Y: {c2:?}"
        );
    }

    #[test]
    fn figure_1c_exists_search_over_groups() {
        let (dag, problem) = figure_1c();
        let sel = grpsel(
            &mut OracleCi::from_dag(dag.clone()),
            &problem,
            &SelectConfig::default(),
        )
        .normalized();
        let c1 = names(&dag, &sel.c1);
        assert!(c1.contains(&"X1".to_owned()));
        assert!(
            c1.contains(&"X3".to_owned()),
            "needs ∃A'⊆A at group level: {c1:?}"
        );
    }

    #[test]
    fn figure_6_limitation_shared_with_seqsel() {
        let (dag, problem) = figure_6();
        let sel = grpsel(
            &mut OracleCi::from_dag(dag.clone()),
            &problem,
            &SelectConfig::default(),
        )
        .normalized();
        let rejected = names(&dag, &sel.rejected);
        assert!(rejected.contains(&"X2".to_owned()));
    }

    /// SeqSel and GrpSel agree on every random fairness-structured DAG
    /// under the oracle — the soundness consequence of composition +
    /// decomposition.
    #[test]
    fn agrees_with_seqsel_on_random_dags() {
        for seed in 0..25u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let inst = synthetic_instance(
                &mut rng,
                &SyntheticConfig {
                    n_features: 14,
                    biased_fraction: 0.3,
                    ..Default::default()
                },
            );
            let problem = Problem::from_roles(&inst.roles);
            let dag = inst.dag;
            let cfg = SelectConfig::default();
            let s = seqsel(&mut OracleCi::from_dag(dag.clone()), &problem, &cfg).normalized();
            let g = grpsel(&mut OracleCi::from_dag(dag.clone()), &problem, &cfg).normalized();
            assert_eq!(s.c1, g.c1, "C1 mismatch at seed {seed}");
            assert_eq!(s.c2, g.c2, "C2 mismatch at seed {seed}");
            assert_eq!(s.rejected, g.rejected, "rejected mismatch at seed {seed}");
        }
    }

    /// The Z-grouped path on a worker pool must be byte-identical to the
    /// reference path.
    #[test]
    fn parallel_matches_sequential_grpsel() {
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let inst = synthetic_instance(
                &mut rng,
                &SyntheticConfig {
                    n_features: 40,
                    biased_fraction: 0.2,
                    ..Default::default()
                },
            );
            let problem = Problem::from_roles(&inst.roles);
            let dag = inst.dag;
            let cfg = SelectConfig::default();
            let seq = grpsel(&mut OracleCi::from_dag(dag.clone()), &problem, &cfg);
            for workers in [2usize, 4] {
                let mut session = CiSession::new(OracleCi::from_dag(dag.clone()));
                let par = grpsel_batched_in(&mut session, &problem, &cfg, None, workers);
                assert_eq!(seq.c1, par.c1, "seed {seed}, workers {workers}");
                assert_eq!(seq.c2, par.c2);
                assert_eq!(seq.rejected, par.rejected);
                assert_eq!(seq.tests_used, par.tests_used, "test counts must agree");
            }
        }
    }

    /// Shuffling the recursion order never changes the *set* outcome under
    /// an oracle tester, only the work done.
    #[test]
    fn seeded_partition_is_outcome_invariant() {
        let mut rng = StdRng::seed_from_u64(7);
        let inst = synthetic_instance(
            &mut rng,
            &SyntheticConfig {
                n_features: 20,
                biased_fraction: 0.25,
                ..Default::default()
            },
        );
        let problem = Problem::from_roles(&inst.roles);
        let dag = inst.dag;
        let cfg = SelectConfig::default();
        let base = grpsel(&mut OracleCi::from_dag(dag.clone()), &problem, &cfg).normalized();
        for seed in 0..5 {
            let mut session = CiSession::new(OracleCi::from_dag(dag.clone()));
            let shuffled = grpsel_in(&mut session, &problem, &cfg, Some(seed)).normalized();
            assert_eq!(base.c1, shuffled.c1);
            assert_eq!(base.c2, shuffled.c2);
            assert_eq!(base.rejected, shuffled.rejected);
        }
    }

    /// With few biased features GrpSel issues far fewer tests than SeqSel —
    /// the k log n vs n claim of §4.3 at a small scale.
    #[test]
    fn fewer_tests_than_seqsel_when_k_small() {
        let mut rng = StdRng::seed_from_u64(3);
        let inst = synthetic_instance(
            &mut rng,
            &SyntheticConfig {
                n_features: 64,
                biased_fraction: 0.05,
                ..Default::default()
            },
        );
        let problem = Problem::from_roles(&inst.roles);
        let dag = inst.dag;
        let cfg = SelectConfig::default();
        let mut sc = CountingCi::new(OracleCi::from_dag(dag.clone()));
        let s = seqsel(&mut sc, &problem, &cfg);
        let mut gc = CountingCi::new(OracleCi::from_dag(dag));
        let g = grpsel(&mut gc, &problem, &cfg);
        assert!(
            g.tests_used < s.tests_used,
            "grpsel {} !< seqsel {}",
            g.tests_used,
            s.tests_used
        );
    }

    #[test]
    fn partition_is_exhaustive_and_disjoint() {
        let (dag, problem) = figure_1c();
        let sel = grpsel(
            &mut OracleCi::from_dag(dag),
            &problem,
            &SelectConfig::default(),
        );
        let mut all: Vec<usize> = sel
            .c1
            .iter()
            .chain(&sel.c2)
            .chain(&sel.rejected)
            .copied()
            .collect();
        all.sort_unstable();
        let mut expected = problem.features.clone();
        expected.sort_unstable();
        assert_eq!(all, expected);
    }

    #[test]
    fn empty_feature_set_is_trivial() {
        let (dag, mut problem) = figure_1a();
        problem.features.clear();
        let sel = grpsel(
            &mut OracleCi::from_dag(dag),
            &problem,
            &SelectConfig::default(),
        );
        assert_eq!(sel.tests_used, 0);
        assert!(sel.selected().is_empty());
    }
}
