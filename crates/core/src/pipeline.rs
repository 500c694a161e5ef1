//! The end-to-end loop behind Figures 2–3 and Table 2: causal feature
//! selection → featurization → classifier → fairness report.
//!
//! All CI queries route through one engine [`CiSession`], whose telemetry
//! (tests issued, cache hits, dedup rate, per-phase wall time) is returned
//! in [`PipelineResult::engine`] — the numbers the paper reports alongside
//! accuracy and odds difference.

use crate::grpsel::{grpsel_batched_in, grpsel_in};
use crate::problem::{Problem, SelectConfig, Selection};
use crate::seqsel::seqsel_in;
use fairsel_ci::{CiTest, CiTestBatch};
use fairsel_engine::{CiSession, EngineStats};
use fairsel_ml::{
    AdaBoost, Classifier, DecisionTree, FairnessReport, Featurizer, LogisticRegression, NaiveBayes,
    RandomForest,
};
use fairsel_table::{ColId, Table};

/// Which selection algorithm the pipeline runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SelectionAlgo {
    /// Algorithm 1 — one CI chain per feature.
    SeqSel,
    /// Algorithms 2–4 — group testing with recursive halving; `seed`
    /// shuffles the initial partition (None = table column order).
    GrpSel { seed: Option<u64> },
}

/// Classifier trained on the selected features (§5.1 "Model Selection").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClassifierKind {
    Logistic,
    DecisionTree,
    RandomForest,
    AdaBoost,
    /// Table-native naive Bayes (no featurization step).
    NaiveBayes,
}

impl ClassifierKind {
    /// Parse a CLI-style name.
    pub fn parse(s: &str) -> Option<ClassifierKind> {
        match s {
            "logistic" => Some(Self::Logistic),
            "tree" => Some(Self::DecisionTree),
            "forest" => Some(Self::RandomForest),
            "adaboost" => Some(Self::AdaBoost),
            "nb" | "naive-bayes" => Some(Self::NaiveBayes),
            _ => None,
        }
    }
}

/// Pipeline configuration.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    pub select: SelectConfig,
    pub algo: SelectionAlgo,
    pub classifier: ClassifierKind,
    /// Worker threads for GrpSel's Z-grouped batches (`<= 1` = inline),
    /// read by [`run_pipeline_batched`] and [`run_pipeline_batched_in`];
    /// [`run_pipeline`] always evaluates one query at a time.
    pub workers: usize,
    /// Seed for stochastic models (random forest).
    pub model_seed: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            select: SelectConfig::default(),
            algo: SelectionAlgo::SeqSel,
            classifier: ClassifierKind::Logistic,
            workers: 1,
            model_seed: 0,
        }
    }
}

/// Everything one pipeline run produces.
#[derive(Clone, Debug)]
pub struct PipelineResult {
    /// The selection partition (C₁ / C₂ / rejected) over train columns.
    pub selection: Selection,
    /// Columns the model trained on: admissible ∪ selected, ascending.
    pub model_cols: Vec<ColId>,
    /// Test-split fairness and accuracy metrics.
    pub report: FairnessReport,
    /// Engine telemetry for the whole run.
    pub engine: EngineStats,
}

/// Run the full pipeline with any CI tester (commonly `&mut GTest`,
/// `&mut OracleCi`, ...). Sequential engine batches.
pub fn run_pipeline<T: CiTest>(
    tester: T,
    train: &Table,
    test: &Table,
    cfg: &PipelineConfig,
) -> PipelineResult {
    let problem = Problem::from_table(train);
    let mut session = CiSession::new(tester);
    let selection = match cfg.algo {
        SelectionAlgo::SeqSel => seqsel_in(&mut session, &problem, &cfg.select),
        SelectionAlgo::GrpSel { seed } => grpsel_in(&mut session, &problem, &cfg.select, seed),
    };
    let engine = session.stats().clone();
    train_and_score(train, test, &problem, selection, engine, cfg)
}

/// Like [`run_pipeline`] for batch-aware testers (`GTest`,
/// `PermutationCmi`, `FisherZ`, `OracleCi`): GrpSel frontiers route
/// through the Z-grouped scheduler ([`grpsel_batched_in`]) on
/// `cfg.workers` workers, so each conditioning set's scaffold is built
/// once and the engine telemetry reports `encode_cache_*` counters.
/// Selections are byte-identical to [`run_pipeline`].
pub fn run_pipeline_batched<T: CiTestBatch>(
    tester: T,
    train: &Table,
    test: &Table,
    cfg: &PipelineConfig,
) -> PipelineResult {
    let mut session = CiSession::new(tester);
    run_pipeline_batched_in(&mut session, train, test, cfg)
}

/// Like [`run_pipeline_batched`] but running inside an *existing* session:
/// memoized CI outcomes (and the tester's encoding caches) survive across
/// calls, so a repeated request costs hash lookups instead of tests. This
/// is the entry point the long-lived `fairsel-server` session registry
/// drives — one session per (dataset fingerprint, tester config), shared
/// by every request that maps to it. The returned telemetry is the
/// session's *cumulative* stats.
pub fn run_pipeline_batched_in<T: CiTestBatch>(
    session: &mut CiSession<T>,
    train: &Table,
    test: &Table,
    cfg: &PipelineConfig,
) -> PipelineResult {
    let problem = Problem::from_table(train);
    let selection = match cfg.algo {
        SelectionAlgo::SeqSel => seqsel_in(session, &problem, &cfg.select),
        SelectionAlgo::GrpSel { seed } => {
            grpsel_batched_in(session, &problem, &cfg.select, seed, cfg.workers.max(1))
        }
    };
    // SeqSel routes per-query, which doesn't sync the tester's
    // encode-cache counters; refresh so the telemetry is honest either way.
    session.refresh_encode_stats();
    let engine = session.stats().clone();
    train_and_score(train, test, &problem, selection, engine, cfg)
}

/// Render the *deterministic* part of a pipeline run — the selection
/// partition and the fairness report — exactly as `fairsel select` prints
/// it. Shared by the CLI and the session service so a remote request's
/// body is byte-identical to a local run (engine telemetry, which carries
/// wall times, is deliberately excluded).
pub fn render_pipeline_report(
    out: &PipelineResult,
    train: &Table,
    cfg: &PipelineConfig,
    test_rows: usize,
) -> String {
    use std::fmt::Write as _;
    let names =
        |ids: &[ColId]| -> Vec<String> { ids.iter().map(|&c| train.col(c).name.clone()).collect() };
    let mut s = String::new();
    writeln!(s, "== selection ({:?}) ==", cfg.algo).unwrap();
    writeln!(
        s,
        "c1 (no new sensitive info): {:?}",
        names(&out.selection.c1)
    )
    .unwrap();
    writeln!(
        s,
        "c2 (screened from target):  {:?}",
        names(&out.selection.c2)
    )
    .unwrap();
    writeln!(
        s,
        "rejected:                   {:?}",
        names(&out.selection.rejected)
    )
    .unwrap();
    writeln!(
        s,
        "model columns:              {:?}",
        names(&out.model_cols)
    )
    .unwrap();
    writeln!(s).unwrap();
    writeln!(
        s,
        "== fairness report ({:?}, test split n={test_rows}) ==",
        cfg.classifier
    )
    .unwrap();
    let r = &out.report;
    writeln!(s, "accuracy                    {:.4}", r.accuracy).unwrap();
    writeln!(
        s,
        "abs odds difference         {:.4}",
        r.abs_odds_difference
    )
    .unwrap();
    writeln!(
        s,
        "statistical parity diff     {:.4}",
        r.statistical_parity_difference
    )
    .unwrap();
    writeln!(s, "disparate impact            {:.4}", r.disparate_impact).unwrap();
    writeln!(
        s,
        "equal opportunity diff      {:.4}",
        r.equal_opportunity_difference
    )
    .unwrap();
    writeln!(s, "CMI(S; Yhat | A)            {:.6}", r.cmi_s_pred_given_a).unwrap();
    s
}

/// Train the configured classifier on `A ∪ C₁ ∪ C₂` and score the test
/// split. Shared by the pipeline entry points and the baselines module.
pub(crate) fn train_and_score(
    train: &Table,
    test: &Table,
    problem: &Problem,
    selection: Selection,
    engine: EngineStats,
    cfg: &PipelineConfig,
) -> PipelineResult {
    let model_cols = model_columns(problem, &selection.selected());
    let report = score_columns(train, test, problem, &model_cols, cfg);
    PipelineResult {
        selection,
        model_cols,
        report,
        engine,
    }
}

/// The columns a model trains on: admissible ∪ selected, ascending and
/// deduplicated. The single definition shared by the pipeline and every
/// baseline method.
pub(crate) fn model_columns(problem: &Problem, selected: &[ColId]) -> Vec<ColId> {
    let mut model_cols: Vec<ColId> = problem.admissible.clone();
    model_cols.extend(selected);
    model_cols.sort_unstable();
    model_cols.dedup();
    model_cols
}

/// Featurize → fit → predict → fairness metrics for an explicit column
/// set (also used directly by the ALL / A-only baselines).
///
/// Traced as `pipeline.featurize` (design matrices for both splits),
/// `ml.train` (the fit) and `ml.score` (test predictions plus the
/// fairness report).
pub(crate) fn score_columns(
    train: &Table,
    test: &Table,
    problem: &Problem,
    model_cols: &[ColId],
    cfg: &PipelineConfig,
) -> FairnessReport {
    let y_train = target_codes(train, problem.target);
    let y_test = target_codes(test, problem.target);
    let train_span = |model: &'static str, dims: usize| {
        fairsel_obs::span_kv("ml.train", move || {
            vec![
                ("model", model.into()),
                ("rows", train.n_rows().to_string()),
                ("dims", dims.to_string()),
            ]
        })
    };
    let score_span;
    let y_pred = if cfg.classifier == ClassifierKind::NaiveBayes {
        let mut nb = NaiveBayes::new(model_cols.to_vec());
        {
            let _sp = train_span(nb.name(), model_cols.len());
            nb.fit_table(train, &y_train);
        }
        score_span = fairsel_obs::span("ml.score");
        nb.predict_table(test)
    } else if model_cols.is_empty() {
        // No usable features: predict the training majority class.
        score_span = fairsel_obs::span("ml.score");
        let ones = y_train.iter().filter(|&&v| v == 1).count() * 2;
        vec![u32::from(ones > y_train.len()); test.n_rows()]
    } else {
        let (x_train, x_test) = {
            let _sp = fairsel_obs::span("pipeline.featurize");
            let featurizer = Featurizer::fit(train, model_cols);
            (featurizer.transform(train), featurizer.transform(test))
        };
        let mut model: Box<dyn Classifier> = match cfg.classifier {
            ClassifierKind::Logistic => Box::new(LogisticRegression::default_model()),
            ClassifierKind::DecisionTree => Box::new(DecisionTree::new(Default::default())),
            ClassifierKind::RandomForest => Box::new(RandomForest::default_model(cfg.model_seed)),
            ClassifierKind::AdaBoost => Box::new(AdaBoost::default_model()),
            ClassifierKind::NaiveBayes => unreachable!("handled above"),
        };
        {
            let _sp = train_span(model.name(), x_train.cols());
            model.fit(&x_train, &y_train, None);
        }
        score_span = fairsel_obs::span("ml.score");
        model.predict(&x_test)
    };
    let (s_codes, _) = test.joint_codes(&problem.sensitive);
    let (a_codes, _) = test.joint_codes(&problem.admissible);
    let report = FairnessReport::compute(&y_test, &y_pred, &s_codes, &a_codes);
    drop(score_span);
    report
}

fn target_codes(table: &Table, target: ColId) -> Vec<u32> {
    table
        .col(target)
        .codes()
        .expect("pipeline: target column must be categorical")
        .to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsel_ci::{GTest, OracleCi};
    use fairsel_datasets::fixtures::figure_1a;
    use fairsel_datasets::sim::sample_table;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn figure_1a_splits(n: usize, seed: u64) -> (fairsel_graph::Dag, Table, Table) {
        let f = figure_1a();
        let scm = f.scm(1.5);
        let mut rng = StdRng::seed_from_u64(seed);
        let train = sample_table(&scm, &f.roles, n, &mut rng);
        let test = sample_table(&scm, &f.roles, n / 2, &mut rng);
        (f.dag, train, test)
    }

    #[test]
    fn oracle_pipeline_selects_and_scores() {
        let (dag, train, test) = figure_1a_splits(3000, 5);
        let cfg = PipelineConfig::default();
        let out = run_pipeline(&mut OracleCi::from_dag(dag), &train, &test, &cfg);
        // X2 (the biased feature) must not be among the model columns.
        let x2 = train.col_id("X2").unwrap();
        assert!(
            !out.model_cols.contains(&x2),
            "biased X2 leaked into the model"
        );
        // The admissible column is always present.
        let a1 = train.col_id("A1").unwrap();
        assert!(out.model_cols.contains(&a1));
        assert!(out.report.accuracy > 0.5, "model should beat chance");
        assert!(out.engine.issued > 0);
        assert_eq!(out.engine.issued, out.selection.tests_used);
    }

    #[test]
    fn data_pipeline_runs_with_gtest() {
        let (_, train, test) = figure_1a_splits(4000, 9);
        let cfg = PipelineConfig {
            algo: SelectionAlgo::GrpSel { seed: Some(1) },
            ..Default::default()
        };
        let out = run_pipeline(&mut GTest::new(&train, 0.01), &train, &test, &cfg);
        assert!(out.report.accuracy > 0.5);
        assert!(!out.model_cols.is_empty());
    }

    #[test]
    fn parallel_pipeline_matches_sequential() {
        let (_, train, test) = figure_1a_splits(3000, 11);
        let base = PipelineConfig {
            algo: SelectionAlgo::GrpSel { seed: Some(3) },
            ..Default::default()
        };
        let seq = run_pipeline(&mut GTest::new(&train, 0.01), &train, &test, &base);
        let par_cfg = PipelineConfig { workers: 4, ..base };
        let par = run_pipeline_batched(GTest::new(&train, 0.01), &train, &test, &par_cfg);
        assert_eq!(seq.model_cols, par.model_cols);
        assert_eq!(seq.report, par.report);
        assert_eq!(seq.engine.issued, par.engine.issued);
    }

    #[test]
    fn classifier_kinds_all_run() {
        let (_, train, test) = figure_1a_splits(800, 13);
        for kind in [
            ClassifierKind::Logistic,
            ClassifierKind::DecisionTree,
            ClassifierKind::RandomForest,
            ClassifierKind::AdaBoost,
            ClassifierKind::NaiveBayes,
        ] {
            let cfg = PipelineConfig {
                classifier: kind,
                ..Default::default()
            };
            let out = run_pipeline(&mut GTest::new(&train, 0.01), &train, &test, &cfg);
            assert!(
                out.report.accuracy > 0.4,
                "{kind:?} collapsed: {}",
                out.report.accuracy
            );
        }
    }

    #[test]
    fn classifier_kind_parsing() {
        assert_eq!(
            ClassifierKind::parse("logistic"),
            Some(ClassifierKind::Logistic)
        );
        assert_eq!(
            ClassifierKind::parse("forest"),
            Some(ClassifierKind::RandomForest)
        );
        assert_eq!(ClassifierKind::parse("nope"), None);
    }
}
