//! The end-to-end loop behind Figures 2–3 and Table 2: causal feature
//! selection → featurization → classifier → fairness report.
//!
//! All CI queries route through one engine [`CiSession`], whose telemetry
//! (tests issued, cache hits, dedup rate, per-phase wall time) is returned
//! in [`PipelineResult::engine`] — the numbers the paper reports alongside
//! accuracy and odds difference.
//!
//! Every report is fit and scored by one function behind a
//! [`ReportMemo`]: on one train/test split, a report is a pure function
//! of the classifier, its seed and the model columns, so a memo that
//! outlives one run (the server keeps one per resident workload) fits
//! each model once.

use crate::grpsel::grpsel_batched_in;
use crate::problem::{Problem, SelectConfig, Selection, MAX_ADMISSIBLE};
use crate::seqsel::seqsel_in;
use fairsel_ci::CiTestBatch;
use fairsel_engine::{CiSession, EngineStats};
use fairsel_ml::{
    AdaBoost, Classifier, DecisionTree, FairnessReport, Featurizer, LogisticRegression, NaiveBayes,
    RandomForest,
};
use fairsel_table::{CappedCache, ColId, ColumnData, EncodeStats, Role, Table};

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
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
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
    /// Worker threads for GrpSel's Z-grouped batches (`<= 1` = inline).
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

/// Run the full pipeline with a batch-aware CI tester (`GTest`,
/// `PermutationCmi`, `FisherZ`, `OracleCi`, ...) in a fresh session: GrpSel
/// frontiers route through the Z-grouped scheduler ([`grpsel_batched_in`])
/// on `cfg.workers` workers, so each conditioning set's scaffold is built
/// once and the engine telemetry reports `encode_cache_*` counters.
/// Selections are byte-identical at every worker count.
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
/// calls, so a repeated request costs hash lookups instead of tests. The
/// returned telemetry is the session's *cumulative* stats. The model is
/// fit afresh: this is [`run_pipeline_memo_in`] with an empty memo.
pub fn run_pipeline_batched_in<T: CiTestBatch>(
    session: &mut CiSession<T>,
    train: &Table,
    test: &Table,
    cfg: &PipelineConfig,
) -> PipelineResult {
    run_pipeline_memo_in(session, &ReportMemo::new(), train, test, cfg)
}

/// Like [`run_pipeline_batched_in`], scoring through `memo`: a model
/// already fit on this split answers from the memo instead of being fit
/// again. This is the entry point the long-lived `fairsel-server`
/// registry drives — one session and one memo per (dataset fingerprint,
/// tester config), shared by every request that maps to it. `memo` must
/// only ever have seen this `train`/`test` split.
pub fn run_pipeline_memo_in<T: CiTestBatch>(
    session: &mut CiSession<T>,
    memo: &ReportMemo,
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
    train_and_score(memo, train, test, &problem, selection, engine, cfg)
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
/// split, through `memo`. Shared by the pipeline entry points.
fn train_and_score(
    memo: &ReportMemo,
    train: &Table,
    test: &Table,
    problem: &Problem,
    selection: Selection,
    engine: EngineStats,
    cfg: &PipelineConfig,
) -> PipelineResult {
    let model_cols = model_columns(problem, &selection.selected());
    let report = memo.score(train, test, problem, &model_cols, cfg);
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

/// Entries a [`ReportMemo`] holds before it evicts the least recently
/// used. A workload's distinct models are its classifiers times the
/// distinct selections its requests reach, a handful in practice.
pub const REPORT_MEMO_CAP: usize = 64;

/// What fixes a report on one split: the classifier, its seed and the
/// columns it trains on. The seed is part of the key even where the
/// caller's own key already fixes it, so the memo is correct however its
/// owner shards.
type ReportKey = (ClassifierKind, u64, Vec<ColId>);

/// A bounded memo of fairness reports for one train/test split.
///
/// A hit returns the report that the same call computed before, so a
/// memoized run renders the same bytes as a fresh one; eviction only
/// drops a report that is recomputed bit-identically. A memo belongs to
/// one split: a table with other rows (an appended child, say) needs a
/// memo of its own.
pub struct ReportMemo {
    reports: CappedCache<ReportKey, FairnessReport>,
}

impl Default for ReportMemo {
    fn default() -> Self {
        Self::new()
    }
}

impl ReportMemo {
    /// An empty memo holding at most [`REPORT_MEMO_CAP`] reports.
    pub fn new() -> Self {
        Self::with_cap(REPORT_MEMO_CAP)
    }

    /// An empty memo holding at most `cap` reports (at least one).
    pub(crate) fn with_cap(cap: usize) -> Self {
        Self {
            reports: CappedCache::new(cap),
        }
    }

    /// Cumulative hits, misses (models fit) and evictions; the other
    /// fields stay zero.
    pub fn stats(&self) -> EncodeStats {
        self.reports.stats()
    }

    /// The report of `cfg`'s classifier trained on `model_cols`: from the
    /// memo when this model was fit before, else from `score_columns`,
    /// remembered. A hit is traced as `report.memo`, in place of the
    /// featurize, train and score spans.
    pub(crate) fn score(
        &self,
        train: &Table,
        test: &Table,
        problem: &Problem,
        model_cols: &[ColId],
        cfg: &PipelineConfig,
    ) -> FairnessReport {
        let key = (cfg.classifier, cfg.model_seed, model_cols.to_vec());
        if let Some(report) = self.reports.get(&key) {
            let _sp = fairsel_obs::span_kv("report.memo", || {
                vec![
                    ("classifier", format!("{:?}", cfg.classifier)),
                    ("dims", model_cols.len().to_string()),
                ]
            });
            return report;
        }
        let report = score_columns(train, test, problem, model_cols, cfg);
        self.reports.insert(key, report)
    }
}

/// Featurize → fit → predict → fairness metrics for an explicit column
/// set. Reached only through [`ReportMemo`].
///
/// Traced as `pipeline.featurize` (design matrices for both splits),
/// `ml.train` (the fit) and `ml.score` (test predictions plus the
/// fairness report).
fn score_columns(
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

/// Reject a table whose roles no selection can run on, or with a column
/// whose kind or values the pipeline cannot read, naming that column. The
/// table needs a sensitive column, exactly one target column and at most
/// [`MAX_ADMISSIBLE`] admissible columns. The target, sensitive and
/// admissible columns must be categorical: the classifier trains on
/// target codes and the fairness report groups rows by sensitive and
/// admissible codes. So must every feature when `categorical_features` is
/// set, as the G-test reads every column it tests as codes. A numeric
/// feature must hold only finite values, and the error names the data row
/// (counted from 1) of the first that is not: a NaN or ±∞ makes every
/// Fisher-z statistic over it NaN, and a NaN statistic has no p-value.
/// Callers check a dataset before any work starts on it, and an appended
/// batch before it joins its parent.
pub fn check_column_kinds(table: &Table, categorical_features: bool) -> Result<(), String> {
    let count = |role| table.cols_with_role(role).len();
    if count(Role::Sensitive) == 0 {
        return Err("the table has no sensitive column, but selection needs one".into());
    }
    let targets = count(Role::Target);
    if targets != 1 {
        return Err(format!(
            "the table has {targets} target columns, but the classifier needs exactly one"
        ));
    }
    let admissible = count(Role::Admissible);
    if admissible > MAX_ADMISSIBLE {
        return Err(format!(
            "the table has {admissible} admissible columns, but selection enumerates the \
             subsets of at most {MAX_ADMISSIBLE}"
        ));
    }
    for col in table.columns() {
        let ColumnData::Num(values) = &col.data else {
            continue;
        };
        let reader = match col.role {
            Role::Target => "the classifier needs a categorical target",
            Role::Sensitive | Role::Admissible => {
                "the fairness report groups rows by sensitive and admissible codes"
            }
            Role::Feature if categorical_features => "the g-test reads only categorical columns",
            Role::Feature => match values.iter().position(|v| !v.is_finite()) {
                Some(row) => {
                    return Err(format!(
                        "feature column {} holds {} at data row {}, but the testers and \
                         classifiers read only finite numbers",
                        col.name,
                        values[row],
                        row + 1
                    ))
                }
                None => continue,
            },
            Role::Key => continue,
        };
        return Err(format!(
            "{} column {} is numeric, but {reader}",
            col.role, col.name
        ));
    }
    Ok(())
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

    const KINDS: [ClassifierKind; 5] = [
        ClassifierKind::Logistic,
        ClassifierKind::DecisionTree,
        ClassifierKind::RandomForest,
        ClassifierKind::AdaBoost,
        ClassifierKind::NaiveBayes,
    ];

    #[test]
    fn oracle_pipeline_selects_and_scores() {
        let (dag, train, test) = figure_1a_splits(3000, 5);
        let cfg = PipelineConfig::default();
        let out = run_pipeline_batched(OracleCi::from_dag(dag), &train, &test, &cfg);
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
        let out = run_pipeline_batched(GTest::new(&train, 0.01), &train, &test, &cfg);
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
        let seq = run_pipeline_batched(GTest::new(&train, 0.01), &train, &test, &base);
        let par_cfg = PipelineConfig { workers: 4, ..base };
        let par = run_pipeline_batched(GTest::new(&train, 0.01), &train, &test, &par_cfg);
        assert_eq!(seq.model_cols, par.model_cols);
        assert_eq!(seq.report, par.report);
        assert_eq!(seq.engine.issued, par.engine.issued);
    }

    #[test]
    fn classifier_kinds_all_run() {
        let (_, train, test) = figure_1a_splits(800, 13);
        for kind in KINDS {
            let cfg = PipelineConfig {
                classifier: kind,
                ..Default::default()
            };
            let out = run_pipeline_batched(GTest::new(&train, 0.01), &train, &test, &cfg);
            assert!(
                out.report.accuracy > 0.4,
                "{kind:?} collapsed: {}",
                out.report.accuracy
            );
        }
    }

    fn report_bits(r: &FairnessReport) -> [u64; 6] {
        [
            r.accuracy,
            r.abs_odds_difference,
            r.statistical_parity_difference,
            r.disparate_impact,
            r.equal_opportunity_difference,
            r.cmi_s_pred_given_a,
        ]
        .map(f64::to_bits)
    }

    /// Through one memo, a repeated run answers from it: the same report
    /// bits as a fresh fit, one hit per repeat, one miss per model.
    #[test]
    fn report_memo_repeats_hit_with_the_fitted_bits() {
        let (_, train, test) = figure_1a_splits(1200, 17);
        let memo = ReportMemo::new();
        let mut session = CiSession::new(GTest::new(&train, 0.01));
        for (i, classifier) in KINDS.into_iter().enumerate() {
            let cfg = PipelineConfig {
                classifier,
                algo: SelectionAlgo::GrpSel { seed: Some(2) },
                ..Default::default()
            };
            let fresh = run_pipeline_batched(GTest::new(&train, 0.01), &train, &test, &cfg);
            for round in 0..2 {
                let out = run_pipeline_memo_in(&mut session, &memo, &train, &test, &cfg);
                assert_eq!(out.model_cols, fresh.model_cols);
                assert_eq!(
                    report_bits(&out.report),
                    report_bits(&fresh.report),
                    "{classifier:?}, round {round}"
                );
            }
            let s = memo.stats();
            assert_eq!(
                (s.hits, s.misses, s.evictions),
                (i as u64 + 1, i as u64 + 1, 0)
            );
        }
    }

    /// A memo capped at two evicts at the third model, and the evicted
    /// model, asked for again, is fit again to the same bits.
    #[test]
    fn report_memo_cap_evicts_and_refits_bit_identically() {
        let (_, train, test) = figure_1a_splits(1200, 19);
        let memo = ReportMemo::with_cap(2);
        let mut session = CiSession::new(GTest::new(&train, 0.01));
        let run = |session: &mut CiSession<GTest>, classifier| {
            let cfg = PipelineConfig {
                classifier,
                ..Default::default()
            };
            run_pipeline_memo_in(session, &memo, &train, &test, &cfg).report
        };
        let first = run(&mut session, KINDS[0]);
        run(&mut session, KINDS[1]);
        assert_eq!(memo.stats().evictions, 0);
        run(&mut session, KINDS[2]);
        let s = memo.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (0, 3, 1));
        // The first model was the least recently used: it was evicted and
        // is fit again.
        let again = run(&mut session, KINDS[0]);
        assert_eq!(report_bits(&again), report_bits(&first));
        let s = memo.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (0, 4, 2));
    }

    /// A NaN or ±∞ in a numeric feature is an error naming the column and
    /// the first such row, whichever tester reads it; finite values pass.
    #[test]
    fn non_finite_numeric_features_are_named_errors() {
        let table = |bad: f64| {
            let mut x: Vec<f64> = (0..12).map(|i| i as f64 * 0.5).collect();
            x[4] = bad;
            x[9] = f64::NAN;
            Table::new(vec![
                fairsel_table::Column::cat("S", Role::Sensitive, [0, 1].repeat(6), 2),
                fairsel_table::Column::num("X1", Role::Feature, x),
                fairsel_table::Column::cat("Y", Role::Target, [1, 0, 0].repeat(4), 2),
            ])
            .unwrap()
        };
        for (bad, shown) in [
            (f64::NAN, "NaN"),
            (f64::INFINITY, "inf"),
            (f64::NEG_INFINITY, "-inf"),
        ] {
            let err = check_column_kinds(&table(bad), false).unwrap_err();
            assert!(
                err.contains(&format!("feature column X1 holds {shown} at data row 5")),
                "{err}"
            );
        }
        // Under the G-test a numeric feature is refused for its kind.
        let err = check_column_kinds(&table(f64::NAN), true).unwrap_err();
        assert!(err.contains("feature column X1 is numeric"), "{err}");
        assert!(check_column_kinds(&table(2.5).take_rows(&[0, 1, 2, 3, 4]), false).is_ok());
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
