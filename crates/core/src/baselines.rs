//! Comparison pipelines for the evaluation (§5): the trivial endpoints
//! (train on `A` only, train on everything), the paper's two selectors,
//! and the Fair-PC baseline that learns a CPDAG with the PC algorithm and
//! drops every feature that *may* descend from a sensitive attribute in
//! `G_Ā` (Theorem 1(iii) applied to the equivalence class).
//!
//! Every method that issues CI tests runs inside one engine
//! [`fairsel_engine::CiSession`], so a method's cost is reported in tests
//! *issued* (after caching) and methods sharing a session share answers —
//! e.g. Fair-PC's marginal-independence layer overlaps SeqSel's ∅-subset
//! queries.

use crate::pipeline::{PipelineConfig, ReportMemo, SelectionAlgo};
use crate::problem::Problem;
use crate::{grpsel_batched_in, seqsel_in};
use fairsel_ci::{CiTestBatch, FisherZ, GTest, OracleCi};
use fairsel_engine::{CiSession, EngineStats};
use fairsel_graph::Dag;
use fairsel_ml::FairnessReport;
use fairsel_table::{ColId, EncodedTable, Table};
use std::sync::Arc;

/// A comparison pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// Train on the admissible attributes only (the paper's "A").
    AdmissibleOnly,
    /// Train on every candidate feature (the paper's "ALL").
    All,
    /// Algorithm 1.
    SeqSel,
    /// Algorithms 2–4.
    GrpSel,
    /// PC-learned CPDAG + possible-descendant pruning.
    FairPc,
}

impl Method {
    /// All methods, in reporting order.
    pub fn all() -> [Method; 5] {
        [
            Method::AdmissibleOnly,
            Method::All,
            Method::SeqSel,
            Method::GrpSel,
            Method::FairPc,
        ]
    }

    /// Short name used in experiment logs and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            Method::AdmissibleOnly => "a-only",
            Method::All => "all",
            Method::SeqSel => "seqsel",
            Method::GrpSel => "grpsel",
            Method::FairPc => "fair-pc",
        }
    }

    /// Parse a CLI-style name.
    pub fn parse(s: &str) -> Option<Method> {
        match s {
            "a-only" | "a" => Some(Method::AdmissibleOnly),
            "all" => Some(Method::All),
            "seqsel" => Some(Method::SeqSel),
            "grpsel" => Some(Method::GrpSel),
            "fair-pc" | "fairpc" => Some(Method::FairPc),
            _ => None,
        }
    }
}

/// How to construct the CI tester a method runs against.
#[derive(Clone, Debug)]
pub enum TesterSpec {
    /// Ground-truth d-separation on a known DAG (requires `dag`).
    Oracle,
    /// Discrete G-test on the training table at significance `alpha`.
    GTest { alpha: f64 },
    /// Fisher-z partial-correlation test at significance `alpha`.
    FisherZ { alpha: f64 },
}

impl TesterSpec {
    /// The data tester a CLI `--tester` or wire `tester` name spells, at
    /// level `alpha`: the one list of tester names.
    pub fn parse(name: &str, alpha: f64) -> Result<TesterSpec, String> {
        match name {
            "gtest" => Ok(TesterSpec::GTest { alpha }),
            "fisherz" => Ok(TesterSpec::FisherZ { alpha }),
            other => Err(format!("unknown tester: {other} (gtest|fisherz)")),
        }
    }

    /// Whether this tester reads every column it tests as codes, so that
    /// a numeric feature is unreadable to it (the G-test).
    pub fn reads_codes(&self) -> bool {
        matches!(self, TesterSpec::GTest { .. })
    }

    /// One shared encoding layer for this spec's data testers (`None` for
    /// the oracle, which never touches the table). Sharing it across
    /// several `build_over` calls — as [`run_all_methods`] does — means
    /// the dataset is cloned into shared ownership once per sweep rather
    /// than once per method, and the methods amortize one encode cache.
    pub fn encoding_for(&self, train: &Table) -> Option<Arc<EncodedTable>> {
        match self {
            TesterSpec::Oracle => None,
            _ => Some(Arc::new(EncodedTable::new(train))),
        }
    }

    /// Instantiate the tester over the training table (and ground-truth
    /// DAG for [`TesterSpec::Oracle`]), reusing an existing encoding layer
    /// for the data testers (falls back to a private one when `enc` is
    /// `None`). The tester is batch-capable, so GrpSel runs on the
    /// Z-grouped scheduler.
    ///
    /// # Panics
    /// Panics when `Oracle` is requested without a DAG.
    pub fn build_over(
        &self,
        enc: Option<&Arc<EncodedTable>>,
        train: &Table,
        dag: Option<&Dag>,
    ) -> Box<dyn CiTestBatch + Send + Sync> {
        match *self {
            TesterSpec::Oracle => {
                let dag = dag.expect("TesterSpec::Oracle requires the ground-truth DAG");
                Box::new(OracleCi::from_dag(dag.clone()))
            }
            TesterSpec::GTest { alpha } => match enc {
                Some(enc) => Box::new(GTest::over(Arc::clone(enc), alpha)),
                None => Box::new(GTest::new(train, alpha)),
            },
            TesterSpec::FisherZ { alpha } => match enc {
                Some(enc) => Box::new(FisherZ::over(Arc::clone(enc), alpha)),
                None => Box::new(FisherZ::new(train, alpha)),
            },
        }
    }

    /// Short name for logs.
    pub fn name(&self) -> &'static str {
        match self {
            TesterSpec::Oracle => "oracle",
            TesterSpec::GTest { .. } => "g-test",
            TesterSpec::FisherZ { .. } => "fisher-z",
        }
    }
}

/// What one method produced.
#[derive(Clone, Debug)]
pub struct MethodOutput {
    pub method: Method,
    /// Features the method selected (excluding admissibles), ascending.
    pub selected: Vec<ColId>,
    /// Columns the classifier trained on (admissible ∪ selected).
    pub model_cols: Vec<ColId>,
    /// Test-split metrics.
    pub report: FairnessReport,
    /// CI tests actually issued (0 for the trivial endpoints).
    pub tests_used: u64,
    /// Engine telemetry (empty for the trivial endpoints).
    pub engine: EngineStats,
}

/// Maximum conditioning-set size the Fair-PC skeleton explores. Remark 3:
/// unbounded PC is exponential; bounding the depth is the standard
/// practical compromise.
pub const FAIR_PC_MAX_COND: usize = 3;

/// Run one comparison method end-to-end on a train/test split.
///
/// `cfg.classifier` / `cfg.select` apply to every method;
/// `cfg.algo` is ignored (the method determines the selector).
pub fn run_method(
    method: Method,
    spec: &TesterSpec,
    dag: Option<&Dag>,
    train: &Table,
    test: &Table,
    cfg: &PipelineConfig,
) -> MethodOutput {
    run_method_over(
        method,
        spec,
        spec.encoding_for(train).as_ref(),
        &ReportMemo::new(),
        dag,
        train,
        test,
        cfg,
    )
}

/// [`run_method`] with an explicit (possibly shared) encoding layer,
/// scoring through `memo`.
#[allow(clippy::too_many_arguments)]
fn run_method_over(
    method: Method,
    spec: &TesterSpec,
    enc: Option<&Arc<EncodedTable>>,
    memo: &ReportMemo,
    dag: Option<&Dag>,
    train: &Table,
    test: &Table,
    cfg: &PipelineConfig,
) -> MethodOutput {
    let problem = Problem::from_table(train);
    // The endpoints issue no test, so no tester is built for them.
    let (selected, engine) = match method {
        Method::AdmissibleOnly => (Vec::new(), EngineStats::default()),
        Method::All => (problem.features.clone(), EngineStats::default()),
        _ => {
            let mut session = CiSession::new(spec.build_over(enc, train, dag));
            let selected = selected_in(method, &mut session, &problem, cfg);
            (selected, session.stats().clone())
        }
    };
    let model_cols = crate::pipeline::model_columns(&problem, &selected);
    let report = memo.score(train, test, &problem, &model_cols, cfg);
    MethodOutput {
        method,
        selected,
        model_cols,
        report,
        tests_used: engine.issued,
        engine,
    }
}

/// The features `method` selects on `problem`, testing through `session`.
fn selected_in<T: CiTestBatch>(
    method: Method,
    session: &mut CiSession<T>,
    problem: &Problem,
    cfg: &PipelineConfig,
) -> Vec<ColId> {
    match method {
        Method::AdmissibleOnly => Vec::new(),
        Method::All => problem.features.clone(),
        Method::SeqSel => seqsel_in(session, problem, &cfg.select).selected(),
        Method::GrpSel => {
            let seed = match cfg.algo {
                SelectionAlgo::GrpSel { seed } => seed,
                _ => None,
            };
            grpsel_batched_in(session, problem, &cfg.select, seed, cfg.workers.max(1)).selected()
        }
        Method::FairPc => {
            session.set_phase("fair-pc");
            let mut vars: Vec<ColId> = problem.sensitive.clone();
            vars.extend(&problem.admissible);
            vars.extend(&problem.features);
            vars.push(problem.target);
            vars.sort_unstable();
            let cpdag = fairsel_discovery::pc_in(session, &vars, FAIR_PC_MAX_COND);
            session.clear_phase();
            let maybe_desc =
                cpdag.possible_descendants_avoiding(&problem.sensitive, &problem.admissible);
            problem
                .features
                .iter()
                .copied()
                .filter(|&x| !maybe_desc[x])
                .collect()
        }
    }
}

/// Run every method of [`Method::all`] on the same split with the same
/// tester spec and classifier — the Table 2 / Figure 2 sweep.
pub fn run_all_methods(
    spec: &TesterSpec,
    dag: Option<&Dag>,
    train: &Table,
    test: &Table,
    cfg: &PipelineConfig,
) -> Vec<MethodOutput> {
    // One shared encoding layer for the whole sweep: the dataset is cloned
    // into shared ownership once, and every method's tester amortizes the
    // same set-encoding cache. One report memo too: methods that select
    // the same columns share one fit.
    let enc = spec.encoding_for(train);
    let memo = ReportMemo::new();
    Method::all()
        .into_iter()
        .map(|m| run_method_over(m, spec, enc.as_ref(), &memo, dag, train, test, cfg))
        .collect()
}

/// The method sweep *inside an existing session* — the entry point the
/// server's fingerprint-sharded registry drives, so a `methods` request
/// shares the per-dataset session's CI-outcome dedup (and the Z-grouped
/// batch path) with every other request on that dataset. Selections are
/// identical to [`run_all_methods`] (outcomes are deterministic per
/// query, however they are reached); the per-method `tests_used` /
/// `engine` telemetry reports what each method cost *after* cross-method
/// and cross-request dedup — e.g. GrpSel right after SeqSel issues far
/// fewer tests than it would cold, which is the point. Every method
/// scores through `memo`, which must only ever have seen this split.
pub fn run_all_methods_in<T: CiTestBatch>(
    session: &mut CiSession<T>,
    memo: &ReportMemo,
    train: &Table,
    test: &Table,
    cfg: &PipelineConfig,
) -> Vec<MethodOutput> {
    let problem = Problem::from_table(train);
    Method::all()
        .into_iter()
        .map(|method| {
            let before = session.stats().clone();
            let selected = selected_in(method, session, &problem, cfg);
            session.refresh_encode_stats();
            let engine = session.stats().delta_since(&before);
            let model_cols = crate::pipeline::model_columns(&problem, &selected);
            let report = memo.score(train, test, &problem, &model_cols, cfg);
            MethodOutput {
                method,
                selected,
                model_cols,
                report,
                tests_used: engine.issued,
                engine,
            }
        })
        .collect()
}

/// Render the `methods` sweep as the aligned table both `fairsel methods`
/// and the session service print — one definition, so remote output stays
/// byte-identical to local output.
pub fn render_methods_report(outs: &[MethodOutput], n_features: usize) -> String {
    use std::fmt::Write as _;
    let mut s = format!(
        "{:<10} {:>9} {:>9} {:>9} {:>10} {:>10} {:>12}\n",
        "method", "selected", "tests", "issued", "accuracy", "odds-diff", "cmi"
    );
    for out in outs {
        writeln!(
            s,
            "{:<10} {:>6}/{:<2} {:>9} {:>9} {:>10.4} {:>10.4} {:>12.6}",
            out.method.name(),
            out.selected.len(),
            n_features,
            out.tests_used,
            out.engine.issued,
            out.report.accuracy,
            out.report.abs_odds_difference,
            out.report.cmi_s_pred_given_a,
        )
        .expect("string write");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsel_datasets::fixtures::figure_1a;
    use fairsel_datasets::sim::sample_table;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn splits() -> (Dag, Table, Table) {
        let f = figure_1a();
        let scm = f.scm(1.5);
        let mut rng = StdRng::seed_from_u64(21);
        let train = sample_table(&scm, &f.roles, 3000, &mut rng);
        let test = sample_table(&scm, &f.roles, 1500, &mut rng);
        (f.dag, train, test)
    }

    #[test]
    fn endpoints_bracket_selection() {
        let (dag, train, test) = splits();
        let cfg = PipelineConfig::default();
        let spec = TesterSpec::Oracle;
        let a = run_method(
            Method::AdmissibleOnly,
            &spec,
            Some(&dag),
            &train,
            &test,
            &cfg,
        );
        let all = run_method(Method::All, &spec, Some(&dag), &train, &test, &cfg);
        assert!(a.selected.is_empty());
        assert_eq!(a.tests_used, 0);
        assert_eq!(all.selected.len(), Problem::from_table(&train).n_features());
        // ALL trains on more columns than A-only.
        assert!(all.model_cols.len() > a.model_cols.len());
    }

    #[test]
    fn selectors_exclude_biased_feature_under_oracle() {
        let (dag, train, test) = splits();
        let cfg = PipelineConfig::default();
        let x2 = train.col_id("X2").unwrap();
        for method in [Method::SeqSel, Method::GrpSel] {
            let out = run_method(method, &TesterSpec::Oracle, Some(&dag), &train, &test, &cfg);
            assert!(!out.selected.contains(&x2), "{:?} kept biased X2", method);
            assert!(out.tests_used > 0);
            assert_eq!(out.engine.issued, out.tests_used);
        }
    }

    #[test]
    fn fair_pc_runs_and_reports() {
        let (dag, train, test) = splits();
        let cfg = PipelineConfig::default();
        let out = run_method(
            Method::FairPc,
            &TesterSpec::Oracle,
            Some(&dag),
            &train,
            &test,
            &cfg,
        );
        // The oracle CPDAG of Figure 1a has X2 as a possible descendant of
        // S1 in G_Ā, so Fair-PC must drop it.
        let x2 = train.col_id("X2").unwrap();
        assert!(!out.selected.contains(&x2), "Fair-PC kept biased X2");
        assert!(out.tests_used > 0);
        assert!(out.engine.phases.iter().any(|p| p.name.starts_with("pc/")));
    }

    #[test]
    fn data_testers_run_all_methods() {
        let (_, train, test) = splits();
        let cfg = PipelineConfig::default();
        let outs = run_all_methods(
            &TesterSpec::GTest { alpha: 0.01 },
            None,
            &train,
            &test,
            &cfg,
        );
        assert_eq!(outs.len(), 5);
        for out in &outs {
            assert!(
                out.report.accuracy > 0.4,
                "{:?} collapsed: {}",
                out.method,
                out.report.accuracy
            );
        }
    }

    /// A local sweep runs GrpSel on the Z-grouped scheduler at the
    /// configured worker count, and the worker count changes no rendered
    /// byte.
    #[test]
    fn local_sweep_runs_grpsel_grouped_at_any_worker_count() {
        let (_, train, test) = splits();
        let spec = TesterSpec::GTest { alpha: 0.01 };
        let n_features = Problem::from_table(&train).features.len();
        let sweep = |workers: usize| {
            let cfg = PipelineConfig {
                workers,
                ..PipelineConfig::default()
            };
            run_all_methods(&spec, None, &train, &test, &cfg)
        };
        let (one, two) = (sweep(1), sweep(2));
        let grp = two.iter().find(|o| o.method == Method::GrpSel).unwrap();
        assert!(grp.engine.grouped_batches > 0, "{:?}", grp.engine);
        assert_eq!(
            render_methods_report(&one, n_features),
            render_methods_report(&two, n_features)
        );
    }

    #[test]
    fn method_parsing_roundtrip() {
        for m in Method::all() {
            assert_eq!(Method::parse(m.name()), Some(m));
        }
        assert_eq!(Method::parse("bogus"), None);
    }
}
