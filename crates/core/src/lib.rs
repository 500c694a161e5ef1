//! **Causal feature selection for algorithmic fairness** — a from-scratch
//! reproduction of Galhotra, Shanmugam, Sattigeri & Varshney (SIGMOD 2022).
//!
//! The setting: a training dataset `D = {S, A, Y}` (sensitive attributes,
//! admissible attributes, target) is about to be augmented — via data
//! integration — with candidate features `X₁..Xₙ`. Which of them can be
//! added *without making the dataset less causally fair* (Definition 1,
//! interventional fairness)? The paper answers with two algorithms that
//! need only conditional-independence tests, never the causal graph:
//!
//! * [`seqsel()`] — Algorithm 1. Phase one admits every feature `X` with
//!   `X ⊥ S | A'` for some `A' ⊆ A` (the feature carries no *new* sensitive
//!   information); phase two admits every remaining feature with
//!   `X ⊥ Y | A ∪ C₁` (it carries sensitive information but the Bayes
//!   predictor cannot use it). `O(2^|A| · n)` tests.
//! * [`grpsel()`] — Algorithms 2–4. The same two phases run on *groups* of
//!   features, recursively halving only on dependence. The graphoid
//!   decomposition/composition axioms (Lemmas 7–8) make group answers
//!   sound, giving `O(2^|A| · k log n)` tests for `k` unsafe features —
//!   and, empirically, far fewer spurious results (§5.3).
//!
//! Both selectors route every query through the execution engine
//! ([`fairsel_engine::CiSession`]): canonicalized keys, a memo cache, and
//! — for GrpSel — level-synchronous frontier batches, evaluated on the
//! Z-grouped scheduler, whose worker pool can evaluate them in parallel
//! ([`grpsel_batched_in`]; the pipelines and the method sweep run it), or
//! one query at a time for testers without batch support ([`grpsel_in`]).
//!
//! Supporting modules:
//! * [`oracle`] — the Theorem 1 ground-truth classification computed from
//!   a known causal DAG (used to validate the algorithms and to score the
//!   synthetic-recovery experiments);
//! * [`baselines`] — comparison pipelines of §5: the A / ALL endpoints,
//!   SeqSel, GrpSel, and the Fair-PC causal-discovery baseline;
//! * [`pipeline`] — feature selection → featurization → classifier →
//!   fairness report, the loop behind Figures 2-3 and Table 2, with
//!   engine telemetry attached to every run and each model's report
//!   memoized per split ([`ReportMemo`]).

pub mod baselines;
pub mod grpsel;
pub mod oracle;
pub mod pipeline;
pub mod problem;
pub mod seqsel;

pub use baselines::{
    render_methods_report, run_all_methods, run_all_methods_in, run_method, Method, MethodOutput,
    TesterSpec,
};
pub use grpsel::{grpsel, grpsel_batched_in, grpsel_in};
pub use oracle::{theorem1_classification, GroundTruth};
pub use pipeline::{
    check_column_kinds, render_pipeline_report, run_pipeline_batched, run_pipeline_batched_in,
    run_pipeline_memo_in, ClassifierKind, PipelineConfig, PipelineResult, ReportMemo,
    SelectionAlgo, REPORT_MEMO_CAP,
};
pub use problem::{Problem, SelectConfig, Selection, MAX_ADMISSIBLE};
pub use seqsel::{seqsel, seqsel_in};
