//! Worked examples: the paper's Figure 1(a) story, end to end, as
//! library functions with asserted outcomes (so the examples can never
//! silently rot).

use fairsel_ci::{GTest, OracleCi};
use fairsel_core::{
    run_pipeline_batched, ClassifierKind, PipelineConfig, PipelineResult, SelectionAlgo,
};
use fairsel_datasets::fixtures::figure_1a;
use fairsel_datasets::sim::sample_table;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Figure 1(a) with the exact d-separation oracle: selection admits the
/// mediated feature `X1` and the exogenous cause `C1`, rejects the biased
/// proxy `X2`, and the engine telemetry reports every test issued.
pub fn figure_1a_oracle() -> PipelineResult {
    let fixture = figure_1a();
    let scm = fixture.scm(1.5);
    let mut rng = StdRng::seed_from_u64(1);
    let train = sample_table(&scm, &fixture.roles, 2000, &mut rng);
    let test = sample_table(&scm, &fixture.roles, 1000, &mut rng);
    let cfg = PipelineConfig::default();
    run_pipeline_batched(OracleCi::from_dag(fixture.dag.clone()), &train, &test, &cfg)
}

/// The same pipeline driven purely from sampled data with the G-test and
/// GrpSel — what `fairsel select --csv ...` runs.
pub fn figure_1a_from_data(rows: usize, seed: u64) -> PipelineResult {
    let fixture = figure_1a();
    let scm = fixture.scm(1.5);
    let mut rng = StdRng::seed_from_u64(seed);
    let train = sample_table(&scm, &fixture.roles, rows, &mut rng);
    let test = sample_table(&scm, &fixture.roles, rows / 2, &mut rng);
    let cfg = PipelineConfig {
        algo: SelectionAlgo::GrpSel { seed: Some(seed) },
        classifier: ClassifierKind::Logistic,
        ..Default::default()
    };
    run_pipeline_batched(GTest::new(&train, 0.01), &train, &test, &cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_example_rejects_biased_feature() {
        let out = figure_1a_oracle();
        assert_eq!(out.selection.rejected.len(), 1, "exactly X2 is rejected");
        assert!(out.engine.issued > 0);
        assert!(out.report.accuracy > 0.6);
    }

    #[test]
    fn data_example_matches_oracle_selection() {
        let oracle = figure_1a_oracle();
        let data = figure_1a_from_data(4000, 2);
        assert_eq!(
            oracle.model_cols, data.model_cols,
            "G-test recovers the oracle selection"
        );
    }
}
