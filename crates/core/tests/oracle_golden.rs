//! Golden memo fingerprint of a fixed oracle workload.
//!
//! GrpSel, then SeqSel, run in one engine session against the
//! d-separation oracle of a seeded 200-feature synthetic instance. The
//! session's `outcomes_fingerprint` folds every memoized outcome in
//! canonical key order, so it moves if the memo's key order, its set of
//! keys, or any answer drifts. The constants were recorded with whole-key
//! hashing and exhaustive, closure-based d-separation; any faster key or
//! d-separation must reproduce them exactly.

use fairsel_ci::OracleCi;
use fairsel_core::{grpsel_in, seqsel_in, Problem, SelectConfig};
use fairsel_datasets::synthetic::{synthetic_instance, SyntheticConfig};
use fairsel_engine::CiSession;
use rand::rngs::StdRng;
use rand::SeedableRng;

const GOLDEN_FINGERPRINT: u64 = 0x312e_5627_d9dc_c885;
const GOLDEN_MEMO_LEN: usize = 505;
const GOLDEN_GRPSEL_ISSUED: u64 = 272;
const GOLDEN_SEQSEL_ISSUED: u64 = 233;
const GOLDEN_SELECTED: usize = 180;

#[test]
fn grpsel_then_seqsel_memo_matches_golden() {
    let inst = synthetic_instance(
        &mut StdRng::seed_from_u64(2022),
        &SyntheticConfig {
            n_features: 200,
            biased_fraction: 0.1,
            ..Default::default()
        },
    );
    let problem = Problem::from_roles(&inst.roles);
    let cfg = SelectConfig::default();
    let mut session = CiSession::new(OracleCi::from_dag(inst.dag.clone()));
    let grp = grpsel_in(&mut session, &problem, &cfg, None);
    let seq = seqsel_in(&mut session, &problem, &cfg);
    assert_eq!(grp.selected(), seq.selected(), "oracle selections agree");
    let got = (
        session.outcomes_fingerprint(),
        session.cache_len(),
        grp.tests_used,
        seq.tests_used,
        seq.selected().len(),
    );
    assert_eq!(
        got,
        (
            GOLDEN_FINGERPRINT,
            GOLDEN_MEMO_LEN,
            GOLDEN_GRPSEL_ISSUED,
            GOLDEN_SEQSEL_ISSUED,
            GOLDEN_SELECTED,
        ),
        "(fingerprint {:#018x}, memo, grpsel issued, seqsel issued, selected)",
        got.0
    );
}
