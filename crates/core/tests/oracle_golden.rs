//! Golden memo fingerprint of a fixed oracle workload.
//!
//! GrpSel, then SeqSel, run in one engine session against the
//! d-separation oracle of a seeded 200-feature synthetic instance. The
//! session's `outcomes_fingerprint` folds every memoized outcome in
//! canonical key order, so it moves if the memo's key order, its set of
//! keys, or any answer drifts. The constants were recorded with whole-key
//! hashing and exhaustive, closure-based d-separation; any faster key or
//! d-separation must reproduce them exactly.
//!
//! A second golden pins the noisy oracle on the same instance: its flips
//! are one RNG draw per `ci` call, in call order (the §5.3 spuriousness
//! model), so its selections, issued counts and flip counts move if the
//! algorithms issue a different query sequence or the wrapper draws a
//! different number of times — however the inner oracle reaches its
//! answers. Recorded before the oracle kept reachable sets.

use fairsel_ci::{NoisyOracleCi, OracleCi};
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

/// Flip probability and RNG seed of the noisy-oracle golden.
const NOISY_FLIP_PROB: f64 = 0.05;
const NOISY_SEED: u64 = 2022;

/// Per algorithm: rejected features, selected count, issued tests, flips.
type NoisyGolden = (&'static [usize], usize, u64, u64);
const GOLDEN_NOISY_GRPSEL: NoisyGolden =
    (&[17, 18, 25, 26, 33, 42, 79, 196, 198, 200], 190, 176, 9);
const GOLDEN_NOISY_SEQSEL: NoisyGolden = (
    &[
        17, 18, 25, 26, 42, 79, 92, 96, 97, 108, 119, 159, 160, 184, 185, 196, 198, 200,
    ],
    182,
    316,
    16,
);

fn instance() -> fairsel_datasets::synthetic::SyntheticInstance {
    synthetic_instance(
        &mut StdRng::seed_from_u64(2022),
        &SyntheticConfig {
            n_features: 200,
            biased_fraction: 0.1,
            ..Default::default()
        },
    )
}

#[test]
fn grpsel_then_seqsel_memo_matches_golden() {
    let inst = instance();
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

/// GrpSel and SeqSel, each on its own session over a fresh noisy oracle
/// with the same seed, reproduce their recorded selections, issued counts
/// and flips: a memo inside the oracle may change how an answer is
/// reached, never how many draws the wrapper takes.
#[test]
fn noisy_oracle_selections_match_golden() {
    let inst = instance();
    let problem = Problem::from_roles(&inst.roles);
    let cfg = SelectConfig::default();
    let noisy = || {
        let oracle = OracleCi::from_dag(inst.dag.clone());
        CiSession::new(NoisyOracleCi::new(oracle, NOISY_FLIP_PROB, NOISY_SEED))
    };
    let mut grp_session = noisy();
    let grp = grpsel_in(&mut grp_session, &problem, &cfg, None).normalized();
    let mut seq_session = noisy();
    let seq = seqsel_in(&mut seq_session, &problem, &cfg).normalized();
    let got = |sel: &fairsel_core::Selection, session: &CiSession<NoisyOracleCi>| {
        (
            sel.rejected.clone(),
            sel.selected().len(),
            sel.tests_used,
            session.tester().flips(),
        )
    };
    let want = |(rejected, selected, issued, flips): NoisyGolden| {
        (rejected.to_vec(), selected, issued, flips)
    };
    assert_eq!(
        got(&grp, &grp_session),
        want(GOLDEN_NOISY_GRPSEL),
        "GrpSel (rejected, selected, issued, flips)"
    );
    assert_eq!(
        got(&seq, &seq_session),
        want(GOLDEN_NOISY_SEQSEL),
        "SeqSel (rejected, selected, issued, flips)"
    );
}
