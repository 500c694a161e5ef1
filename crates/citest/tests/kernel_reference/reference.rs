//! The discrete testers' replaced kernels, kept as the bit-identity
//! reference: hashed counting per query over full-width joint codes, with
//! nothing memoized and no arena.
//!
//! `ReferenceGTest` encodes each side and the conditioning set with
//! `Table::joint_codes_dense` and runs `g_test_from_codes`.
//! `ReferencePermutationCmi` canonicalizes the query, derives its seed with
//! `derived_query_seed`, and shuffles `X` within each stratum of `Z`:
//! strata in first-occurrence order, rows ascending within a stratum, a
//! Fisher–Yates pass from the end with `j = rng.gen_range(0..=i)`. It
//! recounts the observed table and every replicate with `cmi_from_codes`.

use fairsel_ci::cmi::cmi_from_codes;
use fairsel_ci::gtest::g_test_from_codes;
use fairsel_ci::{
    canonical_set, canonical_sides, derived_query_seed, CiOutcome, CiTest, CiTestBatch,
    CiTestShared, VarId,
};
use fairsel_table::Table;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Full-width joint codes of a variable set.
fn codes(table: &Table, set: &[VarId]) -> Vec<u32> {
    table.joint_codes_dense(set).0
}

/// The G-test, counted per query through hashed strata.
pub struct ReferenceGTest {
    table: Table,
    alpha: f64,
}

impl ReferenceGTest {
    pub fn new(table: &Table, alpha: f64) -> Self {
        Self {
            table: table.clone(),
            alpha,
        }
    }
}

impl CiTest for ReferenceGTest {
    fn ci(&mut self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
        self.ci_shared(x, y, z)
    }

    fn n_vars(&self) -> usize {
        self.table.n_cols()
    }
}

impl CiTestShared for ReferenceGTest {
    fn ci_shared(&self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
        if x.is_empty() || y.is_empty() {
            return CiOutcome::decided(true);
        }
        let t = &self.table;
        let (g, p) = g_test_from_codes(&codes(t, x), &codes(t, y), &codes(t, &canonical_set(z)));
        CiOutcome {
            independent: p > self.alpha,
            p_value: p,
            statistic: g,
        }
    }
}

impl CiTestBatch for ReferenceGTest {}

/// The within-stratum permutation test of plug-in CMI, every statistic
/// recounted through hashed strata.
pub struct ReferencePermutationCmi {
    table: Table,
    alpha: f64,
    permutations: usize,
    seed: u64,
}

impl ReferencePermutationCmi {
    pub fn new(table: &Table, alpha: f64, permutations: usize, seed: u64) -> Self {
        Self {
            table: table.clone(),
            alpha,
            permutations,
            seed,
        }
    }
}

/// Rows of each stratum of `z`: strata in first-occurrence order, rows
/// ascending.
fn strata_rows(z: &[u32]) -> Vec<Vec<usize>> {
    let mut index: HashMap<u32, usize> = HashMap::new();
    let mut strata: Vec<Vec<usize>> = Vec::new();
    for (row, &code) in z.iter().enumerate() {
        let next = strata.len();
        let s = *index.entry(code).or_insert(next);
        if s == next {
            strata.push(Vec::new());
        }
        strata[s].push(row);
    }
    strata
}

impl CiTest for ReferencePermutationCmi {
    fn ci(&mut self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
        self.ci_shared(x, y, z)
    }

    fn n_vars(&self) -> usize {
        self.table.n_cols()
    }
}

impl CiTestShared for ReferencePermutationCmi {
    fn ci_shared(&self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
        if x.is_empty() || y.is_empty() {
            return CiOutcome::decided(true);
        }
        let (x, y) = canonical_sides(x, y);
        let zkey = canonical_set(z);
        let t = &self.table;
        let (xc, yc, zc) = (codes(t, &x), codes(t, &y), codes(t, &zkey));
        let observed = cmi_from_codes(&xc, &yc, &zc);
        let strata = strata_rows(&zc);
        let mut rng = StdRng::seed_from_u64(derived_query_seed(self.seed, &x, &y, &zkey));
        let mut xperm = xc;
        let mut at_least = 1usize; // the observed statistic counts itself
        for _ in 0..self.permutations {
            for rows in &strata {
                for i in (1..rows.len()).rev() {
                    let j = rng.gen_range(0..=i);
                    xperm.swap(rows[i], rows[j]);
                }
            }
            if cmi_from_codes(&xperm, &yc, &zc) >= observed {
                at_least += 1;
            }
        }
        let p = at_least as f64 / (self.permutations + 1) as f64;
        CiOutcome {
            independent: p > self.alpha,
            p_value: p,
            statistic: observed,
        }
    }
}

impl CiTestBatch for ReferencePermutationCmi {}
