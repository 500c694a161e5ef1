//! The discrete testers' replaced kernels, kept as the bit-identity
//! reference: hashed counting per query over full-width joint codes, with
//! nothing memoized and no arena.
//!
//! [`Strata::count`] is the hashed count the arenas replaced: strata and
//! cells in first-occurrence order, kept in insertion-ordered vectors
//! behind hash-map indexes, with `f64` counts and marginals.
//! [`g_test_from_codes`] and [`cmi_from_codes`] sum the G statistic and
//! plug-in CMI over it in that order ([`g_and_df`] is the raw G sum).
//!
//! `ReferenceGTest` encodes each side and the conditioning set with
//! `Table::joint_codes_dense` and runs `g_test_from_codes`.
//! `ReferencePermutationCmi` canonicalizes the query, derives its seed with
//! `derived_query_seed`, and shuffles `X` within each stratum of `Z`:
//! strata in first-occurrence order, rows ascending within a stratum, a
//! Fisher–Yates pass from the end with `j = rng.gen_range(0..=i)`. It
//! recounts the observed table and every replicate with `cmi_from_codes`.

use fairsel_ci::{
    canonical_set, canonical_sides, derived_query_seed, CiOutcome, CiTest, CiTestBatch,
    CiTestShared, VarId,
};
use fairsel_math::special::chi2_sf;
use fairsel_table::Table;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Counts for one stratum of the conditioning variables.
#[derive(Default)]
pub struct Stratum {
    // analyze: bounded-by distinct (x, y) cells of one stratum, capped by the joint arity
    cell_index: HashMap<(u32, u32), usize>,
    /// `(x, y) -> count`, in first-occurrence order.
    pub cells: Vec<((u32, u32), f64)>,
    /// Marginal counts per x value.
    // analyze: bounded-by distinct x values, capped by the column arity
    pub xm: HashMap<u32, f64>,
    /// Marginal counts per y value.
    // analyze: bounded-by distinct y values, capped by the column arity
    pub ym: HashMap<u32, f64>,
    /// Rows in this stratum.
    pub total: f64,
}

/// Stratified contingency counts over parallel code slices, strata in
/// first-occurrence order.
pub struct Strata {
    // analyze: bounded-by one entry per stratum of the conditioning set (joint arity)
    index: HashMap<u32, usize>,
    pub strata: Vec<Stratum>,
}

impl Strata {
    /// Count `(x, y)` pairs within each stratum of `z`.
    ///
    /// # Panics
    /// Panics when the slices disagree in length.
    pub fn count(x: &[u32], y: &[u32], z: &[u32]) -> Strata {
        let n = x.len();
        assert_eq!(n, y.len(), "contingency: length mismatch");
        assert_eq!(n, z.len(), "contingency: length mismatch");
        let mut out = Strata {
            index: HashMap::new(),
            strata: Vec::new(),
        };
        for i in 0..n {
            let si = match out.index.get(&z[i]) {
                Some(&si) => si,
                None => {
                    out.index.insert(z[i], out.strata.len());
                    out.strata.push(Stratum::default());
                    out.strata.len() - 1
                }
            };
            let s = &mut out.strata[si];
            let key = (x[i], y[i]);
            match s.cell_index.get(&key) {
                Some(&ci) => s.cells[ci].1 += 1.0,
                None => {
                    s.cell_index.insert(key, s.cells.len());
                    s.cells.push((key, 1.0));
                }
            }
            *s.xm.entry(x[i]).or_insert(0.0) += 1.0;
            *s.ym.entry(y[i]).or_insert(0.0) += 1.0;
            s.total += 1.0;
        }
        out
    }
}

/// The G statistic and p-value for `X ⊥ Y | Z` from joint codes.
pub fn g_test_from_codes(x: &[u32], y: &[u32], z: &[u32]) -> (f64, f64) {
    if x.is_empty() {
        assert!(y.is_empty() && z.is_empty(), "g_test: length mismatch");
        return (0.0, 1.0);
    }
    g_from_strata(&Strata::count(x, y, z))
}

/// The raw G sum and adaptive df from hashed contingency counts, summed
/// in their first-occurrence order.
pub fn g_and_df(strata: &Strata) -> (f64, usize) {
    let mut g = 0.0;
    let mut df = 0usize;
    for s in &strata.strata {
        for &((xv, yv), nxy) in &s.cells {
            let nx = s.xm[&xv];
            let ny = s.ym[&yv];
            // nxy > 0 by construction.
            g += 2.0 * nxy * ((nxy * s.total) / (nx * ny)).ln();
        }
        let r = s.xm.len();
        let c = s.ym.len();
        if r > 1 && c > 1 {
            df += (r - 1) * (c - 1);
        }
    }
    (g, df)
}

/// The G statistic and p-value from hashed contingency counts.
pub fn g_from_strata(strata: &Strata) -> (f64, f64) {
    let (g, df) = g_and_df(strata);
    if df == 0 {
        // No informative stratum: cannot reject independence.
        return (0.0, 1.0);
    }
    let g = g.max(0.0); // guard tiny negative from float cancellation
    (g, chi2_sf(g, df as f64))
}

/// Plug-in CMI `I(X; Y | Z)` in nats from joint codes.
pub fn cmi_from_codes(x: &[u32], y: &[u32], z: &[u32]) -> f64 {
    let n = x.len();
    if n == 0 {
        assert!(y.is_empty() && z.is_empty(), "cmi: length mismatch");
        return 0.0;
    }
    cmi_from_strata(&Strata::count(x, y, z), n)
}

/// CMI over `n` rows from hashed contingency counts, summed in their
/// first-occurrence order; tiny negatives are truncated to 0.
pub fn cmi_from_strata(strata: &Strata, n: usize) -> f64 {
    let nf = n as f64;
    let mut cmi = 0.0;
    for s in &strata.strata {
        for &((xv, yv), nxy) in &s.cells {
            let nx = s.xm[&xv];
            let ny = s.ym[&yv];
            cmi += (nxy / nf) * ((nxy * s.total) / (nx * ny)).ln();
        }
    }
    cmi.max(0.0)
}

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
