//! Conditional mutual information: the plug-in estimator (used for the
//! fairness audit in Table 2, `CMI(S; Y′ | A)`) and a permutation CI test
//! built on it.
//!
//! Lemma 2 of the paper: `I(Y′; S | A) = 0` is a *sufficient* condition for
//! causal fairness, so the audit metric the paper reports is exactly this
//! estimator. Slightly negative plug-in estimates are truncated to 0
//! following Mukherjee et al. \[39\], as footnote 3 of the paper prescribes.

use crate::contingency::{
    arity, cmi_stat, Arenas, DiscreteState, Scaffold, StratumRows, ZPartition,
};
use crate::{CiOutcome, CiQueryRef, CiTest, CiTestBatch, CiTestShared, VarId};
use fairsel_table::{with_codes, CodeValue, EncodedTable, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Plug-in conditional mutual information `I(X; Y | Z)` in nats from joint
/// codes. Equals `G / (2n)` for the same contingency tables. The count is
/// the testers' own — strata in first-occurrence order of `z`, cells in
/// first-occurrence row order within each, in the dense or sparse arena by
/// the cell space — so the value is a deterministic function of the codes.
pub fn cmi_from_codes(x: &[u32], y: &[u32], z: &[u32]) -> f64 {
    let size = |c: &[u32]| c.iter().max().map_or(1, |&m| m as usize + 1);
    let part = ZPartition::from_codes(z);
    let rows = StratumRows::from_partition(&part);
    let mut arenas = Arenas::default();
    arenas.fill(x, size(x), y, size(y), &(part, rows));
    cmi_stat(&mut arenas, x.len())
}

/// Permutation CI test: the null distribution of the CMI statistic is
/// produced by permuting `X` *within each stratum of Z*, which preserves
/// both marginals `P(X|Z)` and `P(Y|Z)` while destroying any conditional
/// association. Assumption-free but `B`× the cost of one statistic.
///
/// Randomness is drawn from a stream *derived per query* (base seed mixed
/// with the canonicalized query), not from one mutable stream: any two
/// evaluations of the same query — sequential, batched, across worker
/// threads, in any order — consume identical randomness and return
/// byte-identical outcomes. That is what makes this tester
/// [`crate::CiTestShared`]/[`crate::CiTestBatch`]-capable despite being a
/// permutation test (the ROADMAP's "per-worker RNG streams keyed by
/// canonical query").
///
/// Every query is evaluated as part of a Z-group (a single query is a
/// group of one): the observed statistic and all `B` replicates count
/// against the group's memoized stratification in one set of arenas. The
/// observed-data table is retained, so an extension over appended rows
/// ([`PermutationCmi::extended_from`]) patches it with the batch; the
/// replicates always recount, since their tables depend on the permuted
/// codes.
pub struct PermutationCmi {
    state: DiscreteState,
    alpha: f64,
    permutations: usize,
    seed: u64,
}

impl PermutationCmi {
    /// `permutations` controls null resolution (p-values are quantized to
    /// `1/(B+1)`); 99–499 is typical.
    pub fn new(table: &Table, alpha: f64, permutations: usize, seed: u64) -> Self {
        Self::over(
            Arc::new(EncodedTable::new(table)),
            alpha,
            permutations,
            seed,
        )
    }

    /// Build over a shared encoding layer (see [`crate::GTest::over`]).
    pub fn over(enc: Arc<EncodedTable>, alpha: f64, permutations: usize, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&alpha) && alpha > 0.0, "alpha in (0,1)");
        assert!(permutations > 0, "need at least one permutation");
        Self {
            state: DiscreteState::over(enc),
            alpha,
            permutations,
            seed,
        }
    }

    /// Build a tester over an extended (appended-to) dataset, carrying the
    /// parent's memoized conditioning scaffolds forward: each resident
    /// stratification and its CSR row layout are extended over the
    /// appended rows (`extend_scaffold`) — deterministic, so every
    /// transferred scaffold is bit-identical to what a cold tester on the
    /// concatenated table would derive — and every retained observed-data
    /// table is patched with the appended rows. Test configuration (alpha,
    /// permutation count, base seed) is inherited; evaluation telemetry
    /// starts fresh, matching a cold run's counters.
    pub fn extended_from(parent: &PermutationCmi, enc: Arc<EncodedTable>) -> PermutationCmi {
        PermutationCmi {
            state: DiscreteState::extended_from(&parent.state, enc),
            ..*parent
        }
    }

    /// The shared encoding layer.
    pub fn encoded(&self) -> &Arc<EncodedTable> {
        &self.state.enc
    }

    /// Queries short-circuited on all-singleton conditioning strata.
    pub fn degenerate_short_circuits(&self) -> u64 {
        self.state.degenerate()
    }

    /// One query against its group's scaffold. `x`/`y` arrive in caller
    /// spelling and are canonicalized here, so the derived RNG stream
    /// matches every other spelling, including the symmetric swap; `zkey`
    /// is the canonical conditioning set. The observed table is retained
    /// before the replicates refill the arenas.
    fn eval(
        &self,
        x: &[VarId],
        y: &[VarId],
        zkey: &[VarId],
        sc: &Scaffold,
        arenas: &mut Arenas,
    ) -> CiOutcome {
        let (x, y) = crate::canonical_sides(x, y);
        let (xe, ye) = (self.state.enc.encode(&x), self.state.enc.encode(&y));
        let seed = crate::derived_query_seed(self.seed, &x, &y, zkey);
        with_codes!(&xe.codes, |xc| with_codes!(&ye.codes, |yc| {
            let (xa, ya) = (arity(&xe), arity(&ye));
            let dense = arenas.fill(xc, xa, yc, ya, sc);
            let observed = cmi_stat(arenas, xc.len());
            if let Some(cells) = dense {
                self.state.dense_counted(cells);
                self.state.retain(&x, &y, zkey, &arenas.dense);
            }
            self.against_null(observed, xc, xa, yc, ya, sc, seed, arenas)
        }))
    }

    /// The outcome of `observed` against the permutation null: run the `B`
    /// within-strata replicates and count those whose statistic is
    /// `>= observed` (the observed statistic counts itself). The replicate
    /// stream — randomness, counting arithmetic, comparisons — depends
    /// only on `(seed, codes, scaffold)`, never on *how* `observed` was
    /// produced, so the cold path and the append-patched path (observed
    /// from a patched table's walk) consume identical randomness and
    /// return identical bits.
    #[allow(clippy::too_many_arguments)]
    fn against_null<X: CodeValue, Y: CodeValue>(
        &self,
        observed: f64,
        xcodes: &[X],
        xa: usize,
        ycodes: &[Y],
        ya: usize,
        sc: &Scaffold,
        seed: u64,
        arenas: &mut Arenas,
    ) -> CiOutcome {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xperm: Vec<X> = xcodes.to_vec();
        let mut at_least = 1usize; // the observed statistic counts itself
        let mut cells = 0usize;
        for _ in 0..self.permutations {
            shuffle_within_strata(&mut xperm, &sc.1, &mut rng);
            cells += arenas.fill(&xperm, xa, ycodes, ya, sc).unwrap_or(0);
            if cmi_stat(arenas, xperm.len()) >= observed {
                at_least += 1;
            }
        }
        self.state.dense_counted(cells);
        let p = at_least as f64 / (self.permutations + 1) as f64;
        CiOutcome {
            independent: p > self.alpha,
            p_value: p,
            statistic: observed,
        }
    }
}

/// Fisher-Yates within each stratum, strata in first-occurrence order,
/// rows ascending — the CSR layout reproduces the old per-stratum row
/// lists exactly, so the same randomness is consumed in the same order
/// regardless of code width.
fn shuffle_within_strata<T: Copy>(xperm: &mut [T], rows: &StratumRows, rng: &mut StdRng) {
    for s in 0..rows.n_strata() {
        let stratum = rows.stratum(s);
        for i in (1..stratum.len()).rev() {
            let j = rng.gen_range(0..=i);
            xperm.swap(stratum[i] as usize, stratum[j] as usize);
        }
    }
}

impl CiTest for PermutationCmi {
    fn ci(&mut self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
        self.ci_shared(x, y, z)
    }

    fn n_vars(&self) -> usize {
        self.state.enc.table().n_cols()
    }

    fn name(&self) -> &'static str {
        "perm-cmi"
    }
}

impl CiTestShared for PermutationCmi {
    /// A Z-group of one.
    fn ci_shared(&self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
        self.eval_z_group(&crate::canonical_set(z), &[CiQueryRef { x, y, z }])[0]
    }
}

impl CiTestBatch for PermutationCmi {
    /// Z-grouped evaluation: one stratification (and one row-list layout)
    /// for the whole group, shared by every query's `B + 1` statistic
    /// computations.
    fn eval_z_group(&self, z: &[VarId], queries: &[CiQueryRef<'_>]) -> Vec<CiOutcome> {
        self.state.eval_group(z, queries, |q, zkey, sc, arenas| {
            self.eval(q.x, q.y, zkey, sc, arenas)
        })
    }

    fn encode_cache_stats(&self) -> crate::EncodeStats {
        self.state.encode_cache_stats()
    }

    fn extend_over(&self, child: Arc<EncodedTable>) -> Option<Box<dyn CiTestBatch + Send + Sync>> {
        Some(Box::new(PermutationCmi::extended_from(self, child)))
    }

    fn scaffold_stats(&self) -> crate::ScaffoldStats {
        self.state.scaffold_stats()
    }

    /// Answer a memoized query from its retained-and-patched observed
    /// table: the observed statistic is one walk over the already-patched
    /// counts (O(batch) counting happened at extension); the `B`
    /// permutation replicates re-run against the extended scaffold with
    /// the query's derived seed — the identical randomness and arithmetic
    /// a cold evaluation consumes, so every output bit matches. `None`
    /// routes the query to the invalidate path.
    fn patched_outcome(&self, x: &[VarId], y: &[VarId], z: &[VarId]) -> Option<CiOutcome> {
        let ((x, y, zkey), t) = match self.state.retained(x, y, z) {
            Ok(found) => found,
            Err(answer) => return answer,
        };
        let sc = self.state.resident_scaffold(&zkey)?;
        let (xe, ye) = (self.state.enc.encode(&x), self.state.enc.encode(&y));
        let seed = crate::derived_query_seed(self.seed, &x, &y, &zkey);
        let observed = cmi_stat(&mut &*t, t.n_rows);
        let (xa, ya) = (t.table.xa, t.table.ya);
        let mut arenas = Arenas::default();
        Some(with_codes!(&xe.codes, |xc| with_codes!(&ye.codes, |yc| {
            self.against_null(observed, xc, xa, yc, ya, &sc, seed, &mut arenas)
        })))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel_reference::ReferencePermutationCmi;
    use fairsel_math::assert_close;
    use fairsel_table::{Column, Role};

    #[test]
    fn cmi_of_identical_binary_is_entropy() {
        // X == Y uniform binary: I(X;Y) = H(X) = ln 2.
        let codes: Vec<u32> = (0..1000).map(|i| (i % 2) as u32).collect();
        let z = vec![0u32; 1000];
        let cmi = cmi_from_codes(&codes, &codes, &z);
        assert_close!(cmi, std::f64::consts::LN_2, 1e-9);
    }

    #[test]
    fn cmi_of_independent_is_near_zero() {
        // Deterministic interleaving that makes X and Y exactly independent.
        let x: Vec<u32> = (0..1000).map(|i| ((i / 2) % 2) as u32).collect();
        let y: Vec<u32> = (0..1000).map(|i| (i % 2) as u32).collect();
        let z = vec![0u32; 1000];
        assert_close!(cmi_from_codes(&x, &y, &z), 0.0, 1e-9);
    }

    #[test]
    fn cmi_never_negative() {
        let x = vec![0, 1, 0, 1, 1, 0];
        let y = vec![1, 0, 1, 1, 0, 0];
        let z = vec![0, 0, 1, 1, 2, 2];
        assert!(cmi_from_codes(&x, &y, &z) >= 0.0);
    }

    #[test]
    fn conditioning_on_mediator_removes_information() {
        // X -> Z -> Y deterministic: I(X;Y|Z) = 0 but I(X;Y) = ln 2.
        let x: Vec<u32> = (0..2000).map(|i| (i % 2) as u32).collect();
        let z = x.clone();
        let y = z.clone();
        let zeros = vec![0u32; 2000];
        assert_close!(cmi_from_codes(&x, &y, &zeros), std::f64::consts::LN_2, 1e-9);
        assert_close!(cmi_from_codes(&x, &y, &z), 0.0, 1e-9);
    }

    fn xor_table(n: usize) -> Table {
        // y = x1 XOR x2 with uniform inputs: pairwise independent, jointly
        // dependent — the case marginal tests miss but group tests catch.
        let mut x1 = Vec::with_capacity(n);
        let mut x2 = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..n {
            let a: u32 = rng.gen_range(0..2);
            let b: u32 = rng.gen_range(0..2);
            x1.push(a);
            x2.push(b);
            y.push(a ^ b);
        }
        Table::new(vec![
            Column::cat("x1", Role::Feature, x1, 2),
            Column::cat("x2", Role::Feature, x2, 2),
            Column::cat("y", Role::Target, y, 2),
        ])
        .unwrap()
    }

    #[test]
    fn permutation_test_detects_xor_jointly() {
        let t = xor_table(1500);
        let mut tester = PermutationCmi::new(&t, 0.05, 99, 7);
        // Marginal: x1 ⊥ y.
        assert!(tester.ci(&[0], &[2], &[]).independent);
        // Joint: {x1, x2} ̸⊥ y.
        assert!(!tester.ci(&[0, 1], &[2], &[]).independent);
        // Conditional: x1 ̸⊥ y | x2.
        assert!(!tester.ci(&[0], &[2], &[1]).independent);
    }

    #[test]
    fn permutation_pvalue_reasonable_under_null() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(21);
        let n = 400;
        let a: Vec<u32> = (0..n).map(|_| rng.gen_range(0..2)).collect();
        let b: Vec<u32> = (0..n).map(|_| rng.gen_range(0..2)).collect();
        let t = Table::new(vec![
            Column::cat("a", Role::Feature, a, 2),
            Column::cat("b", Role::Feature, b, 2),
        ])
        .unwrap();
        let mut tester = PermutationCmi::new(&t, 0.05, 199, 3);
        let out = tester.ci(&[0], &[1], &[]);
        assert!(out.p_value > 0.05, "independent data should not reject");
    }

    /// The arena kernels agree bit for bit with the hashed reference that
    /// recounts every replicate (`tests/kernel_reference/reference.rs`).
    #[test]
    fn kernel_modes_agree_bit_for_bit() {
        use crate::CiTestShared;
        let t = xor_table(800);
        let narrow = PermutationCmi::new(&t, 0.05, 49, 7);
        let reference = ReferencePermutationCmi::new(&t, 0.05, 49, 7);
        for (x, y, z) in [
            (vec![0], vec![2], vec![]),
            (vec![0, 1], vec![2], vec![]),
            (vec![0], vec![2], vec![1]),
            (vec![1], vec![0], vec![2]),
        ] {
            let a = narrow.ci_shared(&x, &y, &z);
            let b = reference.ci_shared(&x, &y, &z);
            assert_eq!(
                a.p_value.to_bits(),
                b.p_value.to_bits(),
                "{x:?} {y:?} {z:?}"
            );
            assert_eq!(
                a.statistic.to_bits(),
                b.statistic.to_bits(),
                "{x:?} {y:?} {z:?}"
            );
            assert_eq!(a.independent, b.independent);
        }
        use crate::CiTestBatch;
        assert!(narrow.encode_cache_stats().dense_count_cells > 0);
    }

    /// A conditioning set that leaves most strata with one row misses the
    /// dense budget, so the narrow path counts the observed statistic and
    /// every replicate on the sparse arena. Statistic and p-value must
    /// match the hashed reference bit for bit.
    #[test]
    fn sparse_shaped_kernel_modes_agree_bit_for_bit() {
        use crate::contingency::{dense_cell_space, ZPartition};
        use crate::{CiTestBatch, CiTestShared};
        use rand::Rng;
        let n = 600;
        let mut rng = StdRng::seed_from_u64(5);
        let x: Vec<u32> = (0..n).map(|_| rng.gen_range(0..16)).collect();
        let w: Vec<u32> = (0..n).map(|_| rng.gen_range(0..3)).collect();
        let z: Vec<u32> = (0..n).map(|_| rng.gen_range(0..900)).collect();
        let y: Vec<u32> = (0..n)
            .map(|i| (x[i] + z[i] + u32::from(rng.gen_bool(0.2))) % 2)
            .collect();
        let t = Table::new(vec![
            Column::cat("x", Role::Feature, x, 16),
            Column::cat("y", Role::Target, y, 2),
            Column::cat("z", Role::Feature, z, 900),
            Column::cat("w", Role::Feature, w, 3),
        ])
        .unwrap();
        let narrow = PermutationCmi::new(&t, 0.05, 49, 7);
        let reference = ReferencePermutationCmi::new(&t, 0.05, 49, 7);
        let part = ZPartition::from_encoding(&narrow.encoded().encode(&[2]));
        let ones = part.sizes.iter().filter(|&&s| s == 1).count();
        assert!(
            ones * 2 > part.n_strata,
            "{ones} of {} strata",
            part.n_strata
        );
        assert!(dense_cell_space(n, part.n_strata, 16, 2).is_none());
        for (x, y, z) in [
            (vec![0], vec![1], vec![2]),
            (vec![1], vec![0], vec![2]),
            (vec![0, 3], vec![1], vec![2]),
        ] {
            let a = narrow.ci_shared(&x, &y, &z);
            let b = reference.ci_shared(&x, &y, &z);
            assert_eq!(
                a.statistic.to_bits(),
                b.statistic.to_bits(),
                "{x:?} {y:?} {z:?}"
            );
            assert_eq!(
                a.p_value.to_bits(),
                b.p_value.to_bits(),
                "{x:?} {y:?} {z:?}"
            );
            assert!(a.statistic > 0.0, "{x:?} {y:?} {z:?}");
        }
        assert_eq!(
            narrow.encode_cache_stats().dense_count_cells,
            0,
            "the sparse arena served every count"
        );
    }

    /// A tester extended over appended rows consumes the same derived
    /// randomness and returns bit-identical outcomes to a cold tester on
    /// the concatenated table, with the scaffold ledger conserved.
    #[test]
    fn extended_tester_matches_cold_and_conserves_scaffolds() {
        use crate::{CiTestBatch, CiTestShared};
        let parent_t = xor_table(700);
        let batch = xor_table(300);
        let parent = PermutationCmi::new(&parent_t, 0.05, 29, 7);
        let warm: [(Vec<usize>, Vec<usize>, Vec<usize>); 2] =
            [(vec![0], vec![2], vec![]), (vec![0], vec![2], vec![1])];
        for (x, y, z) in &warm {
            parent.ci_shared(x, y, z);
        }
        let child_enc = Arc::new(parent.encoded().extend(&batch).unwrap());
        let ext = PermutationCmi::extended_from(&parent, child_enc);
        let birth = ext.scaffold_stats();
        assert_eq!(birth.extended, 2);
        assert_eq!(birth.rebuilt, 0);
        assert!(birth.conserved(), "{birth:?}");

        let concat = parent_t.concat(&batch).unwrap();
        let cold = PermutationCmi::new(&concat, 0.05, 29, 7);
        // Every warmed query's observed table was retained and patched at
        // extension; its patched outcome — one table walk plus the
        // replicate stream — is bit-identical to the cold evaluation.
        assert_eq!(birth.suff_tables, 2, "{birth:?}");
        assert!(ext.patched_outcome(&[1], &[2], &[0]).is_none());
        for (x, y, z) in &warm {
            let got = ext.patched_outcome(x, y, z).expect("patched table answers");
            let want = cold.ci_shared(x, y, z);
            assert_eq!(got.statistic.to_bits(), want.statistic.to_bits());
            assert_eq!(got.p_value.to_bits(), want.p_value.to_bits());
            assert_eq!(got.independent, want.independent);
        }
        let mut queries = warm.to_vec();
        queries.push((vec![1], vec![2], vec![0])); // fresh conditioning set
        for (x, y, z) in &queries {
            let a = ext.ci_shared(x, y, z);
            let b = cold.ci_shared(x, y, z);
            assert_eq!(
                a.p_value.to_bits(),
                b.p_value.to_bits(),
                "{x:?} {y:?} {z:?}"
            );
            assert_eq!(
                a.statistic.to_bits(),
                b.statistic.to_bits(),
                "{x:?} {y:?} {z:?}"
            );
        }
        let s = ext.scaffold_stats();
        assert_eq!((s.extended, s.rebuilt), (2, 1));
        assert!(s.conserved(), "{s:?}");
    }

    /// The fairness report's CMI is bit for bit the hashed reference's
    /// on report-shaped inputs: binary predictions against sensitive joint
    /// codes within admissible strata, the codes narrow enough for the
    /// dense arena in half the cases and wide enough for the sparse arena
    /// in the other half.
    #[test]
    fn cmi_from_codes_matches_hashed_reference_on_report_shapes() {
        use crate::contingency::{dense_cell_space, ZPartition};
        use crate::kernel_reference::cmi_from_codes as hashed;
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(41);
        let (mut dense, mut sparse, mut positive) = (0, 0, 0);
        for case in 0..80 {
            let n = rng.gen_range(40..=2500usize);
            let s_span = if case % 2 == 0 {
                rng.gen_range(2..=8u32)
            } else {
                rng.gen_range(2_000..=70_000u32)
            };
            let s: Vec<u32> = (0..n).map(|_| rng.gen_range(0..s_span)).collect();
            let a_span = rng.gen_range(1..=12u32);
            let a: Vec<u32> = (0..n).map(|_| rng.gen_range(0..a_span)).collect();
            let pred: Vec<u32> = (0..n)
                .map(|i| u32::from((s[i] + a[i]).is_multiple_of(3)) ^ u32::from(rng.gen_bool(0.2)))
                .collect();
            let strata = ZPartition::from_codes(a.as_slice()).n_strata;
            let xa = *s.iter().max().unwrap() as usize + 1;
            match dense_cell_space(n, strata, xa, 2) {
                Some(_) => dense += 1,
                None => sparse += 1,
            }
            let got = cmi_from_codes(&s, &pred, &a);
            let want = hashed(&s, &pred, &a);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "case {case}: {got} vs {want}"
            );
            positive += usize::from(got > 0.0);
        }
        assert!(
            dense >= 30 && sparse >= 30,
            "{dense} dense, {sparse} sparse"
        );
        assert!(positive >= 60, "{positive} positive");
    }
}
