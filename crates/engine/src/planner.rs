//! The frontier planner: GrpSel's recursive halving, re-expressed as
//! level-synchronous batches of independent group queries.
//!
//! The paper's Algorithms 3–4 recurse depth-first: test a group, split on
//! failure, descend. Correct, but it serializes work that is logically
//! independent — at any moment the set of undecided groups ("the
//! frontier") could all be tested at once. [`HalvingPlanner`] keeps that
//! frontier explicit: the caller tests every group in the current
//! frontier (one batch the execution engine can parallelize), reports the
//! verdicts, and [`HalvingPlanner::advance`] produces admitted groups,
//! exhausted singletons, and the next frontier of halves.
//!
//! The query *multiset* is identical to the depth-first recursion — only
//! the order changes — so test counts and selections are preserved.
//!
//! Groups share the root list. Halving a group and chunking a root by
//! `max_group` both yield contiguous runs of one list, so every frontier
//! group is a [`VarSlice`] of the list copied once when the planner is
//! built: advancing a level copies no member, and a wave's queries hold
//! the same runs (and one shared target side) instead of copies.

use crate::key::{CiQuery, CondSet, VarSlice};
use fairsel_ci::{CiOutcome, VarId};

/// Result of advancing the frontier one level.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FrontierOutcome {
    /// Groups whose test passed: every member is admitted at once
    /// (soundness by the composition axiom, Lemma 1.2).
    pub admitted: Vec<VarSlice>,
    /// Failing singletons: the recursion bottomed out on these.
    pub exhausted: Vec<VarId>,
}

/// Level-synchronous view of recursive halving over a variable group.
#[derive(Clone, Debug)]
pub struct HalvingPlanner {
    frontier: Vec<VarSlice>,
    levels: usize,
}

impl HalvingPlanner {
    /// Start with `items` as the single root group (empty = already done).
    pub fn new(items: &[VarId]) -> Self {
        Self::chunked(items, items.len())
    }

    /// Start from `items` cut into consecutive root groups of `width`
    /// members (the last may be narrower; `width` 0 is read as 1), each a
    /// run of one copy of `items`. This is how `SelectConfig::max_group`
    /// pre-splits a wide root into subgroups narrow enough for
    /// finite-sample group tests to retain power.
    pub fn chunked(items: &[VarId], width: usize) -> Self {
        Self {
            frontier: VarSlice::new(items).chunks(width).collect(),
            levels: 0,
        }
    }

    /// Is there anything left to test?
    pub fn is_done(&self) -> bool {
        self.frontier.is_empty()
    }

    /// The groups awaiting verdicts — each one an independent query.
    pub fn frontier(&self) -> &[VarSlice] {
        &self.frontier
    }

    /// Levels processed so far (the `log n` factor of §4.3).
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Consume one verdict per frontier group (`true` = the group's test
    /// passed). Passing groups are admitted whole; failing singletons are
    /// exhausted; failing larger groups are split at the midpoint into the
    /// next frontier, preserving member order (both halves are runs of the
    /// same root list).
    ///
    /// # Panics
    /// Panics when `certified.len()` disagrees with the frontier.
    pub fn advance(&mut self, certified: &[bool]) -> FrontierOutcome {
        assert_eq!(
            certified.len(),
            self.frontier.len(),
            "planner: one verdict per frontier group required"
        );
        let mut out = FrontierOutcome::default();
        let mut next = Vec::new();
        for (group, &ok) in self.frontier.drain(..).zip(certified) {
            if ok {
                out.admitted.push(group);
            } else if group.len() == 1 {
                out.exhausted.push(group[0]);
            } else {
                let (left, right) = group.split_at(group.len() / 2);
                next.push(left);
                next.push(right);
            }
        }
        self.frontier = next;
        self.levels += 1;
        out
    }
}

/// Decide, for every group, whether *some* conditioning set in
/// `alternatives` (tried in order) certifies `group ⊥ target | alt`.
///
/// Alternatives are issued as waves: wave `k` batches the `k`-th
/// alternative for every still-undecided group, so a group certified early
/// is never queried again — the same early-exit the sequential `∃A' ⊆ A`
/// loop has, but with each wave being one engine batch. Each alternative
/// is interned once, and every query of its wave shares it, the group
/// runs and `target`: building a wave copies no variable. `run` executes
/// one wave's queries, so a caller picks the executor (GrpSel runs its
/// waves on the Z-grouped scheduler).
pub fn exists_with<F>(
    groups: &[VarSlice],
    target: &VarSlice,
    alternatives: &[CondSet],
    mut run: F,
) -> Vec<bool>
where
    F: FnMut(&[CiQuery]) -> Vec<CiOutcome>,
{
    let mut certified = vec![false; groups.len()];
    let mut undecided: Vec<usize> = (0..groups.len()).collect();
    for (wave, alt) in alternatives.iter().enumerate() {
        if undecided.is_empty() {
            break;
        }
        let batch: Vec<CiQuery> = undecided
            .iter()
            .map(|&g| CiQuery {
                x: groups[g].clone(),
                y: target.clone(),
                z: alt.clone(),
            })
            .collect();
        let _sp = fairsel_obs::span_kv("planner.level", || {
            vec![
                ("wave", wave.to_string()),
                ("undecided", batch.len().to_string()),
            ]
        });
        let outcomes = run(&batch);
        let mut still = Vec::with_capacity(undecided.len());
        for (&g, out) in undecided.iter().zip(&outcomes) {
            if out.independent {
                certified[g] = true;
            } else {
                still.push(g);
            }
        }
        undecided = still;
    }
    certified
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::CiSession;
    use fairsel_ci::CiTest;

    /// Group passes iff it contains no "bad" member.
    struct BadSetCi {
        bad: Vec<VarId>,
        n: usize,
    }

    impl CiTest for BadSetCi {
        fn ci(&mut self, x: &[VarId], _y: &[VarId], _z: &[VarId]) -> CiOutcome {
            CiOutcome::decided(!x.iter().any(|v| self.bad.contains(v)))
        }
        fn n_vars(&self) -> usize {
            self.n
        }
    }

    fn run_halving(items: &[VarId], bad: &[VarId]) -> (Vec<VarId>, Vec<VarId>, u64) {
        let mut session = CiSession::new(BadSetCi {
            bad: bad.to_vec(),
            n: 1000,
        });
        let mut planner = HalvingPlanner::new(items);
        let mut admitted = Vec::new();
        let mut exhausted = Vec::new();
        while !planner.is_done() {
            let batch: Vec<CiQuery> = planner
                .frontier()
                .iter()
                .map(|g| CiQuery::new(g, &[999], &[]))
                .collect();
            let outcomes = session.run_batch(&batch);
            let verdicts: Vec<bool> = outcomes.iter().map(|o| o.independent).collect();
            let step = planner.advance(&verdicts);
            admitted.extend(step.admitted.iter().flat_map(|g| g.iter().copied()));
            exhausted.extend(step.exhausted);
        }
        admitted.sort_unstable();
        exhausted.sort_unstable();
        (admitted, exhausted, session.stats().issued)
    }

    #[test]
    fn isolates_bad_members() {
        let items: Vec<VarId> = (0..16).collect();
        let (admitted, exhausted, _) = run_halving(&items, &[3, 11]);
        assert_eq!(exhausted, vec![3, 11]);
        let expect: Vec<VarId> = (0..16).filter(|v| *v != 3 && *v != 11).collect();
        assert_eq!(admitted, expect);
    }

    #[test]
    fn all_good_is_one_test() {
        let items: Vec<VarId> = (0..64).collect();
        let (admitted, exhausted, issued) = run_halving(&items, &[]);
        assert_eq!(admitted.len(), 64);
        assert!(exhausted.is_empty());
        assert_eq!(issued, 1, "a clean group needs exactly one test");
    }

    #[test]
    fn k_log_n_scaling() {
        // One bad member in 64: ~2·log2(64) tests, nowhere near 64.
        let items: Vec<VarId> = (0..64).collect();
        let (_, exhausted, issued) = run_halving(&items, &[17]);
        assert_eq!(exhausted, vec![17]);
        assert!(issued <= 13, "issued {issued} tests for k=1, n=64");
    }

    #[test]
    fn empty_start_is_done() {
        let p = HalvingPlanner::new(&[]);
        assert!(p.is_done());
    }

    #[test]
    #[should_panic(expected = "one verdict per frontier group")]
    fn verdict_arity_checked() {
        let mut p = HalvingPlanner::new(&[1, 2]);
        p.advance(&[true, false]);
    }

    /// One root group per variable, each a run of one shared list.
    fn singletons(vars: &[VarId]) -> Vec<VarSlice> {
        HalvingPlanner::chunked(vars, 1).frontier().to_vec()
    }

    #[test]
    fn chunked_roots_and_halves_keep_member_order() {
        let items: Vec<VarId> = (10..21).collect();
        let mut p = HalvingPlanner::chunked(&items, 4);
        let roots: Vec<&[VarId]> = p.frontier().iter().map(|g| &g[..]).collect();
        assert_eq!(roots, [&items[0..4], &items[4..8], &items[8..11]]);
        let step = p.advance(&[false, true, false]);
        assert_eq!(step.admitted, [VarSlice::new(&items[4..8])]);
        let halves: Vec<&[VarId]> = p.frontier().iter().map(|g| &g[..]).collect();
        assert_eq!(
            halves,
            [&items[0..2], &items[2..4], &items[8..9], &items[9..11]]
        );
        assert!(HalvingPlanner::chunked(&[], 3).is_done());
        assert_eq!(HalvingPlanner::chunked(&[1, 2], 0).frontier().len(), 2);
    }

    #[test]
    fn exists_certificate_early_exit() {
        // Alternative 0 certifies everything: only one wave is issued.
        let mut session = CiSession::new(BadSetCi {
            bad: vec![],
            n: 100,
        });
        let groups = singletons(&[1, 2, 3]);
        let alts = vec![CondSet::new(&[]), CondSet::new(&[50])];
        let got = exists_with(&groups, &VarSlice::new(&[99]), &alts, |qs| {
            session.run_batch(qs)
        });
        assert_eq!(got, vec![true; 3]);
        assert_eq!(session.stats().issued, 3, "second alternative never tried");
    }

    #[test]
    fn exists_certificate_falls_through_alternatives() {
        // `bad` contains 1, so group [1] fails every alternative; groups
        // [2] and [3] pass on the first.
        let mut session = CiSession::new(BadSetCi {
            bad: vec![1],
            n: 100,
        });
        let groups = singletons(&[1, 2, 3]);
        let alts = vec![CondSet::new(&[]), CondSet::new(&[50])];
        let got = exists_with(&groups, &VarSlice::new(&[99]), &alts, |qs| {
            session.run_batch(qs)
        });
        assert_eq!(got, vec![false, true, true]);
        // Wave 0: three queries; wave 1: only the undecided [1].
        assert_eq!(session.stats().issued, 4);
    }
}
