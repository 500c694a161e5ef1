//! Oracle CI testers backed by ground-truth d-separation.
//!
//! Under the faithfulness assumption (Assumption 1), conditional
//! independence in the data coincides with d-separation in the generating
//! graph, so a tester that answers queries straight from the graph is the
//! *ideal* CI test. The complexity experiments (Figures 4-5) count tests
//! issued against this oracle; [`NoisyOracleCi`] additionally flips each
//! answer with a small probability to model the spurious correlations that
//! finite-sample testers produce when too many tests are run (§5.3,
//! "Advantages of Group-testing").

use crate::{CiOutcome, CiTest, VarId};
use fairsel_graph::{Dag, NodeId, Reachable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Reachable sets one [`OracleCi`] keeps, the oldest evicted first. A
/// selection on a wide instance needs three — `(S, ∅)` and `(S, {A})` in
/// phase 1, `(Y, A ∪ C₁)` in phase 2 — so SeqSel's and GrpSel's fit
/// together with room to spare.
pub const REACH_MEMO_SETS: usize = 8;

/// Exact d-separation oracle. Variable `i` maps to graph node `vars[i]`.
///
/// # The reachable-set memo
///
/// The selection algorithms ask in waves: every query of a wave tests
/// some feature or group `x` against one shared `y` (`S` in phase 1, `Y`
/// in phase 2) given one shared `Z`. The oracle keeps the nodes reachable
/// from such a `y` given such a `Z` ([`Reachable`]), keyed by `y` and `Z`
/// exactly as the caller spelled them:
///
/// * a query whose `(y, Z)` is resident is answered by membership: `x` is
///   separated when none of its nodes is in the set;
/// * any other query walks its `y` side's set given `Z` to the end,
///   answers from it the same way and keeps it.
///
/// So a wave costs one walk and a membership check per query. At most
/// [`REACH_MEMO_SETS`] sets stay resident. The memo sits behind a lock
/// taken only to look a set up and to keep one; a set is shared by `Arc`,
/// so walks and membership checks run outside the lock.
///
/// Every answer is exactly what [`fairsel_graph::d_separated`] answers:
/// a set is used only for a query whose `y` and `Z` equal, element for
/// element, the ones it was walked from, and membership in the walk run
/// to the end is d-connection ([`Reachable`]). A `y` or `Z` spelled
/// differently merely misses. So what the memo holds changes how long a
/// query takes, never its answer.
pub struct OracleCi {
    dag: Dag,
    vars: Vec<NodeId>,
    memo: Mutex<ReachMemo>,
}

impl OracleCi {
    /// Oracle with an explicit variable → node mapping.
    pub fn new(dag: Dag, vars: Vec<NodeId>) -> Self {
        assert!(
            vars.iter().all(|v| v.index() < dag.len()),
            "variable map references missing node"
        );
        Self {
            dag,
            vars,
            memo: Mutex::default(),
        }
    }

    /// Oracle where variable `i` is node `i`.
    pub fn from_dag(dag: Dag) -> Self {
        let vars = dag.nodes().collect();
        Self::new(dag, vars)
    }

    /// The underlying graph.
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    fn map(&self, vs: &[VarId]) -> Vec<NodeId> {
        vs.iter().map(|&v| self.vars[v]).collect()
    }

    fn memo(&self) -> MutexGuard<'_, ReachMemo> {
        // The memo is consistent between statements, so a panic elsewhere
        // while it was held leaves nothing half-written.
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Answer a query through a shared reference (d-separation is a pure
    /// function of the graph; the memo changes only the route to it).
    pub fn ci_ref(&self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
        let resident = self.memo().find(y, z);
        let set = resident.unwrap_or_else(|| {
            let set = Arc::new(SideSet {
                y: y.to_vec(),
                z: z.to_vec(),
                reach: Reachable::new(&self.dag, &self.map(y), &self.map(z)),
            });
            self.memo().keep(Arc::clone(&set));
            set
        });
        let sep = !x.iter().any(|&v| set.reach.contains(self.vars[v]));
        CiOutcome::decided(sep)
    }
}

/// The nodes reachable from a `y` side given a `Z`, with both as the
/// caller spelled them.
struct SideSet {
    y: Vec<VarId>,
    z: Vec<VarId>,
    reach: Reachable,
}

impl SideSet {
    fn walked_from(&self, y: &[VarId], z: &[VarId]) -> bool {
        self.y == y && self.z == z
    }
}

/// The oracle's reachable-set memo (see [`OracleCi`]).
#[derive(Default)]
struct ReachMemo {
    // analyze: bounded-by REACH_MEMO_SETS sets; `keep` evicts the oldest first
    sets: VecDeque<Arc<SideSet>>,
}

impl ReachMemo {
    fn find(&self, y: &[VarId], z: &[VarId]) -> Option<Arc<SideSet>> {
        self.sets
            .iter()
            .rev()
            .find(|s| s.walked_from(y, z))
            .cloned()
    }

    fn keep(&mut self, set: Arc<SideSet>) {
        // Two threads may build the same set at once; keep one copy.
        if self.find(&set.y, &set.z).is_some() {
            return;
        }
        if self.sets.len() == REACH_MEMO_SETS {
            self.sets.pop_front();
        }
        self.sets.push_back(set);
    }
}

impl CiTest for OracleCi {
    fn ci(&mut self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
        self.ci_ref(x, y, z)
    }

    fn n_vars(&self) -> usize {
        self.vars.len()
    }

    fn name(&self) -> &'static str {
        "oracle"
    }
}

impl crate::CiTestShared for OracleCi {
    fn ci_shared(&self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
        self.ci_ref(x, y, z)
    }
}

/// The oracle amortizes behind [`OracleCi::ci_ref`] (its reachable-set
/// memo), which every entry point reaches, so the batch trait keeps its
/// per-query defaults; implementing it lets the oracle drop into every
/// batched entry point — e.g. `fairsel select --dag`, which routes the
/// oracle through the same pipeline as the data testers.
impl crate::CiTestBatch for OracleCi {}

/// Oracle with per-test error: each answer is flipped independently with
/// probability `flip_prob`. With `q` tests, the expected number of
/// spurious answers is `q · flip_prob` — which is precisely why GrpSel's
/// `O(k log n)` tests yield fewer spurious results than SeqSel's `O(n)`
/// (the paper's §5.3 spuriousness experiment).
pub struct NoisyOracleCi {
    inner: OracleCi,
    flip_prob: f64,
    rng: StdRng,
    flips: u64,
}

impl NoisyOracleCi {
    pub fn new(inner: OracleCi, flip_prob: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&flip_prob), "flip_prob in [0,1)");
        Self {
            inner,
            flip_prob,
            rng: StdRng::seed_from_u64(seed),
            flips: 0,
        }
    }

    /// How many answers have been flipped so far.
    pub fn flips(&self) -> u64 {
        self.flips
    }
}

impl CiTest for NoisyOracleCi {
    fn ci(&mut self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
        let truth = self.inner.ci(x, y, z);
        if self.rng.gen::<f64>() < self.flip_prob {
            self.flips += 1;
            CiOutcome::decided(!truth.independent)
        } else {
            truth
        }
    }

    fn n_vars(&self) -> usize {
        self.inner.n_vars()
    }

    fn name(&self) -> &'static str {
        "noisy-oracle"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CountingCi;
    use fairsel_graph::{d_separated, DagBuilder};

    fn chain() -> Dag {
        DagBuilder::new()
            .nodes(["a", "b", "c"])
            .edge("a", "b")
            .edge("b", "c")
            .build()
    }

    #[test]
    fn oracle_answers_match_dsep() {
        let mut o = OracleCi::from_dag(chain());
        assert!(!o.ci(&[0], &[2], &[]).independent);
        assert!(o.ci(&[0], &[2], &[1]).independent);
        assert_eq!(o.n_vars(), 3);
    }

    #[test]
    fn oracle_with_submapping() {
        // Map variables [0,1] onto nodes a and c only.
        let dag = chain();
        let a = dag.expect_node("a");
        let c = dag.expect_node("c");
        let mut o = OracleCi::new(dag, vec![a, c]);
        assert_eq!(o.n_vars(), 2);
        assert!(!o.ci(&[0], &[1], &[]).independent);
    }

    #[test]
    #[should_panic(expected = "missing node")]
    fn bad_mapping_panics() {
        OracleCi::new(chain(), vec![NodeId(99)]);
    }

    /// A seeded stream in the shape the selection algorithms ask in —
    /// waves sharing `y`, waves sharing `x`, each given one of several
    /// interleaved `Z`s, with lone queries between them — plus degenerate
    /// queries (sides meeting `Z`, sharing a node, empty).
    fn stream(rng: &mut StdRng, dag: &Dag) -> Vec<[Vec<VarId>; 3]> {
        let n = dag.len();
        let some = |rng: &mut StdRng, max: usize| -> Vec<VarId> {
            let len = rng.gen_range(0..=max);
            (0..len).map(|_| rng.gen_range(0..n)).collect()
        };
        let zs: Vec<Vec<VarId>> = (0..4).map(|_| some(rng, n / 3)).collect();
        let (sy, sx) = (vec![rng.gen_range(0..n)], vec![rng.gen_range(0..n)]);
        let mut out = Vec::new();
        for _ in 0..60 {
            let z = zs[rng.gen_range(0..zs.len())].clone();
            match rng.gen_range(0..3) {
                0 => {
                    for _ in 0..rng.gen_range(1..8) {
                        let mut x = some(rng, 6);
                        if rng.gen_bool(0.1) {
                            x.push(sy[0]);
                        }
                        out.push([x, sy.clone(), z.clone()]);
                    }
                }
                1 => {
                    for _ in 0..rng.gen_range(1..8) {
                        out.push([sx.clone(), some(rng, 6), z.clone()]);
                    }
                }
                _ => out.push([some(rng, 4), some(rng, 4), some(rng, n / 2)]),
            }
        }
        out
    }

    fn stream_dag(seed: u64) -> Dag {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = fairsel_graph::RandomDagConfig {
            nodes: rng.gen_range(10..=60),
            max_parents: rng.gen_range(1..=4),
            density: rng.gen_range(0.1..0.9),
            ..Default::default()
        };
        fairsel_graph::random_dag(&mut rng, &cfg)
    }

    fn truth(o: &OracleCi, [x, y, z]: &[Vec<VarId>; 3]) -> bool {
        d_separated(o.dag(), &o.map(x), &o.map(y), &o.map(z))
    }

    /// Whatever the memo holds, every answer is `d_separated`'s, and the
    /// stream's waves leave sets resident (the memo was used).
    #[test]
    fn memo_answers_a_stream_as_d_separation_does() {
        for seed in 0..40u64 {
            let mut o = OracleCi::from_dag(stream_dag(seed));
            let qs = stream(&mut StdRng::seed_from_u64(seed ^ 0x57e4), o.dag());
            for (i, q) in qs.iter().enumerate() {
                let [x, y, z] = q;
                let want = truth(&o, q);
                assert_eq!(o.ci(x, y, z).independent, want, "seed {seed}, query {i}");
                assert_eq!(
                    o.ci_ref(y, x, z).independent,
                    want,
                    "seed {seed}, query {i}"
                );
            }
            let resident = o.memo().sets.len();
            assert!(
                (1..=REACH_MEMO_SETS).contains(&resident),
                "seed {seed}: {resident} sets resident"
            );
        }
    }

    /// The same streams from 4 threads through `ci_shared` on one oracle:
    /// routing, building and keeping race, and every answer stays exact.
    #[test]
    fn memo_answers_exactly_from_four_threads() {
        use crate::CiTestShared;
        for seed in 0..20u64 {
            let o = OracleCi::from_dag(stream_dag(seed));
            let qs = stream(&mut StdRng::seed_from_u64(seed ^ 0x57e4), o.dag());
            std::thread::scope(|scope| {
                for t in 0..4 {
                    let (o, qs) = (&o, &qs);
                    scope.spawn(move || {
                        for (i, q) in qs.iter().enumerate().skip(t).step_by(4) {
                            let [x, y, z] = q;
                            let got = o.ci_shared(x, y, z).independent;
                            assert_eq!(got, truth(o, q), "seed {seed}, query {i}");
                        }
                    });
                }
            });
        }
    }

    /// A wave sharing `(y, Z)` keeps one set; distinct `(y, Z)`s keep one
    /// each, up to the bound, the oldest evicted first.
    #[test]
    fn memo_keeps_one_set_per_wave_up_to_the_bound() {
        let cfg = fairsel_graph::RandomDagConfig {
            nodes: 40,
            ..Default::default()
        };
        let o = OracleCi::from_dag(fairsel_graph::random_dag(
            &mut StdRng::seed_from_u64(3),
            &cfg,
        ));
        let n = o.n_vars();
        for x in 0..n {
            o.ci_ref(&[x], &[0], &[1]);
        }
        assert_eq!(o.memo().sets.len(), 1);
        for y in 0..2 * REACH_MEMO_SETS {
            o.ci_ref(&[n - 1], &[y], &[]);
        }
        let memo = o.memo();
        assert_eq!(memo.sets.len(), REACH_MEMO_SETS);
        assert!(memo.find(&[0], &[1]).is_none());
        assert!(memo.find(&[2 * REACH_MEMO_SETS - 1], &[]).is_some());
    }

    #[test]
    fn noisy_oracle_flip_rate() {
        let mut noisy = NoisyOracleCi::new(OracleCi::from_dag(chain()), 0.25, 7);
        let trials = 4000;
        for _ in 0..trials {
            noisy.ci(&[0], &[2], &[1]);
        }
        let rate = noisy.flips() as f64 / trials as f64;
        assert!(
            (0.20..=0.30).contains(&rate),
            "flip rate {rate} far from 0.25"
        );
    }

    #[test]
    fn zero_noise_is_exact() {
        let mut noisy = NoisyOracleCi::new(OracleCi::from_dag(chain()), 0.0, 7);
        for _ in 0..100 {
            assert!(noisy.ci(&[0], &[2], &[1]).independent);
        }
        assert_eq!(noisy.flips(), 0);
    }

    #[test]
    fn counting_composes_with_oracle() {
        let mut counted = CountingCi::new(OracleCi::from_dag(chain()));
        counted.ci(&[0], &[1], &[]);
        counted.ci(&[0], &[2], &[1]);
        assert_eq!(counted.count(), 2);
    }
}
