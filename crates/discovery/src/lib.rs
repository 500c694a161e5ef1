//! Causal structure discovery: the PC algorithm (Spirtes et al. \[49\]).
//!
//! The paper's Remark 3 contrasts SeqSel/GrpSel with full causal discovery
//! — PC needs a number of CI tests that is exponential in the worst case —
//! and its evaluation includes the **Fair-PC** baseline, which "learns the
//! causal graph using PC and uses it to infer features that ensure causal
//! fairness". This crate implements that machinery from scratch:
//!
//! * [`pc_skeleton`] — adjacency search with growing conditioning sets,
//!   recording separating sets;
//! * [`pc`] — skeleton + v-structure orientation + Meek rules R1–R3,
//!   producing a [`Cpdag`];
//! * [`Cpdag::possible_descendants_avoiding`] — the reachability query the
//!   Fair-PC baseline uses to drop every feature that *may* be a descendant
//!   of a sensitive attribute in `G_Ā` (Theorem 1(iii)).
//!
//! Because every tester implements `fairsel_ci::CiTest`, PC runs equally
//! against the d-separation oracle (for exact tests) or against data.

use fairsel_ci::{CiTest, VarId};
use fairsel_engine::CiSession;
use std::collections::{BTreeMap, BTreeSet};

/// A completed partially directed acyclic graph: the Markov equivalence
/// class the PC algorithm identifies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cpdag {
    n: usize,
    /// Directed edges `i -> j`.
    // analyze: bounded-by at most n^2 edges of the fixed n-variable graph
    directed: BTreeSet<(VarId, VarId)>,
    /// Undirected edges, stored with `i < j`.
    // analyze: bounded-by at most n(n-1)/2 edges of the fixed n-variable graph
    undirected: BTreeSet<(VarId, VarId)>,
}

impl Cpdag {
    /// Empty CPDAG over `n` variables.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            directed: BTreeSet::new(),
            undirected: BTreeSet::new(),
        }
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.n
    }

    /// Is there a directed edge `i -> j`?
    pub fn has_directed(&self, i: VarId, j: VarId) -> bool {
        self.directed.contains(&(i, j))
    }

    /// Is there an undirected edge between `i` and `j`?
    pub fn has_undirected(&self, i: VarId, j: VarId) -> bool {
        self.undirected.contains(&norm(i, j))
    }

    /// Are `i` and `j` adjacent (any edge type)?
    pub fn adjacent(&self, i: VarId, j: VarId) -> bool {
        self.has_undirected(i, j) || self.has_directed(i, j) || self.has_directed(j, i)
    }

    /// All directed edges.
    pub fn directed_edges(&self) -> impl Iterator<Item = (VarId, VarId)> + '_ {
        self.directed.iter().copied()
    }

    /// All undirected edges (with `i < j`).
    pub fn undirected_edges(&self) -> impl Iterator<Item = (VarId, VarId)> + '_ {
        self.undirected.iter().copied()
    }

    /// Total edge count.
    pub fn edge_count(&self) -> usize {
        self.directed.len() + self.undirected.len()
    }

    fn add_undirected(&mut self, i: VarId, j: VarId) {
        assert!(i != j && i < self.n && j < self.n, "bad edge");
        self.undirected.insert(norm(i, j));
    }

    /// Orient the undirected edge `i - j` into `i -> j`.
    fn orient(&mut self, i: VarId, j: VarId) {
        if self.undirected.remove(&norm(i, j)) {
            self.directed.insert((i, j));
        }
    }

    /// Variables that *may* be descendants of `sources` in some member of
    /// the equivalence class: BFS along directed edges (forward only) and
    /// undirected edges (both ways). `avoid` nodes are not traversed
    /// *through* or *into* — this realizes the incoming-edge-removal of
    /// `G_Ā` when `avoid` is the admissible set.
    pub fn possible_descendants_avoiding(&self, sources: &[VarId], avoid: &[VarId]) -> Vec<bool> {
        let mut blocked = vec![false; self.n];
        for &a in avoid {
            blocked[a] = true;
        }
        // Adjacency for traversal.
        let mut next: Vec<Vec<VarId>> = vec![Vec::new(); self.n];
        for &(i, j) in &self.directed {
            next[i].push(j);
        }
        for &(i, j) in &self.undirected {
            next[i].push(j);
            next[j].push(i);
        }
        let mut seen = vec![false; self.n];
        let mut stack: Vec<VarId> = sources.to_vec();
        for &s in sources {
            seen[s] = true;
        }
        while let Some(v) = stack.pop() {
            for &w in &next[v] {
                if !seen[w] && !blocked[w] {
                    seen[w] = true;
                    stack.push(w);
                }
            }
        }
        // Sources themselves are not their own descendants.
        for &s in sources {
            seen[s] = false;
        }
        seen
    }
}

#[inline]
fn norm(i: VarId, j: VarId) -> (VarId, VarId) {
    if i < j {
        (i, j)
    } else {
        (j, i)
    }
}

/// Separating sets discovered during skeleton search, keyed by the
/// normalized pair.
pub type SepSets = BTreeMap<(VarId, VarId), Vec<VarId>>;

/// PC skeleton search over variables `vars`, testing conditioning sets up
/// to size `max_cond`. Returns the undirected skeleton (as a CPDAG with
/// only undirected edges) and the separating sets.
///
/// Queries route through a fresh engine [`CiSession`] (memo cache +
/// telemetry); use [`pc_skeleton_in`] to share a session — and therefore
/// cached answers — with other algorithms (the Fair-PC baseline does).
pub fn pc_skeleton<T: CiTest + ?Sized>(
    tester: &mut T,
    vars: &[VarId],
    max_cond: usize,
) -> (Cpdag, SepSets) {
    let mut session = CiSession::new(tester);
    pc_skeleton_in(&mut session, vars, max_cond)
}

/// [`pc_skeleton`] inside a caller-provided engine session.
pub fn pc_skeleton_in<T: CiTest>(
    session: &mut CiSession<T>,
    vars: &[VarId],
    max_cond: usize,
) -> (Cpdag, SepSets) {
    let n_total = session.n_vars();
    let mut g = Cpdag::new(n_total);
    for (a, &i) in vars.iter().enumerate() {
        for &j in &vars[a + 1..] {
            g.add_undirected(i, j);
        }
    }
    let mut sepsets: SepSets = BTreeMap::new();
    let mut adj: BTreeMap<VarId, BTreeSet<VarId>> = BTreeMap::new();
    for &i in vars {
        adj.insert(i, vars.iter().copied().filter(|&j| j != i).collect());
    }

    for level in 0..=max_cond {
        session.set_phase(&format!("pc/skeleton-L{level}"));
        let mut removed_any = false;
        // Snapshot pairs at this level to keep iteration stable.
        let pairs: Vec<(VarId, VarId)> = g.undirected_edges().collect();
        for (i, j) in pairs {
            if !g.has_undirected(i, j) {
                continue;
            }
            // Candidate conditioning variables: neighbours of i or of j
            // excluding the pair itself.
            let mut found = false;
            for side in [i, j] {
                let other = if side == i { j } else { i };
                let candidates: Vec<VarId> =
                    adj[&side].iter().copied().filter(|&k| k != other).collect();
                if candidates.len() < level {
                    continue;
                }
                for subset in subsets_of_size(&candidates, level) {
                    if session.query(&[i], &[j], &subset).independent {
                        g.undirected.remove(&norm(i, j));
                        adj.get_mut(&i).expect("present").remove(&j);
                        adj.get_mut(&j).expect("present").remove(&i);
                        sepsets.insert(norm(i, j), subset);
                        found = true;
                        removed_any = true;
                        break;
                    }
                }
                if found {
                    break;
                }
            }
        }
        // Early exit: no node has enough neighbours for a larger level.
        let max_deg = adj.values().map(BTreeSet::len).max().unwrap_or(0);
        if !removed_any && max_deg <= level + 1 {
            break;
        }
    }
    session.clear_phase();
    (g, sepsets)
}

/// Enumerate all subsets of `items` with exactly `k` elements.
fn subsets_of_size(items: &[VarId], k: usize) -> Vec<Vec<VarId>> {
    let mut out = Vec::new();
    if k > items.len() {
        return out;
    }
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        out.push(idx.iter().map(|&i| items[i]).collect());
        // Advance the combination.
        let mut pos = k;
        loop {
            if pos == 0 {
                return out;
            }
            pos -= 1;
            if idx[pos] != pos + items.len() - k {
                break;
            }
        }
        idx[pos] += 1;
        for p in pos + 1..k {
            idx[p] = idx[p - 1] + 1;
        }
    }
}

/// Full PC: skeleton, v-structure orientation, and Meek rules R1–R3.
/// Queries route through a fresh engine session; see [`pc_in`].
pub fn pc<T: CiTest + ?Sized>(tester: &mut T, vars: &[VarId], max_cond: usize) -> Cpdag {
    let mut session = CiSession::new(tester);
    pc_in(&mut session, vars, max_cond)
}

/// [`pc`] inside a caller-provided engine session.
pub fn pc_in<T: CiTest>(session: &mut CiSession<T>, vars: &[VarId], max_cond: usize) -> Cpdag {
    let (mut g, sepsets) = pc_skeleton_in(session, vars, max_cond);

    // Orient v-structures: for every path i - k - j with i,j non-adjacent
    // and k not in sepset(i,j): i -> k <- j.
    let mut orientations: Vec<(VarId, VarId)> = Vec::new();
    for &i in vars {
        for &j in vars {
            if i >= j || g.adjacent(i, j) {
                continue;
            }
            for &k in vars {
                if k == i || k == j {
                    continue;
                }
                if g.has_undirected(i, k) && g.has_undirected(j, k) {
                    let sep = sepsets.get(&norm(i, j));
                    let k_in_sep = sep.is_none_or(|s| s.contains(&k));
                    if !k_in_sep {
                        orientations.push((i, k));
                        orientations.push((j, k));
                    }
                }
            }
        }
    }
    for (from, to) in orientations {
        g.orient(from, to);
    }

    // Meek rules to closure.
    loop {
        let mut changed = false;
        let undirected: Vec<(VarId, VarId)> = g.undirected_edges().collect();
        for (a, b) in undirected {
            if !g.has_undirected(a, b) {
                continue;
            }
            for (x, y) in [(a, b), (b, a)] {
                // R1: z -> x and z not adjacent to y  =>  x -> y.
                let r1 = (0..g.n).any(|z| z != y && g.has_directed(z, x) && !g.adjacent(z, y));
                // R2: x -> w -> y  =>  x -> y.
                let r2 = (0..g.n).any(|w| g.has_directed(x, w) && g.has_directed(w, y));
                // R3: x - z1 -> y, x - z2 -> y, z1 ≠ z2 non-adjacent  =>  x -> y.
                let r3 = {
                    let zs: Vec<VarId> = (0..g.n)
                        .filter(|&z| g.has_undirected(x, z) && g.has_directed(z, y))
                        .collect();
                    zs.iter()
                        .enumerate()
                        .any(|(ii, &z1)| zs[ii + 1..].iter().any(|&z2| !g.adjacent(z1, z2)))
                };
                if r1 || r2 || r3 {
                    g.orient(x, y);
                    changed = true;
                    break;
                }
            }
        }
        if !changed {
            break;
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsel_ci::OracleCi;
    use fairsel_graph::DagBuilder;

    fn vars(n: usize) -> Vec<VarId> {
        (0..n).collect()
    }

    #[test]
    fn subsets_enumeration() {
        let items = vec![1, 2, 3];
        assert_eq!(subsets_of_size(&items, 0), vec![Vec::<usize>::new()]);
        assert_eq!(subsets_of_size(&items, 1).len(), 3);
        assert_eq!(subsets_of_size(&items, 2).len(), 3);
        assert_eq!(subsets_of_size(&items, 3).len(), 1);
        assert!(subsets_of_size(&items, 4).is_empty());
    }

    #[test]
    fn skeleton_of_chain() {
        // a -> b -> c: skeleton a-b-c without a-c.
        let dag = DagBuilder::new()
            .nodes(["a", "b", "c"])
            .edge("a", "b")
            .edge("b", "c")
            .build();
        let mut oracle = OracleCi::from_dag(dag);
        let (skel, seps) = pc_skeleton(&mut oracle, &vars(3), 2);
        assert!(skel.has_undirected(0, 1));
        assert!(skel.has_undirected(1, 2));
        assert!(!skel.adjacent(0, 2));
        assert_eq!(seps.get(&(0, 2)), Some(&vec![1]));
    }

    #[test]
    fn collider_is_oriented() {
        // a -> c <- b.
        let dag = DagBuilder::new()
            .nodes(["a", "b", "c"])
            .edge("a", "c")
            .edge("b", "c")
            .build();
        let mut oracle = OracleCi::from_dag(dag);
        let g = pc(&mut oracle, &vars(3), 2);
        assert!(g.has_directed(0, 2), "a -> c");
        assert!(g.has_directed(1, 2), "b -> c");
        assert!(!g.adjacent(0, 1));
    }

    #[test]
    fn chain_stays_undirected() {
        // Chain and fork are Markov equivalent: PC must leave both edges
        // undirected.
        let dag = DagBuilder::new()
            .nodes(["a", "b", "c"])
            .edge("a", "b")
            .edge("b", "c")
            .build();
        let mut oracle = OracleCi::from_dag(dag);
        let g = pc(&mut oracle, &vars(3), 2);
        assert!(g.has_undirected(0, 1));
        assert!(g.has_undirected(1, 2));
        assert_eq!(g.directed_edges().count(), 0);
    }

    #[test]
    fn meek_r1_propagates_orientation() {
        // a -> c <- b (v-structure), c - d: R1 orients c -> d because
        // a -> c and a not adjacent to d.
        let dag = DagBuilder::new()
            .nodes(["a", "b", "c", "d"])
            .edge("a", "c")
            .edge("b", "c")
            .edge("c", "d")
            .build();
        let mut oracle = OracleCi::from_dag(dag);
        let g = pc(&mut oracle, &vars(4), 3);
        assert!(g.has_directed(0, 2) && g.has_directed(1, 2));
        assert!(g.has_directed(2, 3), "Meek R1 should orient c -> d");
    }

    #[test]
    fn recovered_adjacencies_match_true_graph() {
        // Diamond: a -> b, a -> c, b -> d, c -> d.
        let dag = DagBuilder::new()
            .nodes(["a", "b", "c", "d"])
            .edge("a", "b")
            .edge("a", "c")
            .edge("b", "d")
            .edge("c", "d")
            .build();
        let mut oracle = OracleCi::from_dag(dag.clone());
        let g = pc(&mut oracle, &vars(4), 3);
        for i in 0..4usize {
            for j in (i + 1)..4 {
                let truly_adjacent = dag.edges().iter().any(|&(f, t)| {
                    (f.index(), t.index()) == (i, j) || (f.index(), t.index()) == (j, i)
                });
                assert_eq!(
                    g.adjacent(i, j),
                    truly_adjacent,
                    "adjacency mismatch on ({i},{j})"
                );
            }
        }
        // d's parents form a v-structure through non-adjacent b, c.
        assert!(g.has_directed(1, 3) && g.has_directed(2, 3));
    }

    #[test]
    fn possible_descendants_traversal() {
        let mut g = Cpdag::new(5);
        g.add_undirected(0, 1);
        g.orient(0, 1); // 0 -> 1
        g.add_undirected(1, 2); // 1 - 2 (either way possible)
        g.add_undirected(3, 4);
        g.orient(4, 3); // 4 -> 3
        let desc = g.possible_descendants_avoiding(&[0], &[]);
        assert!(desc[1] && desc[2], "1 directed, 2 possible via undirected");
        assert!(!desc[3] && !desc[4], "other component untouched");
    }

    #[test]
    fn possible_descendants_respects_avoid() {
        // 0 -> 1 -> 2; avoiding 1 cuts the path.
        let mut g = Cpdag::new(3);
        g.add_undirected(0, 1);
        g.orient(0, 1);
        g.add_undirected(1, 2);
        g.orient(1, 2);
        let desc = g.possible_descendants_avoiding(&[0], &[1]);
        assert!(!desc[1] && !desc[2]);
    }

    #[test]
    fn independent_variables_yield_empty_graph() {
        let dag = DagBuilder::new().nodes(["a", "b", "c"]).build();
        let mut oracle = OracleCi::from_dag(dag);
        let g = pc(&mut oracle, &vars(3), 2);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn pc_on_data_recovers_collider() {
        // Data-driven smoke test with the G-test on a sampled collider.
        use fairsel_ci::GTest;
        use fairsel_scm::DiscreteScmBuilder;
        use fairsel_table::{Column, Role, Table};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let dag = DagBuilder::new()
            .nodes(["a", "b", "c"])
            .edge("a", "c")
            .edge("b", "c")
            .build();
        let (a, b, c) = (
            dag.expect_node("a"),
            dag.expect_node("b"),
            dag.expect_node("c"),
        );
        let scm = DiscreteScmBuilder::uniform_arity(dag, 2)
            .cpt(a, vec![0.5, 0.5])
            .unwrap()
            .cpt(b, vec![0.5, 0.5])
            .unwrap()
            // c strongly depends on both parents (rows: a,b = 00,01,10,11)
            .cpt(c, vec![0.95, 0.05, 0.3, 0.7, 0.25, 0.75, 0.05, 0.95])
            .unwrap()
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let cols = scm.sample(&mut rng, 6000);
        let t = Table::new(vec![
            Column::cat("a", Role::Feature, cols[a.index()].clone(), 2),
            Column::cat("b", Role::Feature, cols[b.index()].clone(), 2),
            Column::cat("c", Role::Feature, cols[c.index()].clone(), 2),
        ])
        .unwrap();
        let mut tester = GTest::new(&t, 0.01);
        let g = pc(&mut tester, &vars(3), 2);
        assert!(g.has_directed(0, 2), "a -> c from data");
        assert!(g.has_directed(1, 2), "b -> c from data");
        assert!(!g.adjacent(0, 1));
    }
}
