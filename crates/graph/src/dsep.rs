//! d-separation (Definition 3 of the paper) via the reachable-set
//! algorithm ("Bayes ball": Shachter 1998; Koller & Friedman Alg. 3.1).
//!
//! A path is *blocked* by `Z` when it contains a chain or fork whose middle
//! node is in `Z`, or a collider whose middle node (and all of its
//! descendants) is outside `Z`. `X ⊥_d Y | Z` holds when every path between
//! `X` and `Y` is blocked. Under the paper's faithfulness assumption
//! (Assumption 1) this graphical criterion coincides with conditional
//! independence in the data distribution, which is why the d-separation
//! oracle in `fairsel-ci` can stand in for a statistical CI test in the
//! complexity experiments.
//!
//! One walk serves two kinds of caller. A lone query walks from the
//! smaller test side and stops at the first node of the other side it
//! reaches ([`d_separated`]), so a connected query pays only for the part
//! of the graph it walks before that hit; either way it costs `O(V + E)`
//! at worst. Queries that share a side and a conditioning set — every
//! query of one GrpSel wave tests some group against the same `S` or `Y`
//! given the same `Z` — run the same walk from the shared side with no
//! target and no early exit ([`Reachable`]), and each then costs one
//! membership check per node of its other side.
//!
//! The walk needs no ancestor closure of `Z`. A collider `v ∉ Z` with a
//! descendant in `Z` is open, and the ball finds that out by itself: from
//! `v` it runs down to the first `Z` node below, bounces there, and climbs
//! back to `v` as if from a child, which sends it on to `v`'s parents —
//! the move the closure would have allowed at `v` directly.

use crate::dag::{Dag, NodeId};

/// Per-node flag bits of one walk.
const IN_Z: u8 = 1;
/// A node of the side the ball is looking for.
const TARGET: u8 = 1 << 1;
/// Already reached moving up (arrived from a child).
const SEEN_UP: u8 = 1 << 2;
/// Already reached moving down (arrived from a parent).
const SEEN_DOWN: u8 = 1 << 3;

/// Test `X ⊥_d Y | Z` in `dag`.
///
/// Conventions for degenerate inputs, chosen to match how CI testers treat
/// them statistically:
/// * members of `x` or `y` that also appear in `z` are dropped (a variable
///   is trivially independent of anything given itself);
/// * if after dropping, `x` and `y` still share a variable, they are
///   d-connected;
/// * an empty side is d-separated from everything.
pub fn d_separated(dag: &Dag, x: &[NodeId], y: &[NodeId], z: &[NodeId]) -> bool {
    let mut flags = z_flags(dag, z);
    let xs = outside_z(&flags, x);
    let ys = outside_z(&flags, y);
    if xs.is_empty() || ys.is_empty() {
        return true;
    }
    // d-connection is symmetric: walk from the smaller side.
    let (sources, targets) = if ys.len() < xs.len() {
        (ys, xs)
    } else {
        (xs, ys)
    };
    for &t in &targets {
        flags[t.index()] |= TARGET;
    }
    !walk(dag, &mut flags, &sources)
}

/// The nodes that an active trail given `Z` joins to one side of a query:
/// the walk of [`d_separated`] from that side, run to the end with no
/// target.
///
/// `d_separated(dag, x, y, z)` holds exactly when no node of `x` is in
/// `Reachable::new(dag, y, z)`, degenerate inputs included: a side node in
/// `Z` is never a source and never reached, a node on both sides is a
/// source and so reached, and an empty side reaches nothing.
#[derive(Clone, Debug)]
pub struct Reachable {
    flags: Vec<u8>,
}

impl Reachable {
    /// Walk from `side` given `z`.
    pub fn new(dag: &Dag, side: &[NodeId], z: &[NodeId]) -> Self {
        let mut flags = z_flags(dag, z);
        let sources = outside_z(&flags, side);
        walk(dag, &mut flags, &sources);
        Self { flags }
    }

    /// Is `v` joined to the side by an active trail? Never for a node of
    /// `Z`; always for a side node outside `Z`.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        let f = self.flags[v.index()];
        f & IN_Z == 0 && f & (SEEN_UP | SEEN_DOWN) != 0
    }
}

/// Fresh flags with `z` marked.
fn z_flags(dag: &Dag, z: &[NodeId]) -> Vec<u8> {
    let mut flags = vec![0u8; dag.len()];
    for &v in z {
        flags[v.index()] |= IN_Z;
    }
    flags
}

/// The members of `side` outside `Z`.
fn outside_z(flags: &[u8], side: &[NodeId]) -> Vec<NodeId> {
    side.iter()
        .copied()
        .filter(|v| flags[v.index()] & IN_Z == 0)
        .collect()
}

/// The Bayes ball from `sources` (all outside `Z`): true as soon as it
/// reaches a [`TARGET`] node, false once it can move no further. Every
/// node it reaches keeps a `SEEN_*` bit.
fn walk(dag: &Dag, flags: &mut [u8], sources: &[NodeId]) -> bool {
    // `(v, down)` means "at v, arrived from a parent"; a source counts as
    // arrived from a child.
    let mut ball: Vec<(NodeId, bool)> = Vec::with_capacity(sources.len());
    for &s in sources {
        if push(flags, &mut ball, s, false) {
            return true;
        }
    }
    while let Some((v, down)) = ball.pop() {
        let f = flags[v.index()];
        // Up through a non-Z node continues to parents and children; down
        // through one continues as a chain; down into a Z node bounces
        // back up to its parents; up into a Z node stops.
        let to_children = f & IN_Z == 0;
        let to_parents = down == (f & IN_Z != 0);
        if to_children {
            for &c in dag.children(v) {
                if push(flags, &mut ball, c, true) {
                    return true;
                }
            }
        }
        if to_parents {
            for &p in dag.parents(v) {
                if push(flags, &mut ball, p, false) {
                    return true;
                }
            }
        }
    }
    false
}

/// Queue `v` in direction `down` unless it was reached that way before.
/// True when `v` is a target reached for the first time.
#[inline]
fn push(flags: &mut [u8], ball: &mut Vec<(NodeId, bool)>, v: NodeId, down: bool) -> bool {
    let seen = if down { SEEN_DOWN } else { SEEN_UP };
    let f = &mut flags[v.index()];
    if *f & seen != 0 {
        return false;
    }
    *f |= seen;
    ball.push((v, down));
    *f & TARGET != 0
}

/// Convenience negation of [`d_separated`].
pub fn d_connected(dag: &Dag, x: &[NodeId], y: &[NodeId], z: &[NodeId]) -> bool {
    !d_separated(dag, x, y, z)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::DagBuilder;

    fn ids(dag: &Dag, names: &[&str]) -> Vec<NodeId> {
        names.iter().map(|n| dag.expect_node(n)).collect()
    }

    /// Assert X ⊥ Y | Z (or its negation) by names.
    fn check(dag: &Dag, x: &[&str], y: &[&str], z: &[&str], sep: bool) {
        let got = d_separated(dag, &ids(dag, x), &ids(dag, y), &ids(dag, z));
        assert_eq!(
            got,
            sep,
            "{x:?} ⊥ {y:?} | {z:?} expected {sep} in [{}]",
            dag.to_text()
        );
    }

    #[test]
    fn chain_blocked_by_middle() {
        let g = DagBuilder::new()
            .nodes(["a", "b", "c"])
            .edge("a", "b")
            .edge("b", "c")
            .build();
        check(&g, &["a"], &["c"], &[], false);
        check(&g, &["a"], &["c"], &["b"], true);
    }

    #[test]
    fn fork_blocked_by_middle() {
        let g = DagBuilder::new()
            .nodes(["a", "b", "c"])
            .edge("b", "a")
            .edge("b", "c")
            .build();
        check(&g, &["a"], &["c"], &[], false);
        check(&g, &["a"], &["c"], &["b"], true);
    }

    #[test]
    fn collider_blocks_unless_conditioned() {
        let g = DagBuilder::new()
            .nodes(["a", "b", "c"])
            .edge("a", "b")
            .edge("c", "b")
            .build();
        check(&g, &["a"], &["c"], &[], true);
        check(&g, &["a"], &["c"], &["b"], false);
    }

    #[test]
    fn collider_descendant_opens_path() {
        // a -> b <- c, b -> d: conditioning on d (descendant of the
        // collision node) opens the path.
        let g = DagBuilder::new()
            .nodes(["a", "b", "c", "d"])
            .edge("a", "b")
            .edge("c", "b")
            .edge("b", "d")
            .build();
        check(&g, &["a"], &["c"], &["d"], false);
        check(&g, &["a"], &["c"], &[], true);
    }

    #[test]
    fn collider_opened_by_deep_descendant() {
        // a -> b <- c, b -> d1 -> d2 -> d3, plus an unrelated e -> d2.
        // Any conditioned descendant of b opens a-c, however far below.
        let g = DagBuilder::new()
            .nodes(["a", "b", "c", "d1", "d2", "d3", "e"])
            .edge("a", "b")
            .edge("c", "b")
            .edge("b", "d1")
            .edge("d1", "d2")
            .edge("d2", "d3")
            .edge("e", "d2")
            .build();
        check(&g, &["a"], &["c"], &[], true);
        check(&g, &["a"], &["c"], &["d3"], false);
        check(&g, &["a"], &["c"], &["d1", "d3"], false);
        check(&g, &["c"], &["a"], &["d3"], false);
        // d1 -> d2 <- e is a collider too; its descendant d3 opens it.
        check(&g, &["a"], &["e"], &["d3"], false);
        check(&g, &["a"], &["e"], &[], true);
    }

    #[test]
    fn mixed_path_with_open_and_blocked_routes() {
        // Two routes a->m->y and a->k<-y: with Z={} the chain route is open.
        // Conditioning on m blocks it and the collider stays blocked.
        let g = DagBuilder::new()
            .nodes(["a", "m", "k", "y"])
            .edge("a", "m")
            .edge("m", "y")
            .edge("a", "k")
            .edge("y", "k")
            .build();
        check(&g, &["a"], &["y"], &[], false);
        check(&g, &["a"], &["y"], &["m"], true);
        // Conditioning on m AND k re-opens via the collider.
        check(&g, &["a"], &["y"], &["m", "k"], false);
    }

    #[test]
    fn disconnected_nodes_always_separated() {
        let g = DagBuilder::new()
            .nodes(["a", "b", "z"])
            .edge("a", "z")
            .build();
        check(&g, &["a"], &["b"], &[], true);
        check(&g, &["a"], &["b"], &["z"], true);
    }

    #[test]
    fn set_valued_queries() {
        // s -> x1, s -> x2, x1 -> y
        let g = DagBuilder::new()
            .nodes(["s", "x1", "x2", "y"])
            .edge("s", "x1")
            .edge("s", "x2")
            .edge("x1", "y")
            .build();
        check(&g, &["x1", "x2"], &["y"], &[], false);
        check(&g, &["x2"], &["y"], &["s"], true);
        check(&g, &["x1", "x2"], &["y"], &["x1"], true); // x1 dropped into Z, x2 ⊥ y | x1? x2-s-x1-y blocked at x1
    }

    #[test]
    fn degenerate_conventions() {
        let g = DagBuilder::new().nodes(["a", "b"]).edge("a", "b").build();
        // Shared variable -> connected.
        check(&g, &["a"], &["a"], &[], false);
        // Conditioning drops the shared variable -> separated.
        check(&g, &["a"], &["a"], &["a"], true);
        // Empty side -> separated.
        let a = ids(&g, &["a"]);
        assert!(d_separated(&g, &a, &[], &[]));
    }

    #[test]
    fn figure_1a_properties() {
        // Paper Figure 1(a): S1 -> A1, S1 -> X2, A1 -> X1, X1 -> Y', X2 -> Y',
        // C1 -> X1 (C1 an exogenous cause). X1 ⊥ S1 | A1 must hold; X2 is
        // biased (X2 ̸⊥ S1 | A1).
        let g = DagBuilder::new()
            .nodes(["S1", "A1", "X1", "X2", "C1", "Y"])
            .edge("S1", "A1")
            .edge("S1", "X2")
            .edge("A1", "X1")
            .edge("C1", "X1")
            .edge("X1", "Y")
            .edge("X2", "Y")
            .build();
        check(&g, &["X1"], &["S1"], &["A1"], true);
        check(&g, &["X2"], &["S1"], &["A1"], false);
        check(&g, &["X1"], &["S1"], &[], false);
    }

    #[test]
    fn figure_1c_properties() {
        // Paper Figure 1(c): X1 ⊥ S1 | A1 and X3 ⊥ S1 | A2 but X3 ̸⊥ S1.
        // Edges: S1 -> A1 -> X1, S1 -> A2 -> X3, S1 -> X2, X2 -> Y, X1 -> Y,
        // C1 -> X1, C2 -> X2.
        let g = DagBuilder::new()
            .nodes(["S1", "A1", "A2", "X1", "X2", "X3", "C1", "C2", "Y"])
            .edge("S1", "A1")
            .edge("S1", "A2")
            .edge("A1", "X1")
            .edge("A2", "X3")
            .edge("S1", "X2")
            .edge("C1", "X1")
            .edge("C2", "X2")
            .edge("X1", "Y")
            .edge("X2", "Y")
            .build();
        check(&g, &["X1"], &["S1"], &["A1"], true);
        check(&g, &["X3"], &["S1"], &["A2"], true);
        check(&g, &["X3"], &["S1"], &[], false);
        check(&g, &["X2"], &["S1"], &["A1", "A2"], false);
    }

    #[test]
    fn conditioning_on_collider_ancestor_does_not_open() {
        // a -> b <- c, p -> a. Conditioning on p (ancestor of collider's
        // parent, NOT of the collider through b) must not open a-c.
        let g = DagBuilder::new()
            .nodes(["p", "a", "b", "c"])
            .edge("p", "a")
            .edge("a", "b")
            .edge("c", "b")
            .build();
        check(&g, &["a"], &["c"], &["p"], true);
    }

    #[test]
    fn long_chain_scales() {
        // 10k-node chain: endpoint pair separated by any interior node.
        let mut g = Dag::new();
        let n = 10_000;
        let nodes: Vec<NodeId> = (0..n)
            .map(|i| g.add_node(format!("v{i}")).unwrap())
            .collect();
        for w in nodes.windows(2) {
            g.add_edge(w[0], w[1]).unwrap();
        }
        assert!(!d_separated(&g, &[nodes[0]], &[nodes[n - 1]], &[]));
        assert!(d_separated(
            &g,
            &[nodes[0]],
            &[nodes[n - 1]],
            &[nodes[n / 2]]
        ));
    }

    #[test]
    fn intervention_changes_separation() {
        // s -> a -> x, with also s -> x. In G, x ̸⊥ s | {} and x ̸⊥ s | a.
        // In G with do(a) (cut s -> a), x ̸⊥ s still via direct edge; but for
        // x2 with only path through a: s -> a -> x2, in G_do(a): x2 ⊥ s.
        let g = DagBuilder::new()
            .nodes(["s", "a", "x", "x2"])
            .edge("s", "a")
            .edge("s", "x")
            .edge("a", "x")
            .edge("a", "x2")
            .build();
        let cut = g.intervene(&[g.expect_node("a")]);
        check(&cut, &["x2"], &["s"], &[], true);
        check(&cut, &["x"], &["s"], &[], false);
        check(&g, &["x2"], &["s"], &[], false);
    }
}
