//! `d_separated` and `Reachable` checked against a reference Bayes ball
//! on random DAGs.
//!
//! The library's `d_separated` walks from the smaller test side, stops at
//! the first node of the other side it reaches, and opens colliders by
//! bouncing off `Z` instead of precomputing the ancestors of `Z`. The
//! reference below is the plain algorithm it replaced: mark `Z` and its
//! ancestors, walk from `X` until the ball can move no further, then ask
//! whether any node of `Y` was reached. Both must give the same answer on
//! every query, including the degenerate ones (sides that overlap, repeat
//! a node, meet `Z`, or are empty). `Reachable`, the same walk run to the
//! end from one side, must reach exactly the reference's nodes and answer
//! every other side by membership as the reference does.
//!
//! Cases are generated from seeded RNG loops (the environment vendors no
//! property-testing framework); a failure names the graph seed and the
//! query, so it reproduces deterministically.

use fairsel_graph::{d_separated, random_dag, Dag, NodeId, RandomDagConfig, Reachable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod reference {
    use fairsel_graph::{Dag, NodeId};

    /// Travel direction of the "ball" when it arrives at a node.
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Dir {
        /// Arrived from a child (moving towards parents).
        Up,
        /// Arrived from a parent (moving towards children).
        Down,
    }

    /// Set of nodes reachable from `sources` via paths that are active
    /// given `given` (the conditioning set). `sources` themselves are
    /// included.
    pub fn reachable(dag: &Dag, sources: &[NodeId], given: &[NodeId]) -> Vec<bool> {
        let n = dag.len();
        let mut in_z = vec![false; n];
        for &z in given {
            in_z[z.index()] = true;
        }
        // A = Z ∪ ancestors(Z): the nodes at which a collider is unblocked.
        let mut in_anc_z = dag.ancestor_mask(given);
        for &z in given {
            in_anc_z[z.index()] = true;
        }

        let mut visited_up = vec![false; n];
        let mut visited_down = vec![false; n];
        let mut reach = vec![false; n];
        let mut stack: Vec<(NodeId, Dir)> = Vec::with_capacity(sources.len() * 2);
        for &s in sources {
            stack.push((s, Dir::Up));
        }
        while let Some((v, dir)) = stack.pop() {
            let i = v.index();
            let seen = match dir {
                Dir::Up => &mut visited_up[i],
                Dir::Down => &mut visited_down[i],
            };
            if *seen {
                continue;
            }
            *seen = true;
            if !in_z[i] {
                reach[i] = true;
            }
            match dir {
                Dir::Up => {
                    if !in_z[i] {
                        for &p in dag.parents(v) {
                            stack.push((p, Dir::Up));
                        }
                        for &c in dag.children(v) {
                            stack.push((c, Dir::Down));
                        }
                    }
                }
                Dir::Down => {
                    if !in_z[i] {
                        // Chain: continue downwards.
                        for &c in dag.children(v) {
                            stack.push((c, Dir::Down));
                        }
                    }
                    if in_anc_z[i] {
                        // Collider at v is open (v ∈ Z or has a descendant
                        // in Z): bounce back up to the other parents.
                        for &p in dag.parents(v) {
                            stack.push((p, Dir::Up));
                        }
                    }
                }
            }
        }
        reach
    }

    /// `X ⊥_d Y | Z` with the library's conventions for degenerate inputs:
    /// side members in `Z` are dropped, a shared variable connects, an
    /// empty side is separated.
    pub fn d_separated(dag: &Dag, x: &[NodeId], y: &[NodeId], z: &[NodeId]) -> bool {
        let in_z = |v: &NodeId| z.contains(v);
        let xs: Vec<NodeId> = x.iter().copied().filter(|v| !in_z(v)).collect();
        let ys: Vec<NodeId> = y.iter().copied().filter(|v| !in_z(v)).collect();
        if xs.is_empty() || ys.is_empty() {
            return true;
        }
        if xs.iter().any(|v| ys.contains(v)) {
            return false;
        }
        let reach = reachable(dag, &xs, z);
        !ys.iter().any(|v| reach[v.index()])
    }
}

const GRAPHS: u64 = 1_000;
const QUERIES_PER_GRAPH: usize = 60;

/// A side of `len` nodes drawn with replacement, so repeats occur.
fn draw(rng: &mut StdRng, dag: &Dag, len: usize) -> Vec<NodeId> {
    (0..len)
        .map(|_| NodeId(rng.gen_range(0..dag.len() as u32)))
        .collect()
}

/// Side length: mostly small, sometimes up to the whole graph, sometimes 0.
fn side_len(rng: &mut StdRng, n: usize) -> usize {
    match rng.gen_range(0..10) {
        0 => 0,
        1 | 2 => rng.gen_range(1..=n),
        _ => rng.gen_range(1..=n.min(4)),
    }
}

/// Graph `seed`: 2–80 nodes, 0–6 maximum parents, density anywhere in
/// [0, 1].
fn graph(seed: u64) -> Dag {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = RandomDagConfig {
        nodes: rng.gen_range(2..=80),
        max_parents: rng.gen_range(0..=6),
        density: rng.gen::<f64>(),
        ..Default::default()
    };
    random_dag(&mut rng, &cfg)
}

/// One random query; with some probability the sides are made to share a
/// node and `Z` is made to contain side nodes.
fn query(rng: &mut StdRng, dag: &Dag) -> [Vec<NodeId>; 3] {
    let n = dag.len();
    let x_len = side_len(rng, n);
    let mut x = draw(rng, dag, x_len);
    let y_len = side_len(rng, n);
    let mut y = draw(rng, dag, y_len);
    let z_len = match rng.gen_range(0..4) {
        0 => 0,
        _ => rng.gen_range(0..=n / 2),
    };
    let mut z = draw(rng, dag, z_len);
    if !x.is_empty() && rng.gen_bool(0.15) {
        y.push(x[rng.gen_range(0..x.len())]);
    }
    if !x.is_empty() && rng.gen_bool(0.2) {
        z.push(x[rng.gen_range(0..x.len())]);
    }
    if !y.is_empty() && rng.gen_bool(0.2) {
        z.push(y[rng.gen_range(0..y.len())]);
    }
    if rng.gen_bool(0.1) {
        std::mem::swap(&mut x, &mut y);
    }
    [x, y, z]
}

fn has_repeat(side: &[NodeId]) -> bool {
    side.iter().enumerate().any(|(i, v)| side[..i].contains(v))
}

#[test]
fn d_separated_matches_reference_bayes_ball() {
    let mut queries = 0usize;
    let (mut separated, mut overlapping, mut repeating, mut meeting_z, mut empty) =
        (0usize, 0usize, 0usize, 0usize, 0usize);
    for seed in 0..GRAPHS {
        let dag = graph(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_d5e9);
        for _ in 0..QUERIES_PER_GRAPH {
            let [x, y, z] = query(&mut rng, &dag);
            let want = reference::d_separated(&dag, &x, &y, &z);
            let got = d_separated(&dag, &x, &y, &z);
            assert_eq!(
                got,
                want,
                "graph seed {seed}: {x:?} ⊥ {y:?} | {z:?} in [{}]",
                dag.to_text()
            );
            // Symmetry: swapping the sides never changes the answer.
            assert_eq!(d_separated(&dag, &y, &x, &z), want, "graph seed {seed}");
            queries += 1;
            separated += want as usize;
            overlapping += x.iter().any(|v| y.contains(v)) as usize;
            repeating += (has_repeat(&x) || has_repeat(&y)) as usize;
            meeting_z += x.iter().chain(&y).any(|v| z.contains(v)) as usize;
            empty += (x.is_empty() || y.is_empty()) as usize;
        }
    }
    assert!(queries >= 50_000, "only {queries} queries");
    // The generator reaches every kind of query it is meant to.
    for (what, count) in [
        ("separated", separated),
        ("connected", queries - separated),
        ("overlapping sides", overlapping),
        ("repeated nodes", repeating),
        ("sides meeting Z", meeting_z),
        ("empty sides", empty),
    ] {
        assert!(count >= 500, "only {count} queries with {what}");
    }
}

/// A wide side against a single node, both ways round, on graphs large
/// enough that starting from the smaller side and stopping early matter.
#[test]
fn wide_side_against_one_node_matches_reference() {
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = RandomDagConfig {
            nodes: 400,
            max_parents: rng.gen_range(1..=4),
            density: rng.gen::<f64>(),
            ..Default::default()
        };
        let dag = random_dag(&mut rng, &cfg);
        let target = NodeId(rng.gen_range(0..400));
        let nodes: Vec<NodeId> = dag.nodes().filter(|&v| v != target).collect();
        let (wide, z): (Vec<NodeId>, Vec<NodeId>) = nodes.iter().partition(|_| rng.gen_bool(0.5));
        let want = reference::d_separated(&dag, &wide, &[target], &z);
        assert_eq!(d_separated(&dag, &wide, &[target], &z), want, "seed {seed}");
        assert_eq!(d_separated(&dag, &[target], &wide, &z), want, "seed {seed}");
    }
}

/// The walk run to the end from one side (`Reachable`) reaches exactly
/// the nodes the reference reaches, and its membership answer for any
/// other side is the reference's d-separation — on sides that meet `Z`,
/// share a node with the other side, or are empty.
#[test]
fn reachable_set_membership_matches_reference() {
    let (mut sets, mut answers) = (0usize, 0usize);
    let (mut meeting_z, mut sharing, mut empty) = (0usize, 0usize, 0usize);
    for seed in 0..GRAPHS / 2 {
        let dag = graph(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0ea5_ab1e);
        for _ in 0..QUERIES_PER_GRAPH / 10 {
            let [side, other, z] = query(&mut rng, &dag);
            let reach = Reachable::new(&dag, &side, &z);
            let want = reference::reachable(&dag, &side, &z);
            for v in dag.nodes() {
                assert_eq!(
                    reach.contains(v),
                    want[v.index()],
                    "graph seed {seed}: {v:?} from {side:?} | {z:?}"
                );
            }
            sets += 1;
            // The wave: several other sides against the one set.
            let mut others = vec![other, Vec::new()];
            others.extend((0..8).map(|_| {
                let len = side_len(&mut rng, dag.len());
                draw(&mut rng, &dag, len)
            }));
            for other in &others {
                assert_eq!(
                    !other.iter().any(|&v| reach.contains(v)),
                    reference::d_separated(&dag, other, &side, &z),
                    "graph seed {seed}: {other:?} ⊥ {side:?} | {z:?}"
                );
                answers += 1;
                meeting_z += other.iter().chain(&side).any(|v| z.contains(v)) as usize;
                sharing += other.iter().any(|v| side.contains(v)) as usize;
                empty += (other.is_empty() || side.is_empty()) as usize;
            }
        }
    }
    assert!(
        sets >= 2_500 && answers >= 25_000,
        "{sets} sets, {answers} answers"
    );
    for (what, count) in [
        ("sides meeting Z", meeting_z),
        ("sides sharing a node", sharing),
        ("empty sides", empty),
    ] {
        assert!(count >= 500, "only {count} answers with {what}");
    }
}
