//! Linear-Gaussian structural causal models.
//!
//! Each variable is `X_v = b_v + Σ_p w_{p→v} · X_p + σ_v · ε_v` with
//! independent standard-normal noise. These models generate the continuous
//! workloads used to calibrate the RCIT conditional-independence test and
//! to reproduce Figure 3(b) (runtime vs. conditioning-set size), and they
//! make partial-correlation ground truth easy to reason about.

use fairsel_graph::{Dag, NodeId};
use fairsel_math::dist::sample_std_normal;
use rand::Rng;
use std::collections::HashMap;

/// A linear-Gaussian SCM over a DAG.
#[derive(Clone, Debug)]
pub struct GaussianScm {
    dag: Dag,
    /// Intercept per node.
    bias: Vec<f64>,
    /// Noise standard deviation per node.
    sigma: Vec<f64>,
    /// Edge weights keyed by (parent, child).
    // analyze: bounded-by one entry per edge of the fixed DAG
    weights: HashMap<(NodeId, NodeId), f64>,
    topo: Vec<NodeId>,
}

impl GaussianScm {
    /// Underlying causal graph.
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.dag.len()
    }

    /// True when the model has no variables.
    pub fn is_empty(&self) -> bool {
        self.dag.is_empty()
    }

    /// Weight of the edge `parent -> child` (0 when absent).
    pub fn weight(&self, parent: NodeId, child: NodeId) -> f64 {
        self.weights.get(&(parent, child)).copied().unwrap_or(0.0)
    }

    /// Sample one joint assignment into `out` (indexed by `NodeId`).
    pub fn sample_row<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        assert_eq!(out.len(), self.len(), "sample_row: buffer size mismatch");
        for &v in &self.topo {
            let mut val = self.bias[v.index()];
            for &p in self.dag.parents(v) {
                val += self.weight(p, v) * out[p.index()];
            }
            val += self.sigma[v.index()] * sample_std_normal(rng);
            out[v.index()] = val;
        }
    }

    /// Sample `n` rows column-major.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<Vec<f64>> {
        let mut cols = vec![Vec::with_capacity(n); self.len()];
        let mut row = vec![0.0; self.len()];
        for _ in 0..n {
            self.sample_row(rng, &mut row);
            for (c, &v) in cols.iter_mut().zip(&row) {
                c.push(v);
            }
        }
        cols
    }

    /// `do`-operator: clamp nodes to constants and cut their incoming edges.
    pub fn intervene(&self, assignments: &[(NodeId, f64)]) -> GaussianScm {
        let targets: Vec<NodeId> = assignments.iter().map(|&(v, _)| v).collect();
        let dag = self.dag.intervene(&targets);
        let mut bias = self.bias.clone();
        let mut sigma = self.sigma.clone();
        let mut weights = self.weights.clone();
        for &(v, val) in assignments {
            bias[v.index()] = val;
            sigma[v.index()] = 0.0;
            for p in self.dag.parents(v) {
                weights.remove(&(*p, v));
            }
        }
        let topo = dag.topological_order();
        GaussianScm {
            dag,
            bias,
            sigma,
            weights,
            topo,
        }
    }
}

/// Builder for [`GaussianScm`].
pub struct GaussianScmBuilder {
    dag: Dag,
    bias: Vec<f64>,
    sigma: Vec<f64>,
    // analyze: bounded-by one entry per edge of the fixed DAG
    weights: HashMap<(NodeId, NodeId), f64>,
}

impl GaussianScmBuilder {
    /// Start from a DAG with zero intercepts, unit noise, and zero weights.
    pub fn new(dag: Dag) -> Self {
        let n = dag.len();
        Self {
            dag,
            bias: vec![0.0; n],
            sigma: vec![1.0; n],
            weights: HashMap::new(),
        }
    }

    /// Set one edge weight. The edge must exist in the DAG.
    pub fn weight(mut self, parent: NodeId, child: NodeId, w: f64) -> Self {
        assert!(
            self.dag.has_edge(parent, child),
            "weight on missing edge {} -> {}",
            self.dag.name(parent),
            self.dag.name(child)
        );
        self.weights.insert((parent, child), w);
        self
    }

    /// Set a node's intercept.
    pub fn bias(mut self, v: NodeId, b: f64) -> Self {
        self.bias[v.index()] = b;
        self
    }

    /// Set a node's noise standard deviation (must be ≥ 0).
    pub fn sigma(mut self, v: NodeId, s: f64) -> Self {
        assert!(s >= 0.0, "sigma must be non-negative");
        self.sigma[v.index()] = s;
        self
    }

    /// Give every edge a random weight with magnitude in `[lo, hi]` and
    /// random sign.
    pub fn random_weights<R: Rng + ?Sized>(mut self, rng: &mut R, lo: f64, hi: f64) -> Self {
        assert!(0.0 <= lo && lo <= hi, "invalid weight range");
        for (f, t) in self.dag.edges() {
            let mag = rng.gen_range(lo..=hi);
            let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
            self.weights.insert((f, t), sign * mag);
        }
        self
    }

    /// Finish. Edges without an explicit weight default to 1.0.
    pub fn build(mut self) -> GaussianScm {
        for (f, t) in self.dag.edges() {
            self.weights.entry((f, t)).or_insert(1.0);
        }
        let topo = self.dag.topological_order();
        GaussianScm {
            dag: self.dag,
            bias: self.bias,
            sigma: self.sigma,
            weights: self.weights,
            topo,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsel_graph::DagBuilder;
    use fairsel_math::assert_close;
    use fairsel_math::stats::{mean, pearson_with, variance, Moments};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(77)
    }

    /// z -> x, z -> y: x and y correlated only through z.
    fn fork() -> GaussianScm {
        let g = DagBuilder::new()
            .nodes(["z", "x", "y"])
            .edge("z", "x")
            .edge("z", "y")
            .build();
        let z = g.expect_node("z");
        let x = g.expect_node("x");
        let y = g.expect_node("y");
        GaussianScmBuilder::new(g)
            .weight(z, x, 0.8)
            .weight(z, y, 0.8)
            .build()
    }

    #[test]
    fn marginal_moments_of_chain() {
        // x -> y with weight 2, bias 1 on y, unit noises:
        // E[y] = 1, Var[y] = 4·Var[x] + 1 = 5.
        let g = DagBuilder::new().nodes(["x", "y"]).edge("x", "y").build();
        let x = g.expect_node("x");
        let y = g.expect_node("y");
        let scm = GaussianScmBuilder::new(g)
            .weight(x, y, 2.0)
            .bias(y, 1.0)
            .build();
        let mut r = rng();
        let cols = scm.sample(&mut r, 100_000);
        assert_close!(mean(&cols[y.index()]), 1.0, 0.05);
        assert_close!(variance(&cols[y.index()]), 5.0, 0.15);
    }

    #[test]
    fn fork_induces_correlation() {
        let scm = fork();
        let mut r = rng();
        let cols = scm.sample(&mut r, 50_000);
        let x = scm.dag().expect_node("x").index();
        let y = scm.dag().expect_node("y").index();
        // theoretical corr = 0.64 / (sqrt(1.64)·sqrt(1.64)) ≈ 0.39
        let (xs, ys) = (&cols[x], &cols[y]);
        let rho = pearson_with(xs, Moments::of(xs), ys, Moments::of(ys));
        assert_close!(rho, 0.64 / 1.64, 0.02);
    }

    #[test]
    fn intervention_breaks_confounding() {
        let scm = fork();
        let x = scm.dag().expect_node("x");
        let y = scm.dag().expect_node("y");
        let cut = scm.intervene(&[(x, 3.0)]);
        let mut r = rng();
        let cols = cut.sample(&mut r, 20_000);
        // x clamped exactly.
        assert!(cols[x.index()].iter().all(|&v| v == 3.0));
        // y unaffected by do(x): mean stays 0.
        assert_close!(mean(&cols[y.index()]), 0.0, 0.05);
    }

    #[test]
    fn default_weight_is_one() {
        let g = DagBuilder::new().nodes(["a", "b"]).edge("a", "b").build();
        let a = g.expect_node("a");
        let b = g.expect_node("b");
        let scm = GaussianScmBuilder::new(g).build();
        assert_eq!(scm.weight(a, b), 1.0);
        assert_eq!(scm.weight(b, a), 0.0);
    }

    #[test]
    fn random_weights_within_range() {
        let g = DagBuilder::new()
            .nodes(["a", "b", "c"])
            .edge("a", "b")
            .edge("b", "c")
            .edge("a", "c")
            .build();
        let mut r = rng();
        let scm = GaussianScmBuilder::new(g)
            .random_weights(&mut r, 0.5, 1.5)
            .build();
        for (f, t) in scm.dag().edges() {
            let w = scm.weight(f, t).abs();
            assert!((0.5..=1.5).contains(&w), "weight {w} out of range");
        }
    }

    #[test]
    #[should_panic(expected = "missing edge")]
    fn weight_on_missing_edge_panics() {
        let g = DagBuilder::new().nodes(["a", "b"]).build();
        let a = g.expect_node("a");
        let b = g.expect_node("b");
        let _ = GaussianScmBuilder::new(g).weight(a, b, 1.0);
    }

    #[test]
    fn zero_sigma_is_deterministic_function() {
        let g = DagBuilder::new().nodes(["a", "b"]).edge("a", "b").build();
        let a = g.expect_node("a");
        let b = g.expect_node("b");
        let scm = GaussianScmBuilder::new(g)
            .weight(a, b, 2.0)
            .sigma(b, 0.0)
            .build();
        let mut r = rng();
        let cols = scm.sample(&mut r, 1000);
        for (bv, av) in cols[b.index()].iter().zip(&cols[a.index()]) {
            assert_close!(*bv, 2.0 * *av, 1e-12);
        }
    }
}
