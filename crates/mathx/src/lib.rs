//! Numerics substrate for the fairsel workspace.
//!
//! Everything the reproduction needs that would normally come from SciPy /
//! R is implemented here from scratch so the rest of the workspace stays
//! dependency-free:
//!
//! * [`special`] — log-gamma, regularized incomplete gamma, error function,
//!   and the chi-square / gamma / normal CDFs built on top of them. These
//!   power every p-value computed by the conditional-independence testers.
//! * [`linalg`] — a small dense row-major matrix type with the operations
//!   the RCIT test and the classifiers need (plain-loop products,
//!   Cholesky, SPD solves, ridge regression), and Fisher-z's ridge
//!   residuals computed straight from the columns.
//! * [`dist`] — sampling distributions that `rand` itself does not ship:
//!   standard normal (Box–Muller with caching), gamma (Marsaglia–Tsang),
//!   Dirichlet, and a Walker alias table for fast categorical sampling
//!   inside the SCM ancestral sampler.
//! * [`stats`] — descriptive statistics (mean, variance, median/quantile,
//!   standardization) used by featurizers and test harnesses.

pub mod dist;
pub mod linalg;
pub mod special;
pub mod stats;

pub use linalg::Mat;

/// Convergence tolerance shared by the iterative special-function routines.
pub(crate) const EPS: f64 = 1e-14;

/// Assert two floats are within `tol`, with a useful failure message.
///
/// Exposed so downstream crates' tests can reuse it.
#[macro_export]
macro_rules! assert_close {
    ($a:expr, $b:expr, $tol:expr) => {{
        let (a, b, tol) = ($a as f64, $b as f64, $tol as f64);
        assert!(
            (a - b).abs() <= tol,
            "assert_close failed: {a} vs {b} (|diff| = {} > tol {tol})",
            (a - b).abs()
        );
    }};
}
