//! Bit-identity of [`FisherZ`] against the row-major route it replaced
//! (`fisher_z_reference/reference.rs`).
//!
//! `FisherZ` residualizes straight from the columns and correlates through
//! memoized moments; the reference builds the design matrix, solves with
//! `Mat::ridge_solve`, multiplies with `Mat::matmul`, extracts each residual
//! with a strided read and runs the fused Pearson kernel per pair. Every
//! outcome bit — `statistic`, `p_value`, `independent` — must agree, through
//! `eval_z_group` and `ci_shared` directly and through the engine's
//! Z-grouped executor at 1, 2, 4 and 8 workers.
//!
//! The shapes straddle the kernels' edges: row counts around the fit's
//! 256-row chunk, conditioning sets around one and two 8-column
//! accumulator blocks and the 4-column block, and 1 to 20 right-hand
//! columns. The values are categorical codes, finite numbers
//! with 0.0, −0.0 and magnitudes up to 1e150, or numbers that also carry
//! NaN and ±∞. Inputs on which the reference panics are left out: where it
//! cannot factor the normal equations `FisherZ` drops collinear columns
//! instead, which the collinear-conditioning tests cover. A NaN or ±∞ in a
//! tested or conditioning column makes every statistic NaN, which both
//! routes' p-value panics on, so on those values the routes are also
//! compared at the level the kernels act on: the residual vectors.

#[path = "fisher_z_reference/reference.rs"]
mod reference;

use fairsel_ci::{CiOutcome, CiQueryRef, CiTestBatch, CiTestShared, FisherZ};
use fairsel_engine::{CiQuery, CiSession};
use fairsel_math::linalg::ridge_residuals;
use fairsel_table::{Column, Role, Table};
use reference::ReferenceFisherZ;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Deterministic xorshift stream.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Values {
    /// Every column holds categorical codes.
    Codes,
    /// Columns cycle through codes, numbers with 0.0 and −0.0, and numbers
    /// of magnitude up to 1e150.
    Finite,
    /// As `Finite`, with NaN and ±∞ among the small numbers.
    NonFinite,
}

fn column(kind: usize, values: Values, rows: usize, s: &mut Stream, name: String) -> Column {
    match kind {
        0 => {
            let arity = 2 + (s.next() % 4) as u32;
            let codes = (0..rows)
                .map(|_| (s.next() % arity as u64) as u32)
                .collect();
            Column::cat(name, Role::Feature, codes, arity)
        }
        1 => {
            let vals = (0..rows)
                .map(|_| match s.next() % 40 {
                    0..=5 => 0.0,
                    6 => -0.0,
                    7 if values == Values::NonFinite => f64::NAN,
                    8 if values == Values::NonFinite => f64::INFINITY,
                    9 if values == Values::NonFinite => f64::NEG_INFINITY,
                    _ => s.unit() * 8.0 - 4.0,
                })
                .collect();
            Column::num(name, Role::Feature, vals)
        }
        _ => {
            let vals = (0..rows)
                .map(|_| match s.next() % 10 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => (s.unit() - 0.5) * 10f64.powi((s.next() % 151) as i32),
                })
                .collect();
            Column::num(name, Role::Feature, vals)
        }
    }
}

/// A table whose first `nz` columns form the conditioning set and whose
/// next `nr` columns are the tested ones.
fn table(rows: usize, nz: usize, nr: usize, values: Values, seed: u64) -> Table {
    let mut s = Stream(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let cols = (0..nz + nr)
        .map(|c| {
            let kind = match values {
                Values::Codes => 0,
                _ => c % 3,
            };
            column(kind, values, rows, &mut s, format!("c{c}"))
        })
        .collect();
    Table::new(cols).expect("equal-length columns")
}

/// Pairs over the tested columns plus one query with multivariate sides,
/// all conditioned on `z`; together they touch all `nr` tested columns.
fn queries(nz: usize, nr: usize, z: &[usize]) -> Vec<CiQuery> {
    let tested: Vec<usize> = (nz..nz + nr).collect();
    let mut out: Vec<CiQuery> = tested
        .windows(2)
        .map(|w| CiQuery::new(&[w[0]], &[w[1]], z))
        .collect();
    let half = nr.div_ceil(2);
    out.push(CiQuery::new(&tested[..half], &tested[half..], z));
    if nr == 1 {
        out.push(CiQuery::new(&tested, &tested, z));
    }
    out
}

fn assert_bits(want: &[CiOutcome], got: &[CiOutcome], label: &str) {
    assert_eq!(want.len(), got.len(), "{label}: length");
    for (i, (a, b)) in want.iter().zip(got).enumerate() {
        assert_eq!(a.independent, b.independent, "{label}[{i}]: verdict");
        assert_eq!(
            a.p_value.to_bits(),
            b.p_value.to_bits(),
            "{label}[{i}]: p-value {} vs {}",
            a.p_value,
            b.p_value
        );
        assert_eq!(
            a.statistic.to_bits(),
            b.statistic.to_bits(),
            "{label}[{i}]: statistic {} vs {}",
            a.statistic,
            b.statistic
        );
    }
}

/// Row counts: tiny, around the fit's 256-row chunk, and large.
const ROWS: [usize; 7] = [1, 2, 3, 255, 256, 257, 5000];
/// Conditioning-set sizes: around one and two 8-wide accumulator blocks and
/// the 4-wide block (the design adds an intercept).
const ZSIZES: [usize; 10] = [0, 1, 2, 7, 8, 9, 15, 16, 17, 30];

#[test]
fn fisher_z_matches_row_major_reference_at_every_shape_and_worker_count() {
    let (mut compared, mut skipped) = (0, 0);
    for (a, &n) in ROWS.iter().enumerate() {
        for (b, &nz) in ZSIZES.iter().enumerate() {
            let case = (a * ZSIZES.len() + b) as u64;
            let nr = 1 + (case as usize * 7) % 20;
            for values in [Values::Codes, Values::Finite, Values::NonFinite] {
                let label = format!("n={n} |Z|={nz} rhs={nr} {values:?}");
                let t = table(n, nz, nr, values, case);
                let z: Vec<usize> = (0..nz).collect();
                let qs = queries(nz, nr, &z);
                let refs: Vec<CiQueryRef<'_>> = qs
                    .iter()
                    .map(|q| CiQueryRef {
                        x: &q.x,
                        y: &q.y,
                        z: &q.z,
                    })
                    .collect();
                let reference = ReferenceFisherZ::new(&t, 0.05);
                let Ok(want) = catch_unwind(AssertUnwindSafe(|| reference.outcomes(&z, &refs)))
                else {
                    skipped += 1;
                    continue;
                };
                compared += 1;

                let grouped = FisherZ::new(&t, 0.05).eval_z_group(&z, &refs);
                assert_bits(&want, &grouped, &format!("{label} eval_z_group"));
                let single = FisherZ::new(&t, 0.05);
                let each: Vec<CiOutcome> = qs
                    .iter()
                    .map(|q| single.ci_shared(&q.x, &q.y, &q.z))
                    .collect();
                assert_bits(&want, &each, &format!("{label} ci_shared"));
                for workers in [1usize, 2, 4, 8] {
                    let mut session = CiSession::new(FisherZ::new(&t, 0.05));
                    let got = session.run_batch_grouped(&qs, workers);
                    assert_bits(&want, &got, &format!("{label} workers={workers}"));
                }
            }
        }
    }
    assert!(
        compared >= 2 * skipped,
        "the reference panicked on {skipped} of {} cases",
        compared + skipped
    );
}

/// Equal bits, or both NaN: Rust leaves the sign and payload of a NaN
/// result unspecified, and the optimizer may commute the operands that
/// pick them.
fn same_value(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Equal bits, or both non-finite. Where the row-major route skips a zero
/// factor against a NaN or ±∞ the kernels add `0 · ∞ = NaN`; that happens
/// only in a residual vector the non-finite value has already made
/// non-finite throughout, in both routes.
fn same_or_both_non_finite(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (!a.is_finite() && !b.is_finite())
}

/// The kernels against the row-major route, residual vector by residual
/// vector, on the same shapes and values: bit for bit on finite inputs,
/// and up to non-finite values on inputs with NaN or ±∞.
#[test]
fn ridge_residuals_match_row_major_reference_bit_for_bit() {
    let (mut compared, mut skipped) = (0, 0);
    for (a, &n) in ROWS.iter().enumerate() {
        for (b, &nz) in ZSIZES.iter().enumerate() {
            let case = (a * ZSIZES.len() + b) as u64;
            let nr = 1 + (case as usize * 11) % 20;
            for values in [Values::Codes, Values::Finite, Values::NonFinite] {
                let t = table(n, nz, nr, values, case + 1000);
                let reference = ReferenceFisherZ::new(&t, 0.05);
                let (zkey, need): (Vec<usize>, Vec<usize>) =
                    ((0..nz).collect(), (nz..nz + nr).collect());
                let Ok(want) = catch_unwind(AssertUnwindSafe(|| reference.residuals(&zkey, &need)))
                else {
                    skipped += 1;
                    continue;
                };
                compared += 1;
                let cols: Vec<Vec<f64>> = (0..nz + nr).map(|c| t.col(c).to_f64()).collect();
                let zcols: Vec<&[f64]> = cols[..nz].iter().map(Vec::as_slice).collect();
                let targets: Vec<&[f64]> = cols[nz..].iter().map(Vec::as_slice).collect();
                let finite = cols.iter().flatten().all(|v| v.is_finite());
                let same = if finite {
                    same_value
                } else {
                    same_or_both_non_finite
                };
                let got = ridge_residuals(&zcols, &targets, 1e-8);
                assert_eq!(want.len(), got.len());
                for (c, (w, g)) in want.iter().zip(&got).enumerate() {
                    assert!(
                        w.len() == g.len() && w.iter().zip(g).all(|(u, v)| same(*u, *v)),
                        "n={n} |Z|={nz} rhs={nr} {values:?}: residual {c} differs"
                    );
                }
            }
        }
    }
    assert!(
        compared >= 8 * skipped,
        "the reference panicked on {skipped} of {} cases",
        compared + skipped
    );
}
