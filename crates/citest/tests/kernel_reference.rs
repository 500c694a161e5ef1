//! Bit-identity of the discrete testers' arena kernels against the hashed
//! per-query kernels they replaced (`kernel_reference/reference.rs`).
//!
//! `GTest` and `PermutationCmi` count every query against a memoized CSR
//! stratification, in a dense flat table or a sparse arena chosen by the
//! cell space, at the codes' native width. The references count each query
//! from scratch through hashed strata over full-width joint codes. Every
//! outcome bit — `statistic`, `p_value`, `independent` — must agree,
//! through `ci_shared`, through `eval_z_group`, and through the engine's
//! Z-grouped executor at 1, 2, 4 and 8 workers.
//!
//! The shapes cover u8, u16 and u32 code widths on both sides and in the
//! conditioning set, a joint `Z` whose code space overflows u16, cell
//! spaces on both sides of the dense budget (each arena is asserted to
//! run, through `dense_count_cells`), conditioning sets that leave most
//! strata with one row, an all-singleton `Z`, an empty `Z` and empty sides.

#[path = "kernel_reference/reference.rs"]
mod reference;

use fairsel_ci::{
    canonical_set, CiOutcome, CiQueryRef, CiTestBatch, CiTestShared, GTest, PermutationCmi,
};
use fairsel_engine::{CiQuery, CiSession};
use fairsel_table::{Column, Role, Table};
use reference::{ReferenceGTest, ReferencePermutationCmi};

/// Deterministic xorshift stream.
struct Stream(u64);

impl Stream {
    fn new(seed: u64) -> Self {
        Stream(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, bound: u32) -> u32 {
        (self.next() % bound as u64) as u32
    }
}

fn cat(name: &str, codes: Vec<u32>, arity: u32) -> Column {
    Column::cat(name, Role::Feature, codes, arity)
}

/// Which counting arena a case's queries must reach.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Arena {
    /// At least one query fills the dense table.
    Dense,
    /// No query fills the dense table, and some query counts a nonzero
    /// statistic, so the sparse arena did the counting.
    Sparse,
}

struct Case {
    label: &'static str,
    table: Table,
    queries: Vec<CiQuery>,
    arena: Arena,
}

/// Columns at every code width: four binary (u8), two of arity 300 (u16,
/// and a joint code space of 90,000 that overflows u16), one of arity
/// 70,000 (u32), and a row id (every row its own stratum).
fn mixed_widths(rows: usize, seed: u64) -> Case {
    let mut s = Stream::new(seed);
    let mut draw = |arity: u32| (0..rows).map(|_| s.below(arity)).collect::<Vec<u32>>();
    let mut cols: Vec<Column> = (0..4).map(|i| cat(&format!("b{i}"), draw(2), 2)).collect();
    cols.push(cat("m0", draw(300), 300));
    cols.push(cat("m1", draw(300), 300));
    cols.push(cat("w0", draw(70_000), 70_000));
    cols.push(cat("id", (0..rows as u32).collect(), rows as u32));
    let q = CiQuery::new;
    Case {
        label: "mixed widths",
        table: Table::new(cols).expect("equal-length columns"),
        queries: vec![
            q(&[0], &[1], &[]),
            q(&[0], &[4], &[2]),
            q(&[1], &[2], &[4]),
            q(&[0], &[1], &[4, 5]),
            q(&[2], &[3], &[6]),
            q(&[4], &[0], &[1, 6]),
            q(&[0, 1], &[2], &[4]),
            q(&[1], &[0], &[3, 2]),
            // Cell spaces past the dense budget: u16 × u16 and u32 sides.
            q(&[4], &[5], &[0, 1]),
            q(&[6], &[0], &[2]),
            q(&[4, 5], &[1], &[]),
            // Every row its own stratum.
            q(&[2], &[3], &[7]),
            q(&[0, 1], &[4], &[7, 3]),
            // Empty sides.
            q(&[], &[3], &[1]),
            q(&[0], &[], &[]),
        ],
        arena: Arena::Dense,
    }
}

/// The shape of `stream-append`'s group tests: a conditioning set that
/// gives most rows a stratum of their own and the rest a few rows each,
/// against sides of joint arity 8 to 256 and a target that depends on them.
fn mostly_one_row(rows: usize, seed: u64) -> Case {
    let mut s = Stream::new(seed);
    let z: Vec<u32> = (0..rows as u32)
        .map(|i| if i % 8 < 3 { s.below(225) } else { 1000 + i })
        .collect();
    let x8: Vec<u32> = (0..rows).map(|_| s.below(8)).collect();
    let x32: Vec<u32> = (0..rows).map(|_| s.below(32)).collect();
    let y: Vec<u32> = (0..rows)
        .map(|r| (x8[r] + z[r] + u32::from(s.below(5) == 0)) % 2)
        .collect();
    let cols = vec![
        cat("z", z, 1000 + rows as u32),
        cat("x8", x8, 8),
        cat("x32", x32, 32),
        cat("y", y, 2),
    ];
    let q = CiQuery::new;
    Case {
        label: "mostly one-row strata",
        table: Table::new(cols).expect("equal-length columns"),
        queries: vec![
            q(&[1], &[3], &[0]),
            q(&[2], &[3], &[0]),
            q(&[3], &[1], &[0]),
            q(&[1, 2], &[3], &[0]),
            q(&[], &[3], &[0]),
        ],
        arena: Arena::Sparse,
    }
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

/// Outcomes through `eval_z_group`, one call per canonical conditioning
/// set, in query order.
fn grouped<T: CiTestBatch>(tester: &T, queries: &[CiQuery]) -> Vec<CiOutcome> {
    let mut out: Vec<Option<CiOutcome>> = vec![None; queries.len()];
    for (i, q) in queries.iter().enumerate() {
        if out[i].is_some() {
            continue;
        }
        let z = canonical_set(&q.z);
        let members: Vec<usize> = (i..queries.len())
            .filter(|&j| canonical_set(&queries[j].z) == z)
            .collect();
        let refs: Vec<CiQueryRef<'_>> = members
            .iter()
            .map(|&j| CiQueryRef {
                x: &queries[j].x,
                y: &queries[j].y,
                z: &queries[j].z,
            })
            .collect();
        for (j, o) in members.into_iter().zip(tester.eval_z_group(&z, &refs)) {
            out[j] = Some(o);
        }
    }
    out.into_iter()
        .map(|o| o.expect("every query grouped"))
        .collect()
}

/// Compare a production tester with its reference on one case, three
/// ways, and check which arena did the counting.
fn check<T, R>(case: &Case, tester: &str, make: impl Fn() -> T, reference: R)
where
    T: CiTestBatch,
    R: CiTestShared,
{
    let label = format!("{tester} on {}", case.label);
    let qs = &case.queries;
    let want: Vec<CiOutcome> = qs
        .iter()
        .map(|q| reference.ci_shared(&q.x, &q.y, &q.z))
        .collect();

    let single = make();
    let each: Vec<CiOutcome> = qs
        .iter()
        .map(|q| single.ci_shared(&q.x, &q.y, &q.z))
        .collect();
    assert_bits(&want, &each, &format!("{label}, ci_shared"));
    let dense = single.encode_cache_stats().dense_count_cells;
    match case.arena {
        Arena::Dense => assert!(dense > 0, "{label}: no query filled the dense arena"),
        Arena::Sparse => {
            assert_eq!(dense, 0, "{label}: a query filled the dense arena");
            assert!(
                want.iter().any(|o| o.statistic > 0.0),
                "{label}: the sparse arena counted nothing"
            );
        }
    }

    assert_bits(
        &want,
        &grouped(&make(), qs),
        &format!("{label}, eval_z_group"),
    );
    for workers in [1usize, 2, 4, 8] {
        let mut session = CiSession::new(make());
        let got = session.run_batch_grouped(qs, workers);
        assert_bits(&want, &got, &format!("{label}, workers={workers}"));
    }
}

fn cases() -> Vec<Case> {
    vec![
        mixed_widths(1200, 3),
        mixed_widths(700, 5),
        mostly_one_row(2000, 7),
        mostly_one_row(600, 11),
    ]
}

#[test]
fn gtest_matches_hashed_reference_at_every_shape_and_worker_count() {
    for case in cases() {
        check(
            &case,
            "g-test",
            || GTest::new(&case.table, 0.01),
            ReferenceGTest::new(&case.table, 0.01),
        );
    }
}

#[test]
fn perm_cmi_matches_hashed_reference_at_every_shape_and_worker_count() {
    for case in cases() {
        check(
            &case,
            "perm-cmi",
            || PermutationCmi::new(&case.table, 0.05, 19, 7),
            ReferencePermutationCmi::new(&case.table, 0.05, 19, 7),
        );
    }
}
