//! Dependency-light timing harness: SeqSel vs GrpSel through the
//! execution engine, on oracle and data testers, over the synthetic
//! fixtures — the numbers behind `BENCH_engine.json`.
//!
//! Everything is measured with `std::time::Instant`; no external
//! benchmarking framework. Each scenario reports CI tests issued (the
//! paper's complexity currency), engine cache behavior, and wall time.
//! Timed scenarios run `repeats` times on fresh sessions and report the
//! **median** wall time (single-shot numbers on shared hardware jitter
//! more than the deltas being measured); counters are deterministic
//! across repeats, so any repeat's counters are the counters.

use fairsel_ci::{CiTest, CiTestBatch, FisherZ, GTest, KernelMode, OracleCi};
use fairsel_core::{grpsel_batched_in, grpsel_in, seqsel_in, Problem, SelectConfig};
use fairsel_datasets::sim::sample_table;
use fairsel_datasets::synthetic::{synthetic_instance, synthetic_scm, SyntheticConfig};
use fairsel_engine::{default_workers, CiSession};
use fairsel_table::{EncodedTable, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// One measured run.
#[derive(Clone, Debug, Default)]
pub struct BenchResult {
    /// Scenario label, e.g. `oracle/n=256`.
    pub scenario: String,
    /// Algorithm label, e.g. `grpsel-batched-par4`.
    pub algo: String,
    /// Number of candidate features in the instance.
    pub n_features: usize,
    /// Logical queries routed through the engine.
    pub requested: u64,
    /// CI tests actually issued (post-cache).
    pub issued: u64,
    /// Cache hits (memo + in-batch dedup).
    pub cache_hits: u64,
    /// Encoding-layer cache hits (variable-set encodings reused).
    pub encode_hits: u64,
    /// Encoding-layer cache misses (encodings computed).
    pub encode_misses: u64,
    /// End-to-end selection wall time, milliseconds (median of repeats).
    pub wall_ms: f64,
    /// Request payload bytes shipped over the wire per request (frame
    /// header included) — `0` for non-serving scenarios. The
    /// fp-addressed serving row proves warm requests shrink to bytes.
    pub req_bytes: u64,
    /// Features the run selected.
    pub selected: usize,
    /// Per-request latency percentiles, milliseconds — `0` for scenarios
    /// that measure one aggregate wall time instead of a distribution.
    /// Derived from a log2-bucketed [`fairsel_obs::Histogram`], so
    /// `p50 <= p95 <= p99 <= max` holds by construction (the validator
    /// enforces it wherever `hist_total > 0`).
    pub p50_ms: f64,
    /// 95th-percentile request latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile request latency, milliseconds.
    pub p99_ms: f64,
    /// Maximum observed request latency, milliseconds.
    pub max_ms: f64,
    /// Number of per-request samples behind the percentiles.
    pub hist_total: u64,
    /// Table rows in the instance — `0` for scenarios that don't sweep
    /// the row count (only `rows-scaling/*` populates it).
    pub rows: u64,
    /// Wall time normalized per table row, nanoseconds — the
    /// hardware-shaped-kernel currency (`0` outside `rows-scaling/*`).
    pub ns_per_row: f64,
    /// Hex FNV digest of every memoized outcome's exact bit patterns
    /// (p-value, statistic, verdict) in canonical key order. Rows of the
    /// same scenario must agree — the validator-enforced proof that the
    /// kernel variants being timed are byte-identical. Empty for
    /// scenarios that don't compare kernels.
    pub pvalue_hash: String,
    /// Contingency cells filled through the dense counting arenas.
    pub dense_count_cells: u64,
    /// Bytes of width-adaptive (u8/u16/u32) code storage built.
    pub narrow_code_bytes: u64,
    /// Rows appended to a resident dataset before this run — nonzero only
    /// for the `append/reselect` warm rows, where the validator requires
    /// it (the proof the session was extended, not rebuilt).
    pub append_rows: u64,
    /// Cached variable-set encodings carried across the append by
    /// [`fairsel_table::EncodedTable::extend`] instead of being recomputed
    /// — the streaming-append reuse currency, validator-enforced nonzero
    /// on the warm rows.
    pub extended_encodings: u64,
    /// Memoized outcomes re-derived at the new `n` from patched
    /// sufficient statistics at session extension — nonzero only on the
    /// `append-reselect-patched` rows, where the validator requires it
    /// (the proof the re-select paid O(batch) statistical work, not
    /// O(workload)).
    pub memo_patched: u64,
    /// Memoized outcomes the extension could not patch (evicted counts,
    /// unstable encodings, non-patchable tester) — re-issued on demand.
    /// Together with `memo_patched` this conserves the parent's memo
    /// size, validator-enforced against the invalidate-all baseline row.
    pub memo_invalidated: u64,
}

impl BenchResult {
    fn json(&self) -> String {
        format!(
            "{{\"scenario\":\"{}\",\"algo\":\"{}\",\"n_features\":{},\
             \"requested\":{},\"issued\":{},\"cache_hits\":{},\
             \"encode_hits\":{},\"encode_misses\":{},\
             \"wall_ms\":{:.3},\"req_bytes\":{},\"selected\":{},\
             \"p50_ms\":{:.3},\"p95_ms\":{:.3},\"p99_ms\":{:.3},\
             \"max_ms\":{:.3},\"hist_total\":{},\"rows\":{},\
             \"ns_per_row\":{:.3},\"pvalue_hash\":\"{}\",\
             \"dense_count_cells\":{},\"narrow_code_bytes\":{},\
             \"append_rows\":{},\"extended_encodings\":{},\
             \"memo_patched\":{},\"memo_invalidated\":{}}}",
            self.scenario,
            self.algo,
            self.n_features,
            self.requested,
            self.issued,
            self.cache_hits,
            self.encode_hits,
            self.encode_misses,
            self.wall_ms,
            self.req_bytes,
            self.selected,
            self.p50_ms,
            self.p95_ms,
            self.p99_ms,
            self.max_ms,
            self.hist_total,
            self.rows,
            self.ns_per_row,
            self.pvalue_hash,
            self.dense_count_cells,
            self.narrow_code_bytes,
            self.append_rows,
            self.extended_encodings,
            self.memo_patched,
            self.memo_invalidated
        )
    }

    /// Fill the percentile columns from a recorded latency histogram
    /// (µs buckets → ms columns).
    fn set_latency(&mut self, snap: &fairsel_obs::HistSnapshot) {
        self.p50_ms = snap.p50() as f64 / 1e3;
        self.p95_ms = snap.p95() as f64 / 1e3;
        self.p99_ms = snap.p99() as f64 / 1e3;
        self.max_ms = snap.max as f64 / 1e3;
        self.hist_total = snap.count;
    }
}

/// Run a scenario `repeats` times on fresh state and keep the median wall
/// time. Counters are taken from the median run; every run's counters are
/// identical by determinism (fresh sessions, fixed seeds).
fn median_of_repeats(repeats: usize, run: impl Fn() -> BenchResult) -> BenchResult {
    let mut results: Vec<BenchResult> = (0..repeats.max(1)).map(|_| run()).collect();
    results.sort_by(|a, b| a.wall_ms.total_cmp(&b.wall_ms));
    let mid = results.len() / 2;
    results.swap_remove(mid)
}

/// Serialize a suite to a JSON document (an object with a `runs` array),
/// ready to be written as `BENCH_engine.json`.
pub fn to_json(results: &[BenchResult]) -> String {
    let mut s = String::from("{\"bench\":\"fairsel-engine\",\"runs\":[");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&r.json());
    }
    s.push_str("]}");
    s
}

fn measure<T: CiTest, F>(
    scenario: &str,
    algo: &str,
    n_features: usize,
    session: &mut CiSession<T>,
    run: F,
) -> BenchResult
where
    F: FnOnce(&mut CiSession<T>) -> usize,
{
    let t0 = Instant::now();
    let selected = run(session);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let stats = session.stats();
    // Counter-completeness self-check: every EngineStats counter must
    // survive into the serialized stats document (the R5 contract),
    // verified live on every measured run.
    if let Err(e) = validate_stats_json(&stats.to_json()) {
        panic!("engine stats serialization lost a counter: {e}");
    }
    BenchResult {
        scenario: scenario.to_owned(),
        algo: algo.to_owned(),
        n_features,
        requested: stats.requested,
        issued: stats.issued,
        cache_hits: stats.cache_hits,
        encode_hits: stats.encode_cache_hits,
        encode_misses: stats.encode_cache_misses,
        wall_ms,
        req_bytes: 0,
        selected,
        ..Default::default()
    }
}

/// SeqSel vs GrpSel (reference path and Z-grouped scheduler) against the
/// d-separation oracle on fairness-structured synthetic DAGs of growing
/// width — the `O(n)` vs `O(k log n)` curve of Figures 4–5.
pub fn oracle_scaling(sizes: &[usize], workers: usize, repeats: usize) -> Vec<BenchResult> {
    let mut out = Vec::new();
    for &n in sizes {
        let cfg = SyntheticConfig {
            n_features: n,
            biased_fraction: 0.05,
            ..Default::default()
        };
        let inst = synthetic_instance(&mut StdRng::seed_from_u64(n as u64), &cfg);
        let problem = Problem::from_roles(&inst.roles);
        let select = SelectConfig::default();
        let scenario = format!("oracle/n={n}");

        out.push(median_of_repeats(repeats, || {
            let mut session = CiSession::new(OracleCi::from_dag(inst.dag.clone()));
            measure(&scenario, "seqsel", n, &mut session, |s| {
                seqsel_in(s, &problem, &select).selected().len()
            })
        }));
        out.push(median_of_repeats(repeats, || {
            let mut session = CiSession::new(OracleCi::from_dag(inst.dag.clone()));
            measure(&scenario, "grpsel", n, &mut session, |s| {
                grpsel_in(s, &problem, &select, None).selected().len()
            })
        }));
        let algo = format!("grpsel-batched-par{workers}");
        out.push(median_of_repeats(repeats, || {
            let mut session = CiSession::new(OracleCi::from_dag(inst.dag.clone()));
            measure(&scenario, &algo, n, &mut session, |s| {
                grpsel_batched_in(s, &problem, &select, None, workers)
                    .selected()
                    .len()
            })
        }));
    }
    out
}

/// SeqSel vs GrpSel with the G-test on sampled data — the finite-sample
/// regime where each CI test costs real work and Z-grouped batches pay
/// off.
pub fn data_scaling(
    n_features: usize,
    rows: usize,
    workers: usize,
    repeats: usize,
) -> Vec<BenchResult> {
    let cfg = SyntheticConfig {
        n_features,
        biased_fraction: 0.1,
        predictive_fraction: 0.25,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(42);
    let inst = synthetic_instance(&mut rng, &cfg);
    let scm = synthetic_scm(&mut rng, &inst, 1.5);
    let table = sample_table(&scm, &inst.roles, rows, &mut rng);
    let problem = Problem::from_table(&table);
    let select = SelectConfig::default();
    let scenario = format!("gtest/n={n_features}/rows={rows}");
    let mut out = Vec::new();

    out.push(median_of_repeats(repeats, || {
        let mut session = CiSession::new(GTest::new(&table, 0.01));
        measure(&scenario, "seqsel", n_features, &mut session, |s| {
            seqsel_in(s, &problem, &select).selected().len()
        })
    }));
    out.push(median_of_repeats(repeats, || {
        let mut session = CiSession::new(GTest::new(&table, 0.01));
        measure(&scenario, "grpsel", n_features, &mut session, |s| {
            grpsel_in(s, &problem, &select, None).selected().len()
        })
    }));
    let algo = format!("grpsel-batched-par{workers}");
    out.push(median_of_repeats(repeats, || {
        let mut session = CiSession::new(GTest::new(&table, 0.01));
        measure(&scenario, &algo, n_features, &mut session, |s| {
            grpsel_batched_in(s, &problem, &select, None, workers)
                .selected()
                .len()
        })
    }));
    out
}

/// The batch-execution story: GrpSel with the G-test (and Fisher-z)
/// through both execution paths on the same instance and seed —
///
/// * `grpsel-nocache`: the reference path, one query at a time, every
///   query re-deriving its joint encodings (memoization disabled — the
///   pre-`EncodedTable` data path);
/// * `grpsel-batched-parN`: the **Z-grouped scheduler** — frontiers
///   partitioned by canonical conditioning set, one scaffold per distinct
///   `Z` (`eval_z_group`), group chunks stolen from the persistent worker
///   pool's shared deque at N workers.
///
/// Selections are byte-identical across both (property-tested in
/// `fairsel-tests`); the rows differ only in wall time and counters.
pub fn data_tester_modes(
    n_features: usize,
    rows: usize,
    workers: usize,
    repeats: usize,
) -> Vec<BenchResult> {
    // A high biased fraction keeps many features in play for phase 2,
    // whose frontier conditions every query on the same wide `A ∪ C₁`
    // set — exactly the shape where per-query re-encoding hurts most.
    let cfg = SyntheticConfig {
        n_features,
        biased_fraction: 0.4,
        predictive_fraction: 0.25,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(42);
    let inst = synthetic_instance(&mut rng, &cfg);
    let scm = synthetic_scm(&mut rng, &inst, 1.5);
    let table = sample_table(&scm, &inst.roles, rows, &mut rng);
    let problem = Problem::from_table(&table);
    let select = SelectConfig {
        max_group: Some(SelectConfig::auto_max_group(rows)),
        ..Default::default()
    };
    let mut out = Vec::new();
    let gtest_scenario = format!("gtest-batch/n={n_features}/rows={rows}");
    modes_for(
        &mut out,
        &gtest_scenario,
        n_features,
        &problem,
        &select,
        workers,
        repeats,
        |cached| GTest::over(encoded(&table, cached), 0.01),
    );
    let fz_scenario = format!("fisherz-batch/n={n_features}/rows={rows}");
    modes_for(
        &mut out,
        &fz_scenario,
        n_features,
        &problem,
        &select,
        workers,
        repeats,
        |cached| FisherZ::over(encoded(&table, cached), 0.01),
    );
    out
}

/// Pool scaling of the Z-grouped scheduler: the same G-test workload at
/// 1/2/4/8 workers. On a single-core host the curve is flat — that is
/// the honest reading; the scenario exists so multi-core hosts (and
/// regressions in pool dispatch overhead) are visible in the committed
/// numbers.
pub fn workers_scaling(n_features: usize, rows: usize, repeats: usize) -> Vec<BenchResult> {
    let cfg = SyntheticConfig {
        n_features,
        biased_fraction: 0.4,
        predictive_fraction: 0.25,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(42);
    let inst = synthetic_instance(&mut rng, &cfg);
    let scm = synthetic_scm(&mut rng, &inst, 1.5);
    let table = sample_table(&scm, &inst.roles, rows, &mut rng);
    let problem = Problem::from_table(&table);
    let select = SelectConfig {
        max_group: Some(SelectConfig::auto_max_group(rows)),
        ..Default::default()
    };
    let scenario = format!("workers-scaling/n={n_features}/rows={rows}");
    [1usize, 2, 4, 8]
        .into_iter()
        .map(|w| {
            let algo = format!("grpsel-batched-par{w}");
            median_of_repeats(repeats, || {
                let mut session = CiSession::new(GTest::over(encoded(&table, true), 0.01));
                measure(&scenario, &algo, n_features, &mut session, |s| {
                    grpsel_batched_in(s, &problem, &select, None, w)
                        .selected()
                        .len()
                })
            })
        })
        .collect()
}

/// The hardware-shaped-kernel story: the same GrpSel workload at growing
/// row counts, each kernel generation timed on identical queries. Two
/// scenario families:
///
/// * `rows-scaling/gtest/rows=R` — `kernels-narrow` (width-adaptive
///   codes, dense counting arenas, memoized CSR scaffolds) vs
///   `kernels-reference` (the pre-kernel path: u32-widened codes, hashed
///   or freshly allocated per-query counting);
/// * `rows-scaling/fisherz/rows=R` — `kernels-blocked` (fused
///   two-pass Pearson, cache-blocked products, triangular Gram
///   formation) vs `kernels-naive` (the reference loops, forced via
///   the process-wide toggle).
///
/// Every row carries `ns_per_row` (the per-row kernel cost) and
/// `pvalue_hash`, a bit-exact digest of every cached outcome; the
/// validator rejects the document if the two kernels of any scenario
/// disagree on a single bit.
pub fn rows_scaling(row_sizes: &[usize], workers: usize, repeats: usize) -> Vec<BenchResult> {
    let n_features = 16;
    let mut out = Vec::new();
    for &rows in row_sizes {
        let cfg = SyntheticConfig {
            n_features,
            biased_fraction: 0.25,
            predictive_fraction: 0.25,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(rows as u64);
        let inst = synthetic_instance(&mut rng, &cfg);
        let scm = synthetic_scm(&mut rng, &inst, 1.5);
        let table = sample_table(&scm, &inst.roles, rows, &mut rng);
        let problem = Problem::from_table(&table);
        let select = SelectConfig {
            max_group: Some(SelectConfig::auto_max_group(rows)),
            ..Default::default()
        };
        // Large instances are dominated by kernel time, not run-to-run
        // jitter; one shot keeps the suite tractable.
        let reps = if rows >= 100_000 { 1 } else { repeats };

        let scenario = format!("rows-scaling/gtest/rows={rows}");
        for (algo, mode) in [
            ("kernels-narrow", KernelMode::Narrow),
            ("kernels-reference", KernelMode::Reference),
        ] {
            if reps == 1 {
                // Single-shot sizes get one untimed pass first: a fresh
                // process pays page-fault and allocator warm-up that
                // would otherwise land entirely on whichever variant
                // runs first and swamp the kernel difference under test.
                let tester = GTest::over(encoded(&table, true), 0.01).with_kernel_mode(mode);
                let mut session = CiSession::new(tester);
                let _ = grpsel_batched_in(&mut session, &problem, &select, None, workers);
            }
            out.push(median_of_repeats(reps, || {
                let tester = GTest::over(encoded(&table, true), 0.01).with_kernel_mode(mode);
                let mut session = CiSession::new(tester);
                let mut row = measure(&scenario, algo, n_features, &mut session, |s| {
                    let sel = grpsel_batched_in(s, &problem, &select, None, workers)
                        .selected()
                        .len();
                    s.refresh_encode_stats();
                    sel
                });
                finish_scaling_row(&mut row, rows, &session);
                row
            }));
        }

        let scenario = format!("rows-scaling/fisherz/rows={rows}");
        for (algo, naive) in [("kernels-blocked", false), ("kernels-naive", true)] {
            if reps == 1 {
                // Same untimed warm-up as the G-test pair above.
                fairsel_math::set_naive_kernels(naive);
                let tester = FisherZ::over(encoded(&table, true), 0.01);
                let mut session = CiSession::new(tester);
                let _ = grpsel_batched_in(&mut session, &problem, &select, None, workers);
                fairsel_math::set_naive_kernels(false);
            }
            out.push(median_of_repeats(reps, || {
                fairsel_math::set_naive_kernels(naive);
                let tester = FisherZ::over(encoded(&table, true), 0.01);
                let mut session = CiSession::new(tester);
                let mut row = measure(&scenario, algo, n_features, &mut session, |s| {
                    let sel = grpsel_batched_in(s, &problem, &select, None, workers)
                        .selected()
                        .len();
                    s.refresh_encode_stats();
                    sel
                });
                fairsel_math::set_naive_kernels(false);
                finish_scaling_row(&mut row, rows, &session);
                row
            }));
        }
    }
    out
}

/// Fill the rows-scaling columns of a freshly measured row.
fn finish_scaling_row<T: CiTest>(row: &mut BenchResult, rows: usize, session: &CiSession<T>) {
    row.rows = rows as u64;
    row.ns_per_row = row.wall_ms * 1e6 / rows.max(1) as f64;
    row.pvalue_hash = format!("{:016x}", session.outcomes_fingerprint());
    row.dense_count_cells = session.stats().dense_count_cells;
    row.narrow_code_bytes = session.stats().narrow_code_bytes;
}

fn encoded(table: &Table, cached: bool) -> Arc<EncodedTable> {
    Arc::new(if cached {
        EncodedTable::new(table)
    } else {
        EncodedTable::new_uncached(table)
    })
}

/// Run one scenario's two execution modes (per-query uncached baseline,
/// Z-grouped + worker pool) for any batch-aware tester.
#[allow(clippy::too_many_arguments)]
fn modes_for<T, F>(
    out: &mut Vec<BenchResult>,
    scenario: &str,
    n_features: usize,
    problem: &Problem,
    select: &SelectConfig,
    workers: usize,
    repeats: usize,
    mk: F,
) where
    T: CiTestBatch,
    F: Fn(bool) -> T,
{
    // Per-query baseline: encoding memoization off. The per-query route
    // doesn't sync encode counters on its own, so refresh before the
    // session stats are read.
    out.push(median_of_repeats(repeats, || {
        let mut session = CiSession::new(mk(false));
        measure(scenario, "grpsel-nocache", n_features, &mut session, |s| {
            let selected = grpsel_in(s, problem, select, None).selected().len();
            s.refresh_encode_stats();
            selected
        })
    }));

    // Z-grouped scheduler on the persistent pool.
    let algo = format!("grpsel-batched-par{workers}");
    out.push(median_of_repeats(repeats, || {
        let mut session = CiSession::new(mk(true));
        measure(scenario, &algo, n_features, &mut session, |s| {
            grpsel_batched_in(s, problem, select, None, workers)
                .selected()
                .len()
        })
    }));
}

/// Selected-feature count reported in a `select` response body: the
/// quoted admitted names on the c1/c2 report lines. One definition for
/// every serving scenario, so a report-format change cannot silently
/// zero one scenario's `selected` column while another keeps parsing.
fn selected_in_body(body: &str) -> usize {
    body.lines()
        .filter(|l| l.starts_with("c1 ") || l.starts_with("c2 "))
        .map(|l| l.matches('"').count() / 2)
        .sum()
}

/// The serving story: cold vs warm request latency against an in-process
/// `fairsel-server`. The same `select` workload is sent twice over TCP;
/// the first request pays CSV parse + split + encode + every CI test, the
/// second is answered from the fingerprint-sharded shared session (zero
/// tests issued, memo hits only). Counter columns: the cold row carries
/// the first request's cumulative engine stats, the warm row the *delta*
/// of the second (so `issued = 0` is the acceptance signal); encode
/// columns stay cumulative, showing the cache the warm request reused.
pub fn serve_cold_warm(n_features: usize, rows: usize) -> Vec<BenchResult> {
    use fairsel_server::{request, Request, Response, ServeConfig, Server, WorkloadRequest};

    let cfg = SyntheticConfig {
        n_features,
        biased_fraction: 0.2,
        predictive_fraction: 0.25,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(42);
    let inst = synthetic_instance(&mut rng, &cfg);
    let scm = synthetic_scm(&mut rng, &inst, 1.5);
    let table = sample_table(&scm, &inst.roles, rows, &mut rng);
    let csv_text = fairsel_table::csv::to_csv_string(&table);

    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind loopback");
    let addr = server.local_addr().to_string();
    let handle = server.spawn();
    let req = Request::Select(WorkloadRequest {
        dataset: fairsel_server::DatasetRef::Csv(csv_text),
        max_group: fairsel_server::MaxGroupSpec::Auto,
        ..Default::default()
    });
    let req_bytes = (req.to_json().to_string().len() + 4) as u64;

    let scenario = format!("serve/n={n_features}/rows={rows}");
    let shoot = |algo: &str, prev: Option<&BenchResult>| -> BenchResult {
        let t0 = Instant::now();
        let resp = request(&addr, &req).expect("serve request");
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let Response::Ok { body, stats, cache } = resp else {
            panic!("serve request failed: {resp:?}");
        };
        let stats = stats.expect("select response carries stats");
        let cache = cache.expect("select response carries cache info");
        let num = |k: &str| stats.get_u64(k).unwrap_or(0);
        let selected = selected_in_body(&body);
        let (mut requested, mut issued, mut hits) =
            (num("requested"), num("issued"), num("cache_hits"));
        if let Some(p) = prev {
            requested -= p.requested;
            issued -= p.issued;
            hits -= p.cache_hits;
        }
        BenchResult {
            scenario: scenario.clone(),
            algo: algo.to_owned(),
            n_features,
            requested,
            issued,
            cache_hits: hits,
            encode_hits: cache.encode_hits,
            encode_misses: cache.encode_misses,
            wall_ms,
            req_bytes,
            selected,
            ..Default::default()
        }
    };
    let cold = shoot("serve-cold", None);
    let warm = shoot("serve-warm", Some(&cold));
    handle.shutdown();
    vec![cold, warm]
}

/// The concurrent-serving story, the regime the bounded acceptor exists
/// for: `clients` parallel clients fire the same `select` workload at
/// one server in three waves — cold inline CSV (every client ships the
/// dataset, the first one pays the CI tests), warm inline CSV (cached
/// answers, but still megabyte-scale requests), and fingerprint-addressed
/// after a single `put` (cached answers *and* requests of a few hundred
/// bytes). Per-wave counters are deltas of the session's cumulative
/// engine stats; `req_bytes` is the per-request frame size, the
/// acceptance signal being the warm-fp row's `issued == 0` with
/// `req_bytes < 1024`.
pub fn serve_concurrent(n_features: usize, rows: usize, clients: usize) -> Vec<BenchResult> {
    use fairsel_server::{
        put_dataset, request, DatasetRef, Request, Response, ServeConfig, Server, WorkloadRequest,
    };

    let cfg = SyntheticConfig {
        n_features,
        biased_fraction: 0.2,
        predictive_fraction: 0.25,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(42);
    let inst = synthetic_instance(&mut rng, &cfg);
    let scm = synthetic_scm(&mut rng, &inst, 1.5);
    let table = sample_table(&scm, &inst.roles, rows, &mut rng);
    let csv_text = fairsel_table::csv::to_csv_string(&table);
    let codec_bytes = fairsel_table::encode_table(&table);

    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            // Headroom above the client count: this scenario measures
            // concurrent throughput, not shedding.
            max_conns: clients * 2 + 4,
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr().to_string();
    let handle = server.spawn();

    let workload = |dataset: DatasetRef| {
        Request::Select(WorkloadRequest {
            dataset,
            max_group: fairsel_server::MaxGroupSpec::Auto,
            ..Default::default()
        })
    };
    let scenario = format!("serve/concurrent/n={n_features}/rows={rows}/clients={clients}");

    // One wave: all clients issue `req` concurrently; counters are the
    // delta of the session's cumulative stats across the wave (the
    // maximum over responses is the value at the last completion).
    let mut cum = (0u64, 0u64, 0u64);
    let mut wave = |algo: &str, req: &Request| -> BenchResult {
        let req_bytes = (req.to_json().to_string().len() + 4) as u64;
        let t0 = Instant::now();
        let outcomes: Vec<(u64, u64, u64, u64, u64, usize, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    let addr = &addr;
                    scope.spawn(move || {
                        let t_req = Instant::now();
                        let resp = request(addr, req).expect("concurrent request");
                        let lat_us = t_req.elapsed().as_micros() as u64;
                        let Response::Ok { body, stats, cache } = resp else {
                            panic!("concurrent request failed: {resp:?}");
                        };
                        let stats = stats.expect("select carries stats");
                        let cache = cache.expect("select carries cache info");
                        let num = |k: &str| stats.get_u64(k).unwrap_or(0);
                        let selected = selected_in_body(&body);
                        (
                            num("requested"),
                            num("issued"),
                            num("cache_hits"),
                            cache.encode_hits,
                            cache.encode_misses,
                            selected,
                            lat_us,
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let after = (
            outcomes.iter().map(|o| o.0).max().unwrap_or(0),
            outcomes.iter().map(|o| o.1).max().unwrap_or(0),
            outcomes.iter().map(|o| o.2).max().unwrap_or(0),
        );
        let hist = fairsel_obs::Histogram::new();
        for o in &outcomes {
            hist.record(o.6);
        }
        let mut row = BenchResult {
            scenario: scenario.clone(),
            algo: algo.to_owned(),
            n_features,
            requested: after.0 - cum.0,
            issued: after.1 - cum.1,
            cache_hits: after.2 - cum.2,
            encode_hits: outcomes.iter().map(|o| o.3).max().unwrap_or(0),
            encode_misses: outcomes.iter().map(|o| o.4).max().unwrap_or(0),
            wall_ms,
            req_bytes,
            selected: outcomes.first().map_or(0, |o| o.5),
            ..Default::default()
        };
        row.set_latency(&hist.snapshot());
        cum = after;
        row
    };

    let cold = wave(
        "serve-cold-csv",
        &workload(DatasetRef::Csv(csv_text.clone())),
    );
    let warm_csv = wave("serve-warm-csv", &workload(DatasetRef::Csv(csv_text)));

    // Upload once, then every client addresses the dataset by fingerprint.
    let t0 = Instant::now();
    let resp = put_dataset(&addr, &codec_bytes).expect("put");
    let put_wall = t0.elapsed().as_secs_f64() * 1e3;
    let Response::Ok { body: fp_hex, .. } = resp else {
        panic!("put failed: {resp:?}");
    };
    let fp = u64::from_str_radix(&fp_hex, 16).expect("hex fingerprint");
    let put_row = BenchResult {
        scenario: scenario.clone(),
        algo: "serve-put".to_owned(),
        n_features,
        requested: 0,
        issued: 0,
        cache_hits: 0,
        encode_hits: 0,
        encode_misses: 0,
        wall_ms: put_wall,
        req_bytes: (Request::Put.to_json().to_string().len() + 4 + 4 + codec_bytes.len()) as u64,
        selected: 0,
        ..Default::default()
    };
    let warm_fp = wave("serve-warm-fp", &workload(DatasetRef::Fp(fp)));

    handle.shutdown();
    vec![cold, warm_csv, put_row, warm_fp]
}

/// The latency-tail story: a mixed hot/cold client population against one
/// server, the regime the per-command histograms exist for. Hot clients
/// hammer a warmed, fingerprint-addressed dataset (cache hits, requests of
/// a few hundred bytes); cold clients each ship a *distinct* CSV dataset,
/// paying parse + split + encode + every CI test. Both populations run
/// concurrently for `rounds` requests per client, and each one's
/// per-request latencies land in a log2 [`fairsel_obs::Histogram`] — the
/// two rows report p50/p95/p99/max per population, making the tail the
/// cold builds put on the mix visible (a lifetime mean would average it
/// away).
pub fn serve_latency_tail(
    n_features: usize,
    rows: usize,
    hot_clients: usize,
    cold_clients: usize,
    rounds: usize,
) -> Vec<BenchResult> {
    use fairsel_server::{
        put_dataset, request, DatasetRef, Request, Response, ServeConfig, Server, WorkloadRequest,
    };

    let gen_table = |seed: u64| {
        let cfg = SyntheticConfig {
            n_features,
            biased_fraction: 0.2,
            predictive_fraction: 0.25,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = synthetic_instance(&mut rng, &cfg);
        let scm = synthetic_scm(&mut rng, &inst, 1.5);
        sample_table(&scm, &inst.roles, rows, &mut rng)
    };
    let hot_table = gen_table(42);
    let cold_csvs: Vec<String> = (0..cold_clients)
        .map(|i| fairsel_table::csv::to_csv_string(&gen_table(100 + i as u64)))
        .collect();

    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            max_conns: (hot_clients + cold_clients) * 2 + 4,
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr().to_string();
    let handle = server.spawn();

    let workload = |dataset: DatasetRef| {
        Request::Select(WorkloadRequest {
            dataset,
            max_group: fairsel_server::MaxGroupSpec::Auto,
            ..Default::default()
        })
    };

    // Warm the hot path: upload once, run the workload once so every hot
    // request below is a pure cache hit.
    let resp = put_dataset(&addr, &fairsel_table::encode_table(&hot_table)).expect("put");
    let Response::Ok { body: fp_hex, .. } = resp else {
        panic!("put failed: {resp:?}");
    };
    let fp = u64::from_str_radix(&fp_hex, 16).expect("hex fingerprint");
    let hot_req = workload(DatasetRef::Fp(fp));
    match request(&addr, &hot_req).expect("warmup request") {
        Response::Ok { .. } => {}
        other => panic!("warmup failed: {other:?}"),
    }

    let hot_hist = fairsel_obs::Histogram::new();
    let cold_hist = fairsel_obs::Histogram::new();
    let shoot = |req: &Request, hist: &fairsel_obs::Histogram| {
        let t0 = Instant::now();
        let resp = request(&addr, req).expect("tail request");
        hist.record(t0.elapsed().as_micros() as u64);
        match resp {
            Response::Ok { .. } => {}
            other => panic!("tail request failed: {other:?}"),
        }
    };
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..hot_clients {
            let (hot_req, hot_hist, shoot) = (&hot_req, &hot_hist, &shoot);
            scope.spawn(move || {
                for _ in 0..rounds {
                    shoot(hot_req, hot_hist);
                }
            });
        }
        for csv_text in &cold_csvs {
            let (cold_hist, shoot, workload) = (&cold_hist, &shoot, &workload);
            scope.spawn(move || {
                let req = workload(DatasetRef::Csv(csv_text.clone()));
                for _ in 0..rounds {
                    shoot(&req, cold_hist);
                }
            });
        }
    });
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    handle.shutdown();

    let scenario = format!(
        "serve/latency-tail/n={n_features}/rows={rows}/hot={hot_clients}/cold={cold_clients}"
    );
    let row = |algo: &str, hist: &fairsel_obs::Histogram, req_bytes: u64| -> BenchResult {
        let mut r = BenchResult {
            scenario: scenario.clone(),
            algo: algo.to_owned(),
            n_features,
            wall_ms,
            req_bytes,
            ..Default::default()
        };
        r.set_latency(&hist.snapshot());
        r
    };
    let hot_bytes = (hot_req.to_json().to_string().len() + 4) as u64;
    let cold_bytes = cold_csvs.first().map_or(0, |c| {
        (workload(DatasetRef::Csv(c.clone()))
            .to_json()
            .to_string()
            .len()
            + 4) as u64
    });
    vec![
        row("tail-hot", &hot_hist, hot_bytes),
        row("tail-cold", &cold_hist, cold_bytes),
    ]
}

/// The cache story: the same workload replayed inside one session issues
/// zero new tests the second time.
pub fn cache_replay(n_features: usize) -> Vec<BenchResult> {
    let cfg = SyntheticConfig {
        n_features,
        biased_fraction: 0.1,
        ..Default::default()
    };
    let inst = synthetic_instance(&mut StdRng::seed_from_u64(7), &cfg);
    let problem = Problem::from_roles(&inst.roles);
    let select = SelectConfig::default();
    let scenario = format!("replay/n={n_features}");

    let mut tester = OracleCi::from_dag(inst.dag.clone());
    let mut session = CiSession::new(&mut tester);
    let first = measure(&scenario, "seqsel-cold", n_features, &mut session, |s| {
        seqsel_in(s, &problem, &select).selected().len()
    });
    // Second run in the same session: everything is a cache hit, so the
    // deltas below come out as issued = 0.
    let before = (
        session.stats().requested,
        session.stats().issued,
        session.stats().cache_hits,
    );
    let t0 = Instant::now();
    let selected = seqsel_in(&mut session, &problem, &select).selected().len();
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let stats = session.stats();
    let second = BenchResult {
        scenario,
        algo: "seqsel-warm".to_owned(),
        n_features,
        requested: stats.requested - before.0,
        issued: stats.issued - before.1,
        cache_hits: stats.cache_hits - before.2,
        encode_hits: 0,
        encode_misses: 0,
        wall_ms,
        req_bytes: 0,
        selected,
        ..Default::default()
    };
    vec![first, second]
}

/// The streaming-append story: a dataset is resident and warm (selected
/// once), then `batch` new rows arrive. Per batch size, three rows:
///
/// * `reselect-cold` — the pre-streaming path: the client re-uploads the
///   whole concatenated dataset and the server pays CSV-free but full
///   cost (fresh encode, fresh scaffolds, every CI test);
/// * `append-reselect` — the invalidate-all streaming path
///   ([`CiSession::extended_over_invalidating`]): encodings extend in
///   place, scaffolds transfer, but every memoized outcome is dropped
///   and the workload re-issues — O(workload) statistical cost, kept as
///   the measured baseline;
/// * `append-reselect-patched` — the sufficient-statistic path
///   ([`CiSession::extended_over`]): resident contingency tables are
///   patched by counting only the appended rows and memoized outcomes
///   are re-derived at the new `n` — O(batch) statistical cost.
///
/// All three rows must report the **same** `pvalue_hash` (every outcome
/// bit identical to the cold run on the concatenated table); the warm
/// rows must carry nonzero `append_rows`/`extended_encodings`; the
/// patched row must show nonzero `memo_patched`, a conserved ledger
/// against the baseline's `memo_invalidated`, and `issued` strictly
/// below the baseline — all enforced by [`validate_bench_json`].
/// `req_bytes` tells the transport story: the cold client re-ships the
/// full dataset frame, the streaming clients ship only the batch frame
/// (zero re-upload of the base) and then address the child by
/// fingerprint.
pub fn append_reselect(
    n_features: usize,
    base_rows: usize,
    batch_sizes: &[usize],
    workers: usize,
    repeats: usize,
) -> Vec<BenchResult> {
    let mut out = Vec::new();
    for &batch_rows in batch_sizes {
        let cfg = SyntheticConfig {
            n_features,
            biased_fraction: 0.25,
            predictive_fraction: 0.25,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(base_rows as u64 ^ (batch_rows as u64).rotate_left(17));
        let inst = synthetic_instance(&mut rng, &cfg);
        let scm = synthetic_scm(&mut rng, &inst, 1.5);
        let total_rows = base_rows + batch_rows;
        let full = sample_table(&scm, &inst.roles, total_rows, &mut rng);
        let base_idx: Vec<usize> = (0..base_rows).collect();
        let batch_idx: Vec<usize> = (base_rows..total_rows).collect();
        let base = full.take_rows(&base_idx);
        let batch = full.take_rows(&batch_idx);
        let problem = Problem::from_table(&full);
        let select = SelectConfig {
            max_group: Some(SelectConfig::auto_max_group(total_rows)),
            ..Default::default()
        };
        let scenario =
            format!("append/reselect/n={n_features}/rows={base_rows}/batch={batch_rows}");
        // Wire cost, measured on the real codec frames: a cold client
        // re-uploads the concatenated dataset; a streaming client ships
        // the batch alone and re-selects by child fingerprint.
        let full_bytes = (fairsel_table::encode_table(&full).len() + 8) as u64;
        let batch_bytes = (fairsel_table::encode_row_batch(&batch).len() + 8) as u64;

        out.push(median_of_repeats(repeats, || {
            let mut session = CiSession::new(GTest::over(encoded(&full, true), 0.01));
            let mut row = measure(&scenario, "reselect-cold", n_features, &mut session, |s| {
                let sel = grpsel_batched_in(s, &problem, &select, None, workers)
                    .selected()
                    .len();
                s.refresh_encode_stats();
                sel
            });
            row.req_bytes = full_bytes;
            row.rows = total_rows as u64;
            row.pvalue_hash = format!("{:016x}", session.outcomes_fingerprint());
            row
        }));

        let warm_row = |algo: &str, patch: bool| {
            // Untimed warm-up: the parent session is resident and has
            // answered the workload once (the steady-state a streaming
            // client appends into).
            let parent_enc = encoded(&base, true);
            let mut parent = CiSession::new(GTest::over(Arc::clone(&parent_enc), 0.01));
            let _ = grpsel_batched_in(&mut parent, &problem, &select, None, workers);
            // Timed: extend the encodings over the batch, transfer the
            // session (patching sufficient statistics or invalidating
            // the memo wholesale), and re-run the selection.
            let t0 = Instant::now();
            let child_enc = Arc::new(parent_enc.extend(&batch).expect("batch matches schema"));
            let mut child = if patch {
                parent
                    .extended_over(child_enc)
                    .expect("G-test scaffolds extend")
            } else {
                parent
                    .extended_over_invalidating(child_enc)
                    .expect("G-test scaffolds extend")
            };
            let selected = grpsel_batched_in(&mut child, &problem, &select, None, workers)
                .selected()
                .len();
            child.refresh_encode_stats();
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            let stats = child.stats();
            BenchResult {
                scenario: scenario.clone(),
                algo: algo.to_owned(),
                n_features,
                requested: stats.requested,
                issued: stats.issued,
                cache_hits: stats.cache_hits,
                encode_hits: stats.encode_cache_hits,
                encode_misses: stats.encode_cache_misses,
                wall_ms,
                req_bytes: batch_bytes,
                selected,
                rows: total_rows as u64,
                pvalue_hash: format!("{:016x}", child.outcomes_fingerprint()),
                append_rows: stats.append_rows,
                extended_encodings: stats.extended_encodings,
                memo_patched: stats.memo_patched,
                memo_invalidated: stats.memo_invalidated,
                ..Default::default()
            }
        };
        out.push(median_of_repeats(repeats, || {
            warm_row("append-reselect", false)
        }));
        out.push(median_of_repeats(repeats, || {
            warm_row("append-reselect-patched", true)
        }));
    }
    out
}

/// The full suite. `quick` keeps sizes (and repeat counts) small enough
/// for CI. The oracle and G-test scaling scenarios run GrpSel on both
/// execution paths, the Z-grouped one at `workers`; the batch scenarios
/// always run the Z-grouped scheduler at 4 workers
/// (`grpsel-batched-par4`) regardless of the host's core count — the
/// committed numbers compare execution paths, not machines.
pub fn bench_suite(quick: bool, workers: usize) -> Vec<BenchResult> {
    let oracle_sizes: &[usize] = if quick {
        &[32, 128]
    } else {
        &[64, 256, 1024, 4096]
    };
    let repeats = if quick { 3 } else { 5 };
    // The batch scenario runs a high biased fraction (wide phase-2
    // conditioning sets); keep n modest so the target's CPT (one parent
    // per biased/predictive feature) stays within the generator's bound.
    let (data_n, data_rows) = if quick { (16, 1500) } else { (24, 6000) };
    let (batch_n, batch_rows) = if quick { (24, 1500) } else { (32, 6000) };
    let mut out = oracle_scaling(oracle_sizes, workers, repeats);
    out.extend(data_scaling(data_n, data_rows, workers, repeats));
    out.extend(data_tester_modes(batch_n, batch_rows, 4, repeats));
    out.extend(workers_scaling(batch_n, batch_rows, repeats));
    let row_sizes: &[usize] = if quick {
        &[1000, 3000]
    } else {
        &[6000, 25_000, 100_000, 500_000]
    };
    out.extend(rows_scaling(row_sizes, 4, repeats));
    let batch_sizes: &[usize] = if quick { &[32, 128] } else { &[128, 512, 2048] };
    out.extend(append_reselect(data_n, data_rows, batch_sizes, 4, repeats));
    out.extend(cache_replay(if quick { 32 } else { 128 }));
    let (serve_n, serve_rows) = if quick { (16, 1200) } else { (24, 4000) };
    out.extend(serve_cold_warm(serve_n, serve_rows));
    out.extend(serve_concurrent(
        serve_n,
        serve_rows,
        if quick { 3 } else { 4 },
    ));
    if quick {
        out.extend(serve_latency_tail(serve_n, serve_rows, 2, 2, 2));
    } else {
        out.extend(serve_latency_tail(serve_n, serve_rows, 4, 3, 3));
    }
    out
}

/// Suite with the default worker count.
pub fn default_suite(quick: bool) -> Vec<BenchResult> {
    bench_suite(quick, default_workers())
}

/// The CI smoke suite: the data-tester scenarios (both execution paths),
/// the rows-scaling kernels and the append re-select, plus the cold/warm,
/// concurrent and latency-tail serve scenarios, on tiny inputs.
pub fn smoke_suite() -> Vec<BenchResult> {
    let mut out = data_tester_modes(16, 800, 2, 1);
    out.extend(rows_scaling(&[2000, 6000], 2, 1));
    out.extend(append_reselect(12, 600, &[60], 2, 1));
    out.extend(serve_cold_warm(12, 600));
    out.extend(serve_concurrent(12, 600, 3));
    out.extend(serve_latency_tail(10, 400, 2, 2, 2));
    out
}

/// Read an integer field out of one run's flat JSON body.
fn run_field(run: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = run.find(&pat)? + pat.len();
    let rest = &run[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Read a float field out of one run's flat JSON body.
fn run_field_f64(run: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = run.find(&pat)? + pat.len();
    let rest = &run[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Read a string field out of one run's flat JSON body.
fn run_field_str<'a>(run: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let at = run.find(&pat)? + pat.len();
    let rest = &run[at..];
    Some(&rest[..rest.find('"')?])
}

/// Every `EngineStats` counter key, exactly as serialized by
/// `EngineStats::to_json`. The static analyzer's R5 rule requires every
/// counter declared in `engine/src/session.rs` to appear here — a counter
/// is only real once it is serialized *and* validator-checked — and
/// [`validate_stats_json`] enforces the presence of each key at runtime on
/// every stats document a bench session produces.
pub const ENGINE_STATS_KEYS: &[&str] = &[
    "requested",
    "issued",
    "cache_hits",
    "batches",
    "parallel_batches",
    "grouped_batches",
    "max_batch",
    "wall_ms",
    "encode_cache_hits",
    "encode_cache_misses",
    "encode_cache_evictions",
    "narrow_code_bytes",
    "dense_count_cells",
    "append_rows",
    "extended_encodings",
    "extended_scaffolds",
    "rebuilt_scaffolds",
    "resident_scaffolds",
    "scaffold_evictions",
    "memoized_before",
    "memo_patched",
    "memo_invalidated",
    "memo_patch_hits",
    "resident_suff_tables",
    "suff_evictions",
];

/// Check a session stats JSON document (the `--stats-out` shape) carries
/// every [`ENGINE_STATS_KEYS`] counter.
pub fn validate_stats_json(json: &str) -> Result<(), String> {
    for key in ENGINE_STATS_KEYS {
        let quoted = format!("\"{key}\":");
        if !json.contains(&quoted) {
            return Err(format!("stats JSON missing counter {quoted}"));
        }
    }
    Ok(())
}

/// Validate a serialized bench document the way the CI smoke job does:
/// structurally sound JSON with a non-empty `runs` array, every run
/// carrying the encode-cache counters, and the G-test GrpSel Z-grouped
/// scenario actually *hitting* the encode cache.
pub fn validate_bench_json(json: &str) -> Result<(), String> {
    let json = json.trim();
    if !json.starts_with('{') || !json.ends_with('}') {
        return Err("document is not a JSON object".into());
    }
    let (mut depth, mut max_depth) = (0i64, 0i64);
    for b in json.bytes() {
        match b {
            b'{' | b'[' => {
                depth += 1;
                max_depth = max_depth.max(depth);
            }
            b'}' | b']' => {
                depth -= 1;
                if depth < 0 {
                    return Err("unbalanced brackets".into());
                }
            }
            _ => {}
        }
    }
    if depth != 0 {
        return Err("unbalanced brackets".into());
    }
    if max_depth < 3 {
        return Err("missing nested runs".into());
    }
    if !json.contains("\"runs\":[{") {
        return Err("empty or missing runs array".into());
    }
    for key in [
        "\"scenario\":",
        "\"algo\":",
        "\"issued\":",
        "\"encode_hits\":",
        "\"encode_misses\":",
        "\"wall_ms\":",
        "\"req_bytes\":",
        "\"p50_ms\":",
        "\"p95_ms\":",
        "\"p99_ms\":",
        "\"max_ms\":",
        "\"hist_total\":",
        "\"rows\":",
        "\"ns_per_row\":",
        "\"pvalue_hash\":",
        "\"dense_count_cells\":",
        "\"narrow_code_bytes\":",
        "\"append_rows\":",
        "\"extended_encodings\":",
        "\"memo_patched\":",
        "\"memo_invalidated\":",
    ] {
        let runs = json.matches("\"scenario\":").count();
        if json.matches(key).count() != runs {
            return Err(format!("counter {key} absent from some run"));
        }
    }
    let runs: Vec<&str> = json
        .split("{\"scenario\":\"")
        .skip(1)
        .map(|chunk| chunk.split('}').next().unwrap_or(""))
        .collect();
    let find_run = |scenario_prefix: &str, algo: &str| -> Option<&&str> {
        let needle = format!("\"algo\":\"{algo}\",");
        runs.iter()
            .find(|r| r.starts_with(scenario_prefix) && r.contains(&needle))
    };
    // The acceptance signal: a Z-grouped G-test GrpSel run with real
    // encode-cache reuse.
    let hit = runs.iter().any(|r| {
        r.starts_with("gtest-batch")
            && r.contains("\"algo\":\"grpsel-batched-par")
            && !r.contains("\"encode_hits\":0,")
    });
    if !hit {
        return Err("no gtest-batch grpsel-batched-parN run with encode_hits > 0".into());
    }
    // The serving acceptance signal: a warm request against the session
    // service that issued zero new CI tests, hit the shared memo, and
    // reused the encode cache.
    let warm = json.split("{\"scenario\":\"serve/").skip(1).any(|chunk| {
        let run = chunk.split('}').next().unwrap_or("");
        run.contains("\"algo\":\"serve-warm\"")
            && run.contains("\"issued\":0,")
            && !run.contains("\"cache_hits\":0,")
            && !run.contains("\"encode_hits\":0,")
    });
    if !warm {
        return Err(
            "no serve-warm run with issued == 0, cache_hits > 0 and encode_hits > 0".into(),
        );
    }
    // The fp-addressed serving acceptance signal: under concurrent load,
    // a warm fingerprint-addressed wave issues zero CI tests while each
    // request ships under 1 KiB — the whole point of `put`.
    let warm_fp = runs
        .iter()
        .find(|r| r.starts_with("serve/concurrent") && r.contains("\"algo\":\"serve-warm-fp\","))
        .ok_or("no serve/concurrent serve-warm-fp run")?;
    let issued = run_field(warm_fp, "issued").ok_or("unreadable issued")?;
    let req_bytes = run_field(warm_fp, "req_bytes").ok_or("unreadable req_bytes")?;
    let hits = run_field(warm_fp, "cache_hits").ok_or("unreadable cache_hits")?;
    if issued != 0 {
        return Err(format!(
            "warm fp-addressed wave issued {issued} CI tests (must be fully cached)"
        ));
    }
    if hits == 0 {
        return Err("warm fp-addressed wave never hit the shared memo".into());
    }
    if !(1..1024).contains(&req_bytes) {
        return Err(format!(
            "warm fp-addressed request payload is {req_bytes} bytes (must be in 1..1024)"
        ));
    }
    // Percentile sanity: wherever a run recorded a latency histogram, its
    // percentiles must ascend (p50 <= p95 <= p99 <= max — guaranteed by
    // the log2-bucket quantile construction, so a violation means a
    // broken or hand-edited document).
    for r in &runs {
        let total = run_field(r, "hist_total").ok_or("unreadable hist_total")?;
        if total == 0 {
            continue;
        }
        let p50 = run_field_f64(r, "p50_ms").ok_or("unreadable p50_ms")?;
        let p95 = run_field_f64(r, "p95_ms").ok_or("unreadable p95_ms")?;
        let p99 = run_field_f64(r, "p99_ms").ok_or("unreadable p99_ms")?;
        let max = run_field_f64(r, "max_ms").ok_or("unreadable max_ms")?;
        if !(p50 <= p95 && p95 <= p99 && p99 <= max) {
            return Err(format!(
                "percentiles not monotone in a run ({p50} / {p95} / {p99} / max {max})"
            ));
        }
    }
    // The tail-latency acceptance signal: the hot/cold mixed scenario ran
    // and actually recorded per-request latencies.
    let tail_ok = runs.iter().any(|r| {
        r.starts_with("serve/latency-tail") && run_field(r, "hist_total").unwrap_or(0) > 0
    });
    if !tail_ok {
        return Err("no serve/latency-tail run with hist_total > 0".into());
    }
    // The kernel acceptance signals: rows-scaling rows exist; every one
    // reports a positive per-row cost and a nonempty outcome digest; row
    // counts ascend within each (family, algo); the kernel variants of a
    // scenario produce the SAME digest (the byte-identity contract, bit
    // for bit); and the narrow G-test rows actually exercised the dense
    // counting arenas and width-adaptive code storage.
    let mut scaling_hashes: std::collections::HashMap<&str, &str> = Default::default();
    let mut last_rows: std::collections::HashMap<String, u64> = Default::default();
    let mut any_scaling = false;
    for r in &runs {
        if !r.starts_with("rows-scaling/") {
            continue;
        }
        any_scaling = true;
        let scenario = r.split('"').next().unwrap_or("");
        let algo = run_field_str(r, "algo").ok_or("unreadable algo")?;
        let nspr = run_field_f64(r, "ns_per_row").ok_or("unreadable ns_per_row")?;
        if nspr <= 0.0 {
            return Err(format!("{scenario}/{algo}: ns_per_row must be positive"));
        }
        let hash = run_field_str(r, "pvalue_hash").ok_or("unreadable pvalue_hash")?;
        if hash.is_empty() {
            return Err(format!("{scenario}/{algo}: empty pvalue_hash"));
        }
        if let Some(prev) = scaling_hashes.get(scenario) {
            if *prev != hash {
                return Err(format!(
                    "{scenario}: kernel variants disagree on outcome bits \
                     ({prev} vs {hash} at {algo})"
                ));
            }
        } else {
            scaling_hashes.insert(scenario, hash);
        }
        let rows_n = run_field(r, "rows").ok_or("unreadable rows")?;
        let family = scenario.rsplit_once("/rows=").map_or(scenario, |(f, _)| f);
        let key = format!("{family}/{algo}");
        if let Some(&prev) = last_rows.get(&key) {
            if rows_n <= prev {
                return Err(format!("{key}: rows not ascending ({prev} -> {rows_n})"));
            }
        }
        last_rows.insert(key, rows_n);
        if family == "rows-scaling/gtest" && algo == "kernels-narrow" {
            if run_field(r, "dense_count_cells").ok_or("unreadable dense_count_cells")? == 0 {
                return Err(format!(
                    "{scenario}: narrow kernels never filled a dense arena"
                ));
            }
            if run_field(r, "narrow_code_bytes").ok_or("unreadable narrow_code_bytes")? == 0 {
                return Err(format!(
                    "{scenario}: narrow kernels built no narrow code storage"
                ));
            }
        }
    }
    if !any_scaling {
        return Err("no rows-scaling runs".into());
    }
    // The streaming-append acceptance signals: every `append-reselect`
    // row has a `reselect-cold` twin with the **same** outcome digest
    // (the extended session answers bit-for-bit what a cold run on the
    // concatenated table answers), nonzero extend counters (the session
    // was extended, not rebuilt), and a wire cost strictly under the cold
    // re-upload (only the batch crosses the wire, never the base).
    let mut any_append = false;
    for r in &runs {
        if !r.starts_with("append/reselect") || !r.contains("\"algo\":\"append-reselect\",") {
            continue;
        }
        any_append = true;
        let scenario = r.split('"').next().unwrap_or("");
        let cold = find_run(scenario, "reselect-cold")
            .ok_or_else(|| format!("{scenario}: no reselect-cold twin"))?;
        let warm_hash = run_field_str(r, "pvalue_hash").ok_or("unreadable pvalue_hash")?;
        let cold_hash = run_field_str(cold, "pvalue_hash").ok_or("unreadable pvalue_hash")?;
        if warm_hash.is_empty() || warm_hash != cold_hash {
            return Err(format!(
                "{scenario}: extended re-select disagrees with cold outcome bits \
                 ({warm_hash:?} vs {cold_hash:?})"
            ));
        }
        if run_field(r, "append_rows").ok_or("unreadable append_rows")? == 0 {
            return Err(format!("{scenario}: append-reselect appended no rows"));
        }
        if run_field(r, "extended_encodings").ok_or("unreadable extended_encodings")? == 0 {
            return Err(format!("{scenario}: append-reselect reused no encodings"));
        }
        let warm_bytes = run_field(r, "req_bytes").ok_or("unreadable req_bytes")?;
        let cold_bytes = run_field(cold, "req_bytes").ok_or("unreadable req_bytes")?;
        if warm_bytes == 0 || warm_bytes >= cold_bytes {
            return Err(format!(
                "{scenario}: streaming wire cost {warm_bytes} not under the \
                 cold re-upload {cold_bytes}"
            ));
        }
    }
    if !any_append {
        return Err("no append/reselect runs".into());
    }
    // The sufficient-statistic acceptance signals: every
    // `append-reselect-patched` row matches the cold digest bit-for-bit,
    // actually patched resident memos (`memo_patched > 0`), conserves
    // the parent's memo against the invalidate-all baseline
    // (patched + invalidated == baseline's invalidated, and the baseline
    // itself patched nothing), and — the whole point — issued strictly
    // fewer CI tests after the append than the invalidate-all path.
    let mut any_patched = false;
    for r in &runs {
        if !r.starts_with("append/reselect") || !r.contains("\"algo\":\"append-reselect-patched\",")
        {
            continue;
        }
        any_patched = true;
        let scenario = r.split('"').next().unwrap_or("");
        let cold = find_run(scenario, "reselect-cold")
            .ok_or_else(|| format!("{scenario}: no reselect-cold twin"))?;
        let baseline = find_run(scenario, "append-reselect")
            .ok_or_else(|| format!("{scenario}: no append-reselect baseline twin"))?;
        let patched_hash = run_field_str(r, "pvalue_hash").ok_or("unreadable pvalue_hash")?;
        let cold_hash = run_field_str(cold, "pvalue_hash").ok_or("unreadable pvalue_hash")?;
        if patched_hash.is_empty() || patched_hash != cold_hash {
            return Err(format!(
                "{scenario}: patched re-select disagrees with cold outcome bits \
                 ({patched_hash:?} vs {cold_hash:?})"
            ));
        }
        let memo_patched = run_field(r, "memo_patched").ok_or("unreadable memo_patched")?;
        if memo_patched == 0 {
            return Err(format!("{scenario}: patched re-select patched no memos"));
        }
        let memo_invalidated =
            run_field(r, "memo_invalidated").ok_or("unreadable memo_invalidated")?;
        let base_patched = run_field(baseline, "memo_patched").ok_or("unreadable memo_patched")?;
        let base_invalidated =
            run_field(baseline, "memo_invalidated").ok_or("unreadable memo_invalidated")?;
        if base_patched != 0 {
            return Err(format!(
                "{scenario}: invalidate-all baseline claims {base_patched} patched memos"
            ));
        }
        if memo_patched + memo_invalidated != base_invalidated {
            return Err(format!(
                "{scenario}: patched memo ledger not conserved \
                 ({memo_patched} + {memo_invalidated} != {base_invalidated})"
            ));
        }
        let patched_issued = run_field(r, "issued").ok_or("unreadable issued")?;
        let base_issued = run_field(baseline, "issued").ok_or("unreadable issued")?;
        if patched_issued >= base_issued {
            return Err(format!(
                "{scenario}: patched re-select issued {patched_issued} CI tests, \
                 not under the invalidate-all baseline's {base_issued}"
            ));
        }
    }
    if !any_patched {
        return Err("no append-reselect-patched runs".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed benchmark document must pass the same validator CI
    /// runs on smoke output — including the append/reselect patched-row
    /// ledger and issued-work checks. A hand-edited or stale
    /// `BENCH_engine.json` fails tier-1, not just the bench workflow.
    #[test]
    fn committed_bench_document_validates() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
        let json = std::fs::read_to_string(path).expect("read committed BENCH_engine.json");
        validate_bench_json(&json).expect("committed BENCH_engine.json must validate");
    }

    /// Manual perf probe: repeated 500k rows-scaling rounds so run-to-run
    /// noise is visible. Run with `--ignored --nocapture`; drop workers to
    /// 1 when per-phase timings must not double-count scheduler waits on
    /// a single-core box.
    #[test]
    #[ignore]
    fn probe_rows_scaling_order() {
        for round in 0..4 {
            for r in rows_scaling(&[500_000], 4, 1) {
                println!(
                    "round {round} {:<34} {:<20} {:>8.1} ns/row",
                    r.scenario, r.algo, r.ns_per_row
                );
            }
        }
    }

    #[test]
    fn quick_suite_runs_and_serializes() {
        let results = bench_suite(true, 2);
        assert!(results.len() >= 8);
        let json = to_json(&results);
        assert!(json.starts_with("{\"bench\":\"fairsel-engine\""));
        assert!(json.contains("\"algo\":\"grpsel\""));
        assert!(json.contains("\"scenario\":\"replay/n=32\""));
    }

    #[test]
    fn grpsel_issues_fewer_tests_at_scale() {
        let results = oracle_scaling(&[256], 2, 1);
        let issued = |algo: &str| {
            results
                .iter()
                .find(|r| r.algo == algo)
                .map(|r| r.issued)
                .expect("algo present")
        };
        assert!(
            issued("grpsel") < issued("seqsel"),
            "grpsel {} !< seqsel {}",
            issued("grpsel"),
            issued("seqsel")
        );
        assert_eq!(
            issued("grpsel"),
            issued("grpsel-batched-par2"),
            "parallelism is free"
        );
    }

    #[test]
    fn warm_replay_issues_nothing() {
        let results = cache_replay(24);
        let warm = results.iter().find(|r| r.algo == "seqsel-warm").unwrap();
        assert_eq!(warm.issued, 0, "warm run must be fully cached");
        assert!(warm.cache_hits > 0);
        assert_eq!(warm.requested, warm.cache_hits);
    }

    #[test]
    fn batched_modes_hit_encode_cache_and_agree() {
        let results = data_tester_modes(16, 800, 2, 1);
        for scenario in ["gtest-batch", "fisherz-batch"] {
            let rows: Vec<_> = results
                .iter()
                .filter(|r| r.scenario.starts_with(scenario))
                .collect();
            assert_eq!(rows.len(), 2, "{scenario}: two execution modes");
            let baseline = rows.iter().find(|r| r.algo == "grpsel-nocache").unwrap();
            let grouped = rows
                .iter()
                .find(|r| r.algo == "grpsel-batched-par2")
                .unwrap();
            assert_eq!(baseline.encode_hits, 0, "uncached baseline never hits");
            assert!(
                grouped.encode_hits > 0,
                "{scenario}: grouped run must reuse encodings"
            );
            assert!(
                grouped.encode_misses < baseline.encode_misses,
                "{scenario}: cache must cut encoding work ({} !< {})",
                grouped.encode_misses,
                baseline.encode_misses
            );
            // Same instance, same seed: both modes select identically
            // and issue the same tests.
            for r in &rows {
                assert_eq!(r.selected, baseline.selected, "{}", r.algo);
            }
            assert_eq!(grouped.issued, baseline.issued);
        }
    }

    #[test]
    fn workers_scaling_rows_agree() {
        let rows = workers_scaling(12, 600, 1);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert_eq!(r.issued, rows[0].issued, "{}", r.algo);
            assert_eq!(r.selected, rows[0].selected, "{}", r.algo);
        }
        assert!(rows[0].scenario.starts_with("workers-scaling/"));
        assert_eq!(rows[3].algo, "grpsel-batched-par8");
    }

    #[test]
    fn serve_cold_warm_hits_shared_cache() {
        let results = serve_cold_warm(10, 400);
        assert_eq!(results.len(), 2);
        let cold = &results[0];
        let warm = &results[1];
        assert_eq!(cold.algo, "serve-cold");
        assert_eq!(warm.algo, "serve-warm");
        assert!(cold.issued > 0, "cold request must issue tests");
        assert_eq!(warm.issued, 0, "warm request must be fully cached");
        assert!(warm.cache_hits > 0, "warm request must hit the memo");
        assert_eq!(
            warm.requested, cold.requested,
            "identical workload, identical query stream"
        );
        assert_eq!(warm.selected, cold.selected);
        assert!(warm.encode_hits >= cold.encode_hits);
    }

    /// One flat fake run object for validator tests.
    fn fake_run(scenario: &str, algo: &str, issued: u64, enc_hits: u64, req_bytes: u64) -> String {
        format!(
            "{{\"scenario\":\"{scenario}\",\"algo\":\"{algo}\",\"issued\":{issued},\
             \"cache_hits\":9,\"encode_hits\":{enc_hits},\"encode_misses\":9,\"wall_ms\":1.0,\
             \"req_bytes\":{req_bytes},\"p50_ms\":0.000,\"p95_ms\":0.000,\
             \"p99_ms\":0.000,\"max_ms\":0.000,\"hist_total\":0,\"rows\":0,\
             \"ns_per_row\":0.000,\"pvalue_hash\":\"\",\
             \"dense_count_cells\":0,\"narrow_code_bytes\":0,\
             \"append_rows\":0,\"extended_encodings\":0,\
             \"memo_patched\":0,\"memo_invalidated\":0}}"
        )
    }

    /// A fake rows-scaling run with explicit kernel columns.
    fn fake_scaling_run(
        family: &str,
        algo: &str,
        rows: u64,
        hash: &str,
        dense: u64,
        narrow: u64,
    ) -> String {
        format!(
            "{{\"scenario\":\"rows-scaling/{family}/rows={rows}\",\"algo\":\"{algo}\",\
             \"issued\":5,\"cache_hits\":9,\
             \"encode_hits\":5,\"encode_misses\":9,\"wall_ms\":1.0,\
             \"req_bytes\":0,\"p50_ms\":0.000,\"p95_ms\":0.000,\
             \"p99_ms\":0.000,\"max_ms\":0.000,\"hist_total\":0,\"rows\":{rows},\
             \"ns_per_row\":12.500,\"pvalue_hash\":\"{hash}\",\
             \"dense_count_cells\":{dense},\"narrow_code_bytes\":{narrow},\
             \"append_rows\":0,\"extended_encodings\":0,\
             \"memo_patched\":0,\"memo_invalidated\":0}}"
        )
    }

    /// A fake latency-tail run with explicit percentile columns.
    fn fake_tail_run(p50: f64, p95: f64, p99: f64, max: f64, total: u64) -> String {
        format!(
            "{{\"scenario\":\"serve/latency-tail/x\",\"algo\":\"tail-hot\",\"issued\":0,\
             \"cache_hits\":9,\
             \"encode_hits\":5,\"encode_misses\":9,\"wall_ms\":1.0,\
             \"req_bytes\":300,\"p50_ms\":{p50},\"p95_ms\":{p95},\
             \"p99_ms\":{p99},\"max_ms\":{max},\"hist_total\":{total},\"rows\":0,\
             \"ns_per_row\":0.000,\"pvalue_hash\":\"\",\
             \"dense_count_cells\":0,\"narrow_code_bytes\":0,\
             \"append_rows\":0,\"extended_encodings\":0,\
             \"memo_patched\":0,\"memo_invalidated\":0}}"
        )
    }

    /// A fake append/reselect run with explicit streaming columns.
    /// `memo` is the `(memo_patched, memo_invalidated)` ledger pair.
    fn fake_append_run(
        algo: &str,
        hash: &str,
        appended: u64,
        extended: u64,
        req_bytes: u64,
        issued: u64,
        memo: (u64, u64),
    ) -> String {
        format!(
            "{{\"scenario\":\"append/reselect/x\",\"algo\":\"{algo}\",\"issued\":{issued},\
             \"cache_hits\":9,\
             \"encode_hits\":5,\"encode_misses\":9,\"wall_ms\":1.0,\
             \"req_bytes\":{req_bytes},\"p50_ms\":0.000,\"p95_ms\":0.000,\
             \"p99_ms\":0.000,\"max_ms\":0.000,\"hist_total\":0,\"rows\":1000,\
             \"ns_per_row\":0.000,\"pvalue_hash\":\"{hash}\",\
             \"dense_count_cells\":0,\"narrow_code_bytes\":0,\
             \"append_rows\":{appended},\"extended_encodings\":{extended},\
             \"memo_patched\":{},\"memo_invalidated\":{}}}",
            memo.0, memo.1
        )
    }

    /// The smallest document the validator accepts, as mutable rows.
    fn fake_doc(rows: &[String]) -> String {
        format!(
            "{{\"bench\":\"fairsel-engine\",\"runs\":[{}]}}",
            rows.join(",")
        )
    }

    fn valid_rows() -> Vec<String> {
        vec![
            fake_run("gtest-batch/x", "grpsel-nocache", 10, 0, 0),
            fake_run("gtest-batch/x", "grpsel-batched-par2", 10, 5, 0),
            fake_run("fisherz-batch/x", "grpsel-nocache", 12, 0, 0),
            fake_run("fisherz-batch/x", "grpsel-batched-par2", 12, 5, 0),
            fake_run("serve/x", "serve-warm", 0, 5, 9000),
            fake_run("serve/concurrent/x", "serve-warm-fp", 0, 5, 300),
            fake_scaling_run("gtest", "kernels-narrow", 1000, "abc1", 50, 40),
            fake_scaling_run("gtest", "kernels-reference", 1000, "abc1", 0, 40),
            fake_scaling_run("gtest", "kernels-narrow", 3000, "abc2", 150, 120),
            fake_scaling_run("gtest", "kernels-reference", 3000, "abc2", 0, 120),
            fake_scaling_run("fisherz", "kernels-blocked", 1000, "fff1", 0, 0),
            fake_scaling_run("fisherz", "kernels-naive", 1000, "fff1", 0, 0),
            fake_tail_run(0.5, 1.0, 2.0, 3.0, 6),
            fake_append_run("reselect-cold", "aa11", 0, 0, 50_000, 6, (0, 0)),
            fake_append_run("append-reselect", "aa11", 200, 3, 2_000, 6, (0, 6)),
            fake_append_run("append-reselect-patched", "aa11", 200, 3, 2_000, 2, (5, 1)),
        ]
    }

    #[test]
    fn validator_requires_warm_serve_run() {
        validate_bench_json(&fake_doc(&valid_rows())).expect("fixture should validate");
        // No serve scenario.
        let no_serve: Vec<String> = valid_rows().drain(..4).collect();
        assert!(validate_bench_json(&fake_doc(&no_serve))
            .unwrap_err()
            .contains("serve-warm"));
        // Serve present but the warm run still issued tests.
        let mut stale = valid_rows();
        stale[4] = fake_run("serve/x", "serve-warm", 4, 5, 9000);
        assert!(validate_bench_json(&fake_doc(&stale)).is_err());
    }

    #[test]
    fn validator_requires_tiny_warm_fp_requests() {
        // Missing the serve/concurrent fp row entirely.
        let no_fp: Vec<String> = valid_rows().drain(..5).collect();
        assert!(validate_bench_json(&fake_doc(&no_fp))
            .unwrap_err()
            .contains("serve-warm-fp"));
        // The fp wave issued tests: not warm.
        let mut cold = valid_rows();
        cold[5] = fake_run("serve/concurrent/x", "serve-warm-fp", 3, 5, 300);
        assert!(validate_bench_json(&fake_doc(&cold))
            .unwrap_err()
            .contains("issued"));
        // The fp request is megabyte-scale: the transport regressed.
        let mut fat = valid_rows();
        fat[5] = fake_run("serve/concurrent/x", "serve-warm-fp", 0, 5, 900_000);
        assert!(validate_bench_json(&fake_doc(&fat))
            .unwrap_err()
            .contains("bytes"));
    }

    /// The encode-cache acceptance check reads the Z-grouped G-test row.
    #[test]
    fn validator_requires_grouped_encode_hits() {
        let mut cold = valid_rows();
        cold[1] = fake_run("gtest-batch/x", "grpsel-batched-par2", 10, 0, 0);
        assert!(validate_bench_json(&fake_doc(&cold))
            .unwrap_err()
            .contains("encode_hits > 0"));
        let mut missing = valid_rows();
        missing.remove(1);
        assert!(validate_bench_json(&fake_doc(&missing))
            .unwrap_err()
            .contains("grpsel-batched-parN"));
    }

    #[test]
    fn validator_requires_monotone_percentiles_and_tail_run() {
        // Missing the latency-tail row entirely.
        let mut no_tail = valid_rows();
        no_tail.remove(12);
        assert!(validate_bench_json(&fake_doc(&no_tail))
            .unwrap_err()
            .contains("latency-tail"));
        // Tail row present but its histogram never recorded anything.
        let mut empty = valid_rows();
        empty[12] = fake_tail_run(0.0, 0.0, 0.0, 0.0, 0);
        assert!(validate_bench_json(&fake_doc(&empty))
            .unwrap_err()
            .contains("latency-tail"));
        // Percentiles out of order: the document is corrupt.
        let mut bad = valid_rows();
        bad[12] = fake_tail_run(2.0, 1.0, 3.0, 4.0, 6);
        assert!(validate_bench_json(&fake_doc(&bad))
            .unwrap_err()
            .contains("monotone"));
        // p99 above max is just as corrupt.
        let mut above = valid_rows();
        above[12] = fake_tail_run(0.5, 1.0, 5.0, 4.0, 6);
        assert!(validate_bench_json(&fake_doc(&above))
            .unwrap_err()
            .contains("monotone"));
    }

    #[test]
    fn validator_enforces_append_reselect_identity() {
        validate_bench_json(&fake_doc(&valid_rows())).expect("fixture should validate");
        // The extended re-select disagrees with the cold run's bits.
        let mut split = valid_rows();
        split[14] = fake_append_run("append-reselect", "bb22", 200, 3, 2_000, 6, (0, 6));
        assert!(validate_bench_json(&fake_doc(&split))
            .unwrap_err()
            .contains("disagrees"));
        // A warm row that never recorded appended rows.
        let mut none_appended = valid_rows();
        none_appended[14] = fake_append_run("append-reselect", "aa11", 0, 3, 2_000, 6, (0, 6));
        assert!(validate_bench_json(&fake_doc(&none_appended))
            .unwrap_err()
            .contains("appended no rows"));
        // A warm row that rebuilt every encoding instead of extending.
        let mut rebuilt = valid_rows();
        rebuilt[14] = fake_append_run("append-reselect", "aa11", 200, 0, 2_000, 6, (0, 6));
        assert!(validate_bench_json(&fake_doc(&rebuilt))
            .unwrap_err()
            .contains("reused no encodings"));
        // The streaming client re-shipped as much as the cold one.
        let mut fat = valid_rows();
        fat[14] = fake_append_run("append-reselect", "aa11", 200, 3, 50_000, 6, (0, 6));
        assert!(validate_bench_json(&fake_doc(&fat))
            .unwrap_err()
            .contains("wire cost"));
        // A warm row with no cold twin to compare against.
        let mut orphan = valid_rows();
        orphan.remove(13);
        assert!(validate_bench_json(&fake_doc(&orphan))
            .unwrap_err()
            .contains("no reselect-cold twin"));
        // No append rows at all (the lone patched row does not count as
        // an invalidate-all baseline).
        let mut missing = valid_rows();
        missing.drain(13..15);
        assert!(validate_bench_json(&fake_doc(&missing))
            .unwrap_err()
            .contains("no append/reselect runs"));
    }

    #[test]
    fn validator_enforces_patched_reselect_ledger() {
        validate_bench_json(&fake_doc(&valid_rows())).expect("fixture should validate");
        // The patched re-select disagrees with the cold run's bits.
        let mut split = valid_rows();
        split[15] = fake_append_run("append-reselect-patched", "bb22", 200, 3, 2_000, 2, (5, 1));
        assert!(validate_bench_json(&fake_doc(&split))
            .unwrap_err()
            .contains("disagrees"));
        // A "patched" row that never patched a memo.
        let mut unpatched = valid_rows();
        unpatched[15] =
            fake_append_run("append-reselect-patched", "aa11", 200, 3, 2_000, 2, (0, 6));
        assert!(validate_bench_json(&fake_doc(&unpatched))
            .unwrap_err()
            .contains("patched no memos"));
        // Patched + invalidated no longer covers the baseline's memo.
        let mut leaky = valid_rows();
        leaky[15] = fake_append_run("append-reselect-patched", "aa11", 200, 3, 2_000, 2, (5, 0));
        assert!(validate_bench_json(&fake_doc(&leaky))
            .unwrap_err()
            .contains("not conserved"));
        // The baseline claims patched memos: it is not an invalidate-all
        // baseline and the comparison is meaningless.
        let mut fake_baseline = valid_rows();
        fake_baseline[14] = fake_append_run("append-reselect", "aa11", 200, 3, 2_000, 6, (1, 5));
        assert!(validate_bench_json(&fake_doc(&fake_baseline))
            .unwrap_err()
            .contains("baseline claims"));
        // Patching saved no issued work over invalidate-all.
        let mut no_saving = valid_rows();
        no_saving[15] =
            fake_append_run("append-reselect-patched", "aa11", 200, 3, 2_000, 6, (5, 1));
        assert!(validate_bench_json(&fake_doc(&no_saving))
            .unwrap_err()
            .contains("not under the invalidate-all baseline"));
        // No patched row at all.
        let mut missing = valid_rows();
        missing.remove(15);
        assert!(validate_bench_json(&fake_doc(&missing))
            .unwrap_err()
            .contains("no append-reselect-patched runs"));
    }

    #[test]
    fn append_reselect_extends_and_matches_cold() {
        let rows = append_reselect(12, 600, &[60], 2, 1);
        assert_eq!(rows.len(), 3);
        let cold = rows.iter().find(|r| r.algo == "reselect-cold").unwrap();
        let warm = rows.iter().find(|r| r.algo == "append-reselect").unwrap();
        let patched = rows
            .iter()
            .find(|r| r.algo == "append-reselect-patched")
            .unwrap();
        // Bit-identity: both extended sessions' memoized outcome digests
        // equal the cold run's on the concatenated table.
        assert_eq!(warm.pvalue_hash, cold.pvalue_hash);
        assert_eq!(patched.pvalue_hash, cold.pvalue_hash);
        assert!(!warm.pvalue_hash.is_empty());
        // The warm-birth ledger: the batch was appended and real
        // encodings survived the extension — on both streaming rows.
        assert_eq!(warm.append_rows, 60);
        assert!(warm.extended_encodings > 0);
        assert_eq!(patched.append_rows, 60);
        assert!(patched.extended_encodings > 0);
        // The baseline invalidates every outcome on append, so its
        // re-select issues exactly the cold query stream — the saving is
        // encode/scaffold reuse and wire bytes, not skipped tests.
        assert_eq!(warm.issued, cold.issued);
        assert_eq!(warm.memo_patched, 0);
        assert!(warm.memo_invalidated > 0);
        // The patched row pays O(batch): resident memos were re-derived
        // from patched counts, the ledger conserves the baseline's memo,
        // and the re-select issues strictly fewer tests.
        assert!(patched.memo_patched > 0);
        assert_eq!(
            patched.memo_patched + patched.memo_invalidated,
            warm.memo_invalidated
        );
        assert!(patched.issued < warm.issued);
        assert_eq!(warm.selected, cold.selected);
        assert_eq!(patched.selected, cold.selected);
        // Only the batch frame crosses the wire.
        assert!(warm.req_bytes > 0 && warm.req_bytes < cold.req_bytes);
    }

    #[test]
    fn serve_latency_tail_reports_ascending_percentiles() {
        let rows = serve_latency_tail(10, 400, 2, 2, 2);
        assert_eq!(rows.len(), 2);
        let hot = &rows[0];
        let cold = &rows[1];
        assert_eq!(hot.algo, "tail-hot");
        assert_eq!(cold.algo, "tail-cold");
        for r in &rows {
            assert_eq!(r.hist_total, 4, "{}: 2 clients x 2 rounds", r.algo);
            assert!(
                r.p50_ms <= r.p95_ms && r.p95_ms <= r.p99_ms && r.p99_ms <= r.max_ms,
                "{}: percentiles must ascend ({} / {} / {} / {})",
                r.algo,
                r.p50_ms,
                r.p95_ms,
                r.p99_ms,
                r.max_ms
            );
            assert!(r.max_ms > 0.0, "{}: requests take nonzero time", r.algo);
        }
        // The transport asymmetry: hot requests address by fingerprint,
        // cold requests ship a whole CSV dataset.
        assert!(hot.req_bytes < 1024, "hot request is fp-addressed");
        assert!(cold.req_bytes > 1024, "cold request carries a dataset");
    }

    #[test]
    fn validator_enforces_kernel_byte_identity() {
        validate_bench_json(&fake_doc(&valid_rows())).expect("fixture should validate");
        // The two kernels of one scenario disagree on outcome bits.
        let mut split = valid_rows();
        split[7] = fake_scaling_run("gtest", "kernels-reference", 1000, "deadbeef", 0, 40);
        assert!(validate_bench_json(&fake_doc(&split))
            .unwrap_err()
            .contains("disagree"));
        // Row counts regress within an algo.
        let mut shrunk = valid_rows();
        shrunk[8] = fake_scaling_run("gtest", "kernels-narrow", 500, "abc9", 150, 120);
        shrunk[9] = fake_scaling_run("gtest", "kernels-reference", 500, "abc9", 0, 120);
        assert!(validate_bench_json(&fake_doc(&shrunk))
            .unwrap_err()
            .contains("ascending"));
        // A narrow G-test row that never touched a dense arena.
        let mut hashed = valid_rows();
        hashed[6] = fake_scaling_run("gtest", "kernels-narrow", 1000, "abc1", 0, 40);
        assert!(validate_bench_json(&fake_doc(&hashed))
            .unwrap_err()
            .contains("dense"));
        // A row with no outcome digest at all.
        let mut blank = valid_rows();
        blank[10] = fake_scaling_run("fisherz", "kernels-blocked", 1000, "", 0, 0);
        assert!(validate_bench_json(&fake_doc(&blank))
            .unwrap_err()
            .contains("pvalue_hash"));
        // No rows-scaling rows anywhere.
        let mut none = valid_rows();
        none.drain(6..12);
        assert!(validate_bench_json(&fake_doc(&none))
            .unwrap_err()
            .contains("rows-scaling"));
    }

    #[test]
    fn rows_scaling_kernels_agree_and_count() {
        let rows = rows_scaling(&[600], 2, 1);
        assert_eq!(rows.len(), 4);
        let by_algo = |algo: &str| rows.iter().find(|r| r.algo == algo).unwrap();
        let narrow = by_algo("kernels-narrow");
        let reference = by_algo("kernels-reference");
        let blocked = by_algo("kernels-blocked");
        let naive = by_algo("kernels-naive");
        // Byte-identity across kernel generations, per tester.
        assert_eq!(narrow.pvalue_hash, reference.pvalue_hash);
        assert_eq!(blocked.pvalue_hash, naive.pvalue_hash);
        assert!(!narrow.pvalue_hash.is_empty());
        // The narrow path counts its dense arena work; the reference path
        // by construction never touches an arena.
        assert!(narrow.dense_count_cells > 0);
        assert_eq!(reference.dense_count_cells, 0);
        assert!(narrow.narrow_code_bytes > 0);
        for r in &rows {
            assert_eq!(r.rows, 600);
            assert!(r.ns_per_row > 0.0, "{}", r.algo);
        }
        // Selections agree across kernels of the same tester (different
        // testers legitimately select differently).
        assert_eq!(narrow.selected, reference.selected);
        assert_eq!(blocked.selected, naive.selected);
    }

    #[test]
    fn smoke_suite_validates() {
        let json = to_json(&smoke_suite());
        validate_bench_json(&json).expect("smoke output must validate");
    }

    #[test]
    fn serve_concurrent_warm_fp_is_cached_and_tiny() {
        let rows = serve_concurrent(10, 400, 3);
        assert_eq!(rows.len(), 4);
        let by_algo = |algo: &str| rows.iter().find(|r| r.algo == algo).unwrap();
        let cold = by_algo("serve-cold-csv");
        let warm_csv = by_algo("serve-warm-csv");
        let put = by_algo("serve-put");
        let warm_fp = by_algo("serve-warm-fp");
        assert!(cold.issued > 0, "cold wave must issue tests");
        assert_eq!(warm_csv.issued, 0, "warm csv wave is fully cached");
        assert_eq!(warm_fp.issued, 0, "warm fp wave is fully cached");
        assert!(warm_fp.cache_hits > 0);
        // The transport win: csv requests ship the dataset, fp requests
        // ship a fingerprint.
        assert!(cold.req_bytes > 1024, "csv request carries the dataset");
        assert!(
            warm_fp.req_bytes < 1024,
            "fp request must be under 1 KiB (got {})",
            warm_fp.req_bytes
        );
        assert!(put.req_bytes > 0 && put.wall_ms >= 0.0);
        // Every wave selects identically.
        assert_eq!(cold.selected, warm_csv.selected);
        assert_eq!(cold.selected, warm_fp.selected);
    }

    #[test]
    fn validator_rejects_bad_documents() {
        assert!(validate_bench_json("not json").is_err());
        assert!(validate_bench_json("{\"bench\":\"x\",\"runs\":[]}").is_err());
        // A runs array whose rows lack the encode counters.
        let legacy = "{\"bench\":\"fairsel-engine\",\"runs\":[{\"scenario\":\"gtest-batch/x\",\
                      \"algo\":\"grpsel-batched-par2\",\"issued\":3,\"wall_ms\":1.0}]}";
        assert!(validate_bench_json(legacy).is_err());
        // Encode counters present but never hit.
        let cold = "{\"bench\":\"fairsel-engine\",\"runs\":[{\"scenario\":\"gtest-batch/x\",\
                    \"algo\":\"grpsel-batched-par2\",\"issued\":3,\"encode_hits\":0,\
                    \"encode_misses\":9,\"wall_ms\":1.0}]}";
        assert!(validate_bench_json(cold).is_err());
    }
}
