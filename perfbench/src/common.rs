//! Pieces every workload shares: repeated set-up, engine and server
//! counters, and the folding of measurements into named metrics.

use crate::catalog::Metrics;
use crate::served::{Conn, ServerProc, ServerStats};
use crate::trace::{fold, Span};
use fairsel_engine::EngineStats;
use fairsel_server::Json;
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Command-line context of one run.
pub struct Ctx {
    pub fairsel: PathBuf,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Ctx {
    /// A run performs a fixed number of ops, so counts repeat exactly and
    /// both sides of a comparison do the same work; `per_second` is the
    /// rate that makes one run last about `--seconds` on a 2-core host.
    pub fn ops(&self, per_second: f64) -> usize {
        ((self.seconds as f64 * per_second).round() as usize).max(4)
    }
}

/// A started server after its set-up, with the control connection that
/// did the set-up (and later reads `stats`).
pub struct Ready<T> {
    pub server: ServerProc,
    pub ctl: Conn,
    pub state: T,
    pub setup_s: Vec<f64>,
}

/// Start the server and run `setup` against it [`SETUPS`] times, timing
/// each from process start to the end of the set-up; every server but the
/// last is shut down again.
pub fn setup_server<T>(
    ctx: &Ctx,
    mut setup: impl FnMut(&mut Conn) -> Result<T, String>,
) -> Result<Ready<T>, String> {
    let mut setup_s = Vec::new();
    loop {
        let t0 = Instant::now();
        let server = ServerProc::start(&ctx.fairsel)?;
        let mut ctl = Conn::connect(&server.addr)?;
        let state = setup(&mut ctl)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if setup_s.len() == SETUPS {
            return Ok(Ready {
                server,
                ctl,
                state,
                setup_s,
            });
        }
        drop(ctl);
        server.shutdown()?;
    }
}

/// `{"cmd":"put"}`: the request frame that precedes a dataset upload.
pub const PUT: &[u8] = br#"{"cmd":"put"}"#;

/// Parse the fingerprint a `put` or `append` reply carries in its body.
pub fn fingerprint_of(reply: &crate::served::Reply) -> Result<u64, String> {
    let hex = reply.body()?;
    u64::from_str_radix(hex, 16).map_err(|_| format!("bad fingerprint {hex:?}"))
}

/// Engine counters of one selection, from a `select` response's stats or
/// from an in-process session.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counts {
    pub requested: f64,
    pub issued: f64,
    pub cache_hits: f64,
    pub grouped_batches: f64,
    pub encode_hits: f64,
    pub encode_misses: f64,
    pub narrow_code_bytes: f64,
    pub dense_count_cells: f64,
    pub extended_encodings: f64,
    pub memoized_before: f64,
    pub memo_patched: f64,
    pub suff_evictions: f64,
}

impl Counts {
    pub fn from_json(s: &Json) -> Result<Counts, String> {
        let n = |k: &str| s.get_num(k).ok_or_else(|| format!("engine stats lack {k}"));
        Ok(Counts {
            requested: n("requested")?,
            issued: n("issued")?,
            cache_hits: n("cache_hits")?,
            grouped_batches: n("grouped_batches")?,
            encode_hits: n("encode_cache_hits")?,
            encode_misses: n("encode_cache_misses")?,
            narrow_code_bytes: n("narrow_code_bytes")?,
            dense_count_cells: n("dense_count_cells")?,
            extended_encodings: n("extended_encodings")?,
            memoized_before: n("memoized_before")?,
            memo_patched: n("memo_patched")?,
            suff_evictions: n("suff_evictions")?,
        })
    }

    pub fn from_stats(s: &EngineStats) -> Counts {
        Counts {
            requested: s.requested as f64,
            issued: s.issued as f64,
            cache_hits: s.cache_hits as f64,
            grouped_batches: s.grouped_batches as f64,
            encode_hits: s.encode_cache_hits as f64,
            encode_misses: s.encode_cache_misses as f64,
            narrow_code_bytes: s.narrow_code_bytes as f64,
            dense_count_cells: s.dense_count_cells as f64,
            extended_encodings: s.extended_encodings as f64,
            memoized_before: s.memoized_before as f64,
            memo_patched: s.memo_patched as f64,
            suff_evictions: s.suff_evictions as f64,
        }
    }

    /// Field-wise `self + sign · other`.
    fn combine(&self, o: &Counts, sign: f64) -> Counts {
        Counts {
            requested: self.requested + sign * o.requested,
            issued: self.issued + sign * o.issued,
            cache_hits: self.cache_hits + sign * o.cache_hits,
            grouped_batches: self.grouped_batches + sign * o.grouped_batches,
            encode_hits: self.encode_hits + sign * o.encode_hits,
            encode_misses: self.encode_misses + sign * o.encode_misses,
            narrow_code_bytes: self.narrow_code_bytes + sign * o.narrow_code_bytes,
            dense_count_cells: self.dense_count_cells + sign * o.dense_count_cells,
            extended_encodings: self.extended_encodings + sign * o.extended_encodings,
            memoized_before: self.memoized_before + sign * o.memoized_before,
            memo_patched: self.memo_patched + sign * o.memo_patched,
            suff_evictions: self.suff_evictions + sign * o.suff_evictions,
        }
    }

    pub fn plus(&self, o: &Counts) -> Counts {
        self.combine(o, 1.0)
    }

    pub fn minus(&self, o: &Counts) -> Counts {
        self.combine(o, -1.0)
    }
}

/// Engine- and encoding-layer counts over `ops` ops. `by_algo` holds the
/// issued tests of each algorithm's selections and how many ran.
pub fn engine_counts(
    m: &mut Metrics,
    total: &Counts,
    ops: usize,
    by_algo: [(&'static str, f64, usize); 2],
    extends: bool,
) {
    let per_op = |v: f64| v / ops as f64;
    let note = |v: f64| format!("{v} over {ops} ops");
    m.set("engine.issued", per_op(total.issued), note(total.issued));
    m.ratio(
        "engine.hit_ratio",
        total.cache_hits,
        total.requested,
        "requested",
    );
    m.set(
        "table.encode_misses",
        per_op(total.encode_misses),
        note(total.encode_misses),
    );
    m.ratio(
        "table.encode_hit_ratio",
        total.encode_hits,
        total.encode_hits + total.encode_misses,
        "encode lookups",
    );
    m.set(
        "table.narrow_code_bytes",
        per_op(total.narrow_code_bytes),
        note(total.narrow_code_bytes),
    );
    m.set(
        "citest.dense_count_cells",
        per_op(total.dense_count_cells),
        note(total.dense_count_cells),
    );
    m.set(
        "engine.grouped_batches",
        per_op(total.grouped_batches),
        note(total.grouped_batches),
    );
    m.set(
        "engine.suff_evictions",
        per_op(total.suff_evictions),
        note(total.suff_evictions),
    );
    if extends {
        m.set(
            "table.extended_encodings",
            per_op(total.extended_encodings),
            note(total.extended_encodings),
        );
        m.ratio(
            "engine.patch_ratio",
            total.memo_patched,
            total.memoized_before,
            "memoized_before",
        );
    } else {
        m.idle("table.extended_encodings");
        m.idle("engine.patch_ratio");
    }
    for (name, issued, runs) in by_algo {
        if runs == 0 {
            m.idle(name);
        } else {
            m.set(
                name,
                issued / runs as f64,
                format!("{issued} over {runs} selections"),
            );
        }
    }
}

/// Server-layer metrics from `stats` deltas over the measured window.
/// `client` is the total client-side latency of the `requests` requests
/// the ops made, seconds.
pub fn server_counts(
    m: &mut Metrics,
    d: &ServerStats,
    ops: usize,
    requests: usize,
    client_s: f64,
    appends: Option<usize>,
) -> Result<(), String> {
    if d.op_requests != requests as f64 {
        return Err(format!(
            "server counted {} op requests, the clients sent {requests}",
            d.op_requests
        ));
    }
    let handler_ms = d.op_wall_us / 1e3 / requests as f64;
    let reqs = format!("over {requests} requests");
    m.set("server.handler_ms", handler_ms, reqs.clone());
    m.set(
        "server.wire_ms",
        client_s * 1e3 / requests as f64 - handler_ms,
        reqs,
    );
    m.set(
        "server.queue_wait_ms",
        d.queue_wait_ms / d.accepted_conns.max(1.0),
        format!("per connection, {} connections", d.accepted_conns),
    );
    let per_op = |v: f64| (v / ops as f64, format!("{v} over {ops} ops"));
    let (rx, rx_note) = per_op(d.bytes_rx);
    m.set("server.rx_bytes_per_op", rx, rx_note);
    let (tx, tx_note) = per_op(d.bytes_tx);
    m.set("server.tx_bytes_per_op", tx, tx_note);
    m.set("server.shed_conns", d.shed_conns, "");
    m.set("server.dataset_evictions", d.dataset_evictions, "");
    let (busy, busy_note) = per_op(d.pool_busy_ms);
    m.set("engine.pool_busy_ms", busy, busy_note);
    match appends {
        Some(n) => m.ratio(
            "server.warm_child_ratio",
            d.warm_children,
            n as f64,
            "appends",
        ),
        None => m.idle("server.warm_child_ratio"),
    }
    Ok(())
}

/// Every server-layer metric, for the workload that has no server.
pub fn no_server(m: &mut Metrics) {
    for name in [
        "server.handler_ms",
        "server.wire_ms",
        "server.queue_wait_ms",
        "server.rx_bytes_per_op",
        "server.tx_bytes_per_op",
        "server.shed_conns",
        "server.dataset_evictions",
        "server.warm_child_ratio",
        "engine.pool_busy_ms",
    ] {
        m.idle(name);
    }
}

/// Value at quantile `q` of `sorted` (linear interpolation between order
/// statistics).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Parts of equal length the measured window is cut into for
/// `throughput_ops_s` and `latency_p95_ms`.
const WINDOWS: usize = 5;

/// The end-to-end metrics of a closed-loop run.
pub struct Measured {
    /// Latency of every successful op, seconds.
    pub latencies_s: Vec<f64>,
    /// When each of those ops completed, seconds since the window opened.
    pub done_s: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    /// Wall time of the measured window, seconds.
    pub wall_s: f64,
    pub setup_s: Vec<f64>,
    pub peak_rss_mib: f64,
    pub rss_of: &'static str,
}

impl Measured {
    /// Latencies in ms of the ops completed in each of the [`WINDOWS`]
    /// parts of the measured window.
    fn windows(&self) -> Vec<Vec<f64>> {
        let mut parts = vec![Vec::new(); WINDOWS];
        for (lat, done) in self.latencies_s.iter().zip(&self.done_s) {
            let k = (done / self.wall_s * WINDOWS as f64) as usize;
            parts[k.min(WINDOWS - 1)].push(lat * 1e3);
        }
        parts
    }

    /// Throughput and the 95th percentile are medians over the parts of the
    /// measured window, so that a burst of noise from the host that slows
    /// one part does not move them; the median latency needs no such help.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        let ok = self.latencies_s.len();
        let parts = self.windows();
        let list = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.2}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let rates: Vec<f64> = parts
            .iter()
            .map(|p| p.len() as f64 / (self.wall_s / WINDOWS as f64))
            .collect();
        m.set(
            "throughput_ops_s",
            median(&rates),
            format!(
                "{ok} ok ops in {:.3} s; median of {WINDOWS} parts: {}",
                self.wall_s,
                list(&rates)
            ),
        );
        let mut lat: Vec<f64> = self.latencies_s.iter().map(|s| s * 1e3).collect();
        lat.sort_by(f64::total_cmp);
        m.set("latency_p50_ms", quantile(&lat, 0.5), format!("n={ok}"));
        let p95s: Vec<f64> = parts
            .into_iter()
            .filter(|p| !p.is_empty())
            .map(|mut p| {
                p.sort_by(f64::total_cmp);
                quantile(&p, 0.95)
            })
            .collect();
        m.set(
            "latency_p95_ms",
            median(&p95s),
            format!(
                "n={ok}, about {} per part; median of {} parts: {}",
                ok / WINDOWS,
                p95s.len(),
                list(&p95s)
            ),
        );
        let setups: Vec<String> = self.setup_s.iter().map(|s| format!("{s:.3}")).collect();
        m.set(
            "setup_s",
            median(&self.setup_s),
            format!("median of {} set-ups: {}", setups.len(), setups.join(", ")),
        );
        m.set("peak_rss_mb", self.peak_rss_mib, self.rss_of);
        m
    }
}

/// One replay pass: its spans and the wall time of each op.
pub struct Replay {
    pub spans: Vec<Span>,
    pub op_wall_s: Vec<f64>,
}

/// Per-layer times from the spans of a traced replay. `handler_ms_per_op`
/// is the server's handler time per op (or, with no server, the
/// end-to-end op latency); what the spans do not cover of it is
/// `trace.unattributed_ms`.
pub fn replay_times(m: &mut Metrics, spans: &[Span], handler_ms_per_op: f64) {
    let f = fold(spans);
    let ops: Vec<u64> = f.roots.keys().copied().collect();
    let self_ms = |op: u64, names: &[&str]| -> f64 {
        names
            .iter()
            .map(|n| f.self_ns.get(&(op, *n)).map_or(0, |a| a.self_ns))
            .sum::<u64>() as f64
            / 1e6
    };
    let total_ms =
        |op: u64, name: &str| f.total_ns.get(&(op, name)).copied().unwrap_or(0) as f64 / 1e6;
    let seen = |names: &[&str]| f.self_ns.keys().any(|(_, n)| names.contains(n));
    let n_ops = ops.len();

    let layers: [(&'static str, &[&str]); 12] = [
        ("server.fingerprint_ms", &["server.fingerprint"]),
        ("table.decode_ms", &["table.decode"]),
        ("table.split_ms", &["table.split"]),
        ("table.concat_ms", &["table.concat"]),
        ("table.extend_ms", &["table.encode"]),
        ("citest.gtest_ms", &["citest.gtest"]),
        ("citest.fisherz_ms", &["citest.fisherz"]),
        ("citest.patch_ms", &["citest.patch"]),
        ("graph.dsep_ms", &["graph.dsep"]),
        ("engine.self_ms", &["core.seqsel", "core.grpsel"]),
        ("engine.extend_ms", &["engine.session"]),
        ("core.render_ms", &["core.render"]),
    ];
    for (metric, names) in layers {
        if seen(names) {
            let v: Vec<f64> = ops.iter().map(|&op| self_ms(op, names)).collect();
            m.set(
                metric,
                median(&v),
                format!("median over {n_ops} replayed ops"),
            );
        } else {
            m.idle(metric);
        }
    }
    for (metric, name) in [
        ("core.seqsel_ms", "core.seqsel"),
        ("core.grpsel_ms", "core.grpsel"),
    ] {
        let v: Vec<f64> = ops
            .iter()
            .filter(|&&op| f.total_ns.contains_key(&(op, name)))
            .map(|&op| total_ms(op, name))
            .collect();
        if v.is_empty() {
            m.idle(metric);
        } else {
            m.set(
                metric,
                median(&v),
                format!("median over {} selections", v.len()),
            );
        }
    }
    if seen(&["core.pipeline"]) {
        let v: Vec<f64> = ops
            .iter()
            .map(|&op| total_ms(op, "core.pipeline") - total_ms(op, "core.memo_replay"))
            .collect();
        m.set(
            "ml.train_score_ms",
            median(&v),
            format!("median over {n_ops} replayed ops"),
        );
    } else {
        m.idle("ml.train_score_ms");
    }

    let (mut tester_ns, mut queries, mut calls) = (0u64, 0u64, 0u64);
    for ((_, name), a) in &f.self_ns {
        if ["citest.gtest", "citest.fisherz", "graph.dsep"].contains(name) {
            tester_ns += a.query_ns;
            queries += a.queries;
            calls += a.calls;
        }
    }
    if queries > 0 {
        m.set(
            "citest.us_per_query",
            tester_ns as f64 / 1e3 / queries as f64,
            format!("{queries} queries"),
        );
        m.ratio(
            "citest.queries_per_call",
            queries as f64,
            calls as f64,
            "tester calls",
        );
    } else {
        m.idle("citest.us_per_query");
        m.idle("citest.queries_per_call");
    }

    // The selection runs twice more inside the replay than on the server
    // (the pipeline's memo-only pass and the explicit memo replay), so
    // those two are taken out of what the spans explain.
    let explained_ms: f64 = ops
        .iter()
        .map(|&op| f.roots[&op].1 as f64 / 1e6 - 2.0 * total_ms(op, "core.memo_replay"))
        .sum::<f64>()
        / n_ops as f64;
    m.set(
        "trace.unattributed_ms",
        handler_ms_per_op - explained_ms,
        format!("{handler_ms_per_op:.4} ms handled per op − {explained_ms:.4} ms in spans"),
    );
}

/// `trace.overhead_pct`: the replay's wall time with spans on against
/// spans off, summed over passes run in the order off, on, on, off so that
/// a drift in speed during the run cancels out.
pub fn trace_overhead(m: &mut Metrics, on: &[Replay], off: &[Replay]) {
    let total = |passes: &[Replay]| passes.iter().flat_map(|r| &r.op_wall_s).sum::<f64>();
    let (on_s, off_s) = (total(on), total(off));
    m.set(
        "trace.overhead_pct",
        (on_s - off_s) / off_s * 100.0,
        format!(
            "{on_s:.4} s with spans vs {off_s:.4} s without, {} passes each",
            on.len()
        ),
    );
}
