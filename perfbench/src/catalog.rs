//! The metric catalogue: every metric the benchmark reports, its unit,
//! which direction is better, and — for a per-layer metric — the
//! end-to-end metric and workload it should move. `BENCHMARK.json` lists
//! the same names; later changes cite them.

use std::collections::BTreeMap;

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// End-to-end metric · workload this metric should move.
    pub moves: &'static str,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Def {
    Def {
        name,
        unit,
        better,
        moves,
    }
}

/// End-to-end metrics, measured with tracing off, that `BENCHMARK.json`
/// bounds and the result line carries.
pub const END_TO_END: &[Def] = &[
    def("latency_p50_ms", "ms", "lower", ""),
    def("setup_s", "s", "lower", ""),
    def("peak_rss_mb", "MiB", "lower", ""),
];

/// End-to-end metrics that are printed but not bounded: on a shared
/// 2-vCPU host their spread between runs of the same code reaches 0.3–0.6
/// of their median, more than any bound a regression check can use.
pub const UNBOUNDED: &[Def] = &[
    def("throughput_ops_s", "ops/s", "higher", ""),
    def("latency_p95_ms", "ms", "lower", ""),
];

/// Per-layer metrics. Counts come from the untraced run; times are
/// medians over the traced replay's ops.
pub const PER_LAYER: &[Def] = &[
    def(
        "server.handler_ms",
        "ms",
        "lower",
        "latency_p50_ms · warm-serve",
    ),
    def(
        "server.wire_ms",
        "ms",
        "lower",
        "latency_p50_ms · warm-serve",
    ),
    def(
        "server.queue_wait_ms",
        "ms",
        "lower",
        "latency_p95_ms, throughput_ops_s · warm-serve",
    ),
    def(
        "server.rx_bytes_per_op",
        "bytes",
        "lower",
        "latency_p50_ms · cold-select",
    ),
    def(
        "server.tx_bytes_per_op",
        "bytes",
        "lower",
        "latency_p50_ms · warm-serve",
    ),
    def(
        "server.shed_conns",
        "count",
        "lower",
        "error_ratio · warm-serve",
    ),
    def(
        "server.fingerprint_ms",
        "ms",
        "lower",
        "latency_p50_ms · stream-append",
    ),
    def(
        "server.warm_child_ratio",
        "ratio",
        "higher",
        "latency_p50_ms, peak_rss_mb · stream-append",
    ),
    def(
        "server.dataset_evictions",
        "count",
        "lower",
        "latency_p50_ms, peak_rss_mb · stream-append",
    ),
    def(
        "table.decode_ms",
        "ms",
        "lower",
        "latency_p50_ms · cold-select",
    ),
    def(
        "table.split_ms",
        "ms",
        "lower",
        "latency_p50_ms · stream-append",
    ),
    def(
        "table.concat_ms",
        "ms",
        "lower",
        "latency_p50_ms · stream-append",
    ),
    def(
        "table.extend_ms",
        "ms",
        "lower",
        "latency_p50_ms · stream-append",
    ),
    def(
        "table.extended_encodings",
        "count",
        "higher",
        "latency_p50_ms · stream-append",
    ),
    def(
        "table.encode_misses",
        "count",
        "lower",
        "latency_p50_ms, peak_rss_mb · cold-select",
    ),
    def(
        "table.encode_hit_ratio",
        "ratio",
        "higher",
        "latency_p50_ms, peak_rss_mb · cold-select",
    ),
    def(
        "table.narrow_code_bytes",
        "bytes",
        "lower",
        "latency_p50_ms, peak_rss_mb · cold-select",
    ),
    def(
        "citest.gtest_ms",
        "ms",
        "lower",
        "latency_p50_ms · cold-select",
    ),
    def(
        "citest.fisherz_ms",
        "ms",
        "lower",
        "latency_p50_ms · cold-select",
    ),
    def(
        "citest.us_per_query",
        "us",
        "lower",
        "latency_p50_ms · cold-select",
    ),
    def(
        "citest.queries_per_call",
        "count",
        "higher",
        "latency_p50_ms · cold-select",
    ),
    def(
        "citest.dense_count_cells",
        "count",
        "lower",
        "latency_p50_ms · cold-select",
    ),
    def(
        "citest.patch_ms",
        "ms",
        "lower",
        "latency_p50_ms · stream-append",
    ),
    def(
        "graph.dsep_ms",
        "ms",
        "lower",
        "latency_p50_ms · oracle-wide",
    ),
    def(
        "engine.issued",
        "count",
        "lower",
        "latency_p50_ms · warm-serve (must stay 0), stream-append",
    ),
    def(
        "engine.hit_ratio",
        "ratio",
        "higher",
        "latency_p50_ms · warm-serve (must stay 1.0), stream-append",
    ),
    def(
        "engine.self_ms",
        "ms",
        "lower",
        "latency_p50_ms · oracle-wide, stream-append",
    ),
    def(
        "engine.extend_ms",
        "ms",
        "lower",
        "latency_p50_ms, peak_rss_mb · stream-append",
    ),
    def(
        "engine.patch_ratio",
        "ratio",
        "higher",
        "latency_p50_ms, peak_rss_mb · stream-append",
    ),
    def(
        "engine.suff_evictions",
        "count",
        "lower",
        "latency_p50_ms, peak_rss_mb · stream-append",
    ),
    def(
        "engine.pool_busy_ms",
        "ms",
        "lower",
        "latency_p50_ms · cold-select",
    ),
    def(
        "engine.grouped_batches",
        "count",
        "lower",
        "latency_p50_ms · cold-select",
    ),
    def(
        "core.seqsel_ms",
        "ms",
        "lower",
        "latency_p50_ms · oracle-wide",
    ),
    def(
        "core.grpsel_ms",
        "ms",
        "lower",
        "latency_p50_ms · oracle-wide",
    ),
    def(
        "core.seqsel_issued",
        "count",
        "lower",
        "latency_p50_ms · oracle-wide",
    ),
    def(
        "core.grpsel_issued",
        "count",
        "lower",
        "latency_p50_ms · oracle-wide",
    ),
    def(
        "core.render_ms",
        "ms",
        "lower",
        "latency_p50_ms · warm-serve",
    ),
    def(
        "ml.train_score_ms",
        "ms",
        "lower",
        "latency_p50_ms, throughput_ops_s · warm-serve",
    ),
    def(
        "trace.unattributed_ms",
        "ms",
        "lower",
        "none (trace coverage)",
    ),
    def("trace.overhead_pct", "%", "lower", "none (trace cost)"),
];

/// A reported value with the context printed beside it (sample count,
/// ratio base, or why the layer did no work in this workload).
#[derive(Clone, Debug)]
pub struct Value {
    pub value: f64,
    pub note: String,
}

/// Reported metrics by name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, Value>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        let known = END_TO_END
            .iter()
            .chain(UNBOUNDED)
            .chain(PER_LAYER)
            .any(|d| d.name == name);
        assert!(known, "metric {name} is not in the catalogue");
        self.0.insert(
            name,
            Value {
                value,
                note: note.into(),
            },
        );
    }

    /// A layer this workload does not exercise: reported as 0.
    pub fn idle(&mut self, name: &'static str) {
        self.set(name, 0.0, "n/a: layer not exercised by this workload");
    }

    /// A ratio, reported with its numerator and base count.
    pub fn ratio(&mut self, name: &'static str, num: f64, base: f64, base_name: &str) {
        let value = if base > 0.0 { num / base } else { 0.0 };
        self.set(name, value, format!("{num} / {base} {base_name}"));
    }

    pub fn get(&self, name: &str) -> Option<&Value> {
        self.0.get(name)
    }
}
