//! fairsel-obs: std-only observability primitives for the fairsel stack.
//!
//! Three pieces, no external crates:
//!
//! - [`hist`] — latency [`Histogram`]s with four atomic buckets per
//!   octave, exact counts, and `p50`/`p95`/`p99`/`max` exposition, plus a
//!   monotone [`Counter`] for gauges like the pool busy-time integral.
//! - [`trace`] — scoped [`span`]s with monotonic timestamps, parent
//!   links, per-thread buffering, and a bounded process-wide
//!   [`TraceSink`] (disabled by default; a disabled span is one atomic
//!   load).
//! - a process-wide **registry** of named histograms and counters
//!   ([`histogram`] / [`counter`]), so instrumentation sites in the
//!   engine don't have to thread handles through every call path, and
//!   the server's `stats` response can enumerate everything by name.
//!
//! Metric names use `base/label` (e.g. `engine_batch/grouped`): the part
//! after the slash is a label value (batch kind, command), which the
//! Prometheus renderer in the server crate turns into
//! `fairsel_engine_batch_ms_bucket{kind="grouped",...}`.
//!
//! This crate sits below everything else in the workspace (it depends on
//! nothing) so engine, server, cli, and bench can all share one sink and
//! one registry.

pub mod hist;
pub mod lockorder;
pub mod trace;

pub use hist::{bucket_index, bucket_upper, Counter, HistSnapshot, Histogram, N_BUCKETS};
pub use lockorder::{TrackedGuard, TrackedMutex};
pub use trace::{
    enabled, now_us, record_span_at, set_enabled, sink, span, span_kv, CompletedSpan, SpanGuard,
    SpanKv, TraceSink, DEFAULT_SINK_CAP,
};

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

#[derive(Default)]
struct Registry {
    // analyze: bounded-by one entry per distinct metric name, a static set in the code
    hists: BTreeMap<String, Arc<Histogram>>,
    // analyze: bounded-by one entry per distinct metric name, a static set in the code
    counters: BTreeMap<String, Arc<Counter>>,
}

fn registry() -> &'static TrackedMutex<Registry> {
    static REG: OnceLock<TrackedMutex<Registry>> = OnceLock::new();
    REG.get_or_init(|| TrackedMutex::new("obs.registry", Registry::default()))
}

/// The process-wide histogram named `name`, created on first use.
/// Callers on hot paths should cache the returned `Arc`.
pub fn histogram(name: &str) -> Arc<Histogram> {
    let mut reg = registry().lock();
    Arc::clone(
        reg.hists
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new())),
    )
}

/// The process-wide counter named `name`, created on first use.
pub fn counter(name: &str) -> Arc<Counter> {
    let mut reg = registry().lock();
    Arc::clone(
        reg.counters
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Counter::new())),
    )
}

/// Snapshot every registered histogram, sorted by name.
pub fn histograms_snapshot() -> Vec<(String, HistSnapshot)> {
    let reg = registry().lock();
    reg.hists
        .iter()
        .map(|(k, h)| (k.clone(), h.snapshot()))
        .collect()
}

/// Read every registered counter, sorted by name.
pub fn counters_snapshot() -> Vec<(String, u64)> {
    let reg = registry().lock();
    reg.counters
        .iter()
        .map(|(k, c)| (k.clone(), c.get()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_interns_by_name() {
        let a = histogram("test_reg/a");
        let b = histogram("test_reg/a");
        assert!(Arc::ptr_eq(&a, &b));
        a.record(7);
        let snap = histograms_snapshot();
        let (_, s) = snap
            .iter()
            .find(|(k, _)| k == "test_reg/a")
            .expect("registered histogram is enumerable");
        assert!(s.count >= 1);
    }

    #[test]
    fn counters_accumulate_and_enumerate() {
        let c = counter("test_reg/busy");
        c.add(5);
        c.add(7);
        assert!(c.get() >= 12);
        let snap = counters_snapshot();
        assert!(snap.iter().any(|(k, v)| k == "test_reg/busy" && *v >= 12));
    }

    #[test]
    fn snapshots_are_name_sorted() {
        histogram("test_sorted/b");
        histogram("test_sorted/a");
        let names: Vec<String> = histograms_snapshot().into_iter().map(|(k, _)| k).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }
}
