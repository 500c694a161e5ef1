//! In-memory span recording for the traced replay, and the tester wrapper
//! that attributes CI-test time to the layer that spent it.
//!
//! Spans are recorded from the benchmark's own code, around calls into
//! each layer's public functions; nothing inside the program is
//! instrumented. A [`Recorder`] keeps every span in memory until the
//! replay ends. With recording off, a span guard costs one branch and
//! reads no clock, which is how `trace.overhead_pct` compares the replay
//! with spans on and off.

use fairsel_ci::{
    CiOutcome, CiQueryRef, CiTest, CiTestBatch, CiTestShared, EncodeStats, EncodedTable,
    ScaffoldStats, VarId,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One completed span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// Enclosing span on the replay thread (0 for an op's root span).
    pub parent: u64,
    /// Index of the replayed op this span belongs to.
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Queries handed to a tester call (0 for non-tester spans).
    pub queries: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span sink shared by the replay thread and the engine's pool workers.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    /// Innermost open span on the replay thread; tester calls made on pool
    /// workers take it as their parent.
    open: AtomicU64,
    op: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Arc<Recorder> {
        Arc::new(Recorder {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            open: AtomicU64::new(0),
            op: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open the root span of replayed op `op`.
    pub fn op(&self, op: u64) -> Guard<'_> {
        self.op.store(op, Ordering::Relaxed);
        self.span("op")
    }

    /// Open a span on the replay thread; it closes when the guard drops.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        if !self.enabled {
            return Guard {
                rec: None,
                id: 0,
                parent: 0,
                name,
                start_ns: 0,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.open.swap(id, Ordering::Relaxed);
        Guard {
            rec: Some(self),
            id,
            parent,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Time a leaf call (a tester call, possibly on a pool worker).
    fn leaf<R>(&self, name: &'static str, queries: usize, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.push(Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: self.open.load(Ordering::Relaxed),
            op: self.op.load(Ordering::Relaxed),
            name,
            start_ns,
            end_ns,
            queries: queries as u64,
        });
        out
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    /// Every recorded span, in completion order.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"))
    }
}

/// An open span on the replay thread.
pub struct Guard<'a> {
    rec: Option<&'a Recorder>,
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(rec) = self.rec {
            let end_ns = rec.now_ns();
            rec.open.store(self.parent, Ordering::Relaxed);
            rec.push(Span {
                id: self.id,
                parent: self.parent,
                op: rec.op.load(Ordering::Relaxed),
                name: self.name,
                start_ns: self.start_ns,
                end_ns,
                queries: 0,
            });
        }
    }
}

/// A tester that delegates every call to the real one and records a span
/// around it, named `layer` ([`PATCH_LAYER`] for sufficient-statistic
/// patches). Whatever `extend_over` returns is wrapped the same way, so a
/// warm child's tester stays instrumented.
pub struct Timed<T> {
    inner: T,
    rec: Arc<Recorder>,
    layer: &'static str,
}

impl<T> Timed<T> {
    pub fn new(inner: T, rec: Arc<Recorder>, layer: &'static str) -> Self {
        Timed { inner, rec, layer }
    }
}

/// Span name of sufficient-statistic patches.
const PATCH_LAYER: &str = "citest.patch";

impl<T: CiTest> CiTest for Timed<T> {
    fn ci(&mut self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
        let Timed { inner, rec, layer } = self;
        rec.leaf(layer, 1, || inner.ci(x, y, z))
    }

    fn n_vars(&self) -> usize {
        self.inner.n_vars()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl<T: CiTestShared> CiTestShared for Timed<T> {
    fn ci_shared(&self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
        self.rec
            .leaf(self.layer, 1, || self.inner.ci_shared(x, y, z))
    }
}

impl<T: CiTestBatch + Send + 'static> CiTestBatch for Timed<T> {
    fn eval_batch(&self, queries: &[CiQueryRef<'_>]) -> Vec<CiOutcome> {
        self.rec
            .leaf(self.layer, queries.len(), || self.inner.eval_batch(queries))
    }

    fn eval_z_group(&self, z: &[VarId], queries: &[CiQueryRef<'_>]) -> Vec<CiOutcome> {
        self.rec.leaf(self.layer, queries.len(), || {
            self.inner.eval_z_group(z, queries)
        })
    }

    fn encode_cache_stats(&self) -> EncodeStats {
        self.inner.encode_cache_stats()
    }

    fn extend_over(&self, child: Arc<EncodedTable>) -> Option<Box<dyn CiTestBatch + Send + Sync>> {
        let inner = self
            .rec
            .leaf(self.layer, 0, || self.inner.extend_over(child))?;
        Some(Box::new(Timed::new(
            inner,
            Arc::clone(&self.rec),
            self.layer,
        )))
    }

    fn patched_outcome(&self, x: &[VarId], y: &[VarId], z: &[VarId]) -> Option<CiOutcome> {
        self.rec
            .leaf(PATCH_LAYER, 1, || self.inner.patched_outcome(x, y, z))
    }

    fn scaffold_stats(&self) -> ScaffoldStats {
        self.inner.scaffold_stats()
    }
}

/// Write `spans` to `path` as JSON lines, one span per line.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> Result<(), String> {
    use std::fmt::Write;
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"op\": {}, \"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"queries\": {}}}",
            s.op, s.id, s.parent, s.name, s.start_ns, s.end_ns, s.queries
        );
    }
    std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Per-op, per-span-name self time: a span's duration minus the part of
/// it that its child spans cover (children may overlap when they ran on
/// pool workers, so the covered part is the union of their intervals).
pub struct Folded {
    pub self_ns: std::collections::BTreeMap<(u64, &'static str), Agg>,
    /// Root span of each op, by op index: `(duration ns, ns covered by
    /// its direct children)`.
    pub roots: std::collections::BTreeMap<u64, (u64, u64)>,
    /// `(op, span name) → total duration ns` (not self time).
    pub total_ns: std::collections::BTreeMap<(u64, &'static str), u64>,
}

/// One span name's spans within one op.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    pub self_ns: u64,
    /// Tester calls that evaluated queries, those queries, and the self
    /// time of those calls (a tester's `extend_over` evaluates none).
    pub calls: u64,
    pub queries: u64,
    pub query_ns: u64,
}

pub fn fold(spans: &[Span]) -> Folded {
    use std::collections::{BTreeMap, HashMap};
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out = Folded {
        self_ns: BTreeMap::new(),
        roots: BTreeMap::new(),
        total_ns: BTreeMap::new(),
    };
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |iv| union_within(iv, s.start_ns, s.end_ns));
        let self_ns = s.dur_ns().saturating_sub(covered);
        if s.name == "op" {
            out.roots.insert(s.op, (s.dur_ns(), covered));
            continue;
        }
        let e = out.self_ns.entry((s.op, s.name)).or_default();
        e.self_ns += self_ns;
        if s.queries > 0 {
            e.calls += 1;
            e.queries += s.queries;
            e.query_ns += self_ns;
        }
        *out.total_ns.entry((s.op, s.name)).or_insert(0) += s.dur_ns();
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        let mut iv = vec![(5, 10), (0, 3), (8, 12), (20, 30)];
        assert_eq!(union_within(&mut iv, 1, 25), 2 + 7 + 5);
    }

    #[test]
    fn self_time_subtracts_children() {
        let span = |id, parent, name, start_ns, end_ns| Span {
            id,
            parent,
            op: 0,
            name,
            start_ns,
            end_ns,
            queries: 0,
        };
        let spans = vec![
            span(2, 1, "core.select", 10, 90),
            span(3, 2, "citest.gtest", 20, 50),
            span(4, 2, "citest.gtest", 40, 60),
            span(1, 0, "op", 0, 100),
        ];
        let f = fold(&spans);
        assert_eq!(f.self_ns[&(0, "core.select")].self_ns, 80 - 40);
        assert_eq!(f.self_ns[&(0, "citest.gtest")].self_ns, 30 + 20);
        assert_eq!(f.roots[&0], (100, 80));
    }
}
