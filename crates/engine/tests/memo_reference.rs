//! The session memo against a reference memo, over a seeded stream of
//! query spellings and every executor.
//!
//! The stream spells each query's test sides unsorted, repeated (sorted
//! or not), reversed, swapped or already canonical, conditions on fresh
//! and shared `CondSet`s, and repeats queries within one batch and across
//! batches. Each executor — `query_given`, `run_batch`, and
//! `run_batch_grouped` at workers 1, 2 and 4 — must answer, count, memoize
//! and fingerprint it exactly as a `BTreeMap` memo keyed by the canonical
//! sides and set does, and every key must read back those canonical sides
//! and that set.

use fairsel_ci::{CiOutcome, CiTest, CiTestBatch, CiTestShared, VarId};
use fairsel_engine::{CiQuery, CiSession, CondSet};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// Variables the stream draws from: few, so spellings of one query recur.
const VARS: usize = 9;

/// A splitmix64 stream: seeded, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The reference quotient of a query: each side sorted and deduplicated,
/// the lexicographically smaller test side first.
type RefKey = (Vec<VarId>, Vec<VarId>, Vec<VarId>);

fn canon(side: &[VarId]) -> Vec<VarId> {
    BTreeSet::from_iter(side.iter().copied())
        .into_iter()
        .collect()
}

fn ref_key(x: &[VarId], y: &[VarId], z: &[VarId]) -> RefKey {
    let (a, b) = (canon(x), canon(y));
    let (x, y) = if b < a { (b, a) } else { (a, b) };
    (x, y, canon(z))
}

/// The answer to a query: a pure function of its reference key, with
/// distinct p-value and statistic bits per key.
fn answer(x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
    let (xs, ys, zs) = ref_key(x, y, z);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for side in [&xs, &ys, &zs] {
        for &v in side.iter().chain([&usize::MAX]) {
            h = (h ^ v as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    let p_value = (Rng(h).next() >> 11) as f64 / (1u64 << 53) as f64;
    CiOutcome {
        independent: p_value > 0.4,
        p_value,
        statistic: (h >> 40) as f64,
    }
}

/// Answers by [`answer`] on every path and counts its invocations.
struct KeyedCi {
    calls: AtomicU64,
}

impl CiTest for KeyedCi {
    fn ci(&mut self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
        self.ci_shared(x, y, z)
    }

    fn n_vars(&self) -> usize {
        VARS
    }
}

impl CiTestShared for KeyedCi {
    fn ci_shared(&self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
        self.calls.fetch_add(1, Ordering::Relaxed);
        answer(x, y, z)
    }
}

impl CiTestBatch for KeyedCi {}

/// One side, spelled in one of six ways.
fn spelled(rng: &mut Rng, min_len: usize) -> Vec<VarId> {
    let len = min_len + rng.below(4 - min_len);
    let mut side: Vec<VarId> = (0..len).map(|_| rng.below(VARS)).collect();
    match rng.below(6) {
        0 => side = canon(&side),
        1 => {}
        2 => {
            side = canon(&side);
            side.reverse();
        }
        3 => {
            // Sorted, one variable repeated: ascending but not strictly.
            side = canon(&side);
            if let Some(&v) = side.first() {
                side.insert(0, v);
            }
        }
        4 => {
            if let Some(&v) = side.last() {
                side.insert(0, v);
            }
        }
        _ => {
            side = canon(&side);
            if side.len() > 1 {
                side.swap(0, 1);
            }
        }
    }
    side
}

/// A seeded stream of batches over a pool of shared conditioning sets.
fn stream(seed: u64) -> Vec<Vec<CiQuery>> {
    let mut rng = Rng(seed);
    let shared: Vec<CondSet> = (0..4)
        .map(|_| CondSet::new(&spelled(&mut rng, 0)))
        .collect();
    let mut history: Vec<CiQuery> = Vec::new();
    let mut batches = Vec::new();
    for _ in 0..24 {
        let mut batch = Vec::new();
        for _ in 0..1 + rng.below(12) {
            let q = if !history.is_empty() && rng.below(4) == 0 {
                // A repeat, within this batch or across batches, sides
                // swapped half the time.
                let prev = history[rng.below(history.len())].clone();
                if rng.below(2) == 0 {
                    CiQuery::given(&prev.y, &prev.x, &prev.z)
                } else {
                    prev
                }
            } else {
                let (x, y) = (spelled(&mut rng, 1), spelled(&mut rng, 1));
                if rng.below(2) == 0 {
                    CiQuery::given(&x, &y, &shared[rng.below(shared.len())])
                } else {
                    CiQuery::new(&x, &y, &spelled(&mut rng, 0))
                }
            };
            history.push(q.clone());
            batch.push(q);
        }
        batches.push(batch);
    }
    batches
}

/// What a memo keyed by reference keys holds and counts.
#[derive(Default)]
struct Reference {
    memo: BTreeMap<RefKey, CiOutcome>,
    requested: u64,
    issued: u64,
    hits: u64,
}

impl Reference {
    /// Answer a batch: a memo hit or an earlier miss of the same batch
    /// counts a hit, each other query is one issue.
    fn batch(&mut self, queries: &[CiQuery]) -> Vec<CiOutcome> {
        let mut fresh: BTreeMap<RefKey, CiOutcome> = BTreeMap::new();
        let out = queries
            .iter()
            .map(|q| {
                let key = ref_key(&q.x, &q.y, &q.z);
                self.requested += 1;
                if let Some(&out) = self.memo.get(&key).or(fresh.get(&key)) {
                    self.hits += 1;
                    return out;
                }
                self.issued += 1;
                let out = answer(&q.x, &q.y, &q.z);
                fresh.insert(key, out);
                out
            })
            .collect();
        self.memo.append(&mut fresh);
        out
    }

    /// FNV-1a over every outcome's bits in key order, as
    /// `CiSession::outcomes_fingerprint` folds them.
    fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for out in self.memo.values() {
            let bits = [
                out.p_value.to_bits(),
                out.statistic.to_bits(),
                out.independent as u64,
            ];
            for b in bits.iter().flat_map(|v| v.to_le_bytes()) {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

#[derive(Clone, Copy, Debug)]
enum Path {
    Single,
    Batch,
    Grouped(usize),
}

fn run_path(path: Path, batches: &[Vec<CiQuery>]) -> (CiSession<KeyedCi>, Vec<Vec<CiOutcome>>) {
    let mut s = CiSession::new(KeyedCi {
        calls: AtomicU64::new(0),
    });
    let answers = batches
        .iter()
        .map(|qs| match path {
            Path::Single => qs.iter().map(|q| s.query_given(&q.x, &q.y, &q.z)).collect(),
            Path::Batch => s.run_batch(qs),
            Path::Grouped(workers) => s.run_batch_grouped(qs, workers),
        })
        .collect();
    (s, answers)
}

#[test]
fn memo_matches_reference_on_every_path() {
    let paths = [
        Path::Single,
        Path::Batch,
        Path::Grouped(1),
        Path::Grouped(2),
        Path::Grouped(4),
    ];
    for seed in 0..24u64 {
        let batches = stream(seed);
        for q in batches.iter().flatten() {
            let (x, y, z) = ref_key(&q.x, &q.y, &q.z);
            let k = q.key();
            assert_eq!(k.x(), &x[..], "seed {seed}: {q:?}");
            assert_eq!(k.y(), &y[..], "seed {seed}: {q:?}");
            assert_eq!(&k.z()[..], &z[..], "seed {seed}: {q:?}");
        }
        for path in paths {
            let (s, got) = run_path(path, &batches);
            let mut reference = Reference::default();
            let label = format!("seed {seed}, {path:?}");
            for (qs, got) in batches.iter().zip(&got) {
                let want = match path {
                    // One query at a time: each is a batch of its own.
                    Path::Single => qs
                        .iter()
                        .flat_map(|q| reference.batch(std::slice::from_ref(q)))
                        .collect(),
                    _ => reference.batch(qs),
                };
                assert_eq!(got, &want, "{label}");
            }
            let st = s.stats();
            assert_eq!(st.requested, reference.requested, "{label}");
            assert_eq!(st.issued, reference.issued, "{label}");
            assert_eq!(st.cache_hits, reference.hits, "{label}");
            assert_eq!(s.tester().calls.load(Ordering::Relaxed), st.issued);
            assert_eq!(s.cache_len(), reference.memo.len(), "{label}");
            assert_eq!(s.outcomes_fingerprint(), reference.fingerprint(), "{label}");
        }
    }
}
