//! Input generation. Every dataset, row batch, DAG and op sequence is a
//! pure function of the workload seed, and all of it is generated before
//! the server starts; the server only ever sees these inputs.
//!
//! The causal models the data workloads sample are part of each workload's
//! definition: model `i` of a workload is fixed by `i` alone, and the seed
//! draws its rows. Every run thus meets the same models on fresh rows. The
//! cost of an op differs several-fold between models, so with seeded models
//! runs would differ by which models they drew. The oracle's DAGs are its
//! whole input and stay seeded.

use fairsel_datasets::sim::sample_table;
use fairsel_datasets::synthetic::{
    synthetic_instance, synthetic_scm, SyntheticConfig, SyntheticInstance,
};
use fairsel_table::{Role, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Independent sub-seed `i` of stream `stream` (splitmix64 finalizer).
fn sub_seed(seed: u64, stream: u64, i: u64) -> u64 {
    let mut h =
        seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i.wrapping_mul(0xd1b5_4a32_d192_ed03);
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

fn data_config(n_features: usize) -> SyntheticConfig {
    SyntheticConfig {
        n_features,
        biased_fraction: 0.2,
        predictive_fraction: 0.25,
        ..Default::default()
    }
}

/// A synthetic causal model and the generator state that draws its rows.
struct Source {
    inst: SyntheticInstance,
    scm: fairsel_scm::DiscreteScm,
    rng: StdRng,
}

/// Most parents a generated target may have. The target's probability
/// table has 2^parents rows, and `synthetic_scm` refuses more than 22.
const MAX_TARGET_PARENTS: usize = 16;

fn target_parents(inst: &SyntheticInstance) -> usize {
    inst.dag
        .nodes()
        .filter(|v| inst.roles[v.index()] == Role::Target)
        .map(|v| inst.dag.parents(v).len())
        .max()
        .unwrap_or(0)
}

impl Source {
    /// Model `model` of a workload, drawing rows from `rows_seed`. The
    /// model is the first draw of its own stream whose target has at most
    /// [`MAX_TARGET_PARENTS`] parents, so that every index yields a model.
    fn new(model: u64, rows_seed: u64, n_features: usize) -> Source {
        let (inst, scm) = (0..)
            .find_map(|attempt| {
                let mut rng = StdRng::seed_from_u64(sub_seed(model, 7, attempt));
                let inst = synthetic_instance(&mut rng, &data_config(n_features));
                (target_parents(&inst) <= MAX_TARGET_PARENTS).then(|| {
                    let scm = synthetic_scm(&mut rng, &inst, 1.5);
                    (inst, scm)
                })
            })
            .expect("the attempt stream is unbounded");
        Source {
            inst,
            scm,
            rng: StdRng::seed_from_u64(rows_seed),
        }
    }

    /// The next `rows` rows of this source.
    fn rows(&mut self, rows: usize) -> Table {
        sample_table(&self.scm, &self.inst.roles, rows, &mut self.rng)
    }
}

/// Seed of the data workloads' models.
const MODEL_SEED: u64 = 0x6661_6972_7365_6c00;

/// Source `i` of workload stream `stream`: model `i` of that workload, rows
/// drawn from `seed`.
fn source(seed: u64, stream: u64, i: u64, n_features: usize) -> Source {
    Source::new(
        sub_seed(MODEL_SEED, stream, i),
        sub_seed(seed, stream, i),
        n_features,
    )
}

/// The algorithm a `select` op runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Algo {
    GrpSel,
    SeqSel,
}

impl Algo {
    pub fn name(self) -> &'static str {
        match self {
            Algo::GrpSel => "grpsel",
            Algo::SeqSel => "seqsel",
        }
    }
}

const WARM_DATASETS: usize = 4;
const WARM_FEATURES: usize = 24;
const WARM_ROWS: usize = 5_000;

/// warm-serve: resident datasets and the op sequence over them. Op `i`
/// runs GrpSel on even `i` and SeqSel on odd `i`, on a seeded dataset.
pub struct WarmServe {
    pub datasets: Vec<Table>,
    pub ops: Vec<(usize, Algo)>,
}

pub fn warm_serve(seed: u64, n_ops: usize) -> WarmServe {
    let datasets = (0..WARM_DATASETS)
        .map(|d| source(seed, 1, d as u64, WARM_FEATURES).rows(WARM_ROWS))
        .collect();
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 2, 0));
    let ops = (0..n_ops)
        .map(|i| {
            let algo = if i % 2 == 0 {
                Algo::GrpSel
            } else {
                Algo::SeqSel
            };
            (rng.gen_range(0..WARM_DATASETS), algo)
        })
        .collect();
    WarmServe { datasets, ops }
}

const COLD_FEATURES: usize = 32;
const COLD_ROWS: usize = 10_000;
/// Datasets the untimed warm-up runs an op on; several, so that set-up
/// time does not hinge on one model.
const COLD_WARMUPS: usize = 3;

/// cold-select: one never-seen dataset per op, plus the untimed warm-up's,
/// each from its own model.
pub struct ColdSelect {
    pub warmups: Vec<Table>,
    pub datasets: Vec<Table>,
}

pub fn cold_select(seed: u64, n_ops: usize) -> ColdSelect {
    let data = |i: u64| source(seed, 3, i, COLD_FEATURES).rows(COLD_ROWS);
    ColdSelect {
        warmups: (0..COLD_WARMUPS as u64)
            .map(|i| data(u64::MAX - i))
            .collect(),
        datasets: (0..n_ops as u64).map(data).collect(),
    }
}

pub const STREAMS: usize = 6;
const STREAM_FEATURES: usize = 24;
const STREAM_BASE_ROWS: usize = 20_000;
const STREAM_BATCH_ROWS: usize = 256;

/// stream-append: [`STREAMS`] independent sources, each a base table and
/// the row batches that continue its generator. Op `i` appends to stream
/// `i % STREAMS`. Averaging over several models keeps one model's
/// structure from setting the cost of a run; between two appends to one
/// stream the other streams touch at most `2 * (STREAMS - 1)` datasets, so
/// with the server's default `--max-datasets 16` every head is still
/// resident when its next batch arrives.
pub struct StreamAppend {
    pub bases: Vec<Table>,
    /// `batches[s]` are stream `s`'s batches in append order.
    batches: Vec<Vec<Table>>,
    pub n_ops: usize,
}

impl StreamAppend {
    /// Stream and batch of op `i`.
    pub fn op(&self, i: usize) -> (usize, &Table) {
        (i % STREAMS, &self.batches[i % STREAMS][i / STREAMS])
    }
}

pub fn stream_append(seed: u64, n_ops: usize) -> StreamAppend {
    let (mut bases, mut batches) = (Vec::new(), Vec::new());
    for s in 0..STREAMS {
        let mut src = source(seed, 4, s as u64, STREAM_FEATURES);
        bases.push(src.rows(STREAM_BASE_ROWS));
        let mine = (s..n_ops).step_by(STREAMS).count();
        batches.push((0..mine).map(|_| src.rows(STREAM_BATCH_ROWS)).collect());
    }
    StreamAppend {
        bases,
        batches,
        n_ops,
    }
}

const ORACLE_DAGS: usize = 8;
const ORACLE_FEATURES: usize = 2048;

/// oracle-wide: seeded wide DAGs and the op sequence over them.
pub struct OracleWide {
    pub instances: Vec<SyntheticInstance>,
    pub ops: Vec<usize>,
}

pub fn oracle_wide(seed: u64, n_ops: usize) -> OracleWide {
    let cfg = SyntheticConfig {
        n_features: ORACLE_FEATURES,
        biased_fraction: 0.05,
        ..Default::default()
    };
    let instances = (0..ORACLE_DAGS)
        .map(|k| {
            synthetic_instance(
                &mut StdRng::seed_from_u64(sub_seed(seed, 5, k as u64)),
                &cfg,
            )
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 6, 0));
    let ops = (0..n_ops).map(|_| rng.gen_range(0..ORACLE_DAGS)).collect();
    OracleWide { instances, ops }
}
