//! oracle-wide: in-process, one thread, no server. Each op runs SeqSel and
//! then GrpSel, each on a fresh session, against the d-separation oracle
//! of one of the seeded wide DAGs.

use crate::catalog::Metrics;
use crate::common::{engine_counts, no_server, Counts, Ctx, Measured, Replay, SETUPS};
use crate::gen::{self, OracleWide};
use crate::served::vm_hwm_mib;
use crate::trace::{Recorder, Timed};
use fairsel_ci::{CiTest, OracleCi};
use fairsel_core::{grpsel_in, seqsel_in, Problem, SelectConfig};
use fairsel_engine::CiSession;
use std::time::Instant;

const OPS_PER_SECOND: f64 = 16.0;
/// Ops the traced replay re-runs (a prefix of the measured sequence).
const REPLAY_OPS: usize = 24;

/// What one op selected and what each selection cost in CI tests.
#[derive(Clone, Debug, PartialEq)]
struct OpResult {
    seq_selected: Vec<usize>,
    grp_selected: Vec<usize>,
    seq: Counts,
    grp: Counts,
}

fn run_op<T: CiTest>(tester: impl Fn() -> T, problem: &Problem, rec: &Recorder) -> OpResult {
    let cfg = SelectConfig::default();
    let mut seq_session = CiSession::new(tester());
    let seq_selected = {
        let _s = rec.span("core.seqsel");
        seqsel_in(&mut seq_session, problem, &cfg).selected()
    };
    let mut grp_session = CiSession::new(tester());
    let grp_selected = {
        let _s = rec.span("core.grpsel");
        grpsel_in(&mut grp_session, problem, &cfg, None).selected()
    };
    OpResult {
        seq_selected,
        grp_selected,
        seq: Counts::from_stats(seq_session.stats()),
        grp: Counts::from_stats(grp_session.stats()),
    }
}

pub struct Outcome {
    pub measured: Measured,
    pub layers: Metrics,
    inputs: OracleWide,
    problems: Vec<Problem>,
    /// The set-up's result on every DAG; every op must reproduce it.
    expected: Vec<OpResult>,
    /// No server: the untraced latency of the replayed ops stands in for
    /// handler time.
    pub handler_ms_per_op: f64,
}

fn check(k: usize, got: &OpResult, expected: &OpResult) -> Result<(), String> {
    if got.seq_selected != got.grp_selected {
        return Err(format!(
            "oracle-wide: SeqSel and GrpSel select different sets on DAG {k}"
        ));
    }
    if got != expected {
        return Err(format!(
            "oracle-wide: DAG {k} issued different tests than in set-up"
        ));
    }
    Ok(())
}

pub fn measure(ctx: &Ctx) -> Result<Outcome, String> {
    let inputs = gen::oracle_wide(ctx.seed, ctx.ops(OPS_PER_SECOND));
    let problems: Vec<Problem> = inputs
        .instances
        .iter()
        .map(|i| Problem::from_roles(&i.roles))
        .collect();
    let off = Recorder::new(false);
    let mut setup_s = Vec::new();
    let mut oracles = Vec::new();
    let mut expected = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        oracles = inputs
            .instances
            .iter()
            .map(|i| OracleCi::from_dag(i.dag.clone()))
            .collect();
        expected = oracles
            .iter()
            .zip(&problems)
            .map(|(o, p)| run_op(|| o, p, &off))
            .collect();
        setup_s.push(t0.elapsed().as_secs_f64());
    }

    let (mut latencies_s, mut done_s) = (Vec::new(), Vec::new());
    let mut total = Counts::default();
    let (mut seq_issued, mut grp_issued) = (0.0, 0.0);
    let t0 = Instant::now();
    for &k in &inputs.ops {
        let t_op = Instant::now();
        let got = run_op(|| &oracles[k], &problems[k], &off);
        latencies_s.push(t_op.elapsed().as_secs_f64());
        done_s.push(t0.elapsed().as_secs_f64());
        check(k, &got, &expected[k])?;
        total = total.plus(&got.seq).plus(&got.grp);
        seq_issued += got.seq.issued;
        grp_issued += got.grp.issued;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let ops = inputs.ops.len();

    let mut layers = Metrics::default();
    no_server(&mut layers);
    engine_counts(
        &mut layers,
        &total,
        ops,
        [
            ("core.seqsel_issued", seq_issued, ops),
            ("core.grpsel_issued", grp_issued, ops),
        ],
        false,
    );
    for name in [
        "table.encode_misses",
        "table.encode_hit_ratio",
        "table.narrow_code_bytes",
        "citest.dense_count_cells",
        "engine.suff_evictions",
    ] {
        layers.idle(name);
    }
    let replayed = &latencies_s[..REPLAY_OPS.min(ops)];
    let handler_ms_per_op = replayed.iter().sum::<f64>() * 1e3 / replayed.len() as f64;
    Ok(Outcome {
        measured: Measured {
            latencies_s,
            done_s,
            attempted: ops,
            failed: 0,
            wall_s,
            setup_s,
            peak_rss_mib: vm_hwm_mib("/proc/self/status")?,
            rss_of: "benchmark process VmHWM (in-process workload)",
        },
        layers,
        inputs,
        problems,
        expected,
        handler_ms_per_op,
    })
}

/// Replay a prefix of the ops with every oracle query timed.
pub fn replay(o: &Outcome, tracing: bool) -> Result<Replay, String> {
    let rec = Recorder::new(tracing);
    let oracles: Vec<OracleCi> = o
        .inputs
        .instances
        .iter()
        .map(|i| OracleCi::from_dag(i.dag.clone()))
        .collect();
    let mut op_wall_s = Vec::new();
    for (i, &k) in o.inputs.ops.iter().take(REPLAY_OPS).enumerate() {
        let t0 = Instant::now();
        let got = {
            let _op = rec.op(i as u64);
            let tester = || Timed::new(&oracles[k], std::sync::Arc::clone(&rec), "graph.dsep");
            run_op(tester, &o.problems[k], &rec)
        };
        op_wall_s.push(t0.elapsed().as_secs_f64());
        check(k, &got, &o.expected[k])?;
    }
    Ok(Replay {
        spans: rec.take(),
        op_wall_s,
    })
}
