//! cold-select: one client uploads a never-seen dataset per op, then
//! selects on it by fingerprint with the G-test and with Fisher-z.

use crate::catalog::Metrics;
use crate::common::{
    engine_counts, fingerprint_of, server_counts, setup_server, Counts, Ctx, Measured, Ready,
    Replay, PUT,
};
use crate::gen;
use crate::inproc;
use crate::served::{Conn, ServerStats};
use crate::trace::Recorder;
use fairsel_server::{fingerprint_table, DatasetRef, MaxGroupSpec, Request, WorkloadRequest};
use std::time::Instant;

const OPS_PER_SECOND: f64 = 22.0;
/// Ops the traced replay re-runs (a prefix of the measured sequence).
const REPLAY_OPS: usize = 40;
const TESTERS: [&str; 2] = ["gtest", "fisherz"];

fn request(fp: u64, tester: &str) -> WorkloadRequest {
    WorkloadRequest {
        dataset: DatasetRef::Fp(fp),
        algo: "grpsel".into(),
        tester: tester.into(),
        classifier: "nb".into(),
        workers: 2,
        max_group: MaxGroupSpec::Auto,
        ..Default::default()
    }
}

/// One op: upload, then one select per tester. Returns the op's latency
/// and each select's body and engine counters.
fn op(conn: &mut Conn, upload: &[u8]) -> Result<(f64, Vec<(String, Counts)>), String> {
    let put = conn.call(PUT, Some(upload))?;
    let fp = fingerprint_of(&put)?;
    let mut latency_s = put.latency_s;
    let mut answers = Vec::new();
    for tester in TESTERS {
        let frame = Request::Select(request(fp, tester)).to_json().to_string();
        let reply = conn.call(frame.as_bytes(), None)?;
        latency_s += reply.latency_s;
        answers.push((reply.body()?.to_owned(), Counts::from_json(reply.stats()?)?));
    }
    Ok((latency_s, answers))
}

pub struct Outcome {
    pub measured: Measured,
    pub layers: Metrics,
    uploads: Vec<Vec<u8>>,
    bodies: Vec<Vec<String>>,
    pub handler_ms_per_op: f64,
}

pub fn measure(ctx: &Ctx) -> Result<Outcome, String> {
    let inputs = gen::cold_select(ctx.seed, ctx.ops(OPS_PER_SECOND));
    let warmups: Vec<Vec<u8>> = inputs
        .warmups
        .iter()
        .map(fairsel_table::encode_table)
        .collect();
    let uploads: Vec<Vec<u8>> = inputs
        .datasets
        .iter()
        .map(fairsel_table::encode_table)
        .collect();
    let mut ready = setup_server(ctx, |ctl| {
        warmups
            .iter()
            .try_for_each(|upload| op(ctl, upload).map(drop))
    })?;

    let before = ServerStats::fetch(&mut ready.ctl)?;
    let mut conn = Conn::connect(&ready.server.addr)?;
    let (mut latencies_s, mut done_s) = (Vec::new(), Vec::new());
    let mut bodies = Vec::new();
    let mut total = Counts::default();
    let t0 = Instant::now();
    for upload in &uploads {
        let (latency_s, answers) = op(&mut conn, upload)?;
        latencies_s.push(latency_s);
        done_s.push(t0.elapsed().as_secs_f64());
        for (_, counts) in &answers {
            total = total.plus(counts);
        }
        bodies.push(answers.into_iter().map(|(body, _)| body).collect());
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let ops = uploads.len();
    let requests = ops * (1 + TESTERS.len());
    let d = ServerStats::settled(&mut ready.ctl, &before, requests)?;
    let peak_rss_mib = ready.server.peak_rss_mib()?;
    let Ready {
        server,
        ctl,
        setup_s,
        ..
    } = ready;
    drop((conn, ctl));
    server.shutdown()?;

    let mut layers = Metrics::default();
    server_counts(
        &mut layers,
        &d,
        ops,
        requests,
        latencies_s.iter().sum(),
        None,
    )?;
    engine_counts(
        &mut layers,
        &total,
        ops,
        [
            ("core.seqsel_issued", 0.0, 0),
            ("core.grpsel_issued", total.issued, ops * TESTERS.len()),
        ],
        false,
    );
    // The replay covers a prefix of the ops, so its handler time is theirs:
    // their client-side latency times the handler's share of all of it.
    let replayed = &latencies_s[..REPLAY_OPS.min(ops)];
    let handler_share = d.op_wall_us / 1e6 / latencies_s.iter().sum::<f64>();
    let handler_ms_per_op =
        replayed.iter().sum::<f64>() * 1e3 / replayed.len() as f64 * handler_share;
    let o = Outcome {
        measured: Measured {
            latencies_s,
            done_s,
            attempted: ops,
            failed: 0,
            wall_s,
            setup_s,
            peak_rss_mib,
            rss_of: "server VmHWM",
        },
        layers,
        uploads,
        bodies,
        handler_ms_per_op,
    };
    // Every report must equal an in-process `run_pipeline_batched_in` on
    // the same split: replaying every op checks exactly that.
    replay_first(&o, o.uploads.len(), false)?;
    Ok(o)
}

/// Replay a prefix of the ops in-process, from decoding the upload on.
pub fn replay(o: &Outcome, tracing: bool) -> Result<Replay, String> {
    replay_first(o, REPLAY_OPS, tracing)
}

/// Replay the first `n` ops, checking each report against the server's.
fn replay_first(o: &Outcome, n: usize, tracing: bool) -> Result<Replay, String> {
    let rec = Recorder::new(tracing);
    let mut op_wall_s = Vec::new();
    for (i, upload) in o.uploads.iter().take(n).enumerate() {
        let t0 = Instant::now();
        let _op = rec.op(i as u64);
        let table = {
            let _s = rec.span("table.decode");
            fairsel_table::decode_table(upload).map_err(|e| e.to_string())?
        };
        let fp = {
            let _s = rec.span("server.fingerprint");
            fingerprint_table(&table)
        };
        for (t, tester) in TESTERS.iter().enumerate() {
            let req = request(fp, tester);
            let mut w = inproc::build(&table, &req, &rec)?;
            if inproc::select(&mut w, &req, fp, &rec)? != o.bodies[i][t] {
                return Err(format!(
                    "cold-select: op {i} {tester} report differs from the in-process pipeline"
                ));
            }
        }
        drop(_op);
        op_wall_s.push(t0.elapsed().as_secs_f64());
    }
    Ok(Replay {
        spans: rec.take(),
        op_wall_s,
    })
}
