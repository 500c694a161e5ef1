//! stream-append: one client grows several warmed base tables, round-robin,
//! by one row batch per op and re-selects on each appended child by
//! fingerprint.

use crate::catalog::Metrics;
use crate::common::{
    engine_counts, fingerprint_of, server_counts, setup_server, Counts, Ctx, Measured, Ready,
    Replay, PUT,
};
use crate::gen::{self, StreamAppend, STREAMS};
use crate::inproc;
use crate::served::{Conn, ServerStats};
use crate::trace::Recorder;
use fairsel_server::{fingerprint_table, DatasetRef, MaxGroupSpec, Request, WorkloadRequest};
use std::time::Instant;

const OPS_PER_SECOND: f64 = 19.0;

fn request(fp: u64) -> WorkloadRequest {
    WorkloadRequest {
        dataset: DatasetRef::Fp(fp),
        algo: "grpsel".into(),
        classifier: "nb".into(),
        max_group: MaxGroupSpec::Auto,
        ..Default::default()
    }
}

fn select(conn: &mut Conn, fp: u64) -> Result<crate::served::Reply, String> {
    conn.call(
        Request::Select(request(fp))
            .to_json()
            .to_string()
            .as_bytes(),
        None,
    )
}

fn append_frame(fp: u64) -> Vec<u8> {
    Request::Append { fp }.to_json().to_string().into_bytes()
}

pub struct Outcome {
    pub measured: Measured,
    pub layers: Metrics,
    inputs: StreamAppend,
    /// Encoded row batch of every op.
    batches: Vec<Vec<u8>>,
    /// Child fingerprint and select body of every op.
    answers: Vec<(u64, String)>,
    pub handler_ms_per_op: f64,
}

pub fn measure(ctx: &Ctx) -> Result<Outcome, String> {
    let inputs = gen::stream_append(ctx.seed, ctx.ops(OPS_PER_SECOND));
    let bases: Vec<Vec<u8>> = inputs
        .bases
        .iter()
        .map(fairsel_table::encode_table)
        .collect();
    let batches: Vec<Vec<u8>> = (0..inputs.n_ops)
        .map(|i| fairsel_table::encode_row_batch(inputs.op(i).1))
        .collect();
    let mut ready = setup_server(ctx, |ctl| {
        let mut heads = Vec::new();
        for base in &bases {
            let fp = fingerprint_of(&ctl.call(PUT, Some(base))?)?;
            select(ctl, fp)?.body()?;
            heads.push(fp);
        }
        Ok(heads)
    })?;

    let before = ServerStats::fetch(&mut ready.ctl)?;
    let mut conn = Conn::connect(&ready.server.addr)?;
    let mut heads = ready.state.clone();
    let (mut latencies_s, mut done_s) = (Vec::new(), Vec::new());
    let mut answers = Vec::new();
    let mut total = Counts::default();
    let t0 = Instant::now();
    for (i, batch) in batches.iter().enumerate() {
        let head = &mut heads[i % STREAMS];
        let appended = conn.call(&append_frame(*head), Some(batch))?;
        *head = fingerprint_of(&appended)?;
        let reply = select(&mut conn, *head)?;
        latencies_s.push(appended.latency_s + reply.latency_s);
        done_s.push(t0.elapsed().as_secs_f64());
        total = total.plus(&Counts::from_json(reply.stats()?)?);
        answers.push((*head, reply.body()?.to_owned()));
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let ops = batches.len();
    let d = ServerStats::settled(&mut ready.ctl, &before, 2 * ops)?;
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
        2 * ops,
        latencies_s.iter().sum(),
        Some(ops),
    )?;
    engine_counts(
        &mut layers,
        &total,
        ops,
        [
            ("core.seqsel_issued", 0.0, 0),
            ("core.grpsel_issued", total.issued, ops),
        ],
        true,
    );
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
        inputs,
        batches,
        answers,
        handler_ms_per_op: d.op_wall_us / 1e3 / ops as f64,
    };
    verify(&o)?;
    Ok(o)
}

/// Every child fingerprint must equal `fingerprint_table` of the locally
/// concatenated table, and each stream's last report must equal an
/// in-process pipeline run cold on its final table's split.
fn verify(o: &Outcome) -> Result<(), String> {
    let mut tables = o.inputs.bases.clone();
    let mut last = vec![None; STREAMS];
    for (i, answer) in o.answers.iter().enumerate() {
        let (s, batch) = o.inputs.op(i);
        tables[s] = tables[s].concat(batch).map_err(|e| e.to_string())?;
        if fingerprint_table(&tables[s]) != answer.0 {
            return Err(format!(
                "stream-append: op {i} child fingerprint differs from the local concatenation"
            ));
        }
        last[s] = Some(answer);
    }
    let rec = Recorder::new(false);
    for (table, answer) in tables.iter().zip(last) {
        let Some((fp, body)) = answer else { continue };
        let req = request(*fp);
        let mut w = inproc::build(table, &req, &rec)?;
        if &inproc::select(&mut w, &req, *fp, &rec)? != body {
            return Err(
                "stream-append: a stream's last report differs from the in-process pipeline".into(),
            );
        }
    }
    Ok(())
}

/// Replay every op in-process: decode the batch, concatenate, fingerprint,
/// then select on a child workload born warm from its parent.
pub fn replay(o: &Outcome, tracing: bool) -> Result<Replay, String> {
    let rec = Recorder::new(tracing);
    let mut tables = o.inputs.bases.clone();
    let mut parents = Vec::new();
    for table in &tables {
        let fp = fingerprint_table(table);
        let mut parent = inproc::build(table, &request(fp), &rec)?;
        inproc::select(&mut parent, &request(fp), fp, &rec)?;
        parents.push(parent);
    }
    // Set-up spans belong to no op.
    rec.take();
    let mut op_wall_s = Vec::new();
    for (i, bytes) in o.batches.iter().enumerate() {
        let s = i % STREAMS;
        let t0 = Instant::now();
        let op = rec.op(i as u64);
        let batch = {
            let _s = rec.span("table.decode");
            fairsel_table::decode_row_batch(bytes).map_err(|e| e.to_string())?
        };
        tables[s] = {
            let _s = rec.span("table.concat");
            tables[s].concat(&batch).map_err(|e| e.to_string())?
        };
        let fp = {
            let _s = rec.span("server.fingerprint");
            fingerprint_table(&tables[s])
        };
        let req = request(fp);
        let mut child = inproc::build_child(&parents[s], &tables[s], &req, &rec)?;
        let body = inproc::select(&mut child, &req, fp, &rec)?;
        drop(op);
        op_wall_s.push(t0.elapsed().as_secs_f64());
        if (fp, &body) != (o.answers[i].0, &o.answers[i].1) {
            return Err(format!(
                "stream-append: replayed op {i} differs from the server's answer"
            ));
        }
        parents[s] = child;
    }
    Ok(Replay {
        spans: rec.take(),
        op_wall_s,
    })
}
