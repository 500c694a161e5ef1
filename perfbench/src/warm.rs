//! warm-serve: two closed-loop clients on persistent connections send
//! fingerprint-addressed `select`s (GrpSel and SeqSel alternating) over
//! four resident, fully warmed datasets.

use crate::catalog::Metrics;
use crate::common::{
    engine_counts, fingerprint_of, server_counts, setup_server, Counts, Ctx, Measured, Ready,
    Replay, PUT,
};
use crate::gen::{self, Algo, WarmServe};
use crate::inproc;
use crate::served::{Conn, ServerStats};
use crate::trace::Recorder;
use fairsel_server::{DatasetRef, MaxGroupSpec, Request, WorkloadRequest};
use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::Instant;

/// Ops per second of `--seconds` (about one run-length on a 2-core host).
const OPS_PER_SECOND: f64 = 190.0;
const CLIENTS: usize = 2;
/// Ops the traced replay re-runs (a prefix of the measured sequence).
const REPLAY_OPS: usize = 200;

pub fn request(fp: u64, algo: Algo) -> WorkloadRequest {
    WorkloadRequest {
        dataset: DatasetRef::Fp(fp),
        algo: algo.name().into(),
        max_group: MaxGroupSpec::Auto,
        ..Default::default()
    }
}

fn frame(req: &WorkloadRequest) -> Vec<u8> {
    Request::Select(req.clone())
        .to_json()
        .to_string()
        .into_bytes()
}

/// What set-up leaves behind: fingerprints, the warm-up body of every
/// (dataset, algorithm) pair, and each dataset session's counters.
struct Warm {
    fps: Vec<u64>,
    reference: BTreeMap<(usize, Algo), String>,
    counts: Vec<Counts>,
}

fn warm_up(ctl: &mut Conn, puts: &[Vec<u8>]) -> Result<Warm, String> {
    let mut warm = Warm {
        fps: Vec::new(),
        reference: BTreeMap::new(),
        counts: Vec::new(),
    };
    for bytes in puts {
        warm.fps.push(fingerprint_of(&ctl.call(PUT, Some(bytes))?)?);
    }
    for (d, &fp) in warm.fps.iter().enumerate() {
        let mut last = Counts::default();
        for algo in [Algo::GrpSel, Algo::SeqSel] {
            let reply = ctl.call(&frame(&request(fp, algo)), None)?;
            warm.reference.insert((d, algo), reply.body()?.to_owned());
            last = Counts::from_json(reply.stats()?)?;
        }
        warm.counts.push(last);
    }
    Ok(warm)
}

/// One client's ops: latencies of the answered ones, failures, and the
/// session counters each answer carried.
#[derive(Default)]
struct ClientLog {
    latencies_s: Vec<f64>,
    done: Vec<Instant>,
    failed: usize,
    counts: Vec<(usize, Counts)>,
}

pub struct Outcome {
    pub measured: Measured,
    pub layers: Metrics,
    inputs: WarmServe,
    reference: BTreeMap<(usize, Algo), String>,
    fps: Vec<u64>,
    pub handler_ms_per_op: f64,
}

pub fn measure(ctx: &Ctx) -> Result<Outcome, String> {
    let inputs = gen::warm_serve(ctx.seed, ctx.ops(OPS_PER_SECOND));
    let puts: Vec<Vec<u8>> = inputs
        .datasets
        .iter()
        .map(fairsel_table::encode_table)
        .collect();
    let mut ready = setup_server(ctx, |ctl| warm_up(ctl, &puts))?;
    let warm = &ready.state;
    let frames: BTreeMap<(usize, Algo), Vec<u8>> = warm
        .reference
        .keys()
        .map(|&(d, algo)| ((d, algo), frame(&request(warm.fps[d], algo))))
        .collect();

    let before = ServerStats::fetch(&mut ready.ctl)?;
    let barrier = Barrier::new(CLIENTS + 1);
    let addr = ready.server.addr.clone();
    let (logs, t0, wall_s) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (ops, frames, warm, barrier, addr) =
                    (&inputs.ops, &frames, warm, &barrier, &addr);
                scope.spawn(move || -> Result<ClientLog, String> {
                    let conn = Conn::connect(addr);
                    barrier.wait();
                    let mut conn = conn?;
                    let mut log = ClientLog::default();
                    for &(d, algo) in ops.iter().skip(c).step_by(CLIENTS) {
                        let reply = match conn.call(&frames[&(d, algo)], None) {
                            Ok(r) if r.body().is_ok() => r,
                            Ok(_) => {
                                log.failed += 1;
                                continue;
                            }
                            Err(e) => return Err(e),
                        };
                        if reply.body()? != warm.reference[&(d, algo)] {
                            return Err(format!(
                                "warm-serve: {} body on dataset {d} differs from its warm-up reference",
                                algo.name()
                            ));
                        }
                        let counts = Counts::from_json(reply.stats()?)?;
                        if counts.issued != warm.counts[d].issued {
                            return Err(format!(
                                "warm-serve: a select on dataset {d} issued {} CI tests",
                                counts.issued - warm.counts[d].issued
                            ));
                        }
                        log.latencies_s.push(reply.latency_s);
                        log.done.push(Instant::now());
                        log.counts.push((d, counts));
                    }
                    Ok(log)
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        let logs: Vec<Result<ClientLog, String>> = clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (logs, t0, t0.elapsed().as_secs_f64())
    });
    let logs = logs.into_iter().collect::<Result<Vec<_>, _>>()?;
    let ops = inputs.ops.len();
    let d = ServerStats::settled(&mut ready.ctl, &before, ops)?;
    let peak_rss_mib = ready.server.peak_rss_mib()?;
    let Ready {
        server,
        ctl,
        state: warm,
        setup_s,
    } = ready;
    drop(ctl);
    server.shutdown()?;

    let latencies_s: Vec<f64> = logs.iter().flat_map(|l| l.latencies_s.clone()).collect();
    let done_s: Vec<f64> = logs
        .iter()
        .flat_map(|l| &l.done)
        .map(|t| t.saturating_duration_since(t0).as_secs_f64())
        .collect();
    let failed: usize = logs.iter().map(|l| l.failed).sum();
    // Session counters are cumulative per dataset and two clients share
    // each session, so the run's work is the last (largest) snapshot of
    // every session minus its warm-up snapshot.
    let mut last = warm.counts.clone();
    for (d, c) in logs.iter().flat_map(|l| &l.counts) {
        if c.requested > last[*d].requested {
            last[*d] = *c;
        }
    }
    let total = last
        .iter()
        .zip(&warm.counts)
        .fold(Counts::default(), |acc, (l, w)| acc.plus(&l.minus(w)));

    let mut layers = Metrics::default();
    server_counts(&mut layers, &d, ops, ops, latencies_s.iter().sum(), None)?;
    // Every op was checked above to issue nothing.
    let seq = inputs
        .ops
        .iter()
        .filter(|(_, a)| *a == Algo::SeqSel)
        .count();
    engine_counts(
        &mut layers,
        &total,
        ops,
        [
            ("core.seqsel_issued", 0.0, seq),
            ("core.grpsel_issued", 0.0, ops - seq),
        ],
        false,
    );
    Ok(Outcome {
        measured: Measured {
            latencies_s,
            done_s,
            attempted: ops,
            failed,
            wall_s,
            setup_s,
            peak_rss_mib,
            rss_of: "server VmHWM",
        },
        layers,
        handler_ms_per_op: d.op_wall_us / 1e3 / ops as f64,
        inputs,
        reference: warm.reference,
        fps: warm.fps,
    })
}

/// Replay a prefix of the op sequence in-process against warmed
/// workloads, checking every body against the server's.
pub fn replay(o: &Outcome, tracing: bool) -> Result<Replay, String> {
    let rec = Recorder::new(tracing);
    let mut workloads = Vec::new();
    for (d, table) in o.inputs.datasets.iter().enumerate() {
        let mut w = inproc::build(table, &request(o.fps[d], Algo::GrpSel), &rec)?;
        for algo in [Algo::GrpSel, Algo::SeqSel] {
            inproc::select(&mut w, &request(o.fps[d], algo), o.fps[d], &rec)?;
        }
        workloads.push(w);
    }
    // Set-up spans belong to no op.
    rec.take();
    let mut op_wall_s = Vec::new();
    for (i, &(d, algo)) in o.inputs.ops.iter().take(REPLAY_OPS).enumerate() {
        let t0 = Instant::now();
        let body = {
            let _op = rec.op(i as u64);
            inproc::select(&mut workloads[d], &request(o.fps[d], algo), o.fps[d], &rec)?
        };
        op_wall_s.push(t0.elapsed().as_secs_f64());
        if body != o.reference[&(d, algo)] {
            return Err(format!(
                "warm-serve: replayed {} report on dataset {d} differs from the server's body",
                algo.name()
            ));
        }
    }
    Ok(Replay {
        spans: rec.take(),
        op_wall_s,
    })
}
