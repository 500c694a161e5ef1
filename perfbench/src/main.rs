//! `fairsel-perfbench` — the repository's benchmark.
//!
//! One run measures one workload against the shipped `fairsel serve`
//! binary (started as a child process with `--trace false`), checks every
//! answer, and prints each end-to-end metric with its unit. With
//! `--trace 1` it then replays the same ops in-process through each
//! layer's public functions, with spans on and off, and prints the
//! per-layer metrics instead. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Any wrong
//! answer exits non-zero without printing it.
//!
//! ```text
//! fairsel-perfbench --workload warm-serve|cold-select|stream-append|oracle-wide
//!                   --seed N --seconds S --trace 0|1 --fairsel <path to fairsel>
//!                   [--commit <id>] [--spans-dir <dir>]
//! ```

mod catalog;
mod cold;
mod common;
mod gen;
mod inproc;
mod oracle;
mod served;
mod stream;
mod trace;
mod warm;

use catalog::{Def, Metrics, END_TO_END, PER_LAYER, UNBOUNDED};
use common::{replay_times, trace_overhead, Ctx, Measured};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::write_spans;

const WORKLOADS: &[&str] = &["warm-serve", "cold-select", "stream-append", "oracle-wide"];

struct Args {
    ctx: Ctx,
    workload: String,
    commit: String,
    /// Where the traced replay's spans are written, if anywhere.
    spans_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = std::collections::HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key.to_owned(), value);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("--{k} is required"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k}: not a whole number"))
    };
    let workload = get("workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} ({})",
            WORKLOADS.join("|")
        ));
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
    };
    Ok(Args {
        ctx: Ctx {
            fairsel: PathBuf::from(get("fairsel")?),
            seed: num("seed")?,
            seconds: num("seconds")?.max(1),
            trace,
        },
        workload,
        commit: kv
            .get("commit")
            .cloned()
            .unwrap_or_else(|| "unknown".into()),
        spans_dir: kv.get("spans-dir").map(PathBuf::from),
    })
}

/// The metrics of one run: end-to-end, and per-layer when traced.
struct Report {
    measured: Measured,
    layers: Metrics,
}

/// Measure one workload. When tracing, replay its ops in-process with spans
/// off, on, on and off, fold the last traced pass's spans into per-layer
/// times, and write them out.
macro_rules! measure {
    ($workload:ident, $args:expr) => {{
        let args: &Args = $args;
        let mut o = $workload::measure(&args.ctx)?;
        let mut layers = std::mem::take(&mut o.layers);
        if args.ctx.trace {
            let replay = |tracing| $workload::replay(&o, tracing);
            let mut off = vec![replay(false)?];
            let on = vec![replay(true)?, replay(true)?];
            off.push(replay(false)?);
            let spans = &on[1].spans;
            replay_times(&mut layers, spans, o.handler_ms_per_op);
            trace_overhead(&mut layers, &on, &off);
            if let Some(dir) = &args.spans_dir {
                let path = dir.join(format!("perfbench-spans-{}.jsonl", args.workload));
                write_spans(&path, spans)?;
                println!("# spans: {} written to {}", spans.len(), path.display());
            }
        }
        Report {
            measured: o.measured,
            layers,
        }
    }};
}

fn run_workload(args: &Args) -> Result<Report, String> {
    Ok(match args.workload.as_str() {
        "warm-serve" => measure!(warm, args),
        "cold-select" => measure!(cold, args),
        "stream-append" => measure!(stream, args),
        _ => measure!(oracle, args),
    })
}

fn print_metrics(title: &str, defs: &[Def], m: &Metrics) -> Result<String, String> {
    println!("== {title} ==");
    let mut json = Vec::new();
    for d in defs {
        let v = m
            .get(d.name)
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        let moves = if d.moves.is_empty() {
            String::new()
        } else {
            format!("  [moves {}]", d.moves)
        };
        println!(
            "{:<26} {:>14.4} {:<6} {:<6} {}{moves}",
            d.name, v.value, d.unit, d.better, v.note
        );
        if !v.value.is_finite() {
            return Err(format!("metric {} is not a finite number", d.name));
        }
        json.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name, v.value, d.unit
        ));
    }
    Ok(json.join(", "))
}

fn run(args: &Args) -> Result<String, String> {
    let ctx = &args.ctx;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "# fairsel perfbench: workload={} seed={} seconds={} trace={}",
        args.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace)
    );
    println!(
        "# host: available_parallelism={cores} profile={profile} commit={}",
        args.commit
    );
    let report = run_workload(args)?;
    let m = &report.measured;
    println!(
        "# ops: attempted={} failed={} percentiles over {} answered ops",
        m.attempted,
        m.failed,
        m.latencies_s.len()
    );
    let e2e = m.metrics();
    let e2e_json = print_metrics("end-to-end (tracing off)", END_TO_END, &e2e)?;
    print_metrics("end-to-end, printed but not bounded", UNBOUNDED, &e2e)?;
    println!(
        "{:<26} {:>14.4} {:<6} {:<6} {} failed / {} attempted",
        "error_ratio",
        m.failed as f64 / m.attempted as f64,
        "ratio",
        "lower",
        m.failed,
        m.attempted
    );
    let metrics = if ctx.trace {
        print_metrics(
            "per-layer (counts: untraced run; times: traced replay)",
            PER_LAYER,
            &report.layers,
        )?
    } else {
        e2e_json
    };
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        m.attempted, m.failed
    ))
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fairsel-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
