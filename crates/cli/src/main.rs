//! `fairsel` — CSV → causal feature selection → classifier → fairness
//! report, end to end, with engine telemetry.
//!
//! ```text
//! fairsel gen    --fixture 1a --rows 4000 --out data.csv
//! fairsel gen    --synthetic 64 --biased 0.1 --rows 4000 --out data.csv
//! fairsel select --csv data.csv --algo grpsel --workers 4
//! fairsel select --csv data.csv --dag graph.txt        # oracle tester
//! fairsel methods --csv data.csv
//! fairsel serve  --addr 127.0.0.1:4990 --cache-cap 8192
//! fairsel select --csv data.csv --remote 127.0.0.1:4990
//! ```
//!
//! CSV headers are role-annotated (`name:catK[role]` / `name:num[role]`),
//! the format `fairsel_table::csv` round-trips; `fairsel gen` produces
//! them from the paper's fixtures or the synthetic workload generator.

use fairsel_ci::OracleCi;
use fairsel_core::{
    check_column_kinds, render_methods_report, render_pipeline_report, run_all_methods,
    run_pipeline_batched, PipelineConfig, PipelineResult, Problem, TesterSpec,
};
use fairsel_datasets::fixtures;
use fairsel_datasets::sim::sample_table;
use fairsel_datasets::synthetic::{synthetic_instance, synthetic_scm, SyntheticConfig};
use fairsel_engine::{default_workers, EngineStats};
use fairsel_graph::{dag_from_text, Dag};
use fairsel_server::{
    checked_workers, pipeline_config, valid_alpha, valid_train_frac, DatasetRef, Json,
    MaxGroupSpec, RegistryConfig, Request, Response, ServeConfig, Server, WorkloadRequest,
    MAX_WORKERS,
};
use fairsel_table::{csv, EncodedTable, Table, DEFAULT_CACHE_CAP};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "\
fairsel — causal feature selection for algorithmic fairness

USAGE:
  fairsel gen     --out <file.csv> [--fixture 1a|1b|1c|6] [--synthetic N]
                  [--biased F] [--rows N] [--seed N] [--strength W]
                  [--append-batches N --batch-rows M]
  fairsel select  --csv <file.csv> [--algo seqsel|grpsel] [--tester gtest|fisherz]
                  [--dag <graph.txt>] [--alpha F]
                  [--classifier logistic|tree|forest|adaboost|nb]
                  [--workers N] [--max-group N|auto] [--train-frac F] [--seed N]
                  [--cache-cap N] [--stats-out <file.json>]
                  [--report-out <file.txt>] [--remote <host:port>]
  fairsel methods --csv <file.csv> [--algo seqsel|grpsel] [--tester gtest|fisherz]
                  [--dag <graph.txt>] [--alpha F] [--classifier ...]
                  [--workers N] [--max-group N|auto] [--train-frac F] [--seed N]
                  [--remote <host:port>]
  fairsel serve   [--addr <host:port>] [--cache-cap N] [--max-datasets N]
                  [--conn-workers N] [--max-conns N] [--trace true|false]
  fairsel append  --remote <host:port> --csv <batch.csv>
                  (--fp <16-hex> | --base <base.csv>)
  fairsel stats   --remote <host:port> [--prom] [--watch SECS [--iters N]]
  fairsel trace   --remote <host:port> [--last N] [--trace-out <spans.jsonl>]

`gen` writes a role-annotated CSV sampled from a paper fixture (default 1a)
or from a fairness-structured synthetic DAG (--synthetic <n_features>).
`--append-batches N --batch-rows M` additionally writes N batch files
(`<out>.batch1.csv`, …) of M rows each, drawn from the *same* generator
state the base rows came from — streaming-append fodder for
`fairsel append`.
`append` streams a row batch to a running server: the parent dataset is
addressed fingerprint-first (`--fp`, or `--base file.csv` to fingerprint
a local copy), only the batch travels the wire (binary codec), and the
server answers with the *child* dataset fingerprint. The recorded
parent→child lineage means the first `select --remote` on the child is
born warm from the parent's session — its tester scaffolds are extended
over the appended rows, not rebuilt.
`select` runs the full pipeline — GrpSel frontiers partitioned by
conditioning set and evaluated through the Z-grouped scheduler on a
persistent worker pool — and prints selection, fairness report, and
engine telemetry (encode-cache reuse, batch counts). `methods` sweeps the
baseline pipelines (a-only, all, seqsel, grpsel, fair-pc) on one split;
with --remote the sweep runs inside the server's shared per-dataset
session and reports post-dedup test counts.
`--max-group auto` pre-splits GrpSel's root group to width log2(train rows),
restoring group-test power on wide discrete data.
`--dag graph.txt` answers CI queries from ground-truth d-separation on the
given graph (line format: `a -> b` edges, bare names for isolated nodes,
`#` comments; node names must cover the CSV columns — extra latent nodes
are fine). `--report-out` writes just the deterministic selection +
fairness report (the byte-compared artifact in CI).
`serve` starts the long-lived session service: requests from many clients
share one encode pass and one CI-outcome cache per dataset fingerprint,
LRU-bounded by --cache-cap (per-dataset encodings) and --max-datasets.
Connections are served by a bounded handler pool (--conn-workers, default
max(4, cores)); past --max-conns concurrently admitted connections the
server sheds new ones with a structured busy error instead of queueing.
`select --remote host:port` addresses the dataset by fingerprint on the
wire (warm requests are a few hundred bytes), uploads it once via the
binary column codec only when the server does not hold it yet, falls
back to inline CSV against servers without fingerprint support, and to
local execution when the server is unreachable or busy. `stats --remote` prints the server's registry and
connection telemetry (active/shed connections, bytes moved, per-command
latency percentiles, admission queue wait) as one JSON object; `--prom`
renders the same data in the Prometheus text format, `--watch SECS`
polls it and prints one delta line per interval (`--iters N` bounds the
loop; default runs until interrupted). `trace --remote` fetches the
server's most recent completed spans (engine phases and the request
lifecycle) as JSON lines — `--last N` picks how many, `--trace-out`
writes them to a file instead of stdout.
Every subcommand accepts exactly the flags its USAGE line lists; any
other flag is a usage error.";

/// The flags each subcommand reads — exactly those on its USAGE lines —
/// space-separated. `None` for an unknown subcommand.
fn accepted_flags(cmd: &str) -> Option<&'static str> {
    Some(match cmd {
        "gen" => "out fixture synthetic biased rows seed strength append-batches batch-rows",
        "select" => {
            "csv algo tester dag alpha classifier workers max-group train-frac seed \
             cache-cap stats-out report-out remote"
        }
        "methods" => {
            "csv algo tester dag alpha classifier workers max-group train-frac seed remote"
        }
        "serve" => "addr cache-cap max-datasets conn-workers max-conns trace",
        "append" => "remote csv fp base",
        "stats" => "remote prom watch iters",
        "trace" => "remote last trace-out",
        "help" | "--help" | "-h" => "",
        _ => return None,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    // Flags are checked before any file is read or socket opened.
    let checked = Opts::parse(rest).and_then(|opts| match accepted_flags(cmd) {
        Some(accepted) => opts.reject_unknown(cmd, accepted).map(|()| opts),
        None => Ok(opts),
    });
    let opts = match checked {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "gen" => cmd_gen(&opts),
        "select" => cmd_select(&opts),
        "methods" => cmd_methods(&opts),
        "append" => cmd_append(&opts),
        "serve" => cmd_serve(&opts),
        "stats" => cmd_stats(&opts),
        "trace" => cmd_trace(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command: {other}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parsed `--key value` options.
struct Opts {
    pairs: Vec<(String, String)>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(k) = it.next() {
            let key = k
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {k}"))?;
            // A flag followed by another flag (or by nothing) is a bare
            // boolean: `--prom` reads as `--prom true`.
            let val = match it.peek() {
                Some(v) if !v.starts_with("--") => it.next().expect("peeked").clone(),
                _ => "true".to_owned(),
            };
            pairs.push((key.to_owned(), val));
        }
        Ok(Opts { pairs })
    }

    /// A usage error naming every flag `cmd` does not read.
    fn reject_unknown(&self, cmd: &str, accepted: &str) -> Result<(), String> {
        let mut unknown: Vec<String> = Vec::new();
        for (k, _) in &self.pairs {
            let flag = format!("--{k}");
            if !accepted.split_whitespace().any(|a| a == k) && !unknown.contains(&flag) {
                unknown.push(flag);
            }
        }
        if unknown.is_empty() {
            Ok(())
        } else {
            Err(format!("`{cmd}` does not take {}", unknown.join(", ")))
        }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad value {v:?}")),
        }
    }
}

fn cmd_gen(opts: &Opts) -> Result<(), String> {
    let out = opts.get("out").ok_or("gen: --out is required")?;
    let rows: usize = opts.num("rows", 4000)?;
    let seed: u64 = opts.num("seed", 7)?;
    let strength: f64 = opts.num("strength", 1.5)?;
    let mut rng = StdRng::seed_from_u64(seed);

    let (scm, roles, origin) = if let Some(n) = opts.get("synthetic") {
        let n_features: usize = n.parse().map_err(|_| "--synthetic: bad count")?;
        let biased: f64 = opts.num("biased", 0.1)?;
        let cfg = SyntheticConfig {
            n_features,
            biased_fraction: biased,
            ..Default::default()
        };
        let inst = synthetic_instance(&mut rng, &cfg);
        let scm = synthetic_scm(&mut rng, &inst, strength);
        (
            scm,
            inst.roles,
            format!("synthetic n={n_features} biased={biased}"),
        )
    } else {
        let id = opts.get("fixture").unwrap_or("1a");
        let fixture = match id {
            "1a" => fixtures::figure_1a(),
            "1b" => fixtures::figure_1b(),
            "1c" => fixtures::figure_1c(),
            "6" => fixtures::figure_6(),
            other => return Err(format!("unknown fixture: {other} (1a|1b|1c|6)")),
        };
        let scm = fixture.scm(strength);
        (scm, fixture.roles, format!("figure {id}"))
    };
    let table = sample_table(&scm, &roles, rows, &mut rng);
    csv::write_csv(&table, Path::new(out)).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wrote {out}: {} rows x {} cols from {origin}\nschema: {}",
        table.n_rows(),
        table.n_cols(),
        table.schema_string()
    );
    // Streaming-append fodder: continue drawing from the *same* generator
    // state, so base + batches are one long sample — exactly the rows a
    // single `gen --rows base+N*M` run would have produced.
    let batches: usize = opts.num("append-batches", 0)?;
    if batches > 0 {
        let batch_rows: usize = opts.num("batch-rows", 0)?;
        if batch_rows == 0 {
            return Err("--append-batches requires --batch-rows M (M >= 1)".into());
        }
        let stem = out.strip_suffix(".csv").unwrap_or(out);
        for b in 1..=batches {
            let batch = sample_table(&scm, &roles, batch_rows, &mut rng);
            let path = format!("{stem}.batch{b}.csv");
            csv::write_csv(&batch, Path::new(&path)).map_err(|e| format!("writing {path}: {e}"))?;
            println!("wrote {path}: {batch_rows} rows (append batch {b}/{batches})");
        }
    }
    Ok(())
}

/// `fairsel append`: stream a row batch to a running server,
/// fingerprint-first. The parent is addressed by `--fp` (16 hex chars,
/// as printed by a previous put/append) or by `--base file.csv`
/// (fingerprinted locally — no upload). Only the batch rows travel, as
/// the binary column codec; the server answers with the child dataset
/// fingerprint, which later `select --remote` requests resolve warm.
fn cmd_append(opts: &Opts) -> Result<(), String> {
    let addr = opts
        .get("remote")
        .ok_or("append: --remote <host:port> is required")?;
    let path = opts
        .get("csv")
        .ok_or("append: --csv <batch.csv> is required")?;
    let batch = csv::read_csv(Path::new(path)).map_err(|e| format!("reading {path}: {e}"))?;
    if batch.n_rows() == 0 {
        return Err(format!("{path}: batch has no rows"));
    }
    let fp = match (opts.get("fp"), opts.get("base")) {
        (Some(hex), _) => u64::from_str_radix(hex, 16)
            .map_err(|_| format!("--fp: bad fingerprint {hex:?} (expect 16 hex chars)"))?,
        (None, Some(base)) => {
            let table =
                csv::read_csv(Path::new(base)).map_err(|e| format!("reading {base}: {e}"))?;
            fairsel_server::fingerprint_table(&table)
        }
        (None, None) => return Err("append: --fp <16-hex> or --base <base.csv> is required".into()),
    };
    let bytes = fairsel_table::encode_row_batch(&batch);
    let resp = fairsel_server::append_rows(addr, fp, &bytes).map_err(|e| format!("{addr}: {e}"))?;
    match resp {
        Response::Ok { body, stats, .. } => {
            println!("child fingerprint           {body}");
            println!("parent fingerprint          {fp:016x}");
            println!(
                "batch                       {} rows, {} bytes on the wire",
                batch.n_rows(),
                bytes.len()
            );
            if let Some(s) = stats {
                if let Some(rows) = s.get_u64("rows") {
                    println!("child rows                  {rows}");
                }
            }
            Ok(())
        }
        Response::Busy => Err("server busy: connection limit reached".into()),
        Response::Err(e) => Err(e),
    }
}

/// Shared select/methods setup: the wire request, the split, the
/// pipeline config and the tester a local run executes.
struct Workload {
    req: WorkloadRequest,
    train: Table,
    test: Table,
    cfg: PipelineConfig,
    /// The oracle under `--dag`, else the `--tester` at `--alpha`.
    spec: TesterSpec,
}

/// `--train-frac`, rejected unless strictly between 0 and 1 (the split
/// would panic on anything else).
fn train_frac(opts: &Opts) -> Result<f64, String> {
    let f: f64 = opts.num("train-frac", 0.7)?;
    if valid_train_frac(f) {
        Ok(f)
    } else {
        Err(format!(
            "--train-frac must lie strictly between 0 and 1, got {f}"
        ))
    }
}

/// `--alpha`, rejected unless strictly between 0 and 1 (the data testers
/// would panic on anything else).
fn alpha(opts: &Opts) -> Result<f64, String> {
    let a: f64 = opts.num("alpha", 0.01)?;
    if valid_alpha(a) {
        Ok(a)
    } else {
        Err(format!(
            "--alpha must lie strictly between 0 and 1, got {a}"
        ))
    }
}

/// Read `--csv` once, as text. Returns the parsed table and the text,
/// which the remote path keeps for its inline fallback.
fn read_table(opts: &Opts) -> Result<(Table, String), String> {
    let path = opts.get("csv").ok_or("--csv is required")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let table = csv::from_csv_string(&text).map_err(|e| format!("reading {path}: {e}"))?;
    Ok((table, text))
}

/// Read the options into the wire request once, translate it into the
/// tester with [`TesterSpec::parse`] and check that the tester and the
/// pipeline can read the table ([`check_column_kinds`]), then split the
/// table and translate the request into the pipeline config with the
/// server's own [`pipeline_config`]. So a bad option or table reads the
/// same on the local and the `--remote` path and is refused before any
/// work starts or a server is dialed.
fn load_workload(opts: &Opts, table: &Table, csv_text: String) -> Result<Workload, String> {
    let path = opts.get("csv").ok_or("--csv is required")?;
    if table.n_rows() < 10 {
        return Err(format!("{path}: too few rows ({})", table.n_rows()));
    }
    let req = workload_request(opts, csv_text)?;
    let tester = TesterSpec::parse(&req.tester, req.alpha)?;
    let spec = match opts.get("dag") {
        Some(_) => TesterSpec::Oracle,
        None => tester,
    };
    check_column_kinds(table, spec.reads_codes()).map_err(|e| format!("{path}: {e}"))?;
    // Row-stable split — the same membership rule the server registry
    // uses, so a local run and a `--remote` run of the same workload
    // stay byte-identical (and appended datasets split into the parent's
    // split plus the new rows).
    let split = table.split_rows_stable(req.seed, req.train_frac);
    let cfg = pipeline_config(&req, split.train.n_rows())?;
    Ok(Workload {
        req,
        train: split.train,
        test: split.test,
        cfg,
        spec,
    })
}

fn cmd_select(opts: &Opts) -> Result<(), String> {
    let (table, csv_text) = read_table(opts)?;
    let Workload {
        req,
        train,
        test,
        cfg,
        spec,
    } = load_workload(opts, &table, csv_text)?;
    if let Some(addr) = opts.get("remote") {
        if opts.get("dag").is_some() {
            return Err("--dag cannot be combined with --remote (oracle runs locally)".into());
        }
        match remote_select(addr, opts, &table, req) {
            Ok(()) => return Ok(()),
            Err(RemoteError::Unreachable(e)) => {
                eprintln!(
                    "warning: server {addr} unreachable ({e}); falling back to local execution"
                );
            }
            Err(RemoteError::Server(e)) => return Err(format!("remote {addr}: {e}")),
        }
    }

    drop(table);
    let cache_cap: usize = opts.num("cache-cap", DEFAULT_CACHE_CAP)?;
    let out = if let Some(path) = opts.get("dag") {
        let dag = load_dag(path)?;
        let aligned = align_dag_to_table(&dag, &train)?;
        run_pipeline_batched(OracleCi::from_dag(aligned), &train, &test, &cfg)
    } else {
        let enc = Arc::new(EncodedTable::from_arc_with_cap(
            Arc::new(train.clone()),
            cache_cap,
        ));
        let tester = spec.build_over(Some(&enc), &train, None);
        run_pipeline_batched(tester, &train, &test, &cfg)
    };

    let report = render_pipeline_report(&out, &train, &cfg, test.n_rows());
    print!("{report}");
    println!();
    print_engine_stats(&out.engine, cfg.workers);
    write_outputs(opts, &report, &out)?;
    Ok(())
}

/// Remote execution failure, split by whether falling back locally is the
/// right reaction (connection trouble) or not (the server understood the
/// request and rejected it).
enum RemoteError {
    Unreachable(String),
    Server(String),
}

/// The wire request for this invocation, carrying `csv_text` (the
/// `--csv` file as read by [`read_table`]) inline.
fn workload_request(opts: &Opts, csv_text: String) -> Result<WorkloadRequest, String> {
    let max_group = match opts.get("max-group") {
        None => MaxGroupSpec::None,
        Some("auto") => MaxGroupSpec::Auto,
        Some(v) => MaxGroupSpec::Width(
            v.parse::<usize>()
                .ok()
                .filter(|&w| w >= 1)
                .ok_or_else(|| format!("--max-group: bad value {v:?} (a number >= 1 or 'auto')"))?,
        ),
    };
    // The server caps `workers`; a larger host's default stays under it.
    let workers = opts.num("workers", default_workers().min(MAX_WORKERS) as u64)?;
    Ok(WorkloadRequest {
        dataset: DatasetRef::Csv(csv_text),
        algo: opts.get("algo").unwrap_or("grpsel").to_owned(),
        tester: opts.get("tester").unwrap_or("gtest").to_owned(),
        alpha: alpha(opts)?,
        workers: checked_workers(workers)?,
        max_group,
        train_frac: train_frac(opts)?,
        seed: opts.num("seed", 0)?,
        classifier: opts.get("classifier").unwrap_or("logistic").to_owned(),
    })
}

/// How the workload's dataset traveled to the server.
enum Transport {
    /// Fingerprint-addressed; `put_bytes` is the one-time codec upload
    /// (`0` when the server already held the dataset — the warm case,
    /// where the whole exchange is a few hundred bytes).
    FpAddressed { put_bytes: usize },
    /// Shipped inline as CSV text (older server, or the upload failed).
    InlineCsv,
}

/// Serialize once, send, and report the frame size alongside the
/// response (the transport telemetry must not cost a second
/// serialization of a multi-megabyte request).
fn send_request(addr: &str, wire: &Request) -> Result<(Response, usize), RemoteError> {
    let payload = wire.to_json().to_string();
    let resp = fairsel_server::request_raw(addr, payload.as_bytes())
        .map_err(|e| RemoteError::Unreachable(e.to_string()))?;
    Ok((resp, payload.len() + 4))
}

/// Swap a workload request's dataset reference.
fn with_dataset(wire: Request, dataset: DatasetRef) -> Request {
    match wire {
        Request::Select(mut w) => {
            w.dataset = dataset;
            Request::Select(w)
        }
        Request::Methods(mut w) => {
            w.dataset = dataset;
            Request::Methods(w)
        }
        other => other,
    }
}

/// Issue one workload request, negotiating the fingerprint-addressed
/// transport **fingerprint-first**: compute the dataset fingerprint
/// locally and send the tiny `fp` request straight away — a warm server
/// already holds the dataset and no bytes beyond the frame move. Only an
/// `unknown dataset fingerprint` answer triggers the one-time `put`
/// upload (then the fp request is retried); servers that know neither
/// `fp` nor `put` get the dataset re-shipped as inline CSV.
fn remote_workload(
    addr: &str,
    mut req: WorkloadRequest,
    table: &Table,
    wrap: fn(WorkloadRequest) -> Request,
) -> Result<(Response, Transport, usize), RemoteError> {
    // Address the dataset by fingerprint, keeping the inline CSV (moved,
    // not copied) for the fallback; `table` is its parse, for the (rare)
    // upload path.
    let fp = fairsel_server::fingerprint_table(table);
    let inline = std::mem::replace(&mut req.dataset, DatasetRef::Fp(fp));
    let wire = wrap(req);
    let (mut resp, mut frame_bytes) = send_request(addr, &wire)?;
    let mut transport = Transport::FpAddressed { put_bytes: 0 };

    // Cold server: upload the dataset once, retry the same fp frame. The
    // codec payload is encoded only here — the warm path (server already
    // holds the dataset) never materializes it.
    if matches!(&resp, Response::Err(e) if e.contains("unknown dataset fingerprint")) {
        let bytes = fairsel_table::encode_table(table);
        if let Ok(Response::Ok { .. }) = fairsel_server::put_dataset(addr, &bytes) {
            (resp, frame_bytes) = send_request(addr, &wire)?;
            transport = Transport::FpAddressed {
                put_bytes: bytes.len(),
            };
        }
    }

    // Still failing on the fp transport (a server without `put`, or one
    // that predates `fp` entirely and answers "missing csv"): re-ship
    // the dataset inline, which every server understands.
    if matches!(&resp, Response::Err(e) if e.contains("unknown dataset fingerprint")
        || e.contains("missing csv"))
    {
        let wire = with_dataset(wire, inline);
        (resp, frame_bytes) = send_request(addr, &wire)?;
        transport = Transport::InlineCsv;
    }
    Ok((resp, transport, frame_bytes))
}

/// Describe how the dataset traveled (grep-able by the CI smoke step).
fn print_transport(transport: &Transport, frame_bytes: usize) {
    match transport {
        Transport::FpAddressed { put_bytes: 0 } => println!(
            "transport                   fp-addressed \
             (dataset already resident; request frame {frame_bytes} bytes)"
        ),
        Transport::FpAddressed { put_bytes } => println!(
            "transport                   fp-addressed \
             (uploaded {put_bytes} bytes once; request frame {frame_bytes} bytes)"
        ),
        Transport::InlineCsv => {
            println!("transport                   inline csv (request frame {frame_bytes} bytes)")
        }
    }
}

fn remote_select(
    addr: &str,
    opts: &Opts,
    table: &Table,
    req: WorkloadRequest,
) -> Result<(), RemoteError> {
    let (resp, transport, frame_bytes) = remote_workload(addr, req, table, Request::Select)?;
    match resp {
        Response::Ok { body, stats, cache } => {
            print!("{body}");
            println!();
            println!("== served by {addr} ==");
            print_transport(&transport, frame_bytes);
            if let Some(c) = cache {
                println!("dataset fingerprint         {:016x}", c.fingerprint);
                println!("sessions served             {}", c.sessions_served);
                println!("shared memo hits            {}", c.shared_hits);
                println!(
                    "encode cache hits/misses    {}/{} (evictions {})",
                    c.encode_hits, c.encode_misses, c.encode_evictions
                );
                println!("dataset evictions           {}", c.dataset_evictions);
            }
            if let Some(path) = opts.get("report-out") {
                std::fs::write(path, &body)
                    .map_err(|e| RemoteError::Server(format!("writing {path}: {e}")))?;
                println!("report written to {path}");
            }
            if let Some(path) = opts.get("stats-out") {
                let text = stats.map(|s| s.to_string()).unwrap_or_else(|| "{}".into());
                std::fs::write(path, text)
                    .map_err(|e| RemoteError::Server(format!("writing {path}: {e}")))?;
                println!("engine stats written to {path}");
            }
            Ok(())
        }
        Response::Busy => Err(RemoteError::Unreachable(
            "server busy (connection limit reached)".into(),
        )),
        Response::Err(e) => Err(RemoteError::Server(e)),
    }
}

fn write_outputs(opts: &Opts, report: &str, out: &PipelineResult) -> Result<(), String> {
    if let Some(path) = opts.get("report-out") {
        std::fs::write(path, report).map_err(|e| format!("writing {path}: {e}"))?;
        println!("\nreport written to {path}");
    }
    if let Some(path) = opts.get("stats-out") {
        std::fs::write(path, out.engine.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("\nengine stats written to {path}");
    }
    Ok(())
}

fn load_dag(path: &str) -> Result<Dag, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    dag_from_text(&text).map_err(|e| format!("{path}: {e}"))
}

/// Rebuild `dag` with node ids aligned to the table's column order (so
/// variable `i` *is* column `i` for the d-separation oracle); graph nodes
/// not present as columns — latent variables — keep their edges and are
/// appended after the columns. Every column must name a graph node.
fn align_dag_to_table(dag: &Dag, table: &Table) -> Result<Dag, String> {
    let mut aligned = Dag::new();
    for col in table.columns() {
        if dag.node(&col.name).is_none() {
            return Err(format!(
                "--dag: graph has no node named {:?} (every CSV column must map to a node)",
                col.name
            ));
        }
        aligned
            .add_node(col.name.clone())
            .map_err(|e| format!("--dag: {e}"))?;
    }
    for v in dag.nodes() {
        let name = dag.name(v);
        if aligned.node(name).is_none() {
            aligned.add_node(name.to_owned()).expect("fresh name");
        }
    }
    for (f, t) in dag.edges() {
        let from = aligned.expect_node(dag.name(f));
        let to = aligned.expect_node(dag.name(t));
        aligned
            .add_edge(from, to)
            .map_err(|e| format!("--dag: {e}"))?;
    }
    Ok(aligned)
}

/// `methods` against a running server: the sweep executes inside the
/// server's per-dataset registry session, so it shares dedup with every
/// other request on the same dataset (the per-method tests/issued columns
/// report post-dedup costs — a warm sweep issues almost nothing).
fn remote_methods(addr: &str, table: &Table, req: WorkloadRequest) -> Result<(), RemoteError> {
    let (resp, transport, frame_bytes) = remote_workload(addr, req, table, Request::Methods)?;
    match resp {
        Response::Ok { body, cache, .. } => {
            print!("{body}");
            println!("\n== served by {addr} ==");
            print_transport(&transport, frame_bytes);
            if let Some(c) = cache {
                println!("dataset fingerprint         {:016x}", c.fingerprint);
                println!("sessions served             {}", c.sessions_served);
                println!("shared memo hits            {}", c.shared_hits);
            }
            Ok(())
        }
        Response::Busy => Err(RemoteError::Unreachable(
            "server busy (connection limit reached)".into(),
        )),
        Response::Err(e) => Err(RemoteError::Server(e)),
    }
}

fn cmd_serve(opts: &Opts) -> Result<(), String> {
    let addr = opts.get("addr").unwrap_or("127.0.0.1:4990");
    let max_conns = match opts.get("max-conns") {
        // Auto: twice the handler pool (resolved by `Server::bind`).
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("--max-conns: bad value {v:?} (must be >= 1)"))?,
    };
    let cfg = ServeConfig {
        registry: RegistryConfig {
            cache_cap: opts.num("cache-cap", DEFAULT_CACHE_CAP)?,
            max_datasets: opts.num("max-datasets", RegistryConfig::default().max_datasets)?,
        },
        conn_workers: opts.num("conn-workers", 0)?,
        max_conns,
        trace_spans: opts.get("trace").is_none_or(|v| v != "false"),
    };
    let server = Server::bind(addr, cfg).map_err(|e| format!("binding {addr}: {e}"))?;
    println!(
        "fairsel serve listening on {} (cache-cap {}, max-datasets {}, \
         conn-workers {}, max-conns {})",
        server.local_addr(),
        cfg.registry.cache_cap,
        cfg.registry.max_datasets,
        server.conn_workers(),
        server.max_conns()
    );
    server.run().map_err(|e| format!("serve: {e}"))
}

/// Print a running server's registry + connection telemetry as one JSON
/// object (the CI smoke step greps `shed_conns` / `bytes_rx` out of it).
/// `--prom` renders it as Prometheus text; `--watch SECS` polls and
/// prints per-interval deltas instead.
fn cmd_stats(opts: &Opts) -> Result<(), String> {
    let addr = opts
        .get("remote")
        .ok_or("stats: --remote <host:port> is required")?;
    if let Some(secs) = opts.get("watch") {
        let secs: f64 = secs
            .parse()
            .map_err(|_| format!("--watch: bad interval {secs:?}"))?;
        if secs <= 0.0 || !secs.is_finite() {
            return Err("--watch: interval must be positive".into());
        }
        let iters: u64 = opts.num("iters", 0)?;
        return watch_stats(addr, secs, iters);
    }
    let s = fetch_stats(addr)?;
    if opts.get("prom").is_some_and(|v| v != "false") {
        print!("{}", fairsel_server::render_prom(&s));
    } else {
        println!("{s}");
    }
    Ok(())
}

/// One `stats` round trip, unwrapped to the JSON object.
fn fetch_stats(addr: &str) -> Result<Json, String> {
    let resp =
        fairsel_server::request(addr, &Request::Stats).map_err(|e| format!("{addr}: {e}"))?;
    match resp {
        Response::Ok { stats: Some(s), .. } => Ok(s),
        Response::Ok { .. } => Err("server returned no stats".into()),
        Response::Busy => Err("server busy: connection limit reached".into()),
        Response::Err(e) => Err(e),
    }
}

/// Poll `stats` every `secs` seconds and print one line per interval:
/// request/connection deltas plus the current latency percentiles.
/// `iters == 0` polls until interrupted.
fn watch_stats(addr: &str, secs: f64, iters: u64) -> Result<(), String> {
    let field = |s: &Json, k: &str| s.get_num(k).unwrap_or(0.0);
    let mut prev: Option<Json> = None;
    let mut n = 0u64;
    loop {
        let s = fetch_stats(addr)?;
        let delta = |k: &str| {
            let before = prev.as_ref().map_or(0.0, |p| field(p, k));
            field(&s, k) - before
        };
        println!(
            "requests +{:<5} wall p50/p95/p99 {:.2}/{:.2}/{:.2} ms  \
             qwait p95 {:.2} ms  active {}  shed +{}  rx +{}B tx +{}B",
            delta("requests_handled"),
            field(&s, "request_wall_p50_ms"),
            field(&s, "request_wall_p95_ms"),
            field(&s, "request_wall_p99_ms"),
            field(&s, "queue_wait_p95_ms"),
            field(&s, "active_conns"),
            delta("shed_conns"),
            delta("bytes_rx"),
            delta("bytes_tx"),
        );
        prev = Some(s);
        n += 1;
        if iters > 0 && n >= iters {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_secs_f64(secs));
    }
}

/// Fetch a running server's most recent completed spans and print them
/// as JSON lines (one span object per line), oldest first. `--trace-out`
/// redirects the lines to a file and prints a one-line summary instead.
fn cmd_trace(opts: &Opts) -> Result<(), String> {
    let addr = opts
        .get("remote")
        .ok_or("trace: --remote <host:port> is required")?;
    let last: usize = opts.num("last", fairsel_server::proto::DEFAULT_TRACE_LAST)?;
    let resp = fairsel_server::request(addr, &Request::Trace { last })
        .map_err(|e| format!("{addr}: {e}"))?;
    let stats = match resp {
        Response::Ok { stats: Some(s), .. } => s,
        Response::Ok { .. } => return Err("server returned no trace".into()),
        Response::Busy => return Err("server busy: connection limit reached".into()),
        Response::Err(e) => return Err(e),
    };
    let Some(Json::Arr(spans)) = stats.get("spans") else {
        return Err("trace response carried no spans array".into());
    };
    let dropped = stats.get_num("spans_dropped").unwrap_or(0.0) as u64;
    let enabled = stats.get_bool("trace_enabled").unwrap_or(false);
    let mut lines = String::new();
    for span in spans {
        lines.push_str(&span.to_string());
        lines.push('\n');
    }
    match opts.get("trace-out") {
        Some(path) => {
            std::fs::write(path, &lines).map_err(|e| format!("writing {path}: {e}"))?;
            println!(
                "{} spans written to {path} (spans_dropped {dropped}, trace_enabled {enabled})",
                spans.len()
            );
        }
        None => {
            print!("{lines}");
            eprintln!(
                "{} spans (spans_dropped {dropped}, trace_enabled {enabled})",
                spans.len()
            );
        }
    }
    Ok(())
}

fn cmd_methods(opts: &Opts) -> Result<(), String> {
    let (table, csv_text) = read_table(opts)?;
    let Workload {
        req,
        train,
        test,
        cfg,
        spec,
    } = load_workload(opts, &table, csv_text)?;
    if let Some(addr) = opts.get("remote") {
        if opts.get("dag").is_some() {
            return Err("--dag cannot be combined with --remote (oracle runs locally)".into());
        }
        match remote_methods(addr, &table, req) {
            Ok(()) => return Ok(()),
            Err(RemoteError::Unreachable(e)) => {
                eprintln!(
                    "warning: server {addr} unreachable ({e}); falling back to local execution"
                );
            }
            Err(RemoteError::Server(e)) => return Err(format!("remote {addr}: {e}")),
        }
    }
    drop(table);
    let aligned_dag = match opts.get("dag") {
        Some(path) => Some(align_dag_to_table(&load_dag(path)?, &train)?),
        None => None,
    };
    let outs = run_all_methods(&spec, aligned_dag.as_ref(), &train, &test, &cfg);
    let problem = Problem::from_table(&train);
    print!("{}", render_methods_report(&outs, problem.n_features()));
    Ok(())
}

fn print_engine_stats(stats: &EngineStats, workers: usize) {
    println!("== engine telemetry (workers={workers}) ==");
    println!("queries requested           {}", stats.requested);
    println!("tests issued                {}", stats.issued);
    println!("cache hits                  {}", stats.cache_hits);
    println!("dedup rate                  {:.4}", stats.dedup_rate());
    println!(
        "batches (par/grp)           {} ({}/{})",
        stats.batches, stats.parallel_batches, stats.grouped_batches
    );
    println!(
        "encode cache hits/misses    {}/{} (evictions {})",
        stats.encode_cache_hits, stats.encode_cache_misses, stats.encode_cache_evictions
    );
    if stats.memoized_before > 0 {
        println!(
            "memo patched/invalidated    {}/{} of {} (patch hits {})",
            stats.memo_patched,
            stats.memo_invalidated,
            stats.memoized_before,
            stats.memo_patch_hits
        );
    }
    println!("ci wall time                {:.2} ms", stats.wall_ms);
    for p in &stats.phases {
        println!(
            "  {:<24} requested {:>6}  issued {:>6}  hits {:>6}  {:>9.2} ms",
            p.name, p.requested, p.issued, p.cache_hits, p.wall_ms
        );
    }
}
