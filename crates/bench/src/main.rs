//! Emit `BENCH_engine.json`: SeqSel vs GrpSel trajectories through the
//! execution engine (tests issued, cache hits, encode-cache reuse,
//! wall ms).
//!
//! ```text
//! cargo run --release -p fairsel-bench            # full suite
//! cargo run --release -p fairsel-bench -- --quick # CI-sized
//! cargo run --release -p fairsel-bench -- --smoke # data-tester smoke, validated
//! cargo run --release -p fairsel-bench -- --out path.json
//! ```
//!
//! `--smoke` runs only the data-tester scenarios on tiny inputs and exits
//! non-zero when the emitted JSON is malformed or the encode-cache hit
//! counters are absent — the CI guard for the batched execution path.

use fairsel_bench::{default_suite, smoke_suite, to_json, validate_bench_json};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_engine.json".to_owned());

    let results = if smoke {
        smoke_suite()
    } else {
        default_suite(quick)
    };
    for r in &results {
        let tail = if r.hist_total > 0 {
            format!(
                "  p50/p95/p99 {:.2}/{:.2}/{:.2} ms (n={})",
                r.p50_ms, r.p95_ms, r.p99_ms, r.hist_total
            )
        } else if r.rows > 0 {
            format!("  {:.1} ns/row  hash {}", r.ns_per_row, r.pvalue_hash)
        } else {
            String::new()
        };
        println!(
            "{:<30} {:<20} issued {:>6}  hits {:>5}  enc-hits {:>6}  {:>9.2} ms  selected {:>4}/{}{}",
            r.scenario,
            r.algo,
            r.issued,
            r.cache_hits,
            r.encode_hits,
            r.wall_ms,
            r.selected,
            r.n_features,
            tail
        );
    }
    let json = to_json(&results);
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("\nwrote {out_path} ({} runs)", results.len());

    if smoke {
        if let Err(e) = validate_bench_json(&json) {
            eprintln!("smoke validation FAILED: {e}");
            return ExitCode::FAILURE;
        }
        println!("smoke validation passed");
    }
    ExitCode::SUCCESS
}
