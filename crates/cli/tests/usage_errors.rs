//! Usage errors exit 1 before any work starts: an out-of-range `--alpha`
//! on the local and the `--remote` path of `select` and `methods` (never
//! a tester panic, exit 101), and any flag a subcommand does not read.

use std::path::PathBuf;
use std::process::Command;

fn fairsel() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fairsel"))
}

/// A small figure-1a CSV in a directory of its own.
fn fixture_csv() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fairsel-usage-errors-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let csv = dir.join("fig1a.csv");
    let out = fairsel()
        .args(["gen", "--fixture", "1a", "--rows", "300", "--out"])
        .arg(&csv)
        .output()
        .expect("run fairsel gen");
    assert!(out.status.success(), "fairsel gen failed: {out:?}");
    csv
}

#[test]
fn out_of_range_alpha_is_a_usage_error() {
    let csv = fixture_csv();
    for cmd in ["select", "methods"] {
        for alpha in ["0", "1", "1.5", "-0.1", "NaN", "inf"] {
            // The workload is validated before any connection is made, so
            // the remote address is never dialed.
            for remote in [None, Some("127.0.0.1:9")] {
                let mut run = fairsel();
                run.args([cmd, "--csv"]).arg(&csv).args(["--alpha", alpha]);
                if let Some(addr) = remote {
                    run.args(["--remote", addr]);
                }
                let out = run.output().expect("run fairsel");
                let stderr = String::from_utf8_lossy(&out.stderr);
                assert_eq!(
                    out.status.code(),
                    Some(1),
                    "{cmd} --alpha {alpha} (remote {remote:?}): {stderr}"
                );
                assert!(
                    stderr.contains("--alpha must lie strictly between 0 and 1"),
                    "{cmd} --alpha {alpha} (remote {remote:?}): {stderr}"
                );
            }
        }
    }
    std::fs::remove_dir_all(csv.parent().expect("csv dir")).ok();
}

const SUBCOMMANDS: [&str; 7] = [
    "gen", "select", "methods", "serve", "append", "stats", "trace",
];

/// A flag no subcommand reads.
const BOGUS: &str = "--zz-not-a-flag";

/// Run `fairsel` with `args`, expecting a usage error: exit 1, and the
/// `error:` line of stderr (returned) printed before the USAGE text.
fn usage_error(args: &[String]) -> String {
    let out = fairsel().args(args).output().expect("run fairsel");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    let line = stderr
        .lines()
        .find(|l| l.starts_with("error:"))
        .unwrap_or_else(|| panic!("{args:?}: no error line in {stderr}"));
    line.to_owned()
}

/// Every `--flag` on each subcommand's USAGE lines, read from `fairsel help`.
fn usage_flags() -> Vec<(String, Vec<String>)> {
    let out = fairsel().arg("help").output().expect("run fairsel help");
    assert!(out.status.success(), "fairsel help failed: {out:?}");
    let text = String::from_utf8(out.stdout).expect("utf-8 usage");
    let usage = text
        .split("USAGE:\n")
        .nth(1)
        .and_then(|rest| rest.split("\n\n").next())
        .expect("USAGE block");
    let mut table: Vec<(String, Vec<String>)> = Vec::new();
    for line in usage.lines() {
        let mut words = line.split_whitespace().peekable();
        if words.peek() == Some(&"fairsel") {
            words.next();
            let cmd = words.next().expect("subcommand name");
            table.push((cmd.to_owned(), Vec::new()));
        }
        let flags = &mut table.last_mut().expect("a subcommand line first").1;
        for word in words {
            let flag: String = word
                .trim_start_matches(['[', '('])
                .chars()
                .take_while(|c| *c == '-' || c.is_ascii_alphanumeric())
                .collect();
            if flag.starts_with("--") && flag.len() > 2 && !flags.contains(&flag) {
                flags.push(flag);
            }
        }
    }
    table
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|a| (*a).to_owned()).collect()
}

#[test]
fn misspelled_and_removed_flags_are_usage_errors() {
    for cmd in SUBCOMMANDS {
        for bad in [&["--wokers", "3"][..], &["--speculate", "true"]] {
            let mut args = strings(&[cmd]);
            args.extend(strings(bad));
            let error = usage_error(&args);
            assert!(error.contains(bad[0]), "{args:?}: {error}");
        }
    }
    // Every unknown flag is named, and the known ones are not.
    let error = usage_error(&strings(&[
        "select", "--csv", "f.csv", "--wokers", "3", "--alpah", "0.5",
    ]));
    assert!(
        error.contains("--wokers") && error.contains("--alpah"),
        "{error}"
    );
    assert!(!error.contains("--csv"), "{error}");
}

#[test]
fn every_usage_flag_is_accepted() {
    let table = usage_flags();
    let names: Vec<&str> = table.iter().map(|(cmd, _)| cmd.as_str()).collect();
    assert_eq!(names, SUBCOMMANDS, "USAGE lists every subcommand once");
    for (cmd, flags) in &table {
        assert!(!flags.is_empty(), "{cmd}: no flags on its USAGE line");
        // The flag check runs first, so the bogus flag is the only one
        // named and nothing is read, dialed or bound.
        let mut args = vec![cmd.clone()];
        for flag in flags {
            args.push(flag.clone());
            args.push("x".to_owned());
        }
        args.push(BOGUS.to_owned());
        let error = usage_error(&args);
        let named = error.split(" does not take ").nth(1).unwrap_or("");
        assert_eq!(named, BOGUS, "{cmd}: {error}");
        // A flag only other subcommands list is not accepted here.
        for (_, other) in &table {
            for flag in other.iter().filter(|f| !flags.contains(f)) {
                let error = usage_error(&[cmd.clone(), flag.clone(), "x".to_owned()]);
                assert!(error.ends_with(flag.as_str()), "{cmd} {flag}: {error}");
            }
        }
    }
}

/// The invocations CI's server smoke and the benchmark make keep passing
/// the flag check: with a bogus flag appended, that flag is the only one
/// named.
#[test]
fn ci_and_benchmark_invocations_pass_the_flag_check() {
    let ci = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../.github/workflows/ci.yml"
    ))
    .expect("read ci.yml");
    let mut invocations: Vec<Vec<String>> = ci
        .lines()
        .filter_map(|l| l.trim().strip_prefix("./target/release/fairsel "))
        .map(|cmd| {
            let cmd = cmd.split(['|', '&', '>']).next().unwrap_or("");
            cmd.split_whitespace().map(str::to_owned).collect()
        })
        .collect();
    assert!(invocations.len() >= 10, "found {invocations:?}");
    invocations.push(strings(&[
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--trace",
        "false",
    ]));
    for mut args in invocations {
        args.push(BOGUS.to_owned());
        let error = usage_error(&args);
        let named = error.split(" does not take ").nth(1).unwrap_or("");
        assert_eq!(named, BOGUS, "{args:?}: {error}");
    }
}
