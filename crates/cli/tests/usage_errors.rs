//! Usage errors exit 1 before any work starts: an out-of-range `--alpha`
//! or `--workers` and a bad `--max-group`, `--algo`, `--classifier` or
//! `--tester` on the local and the `--remote` path of `select` and
//! `methods` (never a tester panic, exit 101), any flag a subcommand does
//! not read, and a column whose kind or values the pipeline cannot read.

use std::path::PathBuf;
use std::process::Command;

fn fairsel() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fairsel"))
}

/// A small figure-1a CSV in a directory of its own, named by `tag`.
fn fixture_csv(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("fairsel-usage-errors-{tag}-{}", std::process::id()));
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
    let csv = fixture_csv("alpha");
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

/// A bad `--max-group`, `--algo`, `--classifier` or `--tester`, or a
/// `--workers` above the server's cap, exits 1 with the same message on
/// the local and the `--remote` path of `select` and `methods`: the
/// options are translated once, by the server's own translation and
/// checks, before any server is dialed (no unreachable-server warning, no
/// local fallback).
#[test]
fn bad_workload_options_read_the_same_locally_and_remotely() {
    let csv = fixture_csv("options");
    for cmd in ["select", "methods"] {
        for (flag, value, message) in [
            ("--max-group", "0", "--max-group: bad value \"0\""),
            ("--max-group", "x", "--max-group: bad value \"x\""),
            ("--algo", "foo", "unknown algo: foo"),
            ("--classifier", "foo", "unknown classifier: foo"),
            ("--tester", "foo", "unknown tester: foo"),
            ("--workers", "65", "workers 65 exceeds the cap of 64"),
        ] {
            let mut stderrs = Vec::new();
            for remote in [None, Some("127.0.0.1:9")] {
                let mut run = fairsel();
                run.args([cmd, "--csv"]).arg(&csv).args([flag, value]);
                if let Some(addr) = remote {
                    run.args(["--remote", addr]);
                }
                let out = run.output().expect("run fairsel");
                let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
                let label = format!("{cmd} {flag} {value} (remote {remote:?})");
                assert_eq!(out.status.code(), Some(1), "{label}: {stderr}");
                assert!(!stderr.contains("unreachable"), "{label}: {stderr}");
                assert!(stderr.contains(message), "{label}: {stderr}");
                stderrs.push(stderr);
            }
            assert_eq!(stderrs[0], stderrs[1], "{cmd} {flag} {value}");
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

/// A column whose kind the pipeline cannot read exits 1 naming it, before
/// any work starts or the remote address is dialed: a numeric target, a
/// numeric sensitive or admissible column, and a numeric feature under the
/// G-test. Fisher-z reads numeric features.
#[test]
fn unreadable_column_kinds_are_errors_naming_the_column() {
    let dir = std::env::temp_dir().join(format!("fairsel-column-kinds-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let base = dir.join("fig1a.csv");
    let out = fairsel()
        .args(["gen", "--fixture", "1a", "--rows", "300", "--out"])
        .arg(&base)
        .output()
        .expect("run fairsel gen");
    assert!(out.status.success(), "fairsel gen failed: {out:?}");
    let text = std::fs::read_to_string(&base).expect("fixture csv");
    let cases = [
        ("Y:cat2", "Y:num", "fisherz", "target column Y"),
        ("S1:cat2", "S1:num", "fisherz", "sensitive column S1"),
        ("A1:cat2", "A1:num", "fisherz", "admissible column A1"),
        ("X1:cat2", "X1:num", "gtest", "feature column X1"),
    ];
    for (i, (from, to, tester, column)) in cases.iter().enumerate() {
        let csv = dir.join(format!("case{i}.csv"));
        std::fs::write(&csv, text.replacen(from, to, 1)).expect("write csv");
        for cmd in ["select", "methods"] {
            for remote in [None, Some("127.0.0.1:9")] {
                let mut args = strings(&[cmd, "--tester", tester, "--csv"]);
                args.push(csv.display().to_string());
                if let Some(addr) = remote {
                    args.extend(strings(&["--remote", addr]));
                }
                let line = usage_error(&args);
                assert!(
                    line.contains(&format!("{column} is numeric")),
                    "{args:?}: {line}"
                );
            }
        }
    }
    let numeric_feature = dir.join("case3.csv");
    let out = fairsel()
        .args(["select", "--tester", "fisherz", "--csv"])
        .arg(&numeric_feature)
        .output()
        .expect("run fairsel select");
    assert!(
        out.status.success(),
        "fisher-z on a numeric feature: {out:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A NaN or ±∞ in a numeric feature exits 1 naming the column and its
/// first such data row, on the local and the `--remote` path, before any
/// work starts or the remote address is dialed (never a Fisher-z panic,
/// exit 101). With that cell finite, the same table selects.
#[test]
fn non_finite_numeric_features_are_errors_naming_the_column() {
    let dir = std::env::temp_dir().join(format!("fairsel-non-finite-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let base = dir.join("fig1a.csv");
    let out = fairsel()
        .args(["gen", "--fixture", "1a", "--rows", "600", "--out"])
        .arg(&base)
        .output()
        .expect("run fairsel gen");
    assert!(out.status.success(), "fairsel gen failed: {out:?}");
    let text = std::fs::read_to_string(&base).expect("fixture csv");
    // The fixture plus a numeric feature N1 whose fifth value is `cell`.
    // That row is on the train side of the default split, where a NaN
    // once reached the Fisher-z p-value and panicked.
    let with_n1 = |cell: &str| -> String {
        let mut lines = text.lines();
        let mut csv = format!("{},N1:num[feature]\n", lines.next().expect("header"));
        for (i, line) in lines.enumerate() {
            let value = if i == 4 {
                cell.to_owned()
            } else {
                format!("{}.25", i % 7)
            };
            csv.push_str(&format!("{line},{value}\n"));
        }
        csv
    };
    for cell in ["NaN", "inf", "-inf"] {
        let csv = dir.join(format!("n1-{cell}.csv"));
        std::fs::write(&csv, with_n1(cell)).expect("write csv");
        for cmd in ["select", "methods"] {
            for remote in [None, Some("127.0.0.1:9")] {
                let mut args = strings(&[cmd, "--tester", "fisherz", "--csv"]);
                args.push(csv.display().to_string());
                if let Some(addr) = remote {
                    args.extend(strings(&["--remote", addr]));
                }
                let line = usage_error(&args);
                assert!(
                    line.contains(&format!("feature column N1 holds {cell} at data row 5")),
                    "{args:?}: {line}"
                );
            }
        }
    }
    let finite = dir.join("n1-finite.csv");
    std::fs::write(&finite, with_n1("2.5")).expect("write csv");
    let out = fairsel()
        .args(["select", "--tester", "fisherz", "--csv"])
        .arg(&finite)
        .output()
        .expect("run fairsel select");
    assert!(out.status.success(), "fisher-z on a finite N1: {out:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A table no selection can run on exits 1 naming what is wrong, on the
/// local and the `--remote` path of `select` and `methods`, before any
/// work starts or the remote address is dialed (never a panic, exit 101):
/// no sensitive column, no target, two targets, and more admissible
/// columns than selection enumerates.
#[test]
fn tables_no_selection_can_run_on_are_errors() {
    let csv = fixture_csv("roles");
    let dir = csv.parent().expect("csv dir").to_owned();
    let text = std::fs::read_to_string(&csv).expect("fixture csv");
    let mut wide = String::new();
    for (row, line) in text.lines().enumerate() {
        wide.push_str(line);
        for i in 2..=13 {
            if row == 0 {
                wide.push_str(&format!(",A{i}:cat2[admissible]"));
            } else {
                wide.push_str(&format!(",{}", (row + i) % 2));
            }
        }
        wide.push('\n');
    }
    let cases = [
        (
            text.replacen("S1:cat2[sensitive]", "S1:cat2[feature]", 1),
            "the table has no sensitive column, but selection needs one",
        ),
        (
            text.replacen("Y:cat2[target]", "Y:cat2[feature]", 1),
            "the table has 0 target columns",
        ),
        (
            text.replacen("X1:cat2[feature]", "X1:cat2[target]", 1),
            "the table has 2 target columns",
        ),
        (wide, "the table has 13 admissible columns"),
    ];
    for (i, (table, message)) in cases.iter().enumerate() {
        let case = dir.join(format!("case{i}.csv"));
        std::fs::write(&case, table).expect("write csv");
        for cmd in ["select", "methods"] {
            for remote in [None, Some("127.0.0.1:9")] {
                let mut args = strings(&[cmd, "--csv"]);
                args.push(case.display().to_string());
                if let Some(addr) = remote {
                    args.extend(strings(&["--remote", addr]));
                }
                let line = usage_error(&args);
                assert!(line.contains(message), "{args:?}: {line}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `--tester` is checked under `--dag` too, although the oracle answers
/// every query: a bad name exits 1, where the same oracle run selects.
#[test]
fn bad_tester_is_an_error_under_dag() {
    let csv = fixture_csv("dag-tester");
    let dag = csv.with_file_name("graph.txt");
    std::fs::write(
        &dag,
        "S1 -> X2\nA1 -> X1\nA1 -> Y\nX1 -> Y\nX2 -> Y\nY -> C1\n",
    )
    .expect("write dag");
    for cmd in ["select", "methods"] {
        let mut args = strings(&[cmd, "--csv"]);
        args.push(csv.display().to_string());
        args.push("--dag".to_owned());
        args.push(dag.display().to_string());
        let out = fairsel().args(&args).output().expect("run fairsel");
        assert!(out.status.success(), "{args:?}: {out:?}");
        args.extend(strings(&["--tester", "foo"]));
        let line = usage_error(&args);
        assert!(line.contains("unknown tester: foo"), "{args:?}: {line}");
    }
    std::fs::remove_dir_all(csv.parent().expect("csv dir")).ok();
}
