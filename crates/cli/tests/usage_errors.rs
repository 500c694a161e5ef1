//! An out-of-range `--alpha` is a usage error (exit 1) on the local and
//! the `--remote` path of `select` and `methods`, never a tester panic
//! (exit 101).

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
