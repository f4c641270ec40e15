//! End-to-end tests of the `itspq-lint` binary: argument validation and the
//! shape of the `--emit json` report.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

/// A throwaway workspace with one clean library file.
fn tiny_tree() -> PathBuf {
    let root = std::env::temp_dir().join(format!("itspq-lint-cli-{}", std::process::id()));
    let src = root.join("crates").join("core").join("src");
    fs::create_dir_all(&src).expect("temp dir is writable");
    fs::write(
        src.join("lib.rs"),
        "pub fn f(x: u32) -> u32 {\n    x + 1\n}\n",
    )
    .expect("temp file is writable");
    root
}

/// One CLI invocation and what it must produce.
struct Case<'a> {
    args: Vec<&'a str>,
    exit: i32,
    stdout_has: &'a [&'a str],
    stdout_lacks: &'a [&'a str],
    stderr_has: &'a str,
}

#[test]
fn cli_exit_codes_and_json_report() {
    let tree = tiny_tree();
    let root = tree.to_str().expect("temp path is UTF-8");
    let usage = |args, stderr_has| Case {
        args,
        exit: 2,
        stdout_has: &[],
        stdout_lacks: &[],
        stderr_has,
    };
    let cases = [
        usage(vec![root, "--cache", "x"], "unknown flag `--cache`"),
        usage(vec![root, "--budget-secs", "nan"], "invalid --budget-secs"),
        usage(vec![root, "--budget-secs", "inf"], "invalid --budget-secs"),
        usage(vec![root, "--budget-secs", "-1"], "invalid --budget-secs"),
        usage(vec![root, "--budget-secs"], "--budget-secs needs a value"),
        Case {
            args: vec![root, "--deny", "--budget-secs", "5", "--emit", "json"],
            exit: 0,
            stdout_has: &[
                "\"diagnostics\": []",
                "\"files\": 1,",
                "\"suppressed\": 0,",
                "\"allows_used\": 0,",
                "\"elapsed_secs\": ",
            ],
            stdout_lacks: &["\"cache\""],
            stderr_has: "itspq-lint: 1 files, 0 diagnostics",
        },
    ];
    for case in &cases {
        let out = Command::new(env!("CARGO_BIN_EXE_itspq-lint"))
            .args(&case.args)
            .output()
            .expect("itspq-lint runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let ctx = format!("{:?}\nstdout: {stdout}\nstderr: {stderr}", case.args);
        assert_eq!(out.status.code(), Some(case.exit), "{ctx}");
        assert!(stderr.contains(case.stderr_has), "{ctx}");
        for key in case.stdout_has {
            assert!(stdout.contains(key), "missing {key}: {ctx}");
        }
        for key in case.stdout_lacks {
            assert!(!stdout.contains(key), "unexpected {key}: {ctx}");
        }
    }
    let _ = fs::remove_dir_all(&tree);
}
