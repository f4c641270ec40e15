//! The `itspq-lint` CLI.
//!
//! ```text
//! itspq-lint [ROOT] [--deny] [--budget-secs N] [--emit json]
//!            [--list-rules] [--list-allows]
//! ```
//!
//! * `ROOT` — workspace root to scan (default: the current directory).
//! * `--deny` — exit non-zero if any diagnostic survives suppression; this
//!   is the CI mode.
//! * `--budget-secs N` — fail (exit 2) if the whole run takes longer than
//!   `N` seconds; CI pins the workspace pass under 5 s so the linter can
//!   never become the slow job. `N` must be finite and non-negative.
//! * `--emit json` — print one machine-readable JSON object to stdout
//!   (diagnostics, counters, elapsed time); the human summary moves to
//!   stderr. CI archives this as a build artifact.
//! * `--list-rules` — print the rule catalogue (both layers) and exit.
//! * `--list-allows` — print the suppression inventory with a staleness
//!   audit: every justified allow with its location, justification, and
//!   whether it still fires on the current sources. Stale allows are
//!   flagged here even without `--deny`.
//!
//! Exit codes: 0 clean (or advisory mode), 1 diagnostics under `--deny`,
//! 2 usage/I-O error or budget exceeded.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use itspq_lint::diag::json_escape;
use itspq_lint::{all_rules, audit_workspace_allows, lint_workspace, workspace_rules, Report};

#[derive(PartialEq)]
enum Emit {
    Text,
    Json,
}

struct Args {
    root: PathBuf,
    deny: bool,
    budget_secs: Option<f64>,
    emit: Emit,
    list_rules: bool,
    list_allows: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        deny: false,
        budget_secs: None,
        emit: Emit::Text,
        list_rules: false,
        list_allows: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--deny" => args.deny = true,
            "--list-rules" => args.list_rules = true,
            "--list-allows" => args.list_allows = true,
            "--budget-secs" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--budget-secs needs a value".to_string())?;
                // `elapsed > NaN` is always false, so a NaN budget would
                // silently disable the check; a negative one fails every run.
                let secs = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| {
                        format!("invalid --budget-secs value `{v}` (a finite number ≥ 0)")
                    })?;
                args.budget_secs = Some(secs);
            }
            "--emit" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--emit needs a value".to_string())?;
                args.emit = match v.as_str() {
                    "json" => Emit::Json,
                    "text" => Emit::Text,
                    other => return Err(format!("unknown --emit format `{other}` (json|text)")),
                };
            }
            "--help" | "-h" => {
                return Err(
                    "usage: itspq-lint [ROOT] [--deny] [--budget-secs N] [--emit json] \
                     [--list-rules] [--list-allows]"
                        .to_string(),
                )
            }
            other if !other.starts_with('-') => args.root = PathBuf::from(other),
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn render_json(report: &Report, elapsed: f64) -> String {
    let mut out = String::from("{\n  \"diagnostics\": [");
    for (i, d) in report.diagnostics.iter().enumerate() {
        out.push_str(if i == 0 { "\n    " } else { ",\n    " });
        out.push_str(&d.to_json());
    }
    if !report.diagnostics.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str(&format!(
        "],\n  \"files\": {},\n  \"suppressed\": {},\n  \"allows_used\": {},\n  \
         \"elapsed_secs\": {elapsed:.4}\n}}",
        report.files, report.suppressed, report.allows_used,
    ));
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    if args.list_rules {
        for rule in all_rules() {
            println!("{:<22} {}", rule.name(), rule.description());
        }
        for rule in workspace_rules() {
            println!("{:<22} {}", rule.name(), rule.description());
        }
        return ExitCode::SUCCESS;
    }

    if args.list_allows {
        match audit_workspace_allows(&args.root) {
            Ok(audits) => {
                if args.emit == Emit::Json {
                    let rows: Vec<String> = audits
                        .iter()
                        .map(|a| {
                            format!(
                                "{{\"path\":\"{}\",\"line\":{},\"rule\":\"{}\",\
                                 \"justification\":\"{}\",\"used\":{}}}",
                                json_escape(&a.path),
                                a.allow.comment_line,
                                json_escape(&a.allow.rule),
                                json_escape(&a.allow.justification),
                                a.used
                            )
                        })
                        .collect();
                    println!("[{}]", rows.join(","));
                } else {
                    let mut stale = 0usize;
                    for a in &audits {
                        let mark = if a.used { "" } else { "  [STALE]" };
                        if !a.used {
                            stale += 1;
                        }
                        println!(
                            "{}:{}: allow({}) — {}{mark}",
                            a.path, a.allow.comment_line, a.allow.rule, a.allow.justification
                        );
                    }
                    println!("{} allows, {stale} stale", audits.len());
                }
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("itspq-lint: cannot scan {}: {e}", args.root.display());
                return ExitCode::from(2);
            }
        }
    }

    let start = Instant::now();
    let report = match lint_workspace(&args.root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("itspq-lint: cannot scan {}: {e}", args.root.display());
            return ExitCode::from(2);
        }
    };
    let elapsed = start.elapsed().as_secs_f64();

    if args.emit == Emit::Json {
        println!("{}", render_json(&report, elapsed));
    } else {
        for d in &report.diagnostics {
            println!("{d}");
        }
    }
    let summary = format!(
        "itspq-lint: {} files, {} diagnostic{} ({} suppressed by {} justified allow{}), {:.2}s",
        report.files,
        report.diagnostics.len(),
        if report.diagnostics.len() == 1 {
            ""
        } else {
            "s"
        },
        report.suppressed,
        report.allows_used,
        if report.allows_used == 1 { "" } else { "s" },
        elapsed,
    );
    if args.emit == Emit::Json {
        eprintln!("{summary}");
    } else {
        println!("{summary}");
    }

    if let Some(budget) = args.budget_secs {
        if elapsed > budget {
            eprintln!("itspq-lint: runtime {elapsed:.2}s exceeded the {budget:.2}s budget");
            return ExitCode::from(2);
        }
    }
    if args.deny && !report.is_clean() {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
