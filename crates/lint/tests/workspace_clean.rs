//! The linter's own acceptance test: the workspace it ships in must pass it.
//!
//! This is the same invariant CI enforces with `itspq-lint --deny`, kept as
//! a plain test so `cargo test` alone catches a regression (a new unwrap in
//! library code, a stale allow) without the extra CI step.

use std::path::Path;

use itspq_lint::lint_workspace;

#[test]
fn the_workspace_passes_its_own_linter() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let report = lint_workspace(&root).expect("workspace root is readable");
    assert!(
        report.files > 50,
        "walker found only {} files — wrong root?",
        report.files
    );
    let rendered: Vec<String> = report.diagnostics.iter().map(ToString::to_string).collect();
    assert!(
        report.is_clean(),
        "workspace has lint findings:\n{}",
        rendered.join("\n")
    );
    // The suppression inventory is in active use (stale allows are errors,
    // so every counted allow provably silences something).
    assert!(report.allows_used > 0);
    assert!(report.suppressed >= report.allows_used);
}

/// The `path = "…"` entries of the `disallowed-methods` array in a
/// clippy.toml, by plain text scan (the workspace vendors no TOML parser).
fn disallowed_method_paths(toml: &str) -> Vec<String> {
    let Some(start) = toml.find("disallowed-methods") else {
        return Vec::new();
    };
    let block = &toml[start..];
    let block = &block[..block.find("\n]").unwrap_or(block.len())];
    block
        .split("path = \"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .map(str::to_string)
        .collect()
}

#[test]
fn core_clippy_config_repeats_every_root_method_ban() {
    // Clippy reads only the nearest clippy.toml, so the core crate's file
    // replaces the root one there: a ban added only to the root would
    // silently not apply to core.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let read = |p: &Path| std::fs::read_to_string(p).expect("clippy.toml is readable");
    let root_paths = disallowed_method_paths(&read(&root.join("clippy.toml")));
    let core_paths =
        disallowed_method_paths(&read(&root.join("crates").join("core").join("clippy.toml")));
    assert!(
        root_paths.contains(&"std::thread::spawn".to_string()),
        "scan found no root bans: {root_paths:?}"
    );
    let missing: Vec<&String> = root_paths
        .iter()
        .filter(|p| !core_paths.contains(p))
        .collect();
    assert!(
        missing.is_empty(),
        "crates/core/clippy.toml lacks root disallowed-methods {missing:?}"
    );
}
