//! `lock-scope`: lock guards must not live across expensive or re-entrant
//! calls.
//!
//! The locks left in the serving path are the `ScratchPool` mutexes in
//! `crates/core/src/server.rs`: the planner's pooled grouping state and the
//! stack of per-worker scratch buffers that every batch worker checks out
//! and returns. A `parking_lot` guard on one of them held across an
//! expensive build (or any user-supplied closure) serialises every worker
//! behind that call — or self-deadlocks when the callee takes the same
//! lock. The ITG/A views take no lock at all (`OnceLock` slots), and this
//! rule keeps a future cache from reintroducing the hazard. The blessed shapes
//! are (a) a guard as a *temporary* that dies at the end of its statement
//! (`self.cache.read().get(&k).cloned()`), or (b) a `let`-bound guard in a
//! minimal block that ends before any build/closure call.
//!
//! Flags, in library code of the disciplined crates outside test regions: a
//! `let` statement whose initialiser *ends with* `.read()`, `.write()`,
//! `.lock()`, `.try_read()`, `.try_write()` or `.try_lock()` — i.e. the
//! binding **is** the guard — when, between that statement and the end of
//! its enclosing block, there is a call whose name starts with `build` (or
//! is `get_or_init` / `or_insert_with` / `force`) or a closure literal.
//! Guards that die inside their own statement are never flagged.

use crate::diag::Diagnostic;
use crate::parser::ItemTree;
use crate::rules::{diag, Rule};
use crate::source::FileView;

/// See the module docs.
pub struct LockScope;

const GUARD_METHODS: &[&str] = &["read", "write", "lock", "try_read", "try_write", "try_lock"];
const BUILD_CALLS: &[&str] = &["get_or_init", "or_insert_with", "force"];

impl Rule for LockScope {
    fn name(&self) -> &'static str {
        "lock-scope"
    }

    fn description(&self) -> &'static str {
        "no let-bound lock guard living across a cache-build or closure call"
    }

    fn check(&self, view: &FileView<'_>, _tree: &ItemTree, out: &mut Vec<Diagnostic>) {
        if !view.ctx.lib_discipline() {
            return;
        }
        for i in 0..view.code_len() {
            if view.ctext(i) != "let" || view.in_test_region(i) {
                continue;
            }
            let Some(stmt_end) = statement_end(view, i) else {
                continue;
            };
            // Initialiser must end `.guard_method()` — the binding is a guard.
            let is_guard = stmt_end >= 4
                && view.ctext(stmt_end - 1) == ")"
                && view.ctext(stmt_end - 2) == "("
                && GUARD_METHODS.contains(&view.ctext(stmt_end - 3))
                && view.ctext(stmt_end - 4) == ".";
            if !is_guard {
                continue;
            }
            if let Some(hazard) = hazard_in_rest_of_block(view, stmt_end + 1) {
                let Some(tok) = view.ct(i) else { continue };
                out.push(diag(
                    view,
                    self.name(),
                    tok,
                    format!(
                        "lock guard bound by `let` is still live at the call to `{hazard}`; \
                         drop the guard first (narrow block or temporary) or justify the hold"
                    ),
                ));
            }
        }
    }
}

/// Code index of the `;` ending the statement opened at `i`, staying at the
/// statement's own bracket depth. `None` when the block ends first (a tail
/// expression, not a `let` statement).
fn statement_end(view: &FileView<'_>, i: usize) -> Option<usize> {
    let mut depth = 0i64;
    let mut j = i + 1;
    while j < view.code_len() {
        match view.ctext(j) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" => depth -= 1,
            "}" => {
                depth -= 1;
                if depth < 0 {
                    return None;
                }
            }
            ";" if depth == 0 => return Some(j),
            _ => {}
        }
        j += 1;
    }
    None
}

/// Scans from `from` to the end of the enclosing block; returns the name of
/// the first build-like call or `"a closure"` for a closure literal.
fn hazard_in_rest_of_block(view: &FileView<'_>, from: usize) -> Option<String> {
    let mut depth = 0i64;
    let mut j = from;
    while j < view.code_len() {
        let text = view.ctext(j);
        match text {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" => depth -= 1,
            "}" => {
                depth -= 1;
                if depth < 0 {
                    return None; // enclosing block ended: guard dropped
                }
            }
            _ => {
                let is_build_call = (text.starts_with("build") || BUILD_CALLS.contains(&text))
                    && view.ctext(j + 1) == "(";
                if is_build_call {
                    return Some(text.to_string());
                }
                if is_closure_start(view, j) {
                    return Some("a closure".to_string());
                }
            }
        }
        j += 1;
    }
    None
}

/// A `|` / `||` token opening a closure literal: preceded by a token that
/// cannot end an operand (so it cannot be bitwise/logical "or" or a match
/// pattern alternative).
fn is_closure_start(view: &FileView<'_>, j: usize) -> bool {
    let text = view.ctext(j);
    if text != "|" && text != "||" {
        return false;
    }
    matches!(
        view.ctext(j.wrapping_sub(1)),
        "(" | "," | "=" | "=>" | "return" | "move" | "{" | ";"
    ) && j > 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::classify;

    fn run(src: &str) -> Vec<Diagnostic> {
        let ctx = classify("crates/core/src/a.rs");
        let view = FileView::new(&ctx, src);
        let mut out = Vec::new();
        LockScope.check(&view, &crate::parser::parse(&view), &mut out);
        out
    }

    #[test]
    fn guard_held_across_build_is_flagged() {
        let src = "\
fn f(&self) {\n\
    let cache = self.cache.write();\n\
    let view = ReducedGraph::build(space, t);\n\
    cache.insert(k, view);\n\
}\n";
        let out = run(src);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 2);
        assert!(out[0].message.contains("build"));
    }

    #[test]
    fn guard_held_across_closure_is_flagged() {
        let src = "\
fn f(&self) {\n\
    let cache = self.cache.write();\n\
    let v = slot.get_or_init(|| heavy());\n\
}\n";
        let out = run(src);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn temporary_guard_is_fine() {
        // The guard dies at the end of its own statement.
        let src = "fn f(&self) {\n    let probed = self.cache.read().get(&idx).map(Arc::clone);\n    let v = build(probed);\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn narrowly_scoped_guard_is_fine() {
        // The engine's real shape: the write guard lives only inside the
        // match arm; the build happens after the arm's block closed.
        let src = "\
fn f(&self) {\n\
    let slot = match probed {\n\
        Some(s) => s,\n\
        None => {\n\
            let mut cache = self.cache.write();\n\
            Arc::clone(cache.entry(idx).or_default())\n\
        }\n\
    };\n\
    let view = slot.get_or_init(|| Arc::new(ReducedGraph::build(space, t)));\n\
}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn guard_followed_by_plain_reads_is_fine() {
        let src = "fn f(&self) {\n    let g = self.map.read();\n    g.len()\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn or_patterns_are_not_closures() {
        let src = "\
fn f(&self) {\n\
    let g = self.map.read();\n\
    match x { A | B => {} _ => {} }\n\
}\n";
        assert!(run(src).is_empty());
    }
}
