//! `hta-lint` — the determinism contracts that need syntax or a
//! cross-file join.
//!
//! The simulator's core guarantee is bit-identical replay: same seed,
//! same trace, same metrics — across machines, thread counts, and
//! checkpoint/restore cycles. Per-line hazards to that guarantee are
//! banned by the compiler and clippy, configured at the workspace root:
//!
//! * `clippy.toml` `disallowed-types`: `HashMap`/`HashSet` (hash-ordered
//!   iteration, which also covers float sums over that order) and
//!   `Rc`/`RefCell` (state a snapshot/fork deep clone aliases);
//! * `clippy.toml` `disallowed-methods`: `Instant::now`,
//!   `SystemTime::now` and `SystemTime::elapsed` (host time);
//! * `unsafe_code = "forbid"`: every access to a `static mut`;
//! * the vendored `rand` has no unseeded constructor and the vendored
//!   `rayon` has no reductions, so neither hazard compiles.
//!
//! A justified exception is `#[expect(lint, reason = "…")]`; clippy
//! rejects `#[allow]` and reason-less expectations, and rustc reports an
//! expectation that no longer fires.
//!
//! This crate checks the six rules those tools cannot express (see
//! [`RULES`]). It has no suppression mechanism: a rule's legitimate
//! exceptions live in its scope tables in [`rules`], and the binary
//! exits 1 on any finding.
//!
//! # Engine shape
//!
//! 1. **Per file** ([`analyze_file`]): a lossless token lexer
//!    ([`lexer`]) and a lightweight item parser ([`parser`]) feed the
//!    per-file rules ([`rules`]). Matching on tokens means a name inside
//!    a string literal or comment never fires, identifier boundaries are
//!    exact, and `#[cfg(test)]` regions are exempt. The same pass
//!    extracts [`contracts::Facts`].
//! 2. **Workspace** ([`finalize`]): the cross-file contract rules join
//!    the facts (`wal-coverage`, `snapshot-field-coverage`).

pub mod contracts;
pub mod lexer;
pub mod parser;
pub mod rules;

use std::fmt;
use std::path::{Path, PathBuf};

use contracts::Facts;

/// One lint rule: id, what it flags, and how to fix it.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable kebab-case id, printed with each finding.
    pub id: &'static str,
    /// One-line description of the hazard.
    pub what: &'static str,
    /// The suggested fix.
    pub hint: &'static str,
}

/// Every rule the linter knows, in reporting order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "checkpoint-unsafe-state",
        what: "control-plane state a crash-recovery checkpoint cannot capture \
               (raw pointer, open OS handle, stored host time, unsalted RNG)",
        hint: "keep control-plane structs plain owned data (Clone + SnapshotState): ids or \
               paths instead of handles, SimTime instead of Instant/SystemTime, SimRng \
               (salt-reseeded on fork) instead of StdRng/SmallRng",
    },
    Rule {
        id: "salt-flow",
        what: "fork/branch salt that is invented at the call site instead of threaded \
               (hard-coded literal, reserved replay salt 0, or a repeated stream index)",
        hint: "derive salts from the caller's salt with `branch_salt(salt, stream)` using \
               distinct stream indices; salt 0 is reserved for replay/recovery paths",
    },
    Rule {
        id: "effect-purity",
        what: "event handler holding an `&mut EffectSink` that also schedules through a \
               second channel (EventQueue parameter, direct `.schedule_*(` call, or a \
               returned effect Vec)",
        hint: "push every effect into the sink; the driver drains it and applies \
               incarnation tagging that crash recovery relies on",
    },
    Rule {
        id: "wal-coverage",
        what: "WalRecord variant without a construct site or replay arm",
        hint: "log the decision where it is made and replay it in every recovery path",
    },
    Rule {
        id: "snapshot-field-coverage",
        what: "struct literal or pattern of a snapshot-bundled type using `..` rest syntax \
               (fields silently dropped from checkpoint/restore)",
        hint: "name every field; the compiler then forces each checkpoint and restore site \
               to be updated when a field is added",
    },
    Rule {
        id: "trace-unbounded-materialization",
        what: "whole-trace materialization in the streaming trace crate \
               (`.collect(...)`, or `with_capacity` sized by a runtime value)",
        hint: "keep arrivals lazy — iterate the stream and hold only the in-flight \
               lookahead window; size a fixed buffer with a literal capacity",
    },
];

fn rule(id: &str) -> &'static Rule {
    RULES
        .iter()
        .find(|r| r.id == id)
        .expect("rule table covers every emitted id")
}

/// One finding: a hazard at `path:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule id (see [`RULES`]).
    pub rule: &'static str,
    /// Human-readable description including the matched token.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    fix: {}",
            self.path,
            self.line,
            self.rule,
            self.message,
            rule(self.rule).hint
        )
    }
}

/// Everything the engine learns from one file in isolation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileAnalysis {
    /// Per-file rule findings.
    pub findings: Vec<Finding>,
    /// Facts feeding the cross-file contract rules.
    pub facts: Facts,
}

/// Run the per-file layer: lex, parse, per-file rules and fact
/// extraction. A pure function of `(path, src)`.
pub fn analyze_file(path: &str, src: &str) -> FileAnalysis {
    let toks = lexer::lex(src);
    let (p, st) = parser::parse_file(src, &toks);
    FileAnalysis {
        findings: rules::per_file_rules(path, &p, &st),
        facts: contracts::extract_facts(&p, &st),
    }
}

/// Run the workspace layer: join contract facts and merge them with the
/// per-file findings. Returns findings sorted by `(path, line, rule)`.
pub fn finalize(files: &[(String, FileAnalysis)]) -> Vec<Finding> {
    let facts: Vec<(String, Facts)> = files
        .iter()
        .map(|(p, fa)| (p.clone(), fa.facts.clone()))
        .collect();
    let mut out = contracts::finalize(&facts);
    out.extend(files.iter().flat_map(|(_, fa)| fa.findings.iter().cloned()));
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out
}

/// Analyze a single file end to end (per-file rules + single-file
/// finalize). Cross-file contract rules see only this one file.
pub fn scan_file(path: &str, src: &str) -> Vec<Finding> {
    let fa = analyze_file(path, src);
    finalize(&[(path.to_string(), fa)])
}

// ----------------------------------------------------------------------
// Workspace scanning
// ----------------------------------------------------------------------

/// Directory names never descended into. `fixtures` holds rule fixture
/// files that *deliberately* violate every rule.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures", "node_modules"];

/// Top-level roots scanned below the workspace root.
pub const SCAN_ROOTS: &[&str] = &["crates", "src", "tests", "examples"];

/// Collect every `.rs` file under the scan roots, sorted for
/// deterministic output.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for top in SCAN_ROOTS {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !SKIP_DIRS.contains(&name) {
                walk(&p, out)?;
            }
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Scan a workspace root; returns (findings, files scanned).
pub fn scan_workspace(root: &Path) -> std::io::Result<(Vec<Finding>, usize)> {
    let paths = collect_files(root)?;
    let mut analyses = Vec::with_capacity(paths.len());
    for f in &paths {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(f)?;
        let fa = analyze_file(&rel, &src);
        analyses.push((rel, fa));
    }
    Ok((finalize(&analyses), paths.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_invisible() {
        let src = "let a = \"File and SmallRng\"; // File in a comment\n\
                   /* fork(42) in a block comment */\n\
                   let b = r#\"Instant inside raw string\"#;\n";
        assert!(scan_file("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn findings_sorted_with_hints() {
        let src = "fn f(s: &mut S) { s.fork(7); }\nstruct T { at: Instant }\n";
        let out = scan_file("crates/core/src/x.rs", src);
        let got: Vec<(usize, &str)> = out.iter().map(|f| (f.line, f.rule)).collect();
        assert_eq!(got, vec![(1, "salt-flow"), (2, "checkpoint-unsafe-state")]);
        assert!(out[0].to_string().contains("\n    fix: derive salts"));
    }

    #[test]
    fn every_rule_id_is_unique() {
        for r in RULES {
            assert_eq!(RULES.iter().filter(|o| o.id == r.id).count(), 1);
        }
    }
}
