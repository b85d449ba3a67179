//! Cross-file contract rules.
//!
//! These rules cannot be expressed per file, let alone per line: they
//! relate an enum *definition* in one crate to its *uses* in another,
//! or a type's snapshot bundling to every construct/destructure site in
//! the workspace. The engine extracts [`Facts`] from each file and a
//! single [`finalize`] pass joins them:
//!
//! * **`wal-coverage`** — every `WalRecord` variant must have at least
//!   one construct site (a decision that is actually logged) and at
//!   least one replay arm (a decision that recovery actually reapplies).
//!   A `match` over `WalRecord` with a wildcard `_ =>` arm is also
//!   flagged: it compiles away the exhaustiveness check that makes
//!   adding a variant a compile error at every replay site.
//! * **`snapshot-field-coverage`** — struct literals and patterns of
//!   snapshot-bundled types (`impl SnapshotState for X` targets, plus
//!   `ControlPlaneState`) must not use `..` rest syntax. With every
//!   field named, the *compiler* enforces that a new field shows up at
//!   every checkpoint construct and restore destructure; `..` is the
//!   one escape hatch that silently drops fields from the checkpoint.

use crate::lexer::TokKind;
use crate::parser::{Parser, Structure};
use crate::Finding;

/// The WAL decision-log enum the coverage contract tracks.
const WAL_ENUM: &str = "WalRecord";

/// Types always treated as snapshot-bundled, even if their
/// `impl SnapshotState` lives in a file outside the scan set.
const SNAPSHOT_SEED_TYPES: &[&str] = &["ControlPlaneState"];

/// Per-file facts feeding the cross-file contract rules, each derived
/// from one file alone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Facts {
    /// `(variant, line)` when this file defines `enum WalRecord`
    /// outside tests.
    pub wal_variants: Vec<(String, usize)>,
    /// Variant names constructed in this file (`WalRecord::X { … }` in
    /// expression position).
    pub wal_constructs: Vec<String>,
    /// Variant names consumed in this file (match or `if let` arms).
    pub wal_arms: Vec<String>,
    /// Lines of `match` blocks that mention `WalRecord` variants and
    /// also contain a wildcard `_ =>` arm.
    pub wal_wildcards: Vec<usize>,
    /// Types with a non-test `impl SnapshotState for X` in this file.
    pub snapshot_impls: Vec<String>,
    /// `(type name, line)` of struct literals/patterns using `..` rest
    /// syntax, outside tests, with `Self` resolved to the impl target.
    pub rest_uses: Vec<(String, usize)>,
}

/// Extract the contract facts from one parsed file.
pub fn extract_facts(p: &Parser<'_>, st: &Structure) -> Facts {
    let mut facts = Facts {
        snapshot_impls: st.snapshot_impls.clone(),
        ..Facts::default()
    };
    for e in &st.enums {
        if e.name == WAL_ENUM && !e.in_test {
            facts.wal_variants = e.variants.clone();
        }
    }
    wal_uses(p, st, &mut facts);
    wal_wildcards(p, st, &mut facts);
    rest_uses(p, st, &mut facts);
    facts
}

/// Classify every `WalRecord::Variant` path use as construct or arm.
fn wal_uses(p: &Parser<'_>, st: &Structure, facts: &mut Facts) {
    for i in 0..p.sig.len() {
        let Some(t) = p.tok(i) else { break };
        if t.kind != TokKind::Ident || p.text(i) != WAL_ENUM || st.in_test(t.start) {
            continue;
        }
        if !p.op(i + 1, "::") {
            continue;
        }
        let vi = i + 3;
        let Some(vt) = p.tok(vi) else { continue };
        if vt.kind != TokKind::Ident {
            continue;
        }
        let variant = p.text(vi).to_string();
        // Skip the payload group, if any, to see what follows.
        let after = if p.punct(vi + 1, '{') || p.punct(vi + 1, '(') {
            p.skip_group(vi + 1)
        } else {
            vi + 1
        };
        let is_arm = p.op(after, "=>") || p.punct(after, '|') || (i >= 1 && p.ident(i - 1, "let")); // `if let WalRecord::X { … } = rec`
        if is_arm {
            facts.wal_arms.push(variant);
        } else {
            facts.wal_constructs.push(variant);
        }
    }
}

/// Find `match` blocks that consume `WalRecord` variants but keep a
/// wildcard `_ =>` arm at the top level of the match body.
fn wal_wildcards(p: &Parser<'_>, st: &Structure, facts: &mut Facts) {
    for i in 0..p.sig.len() {
        if !p.ident(i, "match") {
            continue;
        }
        let Some(t) = p.tok(i) else { break };
        if st.in_test(t.start) {
            continue;
        }
        // Scrutinee runs to the match's `{` at depth 0.
        let mut k = i + 1;
        while p.tok(k).is_some() && !p.punct(k, '{') {
            if p.punct(k, '(') || p.punct(k, '[') {
                k = p.skip_group(k);
                continue;
            }
            k += 1;
        }
        if !p.punct(k, '{') {
            continue;
        }
        let close = p.skip_group(k);
        let mut mentions_wal = false;
        let mut wildcard = false;
        let mut depth = 0i64;
        for j in k..close {
            if p.punct(j, '(') || p.punct(j, '[') || p.punct(j, '{') {
                depth += 1;
            } else if p.punct(j, ')') || p.punct(j, ']') || p.punct(j, '}') {
                depth -= 1;
            } else if p.ident(j, WAL_ENUM) {
                mentions_wal = true;
            } else if depth == 1 && p.ident(j, "_") && p.op(j + 1, "=>") {
                wildcard = true;
            }
        }
        if mentions_wal && wildcard {
            facts.wal_wildcards.push(t.line);
        }
    }
}

/// Record `Type { …, .. }` rest uses (literal update syntax and pattern
/// rest), resolving `Self` through the enclosing impl block.
fn rest_uses(p: &Parser<'_>, st: &Structure, facts: &mut Facts) {
    for i in 0..p.sig.len() {
        let Some(t) = p.tok(i) else { break };
        if t.kind != TokKind::Ident || st.in_test(t.start) {
            continue;
        }
        let word = p.text(i);
        let is_type_name = word.chars().next().is_some_and(|c| c.is_ascii_uppercase());
        if !is_type_name && word != "Self" {
            continue;
        }
        if !p.punct(i + 1, '{') {
            continue;
        }
        // Not a struct expr/pattern when the name is an item keyword's
        // subject (`impl Foo {`, `for Foo {` can't occur; `struct Foo {`
        // and friends are excluded by the preceding keyword).
        if i >= 1
            && matches!(
                p.text(i - 1),
                "struct" | "enum" | "union" | "trait" | "impl" | "mod" | "fn" | "for"
            )
        {
            continue;
        }
        let name = if word == "Self" {
            match st.self_type_at(t.start) {
                Some(n) => n.to_string(),
                None => continue,
            }
        } else {
            word.to_string()
        };
        // Scan the braces at depth 1 for a rest `..` (preceded by `{`
        // or `,`, so field-value range expressions don't match).
        let close = p.skip_group(i + 1);
        let mut depth = 0i64;
        for j in (i + 1)..close {
            if p.punct(j, '(') || p.punct(j, '[') || p.punct(j, '{') {
                depth += 1;
            } else if p.punct(j, ')') || p.punct(j, ']') || p.punct(j, '}') {
                depth -= 1;
            } else if depth == 1 && p.op(j, "..") && (p.punct(j - 1, '{') || p.punct(j - 1, ',')) {
                facts
                    .rest_uses
                    .push((name.clone(), p.tok(j).map_or(t.line, |r| r.line)));
                break;
            }
        }
    }
}

/// Join per-file facts into workspace-level contract findings.
pub fn finalize(files: &[(String, Facts)]) -> Vec<Finding> {
    let mut out = Vec::new();

    // wal-coverage: needs the enum definition to be in the scan set.
    let def = files.iter().find(|(_, f)| !f.wal_variants.is_empty());
    if let Some((def_path, def_facts)) = def {
        let constructed: Vec<&str> = files
            .iter()
            .flat_map(|(_, f)| f.wal_constructs.iter().map(String::as_str))
            .collect();
        let replayed: Vec<&str> = files
            .iter()
            .flat_map(|(_, f)| f.wal_arms.iter().map(String::as_str))
            .collect();
        for (variant, line) in &def_facts.wal_variants {
            if !constructed.contains(&variant.as_str()) {
                out.push(Finding {
                    path: def_path.clone(),
                    line: *line,
                    rule: "wal-coverage",
                    message: format!(
                        "`WalRecord::{variant}` is never constructed — the decision it \
                         represents is not being logged, so recovery cannot reapply it"
                    ),
                });
            }
            if !replayed.contains(&variant.as_str()) {
                out.push(Finding {
                    path: def_path.clone(),
                    line: *line,
                    rule: "wal-coverage",
                    message: format!(
                        "`WalRecord::{variant}` has no replay arm — recovery would drop \
                         this logged decision on restart"
                    ),
                });
            }
        }
        for (path, f) in files {
            for line in &f.wal_wildcards {
                out.push(Finding {
                    path: path.clone(),
                    line: *line,
                    rule: "wal-coverage",
                    message: "`match` over `WalRecord` with a wildcard `_ =>` arm — a new \
                              variant would be silently ignored here instead of failing to \
                              compile"
                        .to_string(),
                });
            }
        }
    }

    // snapshot-field-coverage: `..` rest on snapshot-bundled types.
    let mut snapshot_types: Vec<&str> = files
        .iter()
        .flat_map(|(_, f)| f.snapshot_impls.iter().map(String::as_str))
        .chain(SNAPSHOT_SEED_TYPES.iter().copied())
        .collect();
    snapshot_types.sort_unstable();
    snapshot_types.dedup();
    for (path, f) in files {
        for (ty, line) in &f.rest_uses {
            if snapshot_types.contains(&ty.as_str()) {
                out.push(Finding {
                    path: path.clone(),
                    line: *line,
                    rule: "snapshot-field-coverage",
                    message: format!(
                        "`{ty} {{ .. }}` rest syntax on a snapshot-bundled struct — name \
                         every field so adding one forces this checkpoint/restore site to \
                         be updated"
                    ),
                });
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn facts(src: &str) -> Facts {
        let toks = lex(src);
        let (p, st) = parse_file(src, &toks);
        extract_facts(&p, &st)
    }

    #[test]
    fn wal_enum_and_uses_extracted() {
        let def = facts("pub enum WalRecord { Submit { job: u64 }, Learn(u32), Complete, }\n");
        let names: Vec<&str> = def.wal_variants.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["Submit", "Learn", "Complete"]);

        let uses = facts(
            "fn log(w: &mut Wal) { w.append(WalRecord::Submit { job: 1 }); }\n\
             fn replay(rec: WalRecord) {\n    match rec {\n        WalRecord::Submit { job } => apply(job),\n        WalRecord::Learn(c) => learn(c),\n        WalRecord::Complete => {}\n    }\n}\n",
        );
        assert_eq!(uses.wal_constructs, vec!["Submit"]);
        assert_eq!(uses.wal_arms, vec!["Submit", "Learn", "Complete"]);
        assert!(uses.wal_wildcards.is_empty());
    }

    #[test]
    fn if_let_counts_as_arm() {
        let f = facts("fn g(r: &WalRecord) { if let WalRecord::Learn(c) = r { use_it(c); } }\n");
        assert_eq!(f.wal_arms, vec!["Learn"]);
        assert!(f.wal_constructs.is_empty());
    }

    #[test]
    fn wildcard_match_detected() {
        let f = facts(
            "fn replay(rec: WalRecord) {\n    match rec {\n        WalRecord::Submit { job } => apply(job),\n        _ => {}\n    }\n}\n",
        );
        assert_eq!(f.wal_wildcards.len(), 1);
        // `Some(_)` patterns do not count as wildcard arms.
        let g = facts(
            "fn h(r: Option<WalRecord>) {\n    match r {\n        Some(x) => use_rec(x),\n        None => {}\n    }\n}\n",
        );
        assert!(g.wal_wildcards.is_empty());
    }

    #[test]
    fn rest_use_extraction_resolves_self() {
        let f = facts(
            "impl SnapshotState for ControlPlaneState { fn reseed(&mut self, s: u64) {} }\n\
             impl ControlPlaneState {\n    fn partial(&self) -> Self { Self { master: m(), ..self.clone() } }\n}\n\
             fn pat(s: &ControlPlaneState) { let ControlPlaneState { master, .. } = s; }\n",
        );
        assert_eq!(f.snapshot_impls, vec!["ControlPlaneState"]);
        assert_eq!(f.rest_uses.len(), 2);
        assert!(f.rest_uses.iter().all(|(n, _)| n == "ControlPlaneState"));
    }

    #[test]
    fn range_in_field_value_is_not_rest() {
        let f = facts("fn g() -> Spec { Spec { window: 0..10, len: n } }\n");
        assert!(f.rest_uses.is_empty());
    }

    #[test]
    fn finalize_reports_missing_coverage() {
        let def = facts("pub enum WalRecord { Submit, Learn, Orphan, }\n");
        let uses = facts(
            "fn c(w: &mut Wal) { w.append(WalRecord::Submit); w.append(WalRecord::Learn); }\n\
             fn r(rec: WalRecord) { match rec { WalRecord::Submit => a(), WalRecord::Learn => b(), WalRecord::Orphan => c() } }\n",
        );
        let files = vec![("def.rs".to_string(), def), ("use.rs".to_string(), uses)];
        let out = finalize(&files);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("Orphan"));
        assert!(out[0].message.contains("never constructed"));
    }

    #[test]
    fn finalize_flags_rest_on_snapshot_types_only() {
        let a = facts("impl SnapshotState for Cluster { fn reseed(&mut self, s: u64) {} }\n");
        let b = facts(
            "fn f(c: &Cluster) { let Cluster { nodes, .. } = c; }\n\
             fn g(s: &Spec) { let Spec { len, .. } = s; }\n",
        );
        let files = vec![("a.rs".to_string(), a), ("b.rs".to_string(), b)];
        let out = finalize(&files);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "snapshot-field-coverage");
        assert!(out[0].message.contains("Cluster"));
    }
}
