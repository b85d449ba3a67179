//! Fixture-driven checks for the syntax-aware engine: every rule fires
//! where expected (and nowhere else, scopes included), cross-file
//! contracts join correctly, and the binary exits 1 on findings.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

use hta_lint::{analyze_file, scan_file, Finding, RULES};

const CHECKPOINT: &str = include_str!("../fixtures/checkpoint_unsafe.rs");
const STRINGS: &str = include_str!("../fixtures/strings_and_comments.rs");
const SALT_FLOW: &str = include_str!("../fixtures/salt_flow.rs");
const EFFECT_PURITY: &str = include_str!("../fixtures/effect_purity.rs");
const WAL_DEFS: &str = include_str!("../fixtures/wal_defs.rs");
const WAL_USES: &str = include_str!("../fixtures/wal_uses.rs");
const SNAPSHOT: &str = include_str!("../fixtures/snapshot_coverage.rs");
const TRACE_MAT: &str = include_str!("../fixtures/trace_materialization.rs");
const TEST_ONLY_FILE: &str = include_str!("../fixtures/test_only_file.rs");

fn pairs(findings: &[Finding]) -> Vec<(usize, &'static str)> {
    findings.iter().map(|f| (f.line, f.rule)).collect()
}

// ---------------------------------------------------------------------
// Per-file rules on fixtures
// ---------------------------------------------------------------------

#[test]
fn strings_comments_and_test_regions_are_invisible() {
    // A text scanner would false-positive on all of these; the token
    // engine must scan the file clean under every rule's scope.
    for path in [
        "crates/core/src/fixture.rs",
        "crates/des/src/fixture.rs",
        "crates/workqueue/src/fixture.rs",
        "crates/trace/src/fixture.rs",
    ] {
        let f = scan_file(path, STRINGS);
        assert!(f.is_empty(), "expected clean under {path}, got: {f:#?}");
    }
}

#[test]
fn salt_flow_fixture_positive_negative_and_scope() {
    let f = scan_file("crates/core/src/fixture.rs", SALT_FLOW);
    assert_eq!(
        pairs(&f),
        vec![(10, "salt-flow"), (17, "salt-flow"), (25, "salt-flow")],
        "full findings: {f:#?}"
    );
    // The same file inside the replay scope legalizes the salt-0 call
    // (and only that one).
    let r = scan_file("crates/core/src/recovery.rs", SALT_FLOW);
    assert!(
        !r.iter().any(|x| x.line == 17),
        "salt 0 is legal in replay scope: {r:#?}"
    );
    // Outside `src/` the rule is silent entirely.
    let t = scan_file("crates/core/tests/fixture.rs", SALT_FLOW);
    assert!(t.is_empty(), "{t:#?}");
}

#[test]
fn effect_purity_fixture_positive_negative_and_scope() {
    let f = scan_file("crates/des/src/fixture.rs", EFFECT_PURITY);
    assert_eq!(
        pairs(&f),
        vec![
            (10, "effect-purity"),
            (15, "effect-purity"),
            (22, "effect-purity"),
        ],
        "full findings: {f:#?}"
    );
    // Outside the des/core/workqueue source trees the rule is scoped off.
    let g = scan_file("crates/bench/src/fixture.rs", EFFECT_PURITY);
    assert!(g.is_empty(), "{g:#?}");
}

#[test]
fn file_level_cfg_test_makes_the_whole_file_a_test_region() {
    // The test drivers in this file hold a sink *and* a queue, which
    // `effect-purity` flags in production code (the same pair fires in
    // `effect_purity.rs`); a leading `#![cfg(test)]` compiles the whole
    // file only under test, so nothing in it may fire.
    let f = scan_file("crates/workqueue/src/master/testkit.rs", TEST_ONLY_FILE);
    assert!(f.is_empty(), "expected clean, got: {f:#?}");
    // Without the inner attribute the same drivers are production code.
    let body = TEST_ONLY_FILE.replace("#![cfg(test)]", "");
    let g = scan_file("crates/workqueue/src/master/testkit.rs", &body);
    assert!(
        g.iter().any(|x| x.rule == "effect-purity"),
        "the drivers fire once the attribute is gone: {g:#?}"
    );
}

#[test]
fn wal_coverage_joins_across_files() {
    let defs_path = "crates/des/src/wal_defs.rs".to_string();
    let uses_path = "crates/des/src/wal_uses.rs".to_string();
    let files = vec![
        (defs_path.clone(), analyze_file(&defs_path, WAL_DEFS)),
        (uses_path.clone(), analyze_file(&uses_path, WAL_USES)),
    ];
    let f = hta_lint::finalize(&files);
    let got: Vec<(&str, usize, &str)> = f
        .iter()
        .map(|x| (x.path.as_str(), x.line, x.rule))
        .collect();
    assert_eq!(
        got,
        vec![
            ("crates/des/src/wal_defs.rs", 12, "wal-coverage"),
            ("crates/des/src/wal_defs.rs", 13, "wal-coverage"),
        ],
        "full findings: {f:#?}"
    );
    assert!(
        f[0].message.contains("never constructed"),
        "{}",
        f[0].message
    );
    assert!(f[1].message.contains("no replay arm"), "{}", f[1].message);
}

#[test]
fn wal_coverage_needs_the_definition_in_scope() {
    // Without the enum definition the contract cannot anchor: uses
    // alone produce no wal findings (the defining crate is always in
    // the real scan set).
    let f = scan_file("crates/des/src/wal_uses.rs", WAL_USES);
    assert!(f.is_empty(), "expected clean, got: {f:#?}");
}

#[test]
fn snapshot_field_coverage_fixture() {
    let f = scan_file("crates/cluster/src/fixture.rs", SNAPSHOT);
    assert_eq!(
        pairs(&f),
        vec![
            (19, "snapshot-field-coverage"),
            (27, "snapshot-field-coverage"),
            (34, "snapshot-field-coverage"),
        ],
        "full findings: {f:#?}"
    );
}

#[test]
fn trace_materialization_fixture_positive_negative_and_scope() {
    let f = scan_file("crates/trace/src/fixture.rs", TRACE_MAT);
    assert_eq!(
        pairs(&f),
        vec![
            (10, "trace-unbounded-materialization"),
            (15, "trace-unbounded-materialization"),
            (21, "trace-unbounded-materialization"),
        ],
        "full findings: {f:#?}"
    );
    // Outside the trace source tree the rule is scoped off.
    let g = scan_file("crates/core/src/fixture.rs", TRACE_MAT);
    assert!(g.is_empty(), "{g:#?}");
}

#[test]
fn every_rule_fires_on_some_fixture() {
    // Guard against adding a rule without extending the fixtures.
    let mut all: Vec<Finding> = Vec::new();
    all.extend(scan_file("crates/core/src/fixture.rs", CHECKPOINT));
    all.extend(scan_file("crates/core/src/fixture.rs", SALT_FLOW));
    all.extend(scan_file("crates/des/src/fixture.rs", EFFECT_PURITY));
    all.extend(scan_file("crates/cluster/src/fixture.rs", SNAPSHOT));
    all.extend(scan_file("crates/trace/src/fixture.rs", TRACE_MAT));
    let defs = analyze_file("crates/des/src/wal_defs.rs", WAL_DEFS);
    let uses = analyze_file("crates/des/src/wal_uses.rs", WAL_USES);
    all.extend(hta_lint::finalize(&[
        ("crates/des/src/wal_defs.rs".to_string(), defs),
        ("crates/des/src/wal_uses.rs".to_string(), uses),
    ]));
    for r in RULES {
        assert!(
            all.iter().any(|x| x.rule == r.id),
            "rule `{}` never fires on any fixture",
            r.id
        );
    }
}

#[test]
fn checkpoint_rule_fires_under_control_plane_paths_only() {
    let f = scan_file("crates/core/src/fixture.rs", CHECKPOINT);
    assert_eq!(
        pairs(&f),
        vec![
            (7, "checkpoint-unsafe-state"),
            (8, "checkpoint-unsafe-state"),
            (9, "checkpoint-unsafe-state"),
            (10, "checkpoint-unsafe-state"),
            (11, "checkpoint-unsafe-state"),
            (14, "checkpoint-unsafe-state"),
        ],
        "full findings: {f:#?}"
    );
    // Outside the control-plane roots the rule is scoped off.
    let g = scan_file("crates/bench/src/fixture.rs", CHECKPOINT);
    assert!(g.is_empty(), "{g:#?}");
}

// ---------------------------------------------------------------------
// Binary CLI behaviour on throwaway workspaces
// ---------------------------------------------------------------------

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// Build a throwaway workspace tree holding fixtures at the given
/// repo-relative paths.
struct TempTree {
    root: PathBuf,
}

impl TempTree {
    fn new(files: &[(&str, &str)]) -> TempTree {
        let root = std::env::temp_dir().join(format!(
            "hta-lint-test-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        for (rel, contents) in files {
            let dest = root.join(rel);
            std::fs::create_dir_all(dest.parent().expect("joined path has a parent"))
                .expect("create temp workspace");
            std::fs::write(&dest, contents).expect("write fixture");
        }
        TempTree { root }
    }

    fn run(&self, args: &[&str]) -> std::process::Output {
        Command::new(env!("CARGO_BIN_EXE_hta-lint"))
            .arg("--root")
            .arg(&self.root)
            .args(args)
            .output()
            .expect("run hta-lint binary")
    }
}

impl Drop for TempTree {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.root).ok();
    }
}

#[test]
fn exits_nonzero_on_findings() {
    let t = TempTree::new(&[("crates/core/src/lib.rs", CHECKPOINT)]);
    let out = t.run(&[]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("crates/core/src/lib.rs:7: [checkpoint-unsafe-state]"),
        "stdout:\n{stdout}"
    );
    assert!(stdout.contains("fix: "), "hints are printed:\n{stdout}");
}

#[test]
fn exits_zero_on_clean_tree_and_skips_fixtures() {
    let t = TempTree::new(&[
        ("crates/core/src/lib.rs", "fn clean() {}\n"),
        ("crates/core/src/fixtures/bad.rs", CHECKPOINT),
    ]);
    let out = t.run(&[]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn rejects_every_flag_but_root() {
    let t = TempTree::new(&[]);
    let out = t.run(&["--deny"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    for r in RULES {
        assert!(stderr.contains(r.id), "usage lists {}:\n{stderr}", r.id);
    }
}

// ---------------------------------------------------------------------
// The workspace itself
// ---------------------------------------------------------------------

#[test]
fn repo_tree_is_lint_clean() {
    // The workspace this crate lives in must pass its own linter; CI
    // enforces the same via `cargo run -p hta-lint`.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (findings, files) = hta_lint::scan_workspace(&root).unwrap();
    assert!(files > 50, "walker found only {files} files — wrong root?");
    assert!(findings.is_empty(), "repo has lint findings: {findings:#?}");
}
