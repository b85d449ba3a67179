//! The per-line determinism bans live in clippy and rustc, configured by
//! the root `Cargo.toml` (`[workspace.lints.*]`) and `clippy.toml`. This
//! test proves that live configuration still catches every case in
//! `fixtures/banned.rs`: it builds the fixture as a throwaway crate whose
//! `[lints]` are copied from the workspace table, whose `clippy.toml` is
//! the root one and which depends on this crate and the vendored `rand`
//! (so bans on their types resolve), runs `cargo clippy
//! --message-format=json`, and asserts the exact set of (line, lint)
//! pairs in the fixture.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

const BANNED: &str = include_str!("fixtures/banned.rs");

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn cargo() -> Command {
    Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
}

/// The root manifest's `[workspace.lints.<tool>]` sections, rewritten as
/// a package's `[lints.<tool>]` sections.
fn workspace_lints(manifest: &str) -> String {
    let mut out = String::new();
    let mut keep = false;
    for line in manifest.lines() {
        if let Some(section) = line.trim().strip_prefix('[') {
            keep = section.starts_with("workspace.lints.");
            if keep {
                out.push('[');
                out.push_str(section.trim_start_matches("workspace."));
                out.push('\n');
                continue;
            }
        }
        if keep {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn str_field<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match field(v, key)? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// `(line, lint)` for every diagnostic with a lint code, at the line of
/// its primary span in the fixture crate's `src/lib.rs`.
fn diagnostics(json_lines: &str) -> BTreeSet<(u64, String)> {
    let mut out = BTreeSet::new();
    for line in json_lines.lines() {
        let msg = serde_json::parse(line).expect("cargo emits one JSON object per line");
        if str_field(&msg, "reason") != Some("compiler-message") {
            continue;
        }
        let Some(message) = field(&msg, "message") else {
            continue;
        };
        let Some(code) = field(message, "code").and_then(|c| str_field(c, "code")) else {
            continue;
        };
        let Some(Value::Arr(spans)) = field(message, "spans") else {
            continue;
        };
        for span in spans {
            if field(span, "is_primary") == Some(&Value::Bool(true))
                && str_field(span, "file_name") == Some("src/lib.rs")
            {
                if let Some(Value::Uint(l)) = field(span, "line_start") {
                    out.insert((*l, code.to_string()));
                }
            }
        }
    }
    out
}

#[test]
fn clippy_and_rustc_catch_every_banned_case() {
    let probe = cargo().args(["clippy", "--version"]).output();
    assert!(
        probe.as_ref().is_ok_and(|o| o.status.success()),
        "`cargo clippy` is not available ({probe:?}); the determinism bans are clippy lints, \
         so install the clippy component (`rustup component add clippy`) to run this test"
    );

    let root = repo_root();
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("read root manifest");
    let lints = workspace_lints(&manifest);
    assert!(
        lints.contains("[lints.clippy]") && lints.contains("[lints.rust]"),
        "no [workspace.lints.*] tables found:\n{lints}"
    );

    let krate = Path::new(env!("CARGO_TARGET_TMPDIR")).join("banned-fixture");
    std::fs::create_dir_all(krate.join("src")).expect("create fixture crate");
    let path = |p: &str| root.join(p).display().to_string();
    std::fs::write(
        krate.join("Cargo.toml"),
        format!(
            "[package]\nname = \"banned-fixture\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\
             publish = false\n\n[lib]\npath = \"src/lib.rs\"\n\n[dependencies]\n\
             hta-des = {{ path = {des:?} }}\n\
             rand = {{ path = {rand:?}, features = [\"small_rng\"] }}\n\n[workspace]\n\n{lints}",
            des = path("crates/des"),
            rand = path("vendor/rand"),
        ),
    )
    .expect("write fixture manifest");
    std::fs::copy(root.join("clippy.toml"), krate.join("clippy.toml")).expect("copy clippy.toml");
    std::fs::write(krate.join("src/lib.rs"), BANNED).expect("write fixture source");

    let out = cargo()
        .current_dir(&krate)
        .env_remove("CLIPPY_CONF_DIR")
        .args([
            "clippy",
            "--offline",
            "--quiet",
            "--no-deps",
            "--message-format=json",
        ])
        .arg("--target-dir")
        .arg(krate.join("target"))
        .output()
        .expect("run cargo clippy");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 JSON");
    let got = diagnostics(&stdout);

    let want: BTreeSet<(u64, String)> = [
        // Hash containers, host clock reads, static mut, Rc/RefCell. A
        // clock read names its type too.
        (16, "clippy::disallowed_types"),
        (19, "clippy::disallowed_methods"),
        (19, "clippy::disallowed_types"),
        (21, "clippy::disallowed_types"),
        (32, "clippy::disallowed_methods"),
        (32, "clippy::disallowed_types"),
        (33, "clippy::disallowed_methods"),
        (33, "clippy::disallowed_types"),
        (34, "clippy::disallowed_types"),
        (42, "unsafe_code"),
        (48, "clippy::disallowed_types"),
        (52, "clippy::disallowed_types"),
        (57, "clippy::disallowed_types"),
        // A stale expectation, then an unjustified one and an `#[allow]`.
        (71, "unfulfilled_lint_expectations"),
        (77, "clippy::allow_attributes_without_reason"),
        (83, "clippy::allow_attributes"),
        // Stored host time, each OS handle, a raw RNG.
        (91, "clippy::disallowed_types"),
        (92, "clippy::disallowed_types"),
        (93, "clippy::disallowed_types"),
        (94, "clippy::disallowed_types"),
        (95, "clippy::disallowed_types"),
        (96, "clippy::disallowed_types"),
        (97, "clippy::disallowed_types"),
        (98, "clippy::disallowed_types"),
        (99, "clippy::disallowed_types"),
        (100, "clippy::disallowed_types"),
        // A component that names the event queue.
        (107, "clippy::disallowed_types"),
    ]
    .into_iter()
    .map(|(l, c)| (l, c.to_string()))
    .collect();
    assert_eq!(
        got,
        want,
        "clippy's findings on fixtures/banned.rs changed\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        !out.status.success(),
        "the fixture must fail to build under the workspace lint table"
    );
}
