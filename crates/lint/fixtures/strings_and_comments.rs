//! Lint fixture: every hazard token the linter matches, placed where a
//! text scanner would false-positive — string literals, raw strings,
//! doc comments, block comments, and `#[cfg(test)]` regions. The
//! token engine must scan this file *clean* under every rule's scope
//! (`tests/fixtures.rs` scans it under each). Never compiled.

//! A doc comment mentioning File, Instant, SmallRng and *mut u8.

// Line comment: fork(42), fork(0), branch_salt(s, 1) twice, .collect().
/* Block comment: schedule_in(d, e) and Vec::with_capacity(total) */

/// Rustdoc for `lookup`: keep a `File` handle and `Instant` in the master.
fn lookup() -> &'static str {
    let a = "File and TcpStream in a plain string";
    let b = "Instant and SystemTime quoted, *const u8 too";
    let c = r"SmallRng in a raw string with StdRng";
    let d = r#"fork(42) and branch_salt(s, 1) and with_capacity(n)"#;
    let e = "WalRecord::Orphan { .. } and ControlPlaneState { .. }";
    let f = concat!(a, b, c, d, e);
    let g = 'F'; // a char literal is not an ident: File
    let _ = (f, g);
    "Fi" // a string that, glued to the next line's comment, spells nothing
}

/// The escape-laden cases the lexer must not lose its place in.
fn escapes() -> String {
    let quote_then_hazard = "escaped quote \" then File stays quoted";
    let backslash = "trailing backslash \\";
    let newline_escape = "line one\nline two with fork(7)";
    format!("{quote_then_hazard}{backslash}{newline_escape}")
}

#[cfg(test)]
mod tests {
    // Real hazards, but in a test region: exempt by design.
    use std::fs::File;
    use std::time::Instant;

    #[test]
    fn scratch() {
        let started: Instant = clock();
        let log: File = open();
        let branch = sim.fork(42);
        let ghost = sim.fork(0);
        let v: Vec<u32> = (0..10).collect();
        let buf: Vec<u8> = Vec::with_capacity(v.len());
        let _ = (started, log, branch, ghost, buf);
    }
}
