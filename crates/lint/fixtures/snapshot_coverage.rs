//! Lint fixture: snapshot-field-coverage — `..` rest syntax on
//! snapshot-bundled structs silently drops fields from the
//! checkpoint/restore path. Never compiled; scanned by
//! `tests/fixtures.rs`.

pub struct Cluster {
    nodes: u32,
    master: u64,
}

impl SnapshotState for Cluster {
    fn reseed(&mut self, salt: u64) {
        let _ = salt;
    }
}

// Positive: pattern rest on a snapshot-bundled type.
fn restore(c: &Cluster) -> u32 {
    let Cluster { nodes, .. } = c;
    *nodes
}

// Positive: literal update syntax, with `Self` resolved through the
// enclosing impl block.
impl Cluster {
    fn with_master(&self, m: u64) -> Self {
        Self { master: m, ..self.clone() }
    }
}

// Positive: seed types are snapshot-bundled even when their
// `impl SnapshotState` lives outside the scan set.
fn peek(s: &ControlPlaneState) -> u64 {
    let ControlPlaneState { master, .. } = s;
    *master
}

// Negative: rest on a type outside the snapshot bundle is fine.
fn spec_len(s: &Spec) -> usize {
    let Spec { len, .. } = s;
    *len
}

// Negative: a range expression in a field value is not rest syntax.
fn window() -> Window {
    Window { span: 0..10, kind: Kind::Fixed }
}
