//! Lint fixture: salt-flow — fork/branch salts must be threaded from
//! the caller, never invented at the call site. Scanned by
//! `tests/fixtures.rs` under a `crates/core/src/` path (the rule only
//! fires on `src/` paths, and that path is outside the replay scope).
//! Never compiled.

// Positive: a hard-coded non-zero literal salt can collide with any
// other branch; distinctness cannot be audited here.
fn invented(sim: &mut Sim) {
    let branch = sim.fork(42);
    drop(branch);
}

// Positive: literal salt 0 is the exact-replay salt, reserved for the
// replay/recovery substrate.
fn replay_elsewhere(sim: &mut Sim) {
    let ghost = sim.fork(0);
    drop(ghost);
}

// Positive: the same literal stream index twice in one function
// silently correlates two RNG streams.
fn correlated(salt: u64) -> (u64, u64) {
    let a = branch_salt(salt, 1);
    let b = branch_salt(salt, 1);
    (a, b)
}

// Negative: threaded salts and distinct stream indices are clean, and
// stream indices reset between functions.
fn threaded(sim: &mut Sim, salt: u64) -> u64 {
    let branch = sim.fork(salt);
    drop(branch);
    branch_salt(salt, 1).wrapping_add(branch_salt(salt, 2))
}
