//! Lint fixture: checkpoint-unsafe control-plane state — one violation
//! per hazard class. Never compiled; scanned by
//! `tests/fixtures.rs` under a `crates/core/src/` path (under any other
//! path the rule is silent by scope).

struct BadMaster {
    log: File,
    peer: TcpStream,
    started: Instant,
    rng: SmallRng,
    scratch: *mut u8,
}

fn peek(p: *const u64) -> u64 {
    unsafe { *p }
}
