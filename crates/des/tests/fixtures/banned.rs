//! Lint fixture: every per-line hazard that clippy and the compiler ban,
//! plus the `#[expect]` suppression rules. `tests/clippy_bans.rs` builds
//! this file as a throwaway crate (depending on `hta-des` and `rand`)
//! with the workspace's `[workspace.lints]` table and root `clippy.toml`,
//! runs clippy, and asserts the exact set of (line, lint) pairs, so a
//! line added above an existing case shifts every expectation below it.
//!
//! Some hazards cannot appear here because they do not compile:
//! unseeded randomness (`rand::thread_rng`, `rand::random`), `StdRng`
//! and rayon reductions (`par_iter().sum()`, `.reduce(..)`) are absent
//! from the vendored crates, and a component holding an `Rc` or a raw
//! pointer is not `Send`, which `SnapshotState` requires. `compile_fail`
//! doctests in `hta-des` (`rng.rs`, `snapshot.rs`) and `hta-bench`
//! (`lib.rs`) pin those.

use std::collections::HashMap;

pub fn hazards() -> f64 {
    let started = std::time::Instant::now();

    let mut weights: HashMap<u32, f64> = HashMap::new();
    weights.insert(1, 0.5);

    // Float accumulation over hash order: the container ban above
    // already rejects the map this sum iterates.
    let hash_total: f64 = weights.values().sum();

    started.elapsed().as_secs_f64() + hash_total
}

pub fn system_clock() -> u64 {
    let now = std::time::SystemTime::now();
    let since = std::time::SystemTime::UNIX_EPOCH.elapsed().map_or(0, |d| d.as_secs());
    since + now.duration_since(std::time::SystemTime::UNIX_EPOCH).map_or(0, |d| d.as_secs())
}

// Declaring a `static mut` compiles, but every read or write of one
// needs `unsafe`, which `unsafe_code = "forbid"` rejects.
pub static mut FORK_COUNTER: u64 = 0;

pub fn bump() -> u64 {
    unsafe {
        FORK_COUNTER += 1;
        FORK_COUNTER
    }
}

pub fn shared(rates: std::rc::Rc<Vec<f64>>) -> usize {
    rates.len()
}

pub fn cell(rates: std::cell::RefCell<Vec<f64>>) -> usize {
    rates.borrow().len()
}

pub fn set_of_ids() -> usize {
    std::collections::HashSet::<u32>::new().len()
}

// A justified suppression silences its lint and reports nothing.
#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "fixture: a used expectation with a reason is silent"
)]
pub fn justified() -> f64 {
    std::time::Instant::now().elapsed().as_secs_f64()
}

// A stale suppression: nothing below it uses a banned type any more.
#[expect(clippy::disallowed_types, reason = "the cache map moved to lookup.rs")]
pub fn quiet() -> u32 {
    41
}

// An unjustified suppression is reported even though it suppresses.
#[expect(clippy::disallowed_types)]
pub fn unjustified() -> usize {
    std::collections::HashSet::<u8>::new().len()
}

// `#[allow]` is rejected outright: it can never go stale visibly.
#[allow(clippy::disallowed_types, reason = "fixture")]
pub fn allowed() -> usize {
    std::collections::HashSet::<u16>::new().len()
}

// State a checkpoint or fork cannot capture: stored host time, open OS
// handles and a raw RNG outside `SimRng`.
pub struct Unsnapshottable {
    pub started: std::time::Instant,
    pub wall: std::time::SystemTime,
    pub log: std::fs::File,
    pub peer: std::net::TcpStream,
    pub listener: std::net::TcpListener,
    pub socket: std::net::UdpSocket,
    pub local: std::os::unix::net::UnixStream,
    pub worker: std::thread::JoinHandle<()>,
    pub child: std::process::Child,
    pub rng: rand::rngs::SmallRng,
}

// A component that schedules directly instead of emitting through its
// `EffectSink`: only the driver may name the event queue.
pub fn schedules_directly(
    fx: &mut hta_des::EffectSink<u32>,
    queue: &mut hta_des::EventQueue<u32>,
) {
    for (delay, event) in fx.drain() {
        queue.schedule_in(delay, event);
    }
}
