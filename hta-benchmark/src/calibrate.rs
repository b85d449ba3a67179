//! Host-speed calibration for the end-to-end host times.
//!
//! A shared host does not run at one speed: on the reference box the same
//! seed's `run()` swings between two speeds about 1.5× apart, switching
//! every few seconds to minutes, and a fixed computation such as the
//! set-up moves with it. Ten benchmark runs that straddle such a switch
//! spread by up to 38 % in raw wall time, past any bound a regression
//! check could use. So every end-to-end instance times a fixed kernel
//! just before and just after its measurement, and its host times are
//! scaled to a host on which the kernel takes [`REFERENCE_S`].
//!
//! The kernel is the benchmark's own code and shares nothing with the
//! simulator but the standard library and the allocator, so a change to
//! the simulator cannot move it. Like the simulator it is allocation- and
//! branch-heavy (a binary heap, a B-tree map of small vectors); a
//! pointer-chasing kernel tracked the simulator's speed far worse.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

use crate::measure::median;

/// Kernel time, seconds, on the host the scaled host times refer to
/// (roughly the reference box when its neighbours are idle).
pub const REFERENCE_S: f64 = 0.006;
/// Kernel runs per calibration; the calibration is their median.
pub const REPS: usize = 9;

/// Run the kernel once and return its host time, seconds.
fn kernel_once() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut heap = BinaryHeap::new();
    let mut map = BTreeMap::new();
    let mut acc = 0u64;
    for i in 0..20_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(Reverse((x % 100_000, i)));
        map.insert(x % 50_000, vec![i; (x % 8) as usize]);
        if i % 2 == 1 {
            if let Some(Reverse((t, id))) = heap.pop() {
                acc = acc.wrapping_add(t ^ id);
            }
        }
        if let Some(v) = map.get(&(x % 40_000)) {
            acc = acc.wrapping_add(v.len() as u64);
        }
    }
    black_box(acc);
    drop(black_box((heap, map)));
    start.elapsed().as_secs_f64()
}

/// The median of [`REPS`] kernel runs, seconds.
pub fn kernel_s() -> f64 {
    median(&(0..REPS).map(|_| kernel_once()).collect::<Vec<_>>())
}

/// Host time the calibrations of one instance take, seconds (one before
/// and one after the measurement, at the reference speed).
pub fn instance_overhead_s() -> f64 {
    2.0 * REPS as f64 * REFERENCE_S
}
