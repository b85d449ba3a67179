//! Runtime invariant checking (the "sim-sanitizer") and event-stream
//! digests for divergence hunting.
//!
//! Static checks (clippy's determinism bans, the `SnapshotState` and
//! `Salt` types) catch determinism hazards that are visible in the
//! source. This module catches the rest at runtime, in two layers:
//!
//! 1. **Invariant assertions.** Components assert per-event invariants
//!    (monotonic simulated time, task conservation, non-negative free
//!    resources) through [`sanitize_assert!`](crate::sanitize_assert).
//!    The checks are active under `debug_assertions` — every
//!    `cargo test` run exercises them for free — and can be forced into
//!    release builds with the `sim-sanitizer` cargo feature. In plain
//!    release builds the condition is not even evaluated.
//!
//! 2. **Event digests.** An [`EventDigest`] folds every delivered event
//!    into a rolling 64-bit FNV-1a hash and records periodic
//!    checkpoints. Two same-seed runs must produce identical digests;
//!    when they do not, [`DigestReport::first_divergence`] brackets the
//!    first divergent event between two checkpoints, and a capture
//!    window replays that bracket with full per-event descriptions. The
//!    `perf --paranoid` mode drives exactly this loop.

use std::fmt;
use std::fmt::Write as _;

/// True when invariant checks run (debug builds, or the `sim-sanitizer`
/// feature).
pub const ACTIVE: bool = cfg!(any(debug_assertions, feature = "sim-sanitizer"));

/// `assert!` that compiles to nothing unless the sanitizer is active.
///
/// The condition is not evaluated in plain release builds, so checks may
/// be O(n) scans without taxing the measured hot path.
#[macro_export]
macro_rules! sanitize_assert {
    ($cond:expr, $($arg:tt)+) => {
        if $crate::sanitize::ACTIVE {
            assert!($cond, $($arg)+);
        }
    };
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// How an [`EventDigest`] samples the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestConfig {
    /// Record a checkpoint every this many events.
    pub checkpoint_every: u64,
    /// Half-open event-index window `[start, end)` to capture verbatim
    /// (index, time, Debug description) — used on the second pass to
    /// pinpoint the exact divergent event.
    pub capture: Option<(u64, u64)>,
}

impl Default for DigestConfig {
    fn default() -> Self {
        DigestConfig {
            checkpoint_every: 4096,
            capture: None,
        }
    }
}

/// One periodic sample of the rolling hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestCheckpoint {
    /// Events folded in so far.
    pub index: u64,
    /// Simulated time of the last folded event, in milliseconds.
    pub at_ms: u64,
    /// Rolling hash after that event.
    pub hash: u64,
}

/// A verbatim record of one event inside the capture window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapturedEvent {
    /// 0-based index in the delivery order.
    pub index: u64,
    /// Simulated time in milliseconds.
    pub at_ms: u64,
    /// The event's `Debug` rendering.
    pub desc: String,
}

/// Rolling digest of a run's event stream.
#[derive(Debug, Clone)]
pub struct EventDigest {
    config: DigestConfig,
    hash: u64,
    count: u64,
    last_ms: u64,
    checkpoints: Vec<DigestCheckpoint>,
    captured: Vec<CapturedEvent>,
    scratch: String,
}

impl EventDigest {
    /// An empty digest.
    pub fn new(config: DigestConfig) -> Self {
        EventDigest {
            config,
            hash: FNV_OFFSET,
            count: 0,
            last_ms: 0,
            checkpoints: Vec::new(),
            captured: Vec::new(),
            scratch: String::with_capacity(128),
        }
    }

    /// Fold one delivered event into the digest.
    pub fn record(&mut self, at_ms: u64, event: &impl fmt::Debug) {
        self.scratch.clear();
        let _ = write!(self.scratch, "{event:?}");
        self.hash = fnv1a(self.hash, &at_ms.to_le_bytes());
        self.hash = fnv1a(self.hash, self.scratch.as_bytes());
        if let Some((start, end)) = self.config.capture {
            if self.count >= start && self.count < end {
                self.captured.push(CapturedEvent {
                    index: self.count,
                    at_ms,
                    desc: self.scratch.clone(),
                });
            }
        }
        self.count += 1;
        self.last_ms = at_ms;
        if self.count.is_multiple_of(self.config.checkpoint_every) {
            self.checkpoints.push(DigestCheckpoint {
                index: self.count,
                at_ms,
                hash: self.hash,
            });
        }
    }

    /// Finish and summarize.
    pub fn report(self) -> DigestReport {
        DigestReport {
            final_hash: self.hash,
            events: self.count,
            last_ms: self.last_ms,
            checkpoint_every: self.config.checkpoint_every,
            checkpoints: self.checkpoints,
            captured: self.captured,
        }
    }
}

/// Where two digests first disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Divergence {
    /// The runs delivered different event counts (one stream is a strict
    /// prefix of neither).
    CountMismatch {
        /// Events in this report.
        ours: u64,
        /// Events in the other report.
        theirs: u64,
    },
    /// The first divergent event lies in the half-open index window
    /// `[after, by)`: the checkpoint at `after` still matched, the one
    /// at `by` (or the final hash) did not.
    Window {
        /// Last index known to match.
        after: u64,
        /// First index known to differ at or before.
        by: u64,
    },
}

/// The finished digest of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestReport {
    /// Rolling hash over the whole stream.
    pub final_hash: u64,
    /// Total events folded in.
    pub events: u64,
    /// Simulated time of the last event, milliseconds.
    pub last_ms: u64,
    /// Checkpoint cadence the digest ran with.
    pub checkpoint_every: u64,
    /// Periodic hash samples.
    pub checkpoints: Vec<DigestCheckpoint>,
    /// Events captured verbatim (second pass only).
    pub captured: Vec<CapturedEvent>,
}

impl DigestReport {
    /// True when the two runs produced the same stream.
    pub fn matches(&self, other: &DigestReport) -> bool {
        self.final_hash == other.final_hash && self.events == other.events
    }

    /// Bracket the first divergent event between this run and `other`.
    ///
    /// Returns `None` when the digests match. Both runs must use the
    /// same checkpoint cadence for the bracket to be meaningful.
    pub fn first_divergence(&self, other: &DigestReport) -> Option<Divergence> {
        let mut last_match = 0u64;
        for (a, b) in self.checkpoints.iter().zip(&other.checkpoints) {
            if a.hash != b.hash {
                return Some(Divergence::Window {
                    after: last_match,
                    by: a.index.min(b.index),
                });
            }
            last_match = a.index;
        }
        if self.events != other.events {
            return Some(Divergence::CountMismatch {
                ours: self.events,
                theirs: other.events,
            });
        }
        if self.final_hash != other.final_hash {
            return Some(Divergence::Window {
                after: last_match,
                by: self.events,
            });
        }
        None
    }

    /// The first captured event whose description differs from `other`'s
    /// capture at the same index (requires both runs to have captured
    /// the same window).
    pub fn first_divergent_capture<'a>(
        &'a self,
        other: &'a DigestReport,
    ) -> Option<(&'a CapturedEvent, &'a CapturedEvent)> {
        self.captured
            .iter()
            .zip(&other.captured)
            .find(|(a, b)| a.at_ms != b.at_ms || a.desc != b.desc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_of(events: &[(u64, &str)], config: DigestConfig) -> DigestReport {
        let mut d = EventDigest::new(config);
        for (t, e) in events {
            d.record(*t, e);
        }
        d.report()
    }

    #[test]
    fn identical_streams_match() {
        let evs: Vec<(u64, &str)> = (0..100).map(|i| (i * 10, "tick")).collect();
        let a = digest_of(&evs, DigestConfig::default());
        let b = digest_of(&evs, DigestConfig::default());
        assert!(a.matches(&b));
        assert_eq!(a.first_divergence(&b), None);
    }

    #[test]
    fn different_event_at_known_index_is_bracketed() {
        let cfg = DigestConfig {
            checkpoint_every: 10,
            capture: None,
        };
        let mut a: Vec<(u64, &str)> = (0..100).map(|i| (i, "tick")).collect();
        let b = a.clone();
        a[37] = (37, "tock"); // divergence inside the (30, 40] bracket
        let ra = digest_of(&a, cfg);
        let rb = digest_of(&b, cfg);
        assert!(!ra.matches(&rb));
        assert_eq!(
            ra.first_divergence(&rb),
            Some(Divergence::Window { after: 30, by: 40 })
        );
    }

    #[test]
    fn capture_window_pinpoints_the_event() {
        let cfg = DigestConfig {
            checkpoint_every: 10,
            capture: Some((30, 40)),
        };
        let mut a: Vec<(u64, &str)> = (0..100).map(|i| (i, "tick")).collect();
        let b = a.clone();
        a[37] = (37, "tock");
        let ra = digest_of(&a, cfg);
        let rb = digest_of(&b, cfg);
        let (ea, eb) = ra.first_divergent_capture(&rb).expect("captured");
        assert_eq!(ea.index, 37);
        assert_eq!(ea.desc, "\"tock\"");
        assert_eq!(eb.desc, "\"tick\"");
    }

    #[test]
    fn count_mismatch_is_reported() {
        let cfg = DigestConfig {
            checkpoint_every: 1000,
            capture: None,
        };
        let a: Vec<(u64, &str)> = (0..50).map(|i| (i, "tick")).collect();
        let b: Vec<(u64, &str)> = (0..60).map(|i| (i, "tick")).collect();
        let div = digest_of(&a, cfg).first_divergence(&digest_of(&b, cfg));
        assert_eq!(
            div,
            Some(Divergence::CountMismatch {
                ours: 50,
                theirs: 60
            })
        );
    }

    #[test]
    fn time_matters_not_just_payload() {
        let cfg = DigestConfig::default();
        let a = digest_of(&[(1, "x")], cfg);
        let b = digest_of(&[(2, "x")], cfg);
        assert!(!a.matches(&b));
    }
}
