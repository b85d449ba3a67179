//! A seeded, deterministic lossy message channel.
//!
//! Real control planes talk over a network: dispatches arrive late,
//! completion reports get lost, retransmits produce duplicates, and
//! partitions cut a link entirely for a while. This module models that
//! link as a pure, seeded decision function: for each message the caller
//! asks [`NetChannel::send`] what the network does to it and gets back a
//! [`Delivery`] verdict — deliver after some delay (possibly twice),
//! or drop it. The channel never carries payloads and never schedules
//! anything itself; the owning state machine turns verdicts into events,
//! which keeps the channel trivially snapshot/fork-safe (it is just a
//! config, an RNG, and counters).
//!
//! # Determinism contract
//!
//! * With a default (zero-fault) [`NetworkFaults`] the channel draws
//!   **nothing** from its RNG and every verdict is [`Delivery::Inline`]:
//!   routing through it is byte-identical to a direct method call.
//! * With any transport fault enabled, every send draws in a fixed order
//!   (loss → delay jitter → reorder → duplication), so same-seed runs
//!   produce identical fault schedules.
//! * Partition checks are pure time-window tests and draw nothing.

use serde::{Deserialize, Serialize};

use crate::backoff::Backoff;
use crate::rng::SimRng;
use crate::time::{Duration, SimTime};

/// Direction of a control message over the master↔worker link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChanDir {
    /// Master → worker (dispatches, acks of worker reports).
    Forward,
    /// Worker → master (completions, heartbeats).
    Reverse,
}

/// A scheduled partition episode cutting the control link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Partition {
    /// When the partition begins (offset from simulation start).
    pub start: Duration,
    /// How long it lasts.
    pub duration: Duration,
    /// Asymmetric partitions cut only the worker→master direction (the
    /// master's sends still arrive, its workers' reports do not — the
    /// classic "zombie worker" regime). Symmetric episodes cut both.
    pub asymmetric: bool,
}

impl Partition {
    /// True while this episode is in effect at `elapsed` (time since
    /// simulation start).
    fn covers(&self, elapsed: Duration) -> bool {
        elapsed >= self.start && elapsed < self.start.saturating_add(self.duration)
    }

    /// Seconds of overlap between this episode and `[0, until)`.
    fn overlap_s(&self, until: Duration) -> f64 {
        let end = self.start.saturating_add(self.duration).min(until);
        end.saturating_sub(self.start).as_secs_f64()
    }
}

/// Network-fault knobs for the control channel.
///
/// All-zero defaults make the channel a strict pass-through (see the
/// module-level determinism contract). The struct is the `NetworkFaults`
/// arm of the core `FaultPlan` and is embedded in the master's config.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkFaults {
    /// Base one-way delivery delay for every control message.
    #[serde(default)]
    pub delay: Duration,
    /// Relative jitter on `delay` (`0.2` ⇒ ±20%, uniform).
    #[serde(default)]
    pub jitter: f64,
    /// Probability that a message is silently dropped.
    #[serde(default)]
    pub loss: f64,
    /// Probability that a delivered message arrives twice.
    #[serde(default)]
    pub duplicate: f64,
    /// Probability that a delivered message is held back long enough to
    /// arrive after later traffic (modeled as a stretched delay).
    #[serde(default)]
    pub reorder: f64,
    /// Scheduled partition episodes.
    #[serde(default)]
    pub partitions: Vec<Partition>,
    /// Worker heartbeat lease: a worker whose last heartbeat is older
    /// than this is presumed dead and its tasks are re-queued.
    /// `Duration::ZERO` disables the liveness machinery entirely.
    #[serde(default)]
    pub lease: Duration,
    /// Seed for the channel's fault RNG stream. A plan loaded from JSON
    /// without one gets seed 0 — still fully deterministic; the core
    /// `FaultPlan` stamps a derived seed over it either way.
    #[serde(default)]
    pub seed: u64,
}

impl Default for NetworkFaults {
    fn default() -> Self {
        NetworkFaults {
            delay: Duration::ZERO,
            jitter: 0.0,
            loss: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            partitions: Vec::new(),
            lease: Duration::ZERO,
            seed: 0x4E45_5431, // "NET1"
        }
    }
}

impl NetworkFaults {
    /// True when any transport fault can touch a message (delivery must
    /// go through the event queue instead of an inline call).
    pub fn transport_active(&self) -> bool {
        self.delay > Duration::ZERO
            || self.loss > 0.0
            || self.duplicate > 0.0
            || self.reorder > 0.0
            || !self.partitions.is_empty()
    }

    /// True when any part of the subsystem is on (transport faults or
    /// heartbeat-lease liveness).
    pub fn is_active(&self) -> bool {
        self.transport_active() || self.lease > Duration::ZERO
    }

    /// True when a partition episode blocks `dir` at `now`.
    pub fn partition_blocks(&self, now: SimTime, dir: ChanDir) -> bool {
        let elapsed = now.since(SimTime::ZERO);
        self.partitions
            .iter()
            .any(|p| p.covers(elapsed) && (!p.asymmetric || dir == ChanDir::Reverse))
    }

    /// Total partitioned seconds within `[0, until)` (for end-of-run
    /// fault accounting). Overlapping episodes double-count — the plan
    /// author controls the schedule.
    pub fn partition_seconds(&self, until: Duration) -> f64 {
        // fold, not sum: an empty `Sum<f64>` yields -0.0, which a JSON
        // round-trip renders as "-0".
        self.partitions
            .iter()
            .fold(0.0, |acc, p| acc + p.overlap_s(until))
    }
}

/// What the network did to one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// No transport faults configured: deliver by direct call, exactly
    /// as if the channel did not exist.
    Inline,
    /// Deliver after `delay`; when `dup` is set a second copy arrives
    /// after that (larger) delay as well.
    Deliver {
        /// One-way delivery delay of the (first) copy.
        delay: Duration,
        /// Delay of the duplicate copy, if one was spawned.
        dup: Option<Duration>,
    },
    /// The message is gone (loss or partition). The sender's retry
    /// machinery — if any — is the only way the information survives.
    Dropped,
}

/// Cumulative channel fault counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Messages dropped (random loss + partition cuts).
    pub dropped: u64,
    /// Duplicate copies spawned.
    pub duplicated: u64,
    /// Messages held back past later traffic.
    pub reordered: u64,
}

/// A directed lossy link: config + fault RNG + counters.
///
/// The reorder model stretches a message's delay by a sampled factor
/// instead of tracking inter-message ordering explicitly: with other
/// traffic flowing at the base delay, a stretched message observably
/// arrives after messages sent later, which is all "reordering" means
/// to the receiving state machine.
#[derive(Debug, Clone)]
pub struct NetChannel {
    cfg: NetworkFaults,
    rng: SimRng,
    stats: ChannelStats,
}

/// Floor used for reorder/duplication spreads when the base delay is
/// zero (a reordered message must land measurably late).
const MIN_SPREAD: Duration = Duration::from_millis(10);

impl NetChannel {
    /// A channel applying `cfg`, with its RNG seeded from `cfg.seed`.
    pub fn new(cfg: NetworkFaults) -> Self {
        NetChannel {
            rng: SimRng::seed_from_u64(cfg.seed),
            cfg,
            stats: ChannelStats::default(),
        }
    }

    /// The fault plan this channel applies.
    pub fn cfg(&self) -> &NetworkFaults {
        &self.cfg
    }

    /// Cumulative fault counters.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Re-partition the fault RNG for a what-if branch (counters and
    /// config are untouched; salt 0 must leave the stream as-is, which
    /// [`SimRng::partition`] guarantees).
    pub fn reseed(&mut self, salt: u64) {
        self.rng = self.rng.partition(salt);
    }

    /// Decide the fate of one message sent at `now` in direction `dir`.
    ///
    /// Draw order is fixed: loss → jitter → reorder → duplication.
    /// Partition checks precede all draws and consume no randomness, so
    /// a partition episode does not shift the fault schedule of traffic
    /// around it.
    pub fn send(&mut self, now: SimTime, dir: ChanDir) -> Delivery {
        if !self.cfg.transport_active() {
            return Delivery::Inline;
        }
        if self.cfg.partition_blocks(now, dir) {
            self.stats.dropped += 1;
            return Delivery::Dropped;
        }
        if self.cfg.loss > 0.0 && self.rng.uniform() < self.cfg.loss {
            self.stats.dropped += 1;
            return Delivery::Dropped;
        }
        let mut delay = if self.cfg.jitter > 0.0 && self.cfg.delay > Duration::ZERO {
            self.rng.jittered(self.cfg.delay, self.cfg.jitter)
        } else {
            self.cfg.delay
        };
        let spread = self.cfg.delay.max(MIN_SPREAD);
        if self.cfg.reorder > 0.0 && self.rng.uniform() < self.cfg.reorder {
            delay = delay.saturating_add(spread.mul_f64(self.rng.uniform_range(1.0, 4.0)));
            self.stats.reordered += 1;
        }
        let dup = if self.cfg.duplicate > 0.0 && self.rng.uniform() < self.cfg.duplicate {
            self.stats.duplicated += 1;
            Some(delay.saturating_add(spread.mul_f64(self.rng.uniform_range(0.5, 2.0))))
        } else {
            None
        };
        Delivery::Deliver { delay, dup }
    }

    /// Jittered retransmit delay for `attempt`, drawn from the channel's
    /// own fault stream (keeps retry timing on the same seeded schedule
    /// as the faults that caused it).
    pub fn retry_delay(&mut self, attempt: u32) -> Duration {
        Backoff::DISPATCH_RETRY.jittered(attempt, &mut self.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy(loss: f64) -> NetworkFaults {
        NetworkFaults {
            loss,
            ..NetworkFaults::default()
        }
    }

    #[test]
    fn default_plan_is_pure_pass_through() {
        let cfg = NetworkFaults::default();
        assert!(!cfg.is_active());
        let mut ch = NetChannel::new(cfg);
        for t in 0..100 {
            assert_eq!(
                ch.send(SimTime::from_secs(t), ChanDir::Forward),
                Delivery::Inline
            );
        }
        assert_eq!(ch.stats(), ChannelStats::default());
    }

    #[test]
    fn lease_alone_activates_without_touching_transport() {
        let cfg = NetworkFaults {
            lease: Duration::from_secs(60),
            ..NetworkFaults::default()
        };
        assert!(cfg.is_active());
        assert!(!cfg.transport_active());
        let mut ch = NetChannel::new(cfg);
        assert_eq!(ch.send(SimTime::ZERO, ChanDir::Reverse), Delivery::Inline);
    }

    #[test]
    fn loss_drops_roughly_at_rate_and_counts() {
        let mut ch = NetChannel::new(lossy(0.3));
        let mut dropped = 0;
        for t in 0..10_000 {
            if ch.send(SimTime::from_millis(t), ChanDir::Forward) == Delivery::Dropped {
                dropped += 1;
            }
        }
        assert_eq!(ch.stats().dropped, dropped);
        let rate = dropped as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "observed loss {rate}");
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = NetworkFaults {
            delay: Duration::from_millis(50),
            jitter: 0.2,
            loss: 0.1,
            duplicate: 0.05,
            reorder: 0.1,
            ..NetworkFaults::default()
        };
        let mut a = NetChannel::new(cfg.clone());
        let mut b = NetChannel::new(cfg);
        for t in 0..1_000 {
            let now = SimTime::from_millis(t * 7);
            assert_eq!(a.send(now, ChanDir::Forward), b.send(now, ChanDir::Forward));
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn partition_window_blocks_both_directions() {
        let cfg = NetworkFaults {
            partitions: vec![Partition {
                start: Duration::from_secs(100),
                duration: Duration::from_secs(50),
                asymmetric: false,
            }],
            ..NetworkFaults::default()
        };
        let mut ch = NetChannel::new(cfg);
        assert!(matches!(
            ch.send(SimTime::from_secs(99), ChanDir::Forward),
            Delivery::Deliver { .. }
        ));
        assert_eq!(
            ch.send(SimTime::from_secs(100), ChanDir::Forward),
            Delivery::Dropped
        );
        assert_eq!(
            ch.send(SimTime::from_secs(149), ChanDir::Reverse),
            Delivery::Dropped
        );
        assert!(matches!(
            ch.send(SimTime::from_secs(150), ChanDir::Reverse),
            Delivery::Deliver { .. }
        ));
        assert_eq!(ch.stats().dropped, 2);
    }

    #[test]
    fn asymmetric_partition_blocks_only_worker_to_master() {
        let cfg = NetworkFaults {
            partitions: vec![Partition {
                start: Duration::ZERO,
                duration: Duration::from_secs(10),
                asymmetric: true,
            }],
            ..NetworkFaults::default()
        };
        let mut ch = NetChannel::new(cfg);
        assert!(matches!(
            ch.send(SimTime::from_secs(5), ChanDir::Forward),
            Delivery::Deliver { .. }
        ));
        assert_eq!(
            ch.send(SimTime::from_secs(5), ChanDir::Reverse),
            Delivery::Dropped
        );
    }

    #[test]
    fn partition_checks_consume_no_randomness() {
        let cfg = NetworkFaults {
            delay: Duration::from_millis(50),
            jitter: 0.5,
            partitions: vec![Partition {
                start: Duration::from_secs(10),
                duration: Duration::from_secs(10),
                asymmetric: false,
            }],
            ..NetworkFaults::default()
        };
        // `a` sends a burst inside the window (all dropped), `b` stays
        // silent; the first post-window send must sample the identical
        // jittered delay, proving the in-window drops drew nothing.
        let mut a = NetChannel::new(cfg.clone());
        let mut b = NetChannel::new(cfg);
        for t in 10..20u64 {
            assert_eq!(
                a.send(SimTime::from_secs(t), ChanDir::Forward),
                Delivery::Dropped
            );
        }
        assert_eq!(
            a.send(SimTime::from_secs(25), ChanDir::Forward),
            b.send(SimTime::from_secs(25), ChanDir::Forward),
            "draw streams diverged across the partition window"
        );
    }

    #[test]
    fn partition_seconds_accounting() {
        let cfg = NetworkFaults {
            partitions: vec![
                Partition {
                    start: Duration::from_secs(100),
                    duration: Duration::from_secs(50),
                    asymmetric: false,
                },
                Partition {
                    start: Duration::from_secs(400),
                    duration: Duration::from_secs(100),
                    asymmetric: true,
                },
            ],
            ..NetworkFaults::default()
        };
        assert_eq!(cfg.partition_seconds(Duration::from_secs(50)), 0.0);
        assert_eq!(cfg.partition_seconds(Duration::from_secs(125)), 25.0);
        assert_eq!(cfg.partition_seconds(Duration::from_secs(1_000)), 150.0);
    }

    #[test]
    fn legacy_json_without_network_fields_deserializes() {
        let cfg: NetworkFaults = serde_json::from_str("{}").expect("all fields defaulted");
        assert!(!cfg.is_active(), "empty JSON is a zero-fault plan");
        let cfg: NetworkFaults = serde_json::from_str(r#"{"loss": 0.1}"#).expect("partial config");
        assert!(cfg.is_active());
    }
}
