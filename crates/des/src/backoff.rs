//! Capped exponential backoff with optional jitter.
//!
//! The retry schedule used across the stack for transient faults: the
//! kubelet's image-pull retries ([`Backoff::IMAGE_PULL`],
//! `ImagePullBackOff` semantics) and the control channel's dispatch
//! retransmits ([`Backoff::DISPATCH_RETRY`]). The schedule is
//! the classic capped doubling series `min(base · factor^attempt, cap)`;
//! [`Backoff::jittered`] multiplies each delay by a uniform factor drawn
//! from a [`SimRng`] so synchronized failures do not retry in lock-step
//! (the thundering-herd guard real schedulers apply).

use crate::rng::SimRng;
use crate::time::Duration;

/// A capped exponential retry schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Backoff {
    /// Delay before the first retry (attempt 0).
    pub base: Duration,
    /// Upper bound on any delay.
    pub cap: Duration,
    /// Multiplier between consecutive attempts (≥ 1).
    pub factor: f64,
    /// Relative jitter half-width in `[0, 1]` applied by
    /// [`Backoff::jittered`] (`0.1` ⇒ ±10 %).
    pub jitter: f64,
}

impl Backoff {
    /// Control-channel dispatch-retry schedule (at-least-once delivery):
    /// 5 s doubling to a 60 s cap, ±10 % jitter.
    pub const DISPATCH_RETRY: Backoff = Backoff {
        base: Duration::from_secs(5),
        cap: Duration::from_secs(60),
        factor: 2.0,
        jitter: 0.1,
    };

    /// Kubernetes-style image-pull schedule: 10 s doubling to a 300 s
    /// cap, ±10 % jitter.
    pub const IMAGE_PULL: Backoff = Backoff {
        base: Duration::from_secs(10),
        cap: Duration::from_secs(300),
        factor: 2.0,
        jitter: 0.1,
    };

    /// The deterministic delay before retry number `attempt` (0-based):
    /// `min(base · factor^attempt, cap)`.
    pub fn delay(&self, attempt: u32) -> Duration {
        let factor = self.factor.max(1.0);
        let scaled = self.base.as_secs_f64() * factor.powi(attempt.min(64) as i32);
        let capped = scaled.min(self.cap.as_secs_f64());
        Duration::from_secs_f64(capped)
    }

    /// The delay for `attempt` with multiplicative jitter drawn from
    /// `rng` (uniform in `[1 - jitter, 1 + jitter]`).
    pub fn jittered(&self, attempt: u32, rng: &mut SimRng) -> Duration {
        rng.jittered(self.delay(attempt), self.jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_doubles_then_caps() {
        let b = Backoff::IMAGE_PULL;
        assert_eq!(b.delay(0), Duration::from_secs(10));
        assert_eq!(b.delay(1), Duration::from_secs(20));
        assert_eq!(b.delay(2), Duration::from_secs(40));
        assert_eq!(b.delay(3), Duration::from_secs(80));
        assert_eq!(b.delay(4), Duration::from_secs(160));
        assert_eq!(b.delay(5), Duration::from_secs(300), "capped");
        assert_eq!(b.delay(40), Duration::from_secs(300), "stays capped");
    }

    #[test]
    fn huge_attempt_counts_do_not_overflow() {
        let b = Backoff::IMAGE_PULL;
        assert_eq!(b.delay(u32::MAX), Duration::from_secs(300));
    }

    #[test]
    fn factor_below_one_is_clamped_to_constant() {
        let b = Backoff {
            base: Duration::from_secs(5),
            cap: Duration::from_secs(60),
            factor: 0.5,
            jitter: 0.0,
        };
        assert_eq!(b.delay(0), Duration::from_secs(5));
        assert_eq!(b.delay(9), Duration::from_secs(5));
    }

    #[test]
    fn jitter_stays_within_bounds_and_is_deterministic() {
        let b = Backoff::IMAGE_PULL;
        let mut rng = SimRng::seed_from_u64(42);
        for attempt in 0..8 {
            let lo = b.delay(attempt).as_secs_f64() * 0.9;
            let hi = b.delay(attempt).as_secs_f64() * 1.1;
            let d = b.jittered(attempt, &mut rng).as_secs_f64();
            assert!(
                (lo..=hi).contains(&d),
                "attempt {attempt}: {d} ∉ [{lo}, {hi}]"
            );
        }
        // Same seed ⇒ same schedule.
        let mut a = SimRng::seed_from_u64(7);
        let mut c = SimRng::seed_from_u64(7);
        for attempt in 0..8 {
            assert_eq!(b.jittered(attempt, &mut a), b.jittered(attempt, &mut c));
        }
    }
}
