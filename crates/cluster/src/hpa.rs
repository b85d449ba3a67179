//! The Horizontal Pod Autoscaler (the paper's baseline).
//!
//! Implements the control law of §III-B, eq. 1:
//!
//! ```text
//! DesiredCPU = CurrentCPU × CurrentCPUUse / DesiredCPUUse
//! ```
//!
//! with Kubernetes semantics the paper's evaluation depends on:
//!
//! * a **15 s** metric sync period,
//! * a **±10 % tolerance dead-band** around the target before acting,
//! * **ceil** rounding of the desired replica count,
//! * the **downscale stabilization window** (default **5 minutes** — §VI-A:
//!   "to avoid pods from thrashing, there is a stabilization interval
//!   between two downscale operations, and the default value is 5
//!   minutes"): the effective recommendation is the *maximum* of raw
//!   recommendations over the trailing window, so upscales apply
//!   immediately and downscales only after the window agrees.

use std::collections::VecDeque;

use hta_des::{Duration, SimTime};
use serde::{Deserialize, Serialize};

/// HPA tuning knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HpaConfig {
    /// Target average CPU utilization in `[0, 1]` (the paper's
    /// Config-10/50/99 are 0.10 / 0.50 / 0.99).
    pub target_utilization: f64,
    /// Lower replica clamp.
    pub min_replicas: usize,
    /// Upper replica clamp.
    pub max_replicas: usize,
}

impl HpaConfig {
    /// The paper's `HPA(X% CPU)` configuration with the given target.
    pub fn with_target(target_utilization: f64, min_replicas: usize, max_replicas: usize) -> Self {
        HpaConfig {
            target_utilization: target_utilization.clamp(0.01, 1.0),
            min_replicas,
            max_replicas,
        }
    }
}

/// Downscale stabilization window (Kubernetes default 300 s).
const DOWNSCALE_STABILIZATION: Duration = Duration::from_secs(300);
/// Dead-band around the target ratio (Kubernetes default 0.1).
const TOLERANCE: f64 = 0.1;

/// Horizontal Pod Autoscaler controller state.
#[derive(Debug, Clone)]
pub struct Hpa {
    cfg: HpaConfig,
    /// `(time, raw recommendation)` history for the stabilization window.
    history: VecDeque<(SimTime, usize)>,
}

impl Hpa {
    /// Metric sync period (Kubernetes default 15 s).
    pub const SYNC_INTERVAL: Duration = Duration::from_secs(15);

    /// A controller with empty history.
    pub fn new(cfg: HpaConfig) -> Self {
        Hpa {
            cfg,
            history: VecDeque::new(),
        }
    }

    /// One sync: returns the desired replica count.
    ///
    /// `avg_utilization` is the mean of per-pod `usage / request` over the
    /// group's *running* pods, or `None` when no metrics exist (no running
    /// pods yet) — in which case the controller holds at
    /// `max(current, min_replicas)` like the real HPA, which skips scaling
    /// when metrics are unavailable.
    pub fn tick(
        &mut self,
        now: SimTime,
        current_replicas: usize,
        avg_utilization: Option<f64>,
    ) -> usize {
        let raw = match avg_utilization {
            None => current_replicas.max(self.cfg.min_replicas),
            Some(util) => {
                let util = util.max(0.0);
                let ratio = util / self.cfg.target_utilization;
                if (ratio - 1.0).abs() <= TOLERANCE {
                    current_replicas
                } else {
                    // eq. 1, ceil-rounded; at least 1 so the group can
                    // recover from near-zero utilization readings.
                    ((current_replicas as f64 * ratio).ceil() as usize).max(1)
                }
            }
        };
        // Kubernetes' upscale rate limit (pkg/controller/podautoscaler,
        // v1.13): each sync may at most double the replica count (floor 4).
        // This is what makes the paper's Fig. 2 ramps gradual — each
        // doubling must wait for fresh nodes before utilization data
        // justifies the next one.
        let scale_up_limit = (current_replicas * 2).max(4);
        let raw = raw
            .min(scale_up_limit)
            .clamp(self.cfg.min_replicas, self.cfg.max_replicas);
        self.record(now, raw);
        // Effective recommendation: max over the stabilization window.
        let desired = self.history.iter().map(|&(_, r)| r).max().unwrap_or(raw);
        desired.clamp(self.cfg.min_replicas, self.cfg.max_replicas)
    }

    fn record(&mut self, now: SimTime, raw: usize) {
        self.history.push_back((now, raw));
        while let Some(&(t, _)) = self.history.front() {
            if now.since(t) > DOWNSCALE_STABILIZATION {
                self.history.pop_front();
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hpa(target: f64) -> Hpa {
        Hpa::new(HpaConfig::with_target(target, 1, 15))
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn eq1_scales_proportionally_and_ceils() {
        let mut h = hpa(0.5);
        // 3 replicas at 90% with target 50% → ceil(3 * 1.8) = 6.
        assert_eq!(h.tick(t(0), 3, Some(0.9)), 6);
    }

    #[test]
    fn tolerance_dead_band_holds() {
        let mut h = hpa(0.5);
        // ratio 1.08 within ±0.1 → hold.
        assert_eq!(h.tick(t(0), 4, Some(0.54)), 4);
        // ratio 0.92 within band → hold.
        assert_eq!(h.tick(t(15), 4, Some(0.46)), 4);
        // ratio 1.2 outside band → scale.
        assert_eq!(h.tick(t(30), 4, Some(0.6)), 5);
    }

    #[test]
    fn upscale_is_immediate_downscale_is_stabilized() {
        let mut h = hpa(0.5);
        // Load spike: immediate upscale.
        assert_eq!(h.tick(t(0), 2, Some(1.0)), 4);
        // Load drops: raw recommendation would be 1, but the window still
        // contains 4 → hold at 4.
        assert_eq!(h.tick(t(15), 4, Some(0.1)), 4);
        assert_eq!(h.tick(t(150), 4, Some(0.1)), 4);
        // After the 300 s window passes, the old high recommendation ages
        // out and the downscale applies.
        assert_eq!(h.tick(t(310), 4, Some(0.1)), 1);
    }

    #[test]
    fn clamps_to_min_max() {
        let mut h = Hpa::new(HpaConfig::with_target(0.5, 2, 6));
        assert_eq!(h.tick(t(0), 6, Some(1.0)), 6, "capped at max");
        let mut h2 = Hpa::new(HpaConfig::with_target(0.5, 2, 6));
        assert_eq!(h2.tick(t(0), 2, Some(0.0)), 2, "floored at min");
    }

    #[test]
    fn no_metrics_holds_current() {
        let mut h = hpa(0.2);
        assert_eq!(h.tick(t(0), 5, None), 5);
        // The held recommendation persists through the window.
        assert_eq!(h.tick(t(15), 0, None), 5);
        // A fresh controller with zero replicas floors at min.
        let mut h2 = hpa(0.2);
        assert_eq!(h2.tick(t(0), 0, None), 1, "at least min replicas");
    }

    #[test]
    fn config99_rarely_upscales() {
        // The paper's Config-99: CPU-bound jobs at ~85-90% utilization
        // never exceed a 99% target, so the cluster never grows (§III-B).
        let mut h = hpa(0.99);
        for i in 0..40 {
            let d = h.tick(t(i * 15), 3, Some(0.9));
            assert_eq!(d, 3, "Config-99 must hold at current size");
        }
    }

    #[test]
    fn config10_ramps_through_the_upscale_limit() {
        let mut h = hpa(0.10);
        // 3 replicas at 90%: raw would be 27, but one sync may at most
        // double (floor 4): 3 → 6 → 12 → 15 (max).
        assert_eq!(h.tick(t(0), 3, Some(0.9)), 6);
        assert_eq!(h.tick(t(15), 6, Some(0.9)), 12);
        assert_eq!(h.tick(t(30), 12, Some(0.9)), 15);
    }

    #[test]
    fn upscale_limit_floor_is_four() {
        let mut h = hpa(0.10);
        // 1 replica at 90%: raw 9, limit max(2, 4) = 4.
        assert_eq!(h.tick(t(0), 1, Some(0.9)), 4);
    }

    #[test]
    fn pinned_replicas_when_min_equals_max() {
        let mut h = Hpa::new(HpaConfig::with_target(0.5, 7, 7));
        for i in 0..10 {
            assert_eq!(h.tick(t(i * 15), 7, Some(0.99)), 7);
            assert_eq!(h.tick(t(i * 15 + 5), 7, Some(0.01)), 7);
        }
    }

    #[test]
    fn near_zero_utilization_still_recommends_one() {
        let mut h = hpa(0.5);
        let d = h.tick(t(0), 3, Some(0.0));
        // Raw would be 0; floor at 1 (and the stabilization window keeps
        // it at 3 until it ages out — check raw path via fresh controller
        // after the window).
        assert!(d >= 1);
        assert_eq!(h.tick(t(301), 3, Some(0.0)), 1);
    }
}
