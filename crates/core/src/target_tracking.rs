//! A target-tracking baseline (the related-work space, §VII).
//!
//! Cloud providers' generic autoscalers (AWS target tracking, and — in
//! spirit — queue-metric scalers like KEDA) keep a chosen metric at a
//! target by proportional control. [`TargetTrackingPolicy`] tracks
//! **backlog per worker** (waiting tasks / live workers) — a queue-aware
//! but initialization-blind strategy:
//!
//! ```text
//! desired = ceil(live × backlog_per_worker / target)
//! ```
//!
//! It is better informed than HPA's CPU metric (it sees the queue) but,
//! unlike HTA, it neither packs by measured resources nor forecasts
//! completions across the initialization cycle — so it over-provisions
//! on backlogs the current pool would absorb anyway.

use hta_des::{Duration, SimTime};

use crate::policy::{PolicyContext, ScaleAction, ScalingPolicy};

/// Desired waiting tasks per live worker.
const TARGET_BACKLOG_PER_WORKER: f64 = 2.0;
/// Evaluation period.
const SYNC_INTERVAL: Duration = Duration::from_secs(15);
/// Scale-in cooldown (AWS default: 300 s).
const SCALE_IN_COOLDOWN: Duration = Duration::from_secs(300);
/// Lower clamp.
const MIN_WORKERS: usize = 1;

/// The policy.
#[derive(Debug, Clone, Default)]
pub struct TargetTrackingPolicy {
    last_desired: usize,
    last_scale_in: Option<SimTime>,
}

impl TargetTrackingPolicy {
    /// A fresh controller.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ScalingPolicy for TargetTrackingPolicy {
    fn name(&self) -> String {
        format!("TargetTracking({TARGET_BACKLOG_PER_WORKER}/worker)")
    }

    fn decide(&mut self, ctx: &PolicyContext<'_>) -> (ScaleAction, Duration) {
        if ctx.workload_done {
            self.last_desired = 0;
            return if ctx.live_worker_pods > 0 {
                (
                    ScaleAction::DrainWorkers(ctx.live_worker_pods),
                    SYNC_INTERVAL,
                )
            } else {
                (ScaleAction::None, SYNC_INTERVAL)
            };
        }
        let backlog =
            ctx.queue.waiting_count() + ctx.held_jobs.iter().map(|(_, n)| *n).sum::<usize>();
        let live = ctx.live_worker_pods.max(1);
        let metric = backlog as f64 / live as f64;
        let raw = ((live as f64) * metric / TARGET_BACKLOG_PER_WORKER).ceil() as usize;
        // Keep at least enough workers for what is running.
        let busy_floor = usize::from(ctx.queue.running_count() > 0);
        let desired = raw.max(MIN_WORKERS).max(busy_floor).min(ctx.max_workers);
        self.last_desired = desired;
        let action = if desired > ctx.live_worker_pods {
            ScaleAction::CreateWorkers(desired - ctx.live_worker_pods)
        } else if desired < ctx.live_worker_pods {
            // Scale-in cooldown.
            let ok = self
                .last_scale_in
                .map(|t| ctx.now.since(t) >= SCALE_IN_COOLDOWN)
                .unwrap_or(true);
            if ok {
                self.last_scale_in = Some(ctx.now);
                ScaleAction::DrainWorkers(ctx.live_worker_pods - desired)
            } else {
                ScaleAction::None
            }
        } else {
            ScaleAction::None
        };
        (action, SYNC_INTERVAL)
    }

    fn desired(&self) -> usize {
        self.last_desired
    }

    fn clone_box(&self) -> Box<dyn ScalingPolicy> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::category_stats::CategoryStats;
    use crate::policy::testkit::master;
    use hta_des::CategoryId;
    use hta_resources::Resources;
    use hta_workqueue::Master;

    fn ctx<'a>(
        queue: &'a Master,
        stats: &'a CategoryStats,
        live: usize,
        now_s: u64,
    ) -> PolicyContext<'a> {
        PolicyContext {
            now: SimTime::from_secs(now_s),
            queue: queue.view(),
            held_jobs: &[],
            stats,
            init_time: Duration::from_secs(157),
            worker_unit: Resources::cores(3, 12_000, 50_000),
            live_worker_pods: live,
            pending_worker_pods: 0,
            utilization: None,
            max_workers: 20,
            workload_done: false,
            telemetry_age: Duration::ZERO,
        }
    }

    fn backlog(n: usize) -> Master {
        master(&["t"], &[(CategoryId::from_u32(0), None, n)], &[])
    }

    #[test]
    fn tracks_backlog_target() {
        let mut p = TargetTrackingPolicy::new();
        let q = backlog(20);
        let stats = CategoryStats::new();
        // 20 waiting / target 2 per worker → 10 desired.
        let (action, next) = p.decide(&ctx(&q, &stats, 4, 0));
        assert_eq!(action, ScaleAction::CreateWorkers(6));
        assert_eq!(p.desired(), 10);
        assert_eq!(next, Duration::from_secs(15));
    }

    #[test]
    fn scale_in_respects_cooldown() {
        let mut p = TargetTrackingPolicy::new();
        let stats = CategoryStats::new();
        let empty = backlog(0);
        // First scale-in applies…
        let (a1, _) = p.decide(&ctx(&empty, &stats, 10, 100));
        assert_eq!(a1, ScaleAction::DrainWorkers(9), "down to min");
        // …a second within the cooldown is suppressed…
        let (a2, _) = p.decide(&ctx(&empty, &stats, 8, 150));
        assert_eq!(a2, ScaleAction::None);
        // …and allowed again after it passes.
        let (a3, _) = p.decide(&ctx(&empty, &stats, 8, 500));
        assert!(matches!(a3, ScaleAction::DrainWorkers(_)));
    }

    #[test]
    fn quota_clamped_and_cleanup() {
        let mut p = TargetTrackingPolicy::new();
        let stats = CategoryStats::new();
        let q = backlog(500);
        let (action, _) = p.decide(&ctx(&q, &stats, 1, 0));
        assert_eq!(action, ScaleAction::CreateWorkers(19), "clamped to 20");
        let mut done = ctx(&q, &stats, 6, 10);
        done.workload_done = true;
        let (action, _) = p.decide(&done);
        assert_eq!(action, ScaleAction::DrainWorkers(6));
    }
}
