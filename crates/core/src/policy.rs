//! Scaling policies.
//!
//! The driver evaluates one [`ScalingPolicy`] on a cadence the policy
//! itself chooses (HTA: the latest resource-initialization time, §V-C
//! "time intervals between two resizing actions is always set as the
//! latest resource initialization time"; HPA: the 15 s sync period).
//!
//! The action type distinguishes HTA's **drain** (graceful, via Work
//! Queue) from HPA's **kill** (pod deletion, interrupting jobs) — the
//! §II-C deployment difference the paper builds its middleware around.

use hta_cluster::{Hpa, HpaConfig};
use hta_des::{CategoryId, Duration, Interner, SimTime};
use hta_resources::Resources;
use hta_workqueue::master::QueueStatus;

use crate::category_stats::CategoryStats;
use crate::estimator::{
    estimate, EstimatorInput, EstimatorMode, RunningTask, ScaleDecision, WaitingTask,
};

/// What the driver should do to the worker-pod pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleAction {
    /// Leave the pool alone.
    None,
    /// Create this many worker pods.
    CreateWorkers(usize),
    /// Gracefully drain this many workers (HTA).
    DrainWorkers(usize),
    /// Delete this many worker pods outright (HPA eviction).
    KillWorkers(usize),
}

/// Snapshot handed to a policy at each evaluation.
#[derive(Debug, Clone)]
pub struct PolicyContext<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// Work Queue state (waiting/running/workers).
    pub queue: &'a QueueStatus,
    /// The master's category interner (resolves the ids in `queue` and
    /// `held_jobs` back to names at output boundaries).
    pub interner: &'a Interner,
    /// Jobs the operator is still holding back (warm-up): they are demand
    /// the queue does not show. `(category, count)` pairs.
    pub held_jobs: &'a [(CategoryId, usize)],
    /// Per-category learned statistics.
    pub stats: &'a CategoryStats,
    /// Latest measured resource-initialization time.
    pub init_time: Duration,
    /// Capacity of one worker pod.
    pub worker_unit: Resources,
    /// Worker pods alive in the cluster (pending + running).
    pub live_worker_pods: usize,
    /// Worker pods still pending (created, no node / image yet).
    pub pending_worker_pods: usize,
    /// Mean worker CPU utilization, `None` when no workers are connected.
    pub utilization: Option<f64>,
    /// Hard cap on worker pods (cluster quota).
    pub max_workers: usize,
    /// True once the workflow has no more jobs (clean-up stage).
    pub workload_done: bool,
    /// Age of the freshest worker telemetry behind this snapshot. Zero
    /// unless heartbeat liveness is on and worker reports have actually
    /// stopped arriving (e.g. a network partition): the policy inputs are
    /// then a picture of the past, and scaling on them would thrash.
    pub telemetry_age: Duration,
}

/// A worker-pool scaling policy.
pub trait ScalingPolicy {
    /// Policy name for reports.
    fn name(&self) -> String;
    /// Decide an action and when to be called next.
    fn decide(&mut self, ctx: &PolicyContext<'_>) -> (ScaleAction, Duration);
    /// The most recent desired worker-pod count (for the Fig. 2 series).
    fn desired(&self) -> usize;
    /// Clone into a boxed trait object. Policies ride inside the driver,
    /// and the driver's snapshot/fork capability deep-clones everything it
    /// owns — so every policy must be cloneable behind the trait.
    fn clone_box(&self) -> Box<dyn ScalingPolicy>;
    /// Decide with access to a counterfactual world (see
    /// [`WhatIf`](crate::whatif::WhatIf)). Classic feedback policies
    /// ignore the world; the model-predictive policy in `crates/forecast`
    /// overrides this to evaluate candidate actions by forking branches.
    fn decide_with_world(
        &mut self,
        ctx: &PolicyContext<'_>,
        world: &dyn crate::whatif::WhatIf,
    ) -> (ScaleAction, Duration) {
        let _ = world;
        self.decide(ctx)
    }
}

impl Clone for Box<dyn ScalingPolicy> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

// ----------------------------------------------------------------------
// HTA
// ----------------------------------------------------------------------

/// Re-evaluation interval when the estimator has nothing to do.
const DEFAULT_CYCLE: Duration = Duration::from_secs(30);
/// Expected execution time for categories with no measurement yet.
const DEFAULT_EXEC: Duration = Duration::from_secs(60);
/// Lower bound between evaluations (avoid zero-delay loops).
const MIN_INTERVAL: Duration = Duration::from_secs(5);
/// Upper bound between evaluations (stay responsive to new stages).
const MAX_INTERVAL: Duration = Duration::from_secs(120);
/// Telemetry staleness bound: when the context's `telemetry_age`
/// exceeds it, the policy freezes (holds the pool) instead of acting on
/// a stale picture of the cluster — graceful degradation during a
/// network partition rather than scale thrash.
const STALENESS_BOUND: Duration = Duration::from_secs(60);
/// At most this many waiting tasks enter Algorithm 1's forward
/// simulation (its cost is quadratic in the input). The truncated tail
/// is not dropped: it is summarized into the estimator's `overflow`
/// groups, which suppress scale-down and size scale-up arithmetically —
/// so an open-loop backlog of hundreds of thousands still saturates the
/// decision at "scale out to the quota" while each decision stays
/// O(cap²). Every closed workflow workload (queues of a few hundred)
/// fits under the cap and is bit-exact.
const ESTIMATOR_QUEUE_CAP: usize = 1024;

/// Tuning for [`HtaPolicy`].
#[derive(Debug, Clone, Default)]
pub struct HtaConfig {
    /// Capacity model for the estimator (ablation knob).
    pub estimator_mode: EstimatorMode,
}

/// The paper's well-informed feedback autoscaler.
#[derive(Debug, Clone)]
pub struct HtaPolicy {
    cfg: HtaConfig,
    last_desired: usize,
}

impl HtaPolicy {
    /// A fresh policy.
    pub fn new(cfg: HtaConfig) -> Self {
        HtaPolicy {
            cfg,
            last_desired: 0,
        }
    }

    /// Build the estimator's view from the queue snapshot.
    fn build_input(&self, ctx: &PolicyContext<'_>) -> EstimatorInput {
        let stats = ctx.stats;

        let running: Vec<RunningTask> = ctx
            .queue
            .running
            .values()
            .map(|r| {
                let mean = stats
                    .estimate(r.cat)
                    .map(|e| e.mean_wall)
                    .unwrap_or(DEFAULT_EXEC);
                let elapsed = r
                    .started_at
                    .map(|s| ctx.now.since(s))
                    .unwrap_or(Duration::ZERO);
                RunningTask {
                    remaining: mean.saturating_sub(elapsed),
                    allocation: r.allocation,
                }
            })
            .collect();

        let mut waiting: Vec<WaitingTask> = ctx
            .queue
            .waiting
            .iter()
            .take(ESTIMATOR_QUEUE_CAP)
            .map(|w| {
                let est = stats.estimate(w.cat);
                let resources = w
                    .declared
                    .or(est.map(|e| e.resources))
                    .unwrap_or(ctx.worker_unit);
                let exec = est.map(|e| e.mean_wall).unwrap_or(DEFAULT_EXEC);
                WaitingTask { resources, exec }
            })
            .collect();
        // Tasks past the cap stay out of the quadratic simulation but are
        // still demand: group them by planned requirement so the
        // estimator can size scale-up for them arithmetically. One linear
        // pass over the snapshot at policy ticks only (the per-second
        // sampler never walks the queue).
        let mut overflow: Vec<(Resources, usize)> = Vec::new();
        for w in ctx.queue.waiting.iter().skip(ESTIMATOR_QUEUE_CAP) {
            let resources = w
                .declared
                .or(stats.estimate(w.cat).map(|e| e.resources))
                .unwrap_or(ctx.worker_unit);
            match overflow.iter_mut().find(|(r, _)| *r == resources) {
                Some((_, n)) => *n += 1,
                None => overflow.push((resources, 1)),
            }
        }
        // Held jobs whose category is already measured are demand (they
        // enter the queue as soon as the release happens); jobs held for a
        // still-running probe have *unknown* size and contribute nothing —
        // the warm-up stage collects statistics before provisioning for
        // them (§V-C).
        for (cat, count) in ctx.held_jobs {
            if let Some(est) = stats.estimate(*cat) {
                for _ in 0..*count {
                    waiting.push(WaitingTask {
                        resources: est.resources,
                        exec: est.mean_wall,
                    });
                }
            }
        }

        // Active worker capacities; pending worker pods count as full
        // future capacity so one shortage is not provisioned twice.
        let mut active_workers: Vec<Resources> = ctx
            .queue
            .workers
            .values()
            .filter(|w| w.state == hta_workqueue::WorkerState::Active)
            .map(|w| w.capacity)
            .collect();
        active_workers.extend(std::iter::repeat_n(
            ctx.worker_unit,
            ctx.pending_worker_pods,
        ));

        EstimatorInput {
            rsrc_init_time: ctx.init_time,
            default_cycle: DEFAULT_CYCLE,
            running,
            waiting,
            active_workers,
            worker_unit: ctx.worker_unit,
            overflow,
        }
    }
}

impl ScalingPolicy for HtaPolicy {
    fn name(&self) -> String {
        "HTA".into()
    }

    fn decide(&mut self, ctx: &PolicyContext<'_>) -> (ScaleAction, Duration) {
        if ctx.workload_done {
            // Clean-up stage: drain everything.
            self.last_desired = 0;
            let live = ctx.live_worker_pods;
            return if live > 0 {
                (ScaleAction::DrainWorkers(live), DEFAULT_CYCLE)
            } else {
                (ScaleAction::None, DEFAULT_CYCLE)
            };
        }
        if ctx.telemetry_age > STALENESS_BOUND {
            // The inputs are a stale picture of the cluster (heartbeats
            // have stopped arriving — likely a partition). Freeze the
            // pool and re-check soon; acting would thrash against a state
            // we cannot observe.
            self.last_desired = ctx.live_worker_pods;
            return (ScaleAction::None, MIN_INTERVAL);
        }
        let input = self.build_input(ctx);
        let ScaleDecision { delta, next_action } = estimate(&input, self.cfg.estimator_mode);
        let next = next_action.max(MIN_INTERVAL).min(MAX_INTERVAL);
        let action = if delta > 0 {
            let headroom = ctx.max_workers.saturating_sub(ctx.live_worker_pods);
            let n = (delta as usize).min(headroom);
            self.last_desired = ctx.live_worker_pods + n;
            if n == 0 {
                ScaleAction::None
            } else {
                ScaleAction::CreateWorkers(n)
            }
        } else if delta < 0 {
            let n = ((-delta) as usize).min(ctx.live_worker_pods);
            self.last_desired = ctx.live_worker_pods - n;
            if n == 0 {
                ScaleAction::None
            } else {
                ScaleAction::DrainWorkers(n)
            }
        } else {
            self.last_desired = ctx.live_worker_pods;
            ScaleAction::None
        };
        (action, next)
    }

    fn desired(&self) -> usize {
        self.last_desired
    }

    fn clone_box(&self) -> Box<dyn ScalingPolicy> {
        Box::new(self.clone())
    }
}

// ----------------------------------------------------------------------
// HPA
// ----------------------------------------------------------------------

/// The Kubernetes HPA baseline driving the worker-pod group.
#[derive(Debug, Clone)]
pub struct HpaPolicy {
    hpa: Hpa,
    label: String,
    last_desired: usize,
}

impl HpaPolicy {
    /// `HPA(target% CPU)` with the given replica bounds.
    pub fn new(target_utilization: f64, min_replicas: usize, max_replicas: usize) -> Self {
        let label = format!("HPA({}% CPU)", (target_utilization * 100.0).round() as u32);
        HpaPolicy {
            hpa: Hpa::new(HpaConfig::with_target(
                target_utilization,
                min_replicas,
                max_replicas,
            )),
            label,
            last_desired: min_replicas,
        }
    }
}

impl ScalingPolicy for HpaPolicy {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn decide(&mut self, ctx: &PolicyContext<'_>) -> (ScaleAction, Duration) {
        let desired = self
            .hpa
            .tick(ctx.now, ctx.live_worker_pods, ctx.utilization)
            .min(ctx.max_workers);
        self.last_desired = desired;
        let current = ctx.live_worker_pods;
        let action = if desired > current {
            ScaleAction::CreateWorkers(desired - current)
        } else if desired < current {
            ScaleAction::KillWorkers(current - desired)
        } else {
            ScaleAction::None
        };
        (action, Hpa::SYNC_INTERVAL)
    }

    fn desired(&self) -> usize {
        self.last_desired
    }

    fn clone_box(&self) -> Box<dyn ScalingPolicy> {
        Box::new(self.clone())
    }
}

// ----------------------------------------------------------------------
// Fixed pool
// ----------------------------------------------------------------------

/// A static pool of `n` workers (the paper's §IV-A fixed configurations).
#[derive(Debug, Clone)]
pub struct FixedPolicy {
    target: usize,
    interval: Duration,
}

impl FixedPolicy {
    /// Hold the pool at `target` workers.
    pub fn new(target: usize) -> Self {
        FixedPolicy {
            target,
            interval: Duration::from_secs(30),
        }
    }
}

impl ScalingPolicy for FixedPolicy {
    fn name(&self) -> String {
        format!("Fixed({})", self.target)
    }

    fn decide(&mut self, ctx: &PolicyContext<'_>) -> (ScaleAction, Duration) {
        if ctx.workload_done {
            return if ctx.live_worker_pods > 0 {
                (
                    ScaleAction::DrainWorkers(ctx.live_worker_pods),
                    self.interval,
                )
            } else {
                (ScaleAction::None, self.interval)
            };
        }
        let action = if ctx.live_worker_pods < self.target {
            ScaleAction::CreateWorkers(self.target - ctx.live_worker_pods)
        } else {
            ScaleAction::None
        };
        (action, self.interval)
    }

    fn desired(&self) -> usize {
        self.target
    }

    fn clone_box(&self) -> Box<dyn ScalingPolicy> {
        Box::new(self.clone())
    }
}

// ----------------------------------------------------------------------
// Hold (no-op)
// ----------------------------------------------------------------------

/// A policy that never acts.
///
/// Two jobs: it is the placeholder the driver swaps into itself while the
/// real policy is deciding (so the policy can borrow the driver as a
/// [`WhatIf`](crate::whatif::WhatIf) world), and — because what-if
/// branches are forked *during* that swap — it is the policy every branch
/// rolls forward under, which gives model-predictive rollouts their
/// constant-input ("apply the candidate action, then hold") semantics.
#[derive(Debug, Clone, Copy, Default)]
pub struct HoldPolicy;

impl ScalingPolicy for HoldPolicy {
    fn name(&self) -> String {
        "Hold".into()
    }

    fn decide(&mut self, _ctx: &PolicyContext<'_>) -> (ScaleAction, Duration) {
        (ScaleAction::None, Duration::from_secs(3600))
    }

    fn desired(&self) -> usize {
        0
    }

    fn clone_box(&self) -> Box<dyn ScalingPolicy> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hta_workqueue::master::{QueueStatus, WaitingSnapshot, WorkerSnapshot};
    use hta_workqueue::{TaskId, WorkerId, WorkerState};

    const ALIGN: CategoryId = CategoryId::from_u32(0);
    const STAGE2: CategoryId = CategoryId::from_u32(1);

    fn it() -> &'static Interner {
        static IT: std::sync::OnceLock<Interner> = std::sync::OnceLock::new();
        IT.get_or_init(|| {
            let mut it = Interner::new();
            it.intern("align"); // ALIGN
            it.intern("stage2"); // STAGE2
            it
        })
    }

    fn worker_unit() -> Resources {
        Resources::cores(3, 12_000, 50_000)
    }

    fn empty_queue() -> QueueStatus {
        QueueStatus::default()
    }

    fn ctx<'a>(
        queue: &'a QueueStatus,
        stats: &'a CategoryStats,
        held: &'a [(CategoryId, usize)],
        live: usize,
    ) -> PolicyContext<'a> {
        PolicyContext {
            now: SimTime::from_secs(100),
            queue,
            interner: it(),
            held_jobs: held,
            stats,
            init_time: Duration::from_secs(157),
            worker_unit: worker_unit(),
            live_worker_pods: live,
            pending_worker_pods: 0,
            utilization: None,
            max_workers: 20,
            workload_done: false,
            telemetry_age: Duration::ZERO,
        }
    }

    fn waiting_queue(n: usize, declared: Option<Resources>) -> QueueStatus {
        QueueStatus {
            waiting: (0..n)
                .map(|i| WaitingSnapshot {
                    id: TaskId(i as u64),
                    cat: ALIGN,
                    declared,
                })
                .collect(),
            ..QueueStatus::default()
        }
    }

    fn idle_workers(n: u64) -> std::collections::BTreeMap<WorkerId, WorkerSnapshot> {
        (0..n)
            .map(|i| {
                (
                    WorkerId(i),
                    WorkerSnapshot {
                        id: WorkerId(i),
                        capacity: worker_unit(),
                        available: worker_unit(),
                        state: WorkerState::Active,
                        tasks: 0,
                    },
                )
            })
            .collect()
    }

    #[test]
    fn hta_scales_up_for_declared_backlog() {
        let q = waiting_queue(9, Some(Resources::cores(1, 2_000, 2_000)));
        let stats = CategoryStats::new();
        let mut p = HtaPolicy::new(HtaConfig::default());
        let (action, next) = p.decide(&ctx(&q, &stats, &[], 0));
        assert_eq!(action, ScaleAction::CreateWorkers(3));
        assert_eq!(p.desired(), 3);
        assert_eq!(next, Duration::from_secs(120), "init time clamped to max");
    }

    #[test]
    fn hta_respects_max_workers() {
        let q = waiting_queue(300, Some(Resources::cores(3, 0, 0)));
        let stats = CategoryStats::new();
        let mut p = HtaPolicy::new(HtaConfig::default());
        let (action, _) = p.decide(&ctx(&q, &stats, &[], 18));
        assert_eq!(action, ScaleAction::CreateWorkers(2), "18 + 2 = cap 20");
    }

    #[test]
    fn hta_ignores_held_jobs_of_unmeasured_categories() {
        let q = empty_queue();
        let stats = CategoryStats::new();
        let held = vec![(ALIGN, 6)];
        let mut p = HtaPolicy::new(HtaConfig::default());
        // Unknown category under probe → no demand yet (warm-up collects
        // statistics before provisioning).
        let (action, _) = p.decide(&ctx(&q, &stats, &held, 0));
        assert_eq!(action, ScaleAction::None);
    }

    #[test]
    fn hta_counts_measured_held_jobs_as_demand() {
        use hta_workqueue::task::Measured;
        let q = empty_queue();
        let mut stats = CategoryStats::new();
        stats.observe(
            ALIGN,
            Measured {
                peak: Resources::cores(1, 2_000, 2_000),
                wall: Duration::from_secs(60),
            },
        );
        let held = vec![(ALIGN, 6)];
        let mut p = HtaPolicy::new(HtaConfig::default());
        // 6 measured 1-core jobs pack into 2 three-core workers.
        let (action, _) = p.decide(&ctx(&q, &stats, &held, 0));
        assert_eq!(action, ScaleAction::CreateWorkers(2));
    }

    #[test]
    fn hta_drains_idle_pool_even_during_probe() {
        // Draining while a probe runs is safe here: nodes stay warm for
        // the idle timeout and images are cached, so re-creating workers
        // after the probe completes costs seconds, not an init cycle.
        let mut q = empty_queue();
        q.workers = idle_workers(4);
        let stats = CategoryStats::new();
        let held = vec![(STAGE2, 33)];
        let mut p = HtaPolicy::new(HtaConfig::default());
        let (action, _) = p.decide(&ctx(&q, &stats, &held, 4));
        assert_eq!(action, ScaleAction::DrainWorkers(4));
    }

    #[test]
    fn hta_drains_on_idle_pool() {
        let mut q = empty_queue();
        q.workers = idle_workers(4);
        // One waiting task too big for the aggregate → idle forever.
        q.waiting = vec![WaitingSnapshot {
            id: TaskId(0),
            cat: STAGE2,
            declared: Some(Resources::new(1000, 80_000, 0)),
        }];
        let stats = CategoryStats::new();
        let mut p = HtaPolicy::new(HtaConfig::default());
        let (action, _) = p.decide(&ctx(&q, &stats, &[], 4));
        assert_eq!(action, ScaleAction::DrainWorkers(4));
    }

    #[test]
    fn hta_cleanup_drains_everything() {
        let q = empty_queue();
        let stats = CategoryStats::new();
        let mut p = HtaPolicy::new(HtaConfig::default());
        let mut c = ctx(&q, &stats, &[], 7);
        c.workload_done = true;
        let (action, _) = p.decide(&c);
        assert_eq!(action, ScaleAction::DrainWorkers(7));
        assert_eq!(p.desired(), 0);
    }

    #[test]
    fn hta_pending_pods_prevent_double_provisioning() {
        let q = waiting_queue(9, Some(Resources::cores(1, 2_000, 2_000)));
        let stats = CategoryStats::new();
        let mut c = ctx(&q, &stats, &[], 3);
        c.pending_worker_pods = 3;
        let mut p = HtaPolicy::new(HtaConfig::default());
        // 3 pending workers × 3 cores absorb the 9 one-core tasks.
        let (action, _) = p.decide(&c);
        assert_eq!(action, ScaleAction::None);
    }

    #[test]
    fn hpa_policy_scales_and_kills() {
        let q = empty_queue();
        let stats = CategoryStats::new();
        let mut p = HpaPolicy::new(0.5, 1, 15);
        assert_eq!(p.name(), "HPA(50% CPU)");
        let mut c = ctx(&q, &stats, &[], 3);
        c.utilization = Some(0.9);
        let (action, next) = p.decide(&c);
        assert_eq!(action, ScaleAction::CreateWorkers(3), "3 → ceil(3×1.8)=6");
        assert_eq!(next, Duration::from_secs(15));
        assert_eq!(p.desired(), 6);
        // Low utilization after the stabilization window → kill.
        let mut c2 = ctx(&q, &stats, &[], 6);
        c2.now = SimTime::from_secs(500);
        c2.utilization = Some(0.05);
        let (action, _) = p.decide(&c2);
        assert!(matches!(action, ScaleAction::KillWorkers(_)));
    }

    #[test]
    fn fixed_policy_tops_up_then_holds() {
        let q = empty_queue();
        let stats = CategoryStats::new();
        let mut p = FixedPolicy::new(5);
        let (action, _) = p.decide(&ctx(&q, &stats, &[], 2));
        assert_eq!(action, ScaleAction::CreateWorkers(3));
        let (action, _) = p.decide(&ctx(&q, &stats, &[], 5));
        assert_eq!(action, ScaleAction::None);
        assert_eq!(p.desired(), 5);
    }
}
