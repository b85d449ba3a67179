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
use hta_des::{CategoryId, Duration, SimTime};
use hta_resources::Resources;
use hta_workqueue::{QueueView, RunningSnapshot};

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
    /// Work Queue state (waiting/running/workers), borrowed from the
    /// master. Its interner resolves the ids in it and in `held_jobs`
    /// back to names at output boundaries.
    pub queue: QueueView<'a>,
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

        // Ascending task id: the per-worker capacity model packs
        // first-fit, so the order decides the estimate.
        let mut on_workers: Vec<RunningSnapshot> = ctx.queue.running().collect();
        on_workers.sort_unstable_by_key(|r| r.id);
        let running: Vec<RunningTask> = on_workers
            .iter()
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

        // The head of the queue enters Algorithm 1's simulation.
        let mut head: Vec<(CategoryId, Option<Resources>)> = Vec::new();
        let mut waiting: Vec<WaitingTask> = ctx
            .queue
            .waiting()
            .take(ESTIMATOR_QUEUE_CAP)
            .map(|w| {
                head.push((w.cat, w.declared));
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
        // estimator can size scale-up for them arithmetically. The groups
        // are the demand histogram minus the head, so a policy tick costs
        // O(cap + distinct), not a walk of the whole backlog; the
        // estimator only sums them, so their order does not matter.
        let mut overflow: Vec<(Resources, usize)> = Vec::new();
        for &(cat, declared, count) in ctx.queue.waiting_demand() {
            let tail = count - head.iter().filter(|h| **h == (cat, declared)).count();
            if tail == 0 {
                continue;
            }
            let resources = declared
                .or(stats.estimate(cat).map(|e| e.resources))
                .unwrap_or(ctx.worker_unit);
            match overflow.iter_mut().find(|(r, _)| *r == resources) {
                Some((_, n)) => *n += tail,
                None => overflow.push((resources, tail)),
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
            .workers()
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

/// Test fixture shared by the policy tests: a real master built through
/// its public API, so a policy reads the queue the way the driver hands
/// it over.
#[cfg(test)]
pub(crate) mod testkit {
    use hta_des::{CategoryId, Duration, EffectSink, SimTime};
    use hta_resources::Resources;
    use hta_workqueue::{ExecModel, FileCatalog, Master, MasterConfig, TaskId, TaskSpec};

    /// A master that interns `categories` (ids in order), then queues
    /// `count` tasks per `(category, declared, count)` group and connects
    /// one worker per entry of `workers`. Connecting dispatches, so only
    /// tasks that fit no worker stay waiting.
    pub(crate) fn master(
        categories: &[&str],
        waiting: &[(CategoryId, Option<Resources>, usize)],
        workers: &[Resources],
    ) -> Master {
        let mut m = Master::new(MasterConfig::default(), FileCatalog::new());
        for name in categories {
            m.intern_category(name);
        }
        let mut fx = EffectSink::new();
        let mut id = 0;
        for &(cat, declared, count) in waiting {
            for _ in 0..count {
                let spec = TaskSpec {
                    id: TaskId(id),
                    cat,
                    inputs: Vec::new(),
                    output_mb: 0.0,
                    declared,
                    actual: Resources::cores(1, 1_000, 1_000),
                    exec: ExecModel::cpu_bound(Duration::from_secs(60)),
                };
                m.submit(SimTime::ZERO, spec, &mut fx);
                id += 1;
            }
        }
        for &capacity in workers {
            m.worker_connect(SimTime::ZERO, capacity, &mut fx);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::master;
    use super::*;
    use hta_workqueue::Master;

    const ALIGN: CategoryId = CategoryId::from_u32(0);
    const STAGE2: CategoryId = CategoryId::from_u32(1);
    const NAMES: &[&str] = &["align", "stage2"];

    fn worker_unit() -> Resources {
        Resources::cores(3, 12_000, 50_000)
    }

    fn empty_queue() -> Master {
        master(NAMES, &[], &[])
    }

    fn ctx<'a>(
        queue: &'a Master,
        stats: &'a CategoryStats,
        held: &'a [(CategoryId, usize)],
        live: usize,
    ) -> PolicyContext<'a> {
        PolicyContext {
            now: SimTime::from_secs(100),
            queue: queue.view(),
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

    fn waiting_queue(n: usize, declared: Option<Resources>) -> Master {
        master(NAMES, &[(ALIGN, declared, n)], &[])
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
    fn overflow_groups_are_the_tail_past_the_cap() {
        let one = Some(Resources::cores(1, 2_000, 2_000));
        let two = Resources::cores(2, 2_000, 2_000);
        // The cap falls inside the STAGE2 run: 324 of its 500 tasks are
        // in the head, 176 in the tail, beside all 200 two-core tasks.
        let q = master(
            NAMES,
            &[
                (ALIGN, one, 700),
                (STAGE2, None, 500),
                (ALIGN, Some(two), 200),
            ],
            &[],
        );
        let stats = CategoryStats::new();
        let c = ctx(&q, &stats, &[], 0);
        let input = HtaPolicy::new(HtaConfig::default()).build_input(&c);
        assert_eq!(input.waiting.len(), ESTIMATOR_QUEUE_CAP);
        let mut overflow = input.overflow;
        overflow.sort_by_key(|(r, _)| r.millicores);
        // Reference: one walk of the tail, grouped by planned requirement.
        let mut walked: Vec<(Resources, usize)> = Vec::new();
        for w in c.queue.waiting().skip(ESTIMATOR_QUEUE_CAP) {
            let r = w.declared.unwrap_or(worker_unit());
            match walked.iter_mut().find(|(g, _)| *g == r) {
                Some((_, n)) => *n += 1,
                None => walked.push((r, 1)),
            }
        }
        walked.sort_by_key(|(r, _)| r.millicores);
        assert_eq!(overflow, walked);
        assert_eq!(overflow, [(two, 200), (worker_unit(), 176)]);
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
        let q = master(NAMES, &[], &[worker_unit(); 4]);
        let stats = CategoryStats::new();
        let held = vec![(STAGE2, 33)];
        let mut p = HtaPolicy::new(HtaConfig::default());
        let (action, _) = p.decide(&ctx(&q, &stats, &held, 4));
        assert_eq!(action, ScaleAction::DrainWorkers(4));
    }

    #[test]
    fn hta_drains_on_idle_pool() {
        // One waiting task too big for the aggregate → idle forever.
        let big = Some(Resources::new(1000, 80_000, 0));
        let q = master(NAMES, &[(STAGE2, big, 1)], &[worker_unit(); 4]);
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
