//! The end-to-end system driver.
//!
//! Wires the four components of the paper's stack — the Kubernetes-like
//! cluster simulator, the Work Queue master, the Makeflow workflow (via
//! the operator) and a scaling policy — into one deterministic event
//! loop, and records the evaluation metrics (supply, in-use, shortage,
//! waste, pod counts, bandwidth, utilization) the figures are built from.
//!
//! Plumbing between components follows the paper's architecture (Fig. 8):
//!
//! * the **informer** stream from the cluster feeds HTA's init-time
//!   tracker and tells the driver when worker pods come up (worker
//!   connects to the master) or are evicted (worker killed, tasks
//!   re-queued);
//! * Work Queue **notifications** feed the operator (task completions →
//!   category statistics → DAG progress) and the cluster (drained workers
//!   exit → pod `Succeeded`);
//! * the **policy** is evaluated on its own cadence and its actions are
//!   translated into pod creations, graceful drains, or evictions.
//!
//! # Layout
//!
//! This file holds the public types, construction, the public run API,
//! `finalize` and the small helpers every stage shares. Every other job
//! is a private child module:
//!
//! * `event_loop` — bootstrap, pop-and-dispatch and the pump: informer
//!   events, Work Queue notifications, exit spans and the
//!   workload-resolved transition;
//! * `recovery` — control-plane crash recovery: the checkpoint, the
//!   write-ahead log (`WalRecord` and its one append), the crash and
//!   the restart's reconciliation pass with WAL replay;
//! * `scaling` — the policy slot, the policy tick, its actions (pod
//!   creations, drains and evictions), node-failure injection and the
//!   cleanup stage;
//! * `history` — the metric sampler, the laggy metrics pipeline, task
//!   spans and what-if rollouts.
//!
//! The driver is two parts: a `World`, everything the run simulates,
//! and a `PolicySlot`, the scaling policy. The event loop runs on the
//! world and reaches the policy only through the slot it is handed, so
//! a what-if rollout can fork the world alone, run it under a hold
//! slot, and run beside the other rollouts of its decision on another
//! thread.

use hta_cluster::objects::StatefulSet;
use hta_cluster::{Cluster, ClusterConfig, ClusterEvent, ImageId, PodId, PodSpec, WatchEvent};
use hta_des::trace::TraceRing;
use hta_des::{
    CategoryId, DigestConfig, DigestReport, Duration, EffectSink, EventDigest, EventQueue, Salt,
    SimTime, SnapshotState,
};
use hta_makeflow::Workflow;
use hta_metrics::{FaultSummary, RunRecorder, RunSummary, StepIntegral, TaskSpan};
use hta_resources::Resources;
use hta_trace::{ArrivalSource, ArrivalStats};
use hta_workqueue::master::{Master, MasterConfig, WqEvent, WqNotification};
use hta_workqueue::WorkerId;
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::fault::FaultPlan;
use crate::init_time::InitTimeTracker;
use crate::operator::{Operator, OperatorConfig};
use crate::policy::ScalingPolicy;

mod event_loop;
mod history;
mod recovery;
mod scaling;

use history::{FullHistory, History, Span};
pub use recovery::RecoveryReport;
pub(crate) use recovery::WalRecord;
use recovery::{ControlPlaneState, RecoveryState};
use scaling::PolicySlot;

/// The worker-pod group label.
pub const WORKER_GROUP: &str = "wq-worker";
/// The master-pod group label.
pub const MASTER_GROUP: &str = "wq-master";

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Cluster simulator configuration.
    pub cluster: ClusterConfig,
    /// Master (egress link) configuration.
    pub master: MasterConfig,
    /// Operator behaviour (warm-up, declared-resource trust).
    pub operator: OperatorConfig,
    /// Worker pod resource request (§IV-A: node-sized for HTA).
    pub worker_request: Resources,
    /// Worker container image size (MB) — drives pull time.
    pub worker_image_mb: f64,
    /// Run the master as a StatefulSet pod in the cluster (§V-A) or
    /// outside it (the §III/IV micro-benchmarks).
    pub master_in_cluster: bool,
    /// Master pod resource request (when in cluster).
    pub master_request: Resources,
    /// Worker pods created as soon as the master is up (HTA's warm-up
    /// starts with the 3 bootstrap nodes; HPA starts at its minimum).
    pub initial_workers: usize,
    /// Hard cap on worker pods.
    pub max_workers: usize,
    /// Metric sampling interval.
    pub sample_interval: Duration,
    /// Default resource-initialization time before the first measurement.
    pub default_init_time: Duration,
    /// Feed measured initialization times to the policy (true, normal
    /// HTA) or always hand it `default_init_time` (false — the
    /// frozen-init-time ablation).
    pub use_measured_init_time: bool,
    /// The unified fault-injection plan. When active it is distributed
    /// into the cluster and master fault configs by [`SystemDriver::new`],
    /// and its node crash times are scheduled at start; when inactive
    /// (the default) the sub-configs keep whatever fault knobs were set
    /// on them directly.
    pub faults: FaultPlan,
    /// Keep the most recent N trace entries (scaling decisions, pod and
    /// workload transitions). 0 disables tracing.
    pub trace_capacity: usize,
    /// Metrics-pipeline staleness: the utilization the HPA reads is this
    /// old (Kubernetes 1.13's metrics-server scraped at 60 s resolution,
    /// so autoscaling decisions lag the workload — one of the mechanisms
    /// behind the paper's slow Fig. 2 ramps). Zero = instant metrics.
    pub metrics_lag: Duration,
    /// Safety cut-off for the simulation.
    pub max_sim_time: Duration,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            cluster: ClusterConfig::default(),
            master: MasterConfig::default(),
            operator: OperatorConfig::default(),
            worker_request: Resources::cores(3, 12_000, 50_000),
            worker_image_mb: 500.0,
            master_in_cluster: true,
            master_request: Resources::new(1000, 4_000, 20_000),
            initial_workers: 3,
            max_workers: 20,
            sample_interval: Duration::from_secs(1),
            default_init_time: Duration::from_millis(157_400),
            use_measured_init_time: true,
            faults: FaultPlan::default(),
            trace_capacity: 0,
            metrics_lag: Duration::from_secs(60),
            max_sim_time: Duration::from_secs(200_000),
        }
    }
}

/// Everything a finished run reports.
#[derive(Debug)]
pub struct RunResult {
    /// Policy label.
    pub label: String,
    /// The full metric series.
    pub recorder: RunRecorder,
    /// The paper-style summary row.
    pub summary: RunSummary,
    /// Workload makespan (first submission → last completion), seconds.
    pub makespan_s: f64,
    /// Full-cycle initialization measurements taken during the run.
    pub init_measurements: Vec<Duration>,
    /// Total simulation events processed.
    pub events: u64,
    /// True if the run hit the safety cut-off before completing.
    pub timed_out: bool,
    /// Tasks that were interrupted (re-queued) at least once.
    pub interrupted_tasks: u64,
    /// Node failures injected during the run.
    pub failures_injected: u64,
    /// Task-layer fault counters (retries, OOM kills, speculation…).
    pub task_faults: hta_workqueue::TaskFaultStats,
    /// Cluster-layer fault counters (pull retries, flaky nodes).
    pub cluster_faults: hta_cluster::ClusterFaultStats,
    /// Workflow jobs that permanently failed / were abandoned.
    pub jobs_failed: usize,
    /// Workflow jobs abandoned because a dependency failed.
    pub jobs_abandoned: usize,
    /// The retained trace tail (empty when tracing was disabled).
    pub trace: TraceRing,
    /// Per-task lifecycle spans (submission/start/exit), in task-id
    /// order, for Gantt rendering and post-run analysis. A workflow run
    /// lists every submitted task; a traced run lists only the tasks
    /// still live at the end (its finished tasks would grow with the
    /// trace).
    pub task_spans: Vec<TaskSpan>,
    /// Event-stream digest, present when the run was started with
    /// [`SystemDriver::with_digest`] (the `perf --paranoid` double-run
    /// divergence hunter).
    pub digest: Option<DigestReport>,
    /// One report per control-plane crash survived (empty unless
    /// [`ControlPlaneFaults`](crate::fault::ControlPlaneFaults) were active).
    pub recoveries: Vec<RecoveryReport>,
    /// Open-loop arrival-stream summary (None for workflow-driven runs).
    pub arrivals: Option<ArrivalStats>,
    /// Tasks completed, by counter — includes a traced run's tasks,
    /// which never appear in `task_spans`.
    pub completed: usize,
    /// Order-insensitive digest over the completed task ids (see
    /// [`Master::completed_digest`]): the completion-set identity that
    /// crash-equivalence checks compare.
    pub completed_digest: u64,
}

/// Global event type.
#[derive(Debug, Clone, Copy)]
enum Event {
    Cluster(ClusterEvent),
    /// A Work Queue event tagged with the master incarnation that
    /// scheduled it. A control-plane crash bumps the incarnation, so every
    /// in-flight master↔worker message addresses a dead master and is
    /// dropped on delivery — the lost-dispatch semantics of a real crash.
    /// Normal (fault-free) runs only ever see incarnation 0.
    Wq(u64, WqEvent),
    PolicyTick,
    Sample,
    /// Failure injection: crash a node hosting a running worker.
    FailWorkerNode,
    /// Periodic control-plane checkpoint tick (scheduled only when
    /// control-plane faults are active — normal runs never see it).
    CheckpointTick,
    /// Failure injection: kill the control plane (master + operator +
    /// policy) at a seeded instant.
    CrashControlPlane,
    /// The control plane comes back after its configured outage and runs
    /// the deterministic reconciliation pass.
    RestartControlPlane,
    /// Wake-up for the open-loop arrival pump, tagged with the master
    /// incarnation that armed it (a crash bumps the incarnation, so a
    /// wake armed before the crash is dropped and the restart pass
    /// re-arms its own). At most one wake is outstanding per incarnation.
    TraceArrival(u64),
}

/// The driver.
///
/// `Clone` is the checkpoint operation of the what-if subsystem: a clone
/// is a fully independent copy of the entire system state (event queue,
/// master, cluster, operator, policy, metrics). Mutable state is copied;
/// inputs that are fixed once the run is built (the workflow graph, the
/// file catalogue, the metrics history until one side samples) are shared
/// behind `Arc`. See [`SystemDriver::fork_branch`] for the
/// RNG-partitioned fork used by counterfactual rollouts.
#[derive(Clone)]
pub struct SystemDriver {
    world: World,
    policy: PolicySlot,
}

/// Everything a run simulates except the scaling policy, which the
/// event loop is handed as a [`PolicySlot`]. A what-if rollout forks
/// only this, so the rollouts of one decision can run on scoped threads
/// from one shared `&World`.
#[derive(Clone)]
struct World {
    cfg: DriverConfig,
    cluster: Cluster,
    /// The master, operator, init-time tracker and trace cursor: what a
    /// control-plane checkpoint copies and a restart restores, whole.
    cp: ControlPlaneState,
    history: History,
    queue: EventQueue<Event>,
    worker_image: ImageId,
    master_image: ImageId,
    pod_to_worker: BTreeMap<PodId, WorkerId>,
    worker_to_pod: BTreeMap<WorkerId, PodId>,
    master_pod: Option<PodId>,
    /// The §V-A deployment object: the master runs in a single-replica
    /// StatefulSet (sticky identity + persistent volume for intermediate
    /// data).
    master_set: StatefulSet,
    master_ready: bool,
    initial_workers_created: bool,
    workload_finished_at: Option<SimTime>,
    cleanup_started: bool,
    interrupted: u64,
    failures_injected: u64,
    /// Open recovery watches: `(crash time, worker count to get back to,
    /// dip seen)` for each injected node crash. A watch arms once the
    /// connected pool actually dips below its pre-crash size and resolves
    /// at the first sample where it is back.
    recovery_watches: Vec<(SimTime, usize, bool)>,
    /// Resolved time-to-recover values (seconds).
    recovery_times: Vec<f64>,
    trace: TraceRing,
    seen_categories: std::collections::BTreeSet<CategoryId>,
    /// `(sampled_at, diluted utilization)` ring for the metrics-pipeline
    /// lag; newest at the back.
    util_history: std::collections::VecDeque<(SimTime, Option<f64>)>,
    /// Reusable effect buffer between the master and the event queue —
    /// steady-state Work Queue dispatch allocates nothing.
    wq_sink: EffectSink<WqEvent>,
    /// Reusable effect buffer between the cluster and the event queue.
    cluster_sink: EffectSink<ClusterEvent>,
    /// Reusable pod-id buffer for the cleanup / scale-down paths.
    pod_scratch: Vec<PodId>,
    /// Reusable buffers the pump trades for the cluster's informer
    /// buffer and the master's notification buffer.
    watch_scratch: Vec<WatchEvent>,
    note_scratch: Vec<WqNotification>,
    /// Reusable label buffer for per-category metric names.
    label_buf: String,
    /// Reusable per-category running-task counts, indexed by
    /// [`CategoryId`]. Re-zeroed every sample.
    per_cat_counts: Vec<u32>,
    /// Event-stream digest (None in normal runs — recording formats every
    /// event, which is far too slow for the measured hot path).
    digest: Option<EventDigest>,
    /// True once [`SystemDriver::start_once`] has bootstrapped the run.
    started: bool,
    /// Master incarnation: bumped on every control-plane crash so stale
    /// in-flight [`Event::Wq`] messages are dropped. Always 0 in normal
    /// runs.
    incarnation: u64,
    /// Crash-recovery machinery (None unless control-plane faults are
    /// active).
    recovery: Option<RecoveryState>,
}

/// What-if rollouts share one `&World` across threads: a field that is
/// not `Send + Sync` (an `Rc`, a boxed policy) fails to compile here.
/// The two per-task types that grow with load carry byte budgets: a
/// field that re-inflates the master's task record (one per waiting
/// task) or a WAL record (one per decision between checkpoints) fails
/// the build too. So does a recovery state that holds its checkpoint by
/// value again (a whole control plane inline in every world and fork).
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<World>();
    assert!(size_of::<hta_workqueue::TaskRecord>() <= 96);
    assert!(size_of::<WalRecord>() <= 32);
    assert!(size_of::<RecoveryState>() <= 160);
};

impl SystemDriver {
    /// Build a driver over a workflow with the given policy.
    pub fn new(mut cfg: DriverConfig, workflow: Workflow, policy: Box<dyn ScalingPolicy>) -> Self {
        if cfg.faults.is_active() {
            let plan = cfg.faults.clone();
            plan.apply(&mut cfg.cluster, &mut cfg.master);
        }
        let mut cluster = Cluster::new(cfg.cluster.clone());
        let worker_image = cluster
            .registry_mut()
            .register("wq-worker:latest", cfg.worker_image_mb);
        let master_image = cluster.registry_mut().register("wq-master:latest", 300.0);
        let mut master = Master::new(cfg.master.clone(), hta_workqueue::FileCatalog::new());
        let mut operator = Operator::new(cfg.operator.clone(), workflow, &mut master);
        let recovery = if cfg.faults.control_plane.is_active() {
            // The checkpoint tick re-arms itself one interval later: at a
            // zero interval simulated time would never move again.
            assert!(
                !cfg.faults.control_plane.checkpoint_interval.is_zero(),
                "ControlPlaneFaults::checkpoint_interval must be positive when control-plane \
                 faults are active"
            );
            // Every control-plane decision from the very first submission
            // must be durably logged, so recording starts before bootstrap.
            operator.record_wal(true);
            Some(RecoveryState::new(cfg.faults.control_plane.clone()))
        } else {
            None
        };
        let tracker = InitTimeTracker::new(cfg.default_init_time);
        let trace = if cfg.trace_capacity > 0 {
            TraceRing::new(cfg.trace_capacity)
        } else {
            TraceRing::disabled()
        };
        SystemDriver {
            world: World {
                cfg,
                cluster,
                cp: ControlPlaneState {
                    master,
                    operator,
                    tracker,
                    arrivals: None,
                },
                history: History::Full {
                    recorded: Arc::default(),
                    supply: StepIntegral::default(),
                },
                queue: EventQueue::new(),
                worker_image,
                master_image,
                pod_to_worker: BTreeMap::new(),
                worker_to_pod: BTreeMap::new(),
                master_pod: None,
                master_set: StatefulSet::new(MASTER_GROUP, 1, 50_000),
                master_ready: false,
                initial_workers_created: false,
                workload_finished_at: None,
                cleanup_started: false,
                interrupted: 0,
                failures_injected: 0,
                recovery_watches: Vec::new(),
                recovery_times: Vec::new(),
                trace,
                seen_categories: std::collections::BTreeSet::new(),
                util_history: std::collections::VecDeque::new(),
                wq_sink: EffectSink::with_capacity(16),
                cluster_sink: EffectSink::new(),
                pod_scratch: Vec::new(),
                watch_scratch: Vec::new(),
                note_scratch: Vec::new(),
                label_buf: String::new(),
                per_cat_counts: Vec::new(),
                digest: None,
                started: false,
                incarnation: 0,
                recovery,
            },
            policy: PolicySlot::new(policy),
        }
    }

    /// Build a driver over an open-loop arrival trace instead of a
    /// workflow: tasks enter the system when the trace says they arrive,
    /// not when a DAG unblocks them. The master keeps only in-flight
    /// tasks and the driver records no finished task's span, so memory
    /// tracks *in-flight* tasks rather than the full trace length — the
    /// invariant that makes million-task traces runnable. The source's
    /// category table is interned here, in table order, before the first
    /// arrival: the ids its specs carry are in every checkpoint.
    pub fn new_traced(
        cfg: DriverConfig,
        source: ArrivalSource,
        policy: Box<dyn ScalingPolicy>,
    ) -> Self {
        let workflow =
            Workflow::from_jobs(Vec::new(), Vec::new()).expect("empty workflow is a valid DAG");
        let mut driver = SystemDriver::new(cfg, workflow, policy);
        for (i, name) in source.categories().enumerate() {
            let id = driver.world.cp.master.intern_category(name);
            assert_eq!(id.index(), i, "trace table interned out of order");
        }
        driver.world.cp.arrivals = Some(source);
        driver
    }

    /// Record an event-stream digest during the run (see
    /// [`RunResult::digest`]). Costs a `Debug` format per event — use for
    /// divergence hunting, never for timed runs.
    pub fn with_digest(mut self, cfg: DigestConfig) -> Self {
        self.world.digest = Some(EventDigest::new(cfg));
        self
    }

    /// Checkpoint the full system state and fork an independent branch.
    ///
    /// The branch is a clone (copied mutable state, shared immutable
    /// inputs); salt `0` keeps the parent's RNG streams (exact replay of
    /// the parent's own future), any other salt re-partitions every
    /// stream via [`SnapshotState::reseed`] for an independent
    /// stochastic future. Forking never mutates the parent —
    /// same-seed parent runs stay bitwise identical whether or not they
    /// were forked (enforced by the fork-determinism property tests).
    ///
    /// The branch never inherits the parent's event digest: digests
    /// describe exactly one run, and a branch is a different run.
    pub fn fork_branch(&self, salt: u64) -> SystemDriver {
        SystemDriver {
            world: self.world.fork_branch(salt),
            policy: self.policy.clone(),
        }
    }

    /// Run to completion (or the safety cut-off).
    pub fn run(self) -> RunResult {
        let SystemDriver {
            mut world,
            mut policy,
        } = self;
        world.start_once(&mut policy);
        let deadline = SimTime::ZERO + world.cfg.max_sim_time;
        let (timed_out, _) = world.run_loop(deadline, u64::MAX, &mut policy);
        world.finalize(timed_out, &policy)
    }

    /// Advance the run up to (and including) simulated time `until`,
    /// processing events exactly as [`SystemDriver::run`] would, then
    /// return with the driver mid-flight. Unlike the run loop's deadline
    /// cut-off this never discards an event: it only pops events whose
    /// timestamp is `≤ until`, so a run that is advanced in pieces and
    /// then finished with [`SystemDriver::run`] is event-for-event
    /// identical to one straight `run()` call.
    ///
    /// This is the decision-point hook for what-if tooling: advance to a
    /// moment of interest, interrogate the driver via
    /// [`WhatIf`](crate::whatif::WhatIf), then keep running. Returns true once the run is
    /// finished.
    pub fn advance_until(&mut self, until: SimTime) -> bool {
        let (world, policy) = (&mut self.world, &mut self.policy);
        world.start_once(policy);
        while world.queue.peek_time().is_some_and(|t| t <= until) {
            let Some((now, ev)) = world.queue.pop() else {
                break;
            };
            world.dispatch(now, ev, policy);
            if world.is_finished() {
                return true;
            }
        }
        world.is_finished()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.world.queue.now()
    }

    /// Live worker pods (pending + running), for
    /// introspection at a decision point.
    pub fn live_workers(&self) -> usize {
        self.world.live_worker_pods()
    }

    /// Tasks the master has completed so far, for introspection at a
    /// decision point (what-if branch deltas are measured against this).
    pub fn completed_tasks(&self) -> usize {
        self.world.cp.master.completed_count()
    }
}

impl World {
    /// A copy of this world with every RNG stream re-partitioned by
    /// `salt` (see [`SystemDriver::fork_branch`]) and no event digest.
    fn fork_branch(&self, salt: u64) -> World {
        let mut branch = SnapshotState::fork(self, salt);
        branch.digest = None;
        branch
    }

    /// Drain the reusable Work Queue effect sink into the global queue,
    /// tagging every message with the current master incarnation.
    fn flush_wq(&mut self) {
        for (d, e) in self.wq_sink.drain() {
            self.queue.schedule_in(d, Event::Wq(self.incarnation, e));
        }
    }

    /// Drain the reusable cluster effect sink into the global queue.
    fn flush_cluster(&mut self) {
        for (d, e) in self.cluster_sink.drain() {
            self.queue.schedule_in(d, Event::Cluster(e));
        }
    }

    /// True while the control plane is crashed (workers keep running; the
    /// master, operator, policy and init-time tracker are frozen).
    fn control_plane_down(&self) -> bool {
        self.recovery
            .as_ref()
            .is_some_and(|r| r.down_until.is_some())
    }

    fn worker_pod_spec(&self) -> PodSpec {
        PodSpec {
            request: self.cfg.worker_request,
            image: self.worker_image,
            group: WORKER_GROUP.into(),
        }
    }

    /// Live worker pods (pending + running).
    fn live_worker_pods(&self) -> usize {
        self.cluster.group_replicas(WORKER_GROUP)
    }

    /// Tear down into a [`RunResult`].
    fn finalize(mut self, timed_out: bool, policy: &PolicySlot) -> RunResult {
        // Final sample so the series reflect the drained end state (the
        // loop exits on pod events, which can land between sample ticks).
        let now = self.queue.now();
        self.sample(now, policy);
        let end = self.workload_finished_at.unwrap_or(now).as_secs_f64();
        let History::Full { recorded, .. } = self.history else {
            unreachable!("a what-if rollout never runs to the end");
        };
        let FullHistory {
            mut recorder,
            mut spans,
        } = Arc::unwrap_or_clone(recorded);
        recorder.finish(end);
        let label = policy.name();
        let mut summary = recorder.summary(label.clone());
        let task_faults = self.cp.master.fault_stats();
        let cluster_faults = self.cluster.fault_stats();
        let (jobs_failed, jobs_abandoned) = self.cp.operator.failure_counts();
        let (master_crashes, checkpoints_taken, recoveries) = match self.recovery.take() {
            Some(r) => (r.crashes, r.wal.truncations(), r.reports),
            None => (0, 0, Vec::new()),
        };
        summary.faults = FaultSummary {
            task_retries: task_faults.retries,
            transient_failures: task_faults.transient_failures,
            oom_kills: task_faults.oom_kills,
            permanent_failures: task_faults.permanent_failures,
            jobs_abandoned: jobs_abandoned as u64,
            speculative_launched: task_faults.speculative_launched,
            speculative_wins: task_faults.speculative_wins,
            wasted_core_s: task_faults.wasted_core_s,
            image_pull_retries: cluster_faults.image_pull_retries,
            image_pull_gaveups: cluster_faults.image_pull_gaveups,
            node_faults: self.failures_injected + cluster_faults.node_faults,
            mean_recovery_s: if self.recovery_times.is_empty() {
                0.0
            } else {
                self.recovery_times.iter().sum::<f64>() / self.recovery_times.len() as f64
            },
            master_crashes,
            recovery_requeued: recoveries.iter().map(|r| r.tasks_requeued as u64).sum(),
            outage_s: recoveries.iter().fold(0.0, |s, r| s + r.outage_s()),
            checkpoints_taken,
            wal_replayed: recoveries.iter().map(|r| r.wal_replayed as u64).sum(),
            msgs_dropped: self.cp.master.net_stats().dropped,
            msgs_duplicated: self.cp.master.net_stats().duplicated,
            msgs_reordered: self.cp.master.net_stats().reordered,
            leases_expired: self.cp.master.leases_expired(),
            zombies_fenced: self.cp.master.zombies_fenced(),
            partition_s: self
                .cp
                .master
                .net_config()
                .partition_seconds(Duration::from_secs_f64(end)),
        };
        // The tasks still live (a timed-out run) join the finished ones.
        spans.extend(self.cp.master.task_records().map(|r| Span {
            task: r.id(),
            cat: r.cat(),
            submitted_at: r.submitted_at(),
            started_at: r.started_at(),
            exited_at: None,
            interruptions: r.interruptions(),
        }));
        spans.sort_unstable_by_key(|s| s.task);
        let task_spans: Vec<TaskSpan> = spans
            .iter()
            .map(|s| TaskSpan {
                label: s.task.to_string(),
                category: self.cp.master.interner().name(s.cat).to_string(),
                submitted_s: s.submitted_at.as_secs_f64(),
                started_s: s.started_at.map(|t| t.as_secs_f64()),
                completed_s: s.exited_at.map(|t| t.as_secs_f64()),
                interruptions: s.interruptions,
            })
            .collect();
        let digest = self.digest.take().map(EventDigest::report);
        let arrivals = self.cp.arrivals.as_ref().map(ArrivalSource::stats);
        RunResult {
            label,
            digest,
            recoveries,
            arrivals,
            completed: self.cp.master.completed_count(),
            completed_digest: self.cp.master.completed_digest(),
            makespan_s: end,
            summary,
            init_measurements: self.cp.tracker.measurements().to_vec(),
            events: self.queue.delivered(),
            timed_out,
            interrupted_tasks: self.interrupted,
            failures_injected: self.failures_injected,
            task_faults,
            cluster_faults,
            jobs_failed,
            jobs_abandoned,
            trace: self.trace,
            task_spans,
            recorder,
        }
    }
}

impl SnapshotState for World {
    /// Re-partition every RNG stream in the system for a what-if branch.
    /// Each component gets its own positional stream, so the streams stay
    /// independent across (and within) branches.
    fn reseed(&mut self, salt: Salt) {
        let [cluster, master, operator, arrivals] = salt.streams();
        self.cluster.reseed(cluster);
        self.cp.master.reseed(master);
        self.cp.operator.reseed(operator);
        if let Some(a) = self.cp.arrivals.as_mut() {
            a.reseed(arrivals);
        }
    }
}

/// Fixtures shared by the driver's unit tests: every child module's
/// `tests` imports them with one glob.
#[cfg(test)]
mod testkit {
    pub(super) use super::*;
    pub(super) use crate::policy::{FixedPolicy, HpaPolicy, HtaConfig, HtaPolicy, ScaleAction};
    pub(super) use hta_cluster::MachineType;
    pub(super) use hta_makeflow::{CategoryProfile, Job, JobId, SimProfile};

    pub(super) fn tiny_workflow(n: u64) -> Workflow {
        let jobs: Vec<Job> = (0..n)
            .map(|i| Job {
                id: JobId(i),
                category: "align".into(),
                command: format!("blast {i}"),
                inputs: vec!["db".into()],
                outputs: vec![format!("out.{i}")],
            })
            .collect();
        let profile = CategoryProfile {
            name: "align".into(),
            declared: Some(Resources::cores(1, 2_000, 2_000)),
            sim: SimProfile {
                wall: Duration::from_secs(60),
                cpu_fraction: 0.9,
                actual: Resources::cores(1, 2_000, 2_000),
                output_mb: 0.6,
                wall_jitter: 0.0,
                heavy_tail: false,
            },
        };
        Workflow::from_jobs(jobs, vec![profile])
            .unwrap()
            .with_source_file("db", 100.0, true)
    }

    pub(super) fn small_cfg() -> DriverConfig {
        DriverConfig {
            cluster: ClusterConfig {
                machine: MachineType::custom("m4", Resources::cores(4, 16_000, 100_000)),
                min_nodes: 2,
                max_nodes: 6,
                node_provision_mean: Duration::from_secs(150),
                node_provision_sd: Duration::from_secs(2),
                controller_interval: Duration::from_secs(10),
                node_idle_timeout: Duration::from_secs(120),
                registry_bandwidth_mbps: 50.0,
                image_pull_jitter: 0.0,
                pod_start_delay: Duration::from_secs(1),
                preemption_mean_lifetime: None,
                faults: Default::default(),
                seed: 11,
            },
            master: MasterConfig {
                egress_base_mbps: 200.0,
                egress_overhead_per_flow: 0.0,
                peer_transfers: false,
                peer_bandwidth_mbps: 2_000.0,
                faults: Default::default(),
                net: Default::default(),
            },
            operator: OperatorConfig {
                warmup: false,
                trust_declared: true,
                learn: true,
                seed: 1,
            },
            worker_request: Resources::cores(3, 12_000, 50_000),
            worker_image_mb: 250.0,
            master_in_cluster: true,
            master_request: Resources::new(1000, 2_000, 5_000),
            initial_workers: 2,
            max_workers: 6,
            sample_interval: Duration::from_secs(1),
            default_init_time: Duration::from_secs(157),
            use_measured_init_time: true,
            faults: FaultPlan::default(),
            trace_capacity: 0,
            metrics_lag: Duration::ZERO,
            max_sim_time: Duration::from_secs(20_000),
        }
    }

    /// A chain of `n` 10 s jobs: each reads the previous job's output.
    pub(super) fn chain_workflow(n: u64) -> Workflow {
        let jobs: Vec<Job> = (0..n)
            .map(|i| Job {
                id: JobId(i),
                category: "align".into(),
                command: format!("step {i}"),
                inputs: vec![match i {
                    0 => "db".into(),
                    _ => format!("out.{}", i - 1),
                }],
                outputs: vec![format!("out.{i}")],
            })
            .collect();
        let profile = CategoryProfile {
            name: "align".into(),
            declared: Some(Resources::cores(1, 2_000, 2_000)),
            sim: SimProfile {
                wall: Duration::from_secs(10),
                cpu_fraction: 0.9,
                actual: Resources::cores(1, 2_000, 2_000),
                output_mb: 0.6,
                wall_jitter: 0.0,
                heavy_tail: false,
            },
        };
        Workflow::from_jobs(jobs, vec![profile])
            .unwrap()
            .with_source_file("db", 100.0, true)
    }

    impl SystemDriver {
        /// Deliver one popped event under the driver's policy, as the
        /// run loop does.
        pub(super) fn dispatch(&mut self, now: SimTime, ev: Event) {
            self.world.dispatch(now, ev, &mut self.policy);
        }
    }

    pub(super) fn traced_driver(spec: &str, seed: u64, pool: usize) -> SystemDriver {
        let source = ArrivalSource::synth(spec, seed).expect("valid trace spec");
        SystemDriver::new_traced(small_cfg(), source, Box::new(FixedPolicy::new(pool)))
    }

    /// A Fig. 10-shaped workflow: one split job fans out to `n` align
    /// jobs, and one reduce job waits for all of them.
    pub(super) fn staged_workflow(n: u64) -> Workflow {
        let mut jobs = vec![Job {
            id: JobId(0),
            category: "split".into(),
            command: "split".into(),
            inputs: vec!["query".into()],
            outputs: (0..n).map(|i| format!("part.{i}")).collect(),
        }];
        jobs.extend((0..n).map(|i| Job {
            id: JobId(i + 1),
            category: "align".into(),
            command: format!("blast {i}"),
            inputs: vec!["db".into(), format!("part.{i}")],
            outputs: vec![format!("out.{i}")],
        }));
        jobs.push(Job {
            id: JobId(n + 1),
            category: "reduce".into(),
            command: "cat".into(),
            inputs: (0..n).map(|i| format!("out.{i}")).collect(),
            outputs: vec!["result".into()],
        });
        let profile = |name: &str, wall: u64| CategoryProfile {
            name: name.into(),
            declared: Some(Resources::cores(1, 2_000, 2_000)),
            sim: SimProfile {
                wall: Duration::from_secs(wall),
                cpu_fraction: 0.9,
                actual: Resources::cores(1, 2_000, 2_000),
                output_mb: 0.6,
                wall_jitter: 0.2,
                heavy_tail: false,
            },
        };
        Workflow::from_jobs(
            jobs,
            vec![
                profile("split", 30),
                profile("align", 90),
                profile("reduce", 20),
            ],
        )
        .unwrap()
        .with_source_file("db", 100.0, true)
        .with_source_file("query", 5.0, false)
    }

    /// The staged workflow with node crashes mid-run (so recovery watches
    /// are open at some forks) and a laggy metrics pipeline (so policy
    /// ticks inside a branch read `util_history`).
    pub(super) fn fig10_driver(policy: Box<dyn ScalingPolicy>) -> SystemDriver {
        let mut cfg = small_cfg();
        cfg.faults.node_crash_times = vec![Duration::from_secs(250), Duration::from_secs(420)];
        cfg.metrics_lag = Duration::from_secs(30);
        SystemDriver::new(cfg, staged_workflow(60), policy)
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::*;

    #[test]
    fn digest_is_identical_across_same_seed_runs() {
        let run = |capture| {
            SystemDriver::new(small_cfg(), tiny_workflow(8), Box::new(FixedPolicy::new(2)))
                .with_digest(DigestConfig {
                    checkpoint_every: 64,
                    capture,
                })
                .run()
        };
        let a = run(None).digest.expect("digest recorded");
        let b = run(None).digest.expect("digest recorded");
        assert!(a.events > 0);
        assert!(!a.checkpoints.is_empty(), "run long enough to checkpoint");
        assert!(a.matches(&b));
        assert_eq!(a.first_divergence(&b), None);
        // A capture window re-runs to the exact same event stream.
        let c = run(Some((0, 16))).digest.expect("digest recorded");
        assert_eq!(c.captured.len(), 16);
        assert!(a.matches(&c), "capturing must not perturb the run");
    }

    #[test]
    fn forks_share_the_immutable_run_inputs() {
        let mut parent = fig10_driver(Box::new(FixedPolicy::new(3)));
        parent.advance_until(SimTime::from_secs(120));
        let fork = parent.fork_branch(1);
        let ((parent_dag, parent_jobs), (fork_dag, fork_jobs)) = (
            parent.world.cp.operator.shared_inputs(),
            fork.world.cp.operator.shared_inputs(),
        );
        assert!(
            Arc::ptr_eq(parent_jobs, fork_jobs),
            "one operator job table"
        );
        assert_eq!(
            parent_dag.job(JobId(3)).unwrap() as *const Job,
            fork_dag.job(JobId(3)).unwrap() as *const Job,
            "one DAG graph"
        );
        let db = |d: &SystemDriver| {
            d.world
                .cp
                .master
                .catalog()
                .get(hta_workqueue::FileId(0))
                .unwrap() as *const hta_workqueue::FileSpec
        };
        assert_eq!(db(&parent), db(&fork), "one file catalogue");
        let (History::Full { recorded: a, .. }, History::Full { recorded: b, .. }) =
            (&parent.world.history, &fork.world.history)
        else {
            panic!("a plain fork keeps the full history");
        };
        assert!(
            Arc::ptr_eq(a, b),
            "history is shared until one side samples"
        );
        // The fork's first sample copies the history; the parent's stays.
        let mut fork = fork;
        let parent_len = a.recorder.supply.len();
        fork.advance_until(SimTime::from_secs(130));
        let History::Full { recorded: b, .. } = &fork.world.history else {
            unreachable!()
        };
        assert!(!Arc::ptr_eq(a, b));
        assert!(b.recorder.supply.len() > parent_len);
        assert_eq!(a.recorder.supply.len(), parent_len);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            SystemDriver::new(
                small_cfg(),
                tiny_workflow(10),
                Box::new(FixedPolicy::new(3)),
            )
            .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.makespan_s, b.makespan_s);
        assert_eq!(a.events, b.events);
        assert_eq!(
            a.summary.accumulated_waste_core_s,
            b.summary.accumulated_waste_core_s
        );
    }

    /// The master's task memory at the deepest backlog of `tasks`
    /// `trace-50k` arrivals on two workers, read every 10 simulated
    /// seconds until the trace is exhausted.
    fn deepest_backlog(tasks: u64) -> hta_workqueue::master::TaskBytes {
        let spec = format!("trace-50k,tasks={tasks}");
        let source = ArrivalSource::synth(&spec, 7).expect("valid trace spec");
        let mut d = SystemDriver::new_traced(small_cfg(), source, Box::new(FixedPolicy::new(2)));
        let mut deepest = d.world.cp.master.task_bytes();
        let mut t = SimTime::ZERO;
        while !d
            .world
            .cp
            .arrivals
            .as_ref()
            .is_some_and(|a| a.stats().exhausted)
        {
            t += Duration::from_secs(10);
            d.advance_until(t);
            let now = d.world.cp.master.task_bytes();
            if now.waiting > deepest.waiting {
                deepest = now;
            }
        }
        deepest
    }

    #[test]
    fn a_drained_backlog_gives_its_buffers_back() {
        // Fill the queue to its deepest backlog, then drain it to a
        // tenth. The table's slots and the queue's FIFO halve whenever
        // they are a quarter full, so each holds at most four 8-byte
        // entries per record: with the 96-byte record and its `Arc`
        // header, at most 160 B per record. Buffers that keep their peak
        // capacity charge the records left 333 B each here.
        let source = ArrivalSource::synth("trace-50k,tasks=3000", 7).expect("valid trace spec");
        let mut d = SystemDriver::new_traced(small_cfg(), source, Box::new(FixedPolicy::new(2)));
        let mut deepest = d.world.cp.master.task_bytes();
        let mut t = SimTime::ZERO;
        loop {
            t += Duration::from_secs(10);
            assert!(
                !d.advance_until(t),
                "the backlog drains before the run ends"
            );
            let now = d.world.cp.master.task_bytes();
            if now.waiting > deepest.waiting {
                deepest = now;
            }
            if deepest.waiting > 2_000 && now.waiting <= deepest.waiting / 10 {
                assert!(
                    now.per_record() <= 160.0,
                    "{:.1} B per record at {now:?} after a peak of {deepest:?}",
                    now.per_record()
                );
                break;
            }
        }
    }

    #[test]
    fn bytes_per_waiting_task_stay_flat_when_the_backlog_doubles() {
        // Counted from type sizes and held capacities, so exact per
        // seed: a waiting task costs its compact record, its `Arc`
        // header, a table slot and a queue entry, whatever the depth.
        let (small, large) = (deepest_backlog(1_500), deepest_backlog(3_000));
        assert!(
            small.waiting > 1_000 && large.waiting > 2 * small.waiting - 200,
            "the backlog doubles: {small:?} → {large:?}"
        );
        let (a, b) = (small.per_record(), large.per_record());
        assert!(a <= 128.0 && b <= 128.0, "{a:.1} and {b:.1} B per record");
        assert!(b <= a * 1.1, "bytes per record grew from {a:.1} to {b:.1}");
    }
}
