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

use hta_cluster::objects::StatefulSet;
use hta_cluster::{
    Cluster, ClusterConfig, ClusterEvent, ImageId, PodId, PodPhase, PodSpec, WatchKind,
};
use hta_des::trace::TraceRing;
use hta_des::{
    CategoryId, Checkpoint, DigestConfig, DigestReport, Duration, EffectSink, EventDigest,
    EventQueue, SimTime, Wal,
};
use hta_makeflow::Workflow;
use hta_metrics::{FaultSummary, RunRecorder, RunSummary, Sample, StepIntegral, TaskSpan};
use hta_resources::Resources;
use hta_trace::{ArrivalSource, ArrivalStats};
use hta_workqueue::master::{Master, MasterConfig, WqEvent, WqNotification};
use hta_workqueue::{TaskId, WorkerId, WorkerState};
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::fault::{ControlPlaneFaults, FaultPlan};
use crate::init_time::InitTimeTracker;
use crate::operator::{Operator, OperatorConfig};
use crate::policy::{PolicyContext, ScaleAction, ScalingPolicy};
use crate::recovery::{ControlPlaneState, RecoveryReport, WalRecord};
use crate::whatif::{BranchOutcome, BranchSpec, BranchStop, WhatIf};
use hta_des::{branch_salt, SnapshotState};

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
    /// Hard anti-affinity between worker pods (never two on one node) —
    /// guarantees the one-worker-per-node layout even for small workers.
    pub worker_anti_affinity: bool,
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
            worker_anti_affinity: false,
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
    /// [`ControlPlaneFaults`] were active).
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

/// Live crash-recovery machinery, present only when
/// [`ControlPlaneFaults::is_active`] (normal runs carry `None` and pay
/// nothing — no checkpoint events, no WAL appends, no extra branches on
/// the hot path beyond one `Option` test).
#[derive(Clone)]
struct RecoveryState {
    /// The configured fault arm (crash instants, outage, cadence).
    faults: ControlPlaneFaults,
    /// `Some(restart instant)` while the control plane is down.
    down_until: Option<SimTime>,
    /// When the most recent crash hit.
    last_crash_at: SimTime,
    /// The newest durable checkpoint (taken at master-ready, then every
    /// `checkpoint_interval`, then immediately after each recovery).
    checkpoint: Option<Checkpoint<ControlPlaneState>>,
    /// Decision records appended since the last checkpoint.
    wal: Wal<WalRecord>,
    /// Crashes survived.
    crashes: u64,
    /// In-flight tasks re-queued across all recoveries.
    requeued_total: u64,
    /// Total control-plane downtime, seconds.
    outage_total_s: f64,
    /// WAL records replayed across all recoveries.
    wal_replayed_total: u64,
    /// One report per completed crash-recovery cycle.
    reports: Vec<RecoveryReport>,
}

/// What a driver keeps of its run's history.
#[derive(Clone)]
enum History {
    /// Every recorded series and the finished tasks' spans. Shared
    /// copy-on-write: a fork costs a reference count until one side
    /// records.
    Full(Arc<FullHistory>),
    /// A what-if rollout keeps only what its outcome is scored on: the
    /// running supply integral, continued from the parent's series.
    Rollout(StepIntegral),
}

/// A full run's history: its metric series and its finished tasks'
/// lifecycles.
#[derive(Clone, Default)]
struct FullHistory {
    recorder: RunRecorder,
    /// One span per task that left the master, in exit order (workflow
    /// runs only; see [`SystemDriver::record_exit`]).
    spans: Vec<Span>,
}

/// A task's lifecycle, kept compact until [`SystemDriver::finalize`]
/// names it as a [`TaskSpan`].
#[derive(Clone, Copy)]
struct Span {
    task: TaskId,
    cat: CategoryId,
    submitted_at: SimTime,
    started_at: Option<SimTime>,
    /// When the task completed or failed; `None` while it is live.
    exited_at: Option<SimTime>,
    interruptions: u32,
}

impl History {
    /// `∫ supply dt` from the first sample to `end_s` (not before the
    /// newest sample).
    fn supply_until(&self, end_s: f64) -> f64 {
        match self {
            History::Full(full) => full.recorder.supply.integral_until(end_s),
            History::Rollout(supply) => supply.until(end_s),
        }
    }

    /// The running supply integral a rollout continues from.
    fn supply_integral(&self) -> StepIntegral {
        match self {
            History::Full(full) => full.recorder.supply.running_integral(),
            History::Rollout(supply) => *supply,
        }
    }
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
    cfg: DriverConfig,
    cluster: Cluster,
    master: Master,
    operator: Operator,
    policy: Box<dyn ScalingPolicy>,
    tracker: InitTimeTracker,
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
    /// Reusable pod-id buffer for the cleanup / scale-down paths.
    pod_scratch: Vec<PodId>,
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
    /// Open-loop arrival source (None for workflow-driven runs). Part of
    /// the control-plane checkpoint: the trace cursor must restore with
    /// the decisions made from it.
    arrivals: Option<ArrivalSource>,
}

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
            // Every control-plane decision from the very first submission
            // must be durably logged, so recording starts before bootstrap.
            operator.record_wal(true);
            Some(RecoveryState {
                faults: cfg.faults.control_plane.clone(),
                down_until: None,
                last_crash_at: SimTime::ZERO,
                checkpoint: None,
                wal: Wal::new(),
                crashes: 0,
                requeued_total: 0,
                outage_total_s: 0.0,
                wal_replayed_total: 0,
                reports: Vec::new(),
            })
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
            cfg,
            cluster,
            master,
            operator,
            policy,
            tracker,
            history: History::Full(Arc::default()),
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
            pod_scratch: Vec::new(),
            label_buf: String::new(),
            per_cat_counts: Vec::new(),
            digest: None,
            started: false,
            incarnation: 0,
            recovery,
            arrivals: None,
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
            let id = driver.master.intern_category(name);
            assert_eq!(id.index(), i, "trace table interned out of order");
        }
        driver.arrivals = Some(source);
        driver
    }

    /// Record an event-stream digest during the run (see
    /// [`RunResult::digest`]). Costs a `Debug` format per event — use for
    /// divergence hunting, never for timed runs.
    pub fn with_digest(mut self, cfg: DigestConfig) -> Self {
        self.digest = Some(EventDigest::new(cfg));
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

    /// True while the control plane is crashed (workers keep running; the
    /// master, operator, policy and init-time tracker are frozen).
    fn control_plane_down(&self) -> bool {
        self.recovery
            .as_ref()
            .is_some_and(|r| r.down_until.is_some())
    }

    /// Append the operator's pending decision records to the WAL. Called
    /// after every operator entry point; a no-op in normal runs (recording
    /// is off, so the pending buffer stays empty).
    fn drain_operator_wal(&mut self) {
        if let Some(rs) = self.recovery.as_mut() {
            rs.wal.extend(self.operator.drain_wal_records());
        }
    }

    /// Create (or re-create) the master pod.
    fn create_master_pod(&mut self, now: SimTime) -> PodId {
        let spec = PodSpec {
            request: self.cfg.master_request,
            image: self.master_image,
            group: MASTER_GROUP.into(),
            anti_affinity: false,
        };
        let (pod, fx) = self.cluster.create_pod(now, spec);
        self.master_pod = Some(pod);
        for (d, e) in fx {
            self.queue.schedule_in(d, Event::Cluster(e));
        }
        pod
    }

    fn worker_pod_spec(&self) -> PodSpec {
        PodSpec {
            request: self.cfg.worker_request,
            image: self.worker_image,
            group: WORKER_GROUP.into(),
            anti_affinity: self.cfg.worker_anti_affinity,
        }
    }

    /// Live worker pods (pending + running).
    fn live_worker_pods(&self) -> usize {
        self.cluster.group_replicas(WORKER_GROUP)
    }

    /// Worker pods still waiting for a node / image.
    fn pending_worker_pod_count(&self) -> usize {
        self.cluster
            .live_pods_in_group(WORKER_GROUP)
            .filter(|p| !matches!(p.phase, PodPhase::Running))
            .count()
    }

    /// Collect the pending worker pods into the reusable scratch buffer
    /// (cleanup and scale-down paths).
    fn collect_pending_pods(&mut self) {
        self.pod_scratch.clear();
        self.pod_scratch.extend(
            self.cluster
                .live_pods_in_group(WORKER_GROUP)
                .filter(|p| !matches!(p.phase, PodPhase::Running))
                .map(|p| p.id),
        );
    }

    /// Run to completion (or the safety cut-off).
    pub fn run(mut self) -> RunResult {
        self.start_once();
        let deadline = SimTime::ZERO + self.cfg.max_sim_time;
        let (timed_out, _) = self.run_loop(deadline, u64::MAX);
        self.finalize(timed_out)
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
    /// [`WhatIf`], then keep running. Returns true once the run is
    /// finished.
    pub fn advance_until(&mut self, until: SimTime) -> bool {
        self.start_once();
        while self.queue.peek_time().is_some_and(|t| t <= until) {
            let Some((now, ev)) = self.queue.pop() else {
                break;
            };
            self.dispatch(now, ev);
            if self.is_finished() {
                return true;
            }
        }
        self.is_finished()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Live worker pods (pending + running), for
    /// introspection at a decision point.
    pub fn live_workers(&self) -> usize {
        self.live_worker_pods()
    }

    /// Tasks the master has completed so far, for introspection at a
    /// decision point (what-if branch deltas are measured against this).
    pub fn completed_tasks(&self) -> usize {
        self.master.completed_count()
    }

    /// Bootstrap on the first call; later calls are no-ops.
    fn start_once(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let start = SimTime::ZERO;
        for (d, e) in self.cluster.bootstrap(start) {
            self.queue.schedule_in(d, Event::Cluster(e));
        }
        if self.cfg.master_in_cluster {
            let pod = self.create_master_pod(start);
            self.master_set.bind(pod);
            debug_assert!(self.master_set.fully_bound());
        } else {
            self.master_ready = true;
            self.on_master_ready(start);
        }
        self.pump(start);
        self.queue.schedule_in(Duration::ZERO, Event::Sample);
        self.queue
            .schedule_in(Duration::from_secs(1), Event::PolicyTick);
        for at in self.cfg.faults.node_crash_times.clone() {
            self.queue.schedule_in(at, Event::FailWorkerNode);
        }
        let crash_times: Vec<Duration> = self
            .recovery
            .as_ref()
            .map(|r| r.faults.crash_times.clone())
            .unwrap_or_default();
        for at in crash_times {
            self.queue.schedule_in(at, Event::CrashControlPlane);
        }
    }

    /// The event loop: pop-and-dispatch until the workload resolves, the
    /// deadline passes, or `max_events` have been processed this call.
    ///
    /// Returns `(timed_out, budget_exhausted)`. The deadline check runs
    /// *after* the pop on purpose — the over-deadline event still counts
    /// into `delivered`, which keeps event totals (and every golden
    /// fingerprint built on them) identical to the historical behaviour.
    fn run_loop(&mut self, deadline: SimTime, max_events: u64) -> (bool, bool) {
        let mut timed_out = false;
        let mut budget_exhausted = false;
        let mut processed: u64 = 0;
        while let Some((now, ev)) = self.queue.pop() {
            if now > deadline {
                timed_out = true;
                break;
            }
            self.dispatch(now, ev);
            if self.is_finished() {
                break;
            }
            processed += 1;
            if processed >= max_events {
                budget_exhausted = true;
                break;
            }
        }
        (timed_out, budget_exhausted)
    }

    /// Process one popped event: digest, dispatch to the owning
    /// component, then pump cross-component plumbing.
    fn dispatch(&mut self, now: SimTime, ev: Event) {
        if let Some(d) = self.digest.as_mut() {
            d.record(now.as_millis(), &ev);
        }
        match ev {
            Event::Cluster(ce) => {
                for (d, e) in self.cluster.handle(now, ce) {
                    self.queue.schedule_in(d, Event::Cluster(e));
                }
            }
            Event::Wq(inc, we) => {
                // A message from a dead master incarnation is dropped: the
                // worker it came from (or was headed to) was talking to a
                // master that no longer exists. The recovered master
                // re-queues the orphaned work instead.
                if inc == self.incarnation {
                    self.master.handle(now, we, &mut self.wq_sink);
                    self.flush_wq();
                }
            }
            Event::PolicyTick => self.policy_tick(now),
            Event::Sample => {
                self.sample(now);
                self.queue
                    .schedule_in(self.cfg.sample_interval, Event::Sample);
            }
            Event::FailWorkerNode => self.fail_worker_node(now),
            Event::CheckpointTick => self.checkpoint_tick(now),
            Event::CrashControlPlane => self.crash_control_plane(now),
            Event::RestartControlPlane => self.restart_control_plane(now),
            Event::TraceArrival(inc) => {
                // A wake armed by a dead master incarnation is dropped;
                // the restart pass armed a fresh one for the backlog.
                if inc == self.incarnation {
                    self.pump_arrivals(now);
                }
            }
        }
        self.pump(now);
    }

    /// Admit every trace arrival that is due, then arm one wake-up for
    /// the next one. During a control-plane outage the pump stays quiet
    /// — arrivals accumulate in the trace (clients retrying against a
    /// dead endpoint) and the restart pass admits the backlog.
    fn pump_arrivals(&mut self, now: SimTime) {
        if self.control_plane_down() || self.cleanup_started {
            return;
        }
        let Some(mut arrivals) = self.arrivals.take() else {
            return;
        };
        while let Some(spec) = arrivals.pop_due(now) {
            self.operator
                .submit_trace(now, spec, &mut self.master, &mut self.wq_sink);
        }
        self.flush_wq();
        self.drain_operator_wal();
        if let Some(next) = arrivals.peek_next_time() {
            self.queue
                .schedule_in(next.since(now), Event::TraceArrival(self.incarnation));
        }
        self.arrivals = Some(arrivals);
    }

    /// True when nothing will ever need the pool again: the workflow is
    /// resolved (vacuously true for the empty workflow of a traced run)
    /// and, for traced runs, the trace is drained *and* every admitted
    /// task reached a terminal state. Replaces bare
    /// `operator.all_complete()` checks — those would declare an open-loop
    /// run finished while arrivals were still in flight.
    fn workload_resolved(&mut self) -> bool {
        if !self.operator.all_complete() {
            return false;
        }
        match self.arrivals.as_mut() {
            None => true,
            Some(a) => a.exhausted() && self.master.all_complete(),
        }
    }

    /// Tear down into a [`RunResult`].
    fn finalize(mut self, timed_out: bool) -> RunResult {
        // Final sample so the series reflect the drained end state (the
        // loop exits on pod events, which can land between sample ticks).
        let now = self.queue.now();
        self.sample(now);
        let end = self.workload_finished_at.unwrap_or(now).as_secs_f64();
        let History::Full(full) = self.history else {
            unreachable!("a what-if rollout never runs to the end");
        };
        let FullHistory {
            mut recorder,
            mut spans,
        } = Arc::unwrap_or_clone(full);
        recorder.finish(end);
        let label = self.policy.name();
        let mut summary = recorder.summary(label.clone());
        let task_faults = self.master.fault_stats();
        let cluster_faults = self.cluster.fault_stats();
        let (jobs_failed, jobs_abandoned) = self.operator.failure_counts();
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
            master_crashes: self.recovery.as_ref().map_or(0, |r| r.crashes),
            recovery_requeued: self.recovery.as_ref().map_or(0, |r| r.requeued_total),
            outage_s: self.recovery.as_ref().map_or(0.0, |r| r.outage_total_s),
            checkpoints_taken: self.recovery.as_ref().map_or(0, |r| r.wal.truncations()),
            wal_replayed: self.recovery.as_ref().map_or(0, |r| r.wal_replayed_total),
            msgs_dropped: self.master.net_stats().dropped,
            msgs_duplicated: self.master.net_stats().duplicated,
            msgs_reordered: self.master.net_stats().reordered,
            leases_expired: self.master.leases_expired(),
            zombies_fenced: self.master.zombies_fenced(),
            partition_s: self
                .master
                .net_config()
                .partition_seconds(Duration::from_secs_f64(end)),
        };
        // The tasks still live (a timed-out run) join the finished ones.
        spans.extend(self.master.task_records().map(|r| Span {
            task: r.spec.id,
            cat: r.spec.cat,
            submitted_at: r.submitted_at,
            started_at: r.started_at,
            exited_at: None,
            interruptions: r.interruptions,
        }));
        spans.sort_unstable_by_key(|s| s.task);
        let task_spans: Vec<TaskSpan> = spans
            .iter()
            .map(|s| TaskSpan {
                label: s.task.to_string(),
                category: self.master.interner().name(s.cat).to_string(),
                submitted_s: s.submitted_at.as_secs_f64(),
                started_s: s.started_at.map(|t| t.as_secs_f64()),
                completed_s: s.exited_at.map(|t| t.as_secs_f64()),
                interruptions: s.interruptions,
            })
            .collect();
        let digest = self.digest.take().map(EventDigest::report);
        let recoveries = self.recovery.take().map(|r| r.reports).unwrap_or_default();
        let arrivals = self.arrivals.as_ref().map(ArrivalSource::stats);
        RunResult {
            label,
            digest,
            recoveries,
            arrivals,
            completed: self.master.completed_count(),
            completed_digest: self.master.completed_digest(),
            makespan_s: end,
            summary,
            init_measurements: self.tracker.measurements().to_vec(),
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

    /// True once the workload is done and every cluster object we created
    /// has stopped (and so left the cluster).
    fn is_finished(&self) -> bool {
        if self.workload_finished_at.is_none() {
            return false;
        }
        if self.live_worker_pods() > 0 {
            return false;
        }
        self.master_pod
            .is_none_or(|pod| self.cluster.pod(pod).is_none())
    }

    /// Cross-component plumbing: drain informer events and master
    /// notifications until both are quiet.
    fn pump(&mut self, now: SimTime) {
        loop {
            let watch = self.cluster.drain_watch();
            let notes = self.master.drain_notifications();
            if watch.is_empty() && notes.is_empty() {
                break;
            }
            // During a control-plane outage the informer consumer is down
            // with it: pod-lifecycle events still happen (the data plane
            // keeps running) but nobody measures init times or adopts
            // fresh workers until the restart reconciliation.
            let down = self.control_plane_down();
            if !down {
                self.tracker.observe_all(watch.iter());
            }
            for ev in &watch {
                match ev.kind {
                    WatchKind::PodRunning(_) => {
                        if down {
                            // The pod keeps running; if it survives the
                            // outage the recovery pass re-adopts it from
                            // the watch-stream snapshot.
                            continue;
                        }
                        // A pod turns Running only in its own `PodStarted`
                        // event, and the pump drains the watch buffer right
                        // after every event, so nothing has retired the pod
                        // before this arm reads it.
                        let group = &self
                            .cluster
                            .pod(ev.pod)
                            .expect("a pod reported running is still live")
                            .spec
                            .group;
                        if Some(ev.pod) == self.master_pod && !self.master_ready {
                            self.master_ready = true;
                            self.on_master_ready(now);
                        } else if group == WORKER_GROUP {
                            let wid = self.master.worker_connect(
                                now,
                                self.cfg.worker_request,
                                &mut self.wq_sink,
                            );
                            self.pod_to_worker.insert(ev.pod, wid);
                            self.worker_to_pod.insert(wid, ev.pod);
                            self.flush_wq();
                        }
                    }
                    WatchKind::PodFailed => {
                        if Some(ev.pod) == self.master_pod && !self.cleanup_started {
                            // StatefulSet semantics: the replacement pod
                            // takes the same sticky ordinal; queue state
                            // and intermediate data survive on the
                            // persistent volume (§V-A).
                            self.master_set.unbind(ev.pod);
                            if self.trace.is_enabled() {
                                self.trace.push(
                                    now,
                                    "driver",
                                    format!(
                                        "master pod {} lost; StatefulSet restarting it",
                                        ev.pod
                                    ),
                                );
                            }
                            let pod = self.create_master_pod(now);
                            self.master_set.bind(pod);
                        }
                        if let Some(wid) = self.pod_to_worker.remove(&ev.pod) {
                            if self.trace.is_enabled() {
                                self.trace.push(
                                    now,
                                    "driver",
                                    format!("worker pod {} killed ({wid})", ev.pod),
                                );
                            }
                            self.worker_to_pod.remove(&wid);
                            self.master.kill_worker(now, wid, &mut self.wq_sink);
                            self.flush_wq();
                        }
                    }
                    _ => {}
                }
            }
            for note in notes {
                self.record_exit(now, &note);
                match note {
                    WqNotification::TaskCompleted {
                        task,
                        cat,
                        measured,
                        ..
                    } => {
                        // Log the acknowledgement *before* handling it:
                        // the handler's own decisions (learning commits,
                        // released warm-up holds) append their records
                        // after this one, preserving causal replay order.
                        if let Some(rs) = self.recovery.as_mut() {
                            rs.wal.append(WalRecord::Complete { task });
                        }
                        self.operator.on_task_completed(
                            now,
                            task,
                            cat,
                            measured,
                            &mut self.master,
                            &mut self.wq_sink,
                        );
                        self.flush_wq();
                        self.drain_operator_wal();
                        if self.workload_resolved() && self.workload_finished_at.is_none() {
                            self.workload_finished_at = Some(now);
                            self.trace
                                .push(now, "driver", "workload complete; cleanup".into());
                            self.start_cleanup(now);
                        }
                    }
                    WqNotification::TaskRequeued(t) => {
                        self.interrupted += 1;
                        if self.trace.is_enabled() {
                            self.trace
                                .push(now, "wq", format!("{t} re-queued (worker killed)"));
                        }
                    }
                    WqNotification::TaskFastAborted(t) => {
                        self.interrupted += 1;
                        if self.trace.is_enabled() {
                            self.trace
                                .push(now, "wq", format!("{t} fast-aborted (straggler)"));
                        }
                    }
                    WqNotification::TaskFailed { task, cat, .. } => {
                        if self.trace.is_enabled() {
                            let name = self.master.interner().name(cat);
                            self.trace.push(
                                now,
                                "wq",
                                format!("{task} permanently failed ({name})"),
                            );
                        }
                        if let Some(rs) = self.recovery.as_mut() {
                            rs.wal.append(WalRecord::Fail { task });
                        }
                        self.operator.on_task_failed(
                            now,
                            task,
                            cat,
                            &mut self.master,
                            &mut self.wq_sink,
                        );
                        self.flush_wq();
                        self.drain_operator_wal();
                        // Graceful degradation can resolve the workflow
                        // with failures: the cleanup path is the same.
                        if self.workload_resolved() && self.workload_finished_at.is_none() {
                            self.workload_finished_at = Some(now);
                            self.trace.push(
                                now,
                                "driver",
                                "workload resolved (with failures); cleanup".into(),
                            );
                            self.start_cleanup(now);
                        }
                    }
                    WqNotification::WorkerStopped(wid) => {
                        if let Some(pod) = self.worker_to_pod.remove(&wid) {
                            self.pod_to_worker.remove(&pod);
                            for (d, e) in self.cluster.complete_pod(now, pod) {
                                self.queue.schedule_in(d, Event::Cluster(e));
                            }
                        }
                    }
                }
            }
        }
    }

    /// Keep the span of a task that `note` says left the master. It is
    /// recorded once, from the live exit notification: WAL replay
    /// re-finishes a task silently. Workflow runs only — a traced run's
    /// spans would grow with the trace — and never in a what-if rollout.
    fn record_exit(&mut self, now: SimTime, note: &WqNotification) {
        let (WqNotification::TaskCompleted {
            task,
            cat,
            submitted_at,
            started_at,
            interruptions,
            ..
        }
        | WqNotification::TaskFailed {
            task,
            cat,
            submitted_at,
            started_at,
            interruptions,
        }) = *note
        else {
            return;
        };
        if let (History::Full(full), None) = (&mut self.history, &self.arrivals) {
            Arc::make_mut(full).spans.push(Span {
                task,
                cat,
                submitted_at,
                started_at,
                exited_at: Some(now),
                interruptions,
            });
        }
    }

    /// The master pod is up: create the initial worker pods and submit the
    /// first batch of jobs (warm-up stage, §V-C).
    fn on_master_ready(&mut self, now: SimTime) {
        if !self.initial_workers_created {
            self.initial_workers_created = true;
            for _ in 0..self.cfg.initial_workers.min(self.cfg.max_workers) {
                let (_pod, fx) = self.cluster.create_pod(now, self.worker_pod_spec());
                for (d, e) in fx {
                    self.queue.schedule_in(d, Event::Cluster(e));
                }
            }
        }
        // Checkpoint #0 is taken *before* the first submission wave so the
        // WAL (recording since construction) covers every decision ever
        // made on top of it, and the periodic cadence starts here.
        if self
            .recovery
            .as_ref()
            .is_some_and(|r| r.checkpoint.is_none())
        {
            self.take_checkpoint(now);
            let interval = self
                .recovery
                .as_ref()
                .expect("checked above")
                .faults
                .checkpoint_interval;
            self.queue.schedule_in(interval, Event::CheckpointTick);
        }
        self.operator
            .submit_ready(now, &mut self.master, &mut self.wq_sink);
        self.flush_wq();
        self.drain_operator_wal();
        // Open-loop arrivals start flowing once the master can take them.
        // Armed *after* checkpoint #0 so every admission is WAL-covered.
        self.pump_arrivals(now);
    }

    /// Capture the full control plane into a fresh checkpoint and truncate
    /// the WAL it supersedes.
    fn take_checkpoint(&mut self, now: SimTime) {
        let state = ControlPlaneState {
            master: self.master.clone(),
            operator: self.operator.clone(),
            policy: self.policy.clone(),
            tracker: self.tracker.clone(),
            arrivals: self.arrivals.clone(),
        };
        let rs = self
            .recovery
            .as_mut()
            .expect("checkpointing without control-plane faults");
        rs.checkpoint = Some(Checkpoint::take(state, now));
        rs.wal.truncate();
    }

    /// Periodic checkpoint cadence (control-plane faults active only).
    fn checkpoint_tick(&mut self, now: SimTime) {
        let Some(rs) = self.recovery.as_ref() else {
            return;
        };
        if self.cleanup_started {
            // Workload resolved; nothing left worth checkpointing and the
            // cadence can die with the run.
            return;
        }
        let interval = rs.faults.checkpoint_interval;
        if rs.down_until.is_some() {
            // Crashed processes take no checkpoints; the restart path
            // takes its own post-recovery one. Keep the cadence alive.
            self.queue.schedule_in(interval, Event::CheckpointTick);
            return;
        }
        self.take_checkpoint(now);
        self.queue.schedule_in(interval, Event::CheckpointTick);
    }

    /// Failure injection: the control plane dies. Workers keep running
    /// (they are cluster pods, not control-plane state), but every
    /// in-flight master↔worker message is now addressed to a dead
    /// incarnation and will be dropped.
    fn crash_control_plane(&mut self, now: SimTime) {
        let Some(rs) = self.recovery.as_mut() else {
            return;
        };
        if !self.master_ready
            || self.cleanup_started
            || rs.down_until.is_some()
            || rs.checkpoint.is_none()
        {
            // Nothing to crash yet (or already down, or already winding
            // down) — the injection is a no-op, like a node crash with no
            // running worker.
            return;
        }
        let outage = rs.faults.outage;
        rs.crashes += 1;
        rs.last_crash_at = now;
        rs.down_until = Some(now + outage);
        self.incarnation += 1;
        // The driver's pod↔worker adoption maps are control-plane memory:
        // the restarted master re-learns them from the watch stream.
        self.pod_to_worker.clear();
        self.worker_to_pod.clear();
        self.trace.push(
            now,
            "fault",
            format!(
                "control plane crashed (incarnation {}), restart in {}s",
                self.incarnation,
                outage.as_secs_f64()
            ),
        );
        self.queue.schedule_in(outage, Event::RestartControlPlane);
    }

    /// The deterministic reconciliation pass: restore the checkpoint,
    /// reset its data-plane beliefs, replay the WAL, reconcile warm-up
    /// probes, re-adopt surviving workers, resume submissions, and
    /// re-checkpoint.
    fn restart_control_plane(&mut self, now: SimTime) {
        let (state, records, crashed_at, checkpoint_at) = {
            let Some(rs) = self.recovery.as_mut() else {
                return;
            };
            if rs.down_until.is_none() {
                return;
            }
            rs.down_until = None;
            let cp = rs
                .checkpoint
                .as_ref()
                .expect("crashes are ignored before checkpoint #0");
            // Moved, not copied: step 8 re-checkpoints, which supersedes
            // these records before anything could crash again.
            (
                cp.restore(),
                rs.wal.take_records(),
                rs.last_crash_at,
                cp.taken_at(),
            )
        };
        // 1. Restore the control plane to its checkpoint. The trace
        // cursor is control-plane state too: arrivals admitted after the
        // checkpoint rewind with it and re-admit through WAL replay.
        let ControlPlaneState {
            master,
            operator,
            policy,
            tracker,
            arrivals,
        } = state;
        self.master = master;
        self.operator = operator;
        self.policy = policy;
        self.tracker = tracker;
        self.arrivals = arrivals;
        // 2. The checkpoint believes in workers and in-flight transfers
        // from before the crash. Reset those beliefs: every worker is
        // unknown until re-adopted, every Staging/Running/Returning task
        // is re-queued exactly once.
        let tasks_requeued = self.master.recover_reset_data_plane(now);
        // 3. Replay the decision log on top.
        let wal_replayed = records.len();
        self.replay_wal(now, records);
        // Replay dispatch effects go nowhere (no workers are connected
        // yet) but must still drain under the new incarnation.
        self.flush_wq();
        // 4. Warm-up probes whose task died with the crash (submitted
        // after the checkpoint, lost with the WAL-truncating recovery
        // semantics, or orphaned mid-flight) are re-aimed. These are
        // *fresh* decisions and log normally.
        self.operator
            .reconcile_probes(now, &mut self.master, &mut self.wq_sink);
        self.flush_wq();
        self.drain_operator_wal();
        // 5. Re-adopt the workers that survived the outage, in PodId
        // order (deterministic), via the cluster watch-state snapshot.
        let mut survivors: Vec<PodId> = self
            .cluster
            .live_pods_in_group(WORKER_GROUP)
            .filter(|p| matches!(p.phase, PodPhase::Running))
            .map(|p| p.id)
            .collect();
        survivors.sort();
        let workers_readopted = survivors.len();
        for pod in survivors {
            let wid = self
                .master
                .worker_connect(now, self.cfg.worker_request, &mut self.wq_sink);
            self.pod_to_worker.insert(pod, wid);
            self.worker_to_pod.insert(wid, pod);
        }
        self.flush_wq();
        // 6. Resume submissions the crash interrupted (jobs whose parents
        // completed while the WAL was being replayed), and re-arm the
        // arrival pump under the new incarnation — arrivals that landed
        // during the outage are clients retrying, admitted now as fresh
        // (WAL-logged) decisions.
        self.operator
            .submit_ready(now, &mut self.master, &mut self.wq_sink);
        self.flush_wq();
        self.drain_operator_wal();
        self.pump_arrivals(now);
        if self.workload_resolved() && self.workload_finished_at.is_none() {
            self.workload_finished_at = Some(now);
            self.trace.push(
                now,
                "driver",
                "workload complete at recovery; cleanup".into(),
            );
            self.start_cleanup(now);
        }
        // 7. The metrics-pipeline history predates the crash; a restarted
        // metrics server starts scraping from scratch.
        self.util_history.clear();
        // 8. Post-recovery checkpoint: the replayed decisions are now part
        // of durable state, so a second crash replays from here.
        self.take_checkpoint(now);
        // 9. Bookkeeping.
        let report = RecoveryReport {
            crashed_at,
            recovered_at: now,
            checkpoint_at,
            wal_replayed,
            tasks_requeued,
            workers_readopted,
        };
        let rs = self.recovery.as_mut().expect("checked on entry");
        rs.requeued_total += tasks_requeued as u64;
        rs.wal_replayed_total += wal_replayed as u64;
        rs.outage_total_s += now.since(crashed_at).as_secs_f64();
        rs.reports.push(report);
        self.trace.push(
            now,
            "driver",
            format!(
                "control plane recovered: {wal_replayed} WAL records, \
                 {tasks_requeued} tasks re-queued, {workers_readopted} workers re-adopted"
            ),
        );
        self.master.assert_invariants();
    }

    /// Re-apply the WAL on top of a restored checkpoint. Submits re-enter
    /// with their originally sampled specs (no randomness re-drawn);
    /// terminal acknowledgements re-apply at their original instants.
    ///
    /// The one non-test `match` over [`WalRecord`]: a wildcard arm here
    /// fails clippy (or rustc's `unreachable_patterns`), so a new variant
    /// fails to compile until recovery replays it.
    #[deny(clippy::wildcard_enum_match_arm)]
    #[deny(clippy::match_wildcard_for_single_variants)]
    fn replay_wal(&mut self, now: SimTime, records: Vec<WalRecord>) {
        for rec in records {
            match rec {
                WalRecord::Submit { job, spec } => {
                    self.operator.replay_submit(
                        now,
                        job,
                        spec,
                        &mut self.master,
                        &mut self.wq_sink,
                    );
                }
                WalRecord::Learn { cat, resources } => {
                    self.operator.replay_learn(cat, resources, &mut self.master);
                }
                WalRecord::Complete { task } => {
                    self.master.recover_complete(task);
                    self.operator.replay_complete(task);
                }
                WalRecord::Fail { task } => {
                    let cat = self.master.task(task).map(|r| r.spec.cat);
                    self.master.recover_failed(task);
                    if let Some(cat) = cat {
                        self.operator.replay_fail(task, cat);
                    }
                }
                WalRecord::TraceSubmit { spec } => {
                    // Advance the restored cursor one event: the
                    // generator re-derives this arrival from its rewound
                    // RNG streams, so the logged spec and the cursor stay
                    // in lockstep (checked) and no randomness is re-drawn
                    // for arrivals the old incarnation already admitted.
                    if let Some(a) = self.arrivals.as_mut() {
                        let regenerated = a.replay_next().map(|(_, s)| s);
                        debug_assert_eq!(
                            regenerated.as_ref(),
                            Some(&spec),
                            "trace cursor diverged from the WAL"
                        );
                    }
                    self.operator.replay_trace_submit(
                        now,
                        spec,
                        &mut self.master,
                        &mut self.wq_sink,
                    );
                }
            }
        }
    }

    /// Clean-up stage: drain every worker, delete pending worker pods and
    /// the master pod.
    fn start_cleanup(&mut self, now: SimTime) {
        if self.cleanup_started {
            return;
        }
        self.cleanup_started = true;
        self.collect_pending_pods();
        for i in 0..self.pod_scratch.len() {
            let pod = self.pod_scratch[i];
            for (d, e) in self.cluster.delete_pod(now, pod) {
                self.queue.schedule_in(d, Event::Cluster(e));
            }
        }
        for (&wid, _) in self.worker_to_pod.iter() {
            self.master.drain_worker(now, wid);
        }
        if let Some(pod) = self.master_pod {
            for (d, e) in self.cluster.delete_pod(now, pod) {
                self.queue.schedule_in(d, Event::Cluster(e));
            }
        }
    }

    fn policy_tick(&mut self, now: SimTime) {
        if self.cleanup_started {
            // Keep draining stragglers (workers that were mid-task when
            // cleanup began finish and stop on their own; pending pods are
            // already deleted). No policy involvement needed.
            self.queue
                .schedule_in(Duration::from_secs(10), Event::PolicyTick);
            return;
        }
        // A crashed control plane makes no scaling decisions — the policy
        // is frozen inside the checkpoint and resumes, with its recovered
        // estimates, once reconciliation finishes.
        if self.control_plane_down() {
            self.queue
                .schedule_in(Duration::from_secs(5), Event::PolicyTick);
            return;
        }
        // Autoscaling belongs to the runtime stage (§V-C): before the
        // master is up there is no queue to read and the initial worker
        // pool has not been created, so a policy acting now would race
        // the set-up (an HPA would double-create its minimum replicas).
        if !self.master_ready {
            self.queue
                .schedule_in(Duration::from_secs(5), Event::PolicyTick);
            return;
        }
        let held = self.operator.held_jobs();
        let pending = self.pending_worker_pod_count();
        let utilization = self.lagged_utilization(now);
        let live = self.live_worker_pods();
        let workload_done = self.workload_resolved();
        let init_time = if self.cfg.use_measured_init_time {
            self.tracker.latest()
        } else {
            self.cfg.default_init_time
        };
        // Refresh the incremental snapshot once, then hand the policy
        // borrowed views — no per-tick queue rebuild.
        self.master.refresh_queue_status();
        // Swap the policy out so it can be handed `&self` as a what-if
        // world alongside the borrowed context views. The HoldPolicy
        // placeholder is what a forked branch sees as "its" policy, which
        // is exactly the frozen-pool rollout semantics branches want.
        let mut policy: Box<dyn ScalingPolicy> =
            std::mem::replace(&mut self.policy, Box::new(crate::policy::HoldPolicy));
        let ctx = PolicyContext {
            now,
            queue: self.master.snapshot(),
            interner: self.master.interner(),
            held_jobs: &held,
            stats: self.operator.stats(),
            init_time,
            worker_unit: self.cfg.worker_request,
            live_worker_pods: live,
            pending_worker_pods: pending,
            utilization,
            max_workers: self.cfg.max_workers,
            workload_done,
            telemetry_age: self.master.telemetry_age(now),
        };
        let (action, next) = policy.decide_with_world(&ctx, &*self);
        if self.trace.is_enabled() && action != ScaleAction::None {
            self.trace.push(
                now,
                "policy",
                format!(
                    "{:?} (live={} pending={} waiting={} init={:.0}s)",
                    action,
                    ctx.live_worker_pods,
                    ctx.pending_worker_pods,
                    ctx.queue.waiting.len(),
                    ctx.init_time.as_secs_f64()
                ),
            );
        }
        self.policy = policy;
        self.apply_action(now, action);
        self.queue
            .schedule_in(next.max(Duration::from_secs(1)), Event::PolicyTick);
    }

    /// Translate a policy decision into cluster/master operations.
    fn apply_action(&mut self, now: SimTime, action: ScaleAction) {
        match action {
            ScaleAction::None => {}
            ScaleAction::CreateWorkers(n) => {
                let headroom = self.cfg.max_workers.saturating_sub(self.live_worker_pods());
                for _ in 0..n.min(headroom) {
                    let (_pod, fx) = self.cluster.create_pod(now, self.worker_pod_spec());
                    for (d, e) in fx {
                        self.queue.schedule_in(d, Event::Cluster(e));
                    }
                }
            }
            ScaleAction::DrainWorkers(n) => self.drain_workers(now, n),
            ScaleAction::KillWorkers(n) => self.kill_workers(now, n),
        }
    }

    /// HTA-style graceful scale-down: delete pending pods first (nothing
    /// runs on them), then drain idle workers, then the least-loaded.
    fn drain_workers(&mut self, now: SimTime, n: usize) {
        let mut remaining = n;
        self.collect_pending_pods();
        for i in 0..self.pod_scratch.len() {
            if remaining == 0 {
                return;
            }
            let pod = self.pod_scratch[i];
            for (d, e) in self.cluster.delete_pod(now, pod) {
                self.queue.schedule_in(d, Event::Cluster(e));
            }
            remaining -= 1;
        }
        // Active workers ordered: idle first, then by ascending task count.
        let mut candidates: Vec<(usize, WorkerId)> = self
            .worker_to_pod
            .keys()
            .filter_map(|w| {
                let worker = self.master.worker(*w)?;
                (worker.state == WorkerState::Active).then_some((worker.task_count(), *w))
            })
            .collect();
        candidates.sort();
        for (_tasks, wid) in candidates.into_iter().take(remaining) {
            self.master.drain_worker(now, wid);
        }
    }

    /// HPA-style eviction: pending (not-ready) pods first — matching the
    /// ReplicaSet downscale preference — then idle, then busy workers,
    /// whose tasks are re-queued.
    fn kill_workers(&mut self, now: SimTime, n: usize) {
        let mut remaining = n;
        self.collect_pending_pods();
        for i in 0..self.pod_scratch.len() {
            if remaining == 0 {
                return;
            }
            let pod = self.pod_scratch[i];
            for (d, e) in self.cluster.delete_pod(now, pod) {
                self.queue.schedule_in(d, Event::Cluster(e));
            }
            remaining -= 1;
        }
        let mut candidates: Vec<(usize, PodId)> = self
            .pod_to_worker
            .iter()
            .filter_map(|(pod, wid)| {
                let worker = self.master.worker(*wid)?;
                (worker.state != WorkerState::Stopped).then_some((worker.task_count(), *pod))
            })
            .collect();
        candidates.sort();
        for (_tasks, pod) in candidates.into_iter().take(remaining) {
            // delete_pod → PodFailed watch event → kill_worker in pump().
            for (d, e) in self.cluster.delete_pod(now, pod) {
                self.queue.schedule_in(d, Event::Cluster(e));
            }
        }
    }

    /// Failure injection: crash the node under some running worker pod.
    /// No-op when no worker is running (nothing interesting to kill).
    ///
    /// Victim selection is deterministic: `pod_to_worker` is a `BTreeMap`,
    /// so iteration is ordered by `PodId` and the victim is always the
    /// running worker pod with the lowest id (a mapped pod still in the
    /// cluster is running) — two same-seed runs crash the same node at
    /// the same instant.
    fn fail_worker_node(&mut self, now: SimTime) {
        let target = self
            .pod_to_worker
            .keys()
            .filter_map(|pid| self.cluster.pod(*pid))
            .filter_map(|p| p.node)
            .next();
        if let Some(node) = target {
            self.failures_injected += 1;
            // Time-to-recover watch: resolved at the first sample where
            // the connected pool is back at its pre-crash size.
            self.recovery_watches
                .push((now, self.master.connected_workers(), false));
            self.trace
                .push(now, "inject", format!("node {node} crashed"));
            for (d, e) in self.cluster.fail_node(now, node) {
                self.queue.schedule_in(d, Event::Cluster(e));
            }
        }
    }

    /// The utilization the metrics pipeline reports *right now*.
    ///
    /// Kubernetes HPA semantics: pods without metrics (pending — still
    /// waiting for a node or an image) are averaged in at 0 % usage on
    /// scale-up. This dilution is one of the two mechanisms that stall
    /// the paper's Fig. 2 ramps while each batch of fresh nodes
    /// provisions (the other being the pipeline staleness below).
    fn current_utilization(&self) -> Option<f64> {
        let live = self.live_worker_pods();
        if live == 0 {
            self.master.mean_worker_utilization()
        } else {
            let connected_sum = self
                .master
                .mean_worker_utilization()
                .map(|m| m * self.master.connected_workers() as f64)
                .unwrap_or(0.0);
            Some(connected_sum / live as f64)
        }
    }

    /// The utilization as the HPA sees it: the newest pipeline sample at
    /// least `metrics_lag` old (falling back to the oldest sample, then
    /// to the live value when no history exists yet).
    fn lagged_utilization(&self, now: SimTime) -> Option<f64> {
        if self.cfg.metrics_lag.is_zero() {
            return self.current_utilization();
        }
        let mut candidate: Option<Option<f64>> = None;
        for &(t, u) in self.util_history.iter() {
            if now.since(t) >= self.cfg.metrics_lag {
                candidate = Some(u);
            } else {
                break;
            }
        }
        match candidate {
            Some(u) => u,
            // Pipeline has no old-enough scrape yet: report the oldest
            // one (or the live value before any sample exists).
            None => self
                .util_history
                .front()
                .map(|&(_, u)| u)
                .unwrap_or_else(|| self.current_utilization()),
        }
    }

    /// Record one metrics sample.
    ///
    /// Definitions follow §IV-B as used in the evaluation tables:
    /// **RS** = cores of connected workers; **RIU** = cores held by
    /// running jobs; **RSH** = the *provisionable* unmet demand — demand
    /// beyond current supply, capped at the maximum resource quota
    /// ("there usually exists a maximum resource quota depending on the
    /// user budget"), which is what an autoscaler could still fix.
    ///
    /// A what-if rollout stops after the metrics pipeline and the supply
    /// integral: the policy reads the one, the branch outcome the other,
    /// and nothing reads the rest.
    fn sample(&mut self, now: SimTime) {
        // Feed the (laggy) metrics pipeline.
        let util_now = self.current_utilization();
        self.util_history.push_back((now, util_now));
        let horizon = self
            .cfg
            .metrics_lag
            .saturating_add(Duration::from_secs(120));
        while let Some(&(t, _)) = self.util_history.front() {
            if now.since(t) > horizon && self.util_history.len() > 2 {
                self.util_history.pop_front();
            } else {
                break;
            }
        }
        // The worker/running views of the snapshot are always current;
        // the waiting queue is summarized by the demand histogram, so
        // the per-second sampler never walks the queue — with a deep
        // open-loop backlog the old O(queue) walk dominated the run.
        let status = self.master.snapshot();
        let supply_cores: f64 = status
            .workers
            .values()
            .map(|w| w.capacity.cores_f64())
            .sum();
        let t = now.as_secs_f64();
        let recorder = match &mut self.history {
            History::Full(full) => &mut Arc::make_mut(full).recorder,
            History::Rollout(supply) => {
                supply.push(t, supply_cores);
                return;
            }
        };
        // Resolve open time-to-recover watches. Watches still open when
        // cleanup begins never resolve (the pool shrinks on purpose).
        if !self.recovery_watches.is_empty() && !self.cleanup_started {
            let connected = self.master.connected_workers();
            let mut resolved = Vec::new();
            for w in &mut self.recovery_watches {
                if !w.2 {
                    w.2 = connected < w.1;
                } else if connected >= w.1 {
                    resolved.push(now.since(w.0).as_secs_f64());
                    w.1 = usize::MAX; // mark for removal
                }
            }
            self.recovery_watches.retain(|w| w.1 != usize::MAX);
            for r in resolved {
                self.recovery_times.push(r);
                recorder.record_extra("recovery_s", t, r);
            }
        }
        let held = self.operator.held_jobs();
        let held_count: usize = held.iter().map(|(_, c)| c).sum();
        let waiting_cores: f64 = self
            .master
            .waiting_demand()
            .iter()
            .map(|(cat, declared, n)| {
                declared
                    .or_else(|| self.operator.known_resources_id(*cat))
                    .unwrap_or(self.cfg.worker_request)
                    .cores_f64()
                    * *n as f64
            })
            .sum::<f64>()
            + held
                .iter()
                .map(|(cat, count)| {
                    self.operator
                        .known_resources_id(*cat)
                        .unwrap_or(self.cfg.worker_request)
                        .cores_f64()
                        * *count as f64
                })
                .sum::<f64>();
        let in_use_cores = self.master.in_use_cores();
        let quota_cores = self.cfg.max_workers as f64 * self.cfg.worker_request.cores_f64();
        let demand = in_use_cores + waiting_cores;
        let shortage_cores = (demand.min(quota_cores) - supply_cores).max(0.0);
        // Per-category running counts — the Fig. 10a stage-timeline data.
        // Categories seen before but not running now record an explicit
        // zero so their series drop instead of holding the last value.
        // Counted by interned id; names are resolved only at the series
        // boundary (`record_extra` keys series by name, so id-order
        // iteration does not change any series' contents).
        self.per_cat_counts.clear();
        self.per_cat_counts.resize(self.master.interner().len(), 0);
        for r in status.running.values() {
            self.per_cat_counts[r.cat.index()] += 1;
        }
        for &cat in &self.seen_categories {
            if self.per_cat_counts[cat.index()] == 0 {
                self.label_buf.clear();
                self.label_buf.push_str("running:");
                self.label_buf.push_str(self.master.interner().name(cat));
                recorder.record_extra(&self.label_buf, t, 0.0);
            }
        }
        for i in 0..self.per_cat_counts.len() {
            let count = self.per_cat_counts[i];
            if count == 0 {
                continue;
            }
            let cat = CategoryId::from_u32(i as u32);
            self.label_buf.clear();
            self.label_buf.push_str("running:");
            self.label_buf.push_str(self.master.interner().name(cat));
            recorder.record_extra(&self.label_buf, t, count as f64);
            self.seen_categories.insert(cat);
        }
        recorder.record(Sample {
            time_s: t,
            supply_cores,
            in_use_cores,
            shortage_cores,
            nodes: self.cluster.ready_node_count() as f64,
            workers_connected: self.master.connected_workers() as f64,
            workers_idle: self.master.idle_workers() as f64,
            workers_desired: self.policy.desired() as f64,
            tasks_waiting: (self.master.waiting_count() + held_count) as f64,
            tasks_running: self.master.running_count() as f64,
            egress_mbps: self.master.egress_throughput_mbps(),
            cpu_utilization: self.master.mean_worker_utilization().unwrap_or(0.0),
        });
    }
}

impl SnapshotState for SystemDriver {
    /// Re-partition every RNG stream in the system for a what-if branch.
    /// Each component gets its own decorrelated salt so the streams stay
    /// independent across (and within) branches.
    fn reseed(&mut self, salt: u64) {
        self.cluster.reseed(branch_salt(salt, 1));
        self.master.reseed(branch_salt(salt, 2));
        self.operator.reseed(branch_salt(salt, 3));
        if let Some(a) = self.arrivals.as_mut() {
            a.reseed(branch_salt(salt, 4));
        }
    }
}

impl SystemDriver {
    /// Apply `spec.initial_action` at the fork instant and roll this
    /// (already forked) driver forward to the horizon or the event budget.
    fn roll_out(mut self, spec: &BranchSpec) -> BranchOutcome {
        let t0 = self.queue.now();
        let supply_before = self.history.supply_until(t0.as_secs_f64());
        let completed_before = self.master.completed_count();
        let events_before = self.queue.delivered();
        self.apply_action(t0, spec.initial_action);
        let (_, budget_exhausted) = self.run_loop(t0 + spec.horizon, spec.max_events);
        let t1 = self.queue.now();
        // Final sample so the cost integral reflects the branch-end state.
        self.sample(t1);
        let finished = self.workload_finished_at.is_some();
        let stop = if finished {
            BranchStop::Finished
        } else if budget_exhausted {
            BranchStop::Budget
        } else if self.queue.is_empty() {
            BranchStop::Quiescent
        } else {
            BranchStop::Horizon
        };
        let held: usize = self.operator.held_jobs().iter().map(|(_, c)| c).sum();
        let cost_core_s = (self.history.supply_until(t1.as_secs_f64()) - supply_before).max(0.0);
        BranchOutcome {
            elapsed_s: t1.since(t0).as_secs_f64(),
            events: self.queue.delivered() - events_before,
            stop,
            finished,
            completed_delta: self.master.completed_count() - completed_before,
            tasks_waiting: self.master.waiting_count() + held,
            tasks_running: self.master.running_count(),
            live_worker_pods: self.live_worker_pods(),
            cost_core_s,
        }
    }
}

impl WhatIf for SystemDriver {
    /// Fork a branch, apply the candidate action at the fork instant, and
    /// roll the branch forward under a frozen policy to the horizon (or
    /// the event budget). The receiver is untouched.
    ///
    /// The branch records only its running supply integral, continued
    /// from the receiver's series, so `cost_core_s` is bitwise what a full
    /// fork would read off its recorder.
    fn branch(&self, spec: &BranchSpec) -> BranchOutcome {
        let mut branch = self.fork_branch(spec.salt);
        branch.history = History::Rollout(self.history.supply_integral());
        branch.roll_out(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{FixedPolicy, HpaPolicy, HtaConfig, HtaPolicy};
    use hta_cluster::MachineType;
    use hta_makeflow::{CategoryProfile, Job, JobId, SimProfile};

    fn tiny_workflow(n: u64) -> Workflow {
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

    fn small_cfg() -> DriverConfig {
        DriverConfig {
            cluster: ClusterConfig {
                machine: MachineType::custom("m4", Resources::cores(4, 16_000, 100_000)),
                min_nodes: 2,
                max_nodes: 6,
                node_provision_mean: Duration::from_secs(150),
                node_provision_sd: Duration::from_secs(2),
                controller_interval: Duration::from_secs(10),
                node_idle_timeout: Duration::from_secs(120),
                serialize_provisioning: true,
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
                fast_abort_multiplier: None,
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
            worker_anti_affinity: false,
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

    #[test]
    fn fixed_pool_completes_small_workload() {
        let driver =
            SystemDriver::new(small_cfg(), tiny_workflow(6), Box::new(FixedPolicy::new(2)));
        let result = driver.run();
        assert!(!result.timed_out, "run must complete");
        // 6 one-core jobs on 2×3-core workers: one 60 s generation after
        // the image pull and staging. Makespan well under 300 s.
        assert!(result.makespan_s < 300.0, "makespan {}", result.makespan_s);
        assert!(result.summary.runtime_s > 0.0);
        assert_eq!(result.interrupted_tasks, 0);
    }

    #[test]
    fn hta_scales_up_for_backlog_and_completes() {
        let mut cfg = small_cfg();
        cfg.operator = OperatorConfig {
            warmup: true,
            trust_declared: false,
            learn: true,
            seed: 2,
        };
        cfg.initial_workers = 2;
        let driver = SystemDriver::new(
            cfg,
            tiny_workflow(30),
            Box::new(HtaPolicy::new(HtaConfig::default())),
        );
        let result = driver.run();
        assert!(!result.timed_out);
        // Warm-up probes one job, learns ~1 core, then fans out. The
        // backlog forces extra worker pods beyond the initial 2.
        assert!(
            result.summary.peak_workers > 2.0,
            "peak workers {}",
            result.summary.peak_workers
        );
        assert!(
            result.makespan_s < 2_000.0,
            "makespan {}",
            result.makespan_s
        );
    }

    #[test]
    fn run_produces_consistent_metrics() {
        let driver =
            SystemDriver::new(small_cfg(), tiny_workflow(6), Box::new(FixedPolicy::new(2)));
        let result = driver.run();
        let r = &result.recorder;
        assert!(!r.supply.is_empty());
        assert!(!r.in_use.is_empty());
        // Waste = supply − in-use ≥ 0 everywhere by construction.
        assert!(r.waste.values().iter().all(|v| *v >= 0.0));
        // Utilization bounded.
        assert!(r
            .cpu_utilization
            .values()
            .iter()
            .all(|v| (0.0..=1.0).contains(v)));
        // Summary integrals are finite and non-negative.
        assert!(result.summary.accumulated_waste_core_s >= 0.0);
        assert!(result.summary.accumulated_shortage_core_s >= 0.0);
    }

    #[test]
    fn fault_plan_runs_complete_and_are_deterministic() {
        // The acceptance scenario: node crash + image-pull failures + a
        // high transient-task rate, all from one seeded plan. The retry
        // budget absorbs every transient, so the workload completes with
        // exactly-once accounting, and two same-seed runs are identical.
        let run = || {
            let mut cfg = small_cfg();
            cfg.faults = FaultPlan {
                seed: 7,
                node_crash_times: vec![Duration::from_secs(260)],
                image_pull_fail_rate: 0.2,
                task_transient_rate: 0.3,
                max_task_retries: 6,
                ..FaultPlan::default()
            };
            SystemDriver::new(cfg, tiny_workflow(12), Box::new(FixedPolicy::new(3))).run()
        };
        let a = run();
        assert!(!a.timed_out);
        assert_eq!(a.jobs_failed, 0, "retry budget absorbs transients");
        let done = a
            .task_spans
            .iter()
            .filter(|s| s.completed_s.is_some())
            .count();
        assert_eq!(done, 12, "every job completed exactly once");
        assert!(
            a.summary.faults.transient_failures > 0 || a.summary.faults.image_pull_retries > 0,
            "chaos must actually bite: {:?}",
            a.summary.faults
        );
        let b = run();
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn permanent_failure_degrades_gracefully() {
        // 100 % transient rate with a tiny budget: every task fails
        // permanently, the workflow resolves (nothing hangs) and the
        // failure counters land in the summary.
        let mut cfg = small_cfg();
        cfg.faults = FaultPlan {
            seed: 3,
            task_transient_rate: 1.0,
            max_task_retries: 1,
            ..FaultPlan::default()
        };
        let result = SystemDriver::new(cfg, tiny_workflow(4), Box::new(FixedPolicy::new(2))).run();
        assert!(!result.timed_out, "failed workload must still resolve");
        assert_eq!(result.jobs_failed, 4);
        assert_eq!(result.summary.faults.permanent_failures, 4);
        assert!(result.summary.faults.wasted_core_s > 0.0);
    }

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

    /// A chain of `n` 10 s jobs: each reads the previous job's output.
    fn chain_workflow(n: u64) -> Workflow {
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

    #[test]
    fn crash_run_spans_keep_their_live_times() {
        // A crash re-finishes the tasks completed since the checkpoint
        // through WAL replay. Their spans must still show the times of
        // their real runs: a start, and submit ≤ start ≤ completion.
        for crash_s in (200..=290).step_by(30) {
            let mut cfg = small_cfg();
            cfg.cluster.seed = 0;
            cfg.operator.seed = 0;
            cfg.faults.control_plane = ControlPlaneFaults {
                crash_times: vec![Duration::from_secs(crash_s)],
                outage: Duration::from_secs(30),
                checkpoint_interval: Duration::from_secs(60),
            };
            let r = SystemDriver::new(cfg, chain_workflow(30), Box::new(FixedPolicy::new(3))).run();
            assert!(!r.timed_out, "crash at {crash_s} s");
            assert_eq!(r.summary.faults.master_crashes, 1, "crash at {crash_s} s");
            assert_eq!(r.task_spans.len(), 30, "one span per job");
            for s in &r.task_spans {
                let done = s.completed_s.expect("every job completes");
                let start = s.started_s.expect("a completed span has a start");
                assert!(
                    s.submitted_s <= start && start <= done,
                    "crash at {crash_s} s: {s:?}"
                );
            }
        }
    }

    fn completed_labels(r: &RunResult) -> Vec<String> {
        let mut v: Vec<String> = r
            .task_spans
            .iter()
            .filter(|s| s.completed_s.is_some())
            .map(|s| s.label.clone())
            .collect();
        v.sort();
        v
    }

    #[test]
    fn control_plane_crash_recovers_identical_completed_set() {
        // The acceptance scenario: kill the master+operator mid-workload,
        // restart after the outage, and the recovered run must terminate
        // with the exact completed-task set of its crash-free twin.
        let crash_free = SystemDriver::new(
            small_cfg(),
            tiny_workflow(12),
            Box::new(FixedPolicy::new(3)),
        )
        .run();
        let crashed = || {
            let mut cfg = small_cfg();
            cfg.faults.control_plane = ControlPlaneFaults {
                crash_times: vec![Duration::from_secs(90)],
                outage: Duration::from_secs(40),
                checkpoint_interval: Duration::from_secs(60),
            };
            SystemDriver::new(cfg, tiny_workflow(12), Box::new(FixedPolicy::new(3))).run()
        };
        let a = crashed();
        assert!(!a.timed_out, "recovered run must complete");
        assert_eq!(a.summary.faults.master_crashes, 1);
        assert_eq!(a.recoveries.len(), 1);
        let rep = a.recoveries[0];
        assert_eq!(rep.outage_s(), 40.0);
        assert!(
            rep.amnesia_window_s() <= 60.0,
            "amnesia bounded by one checkpoint interval, got {}",
            rep.amnesia_window_s()
        );
        assert!(rep.tasks_requeued > 0, "crash must orphan in-flight work");
        assert!(rep.workers_readopted > 0, "survivors must be re-adopted");
        assert!(
            a.summary.faults.checkpoints_taken >= 2,
            "initial + post-recovery"
        );
        assert_eq!(a.jobs_failed, 0);
        assert_eq!(
            completed_labels(&a),
            completed_labels(&crash_free),
            "identical completed-task set"
        );
        // Bitwise-per-seed reproducibility of the crashed run itself.
        let b = crashed();
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.events, b.events);
        assert_eq!(a.makespan_s, b.makespan_s);
        assert_eq!(a.recoveries, b.recoveries);
    }

    #[test]
    fn crash_recovery_digest_is_identical_across_same_seed_runs() {
        let run = || {
            let mut cfg = small_cfg();
            cfg.faults.control_plane = ControlPlaneFaults {
                crash_times: vec![Duration::from_secs(60), Duration::from_secs(160)],
                outage: Duration::from_secs(30),
                checkpoint_interval: Duration::from_secs(45),
            };
            SystemDriver::new(cfg, tiny_workflow(16), Box::new(FixedPolicy::new(3)))
                .with_digest(DigestConfig {
                    checkpoint_every: 64,
                    capture: None,
                })
                .run()
        };
        let a = run();
        let b = run();
        assert!(!a.timed_out);
        let da = a.digest.expect("digest recorded");
        let db = b.digest.expect("digest recorded");
        assert!(
            da.matches(&db),
            "same-seed crash runs must be bitwise identical"
        );
        assert_eq!(da.first_divergence(&db), None);
        assert_eq!(
            a.summary.faults.master_crashes,
            b.summary.faults.master_crashes
        );
    }

    fn traced_driver(spec: &str, seed: u64, pool: usize) -> SystemDriver {
        let source = ArrivalSource::synth(spec, seed).expect("valid trace spec");
        SystemDriver::new_traced(small_cfg(), source, Box::new(FixedPolicy::new(pool)))
    }

    #[test]
    fn traced_run_completes_and_retires_every_record() {
        let result = traced_driver("demo-1k,tasks=400,rate=4", 7, 4).run();
        assert!(!result.timed_out, "traced run must complete");
        let st = result.arrivals.expect("traced run reports arrival stats");
        assert_eq!(st.submitted, 400);
        assert_eq!(st.total_tasks, 400);
        assert!(st.exhausted);
        assert_eq!(result.completed, 400);
        assert_ne!(result.completed_digest, 0);
        // Every record left the master on completion and a traced run
        // keeps no exit spans, so memory tracked in-flight tasks.
        assert!(result.task_spans.is_empty());
        // Open loop: the run outlives the last arrival.
        assert!(result.makespan_s >= st.last_arrival_s.expect("arrivals emitted"));
    }

    #[test]
    fn traced_digest_is_identical_across_same_seed_runs() {
        let run = || {
            traced_driver("demo-1k,tasks=200", 11, 4)
                .with_digest(DigestConfig {
                    checkpoint_every: 64,
                    capture: None,
                })
                .run()
        };
        let a = run().digest.expect("digest recorded");
        let b = run().digest.expect("digest recorded");
        assert!(a.events > 0);
        assert!(
            a.matches(&b),
            "same-seed traced runs must be bitwise identical"
        );
        assert_eq!(a.first_divergence(&b), None);
    }

    #[test]
    fn traced_crash_recovery_completes_identical_task_set() {
        // Crash the control plane while arrivals are still flowing: the
        // trace cursor restores from the checkpoint, WAL replay advances
        // it over already-admitted arrivals, and the outage backlog is
        // admitted at restart. The completed-id digest must match the
        // crash-free twin (records are retired, so sets are compared by
        // digest, not spans).
        let spec = "demo-1k,tasks=300,rate=3";
        let crash_free = traced_driver(spec, 5, 4).run();
        assert!(!crash_free.timed_out);
        assert_eq!(crash_free.completed, 300);
        let crashed = || {
            let mut cfg = small_cfg();
            cfg.faults.control_plane = ControlPlaneFaults {
                crash_times: vec![Duration::from_secs(60)],
                outage: Duration::from_secs(30),
                checkpoint_interval: Duration::from_secs(45),
            };
            let source = ArrivalSource::synth(spec, 5).expect("valid trace spec");
            SystemDriver::new_traced(cfg, source, Box::new(FixedPolicy::new(4))).run()
        };
        let a = crashed();
        assert!(!a.timed_out, "recovered traced run must complete");
        assert_eq!(a.summary.faults.master_crashes, 1);
        assert_eq!(a.completed, 300);
        assert_eq!(
            a.completed_digest, crash_free.completed_digest,
            "identical completed-task set across crash and crash-free runs"
        );
        let st = a.arrivals.expect("stats survive recovery");
        assert_eq!(st.submitted, 300);
        assert!(st.exhausted);
        // Bitwise-per-seed reproducibility of the crashed traced run.
        let b = crashed();
        assert_eq!(a.events, b.events);
        assert_eq!(a.completed_digest, b.completed_digest);
        assert_eq!(a.makespan_s, b.makespan_s);
    }

    #[test]
    fn traced_crash_recovery_replays_a_category_first_seen_after_the_checkpoint() {
        // `late` first arrives in minute 5: after checkpoint #0 and
        // before the crash at 330 s, so its first tasks reach the
        // restarted master only through WAL replay. The driver interned
        // it at construction, so the restored checkpoint already names it.
        let csv = "function,minute,invocations,p50_ms,p99_ms\n\
                   early,0,30,60000,90000\n\
                   early,2,30,60000,90000\n\
                   late,5,10,60000,90000\n\
                   early,6,30,60000,90000\n";
        let source = || ArrivalSource::azure_csv("azure:late", csv, 3).expect("valid trace");
        let driver = |crash: bool| {
            let mut cfg = small_cfg();
            if crash {
                cfg.faults.control_plane = ControlPlaneFaults {
                    crash_times: vec![Duration::from_secs(330)],
                    outage: Duration::from_secs(20),
                    checkpoint_interval: Duration::from_secs(3_600),
                };
            }
            SystemDriver::new_traced(cfg, source(), Box::new(FixedPolicy::new(4)))
        };
        // Each task's category name, as the trace itself names it.
        let mut expected = BTreeMap::new();
        let mut drain = source();
        let table: Vec<String> = drain.categories().map(str::to_string).collect();
        while let Some((_, spec)) = drain.replay_next() {
            expected.insert(spec.id, table[spec.cat.index()].clone());
        }

        let crash_free = driver(false).run();
        assert!(!crash_free.timed_out);
        assert_eq!(crash_free.completed, 100);

        let mut d = driver(true);
        d.advance_until(SimTime::from_secs(351));
        let names = d.master.interner();
        let mut late_live = 0;
        for r in d.master.task_records() {
            let name = names.name(r.spec.cat);
            assert_eq!(
                name, expected[&r.spec.id],
                "{:?} resolves by name",
                r.spec.id
            );
            late_live += usize::from(name == "late");
        }
        assert!(
            late_live > 0,
            "replayed `late` tasks are live after the restart"
        );

        let a = d.run();
        assert!(!a.timed_out, "recovered traced run must complete");
        let rep = &a.recoveries[0];
        assert!(
            rep.checkpoint_at < SimTime::from_secs(300) && rep.crashed_at > SimTime::from_secs(306),
            "`late` must first arrive between the checkpoint and the crash: {rep:?}"
        );
        assert!(rep.wal_replayed > 0);
        assert_eq!(a.completed, crash_free.completed);
        assert_eq!(
            a.completed_digest, crash_free.completed_digest,
            "identical completed-task set across crash and crash-free runs"
        );
    }

    #[test]
    fn inert_control_plane_arm_leaves_runs_untouched() {
        // A FaultPlan with an *inactive* control-plane arm must not perturb
        // the event stream at all (no checkpoint events, incarnation 0).
        let plain =
            SystemDriver::new(small_cfg(), tiny_workflow(8), Box::new(FixedPolicy::new(2))).run();
        let mut cfg = small_cfg();
        cfg.faults.control_plane = ControlPlaneFaults::default();
        assert!(!cfg.faults.control_plane.is_active());
        let armed = SystemDriver::new(cfg, tiny_workflow(8), Box::new(FixedPolicy::new(2))).run();
        assert_eq!(plain.events, armed.events);
        assert_eq!(plain.summary, armed.summary);
        assert!(armed.recoveries.is_empty());
    }

    /// A Fig. 10-shaped workflow: one split job fans out to `n` align
    /// jobs, and one reduce job waits for all of them.
    fn staged_workflow(n: u64) -> Workflow {
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
    fn fig10_driver(policy: Box<dyn ScalingPolicy>) -> SystemDriver {
        let mut cfg = small_cfg();
        cfg.faults.node_crash_times = vec![Duration::from_secs(250), Duration::from_secs(420)];
        cfg.metrics_lag = Duration::from_secs(30);
        SystemDriver::new(cfg, staged_workflow(60), policy)
    }

    /// Advance `driver` through a run and, at each stop, check that the
    /// lean rollout reports exactly what a full-fidelity branch reports:
    /// a full fork, the full sampler, and the cost read as the difference
    /// of two `integral_until` calls on its recorder. A stop on a whole
    /// second forks on a sample tick; any other stop forks between ticks.
    /// Returns how many forks had a node-crash recovery watch open.
    fn assert_rollouts_match_full_branches(mut driver: SystemDriver, stops_ms: &[u64]) -> usize {
        let mut forked_at = Vec::new();
        let mut watching = 0;
        for &stop in stops_ms {
            if driver.advance_until(SimTime::from_millis(stop)) {
                break;
            }
            // An off-tick stop steps on, one event at a time, to the
            // first instant that is not a whole second.
            while !stop.is_multiple_of(1_000) && driver.now().as_millis().is_multiple_of(1_000) {
                let Some((now, ev)) = driver.queue.pop() else {
                    break;
                };
                driver.dispatch(now, ev);
            }
            assert!(!driver.is_finished(), "fork at {stop} ms is mid-run");
            forked_at.push(driver.now().as_millis());
            watching += usize::from(!driver.recovery_watches.is_empty());
            for salt in [0, 1, 0xD1CE] {
                for (initial_action, max_events) in [
                    (ScaleAction::CreateWorkers(2), u64::MAX),
                    (ScaleAction::None, u64::MAX),
                    (ScaleAction::DrainWorkers(1), u64::MAX),
                    (ScaleAction::CreateWorkers(1), 40),
                ] {
                    let spec = BranchSpec {
                        salt,
                        initial_action,
                        horizon: Duration::from_secs(300),
                        max_events,
                    };
                    let lean = driver.branch(&spec);
                    let full = driver.fork_branch(salt).roll_out(&spec);
                    assert!(matches!(driver.history, History::Full(_)));
                    assert_eq!(lean, full, "at {stop} ms, {spec:?}");
                    assert_eq!(
                        lean.cost_core_s.to_bits(),
                        full.cost_core_s.to_bits(),
                        "at {stop} ms, {spec:?}"
                    );
                }
            }
        }
        assert_eq!(forked_at.len(), stops_ms.len(), "every stop is mid-run");
        for (stop, at) in stops_ms.iter().zip(&forked_at) {
            assert_eq!(
                stop.is_multiple_of(1_000),
                at.is_multiple_of(1_000),
                "fork for stop {stop} ms landed at {at} ms"
            );
        }
        watching
    }

    #[test]
    fn rollouts_match_full_branches_on_a_fig10_run_with_node_crashes() {
        // Crashes at 250 s and 420 s: the later forks see open watches.
        let stops = [0, 90_000, 201_500, 260_000, 300_250, 433_700];
        let hta = fig10_driver(Box::new(HtaPolicy::new(HtaConfig::default())));
        assert!(assert_rollouts_match_full_branches(hta, &stops) > 0);
        let hpa = fig10_driver(Box::new(HpaPolicy::new(0.5, 2, 6)));
        assert!(assert_rollouts_match_full_branches(hpa, &stops) > 0);
    }

    #[test]
    fn rollouts_match_full_branches_on_a_traced_run() {
        let traced = traced_driver("demo-1k,tasks=400,rate=4", 7, 4);
        assert_rollouts_match_full_branches(traced, &[0, 30_000, 64_300, 121_000, 150_900]);
    }

    #[test]
    fn forks_share_the_immutable_run_inputs() {
        let mut parent = fig10_driver(Box::new(FixedPolicy::new(3)));
        parent.advance_until(SimTime::from_secs(120));
        let fork = parent.fork_branch(1);
        assert!(Arc::ptr_eq(
            parent.operator.file_ids(),
            fork.operator.file_ids()
        ));
        let dag = |d: &SystemDriver| d.operator.workflow().dag.job(JobId(3)).unwrap() as *const Job;
        assert_eq!(dag(&parent), dag(&fork), "one job table");
        let db = |d: &SystemDriver| {
            d.master.catalog().get(hta_workqueue::FileId(0)).unwrap()
                as *const hta_workqueue::FileSpec
        };
        assert_eq!(db(&parent), db(&fork), "one file catalogue");
        let (History::Full(a), History::Full(b)) = (&parent.history, &fork.history) else {
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
        let History::Full(b) = &fork.history else {
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
}
