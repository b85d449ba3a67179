//! The Work Queue master.
//!
//! Owns the task queue, the worker table, and the shared egress link.
//! Scheduling policy (§III-A):
//!
//! * a task with **declared resources** is first-fit packed onto any
//!   active worker with room;
//! * a task with **unknown resources** is dispatched *exclusively* to an
//!   empty worker (conservative one-task-per-worker), which is also how
//!   HTA's warm-up stage measures each category's first job.
//!
//! Dispatch → staging (inputs over the shared link, minus per-worker cache
//! hits) → execution → output return (also over the link) → completion,
//! at which point the resource monitor's measurement is surfaced as a
//! [`WqNotification::TaskCompleted`].
//!
//! Workers leave in two ways: [`Master::drain_worker`] (graceful, HTA) and
//! [`Master::kill_worker`] (eviction, HPA) — killed workers orphan their
//! tasks back into the queue and lose their caches.
//!
//! # Hot path
//!
//! The master sits on the simulation's innermost loop. Its worker state
//! is O(live): a worker is retired from the table the moment it stops,
//! and the dispatch admission gate (the component-wise max of free
//! resources) is kept current per worker transition instead of being
//! rescanned. Three more design decisions keep steady-state event
//! handling allocation-free:
//!
//! * category names are interned once at submission ([`CategoryId`]);
//!   everything downstream (notifications, snapshots, per-category
//!   statistics) moves the `Copy` id instead of cloning `String`s;
//! * every effect-producing method pushes into a caller-owned
//!   [`EffectSink`] instead of returning a fresh `Vec` per event;
//! * the autoscaler's [`QueueStatus`] is maintained *incrementally* at
//!   task/worker transitions instead of being rebuilt from scratch on
//!   every poll ([`Master::queue_status`] only re-derives the waiting
//!   view, and only when the queue actually changed).

use std::collections::{BTreeMap, BTreeSet};

use hta_des::{
    branch_salt, CategoryId, ChanDir, ChannelStats, Delivery, Duration, EffectSink, Interner,
    NetChannel, NetworkFaults, SimRng, SimTime,
};
use hta_resources::Resources;
use serde::{Deserialize, Serialize};

use crate::file::FileCatalog;
use crate::ids::{FileId, FlowId, TaskId, WorkerId};
use crate::link::FairShareLink;
use crate::proto::ControlMsg;
use crate::task::{Measured, Speculative, TaskRecord, TaskSpec, TaskState};
use crate::task_table::TaskTable;
use crate::waiting::WaitingQueue;
use crate::worker::{Worker, WorkerState};

/// Events the master schedules for itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WqEvent {
    /// Wake up to progress the transfer link; stale when the tagged
    /// generation no longer matches the link's.
    LinkWake(u64),
    /// A task's execution finished; stale when the tagged run generation
    /// no longer matches the record's (the run was interrupted).
    TaskFinished(TaskId, u64),
    /// Straggler check for one task (armed at dispatch when fast abort is
    /// enabled); stale under the same run-generation rule.
    FastAbortCheck(TaskId, u64),
    /// Wake up to progress the worker-to-worker transfer link.
    PeerLinkWake(u64),
    /// An execution attempt died partway through (fault injection); stale
    /// under the run-generation rule.
    TaskAttemptFailed(TaskId, u64, FailKind),
    /// Check whether a running task is straggling and deserves a
    /// speculative duplicate; stale under the run-generation rule.
    StragglerCheck(TaskId, u64),
    /// A speculative duplicate finished; first finish wins.
    SpeculativeFinished(TaskId, u64),
    /// A control message crossed the lossy channel and is delivered now
    /// (only scheduled when transport faults are active; the zero-fault
    /// channel delivers inline).
    NetDeliver(ControlMsg),
    /// Retransmit check for an unacknowledged dispatch:
    /// `(task, dispatch_seq, attempt)`. At-least-once delivery — armed
    /// only when transport faults are active.
    DispatchTimeout(TaskId, u64, u32),
    /// Worker-side retransmit of a completion report the network ate:
    /// `(task, run_generation, attempt)`.
    CompletionResend(TaskId, u64, u32),
    /// A worker's periodic heartbeat emission (armed only when the
    /// heartbeat lease is on; self-rescheduling while the worker lives).
    HeartbeatTick(WorkerId),
    /// Periodic lease scan presuming silent workers dead (armed once,
    /// self-rescheduling).
    LeaseCheck,
}

/// How an execution attempt died (fault injection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailKind {
    /// Nonzero exit partway through the run (flaky task, bad input…).
    Transient,
    /// Killed by the kernel OOM killer; the retry escalates its memory
    /// allocation.
    Oom,
}

/// A follow-up event with its delay.
pub type WqEffect = (Duration, WqEvent);

/// Upward notifications drained by the layer above (the HTA operator).
#[derive(Debug, Clone, PartialEq)]
pub enum WqNotification {
    /// A task completed; the resource monitor's measurement is attached.
    TaskCompleted {
        /// Which task.
        task: TaskId,
        /// Its interned category (for HTA's per-category statistics;
        /// resolve names through [`Master::interner`]).
        cat: CategoryId,
        /// Measured peak resources + wall time.
        measured: Measured,
    },
    /// A task was re-queued because its worker was killed.
    TaskRequeued(TaskId),
    /// A straggling task was aborted by fast abort and re-queued.
    TaskFastAborted(TaskId),
    /// A task exhausted its retry budget and is permanently failed.
    TaskFailed {
        /// Which task.
        task: TaskId,
        /// Its interned category.
        cat: CategoryId,
    },
    /// A drained worker finished its last task and stopped.
    WorkerStopped(WorkerId),
}

/// Master tuning knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MasterConfig {
    /// Base egress capacity (MB/s).
    pub egress_base_mbps: f64,
    /// Concurrency-overhead coefficient of the link model.
    pub egress_overhead_per_flow: f64,
    /// Work Queue's fast-abort multiplier
    /// (`work_queue_activate_fast_abort`): a running task exceeding
    /// `multiplier ×` its category's mean execution time is killed and
    /// re-queued on another worker. `None` disables straggler mitigation.
    pub fast_abort_multiplier: Option<f64>,
    /// Worker-to-worker transfers of cached files: a cacheable input that
    /// another worker already holds is fetched peer-to-peer over the
    /// cluster network instead of the master's uplink. Off by default —
    /// the paper's Work Queue version moves everything through the
    /// master, which is what Fig. 4 measures.
    pub peer_transfers: bool,
    /// Aggregate peer-network bandwidth (MB/s) when peer transfers are
    /// enabled (many node-to-node paths, so far above one NIC).
    pub peer_bandwidth_mbps: f64,
    /// Fault-injection knobs for the task-execution layer.
    pub faults: TaskFaults,
    /// Network-fault knobs for the master↔worker control channel. The
    /// zero-fault default makes the channel a strict pass-through.
    #[serde(default)]
    pub net: NetworkFaults,
    /// Streaming admission: drop a task's record the moment it completes,
    /// keeping master memory proportional to *in-flight* tasks instead of
    /// every task ever submitted. Required for open-loop trace runs
    /// (millions of arrivals); leave off for workflow runs, whose post-run
    /// reporting (task spans, completed-id sets) reads the retained
    /// records. Terminal accounting survives retirement via counters and
    /// an order-insensitive completed-id digest.
    #[serde(default)]
    pub retire_completed: bool,
}

impl Default for MasterConfig {
    fn default() -> Self {
        MasterConfig {
            egress_base_mbps: 600.0,
            egress_overhead_per_flow: 0.083,
            fast_abort_multiplier: None,
            peer_transfers: false,
            peer_bandwidth_mbps: 2_000.0,
            faults: TaskFaults::default(),
            net: NetworkFaults::default(),
            retire_completed: false,
        }
    }
}

/// Fault-injection knobs for task execution.
///
/// With both failure rates at zero and speculation disabled, the master
/// draws nothing from its fault RNG, so fault-free runs are
/// byte-identical with or without this subsystem.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskFaults {
    /// Probability that one execution attempt exits nonzero partway
    /// through its run.
    pub transient_rate: f64,
    /// Probability that one execution attempt is OOM-killed; the retry
    /// runs at an escalated memory allocation.
    pub oom_rate: f64,
    /// Failed attempts tolerated per task; one more classifies the task
    /// as permanently failed ([`WqNotification::TaskFailed`]).
    pub max_retries: u32,
    /// Memory multiplier applied to a task's declared allocation after
    /// each OOM kill, capped at the largest connected worker's capacity.
    pub oom_escalation: f64,
    /// Straggler mitigation by speculation: a task running longer than
    /// `factor ×` its category's mean wall time gets a duplicate on
    /// another worker; whichever copy finishes first wins and the loser
    /// is cancelled. `None` disables speculation.
    pub straggler_factor: Option<f64>,
    /// Seed for the master's fault/speculation RNG stream.
    pub seed: u64,
}

impl Default for TaskFaults {
    fn default() -> Self {
        TaskFaults {
            transient_rate: 0.0,
            oom_rate: 0.0,
            max_retries: 3,
            oom_escalation: 1.5,
            straggler_factor: None,
            seed: 0x4854_4132, // "HTA2"
        }
    }
}

/// Cumulative task-layer fault counters (see [`Master::fault_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TaskFaultStats {
    /// Attempts that exited nonzero.
    pub transient_failures: u64,
    /// Attempts killed by the OOM killer.
    pub oom_kills: u64,
    /// Retries granted (failed attempts that stayed within budget).
    pub retries: u64,
    /// Tasks classified permanently failed.
    pub permanent_failures: u64,
    /// Speculative duplicates launched.
    pub speculative_launched: u64,
    /// Races the duplicate won.
    pub speculative_wins: u64,
    /// Core·seconds burned by failed attempts and cancelled duplicates
    /// (work that had to be redone).
    pub wasted_core_s: f64,
}

/// Why a flow exists.
#[derive(Debug, Clone, PartialEq, Eq)]
enum FlowPurpose {
    /// Delivering inputs for a task; `files` are the cacheable files the
    /// flow carries (cached on the worker when it completes).
    Staging {
        /// The task that initiated the transfer (it waits on the flow).
        task: TaskId,
        /// Cacheable files carried (other tasks may be waiting on them).
        files: Vec<FileId>,
        /// Other tasks on the same worker waiting on the carried files.
        /// They leave with the flow: a cancelled flow drops its list.
        sharers: Vec<TaskId>,
    },
    /// Returning a task's output.
    Returning(TaskId),
}

impl FlowPurpose {
    fn task(&self) -> TaskId {
        match self {
            FlowPurpose::Staging { task, .. } => *task,
            FlowPurpose::Returning(t) => *t,
        }
    }
}

/// Snapshot of one waiting task (for the autoscaler).
#[derive(Debug, Clone, Copy)]
pub struct WaitingSnapshot {
    /// Task id.
    pub id: TaskId,
    /// Interned category.
    pub cat: CategoryId,
    /// Declared resources, if known.
    pub declared: Option<Resources>,
}

/// Snapshot of one running (staging/running/returning) task.
#[derive(Debug, Clone, Copy)]
pub struct RunningSnapshot {
    /// Task id.
    pub id: TaskId,
    /// Interned category.
    pub cat: CategoryId,
    /// When execution started (`None` while staging).
    pub started_at: Option<SimTime>,
    /// Resources allocated on the worker.
    pub allocation: Resources,
    /// The worker responsible.
    pub worker: WorkerId,
}

/// Snapshot of one worker.
#[derive(Debug, Clone, Copy)]
pub struct WorkerSnapshot {
    /// Worker id.
    pub id: WorkerId,
    /// Advertised capacity.
    pub capacity: Resources,
    /// Currently unallocated capacity.
    pub available: Resources,
    /// Lifecycle state.
    pub state: WorkerState,
    /// Assigned task count.
    pub tasks: usize,
}

/// Per-category progress counters (see [`Master::category_summary`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CategorySummary {
    /// Tasks in the queue.
    pub waiting: usize,
    /// Tasks staged/running/returning on workers.
    pub running: usize,
    /// Tasks finished.
    pub completed: usize,
    /// Tasks permanently failed (fault injection).
    pub failed: usize,
    /// Mean measured wall time (seconds), 0 before the first completion.
    pub mean_wall_s: f64,
}

/// Queue status handed to the autoscaler (the paper's framework-level
/// feedback input).
///
/// Maintained incrementally by the master: `running` and `workers` are
/// updated in place at every task/worker transition; `waiting` is a
/// lazily rebuilt view of the FIFO queue (rebuilt only when the queue
/// changed since the last poll).
#[derive(Debug, Clone, Default)]
pub struct QueueStatus {
    /// Waiting tasks in FIFO order.
    pub waiting: Vec<WaitingSnapshot>,
    /// Tasks assigned to workers, keyed by task id.
    pub running: BTreeMap<TaskId, RunningSnapshot>,
    /// Active and draining workers, keyed by worker id.
    pub workers: BTreeMap<WorkerId, WorkerSnapshot>,
}

/// Per-category wall-time accumulator with a cached mean.
#[derive(Debug, Clone, Copy, Default)]
struct CatWall {
    total_ms: u128,
    count: u64,
    /// `total_ms / count`, recomputed on observation so the hot readers
    /// ([`Master::mean_wall_id`], fast-abort/straggler arming, summaries)
    /// never divide.
    mean: Duration,
}

/// The dispatch admission gate, kept current per worker instead of
/// rescanned: the component-wise max of free resources over *eligible*
/// workers (active, no exclusive task, not a suspect), and whether any of
/// them is idle. A component-wise max needs one ordered multiset per
/// axis — a single heap cannot answer it — so each axis counts the
/// members' free amounts in a `BTreeMap<value, count>`.
#[derive(Debug, Clone, Default)]
struct DispatchGate {
    /// Each eligible worker's free resources and idleness, as counted
    /// into the axes below.
    members: BTreeMap<WorkerId, (Resources, bool)>,
    millicores: BTreeMap<i64, u32>,
    memory_mb: BTreeMap<i64, u32>,
    disk_mb: BTreeMap<i64, u32>,
    /// Members with no assigned task.
    idle: usize,
}

impl DispatchGate {
    /// Replace a worker's entry (`None` = not eligible). O(log live).
    fn set(&mut self, wid: WorkerId, entry: Option<(Resources, bool)>) {
        let old = match entry {
            Some(e) => self.members.insert(wid, e),
            None => self.members.remove(&wid),
        };
        if old == entry {
            return;
        }
        if let Some((free, idle)) = old {
            for (axis, v) in self.axes(free) {
                if let Some(n) = axis.get_mut(&v) {
                    *n -= 1;
                    if *n == 0 {
                        axis.remove(&v);
                    }
                }
            }
            self.idle -= usize::from(idle);
        }
        if let Some((free, idle)) = entry {
            for (axis, v) in self.axes(free) {
                *axis.entry(v).or_insert(0) += 1;
            }
            self.idle += usize::from(idle);
        }
    }

    /// Each axis multiset paired with `free`'s amount on that axis.
    fn axes(&mut self, free: Resources) -> [(&mut BTreeMap<i64, u32>, i64); 3] {
        [
            (&mut self.millicores, free.millicores),
            (&mut self.memory_mb, free.memory_mb),
            (&mut self.disk_mb, free.disk_mb),
        ]
    }

    /// `(max free per axis, any idle)` over the members — exactly what a
    /// full scan of eligible workers starting from zero yields.
    fn headroom(&self) -> (Resources, bool) {
        let top = |axis: &BTreeMap<i64, u32>| axis.keys().next_back().map_or(0, |v| (*v).max(0));
        (
            Resources::new(
                top(&self.millicores),
                top(&self.memory_mb),
                top(&self.disk_mb),
            ),
            self.idle > 0,
        )
    }
}

/// The master state machine.
#[derive(Debug, Clone)]
pub struct Master {
    catalog: FileCatalog,
    interner: Interner,
    tasks: TaskTable,
    /// The FIFO of waiting tasks and its demand histogram: distinct
    /// (category, declared requirement) pairs with their counts. The
    /// histogram lets [`Master::dispatch`] stop scanning the moment
    /// remaining headroom fits no waiting requirement — on a saturated
    /// cluster with a deep open-loop backlog that turns each O(queue)
    /// rescan into O(placements made) — and gives the driver's metrics
    /// sampler an O(distinct) waiting-cores sum instead of an O(queue)
    /// walk.
    waiting: WaitingQueue,
    /// Live (active or draining) workers only: a worker is dropped the
    /// moment it stops (see [`Master::refresh_worker_snap`]), so every
    /// scan over this map costs O(live), not O(workers ever connected).
    workers: BTreeMap<WorkerId, Worker>,
    /// Incrementally maintained dispatch admission gate.
    gate: DispatchGate,
    link: FairShareLink,
    /// Worker-to-worker transfer link (used when `peer_transfers` is on).
    peer_link: FairShareLink,
    peer_transfers: bool,
    // Ordered maps on purpose: both are *iterated* (flow-completion
    // release, worker kill), and iteration order decides which task
    // starts first — which must not depend on hash state once fault
    // injection draws a fate per started attempt.
    flows: BTreeMap<FlowId, FlowPurpose>,
    /// Tasks in `Staging` waiting on one or more flows (their own
    /// transfer and/or shared cacheable files already in flight). A
    /// completed flow releases only its own waiters (the initiating task
    /// and its `sharers`), never scanning this map.
    staging_waits: BTreeMap<TaskId, Vec<FlowId>>,
    next_flow: u64,
    next_worker: u64,
    notifications: Vec<WqNotification>,
    completed_count: usize,
    failed_count: usize,
    /// Streaming admission (see [`MasterConfig::retire_completed`]).
    retire_completed: bool,
    /// Completed task records dropped under retirement.
    retired: usize,
    /// Order-insensitive digest over every completed task id (wrapping
    /// sum of a bit-mixed id). Maintained whether or not retirement is
    /// on, so crash-equivalence checks can compare completion *sets*
    /// even when the records themselves were retired.
    completed_digest: u64,
    /// Retired-completion counts per category, indexed by [`CategoryId`]
    /// — keeps [`Master::category_summary`] exact under retirement.
    cat_retired: Vec<usize>,
    fast_abort_multiplier: Option<f64>,
    /// Mean observed wall per category, indexed by [`CategoryId`].
    cat_wall: Vec<CatWall>,
    faults: TaskFaults,
    /// Fault/speculation RNG — only drawn from when a fault rate is
    /// nonzero or speculation is on, so fault-free runs stay byte-stable.
    rng: SimRng,
    fault_stats: TaskFaultStats,
    /// Incrementally maintained autoscaler snapshot.
    snap: QueueStatus,
    /// True when `snap.waiting` no longer reflects the FIFO queue.
    waiting_dirty: bool,
    /// Recycled input-file buffer for [`Master::dispatch`].
    input_scratch: Vec<FileId>,
    /// Recycled completed-flow buffer for the link wake-ups.
    flow_scratch: Vec<FlowId>,
    /// Memoised [`Master::mean_worker_utilization`] result, cleared by
    /// every mutating entry point. The metrics sampler reads the mean
    /// several times per (usually event-free) sampling interval; the
    /// cached value is the product of the exact same summation, so
    /// reported series stay bit-identical.
    mwu_cache: std::cell::Cell<Option<Option<f64>>>,
    /// The lossy control channel all master↔worker traffic crosses
    /// (zero-fault ⇒ strict inline pass-through).
    net: NetChannel,
    /// Dispatch sequence allocator (the per-dispatch fencing token).
    net_seq: u64,
    /// Last heartbeat received per live worker (populated only when the
    /// lease is on).
    last_heartbeat: BTreeMap<WorkerId, SimTime>,
    /// Workers presumed dead after a missed lease; skipped by placement
    /// until a fresh heartbeat clears the suspicion.
    suspects: BTreeSet<WorkerId>,
    /// When worker telemetry (heartbeats, connections) last arrived;
    /// drives the autoscaler's staleness bound during partitions.
    last_telemetry: SimTime,
    /// Leases expired (workers presumed dead and their tasks re-queued).
    leases_expired: u64,
    /// Stale completion reports fenced by the run-generation check at
    /// the channel boundary ("zombie" completions from presumed-dead
    /// workers' runs). Counted only while network faults are active.
    zombies_fenced: u64,
    /// True once the self-rescheduling [`WqEvent::LeaseCheck`] is armed.
    lease_check_armed: bool,
    /// Deferred link wake-up flags: [`Master::begin_staging`] sets them
    /// when it opens flows; the enclosing entry point arms the wakes once
    /// per batch (preserving the one-arming-per-dispatch event stream).
    wake_link: bool,
    /// Peer-link counterpart of `wake_link`.
    wake_peer: bool,
}

/// SplitMix64 finalizer: spreads sequential task ids over the whole u64
/// space so the wrapping-sum completion digest doesn't collapse distinct
/// id sets with equal sums (e.g. {0,3} vs {1,2}).
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// True when a record is in the waiting queue's live set.
fn is_waiting(rec: &TaskRecord) -> bool {
    rec.state == TaskState::Waiting
}

/// True when a record is in a terminal state (completed or failed).
fn is_terminal(rec: &TaskRecord) -> bool {
    matches!(rec.state, TaskState::Complete | TaskState::Failed)
}

/// The waiting queue's liveness test: a queue entry is live while its
/// task's record exists and says `Waiting`; any other entry is a
/// tombstone.
fn queued(tasks: &TaskTable, id: TaskId) -> bool {
    tasks.get(&id).is_some_and(is_waiting)
}

impl hta_des::SnapshotState for Master {
    /// Re-partition the fault/speculation and channel RNGs for a what-if
    /// branch; queue contents, workers, flows and statistics are
    /// untouched. The two streams get decorrelated salts.
    fn reseed(&mut self, salt: u64) {
        self.rng = self.rng.partition(salt);
        self.net.reseed(branch_salt(salt, 1));
    }
}

impl Master {
    /// A master with the given file catalogue.
    pub fn new(cfg: MasterConfig, catalog: FileCatalog) -> Self {
        Master {
            catalog,
            interner: Interner::new(),
            tasks: TaskTable::new(),
            waiting: WaitingQueue::default(),
            workers: BTreeMap::new(),
            gate: DispatchGate::default(),
            link: FairShareLink::new(cfg.egress_base_mbps, cfg.egress_overhead_per_flow),
            peer_link: FairShareLink::new(cfg.peer_bandwidth_mbps, 0.0),
            peer_transfers: cfg.peer_transfers,
            flows: BTreeMap::new(),
            staging_waits: BTreeMap::new(),
            next_flow: 0,
            next_worker: 0,
            notifications: Vec::new(),
            completed_count: 0,
            failed_count: 0,
            retire_completed: cfg.retire_completed,
            retired: 0,
            completed_digest: 0,
            cat_retired: Vec::new(),
            fast_abort_multiplier: cfg.fast_abort_multiplier,
            cat_wall: Vec::new(),
            rng: SimRng::seed_from_u64(cfg.faults.seed),
            faults: cfg.faults,
            fault_stats: TaskFaultStats::default(),
            snap: QueueStatus::default(),
            waiting_dirty: false,
            input_scratch: Vec::new(),
            flow_scratch: Vec::new(),
            mwu_cache: std::cell::Cell::new(None),
            net: NetChannel::new(cfg.net),
            net_seq: 0,
            last_heartbeat: BTreeMap::new(),
            suspects: BTreeSet::new(),
            last_telemetry: SimTime::ZERO,
            leases_expired: 0,
            zombies_fenced: 0,
            lease_check_armed: false,
            wake_link: false,
            wake_peer: false,
        }
    }

    /// The file catalogue (mutable, to register files before submitting).
    pub fn catalog_mut(&mut self) -> &mut FileCatalog {
        &mut self.catalog
    }

    /// The file catalogue.
    pub fn catalog(&self) -> &FileCatalog {
        &self.catalog
    }

    /// The category interner (resolve [`CategoryId`]s to names).
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Intern a category name ahead of submission (the operator does this
    /// for every workflow category so ids exist before the first job).
    pub fn intern_category(&mut self, name: &str) -> CategoryId {
        self.interner.intern(name)
    }

    // ------------------------------------------------------------------
    // API surface
    // ------------------------------------------------------------------

    /// Submit a task.
    pub fn submit(&mut self, now: SimTime, spec: TaskSpec, fx: &mut EffectSink<WqEvent>) {
        let id = spec.id;
        debug_assert!(
            !self.tasks.contains_key(&id),
            "duplicate task id {id:?} submitted"
        );
        self.mwu_cache.set(None);
        let cat = self.interner.intern(&spec.category);
        let declared = spec.declared;
        self.tasks.insert(id, TaskRecord::new(spec, cat, now));
        self.waiting.push_back(id, cat, declared);
        self.waiting_dirty = true;
        self.dispatch(now, fx);
        self.assert_invariants();
    }

    /// Update the declared resources of a *waiting* task (HTA applies a
    /// category's measured requirement to queued jobs — §IV-A step iii).
    pub fn declare_resources(&mut self, task: TaskId, declared: Resources) {
        self.mwu_cache.set(None);
        let Some(rec) = self.tasks.get_mut_if(&task, is_waiting) else {
            return;
        };
        let old = rec.spec.declared;
        rec.spec.declared = Some(declared);
        self.waiting.redeclare(rec.cat, old, Some(declared));
        self.waiting_dirty = true;
    }

    /// A new worker connected with the given capacity.
    pub fn worker_connect(
        &mut self,
        now: SimTime,
        capacity: Resources,
        fx: &mut EffectSink<WqEvent>,
    ) -> WorkerId {
        self.mwu_cache.set(None);
        let id = WorkerId(self.next_worker);
        self.next_worker += 1;
        self.workers.insert(id, Worker::connect(id, capacity, now));
        self.refresh_worker_snap(id);
        if self.liveness_on() {
            // The connection itself is a heartbeat; the worker then
            // reports on a cadence that survives a couple of lost beats
            // before the lease runs out.
            self.last_heartbeat.insert(id, now);
            self.last_telemetry = self.last_telemetry.max(now);
            fx.push(self.heartbeat_interval(), WqEvent::HeartbeatTick(id));
            if !self.lease_check_armed {
                self.lease_check_armed = true;
                fx.push(self.lease_scan_interval(), WqEvent::LeaseCheck);
            }
        }
        self.dispatch(now, fx);
        self.assert_invariants();
        id
    }

    /// Gracefully drain a worker: no new tasks; stops when empty. Idle
    /// workers stop immediately (notification emitted).
    pub fn drain_worker(&mut self, now: SimTime, id: WorkerId) {
        self.mwu_cache.set(None);
        let Some(w) = self.workers.get_mut(&id) else {
            return; // never connected, or already stopped and retired
        };
        if w.drain() {
            w.stop(now);
            self.notifications.push(WqNotification::WorkerStopped(id));
        }
        self.refresh_worker_snap(id);
        self.assert_invariants();
    }

    /// Kill a worker (pod eviction): running/staging tasks are re-queued
    /// at the front, transfers cancelled, cache lost.
    pub fn kill_worker(&mut self, now: SimTime, id: WorkerId, fx: &mut EffectSink<WqEvent>) {
        self.mwu_cache.set(None);
        let Some(w) = self.workers.get_mut(&id) else {
            return; // never connected, or already stopped and retired
        };
        let orphans = w.stop(now);
        self.refresh_worker_snap(id);
        self.last_heartbeat.remove(&id);
        self.suspects.remove(&id);
        // Cancel any flows serving the orphaned tasks (the worker's cache
        // and in-flight markers are already gone with `stop`).
        let stale: Vec<FlowId> = self
            .flows
            .iter()
            .filter(|(_, p)| orphans.contains(&p.task()))
            .map(|(f, _)| *f)
            .collect();
        for f in stale {
            self.cancel_flow(now, f);
        }
        for t in &orphans {
            self.staging_waits.remove(t);
        }
        // Re-queue orphans at the front (retry priority), newest last so
        // original relative order is kept. Tasks entangled with a
        // speculative duplicate get special treatment: a duplicate that
        // lived on the killed worker is simply cancelled (the primary
        // keeps running elsewhere); a primary killed while its duplicate
        // survives is *promoted* onto the duplicate instead of re-queued.
        for t in orphans.iter().rev() {
            let Some(rec) = self.tasks.get_mut(t) else {
                continue;
            };
            if let Some(sp) = rec.speculative {
                if sp.worker == id && !matches!(rec.state, TaskState::Running(w) if w == id) {
                    // Only the duplicate died; charge its burned work.
                    rec.speculative = None;
                    let cores = rec.allocation.unwrap_or(rec.spec.actual).cores_f64();
                    self.fault_stats.wasted_core_s +=
                        cores * now.since(sp.started_at).as_secs_f64();
                    continue;
                }
                if matches!(rec.state, TaskState::Running(w) if w == id) && sp.worker != id {
                    // Primary died, duplicate lives: promote it. Fresh
                    // generation stales both pending finish events, so
                    // schedule the duplicate's remaining run explicitly.
                    rec.speculative = None;
                    let cores = rec.allocation.unwrap_or(rec.spec.actual).cores_f64();
                    let elapsed = rec.started_at.map_or(Duration::ZERO, |s| now.since(s));
                    self.fault_stats.wasted_core_s += cores * elapsed.as_secs_f64();
                    rec.state = TaskState::Running(sp.worker);
                    rec.started_at = Some(sp.started_at);
                    rec.run_generation += 1;
                    let remaining = sp.duration.saturating_sub(now.since(sp.started_at));
                    let generation = rec.run_generation;
                    fx.push(remaining, WqEvent::TaskFinished(*t, generation));
                    self.refresh_task_snap(*t);
                    continue;
                }
            }
            rec.speculative = None;
            rec.state = TaskState::Waiting;
            rec.allocation = None;
            rec.started_at = None;
            rec.run_generation += 1;
            rec.interruptions += 1;
            self.waiting.push_front(*t, rec.cat, rec.spec.declared);
            self.waiting_dirty = true;
            self.notifications.push(WqNotification::TaskRequeued(*t));
            self.refresh_task_snap(*t);
        }
        self.dispatch(now, fx);
        self.assert_invariants();
    }

    /// Drain upward notifications.
    pub fn drain_notifications(&mut self) -> Vec<WqNotification> {
        std::mem::take(&mut self.notifications)
    }

    // ------------------------------------------------------------------
    // Crash recovery (control-plane restart support)
    // ------------------------------------------------------------------

    /// Reset the data plane of a checkpoint-restored master after a
    /// control-plane crash.
    ///
    /// The restored state believes transfers are in flight and workers are
    /// connected; in reality every connection died with the old process.
    /// This cancels all flows, re-queues every in-flight task exactly once
    /// (ascending id at the queue front, mirroring [`kill_worker`]'s retry
    /// priority), and disconnects every worker — survivors re-register with
    /// fresh ids during the driver's re-adoption pass. Unlike
    /// [`kill_worker`], speculative duplicates are dropped without
    /// promotion (the duplicate's worker link is equally dead) and no
    /// notifications are emitted: the operator replays its own decision
    /// log instead of reacting to these transitions.
    ///
    /// Returns the number of re-queued tasks.
    ///
    /// [`kill_worker`]: Self::kill_worker
    pub fn recover_reset_data_plane(&mut self, now: SimTime) -> usize {
        self.mwu_cache.set(None);
        let stale: Vec<FlowId> = self.flows.keys().copied().collect();
        for f in stale {
            self.cancel_flow(now, f);
        }
        self.staging_waits.clear();
        let orphans: Vec<TaskId> = self
            .tasks
            .iter()
            .filter(|(_, r)| {
                matches!(
                    r.state,
                    TaskState::Staging(_) | TaskState::Running(_) | TaskState::Returning(_)
                )
            })
            .map(|(t, _)| *t)
            .collect();
        for t in orphans.iter().rev() {
            let rec = self.tasks.get_mut(t).expect("collected above");
            rec.speculative = None;
            rec.state = TaskState::Waiting;
            rec.allocation = None;
            rec.started_at = None;
            rec.run_generation += 1;
            rec.interruptions += 1;
            rec.dispatch_acked = false;
            self.waiting.push_front(*t, rec.cat, rec.spec.declared);
            self.refresh_task_snap(*t);
        }
        self.waiting_dirty = true;
        let wids: Vec<WorkerId> = self.workers.keys().copied().collect();
        for w in wids {
            if let Some(worker) = self.workers.get_mut(&w) {
                let _ = worker.stop(now);
            }
            self.refresh_worker_snap(w);
        }
        // Liveness state dies with the old incarnation: the pending
        // LeaseCheck/HeartbeatTick events are incarnation-fenced by the
        // driver, so re-adopted workers re-arm everything from scratch.
        self.last_heartbeat.clear();
        self.suspects.clear();
        self.lease_check_armed = false;
        self.notifications.clear();
        self.assert_invariants();
        orphans.len()
    }

    /// Apply a durably logged completion during WAL replay.
    ///
    /// The task was re-queued by [`recover_reset_data_plane`]; take it
    /// straight back to `Complete` (stamped with the original completion
    /// instant) without emitting a notification — the operator replays its
    /// own record of the same decision.
    ///
    /// [`recover_reset_data_plane`]: Self::recover_reset_data_plane
    pub fn recover_complete(&mut self, at: SimTime, task: TaskId) {
        self.mwu_cache.set(None);
        let Some(rec) = self.tasks.get_mut_if(&task, |r| !is_terminal(r)) else {
            return;
        };
        debug_assert_eq!(
            rec.state,
            TaskState::Waiting,
            "WAL replay runs against a reset data plane"
        );
        let was_waiting = rec.state == TaskState::Waiting;
        let declared = rec.spec.declared;
        rec.state = TaskState::Complete;
        rec.completed_at = Some(at);
        let cat = rec.cat;
        self.completed_count += 1;
        self.note_completed_id(task);
        if was_waiting {
            let tasks = &self.tasks;
            self.waiting.remove(cat, declared, |t| queued(tasks, t));
        }
        self.waiting_dirty = true;
        self.refresh_task_snap(task);
        if self.retire_completed {
            self.retire_task(task, cat);
        }
        self.assert_invariants();
    }

    /// Apply a durably logged permanent failure during WAL replay (the
    /// counterpart of [`recover_complete`](Self::recover_complete)).
    pub fn recover_failed(&mut self, at: SimTime, task: TaskId) {
        self.mwu_cache.set(None);
        let Some(rec) = self.tasks.get_mut_if(&task, |r| !is_terminal(r)) else {
            return;
        };
        debug_assert_eq!(
            rec.state,
            TaskState::Waiting,
            "WAL replay runs against a reset data plane"
        );
        let was_waiting = rec.state == TaskState::Waiting;
        let declared = rec.spec.declared;
        let cat = rec.cat;
        rec.state = TaskState::Failed;
        rec.completed_at = Some(at);
        self.failed_count += 1;
        self.fault_stats.permanent_failures += 1;
        if was_waiting {
            let tasks = &self.tasks;
            self.waiting.remove(cat, declared, |t| queued(tasks, t));
        }
        self.waiting_dirty = true;
        self.refresh_task_snap(task);
        self.assert_invariants();
    }

    // ------------------------------------------------------------------
    // Sim-sanitizer invariants
    // ------------------------------------------------------------------

    /// Assert the master's structural invariants (sim-sanitizer).
    ///
    /// Called after every event and API mutation in sanitized builds
    /// (debug, or the `sim-sanitizer` feature); plain release builds
    /// never evaluate the checks. The delta checks come first and cost
    /// O(1) (O(distinct requirements) for the histogram); the full audit
    /// after them is O(tasks + workers) — acceptable for checked runs,
    /// which is why it must stay behind the gate.
    ///
    /// Delta checks:
    /// * **Counter conservation** — live queue entries + on-worker tasks
    ///   (the running snapshot) + retained completions + failures equal
    ///   the retained records.
    /// * **Waiting queue** — its histogram counts its live entries, and
    ///   tombstones never outnumber them.
    ///
    /// Full audit:
    /// * **Task conservation** — every submitted task is in exactly one
    ///   of waiting / on-a-worker / complete / failed, and the terminal
    ///   counters agree with the records.
    /// * **Queue consistency** — the queue's live entries are exactly the
    ///   tasks whose record says `Waiting`, every other entry is a
    ///   counted tombstone, and the demand histogram is a recount.
    /// * **Non-negative free resources** — no worker pool is
    ///   over-allocated.
    /// * **Live staging flows** — every worker's in-flight file marker
    ///   and every staging waiter names a flow that is still live.
    /// * **Task table** — its record counter equals a recount of the
    ///   occupied slots, and its window stays trimmed and bounded.
    /// * **Bounded worker state** — no stopped worker is retained, so
    ///   the worker table is exactly the live set.
    /// * **Incremental dispatch gate** — equals a fresh scan of the
    ///   eligible workers.
    /// * **Interner stability** — category ids stay dense and resolve
    ///   to distinct names.
    pub fn assert_invariants(&self) {
        if !hta_des::sanitize::ACTIVE {
            return;
        }
        self.waiting.assert_consistent();
        let retained_complete = self.completed_count.checked_sub(self.retired);
        assert!(
            retained_complete
                .map(|c| self.waiting.len() + self.snap.running.len() + c + self.failed_count)
                == Some(self.tasks.len()),
            "task conservation violated by the counters: waiting queue {} live + {} on-worker \
             + {} completed - {} retired + {} failed != {} retained",
            self.waiting.len(),
            self.snap.running.len(),
            self.completed_count,
            self.retired,
            self.failed_count,
            self.tasks.len()
        );
        self.tasks.assert_consistent();
        let mut waiting = 0usize;
        let mut on_worker = 0usize;
        let mut complete = 0usize;
        let mut failed = 0usize;
        for rec in self.tasks.values() {
            match rec.state {
                TaskState::Waiting => waiting += 1,
                TaskState::Staging(_) | TaskState::Running(_) | TaskState::Returning(_) => {
                    on_worker += 1
                }
                TaskState::Complete => complete += 1,
                TaskState::Failed => failed += 1,
            }
        }
        let submitted = self.tasks.len();
        assert!(
            waiting + on_worker + complete + failed == submitted
                && complete + self.retired == self.completed_count
                && failed == self.failed_count,
            "task conservation violated: {waiting} waiting + {on_worker} on-worker + \
             {complete} complete + {failed} failed != {submitted} retained \
             (counters: completed={}, retired={}, failed={})",
            self.completed_count,
            self.retired,
            self.failed_count
        );
        let (mut live, mut dead) = (0usize, 0usize);
        // The demand histogram must be an exact recount of the live
        // entries — dispatch's early exit is only sound if no requirement
        // is ever under-counted.
        let mut expect: Vec<(CategoryId, Option<Resources>, usize)> = Vec::new();
        for t in self.waiting.iter() {
            let Some(rec) = self.tasks.get(&t).filter(|r| is_waiting(r)) else {
                dead += 1;
                continue;
            };
            live += 1;
            match expect
                .iter_mut()
                .find(|(c, d, _)| *c == rec.cat && *d == rec.spec.declared)
            {
                Some(slot) => slot.2 += 1,
                None => expect.push((rec.cat, rec.spec.declared, 1)),
            }
        }
        assert!(
            live == waiting && live == self.waiting.len() && dead == self.waiting.tombstones(),
            "waiting queue holds {live} live entries and {dead} tombstones, but {waiting} \
             tasks are in state Waiting and the queue counts {} live and {} tombstones",
            self.waiting.len(),
            self.waiting.tombstones()
        );
        let demand = self.waiting.demand();
        assert!(
            expect.len() == demand.len()
                && expect.iter().all(|(c, d, n)| demand
                    .iter()
                    .any(|(cc, dd, nn)| cc == c && dd == d && nn == n)),
            "waiting-demand histogram {demand:?} out of sync with queue recount {expect:?}"
        );
        for w in self.workers.values() {
            let free = w.pool.available();
            assert!(
                !free.has_negative(),
                "worker {:?} over-allocated: available {free:?} of capacity {:?}",
                w.id,
                w.capacity()
            );
            // A marker naming a dead flow strands every later task on
            // this worker that needs the file.
            for flow in w.inflight_flows() {
                assert!(
                    self.flows.contains_key(&flow),
                    "worker {:?} marks a file in flight on {flow:?}, which is no longer live",
                    w.id
                );
            }
        }
        for (task, deps) in &self.staging_waits {
            assert!(
                deps.iter().all(|f| self.flows.contains_key(f)),
                "task {task:?} waits on staging flows {deps:?}, not all of them live"
            );
        }
        // Bounded state: a stopped worker is retired on the spot, so the
        // table holds exactly the live workers the snapshot reports.
        assert!(
            self.workers.len() == self.snap.workers.len()
                && self
                    .workers
                    .values()
                    .all(|w| w.state != WorkerState::Stopped),
            "worker table holds {} records for {} live workers (stopped worker retained)",
            self.workers.len(),
            self.snap.workers.len()
        );
        // The incremental dispatch gate must equal a fresh scan: same
        // members with current entries, axes that count exactly those
        // members, and the same headroom as the reference scan.
        let members: BTreeMap<WorkerId, (Resources, bool)> = self
            .workers
            .values()
            .filter_map(|w| Some((w.id, self.gate_entry(w)?)))
            .collect();
        assert!(
            self.gate.members == members,
            "dispatch gate members {:?} out of sync with the worker table {members:?}",
            self.gate.members
        );
        for axis in [
            &self.gate.millicores,
            &self.gate.memory_mb,
            &self.gate.disk_mb,
        ] {
            let counted: usize = axis.values().map(|n| *n as usize).sum();
            assert!(
                counted == members.len(),
                "dispatch gate axis counts {counted} entries for {} members",
                members.len()
            );
        }
        let idle = members.values().filter(|(_, idle)| *idle).count();
        assert!(
            self.gate.idle == idle && self.gate.headroom() == self.scan_headroom(),
            "dispatch gate {:?} (idle {}) != full scan {:?} (idle {idle})",
            self.gate.headroom(),
            self.gate.idle,
            self.scan_headroom()
        );
        let mut seen_cats = 0usize;
        for (name, id) in self.interner.iter_by_name() {
            assert!(
                self.interner.name(id) == name,
                "interner id {id:?} no longer resolves to {name:?}"
            );
            seen_cats += 1;
        }
        assert!(
            seen_cats == self.interner.len(),
            "interner lost ids: {seen_cats} names resolve, {} allocated",
            self.interner.len()
        );
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    /// Deliver one event, pushing follow-up effects into `fx`.
    pub fn handle(&mut self, now: SimTime, ev: WqEvent, fx: &mut EffectSink<WqEvent>) {
        self.mwu_cache.set(None);
        match ev {
            WqEvent::LinkWake(generation) => {
                if generation != self.link.generation() {
                    return; // stale wake-up
                }
                self.link_progress(now, fx);
            }
            WqEvent::PeerLinkWake(generation) => {
                if generation != self.peer_link.generation() {
                    return; // stale wake-up
                }
                self.peer_link.advance(now);
                let mut done = std::mem::take(&mut self.flow_scratch);
                self.peer_link.take_completed(&mut done);
                self.process_completed_flows(now, &mut done, fx);
                self.flow_scratch = done;
                self.dispatch(now, fx);
                self.arm_peer_wake(fx);
            }
            WqEvent::TaskFinished(task, run_gen) => {
                // The worker's completion report crosses the control
                // channel (inline when the channel is fault-free).
                self.report_completion(now, task, run_gen, 0, fx)
            }
            WqEvent::FastAbortCheck(task, run_gen) => self.fast_abort_check(now, task, run_gen, fx),
            WqEvent::TaskAttemptFailed(task, run_gen, kind) => {
                self.task_attempt_failed(now, task, run_gen, kind, fx)
            }
            WqEvent::StragglerCheck(task, run_gen) => self.straggler_check(now, task, run_gen, fx),
            WqEvent::SpeculativeFinished(task, run_gen) => {
                self.speculative_finished(now, task, run_gen, fx)
            }
            WqEvent::NetDeliver(msg) => {
                self.deliver_ctl(now, msg, fx);
                self.flush_wakes(fx);
            }
            WqEvent::DispatchTimeout(task, seq, attempt) => {
                self.dispatch_timeout(now, task, seq, attempt, fx)
            }
            WqEvent::CompletionResend(task, run_gen, attempt) => {
                self.report_completion(now, task, run_gen, attempt, fx)
            }
            WqEvent::HeartbeatTick(worker) => self.heartbeat_tick(now, worker, fx),
            WqEvent::LeaseCheck => self.lease_check(now, fx),
        }
        self.assert_invariants();
    }

    // ------------------------------------------------------------------
    // Control channel & liveness
    // ------------------------------------------------------------------

    /// True when heartbeat/lease liveness is on.
    fn liveness_on(&self) -> bool {
        !self.net.cfg().lease.is_zero()
    }

    /// Heartbeat cadence: a third of the lease, so a worker survives two
    /// lost beats before being presumed dead.
    fn heartbeat_interval(&self) -> Duration {
        Duration::from_millis((self.net.cfg().lease.as_millis() / 3).max(1))
    }

    /// Lease-scan cadence: half the lease bounds detection latency at
    /// `1.5 ×` lease without scanning on every event.
    fn lease_scan_interval(&self) -> Duration {
        Duration::from_millis((self.net.cfg().lease.as_millis() / 2).max(1))
    }

    /// Arm the link wake-ups [`begin_staging`](Self::begin_staging)
    /// requested, once per entry-point batch (several dispatches in one
    /// batch still produce a single wake per link, exactly like the
    /// pre-channel code).
    fn flush_wakes(&mut self, fx: &mut EffectSink<WqEvent>) {
        if std::mem::take(&mut self.wake_link) {
            self.arm_link_wake(fx);
        }
        if std::mem::take(&mut self.wake_peer) {
            self.arm_peer_wake(fx);
        }
    }

    /// Route one control message through the lossy channel.
    ///
    /// Inline delivery (zero-fault transport) applies the message
    /// immediately — the exact call sequence of a direct method call;
    /// otherwise delivery becomes one (or, duplicated, two) scheduled
    /// [`WqEvent::NetDeliver`]s, or nothing at all when the network eats
    /// the message. Returns `false` on a drop so the caller can arm its
    /// retransmit machinery.
    fn route_ctl(
        &mut self,
        now: SimTime,
        dir: ChanDir,
        msg: ControlMsg,
        fx: &mut EffectSink<WqEvent>,
    ) -> bool {
        match self.net.send(now, dir) {
            Delivery::Inline => {
                self.deliver_ctl(now, msg, fx);
                true
            }
            Delivery::Deliver { delay, dup } => {
                fx.push(delay, WqEvent::NetDeliver(msg));
                if let Some(d) = dup {
                    fx.push(d, WqEvent::NetDeliver(msg));
                }
                true
            }
            Delivery::Dropped => false,
        }
    }

    /// Apply one delivered control message. Only reachable through
    /// [`route_ctl`](Self::route_ctl) (inline) or the
    /// [`WqEvent::NetDeliver`] arm of [`handle`](Self::handle) — state
    /// mutations that skip the channel would dodge the fault model.
    fn deliver_ctl(&mut self, now: SimTime, msg: ControlMsg, fx: &mut EffectSink<WqEvent>) {
        match msg {
            ControlMsg::Dispatch { task, seq } => self.recv_dispatch(now, task, seq, fx),
            ControlMsg::DispatchAck { task, seq } => {
                let fresh = |r: &TaskRecord| r.dispatch_seq == seq && !r.dispatch_acked;
                if let Some(rec) = self.tasks.get_mut_if(&task, fresh) {
                    rec.dispatch_acked = true;
                }
            }
            ControlMsg::Completion { task, run_gen } => {
                self.recv_completion(now, task, run_gen, fx)
            }
            ControlMsg::Heartbeat { worker } => self.recv_heartbeat(now, worker, fx),
        }
    }

    /// Worker side of a [`ControlMsg::Dispatch`]: begin staging, then
    /// acknowledge. Idempotent — retransmits and duplicate copies of a
    /// dispatch already under way only re-send the (possibly lost) ack,
    /// and a copy carrying a superseded sequence number is fenced.
    fn recv_dispatch(
        &mut self,
        now: SimTime,
        task: TaskId,
        seq: u64,
        fx: &mut EffectSink<WqEvent>,
    ) {
        let fresh = {
            let Some(rec) = self.tasks.get(&task) else {
                return;
            };
            if rec.dispatch_seq != seq {
                return; // fenced: a newer dispatch decision superseded this copy
            }
            if rec.worker().is_none() {
                return; // placement revoked (worker killed) before arrival
            }
            // Staging with no pending flow-waits ⇔ the dispatch message
            // has not been applied yet (begin_staging either enters
            // staging_waits or starts execution immediately).
            matches!(rec.state, TaskState::Staging(_)) && !self.staging_waits.contains_key(&task)
        };
        if fresh {
            self.begin_staging(now, task, fx);
        }
        let _ = self.route_ctl(
            now,
            ChanDir::Reverse,
            ControlMsg::DispatchAck { task, seq },
            fx,
        );
    }

    /// Master side of a [`ControlMsg::Completion`]: fence zombies, then
    /// hand the surviving report to the completion path. Duplicate copies
    /// of a live report are deduplicated by the state check inside
    /// [`task_finished`](Self::task_finished).
    fn recv_completion(
        &mut self,
        now: SimTime,
        task: TaskId,
        run_gen: u64,
        fx: &mut EffectSink<WqEvent>,
    ) {
        if self.net.cfg().is_active() {
            let stale = self
                .tasks
                .get(&task)
                .is_none_or(|rec| rec.run_generation != run_gen);
            if stale {
                self.zombies_fenced += 1;
            }
        }
        self.task_finished(now, task, run_gen, fx);
    }

    /// Master side of a [`ControlMsg::Heartbeat`]: renew the lease,
    /// refresh telemetry, and clear any presumed-death suspicion (the
    /// worker was cut off, not dead). Re-adopting a suspect re-triggers
    /// dispatch — its re-queued tasks may have nowhere else to go.
    fn recv_heartbeat(&mut self, now: SimTime, worker: WorkerId, fx: &mut EffectSink<WqEvent>) {
        if !self.workers.contains_key(&worker) {
            return;
        }
        self.last_heartbeat.insert(worker, now);
        self.last_telemetry = self.last_telemetry.max(now);
        if self.suspects.remove(&worker) {
            // Re-adoption makes the worker eligible for placement again.
            self.refresh_worker_snap(worker);
            self.dispatch(now, fx);
        }
    }

    /// A worker finished the run tagged `run_gen` and (re)reports it over
    /// the lossy reverse link. On a drop the worker retries on the seeded
    /// backoff schedule until the master processes the report or the run
    /// is superseded.
    fn report_completion(
        &mut self,
        now: SimTime,
        task: TaskId,
        run_gen: u64,
        attempt: u32,
        fx: &mut EffectSink<WqEvent>,
    ) {
        if attempt > 0 {
            let resolved = self.tasks.get(&task).is_none_or(|rec| {
                rec.run_generation != run_gen || !matches!(rec.state, TaskState::Running(_))
            });
            if resolved {
                return; // processed meanwhile, or the run was superseded
            }
        }
        let sent = self.route_ctl(
            now,
            ChanDir::Reverse,
            ControlMsg::Completion { task, run_gen },
            fx,
        );
        if !sent {
            let delay = self.net.retry_delay(attempt);
            fx.push(
                delay,
                WqEvent::CompletionResend(task, run_gen, attempt.saturating_add(1)),
            );
        }
    }

    /// The ack window for dispatch `seq` elapsed: retransmit unless the
    /// ack arrived, the decision was superseded, or the task left its
    /// worker. At-least-once delivery with idempotent receipt.
    fn dispatch_timeout(
        &mut self,
        now: SimTime,
        task: TaskId,
        seq: u64,
        attempt: u32,
        fx: &mut EffectSink<WqEvent>,
    ) {
        let resend = self.tasks.get(&task).is_some_and(|rec| {
            rec.dispatch_seq == seq && !rec.dispatch_acked && rec.worker().is_some()
        });
        if !resend {
            return;
        }
        let _ = self.route_ctl(
            now,
            ChanDir::Forward,
            ControlMsg::Dispatch { task, seq },
            fx,
        );
        let next = attempt.saturating_add(1);
        let delay = self.net.retry_delay(next);
        fx.push(delay, WqEvent::DispatchTimeout(task, seq, next));
    }

    /// A worker's heartbeat cadence fired: emit a heartbeat over the
    /// lossy reverse link and re-arm while the worker lives. (A presumed-
    /// dead worker that is merely partitioned keeps beating — its first
    /// heartbeat to survive the network clears the suspicion.)
    fn heartbeat_tick(&mut self, now: SimTime, worker: WorkerId, fx: &mut EffectSink<WqEvent>) {
        if !self.workers.contains_key(&worker) || !self.liveness_on() {
            return;
        }
        let _ = self.route_ctl(now, ChanDir::Reverse, ControlMsg::Heartbeat { worker }, fx);
        fx.push(self.heartbeat_interval(), WqEvent::HeartbeatTick(worker));
    }

    /// Periodic lease scan: any live worker whose last heartbeat is older
    /// than the lease is presumed dead. Self-rescheduling.
    fn lease_check(&mut self, now: SimTime, fx: &mut EffectSink<WqEvent>) {
        if !self.liveness_on() {
            return;
        }
        let lease = self.net.cfg().lease;
        let expired: Vec<WorkerId> = self
            .last_heartbeat
            .iter()
            .filter(|(_, hb)| now.since(**hb) > lease)
            .map(|(w, _)| *w)
            .collect();
        for wid in expired {
            self.presume_dead(now, wid, fx);
        }
        // Prune entries of workers that stopped gracefully meanwhile.
        let gone: Vec<WorkerId> = self
            .last_heartbeat
            .keys()
            .filter(|w| !self.workers.contains_key(w))
            .copied()
            .collect();
        for w in gone {
            self.last_heartbeat.remove(&w);
            self.suspects.remove(&w);
        }
        fx.push(self.lease_scan_interval(), WqEvent::LeaseCheck);
    }

    /// A worker missed its lease: presume it dead. Its tasks are re-queued
    /// (fresh run generation, so any late completion from the possibly
    /// still-running worker is fenced as a zombie) and the worker is
    /// excluded from placement until a heartbeat proves it alive again.
    /// Unlike [`kill_worker`](Self::kill_worker) the worker record stays
    /// `Active` with its cache — a partitioned worker that heals is
    /// re-adopted with its files still warm.
    fn presume_dead(&mut self, now: SimTime, wid: WorkerId, fx: &mut EffectSink<WqEvent>) {
        self.mwu_cache.set(None);
        if !self.workers.contains_key(&wid) {
            return;
        }
        self.leases_expired += 1;
        self.suspects.insert(wid);
        self.last_heartbeat.remove(&wid);
        let orphans: Vec<TaskId> = self
            .workers
            .get(&wid)
            .map(|w| w.tasks().to_vec())
            .unwrap_or_default();
        // Cancel transfers serving the orphans and drop any speculative
        // entanglement conservatively (the re-queued run restarts from
        // scratch either way).
        let stale: Vec<FlowId> = self
            .flows
            .iter()
            .filter(|(_, p)| orphans.contains(&p.task()))
            .map(|(f, _)| *f)
            .collect();
        for f in stale {
            self.cancel_flow(now, f);
        }
        for t in &orphans {
            self.staging_waits.remove(t);
            self.cancel_speculation(now, *t);
        }
        for t in orphans.iter().rev() {
            let Some(rec) = self.tasks.get_mut_if(t, |r| !is_terminal(r)) else {
                continue;
            };
            rec.speculative = None;
            rec.state = TaskState::Waiting;
            rec.allocation = None;
            rec.started_at = None;
            rec.run_generation += 1;
            rec.interruptions += 1;
            rec.dispatch_acked = false;
            self.waiting.push_front(*t, rec.cat, rec.spec.declared);
            self.waiting_dirty = true;
            self.notifications.push(WqNotification::TaskRequeued(*t));
            self.refresh_task_snap(*t);
        }
        if let Some(w) = self.workers.get_mut(&wid) {
            for t in &orphans {
                w.remove_task(*t);
            }
        }
        self.refresh_worker_snap(wid);
        // Cancelled flows bumped the link generations; re-arm so the
        // survivors' completions still wake the link.
        self.arm_link_wake(fx);
        self.arm_peer_wake(fx);
        self.dispatch(now, fx);
    }

    /// Age of the freshest worker telemetry (heartbeats, connections) the
    /// master holds. Zero when liveness is off or no worker is connected
    /// — absence of workers is not staleness, and the policy's no-metrics
    /// path owns that case.
    pub fn telemetry_age(&self, now: SimTime) -> Duration {
        if !self.liveness_on() || self.snap.workers.is_empty() {
            return Duration::ZERO;
        }
        now.since(self.last_telemetry)
    }

    /// Cumulative control-channel fault counters.
    pub fn net_stats(&self) -> ChannelStats {
        self.net.stats()
    }

    /// Worker leases expired (workers presumed dead).
    pub fn leases_expired(&self) -> u64 {
        self.leases_expired
    }

    /// Stale completion reports fenced at the channel boundary.
    pub fn zombies_fenced(&self) -> u64 {
        self.zombies_fenced
    }

    /// The network-fault plan the control channel applies.
    pub fn net_config(&self) -> &NetworkFaults {
        self.net.cfg()
    }

    /// Kill and re-queue a task that has been running far past its
    /// category's mean (Work Queue's fast abort).
    fn fast_abort_check(
        &mut self,
        now: SimTime,
        task: TaskId,
        run_gen: u64,
        fx: &mut EffectSink<WqEvent>,
    ) {
        let wid = {
            let Some(rec) = self.tasks.get(&task) else {
                return;
            };
            if rec.run_generation != run_gen {
                return;
            }
            let TaskState::Running(wid) = rec.state else {
                return;
            };
            wid
        };
        // The aborted run's duplicate (if any) restarts with the retry.
        self.cancel_speculation(now, task);
        // Abort: bump the generation (stales the pending TaskFinished),
        // free the worker, re-queue at the front.
        let rec = self.tasks.get_mut(&task).expect("checked above");
        rec.state = TaskState::Waiting;
        rec.allocation = None;
        rec.started_at = None;
        rec.run_generation += 1;
        rec.interruptions += 1;
        self.waiting.push_front(task, rec.cat, rec.spec.declared);
        self.waiting_dirty = true;
        self.notifications
            .push(WqNotification::TaskFastAborted(task));
        self.refresh_task_snap(task);
        self.release_from_worker(now, wid, task);
        self.dispatch(now, fx);
    }

    /// Mean wall time of a category, if any run of it completed.
    fn mean_wall_id(&self, cat: CategoryId) -> Option<Duration> {
        let cw = self.cat_wall.get(cat.index())?;
        if cw.count == 0 {
            return None;
        }
        Some(cw.mean)
    }

    /// Fold one measured wall time into a category's running mean.
    fn observe_wall(&mut self, cat: CategoryId, wall: Duration) {
        let idx = cat.index();
        if self.cat_wall.len() <= idx {
            self.cat_wall.resize_with(idx + 1, CatWall::default);
        }
        let cw = &mut self.cat_wall[idx];
        cw.total_ms += wall.as_millis() as u128;
        cw.count += 1;
        cw.mean = Duration::from_millis((cw.total_ms / cw.count as u128) as u64);
    }

    fn link_progress(&mut self, now: SimTime, fx: &mut EffectSink<WqEvent>) {
        self.link.advance(now);
        let mut done = std::mem::take(&mut self.flow_scratch);
        self.link.take_completed(&mut done);
        self.process_completed_flows(now, &mut done, fx);
        self.flow_scratch = done;
        self.dispatch(now, fx);
        self.arm_link_wake(fx);
    }

    /// Resolve a batch of completed staging/returning flows (from either
    /// link), leaving `done` empty for reuse.
    fn process_completed_flows(
        &mut self,
        now: SimTime,
        done: &mut Vec<FlowId>,
        fx: &mut EffectSink<WqEvent>,
    ) {
        for flow in done.drain(..) {
            let Some(purpose) = self.flows.remove(&flow) else {
                continue;
            };
            match purpose {
                FlowPurpose::Staging {
                    task,
                    files,
                    mut sharers,
                } => {
                    // The carried cacheable files are now on the worker.
                    if let Some(rec) = self.tasks.get(&task) {
                        if let TaskState::Staging(wid) = rec.state {
                            if let Some(w) = self.workers.get_mut(&wid) {
                                for f in &files {
                                    w.cache_file(*f);
                                }
                            }
                        }
                    }
                    // Start every waiter (the initiating task and any
                    // cache-sharers) this was the last flow for, in
                    // ascending task id. The initiator is slotted in by
                    // position rather than pushed, so the common flow
                    // with no sharers allocates nothing.
                    let initiator_ready = self.release_waiter(task, flow);
                    sharers.retain(|t| self.release_waiter(*t, flow));
                    sharers.sort_unstable();
                    let at = sharers.partition_point(|t| *t < task);
                    for t in &sharers[..at] {
                        self.start_execution(now, *t, fx);
                    }
                    if initiator_ready {
                        self.start_execution(now, task, fx);
                    }
                    for t in &sharers[at..] {
                        self.start_execution(now, *t, fx);
                    }
                }
                FlowPurpose::Returning(task) => {
                    self.finalize_completion(now, task);
                }
            }
        }
    }

    /// Cancel a staging or returning flow on both links. A staging flow
    /// also takes its in-flight markers off the worker it was delivering
    /// to: the worker may live on (a presumed-dead worker re-adopted by a
    /// heartbeat), and a marker naming a dead flow would make every later
    /// task there that needs the same file wait on it forever.
    fn cancel_flow(&mut self, now: SimTime, flow: FlowId) {
        self.link.cancel_flow(now, flow);
        self.peer_link.cancel_flow(now, flow);
        let Some(FlowPurpose::Staging { task, .. }) = self.flows.remove(&flow) else {
            return;
        };
        let Some(TaskState::Staging(wid)) = self.tasks.get(&task).map(|r| r.state) else {
            return;
        };
        if let Some(w) = self.workers.get_mut(&wid) {
            w.clear_inflight_flow(flow);
        }
    }

    /// Strike the completed `flow` off `task`'s staging waits; true when
    /// it was the task's last one (the task may start). A task that no
    /// longer waits on `flow` (re-queued since it registered) is left
    /// alone.
    fn release_waiter(&mut self, task: TaskId, flow: FlowId) -> bool {
        let Some(deps) = self.staging_waits.get_mut(&task) else {
            return false;
        };
        let Some(pos) = deps.iter().position(|f| *f == flow) else {
            return false;
        };
        deps.remove(pos);
        if !deps.is_empty() {
            return false;
        }
        self.staging_waits.remove(&task);
        true
    }

    fn start_execution(&mut self, now: SimTime, task: TaskId, fx: &mut EffectSink<WqEvent>) {
        let (duration, generation, cat) = {
            let staging = |r: &TaskRecord| matches!(r.state, TaskState::Staging(_));
            let Some(rec) = self.tasks.get_mut_if(&task, staging) else {
                return;
            };
            let TaskState::Staging(wid) = rec.state else {
                unreachable!("state checked above");
            };
            rec.state = TaskState::Running(wid);
            rec.started_at = Some(now);
            (rec.spec.exec.duration, rec.run_generation, rec.cat)
        };
        self.refresh_task_snap(task);
        // Fault injection: this attempt may die partway through instead of
        // finishing. Exactly one of the two events below survives the
        // run-generation check.
        match self.draw_attempt_fate() {
            Some((kind, frac)) => fx.push(
                duration.mul_f64(frac),
                WqEvent::TaskAttemptFailed(task, generation, kind),
            ),
            None => fx.push(duration, WqEvent::TaskFinished(task, generation)),
        }
        if let Some(mult) = self.fast_abort_multiplier {
            if let Some(mean) = self.mean_wall_id(cat) {
                let deadline = mean.mul_f64(mult.max(1.0));
                fx.push(deadline, WqEvent::FastAbortCheck(task, generation));
            }
        }
        if let Some(factor) = self.faults.straggler_factor {
            if let Some(mean) = self.mean_wall_id(cat) {
                let deadline = mean.mul_f64(factor.max(1.0));
                fx.push(deadline, WqEvent::StragglerCheck(task, generation));
            }
        }
    }

    /// Decide whether the execution attempt about to start will fail, and
    /// if so how and at what fraction of its run. Draws nothing when both
    /// fault rates are zero (RNG-stream preservation).
    fn draw_attempt_fate(&mut self) -> Option<(FailKind, f64)> {
        let oom = self.faults.oom_rate.max(0.0);
        let transient = self.faults.transient_rate.max(0.0);
        if oom <= 0.0 && transient <= 0.0 {
            return None;
        }
        let u = self.rng.uniform();
        let kind = if u < oom {
            FailKind::Oom
        } else if u < oom + transient {
            FailKind::Transient
        } else {
            return None;
        };
        // The attempt dies somewhere in the middle of its run (wasted work
        // the retry has to redo).
        let frac = self.rng.uniform_range(0.05, 0.95);
        Some((kind, frac))
    }

    /// One execution attempt died (fault injection). Within budget the
    /// task is re-queued at the front — after an OOM kill with an
    /// escalated memory allocation; past budget it is permanently failed.
    fn task_attempt_failed(
        &mut self,
        now: SimTime,
        task: TaskId,
        run_gen: u64,
        kind: FailKind,
        fx: &mut EffectSink<WqEvent>,
    ) {
        let wid = {
            let Some(rec) = self.tasks.get(&task) else {
                return;
            };
            if rec.run_generation != run_gen {
                return; // interrupted run; event is stale
            }
            let TaskState::Running(wid) = rec.state else {
                return;
            };
            wid
        };
        // The failed attempt's duplicate (if any) is pointless now: the
        // retry restarts from scratch anyway.
        self.cancel_speculation(now, task);
        let largest_mem = self.workers.values().map(|w| w.capacity().memory_mb).max();
        let rec = self.tasks.get_mut(&task).expect("checked above");
        let wall = rec.started_at.map_or(Duration::ZERO, |s| now.since(s));
        let cores = rec.allocation.unwrap_or(rec.spec.actual).cores_f64();
        self.fault_stats.wasted_core_s += cores * wall.as_secs_f64();
        match kind {
            FailKind::Transient => self.fault_stats.transient_failures += 1,
            FailKind::Oom => self.fault_stats.oom_kills += 1,
        }
        rec.retries += 1;
        rec.run_generation += 1;
        rec.allocation = None;
        rec.started_at = None;
        if rec.retries > self.faults.max_retries {
            rec.state = TaskState::Failed;
            rec.completed_at = Some(now);
            self.fault_stats.permanent_failures += 1;
            self.failed_count += 1;
            let cat = rec.cat;
            self.notifications
                .push(WqNotification::TaskFailed { task, cat });
        } else {
            self.fault_stats.retries += 1;
            if kind == FailKind::Oom {
                // Retry at an escalated memory allocation (the operator's
                // remedy for OOMKilled pods), capped at the biggest
                // connected worker so the task stays schedulable.
                if let Some(declared) = rec.spec.declared {
                    let mut mem = (declared.memory_mb as f64 * self.faults.oom_escalation.max(1.0))
                        .ceil() as i64;
                    if let Some(cap) = largest_mem {
                        mem = mem.min(cap);
                    }
                    rec.spec.declared = Some(Resources::new(
                        declared.millicores,
                        mem.max(declared.memory_mb),
                        declared.disk_mb,
                    ));
                }
            }
            rec.state = TaskState::Waiting;
            self.waiting.push_front(task, rec.cat, rec.spec.declared);
            self.waiting_dirty = true;
        }
        self.refresh_task_snap(task);
        self.release_from_worker(now, wid, task);
        self.dispatch(now, fx);
    }

    /// A running task has exceeded `straggler_factor ×` its category mean:
    /// launch a speculative duplicate on another worker. First finish wins.
    fn straggler_check(
        &mut self,
        now: SimTime,
        task: TaskId,
        run_gen: u64,
        fx: &mut EffectSink<WqEvent>,
    ) {
        let (alloc, primary_wid, cat) = {
            let Some(rec) = self.tasks.get(&task) else {
                return;
            };
            if rec.run_generation != run_gen {
                return;
            }
            let TaskState::Running(wid) = rec.state else {
                return;
            };
            if rec.speculative.is_some() {
                return;
            }
            (rec.allocation.unwrap_or(rec.spec.actual), wid, rec.cat)
        };
        // A duplicate needs room on a *different* active worker; if none
        // has any, skip silently (the primary keeps running).
        let Some(dup_wid) = self
            .workers
            .values()
            .find(|w| w.id != primary_wid && !self.suspects.contains(&w.id) && w.can_accept(&alloc))
            .map(|w| w.id)
        else {
            return;
        };
        self.workers
            .get_mut(&dup_wid)
            .expect("worker exists")
            .assign(task, alloc);
        self.refresh_worker_snap(dup_wid);
        // The duplicate is an ordinary run of a category job: model its
        // wall time as the category mean (±10%) — speculation's premise is
        // that the straggler, not the task, is the outlier.
        let mean = self
            .mean_wall_id(cat)
            .unwrap_or_else(|| self.tasks[&task].spec.exec.duration);
        let duration = self.rng.jittered(mean, 0.1);
        let rec = self.tasks.get_mut(&task).expect("checked above");
        rec.speculative = Some(Speculative {
            worker: dup_wid,
            started_at: now,
            duration,
        });
        self.fault_stats.speculative_launched += 1;
        fx.push(duration, WqEvent::SpeculativeFinished(task, run_gen));
    }

    /// The speculative duplicate beat the straggling primary: promote it
    /// (its run is the one that counts), cancel the primary, finish.
    fn speculative_finished(
        &mut self,
        now: SimTime,
        task: TaskId,
        run_gen: u64,
        fx: &mut EffectSink<WqEvent>,
    ) {
        let (primary_wid, wasted_core_s, new_gen) = {
            let racing = |r: &TaskRecord| {
                r.run_generation == run_gen
                    && matches!(r.state, TaskState::Running(_))
                    && r.speculative.is_some()
            };
            let Some(rec) = self.tasks.get_mut_if(&task, racing) else {
                return;
            };
            let (TaskState::Running(wid), Some(sp)) = (rec.state, rec.speculative.take()) else {
                unreachable!("state checked above");
            };
            let elapsed = rec.started_at.map_or(Duration::ZERO, |s| now.since(s));
            let cores = rec.allocation.unwrap_or(rec.spec.actual).cores_f64();
            // Promote: measured wall becomes the duplicate's run; bump the
            // generation so the primary's pending TaskFinished is stale.
            rec.state = TaskState::Running(sp.worker);
            rec.started_at = Some(sp.started_at);
            rec.run_generation += 1;
            (wid, cores * elapsed.as_secs_f64(), rec.run_generation)
        };
        self.refresh_task_snap(task);
        self.fault_stats.wasted_core_s += wasted_core_s;
        self.fault_stats.speculative_wins += 1;
        self.release_from_worker(now, primary_wid, task);
        self.task_finished(now, task, new_gen, fx);
    }

    /// Cancel an in-flight speculative duplicate (the race was decided
    /// some other way), charging its burned core·seconds as waste.
    fn cancel_speculation(&mut self, now: SimTime, task: TaskId) {
        let (sp, wasted_core_s) = {
            let Some(rec) = self.tasks.get_mut_if(&task, |r| r.speculative.is_some()) else {
                return;
            };
            let sp = rec.speculative.take().expect("checked above");
            let cores = rec.allocation.unwrap_or(rec.spec.actual).cores_f64();
            (sp, cores * now.since(sp.started_at).as_secs_f64())
        };
        self.fault_stats.wasted_core_s += wasted_core_s;
        self.release_from_worker(now, sp.worker, task);
    }

    /// Remove a task from a worker, stopping the worker if it was
    /// draining and is now idle.
    fn release_from_worker(&mut self, now: SimTime, wid: WorkerId, task: TaskId) {
        if let Some(w) = self.workers.get_mut(&wid) {
            w.remove_task(task);
            if w.state == WorkerState::Draining && w.is_idle() {
                w.stop(now);
                self.notifications.push(WqNotification::WorkerStopped(wid));
            }
            self.refresh_worker_snap(wid);
        }
    }

    fn task_finished(
        &mut self,
        now: SimTime,
        task: TaskId,
        run_gen: u64,
        fx: &mut EffectSink<WqEvent>,
    ) {
        {
            let Some(rec) = self.tasks.get(&task) else {
                return;
            };
            if rec.run_generation != run_gen {
                return; // interrupted run; event is stale
            }
            let TaskState::Running(_) = rec.state else {
                return;
            };
        }
        // The primary finished first: any in-flight duplicate lost the race.
        self.cancel_speculation(now, task);
        let rec = self.tasks.get_mut(&task).expect("checked above");
        let TaskState::Running(wid) = rec.state else {
            unreachable!("state checked above");
        };
        // Resource-monitor measurement of this run.
        let wall = rec.started_at.map_or(Duration::ZERO, |s| now.since(s));
        rec.measured = Some(Measured {
            peak: rec.spec.actual,
            wall,
        });
        let cat = rec.cat;
        let output_mb = rec.spec.output_mb;
        if output_mb > 0.0 {
            rec.state = TaskState::Returning(wid);
        }
        self.observe_wall(cat, wall);
        if output_mb > 0.0 {
            let flow = FlowId(self.next_flow);
            self.next_flow += 1;
            self.link.advance(now);
            self.link.add_flow(now, flow, output_mb);
            self.flows.insert(flow, FlowPurpose::Returning(task));
            self.arm_link_wake(fx);
            self.dispatch(now, fx);
        } else {
            self.finalize_completion(now, task);
            self.dispatch(now, fx);
            self.arm_link_wake(fx);
        }
    }

    fn finalize_completion(&mut self, now: SimTime, task: TaskId) {
        let Some(rec) = self.tasks.get_mut_if(&task, |r| r.worker().is_some()) else {
            return;
        };
        let wid = rec.worker().expect("checked above");
        rec.state = TaskState::Complete;
        rec.completed_at = Some(now);
        let measured = rec.measured.unwrap_or(Measured {
            peak: rec.spec.actual,
            wall: Duration::ZERO,
        });
        let cat = rec.cat;
        self.completed_count += 1;
        self.note_completed_id(task);
        self.notifications.push(WqNotification::TaskCompleted {
            task,
            cat,
            measured,
        });
        self.refresh_task_snap(task);
        if let Some(w) = self.workers.get_mut(&wid) {
            w.remove_task(task);
            if w.state == WorkerState::Draining && w.is_idle() {
                w.stop(now);
                self.notifications.push(WqNotification::WorkerStopped(wid));
            }
            self.refresh_worker_snap(wid);
        }
        if self.retire_completed {
            self.retire_task(task, cat);
        }
    }

    /// Fold a completed task id into the order-insensitive completion
    /// digest (wrapping sum commutes, so two runs completing the same id
    /// *set* in different orders agree).
    fn note_completed_id(&mut self, task: TaskId) {
        self.completed_digest = self.completed_digest.wrapping_add(mix64(task.raw()));
    }

    /// Streaming admission: drop a completed task's record, moving it
    /// into the retirement counters. The notification carrying the task's
    /// measurement was already pushed, so nothing downstream needs the
    /// record again.
    fn retire_task(&mut self, task: TaskId, cat: CategoryId) {
        if self.tasks.remove(&task).is_none() {
            return;
        }
        self.retired += 1;
        if self.cat_retired.len() <= cat.index() {
            self.cat_retired.resize(cat.index() + 1, 0);
        }
        self.cat_retired[cat.index()] += 1;
    }

    /// The demand histogram: distinct (category, declared, count) triples
    /// over the waiting queue, in first-seen order. O(distinct) summary
    /// for consumers (metrics, autoscalers) that would otherwise walk the
    /// whole queue.
    pub fn waiting_demand(&self) -> &[(CategoryId, Option<Resources>, usize)] {
        self.waiting.demand()
    }

    /// True when some requirement in the demand histogram fits the
    /// dispatch headroom — the O(distinct categories) precondition for
    /// the waiting-queue scan to possibly place anything.
    fn demand_feasible(&self, max_free: &Resources, any_idle: bool) -> bool {
        self.waiting.demand().iter().any(|(_, d, _)| match d {
            Some(req) => req.fits_in(max_free),
            None => any_idle,
        })
    }

    /// First-fit FIFO dispatch of waiting tasks onto workers.
    fn dispatch(&mut self, now: SimTime, fx: &mut EffectSink<WqEvent>) {
        // Tests the live count: a queue of tombstones alone must not
        // advance the link (an extra rounding step in the fluid model).
        if self.waiting.is_empty() {
            return;
        }
        self.link.advance(now);
        let mut changed = false;
        // Admission gate: the component-wise max of free resources across
        // accepting workers is a necessary condition for any placement —
        // a request that does not fit it cannot fit any single worker. On
        // a saturated cluster (the common long-queue case) this skips the
        // per-task worker scan entirely without changing any decision.
        // Both are upper bounds — `can_accept` checks per-worker fit, so a
        // request exceeding the max on any axis fits nowhere.
        let (mut max_free, mut any_idle) = self.gate.headroom();
        loop {
            // O(distinct requirements) early exit: once the headroom
            // fits nothing still waiting, the rest of the scan cannot
            // place anything (headroom only shrinks within one pass), so
            // a deep backlog costs O(placements), not O(queue length).
            if !self.demand_feasible(&max_free, any_idle) {
                break;
            }
            let tasks = &self.tasks;
            let Some(tid) = self.waiting.pop_front(|t| queued(tasks, t)) else {
                break;
            };
            let rec = &self.tasks[&tid];
            let declared = rec.spec.declared;
            let cat = rec.cat;
            let feasible = match declared {
                Some(req) => req.fits_in(&max_free),
                None => any_idle,
            };
            if !feasible {
                self.waiting.defer(tid);
                continue;
            }
            let target = match declared {
                Some(req) => self
                    .workers
                    .values()
                    .find(|w| !self.suspects.contains(&w.id) && w.can_accept(&req))
                    .map(|w| (w.id, req)),
                None => self
                    .workers
                    .values()
                    .find(|w| !self.suspects.contains(&w.id) && w.can_accept_exclusive())
                    .map(|w| (w.id, w.capacity())),
            };
            let Some((wid, allocation)) = target else {
                self.waiting.defer(tid);
                continue;
            };
            changed = true;
            self.waiting.placed(cat, declared);
            {
                let worker = self.workers.get_mut(&wid).expect("worker exists");
                match declared {
                    Some(req) => worker.assign(tid, req),
                    None => worker.assign_exclusive(tid),
                }
            }
            // The placement shrank this worker's free pool; the refresh
            // updates its gate entry, so re-reading keeps the bound sound.
            self.refresh_worker_snap(wid);
            (max_free, any_idle) = self.gate.headroom();
            self.net_seq += 1;
            let seq = self.net_seq;
            let rec = self.tasks.get_mut(&tid).expect("task exists");
            rec.state = TaskState::Staging(wid);
            rec.allocation = Some(allocation);
            rec.dispatch_seq = seq;
            rec.dispatch_acked = false;
            self.refresh_task_snap(tid);
            // The dispatch decision crosses the control channel: inline
            // (and byte-identical to a direct call) when the transport is
            // fault-free, otherwise subject to delay/loss/partition with
            // the at-least-once retransmit loop below backing it up.
            let _ = self.route_ctl(
                now,
                ChanDir::Forward,
                ControlMsg::Dispatch { task: tid, seq },
                fx,
            );
            if self.net.cfg().transport_active() {
                let d = self.net.retry_delay(0);
                fx.push(d, WqEvent::DispatchTimeout(tid, seq, 0));
            }
        }
        let tasks = &self.tasks;
        self.waiting.finish_pass(|t| queued(tasks, t));
        if changed {
            self.waiting_dirty = true;
        }
        self.flush_wakes(fx);
    }

    /// Worker side of an applied dispatch: split the task's inputs into
    /// already cached (free), being delivered by another task's flow (wait
    /// on it), available at a peer worker (peer fetch), or missing
    /// (transfer them in this task's own flow over the master uplink) —
    /// then start executing or wait on the staging flows.
    ///
    /// Reached only through [`recv_dispatch`](Self::recv_dispatch): the
    /// staging work is what the [`ControlMsg::Dispatch`] message carries,
    /// so it must not happen before the message survives the network.
    fn begin_staging(&mut self, now: SimTime, task: TaskId, fx: &mut EffectSink<WqEvent>) {
        let Some(rec) = self.tasks.get(&task) else {
            return;
        };
        let TaskState::Staging(wid) = rec.state else {
            return;
        };
        self.link.advance(now);
        let mut inputs = std::mem::take(&mut self.input_scratch);
        inputs.clear();
        inputs.extend_from_slice(&self.tasks[&task].spec.inputs);
        let mut deps: Vec<FlowId> = Vec::new();
        let mut own_mb = 0.0;
        let mut own_cacheable: Vec<FileId> = Vec::new();
        let mut peer_fetches: Vec<(FileId, f64)> = Vec::new();
        let own_flow_id = FlowId(self.next_flow);
        for f in &inputs {
            let target = &self.workers[&wid];
            if target.has_cached(*f) {
                continue;
            }
            if let Some(flow) = target.inflight_flow(*f) {
                if !deps.contains(&flow) {
                    deps.push(flow);
                }
                continue;
            }
            let Some(spec) = self.catalog.get(*f) else {
                continue;
            };
            if self.peer_transfers && spec.cacheable {
                // Another live worker already holds the file: fetch it
                // peer-to-peer instead of re-sending from the master.
                let held_elsewhere = self
                    .workers
                    .values()
                    .any(|w| w.id != wid && w.has_cached(*f));
                if held_elsewhere {
                    peer_fetches.push((*f, spec.size_mb));
                    continue;
                }
            }
            own_mb += spec.size_mb;
            if spec.cacheable {
                own_cacheable.push(*f);
                self.workers
                    .get_mut(&wid)
                    .expect("worker exists")
                    .mark_inflight(*f, own_flow_id);
            }
        }
        self.input_scratch = inputs;
        if own_mb > 0.0 {
            self.next_flow += 1;
            self.link.add_flow(now, own_flow_id, own_mb);
            self.flows.insert(
                own_flow_id,
                FlowPurpose::Staging {
                    task,
                    files: own_cacheable,
                    sharers: Vec::new(),
                },
            );
            deps.push(own_flow_id);
            self.wake_link = true;
        }
        if !peer_fetches.is_empty() {
            self.peer_link.advance(now);
            for (f, mb) in peer_fetches {
                let flow = FlowId(self.next_flow);
                self.next_flow += 1;
                self.peer_link.add_flow(now, flow, mb);
                self.flows.insert(
                    flow,
                    FlowPurpose::Staging {
                        task,
                        files: vec![f],
                        sharers: Vec::new(),
                    },
                );
                if let Some(w) = self.workers.get_mut(&wid) {
                    w.mark_inflight(f, flow);
                }
                deps.push(flow);
            }
            self.wake_peer = true;
        }
        if deps.is_empty() {
            self.start_execution(now, task, fx);
        } else {
            // Join the waiters of the other tasks' flows this one shares.
            for flow in &deps {
                if let Some(FlowPurpose::Staging {
                    task: initiator,
                    sharers,
                    ..
                }) = self.flows.get_mut(flow)
                {
                    if *initiator != task {
                        sharers.push(task);
                    }
                }
            }
            self.staging_waits.insert(task, deps);
        }
    }

    /// The dispatch admission gate recomputed by a full worker scan: the
    /// component-wise max of free resources across workers that could
    /// take a declared-resources task, and whether any worker could take
    /// an exclusive (unknown-resources) one. Dispatch reads the
    /// incremental [`DispatchGate`]; this scan is the sanitizer's
    /// reference for it.
    fn scan_headroom(&self) -> (Resources, bool) {
        let mut max_free = Resources::ZERO;
        let mut any_idle = false;
        for w in self.workers.values() {
            if w.state != WorkerState::Active
                || w.exclusive_task.is_some()
                || self.suspects.contains(&w.id)
            {
                continue;
            }
            let free = w.pool.available();
            max_free.millicores = max_free.millicores.max(free.millicores);
            max_free.memory_mb = max_free.memory_mb.max(free.memory_mb);
            max_free.disk_mb = max_free.disk_mb.max(free.disk_mb);
            any_idle |= w.is_idle();
        }
        (max_free, any_idle)
    }

    /// Schedule the next link wake-up (tagged with the current generation).
    fn arm_link_wake(&self, fx: &mut EffectSink<WqEvent>) {
        if let Some(d) = self.link.next_completion_delay() {
            fx.push(d, WqEvent::LinkWake(self.link.generation()));
        }
    }

    /// Schedule the next peer-link wake-up.
    fn arm_peer_wake(&self, fx: &mut EffectSink<WqEvent>) {
        if let Some(d) = self.peer_link.next_completion_delay() {
            fx.push(d, WqEvent::PeerLinkWake(self.peer_link.generation()));
        }
    }

    // ------------------------------------------------------------------
    // Incremental snapshot maintenance
    // ------------------------------------------------------------------

    /// Re-derive one task's entry in the running snapshot (insert while it
    /// is on a worker, remove otherwise). Called at every state change.
    fn refresh_task_snap(&mut self, task: TaskId) {
        let entry = self.tasks.get(&task).and_then(|r| {
            let worker = r.worker()?;
            Some(RunningSnapshot {
                id: r.spec.id,
                cat: r.cat,
                started_at: r.started_at,
                allocation: r.allocation.unwrap_or(Resources::ZERO),
                worker,
            })
        });
        match entry {
            Some(s) => {
                self.snap.running.insert(task, s);
            }
            None => {
                self.snap.running.remove(&task);
            }
        }
    }

    /// Re-derive one worker's entries in the snapshot and the dispatch
    /// gate, and retire the worker once it has stopped. Called whenever
    /// its state, load, task count or suspicion changes — every path that
    /// stops a worker ends here, which is what keeps `workers` O(live).
    fn refresh_worker_snap(&mut self, wid: WorkerId) {
        let live = self
            .workers
            .get(&wid)
            .filter(|w| w.state != WorkerState::Stopped);
        let Some(w) = live else {
            self.workers.remove(&wid);
            self.snap.workers.remove(&wid);
            self.gate.set(wid, None);
            return;
        };
        self.snap.workers.insert(
            wid,
            WorkerSnapshot {
                id: w.id,
                capacity: w.capacity(),
                available: w.pool.available(),
                state: w.state,
                tasks: w.task_count(),
            },
        );
        let entry = self.gate_entry(w);
        self.gate.set(wid, entry);
    }

    /// A worker's dispatch-gate entry: its free resources and idleness
    /// when it could take a declared-resources task, `None` otherwise.
    fn gate_entry(&self, w: &Worker) -> Option<(Resources, bool)> {
        let eligible = w.state == WorkerState::Active
            && w.exclusive_task.is_none()
            && !self.suspects.contains(&w.id);
        eligible.then(|| (w.pool.available(), w.is_idle()))
    }

    /// Bring the waiting view of the snapshot up to date (the running and
    /// worker views are always current). Cheap when nothing changed.
    pub fn refresh_queue_status(&mut self) {
        if !self.waiting_dirty {
            return;
        }
        self.waiting_dirty = false;
        self.snap.waiting.clear();
        self.snap.waiting.reserve(self.waiting.len());
        for t in self.waiting.iter() {
            if let Some(r) = self.tasks.get(&t).filter(|r| is_waiting(r)) {
                self.snap.waiting.push(WaitingSnapshot {
                    id: r.spec.id,
                    cat: r.cat,
                    declared: r.spec.declared,
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Number of waiting tasks (live queue entries).
    pub fn waiting_count(&self) -> usize {
        self.waiting.len()
    }

    /// Number of tasks assigned to workers (staging/running/returning).
    pub fn running_count(&self) -> usize {
        self.snap.running.len()
    }

    /// Number of completed tasks.
    pub fn completed_count(&self) -> usize {
        self.completed_count
    }

    /// Number of permanently failed tasks (retry budget exhausted).
    pub fn failed_count(&self) -> usize {
        self.failed_count
    }

    /// Cumulative fault-injection counters.
    pub fn fault_stats(&self) -> TaskFaultStats {
        self.fault_stats
    }

    /// True when every submitted task has reached a terminal state
    /// (completed, or permanently failed under fault injection). Under
    /// streaming admission completed records are retired, so the retired
    /// counter stands in for the emptied map.
    pub fn all_complete(&self) -> bool {
        self.waiting.is_empty()
            && self.running_count() == 0
            && (!self.tasks.is_empty() || self.retired > 0)
    }

    /// Completed task records dropped under streaming admission
    /// ([`MasterConfig::retire_completed`]); always 0 otherwise.
    pub fn retired_count(&self) -> usize {
        self.retired
    }

    /// Order-insensitive digest over every completed task id. Two runs
    /// completing the same id *set* agree regardless of completion order
    /// or retirement — the trace crash-equivalence checks compare this
    /// where [`Master::completed_task_ids`] would only see retained
    /// records.
    pub fn completed_digest(&self) -> u64 {
        self.completed_digest
    }

    /// A task record.
    pub fn task(&self, id: TaskId) -> Option<&TaskRecord> {
        self.tasks.get(&id)
    }

    /// Ids of all completed tasks, ascending (the crash-recovery
    /// equivalence checks compare these sets across runs).
    pub fn completed_task_ids(&self) -> Vec<TaskId> {
        self.tasks
            .iter()
            .filter(|(_, r)| r.state == TaskState::Complete)
            .map(|(t, _)| *t)
            .collect()
    }

    /// True when some task of `cat` is waiting or on a worker (the
    /// operator's probe reconciliation checks this after a recovery).
    pub fn has_live_task_in_category(&self, cat: CategoryId) -> bool {
        self.tasks
            .values()
            .any(|r| r.cat == cat && !matches!(r.state, TaskState::Complete | TaskState::Failed))
    }

    /// A live (active or draining) worker. `None` once the worker has
    /// stopped: stopped workers are retired from the master's state.
    pub fn worker(&self, id: WorkerId) -> Option<&Worker> {
        self.workers.get(&id)
    }

    /// Connected (non-stopped) worker count.
    pub fn connected_workers(&self) -> usize {
        self.snap.workers.len()
    }

    /// Connected workers with no assigned task.
    pub fn idle_workers(&self) -> usize {
        self.snap.workers.values().filter(|w| w.tasks == 0).count()
    }

    /// Busy CPU cores on one worker: Σ over *running* tasks of
    /// `actual cores × cpu_fraction`. (Actual usage, not allocation — a
    /// 1-core job on an exclusively held 3-core worker burns 1 core.)
    pub fn worker_busy_cores(&self, id: WorkerId) -> f64 {
        let Some(w) = self.workers.get(&id) else {
            return 0.0;
        };
        w.tasks()
            .iter()
            .filter_map(|t| self.tasks.get(t))
            .filter(|r| matches!(r.state, TaskState::Running(_)))
            .map(|r| r.spec.actual.cores_f64() * r.spec.exec.cpu_fraction)
            .sum()
    }

    /// Mean CPU utilization across connected workers (the HPA metric):
    /// per-worker `busy / capacity`, averaged. `None` when no worker is
    /// connected (no metrics — like a Deployment with zero ready pods).
    pub fn mean_worker_utilization(&self) -> Option<f64> {
        if let Some(cached) = self.mwu_cache.get() {
            return cached;
        }
        let mut sum = 0.0;
        for w in self.workers.values() {
            sum += w.utilization(self.worker_busy_cores(w.id));
        }
        let live = self.workers.len();
        let mean = if live == 0 {
            None
        } else {
            Some(sum / live as f64)
        };
        self.mwu_cache.set(Some(mean));
        mean
    }

    /// Instantaneous egress throughput (MB/s).
    pub fn egress_throughput_mbps(&self) -> f64 {
        self.link.current_throughput_mbps()
    }

    /// Cores in use by running tasks, by *allocation* (the paper's RIU).
    pub fn in_use_cores(&self) -> f64 {
        self.snap
            .running
            .values()
            .map(|r| r.allocation.cores_f64())
            .sum()
    }

    /// `wq_status`-style textual snapshot of the queue and workers.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "QUEUE: {} waiting, {} running, {} complete",
            self.waiting_count(),
            self.running_count(),
            self.completed_count()
        );
        let _ = writeln!(
            out,
            "WORKERS: {} connected ({} idle), egress {:.1} MB/s over {} flows",
            self.connected_workers(),
            self.idle_workers(),
            self.egress_throughput_mbps(),
            self.link.active_flows(),
        );
        for w in self.workers.values() {
            let _ = writeln!(
                out,
                "  {:<10} {:<9} {} tasks, used {} / {}",
                w.id.to_string(),
                format!("{:?}", w.state),
                w.task_count(),
                w.pool.used(),
                w.capacity(),
            );
        }
        out
    }

    /// All task records (post-run inspection: per-task timelines).
    pub fn task_records(&self) -> impl Iterator<Item = &TaskRecord> {
        self.tasks.values()
    }

    /// Per-category queue summary keyed by category name. Cold path
    /// (end-of-run reporting): counts accumulate in an id-indexed `Vec`
    /// and only the final map is name-keyed.
    pub fn category_summary(&self) -> BTreeMap<String, CategorySummary> {
        let mut counts: Vec<CategorySummary> =
            vec![CategorySummary::default(); self.interner.len()];
        for (idx, n) in self.cat_retired.iter().enumerate() {
            counts[idx].completed += *n;
        }
        for rec in self.tasks.values() {
            let entry = &mut counts[rec.cat.index()];
            match rec.state {
                TaskState::Waiting => entry.waiting += 1,
                TaskState::Staging(_) | TaskState::Running(_) | TaskState::Returning(_) => {
                    entry.running += 1
                }
                TaskState::Complete => entry.completed += 1,
                TaskState::Failed => entry.failed += 1,
            }
        }
        let mut out = BTreeMap::new();
        for (name, id) in self.interner.iter_by_name() {
            let mut entry = counts[id.index()];
            // Categories interned ahead of submission (the operator
            // registers every workflow stage) but never actually submitted
            // are absent from the old task-derived map; keep that shape.
            if entry.waiting + entry.running + entry.completed + entry.failed == 0 {
                continue;
            }
            entry.mean_wall_s = self
                .mean_wall_id(id)
                .map(|d| d.as_secs_f64())
                .unwrap_or(0.0);
            out.insert(name.to_string(), entry);
        }
        out
    }

    /// Snapshot for the autoscaler: refreshes the waiting view if the
    /// queue changed, then returns the incrementally maintained status.
    pub fn queue_status(&mut self) -> &QueueStatus {
        self.refresh_queue_status();
        &self.snap
    }

    /// The current snapshot *without* refreshing the waiting view. Pair
    /// with [`Master::refresh_queue_status`] when shared borrows of the
    /// master (e.g. the interner) must coexist with the snapshot.
    pub fn snapshot(&self) -> &QueueStatus {
        &self.snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::ExecModel;
    use hta_des::{Checkpoint, EventQueue};

    fn catalog_with_db() -> (FileCatalog, crate::ids::FileId) {
        let mut cat = FileCatalog::new();
        let db = cat.register("blast-db", 100.0, true);
        (cat, db)
    }

    fn cpu_task(id: u64, db: crate::ids::FileId, declared: Option<Resources>) -> TaskSpec {
        TaskSpec {
            id: TaskId(id),
            category: "align".into(),
            inputs: vec![db],
            output_mb: 0.6,
            declared,
            actual: Resources::cores(1, 2_000, 2_000),
            exec: ExecModel::cpu_bound(Duration::from_secs(60)),
        }
    }

    /// Schedule everything buffered in the sink.
    fn sched(q: &mut EventQueue<WqEvent>, fx: &mut EffectSink<WqEvent>) {
        for (d, e) in fx.drain() {
            q.schedule_in(d, e);
        }
    }

    /// Drive the master until the queue is empty of events or `limit` pops.
    fn run(
        master: &mut Master,
        q: &mut EventQueue<WqEvent>,
        fx: &mut EffectSink<WqEvent>,
        limit: usize,
    ) {
        sched(q, fx);
        for _ in 0..limit {
            let Some((now, ev)) = q.pop() else { break };
            master.handle(now, ev, fx);
            sched(q, fx);
        }
    }

    fn link_cfg() -> MasterConfig {
        MasterConfig {
            egress_base_mbps: 100.0,
            egress_overhead_per_flow: 0.0,
            ..MasterConfig::default()
        }
    }

    #[test]
    fn single_task_full_lifecycle() {
        let (cat, db) = catalog_with_db();
        let mut m = Master::new(link_cfg(), cat);
        let mut q = EventQueue::new();
        let mut fx = EffectSink::new();
        let _w = m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
        run(&mut m, &mut q, &mut fx, 10);
        m.submit(
            SimTime::ZERO,
            cpu_task(0, db, Some(Resources::cores(1, 2_000, 2_000))),
            &mut fx,
        );
        run(&mut m, &mut q, &mut fx, 100);
        assert!(m.all_complete());
        let rec = m.task(TaskId(0)).unwrap();
        assert_eq!(rec.state, TaskState::Complete);
        // 1 s staging (100MB at 100MB/s) + 60 s exec + ~6 ms output.
        let done = rec.completed_at.unwrap().as_secs_f64();
        assert!((61.0..61.2).contains(&done), "completed at {done}");
        let notes = m.drain_notifications();
        assert!(matches!(
            notes.last(),
            Some(WqNotification::TaskCompleted { .. })
        ));
    }

    #[test]
    fn unknown_resources_run_exclusively() {
        let (cat, db) = catalog_with_db();
        let mut m = Master::new(link_cfg(), cat);
        let mut q = EventQueue::new();
        let mut fx = EffectSink::new();
        let _w = m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
        run(&mut m, &mut q, &mut fx, 10);
        // Two unknown tasks, one worker: the second must wait even though
        // the worker has 4 cores.
        m.submit(SimTime::ZERO, cpu_task(0, db, None), &mut fx);
        m.submit(SimTime::ZERO, cpu_task(1, db, None), &mut fx);
        assert_eq!(m.running_count(), 1);
        assert_eq!(m.waiting_count(), 1);
        run(&mut m, &mut q, &mut fx, 200);
        assert!(m.all_complete());
        // Sequential execution: second finishes after ~2×(stage+exec).
        let t1 = m
            .task(TaskId(1))
            .unwrap()
            .completed_at
            .unwrap()
            .as_secs_f64();
        assert!(t1 > 120.0, "second exclusive task serialized, done at {t1}");
    }

    #[test]
    fn known_resources_pack_in_parallel() {
        let (cat, db) = catalog_with_db();
        let mut m = Master::new(link_cfg(), cat);
        let mut q = EventQueue::new();
        let mut fx = EffectSink::new();
        let _w = m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
        run(&mut m, &mut q, &mut fx, 10);
        let decl = Some(Resources::cores(1, 2_000, 2_000));
        for i in 0..4 {
            m.submit(SimTime::ZERO, cpu_task(i, db, decl), &mut fx);
        }
        assert_eq!(m.running_count(), 4, "all four pack onto the worker");
        run(&mut m, &mut q, &mut fx, 400);
        assert!(m.all_complete());
        // Parallel: all done by ~62 s, not 4×61.
        for i in 0..4 {
            let done = m
                .task(TaskId(i))
                .unwrap()
                .completed_at
                .unwrap()
                .as_secs_f64();
            assert!(done < 70.0, "task {i} at {done}");
        }
    }

    #[test]
    fn retirement_drops_records_but_keeps_accounting() {
        let decl = Some(Resources::cores(1, 2_000, 2_000));
        let mut masters: Vec<Master> = [false, true]
            .into_iter()
            .map(|retire| {
                let (cat, db) = catalog_with_db();
                let cfg = MasterConfig {
                    retire_completed: retire,
                    ..link_cfg()
                };
                let mut m = Master::new(cfg, cat);
                let mut q = EventQueue::new();
                let mut fx = EffectSink::new();
                let _w =
                    m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
                run(&mut m, &mut q, &mut fx, 10);
                for i in 0..4 {
                    m.submit(SimTime::ZERO, cpu_task(i, db, decl), &mut fx);
                }
                run(&mut m, &mut q, &mut fx, 400);
                assert!(m.all_complete());
                m
            })
            .collect();
        let retiring = masters.pop().expect("two masters");
        let plain = masters.pop().expect("two masters");
        // Records are gone, counters and the per-category summary are not.
        assert_eq!(retiring.retired_count(), 4);
        assert_eq!(retiring.completed_count(), 4);
        assert!(retiring.task(TaskId(0)).is_none());
        assert!(retiring.completed_task_ids().is_empty());
        assert_eq!(plain.retired_count(), 0);
        assert_eq!(plain.completed_task_ids().len(), 4);
        // Same completion set ⇒ same order-insensitive digest.
        assert_eq!(retiring.completed_digest(), plain.completed_digest());
        assert_eq!(retiring.category_summary(), plain.category_summary());
    }

    #[test]
    fn a_failed_record_does_not_widen_the_task_table() {
        // Under retirement a permanently failed record stays (it feeds
        // the run's task spans) while every later task retires. The
        // table must stay sized by its live records, not by the id range
        // the failed record pins open.
        let (cat, db) = catalog_with_db();
        let cfg = MasterConfig {
            retire_completed: true,
            ..link_cfg()
        };
        let mut m = Master::new(cfg, cat);
        let mut q = EventQueue::new();
        let mut fx = EffectSink::new();
        let decl = Some(Resources::cores(1, 2_000, 2_000));
        m.submit(SimTime::ZERO, cpu_task(0, db, decl), &mut fx);
        m.recover_failed(SimTime::ZERO, TaskId(0));
        let _w = m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
        run(&mut m, &mut q, &mut fx, 10);
        let mut widest = 0;
        for i in 1..=10_000u64 {
            m.submit(q.now(), cpu_task(i, db, decl), &mut fx);
            run(&mut m, &mut q, &mut fx, 100);
            assert_eq!(
                m.completed_count() as u64,
                i,
                "task {i} completes before the next submission"
            );
            widest = widest.max(m.tasks.slot_count());
        }
        assert!(widest <= 100, "task table grew to {widest} slots");
        assert_eq!(m.tasks.len(), 1, "only the failed record is retained");
        assert_eq!(m.task(TaskId(0)).map(|r| r.state), Some(TaskState::Failed));
        m.assert_invariants();
    }

    #[test]
    fn cacheable_input_transfers_once_per_worker() {
        let (cat, db) = catalog_with_db();
        let mut m = Master::new(link_cfg(), cat);
        let mut q = EventQueue::new();
        let mut fx = EffectSink::new();
        let w = m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
        run(&mut m, &mut q, &mut fx, 10);
        let decl = Some(Resources::cores(4, 2_000, 2_000)); // serialize on cores
        m.submit(SimTime::ZERO, cpu_task(0, db, decl), &mut fx);
        run(&mut m, &mut q, &mut fx, 200);
        assert!(m.worker(w).unwrap().has_cached(db));
        let t0_done = m.task(TaskId(0)).unwrap().completed_at.unwrap();
        m.submit(t0_done, cpu_task(1, db, decl), &mut fx);
        run(&mut m, &mut q, &mut fx, 200);
        let rec1 = m.task(TaskId(1)).unwrap();
        // Second task skipped staging: started as soon as dispatched.
        assert_eq!(rec1.started_at.unwrap(), t0_done);
    }

    #[test]
    fn one_cacheable_flow_releases_its_many_waiters_in_id_order() {
        let (cat, db) = catalog_with_db();
        let mut m = Master::new(link_cfg(), cat);
        let mut q = EventQueue::new();
        let mut fx = EffectSink::new();
        let _w = m.worker_connect(
            SimTime::ZERO,
            Resources::cores(32, 128_000, 500_000),
            &mut fx,
        );
        run(&mut m, &mut q, &mut fx, 10);
        // Submitted in descending id, so dispatch (and sharer) order is
        // the reverse of the id order the release must follow.
        let decl = Some(Resources::cores(1, 2_000, 2_000));
        for id in (0..32).rev() {
            m.submit(SimTime::ZERO, cpu_task(id, db, decl), &mut fx);
        }
        assert_eq!(m.flows.len(), 1, "one transfer carries the database");
        let Some(FlowPurpose::Staging { task, sharers, .. }) = m.flows.values().next() else {
            panic!("a staging flow");
        };
        assert_eq!(*task, TaskId(31), "the first dispatched task initiates it");
        assert_eq!(sharers.len(), 31, "every other task waits on it");
        assert_eq!(m.staging_waits.len(), 32);
        // Drive events until the flow completes; the tasks it releases
        // schedule their finish events in start order.
        sched(&mut q, &mut fx);
        let mut started = Vec::new();
        while let Some((now, ev)) = q.pop() {
            m.handle(now, ev, &mut fx);
            for (d, e) in fx.drain() {
                if let WqEvent::TaskFinished(t, _) = e {
                    started.push(t);
                }
                q.schedule_in(d, e);
            }
            if !started.is_empty() {
                break;
            }
        }
        assert_eq!(started, (0..32).map(TaskId).collect::<Vec<_>>());
        assert!(m.staging_waits.is_empty() && m.flows.is_empty());
        run(&mut m, &mut q, &mut fx, 10_000);
        assert!(m.all_complete());
        assert_eq!(m.completed_count(), 32);
    }

    #[test]
    fn a_cancelled_flow_leaves_no_waiter_behind() {
        let (cat, db) = catalog_with_db();
        let mut m = Master::new(link_cfg(), cat);
        let mut q = EventQueue::new();
        let mut fx = EffectSink::new();
        let cap = Resources::cores(8, 64_000, 500_000);
        let w = m.worker_connect(SimTime::ZERO, cap, &mut fx);
        run(&mut m, &mut q, &mut fx, 10);
        let decl = Some(Resources::cores(1, 2_000, 2_000));
        for id in 0..8 {
            m.submit(SimTime::ZERO, cpu_task(id, db, decl), &mut fx);
        }
        assert_eq!(m.staging_waits.len(), 8);
        m.kill_worker(SimTime::from_secs(1), w, &mut fx);
        assert!(
            m.flows.is_empty(),
            "the killed worker's transfer is cancelled"
        );
        assert!(
            m.staging_waits.is_empty(),
            "…and none of its waiters remain"
        );
        assert_eq!(m.waiting_count(), 8);
        let _w2 = m.worker_connect(SimTime::from_secs(1), cap, &mut fx);
        run(&mut m, &mut q, &mut fx, 10_000);
        assert!(m.all_complete());
        assert_eq!(m.completed_count(), 8);
    }

    #[test]
    fn drain_lets_running_tasks_finish() {
        let (cat, db) = catalog_with_db();
        let mut m = Master::new(link_cfg(), cat);
        let mut q = EventQueue::new();
        let mut fx = EffectSink::new();
        let w = m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
        run(&mut m, &mut q, &mut fx, 10);
        m.submit(
            SimTime::ZERO,
            cpu_task(0, db, Some(Resources::cores(1, 2_000, 2_000))),
            &mut fx,
        );
        sched(&mut q, &mut fx);
        m.drain_worker(SimTime::ZERO, w);
        run(&mut m, &mut q, &mut fx, 200);
        assert!(m.all_complete(), "running task finished despite drain");
        let notes = m.drain_notifications();
        assert!(notes.contains(&WqNotification::WorkerStopped(w)));
        assert_eq!(m.connected_workers(), 0);
    }

    #[test]
    fn drain_idle_worker_stops_immediately() {
        let (cat, _db) = catalog_with_db();
        let mut m = Master::new(link_cfg(), cat);
        let mut fx = EffectSink::new();
        let w = m.worker_connect(SimTime::ZERO, Resources::cores(4, 0, 0), &mut fx);
        m.drain_worker(SimTime::from_secs(1), w);
        let notes = m.drain_notifications();
        assert!(notes.contains(&WqNotification::WorkerStopped(w)));
    }

    #[test]
    fn kill_requeues_tasks_and_they_rerun_elsewhere() {
        let (cat, db) = catalog_with_db();
        let mut m = Master::new(link_cfg(), cat);
        let mut q = EventQueue::new();
        let mut fx = EffectSink::new();
        let w1 = m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
        run(&mut m, &mut q, &mut fx, 5);
        m.submit(
            SimTime::ZERO,
            cpu_task(0, db, Some(Resources::cores(1, 2_000, 2_000))),
            &mut fx,
        );
        sched(&mut q, &mut fx);
        // Let staging finish and execution begin (~1 s), then kill.
        while let Some(t) = q.peek_time() {
            if t > SimTime::from_secs(5) {
                break;
            }
            let (now, ev) = q.pop().unwrap();
            m.handle(now, ev, &mut fx);
            sched(&mut q, &mut fx);
        }
        assert!(matches!(
            m.task(TaskId(0)).unwrap().state,
            TaskState::Running(_)
        ));
        m.kill_worker(SimTime::from_secs(5), w1, &mut fx);
        sched(&mut q, &mut fx);
        let rec = m.task(TaskId(0)).unwrap();
        assert_eq!(rec.state, TaskState::Waiting);
        assert_eq!(rec.interruptions, 1);
        assert!(m
            .drain_notifications()
            .contains(&WqNotification::TaskRequeued(TaskId(0))));
        // A second worker arrives; the task reruns and completes. (API
        // calls must use the queue's current time — effects are scheduled
        // relative to it.)
        let _w2 = m.worker_connect(q.now(), Resources::cores(4, 16_000, 50_000), &mut fx);
        run(&mut m, &mut q, &mut fx, 300);
        assert!(m.all_complete());
        // The rerun re-staged (cache was lost with the killed worker) and
        // re-executed the full 60 s: completion lands after the stale
        // first-run TaskFinished time (~61 s), proving the stale event was
        // ignored rather than completing the task early.
        let done = m.task(TaskId(0)).unwrap().completed_at.unwrap();
        assert!(done > SimTime::from_secs(61), "done={done:?}");
        assert_eq!(m.task(TaskId(0)).unwrap().interruptions, 1);
    }

    #[test]
    fn utilization_reflects_actual_usage_not_allocation() {
        let (cat, db) = catalog_with_db();
        let mut m = Master::new(link_cfg(), cat);
        let mut q = EventQueue::new();
        let mut fx = EffectSink::new();
        let w = m.worker_connect(SimTime::ZERO, Resources::cores(3, 12_000, 50_000), &mut fx);
        run(&mut m, &mut q, &mut fx, 5);
        // Unknown resources → exclusive 3-core hold, but the job only
        // burns 1 core at 90% → utilization ≈ 0.3 (the paper's 32.43%).
        m.submit(SimTime::ZERO, cpu_task(0, db, None), &mut fx);
        sched(&mut q, &mut fx);
        // Pump events just until execution starts (staging takes ~1 s).
        while !matches!(m.task(TaskId(0)).unwrap().state, TaskState::Running(_)) {
            let (now, ev) = q.pop().expect("events remain");
            m.handle(now, ev, &mut fx);
            sched(&mut q, &mut fx);
        }
        let util = m.worker_busy_cores(w) / 3.0;
        assert!((util - 0.3).abs() < 0.01, "util={util}");
        assert_eq!(
            m.mean_worker_utilization().map(|u| (u * 10.0).round()),
            Some(3.0)
        );
    }

    #[test]
    fn queue_status_snapshot() {
        let (cat, db) = catalog_with_db();
        let mut m = Master::new(link_cfg(), cat);
        let mut fx = EffectSink::new();
        let w = m.worker_connect(SimTime::ZERO, Resources::cores(2, 8_000, 10_000), &mut fx);
        m.submit(
            SimTime::ZERO,
            cpu_task(0, db, Some(Resources::cores(1, 0, 0))),
            &mut fx,
        );
        m.submit(
            SimTime::ZERO,
            cpu_task(1, db, Some(Resources::cores(2, 0, 0))),
            &mut fx,
        );
        let st = m.queue_status();
        assert_eq!(st.running.len(), 1);
        assert_eq!(st.waiting.len(), 1, "2-core task can't fit beside 1-core");
        assert_eq!(st.workers.len(), 1);
        assert_eq!(st.workers[&w].tasks, 1);
        assert_eq!(st.waiting[0].id, TaskId(1));
    }

    #[test]
    fn incremental_snapshot_matches_rebuilt_state() {
        let (cat, db) = catalog_with_db();
        let mut m = Master::new(link_cfg(), cat);
        let mut q = EventQueue::new();
        let mut fx = EffectSink::new();
        let _w = m.worker_connect(SimTime::ZERO, Resources::cores(2, 8_000, 50_000), &mut fx);
        run(&mut m, &mut q, &mut fx, 5);
        let decl = Some(Resources::cores(1, 2_000, 2_000));
        for i in 0..4 {
            m.submit(SimTime::ZERO, cpu_task(i, db, decl), &mut fx);
        }
        // Cross-check the maintained snapshot against ground truth at
        // several points through the run.
        for _ in 0..20 {
            let st = m.queue_status();
            let snap_running: Vec<TaskId> = st.running.keys().copied().collect();
            let snap_waiting: Vec<TaskId> = st.waiting.iter().map(|w| w.id).collect();
            let truth_running: Vec<TaskId> = m
                .task_records()
                .filter(|r| r.worker().is_some())
                .map(|r| r.spec.id)
                .collect();
            let truth_waiting: Vec<TaskId> = m
                .task_records()
                .filter(|r| r.state == TaskState::Waiting)
                .map(|r| r.spec.id)
                .collect();
            assert_eq!(snap_running, truth_running);
            assert_eq!(
                {
                    let mut s = snap_waiting.clone();
                    s.sort();
                    s
                },
                truth_waiting
            );
            let Some((now, ev)) = q.pop() else { break };
            m.handle(now, ev, &mut fx);
            sched(&mut q, &mut fx);
        }
        run(&mut m, &mut q, &mut fx, 400);
        assert!(m.all_complete());
        let st = m.queue_status();
        assert!(st.running.is_empty());
        assert!(st.waiting.is_empty());
    }

    #[test]
    fn declare_resources_upgrades_waiting_tasks() {
        let (cat, db) = catalog_with_db();
        let mut m = Master::new(link_cfg(), cat);
        let mut q = EventQueue::new();
        let mut fx = EffectSink::new();
        let _w = m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
        run(&mut m, &mut q, &mut fx, 5);
        // Two unknown tasks: one runs exclusively, one waits.
        m.submit(SimTime::ZERO, cpu_task(0, db, None), &mut fx);
        m.submit(SimTime::ZERO, cpu_task(1, db, None), &mut fx);
        assert_eq!(m.waiting_count(), 1);
        // HTA learns the category needs 1 core and updates the waiting task…
        m.declare_resources(TaskId(1), Resources::cores(1, 2_000, 2_000));
        assert_eq!(
            m.queue_status().waiting[0].declared,
            Some(Resources::cores(1, 2_000, 2_000)),
            "declared upgrade must show in the next snapshot"
        );
        // …but the exclusive task still blocks the worker; the waiting task
        // dispatches only after it completes.
        run(&mut m, &mut q, &mut fx, 400);
        assert!(m.all_complete());
        let rec = m.task(TaskId(1)).unwrap();
        assert_eq!(rec.allocation, Some(Resources::cores(1, 2_000, 2_000)));
    }

    #[test]
    fn fast_abort_requeues_straggler() {
        let (cat, db) = catalog_with_db();
        let mut m = Master::new(
            MasterConfig {
                egress_base_mbps: 100.0,
                egress_overhead_per_flow: 0.0,
                fast_abort_multiplier: Some(2.0),
                ..MasterConfig::default()
            },
            cat,
        );
        let mut q = EventQueue::new();
        let mut fx = EffectSink::new();
        let _w1 = m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
        run(&mut m, &mut q, &mut fx, 5);
        let decl = Some(Resources::cores(1, 2_000, 2_000));
        // Establish the category mean with a normal 60 s task…
        m.submit(SimTime::ZERO, cpu_task(0, db, decl), &mut fx);
        run(&mut m, &mut q, &mut fx, 100);
        assert!(m.task(TaskId(0)).unwrap().state == TaskState::Complete);
        // …then a straggler that would run 1000 s (mean 60 × 2 = 120 s
        // threshold). It gets aborted and re-run; the rerun also exceeds
        // the threshold, so it keeps cycling until the mean catches up or
        // the test's event budget ends — so give the rerun a sane length
        // by checking the first abort only.
        let mut straggler = cpu_task(1, db, decl);
        straggler.exec = ExecModel::cpu_bound(Duration::from_secs(1_000));
        m.submit(q.now(), straggler, &mut fx);
        sched(&mut q, &mut fx);
        // Pump until the abort notification shows up.
        let mut aborted = false;
        for _ in 0..200 {
            let Some((now, ev)) = q.pop() else { break };
            m.handle(now, ev, &mut fx);
            sched(&mut q, &mut fx);
            if m.drain_notifications()
                .iter()
                .any(|n| matches!(n, WqNotification::TaskFastAborted(TaskId(1))))
            {
                aborted = true;
                break;
            }
        }
        assert!(aborted, "straggler must be fast-aborted");
        let rec = m.task(TaskId(1)).unwrap();
        assert!(rec.interruptions >= 1);
    }

    #[test]
    fn fast_abort_disabled_by_default() {
        let (cat, db) = catalog_with_db();
        let mut m = Master::new(link_cfg(), cat);
        let mut q = EventQueue::new();
        let mut fx = EffectSink::new();
        let _w = m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
        run(&mut m, &mut q, &mut fx, 5);
        let decl = Some(Resources::cores(1, 2_000, 2_000));
        m.submit(SimTime::ZERO, cpu_task(0, db, decl), &mut fx);
        run(&mut m, &mut q, &mut fx, 100);
        let mut slow = cpu_task(1, db, decl);
        slow.exec = ExecModel::cpu_bound(Duration::from_secs(1_000));
        m.submit(q.now(), slow, &mut fx);
        run(&mut m, &mut q, &mut fx, 300);
        assert!(m.all_complete());
        assert_eq!(m.task(TaskId(1)).unwrap().interruptions, 0);
    }

    #[test]
    fn peer_transfers_offload_the_master_uplink() {
        let (cat, db) = catalog_with_db();
        // Slow master uplink, fast peer network: the second worker's copy
        // of the cacheable db should come from its peer, far sooner than
        // another master transfer would allow.
        let mut m = Master::new(
            MasterConfig {
                egress_base_mbps: 10.0, // 100 MB db → 10 s per master copy
                egress_overhead_per_flow: 0.0,
                peer_transfers: true,
                peer_bandwidth_mbps: 1_000.0, // 0.1 s per peer copy
                ..MasterConfig::default()
            },
            cat,
        );
        let mut q = EventQueue::new();
        let mut fx = EffectSink::new();
        let _w1 = m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
        run(&mut m, &mut q, &mut fx, 5);
        let decl = Some(Resources::cores(4, 2_000, 2_000)); // serialize per worker
        m.submit(SimTime::ZERO, cpu_task(0, db, decl), &mut fx);
        run(&mut m, &mut q, &mut fx, 100);
        assert!(m.task(TaskId(0)).unwrap().state == TaskState::Complete);
        // Pin worker 1 with a long task so the next task lands on worker 2
        // (whose cache is cold) while worker 1 still holds the db.
        let mut blocker = cpu_task(9, db, decl);
        blocker.exec = ExecModel::cpu_bound(Duration::from_secs(5_000));
        m.submit(q.now(), blocker, &mut fx);
        sched(&mut q, &mut fx);
        // Second worker joins; its task's db comes over the peer link.
        // (Do not pump here: the next queued event is the blocker's finish
        // thousands of seconds away.)
        let w2 = m.worker_connect(q.now(), Resources::cores(4, 16_000, 50_000), &mut fx);
        sched(&mut q, &mut fx);
        let t1_submit = q.now();
        m.submit(t1_submit, cpu_task(1, db, decl), &mut fx);
        run(&mut m, &mut q, &mut fx, 200);
        let rec = m.task(TaskId(1)).unwrap();
        assert_eq!(rec.state, TaskState::Complete);
        // Staging must be far faster than the 10 s a master copy takes:
        // ~0.3 s (0.1 s peer db + 0.2 s master query chunk).
        let staging = rec.started_at.unwrap().since(t1_submit).as_secs_f64();
        assert!(staging < 2.0, "staging took {staging}s — not peer-served");
        assert!(m.worker(w2).unwrap().has_cached(db));
    }

    #[test]
    fn peer_transfers_disabled_use_master_uplink() {
        let (cat, db) = catalog_with_db();
        let mut m = Master::new(
            MasterConfig {
                egress_base_mbps: 10.0,
                egress_overhead_per_flow: 0.0,
                peer_bandwidth_mbps: 1_000.0,
                ..MasterConfig::default()
            },
            cat,
        );
        let mut q = EventQueue::new();
        let mut fx = EffectSink::new();
        let _w1 = m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
        run(&mut m, &mut q, &mut fx, 5);
        let decl = Some(Resources::cores(4, 2_000, 2_000));
        m.submit(SimTime::ZERO, cpu_task(0, db, decl), &mut fx);
        run(&mut m, &mut q, &mut fx, 100);
        let mut blocker = cpu_task(9, db, decl);
        blocker.exec = ExecModel::cpu_bound(Duration::from_secs(5_000));
        m.submit(q.now(), blocker, &mut fx);
        sched(&mut q, &mut fx);
        let _w2 = m.worker_connect(q.now(), Resources::cores(4, 16_000, 50_000), &mut fx);
        sched(&mut q, &mut fx);
        let t1_submit = q.now();
        m.submit(t1_submit, cpu_task(1, db, decl), &mut fx);
        run(&mut m, &mut q, &mut fx, 200);
        let rec = m.task(TaskId(1)).unwrap();
        let staging = rec.started_at.unwrap().since(t1_submit).as_secs_f64();
        assert!(
            staging > 9.0,
            "staging took {staging}s — master copy expected"
        );
    }

    #[test]
    fn category_summary_tracks_progress() {
        let (cat, db) = catalog_with_db();
        let mut m = Master::new(link_cfg(), cat);
        let mut q = EventQueue::new();
        let mut fx = EffectSink::new();
        let _w = m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
        run(&mut m, &mut q, &mut fx, 5);
        // Pre-interned-but-unsubmitted categories must not show up.
        m.intern_category("phantom");
        let decl = Some(Resources::cores(4, 2_000, 2_000));
        m.submit(SimTime::ZERO, cpu_task(0, db, decl), &mut fx);
        m.submit(SimTime::ZERO, cpu_task(1, db, decl), &mut fx);
        let sum = m.category_summary();
        assert_eq!(sum["align"].running, 1);
        assert_eq!(sum["align"].waiting, 1);
        assert!(!sum.contains_key("phantom"));
        run(&mut m, &mut q, &mut fx, 300);
        let sum = m.category_summary();
        assert_eq!(sum["align"].completed, 2);
        assert!((sum["align"].mean_wall_s - 60.0).abs() < 1.0);
    }

    #[test]
    fn describe_reports_queue_and_workers() {
        let (cat, db) = catalog_with_db();
        let mut m = Master::new(link_cfg(), cat);
        let mut fx = EffectSink::new();
        let _w = m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
        m.submit(
            SimTime::ZERO,
            cpu_task(0, db, Some(Resources::cores(1, 0, 0))),
            &mut fx,
        );
        let text = m.describe();
        assert!(text.contains("1 running"), "{text}");
        assert!(text.contains("1 connected"), "{text}");
        assert!(text.contains("worker-0"), "{text}");
    }

    #[test]
    fn in_use_cores_counts_allocations() {
        let (cat, db) = catalog_with_db();
        let mut m = Master::new(link_cfg(), cat);
        let mut fx = EffectSink::new();
        let _w = m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
        m.submit(SimTime::ZERO, cpu_task(0, db, None), &mut fx);
        // Exclusive allocation = whole worker = 4 cores.
        assert!((m.in_use_cores() - 4.0).abs() < 1e-9);
    }

    fn faulty_cfg(faults: TaskFaults) -> MasterConfig {
        MasterConfig {
            egress_base_mbps: 100.0,
            egress_overhead_per_flow: 0.0,
            faults,
            ..MasterConfig::default()
        }
    }

    #[test]
    fn transient_failures_retry_until_budget_exhausted() {
        let (cat, db) = catalog_with_db();
        // Every attempt fails → the task burns its whole retry budget and
        // is permanently failed after max_retries + 1 attempts.
        let mut m = Master::new(
            faulty_cfg(TaskFaults {
                transient_rate: 1.0,
                max_retries: 2,
                ..TaskFaults::default()
            }),
            cat,
        );
        let mut q = EventQueue::new();
        let mut fx = EffectSink::new();
        let _w = m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
        run(&mut m, &mut q, &mut fx, 5);
        m.submit(
            SimTime::ZERO,
            cpu_task(0, db, Some(Resources::cores(1, 2_000, 2_000))),
            &mut fx,
        );
        run(&mut m, &mut q, &mut fx, 500);
        let rec = m.task(TaskId(0)).unwrap();
        assert_eq!(rec.state, TaskState::Failed);
        assert_eq!(rec.retries, 3, "max_retries + 1 attempts");
        assert_eq!(m.failed_count(), 1);
        assert_eq!(m.completed_count(), 0);
        let st = m.fault_stats();
        assert_eq!(st.transient_failures, 3);
        assert_eq!(st.retries, 2);
        assert_eq!(st.permanent_failures, 1);
        assert!(st.wasted_core_s > 0.0, "failed attempts burn core·s");
        let notes = m.drain_notifications();
        assert!(notes.iter().any(|n| matches!(
            n,
            WqNotification::TaskFailed {
                task: TaskId(0),
                ..
            }
        )));
        assert!(m.all_complete(), "failed is terminal");
    }

    #[test]
    fn oom_kill_escalates_memory_on_retry() {
        let (cat, db) = catalog_with_db();
        // First attempt OOMs; after that, rates off would be ideal but the
        // stream is seeded — instead allow plenty of retries and check the
        // declared memory grew by the escalation factor after the first kill.
        let mut m = Master::new(
            faulty_cfg(TaskFaults {
                oom_rate: 1.0,
                max_retries: 2,
                oom_escalation: 2.0,
                ..TaskFaults::default()
            }),
            cat,
        );
        let mut q = EventQueue::new();
        let mut fx = EffectSink::new();
        let _w = m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
        run(&mut m, &mut q, &mut fx, 5);
        m.submit(
            SimTime::ZERO,
            cpu_task(0, db, Some(Resources::cores(1, 2_000, 2_000))),
            &mut fx,
        );
        run(&mut m, &mut q, &mut fx, 500);
        let rec = m.task(TaskId(0)).unwrap();
        // 2000 → 4000 → 8000 MB, capped at the 16 GB worker.
        assert_eq!(rec.spec.declared.unwrap().memory_mb, 8_000);
        assert!(m.fault_stats().oom_kills >= 2);
    }

    #[test]
    fn a_checkpoint_shares_records_until_the_live_master_writes_them() {
        let (cat, db) = catalog_with_db();
        let mut m = Master::new(
            faulty_cfg(TaskFaults {
                oom_rate: 1.0,
                max_retries: 5,
                oom_escalation: 2.0,
                ..TaskFaults::default()
            }),
            cat,
        );
        let mut q = EventQueue::new();
        let mut fx = EffectSink::new();
        let decl = Some(Resources::cores(1, 2_000, 2_000));
        for id in 0..3 {
            m.submit(SimTime::ZERO, cpu_task(id, db, decl), &mut fx);
        }
        let ids: Vec<TaskId> = (0..3).map(TaskId).collect();
        let cp = Checkpoint::take(m.clone(), SimTime::ZERO);
        let probe = cp.restore();
        for id in &ids {
            assert!(m.tasks.shares_record(&probe.tasks, id), "{id:?} shared");
        }
        drop(probe);
        // Write every record through the live master: a redeclaration,
        // then dispatch onto a fresh worker, then OOM kills that escalate
        // the declared memory on retry.
        m.declare_resources(TaskId(2), Resources::cores(1, 3_000, 2_000));
        let _w = m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
        run(&mut m, &mut q, &mut fx, 60);
        let live = m.task(TaskId(0)).unwrap();
        assert!(live.retries > 0, "an attempt was OOM-killed");
        assert!(live.spec.declared.unwrap().memory_mb > 2_000, "escalated");
        let redeclared = m.task(TaskId(2)).unwrap().spec.declared.unwrap();
        assert!(
            redeclared.memory_mb >= 3_000,
            "redeclared, then maybe escalated"
        );
        // The checkpoint still holds the pre-write values.
        let restored = cp.restore();
        for id in &ids {
            assert!(!m.tasks.shares_record(&restored.tasks, id), "{id:?} copied");
            let rec = restored.task(*id).unwrap();
            assert_eq!(rec.state, TaskState::Waiting);
            assert_eq!((rec.retries, rec.run_generation), (0, 0));
            assert_eq!(rec.spec.declared, decl);
        }
        assert_eq!(restored.waiting_count(), 3);
        assert_eq!(
            restored.waiting_demand(),
            &[(m.task(TaskId(0)).unwrap().cat, decl, 3)]
        );
        restored.assert_invariants();
    }

    #[test]
    fn wal_replay_tombstones_match_a_retain_reference() {
        // The WAL-replay shape at scale: a deep backlog, then thousands of
        // logged completions and failures applied in an arbitrary order.
        let (cat, db) = catalog_with_db();
        let mut m = Master::new(link_cfg(), cat);
        let mut reference: std::collections::VecDeque<TaskId> = std::collections::VecDeque::new();
        let mut fx = EffectSink::new();
        let n = 10_000u64;
        for id in 0..n {
            let declared =
                (id % 3 != 0).then(|| Resources::cores(1 + (id % 2) as i64, 2_000, 2_000));
            m.submit(SimTime::ZERO, cpu_task(id, db, declared), &mut fx);
            reference.push_back(TaskId(id));
        }
        // Three ids in five, in a scattered order: 5,000 replayed
        // completions and 1,000 failures.
        let mut completions = 0;
        for k in 0..n {
            let id = TaskId((k * 7_919) % n);
            if id.raw() % 5 < 2 {
                continue;
            }
            if id.raw() % 10 == 9 {
                m.recover_failed(SimTime::from_secs(1), id);
            } else {
                m.recover_complete(SimTime::from_secs(1), id);
                completions += 1;
            }
            reference.retain(|t| *t != id);
            assert!(
                m.waiting.physical_len() <= 2 * m.waiting.len(),
                "queue of {} entries for {} live",
                m.waiting.physical_len(),
                m.waiting.len()
            );
        }
        assert_eq!(completions, 5_000);
        let live: Vec<TaskId> = m.waiting.iter().filter(|t| queued(&m.tasks, *t)).collect();
        assert_eq!(live, Vec::from(reference.clone()), "live order");
        assert_eq!(m.waiting_count(), reference.len());
        let snap: Vec<TaskId> = m.queue_status().waiting.iter().map(|w| w.id).collect();
        assert_eq!(
            snap,
            Vec::from(reference.clone()),
            "snapshot skips tombstones"
        );
        let mut counts: Vec<(Option<Resources>, usize)> = Vec::new();
        for t in &reference {
            let d = m.task(*t).unwrap().spec.declared;
            match counts.iter_mut().find(|(dd, _)| *dd == d) {
                Some(slot) => slot.1 += 1,
                None => counts.push((d, 1)),
            }
        }
        let mut hist: Vec<(Option<Resources>, usize)> = m
            .waiting_demand()
            .iter()
            .map(|(_, d, c)| (*d, *c))
            .collect();
        hist.sort_by_key(|(d, _)| d.map(|r| r.millicores));
        counts.sort_by_key(|(d, _)| d.map(|r| r.millicores));
        assert_eq!(hist, counts, "demand histogram");
        // Dispatch skips the tombstones: the head survivor goes first.
        let _w = m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
        let head = m.task(reference[0]).unwrap();
        assert!(head.worker().is_some(), "{:?} placed", head.spec.id);
        assert!(m.waiting_count() < reference.len());
    }

    #[test]
    fn zero_rates_draw_nothing_and_change_nothing() {
        let (cat, db) = catalog_with_db();
        let mut m = Master::new(faulty_cfg(TaskFaults::default()), cat);
        let mut q = EventQueue::new();
        let mut fx = EffectSink::new();
        let _w = m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
        run(&mut m, &mut q, &mut fx, 5);
        m.submit(
            SimTime::ZERO,
            cpu_task(0, db, Some(Resources::cores(1, 2_000, 2_000))),
            &mut fx,
        );
        run(&mut m, &mut q, &mut fx, 200);
        assert_eq!(m.completed_count(), 1);
        assert_eq!(m.fault_stats(), TaskFaultStats::default());
    }

    #[test]
    fn speculative_duplicate_wins_race_and_primary_is_cancelled() {
        let (cat, db) = catalog_with_db();
        let mut m = Master::new(
            faulty_cfg(TaskFaults {
                straggler_factor: Some(2.0),
                ..TaskFaults::default()
            }),
            cat,
        );
        let mut q = EventQueue::new();
        let mut fx = EffectSink::new();
        let decl = Some(Resources::cores(1, 2_000, 2_000));
        let _w1 = m.worker_connect(SimTime::ZERO, Resources::cores(1, 4_000, 50_000), &mut fx);
        run(&mut m, &mut q, &mut fx, 5);
        let _w2 = m.worker_connect(SimTime::ZERO, Resources::cores(1, 4_000, 50_000), &mut fx);
        run(&mut m, &mut q, &mut fx, 5);
        // Establish the category mean (60 s) with a normal task…
        m.submit(SimTime::ZERO, cpu_task(0, db, decl), &mut fx);
        run(&mut m, &mut q, &mut fx, 100);
        assert_eq!(m.completed_count(), 1);
        // …then a 10 000 s straggler. At 120 s the check fires, a ~60 s
        // duplicate lands on the idle worker and wins by a mile.
        let mut straggler = cpu_task(1, db, decl);
        straggler.exec = ExecModel::cpu_bound(Duration::from_secs(10_000));
        let submit_at = q.now();
        m.submit(submit_at, straggler, &mut fx);
        run(&mut m, &mut q, &mut fx, 500);
        let rec = m.task(TaskId(1)).unwrap();
        assert_eq!(rec.state, TaskState::Complete);
        let done = rec.completed_at.unwrap().since(submit_at).as_secs_f64();
        assert!(
            done < 1_000.0,
            "speculation should finish the task long before the 10 000 s primary (took {done}s)"
        );
        let st = m.fault_stats();
        assert_eq!(st.speculative_launched, 1);
        assert_eq!(st.speculative_wins, 1);
        assert!(st.wasted_core_s > 0.0, "the cancelled primary burned work");
        // The duplicate's wall (≈60 s) is what the category statistics see,
        // not the straggler's 10 000 s.
        let wall = rec.measured.unwrap().wall.as_secs_f64();
        assert!(
            wall < 100.0,
            "measured wall {wall}s should be the duplicate's"
        );
        assert!(m.all_complete());
    }

    #[test]
    fn primary_finishing_first_cancels_the_duplicate() {
        let (cat, db) = catalog_with_db();
        let mut m = Master::new(
            faulty_cfg(TaskFaults {
                straggler_factor: Some(1.0),
                ..TaskFaults::default()
            }),
            cat,
        );
        let mut q = EventQueue::new();
        let mut fx = EffectSink::new();
        let decl = Some(Resources::cores(1, 2_000, 2_000));
        let _w1 = m.worker_connect(SimTime::ZERO, Resources::cores(1, 4_000, 50_000), &mut fx);
        run(&mut m, &mut q, &mut fx, 5);
        let w2 = m.worker_connect(SimTime::ZERO, Resources::cores(1, 4_000, 50_000), &mut fx);
        run(&mut m, &mut q, &mut fx, 5);
        // Mean 60 s; the next task runs 61 s — barely a "straggler", so a
        // duplicate launches at 60 s but the primary wins the race.
        m.submit(SimTime::ZERO, cpu_task(0, db, decl), &mut fx);
        run(&mut m, &mut q, &mut fx, 100);
        let mut slow = cpu_task(1, db, decl);
        slow.exec = ExecModel::cpu_bound(Duration::from_secs(61));
        m.submit(q.now(), slow, &mut fx);
        run(&mut m, &mut q, &mut fx, 500);
        let rec = m.task(TaskId(1)).unwrap();
        assert_eq!(rec.state, TaskState::Complete);
        let st = m.fault_stats();
        assert_eq!(st.speculative_launched, 1);
        assert_eq!(st.speculative_wins, 0, "primary won; duplicate cancelled");
        // The duplicate's slot on w2 was released.
        assert!(m.worker(w2).unwrap().is_idle());
        assert!(m.all_complete());
    }

    // The two sanitizer tests expect `assert_invariants` to abort, which
    // only happens when the sanitizer is compiled in (debug builds or
    // the `sim-sanitizer` feature) — in plain release the checks compile
    // to nothing, so the expected panic never fires.
    #[cfg(any(debug_assertions, feature = "sim-sanitizer"))]
    #[test]
    #[should_panic(expected = "task conservation violated")]
    fn sanitizer_catches_broken_conservation() {
        let (cat, db) = catalog_with_db();
        let mut m = Master::new(link_cfg(), cat);
        let mut q = EventQueue::new();
        let mut fx = EffectSink::new();
        let _w = m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
        m.submit(
            SimTime::ZERO,
            cpu_task(0, db, Some(Resources::cores(1, 2_000, 2_000))),
            &mut fx,
        );
        run(&mut m, &mut q, &mut fx, 100);
        assert!(m.all_complete());
        // Corrupt the terminal counter the way a buggy completion path
        // would: the next invariant check must abort the run.
        m.completed_count += 1;
        m.assert_invariants();
    }

    #[cfg(any(debug_assertions, feature = "sim-sanitizer"))]
    #[test]
    #[should_panic(expected = "waiting queue")]
    fn sanitizer_catches_queue_desync() {
        let (cat, db) = catalog_with_db();
        let mut m = Master::new(link_cfg(), cat);
        let mut fx = EffectSink::new();
        m.submit(SimTime::ZERO, cpu_task(0, db, None), &mut fx);
        // A task id queued twice (double-requeue bug) must be caught.
        let cat = m.task(TaskId(0)).unwrap().cat;
        m.waiting.push_back(TaskId(0), cat, None);
        m.assert_invariants();
    }

    #[test]
    fn recover_reset_requeues_inflight_and_disconnects_workers() {
        let (cat, db) = catalog_with_db();
        let mut m = Master::new(link_cfg(), cat);
        let mut q = EventQueue::new();
        let mut fx = EffectSink::new();
        let _w = m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
        run(&mut m, &mut q, &mut fx, 10);
        let decl = Some(Resources::cores(1, 2_000, 2_000));
        for i in 0..3 {
            m.submit(SimTime::ZERO, cpu_task(i, db, decl), &mut fx);
        }
        // Let staging finish so tasks are genuinely running mid-flight.
        run(&mut m, &mut q, &mut fx, 6);
        assert!(m.running_count() > 0, "tasks in flight before the crash");
        let now = SimTime::from_secs(30);
        let requeued = m.recover_reset_data_plane(now);
        assert_eq!(requeued, 3);
        assert_eq!(m.waiting_count(), 3, "every orphan re-queued exactly once");
        assert_eq!(m.running_count(), 0);
        assert_eq!(m.connected_workers(), 0, "workers await re-adoption");
        assert!(
            m.drain_notifications().is_empty(),
            "recovery emits no notifications"
        );
        // Front of the queue is ascending task id (retry priority).
        let front: Vec<TaskId> = m.waiting.iter().collect();
        assert_eq!(front, vec![TaskId(0), TaskId(1), TaskId(2)]);
        // A surviving worker re-registers and the queue drains normally.
        let _w2 = m.worker_connect(now, Resources::cores(4, 16_000, 50_000), &mut fx);
        run(&mut m, &mut q, &mut fx, 200);
        assert!(m.all_complete());
        assert_eq!(m.completed_count(), 3);
    }

    #[test]
    fn recover_complete_and_failed_replay_terminal_states() {
        let (cat, db) = catalog_with_db();
        let mut m = Master::new(link_cfg(), cat);
        let mut fx = EffectSink::new();
        for i in 0..3 {
            m.submit(SimTime::ZERO, cpu_task(i, db, None), &mut fx);
        }
        m.recover_complete(SimTime::from_secs(45), TaskId(0));
        m.recover_failed(SimTime::from_secs(50), TaskId(1));
        assert_eq!(m.completed_count(), 1);
        assert_eq!(m.failed_count(), 1);
        assert_eq!(m.waiting_count(), 1);
        assert_eq!(m.completed_task_ids(), vec![TaskId(0)]);
        let done = m.task(TaskId(0)).unwrap();
        assert_eq!(done.state, TaskState::Complete);
        assert_eq!(
            done.completed_at,
            Some(SimTime::from_secs(45)),
            "original completion instant preserved"
        );
        assert_eq!(m.task(TaskId(1)).unwrap().state, TaskState::Failed);
        // Replaying the same record twice is a no-op (idempotent).
        m.recover_complete(SimTime::from_secs(60), TaskId(0));
        assert_eq!(m.completed_count(), 1);
        assert!(
            m.drain_notifications().is_empty(),
            "replay emits no notifications"
        );
        assert!(m.has_live_task_in_category(m.task(TaskId(2)).unwrap().cat));
    }

    /// Drive the master through every event due at or before `until`.
    fn run_until(
        master: &mut Master,
        q: &mut EventQueue<WqEvent>,
        fx: &mut EffectSink<WqEvent>,
        until: SimTime,
    ) {
        sched(q, fx);
        while q.peek_time().is_some_and(|t| t <= until) {
            let Some((now, ev)) = q.pop() else { break };
            master.handle(now, ev, fx);
            sched(q, fx);
        }
    }

    /// Heartbeat lease on (30 s), with the given partition episodes.
    fn lease_cfg(partitions: Vec<hta_des::Partition>) -> MasterConfig {
        MasterConfig {
            net: NetworkFaults {
                lease: Duration::from_secs(30),
                partitions,
                ..NetworkFaults::default()
            },
            ..link_cfg()
        }
    }

    #[test]
    fn stopped_workers_are_retired() {
        let (cat, _db) = catalog_with_db();
        let mut m = Master::new(link_cfg(), cat);
        let mut fx = EffectSink::new();
        let ids: Vec<WorkerId> = (0..50)
            .map(|_| m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx))
            .collect();
        assert_eq!(m.connected_workers(), 50);
        assert_eq!(m.gate.members.len(), 50);
        for w in &ids {
            m.drain_worker(SimTime::from_secs(10), *w);
        }
        for w in &ids {
            assert!(m.worker(*w).is_none(), "{w:?} retained after it stopped");
        }
        assert_eq!(m.connected_workers(), 0);
        assert!(m.workers.is_empty() && m.gate.members.is_empty());
        assert_eq!(m.gate.headroom(), (Resources::ZERO, false));
        assert_eq!(m.mean_worker_utilization(), None);
        let stopped = m
            .drain_notifications()
            .into_iter()
            .filter(|n| matches!(n, WqNotification::WorkerStopped(_)))
            .count();
        assert_eq!(stopped, 50);
        // A retired id stays retired: ids are never reused.
        let next = m.worker_connect(
            SimTime::from_secs(20),
            Resources::cores(4, 16_000, 50_000),
            &mut fx,
        );
        assert_eq!(next, WorkerId(50));
        assert_eq!(m.connected_workers(), 1);
    }

    #[test]
    fn draining_worker_is_retired_when_its_last_task_completes() {
        let (cat, db) = catalog_with_db();
        let mut m = Master::new(link_cfg(), cat);
        let mut q = EventQueue::new();
        let mut fx = EffectSink::new();
        let w = m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
        m.submit(
            SimTime::ZERO,
            cpu_task(0, db, Some(Resources::cores(1, 2_000, 2_000))),
            &mut fx,
        );
        m.drain_worker(SimTime::ZERO, w);
        assert_eq!(m.worker(w).map(|w| w.state), Some(WorkerState::Draining));
        run(&mut m, &mut q, &mut fx, 100);
        assert!(m.all_complete());
        assert!(m.worker(w).is_none(), "drained worker retired on stop");
        assert!(m.workers.is_empty());
    }

    #[test]
    fn stale_events_reaching_a_retired_worker_are_noops() {
        let (cat, db) = catalog_with_db();
        let mut m = Master::new(lease_cfg(Vec::new()), cat);
        let mut q = EventQueue::new();
        let mut fx = EffectSink::new();
        let w = m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
        m.submit(
            SimTime::ZERO,
            cpu_task(0, db, Some(Resources::cores(1, 2_000, 2_000))),
            &mut fx,
        );
        run_until(&mut m, &mut q, &mut fx, SimTime::from_secs(5));
        let rec = m.task(TaskId(0)).unwrap();
        assert_eq!(rec.state, TaskState::Running(w));
        let (run_gen, seq) = (rec.run_generation, rec.dispatch_seq);
        let now = q.now();
        m.kill_worker(now, w, &mut fx);
        assert!(m.worker(w).is_none(), "killed worker retired");
        assert_eq!(m.waiting_count(), 1, "its task is back in the queue");
        assert!(fx.is_empty(), "no worker left to dispatch to");
        m.drain_notifications();
        let before = m.describe();
        // Events armed while the worker lived, arriving after it retired.
        let stale = [
            WqEvent::HeartbeatTick(w),
            WqEvent::DispatchTimeout(TaskId(0), seq, 0),
            WqEvent::TaskFinished(TaskId(0), run_gen),
            WqEvent::NetDeliver(ControlMsg::Completion {
                task: TaskId(0),
                run_gen,
            }),
            WqEvent::NetDeliver(ControlMsg::Heartbeat { worker: w }),
        ];
        for ev in stale {
            m.handle(now, ev, &mut fx);
            assert!(fx.is_empty(), "{ev:?} scheduled follow-ups");
            assert!(m.drain_notifications().is_empty(), "{ev:?} notified");
        }
        m.drain_worker(now, w);
        m.kill_worker(now, w, &mut fx);
        assert!(fx.is_empty());
        assert_eq!(m.describe(), before);
        assert!(m.worker(w).is_none());
        assert!(!m.last_heartbeat.contains_key(&w));
        assert_eq!(m.waiting_count(), 1);
        assert_eq!(m.completed_count(), 0);
        assert_eq!(m.task(TaskId(0)).unwrap().state, TaskState::Waiting);
    }

    #[test]
    fn heartbeat_readopts_suspect_and_reopens_the_gate() {
        // Worker→master traffic is cut for the first 100 s: heartbeats are
        // lost, the lease expires and the worker becomes a suspect, which
        // closes the dispatch gate.
        let (cat, db) = catalog_with_db();
        let cut = hta_des::Partition {
            start: Duration::ZERO,
            duration: Duration::from_secs(100),
            asymmetric: true,
        };
        let mut m = Master::new(lease_cfg(vec![cut]), cat);
        let mut q = EventQueue::new();
        let mut fx = EffectSink::new();
        let w = m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
        run_until(&mut m, &mut q, &mut fx, SimTime::from_secs(60));
        assert!(m.suspects.contains(&w), "lease expired during the cut");
        assert!(m.worker(w).is_some(), "a suspect is not retired");
        assert_eq!(m.gate.headroom(), (Resources::ZERO, false));
        m.submit(
            q.now(),
            cpu_task(0, db, Some(Resources::cores(1, 2_000, 2_000))),
            &mut fx,
        );
        assert_eq!(m.waiting_count(), 1, "no eligible worker while suspect");
        // The first heartbeat after the cut heals re-adopts the worker;
        // the refreshed gate admits the waiting task.
        run_until(&mut m, &mut q, &mut fx, SimTime::from_secs(101));
        assert!(!m.suspects.contains(&w), "re-adopted");
        assert_eq!(m.waiting_count(), 0, "re-opened gate placed the task");
        assert_eq!(m.task(TaskId(0)).unwrap().worker(), Some(w));
        run_until(&mut m, &mut q, &mut fx, SimTime::from_secs(300));
        assert_eq!(m.completed_count(), 1);
    }

    #[test]
    fn a_readopted_worker_restages_a_file_whose_flow_died_with_its_lease() {
        // A 10 GB cacheable input takes 100 s on the 100 MB/s uplink.
        // Worker→master traffic is cut from 1 s to 101 s, so the lease
        // runs out mid-transfer: the presumed-dead worker's flow is
        // cancelled and its task re-queued. The heartbeat after the cut
        // re-adopts the worker with the task's file still unstaged, and
        // the re-dispatched task must start a fresh transfer rather than
        // wait on the cancelled one.
        let mut cat = FileCatalog::new();
        let db = cat.register("blast-db", 10_000.0, true);
        let cut = hta_des::Partition {
            start: Duration::from_secs(1),
            duration: Duration::from_secs(100),
            asymmetric: true,
        };
        let mut m = Master::new(lease_cfg(vec![cut]), cat);
        let mut q = EventQueue::new();
        let mut fx = EffectSink::new();
        let w = m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
        m.submit(
            SimTime::ZERO,
            cpu_task(0, db, Some(Resources::cores(1, 2_000, 2_000))),
            &mut fx,
        );
        run_until(&mut m, &mut q, &mut fx, SimTime::from_secs(60));
        assert!(m.suspects.contains(&w), "lease expired mid-transfer");
        assert!(m.flows.is_empty(), "the suspect's transfer is cancelled");
        assert_eq!(
            m.workers[&w].inflight_flows().count(),
            0,
            "…and so is its in-flight marker"
        );
        run_until(&mut m, &mut q, &mut fx, SimTime::from_secs(5_000));
        assert!(!m.suspects.contains(&w), "re-adopted after the cut");
        let rec = m.task(TaskId(0)).unwrap();
        assert_eq!(rec.state, TaskState::Complete, "stuck in {:?}", rec.state);
        assert!(m.workers[&w].has_cached(db));
    }
}
