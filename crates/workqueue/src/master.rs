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
//! at which point the task leaves the master and the resource monitor's
//! measurement is surfaced as a [`WqNotification::TaskCompleted`].
//!
//! Workers leave in two ways: [`Master::drain_worker`] (graceful, HTA) and
//! [`Master::kill_worker`] (eviction, HPA) — killed workers orphan their
//! tasks back into the queue and lose their caches.
//!
//! # Hot path
//!
//! The master sits on the simulation's innermost loop. Its state is
//! O(live), in every run: a task's record leaves the table when the task
//! completes or permanently fails (its exit notification, the counters
//! and the completion digest are all that remain of it), a worker is
//! retired from the table the moment it stops, and the worker index that
//! decides placements (the eligible workers in id order under a tree of
//! per-axis free-resource maxima) is kept current per worker transition,
//! so a placement takes a tree descent instead of a scan. Two more
//! design decisions keep steady-state event handling allocation-free:
//!
//! * category names are interned once, when the run is built, and task
//!   specs carry the [`CategoryId`]; everything downstream (notifications,
//!   snapshots, per-category statistics) moves the `Copy` id;
//! * every effect-producing method pushes into a caller-owned
//!   [`EffectSink`] instead of returning a fresh `Vec` per event.
//!
//! A waiting task costs about 120 bytes: its record is compact (the
//! category-level fields and declared requirements are interned in a
//! shared shape table, and the dispatch-time state is allocated only
//! at dispatch), and [`Master::task_bytes`] counts it.
//!
//! The master keeps no copy of its own state for readers: the
//! autoscaler's [`QueueView`] borrows the master and derives each view
//! from the task records, the worker table and the waiting FIFO when it
//! is read, so no transition has a second structure to keep in step.
//!
//! # Layout
//!
//! This file holds the state, the public API, execution and completion.
//! Every other job is a private child module:
//!
//! * `dispatch` — the worker index and the first-fit dispatch pass;
//! * `channel` — the control channel. Every master↔worker message enters
//!   through `route_ctl` (or `net_deliver` for a delayed copy), and the
//!   receivers behind it are private to the module, so no code can go
//!   around the channel's loss, partitions and fencing. Its child
//!   `channel::staging` owns transfer flows, worker in-flight markers,
//!   staging waiters and the link wake-ups; `begin_staging` is visible
//!   only to `channel`, so staging starts only when a dispatch arrives;
//! * `lease` — heartbeats, lease expiry and the dispatch and completion
//!   retransmits;
//! * `faults` — injected attempt failures and speculation;
//! * `snapshot` — the autoscaler's borrowed view ([`QueueView`]) and the
//!   `Copy` items it yields;
//! * `recovery` — the checkpoint-restore and WAL-replay hooks;
//! * `sanitize` — [`Master::assert_invariants`].

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use hta_des::{
    CategoryId, ChannelStats, Duration, EffectSink, Interner, NetChannel, NetworkFaults, Salt,
    SimRng, SimTime, SnapshotState,
};
use hta_resources::Resources;
use serde::{Deserialize, Serialize};

use crate::file::FileCatalog;
use crate::ids::{FileId, FlowId, TaskId, WorkerId};
use crate::link::FairShareLink;
use crate::proto::ControlMsg;
use crate::shape::{Shape, ShapeTable};
use crate::task::{Measured, TaskRecord, TaskRef, TaskSpec, TaskState};
use crate::task_table::TaskTable;
use crate::waiting::WaitingQueue;
use crate::worker::{Worker, WorkerState};

mod channel;
mod dispatch;
mod faults;
mod lease;
#[cfg(test)]
mod prop_spec;
mod recovery;
mod sanitize;
mod snapshot;

use channel::staging::FlowPurpose;
use dispatch::WorkerIndex;
pub use faults::{TaskFaultStats, TaskFaults};
pub use snapshot::{QueueView, RunningSnapshot, WaitingSnapshot, WorkerSnapshot};

/// Events the master schedules for itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WqEvent {
    /// Wake up to progress the transfer link; stale when the tagged
    /// generation no longer matches the link's.
    LinkWake(u64),
    /// A task's execution finished; stale when the tagged run generation
    /// no longer matches the record's (the run was interrupted).
    TaskFinished(TaskId, u64),
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
    /// A task completed and left the master; the resource monitor's
    /// measurement is attached.
    TaskCompleted {
        /// Which task.
        task: TaskId,
        /// Its interned category (for HTA's per-category statistics;
        /// resolve names through [`Master::interner`]).
        cat: CategoryId,
        /// Measured peak resources + wall time.
        measured: Measured,
        /// When the task entered the queue.
        submitted_at: SimTime,
        /// When its winning run started executing.
        started_at: Option<SimTime>,
        /// Times it was re-queued after losing its worker or run.
        interruptions: u32,
    },
    /// A task was re-queued because its worker was killed.
    TaskRequeued(TaskId),
    /// A task exhausted its retry budget, is permanently failed and left
    /// the master.
    TaskFailed {
        /// Which task.
        task: TaskId,
        /// Its interned category.
        cat: CategoryId,
        /// When the task entered the queue.
        submitted_at: SimTime,
        /// When the attempt that failed it started.
        started_at: Option<SimTime>,
        /// Times it was re-queued after losing its worker or run.
        interruptions: u32,
    },
    /// A drained worker finished its last task and stopped.
    WorkerStopped(WorkerId),
}

/// Master tuning knobs. None of them decides what the master keeps:
/// finished tasks always leave its state, so its memory follows the
/// in-flight tasks in workflow and trace runs alike.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MasterConfig {
    /// Base egress capacity (MB/s).
    pub egress_base_mbps: f64,
    /// Concurrency-overhead coefficient of the link model.
    pub egress_overhead_per_flow: f64,
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
}

impl Default for MasterConfig {
    fn default() -> Self {
        MasterConfig {
            egress_base_mbps: 600.0,
            egress_overhead_per_flow: 0.083,
            peer_transfers: false,
            peer_bandwidth_mbps: 2_000.0,
            faults: TaskFaults::default(),
            net: NetworkFaults::default(),
        }
    }
}

/// The master's task memory (see [`Master::task_bytes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskBytes {
    /// Live task records (waiting and on-worker).
    pub records: usize,
    /// Of those, the waiting ones.
    pub waiting: usize,
    /// Bytes held for them.
    pub bytes: usize,
}

impl TaskBytes {
    /// Bytes per live record (0 with no record).
    pub fn per_record(&self) -> f64 {
        if self.records == 0 {
            return 0.0;
        }
        self.bytes as f64 / self.records as f64
    }
}

/// Per-category wall-time accumulator with a cached mean.
#[derive(Debug, Clone, Copy, Default)]
struct CatWall {
    total_ms: u128,
    count: u64,
    /// `total_ms / count`, recomputed on observation so the hot readers
    /// ([`Master::mean_wall_id`], straggler arming) never
    /// divide.
    mean: Duration,
}

/// The master state machine.
#[derive(Debug, Clone)]
pub struct Master {
    catalog: FileCatalog,
    interner: Interner,
    tasks: TaskTable,
    /// The category-level fields and declared requirements the task
    /// records name by index: O(distinct shapes), shared by clones.
    shapes: ShapeTable,
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
    /// moment it stops (see [`Master::worker_changed`]), so every
    /// scan over this map costs O(live), not O(workers ever connected).
    workers: BTreeMap<WorkerId, Worker>,
    /// The eligible workers in id order under a max tree of their free
    /// resources: dispatch reads its headroom and takes each placement's
    /// first-fit worker from it. [`Master::worker_changed`] is its only
    /// writer.
    index: WorkerIndex,
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
    /// Tasks ever submitted: every one is waiting, on a worker, completed
    /// or failed, and only the first two keep a record.
    submitted: usize,
    completed_count: usize,
    failed_count: usize,
    /// Order-insensitive digest over every completed task id (wrapping
    /// sum of a bit-mixed id), so crash-equivalence checks can compare
    /// completion *sets* although finished records are gone.
    completed_digest: u64,
    /// Mean observed wall per category, indexed by [`CategoryId`].
    cat_wall: Vec<CatWall>,
    faults: TaskFaults,
    /// Fault/speculation RNG — only drawn from when a fault rate is
    /// nonzero or speculation is on, so fault-free runs stay byte-stable.
    rng: SimRng,
    fault_stats: TaskFaultStats,
    /// Recycled input-file buffer for [`Master::dispatch`].
    input_scratch: Vec<FileId>,
    /// Recycled completed-flow buffer for the link wake-ups.
    flow_scratch: Vec<FlowId>,
    /// Workers on which a task started or stopped running since the last
    /// [`Master::mean_worker_utilization`] read, which re-sums their busy
    /// cores. Reported by id, so a run-state change costs a push.
    busy_stale: Vec<WorkerId>,
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

/// Busy CPU cores on `w`: Σ over its *running* tasks, in list order, of
/// `actual cores × cpu_fraction`. (Actual usage, not allocation — a
/// 1-core job on an exclusively held 3-core worker burns 1 core.)
fn sum_busy_cores(tasks: &TaskTable, shapes: &ShapeTable, w: &Worker) -> f64 {
    w.tasks()
        .iter()
        .filter_map(|t| tasks.get(t))
        .filter(|r| matches!(r.state, TaskState::Running(_)))
        .map(|r| {
            let shape = shapes.shape(r.shape);
            shape.actual.cores_f64() * shape.cpu_fraction
        })
        .sum()
}

/// True when a record is in the waiting queue's live set.
fn is_waiting(rec: &TaskRecord) -> bool {
    rec.state == TaskState::Waiting
}

/// The waiting queue's liveness test: a queue entry is live while its
/// task's record exists and says `Waiting`; any other entry is a
/// tombstone.
fn queued(tasks: &TaskTable, id: TaskId) -> bool {
    tasks.get(&id).is_some_and(is_waiting)
}

impl SnapshotState for Master {
    /// Re-partition the fault/speculation and channel RNGs for a what-if
    /// branch; queue contents, workers, flows and statistics are
    /// untouched. The master's own stream keeps the salt; the channel
    /// gets its first sub-stream.
    fn reseed(&mut self, salt: Salt) {
        let (own, [net]) = salt.split();
        self.rng = self.rng.partition(own);
        self.net.reseed(net);
    }
}

impl Master {
    /// A master with the given file catalogue.
    pub fn new(cfg: MasterConfig, catalog: FileCatalog) -> Self {
        Master {
            catalog,
            interner: Interner::new(),
            tasks: TaskTable::new(),
            shapes: ShapeTable::default(),
            waiting: WaitingQueue::default(),
            workers: BTreeMap::new(),
            index: WorkerIndex::default(),
            link: FairShareLink::new(cfg.egress_base_mbps, cfg.egress_overhead_per_flow),
            peer_link: FairShareLink::new(cfg.peer_bandwidth_mbps, 0.0),
            peer_transfers: cfg.peer_transfers,
            flows: BTreeMap::new(),
            staging_waits: BTreeMap::new(),
            next_flow: 0,
            next_worker: 0,
            notifications: Vec::new(),
            submitted: 0,
            completed_count: 0,
            failed_count: 0,
            completed_digest: 0,
            cat_wall: Vec::new(),
            rng: SimRng::seed_from_u64(cfg.faults.seed),
            faults: cfg.faults,
            fault_stats: TaskFaultStats::default(),
            input_scratch: Vec::new(),
            flow_scratch: Vec::new(),
            busy_stale: Vec::new(),
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

    /// Intern a category name ahead of submission. The layer that builds
    /// the run calls this for every category it will submit, before the
    /// first submission; [`Master::submit`] only reads the spec's id.
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
        let cat = spec.cat;
        hta_des::sanitize_assert!(
            cat.index() < self.interner.len(),
            "{cat:?} was never interned"
        );
        let declared = spec.declared;
        let shape = self.shapes.intern(Shape {
            cat,
            output_mb: spec.output_mb,
            actual: spec.actual,
            cpu_fraction: spec.exec.cpu_fraction,
        });
        let declared_id = self.shapes.intern_declared(declared);
        self.submitted += 1;
        self.tasks
            .insert(id, TaskRecord::new(spec, shape, declared_id, now));
        self.waiting.push_back(id, cat, declared);
        self.dispatch(now, fx);
        self.assert_invariants();
    }

    /// Update the declared resources of a *waiting* task (HTA applies a
    /// category's measured requirement to queued jobs — §IV-A step iii).
    pub fn declare_resources(&mut self, task: TaskId, declared: Resources) {
        let Some(rec) = self.tasks.get_mut_if(&task, is_waiting) else {
            return;
        };
        let (cat, old) = self.shapes.key(rec);
        let new = Some(declared);
        rec.declared = self.shapes.intern_declared(new);
        let before = self.demand_counts(cat, old, new);
        self.waiting.redeclare(cat, old, new);
        self.assert_redeclared(cat, old, new, before);
    }

    /// A new worker connected with the given capacity.
    pub fn worker_connect(
        &mut self,
        now: SimTime,
        capacity: Resources,
        fx: &mut EffectSink<WqEvent>,
    ) -> WorkerId {
        let id = WorkerId(self.next_worker);
        self.next_worker += 1;
        self.workers.insert(id, Worker::connect(id, capacity, now));
        self.worker_changed(id);
        self.start_lease(now, id, fx);
        self.dispatch(now, fx);
        self.assert_invariants();
        id
    }

    /// Gracefully drain a worker: no new tasks; stops when empty. Idle
    /// workers stop immediately (notification emitted).
    pub fn drain_worker(&mut self, now: SimTime, id: WorkerId) {
        let Some(w) = self.workers.get_mut(&id) else {
            return; // never connected, or already stopped and retired
        };
        if w.drain() {
            w.stop(now);
            self.notifications.push(WqNotification::WorkerStopped(id));
        }
        self.worker_changed(id);
        self.assert_invariants();
    }

    /// Kill a worker (pod eviction): running/staging tasks are re-queued
    /// at the front, transfers cancelled, cache lost.
    pub fn kill_worker(&mut self, now: SimTime, id: WorkerId, fx: &mut EffectSink<WqEvent>) {
        let Some(w) = self.workers.get_mut(&id) else {
            return; // never connected, or already stopped and retired
        };
        let orphans = w.stop(now);
        self.worker_changed(id);
        self.last_heartbeat.remove(&id);
        self.suspects.remove(&id);
        // Cancel any flows serving the orphaned tasks (the worker's cache
        // and in-flight markers are already gone with `stop`).
        self.abandon_transfers(now, |t| orphans.contains(&t));
        // Re-queue orphans at the front (retry priority), newest last so
        // original relative order is kept, unless a speculative race
        // settles the task without a re-queue.
        for t in orphans.iter().rev() {
            if self.settle_race_on_worker_loss(now, *t, id, fx) {
                continue;
            }
            let Some(rec) = self.tasks.get_mut(t) else {
                continue;
            };
            rec.requeue();
            let (cat, declared) = self.shapes.key(rec);
            self.waiting.push_front(*t, cat, declared);
            self.notifications.push(WqNotification::TaskRequeued(*t));
        }
        self.dispatch(now, fx);
        self.assert_invariants();
    }

    /// Hand the upward notifications to the caller in exchange for
    /// `out`, which must be empty. The two buffers trade places and keep
    /// their capacity, so a caller that reuses `out` drains without
    /// allocating or copying.
    pub fn drain_notifications_into(&mut self, out: &mut Vec<WqNotification>) {
        debug_assert!(out.is_empty(), "draining into a full buffer");
        std::mem::swap(&mut self.notifications, out);
    }

    /// Drain upward notifications into a fresh `Vec`.
    #[cfg(test)]
    pub(crate) fn drain_notifications(&mut self) -> Vec<WqNotification> {
        std::mem::take(&mut self.notifications)
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    /// Deliver one event, pushing follow-up effects into `fx`.
    pub fn handle(&mut self, now: SimTime, ev: WqEvent, fx: &mut EffectSink<WqEvent>) {
        match ev {
            WqEvent::LinkWake(generation) => self.link_wake(now, generation, fx),
            WqEvent::PeerLinkWake(generation) => self.peer_link_wake(now, generation, fx),
            WqEvent::TaskFinished(task, run_gen) => {
                // The worker's completion report crosses the control
                // channel (inline when the channel is fault-free).
                self.report_completion(now, task, run_gen, 0, fx)
            }
            WqEvent::TaskAttemptFailed(task, run_gen, kind) => {
                self.task_attempt_failed(now, task, run_gen, kind, fx)
            }
            WqEvent::StragglerCheck(task, run_gen) => self.straggler_check(now, task, run_gen, fx),
            WqEvent::SpeculativeFinished(task, run_gen) => {
                self.speculative_finished(now, task, run_gen, fx)
            }
            WqEvent::NetDeliver(msg) => self.net_deliver(now, msg, fx),
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

    /// Age of the freshest worker telemetry (heartbeats, connections) the
    /// master holds. Zero when liveness is off or no worker is connected
    /// — absence of workers is not staleness, and the policy's no-metrics
    /// path owns that case.
    pub fn telemetry_age(&self, now: SimTime) -> Duration {
        if !self.liveness_on() || self.workers.is_empty() {
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
            self.busy_stale.push(wid);
            let run = rec.run_mut();
            run.started_at = Some(now);
            let generation = run.run_generation;
            (rec.duration, generation, self.shapes.cat(rec.shape))
        };
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
        if let Some(factor) = self.faults.straggler_factor {
            if let Some(mean) = self.mean_wall_id(cat) {
                let deadline = mean.mul_f64(factor.max(1.0));
                fx.push(deadline, WqEvent::StragglerCheck(task, generation));
            }
        }
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
            self.worker_changed(wid);
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
            if rec.run_generation() != run_gen {
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
        // Resource-monitor measurement of this run (its peak is the
        // shape's true footprint).
        let run = rec.run_mut();
        let wall = run.started_at.map_or(Duration::ZERO, |s| now.since(s));
        run.measured_wall = Some(wall);
        let Shape { cat, output_mb, .. } = *self.shapes.shape(rec.shape);
        if output_mb > 0.0 {
            rec.state = TaskState::Returning(wid);
            self.busy_stale.push(wid);
        }
        self.observe_wall(cat, wall);
        if output_mb > 0.0 {
            self.begin_return(now, task, output_mb);
            self.arm_link_wake(fx);
            self.dispatch(now, fx);
        } else {
            self.finalize_completion(now, task);
            self.dispatch(now, fx);
            self.arm_link_wake(fx);
        }
    }

    fn finalize_completion(&mut self, now: SimTime, task: TaskId) {
        let Some(wid) = self.tasks.get(&task).and_then(TaskRecord::worker) else {
            return;
        };
        let rec = self.retire_task(task);
        self.completed_count += 1;
        self.note_completed_id(task);
        let shape = self.shapes.shape(rec.shape);
        self.notifications.push(WqNotification::TaskCompleted {
            task,
            cat: shape.cat,
            measured: Measured {
                peak: shape.actual,
                wall: rec.run().measured_wall.unwrap_or(Duration::ZERO),
            },
            submitted_at: rec.submitted_at,
            started_at: rec.started_at(),
            interruptions: rec.interruptions,
        });
        self.release_from_worker(now, wid, task);
    }

    /// Fold a completed task id into the order-insensitive completion
    /// digest (wrapping sum commutes, so two runs completing the same id
    /// *set* in different orders agree).
    fn note_completed_id(&mut self, task: TaskId) {
        self.completed_digest = self.completed_digest.wrapping_add(mix64(task.raw()));
    }

    /// Drop a finished (completed or permanently failed) task's record,
    /// returning it. The table holds only waiting and on-worker tasks, so
    /// master memory follows the in-flight tasks, not every task ever
    /// submitted; the finished task lives on in the counters, the
    /// completion digest and its exit notification.
    fn retire_task(&mut self, task: TaskId) -> Arc<TaskRecord> {
        self.tasks
            .remove(&task)
            .expect("a finishing task has a record")
    }

    /// The demand histogram: distinct (category, declared, count) triples
    /// over the waiting queue, in first-seen order. O(distinct) summary
    /// for consumers (metrics, autoscalers) that would otherwise walk the
    /// whole queue.
    pub fn waiting_demand(&self) -> &[(CategoryId, Option<Resources>, usize)] {
        self.waiting.demand()
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Number of waiting tasks (live queue entries).
    pub fn waiting_count(&self) -> usize {
        self.waiting.len()
    }

    /// Number of tasks assigned to workers (staging/running/returning):
    /// the stored records are exactly the waiting and the on-worker tasks.
    pub fn running_count(&self) -> usize {
        self.tasks.len() - self.waiting.len()
    }

    /// Number of completed tasks.
    pub fn completed_count(&self) -> usize {
        self.completed_count
    }

    /// Cumulative fault-injection counters.
    pub fn fault_stats(&self) -> TaskFaultStats {
        self.fault_stats
    }

    /// True when at least one task was submitted and every submitted
    /// task has finished (completed, or permanently failed under fault
    /// injection): nothing waits and nothing is on a worker.
    pub fn all_complete(&self) -> bool {
        self.waiting.is_empty() && self.running_count() == 0 && self.submitted > 0
    }

    /// Order-insensitive digest over every completed task id. Two runs
    /// completing the same id *set* agree regardless of completion order
    /// — the crash-equivalence checks compare this, since finished
    /// records are gone.
    pub fn completed_digest(&self) -> u64 {
        self.completed_digest
    }

    /// The record of a live (waiting or on-worker) task. `None` once the
    /// task has finished: finished tasks leave the master's state.
    pub fn task(&self, id: TaskId) -> Option<TaskRef<'_>> {
        self.tasks.get(&id).map(|r| TaskRef::new(r, &self.shapes))
    }

    /// The spec of a live task, reassembled from its record: the
    /// submitted spec, with the declared requirement as it stands now
    /// (raised by [`Master::declare_resources`] or an OOM retry).
    pub fn spec(&self, id: TaskId) -> Option<TaskSpec> {
        self.task(id).map(TaskRef::spec)
    }

    /// True when some task of `cat` is waiting or on a worker (the
    /// operator's probe reconciliation checks this after a recovery).
    pub fn has_live_task_in_category(&self, cat: CategoryId) -> bool {
        self.tasks.values().any(|r| self.shapes.cat(r.shape) == cat)
    }

    /// What the master holds for its live tasks, in bytes computed from
    /// type sizes and the capacities held, never from the process's
    /// memory: the records (each with its `Arc` header, inputs and run
    /// state), the task table's slots, the waiting queue and the shape
    /// table. O(records); it reads state only, so a run that calls it
    /// is event-for-event the same.
    pub fn task_bytes(&self) -> TaskBytes {
        TaskBytes {
            records: self.tasks.len(),
            waiting: self.waiting.len(),
            bytes: self.tasks.bytes() + self.waiting.bytes() + self.shapes.bytes(),
        }
    }

    /// A live (active or draining) worker. `None` once the worker has
    /// stopped: stopped workers are retired from the master's state.
    pub fn worker(&self, id: WorkerId) -> Option<&Worker> {
        self.workers.get(&id)
    }

    /// Connected (non-stopped) worker count.
    pub fn connected_workers(&self) -> usize {
        self.workers.len()
    }

    /// Connected workers with no assigned task.
    pub fn idle_workers(&self) -> usize {
        self.workers.values().filter(|w| w.is_idle()).count()
    }

    /// Mean CPU utilization across connected workers (the HPA metric):
    /// per-worker `busy / capacity`, averaged. `None` when no worker is
    /// connected (no metrics — like a Deployment with zero ready pods).
    ///
    /// Each worker's busy cores are cached: re-summed only when its task
    /// list changed or it is in `busy_stale`, which is merged with the
    /// id-ordered worker walk. So a read costs O(workers) plus the tasks
    /// of the changed workers, and the sanitizer checks every cached
    /// value bitwise against a fresh sum.
    pub fn mean_worker_utilization(&mut self) -> Option<f64> {
        self.busy_stale.sort_unstable();
        self.busy_stale.dedup();
        let mut stale = self.busy_stale.drain(..).peekable();
        let mut sum = 0.0;
        for w in self.workers.values_mut() {
            while stale.next_if(|s| *s < w.id).is_some() {}
            if stale.next_if_eq(&w.id).is_some() {
                w.busy_cores = None;
            }
            let busy = match w.busy_cores {
                Some(cached) => {
                    hta_des::sanitize_assert!(
                        cached.to_bits() == sum_busy_cores(&self.tasks, &self.shapes, w).to_bits(),
                        "{:?}'s cached busy cores went stale",
                        w.id
                    );
                    cached
                }
                None => *w
                    .busy_cores
                    .insert(sum_busy_cores(&self.tasks, &self.shapes, w)),
            };
            sum += w.utilization(busy);
        }
        let live = self.workers.len();
        (live > 0).then(|| sum / live as f64)
    }

    /// Instantaneous egress throughput (MB/s).
    pub fn egress_throughput_mbps(&self) -> f64 {
        self.link.current_throughput_mbps()
    }

    /// Cores in use by running tasks, by *allocation* (the paper's RIU).
    /// Summed in integer millicores, so the total does not depend on the
    /// order the tasks are visited in.
    pub fn in_use_cores(&self) -> f64 {
        let total: Resources = self.view().running().map(|r| r.allocation).sum();
        total.cores_f64()
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

    /// The live (waiting and on-worker) task records, in ascending id.
    pub fn task_records(&self) -> impl Iterator<Item = TaskRef<'_>> {
        self.tasks.values().map(|r| TaskRef::new(r, &self.shapes))
    }
}

/// Fixtures shared by the master's unit tests: every child module's
/// `tests` imports them with one glob.
#[cfg(test)]
mod testkit {
    pub(super) use super::*;
    pub(super) use crate::task::ExecModel;
    pub(super) use hta_des::Checkpoint;

    /// The queue the tests drive the master with, as the system driver
    /// does.
    #[expect(
        clippy::disallowed_types,
        reason = "these tests drive the master as the system driver does"
    )]
    pub(super) type Queue = hta_des::EventQueue<WqEvent>;

    pub(super) fn catalog_with_db() -> (FileCatalog, crate::ids::FileId) {
        let mut cat = FileCatalog::new();
        let db = cat.register("blast-db", 100.0, true);
        (cat, db)
    }

    /// The category of every testkit task: the first id [`new_master`]
    /// interns.
    pub(super) const ALIGN: CategoryId = CategoryId::from_u32(0);

    /// A master whose interner already holds the testkit's category, as
    /// it does before a run's first submission.
    pub(super) fn new_master(cfg: MasterConfig, catalog: FileCatalog) -> Master {
        let mut m = Master::new(cfg, catalog);
        assert_eq!(m.intern_category("align"), ALIGN);
        m
    }

    pub(super) fn cpu_task(
        id: u64,
        db: crate::ids::FileId,
        declared: Option<Resources>,
    ) -> TaskSpec {
        TaskSpec {
            id: TaskId(id),
            cat: ALIGN,
            inputs: vec![db],
            output_mb: 0.6,
            declared,
            actual: Resources::cores(1, 2_000, 2_000),
            exec: ExecModel::cpu_bound(Duration::from_secs(60)),
        }
    }

    /// Schedule everything buffered in the sink.
    pub(super) fn sched(q: &mut Queue, fx: &mut EffectSink<WqEvent>) {
        for (d, e) in fx.drain() {
            q.schedule_in(d, e);
        }
    }

    /// Drive the master until the queue is empty of events or `limit`
    /// pops, returning when each task completed meanwhile (the instant of
    /// the event that emitted its `TaskCompleted`).
    pub(super) fn run(
        master: &mut Master,
        q: &mut Queue,
        fx: &mut EffectSink<WqEvent>,
        limit: usize,
    ) -> BTreeMap<TaskId, SimTime> {
        let mut done = BTreeMap::new();
        sched(q, fx);
        for _ in 0..limit {
            let Some((now, ev)) = q.pop() else { break };
            let seen = master.notifications.len();
            master.handle(now, ev, fx);
            sched(q, fx);
            for n in &master.notifications[seen..] {
                if let WqNotification::TaskCompleted { task, .. } = n {
                    done.insert(*task, now);
                }
            }
        }
        done
    }

    /// `task`'s pending `TaskCompleted` notification, the only record a
    /// completed task leaves: `(measured, started_at, interruptions)`.
    pub(super) fn completion(m: &Master, task: TaskId) -> (Measured, Option<SimTime>, u32) {
        m.notifications
            .iter()
            .find_map(|n| match *n {
                WqNotification::TaskCompleted {
                    task: t,
                    measured,
                    started_at,
                    interruptions,
                    ..
                } if t == task => Some((measured, started_at, interruptions)),
                _ => None,
            })
            .expect("a pending completion notification")
    }

    pub(super) fn link_cfg() -> MasterConfig {
        MasterConfig {
            egress_base_mbps: 100.0,
            egress_overhead_per_flow: 0.0,
            ..MasterConfig::default()
        }
    }

    pub(super) fn faulty_cfg(faults: TaskFaults) -> MasterConfig {
        MasterConfig {
            egress_base_mbps: 100.0,
            egress_overhead_per_flow: 0.0,
            faults,
            ..MasterConfig::default()
        }
    }

    /// Drive the master through every event due at or before `until`.
    pub(super) fn run_until(
        master: &mut Master,
        q: &mut Queue,
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
    pub(super) fn lease_cfg(partitions: Vec<hta_des::Partition>) -> MasterConfig {
        MasterConfig {
            net: NetworkFaults {
                lease: Duration::from_secs(30),
                partitions,
                ..NetworkFaults::default()
            },
            ..link_cfg()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::*;

    #[test]
    fn single_task_full_lifecycle() {
        let (cat, db) = catalog_with_db();
        let mut m = new_master(link_cfg(), cat);
        let mut q = Queue::new();
        let mut fx = EffectSink::new();
        let _w = m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
        run(&mut m, &mut q, &mut fx, 10);
        m.submit(
            SimTime::ZERO,
            cpu_task(0, db, Some(Resources::cores(1, 2_000, 2_000))),
            &mut fx,
        );
        let done = run(&mut m, &mut q, &mut fx, 100);
        assert!(m.all_complete());
        assert!(m.task(TaskId(0)).is_none(), "a completed task leaves");
        // 1 s staging (100MB at 100MB/s) + 60 s exec + ~6 ms output.
        let done = done[&TaskId(0)].as_secs_f64();
        assert!((61.0..61.2).contains(&done), "completed at {done}");
        let notes = m.drain_notifications();
        assert!(matches!(
            notes.last(),
            Some(WqNotification::TaskCompleted {
                task: TaskId(0),
                submitted_at: SimTime::ZERO,
                started_at: Some(_),
                interruptions: 0,
                ..
            })
        ));
    }

    #[test]
    fn retirement_drops_records_but_keeps_accounting() {
        let (cat, db) = catalog_with_db();
        let mut m = new_master(link_cfg(), cat);
        let mut q = Queue::new();
        let mut fx = EffectSink::new();
        let _w = m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
        run(&mut m, &mut q, &mut fx, 10);
        let decl = Some(Resources::cores(1, 2_000, 2_000));
        for i in 0..4 {
            m.submit(SimTime::ZERO, cpu_task(i, db, decl), &mut fx);
        }
        let done = run(&mut m, &mut q, &mut fx, 400);
        assert!(m.all_complete());
        // Records are gone; counters, the digest and the notifications
        // are not.
        assert_eq!(done.len(), 4);
        assert_eq!(m.completed_count(), 4);
        assert_eq!((m.submitted, m.tasks.len()), (4, 0));
        assert!((0..4).all(|i| m.task(TaskId(i)).is_none()));
        let digest = (0..4u64).fold(0u64, |d, i| d.wrapping_add(mix64(i)));
        assert_eq!(m.completed_digest(), digest);
        m.assert_invariants();
    }

    #[test]
    fn a_long_running_task_does_not_widen_the_task_table() {
        // One task runs for the whole test while 10,000 later tasks each
        // finish and leave. The table must stay sized by its live
        // records, not by the id range the long task pins open.
        let (cat, db) = catalog_with_db();
        let mut m = new_master(link_cfg(), cat);
        let mut q = Queue::new();
        let mut fx = EffectSink::new();
        let decl = Some(Resources::cores(1, 2_000, 2_000));
        let mut long = cpu_task(0, db, decl);
        long.exec = ExecModel::cpu_bound(Duration::from_secs(10_000_000));
        m.submit(SimTime::ZERO, long, &mut fx);
        let _w = m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
        run_until(&mut m, &mut q, &mut fx, SimTime::from_secs(10));
        let mut widest = 0;
        for i in 1..=10_000u64 {
            let now = q.now();
            m.submit(now, cpu_task(i, db, decl), &mut fx);
            run_until(&mut m, &mut q, &mut fx, now + Duration::from_secs(100));
            assert_eq!(
                m.completed_count() as u64,
                i,
                "task {i} completes before the next submission"
            );
            widest = widest.max(m.tasks.slot_count());
        }
        assert!(widest <= 100, "task table grew to {widest} slots");
        assert_eq!(m.tasks.len(), 1, "only the long-running record is stored");
        assert!(matches!(
            m.task(TaskId(0)).map(|r| r.state),
            Some(TaskState::Running(_))
        ));
        m.assert_invariants();
    }

    #[test]
    fn drain_lets_running_tasks_finish() {
        let (cat, db) = catalog_with_db();
        let mut m = new_master(link_cfg(), cat);
        let mut q = Queue::new();
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
        let mut m = new_master(link_cfg(), cat);
        let mut fx = EffectSink::new();
        let w = m.worker_connect(SimTime::ZERO, Resources::cores(4, 0, 0), &mut fx);
        m.drain_worker(SimTime::from_secs(1), w);
        let notes = m.drain_notifications();
        assert!(notes.contains(&WqNotification::WorkerStopped(w)));
    }

    #[test]
    fn kill_requeues_tasks_and_they_rerun_elsewhere() {
        let (cat, db) = catalog_with_db();
        let mut m = new_master(link_cfg(), cat);
        let mut q = Queue::new();
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
        let done = run(&mut m, &mut q, &mut fx, 300);
        assert!(m.all_complete());
        // The rerun re-staged (cache was lost with the killed worker) and
        // re-executed the full 60 s: completion lands after the stale
        // first-run TaskFinished time (~61 s), proving the stale event was
        // ignored rather than completing the task early.
        let done = done[&TaskId(0)];
        assert!(done > SimTime::from_secs(61), "done={done:?}");
        assert_eq!(completion(&m, TaskId(0)).2, 1, "one interruption");
    }

    #[test]
    fn utilization_reflects_actual_usage_not_allocation() {
        let (cat, db) = catalog_with_db();
        let mut m = new_master(link_cfg(), cat);
        let mut q = Queue::new();
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
        let util = sum_busy_cores(&m.tasks, &m.shapes, m.worker(w).unwrap()) / 3.0;
        assert!((util - 0.3).abs() < 0.01, "util={util}");
        assert_eq!(
            m.mean_worker_utilization().map(|u| (u * 10.0).round()),
            Some(3.0)
        );
    }

    #[test]
    fn declare_resources_upgrades_waiting_tasks() {
        let (cat, db) = catalog_with_db();
        let mut m = new_master(link_cfg(), cat);
        let mut q = Queue::new();
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
            m.view().waiting().next().and_then(|w| w.declared),
            Some(Resources::cores(1, 2_000, 2_000)),
            "declared upgrade must show in the waiting view"
        );
        // …but the exclusive task still blocks the worker; the waiting task
        // dispatches only after it completes, with the declared allocation.
        sched(&mut q, &mut fx);
        while m.task(TaskId(1)).unwrap().worker().is_none() {
            let (now, ev) = q.pop().expect("events remain");
            m.handle(now, ev, &mut fx);
            sched(&mut q, &mut fx);
        }
        assert!(m.task(TaskId(0)).is_none(), "the exclusive task finished");
        let rec = m.task(TaskId(1)).unwrap();
        assert_eq!(rec.allocation(), Some(Resources::cores(1, 2_000, 2_000)));
        run(&mut m, &mut q, &mut fx, 400);
        assert!(m.all_complete());
    }

    #[test]
    fn describe_reports_queue_and_workers() {
        let (cat, db) = catalog_with_db();
        let mut m = new_master(link_cfg(), cat);
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
        let mut m = new_master(link_cfg(), cat);
        let mut fx = EffectSink::new();
        let _w = m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
        m.submit(SimTime::ZERO, cpu_task(0, db, None), &mut fx);
        // Exclusive allocation = whole worker = 4 cores.
        assert!((m.in_use_cores() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn stopped_workers_are_retired() {
        let (cat, _db) = catalog_with_db();
        let mut m = new_master(link_cfg(), cat);
        let mut fx = EffectSink::new();
        let ids: Vec<WorkerId> = (0..50)
            .map(|_| m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx))
            .collect();
        assert_eq!(m.connected_workers(), 50);
        assert_eq!(m.index.members().count(), 50);
        for w in &ids {
            m.drain_worker(SimTime::from_secs(10), *w);
        }
        for w in &ids {
            assert!(m.worker(*w).is_none(), "{w:?} retained after it stopped");
        }
        assert_eq!(m.connected_workers(), 0);
        assert!(m.workers.is_empty() && m.index.members().next().is_none());
        assert_eq!(m.index.headroom(), (Resources::ZERO, false));
        m.index.assert_consistent();
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
        let mut m = new_master(link_cfg(), cat);
        let mut q = Queue::new();
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
        let mut m = new_master(lease_cfg(Vec::new()), cat);
        let mut q = Queue::new();
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
        let (run_gen, seq) = (rec.run_generation(), rec.dispatch_seq());
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
}
