//! Control-plane crash recovery.
//!
//! The driver checkpoints the whole control plane — master, operator,
//! active scaling policy, init-time tracker — every
//! [`checkpoint_interval`](crate::fault::ControlPlaneFaults::checkpoint_interval)
//! into a [`Checkpoint<ControlPlaneState>`](hta_des::Checkpoint), and
//! appends every control-plane *decision* made since the last checkpoint
//! to a [`Wal<WalRecord>`](hta_des::Wal). Recovery after a crash is:
//! restore the checkpoint, reset its data-plane beliefs
//! ([`Master::recover_reset_data_plane`]), replay the WAL in order,
//! reconcile warm-up probes, then re-adopt the workers that survived the
//! outage.
//!
//! WAL records carry **decided data, not decision inputs** (see
//! [`hta_des::wal`]): a `Submit` embeds the full task spec with its
//! already-sampled wall time, so replay never re-draws randomness. A trace
//! arrival is the trace cursor's decision, and the cursor is in the
//! checkpoint: its `TraceSubmit` names the task id, and replay takes the
//! spec from the restored cursor and checks the id.
//! Statistics observations are deliberately *not* logged — recovered
//! estimates revert to their checkpoint values, which is the bounded
//! amnesia the chaos-recovery harness asserts on.
//!
//! The WAL contract is the compiler's. [`WalRecord`] is crate-private, so
//! rustc's `dead_code` reports a variant no decision site constructs, and
//! [`World::log`] is the only append. [`World::replay_wal`]
//! is the one non-test match over it and denies wildcard arms, so a
//! variant without a replay arm fails to compile.

use hta_cluster::{PodId, PodPhase};
use hta_des::{Checkpoint, SimTime, Wal};
use hta_makeflow::JobId;
use hta_resources::Resources;
use hta_workqueue::master::Master;
use hta_workqueue::task::TaskSpec;
use hta_workqueue::TaskId;
use std::sync::Arc;

use super::{Event, PolicySlot, World, WORKER_GROUP};
use crate::fault::ControlPlaneFaults;
use crate::init_time::InitTimeTracker;
use crate::operator::Operator;

/// One durably logged control-plane decision.
#[derive(Debug, Clone)]
pub(crate) enum WalRecord {
    /// A job was translated and submitted to the master. The spec embeds
    /// every decided value (task id, sampled wall time, declared
    /// resources), so replay reconstructs the submission bit-for-bit.
    Submit {
        /// The workflow job.
        job: JobId,
        /// The exact spec handed to the master, shared so a fork's copy
        /// of the log copies a pointer.
        spec: Arc<TaskSpec>,
    },
    /// A category's resources were learned from its first measurement.
    Learn {
        /// The interned category. Ids are stable: every category is
        /// interned when the run is built, before checkpoint #0.
        cat: hta_des::CategoryId,
        /// The committed requirement.
        resources: Resources,
    },
    /// A task's completion was acknowledged to the operator.
    Complete {
        /// The completed task.
        task: TaskId,
    },
    /// A task's permanent failure was acknowledged to the operator.
    Fail {
        /// The failed task.
        task: TaskId,
    },
    /// An open-loop trace arrival was admitted. Replay advances the
    /// checkpoint-restored trace cursor one event, which yields this very
    /// arrival again (its RNG streams rewound with it), so the record only
    /// names it. The learned declaration an undeclared spec picked up is
    /// filled in again by the same operator path, in log order.
    TraceSubmit {
        /// The admitted task.
        task: TaskId,
    },
}

/// Everything the driver checkpoints as "the control plane", except the
/// scaling policy: its copy is kept in the [`PolicySlot`], so this state
/// stays `Send + Sync` with the rest of the world. The world holds it as
/// one field, so a checkpoint is one `clone()` and a restart one move:
/// no site lists the members.
///
/// The cluster, the event queue, and the metrics recorder are *not* part
/// of this state: nodes and pods keep running through an outage (they are
/// the data plane), and the recorder represents the observer, which also
/// survives.
#[derive(Clone)]
pub(super) struct ControlPlaneState {
    /// The Work Queue master.
    pub(super) master: Master,
    /// The Makeflow operator.
    pub(super) operator: Operator,
    /// The init-time tracker feeding the estimator.
    pub(super) tracker: InitTimeTracker,
    /// The open-loop trace cursor (None for workflow-driven runs): the
    /// generator's RNG streams, lookahead buffer and counters, captured
    /// so WAL replay advances the exact arrival stream the crashed
    /// control plane was consuming.
    pub(super) arrivals: Option<hta_trace::ArrivalSource>,
}

/// What one crash-recovery cycle did (appended to
/// [`RunResult::recoveries`](super::RunResult)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryReport {
    /// When the control plane crashed.
    pub crashed_at: SimTime,
    /// When it came back and finished reconciling.
    pub recovered_at: SimTime,
    /// The checkpoint it restored from.
    pub checkpoint_at: SimTime,
    /// WAL records replayed on top of the checkpoint.
    pub wal_replayed: usize,
    /// In-flight tasks re-queued (exactly once) by the data-plane reset.
    pub tasks_requeued: usize,
    /// Surviving workers re-adopted via the cluster watch stream.
    pub workers_readopted: usize,
}

impl RecoveryReport {
    /// Outage length in seconds.
    pub fn outage_s(&self) -> f64 {
        self.recovered_at.since(self.crashed_at).as_secs_f64()
    }

    /// Slack between the crash and its checkpoint — by construction at
    /// most one checkpoint interval (the bounded-amnesia window).
    pub fn amnesia_window_s(&self) -> f64 {
        self.crashed_at.since(self.checkpoint_at).as_secs_f64()
    }
}

/// Live crash-recovery machinery, present only when
/// [`ControlPlaneFaults::is_active`] (normal runs carry `None` and pay
/// nothing — no checkpoint events, no WAL appends, no extra branches on
/// the hot path beyond one `Option` test).
#[derive(Clone)]
pub(super) struct RecoveryState {
    /// The configured fault arm (crash instants, outage, cadence).
    pub(super) faults: ControlPlaneFaults,
    /// `Some(restart instant)` while the control plane is down.
    pub(super) down_until: Option<SimTime>,
    /// When the most recent crash hit.
    last_crash_at: SimTime,
    /// The newest durable checkpoint (taken at master-ready, then every
    /// `checkpoint_interval`, then immediately after each recovery).
    pub(super) checkpoint: Option<Checkpoint<ControlPlaneState>>,
    /// Decision records appended since the last checkpoint.
    pub(super) wal: Wal<WalRecord>,
    /// Crashes survived, counting one whose outage outlasts the run.
    pub(super) crashes: u64,
    /// One report per completed crash-recovery cycle.
    pub(super) reports: Vec<RecoveryReport>,
}

impl RecoveryState {
    pub(super) fn new(faults: ControlPlaneFaults) -> Self {
        RecoveryState {
            faults,
            down_until: None,
            last_crash_at: SimTime::ZERO,
            checkpoint: None,
            wal: Wal::new(),
            crashes: 0,
            reports: Vec::new(),
        }
    }
}

impl World {
    /// Append one decision record to the WAL — the only append. A no-op
    /// in normal runs.
    pub(super) fn log(&mut self, rec: WalRecord) {
        if let Some(rs) = self.recovery.as_mut() {
            rs.wal.append(rec);
        }
    }

    /// Append the operator's pending decision records to the WAL. Called
    /// after every operator entry point; a no-op in normal runs (recording
    /// is off, so the pending buffer stays empty).
    pub(super) fn drain_operator_wal(&mut self) {
        if self.recovery.is_some() {
            for rec in self.cp.operator.drain_wal_records() {
                self.log(rec);
            }
        }
    }

    /// Capture the full control plane into a fresh checkpoint. The
    /// superseded checkpoint and the WAL it anchors are dropped first, so
    /// the new copy never coexists with the old one and its log.
    pub(super) fn take_checkpoint(&mut self, now: SimTime, policy: &mut PolicySlot) {
        policy.checkpoint();
        let rs = self
            .recovery
            .as_mut()
            .expect("checkpointing without control-plane faults");
        rs.checkpoint = None;
        rs.wal.truncate();
        rs.checkpoint = Some(Checkpoint::take(self.cp.clone(), now));
    }

    /// Periodic checkpoint cadence (control-plane faults active only).
    pub(super) fn checkpoint_tick(&mut self, now: SimTime, policy: &mut PolicySlot) {
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
        self.take_checkpoint(now, policy);
        self.queue.schedule_in(interval, Event::CheckpointTick);
    }

    /// Failure injection: the control plane dies. Workers keep running
    /// (they are cluster pods, not control-plane state), but every
    /// in-flight master↔worker message is now addressed to a dead
    /// incarnation and will be dropped.
    pub(super) fn crash_control_plane(&mut self, now: SimTime) {
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
    pub(super) fn restart_control_plane(&mut self, now: SimTime, policy: &mut PolicySlot) {
        let Some(rs) = self.recovery.as_mut() else {
            return;
        };
        if rs.down_until.is_none() {
            return;
        }
        rs.down_until = None;
        // Moved, not copied: step 8 re-checkpoints, which supersedes
        // these records before anything could crash again.
        let records = rs.wal.take_records();
        let crashed_at = rs.last_crash_at;
        let cp = rs
            .checkpoint
            .as_ref()
            .expect("crashes are ignored before checkpoint #0");
        let checkpoint_at = cp.taken_at();
        // 1. Restore the control plane to its checkpoint. The trace
        // cursor is control-plane state too: arrivals admitted after the
        // checkpoint rewind with it and re-admit through WAL replay.
        self.cp = cp.restore();
        policy.restore();
        // 2. The checkpoint believes in workers and in-flight transfers
        // from before the crash. Reset those beliefs: every worker is
        // unknown until re-adopted, every Staging/Running/Returning task
        // is re-queued exactly once.
        let tasks_requeued = self.cp.master.recover_reset_data_plane(now);
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
        self.cp
            .operator
            .reconcile_probes(now, &mut self.cp.master, &mut self.wq_sink);
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
            let wid =
                self.cp
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
        self.cp
            .operator
            .submit_ready(now, &mut self.cp.master, &mut self.wq_sink);
        self.flush_wq();
        self.drain_operator_wal();
        self.pump_arrivals(now);
        self.finish_if_resolved(now, "workload complete at recovery; cleanup");
        // 7. The metrics-pipeline history predates the crash; a restarted
        // metrics server starts scraping from scratch.
        self.util_history.clear();
        // 8. Post-recovery checkpoint: the replayed decisions are now part
        // of durable state, so a second crash replays from here.
        self.take_checkpoint(now, policy);
        // 9. Bookkeeping.
        self.recovery
            .as_mut()
            .expect("checked on entry")
            .reports
            .push(RecoveryReport {
                crashed_at,
                recovered_at: now,
                checkpoint_at,
                wal_replayed,
                tasks_requeued,
                workers_readopted,
            });
        self.trace.push(
            now,
            "driver",
            format!(
                "control plane recovered: {wal_replayed} WAL records, \
                 {tasks_requeued} tasks re-queued, {workers_readopted} workers re-adopted"
            ),
        );
        self.cp.master.assert_invariants();
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
                    self.cp.operator.replay_submit(
                        now,
                        job,
                        Arc::unwrap_or_clone(spec),
                        &mut self.cp.master,
                        &mut self.wq_sink,
                    );
                }
                WalRecord::Learn { cat, resources } => {
                    self.cp
                        .operator
                        .replay_learn(cat, resources, &mut self.cp.master);
                }
                WalRecord::Complete { task } => {
                    self.cp.master.recover_complete(task);
                    self.cp.operator.replay_complete(task);
                }
                WalRecord::Fail { task } => {
                    let cat = self.cp.master.task(task).map(|r| r.cat());
                    self.cp.master.recover_failed(task);
                    if let Some(cat) = cat {
                        self.cp.operator.replay_fail(task, cat);
                    }
                }
                WalRecord::TraceSubmit { task } => {
                    // Advance the restored cursor one event: the
                    // generator re-derives this arrival from its rewound
                    // RNG streams, so no randomness is re-drawn for
                    // arrivals the old incarnation already admitted.
                    let (_, spec) = self
                        .cp
                        .arrivals
                        .as_mut()
                        .and_then(hta_trace::ArrivalSource::replay_next)
                        .expect("a logged arrival is still in the restored cursor");
                    assert_eq!(spec.id, task, "trace cursor diverged from the WAL");
                    self.cp
                        .operator
                        .admit_trace(now, spec, &mut self.cp.master, &mut self.wq_sink);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::testkit::*;

    #[test]
    fn report_derives_outage_and_amnesia_window() {
        let r = RecoveryReport {
            crashed_at: SimTime::from_secs(500),
            recovered_at: SimTime::from_secs(560),
            checkpoint_at: SimTime::from_secs(480),
            wal_replayed: 12,
            tasks_requeued: 4,
            workers_readopted: 3,
        };
        assert_eq!(r.outage_s(), 60.0);
        assert_eq!(r.amnesia_window_s(), 20.0);
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

    #[test]
    #[should_panic(expected = "ControlPlaneFaults::checkpoint_interval must be positive")]
    fn a_zero_checkpoint_interval_is_rejected_at_construction() {
        // Built in code, past the CLI's own check: the driver must refuse
        // it rather than re-arm its checkpoint tick at one instant forever.
        let mut cfg = small_cfg();
        cfg.faults.control_plane = ControlPlaneFaults {
            crash_times: vec![Duration::from_secs(60)],
            outage: Duration::from_secs(30),
            checkpoint_interval: Duration::ZERO,
        };
        let _ = SystemDriver::new(cfg, tiny_workflow(3), Box::new(FixedPolicy::new(3)));
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
        let names = d.world.cp.master.interner();
        let mut late_live = 0;
        for r in d.world.cp.master.task_records() {
            let name = names.name(r.cat());
            assert_eq!(name, expected[&r.id()], "{:?} resolves by name", r.id());
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
    fn replayed_trace_arrivals_keep_the_declaration_they_were_admitted_with() {
        // Every spec declares nothing, so each admission takes whatever its
        // category has learned so far. Categories learn after checkpoint
        // #0 and before the crash; the WAL names arrivals by id only, so
        // replay must fill each regenerated spec in again, in log order.
        let source = || {
            let mut cfg = hta_trace::synth::preset("demo-1k").expect("a preset");
            cfg.total_tasks = 300;
            cfg.arrivals = hta_trace::ArrivalProcess::Poisson { rate_per_s: 3.0 };
            for c in &mut cfg.categories {
                c.declared = None;
            }
            let trace = hta_trace::SynthTrace::new(cfg, 5).expect("a valid trace");
            ArrivalSource::new(
                "synth:undeclared",
                hta_trace::TraceKind::Synth(Box::new(trace)),
            )
        };
        let (crash_s, outage_s) = (120, 30);
        let driver = |crash: bool| {
            let mut cfg = small_cfg();
            if crash {
                cfg.faults.control_plane = ControlPlaneFaults {
                    crash_times: vec![Duration::from_secs(crash_s)],
                    outage: Duration::from_secs(outage_s),
                    checkpoint_interval: Duration::from_secs(3_600),
                };
            }
            SystemDriver::new_traced(cfg, source(), Box::new(FixedPolicy::new(4)))
        };
        let crash_free = driver(false).run();
        assert!(!crash_free.timed_out);

        let mut d = driver(true);
        d.advance_until(SimTime::from_secs(crash_s - 1));
        let live = &d.world.cp;
        let checkpointed = d.world.recovery.as_ref().expect("faults are active");
        let checkpointed = checkpointed.checkpoint.as_ref().expect("checkpoint #0");
        let checkpointed = checkpointed.restore();
        let learned_since = live
            .master
            .interner()
            .iter_by_name()
            .filter(|&(_, c)| {
                live.operator.known_resources_id(c).is_some()
                    && checkpointed.operator.known_resources_id(c).is_none()
            })
            .count();
        assert!(learned_since > 0, "a category learns after the checkpoint");
        // A waiting task has waited since its admission (no faults here),
        // so its declaration is the one it was admitted with, raised by
        // any learning since: exactly what replay must rebuild.
        let first_logged = checkpointed.arrivals.as_ref().map_or(0, |a| a.submitted());
        let before: BTreeMap<TaskId, Option<Resources>> = live
            .master
            .view()
            .waiting()
            .map(|w| (w.id, w.declared))
            .collect();
        assert!(
            before
                .iter()
                .any(|(id, decl)| id.raw() >= first_logged && decl.is_some()),
            "an arrival logged after the checkpoint was admitted with a learned declaration"
        );

        d.advance_until(SimTime::from_secs(crash_s + outage_s));
        assert_eq!(d.world.recovery.as_ref().map(|r| r.reports.len()), Some(1));
        let mut compared = 0;
        for (id, decl) in &before {
            if let Some(rec) = d.world.cp.master.task(*id) {
                assert_eq!(rec.declared(), *decl, "{id:?} replays its declaration");
                compared += 1;
            }
        }
        assert!(compared > 0, "replayed tasks are live after the restart");

        let a = d.run();
        assert!(!a.timed_out, "recovered traced run must complete");
        assert!(a.recoveries[0].wal_replayed > 0);
        assert_eq!(a.completed, crash_free.completed);
        assert_eq!(
            a.completed_digest, crash_free.completed_digest,
            "identical completed-task set across crash and crash-free runs"
        );
    }

    #[test]
    fn forks_share_the_parent_checkpoint() {
        let mut cfg = small_cfg();
        cfg.faults.control_plane = ControlPlaneFaults {
            crash_times: vec![Duration::from_secs(10_000)],
            outage: Duration::from_secs(30),
            checkpoint_interval: Duration::from_secs(60),
        };
        let mut parent = SystemDriver::new(cfg, tiny_workflow(12), Box::new(FixedPolicy::new(3)));
        parent.advance_until(SimTime::from_secs(90));
        let fork = parent.fork_branch(1);
        let checkpoint = |d: &SystemDriver| {
            d.world
                .recovery
                .as_ref()
                .and_then(|r| r.checkpoint.clone())
                .expect("a checkpoint was taken")
        };
        assert!(
            checkpoint(&fork).shares_state_with(&checkpoint(&parent)),
            "a fork copies the checkpoint's pointer, not its control plane"
        );
    }

    #[test]
    fn restart_rewinds_the_init_time_tracker_to_its_checkpoint() {
        // Bounded amnesia covers every control-plane member: a
        // measurement taken after the checkpoint is forgotten by the
        // restart. The first one lands when the third worker's node is up.
        let mut probe = SystemDriver::new(
            small_cfg(),
            tiny_workflow(40),
            Box::new(FixedPolicy::new(3)),
        );
        let mut t = 0;
        while probe.world.cp.tracker.count() == 0 {
            t += 1;
            assert!(
                !probe.advance_until(SimTime::from_secs(t)),
                "no measurement"
            );
        }
        // Crash a second later; checkpoint #0 (at master-ready) is the
        // only one before it.
        let mut cfg = small_cfg();
        cfg.faults.control_plane = ControlPlaneFaults {
            crash_times: vec![Duration::from_secs(t + 1)],
            outage: Duration::from_secs(30),
            checkpoint_interval: Duration::from_secs(3_600),
        };
        let mut d = SystemDriver::new(cfg, tiny_workflow(40), Box::new(FixedPolicy::new(3)));
        d.advance_until(SimTime::from_secs(t + 1));
        assert!(d.world.cp.tracker.count() > 0, "measured before the crash");
        d.advance_until(SimTime::from_secs(t + 31));
        assert_eq!(d.world.recovery.as_ref().map(|r| r.reports.len()), Some(1));
        assert_eq!(
            d.world.cp.tracker.count(),
            0,
            "the restart keeps a measurement its checkpoint never saw"
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
}
