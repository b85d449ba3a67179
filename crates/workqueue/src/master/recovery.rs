//! Control-plane crash recovery: the hooks that reset a
//! checkpoint-restored master's data plane and replay the write-ahead
//! log's task exits into it.

use hta_des::SimTime;

use super::{is_waiting, queued, Master};
use crate::ids::{TaskId, WorkerId};
use crate::task::TaskState;

impl Master {
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
        self.abandon_transfers(now, |_| true);
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
            self.waiting.push_front(*t, rec.spec.cat, rec.spec.declared);
        }
        let wids: Vec<WorkerId> = self.workers.keys().copied().collect();
        for w in wids {
            if let Some(worker) = self.workers.get_mut(&w) {
                let _ = worker.stop(now);
            }
            self.worker_changed(w);
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
    /// The task was re-queued by [`recover_reset_data_plane`]; it leaves
    /// the master as a completion without emitting a notification — the
    /// operator replays its own record of the same decision, and the
    /// driver recorded the task's span when the live notification was
    /// handled. A task with no record (already replayed) is skipped.
    ///
    /// [`recover_reset_data_plane`]: Self::recover_reset_data_plane
    pub fn recover_complete(&mut self, task: TaskId) {
        if self.tasks.contains_key(&task) {
            self.completed_count += 1;
            self.note_completed_id(task);
            self.retire_replayed(task);
        }
    }

    /// Apply a durably logged permanent failure during WAL replay (the
    /// counterpart of [`recover_complete`](Self::recover_complete)).
    pub fn recover_failed(&mut self, task: TaskId) {
        if self.tasks.contains_key(&task) {
            self.failed_count += 1;
            self.fault_stats.permanent_failures += 1;
            self.retire_replayed(task);
        }
    }

    /// Retire a task the WAL says finished, tombstoning its queue entry.
    fn retire_replayed(&mut self, task: TaskId) {
        let rec = self.retire_task(task);
        debug_assert!(
            is_waiting(&rec),
            "WAL replay runs against a reset data plane"
        );
        if is_waiting(&rec) {
            let tasks = &self.tasks;
            self.waiting
                .remove(rec.spec.cat, rec.spec.declared, |t| queued(tasks, t));
        }
        self.assert_invariants();
    }
}

#[cfg(test)]
mod tests {
    use crate::master::testkit::*;

    #[test]
    fn a_checkpoint_shares_records_until_the_live_master_writes_them() {
        let (cat, db) = catalog_with_db();
        let mut m = new_master(
            faulty_cfg(TaskFaults {
                oom_rate: 1.0,
                // Enough that no task fails (and leaves) within the run.
                max_retries: 1_000,
                oom_escalation: 2.0,
                ..TaskFaults::default()
            }),
            cat,
        );
        let mut q = Queue::new();
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
            &[(m.task(TaskId(0)).unwrap().spec.cat, decl, 3)]
        );
        restored.assert_invariants();
    }

    #[test]
    fn wal_replay_tombstones_match_a_retain_reference() {
        // The WAL-replay shape at scale: a deep backlog, then thousands of
        // logged completions and failures applied in an arbitrary order.
        let (cat, db) = catalog_with_db();
        let mut m = new_master(link_cfg(), cat);
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
                m.recover_failed(id);
            } else {
                m.recover_complete(id);
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
        let view: Vec<TaskId> = m.view().waiting().map(|w| w.id).collect();
        assert_eq!(
            view,
            Vec::from(reference.clone()),
            "the waiting view skips tombstones"
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
    fn recover_reset_requeues_inflight_and_disconnects_workers() {
        let (cat, db) = catalog_with_db();
        let mut m = new_master(link_cfg(), cat);
        let mut q = Queue::new();
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
    fn recover_complete_and_failed_replay_task_exits() {
        let (cat, db) = catalog_with_db();
        let mut m = new_master(link_cfg(), cat);
        let mut fx = EffectSink::new();
        for i in 0..3 {
            m.submit(SimTime::ZERO, cpu_task(i, db, None), &mut fx);
        }
        m.recover_complete(TaskId(0));
        m.recover_failed(TaskId(1));
        assert_eq!(m.completed_count(), 1);
        assert_eq!(m.failed_count, 1);
        assert_eq!(m.fault_stats().permanent_failures, 1);
        assert_eq!(m.waiting_count(), 1);
        assert_eq!(m.completed_digest(), mix64(0));
        assert!(m.task(TaskId(0)).is_none() && m.task(TaskId(1)).is_none());
        // Replaying the same records twice is a no-op (idempotent).
        m.recover_complete(TaskId(0));
        m.recover_failed(TaskId(1));
        assert_eq!((m.completed_count(), m.failed_count), (1, 1));
        assert_eq!(m.completed_digest(), mix64(0));
        assert!(
            m.drain_notifications().is_empty(),
            "replay emits no notifications"
        );
        assert!(m.has_live_task_in_category(ALIGN));
        m.recover_complete(TaskId(2));
        assert!(!m.has_live_task_in_category(ALIGN));
        assert!(m.all_complete());
    }
}
