//! The autoscaler's view of the queue ([`QueueStatus`]), kept current at
//! every task and worker transition instead of rebuilt on each poll.

use std::collections::BTreeMap;

use hta_des::{CategoryId, SimTime};
use hta_resources::Resources;

use super::{is_waiting, Master};
use crate::ids::{TaskId, WorkerId};
use crate::worker::WorkerState;

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

impl Master {
    /// Re-derive one task's entry in the running snapshot (insert while it
    /// is on a worker, remove otherwise). Called at every state change.
    pub(super) fn refresh_task_snap(&mut self, task: TaskId) {
        let entry = self.tasks.get(&task).and_then(|r| {
            let worker = r.worker()?;
            Some(RunningSnapshot {
                id: r.spec.id,
                cat: r.spec.cat,
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
    pub(super) fn refresh_worker_snap(&mut self, wid: WorkerId) {
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
                    cat: r.spec.cat,
                    declared: r.spec.declared,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::master::testkit::*;

    #[test]
    fn queue_status_snapshot() {
        let (cat, db) = catalog_with_db();
        let mut m = new_master(link_cfg(), cat);
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
        let mut m = new_master(link_cfg(), cat);
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
}
