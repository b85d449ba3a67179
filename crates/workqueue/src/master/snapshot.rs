//! The autoscaler's view of the queue ([`QueueView`]): borrowed from the
//! master and derived from its records when read, so it never holds a
//! copy that could go stale.

use hta_des::{CategoryId, Interner, SimTime};
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

/// The autoscaler's read-only view of the queue (the paper's
/// framework-level feedback input), borrowed from the master.
///
/// Every view is derived when it is read, from the master's own task
/// records, worker table and waiting FIFO, so there is no second copy to
/// keep in step. It hands out only the snapshot item types, never a
/// [`TaskRecord`](crate::task::TaskRecord): a policy sees what a Work
/// Queue status query reports, not a task's true footprint.
#[derive(Debug, Clone, Copy)]
pub struct QueueView<'a> {
    master: &'a Master,
}

impl<'a> QueueView<'a> {
    /// Waiting tasks in FIFO (dispatch) order. O(queue).
    pub fn waiting(self) -> impl Iterator<Item = WaitingSnapshot> + 'a {
        let m = self.master;
        m.waiting.iter().filter_map(move |t| {
            let r = m.tasks.get(&t).filter(|r| is_waiting(r))?;
            let (cat, declared) = m.shapes.key(r);
            Some(WaitingSnapshot {
                id: r.id,
                cat,
                declared,
            })
        })
    }

    /// Tasks on workers (staging, running or returning), in worker id
    /// order and then in each worker's assignment order. Each task is
    /// listed once, at its primary worker: a speculative duplicate is not
    /// a second task. O(running + workers).
    pub fn running(self) -> impl Iterator<Item = RunningSnapshot> + 'a {
        let m = self.master;
        m.workers.values().flat_map(move |w| {
            w.tasks().iter().filter_map(move |t| {
                let r = m.tasks.get(t).filter(|r| r.worker() == Some(w.id))?;
                Some(RunningSnapshot {
                    id: r.id,
                    cat: m.shapes.cat(r.shape),
                    started_at: r.started_at(),
                    allocation: r.allocation().unwrap_or(Resources::ZERO),
                    worker: w.id,
                })
            })
        })
    }

    /// Live (active and draining) workers in id order. O(workers).
    pub fn workers(self) -> impl Iterator<Item = WorkerSnapshot> + 'a {
        self.master.workers.values().map(|w| WorkerSnapshot {
            id: w.id,
            capacity: w.capacity(),
            available: w.pool.available(),
            state: w.state,
            tasks: w.task_count(),
        })
    }

    /// Number of waiting tasks.
    pub fn waiting_count(self) -> usize {
        self.master.waiting_count()
    }

    /// Number of tasks on workers.
    pub fn running_count(self) -> usize {
        self.master.running_count()
    }

    /// The waiting queue's demand histogram (see
    /// [`Master::waiting_demand`]).
    pub fn waiting_demand(self) -> &'a [(CategoryId, Option<Resources>, usize)] {
        self.master.waiting_demand()
    }

    /// The category interner (resolves the views' ids to names at output
    /// boundaries).
    pub fn interner(self) -> &'a Interner {
        self.master.interner()
    }
}

impl Master {
    /// The autoscaler's borrowed view of the queue.
    pub fn view(&self) -> QueueView<'_> {
        QueueView { master: self }
    }
}

#[cfg(test)]
mod tests {
    use crate::master::testkit::*;

    #[test]
    fn view_lists_waiting_running_and_workers() {
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
        let v = m.view();
        assert_eq!((v.running().count(), v.running_count()), (1, 1));
        let waiting: Vec<TaskId> = v.waiting().map(|t| t.id).collect();
        assert_eq!(waiting, [TaskId(1)], "2-core task can't fit beside 1-core");
        assert_eq!(v.waiting_count(), 1);
        let workers: Vec<(WorkerId, usize)> = v.workers().map(|w| (w.id, w.tasks)).collect();
        assert_eq!(workers, [(w, 1)]);
    }

    #[test]
    fn derived_views_match_the_records() {
        let (cat, db) = catalog_with_db();
        let mut m = new_master(link_cfg(), cat);
        let mut q = Queue::new();
        let mut fx = EffectSink::new();
        let _w = m.worker_connect(SimTime::ZERO, Resources::cores(2, 8_000, 50_000), &mut fx);
        run(&mut m, &mut q, &mut fx, 5);
        let decl = Some(Resources::cores(1, 2_000, 2_000));
        for i in 0..4 {
            m.submit(SimTime::ZERO, cpu_task(i, db, decl), &mut fx);
        }
        // Cross-check the views against the records at several points
        // through the run.
        for _ in 0..20 {
            let v = m.view();
            let mut running: Vec<TaskId> = v.running().map(|r| r.id).collect();
            running.sort();
            let mut waiting: Vec<TaskId> = v.waiting().map(|w| w.id).collect();
            waiting.sort();
            let truth_running: Vec<TaskId> = m
                .task_records()
                .filter(|r| r.worker().is_some())
                .map(|r| r.id)
                .collect();
            let truth_waiting: Vec<TaskId> = m
                .task_records()
                .filter(|r| r.state == TaskState::Waiting)
                .map(|r| r.id)
                .collect();
            assert_eq!(running, truth_running);
            assert_eq!(waiting, truth_waiting);
            let Some((now, ev)) = q.pop() else { break };
            m.handle(now, ev, &mut fx);
            sched(&mut q, &mut fx);
        }
        run(&mut m, &mut q, &mut fx, 400);
        assert!(m.all_complete());
        let v = m.view();
        assert_eq!((v.running().count(), v.waiting().count()), (0, 0));
    }

    #[test]
    fn each_task_is_listed_once_where_it_runs_or_waits() {
        let (cat, db) = catalog_with_db();
        let mut m = new_master(
            faulty_cfg(TaskFaults {
                straggler_factor: Some(2.0),
                ..TaskFaults::default()
            }),
            cat,
        );
        let mut q = Queue::new();
        let mut fx = EffectSink::new();
        let one = Some(Resources::cores(1, 2_000, 2_000));
        let two = Some(Resources::cores(2, 2_000, 2_000));
        let w0 = m.worker_connect(SimTime::ZERO, Resources::cores(3, 8_000, 50_000), &mut fx);
        let w1 = m.worker_connect(SimTime::ZERO, Resources::cores(2, 8_000, 50_000), &mut fx);
        // A 60 s task sets the category mean; a straggler on w0 then
        // earns a speculative duplicate on w1 at twice the mean.
        m.submit(SimTime::ZERO, cpu_task(0, db, one), &mut fx);
        run(&mut m, &mut q, &mut fx, 100);
        let mut straggler = cpu_task(1, db, one);
        straggler.exec = ExecModel::cpu_bound(Duration::from_secs(10_000));
        m.submit(q.now(), straggler, &mut fx);
        sched(&mut q, &mut fx);
        while m.fault_stats().speculative_launched == 0 {
            let (now, ev) = q.pop().expect("the straggler check fires");
            m.handle(now, ev, &mut fx);
            sched(&mut q, &mut fx);
        }
        let now = q.now();
        m.submit(now, cpu_task(2, db, two), &mut fx);
        m.submit(now, cpu_task(3, db, two), &mut fx);
        let running = |m: &Master| -> Vec<(TaskId, WorkerId)> {
            m.view().running().map(|r| (r.id, r.worker)).collect()
        };
        let waiting = |m: &Master| -> Vec<TaskId> { m.view().waiting().map(|w| w.id).collect() };
        // The duplicate sits on w1's task list, but task 1 is listed once,
        // at its primary.
        assert_eq!(running(&m), [(TaskId(1), w0), (TaskId(2), w0)]);
        assert_eq!(m.worker(w1).map(Worker::task_count), Some(1));
        assert_eq!((m.running_count(), waiting(&m)), (2, vec![TaskId(3)]));
        // A draining worker's tasks are still on workers.
        m.drain_worker(now, w0);
        assert_eq!(running(&m), [(TaskId(1), w0), (TaskId(2), w0)]);
        let states: Vec<(WorkerId, WorkerState)> =
            m.view().workers().map(|w| (w.id, w.state)).collect();
        assert_eq!(
            states,
            [(w0, WorkerState::Draining), (w1, WorkerState::Active)]
        );
        // Killing w0 promotes the duplicate onto w1 and re-queues task 2
        // at the front, listed once, ahead of task 3.
        m.kill_worker(now, w0, &mut fx);
        assert_eq!(running(&m), [(TaskId(1), w1)]);
        assert_eq!(waiting(&m), [TaskId(2), TaskId(3)]);
        assert_eq!((m.running_count(), m.waiting_count()), (1, 2));
    }
}
