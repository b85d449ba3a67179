//! Workers: the processes running inside worker pods.
//!
//! A worker advertises a resource capacity (for HTA: the whole node, per
//! §IV-A) and runs any set of tasks whose allocations fit. It keeps a
//! cache of cacheable input files. Two shutdown paths matter to the study:
//!
//! * **Drain** — HTA's path: the worker stops accepting tasks, finishes
//!   what is running, then stops; no work is lost (§V-C "stop the worker
//!   once all running jobs on it are finished").
//! * **Kill** — the eviction path taken when the HPA deletes the pod under
//!   the worker: running tasks are interrupted and must be re-queued, and
//!   the cache is lost.

use hta_des::SimTime;
use hta_resources::{ResourcePool, Resources};

use crate::ids::{FileId, TaskId, WorkerId};

/// Worker lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerState {
    /// Connected and accepting tasks.
    Active,
    /// Finishing running tasks; no new dispatches.
    Draining,
    /// Gone (drained to empty, or killed).
    Stopped,
}

/// One connected worker.
#[derive(Debug, Clone)]
pub struct Worker {
    /// Identity (assigned by the master at connect).
    pub id: WorkerId,
    /// Lifecycle state.
    pub state: WorkerState,
    /// Task allocations against advertised capacity (keyed by task id).
    pub pool: ResourcePool,
    /// Cached (cacheable) input files.
    cache: Vec<FileId>,
    /// Cacheable files currently being transferred to this worker, and
    /// the flow carrying each. A second task needing the same file waits
    /// on that flow instead of transferring the bytes again.
    inflight: Vec<(FileId, crate::ids::FlowId)>,
    /// Tasks currently staged/running/returning on this worker.
    tasks: Vec<TaskId>,
    /// When the worker connected.
    pub connected_at: SimTime,
    /// When the worker stopped.
    pub stopped_at: Option<SimTime>,
    /// Whether the scheduler may co-schedule tasks (true) or must give the
    /// whole worker to one unknown-resources task (false only while such a
    /// task occupies it).
    pub exclusive_task: Option<TaskId>,
    /// The busy cores of the tasks running here, as the master last
    /// summed them; `None` once the task list changed since (the
    /// task-list mutators below forget it). A task that starts or stops
    /// running in place is the master's to report.
    pub(crate) busy_cores: Option<f64>,
}

impl Worker {
    /// A newly connected worker with the given capacity.
    pub fn connect(id: WorkerId, capacity: Resources, now: SimTime) -> Self {
        Worker {
            id,
            state: WorkerState::Active,
            pool: ResourcePool::new(capacity),
            cache: Vec::new(),
            inflight: Vec::new(),
            tasks: Vec::new(),
            connected_at: now,
            stopped_at: None,
            exclusive_task: None,
            busy_cores: None,
        }
    }

    /// Advertised capacity.
    pub fn capacity(&self) -> Resources {
        self.pool.capacity()
    }

    /// True when no task is assigned.
    pub fn is_idle(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Number of tasks assigned (staging + running + returning).
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Tasks assigned to this worker.
    pub fn tasks(&self) -> &[TaskId] {
        &self.tasks
    }

    /// True when the worker can accept a task of `request` size right now.
    pub(crate) fn can_accept(&self, request: &Resources) -> bool {
        self.state == WorkerState::Active
            && self.exclusive_task.is_none()
            && self.pool.can_fit(request)
    }

    /// True when the worker can accept an unknown-resources task (must be
    /// completely empty — the conservative §III-A mode).
    pub(crate) fn can_accept_exclusive(&self) -> bool {
        self.state == WorkerState::Active && self.is_idle() && self.exclusive_task.is_none()
    }

    /// Assign a task with an explicit allocation.
    pub fn assign(&mut self, task: TaskId, allocation: Resources) {
        self.pool
            .allocate(task.raw(), allocation)
            .expect("caller must check can_accept");
        self.tasks.push(task);
        self.busy_cores = None;
    }

    /// Assign an unknown-resources task exclusively (whole capacity).
    pub fn assign_exclusive(&mut self, task: TaskId) {
        debug_assert!(self.can_accept_exclusive());
        let cap = self.capacity();
        self.pool
            .allocate(task.raw(), cap)
            .expect("empty worker fits its own capacity");
        self.tasks.push(task);
        self.exclusive_task = Some(task);
        self.busy_cores = None;
    }

    /// Remove a task (finished, returned, or re-queued after kill).
    pub fn remove_task(&mut self, task: TaskId) {
        let _ = self.pool.release(task.raw());
        self.tasks.retain(|t| *t != task);
        if self.exclusive_task == Some(task) {
            self.exclusive_task = None;
        }
        self.busy_cores = None;
    }

    /// Whether `file` is in the worker's cache.
    pub fn has_cached(&self, file: FileId) -> bool {
        self.cache.contains(&file)
    }

    /// Add a file to the cache (clears any in-flight marker).
    pub fn cache_file(&mut self, file: FileId) {
        if !self.has_cached(file) {
            self.cache.push(file);
        }
        self.inflight.retain(|(f, _)| *f != file);
    }

    /// The flow currently delivering `file` to this worker, if any.
    pub fn inflight_flow(&self, file: FileId) -> Option<crate::ids::FlowId> {
        self.inflight
            .iter()
            .find(|(f, _)| *f == file)
            .map(|(_, flow)| *flow)
    }

    /// Mark `file` as being delivered by `flow`.
    pub fn mark_inflight(&mut self, file: FileId, flow: crate::ids::FlowId) {
        if self.inflight_flow(file).is_none() {
            self.inflight.push((file, flow));
        }
    }

    /// The flows currently delivering files to this worker.
    pub(crate) fn inflight_flows(&self) -> impl Iterator<Item = crate::ids::FlowId> + '_ {
        self.inflight.iter().map(|(_, flow)| *flow)
    }

    /// Forget an in-flight transfer (cancelled flow).
    pub fn clear_inflight_flow(&mut self, flow: crate::ids::FlowId) {
        self.inflight.retain(|(_, f)| *f != flow);
    }

    /// Begin draining; returns true if already idle (caller stops it now).
    pub fn drain(&mut self) -> bool {
        if self.state == WorkerState::Active {
            self.state = WorkerState::Draining;
        }
        self.is_idle()
    }

    /// Final stop (drained empty or killed). Clears allocations and cache.
    pub fn stop(&mut self, now: SimTime) -> Vec<TaskId> {
        self.state = WorkerState::Stopped;
        self.stopped_at = Some(now);
        self.pool.clear();
        self.cache.clear();
        self.inflight.clear();
        self.exclusive_task = None;
        self.busy_cores = None;
        std::mem::take(&mut self.tasks)
    }

    /// CPU utilization this worker reports to the metrics server:
    /// Σ(allocated cores × per-task busy fraction) / capacity cores.
    /// The caller supplies the per-task busy share since task state lives
    /// in the master.
    pub fn utilization(&self, busy_cores: f64) -> f64 {
        let cap = self.capacity().cores_f64();
        if cap <= 0.0 {
            return 0.0;
        }
        (busy_cores / cap).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn worker() -> Worker {
        Worker::connect(
            WorkerId(0),
            Resources::cores(4, 15_000, 100_000),
            SimTime::ZERO,
        )
    }

    #[test]
    fn known_resource_packing() {
        let mut w = worker();
        let r = Resources::cores(1, 3_000, 10_000);
        assert!(w.can_accept(&r));
        w.assign(TaskId(1), r);
        w.assign(TaskId(2), r);
        w.assign(TaskId(3), r);
        w.assign(TaskId(4), r);
        assert_eq!(w.task_count(), 4);
        assert!(!w.can_accept(&r), "four 1-core tasks fill 4 cores");
        w.remove_task(TaskId(2));
        assert!(w.can_accept(&r));
    }

    #[test]
    fn exclusive_mode_blocks_packing() {
        let mut w = worker();
        assert!(w.can_accept_exclusive());
        w.assign_exclusive(TaskId(9));
        assert!(!w.can_accept(&Resources::cores(1, 0, 0)));
        assert!(!w.can_accept_exclusive());
        w.remove_task(TaskId(9));
        assert!(w.can_accept_exclusive());
        assert!(w.is_idle());
    }

    #[test]
    fn drain_then_stop() {
        let mut w = worker();
        w.assign(TaskId(1), Resources::cores(1, 0, 0));
        assert!(!w.drain(), "not idle yet");
        assert_eq!(w.state, WorkerState::Draining);
        assert!(!w.can_accept(&Resources::cores(1, 0, 0)));
        w.remove_task(TaskId(1));
        assert!(w.is_idle());
        let orphans = w.stop(SimTime::from_secs(5));
        assert!(orphans.is_empty());
        assert_eq!(w.state, WorkerState::Stopped);
    }

    #[test]
    fn kill_returns_orphans_and_clears_cache() {
        let mut w = worker();
        w.cache_file(FileId(0));
        w.assign(TaskId(1), Resources::cores(1, 0, 0));
        w.assign(TaskId(2), Resources::cores(1, 0, 0));
        let orphans = w.stop(SimTime::from_secs(9));
        assert_eq!(orphans, vec![TaskId(1), TaskId(2)]);
        assert!(!w.has_cached(FileId(0)));
        assert!(w.pool.is_empty());
    }

    #[test]
    fn utilization_is_bounded() {
        let w = worker();
        assert_eq!(w.utilization(0.0), 0.0);
        assert!((w.utilization(2.0) - 0.5).abs() < 1e-9);
        assert_eq!(w.utilization(100.0), 1.0);
    }

    #[test]
    fn inflight_tracking() {
        use crate::ids::FlowId;
        let mut w = worker();
        assert_eq!(w.inflight_flow(FileId(1)), None);
        w.mark_inflight(FileId(1), FlowId(7));
        w.mark_inflight(FileId(1), FlowId(9)); // first flow wins
        assert_eq!(w.inflight_flow(FileId(1)), Some(FlowId(7)));
        // Completion caches the file and clears the marker.
        w.cache_file(FileId(1));
        assert_eq!(w.inflight_flow(FileId(1)), None);
        assert!(w.has_cached(FileId(1)));
        // Cancellation clears without caching.
        w.mark_inflight(FileId(2), FlowId(8));
        w.clear_inflight_flow(FlowId(8));
        assert_eq!(w.inflight_flow(FileId(2)), None);
        assert!(!w.has_cached(FileId(2)));
    }

    #[test]
    fn cache_dedups() {
        let mut w = worker();
        w.cache_file(FileId(1));
        w.cache_file(FileId(1));
        assert!(w.has_cached(FileId(1)));
        assert!(!w.has_cached(FileId(2)));
    }
}
