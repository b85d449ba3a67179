//! Tasks and their execution model.
//!
//! A task carries two resource views:
//!
//! * [`TaskSpec::declared`] — what the submitter *knows* at submission
//!   time. `None` reproduces the paper's §III-A conservative mode: the
//!   master will run the task alone on a whole worker.
//! * [`TaskSpec::actual`] — ground truth consumption, hidden from the
//!   scheduler until the resource monitor measures a completed run. This
//!   is what HTA's category estimator learns from.
//!
//! The [`ExecModel`] gives the wall time of the task once its inputs are
//! worker-local, and the fraction of its allocated CPU it actually keeps
//! busy (≈0.9 for the CPU-bound BLAST jobs, <0.2 for the `dd` I/O-bound
//! workload — the value HPA's CPU metric sees).

use hta_des::{CategoryId, Duration, SimTime};
use hta_resources::Resources;
use serde::{Deserialize, Serialize};

use crate::ids::{FileId, TaskId, WorkerId};

/// How a task behaves once running.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecModel {
    /// Wall-clock execution time with inputs local.
    pub duration: Duration,
    /// Fraction of the *allocated* CPU the task keeps busy while running,
    /// in `[0, 1]`. Drives the CPU-utilization metric HPA reacts to.
    pub cpu_fraction: f64,
}

impl ExecModel {
    /// A CPU-bound job: high utilization of its cores.
    pub fn cpu_bound(duration: Duration) -> Self {
        ExecModel {
            duration,
            cpu_fraction: 0.9,
        }
    }
}

/// A task as submitted to the master.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskSpec {
    /// Identity (allocated by the submitting layer).
    pub id: TaskId,
    /// Workflow category (stage) — jobs in one category are
    /// near-identical. An id from the master's interner, which the layer
    /// building the run fills before the first submission; resolve the
    /// name through `Master::interner`.
    pub cat: CategoryId,
    /// Input files to deliver before execution.
    pub inputs: Vec<FileId>,
    /// Output size transferred back to the master on completion (MB).
    pub output_mb: f64,
    /// Resources known at submission (`None` → conservative whole-worker).
    pub declared: Option<Resources>,
    /// Ground-truth peak consumption (hidden until measured).
    pub actual: Resources,
    /// Execution behaviour.
    pub exec: ExecModel,
}

/// Where a live task is. A task that finishes (completes, or fails past
/// its retry budget) leaves the master's table, so there is no terminal
/// state: its exit notification is the only record of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TaskState {
    /// In the master's queue.
    Waiting,
    /// Assigned to a worker; inputs are being transferred.
    Staging(WorkerId),
    /// Executing on a worker.
    Running(WorkerId),
    /// Execution finished; output transferring back to the master.
    Returning(WorkerId),
}

/// Resource-monitor measurement of a finished run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Measured {
    /// Peak resource consumption observed.
    pub peak: Resources,
    /// Wall time from execution start to finish (excludes staging).
    pub wall: Duration,
}

/// A speculative duplicate execution of a straggling task (fault
/// injection's straggler mitigation): the duplicate races the original;
/// whichever finishes first wins and the loser is cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Speculative {
    /// Worker running the duplicate.
    pub worker: WorkerId,
    /// When the duplicate started executing.
    pub started_at: SimTime,
    /// The duplicate's sampled execution time.
    pub duration: Duration,
}

/// Master-side record of one task.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskRecord {
    /// The submitted spec.
    pub spec: TaskSpec,
    /// Current state.
    pub state: TaskState,
    /// What the master allocated on the worker for this run (whole worker
    /// when resources were unknown).
    pub allocation: Option<Resources>,
    /// When the task entered the queue.
    pub submitted_at: SimTime,
    /// When execution started (inputs local).
    pub started_at: Option<SimTime>,
    /// Resource-monitor measurement of the finished run, set when
    /// execution ends (the output may still be returning).
    pub measured: Option<Measured>,
    /// Number of times the task was re-queued after a worker was killed.
    pub interruptions: u32,
    /// Failed execution attempts (transient exits, OOM kills) counted
    /// against the retry budget.
    pub retries: u32,
    /// An in-flight speculative duplicate, if straggler mitigation
    /// launched one for this run.
    pub speculative: Option<Speculative>,
    /// Run generation: incremented on every (re)dispatch so stale
    /// execution-finished events from a killed run are ignored.
    pub run_generation: u64,
    /// Sequence number of the current dispatch decision (the control
    /// channel's idempotence/fencing token). 0 before the first dispatch.
    #[serde(default)]
    pub dispatch_seq: u64,
    /// True once the worker acknowledged the current dispatch (stops the
    /// at-least-once retransmit loop).
    #[serde(default)]
    pub dispatch_acked: bool,
}

impl TaskRecord {
    /// A freshly submitted record.
    pub fn new(spec: TaskSpec, submitted_at: SimTime) -> Self {
        TaskRecord {
            spec,
            state: TaskState::Waiting,
            allocation: None,
            submitted_at,
            started_at: None,
            measured: None,
            interruptions: 0,
            retries: 0,
            speculative: None,
            run_generation: 0,
            dispatch_seq: 0,
            dispatch_acked: false,
        }
    }

    /// Worker currently responsible for the task, if any.
    pub fn worker(&self) -> Option<WorkerId> {
        match self.state {
            TaskState::Staging(w) | TaskState::Running(w) | TaskState::Returning(w) => Some(w),
            TaskState::Waiting => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> TaskSpec {
        TaskSpec {
            id: TaskId(0),
            cat: CategoryId::from_u32(0),
            inputs: vec![FileId(0)],
            output_mb: 0.6,
            declared: None,
            actual: Resources::new(1000, 2_000, 3_000),
            exec: ExecModel::cpu_bound(Duration::from_secs(90)),
        }
    }

    #[test]
    fn exec_model_presets() {
        let cpu = ExecModel::cpu_bound(Duration::from_secs(10));
        assert!(cpu.cpu_fraction > 0.8);
    }

    #[test]
    fn record_lifecycle_accessors() {
        let mut r = TaskRecord::new(spec(), SimTime::from_secs(1));
        assert_eq!(r.state, TaskState::Waiting);
        assert_eq!(r.worker(), None);
        r.state = TaskState::Running(WorkerId(3));
        assert_eq!(r.worker(), Some(WorkerId(3)));
    }

    #[test]
    fn state_worker_mapping_is_exhaustive() {
        for (state, expect) in [
            (TaskState::Waiting, None),
            (TaskState::Staging(WorkerId(1)), Some(WorkerId(1))),
            (TaskState::Running(WorkerId(2)), Some(WorkerId(2))),
            (TaskState::Returning(WorkerId(3)), Some(WorkerId(3))),
        ] {
            let mut r = TaskRecord::new(spec(), SimTime::ZERO);
            r.state = state;
            assert_eq!(r.worker(), expect);
        }
    }
}
