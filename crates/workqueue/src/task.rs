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
use crate::shape::{DeclaredId, ShapeId, ShapeTable};

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

/// Master-side record of one live task.
///
/// A compact record: the fields a producer fills per category (category,
/// output size, true footprint, CPU fraction) and the declared
/// requirement are indices into the master's shape table, the inputs are
/// a boxed slice (no allocation when empty), and the fields that exist
/// only once the task was dispatched live out of line in a `RunState`
/// that a never-dispatched task does not allocate. A waiting task
/// therefore costs its 80-byte record, the record's `Arc` header, a table
/// slot and a queue entry. `Master::spec` reassembles the submitted
/// [`TaskSpec`].
#[derive(Debug, Clone)]
pub struct TaskRecord {
    pub(crate) id: TaskId,
    /// Sampled wall time with inputs local.
    pub(crate) duration: Duration,
    /// When the task entered the queue.
    pub(crate) submitted_at: SimTime,
    pub(crate) inputs: Box<[FileId]>,
    /// Dispatch-time state; `None` until the first dispatch.
    run: Option<Box<RunState>>,
    pub(crate) state: TaskState,
    pub(crate) shape: ShapeId,
    pub(crate) declared: DeclaredId,
    /// Failed execution attempts (transient exits, OOM kills) counted
    /// against the retry budget.
    pub(crate) retries: u32,
    /// Times the task was re-queued after losing its worker or run.
    pub(crate) interruptions: u32,
}

/// The part of a record that exists once the task was dispatched. It
/// stays with the record across re-queues: the run generation and the
/// dispatch sequence must keep counting up.
#[derive(Debug, Clone, Default)]
pub(crate) struct RunState {
    /// What the master allocated on the worker for this run (whole
    /// worker when resources were unknown).
    pub(crate) allocation: Option<Resources>,
    /// When execution started (inputs local).
    pub(crate) started_at: Option<SimTime>,
    /// Wall time the resource monitor measured for the finished run, set
    /// when execution ends (the output may still be returning). Its peak
    /// is the shape's true footprint.
    pub(crate) measured_wall: Option<Duration>,
    /// An in-flight speculative duplicate, if straggler mitigation
    /// launched one for this run.
    pub(crate) speculative: Option<Speculative>,
    /// Run generation: incremented on every re-queue or promotion so
    /// stale execution-finished events from a superseded run are ignored.
    pub(crate) run_generation: u64,
    /// Sequence number of the current dispatch decision (the control
    /// channel's idempotence/fencing token).
    pub(crate) dispatch_seq: u64,
    /// True once the worker acknowledged the current dispatch (stops the
    /// at-least-once retransmit loop).
    pub(crate) dispatch_acked: bool,
}

/// Dispatch-time state of a task never dispatched.
static NOT_DISPATCHED: RunState = RunState {
    allocation: None,
    started_at: None,
    measured_wall: None,
    speculative: None,
    run_generation: 0,
    dispatch_seq: 0,
    dispatch_acked: false,
};

impl TaskRecord {
    /// A freshly submitted record of `spec`'s own fields; its shape and
    /// declared requirement are already interned.
    pub(crate) fn new(
        spec: TaskSpec,
        shape: ShapeId,
        declared: DeclaredId,
        submitted_at: SimTime,
    ) -> Self {
        TaskRecord {
            id: spec.id,
            duration: spec.exec.duration,
            submitted_at,
            inputs: spec.inputs.into_boxed_slice(),
            run: None,
            state: TaskState::Waiting,
            shape,
            declared,
            retries: 0,
            interruptions: 0,
        }
    }

    /// The task's id.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// Where the task is.
    pub fn state(&self) -> TaskState {
        self.state
    }

    /// Worker currently responsible for the task, if any.
    pub fn worker(&self) -> Option<WorkerId> {
        match self.state {
            TaskState::Staging(w) | TaskState::Running(w) | TaskState::Returning(w) => Some(w),
            TaskState::Waiting => None,
        }
    }

    /// When the task entered the queue.
    pub fn submitted_at(&self) -> SimTime {
        self.submitted_at
    }

    /// When the current run started executing (`None` while waiting or
    /// staging).
    pub fn started_at(&self) -> Option<SimTime> {
        self.run().started_at
    }

    /// What the master allocated on the worker for the current run.
    pub fn allocation(&self) -> Option<Resources> {
        self.run().allocation
    }

    /// Times the task was re-queued after losing its worker or run.
    pub fn interruptions(&self) -> u32 {
        self.interruptions
    }

    /// Failed execution attempts counted against the retry budget.
    pub fn retries(&self) -> u32 {
        self.retries
    }

    /// The current run generation (0 before the first re-queue).
    pub fn run_generation(&self) -> u64 {
        self.run().run_generation
    }

    /// Sequence number of the current dispatch decision (0 before the
    /// first dispatch).
    pub fn dispatch_seq(&self) -> u64 {
        self.run().dispatch_seq
    }

    /// Dispatch-time state, read-only (defaults before the first
    /// dispatch; nothing is allocated).
    pub(crate) fn run(&self) -> &RunState {
        self.run.as_deref().unwrap_or(&NOT_DISPATCHED)
    }

    /// Dispatch-time state, allocated on first use.
    pub(crate) fn run_mut(&mut self) -> &mut RunState {
        self.run.get_or_insert_with(Box::default)
    }

    /// Back to the queue after losing its worker or run: the run's state
    /// is cleared, a fresh generation fences the lost run's late events,
    /// and the interruption is counted.
    pub(crate) fn requeue(&mut self) {
        self.state = TaskState::Waiting;
        self.interruptions += 1;
        let run = self.run_mut();
        run.speculative = None;
        run.allocation = None;
        run.started_at = None;
        run.run_generation += 1;
        run.dispatch_acked = false;
    }

    /// Heap bytes the record holds beyond its own struct: its inputs and
    /// its run state.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.inputs.len() * size_of::<FileId>()
            + self.run.as_ref().map_or(0, |_| size_of::<RunState>())
    }
}

/// A live task as the master holds it: its record, read together with
/// the master's shape table. Dereferences to the [`TaskRecord`].
#[derive(Debug, Clone, Copy)]
pub struct TaskRef<'a> {
    rec: &'a TaskRecord,
    shapes: &'a ShapeTable,
}

impl<'a> TaskRef<'a> {
    pub(crate) fn new(rec: &'a TaskRecord, shapes: &'a ShapeTable) -> Self {
        TaskRef { rec, shapes }
    }

    /// The task's interned category.
    pub fn cat(self) -> CategoryId {
        self.shapes.cat(self.rec.shape)
    }

    /// Resources declared for the task now (a waiting task's may have
    /// been raised since submission).
    pub fn declared(self) -> Option<Resources> {
        self.shapes.declared(self.rec.declared)
    }

    /// The spec the record holds: the submitted one, with the declared
    /// requirement as it stands now.
    pub fn spec(self) -> TaskSpec {
        let shape = self.shapes.shape(self.rec.shape);
        TaskSpec {
            id: self.rec.id,
            cat: shape.cat,
            inputs: self.rec.inputs.to_vec(),
            output_mb: shape.output_mb,
            declared: self.declared(),
            actual: shape.actual,
            exec: ExecModel {
                duration: self.rec.duration,
                cpu_fraction: shape.cpu_fraction,
            },
        }
    }
}

impl std::ops::Deref for TaskRef<'_> {
    type Target = TaskRecord;

    fn deref(&self) -> &TaskRecord {
        self.rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::{Shape, ShapeTable};

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

    fn record(submitted_at: SimTime) -> TaskRecord {
        let spec = spec();
        let mut shapes = ShapeTable::default();
        let shape = shapes.intern(Shape {
            cat: spec.cat,
            output_mb: spec.output_mb,
            actual: spec.actual,
            cpu_fraction: spec.exec.cpu_fraction,
        });
        let declared = shapes.intern_declared(spec.declared);
        TaskRecord::new(spec, shape, declared, submitted_at)
    }

    #[test]
    fn record_lifecycle_accessors() {
        let mut r = record(SimTime::from_secs(1));
        assert_eq!(r.state, TaskState::Waiting);
        assert_eq!(r.worker(), None);
        assert_eq!((r.run_generation(), r.dispatch_seq()), (0, 0));
        assert_eq!(r.heap_bytes(), size_of::<FileId>(), "no run state yet");
        r.state = TaskState::Running(WorkerId(3));
        r.run_mut().started_at = Some(SimTime::from_secs(2));
        assert_eq!(r.worker(), Some(WorkerId(3)));
        r.requeue();
        assert_eq!((r.state, r.started_at()), (TaskState::Waiting, None));
        assert_eq!((r.run_generation(), r.interruptions), (1, 1));
    }

    #[test]
    fn state_worker_mapping_is_exhaustive() {
        for (state, expect) in [
            (TaskState::Waiting, None),
            (TaskState::Staging(WorkerId(1)), Some(WorkerId(1))),
            (TaskState::Running(WorkerId(2)), Some(WorkerId(2))),
            (TaskState::Returning(WorkerId(3)), Some(WorkerId(3))),
        ] {
            let mut r = record(SimTime::ZERO);
            r.state = state;
            assert_eq!(r.worker(), expect);
        }
    }
}
