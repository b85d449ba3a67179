//! The master↔worker control protocol.
//!
//! Every piece of control traffic between the master and its workers is
//! one of these typed messages, routed through the master's
//! [`NetChannel`](hta_des::NetChannel) instead of a direct method call.
//! With a zero-fault channel the routing collapses to an inline call and
//! the simulation is byte-identical to the pre-protocol code; with faults
//! enabled, messages can be delayed, lost, duplicated, or cut off by a
//! partition — and the delivery semantics below keep the run correct
//! anyway:
//!
//! * **Dispatch** is at-least-once: the master retransmits on a seeded
//!   backoff schedule until the worker's [`ControlMsg::DispatchAck`]
//!   arrives. The per-dispatch `seq` makes retransmits idempotent — a
//!   worker already staging that sequence ignores the copy.
//! * **Completion** reports carry the task's run generation; a report
//!   from a presumed-dead worker whose task was already re-dispatched
//!   ("zombie" completion) fails the generation check and is fenced.
//! * **Heartbeat** keeps the worker's lease alive; a lease expiring
//!   without one makes the master presume the worker dead and re-queue
//!   its tasks.

use crate::ids::{TaskId, WorkerId};

/// One control message over the master↔worker link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlMsg {
    /// Master → worker: start staging/running a task. `seq` is the
    /// fencing token of this particular dispatch decision; retransmits
    /// reuse it, a re-dispatch after presumed death allocates a new one.
    Dispatch {
        /// The dispatched task.
        task: TaskId,
        /// Dispatch sequence number (global, monotonic).
        seq: u64,
    },
    /// Worker → master: dispatch `seq` received; stop retransmitting.
    DispatchAck {
        /// The acknowledged task.
        task: TaskId,
        /// The acknowledged dispatch sequence number.
        seq: u64,
    },
    /// Worker → master: the run tagged `run_gen` finished executing.
    /// Fenced by the run-generation check on receipt.
    Completion {
        /// The finished task.
        task: TaskId,
        /// The run generation that finished.
        run_gen: u64,
    },
    /// Worker → master: still alive; renews the sender's lease and
    /// timestamps the master's worker telemetry.
    Heartbeat {
        /// The reporting worker.
        worker: WorkerId,
    },
}
