//! Control-plane crash-recovery types.
//!
//! The driver checkpoints the whole control plane — master, operator,
//! active scaling policy, init-time tracker — every
//! [`checkpoint_interval`](crate::fault::ControlPlaneFaults::checkpoint_interval)
//! into a [`Checkpoint<ControlPlaneState>`](hta_des::Checkpoint), and
//! appends every control-plane *decision* made since the last checkpoint
//! to a [`Wal<WalRecord>`](hta_des::Wal). Recovery after a crash is:
//! restore the checkpoint, reset its data-plane beliefs
//! ([`Master::recover_reset_data_plane`](hta_workqueue::master::Master)),
//! replay the WAL in order, reconcile warm-up probes, then re-adopt the
//! workers that survived the outage.
//!
//! WAL records carry **decided data, not decision inputs** (see
//! [`hta_des::wal`]): a `Submit` embeds the full task spec with its
//! already-sampled wall time, so replay never re-draws randomness.
//! Statistics observations are deliberately *not* logged — recovered
//! estimates revert to their checkpoint values, which is the bounded
//! amnesia the chaos-recovery harness asserts on.

use hta_des::{branch_salt, SimTime, SnapshotState};
use hta_makeflow::JobId;
use hta_resources::Resources;
use hta_workqueue::master::Master;
use hta_workqueue::task::TaskSpec;
use hta_workqueue::TaskId;

use crate::init_time::InitTimeTracker;
use crate::operator::Operator;
use crate::policy::ScalingPolicy;

/// One durably logged control-plane decision.
#[derive(Debug, Clone)]
pub enum WalRecord {
    /// A job was translated and submitted to the master. The spec embeds
    /// every decided value (task id, sampled wall time, declared
    /// resources), so replay reconstructs the submission bit-for-bit.
    Submit {
        /// The workflow job.
        job: JobId,
        /// The exact spec handed to the master.
        spec: TaskSpec,
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
    /// An open-loop trace arrival was admitted. The spec embeds every
    /// decided value exactly as drawn from the generator, its category as
    /// an id every checkpoint already holds; replay also advances the
    /// checkpoint-restored trace cursor one event, so the generator never
    /// re-draws an already-admitted arrival's randomness.
    TraceSubmit {
        /// The exact spec handed to the master.
        spec: TaskSpec,
    },
}

/// Everything the driver checkpoints as "the control plane".
///
/// The cluster, the event queue, and the metrics recorder are *not* part
/// of this state: nodes and pods keep running through an outage (they are
/// the data plane), and the recorder represents the observer, which also
/// survives.
#[derive(Clone)]
pub struct ControlPlaneState {
    /// The Work Queue master.
    pub master: Master,
    /// The Makeflow operator.
    pub operator: Operator,
    /// The active scaling policy (cloned behind the trait).
    pub policy: Box<dyn ScalingPolicy>,
    /// The init-time tracker feeding the estimator.
    pub tracker: InitTimeTracker,
    /// The open-loop trace cursor (None for workflow-driven runs): the
    /// generator's RNG streams, lookahead buffer and counters, captured
    /// so WAL replay advances the exact arrival stream the crashed
    /// control plane was consuming.
    pub arrivals: Option<hta_trace::ArrivalSource>,
}

impl SnapshotState for ControlPlaneState {
    /// Re-partition the RNG streams of the stateful members. Stream
    /// indices mirror the driver's own `SnapshotState` impl so a salted
    /// control-plane fork decorrelates the same way a driver fork does.
    fn reseed(&mut self, salt: u64) {
        self.master.reseed(branch_salt(salt, 2));
        self.operator.reseed(branch_salt(salt, 3));
        if let Some(a) = self.arrivals.as_mut() {
            a.reseed(branch_salt(salt, 4));
        }
    }
}

/// What one crash-recovery cycle did (appended to
/// [`RunResult::recoveries`](crate::driver::RunResult)).
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
