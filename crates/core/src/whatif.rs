//! Counterfactual ("what-if") branch evaluation.
//!
//! The [`WhatIf`] trait is the narrow waist between the scaling layer and
//! the snapshot/fork machinery: a world that implements it can be asked
//! "what happens over the next horizon if we take this action now?"
//! without the asker knowing anything about drivers, clusters, or event
//! queues. `SystemDriver` implements it by forking itself (clone + RNG
//! partition — see `hta_des::SnapshotState`), applying the candidate
//! action, and running the branch forward with event/time budgets. The
//! world a deciding policy is handed rolls its branches out under a
//! frozen (hold) policy, and runs a [`WhatIf::branch_all`] batch side by
//! side on scoped threads. A branch records only the supply integral
//! its [`BranchOutcome::cost_core_s`] is read from.
//!
//! Everything crossing the trait is plain data, which is what lets the
//! model-predictive policy in `crates/forecast` depend only on this crate
//! while the driver stays free of any forecast dependency.

use hta_des::Duration;

use crate::policy::ScaleAction;

/// A candidate branch to evaluate from the current decision point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchSpec {
    /// RNG partition salt. `0` replays the parent's own stochastic future
    /// exactly; any other value gives the branch independent — but
    /// reproducible — streams. Ensemble evaluation uses several salts per
    /// candidate action.
    pub salt: u64,
    /// The scaling action applied at the fork instant (the "input" of the
    /// model-predictive rollout; the pool is held constant afterwards).
    pub initial_action: ScaleAction,
    /// How far past the fork instant to simulate.
    pub horizon: Duration,
    /// Hard cap on events processed in the branch (budget guard against
    /// branch explosion; the branch reports [`BranchStop::Budget`] when
    /// it hits the cap).
    pub max_events: u64,
}

/// Why a branch rollout stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchStop {
    /// The workload resolved (completed or degraded gracefully) within
    /// the horizon.
    Finished,
    /// The horizon elapsed.
    Horizon,
    /// The event budget ran out.
    Budget,
    /// The branch's event queue drained (quiescent before the horizon).
    Quiescent,
}

/// What a branch rollout observed. All quantities cover only the branch
/// window `[fork instant, stop instant]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchOutcome {
    /// Simulated seconds the branch ran past the fork instant.
    pub elapsed_s: f64,
    /// Events the branch processed.
    pub events: u64,
    /// Why the rollout stopped.
    pub stop: BranchStop,
    /// True when the workload resolved within the horizon.
    pub finished: bool,
    /// Tasks completed during the branch window.
    pub completed_delta: usize,
    /// Tasks waiting in the queue (plus operator-held jobs) at stop time.
    pub tasks_waiting: usize,
    /// Tasks running at stop time.
    pub tasks_running: usize,
    /// Live worker pods (pending + running) at stop time.
    pub live_worker_pods: usize,
    /// Provisioned capacity integrated over the branch window
    /// (`∫ supply dt`, core·seconds) — the branch's cost.
    pub cost_core_s: f64,
}

impl BranchOutcome {
    /// Tasks not yet completed at stop time (waiting + running).
    pub fn remaining_tasks(&self) -> usize {
        self.tasks_waiting + self.tasks_running
    }
}

/// A world that can evaluate counterfactual futures without being
/// perturbed by them.
///
/// Implementations guarantee **parent isolation**: calling
/// [`WhatIf::branch`] any number of times leaves the receiver's own
/// future bitwise identical to never having called it (the fork-
/// determinism property tests in `crates/forecast` enforce this against
/// the event digest).
pub trait WhatIf {
    /// Fork a branch, apply `spec.initial_action`, simulate to the
    /// horizon (or a budget), and report what happened.
    fn branch(&self, spec: &BranchSpec) -> BranchOutcome;

    /// Evaluate every spec; the outcomes come back in spec order and are
    /// exactly what [`WhatIf::branch`] reports for each. The default runs
    /// them one by one; a world may run them side by side.
    fn branch_all(&self, specs: &[BranchSpec]) -> Vec<BranchOutcome> {
        specs.iter().map(|spec| self.branch(spec)).collect()
    }

    /// True when [`WhatIf::branch_all`] runs its branches side by side.
    /// A caller may then hand over in one batch every branch it might
    /// need and drop those it ends up not using; otherwise it should
    /// branch one by one and run only the branches it uses. The default
    /// runs a batch in turn.
    fn batches_in_parallel(&self) -> bool {
        false
    }
}
