//! Timing wrappers around the two layers the driver calls out to: the
//! scaling policy and the what-if world it is handed.
//!
//! [`TimedPolicy`] wraps any [`ScalingPolicy`] and times every
//! `decide_with_world` call (the driver's only way in) from outside; it
//! hands the inner policy a [`TimedWorld`] that times every
//! `WhatIf::branch` the policy makes, so the policy's self time excludes
//! its branches. Both only observe: the
//! inner policy sees the same contexts and returns the same actions, so
//! a traced run simulates exactly what the untraced run does (the
//! benchmark's correctness gate checks this on every traced run).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use hta_core::policy::{PolicyContext, ScaleAction, ScalingPolicy};
use hta_core::whatif::{BranchOutcome, BranchSpec, WhatIf};
use hta_des::Duration;

/// What the wrappers recorded over one run.
#[derive(Debug, Default)]
pub struct PolicyProbe {
    /// Host seconds of each decision, excluding its branches.
    pub decide_self_s: Vec<f64>,
    /// What-if branches evaluated.
    pub branches: u64,
    /// Host seconds spent inside `WhatIf::branch`.
    pub branch_s: f64,
    /// Simulated events processed inside branches.
    pub branch_events: u64,
}

impl PolicyProbe {
    /// Policy decisions made.
    pub fn calls(&self) -> u64 {
        self.decide_self_s.len() as u64
    }

    /// Total decision self time, seconds.
    pub fn decide_s(&self) -> f64 {
        self.decide_self_s.iter().sum()
    }
}

/// Shared handle to a run's probe. Forks and checkpoints clone the
/// policy, and every clone records into the same probe.
pub type ProbeHandle = Rc<RefCell<PolicyProbe>>;

/// A [`ScalingPolicy`] that times its inner policy.
#[derive(Clone)]
pub struct TimedPolicy {
    inner: Box<dyn ScalingPolicy>,
    probe: ProbeHandle,
}

impl TimedPolicy {
    /// Wrap `inner`, recording into `probe`.
    pub fn new(inner: Box<dyn ScalingPolicy>, probe: ProbeHandle) -> Self {
        TimedPolicy { inner, probe }
    }
}

impl ScalingPolicy for TimedPolicy {
    fn name(&self) -> String {
        self.inner.name()
    }

    /// Untimed: the driver always decides through `decide_with_world`.
    fn decide(&mut self, ctx: &PolicyContext<'_>) -> (ScaleAction, Duration) {
        self.inner.decide(ctx)
    }

    fn desired(&self) -> usize {
        self.inner.desired()
    }

    fn clone_box(&self) -> Box<dyn ScalingPolicy> {
        Box::new(self.clone())
    }

    fn decide_with_world(
        &mut self,
        ctx: &PolicyContext<'_>,
        world: &dyn WhatIf,
    ) -> (ScaleAction, Duration) {
        let timed = TimedWorld {
            inner: world,
            probe: &self.probe,
        };
        let branch_before = self.probe.borrow().branch_s;
        let start = Instant::now();
        let out = self.inner.decide_with_world(ctx, &timed);
        let elapsed = start.elapsed().as_secs_f64();
        let mut probe = self.probe.borrow_mut();
        let in_branches = probe.branch_s - branch_before;
        probe.decide_self_s.push(elapsed - in_branches);
        out
    }
}

/// A [`WhatIf`] world that times the world it wraps.
pub struct TimedWorld<'a> {
    inner: &'a dyn WhatIf,
    probe: &'a ProbeHandle,
}

impl WhatIf for TimedWorld<'_> {
    fn branch(&self, spec: &BranchSpec) -> BranchOutcome {
        let start = Instant::now();
        let out = self.inner.branch(spec);
        let elapsed = start.elapsed().as_secs_f64();
        let mut probe = self.probe.borrow_mut();
        probe.branches += 1;
        probe.branch_s += elapsed;
        probe.branch_events += out.events;
        out
    }
}
