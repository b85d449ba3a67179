//! # hta-forecast — what-if forecasting and model-predictive scaling
//!
//! The paper's Algorithm 1 predicts the shortage at the end of the next
//! initialization cycle with a lightweight abstract model (the
//! `estimator` module in `hta-core`): it ignores staging, link
//! contention, co-dispatch and injected faults. This crate takes the
//! opposite approach — *the simulator is its own best model*. Using the
//! snapshot/fork capability ([`hta_des::SnapshotState`], surfaced
//! through the [`WhatIf`] trait), the [`ForecastEngine`] forks the live
//! system into K candidate branches at a decision point, applies one
//! scaling action per branch, rolls each forward a bounded horizon under
//! an ensemble of RNG partitions, and scores the branches on a
//! cost × makespan objective.
//!
//! [`MpcPolicy`] wraps the engine as a [`ScalingPolicy`]: classic
//! receding-horizon model-predictive control over the worker pool,
//! selectable next to HTA/HPA/Fixed from `hta-run --policy mpc` and the
//! bench bins.
//!
//! Budgets are first-class: every branch carries an event cap, the
//! engine carries a per-decision branch cap, and candidates whose first
//! rollouts already score far above the current best are abandoned
//! early — forecast work cannot explode.

use hta_core::whatif::{BranchOutcome, BranchSpec, WhatIf};
use hta_core::{PolicyContext, ScaleAction, ScalingPolicy};
use hta_des::{branch_salt, Duration};

/// Candidate pool deltas evaluated at each decision point.
const DELTAS: [i32; 7] = [-2, -1, 0, 1, 2, 3, 4];
/// Event cap per branch rollout.
const MAX_EVENTS_PER_BRANCH: u64 = 100_000;
/// Abandon a candidate's remaining ensemble rollouts once its mean score
/// exceeds this multiple of the best mean seen so far.
const EARLY_ABORT_FACTOR: f64 = 3.0;
/// [`MpcPolicy`]'s re-evaluation cadence.
const MPC_INTERVAL: Duration = Duration::from_secs(30);

/// Tuning for the [`ForecastEngine`].
#[derive(Debug, Clone)]
pub struct ForecastConfig {
    /// RNG partitions (branch seeds) per candidate. 1 = single rollout;
    /// more average out stochastic noise at proportional cost.
    pub ensemble: usize,
    /// Hard cap on branch rollouts per decision (the branch-budget knob:
    /// candidates beyond the budget are not evaluated and the report is
    /// marked truncated).
    pub max_branches: usize,
}

impl Default for ForecastConfig {
    fn default() -> Self {
        ForecastConfig {
            ensemble: 2,
            max_branches: 32,
        }
    }
}

/// One candidate action to branch on.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Display label (e.g. `"+2"` or `"add 5 workers"`).
    pub label: String,
    /// The action applied at the fork instant.
    pub action: ScaleAction,
}

impl Candidate {
    /// A labelled candidate.
    pub fn new(label: impl Into<String>, action: ScaleAction) -> Self {
        Candidate {
            label: label.into(),
            action,
        }
    }
}

/// Ensemble-aggregated result for one candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateScore {
    /// The candidate's label.
    pub label: String,
    /// The candidate's action.
    pub action: ScaleAction,
    /// Objective value (lower is better): ensemble mean of the
    /// extrapolated `cost × makespan` — `(cost/frac) × (elapsed/frac)`
    /// where `frac` is the branch's completed fraction of its visible
    /// work (exactly `cost × makespan` when the branch finishes).
    pub score: f64,
    /// Mean branch cost (`∫ supply dt` over the branch window, core·s).
    pub mean_cost_core_s: f64,
    /// Mean simulated seconds the branches ran.
    pub mean_elapsed_s: f64,
    /// Mean tasks still unfinished at branch end.
    pub mean_remaining: f64,
    /// Fraction of rollouts in which the workload resolved.
    pub finished_frac: f64,
    /// Rollouts actually run (may be under the ensemble size after an
    /// early abort or budget exhaustion; 0 = never evaluated).
    pub rollouts: usize,
    /// The raw per-rollout outcomes.
    pub outcomes: Vec<BranchOutcome>,
}

/// Everything one forecast decision produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ForecastReport {
    /// Per-candidate scores, in candidate order.
    pub candidates: Vec<CandidateScore>,
    /// Index into `candidates` of the best (lowest) scored one that was
    /// actually evaluated.
    pub best: usize,
    /// Total branch rollouts run for this decision.
    pub branches_run: usize,
    /// Total events simulated across the rollouts.
    pub events_simulated: u64,
    /// True when the branch budget cut evaluation short.
    pub truncated: bool,
}

impl ForecastReport {
    /// The winning candidate.
    pub fn winner(&self) -> &CandidateScore {
        &self.candidates[self.best]
    }

    /// Render a compact per-candidate table (for examples and bins).
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<14} {:>12} {:>10} {:>10} {:>9} {:>10}",
            "candidate", "cost core·s", "elapsed s", "remaining", "finished", "score"
        );
        for (i, c) in self.candidates.iter().enumerate() {
            if c.rollouts == 0 {
                let _ = writeln!(out, "{:<14} (not evaluated: branch budget)", c.label);
                continue;
            }
            let _ = writeln!(
                out,
                "{:<14} {:>12.0} {:>10.0} {:>10.1} {:>8.0}% {:>10.0}{}",
                c.label,
                c.mean_cost_core_s,
                c.mean_elapsed_s,
                c.mean_remaining,
                c.finished_frac * 100.0,
                c.score,
                if i == self.best { "  ◀ best" } else { "" },
            );
        }
        out
    }
}

/// Forks candidate branches off a [`WhatIf`] world and scores them.
///
/// The engine is deterministic: rollout salts are derived from an
/// internal decision counter, the candidate index and the ensemble
/// index, so the same engine driving the same world always forks the
/// same branches and reaches the same decision.
#[derive(Debug, Clone)]
pub struct ForecastEngine {
    cfg: ForecastConfig,
    /// Decision counter — salts each decision's branches differently.
    decisions: u64,
}

impl ForecastEngine {
    /// An engine with the given tuning.
    pub fn new(cfg: ForecastConfig) -> Self {
        ForecastEngine { cfg, decisions: 0 }
    }

    /// Build the candidate list for a pool-delta decision, deduplicating
    /// deltas that clamp to the same effective action (e.g. every
    /// positive delta is `None` when the pool is at `max_workers`).
    pub fn delta_candidates(&self, live: usize, max_workers: usize) -> Vec<Candidate> {
        let mut out: Vec<Candidate> = Vec::new();
        for delta in DELTAS {
            let action = if delta > 0 {
                let n = (delta as usize).min(max_workers.saturating_sub(live));
                if n == 0 {
                    ScaleAction::None
                } else {
                    ScaleAction::CreateWorkers(n)
                }
            } else if delta < 0 {
                let n = ((-delta) as usize).min(live);
                if n == 0 {
                    ScaleAction::None
                } else {
                    ScaleAction::DrainWorkers(n)
                }
            } else {
                ScaleAction::None
            };
            if out.iter().all(|c| c.action != action) {
                out.push(Candidate::new(format!("{delta:+}"), action));
            }
        }
        out
    }

    /// Evaluate `candidates` against the world over `horizon` and score
    /// them. Increments the decision counter (so the next call partitions
    /// fresh RNG streams even for identical candidates).
    ///
    /// When the world runs batches side by side and the branch budget
    /// covers every candidate × ensemble rollout, they are handed to it
    /// as one [`WhatIf::branch_all`] batch, and the loop below replays
    /// the sequential rules over the outcomes in order. The early abort
    /// decides which outcomes are kept, and only the kept ones count in
    /// the report, so it is exactly the sequential report. Otherwise the
    /// rollouts run one by one, and only those the loop keeps run.
    pub fn evaluate(
        &mut self,
        world: &dyn WhatIf,
        candidates: &[Candidate],
        horizon: Duration,
    ) -> ForecastReport {
        self.decisions += 1;
        let decision_salt = self.decisions;
        let ensemble = self.cfg.ensemble.max(1);
        // Two-level salt: decision ⊕ candidate, then ensemble index. Never
        // zero, so branches never alias the parent's own stochastic future.
        let spec = |ci: usize, ei: usize| BranchSpec {
            salt: branch_salt(branch_salt(decision_salt, ci as u64 + 1), ei as u64 + 1),
            initial_action: candidates[ci].action,
            horizon,
            max_events: MAX_EVENTS_PER_BRANCH,
        };
        let batch = (world.batches_in_parallel()
            && candidates.len() * ensemble <= self.cfg.max_branches)
            .then(|| {
                let specs: Vec<BranchSpec> = (0..candidates.len())
                    .flat_map(|ci| (0..ensemble).map(move |ei| spec(ci, ei)))
                    .collect();
                world.branch_all(&specs)
            });
        let mut branches_run = 0usize;
        let mut events_simulated = 0u64;
        let mut truncated = false;
        let mut best_score = f64::INFINITY;
        let mut scores: Vec<CandidateScore> = Vec::with_capacity(candidates.len());
        for (ci, cand) in candidates.iter().enumerate() {
            let mut outcomes: Vec<BranchOutcome> = Vec::new();
            for ei in 0..ensemble {
                if branches_run >= self.cfg.max_branches {
                    truncated = true;
                    break;
                }
                let outcome = match &batch {
                    Some(outcomes) => outcomes[ci * ensemble + ei],
                    None => world.branch(&spec(ci, ei)),
                };
                branches_run += 1;
                events_simulated += outcome.events;
                outcomes.push(outcome);
                // Early abort: stop burning ensemble rollouts on a
                // candidate already far above the best mean.
                if best_score.is_finite() {
                    let mean = Self::mean_objective(&outcomes);
                    if mean > EARLY_ABORT_FACTOR * best_score {
                        break;
                    }
                }
            }
            let score = self.summarize(cand, outcomes);
            if score.rollouts > 0 && score.score < best_score {
                best_score = score.score;
            }
            scores.push(score);
        }
        let best = scores
            .iter()
            .enumerate()
            .filter(|(_, s)| s.rollouts > 0)
            .min_by(|(_, a), (_, b)| a.score.total_cmp(&b.score))
            .map(|(i, _)| i)
            .unwrap_or(0);
        ForecastReport {
            candidates: scores,
            best,
            branches_run,
            events_simulated,
            truncated,
        }
    }

    /// Per-rollout objective: `cost × makespan`, normalized per unit of
    /// completed work.
    ///
    /// `score = cost × elapsed / done²`, where `done` counts tasks
    /// completed inside the branch window plus half credit for tasks
    /// still on a worker at the horizon (in-flight progress the branch
    /// bought). Every candidate rolls the same window forward, so the
    /// absolute yardstick compares them fairly — crucially it does NOT
    /// normalize by the *visible* task total, which expands when a
    /// branch's progress unlocks the next DAG stage (fractional-progress
    /// scoring punishes exactly the branches that advance the workflow).
    /// When branches finish the workload, `done` is equal across them
    /// and the score reduces to the literal spend × runtime product.
    /// A branch that drains itself into a dead end — work left, nothing
    /// running, no pods alive to ever run it — is rejected outright.
    fn objective(outcome: &BranchOutcome) -> f64 {
        if !outcome.finished
            && outcome.tasks_waiting > 0
            && outcome.tasks_running == 0
            && outcome.live_worker_pods == 0
        {
            return f64::INFINITY;
        }
        let done = outcome.completed_delta as f64 + 0.5 * outcome.tasks_running as f64;
        let base = outcome.cost_core_s.max(1.0) * outcome.elapsed_s.max(1.0);
        base / done.max(0.25).powi(2)
    }

    fn mean_objective(outcomes: &[BranchOutcome]) -> f64 {
        if outcomes.is_empty() {
            return f64::INFINITY;
        }
        outcomes.iter().map(Self::objective).sum::<f64>() / outcomes.len() as f64
    }

    fn summarize(&self, cand: &Candidate, outcomes: Vec<BranchOutcome>) -> CandidateScore {
        let n = outcomes.len();
        let mean = |f: &dyn Fn(&BranchOutcome) -> f64| -> f64 {
            if n == 0 {
                0.0
            } else {
                outcomes.iter().map(f).sum::<f64>() / n as f64
            }
        };
        CandidateScore {
            label: cand.label.clone(),
            action: cand.action,
            score: Self::mean_objective(&outcomes),
            mean_cost_core_s: mean(&|o| o.cost_core_s),
            mean_elapsed_s: mean(&|o| o.elapsed_s),
            mean_remaining: mean(&|o| o.remaining_tasks() as f64),
            finished_frac: mean(&|o| if o.finished { 1.0 } else { 0.0 }),
            rollouts: n,
            outcomes,
        }
    }
}

/// Tuning for [`MpcPolicy`].
#[derive(Debug, Clone, Default)]
pub struct MpcConfig {
    /// Engine tuning.
    pub forecast: ForecastConfig,
}

/// Model-predictive scaling: at every decision point, fork one branch
/// per candidate pool delta, roll each forward a bounded horizon in the
/// full simulator, and apply the argmin of the cost × makespan
/// objective.
///
/// Compared to HTA's Algorithm 1 the forecast sees everything the
/// simulator models — staging, egress contention, co-dispatch, injected
/// faults — at the price of simulating K·E bounded branches per decision
/// instead of evaluating a closed-form estimate.
#[derive(Debug, Clone)]
pub struct MpcPolicy {
    engine: ForecastEngine,
    last_desired: usize,
    /// The last decision's report (introspection for traces and tests).
    last_report: Option<ForecastReport>,
}

impl MpcPolicy {
    /// A fresh policy.
    pub fn new(cfg: MpcConfig) -> Self {
        MpcPolicy {
            engine: ForecastEngine::new(cfg.forecast),
            last_desired: 0,
            last_report: None,
        }
    }

    /// The most recent forecast report, if a decision has been made.
    pub fn last_report(&self) -> Option<&ForecastReport> {
        self.last_report.as_ref()
    }

    /// The rollout horizon, derived from the live measurements. It must
    /// cover the actuation delay (a worker created now only boots after
    /// `init_time`) PLUS an execution window long enough for the new
    /// capacity to finish real work — a bare one-init-cycle horizon ends
    /// exactly when created workers arrive, every scale-up looks like
    /// pure cost, and the argmin degenerates to "drain".
    fn horizon_for(ctx: &PolicyContext<'_>) -> Duration {
        // The waiting categories come from the demand histogram, which
        // holds exactly the categories with a live waiting task: O(distinct),
        // not O(queue).
        let waiting = ctx.queue.waiting_demand().iter().map(|(cat, _, _)| cat);
        let mut exec = Duration::ZERO;
        for cat in waiting.chain(ctx.held_jobs.iter().map(|(cat, _)| cat)) {
            if let Some(e) = ctx.stats.estimate(*cat) {
                exec = exec.max(e.mean_wall);
            }
        }
        if exec == Duration::ZERO {
            // No learned statistics yet (warm-up): assume a generous
            // execution window rather than a myopic one.
            exec = Duration::from_secs(300);
        }
        let h = ctx.init_time + exec.mul_f64(1.5);
        h.max(Duration::from_secs(120))
            .min(Duration::from_secs(1_800))
    }
}

impl ScalingPolicy for MpcPolicy {
    fn name(&self) -> String {
        "MPC".into()
    }

    /// Without a world to fork there is nothing to predict: hold the
    /// pool. The driver always routes through
    /// [`ScalingPolicy::decide_with_world`].
    fn decide(&mut self, ctx: &PolicyContext<'_>) -> (ScaleAction, Duration) {
        self.last_desired = ctx.live_worker_pods;
        (ScaleAction::None, MPC_INTERVAL)
    }

    fn decide_with_world(
        &mut self,
        ctx: &PolicyContext<'_>,
        world: &dyn WhatIf,
    ) -> (ScaleAction, Duration) {
        if ctx.workload_done {
            self.last_desired = 0;
            let live = ctx.live_worker_pods;
            return if live > 0 {
                (ScaleAction::DrainWorkers(live), MPC_INTERVAL)
            } else {
                (ScaleAction::None, MPC_INTERVAL)
            };
        }
        let candidates = self
            .engine
            .delta_candidates(ctx.live_worker_pods, ctx.max_workers);
        let report = self
            .engine
            .evaluate(world, &candidates, Self::horizon_for(ctx));
        let action = report.winner().action;
        self.last_desired = match action {
            ScaleAction::CreateWorkers(n) => ctx.live_worker_pods + n,
            ScaleAction::DrainWorkers(n) | ScaleAction::KillWorkers(n) => {
                ctx.live_worker_pods.saturating_sub(n)
            }
            ScaleAction::None => ctx.live_worker_pods,
        };
        self.last_report = Some(report);
        (action, MPC_INTERVAL)
    }

    fn desired(&self) -> usize {
        self.last_desired
    }

    fn clone_box(&self) -> Box<dyn ScalingPolicy> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hta_core::whatif::BranchStop;
    use std::cell::Cell;

    /// A fake world with a quadratic sweet spot at +2 workers.
    struct FakeWorld;

    impl WhatIf for FakeWorld {
        fn branch(&self, spec: &BranchSpec) -> BranchOutcome {
            let delta: i64 = match spec.initial_action {
                ScaleAction::CreateWorkers(n) => n as i64,
                ScaleAction::DrainWorkers(n) | ScaleAction::KillWorkers(n) => -(n as i64),
                ScaleAction::None => 0,
            };
            let miss = (delta - 2).unsigned_abs() as f64;
            BranchOutcome {
                elapsed_s: spec.horizon.as_secs_f64(),
                events: 100 + spec.salt % 7,
                stop: BranchStop::Horizon,
                finished: false,
                completed_delta: 10,
                tasks_waiting: (miss * 3.0) as usize,
                tasks_running: 2,
                live_worker_pods: (5 + delta).max(0) as usize,
                cost_core_s: 500.0 + miss * 40.0,
            }
        }
    }

    /// [`FakeWorld`] with a cliff: +3 and +4 workers cost ten times as
    /// much, so their ensembles abort after one rollout.
    struct CliffWorld;

    impl WhatIf for CliffWorld {
        fn branch(&self, spec: &BranchSpec) -> BranchOutcome {
            let mut out = FakeWorld.branch(spec);
            if matches!(spec.initial_action, ScaleAction::CreateWorkers(n) if n >= 3) {
                out.cost_core_s *= 10.0;
            }
            out
        }
    }

    /// Wraps a world, counting its batches and branches. When
    /// `parallel`, it says it runs batches side by side, and runs each
    /// back to front to show that only the order it hands back counts.
    struct Counted<'a> {
        inner: &'a dyn WhatIf,
        parallel: bool,
        batches: Cell<usize>,
        branches: Cell<usize>,
    }

    impl WhatIf for Counted<'_> {
        fn branch(&self, spec: &BranchSpec) -> BranchOutcome {
            self.branches.set(self.branches.get() + 1);
            self.inner.branch(spec)
        }

        fn batches_in_parallel(&self) -> bool {
            self.parallel
        }

        fn branch_all(&self, specs: &[BranchSpec]) -> Vec<BranchOutcome> {
            self.batches.set(self.batches.get() + 1);
            let mut out: Vec<BranchOutcome> = specs.iter().rev().map(|s| self.branch(s)).collect();
            out.reverse();
            out
        }
    }

    /// One decision on `world` wrapped as [`Counted`], and one on `world`
    /// itself: the two reports, and the batches and branches the wrapper
    /// counted.
    fn counted_and_plain(
        world: &dyn WhatIf,
        parallel: bool,
        cfg: ForecastConfig,
    ) -> (ForecastReport, ForecastReport, (usize, usize)) {
        let mut engine = ForecastEngine::new(cfg);
        let candidates = engine.delta_candidates(5, 20);
        let mut twin = engine.clone();
        let counted = Counted {
            inner: world,
            parallel,
            batches: Cell::new(0),
            branches: Cell::new(0),
        };
        let a = engine.evaluate(&counted, &candidates, Duration::from_secs(120));
        let b = twin.evaluate(world, &candidates, Duration::from_secs(120));
        (a, b, (counted.batches.get(), counted.branches.get()))
    }

    #[test]
    fn the_batch_path_reports_what_the_sequential_path_reports() {
        let (a, b, counts) = counted_and_plain(&FakeWorld, true, ForecastConfig::default());
        assert_eq!(counts, (1, 14), "one batch of 7 candidates × 2");
        assert_eq!(a, b);
        assert_eq!(a.branches_run, 14);
    }

    /// The batch runs every rollout, but the replayed early abort keeps
    /// only those the sequential loop runs: the report counts 12 of 14.
    #[test]
    fn the_batch_path_replays_the_early_abort() {
        let (a, b, counts) = counted_and_plain(&CliffWorld, true, ForecastConfig::default());
        assert_eq!(counts, (1, 14), "two of them speculative");
        assert_eq!(a, b);
        assert_eq!(a.branches_run, 12, "+3 and +4 abort after one rollout");
        let aborted: Vec<&str> = a
            .candidates
            .iter()
            .filter(|c| c.rollouts == 1)
            .map(|c| c.label.as_str())
            .collect();
        assert_eq!(aborted, ["+3", "+4"]);
        let kept: u64 = a
            .candidates
            .iter()
            .flat_map(|c| &c.outcomes)
            .map(|o| o.events)
            .sum();
        assert_eq!(
            a.events_simulated, kept,
            "the dropped rollouts go uncounted"
        );
    }

    /// A world that runs a batch in turn is never handed one: it runs
    /// only the rollouts the loop keeps.
    #[test]
    fn a_sequential_world_branches_one_by_one() {
        let (a, b, counts) = counted_and_plain(&CliffWorld, false, ForecastConfig::default());
        assert_eq!(counts, (0, 12));
        assert_eq!(a, b);
    }

    /// Over the branch budget the engine never batches: the budget stops
    /// the sequential loop before it would run everything.
    #[test]
    fn an_over_budget_decision_branches_one_by_one() {
        let cfg = ForecastConfig {
            max_branches: 3,
            ensemble: 2,
        };
        let (a, b, counts) = counted_and_plain(&CliffWorld, true, cfg);
        assert_eq!(counts, (0, 3));
        assert_eq!(a, b);
        assert!(a.truncated);
        assert_eq!(a.branches_run, 3);
    }

    #[test]
    fn engine_picks_the_sweet_spot() {
        let mut engine = ForecastEngine::new(ForecastConfig::default());
        let candidates = engine.delta_candidates(5, 20);
        let report = engine.evaluate(&FakeWorld, &candidates, Duration::from_secs(120));
        assert_eq!(report.winner().action, ScaleAction::CreateWorkers(2));
        assert!(!report.truncated);
        assert!(report.branches_run > 0);
        assert!(report.events_simulated > 0);
        assert!(report.table().contains("◀ best"));
    }

    #[test]
    fn delta_candidates_dedupe_clamped_actions() {
        let engine = ForecastEngine::new(ForecastConfig::default());
        // Pool at the cap: every positive delta clamps to None, and the
        // dedup keeps a single None candidate (from the first delta that
        // produced it).
        let at_cap = engine.delta_candidates(20, 20);
        let nones = at_cap
            .iter()
            .filter(|c| c.action == ScaleAction::None)
            .count();
        assert_eq!(nones, 1);
        // Empty pool: negative deltas clamp to None too.
        let empty = engine.delta_candidates(0, 20);
        assert!(empty
            .iter()
            .all(|c| !matches!(c.action, ScaleAction::DrainWorkers(_))));
    }

    #[test]
    fn branch_budget_truncates_and_is_reported() {
        let mut engine = ForecastEngine::new(ForecastConfig {
            max_branches: 3,
            ensemble: 2,
        });
        let candidates = engine.delta_candidates(5, 20);
        assert!(candidates.len() * 2 > 3, "budget actually binds");
        let report = engine.evaluate(&FakeWorld, &candidates, Duration::from_secs(120));
        assert!(report.truncated);
        assert_eq!(report.branches_run, 3);
        // Unevaluated candidates can never win.
        assert!(report.winner().rollouts > 0);
    }

    #[test]
    fn evaluation_is_deterministic_per_decision() {
        let world = FakeWorld;
        let run = || {
            let mut engine = ForecastEngine::new(ForecastConfig::default());
            let candidates = engine.delta_candidates(5, 20);
            let r = engine.evaluate(&world, &candidates, Duration::from_secs(120));
            (r.best, r.branches_run, r.events_simulated)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn objective_floors_zero_cost_branches() {
        let o = BranchOutcome {
            elapsed_s: 100.0,
            events: 1,
            stop: BranchStop::Horizon,
            finished: false,
            completed_delta: 0,
            tasks_waiting: 5,
            tasks_running: 0,
            live_worker_pods: 0,
            cost_core_s: 0.0,
        };
        assert!(ForecastEngine::objective(&o) > 0.0);
    }
}
