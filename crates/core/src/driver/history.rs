//! What a run keeps of its past: the metric sampler, the laggy metrics
//! pipeline the HPA reads, the finished tasks' spans, and the lean
//! history of a what-if rollout.

use hta_des::{CategoryId, Duration, SimTime};
use hta_metrics::{RunRecorder, Sample, StepIntegral};
use hta_workqueue::TaskId;
use std::sync::Arc;

use super::SystemDriver;
use crate::whatif::{BranchOutcome, BranchSpec, BranchStop, WhatIf};

/// What a driver keeps of its run's history.
#[derive(Clone)]
pub(super) enum History {
    /// Every recorded series and the finished tasks' spans. Shared
    /// copy-on-write: a fork costs a reference count until one side
    /// records.
    Full(Arc<FullHistory>),
    /// A what-if rollout keeps only what its outcome is scored on: the
    /// running supply integral, continued from the parent's series.
    Rollout(StepIntegral),
}

/// A full run's history: its metric series and its finished tasks'
/// lifecycles.
#[derive(Clone, Default)]
pub(super) struct FullHistory {
    pub(super) recorder: RunRecorder,
    /// One span per task that left the master, in exit order (workflow
    /// runs only; see [`SystemDriver::record_exit`]).
    pub(super) spans: Vec<Span>,
}

/// A task's lifecycle, kept compact until [`SystemDriver::finalize`]
/// names it as a [`TaskSpan`](hta_metrics::TaskSpan).
#[derive(Clone, Copy)]
pub(super) struct Span {
    pub(super) task: TaskId,
    pub(super) cat: CategoryId,
    pub(super) submitted_at: SimTime,
    pub(super) started_at: Option<SimTime>,
    /// When the task completed or failed; `None` while it is live.
    pub(super) exited_at: Option<SimTime>,
    pub(super) interruptions: u32,
}

impl History {
    /// `∫ supply dt` from the first sample to `end_s` (not before the
    /// newest sample).
    fn supply_until(&self, end_s: f64) -> f64 {
        match self {
            History::Full(full) => full.recorder.supply.integral_until(end_s),
            History::Rollout(supply) => supply.until(end_s),
        }
    }

    /// The running supply integral a rollout continues from.
    fn supply_integral(&self) -> StepIntegral {
        match self {
            History::Full(full) => full.recorder.supply.running_integral(),
            History::Rollout(supply) => *supply,
        }
    }
}

impl SystemDriver {
    /// The utilization the metrics pipeline reports *right now*.
    ///
    /// Kubernetes HPA semantics: pods without metrics (pending — still
    /// waiting for a node or an image) are averaged in at 0 % usage on
    /// scale-up. This dilution is one of the two mechanisms that stall
    /// the paper's Fig. 2 ramps while each batch of fresh nodes
    /// provisions (the other being the pipeline staleness below).
    fn current_utilization(&self) -> Option<f64> {
        let live = self.live_worker_pods();
        if live == 0 {
            self.master.mean_worker_utilization()
        } else {
            let connected_sum = self
                .master
                .mean_worker_utilization()
                .map(|m| m * self.master.connected_workers() as f64)
                .unwrap_or(0.0);
            Some(connected_sum / live as f64)
        }
    }

    /// The utilization as the HPA sees it: the newest pipeline sample at
    /// least `metrics_lag` old (falling back to the oldest sample, then
    /// to the live value when no history exists yet).
    pub(super) fn lagged_utilization(&self, now: SimTime) -> Option<f64> {
        if self.cfg.metrics_lag.is_zero() {
            return self.current_utilization();
        }
        let mut candidate: Option<Option<f64>> = None;
        for &(t, u) in self.util_history.iter() {
            if now.since(t) >= self.cfg.metrics_lag {
                candidate = Some(u);
            } else {
                break;
            }
        }
        match candidate {
            Some(u) => u,
            // Pipeline has no old-enough scrape yet: report the oldest
            // one (or the live value before any sample exists).
            None => self
                .util_history
                .front()
                .map(|&(_, u)| u)
                .unwrap_or_else(|| self.current_utilization()),
        }
    }

    /// Record one metrics sample.
    ///
    /// Definitions follow §IV-B as used in the evaluation tables:
    /// **RS** = cores of connected workers; **RIU** = cores held by
    /// running jobs; **RSH** = the *provisionable* unmet demand — demand
    /// beyond current supply, capped at the maximum resource quota
    /// ("there usually exists a maximum resource quota depending on the
    /// user budget"), which is what an autoscaler could still fix.
    ///
    /// A what-if rollout stops after the metrics pipeline and the supply
    /// integral: the policy reads the one, the branch outcome the other,
    /// and nothing reads the rest.
    pub(super) fn sample(&mut self, now: SimTime) {
        // Feed the (laggy) metrics pipeline.
        let util_now = self.current_utilization();
        self.util_history.push_back((now, util_now));
        let horizon = self
            .cfg
            .metrics_lag
            .saturating_add(Duration::from_secs(120));
        while let Some(&(t, _)) = self.util_history.front() {
            if now.since(t) > horizon && self.util_history.len() > 2 {
                self.util_history.pop_front();
            } else {
                break;
            }
        }
        // The sampler reads only the workers and the on-worker tasks,
        // O(running + workers); the waiting queue is summarized by the
        // demand histogram, so the per-second sampler never walks the
        // queue — with a deep open-loop backlog an O(queue) walk would
        // dominate the run.
        let supply_cores: f64 = self
            .master
            .view()
            .workers()
            .map(|w| w.capacity.cores_f64())
            .sum();
        let t = now.as_secs_f64();
        let recorder = match &mut self.history {
            History::Full(full) => &mut Arc::make_mut(full).recorder,
            History::Rollout(supply) => {
                supply.push(t, supply_cores);
                return;
            }
        };
        // Resolve open time-to-recover watches. Watches still open when
        // cleanup begins never resolve (the pool shrinks on purpose).
        if !self.recovery_watches.is_empty() && !self.cleanup_started {
            let connected = self.master.connected_workers();
            let mut resolved = Vec::new();
            for w in &mut self.recovery_watches {
                if !w.2 {
                    w.2 = connected < w.1;
                } else if connected >= w.1 {
                    resolved.push(now.since(w.0).as_secs_f64());
                    w.1 = usize::MAX; // mark for removal
                }
            }
            self.recovery_watches.retain(|w| w.1 != usize::MAX);
            for r in resolved {
                self.recovery_times.push(r);
                recorder.record_extra("recovery_s", t, r);
            }
        }
        let held = self.operator.held_jobs();
        let held_count: usize = held.iter().map(|(_, c)| c).sum();
        let waiting_cores: f64 = self
            .master
            .waiting_demand()
            .iter()
            .map(|(cat, declared, n)| {
                declared
                    .or_else(|| self.operator.known_resources_id(*cat))
                    .unwrap_or(self.cfg.worker_request)
                    .cores_f64()
                    * *n as f64
            })
            .sum::<f64>()
            + held
                .iter()
                .map(|(cat, count)| {
                    self.operator
                        .known_resources_id(*cat)
                        .unwrap_or(self.cfg.worker_request)
                        .cores_f64()
                        * *count as f64
                })
                .sum::<f64>();
        let in_use_cores = self.master.in_use_cores();
        let quota_cores = self.cfg.max_workers as f64 * self.cfg.worker_request.cores_f64();
        let demand = in_use_cores + waiting_cores;
        let shortage_cores = (demand.min(quota_cores) - supply_cores).max(0.0);
        // Per-category running counts — the Fig. 10a stage-timeline data.
        // Categories seen before but not running now record an explicit
        // zero so their series drop instead of holding the last value.
        // Counted by interned id; names are resolved only at the series
        // boundary (`record_extra` keys series by name, so id-order
        // iteration does not change any series' contents).
        self.per_cat_counts.clear();
        self.per_cat_counts.resize(self.master.interner().len(), 0);
        for r in self.master.view().running() {
            self.per_cat_counts[r.cat.index()] += 1;
        }
        for &cat in &self.seen_categories {
            if self.per_cat_counts[cat.index()] == 0 {
                self.label_buf.clear();
                self.label_buf.push_str("running:");
                self.label_buf.push_str(self.master.interner().name(cat));
                recorder.record_extra(&self.label_buf, t, 0.0);
            }
        }
        for i in 0..self.per_cat_counts.len() {
            let count = self.per_cat_counts[i];
            if count == 0 {
                continue;
            }
            let cat = CategoryId::from_u32(i as u32);
            self.label_buf.clear();
            self.label_buf.push_str("running:");
            self.label_buf.push_str(self.master.interner().name(cat));
            recorder.record_extra(&self.label_buf, t, count as f64);
            self.seen_categories.insert(cat);
        }
        recorder.record(Sample {
            time_s: t,
            supply_cores,
            in_use_cores,
            shortage_cores,
            nodes: self.cluster.ready_node_count() as f64,
            workers_connected: self.master.connected_workers() as f64,
            workers_idle: self.master.idle_workers() as f64,
            workers_desired: self.policy.desired() as f64,
            tasks_waiting: (self.master.waiting_count() + held_count) as f64,
            tasks_running: self.master.running_count() as f64,
            egress_mbps: self.master.egress_throughput_mbps(),
            cpu_utilization: self.master.mean_worker_utilization().unwrap_or(0.0),
        });
    }

    /// Apply `spec.initial_action` at the fork instant and roll this
    /// (already forked) driver forward to the horizon or the event budget.
    fn roll_out(mut self, spec: &BranchSpec) -> BranchOutcome {
        let t0 = self.queue.now();
        let supply_before = self.history.supply_until(t0.as_secs_f64());
        let completed_before = self.master.completed_count();
        let events_before = self.queue.delivered();
        self.apply_action(t0, spec.initial_action);
        let (_, budget_exhausted) = self.run_loop(t0 + spec.horizon, spec.max_events);
        let t1 = self.queue.now();
        // Final sample so the cost integral reflects the branch-end state.
        self.sample(t1);
        let finished = self.workload_finished_at.is_some();
        let stop = if finished {
            BranchStop::Finished
        } else if budget_exhausted {
            BranchStop::Budget
        } else if self.queue.is_empty() {
            BranchStop::Quiescent
        } else {
            BranchStop::Horizon
        };
        let held: usize = self.operator.held_jobs().iter().map(|(_, c)| c).sum();
        let cost_core_s = (self.history.supply_until(t1.as_secs_f64()) - supply_before).max(0.0);
        BranchOutcome {
            elapsed_s: t1.since(t0).as_secs_f64(),
            events: self.queue.delivered() - events_before,
            stop,
            finished,
            completed_delta: self.master.completed_count() - completed_before,
            tasks_waiting: self.master.waiting_count() + held,
            tasks_running: self.master.running_count(),
            live_worker_pods: self.live_worker_pods(),
            cost_core_s,
        }
    }
}

impl WhatIf for SystemDriver {
    /// Fork a branch, apply the candidate action at the fork instant, and
    /// roll the branch forward under a frozen policy to the horizon (or
    /// the event budget). The receiver is untouched.
    ///
    /// The branch records only its running supply integral, continued
    /// from the receiver's series, so `cost_core_s` is bitwise what a full
    /// fork would read off its recorder.
    fn branch(&self, spec: &BranchSpec) -> BranchOutcome {
        let mut branch = self.fork_branch(spec.salt);
        branch.history = History::Rollout(self.history.supply_integral());
        branch.roll_out(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::testkit::*;

    #[test]
    fn run_produces_consistent_metrics() {
        let driver =
            SystemDriver::new(small_cfg(), tiny_workflow(6), Box::new(FixedPolicy::new(2)));
        let result = driver.run();
        let r = &result.recorder;
        assert!(!r.supply.is_empty());
        assert!(!r.in_use.is_empty());
        // Waste = supply − in-use ≥ 0 everywhere by construction.
        assert!(r.waste.values().iter().all(|v| *v >= 0.0));
        // Utilization bounded.
        assert!(r
            .cpu_utilization
            .values()
            .iter()
            .all(|v| (0.0..=1.0).contains(v)));
        // Summary integrals are finite and non-negative.
        assert!(result.summary.accumulated_waste_core_s >= 0.0);
        assert!(result.summary.accumulated_shortage_core_s >= 0.0);
    }

    /// Advance `driver` through a run and, at each stop, check that the
    /// lean rollout reports exactly what a full-fidelity branch reports:
    /// a full fork, the full sampler, and the cost read as the difference
    /// of two `integral_until` calls on its recorder. A stop on a whole
    /// second forks on a sample tick; any other stop forks between ticks.
    /// Returns how many forks had a node-crash recovery watch open.
    fn assert_rollouts_match_full_branches(mut driver: SystemDriver, stops_ms: &[u64]) -> usize {
        let mut forked_at = Vec::new();
        let mut watching = 0;
        for &stop in stops_ms {
            if driver.advance_until(SimTime::from_millis(stop)) {
                break;
            }
            // An off-tick stop steps on, one event at a time, to the
            // first instant that is not a whole second.
            while !stop.is_multiple_of(1_000) && driver.now().as_millis().is_multiple_of(1_000) {
                let Some((now, ev)) = driver.queue.pop() else {
                    break;
                };
                driver.dispatch(now, ev);
            }
            assert!(!driver.is_finished(), "fork at {stop} ms is mid-run");
            forked_at.push(driver.now().as_millis());
            watching += usize::from(!driver.recovery_watches.is_empty());
            for salt in [0, 1, 0xD1CE] {
                for (initial_action, max_events) in [
                    (ScaleAction::CreateWorkers(2), u64::MAX),
                    (ScaleAction::None, u64::MAX),
                    (ScaleAction::DrainWorkers(1), u64::MAX),
                    (ScaleAction::CreateWorkers(1), 40),
                ] {
                    let spec = BranchSpec {
                        salt,
                        initial_action,
                        horizon: Duration::from_secs(300),
                        max_events,
                    };
                    let lean = driver.branch(&spec);
                    let full = driver.fork_branch(salt).roll_out(&spec);
                    assert!(matches!(driver.history, History::Full(_)));
                    assert_eq!(lean, full, "at {stop} ms, {spec:?}");
                    assert_eq!(
                        lean.cost_core_s.to_bits(),
                        full.cost_core_s.to_bits(),
                        "at {stop} ms, {spec:?}"
                    );
                }
            }
        }
        assert_eq!(forked_at.len(), stops_ms.len(), "every stop is mid-run");
        for (stop, at) in stops_ms.iter().zip(&forked_at) {
            assert_eq!(
                stop.is_multiple_of(1_000),
                at.is_multiple_of(1_000),
                "fork for stop {stop} ms landed at {at} ms"
            );
        }
        watching
    }

    #[test]
    fn rollouts_match_full_branches_on_a_fig10_run_with_node_crashes() {
        // Crashes at 250 s and 420 s: the later forks see open watches.
        let stops = [0, 90_000, 201_500, 260_000, 300_250, 433_700];
        let hta = fig10_driver(Box::new(HtaPolicy::new(HtaConfig::default())));
        assert!(assert_rollouts_match_full_branches(hta, &stops) > 0);
        let hpa = fig10_driver(Box::new(HpaPolicy::new(0.5, 2, 6)));
        assert!(assert_rollouts_match_full_branches(hpa, &stops) > 0);
    }

    #[test]
    fn rollouts_match_full_branches_on_a_traced_run() {
        let traced = traced_driver("demo-1k,tasks=400,rate=4", 7, 4);
        assert_rollouts_match_full_branches(traced, &[0, 30_000, 64_300, 121_000, 150_900]);
    }
}
