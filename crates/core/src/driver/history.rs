//! What a run keeps of its past: the metric sampler, the laggy metrics
//! pipeline the HPA reads, the finished tasks' spans, and the lean
//! history of a what-if rollout.

use hta_des::{CategoryId, Duration, SimTime};
use hta_metrics::{RunRecorder, Sample, StepIntegral};
use hta_workqueue::TaskId;
use rayon::prelude::*;
use std::sync::Arc;

use super::{PolicySlot, SystemDriver, World};
use crate::policy::ScalingPolicy;
use crate::whatif::{BranchOutcome, BranchSpec, BranchStop, WhatIf};

/// What a driver keeps of its run's history.
#[derive(Clone)]
pub(super) enum History {
    /// Every recorded series and the finished tasks' spans, shared
    /// copy-on-write (a fork costs a reference count until one side
    /// records), and the running integral of the supply series, pushed
    /// beside it so a branch takes it over in O(1) instead of replaying
    /// the series.
    Full {
        recorded: Arc<FullHistory>,
        supply: StepIntegral,
    },
    /// A what-if rollout keeps only what its outcome is scored on: the
    /// running supply integral, taken over from the parent's.
    Rollout {
        supply: StepIntegral,
        /// The reading of the last sampler tick, kept while nothing but
        /// ticks has run since: a tick changes nothing it reads, so the
        /// next tick would read the same pair.
        last_tick: Option<TickReading>,
    },
}

/// What a sampler tick reads from the system.
#[derive(Clone, Copy)]
pub(super) struct TickReading {
    /// The connected workers' mean utilization.
    mean: Option<f64>,
    /// The utilization the metrics pipeline reports: `mean` diluted by
    /// the pending worker pods.
    reported: Option<f64>,
    supply_cores: f64,
}

impl TickReading {
    fn same_bits(&self, other: &TickReading) -> bool {
        same_bits(self.mean, other.mean)
            && same_bits(self.reported, other.reported)
            && self.supply_cores.to_bits() == other.supply_cores.to_bits()
    }
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
            History::Full { recorded, .. } => recorded.recorder.supply.integral_until(end_s),
            History::Rollout { supply, .. } => supply.until(end_s),
        }
    }

    /// The running supply integral a rollout continues from. O(1): the
    /// full history keeps its own live, and the sanitizer checks it
    /// bitwise against a replay of the recorded series.
    fn supply_integral(&self) -> StepIntegral {
        match self {
            History::Full { recorded, supply } => {
                hta_des::sanitize_assert!(
                    *supply == recorded.recorder.supply.running_integral(),
                    "the live supply integral drifted from the supply series"
                );
                *supply
            }
            History::Rollout { supply, .. } => *supply,
        }
    }

    /// Drop a rollout's cached tick reading: the system may have changed.
    #[inline]
    pub(super) fn forget_tick(&mut self) {
        if let History::Rollout { last_tick, .. } = self {
            *last_tick = None;
        }
    }
}

impl World {
    /// The utilization the metrics pipeline reports *right now*.
    fn current_utilization(&mut self) -> Option<f64> {
        let mean = self.master.mean_worker_utilization();
        self.reported_utilization(mean)
    }

    /// The utilization the metrics pipeline reports for the connected
    /// workers' `mean`.
    ///
    /// Kubernetes HPA semantics: pods without metrics (pending — still
    /// waiting for a node or an image) are averaged in at 0 % usage on
    /// scale-up. This dilution is one of the two mechanisms that stall
    /// the paper's Fig. 2 ramps while each batch of fresh nodes
    /// provisions (the other being the pipeline staleness below).
    fn reported_utilization(&self, mean: Option<f64>) -> Option<f64> {
        let live = self.live_worker_pods();
        if live == 0 {
            mean
        } else {
            let connected_sum = mean
                .map(|m| m * self.master.connected_workers() as f64)
                .unwrap_or(0.0);
            Some(connected_sum / live as f64)
        }
    }

    /// The utilization as the HPA sees it: the newest pipeline sample at
    /// least `metrics_lag` old (falling back to the oldest sample, then
    /// to the live value when no history exists yet).
    pub(super) fn lagged_utilization(&mut self, now: SimTime) -> Option<f64> {
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
    pub(super) fn sample(&mut self, now: SimTime, policy: &PolicySlot) {
        let reading = self.tick_reading();
        let supply_cores = reading.supply_cores;
        // Feed the (laggy) metrics pipeline.
        self.util_history.push_back((now, reading.reported));
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
        let t = now.as_secs_f64();
        let recorder = match &mut self.history {
            History::Full { recorded, supply } => {
                supply.push(t, supply_cores);
                &mut Arc::make_mut(recorded).recorder
            }
            History::Rollout { supply, .. } => {
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
        hta_des::sanitize_assert!(
            same_bits(reading.mean, self.master.mean_worker_utilization()),
            "the tick's mean utilization went stale within the tick at {now:?}"
        );
        recorder.record(Sample {
            time_s: t,
            supply_cores,
            in_use_cores,
            shortage_cores,
            nodes: self.cluster.ready_node_count() as f64,
            workers_connected: self.master.connected_workers() as f64,
            workers_idle: self.master.idle_workers() as f64,
            workers_desired: policy.desired() as f64,
            tasks_waiting: (self.master.waiting_count() + held_count) as f64,
            tasks_running: self.master.running_count() as f64,
            egress_mbps: self.master.egress_throughput_mbps(),
            cpu_utilization: reading.mean.unwrap_or(0.0),
        });
    }

    /// What this tick reads. A rollout reuses its last tick's reading
    /// while only ticks have run since (`dispatch` and `pump` forget it),
    /// so a tick that follows a tick costs O(1) instead of a pass over
    /// the workers. The sanitizer checks the reuse against a fresh read.
    fn tick_reading(&mut self) -> TickReading {
        if let History::Rollout {
            last_tick: Some(cached),
            ..
        } = self.history
        {
            hta_des::sanitize_assert!(
                cached.same_bits(&self.read_tick()),
                "a cached tick reading went stale at {:?}",
                self.queue.now()
            );
            return cached;
        }
        let reading = self.read_tick();
        if let History::Rollout { last_tick, .. } = &mut self.history {
            *last_tick = Some(reading);
        }
        reading
    }

    /// One read of the workers: the mean utilization is read once and
    /// serves both the pipeline and the recorded series.
    fn read_tick(&mut self) -> TickReading {
        let supply_cores = self
            .master
            .view()
            .workers()
            .map(|w| w.capacity.cores_f64())
            .sum();
        let mean = self.master.mean_worker_utilization();
        TickReading {
            mean,
            reported: self.reported_utilization(mean),
            supply_cores,
        }
    }

    /// Fork a branch under `policy`, keep only the supply integral,
    /// taken over from this world's in O(1), and roll it out. The
    /// receiver is untouched.
    fn branch_under(&self, spec: &BranchSpec, mut policy: PolicySlot) -> BranchOutcome {
        let mut branch = self.fork_branch(spec.salt);
        branch.history = History::Rollout {
            supply: self.history.supply_integral(),
            last_tick: None,
        };
        branch.roll_out(spec, &mut policy)
    }

    /// Roll every spec out under a hold slot, side by side on the rayon
    /// threads (the caller's included), with the outcomes in spec order.
    /// Each rollout is one single-threaded run of its own fork, so the
    /// outcomes do not depend on the thread count.
    pub(super) fn rollouts(&self, specs: &[BranchSpec]) -> Vec<BranchOutcome> {
        specs
            .par_iter()
            .map(|spec| self.branch_under(spec, PolicySlot::hold(None)))
            .collect()
    }

    /// Apply `spec.initial_action` at the fork instant and roll this
    /// (already forked) world forward under `policy` to the horizon or
    /// the event budget.
    fn roll_out(mut self, spec: &BranchSpec, policy: &mut PolicySlot) -> BranchOutcome {
        let t0 = self.queue.now();
        let supply_before = self.history.supply_until(t0.as_secs_f64());
        let completed_before = self.master.completed_count();
        let events_before = self.queue.delivered();
        self.apply_action(t0, spec.initial_action);
        let (_, budget_exhausted) = self.run_loop(t0 + spec.horizon, spec.max_events, policy);
        let t1 = self.queue.now();
        // Final sample so the cost integral reflects the branch-end state.
        self.sample(t1, policy);
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
    /// roll the branch forward under a copy of this driver's policy to
    /// the horizon (or the event budget). The receiver is untouched.
    ///
    /// The branch records only its running supply integral, taken over
    /// from the receiver's in O(1), so `cost_core_s` is bitwise what a
    /// full fork would read off its recorder.
    fn branch(&self, spec: &BranchSpec) -> BranchOutcome {
        self.world.branch_under(spec, self.policy.clone())
    }
}

/// The world a deciding policy forks its what-if branches from. A branch
/// runs under a hold slot: apply the candidate action, then hold the
/// pool.
pub(super) struct DecisionWorld<'a> {
    pub(super) world: &'a World,
    /// The policy copy of the control-plane checkpoint, if one was taken:
    /// a restart inside a branch restores it.
    pub(super) checkpointed: Option<&'a dyn ScalingPolicy>,
}

impl WhatIf for DecisionWorld<'_> {
    fn branch(&self, spec: &BranchSpec) -> BranchOutcome {
        let checkpointed = self.checkpointed.map(ScalingPolicy::clone_box);
        self.world
            .branch_under(spec, PolicySlot::hold(checkpointed))
    }

    /// The branches run side by side on up to `available_parallelism`
    /// threads. A world with a checkpointed policy keeps to this thread:
    /// that policy is not `Send`.
    fn branch_all(&self, specs: &[BranchSpec]) -> Vec<BranchOutcome> {
        if self.checkpointed.is_some() {
            return specs.iter().map(|spec| self.branch(spec)).collect();
        }
        self.world.rollouts(specs)
    }

    fn batches_in_parallel(&self) -> bool {
        self.checkpointed.is_none() && rayon::current_num_threads() > 1
    }
}

fn same_bits(a: Option<f64>, b: Option<f64>) -> bool {
    a.map(f64::to_bits) == b.map(f64::to_bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::testkit::*;

    impl SystemDriver {
        /// Roll this (already forked) driver out under its own policy,
        /// keeping its full history: the reference a lean branch must
        /// match.
        fn roll_out(mut self, spec: &BranchSpec) -> BranchOutcome {
            self.world.roll_out(spec, &mut self.policy)
        }
    }

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
                let Some((now, ev)) = driver.world.queue.pop() else {
                    break;
                };
                driver.dispatch(now, ev);
            }
            assert!(!driver.world.is_finished(), "fork at {stop} ms is mid-run");
            forked_at.push(driver.now().as_millis());
            watching += usize::from(!driver.world.recovery_watches.is_empty());
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
                    assert!(matches!(driver.world.history, History::Full { .. }));
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

    /// The live supply integral a branch takes over is, at every stop of
    /// a Fig. 10 HTA run (on ticks and between them), bitwise the replay
    /// of the recorded supply series.
    #[test]
    fn the_live_supply_integral_replays_the_supply_series() {
        let mut driver = fig10_driver(Box::new(HtaPolicy::new(HtaConfig::default())));
        let mut stops = 0;
        for step in 1.. {
            let finished = driver.advance_until(SimTime::from_millis(step * 1_700));
            let History::Full { recorded, supply } = &driver.world.history else {
                unreachable!("a run keeps its full history");
            };
            assert!(
                *supply == recorded.recorder.supply.running_integral(),
                "at {:?}",
                driver.now()
            );
            assert!(driver.world.history.supply_integral() == *supply);
            stops += 1;
            if finished {
                break;
            }
        }
        assert!(stops > 300, "the run spans many samples ({stops} stops)");
    }

    /// Outcomes equal field by field, their floats bit for bit.
    fn same_outcomes(a: &[BranchOutcome], b: &[BranchOutcome]) -> bool {
        let bits = |o: &BranchOutcome| (o.elapsed_s.to_bits(), o.cost_core_s.to_bits());
        a == b && a.iter().map(bits).eq(b.iter().map(bits))
    }

    /// Every `ScaleAction` kind, each on a replay and a fresh salt, one
    /// of them cut short by its event budget.
    fn batch_specs() -> Vec<BranchSpec> {
        let mut specs = Vec::new();
        for salt in [0, 0xBEEF] {
            for initial_action in [
                ScaleAction::None,
                ScaleAction::CreateWorkers(2),
                ScaleAction::DrainWorkers(1),
                ScaleAction::KillWorkers(1),
            ] {
                specs.push(BranchSpec {
                    salt,
                    ..spec(initial_action)
                });
            }
        }
        specs[5].max_events = 40;
        specs
    }

    /// A decision's batch on 1, 2 and 4 threads reports bitwise what its
    /// branches report one by one, in spec order.
    #[test]
    fn rollouts_do_not_depend_on_the_thread_count() {
        let mut driver = fig10_driver(Box::new(HtaPolicy::new(HtaConfig::default())));
        for stop_s in [30, 200, 260, 433] {
            assert!(!driver.advance_until(SimTime::from_secs(stop_s)));
            let world = DecisionWorld {
                world: &driver.world,
                checkpointed: None,
            };
            let specs = batch_specs();
            let one_by_one: Vec<BranchOutcome> = specs.iter().map(|s| world.branch(s)).collect();
            for threads in [1, 2, 4] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                let batch = pool.install(|| driver.world.rollouts(&specs));
                assert!(
                    same_outcomes(&batch, &one_by_one),
                    "{threads} threads at {stop_s} s"
                );
            }
            assert!(same_outcomes(&world.branch_all(&specs), &one_by_one));
        }
    }

    /// With a control-plane checkpoint taken, a batch stays on the
    /// calling thread and still reports what the branches report one by
    /// one.
    #[test]
    fn a_checkpointed_world_batches_on_the_calling_thread() {
        let mut cfg = small_cfg();
        cfg.faults.control_plane = crate::fault::ControlPlaneFaults {
            crash_times: vec![Duration::from_secs(150)],
            outage: Duration::from_secs(30),
            checkpoint_interval: Duration::from_secs(45),
        };
        let mut driver = SystemDriver::new(cfg, tiny_workflow(12), Box::new(FixedPolicy::new(3)));
        assert!(!driver.advance_until(SimTime::from_secs(120)));
        let checkpointed = driver.policy.checkpointed.as_deref();
        assert!(checkpointed.is_some(), "checkpoints were taken");
        let world = DecisionWorld {
            world: &driver.world,
            checkpointed,
        };
        assert!(!world.batches_in_parallel());
        let specs = batch_specs();
        let one_by_one: Vec<BranchOutcome> = specs.iter().map(|s| world.branch(s)).collect();
        assert!(same_outcomes(&world.branch_all(&specs), &one_by_one));
    }

    fn spec(initial_action: ScaleAction) -> BranchSpec {
        BranchSpec {
            salt: 0,
            initial_action,
            horizon: Duration::from_secs(300),
            max_events: u64::MAX,
        }
    }

    /// Step a full fork of `driver` through `spec`'s branch and report
    /// whether a worker connected in the same millisecond as a sampler
    /// tick: `(before the tick, after it)` in `(time, seq)` order.
    fn connects_on_a_tick(driver: &SystemDriver, spec: &BranchSpec) -> (bool, bool) {
        let mut fork = driver.fork_branch(spec.salt);
        let t0 = fork.now();
        fork.world.apply_action(t0, spec.initial_action);
        let tick_ms = fork.world.cfg.sample_interval.as_millis();
        let (mut before, mut after) = (false, false);
        let mut ticked_at = None;
        while let Some((now, ev)) = fork.world.queue.pop() {
            if now > t0 + spec.horizon {
                break;
            }
            if matches!(ev, Event::Sample) {
                ticked_at = Some(now);
            }
            let connected = fork.world.master.connected_workers();
            fork.dispatch(now, ev);
            if fork.world.master.connected_workers() > connected && now.as_millis() % tick_ms == 0 {
                if ticked_at == Some(now) {
                    after = true;
                } else {
                    before = true;
                }
            }
            if fork.world.is_finished() {
                break;
            }
        }
        (before, after)
    }

    #[test]
    fn rollouts_match_full_branches_when_a_worker_connects_on_a_tick() {
        let hta = || fig10_driver(Box::new(HtaPolicy::new(HtaConfig::default())));
        let mut at_42s = hta();
        assert!(!at_42s.advance_until(SimTime::from_secs(42)));
        // A pod created at the fork starts one second later, after that
        // second's tick in (time, seq) order; a worker whose start was
        // queued earlier connects before the tick of its second.
        let (_, after) = connects_on_a_tick(&at_42s, &spec(ScaleAction::CreateWorkers(2)));
        let (before, _) = connects_on_a_tick(&at_42s, &spec(ScaleAction::None));
        assert!(after && before, "after {after}, before {before}");
        assert_rollouts_match_full_branches(hta(), &[42_000]);
    }

    /// A branch's initial action runs outside any event, so what it
    /// leaves for the pump (a killed pod's watch event, a drained idle
    /// worker's stop) is drained after the branch's first event. Here
    /// that event is a sampler tick: the tick must still be pumped.
    #[test]
    fn rollouts_match_full_branches_when_the_first_event_is_a_tick() {
        let mut driver = fig10_driver(Box::new(HtaPolicy::new(HtaConfig::default())));
        assert!(!driver.advance_until(SimTime::from_secs(13)));
        let mut forks = 0;
        while forks < 4 {
            let next = driver.world.queue.clone().pop().map(|(_, ev)| ev);
            if matches!(next, Some(Event::Sample)) {
                forks += 1;
                for action in [ScaleAction::KillWorkers(1), ScaleAction::DrainWorkers(1)] {
                    let spec = spec(action);
                    let lean = driver.branch(&spec);
                    let full = driver.fork_branch(spec.salt).roll_out(&spec);
                    assert_eq!(lean, full, "at {:?}, {spec:?}", driver.now());
                    assert_eq!(lean.cost_core_s.to_bits(), full.cost_core_s.to_bits());
                }
            }
            let (now, ev) = driver.world.queue.pop().expect("the run is mid-flight");
            driver.dispatch(now, ev);
        }
    }
}
