//! The scaling loop: the policy slot, the policy tick, the translation of
//! its actions into pod creations, graceful drains and evictions,
//! node-failure injection, and the cleanup stage (§V-C).

use hta_cluster::{PodId, PodPhase};
use hta_des::{Duration, SimTime};
use hta_workqueue::{WorkerId, WorkerState};

use super::history::DecisionWorld;
use super::{Event, World, WORKER_GROUP};
use crate::policy::{HoldPolicy, PolicyContext, ScaleAction, ScalingPolicy};

/// The scaling policy as the event loop reaches it: the live policy, and
/// the copy the newest control-plane checkpoint holds (`None` until one
/// is taken, and always in runs without control-plane faults).
#[derive(Clone)]
pub(super) struct PolicySlot {
    live: Box<dyn ScalingPolicy>,
    pub(super) checkpointed: Option<Box<dyn ScalingPolicy>>,
}

impl PolicySlot {
    pub(super) fn new(live: Box<dyn ScalingPolicy>) -> Self {
        PolicySlot {
            live,
            checkpointed: None,
        }
    }

    /// The slot a what-if rollout runs under: it holds the pool after the
    /// branch's initial action. A restart inside the branch restores the
    /// parent's `checkpointed` policy, as a restart in the parent would.
    pub(super) fn hold(checkpointed: Option<Box<dyn ScalingPolicy>>) -> Self {
        PolicySlot {
            live: Box::new(HoldPolicy),
            checkpointed,
        }
    }

    /// The live policy decides, with `world` to fork what-if branches
    /// from.
    fn decide(&mut self, ctx: &PolicyContext<'_>, world: &World) -> (ScaleAction, Duration) {
        let world = DecisionWorld {
            world,
            checkpointed: self.checkpointed.as_deref(),
        };
        self.live.decide_with_world(ctx, &world)
    }

    pub(super) fn desired(&self) -> usize {
        self.live.desired()
    }

    pub(super) fn name(&self) -> String {
        self.live.name()
    }

    /// Keep a copy of the live policy for the control-plane checkpoint.
    pub(super) fn checkpoint(&mut self) {
        self.checkpointed = Some(self.live.clone());
    }

    /// Bring the live policy back to the checkpoint's copy.
    pub(super) fn restore(&mut self) {
        self.live = self
            .checkpointed
            .clone()
            .expect("a restart restores a taken checkpoint");
    }
}

impl World {
    /// Worker pods still waiting for a node / image.
    fn pending_worker_pod_count(&self) -> usize {
        self.cluster
            .live_pods_in_group(WORKER_GROUP)
            .filter(|p| !matches!(p.phase, PodPhase::Running))
            .count()
    }

    /// Collect the pending worker pods into the reusable scratch buffer
    /// (cleanup and scale-down paths).
    fn collect_pending_pods(&mut self) {
        self.pod_scratch.clear();
        self.pod_scratch.extend(
            self.cluster
                .live_pods_in_group(WORKER_GROUP)
                .filter(|p| !matches!(p.phase, PodPhase::Running))
                .map(|p| p.id),
        );
    }

    /// Clean-up stage: drain every worker, delete pending worker pods and
    /// the master pod.
    pub(super) fn start_cleanup(&mut self, now: SimTime) {
        if self.cleanup_started {
            return;
        }
        self.cleanup_started = true;
        self.collect_pending_pods();
        for i in 0..self.pod_scratch.len() {
            self.cluster
                .delete_pod(now, self.pod_scratch[i], &mut self.cluster_sink);
            self.flush_cluster();
        }
        for (&wid, _) in self.worker_to_pod.iter() {
            self.cp.master.drain_worker(now, wid);
        }
        if let Some(pod) = self.master_pod {
            self.cluster.delete_pod(now, pod, &mut self.cluster_sink);
            self.flush_cluster();
        }
    }

    pub(super) fn policy_tick(&mut self, now: SimTime, policy: &mut PolicySlot) {
        if self.cleanup_started {
            // Keep draining stragglers (workers that were mid-task when
            // cleanup began finish and stop on their own; pending pods are
            // already deleted). No policy involvement needed.
            self.queue
                .schedule_in(Duration::from_secs(10), Event::PolicyTick);
            return;
        }
        // A crashed control plane makes no scaling decisions — the policy
        // is frozen inside the checkpoint and resumes, with its recovered
        // estimates, once reconciliation finishes.
        if self.control_plane_down() {
            self.queue
                .schedule_in(Duration::from_secs(5), Event::PolicyTick);
            return;
        }
        // Autoscaling belongs to the runtime stage (§V-C): before the
        // master is up there is no queue to read and the initial worker
        // pool has not been created, so a policy acting now would race
        // the set-up (an HPA would double-create its minimum replicas).
        if !self.master_ready {
            self.queue
                .schedule_in(Duration::from_secs(5), Event::PolicyTick);
            return;
        }
        let held = self.cp.operator.held_jobs();
        let pending = self.pending_worker_pod_count();
        let utilization = self.lagged_utilization(now);
        let live = self.live_worker_pods();
        let workload_done = self.workload_resolved();
        let init_time = if self.cfg.use_measured_init_time {
            self.cp.tracker.latest()
        } else {
            self.cfg.default_init_time
        };
        let ctx = PolicyContext {
            now,
            queue: self.cp.master.view(),
            held_jobs: &held,
            stats: self.cp.operator.stats(),
            init_time,
            worker_unit: self.cfg.worker_request,
            live_worker_pods: live,
            pending_worker_pods: pending,
            utilization,
            max_workers: self.cfg.max_workers,
            workload_done,
            telemetry_age: self.cp.master.telemetry_age(now),
        };
        let (action, next) = policy.decide(&ctx, self);
        if self.trace.is_enabled() && action != ScaleAction::None {
            self.trace.push(
                now,
                "policy",
                format!(
                    "{:?} (live={} pending={} waiting={} init={:.0}s)",
                    action,
                    ctx.live_worker_pods,
                    ctx.pending_worker_pods,
                    ctx.queue.waiting_count(),
                    ctx.init_time.as_secs_f64()
                ),
            );
        }
        self.apply_action(now, action);
        self.queue
            .schedule_in(next.max(Duration::from_secs(1)), Event::PolicyTick);
    }

    /// Translate a policy decision into cluster/master operations.
    pub(super) fn apply_action(&mut self, now: SimTime, action: ScaleAction) {
        match action {
            ScaleAction::None => {}
            ScaleAction::CreateWorkers(n) => {
                let headroom = self.cfg.max_workers.saturating_sub(self.live_worker_pods());
                for _ in 0..n.min(headroom) {
                    self.cluster
                        .create_pod(now, self.worker_pod_spec(), &mut self.cluster_sink);
                    self.flush_cluster();
                }
            }
            ScaleAction::DrainWorkers(n) => self.drain_workers(now, n),
            ScaleAction::KillWorkers(n) => self.kill_workers(now, n),
        }
    }

    /// Delete up to `n` pending worker pods (nothing runs on them) and
    /// return how many of the `n` are left to remove — the first step of
    /// both scale-down paths.
    fn delete_pending_pods(&mut self, now: SimTime, n: usize) -> usize {
        let mut remaining = n;
        self.collect_pending_pods();
        for i in 0..self.pod_scratch.len() {
            if remaining == 0 {
                return 0;
            }
            self.cluster
                .delete_pod(now, self.pod_scratch[i], &mut self.cluster_sink);
            self.flush_cluster();
            remaining -= 1;
        }
        remaining
    }

    /// HTA-style graceful scale-down: delete pending pods first (nothing
    /// runs on them), then drain idle workers, then the least-loaded.
    fn drain_workers(&mut self, now: SimTime, n: usize) {
        let remaining = self.delete_pending_pods(now, n);
        // Active workers ordered: idle first, then by ascending task count.
        let mut candidates: Vec<(usize, WorkerId)> = self
            .worker_to_pod
            .keys()
            .filter_map(|w| {
                let worker = self.cp.master.worker(*w)?;
                (worker.state == WorkerState::Active).then_some((worker.task_count(), *w))
            })
            .collect();
        candidates.sort();
        for (_tasks, wid) in candidates.into_iter().take(remaining) {
            self.cp.master.drain_worker(now, wid);
        }
    }

    /// HPA-style eviction: pending (not-ready) pods first — matching the
    /// ReplicaSet downscale preference — then idle, then busy workers,
    /// whose tasks are re-queued.
    fn kill_workers(&mut self, now: SimTime, n: usize) {
        let remaining = self.delete_pending_pods(now, n);
        let mut candidates: Vec<(usize, PodId)> = self
            .pod_to_worker
            .iter()
            .filter_map(|(pod, wid)| {
                let worker = self.cp.master.worker(*wid)?;
                (worker.state != WorkerState::Stopped).then_some((worker.task_count(), *pod))
            })
            .collect();
        candidates.sort();
        for (_tasks, pod) in candidates.into_iter().take(remaining) {
            // delete_pod → PodFailed watch event → kill_worker in pump().
            self.cluster.delete_pod(now, pod, &mut self.cluster_sink);
            self.flush_cluster();
        }
    }

    /// Failure injection: crash the node under some running worker pod.
    /// No-op when no worker is running (nothing interesting to kill).
    ///
    /// Victim selection is deterministic: `pod_to_worker` is a `BTreeMap`,
    /// so iteration is ordered by `PodId` and the victim is always the
    /// running worker pod with the lowest id (a mapped pod still in the
    /// cluster is running) — two same-seed runs crash the same node at
    /// the same instant.
    pub(super) fn fail_worker_node(&mut self, now: SimTime) {
        let target = self
            .pod_to_worker
            .keys()
            .filter_map(|pid| self.cluster.pod(*pid))
            .filter_map(|p| p.node)
            .next();
        if let Some(node) = target {
            self.failures_injected += 1;
            // Time-to-recover watch: resolved at the first sample where
            // the connected pool is back at its pre-crash size.
            self.recovery_watches
                .push((now, self.cp.master.connected_workers(), false));
            self.trace
                .push(now, "inject", format!("node {node} crashed"));
            self.cluster.fail_node(now, node, &mut self.cluster_sink);
            self.flush_cluster();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::testkit::*;

    #[test]
    fn hta_scales_up_for_backlog_and_completes() {
        let mut cfg = small_cfg();
        cfg.operator = OperatorConfig {
            warmup: true,
            trust_declared: false,
            learn: true,
            seed: 2,
        };
        cfg.initial_workers = 2;
        let driver = SystemDriver::new(
            cfg,
            tiny_workflow(30),
            Box::new(HtaPolicy::new(HtaConfig::default())),
        );
        let result = driver.run();
        assert!(!result.timed_out);
        // Warm-up probes one job, learns ~1 core, then fans out. The
        // backlog forces extra worker pods beyond the initial 2.
        assert!(
            result.summary.peak_workers > 2.0,
            "peak workers {}",
            result.summary.peak_workers
        );
        assert!(
            result.makespan_s < 2_000.0,
            "makespan {}",
            result.makespan_s
        );
    }

    #[test]
    fn fault_plan_runs_complete_and_are_deterministic() {
        // The acceptance scenario: node crash + image-pull failures + a
        // high transient-task rate, all from one seeded plan. The retry
        // budget absorbs every transient, so the workload completes with
        // exactly-once accounting, and two same-seed runs are identical.
        let run = || {
            let mut cfg = small_cfg();
            cfg.faults = FaultPlan {
                seed: 7,
                node_crash_times: vec![Duration::from_secs(260)],
                image_pull_fail_rate: 0.2,
                task_transient_rate: 0.3,
                max_task_retries: 6,
                ..FaultPlan::default()
            };
            SystemDriver::new(cfg, tiny_workflow(12), Box::new(FixedPolicy::new(3))).run()
        };
        let a = run();
        assert!(!a.timed_out);
        assert_eq!(a.jobs_failed, 0, "retry budget absorbs transients");
        let done = a
            .task_spans
            .iter()
            .filter(|s| s.completed_s.is_some())
            .count();
        assert_eq!(done, 12, "every job completed exactly once");
        assert!(
            a.summary.faults.transient_failures > 0 || a.summary.faults.image_pull_retries > 0,
            "chaos must actually bite: {:?}",
            a.summary.faults
        );
        let b = run();
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.events, b.events);
    }
}
