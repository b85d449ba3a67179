//! The event loop and its pump: bootstrap, pop-and-dispatch, and the
//! cross-component plumbing between the pod informer, Work Queue
//! notifications and the operator (the warm-up and runtime stages,
//! §V-C).

use hta_cluster::{PodId, PodSpec, WatchKind};
use hta_des::{Duration, SimTime};
use hta_workqueue::master::WqNotification;
use std::sync::Arc;

use super::history::{History, Span};
use super::{Event, PolicySlot, WalRecord, World, MASTER_GROUP, WORKER_GROUP};

impl World {
    /// Create (or re-create) the master pod.
    fn create_master_pod(&mut self, now: SimTime) -> PodId {
        let spec = PodSpec {
            request: self.cfg.master_request,
            image: self.master_image,
            group: MASTER_GROUP.into(),
        };
        let pod = self.cluster.create_pod(now, spec, &mut self.cluster_sink);
        self.flush_cluster();
        self.master_pod = Some(pod);
        pod
    }

    /// Bootstrap on the first call; later calls are no-ops.
    pub(super) fn start_once(&mut self, policy: &mut PolicySlot) {
        if self.started {
            return;
        }
        self.started = true;
        let start = SimTime::ZERO;
        self.cluster.bootstrap(start, &mut self.cluster_sink);
        self.flush_cluster();
        if self.cfg.master_in_cluster {
            let pod = self.create_master_pod(start);
            self.master_set.bind(pod);
            debug_assert!(self.master_set.fully_bound());
        } else {
            self.master_ready = true;
            self.on_master_ready(start, policy);
        }
        self.pump(start, policy);
        self.queue
            .every(Duration::ZERO, self.cfg.sample_interval, Event::Sample);
        self.queue
            .schedule_in(Duration::from_secs(1), Event::PolicyTick);
        for at in self.cfg.faults.node_crash_times.clone() {
            self.queue.schedule_in(at, Event::FailWorkerNode);
        }
        let crash_times: Vec<Duration> = self
            .recovery
            .as_ref()
            .map(|r| r.faults.crash_times.clone())
            .unwrap_or_default();
        for at in crash_times {
            self.queue.schedule_in(at, Event::CrashControlPlane);
        }
    }

    /// The event loop: pop-and-dispatch until the workload resolves, the
    /// deadline passes, or `max_events` have been processed this call.
    ///
    /// Returns `(timed_out, budget_exhausted)`. The deadline check runs
    /// *after* the pop on purpose — the over-deadline event still counts
    /// into `delivered`, which keeps event totals (and every golden
    /// fingerprint built on them) identical to the historical behaviour.
    pub(super) fn run_loop(
        &mut self,
        deadline: SimTime,
        max_events: u64,
        policy: &mut PolicySlot,
    ) -> (bool, bool) {
        let mut timed_out = false;
        let mut budget_exhausted = false;
        let mut processed: u64 = 0;
        while let Some((now, ev)) = self.queue.pop() {
            if now > deadline {
                timed_out = true;
                break;
            }
            self.dispatch(now, ev, policy);
            if self.is_finished() {
                break;
            }
            processed += 1;
            if processed >= max_events {
                budget_exhausted = true;
                break;
            }
        }
        (timed_out, budget_exhausted)
    }

    /// Process one popped event: digest, dispatch to the owning
    /// component, then pump cross-component plumbing.
    pub(super) fn dispatch(&mut self, now: SimTime, ev: Event, policy: &mut PolicySlot) {
        if let Some(d) = self.digest.as_mut() {
            d.record(now.as_millis(), &ev);
        }
        match ev {
            Event::Cluster(ce) => {
                self.cluster.handle(now, ce, &mut self.cluster_sink);
                self.flush_cluster();
            }
            Event::Wq(inc, we) => {
                // A message from a dead master incarnation is dropped: the
                // worker it came from (or was headed to) was talking to a
                // master that no longer exists. The recovered master
                // re-queues the orphaned work instead.
                if inc == self.incarnation {
                    self.master.handle(now, we, &mut self.wq_sink);
                    self.flush_wq();
                }
            }
            Event::PolicyTick => self.policy_tick(now, policy),
            Event::Sample => self.sample(now, policy),
            Event::FailWorkerNode => self.fail_worker_node(now),
            Event::CheckpointTick => self.checkpoint_tick(now, policy),
            Event::CrashControlPlane => self.crash_control_plane(now),
            Event::RestartControlPlane => self.restart_control_plane(now, policy),
            Event::TraceArrival(inc) => {
                // A wake armed by a dead master incarnation is dropped;
                // the restart pass armed a fresh one for the backlog.
                if inc == self.incarnation {
                    self.pump_arrivals(now);
                }
            }
        }
        // A sampler tick only reads the system; anything else may change
        // what the next tick reads.
        if !matches!(ev, Event::Sample) {
            self.history.forget_tick();
        }
        self.pump(now, policy);
    }

    /// Admit every trace arrival that is due, then arm one wake-up for
    /// the next one. During a control-plane outage the pump stays quiet
    /// — arrivals accumulate in the trace (clients retrying against a
    /// dead endpoint) and the restart pass admits the backlog.
    pub(super) fn pump_arrivals(&mut self, now: SimTime) {
        if self.control_plane_down() || self.cleanup_started {
            return;
        }
        let Some(mut arrivals) = self.arrivals.take() else {
            return;
        };
        while let Some(spec) = arrivals.pop_due(now) {
            self.operator
                .submit_trace(now, spec, &mut self.master, &mut self.wq_sink);
        }
        self.flush_wq();
        self.drain_operator_wal();
        if let Some(next) = arrivals.peek_next_time() {
            self.queue
                .schedule_in(next.since(now), Event::TraceArrival(self.incarnation));
        }
        self.arrivals = Some(arrivals);
    }

    /// True when nothing will ever need the pool again: the workflow is
    /// resolved (vacuously true for the empty workflow of a traced run)
    /// and, for traced runs, the trace is drained *and* every admitted
    /// task reached a terminal state. Replaces bare
    /// `operator.all_complete()` checks — those would declare an open-loop
    /// run finished while arrivals were still in flight.
    pub(super) fn workload_resolved(&mut self) -> bool {
        if !self.operator.all_complete() {
            return false;
        }
        match self.arrivals.as_mut() {
            None => true,
            Some(a) => a.exhausted() && self.master.all_complete(),
        }
    }

    /// The workload-resolved transition: the first time the workload is
    /// resolved, stamp the finish time, trace `why` and begin cleanup.
    pub(super) fn finish_if_resolved(&mut self, now: SimTime, why: &str) {
        if self.workload_resolved() && self.workload_finished_at.is_none() {
            self.workload_finished_at = Some(now);
            self.trace.push(now, "driver", why.into());
            self.start_cleanup(now);
        }
    }

    /// True once the workload is done and every cluster object we created
    /// has stopped (and so left the cluster).
    pub(super) fn is_finished(&self) -> bool {
        if self.workload_finished_at.is_none() {
            return false;
        }
        if self.live_worker_pods() > 0 {
            return false;
        }
        self.master_pod
            .is_none_or(|pod| self.cluster.pod(pod).is_none())
    }

    /// Cross-component plumbing: drain informer events and master
    /// notifications until both are quiet.
    fn pump(&mut self, now: SimTime, policy: &mut PolicySlot) {
        let mut watch = std::mem::take(&mut self.watch_scratch);
        let mut notes = std::mem::take(&mut self.note_scratch);
        loop {
            watch.clear();
            self.cluster.drain_watch_into(&mut watch);
            self.master.drain_notifications_into(&mut notes);
            if watch.is_empty() && notes.is_empty() {
                break;
            }
            // Even after a sampler tick there can be work here: a
            // branch's initial action runs outside any event, and what it
            // leaves is drained after the branch's first event.
            self.history.forget_tick();
            // During a control-plane outage the informer consumer is down
            // with it: pod-lifecycle events still happen (the data plane
            // keeps running) but nobody measures init times or adopts
            // fresh workers until the restart reconciliation.
            let down = self.control_plane_down();
            if !down {
                self.tracker.observe_all(watch.iter());
            }
            for ev in &watch {
                match ev.kind {
                    WatchKind::PodRunning(_) => {
                        if down {
                            // The pod keeps running; if it survives the
                            // outage the recovery pass re-adopts it from
                            // the watch-stream snapshot.
                            continue;
                        }
                        // A pod turns Running only in its own `PodStarted`
                        // event, and the pump drains the watch buffer right
                        // after every event, so nothing has retired the pod
                        // before this arm reads it.
                        let group = &self
                            .cluster
                            .pod(ev.pod)
                            .expect("a pod reported running is still live")
                            .spec
                            .group;
                        if Some(ev.pod) == self.master_pod && !self.master_ready {
                            self.master_ready = true;
                            self.on_master_ready(now, policy);
                        } else if group == WORKER_GROUP {
                            let wid = self.master.worker_connect(
                                now,
                                self.cfg.worker_request,
                                &mut self.wq_sink,
                            );
                            self.pod_to_worker.insert(ev.pod, wid);
                            self.worker_to_pod.insert(wid, ev.pod);
                            self.flush_wq();
                        }
                    }
                    WatchKind::PodFailed => {
                        if Some(ev.pod) == self.master_pod && !self.cleanup_started {
                            // StatefulSet semantics: the replacement pod
                            // takes the same sticky ordinal; queue state
                            // and intermediate data survive on the
                            // persistent volume (§V-A).
                            self.master_set.unbind(ev.pod);
                            if self.trace.is_enabled() {
                                self.trace.push(
                                    now,
                                    "driver",
                                    format!(
                                        "master pod {} lost; StatefulSet restarting it",
                                        ev.pod
                                    ),
                                );
                            }
                            let pod = self.create_master_pod(now);
                            self.master_set.bind(pod);
                        }
                        if let Some(wid) = self.pod_to_worker.remove(&ev.pod) {
                            if self.trace.is_enabled() {
                                self.trace.push(
                                    now,
                                    "driver",
                                    format!("worker pod {} killed ({wid})", ev.pod),
                                );
                            }
                            self.worker_to_pod.remove(&wid);
                            self.master.kill_worker(now, wid, &mut self.wq_sink);
                            self.flush_wq();
                        }
                    }
                    _ => {}
                }
            }
            for note in notes.drain(..) {
                self.record_exit(now, &note);
                match note {
                    WqNotification::TaskCompleted {
                        task,
                        cat,
                        measured,
                        ..
                    } => {
                        // Log the acknowledgement *before* handling it:
                        // the handler's own decisions (learning commits,
                        // released warm-up holds) append their records
                        // after this one, preserving causal replay order.
                        self.log(WalRecord::Complete { task });
                        self.operator.on_task_completed(
                            now,
                            task,
                            cat,
                            measured,
                            &mut self.master,
                            &mut self.wq_sink,
                        );
                        self.flush_wq();
                        self.drain_operator_wal();
                        self.finish_if_resolved(now, "workload complete; cleanup");
                    }
                    WqNotification::TaskRequeued(t) => {
                        self.interrupted += 1;
                        if self.trace.is_enabled() {
                            self.trace
                                .push(now, "wq", format!("{t} re-queued (worker killed)"));
                        }
                    }
                    WqNotification::TaskFailed { task, cat, .. } => {
                        if self.trace.is_enabled() {
                            let name = self.master.interner().name(cat);
                            self.trace.push(
                                now,
                                "wq",
                                format!("{task} permanently failed ({name})"),
                            );
                        }
                        self.log(WalRecord::Fail { task });
                        self.operator.on_task_failed(
                            now,
                            task,
                            cat,
                            &mut self.master,
                            &mut self.wq_sink,
                        );
                        self.flush_wq();
                        self.drain_operator_wal();
                        // Graceful degradation can resolve the workflow
                        // with failures: the cleanup path is the same.
                        self.finish_if_resolved(now, "workload resolved (with failures); cleanup");
                    }
                    WqNotification::WorkerStopped(wid) => {
                        if let Some(pod) = self.worker_to_pod.remove(&wid) {
                            self.pod_to_worker.remove(&pod);
                            self.cluster.complete_pod(now, pod, &mut self.cluster_sink);
                            self.flush_cluster();
                        }
                    }
                }
            }
        }
        self.watch_scratch = watch;
        self.note_scratch = notes;
    }

    /// Keep the span of a task that `note` says left the master. It is
    /// recorded once, from the live exit notification: WAL replay
    /// re-finishes a task silently. Workflow runs only — a traced run's
    /// spans would grow with the trace — and never in a what-if rollout.
    fn record_exit(&mut self, now: SimTime, note: &WqNotification) {
        let (WqNotification::TaskCompleted {
            task,
            cat,
            submitted_at,
            started_at,
            interruptions,
            ..
        }
        | WqNotification::TaskFailed {
            task,
            cat,
            submitted_at,
            started_at,
            interruptions,
        }) = *note
        else {
            return;
        };
        if let (History::Full { recorded, .. }, None) = (&mut self.history, &self.arrivals) {
            Arc::make_mut(recorded).spans.push(Span {
                task,
                cat,
                submitted_at,
                started_at,
                exited_at: Some(now),
                interruptions,
            });
        }
    }

    /// The master pod is up: create the initial worker pods and submit the
    /// first batch of jobs (warm-up stage, §V-C).
    fn on_master_ready(&mut self, now: SimTime, policy: &mut PolicySlot) {
        if !self.initial_workers_created {
            self.initial_workers_created = true;
            for _ in 0..self.cfg.initial_workers.min(self.cfg.max_workers) {
                self.cluster
                    .create_pod(now, self.worker_pod_spec(), &mut self.cluster_sink);
                self.flush_cluster();
            }
        }
        // Checkpoint #0 is taken *before* the first submission wave so the
        // WAL (recording since construction) covers every decision ever
        // made on top of it, and the periodic cadence starts here.
        if self
            .recovery
            .as_ref()
            .is_some_and(|r| r.checkpoint.is_none())
        {
            self.take_checkpoint(now, policy);
            let interval = self
                .recovery
                .as_ref()
                .expect("checked above")
                .faults
                .checkpoint_interval;
            self.queue.schedule_in(interval, Event::CheckpointTick);
        }
        self.operator
            .submit_ready(now, &mut self.master, &mut self.wq_sink);
        self.flush_wq();
        self.drain_operator_wal();
        // Open-loop arrivals start flowing once the master can take them.
        // Armed *after* checkpoint #0 so every admission is WAL-covered.
        self.pump_arrivals(now);
    }
}

#[cfg(test)]
mod tests {
    use crate::driver::testkit::*;

    #[test]
    fn fixed_pool_completes_small_workload() {
        let driver =
            SystemDriver::new(small_cfg(), tiny_workflow(6), Box::new(FixedPolicy::new(2)));
        let result = driver.run();
        assert!(!result.timed_out, "run must complete");
        // 6 one-core jobs on 2×3-core workers: one 60 s generation after
        // the image pull and staging. Makespan well under 300 s.
        assert!(result.makespan_s < 300.0, "makespan {}", result.makespan_s);
        assert!(result.summary.runtime_s > 0.0);
        assert_eq!(result.interrupted_tasks, 0);
    }

    #[test]
    fn permanent_failure_degrades_gracefully() {
        // 100 % transient rate with a tiny budget: every task fails
        // permanently, the workflow resolves (nothing hangs) and the
        // failure counters land in the summary.
        let mut cfg = small_cfg();
        cfg.faults = FaultPlan {
            seed: 3,
            task_transient_rate: 1.0,
            max_task_retries: 1,
            ..FaultPlan::default()
        };
        let result = SystemDriver::new(cfg, tiny_workflow(4), Box::new(FixedPolicy::new(2))).run();
        assert!(!result.timed_out, "failed workload must still resolve");
        assert_eq!(result.jobs_failed, 4);
        assert_eq!(result.summary.faults.permanent_failures, 4);
        assert!(result.summary.faults.wasted_core_s > 0.0);
    }

    #[test]
    fn permanently_failed_spans_show_the_run_that_failed() {
        // The fault knobs of `hta-run demo --task-fail-rate 0.6
        // --max-retries 1 --seed 9`: a task whose both attempts fail
        // leaves the master, and its span still shows its last run.
        let mut cfg = small_cfg();
        cfg.faults = FaultPlan {
            seed: 9,
            task_transient_rate: 0.6,
            max_task_retries: 1,
            ..FaultPlan::default()
        };
        let r = SystemDriver::new(cfg, tiny_workflow(12), Box::new(FixedPolicy::new(3))).run();
        assert!(!r.timed_out);
        assert!(r.jobs_failed > 0, "some task must fail permanently");
        assert_eq!(r.task_spans.len(), 12, "one span per job");
        for s in &r.task_spans {
            let exit = s.completed_s.expect("every job completes or fails");
            let start = s.started_s.expect("an exited span has a start");
            assert!(s.submitted_s <= start && start <= exit, "{s:?}");
        }
    }

    #[test]
    fn traced_run_completes_and_retires_every_record() {
        let result = traced_driver("demo-1k,tasks=400,rate=4", 7, 4).run();
        assert!(!result.timed_out, "traced run must complete");
        let st = result.arrivals.expect("traced run reports arrival stats");
        assert_eq!(st.submitted, 400);
        assert_eq!(st.total_tasks, 400);
        assert!(st.exhausted);
        assert_eq!(result.completed, 400);
        assert_ne!(result.completed_digest, 0);
        // Every record left the master on completion and a traced run
        // keeps no exit spans, so memory tracked in-flight tasks.
        assert!(result.task_spans.is_empty());
        // Open loop: the run outlives the last arrival.
        assert!(result.makespan_s >= st.last_arrival_s.expect("arrivals emitted"));
    }

    #[test]
    fn traced_digest_is_identical_across_same_seed_runs() {
        let run = || {
            traced_driver("demo-1k,tasks=200", 11, 4)
                .with_digest(DigestConfig {
                    checkpoint_every: 64,
                    capture: None,
                })
                .run()
        };
        let a = run().digest.expect("digest recorded");
        let b = run().digest.expect("digest recorded");
        assert!(a.events > 0);
        assert!(
            a.matches(&b),
            "same-seed traced runs must be bitwise identical"
        );
        assert_eq!(a.first_divergence(&b), None);
    }
}
