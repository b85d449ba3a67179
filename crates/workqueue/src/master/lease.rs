//! Worker liveness over the lossy channel: heartbeats, the lease scan
//! that presumes silent workers dead, and the at-least-once retransmits
//! of dispatches and completion reports.

use hta_des::{ChanDir, Duration, EffectSink, SimTime};

use super::{Master, WqEvent, WqNotification};
use crate::ids::{TaskId, WorkerId};
use crate::proto::ControlMsg;
use crate::task::TaskState;

impl Master {
    /// True when heartbeat/lease liveness is on.
    pub(super) fn liveness_on(&self) -> bool {
        !self.net.cfg().lease.is_zero()
    }

    /// Heartbeat cadence: a third of the lease, so a worker survives two
    /// lost beats before being presumed dead.
    fn heartbeat_interval(&self) -> Duration {
        Duration::from_millis((self.net.cfg().lease.as_millis() / 3).max(1))
    }

    /// Lease-scan cadence: half the lease bounds detection latency at
    /// `1.5 ×` lease without scanning on every event.
    fn lease_scan_interval(&self) -> Duration {
        Duration::from_millis((self.net.cfg().lease.as_millis() / 2).max(1))
    }

    /// Start a newly connected worker's lease when liveness is on. The
    /// connection itself is a heartbeat; the worker then reports on a
    /// cadence that survives a couple of lost beats before the lease runs
    /// out, and the first connection arms the periodic lease scan.
    pub(super) fn start_lease(&mut self, now: SimTime, id: WorkerId, fx: &mut EffectSink<WqEvent>) {
        if !self.liveness_on() {
            return;
        }
        self.last_heartbeat.insert(id, now);
        self.last_telemetry = self.last_telemetry.max(now);
        fx.push(self.heartbeat_interval(), WqEvent::HeartbeatTick(id));
        if !self.lease_check_armed {
            self.lease_check_armed = true;
            fx.push(self.lease_scan_interval(), WqEvent::LeaseCheck);
        }
    }

    /// A worker finished the run tagged `run_gen` and (re)reports it over
    /// the lossy reverse link. On a drop the worker retries on the seeded
    /// backoff schedule until the master processes the report or the run
    /// is superseded.
    pub(super) fn report_completion(
        &mut self,
        now: SimTime,
        task: TaskId,
        run_gen: u64,
        attempt: u32,
        fx: &mut EffectSink<WqEvent>,
    ) {
        if attempt > 0 {
            let resolved = self.tasks.get(&task).is_none_or(|rec| {
                rec.run_generation != run_gen || !matches!(rec.state, TaskState::Running(_))
            });
            if resolved {
                return; // processed meanwhile, or the run was superseded
            }
        }
        let sent = self.route_ctl(
            now,
            ChanDir::Reverse,
            ControlMsg::Completion { task, run_gen },
            fx,
        );
        if !sent {
            let delay = self.net.retry_delay(attempt);
            fx.push(
                delay,
                WqEvent::CompletionResend(task, run_gen, attempt.saturating_add(1)),
            );
        }
    }

    /// The ack window for dispatch `seq` elapsed: retransmit unless the
    /// ack arrived, the decision was superseded, or the task left its
    /// worker. At-least-once delivery with idempotent receipt.
    pub(super) fn dispatch_timeout(
        &mut self,
        now: SimTime,
        task: TaskId,
        seq: u64,
        attempt: u32,
        fx: &mut EffectSink<WqEvent>,
    ) {
        let resend = self.tasks.get(&task).is_some_and(|rec| {
            rec.dispatch_seq == seq && !rec.dispatch_acked && rec.worker().is_some()
        });
        if !resend {
            return;
        }
        let _ = self.route_ctl(
            now,
            ChanDir::Forward,
            ControlMsg::Dispatch { task, seq },
            fx,
        );
        let next = attempt.saturating_add(1);
        let delay = self.net.retry_delay(next);
        fx.push(delay, WqEvent::DispatchTimeout(task, seq, next));
    }

    /// A worker's heartbeat cadence fired: emit a heartbeat over the
    /// lossy reverse link and re-arm while the worker lives. (A presumed-
    /// dead worker that is merely partitioned keeps beating — its first
    /// heartbeat to survive the network clears the suspicion.)
    pub(super) fn heartbeat_tick(
        &mut self,
        now: SimTime,
        worker: WorkerId,
        fx: &mut EffectSink<WqEvent>,
    ) {
        if !self.workers.contains_key(&worker) || !self.liveness_on() {
            return;
        }
        let _ = self.route_ctl(now, ChanDir::Reverse, ControlMsg::Heartbeat { worker }, fx);
        fx.push(self.heartbeat_interval(), WqEvent::HeartbeatTick(worker));
    }

    /// Periodic lease scan: any live worker whose last heartbeat is older
    /// than the lease is presumed dead. Self-rescheduling.
    pub(super) fn lease_check(&mut self, now: SimTime, fx: &mut EffectSink<WqEvent>) {
        if !self.liveness_on() {
            return;
        }
        let lease = self.net.cfg().lease;
        let expired: Vec<WorkerId> = self
            .last_heartbeat
            .iter()
            .filter(|(_, hb)| now.since(**hb) > lease)
            .map(|(w, _)| *w)
            .collect();
        for wid in expired {
            self.presume_dead(now, wid, fx);
        }
        // Prune entries of workers that stopped gracefully meanwhile.
        let gone: Vec<WorkerId> = self
            .last_heartbeat
            .keys()
            .filter(|w| !self.workers.contains_key(w))
            .copied()
            .collect();
        for w in gone {
            self.last_heartbeat.remove(&w);
            self.suspects.remove(&w);
        }
        fx.push(self.lease_scan_interval(), WqEvent::LeaseCheck);
    }

    /// A worker missed its lease: presume it dead. Its tasks are re-queued
    /// (fresh run generation, so any late completion from the possibly
    /// still-running worker is fenced as a zombie) and the worker is
    /// excluded from placement until a heartbeat proves it alive again.
    /// Unlike [`kill_worker`](Self::kill_worker) the worker record stays
    /// `Active` with its cache — a partitioned worker that heals is
    /// re-adopted with its files still warm.
    fn presume_dead(&mut self, now: SimTime, wid: WorkerId, fx: &mut EffectSink<WqEvent>) {
        if !self.workers.contains_key(&wid) {
            return;
        }
        self.leases_expired += 1;
        self.suspects.insert(wid);
        self.last_heartbeat.remove(&wid);
        let orphans: Vec<TaskId> = self
            .workers
            .get(&wid)
            .map(|w| w.tasks().to_vec())
            .unwrap_or_default();
        // Cancel transfers serving the orphans and drop any speculative
        // entanglement conservatively (the re-queued run restarts from
        // scratch either way).
        self.abandon_transfers(now, |t| orphans.contains(&t));
        for t in &orphans {
            self.cancel_speculation(now, *t);
        }
        for t in orphans.iter().rev() {
            let Some(rec) = self.tasks.get_mut(t) else {
                continue;
            };
            rec.speculative = None;
            rec.state = TaskState::Waiting;
            rec.allocation = None;
            rec.started_at = None;
            rec.run_generation += 1;
            rec.interruptions += 1;
            rec.dispatch_acked = false;
            self.waiting.push_front(*t, rec.spec.cat, rec.spec.declared);
            self.notifications.push(WqNotification::TaskRequeued(*t));
        }
        if let Some(w) = self.workers.get_mut(&wid) {
            for t in &orphans {
                w.remove_task(*t);
            }
        }
        self.worker_changed(wid);
        // Cancelled flows bumped the link generations; re-arm so the
        // survivors' completions still wake the link.
        self.arm_link_wake(fx);
        self.arm_peer_wake(fx);
        self.dispatch(now, fx);
    }
}

#[cfg(test)]
mod tests {
    use crate::master::testkit::*;

    #[test]
    fn a_readopted_worker_restages_a_file_whose_flow_died_with_its_lease() {
        // A 10 GB cacheable input takes 100 s on the 100 MB/s uplink.
        // Worker→master traffic is cut from 1 s to 101 s, so the lease
        // runs out mid-transfer: the presumed-dead worker's flow is
        // cancelled and its task re-queued. The heartbeat after the cut
        // re-adopts the worker with the task's file still unstaged, and
        // the re-dispatched task must start a fresh transfer rather than
        // wait on the cancelled one.
        let mut cat = FileCatalog::new();
        let db = cat.register("blast-db", 10_000.0, true);
        let cut = hta_des::Partition {
            start: Duration::from_secs(1),
            duration: Duration::from_secs(100),
            asymmetric: true,
        };
        let mut m = new_master(lease_cfg(vec![cut]), cat);
        let mut q = Queue::new();
        let mut fx = EffectSink::new();
        let w = m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
        m.submit(
            SimTime::ZERO,
            cpu_task(0, db, Some(Resources::cores(1, 2_000, 2_000))),
            &mut fx,
        );
        run_until(&mut m, &mut q, &mut fx, SimTime::from_secs(60));
        assert!(m.suspects.contains(&w), "lease expired mid-transfer");
        assert!(m.flows.is_empty(), "the suspect's transfer is cancelled");
        assert_eq!(
            m.workers[&w].inflight_flows().count(),
            0,
            "…and so is its in-flight marker"
        );
        run_until(&mut m, &mut q, &mut fx, SimTime::from_secs(5_000));
        assert!(!m.suspects.contains(&w), "re-adopted after the cut");
        assert_eq!(m.completed_count(), 1, "stuck in {:?}", m.task(TaskId(0)));
        assert!(m.workers[&w].has_cached(db));
    }
}
