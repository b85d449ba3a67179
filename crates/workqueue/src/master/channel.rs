//! The control channel: every master↔worker message crosses the lossy
//! [`NetChannel`](hta_des::NetChannel) here.
//!
//! Other modules send through [`Master::route_ctl`] and hand late copies
//! to [`Master::net_deliver`]; the delivery demultiplexer and the typed
//! receivers are private to this module, and staging (the work a
//! dispatch message carries) can be started only from here. So the
//! compiler, not a lint, keeps every state change behind the channel's
//! loss, delay, partitions and fencing (dispatch sequence, run
//! generation).

pub(super) mod staging;

use hta_des::{ChanDir, Delivery, EffectSink, SimTime};

use super::{Master, WqEvent};
use crate::ids::{TaskId, WorkerId};
use crate::proto::ControlMsg;
use crate::task::{TaskRecord, TaskState};

impl Master {
    /// Route one control message through the lossy channel.
    ///
    /// Inline delivery (zero-fault transport) applies the message
    /// immediately — the exact call sequence of a direct method call;
    /// otherwise delivery becomes one (or, duplicated, two) scheduled
    /// [`WqEvent::NetDeliver`]s, or nothing at all when the network eats
    /// the message. Returns `false` on a drop so the caller can arm its
    /// retransmit machinery.
    pub(super) fn route_ctl(
        &mut self,
        now: SimTime,
        dir: ChanDir,
        msg: ControlMsg,
        fx: &mut EffectSink<WqEvent>,
    ) -> bool {
        match self.net.send(now, dir) {
            Delivery::Inline => {
                self.deliver_ctl(now, msg, fx);
                true
            }
            Delivery::Deliver { delay, dup } => {
                fx.push(delay, WqEvent::NetDeliver(msg));
                if let Some(d) = dup {
                    fx.push(d, WqEvent::NetDeliver(msg));
                }
                true
            }
            Delivery::Dropped => false,
        }
    }

    /// Apply a control message the network delivered late (the
    /// [`WqEvent::NetDeliver`] arm of [`handle`](Self::handle)), then arm
    /// the link wakes its staging requested.
    pub(super) fn net_deliver(
        &mut self,
        now: SimTime,
        msg: ControlMsg,
        fx: &mut EffectSink<WqEvent>,
    ) {
        self.deliver_ctl(now, msg, fx);
        self.flush_wakes(fx);
    }

    /// Apply one delivered control message. Only reachable through
    /// [`route_ctl`](Self::route_ctl) (inline) or
    /// [`net_deliver`](Self::net_deliver) — state mutations that skip the
    /// channel would dodge the fault model.
    fn deliver_ctl(&mut self, now: SimTime, msg: ControlMsg, fx: &mut EffectSink<WqEvent>) {
        match msg {
            ControlMsg::Dispatch { task, seq } => self.recv_dispatch(now, task, seq, fx),
            ControlMsg::DispatchAck { task, seq } => {
                let fresh = |r: &TaskRecord| r.dispatch_seq == seq && !r.dispatch_acked;
                if let Some(rec) = self.tasks.get_mut_if(&task, fresh) {
                    rec.dispatch_acked = true;
                }
            }
            ControlMsg::Completion { task, run_gen } => {
                self.recv_completion(now, task, run_gen, fx)
            }
            ControlMsg::Heartbeat { worker } => self.recv_heartbeat(now, worker, fx),
        }
    }

    /// Worker side of a [`ControlMsg::Dispatch`]: begin staging, then
    /// acknowledge. Idempotent — retransmits and duplicate copies of a
    /// dispatch already under way only re-send the (possibly lost) ack,
    /// and a copy carrying a superseded sequence number is fenced.
    fn recv_dispatch(
        &mut self,
        now: SimTime,
        task: TaskId,
        seq: u64,
        fx: &mut EffectSink<WqEvent>,
    ) {
        let fresh = {
            let Some(rec) = self.tasks.get(&task) else {
                return;
            };
            if rec.dispatch_seq != seq {
                return; // fenced: a newer dispatch decision superseded this copy
            }
            if rec.worker().is_none() {
                return; // placement revoked (worker killed) before arrival
            }
            // Staging with no pending flow-waits ⇔ the dispatch message
            // has not been applied yet (begin_staging either enters
            // staging_waits or starts execution immediately).
            matches!(rec.state, TaskState::Staging(_)) && !self.staging_waits.contains_key(&task)
        };
        if fresh {
            self.begin_staging(now, task, fx);
        }
        let _ = self.route_ctl(
            now,
            ChanDir::Reverse,
            ControlMsg::DispatchAck { task, seq },
            fx,
        );
    }

    /// Master side of a [`ControlMsg::Completion`]: fence zombies, then
    /// hand the surviving report to the completion path. Duplicate copies
    /// of a live report are deduplicated by the state check inside
    /// [`task_finished`](Self::task_finished).
    fn recv_completion(
        &mut self,
        now: SimTime,
        task: TaskId,
        run_gen: u64,
        fx: &mut EffectSink<WqEvent>,
    ) {
        if self.net.cfg().is_active() {
            let stale = self
                .tasks
                .get(&task)
                .is_none_or(|rec| rec.run_generation != run_gen);
            if stale {
                self.zombies_fenced += 1;
            }
        }
        self.task_finished(now, task, run_gen, fx);
    }

    /// Master side of a [`ControlMsg::Heartbeat`]: renew the lease,
    /// refresh telemetry, and clear any presumed-death suspicion (the
    /// worker was cut off, not dead). Re-adopting a suspect re-triggers
    /// dispatch — its re-queued tasks may have nowhere else to go.
    fn recv_heartbeat(&mut self, now: SimTime, worker: WorkerId, fx: &mut EffectSink<WqEvent>) {
        if !self.workers.contains_key(&worker) {
            return;
        }
        self.last_heartbeat.insert(worker, now);
        self.last_telemetry = self.last_telemetry.max(now);
        if self.suspects.remove(&worker) {
            // Re-adoption makes the worker eligible for placement again.
            self.worker_changed(worker);
            self.dispatch(now, fx);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::master::testkit::*;

    #[test]
    fn heartbeat_readopts_suspect_and_reopens_the_gate() {
        // Worker→master traffic is cut for the first 100 s: heartbeats are
        // lost, the lease expires and the worker becomes a suspect, which
        // takes it out of the worker index.
        let (cat, db) = catalog_with_db();
        let cut = hta_des::Partition {
            start: Duration::ZERO,
            duration: Duration::from_secs(100),
            asymmetric: true,
        };
        let mut m = new_master(lease_cfg(vec![cut]), cat);
        let mut q = Queue::new();
        let mut fx = EffectSink::new();
        let w = m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
        run_until(&mut m, &mut q, &mut fx, SimTime::from_secs(60));
        assert!(m.suspects.contains(&w), "lease expired during the cut");
        assert!(m.worker(w).is_some(), "a suspect is not retired");
        let one = Resources::cores(1, 2_000, 2_000);
        assert_eq!(m.index.headroom(), (Resources::ZERO, false));
        assert_eq!(m.index.members().count(), 0);
        assert_eq!(m.index.first_fit(&one, None), None);
        m.submit(
            q.now(),
            cpu_task(0, db, Some(Resources::cores(1, 2_000, 2_000))),
            &mut fx,
        );
        assert_eq!(m.waiting_count(), 1, "no eligible worker while suspect");
        // The first heartbeat after the cut heals re-adopts the worker;
        // its index entry is back and the waiting task is placed on it.
        run_until(&mut m, &mut q, &mut fx, SimTime::from_secs(101));
        assert!(!m.suspects.contains(&w), "re-adopted");
        assert_eq!(m.waiting_count(), 0, "the re-adopted worker took the task");
        assert_eq!(m.index.first_fit(&one, None), Some(w));
        assert_eq!(m.index.first_fit(&one, Some(w)), None);
        assert_eq!(m.task(TaskId(0)).unwrap().worker(), Some(w));
        run_until(&mut m, &mut q, &mut fx, SimTime::from_secs(300));
        assert_eq!(m.completed_count(), 1);
    }
}
