//! Input staging and output return over the transfer links: the flows,
//! the workers' in-flight file markers, the tasks waiting on flows, and
//! the link wake-ups.
//!
//! [`Master::begin_staging`] is visible only to the control channel, the
//! one place a dispatch message is received; everything else here is
//! open to the whole master.

use hta_des::{EffectSink, SimTime};

use crate::ids::{FileId, FlowId, TaskId};
use crate::master::{Master, WqEvent};
use crate::task::TaskState;

/// Why a flow exists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(in crate::master) enum FlowPurpose {
    /// Delivering inputs for a task; `files` are the cacheable files the
    /// flow carries (cached on the worker when it completes).
    Staging {
        /// The task that initiated the transfer (it waits on the flow).
        task: TaskId,
        /// Cacheable files carried (other tasks may be waiting on them).
        files: Vec<FileId>,
        /// Other tasks on the same worker waiting on the carried files.
        /// They leave with the flow: a cancelled flow drops its list.
        sharers: Vec<TaskId>,
    },
    /// Returning a task's output.
    Returning(TaskId),
}

impl FlowPurpose {
    fn task(&self) -> TaskId {
        match self {
            FlowPurpose::Staging { task, .. } => *task,
            FlowPurpose::Returning(t) => *t,
        }
    }
}

impl Master {
    /// Arm the link wake-ups [`begin_staging`](Self::begin_staging)
    /// requested, once per entry-point batch (several dispatches in one
    /// batch still produce a single wake per link, exactly like the
    /// pre-channel code).
    pub(in crate::master) fn flush_wakes(&mut self, fx: &mut EffectSink<WqEvent>) {
        if std::mem::take(&mut self.wake_link) {
            self.arm_link_wake(fx);
        }
        if std::mem::take(&mut self.wake_peer) {
            self.arm_peer_wake(fx);
        }
    }

    /// A master-link wake-up: resolve the flows that finished, dispatch,
    /// and re-arm. Stale when `generation` is no longer the link's.
    pub(in crate::master) fn link_wake(
        &mut self,
        now: SimTime,
        generation: u64,
        fx: &mut EffectSink<WqEvent>,
    ) {
        if generation != self.link.generation() {
            return; // stale wake-up
        }
        self.link.advance(now);
        let mut done = std::mem::take(&mut self.flow_scratch);
        self.link.take_completed(&mut done);
        self.process_completed_flows(now, &mut done, fx);
        self.flow_scratch = done;
        self.dispatch(now, fx);
        self.arm_link_wake(fx);
    }

    /// The peer-link counterpart of [`link_wake`](Self::link_wake).
    pub(in crate::master) fn peer_link_wake(
        &mut self,
        now: SimTime,
        generation: u64,
        fx: &mut EffectSink<WqEvent>,
    ) {
        if generation != self.peer_link.generation() {
            return; // stale wake-up
        }
        self.peer_link.advance(now);
        let mut done = std::mem::take(&mut self.flow_scratch);
        self.peer_link.take_completed(&mut done);
        self.process_completed_flows(now, &mut done, fx);
        self.flow_scratch = done;
        self.dispatch(now, fx);
        self.arm_peer_wake(fx);
    }

    /// Open the flow that returns `task`'s output over the master link.
    /// The caller arms the link wake.
    pub(in crate::master) fn begin_return(&mut self, now: SimTime, task: TaskId, output_mb: f64) {
        let flow = FlowId(self.next_flow);
        self.next_flow += 1;
        self.link.advance(now);
        self.link.add_flow(now, flow, output_mb);
        self.flows.insert(flow, FlowPurpose::Returning(task));
    }

    /// Resolve a batch of completed staging/returning flows (from either
    /// link), leaving `done` empty for reuse.
    fn process_completed_flows(
        &mut self,
        now: SimTime,
        done: &mut Vec<FlowId>,
        fx: &mut EffectSink<WqEvent>,
    ) {
        for flow in done.drain(..) {
            let Some(purpose) = self.flows.remove(&flow) else {
                continue;
            };
            match purpose {
                FlowPurpose::Staging {
                    task,
                    files,
                    mut sharers,
                } => {
                    // The carried cacheable files are now on the worker.
                    if let Some(rec) = self.tasks.get(&task) {
                        if let TaskState::Staging(wid) = rec.state {
                            if let Some(w) = self.workers.get_mut(&wid) {
                                for f in &files {
                                    w.cache_file(*f);
                                }
                            }
                        }
                    }
                    // Start every waiter (the initiating task and any
                    // cache-sharers) this was the last flow for, in
                    // ascending task id. The initiator is slotted in by
                    // position rather than pushed, so the common flow
                    // with no sharers allocates nothing.
                    let initiator_ready = self.release_waiter(task, flow);
                    sharers.retain(|t| self.release_waiter(*t, flow));
                    sharers.sort_unstable();
                    let at = sharers.partition_point(|t| *t < task);
                    for t in &sharers[..at] {
                        self.start_execution(now, *t, fx);
                    }
                    if initiator_ready {
                        self.start_execution(now, task, fx);
                    }
                    for t in &sharers[at..] {
                        self.start_execution(now, *t, fx);
                    }
                }
                FlowPurpose::Returning(task) => {
                    self.finalize_completion(now, task);
                }
            }
        }
    }

    /// Cancel every flow serving a task `serves` picks, on both links, and
    /// drop those tasks' staging waits. Flows are cancelled in ascending
    /// id order.
    pub(in crate::master) fn abandon_transfers(
        &mut self,
        now: SimTime,
        serves: impl Fn(TaskId) -> bool,
    ) {
        let stale: Vec<FlowId> = self
            .flows
            .iter()
            .filter(|(_, p)| serves(p.task()))
            .map(|(f, _)| *f)
            .collect();
        for f in stale {
            self.cancel_flow(now, f);
        }
        self.staging_waits.retain(|t, _| !serves(*t));
    }

    /// Cancel a staging or returning flow on both links. A staging flow
    /// also takes its in-flight markers off the worker it was delivering
    /// to: the worker may live on (a presumed-dead worker re-adopted by a
    /// heartbeat), and a marker naming a dead flow would make every later
    /// task there that needs the same file wait on it forever.
    fn cancel_flow(&mut self, now: SimTime, flow: FlowId) {
        self.link.cancel_flow(now, flow);
        self.peer_link.cancel_flow(now, flow);
        let Some(FlowPurpose::Staging { task, .. }) = self.flows.remove(&flow) else {
            return;
        };
        let Some(TaskState::Staging(wid)) = self.tasks.get(&task).map(|r| r.state) else {
            return;
        };
        if let Some(w) = self.workers.get_mut(&wid) {
            w.clear_inflight_flow(flow);
        }
    }

    /// Strike the completed `flow` off `task`'s staging waits; true when
    /// it was the task's last one (the task may start). A task that no
    /// longer waits on `flow` (re-queued since it registered) is left
    /// alone.
    fn release_waiter(&mut self, task: TaskId, flow: FlowId) -> bool {
        let Some(deps) = self.staging_waits.get_mut(&task) else {
            return false;
        };
        let Some(pos) = deps.iter().position(|f| *f == flow) else {
            return false;
        };
        deps.remove(pos);
        if !deps.is_empty() {
            return false;
        }
        self.staging_waits.remove(&task);
        true
    }

    /// Worker side of an applied dispatch: split the task's inputs into
    /// already cached (free), being delivered by another task's flow (wait
    /// on it), available at a peer worker (peer fetch), or missing
    /// (transfer them in this task's own flow over the master uplink) —
    /// then start executing or wait on the staging flows.
    ///
    /// Reached only through [`recv_dispatch`](Self::recv_dispatch): the
    /// staging work is what the [`ControlMsg::Dispatch`] message carries,
    /// so it must not happen before the message survives the network.
    pub(super) fn begin_staging(
        &mut self,
        now: SimTime,
        task: TaskId,
        fx: &mut EffectSink<WqEvent>,
    ) {
        let Some(rec) = self.tasks.get(&task) else {
            return;
        };
        let TaskState::Staging(wid) = rec.state else {
            return;
        };
        self.link.advance(now);
        let mut inputs = std::mem::take(&mut self.input_scratch);
        inputs.clear();
        inputs.extend_from_slice(&self.tasks[&task].spec.inputs);
        let mut deps: Vec<FlowId> = Vec::new();
        let mut own_mb = 0.0;
        let mut own_cacheable: Vec<FileId> = Vec::new();
        let mut peer_fetches: Vec<(FileId, f64)> = Vec::new();
        let own_flow_id = FlowId(self.next_flow);
        for f in &inputs {
            let target = &self.workers[&wid];
            if target.has_cached(*f) {
                continue;
            }
            if let Some(flow) = target.inflight_flow(*f) {
                if !deps.contains(&flow) {
                    deps.push(flow);
                }
                continue;
            }
            let Some(spec) = self.catalog.get(*f) else {
                continue;
            };
            if self.peer_transfers && spec.cacheable {
                // Another live worker already holds the file: fetch it
                // peer-to-peer instead of re-sending from the master.
                let held_elsewhere = self
                    .workers
                    .values()
                    .any(|w| w.id != wid && w.has_cached(*f));
                if held_elsewhere {
                    peer_fetches.push((*f, spec.size_mb));
                    continue;
                }
            }
            own_mb += spec.size_mb;
            if spec.cacheable {
                own_cacheable.push(*f);
                self.workers
                    .get_mut(&wid)
                    .expect("worker exists")
                    .mark_inflight(*f, own_flow_id);
            }
        }
        self.input_scratch = inputs;
        if own_mb > 0.0 {
            self.next_flow += 1;
            self.link.add_flow(now, own_flow_id, own_mb);
            self.flows.insert(
                own_flow_id,
                FlowPurpose::Staging {
                    task,
                    files: own_cacheable,
                    sharers: Vec::new(),
                },
            );
            deps.push(own_flow_id);
            self.wake_link = true;
        }
        if !peer_fetches.is_empty() {
            self.peer_link.advance(now);
            for (f, mb) in peer_fetches {
                let flow = FlowId(self.next_flow);
                self.next_flow += 1;
                self.peer_link.add_flow(now, flow, mb);
                self.flows.insert(
                    flow,
                    FlowPurpose::Staging {
                        task,
                        files: vec![f],
                        sharers: Vec::new(),
                    },
                );
                if let Some(w) = self.workers.get_mut(&wid) {
                    w.mark_inflight(f, flow);
                }
                deps.push(flow);
            }
            self.wake_peer = true;
        }
        if deps.is_empty() {
            self.start_execution(now, task, fx);
        } else {
            // Join the waiters of the other tasks' flows this one shares.
            for flow in &deps {
                if let Some(FlowPurpose::Staging {
                    task: initiator,
                    sharers,
                    ..
                }) = self.flows.get_mut(flow)
                {
                    if *initiator != task {
                        sharers.push(task);
                    }
                }
            }
            self.staging_waits.insert(task, deps);
        }
    }

    /// Schedule the next link wake-up (tagged with the current generation).
    pub(in crate::master) fn arm_link_wake(&self, fx: &mut EffectSink<WqEvent>) {
        if let Some(d) = self.link.next_completion_delay() {
            fx.push(d, WqEvent::LinkWake(self.link.generation()));
        }
    }

    /// Schedule the next peer-link wake-up.
    pub(in crate::master) fn arm_peer_wake(&self, fx: &mut EffectSink<WqEvent>) {
        if let Some(d) = self.peer_link.next_completion_delay() {
            fx.push(d, WqEvent::PeerLinkWake(self.peer_link.generation()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::master::testkit::*;

    #[test]
    fn cacheable_input_transfers_once_per_worker() {
        let (cat, db) = catalog_with_db();
        let mut m = new_master(link_cfg(), cat);
        let mut q = Queue::new();
        let mut fx = EffectSink::new();
        let w = m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
        run(&mut m, &mut q, &mut fx, 10);
        let decl = Some(Resources::cores(4, 2_000, 2_000)); // serialize on cores
        m.submit(SimTime::ZERO, cpu_task(0, db, decl), &mut fx);
        let t0_done = run(&mut m, &mut q, &mut fx, 200)[&TaskId(0)];
        assert!(m.worker(w).unwrap().has_cached(db));
        m.submit(t0_done, cpu_task(1, db, decl), &mut fx);
        run(&mut m, &mut q, &mut fx, 200);
        // Second task skipped staging: started as soon as dispatched.
        assert_eq!(completion(&m, TaskId(1)).1, Some(t0_done));
    }

    #[test]
    fn one_cacheable_flow_releases_its_many_waiters_in_id_order() {
        let (cat, db) = catalog_with_db();
        let mut m = new_master(link_cfg(), cat);
        let mut q = Queue::new();
        let mut fx = EffectSink::new();
        let _w = m.worker_connect(
            SimTime::ZERO,
            Resources::cores(32, 128_000, 500_000),
            &mut fx,
        );
        run(&mut m, &mut q, &mut fx, 10);
        // Submitted in descending id, so dispatch (and sharer) order is
        // the reverse of the id order the release must follow.
        let decl = Some(Resources::cores(1, 2_000, 2_000));
        for id in (0..32).rev() {
            m.submit(SimTime::ZERO, cpu_task(id, db, decl), &mut fx);
        }
        assert_eq!(m.flows.len(), 1, "one transfer carries the database");
        let Some(FlowPurpose::Staging { task, sharers, .. }) = m.flows.values().next() else {
            panic!("a staging flow");
        };
        assert_eq!(*task, TaskId(31), "the first dispatched task initiates it");
        assert_eq!(sharers.len(), 31, "every other task waits on it");
        assert_eq!(m.staging_waits.len(), 32);
        // Drive events until the flow completes; the tasks it releases
        // schedule their finish events in start order.
        sched(&mut q, &mut fx);
        let mut started = Vec::new();
        while let Some((now, ev)) = q.pop() {
            m.handle(now, ev, &mut fx);
            for (d, e) in fx.drain() {
                if let WqEvent::TaskFinished(t, _) = e {
                    started.push(t);
                }
                q.schedule_in(d, e);
            }
            if !started.is_empty() {
                break;
            }
        }
        assert_eq!(started, (0..32).map(TaskId).collect::<Vec<_>>());
        assert!(m.staging_waits.is_empty() && m.flows.is_empty());
        run(&mut m, &mut q, &mut fx, 10_000);
        assert!(m.all_complete());
        assert_eq!(m.completed_count(), 32);
    }

    #[test]
    fn a_cancelled_flow_leaves_no_waiter_behind() {
        let (cat, db) = catalog_with_db();
        let mut m = new_master(link_cfg(), cat);
        let mut q = Queue::new();
        let mut fx = EffectSink::new();
        let cap = Resources::cores(8, 64_000, 500_000);
        let w = m.worker_connect(SimTime::ZERO, cap, &mut fx);
        run(&mut m, &mut q, &mut fx, 10);
        let decl = Some(Resources::cores(1, 2_000, 2_000));
        for id in 0..8 {
            m.submit(SimTime::ZERO, cpu_task(id, db, decl), &mut fx);
        }
        assert_eq!(m.staging_waits.len(), 8);
        m.kill_worker(SimTime::from_secs(1), w, &mut fx);
        assert!(
            m.flows.is_empty(),
            "the killed worker's transfer is cancelled"
        );
        assert!(
            m.staging_waits.is_empty(),
            "…and none of its waiters remain"
        );
        assert_eq!(m.waiting_count(), 8);
        let _w2 = m.worker_connect(SimTime::from_secs(1), cap, &mut fx);
        run(&mut m, &mut q, &mut fx, 10_000);
        assert!(m.all_complete());
        assert_eq!(m.completed_count(), 8);
    }

    #[test]
    fn peer_transfers_offload_the_master_uplink() {
        let (cat, db) = catalog_with_db();
        // Slow master uplink, fast peer network: the second worker's copy
        // of the cacheable db should come from its peer, far sooner than
        // another master transfer would allow.
        let mut m = new_master(
            MasterConfig {
                egress_base_mbps: 10.0, // 100 MB db → 10 s per master copy
                egress_overhead_per_flow: 0.0,
                peer_transfers: true,
                peer_bandwidth_mbps: 1_000.0, // 0.1 s per peer copy
                ..MasterConfig::default()
            },
            cat,
        );
        let mut q = Queue::new();
        let mut fx = EffectSink::new();
        let _w1 = m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
        run(&mut m, &mut q, &mut fx, 5);
        let decl = Some(Resources::cores(4, 2_000, 2_000)); // serialize per worker
        m.submit(SimTime::ZERO, cpu_task(0, db, decl), &mut fx);
        run(&mut m, &mut q, &mut fx, 100);
        assert_eq!(m.completed_count(), 1);
        // Pin worker 1 with a long task so the next task lands on worker 2
        // (whose cache is cold) while worker 1 still holds the db.
        let mut blocker = cpu_task(9, db, decl);
        blocker.exec = ExecModel::cpu_bound(Duration::from_secs(5_000));
        m.submit(q.now(), blocker, &mut fx);
        sched(&mut q, &mut fx);
        // Second worker joins; its task's db comes over the peer link.
        // (Do not pump here: the next queued event is the blocker's finish
        // thousands of seconds away.)
        let w2 = m.worker_connect(q.now(), Resources::cores(4, 16_000, 50_000), &mut fx);
        sched(&mut q, &mut fx);
        let t1_submit = q.now();
        m.submit(t1_submit, cpu_task(1, db, decl), &mut fx);
        run(&mut m, &mut q, &mut fx, 200);
        let (_, started_at, _) = completion(&m, TaskId(1));
        // Staging must be far faster than the 10 s a master copy takes:
        // ~0.3 s (0.1 s peer db + 0.2 s master query chunk).
        let staging = started_at.unwrap().since(t1_submit).as_secs_f64();
        assert!(staging < 2.0, "staging took {staging}s — not peer-served");
        assert!(m.worker(w2).unwrap().has_cached(db));
    }

    #[test]
    fn peer_transfers_disabled_use_master_uplink() {
        let (cat, db) = catalog_with_db();
        let mut m = new_master(
            MasterConfig {
                egress_base_mbps: 10.0,
                egress_overhead_per_flow: 0.0,
                peer_bandwidth_mbps: 1_000.0,
                ..MasterConfig::default()
            },
            cat,
        );
        let mut q = Queue::new();
        let mut fx = EffectSink::new();
        let _w1 = m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
        run(&mut m, &mut q, &mut fx, 5);
        let decl = Some(Resources::cores(4, 2_000, 2_000));
        m.submit(SimTime::ZERO, cpu_task(0, db, decl), &mut fx);
        run(&mut m, &mut q, &mut fx, 100);
        let mut blocker = cpu_task(9, db, decl);
        blocker.exec = ExecModel::cpu_bound(Duration::from_secs(5_000));
        m.submit(q.now(), blocker, &mut fx);
        sched(&mut q, &mut fx);
        let _w2 = m.worker_connect(q.now(), Resources::cores(4, 16_000, 50_000), &mut fx);
        sched(&mut q, &mut fx);
        let t1_submit = q.now();
        m.submit(t1_submit, cpu_task(1, db, decl), &mut fx);
        run(&mut m, &mut q, &mut fx, 200);
        let (_, started_at, _) = completion(&m, TaskId(1));
        let staging = started_at.unwrap().since(t1_submit).as_secs_f64();
        assert!(
            staging > 9.0,
            "staging took {staging}s — master copy expected"
        );
    }
}
