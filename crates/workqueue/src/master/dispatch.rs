//! Dispatch: the admission gate and the first-fit FIFO pass that
//! places waiting tasks on workers (§III-A).

use std::collections::BTreeMap;

use hta_des::{ChanDir, EffectSink, SimTime};
use hta_resources::Resources;

use super::{queued, Master, WqEvent};
use crate::ids::WorkerId;
use crate::proto::ControlMsg;
use crate::task::TaskState;
use crate::worker::{Worker, WorkerState};

/// The dispatch admission gate, kept current per worker instead of
/// rescanned: the component-wise max of free resources over *eligible*
/// workers (active, no exclusive task, not a suspect), and whether any of
/// them is idle. A component-wise max needs one ordered multiset per
/// axis — a single heap cannot answer it — so each axis counts the
/// members' free amounts in a `BTreeMap<value, count>`.
#[derive(Debug, Clone, Default)]
pub(super) struct DispatchGate {
    /// Each eligible worker's free resources and idleness, as counted
    /// into the axes below.
    pub(super) members: BTreeMap<WorkerId, (Resources, bool)>,
    pub(super) millicores: BTreeMap<i64, u32>,
    pub(super) memory_mb: BTreeMap<i64, u32>,
    pub(super) disk_mb: BTreeMap<i64, u32>,
    /// Members with no assigned task.
    pub(super) idle: usize,
}

impl DispatchGate {
    /// Replace a worker's entry (`None` = not eligible). O(log live).
    pub(super) fn set(&mut self, wid: WorkerId, entry: Option<(Resources, bool)>) {
        let old = match entry {
            Some(e) => self.members.insert(wid, e),
            None => self.members.remove(&wid),
        };
        if old == entry {
            return;
        }
        if let Some((free, idle)) = old {
            for (axis, v) in self.axes(free) {
                if let Some(n) = axis.get_mut(&v) {
                    *n -= 1;
                    if *n == 0 {
                        axis.remove(&v);
                    }
                }
            }
            self.idle -= usize::from(idle);
        }
        if let Some((free, idle)) = entry {
            for (axis, v) in self.axes(free) {
                *axis.entry(v).or_insert(0) += 1;
            }
            self.idle += usize::from(idle);
        }
    }

    /// Each axis multiset paired with `free`'s amount on that axis.
    fn axes(&mut self, free: Resources) -> [(&mut BTreeMap<i64, u32>, i64); 3] {
        [
            (&mut self.millicores, free.millicores),
            (&mut self.memory_mb, free.memory_mb),
            (&mut self.disk_mb, free.disk_mb),
        ]
    }

    /// `(max free per axis, any idle)` over the members — exactly what a
    /// full scan of eligible workers starting from zero yields.
    pub(super) fn headroom(&self) -> (Resources, bool) {
        let top = |axis: &BTreeMap<i64, u32>| axis.keys().next_back().map_or(0, |v| (*v).max(0));
        (
            Resources::new(
                top(&self.millicores),
                top(&self.memory_mb),
                top(&self.disk_mb),
            ),
            self.idle > 0,
        )
    }
}

impl Master {
    /// True when some requirement in the demand histogram fits the
    /// dispatch headroom — the O(distinct categories) precondition for
    /// the waiting-queue scan to possibly place anything.
    fn demand_feasible(&self, max_free: &Resources, any_idle: bool) -> bool {
        self.waiting.demand().iter().any(|(_, d, _)| match d {
            Some(req) => req.fits_in(max_free),
            None => any_idle,
        })
    }

    /// First-fit FIFO dispatch of waiting tasks onto workers.
    pub(super) fn dispatch(&mut self, now: SimTime, fx: &mut EffectSink<WqEvent>) {
        // Tests the live count: a queue of tombstones alone must not
        // advance the link (an extra rounding step in the fluid model).
        if self.waiting.is_empty() {
            return;
        }
        self.link.advance(now);
        // Admission gate: the component-wise max of free resources across
        // accepting workers is a necessary condition for any placement —
        // a request that does not fit it cannot fit any single worker. On
        // a saturated cluster (the common long-queue case) this skips the
        // per-task worker scan entirely without changing any decision.
        // Both are upper bounds — `can_accept` checks per-worker fit, so a
        // request exceeding the max on any axis fits nowhere.
        let (mut max_free, mut any_idle) = self.gate.headroom();
        loop {
            // O(distinct requirements) early exit: once the headroom
            // fits nothing still waiting, the rest of the scan cannot
            // place anything (headroom only shrinks within one pass), so
            // a deep backlog costs O(placements), not O(queue length).
            if !self.demand_feasible(&max_free, any_idle) {
                break;
            }
            let tasks = &self.tasks;
            let Some(tid) = self.waiting.pop_front(|t| queued(tasks, t)) else {
                break;
            };
            let rec = &self.tasks[&tid];
            let declared = rec.spec.declared;
            let cat = rec.spec.cat;
            let feasible = match declared {
                Some(req) => req.fits_in(&max_free),
                None => any_idle,
            };
            if !feasible {
                self.waiting.defer(tid);
                continue;
            }
            let target = match declared {
                Some(req) => self
                    .workers
                    .values()
                    .find(|w| !self.suspects.contains(&w.id) && w.can_accept(&req))
                    .map(|w| (w.id, req)),
                None => self
                    .workers
                    .values()
                    .find(|w| !self.suspects.contains(&w.id) && w.can_accept_exclusive())
                    .map(|w| (w.id, w.capacity())),
            };
            let Some((wid, allocation)) = target else {
                self.waiting.defer(tid);
                continue;
            };
            self.waiting.placed(cat, declared);
            {
                let worker = self.workers.get_mut(&wid).expect("worker exists");
                match declared {
                    Some(req) => worker.assign(tid, req),
                    None => worker.assign_exclusive(tid),
                }
            }
            // The placement shrank this worker's free pool; the refresh
            // updates its gate entry, so re-reading keeps the bound sound.
            self.worker_changed(wid);
            (max_free, any_idle) = self.gate.headroom();
            self.net_seq += 1;
            let seq = self.net_seq;
            let rec = self.tasks.get_mut(&tid).expect("task exists");
            rec.state = TaskState::Staging(wid);
            rec.allocation = Some(allocation);
            rec.dispatch_seq = seq;
            rec.dispatch_acked = false;
            // The dispatch decision crosses the control channel: inline
            // (and byte-identical to a direct call) when the transport is
            // fault-free, otherwise subject to delay/loss/partition with
            // the at-least-once retransmit loop below backing it up.
            let _ = self.route_ctl(
                now,
                ChanDir::Forward,
                ControlMsg::Dispatch { task: tid, seq },
                fx,
            );
            if self.net.cfg().transport_active() {
                let d = self.net.retry_delay(0);
                fx.push(d, WqEvent::DispatchTimeout(tid, seq, 0));
            }
        }
        let tasks = &self.tasks;
        self.waiting.finish_pass(|t| queued(tasks, t));
        self.flush_wakes(fx);
    }

    /// Re-derive one worker's dispatch-gate entry, and retire the worker
    /// once it has stopped. Called whenever its state, load, task count or
    /// suspicion changes — every path that stops a worker ends here, which
    /// is what keeps `workers` O(live).
    pub(super) fn worker_changed(&mut self, wid: WorkerId) {
        let live = self
            .workers
            .get(&wid)
            .filter(|w| w.state != WorkerState::Stopped);
        let entry = match live {
            Some(w) => self.gate_entry(w),
            None => {
                self.workers.remove(&wid);
                None
            }
        };
        self.gate.set(wid, entry);
    }

    /// A worker's dispatch-gate entry: its free resources and idleness
    /// when it could take a declared-resources task, `None` otherwise.
    pub(super) fn gate_entry(&self, w: &Worker) -> Option<(Resources, bool)> {
        let eligible = w.state == WorkerState::Active
            && w.exclusive_task.is_none()
            && !self.suspects.contains(&w.id);
        eligible.then(|| (w.pool.available(), w.is_idle()))
    }
}

#[cfg(test)]
mod tests {
    use crate::master::testkit::*;

    #[test]
    fn unknown_resources_run_exclusively() {
        let (cat, db) = catalog_with_db();
        let mut m = new_master(link_cfg(), cat);
        let mut q = EventQueue::new();
        let mut fx = EffectSink::new();
        let _w = m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
        run(&mut m, &mut q, &mut fx, 10);
        // Two unknown tasks, one worker: the second must wait even though
        // the worker has 4 cores.
        m.submit(SimTime::ZERO, cpu_task(0, db, None), &mut fx);
        m.submit(SimTime::ZERO, cpu_task(1, db, None), &mut fx);
        assert_eq!(m.running_count(), 1);
        assert_eq!(m.waiting_count(), 1);
        let done = run(&mut m, &mut q, &mut fx, 200);
        assert!(m.all_complete());
        // Sequential execution: second finishes after ~2×(stage+exec).
        let t1 = done[&TaskId(1)].as_secs_f64();
        assert!(t1 > 120.0, "second exclusive task serialized, done at {t1}");
    }

    #[test]
    fn known_resources_pack_in_parallel() {
        let (cat, db) = catalog_with_db();
        let mut m = new_master(link_cfg(), cat);
        let mut q = EventQueue::new();
        let mut fx = EffectSink::new();
        let _w = m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
        run(&mut m, &mut q, &mut fx, 10);
        let decl = Some(Resources::cores(1, 2_000, 2_000));
        for i in 0..4 {
            m.submit(SimTime::ZERO, cpu_task(i, db, decl), &mut fx);
        }
        assert_eq!(m.running_count(), 4, "all four pack onto the worker");
        let done = run(&mut m, &mut q, &mut fx, 400);
        assert!(m.all_complete());
        // Parallel: all done by ~62 s, not 4×61.
        assert_eq!(done.len(), 4);
        for (i, t) in done {
            let t = t.as_secs_f64();
            assert!(t < 70.0, "task {i} at {t}");
        }
    }
}
