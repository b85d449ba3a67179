//! The sim-sanitizer's audit of the master's structural invariants.

use hta_des::CategoryId;
use hta_resources::Resources;

use super::{is_waiting, Master};
use crate::ids::WorkerId;
use crate::worker::WorkerState;

impl Master {
    /// Assert the master's structural invariants (sim-sanitizer).
    ///
    /// Called after every event and API mutation in sanitized builds
    /// (debug, or the `sim-sanitizer` feature); plain release builds
    /// never evaluate the checks. The delta checks come first and cost
    /// O(1) (O(distinct requirements) for the histogram); the full audit
    /// after them is O(tasks + workers) — acceptable for checked runs,
    /// which is why it must stay behind the gate.
    ///
    /// Delta checks:
    /// * **Counter conservation** — every submitted task is stored or
    ///   counted as completed or failed.
    /// * **Waiting queue** — its histogram counts its live entries, and
    ///   tombstones never outnumber them.
    /// * **Redeclared requirement** — [`Master::declare_resources`], which
    ///   ends in no full audit, moves exactly one count from the task's
    ///   old `(category, declared)` pair to its new one (checked in
    ///   place by `assert_redeclared`).
    ///
    /// Full audit:
    /// * **Queue consistency** — the queue's live entries are exactly the
    ///   tasks whose record says `Waiting`, every other entry is a
    ///   counted tombstone, and the demand histogram is a recount.
    /// * **Record conservation** — every record not `Waiting` is in its
    ///   primary worker's task list, and the on-worker enumeration the
    ///   autoscaler reads lists exactly the records minus the live queue
    ///   entries: no finished task keeps a record, and no task is counted
    ///   twice.
    /// * **Non-negative free resources** — no worker pool is
    ///   over-allocated.
    /// * **Live staging flows** — every worker's in-flight file marker
    ///   and every staging waiter names a flow that is still live.
    /// * **Task table** — its record counter equals a recount of the
    ///   occupied slots, and its window stays trimmed and bounded.
    /// * **Bounded worker state** — no stopped worker is retained, so
    ///   the worker table is exactly the live set.
    /// * **Worker index** — its members and headroom equal a fresh scan
    ///   of the eligible workers, its tree is consistent, and it keeps at
    ///   most `2 × live + INDEX_SLACK` slots. Each dispatch and
    ///   speculation pick is also checked against `scan_first_fit` as
    ///   it is made.
    /// * **Interner stability** — category ids stay dense and resolve
    ///   to distinct names.
    pub fn assert_invariants(&self) {
        if !hta_des::sanitize::ACTIVE {
            return;
        }
        self.waiting.assert_consistent();
        let records = self.tasks.len();
        assert!(
            self.submitted == records + self.completed_count + self.failed_count,
            "task conservation violated by the counters: {} submitted != {records} stored \
             + {} completed + {} failed",
            self.submitted,
            self.completed_count,
            self.failed_count
        );
        self.tasks.assert_consistent();
        let waiting = self.tasks.values().filter(|r| is_waiting(r)).count();
        let (mut live, mut dead) = (0usize, 0usize);
        // The demand histogram must be an exact recount of the live
        // entries — dispatch's early exit is only sound if no requirement
        // is ever under-counted.
        let mut expect: Vec<(CategoryId, Option<Resources>, usize)> = Vec::new();
        for t in self.waiting.iter() {
            let Some(rec) = self.tasks.get(&t).filter(|r| is_waiting(r)) else {
                dead += 1;
                continue;
            };
            live += 1;
            match expect
                .iter_mut()
                .find(|(c, d, _)| *c == rec.spec.cat && *d == rec.spec.declared)
            {
                Some(slot) => slot.2 += 1,
                None => expect.push((rec.spec.cat, rec.spec.declared, 1)),
            }
        }
        assert!(
            live == waiting && live == self.waiting.len() && dead == self.waiting.tombstones(),
            "waiting queue holds {live} live entries and {dead} tombstones, but {waiting} \
             tasks are in state Waiting and the queue counts {} live and {} tombstones",
            self.waiting.len(),
            self.waiting.tombstones()
        );
        for rec in self.tasks.values().filter(|r| !is_waiting(r)) {
            let on_list = rec
                .worker()
                .and_then(|w| self.workers.get(&w))
                .is_some_and(|w| w.tasks().contains(&rec.spec.id));
            assert!(
                on_list,
                "task {:?} in state {:?} is missing from its worker's task list",
                rec.spec.id, rec.state
            );
        }
        let on_worker = self.view().running().count();
        assert!(
            on_worker + self.waiting.len() == records,
            "task conservation violated: {records} stored records != the waiting queue's {} \
             live entries + {on_worker} on-worker tasks",
            self.waiting.len()
        );
        let demand = self.waiting.demand();
        assert!(
            expect.len() == demand.len()
                && expect.iter().all(|(c, d, n)| demand
                    .iter()
                    .any(|(cc, dd, nn)| cc == c && dd == d && nn == n)),
            "waiting-demand histogram {demand:?} out of sync with queue recount {expect:?}"
        );
        for w in self.workers.values() {
            let free = w.pool.available();
            assert!(
                !free.has_negative(),
                "worker {:?} over-allocated: available {free:?} of capacity {:?}",
                w.id,
                w.capacity()
            );
            // A marker naming a dead flow strands every later task on
            // this worker that needs the file.
            for flow in w.inflight_flows() {
                assert!(
                    self.flows.contains_key(&flow),
                    "worker {:?} marks a file in flight on {flow:?}, which is no longer live",
                    w.id
                );
            }
        }
        for (task, deps) in &self.staging_waits {
            assert!(
                deps.iter().all(|f| self.flows.contains_key(f)),
                "task {task:?} waits on staging flows {deps:?}, not all of them live"
            );
        }
        // Bounded state: a stopped worker is retired on the spot, so the
        // table holds exactly the live workers.
        let stopped = self
            .workers
            .values()
            .filter(|w| w.state == WorkerState::Stopped)
            .count();
        assert!(
            stopped == 0,
            "worker table holds {} records, {stopped} of them stopped (stopped worker retained)",
            self.workers.len()
        );
        // The worker index must equal a fresh scan: the same members with
        // current entries, the same headroom, and a tree within its bound.
        self.index.assert_consistent();
        let members: Vec<(WorkerId, (Resources, bool))> = self
            .workers
            .values()
            .filter_map(|w| Some((w.id, self.index_entry(w)?)))
            .collect();
        assert!(
            self.index.members().eq(members.iter().copied()),
            "worker index members {:?} out of sync with the worker table {members:?}",
            self.index.members().collect::<Vec<_>>()
        );
        assert!(
            self.index.headroom() == self.scan_headroom(),
            "worker index headroom {:?} != full scan {:?}",
            self.index.headroom(),
            self.scan_headroom()
        );
        let mut seen_cats = 0usize;
        for (name, id) in self.interner.iter_by_name() {
            assert!(
                self.interner.name(id) == name,
                "interner id {id:?} no longer resolves to {name:?}"
            );
            seen_cats += 1;
        }
        assert!(
            seen_cats == self.interner.len(),
            "interner lost ids: {seen_cats} names resolve, {} allocated",
            self.interner.len()
        );
    }

    /// The histogram counts of a redeclared task's `old` and `new`
    /// `(category, declared)` pairs, read before the update for
    /// [`assert_redeclared`](Self::assert_redeclared); `(0, 0)` when the
    /// sanitizer is off.
    pub(super) fn demand_counts(
        &self,
        cat: CategoryId,
        old: Option<Resources>,
        new: Option<Resources>,
    ) -> (usize, usize) {
        if !hta_des::sanitize::ACTIVE {
            return (0, 0);
        }
        (
            self.waiting.demand_of(cat, old),
            self.waiting.demand_of(cat, new),
        )
    }

    /// [`Master::declare_resources`]'s delta check, O(distinct
    /// requirements): the task moved from its `old` pair to its `new` one,
    /// so `old` lost one count and `new` gained one. The total alone
    /// would not show a count left under the wrong pair.
    pub(super) fn assert_redeclared(
        &self,
        cat: CategoryId,
        old: Option<Resources>,
        new: Option<Resources>,
        (old_before, new_before): (usize, usize),
    ) {
        if !hta_des::sanitize::ACTIVE {
            return;
        }
        let (old_after, new_after) = (
            self.waiting.demand_of(cat, old),
            self.waiting.demand_of(cat, new),
        );
        let moved = if old == new {
            old_after == old_before
        } else {
            old_before > 0 && old_after + 1 == old_before && new_after == new_before + 1
        };
        assert!(
            moved,
            "redeclaring a {cat:?} task from {old:?} to {new:?} left the demand histogram \
             at {old_after} (was {old_before}) and {new_after} (was {new_before})"
        );
    }

    /// The dispatch headroom recomputed by a full worker scan: the
    /// component-wise max of free resources across workers that could
    /// take a declared-resources task, and whether any worker could take
    /// an exclusive (unknown-resources) one. Dispatch reads the root of
    /// the incremental [`WorkerIndex`](super::WorkerIndex); this scan is
    /// the sanitizer's reference for it.
    fn scan_headroom(&self) -> (Resources, bool) {
        let mut max_free = Resources::ZERO;
        let mut any_idle = false;
        for w in self.workers.values() {
            if w.state != WorkerState::Active
                || w.exclusive_task.is_some()
                || self.suspects.contains(&w.id)
            {
                continue;
            }
            let free = w.pool.available();
            max_free.millicores = max_free.millicores.max(free.millicores);
            max_free.memory_mb = max_free.memory_mb.max(free.memory_mb);
            max_free.disk_mb = max_free.disk_mb.max(free.disk_mb);
            any_idle |= w.is_idle();
        }
        (max_free, any_idle)
    }

    /// The first-fit placement recomputed by a full worker scan in id
    /// order: the first worker other than `except` that is not a suspect
    /// and can take `req` (`None`: an unknown-resources task, which needs
    /// an empty worker). The sanitizer's reference for the worker index.
    fn scan_first_fit(
        &self,
        req: Option<&Resources>,
        except: Option<WorkerId>,
    ) -> Option<WorkerId> {
        self.workers
            .values()
            .find(|w| {
                Some(w.id) != except
                    && !self.suspects.contains(&w.id)
                    && req.map_or_else(|| w.can_accept_exclusive(), |r| w.can_accept(r))
            })
            .map(|w| w.id)
    }

    /// Assert that the worker index `picked` the worker the first-fit
    /// scan picks for `req` (see [`scan_first_fit`](Self::scan_first_fit));
    /// O(workers) per pick, so only in sanitized builds.
    pub(super) fn assert_first_fit(
        &self,
        req: Option<&Resources>,
        except: Option<WorkerId>,
        picked: Option<WorkerId>,
    ) {
        if !hta_des::sanitize::ACTIVE {
            return;
        }
        let scan = self.scan_first_fit(req, except);
        assert!(
            picked == scan,
            "worker index picked {picked:?} for {req:?} (except {except:?}), the first-fit \
             scan picks {scan:?}"
        );
    }
}

#[cfg(all(test, any(debug_assertions, feature = "sim-sanitizer")))]
mod tests {
    use crate::master::testkit::*;

    #[test]
    #[should_panic(expected = "task conservation violated")]
    fn sanitizer_catches_broken_conservation() {
        let (cat, db) = catalog_with_db();
        let mut m = new_master(link_cfg(), cat);
        let mut q = Queue::new();
        let mut fx = EffectSink::new();
        let _w = m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
        m.submit(
            SimTime::ZERO,
            cpu_task(0, db, Some(Resources::cores(1, 2_000, 2_000))),
            &mut fx,
        );
        run(&mut m, &mut q, &mut fx, 100);
        assert!(m.all_complete());
        // Corrupt the terminal counter the way a buggy completion path
        // would: the next invariant check must abort the run.
        m.completed_count += 1;
        m.assert_invariants();
    }

    #[test]
    #[should_panic(expected = "waiting queue")]
    fn sanitizer_catches_queue_desync() {
        let (cat, db) = catalog_with_db();
        let mut m = new_master(link_cfg(), cat);
        let mut fx = EffectSink::new();
        m.submit(SimTime::ZERO, cpu_task(0, db, None), &mut fx);
        // A task id queued twice (double-requeue bug) must be caught.
        let cat = m.task(TaskId(0)).unwrap().spec.cat;
        m.waiting.push_back(TaskId(0), cat, None);
        m.assert_invariants();
    }

    #[test]
    #[should_panic(expected = "left the demand histogram")]
    fn sanitizer_catches_a_redeclare_left_under_the_old_pair() {
        let (cat, db) = catalog_with_db();
        let mut m = new_master(link_cfg(), cat);
        let mut fx = EffectSink::new();
        m.submit(SimTime::ZERO, cpu_task(0, db, None), &mut fx);
        // A histogram update that moves nothing keeps the total right:
        // only the per-pair delta check sees it.
        let new = Some(Resources::cores(1, 2_000, 2_000));
        let before = m.demand_counts(ALIGN, None, new);
        m.waiting.redeclare(ALIGN, None, None);
        m.assert_redeclared(ALIGN, None, new, before);
    }

    #[test]
    #[should_panic(expected = "was never interned")]
    fn sanitizer_catches_a_category_that_was_never_interned() {
        let (cat, db) = catalog_with_db();
        let mut m = new_master(link_cfg(), cat);
        let mut fx = EffectSink::new();
        let mut spec = cpu_task(0, db, None);
        spec.cat = CategoryId::from_u32(ALIGN.as_u32() + 1);
        m.submit(SimTime::ZERO, spec, &mut fx);
    }
}
