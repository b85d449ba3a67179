//! Dispatch: the worker index and the first-fit FIFO pass that places
//! waiting tasks on workers (§III-A).

use hta_des::{ChanDir, EffectSink, SimTime};
use hta_resources::Resources;

use super::{queued, Master, WqEvent};
use crate::ids::WorkerId;
use crate::proto::ControlMsg;
use crate::task::TaskState;
use crate::worker::{Worker, WorkerState};

/// Holes the index keeps beyond its live slot count before it compacts.
const INDEX_SLACK: usize = 16;

/// One node of the index tree: the component-wise max of free resources
/// over the eligible workers below it, and how many of them are idle.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Node {
    max: Resources,
    idle: u32,
}

/// A hole or an unused leaf: no request fits it, not even a zero one.
const EMPTY: Node = Node {
    max: Resources {
        millicores: i64::MIN,
        memory_mb: i64::MIN,
        disk_mb: i64::MIN,
    },
    idle: 0,
};

impl Node {
    fn merge(a: &Node, b: &Node) -> Node {
        Node {
            max: a.max.max(&b.max),
            idle: a.idle + b.idle,
        }
    }
}

/// The dispatch worker index: the *eligible* workers (active, no
/// exclusive task, not a suspect) in worker-id order, under an implicit
/// array tree whose nodes keep the component-wise max of free resources
/// and an idle count. The root is the dispatch headroom; a leftmost
/// descent that prunes subtrees whose max does not fit finds the same
/// worker as a first-fit scan of the worker table in id order. The
/// per-axis max is a loose bound (no single worker need reach it on
/// every axis), so a descent can still backtrack.
///
/// New workers take the largest id and append a slot at the back. A
/// worker that stops being eligible leaves a hole in its slot, which it
/// refills if it becomes eligible again; once holes outnumber live slots
/// plus [`INDEX_SLACK`], one pass drops them all, so the slots stay
/// within `2 × live + INDEX_SLACK`. Nothing is allocated before the
/// first worker connects.
#[derive(Debug, Clone, Default)]
pub(super) struct WorkerIndex {
    /// Each slot's worker id, strictly ascending; a hole keeps its id
    /// until compaction.
    ids: Vec<WorkerId>,
    /// Node 1 is the root and node `k` has children `2k` and `2k + 1`;
    /// the second half holds the leaves, slot `i` at `leaves() + i`.
    tree: Vec<Node>,
    /// Slots holding an eligible worker.
    live: usize,
}

impl WorkerIndex {
    /// Replace a worker's entry (`None` = not eligible). O(log live),
    /// apart from the amortised rebuilds when the tree grows, compacts or
    /// takes back an id below the largest after a compaction.
    pub(super) fn set(&mut self, wid: WorkerId, entry: Option<(Resources, bool)>) {
        let slot = match self.ids.binary_search(&wid) {
            Ok(slot) => slot,
            Err(_) if entry.is_none() => return,
            Err(at) => self.open_slot(at, wid),
        };
        let node = entry.map_or(EMPTY, |(free, idle)| Node {
            max: free,
            idle: u32::from(idle),
        });
        let mut k = self.leaves() + slot;
        let old = self.tree[k];
        if old == node {
            return;
        }
        match (old == EMPTY, entry.is_none()) {
            (true, false) => self.live += 1,
            (false, true) => self.live -= 1,
            _ => {}
        }
        self.tree[k] = node;
        // An ancestor that comes out unchanged leaves the rest unchanged.
        while k > 1 {
            k /= 2;
            let merged = Node::merge(&self.tree[2 * k], &self.tree[2 * k + 1]);
            if self.tree[k] == merged {
                break;
            }
            self.tree[k] = merged;
        }
        if entry.is_none() && self.ids.len() - self.live > self.live + INDEX_SLACK {
            self.compact();
        }
    }

    /// `(max free per axis, any idle)` over the eligible workers — exactly
    /// what a full scan of them starting from zero yields.
    pub(super) fn headroom(&self) -> (Resources, bool) {
        self.tree.get(1).map_or((Resources::ZERO, false), |root| {
            (root.max.max(&Resources::ZERO), root.idle > 0)
        })
    }

    /// The lowest-id eligible worker whose free resources fit `req`,
    /// skipping `except`.
    pub(super) fn first_fit(&self, req: &Resources, except: Option<WorkerId>) -> Option<WorkerId> {
        self.first_fit_counted(req, except, &mut 0)
    }

    /// [`first_fit`](Self::first_fit), adding the tree nodes it visits to
    /// `visits`.
    fn first_fit_counted(
        &self,
        req: &Resources,
        except: Option<WorkerId>,
        visits: &mut usize,
    ) -> Option<WorkerId> {
        self.descend(|n| req.fits_in(&n.max), except, visits)
    }

    /// The lowest-id idle eligible worker: the one an unknown-resources
    /// task takes whole.
    pub(super) fn first_idle(&self) -> Option<WorkerId> {
        self.descend(|n| n.idle > 0, None, &mut 0)
    }

    /// The leftmost leaf that `fits` and is not `except`: a depth-first
    /// walk from the root that skips every subtree whose node does not
    /// fit.
    fn descend(
        &self,
        fits: impl Fn(&Node) -> bool,
        except: Option<WorkerId>,
        visits: &mut usize,
    ) -> Option<WorkerId> {
        if self.tree.is_empty() {
            return None;
        }
        let leaves = self.leaves();
        let mut k = 1;
        loop {
            *visits += 1;
            if fits(&self.tree[k]) {
                if k < leaves {
                    k *= 2;
                    continue;
                }
                let w = self.ids[k - leaves];
                if Some(w) != except {
                    return Some(w);
                }
            }
            // Done with this subtree: climb while it is a right child, then
            // step to the right sibling; climbing past the root ends the walk.
            while k % 2 == 1 {
                k /= 2;
            }
            if k == 0 {
                return None;
            }
            k += 1;
        }
    }

    /// The eligible workers and their entries, in id order.
    pub(super) fn members(&self) -> impl Iterator<Item = (WorkerId, (Resources, bool))> + '_ {
        self.slots()
            .filter(|(_, n)| *n != EMPTY)
            .map(|(w, n)| (w, (n.max, n.idle > 0)))
    }

    /// Each slot's worker id and leaf, holes included.
    fn slots(&self) -> impl Iterator<Item = (WorkerId, Node)> + '_ {
        let leaves = self.tree.get(self.leaves()..).unwrap_or_default();
        self.ids.iter().copied().zip(leaves.iter().copied())
    }

    /// Number of leaves (slots the tree has room for).
    fn leaves(&self) -> usize {
        self.tree.len() / 2
    }

    /// Give `wid` a hole at position `at`, growing or rebuilding the tree
    /// when it has no room there.
    fn open_slot(&mut self, at: usize, wid: WorkerId) -> usize {
        if at == self.ids.len() && at < self.leaves() {
            self.ids.push(wid);
        } else {
            let mut slots: Vec<_> = self.slots().collect();
            slots.insert(at, (wid, EMPTY));
            self.rebuild(slots);
        }
        at
    }

    /// Drop every hole.
    fn compact(&mut self) {
        let slots = self.slots().filter(|(_, n)| *n != EMPTY).collect();
        self.rebuild(slots);
    }

    /// Lay `slots` out as the leaves of a fresh tree. O(slots).
    fn rebuild(&mut self, slots: Vec<(WorkerId, Node)>) {
        let leaves = slots.len().next_power_of_two();
        self.tree.clear();
        self.tree.resize(2 * leaves, EMPTY);
        self.ids.clear();
        for (i, (wid, node)) in slots.into_iter().enumerate() {
            self.ids.push(wid);
            self.tree[leaves + i] = node;
        }
        for k in (1..leaves).rev() {
            self.tree[k] = Node::merge(&self.tree[2 * k], &self.tree[2 * k + 1]);
        }
    }

    /// Assert the index's own invariants (sim-sanitizer and tests): ids
    /// strictly ascending, every inner node the merge of its children,
    /// the live count a recount, and at most `2 × live + INDEX_SLACK`
    /// slots.
    pub(super) fn assert_consistent(&self) {
        assert!(
            self.ids.windows(2).all(|p| p[0] < p[1]) && self.ids.len() <= self.leaves(),
            "worker index ids out of order or past the tree: {:?} in {} leaves",
            self.ids,
            self.leaves()
        );
        for k in 1..self.leaves() {
            assert!(
                self.tree[k] == Node::merge(&self.tree[2 * k], &self.tree[2 * k + 1]),
                "worker index node {k} is not the merge of its children"
            );
        }
        let live = self.members().count();
        assert!(
            self.live == live && self.ids.len() <= 2 * live + INDEX_SLACK,
            "worker index keeps {} slots for {live} live workers (counted {}), over the \
             2 × live + {INDEX_SLACK} bound",
            self.ids.len(),
            self.live
        );
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
        // The index's root: no request that exceeds the component-wise max
        // of free resources fits any worker.
        let (mut max_free, mut any_idle) = self.index.headroom();
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
            let (cat, declared) = self.shapes.key(&self.tasks[&tid]);
            let target = match declared {
                Some(req) => self.index.first_fit(&req, None).map(|w| (w, req)),
                None => self
                    .index
                    .first_idle()
                    .map(|w| (w, self.workers[&w].capacity())),
            };
            self.assert_first_fit(declared.as_ref(), None, target.map(|(w, _)| w));
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
            // updates its index entry, so re-reading keeps the bound sound.
            self.worker_changed(wid);
            (max_free, any_idle) = self.index.headroom();
            self.net_seq += 1;
            let seq = self.net_seq;
            let rec = self.tasks.get_mut(&tid).expect("task exists");
            rec.state = TaskState::Staging(wid);
            let run = rec.run_mut();
            run.allocation = Some(allocation);
            run.dispatch_seq = seq;
            run.dispatch_acked = false;
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

    /// Re-derive one worker's index entry, and retire the worker
    /// once it has stopped. Called whenever its state, load, task count or
    /// suspicion changes — every path that stops a worker ends here, which
    /// is what keeps `workers` O(live).
    pub(super) fn worker_changed(&mut self, wid: WorkerId) {
        let live = self
            .workers
            .get(&wid)
            .filter(|w| w.state != WorkerState::Stopped);
        let entry = match live {
            Some(w) => self.index_entry(w),
            None => {
                self.workers.remove(&wid);
                None
            }
        };
        self.index.set(wid, entry);
    }

    /// A worker's index entry: its free resources and idleness
    /// when it could take a declared-resources task, `None` otherwise.
    pub(super) fn index_entry(&self, w: &Worker) -> Option<(Resources, bool)> {
        let eligible = w.state == WorkerState::Active
            && w.exclusive_task.is_none()
            && !self.suspects.contains(&w.id);
        eligible.then(|| (w.pool.available(), w.is_idle()))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::INDEX_SLACK;
    use crate::master::testkit::*;

    #[test]
    fn unknown_resources_run_exclusively() {
        let (cat, db) = catalog_with_db();
        let mut m = new_master(link_cfg(), cat);
        let mut q = Queue::new();
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
        let mut q = Queue::new();
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

    type Model = BTreeMap<WorkerId, (Resources, bool)>;

    /// One change to the index and to its ordered-map model.
    #[derive(Debug, Clone)]
    enum IndexOp {
        /// This many new workers connect, each with the next, largest id.
        Connect(u64, Resources, bool),
        /// The member at this position (modulo the count) gets a new entry.
        Set(usize, Resources, bool),
        /// The member at this position stops being eligible.
        Clear(usize),
        /// The cleared worker at this position (modulo their count)
        /// becomes eligible again — after a compaction, a suspect
        /// re-adopted below the largest id.
        Readd(usize, Resources, bool),
        /// Every member stops being eligible, in id order, one check after
        /// each.
        Drain,
    }

    /// Free resources on a coarse grid, so requests often fit the
    /// per-axis max of a subtree but no single worker in it.
    fn free() -> impl Strategy<Value = Resources> {
        (0i64..5, 0i64..5, 0i64..3).prop_map(|(c, m, d)| Resources::cores(c, m * 4_000, d * 10_000))
    }

    /// Mostly single connections, some batches of up to 40 so that
    /// clears and drains run into compactions.
    fn index_op() -> impl Strategy<Value = IndexOp> {
        (0u32..20, free(), any::<bool>(), any::<usize>()).prop_map(|(kind, free, idle, pos)| {
            match kind {
                0..=4 => IndexOp::Connect(1, free, idle),
                5 => IndexOp::Connect(pos as u64 % 40 + 1, free, idle),
                6..=9 => IndexOp::Set(pos, free, idle),
                10..=13 => IndexOp::Clear(pos),
                14..=18 => IndexOp::Readd(pos, free, idle),
                _ => IndexOp::Drain,
            }
        })
    }

    /// Every index query against a scan of the model.
    fn check_index(index: &WorkerIndex, model: &Model) {
        index.assert_consistent();
        assert!(
            index.members().eq(model.iter().map(|(w, e)| (*w, *e))),
            "members"
        );
        let scan_max = model
            .values()
            .fold(Resources::ZERO, |acc, (free, _)| acc.max(free));
        let scan_idle = model.values().any(|(_, idle)| *idle);
        assert_eq!(index.headroom(), (scan_max, scan_idle), "headroom");
        let first_idle = model.iter().find(|(_, (_, idle))| *idle).map(|(w, _)| *w);
        assert_eq!(index.first_idle(), first_idle, "first idle");
        for (c, m, d) in
            (0..6).flat_map(|c| (0..6).flat_map(move |m| (0..4).map(move |d| (c, m, d))))
        {
            let req = Resources::cores(c, m * 4_000, d * 10_000);
            let scan = |except: Option<WorkerId>| {
                model
                    .iter()
                    .find(|(w, (free, _))| Some(**w) != except && req.fits_in(free))
                    .map(|(w, _)| *w)
            };
            let first = scan(None);
            assert_eq!(index.first_fit(&req, None), first, "first fit of {req:?}");
            assert_eq!(
                index.first_fit(&req, first),
                scan(first),
                "{req:?} except {first:?}"
            );
        }
    }

    proptest! {
        /// The index answers every dispatch query the way a first-fit
        /// scan of an ordered map of the eligible workers does.
        #[test]
        fn index_agrees_with_an_ordered_map(ops in proptest::collection::vec(index_op(), 1..200)) {
            let mut index = WorkerIndex::default();
            let mut model = Model::new();
            let mut cleared: Vec<WorkerId> = Vec::new();
            let mut next = 0u64;
            for op in ops {
                match op {
                    IndexOp::Connect(n, free, idle) => {
                        for w in (next..next + n).map(WorkerId) {
                            index.set(w, Some((free, idle)));
                            model.insert(w, (free, idle));
                        }
                        next += n;
                    }
                    IndexOp::Set(pos, free, idle) if !model.is_empty() => {
                        let w = *model.keys().nth(pos % model.len()).expect("in range");
                        index.set(w, Some((free, idle)));
                        model.insert(w, (free, idle));
                    }
                    IndexOp::Clear(pos) if !model.is_empty() => {
                        let w = *model.keys().nth(pos % model.len()).expect("in range");
                        index.set(w, None);
                        model.remove(&w);
                        cleared.push(w);
                    }
                    IndexOp::Readd(pos, free, idle) if !cleared.is_empty() => {
                        let w = cleared.swap_remove(pos % cleared.len());
                        index.set(w, Some((free, idle)));
                        model.insert(w, (free, idle));
                    }
                    IndexOp::Drain => {
                        while let Some((w, _)) = model.pop_first() {
                            index.set(w, None);
                            cleared.push(w);
                            check_index(&index, &model);
                        }
                    }
                    IndexOp::Set(..) | IndexOp::Clear(_) | IndexOp::Readd(..) => {}
                }
                check_index(&index, &model);
            }
        }
    }

    /// `n` workers of 4 cores packed with 1-core requests until none
    /// fits: the index's tree nodes visited and the workers a first-fit
    /// scan walks, each per pick.
    fn fill(n: u64) -> (f64, f64) {
        let capacity = Resources::cores(4, 16_000, 50_000);
        let one = Resources::cores(1, 2_000, 2_000);
        let mut index = WorkerIndex::default();
        let mut free: BTreeMap<WorkerId, Resources> = BTreeMap::new();
        for w in (0..n).map(WorkerId) {
            index.set(w, Some((capacity, true)));
            free.insert(w, capacity);
        }
        let (mut picks, mut visited, mut scanned) = (0u64, 0usize, 0u64);
        loop {
            let mut visits = 0;
            let Some(w) = index.first_fit_counted(&one, None, &mut visits) else {
                break;
            };
            let left = free[&w].saturating_sub(&one);
            free.insert(w, left);
            index.set(w, Some((left, false)));
            picks += 1;
            visited += visits;
            scanned += w.raw() + 1;
        }
        assert_eq!(picks, 4 * n, "every core is packed");
        (visited as f64 / picks as f64, scanned as f64 / picks as f64)
    }

    #[test]
    fn a_doubling_adds_a_constant_to_the_nodes_a_pick_visits() {
        let sizes = [48, 96, 192];
        let runs: Vec<(f64, f64)> = sizes.iter().map(|n| fill(*n)).collect();
        for (pair, sizes) in runs.windows(2).zip(sizes.windows(2)) {
            let ((visits, scan), (visits2, scan2)) = (pair[0], pair[1]);
            // One more tree level: the node on the path and the full
            // sibling it is pruned against.
            assert!(
                visits2 <= visits + 2.0,
                "{} → {} workers: {visits} → {visits2} nodes per pick",
                sizes[0],
                sizes[1]
            );
            // The scan it replaces walks half the pool per pick.
            assert!(
                scan2 >= 1.9 * scan,
                "{} → {} workers: {scan} → {scan2} workers scanned per pick",
                sizes[0],
                sizes[1]
            );
        }
    }

    #[test]
    fn an_index_drained_to_one_worker_compacts() {
        let mut index = WorkerIndex::default();
        let entry = Some((Resources::cores(4, 16_000, 50_000), true));
        for w in (0..200).map(WorkerId) {
            index.set(w, entry);
        }
        for w in (0..199).map(WorkerId) {
            index.set(w, None);
        }
        index.assert_consistent();
        assert!(
            index.ids.len() <= 2 + INDEX_SLACK,
            "{} slots",
            index.ids.len()
        );
        assert_eq!(index.first_idle(), Some(WorkerId(199)));
        // A worker cleared before the compaction comes back below it.
        index.set(WorkerId(7), entry);
        index.assert_consistent();
        assert_eq!(index.first_idle(), Some(WorkerId(7)));
    }
}
