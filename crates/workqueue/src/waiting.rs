//! The master's waiting queue: queued task ids in dispatch (FIFO) order,
//! and the demand histogram over them.
//!
//! * **One owner per pairing.** Every push and every removal updates the
//!   (category, declared requirement) histogram in the same call, so the
//!   histogram cannot drift from the queue it summarises.
//! * **Liveness is the caller's.** The queue does not store whether an
//!   id is still queued: the caller's record says so (the master: the
//!   record exists and is `Waiting`). Methods that may meet a dead entry
//!   take that test as `is_live`. A caller changes a task's state first,
//!   then tells the queue. Task ids are never reused, so an entry that
//!   died never comes back to life.
//! * **O(1) removal from anywhere.** A task that leaves the queue other
//!   than through a dispatch pass (WAL replay applying a logged
//!   completion or failure) is tombstoned: its histogram count goes at
//!   once, its id stays in the FIFO until a pass pops it or a compaction
//!   sweeps it.
//! * **Bounded tombstones.** Whenever tombstones outnumber live entries,
//!   one `retain` drops them all, so the FIFO holds at most twice the
//!   live entries and a removal costs O(1) amortised.
//! * **Capacity follows length.** The FIFO buffers halve whenever they
//!   are at most a quarter full, at the end of each pass and after each
//!   compaction, so a drained backlog does not pin the buffer its peak
//!   grew.
//! * **Dispatch passes.** A pass pops live entries in order
//!   ([`WaitingQueue::pop_front`]), and either places each one
//!   ([`WaitingQueue::placed`]) or passes it over
//!   ([`WaitingQueue::defer`]). [`WaitingQueue::finish_pass`] puts the
//!   passed-over entries back ahead of the unscanned tail, so FIFO order
//!   is kept.

use std::collections::VecDeque;

use hta_des::CategoryId;
use hta_resources::Resources;

use crate::ids::TaskId;
use crate::task_table::release_spare_capacity;

/// One histogram bucket: (category, declared requirement, live count);
/// `None` means undeclared (the task runs exclusively).
pub(crate) type Demand = (CategoryId, Option<Resources>, usize);

/// FIFO of waiting task ids with tombstoned removal and a demand
/// histogram (see the module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct WaitingQueue {
    /// Queued ids, live entries and tombstones mixed, in queue order.
    fifo: VecDeque<TaskId>,
    /// Live entries the current dispatch pass popped and passed over, in
    /// order; empty between passes.
    deferred: VecDeque<TaskId>,
    /// Entries in `fifo` whose task has left the queue.
    tombstones: usize,
    /// Distinct (category, declared) pairs over the live entries, in
    /// first-seen order.
    demand: Vec<Demand>,
}

impl WaitingQueue {
    /// Live entries (tombstones excluded).
    pub(crate) fn len(&self) -> usize {
        self.fifo.len() + self.deferred.len() - self.tombstones
    }

    /// True when no live entry is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The demand histogram over the live entries.
    pub(crate) fn demand(&self) -> &[Demand] {
        &self.demand
    }

    /// The live entries of one `(category, declared)` pair, in
    /// O(distinct requirements).
    pub(crate) fn demand_of(&self, cat: CategoryId, declared: Option<Resources>) -> usize {
        self.demand
            .iter()
            .find(|(c, d, _)| *c == cat && *d == declared)
            .map_or(0, |&(_, _, n)| n)
    }

    /// Queue a task at the back (a fresh submission).
    pub(crate) fn push_back(&mut self, id: TaskId, cat: CategoryId, declared: Option<Resources>) {
        debug_assert!(self.deferred.is_empty(), "push inside a dispatch pass");
        self.fifo.push_back(id);
        self.demand_inc(cat, declared);
    }

    /// Queue a task at the front (a requeue: retry priority).
    pub(crate) fn push_front(&mut self, id: TaskId, cat: CategoryId, declared: Option<Resources>) {
        debug_assert!(self.deferred.is_empty(), "push inside a dispatch pass");
        self.fifo.push_front(id);
        self.demand_inc(cat, declared);
    }

    /// A queued task left the queue outside a dispatch pass; `is_live`
    /// must already report it dead. Its entry becomes a tombstone.
    pub(crate) fn remove(
        &mut self,
        cat: CategoryId,
        declared: Option<Resources>,
        is_live: impl Fn(TaskId) -> bool,
    ) {
        debug_assert!(self.deferred.is_empty(), "remove inside a dispatch pass");
        self.demand_dec(cat, declared);
        self.tombstones += 1;
        self.compact_if_sparse(is_live);
    }

    /// A queued task's declared requirement changed from `old` to `new`.
    pub(crate) fn redeclare(
        &mut self,
        cat: CategoryId,
        old: Option<Resources>,
        new: Option<Resources>,
    ) {
        self.demand_dec(cat, old);
        self.demand_inc(cat, new);
    }

    /// Dispatch pass: the next live entry, dropping the tombstones ahead
    /// of it. The entry stays counted until the caller settles it with
    /// [`placed`](Self::placed) or [`defer`](Self::defer).
    pub(crate) fn pop_front(&mut self, is_live: impl Fn(TaskId) -> bool) -> Option<TaskId> {
        while let Some(id) = self.fifo.pop_front() {
            if is_live(id) {
                return Some(id);
            }
            self.tombstones -= 1;
        }
        None
    }

    /// Dispatch pass: the popped entry stays queued, ahead of the entries
    /// not scanned yet.
    pub(crate) fn defer(&mut self, id: TaskId) {
        self.deferred.push_back(id);
    }

    /// Dispatch pass: the popped entry of `(cat, declared)` was placed on
    /// a worker and leaves the queue.
    pub(crate) fn placed(&mut self, cat: CategoryId, declared: Option<Resources>) {
        self.demand_dec(cat, declared);
    }

    /// End a dispatch pass: deferred entries go back in front of the
    /// unscanned tail (both in queue order). Moves whichever side is
    /// smaller, so a pass that stopped early costs O(scan work), not
    /// O(queue length).
    pub(crate) fn finish_pass(&mut self, is_live: impl Fn(TaskId) -> bool) {
        if self.deferred.len() <= self.fifo.len() {
            while let Some(id) = self.deferred.pop_back() {
                self.fifo.push_front(id);
            }
        } else {
            self.deferred.append(&mut self.fifo);
            std::mem::swap(&mut self.fifo, &mut self.deferred);
        }
        self.compact_if_sparse(is_live);
        release_spare_capacity(&mut self.fifo);
        release_spare_capacity(&mut self.deferred);
    }

    /// Every entry in queue order, tombstones included (callers skip the
    /// dead ones). Not for use inside a dispatch pass.
    pub(crate) fn iter(&self) -> impl Iterator<Item = TaskId> + '_ {
        debug_assert!(self.deferred.is_empty(), "iterating inside a dispatch pass");
        self.fifo.iter().copied()
    }

    /// Entries held, tombstones included.
    #[cfg(test)]
    pub(crate) fn physical_len(&self) -> usize {
        self.fifo.len() + self.deferred.len()
    }

    /// Bytes the queue holds, by capacity.
    pub(crate) fn bytes(&self) -> usize {
        (self.fifo.capacity() + self.deferred.capacity()) * size_of::<TaskId>()
            + self.demand.capacity() * size_of::<Demand>()
    }

    /// Tombstoned entries held.
    pub(crate) fn tombstones(&self) -> usize {
        self.tombstones
    }

    /// Drop every tombstone with one `retain` once they outnumber the
    /// live entries.
    fn compact_if_sparse(&mut self, is_live: impl Fn(TaskId) -> bool) {
        if self.tombstones > self.len() {
            self.fifo.retain(|id| is_live(*id));
            self.tombstones = 0;
            release_spare_capacity(&mut self.fifo);
        }
    }

    fn demand_inc(&mut self, cat: CategoryId, declared: Option<Resources>) {
        match self
            .demand
            .iter_mut()
            .find(|(c, d, _)| *c == cat && *d == declared)
        {
            Some(slot) => slot.2 += 1,
            None => self.demand.push((cat, declared, 1)),
        }
    }

    fn demand_dec(&mut self, cat: CategoryId, declared: Option<Resources>) {
        if let Some(pos) = self
            .demand
            .iter()
            .position(|(c, d, _)| *c == cat && *d == declared)
        {
            self.demand[pos].2 -= 1;
            if self.demand[pos].2 == 0 {
                self.demand.remove(pos);
            }
        }
    }

    /// The queue's own bookkeeping, in O(distinct requirements): outside
    /// a pass, the histogram counts exactly the live entries, and
    /// tombstones never outnumber them (so the FIFO holds at most twice
    /// the live entries). The master's sanitizer calls this after every
    /// transition and recounts the entries themselves in its full audit.
    pub(crate) fn assert_consistent(&self) {
        assert!(
            self.deferred.is_empty(),
            "waiting queue left {} entries deferred after a dispatch pass",
            self.deferred.len()
        );
        let counted: usize = self.demand.iter().map(|(_, _, n)| n).sum();
        assert!(
            counted == self.len() && self.demand.iter().all(|(_, _, n)| *n > 0),
            "waiting queue holds {} live entries but its demand histogram counts {counted}: {:?}",
            self.len(),
            self.demand
        );
        assert!(
            self.tombstones <= self.len(),
            "waiting queue holds {} tombstones for {} live entries (not compacted)",
            self.tombstones,
            self.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn cat(c: u32) -> CategoryId {
        CategoryId::from_u32(c)
    }

    fn declared(d: u8) -> Option<Resources> {
        match d {
            0 => None,
            d => Some(Resources::cores(i64::from(d), 1_000, 1_000)),
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// Submit a fresh task of (category, declared).
        PushBack(u32, u8),
        /// Requeue a fresh task at the front.
        PushFront(u32, u8),
        /// A dispatch pass over at most this many live entries; bit `i`
        /// of the mask places the `i`-th popped entry, others are deferred.
        Pass(usize, u32),
        /// Tombstone the live entry at this position (modulo the count).
        Remove(usize),
        /// Change the declared requirement of the entry at this position.
        Redeclare(usize, u8),
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u32..12, 0u32..3, 0u8..3, any::<usize>(), any::<u32>()).prop_map(
            |(kind, c, d, pos, mask)| match kind {
                0..=2 => Op::PushBack(c, d),
                3 => Op::PushFront(c, d),
                4..=5 => Op::Pass(pos % 6, mask),
                6..=10 => Op::Remove(pos),
                _ => Op::Redeclare(pos, d),
            },
        )
    }

    /// Live entries of the model: (id, category, declared), queue order.
    type Model = VecDeque<(TaskId, CategoryId, Option<Resources>)>;

    fn sorted_histogram(model: &Model) -> Vec<(u32, Option<Resources>, usize)> {
        let mut h: Vec<(u32, Option<Resources>, usize)> = Vec::new();
        for (_, c, d) in model {
            match h
                .iter_mut()
                .find(|(cc, dd, _)| *cc == c.as_u32() && dd == d)
            {
                Some(slot) => slot.2 += 1,
                None => h.push((c.as_u32(), *d, 1)),
            }
        }
        h.sort_by_key(|(c, d, _)| (*c, d.map(|r| r.millicores)));
        h
    }

    fn check(q: &WaitingQueue, model: &Model, live: &BTreeSet<TaskId>) {
        q.assert_consistent();
        let order: Vec<TaskId> = q.iter().filter(|t| live.contains(t)).collect();
        let want: Vec<TaskId> = model.iter().map(|(t, _, _)| *t).collect();
        assert_eq!(order, want, "live order");
        assert_eq!(q.len(), model.len(), "live count");
        assert_eq!(q.is_empty(), model.is_empty());
        assert_eq!(q.physical_len(), q.len() + q.tombstones());
        assert!(q.physical_len() <= 2 * q.len(), "compaction bound");
        let mut hist: Vec<(u32, Option<Resources>, usize)> = q
            .demand()
            .iter()
            .map(|(c, d, n)| (c.as_u32(), *d, *n))
            .collect();
        hist.sort_by_key(|(c, d, _)| (*c, d.map(|r| r.millicores)));
        assert_eq!(hist, sorted_histogram(model), "demand histogram");
    }

    proptest! {
        /// The queue behaves like a plain deque of its live entries, and
        /// its histogram is always a recount of them.
        #[test]
        fn agrees_with_a_deque_model(ops in proptest::collection::vec(op(), 1..200)) {
            let mut q = WaitingQueue::default();
            let mut model: Model = VecDeque::new();
            let mut live: BTreeSet<TaskId> = BTreeSet::new();
            let mut next = 0u64;
            for op in ops {
                match op {
                    Op::PushBack(c, d) | Op::PushFront(c, d) => {
                        let id = TaskId(next);
                        next += 1;
                        live.insert(id);
                        if matches!(op, Op::PushBack(..)) {
                            q.push_back(id, cat(c), declared(d));
                            model.push_back((id, cat(c), declared(d)));
                        } else {
                            q.push_front(id, cat(c), declared(d));
                            model.push_front((id, cat(c), declared(d)));
                        }
                    }
                    Op::Pass(n, mask) => {
                        let mut kept: Model = VecDeque::new();
                        for i in 0..n {
                            let got = q.pop_front(|t| live.contains(&t));
                            let Some(entry) = model.pop_front() else {
                                prop_assert_eq!(got, None);
                                break;
                            };
                            prop_assert_eq!(got, Some(entry.0));
                            if mask & (1 << i) != 0 {
                                live.remove(&entry.0);
                                q.placed(entry.1, entry.2);
                            } else {
                                q.defer(entry.0);
                                kept.push_back(entry);
                            }
                        }
                        q.finish_pass(|t| live.contains(&t));
                        kept.append(&mut model);
                        model = kept;
                    }
                    Op::Remove(pos) if !model.is_empty() => {
                        let (id, c, d) = model.remove(pos % model.len()).expect("in range");
                        live.remove(&id);
                        q.remove(c, d, |t| live.contains(&t));
                    }
                    Op::Redeclare(pos, d) if !model.is_empty() => {
                        let at = pos % model.len();
                        let (_, c, old) = model[at];
                        model[at].2 = declared(d);
                        q.redeclare(c, old, declared(d));
                    }
                    Op::Remove(_) | Op::Redeclare(..) => {}
                }
                check(&q, &model, &live);
            }
        }
    }

    #[test]
    fn a_drained_queue_halves_its_buffers() {
        let mut q = WaitingQueue::default();
        for raw in 0..10_000 {
            q.push_back(TaskId(raw), cat(0), None);
        }
        let peak = q.bytes();
        // One pass places 9,000 tasks and passes one over.
        let live = |t: TaskId| t.raw() >= 9_000 || t.raw() == 0;
        assert_eq!(q.pop_front(live), Some(TaskId(0)));
        q.defer(TaskId(0));
        for raw in 1..9_000 {
            assert_eq!(q.pop_front(|_| true), Some(TaskId(raw)));
            q.placed(cat(0), None);
        }
        q.finish_pass(live);
        assert_eq!(q.len(), 1_001);
        assert!(
            q.bytes() <= 4 * size_of::<TaskId>() * q.len() + 64 * size_of::<TaskId>() + 64,
            "{} bytes held for {} entries after a peak of {peak}",
            q.bytes(),
            q.len()
        );
        q.assert_consistent();
    }

    #[test]
    fn removals_compact_once_tombstones_outnumber_live_entries() {
        let mut q = WaitingQueue::default();
        let mut live: BTreeSet<TaskId> = (0..10).map(TaskId).collect();
        for id in &live {
            q.push_back(*id, cat(0), None);
        }
        for raw in 0..5 {
            live.remove(&TaskId(raw));
            q.remove(cat(0), None, |t| live.contains(&t));
        }
        assert_eq!((q.len(), q.tombstones(), q.physical_len()), (5, 5, 10));
        live.remove(&TaskId(5));
        q.remove(cat(0), None, |t| live.contains(&t));
        assert_eq!((q.len(), q.tombstones(), q.physical_len()), (4, 0, 4));
        assert_eq!(
            q.iter().collect::<Vec<_>>(),
            (6..10).map(TaskId).collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_pass_drops_the_tombstones_it_pops() {
        let mut q = WaitingQueue::default();
        let mut live: BTreeSet<TaskId> = (0..4).map(TaskId).collect();
        for id in &live {
            q.push_back(*id, cat(0), None);
        }
        live.remove(&TaskId(0));
        q.remove(cat(0), None, |t| live.contains(&t));
        assert_eq!(q.pop_front(|t| live.contains(&t)), Some(TaskId(1)));
        assert_eq!(q.tombstones(), 0, "the popped tombstone is gone");
        q.defer(TaskId(1));
        q.finish_pass(|t| live.contains(&t));
        assert_eq!(
            q.iter().collect::<Vec<_>>(),
            (1..4).map(TaskId).collect::<Vec<_>>()
        );
    }
}
