//! The master's task table: the record of every live (waiting or
//! on-worker) task, keyed by [`TaskId`]. A task's record leaves the table
//! when the task finishes.
//!
//! Task ids are dense and increasing (the operator and the trace
//! generators count them up from 0), and tasks finish roughly in
//! submission order. So the table is a window of slots indexed by
//! `id − base` instead of an ordered map: a lookup is one index, not a
//! B-tree walk.
//!
//! * **Slots are pointer-sized** (`Option<Arc<TaskRecord>>`). An empty
//!   slot costs a word, not a whole record, so the holes that
//!   out-of-order retirement leaves inside the window stay cheap.
//! * **Copy-on-write records.** Cloning the table (a checkpoint, its
//!   restore, a what-if fork) copies pointers and shares every record.
//!   [`TaskTable::get_mut`] goes through [`Arc::make_mut`], so a shared
//!   record is copied on its first write after the clone and never
//!   again; read-only paths must use [`TaskTable::get`], which copies
//!   nothing.
//! * **Retirement** (a task finishing) empties a slot and pops empty
//!   slots off both ends, so the window follows the in-flight tasks. The
//!   slot buffer halves whenever it is at most a quarter full
//!   ([`release_spare_capacity`]), so a drained backlog gives its memory
//!   back.
//! * **Bounded window.** A record that stays long (a long-running task,
//!   or one starved in the queue) would pin the window's front and make
//!   it grow with every later task. Whenever the window holds more than
//!   `2 × records + SLACK` slots, front records move to a small ordered
//!   overflow map, so slot count stays O(live).
//! * **Order.** [`TaskTable::iter`] and [`TaskTable::values`] yield
//!   records in ascending id — the overflow (all below `base`), then the
//!   window — the order a `BTreeMap<TaskId, TaskRecord>` gives, so every
//!   scan that decides scheduling order is unchanged.

use std::collections::{BTreeMap, VecDeque};
use std::ops::Index;
use std::sync::Arc;

use crate::ids::TaskId;
use crate::task::TaskRecord;

/// Empty slots the window may hold beyond one per record before front
/// records spill into the overflow map.
const SLACK: usize = 64;

/// Most slots the window may hold while it holds `records` records.
fn window_limit(records: usize) -> usize {
    2 * records + SLACK
}

/// Buffer capacity below which a deque keeps its buffer however empty.
const MIN_CAPACITY: usize = 64;

/// Halve `deque`'s buffer while it is at most a quarter full, in one
/// reallocation. A buffer that grew by doubling to hold a backlog shrinks
/// the same way as the backlog drains, so after each call its capacity
/// is within 4× its length (or at most [`MIN_CAPACITY`]), and a shrink
/// copies at most a quarter of what the buffer held: O(1) amortised per
/// removal.
pub(crate) fn release_spare_capacity<T>(deque: &mut VecDeque<T>) {
    let mut target = deque.capacity();
    while target > MIN_CAPACITY && deque.len() <= target / 4 {
        target /= 2;
    }
    if target < deque.capacity() {
        deque.shrink_to(target);
    }
}

/// Dense, id-indexed store of task records (see the module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct TaskTable {
    /// Id of `slots[0]`.
    base: u64,
    /// Records with ids in `base..base + slots.len()`. When non-empty,
    /// the first and last slots are occupied.
    slots: VecDeque<Option<Arc<TaskRecord>>>,
    /// Occupied slots in `slots`.
    occupied: usize,
    /// Records with ids below `base`.
    overflow: BTreeMap<TaskId, Arc<TaskRecord>>,
}

impl TaskTable {
    /// An empty table.
    pub(crate) fn new() -> Self {
        TaskTable::default()
    }

    /// Window offset of `id`, if it falls inside the window.
    fn offset(&self, id: TaskId) -> Option<usize> {
        let off = usize::try_from(id.raw().checked_sub(self.base)?).ok()?;
        (off < self.slots.len()).then_some(off)
    }

    /// The record for `id`.
    pub(crate) fn get(&self, id: &TaskId) -> Option<&TaskRecord> {
        match self.offset(*id) {
            Some(off) => self.slots[off].as_deref(),
            None => self.overflow.get(id).map(|r| &**r),
        }
    }

    /// The record for `id`, mutably. A record still shared with a clone
    /// of the table is copied first (see the module docs).
    pub(crate) fn get_mut(&mut self, id: &TaskId) -> Option<&mut TaskRecord> {
        let rec = match self.offset(*id) {
            Some(off) => self.slots[off].as_mut(),
            None => self.overflow.get_mut(id),
        }?;
        Some(Arc::make_mut(rec))
    }

    /// The record for `id`, mutably, when `write` says the caller will
    /// change it: a shared record the caller would only read is not
    /// copied.
    pub(crate) fn get_mut_if(
        &mut self,
        id: &TaskId,
        write: impl FnOnce(&TaskRecord) -> bool,
    ) -> Option<&mut TaskRecord> {
        if !write(self.get(id)?) {
            return None;
        }
        self.get_mut(id)
    }

    /// True when a record for `id` is stored.
    pub(crate) fn contains_key(&self, id: &TaskId) -> bool {
        self.get(id).is_some()
    }

    /// Stored records.
    pub(crate) fn len(&self) -> usize {
        self.occupied + self.overflow.len()
    }

    /// Store `rec` under `id` (which must be `rec.id`), returning
    /// the record it replaces.
    pub(crate) fn insert(&mut self, id: TaskId, rec: TaskRecord) -> Option<TaskRecord> {
        debug_assert_eq!(id, rec.id, "task record filed under a foreign id");
        let rec = Arc::new(rec);
        let raw = id.raw();
        if raw < self.base {
            return self.overflow.insert(id, rec).map(Arc::unwrap_or_clone);
        }
        // Past the back: spill the front first, so a long gap in the ids
        // never materialises as a run of empty slots.
        while !self.slots.is_empty() && raw - self.base >= window_limit(self.occupied + 1) as u64 {
            self.spill_front();
        }
        if self.slots.is_empty() {
            self.base = raw;
        }
        let off = usize::try_from(raw - self.base).expect("window offset is bounded above");
        if off >= self.slots.len() {
            self.slots.resize_with(off + 1, || None);
        }
        let old = self.slots[off].replace(rec);
        if old.is_none() {
            self.occupied += 1;
        }
        old.map(Arc::unwrap_or_clone)
    }

    /// Remove and return the record for `id`, still shared with any clone
    /// of the table that holds it (nothing is copied).
    pub(crate) fn remove(&mut self, id: &TaskId) -> Option<Arc<TaskRecord>> {
        let rec = match self.offset(*id) {
            Some(off) => {
                let rec = self.slots[off].take()?;
                self.occupied -= 1;
                self.trim();
                rec
            }
            None => self.overflow.remove(id)?,
        };
        Some(rec)
    }

    /// Pop empty slots off both ends, then spill front records until the
    /// window is within its limit.
    fn trim(&mut self) {
        while self.slots.back().is_some_and(Option::is_none) {
            self.slots.pop_back();
        }
        self.pop_empty_front();
        while self.slots.len() > window_limit(self.occupied) {
            self.spill_front();
        }
        release_spare_capacity(&mut self.slots);
    }

    /// Move the (occupied) front slot's record to the overflow map.
    fn spill_front(&mut self) {
        if let Some(rec) = self.slots.pop_front().flatten() {
            self.occupied -= 1;
            self.overflow.insert(TaskId(self.base), rec);
        }
        self.base += 1;
        self.pop_empty_front();
    }

    fn pop_empty_front(&mut self) {
        while self.slots.front().is_some_and(Option::is_none) {
            self.slots.pop_front();
            self.base += 1;
        }
    }

    /// `(id, record)` pairs in ascending id.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&TaskId, &TaskRecord)> {
        self.overflow
            .iter()
            .map(|(id, r)| (id, &**r))
            .chain(self.slots.iter().flatten().map(|r| (&r.id, &**r)))
    }

    /// Records in ascending id.
    pub(crate) fn values(&self) -> impl Iterator<Item = &TaskRecord> {
        self.iter().map(|(_, r)| r)
    }

    /// Bytes the table holds: every record with its `Arc` header and its
    /// own heap parts, the window's slots by capacity, and the overflow's
    /// entries (their B-tree nodes' spare room not counted). O(records).
    pub(crate) fn bytes(&self) -> usize {
        let arc_header = 2 * size_of::<usize>();
        let records: usize = self
            .values()
            .map(|r| arc_header + size_of::<TaskRecord>() + r.heap_bytes())
            .sum();
        records
            + self.slots.capacity() * size_of::<Option<Arc<TaskRecord>>>()
            + self.overflow.len() * size_of::<(TaskId, Arc<TaskRecord>)>()
    }

    /// True when this table and `other` hold the very same allocation
    /// for `id` (a record not yet copied on write since a clone).
    #[cfg(test)]
    pub(crate) fn shares_record(&self, other: &TaskTable, id: &TaskId) -> bool {
        let slot = |t: &TaskTable| match t.offset(*id) {
            Some(off) => t.slots[off].clone(),
            None => t.overflow.get(id).cloned(),
        };
        match (slot(self), slot(other)) {
            (Some(a), Some(b)) => Arc::ptr_eq(&a, &b),
            _ => false,
        }
    }

    /// Slots the window holds (occupied or not).
    #[cfg(test)]
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Check the table's structure: the record counter equals a recount
    /// of occupied slots, every record sits under its own id, the window
    /// ends are occupied and within the limit, and the overflow lies
    /// wholly below the window. O(slots + overflow); the master calls it
    /// from its sanitizer checks only.
    pub(crate) fn assert_consistent(&self) {
        let recount = self.slots.iter().flatten().count();
        assert!(
            recount == self.occupied,
            "task table counts {} records but {recount} slots are occupied",
            self.occupied
        );
        for (off, rec) in self.slots.iter().enumerate() {
            if let Some(rec) = rec {
                assert!(
                    rec.id.raw() == self.base + off as u64,
                    "task table files {:?} under id {}",
                    rec.id,
                    self.base + off as u64
                );
            }
        }
        assert!(
            self.slots.front().is_none_or(Option::is_some)
                && self.slots.back().is_none_or(Option::is_some)
                && self.slots.len() <= window_limit(self.occupied),
            "task table window of {} slots for {} records is not trimmed",
            self.slots.len(),
            self.occupied
        );
        assert!(
            self.overflow
                .iter()
                .all(|(id, r)| id.raw() < self.base && r.id == *id),
            "task table overflow overlaps the window at base {}",
            self.base
        );
    }
}

impl Index<&TaskId> for TaskTable {
    type Output = TaskRecord;

    fn index(&self, id: &TaskId) -> &TaskRecord {
        self.get(id).expect("no task record for this id")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::{DeclaredId, Shape, ShapeTable};
    use crate::task::{ExecModel, TaskSpec};
    use hta_des::{CategoryId, Duration, SimTime};
    use hta_resources::Resources;
    use proptest::prelude::*;

    fn record(id: u64) -> TaskRecord {
        let spec = TaskSpec {
            id: TaskId(id),
            cat: CategoryId::from_u32(0),
            inputs: Vec::new(),
            output_mb: 0.0,
            declared: None,
            actual: Resources::cores(1, 1, 1),
            exec: ExecModel::cpu_bound(Duration::from_secs(1)),
        };
        let mut shapes = ShapeTable::default();
        let shape = shapes.intern(Shape {
            cat: spec.cat,
            output_mb: spec.output_mb,
            actual: spec.actual,
            cpu_fraction: spec.exec.cpu_fraction,
        });
        TaskRecord::new(spec, shape, DeclaredId::default(), SimTime::ZERO)
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// Insert the next id after a gap of this many ids.
        Insert(u64),
        /// Remove the live record at this position (modulo the count).
        Remove(usize),
        /// Mutate the live record at this position through `get_mut`.
        Touch(usize),
        /// Remove every record, then insert one.
        DrainAndInsert,
        /// Clone the table (a checkpoint); later ops must not reach it.
        Snapshot,
    }

    /// Mostly consecutive inserts, some short gaps and a few gaps longer
    /// than `SLACK`; removals at any position.
    fn op() -> impl Strategy<Value = Op> {
        (0u32..11, 0u64..300, any::<usize>()).prop_map(|(kind, gap, pos)| match kind {
            0..=3 => Op::Insert(match gap {
                0..=179 => 0,
                180..=239 => gap % 4 + 1,
                _ => gap,
            }),
            4..=6 => Op::Remove(pos),
            7..=8 => Op::Touch(pos),
            9 => Op::DrainAndInsert,
            _ => Op::Snapshot,
        })
    }

    fn check(table: &TaskTable, model: &BTreeMap<TaskId, TaskRecord>, next: u64) {
        table.assert_consistent();
        assert_eq!(table.len(), model.len());
        let ids: Vec<TaskId> = table.iter().map(|(id, _)| *id).collect();
        let want: Vec<TaskId> = model.keys().copied().collect();
        assert_eq!(ids, want, "iteration order");
        let retries = |t: &TaskTable, id: TaskId| t.get(&id).map(|r| r.retries);
        // Every live id, its neighbours and the ends agree on lookup.
        let probes = model
            .keys()
            .flat_map(|id| [id.raw().saturating_sub(1), id.raw(), id.raw() + 1])
            .chain([0, next, next + 1]);
        for raw in probes {
            let id = TaskId(raw);
            assert_eq!(table.contains_key(&id), model.contains_key(&id), "{id:?}");
            assert_eq!(retries(table, id), model.get(&id).map(|r| r.retries));
        }
    }

    proptest! {
        /// The table behaves like the ordered map it replaces, and a
        /// clone keeps its records however the original changes after.
        #[test]
        fn agrees_with_an_ordered_map(ops in proptest::collection::vec(op(), 1..300)) {
            let mut table = TaskTable::new();
            let mut model: BTreeMap<TaskId, TaskRecord> = BTreeMap::new();
            let mut next = 0u64;
            let mut snapshot: Option<(TaskTable, BTreeMap<TaskId, TaskRecord>, u64)> = None;
            for op in ops {
                match op {
                    Op::Insert(gap) => {
                        next += gap;
                        let prev = table.insert(TaskId(next), record(next));
                        prop_assert!(prev.is_none());
                        model.insert(TaskId(next), record(next));
                        next += 1;
                    }
                    Op::Remove(pos) if !model.is_empty() => {
                        let id = *model.keys().nth(pos % model.len()).expect("in range");
                        let got = table.remove(&id).map(|r| r.id);
                        prop_assert_eq!(got, model.remove(&id).map(|r| r.id));
                        prop_assert!(table.remove(&id).is_none());
                    }
                    Op::Touch(pos) if !model.is_empty() => {
                        let id = *model.keys().nth(pos % model.len()).expect("in range");
                        table.get_mut(&id).expect("live").retries += 1;
                        model.get_mut(&id).expect("live").retries += 1;
                        prop_assert_eq!(table[&id].retries, model[&id].retries);
                    }
                    Op::Remove(_) | Op::Touch(_) => {}
                    Op::DrainAndInsert => {
                        for id in model.keys() {
                            prop_assert!(table.remove(id).is_some());
                        }
                        model.clear();
                        check(&table, &model, next);
                        table.insert(TaskId(next), record(next));
                        model.insert(TaskId(next), record(next));
                        next += 1;
                    }
                    Op::Snapshot => snapshot = Some((table.clone(), model.clone(), next)),
                }
                check(&table, &model, next);
                if let Some((snap, snap_model, snap_next)) = &snapshot {
                    check(snap, snap_model, *snap_next);
                }
            }
        }
    }

    #[test]
    fn a_drained_window_halves_its_buffer() {
        let mut table = TaskTable::new();
        for id in 0..10_000 {
            table.insert(TaskId(id), record(id));
        }
        let peak = table.slots.capacity();
        assert!(peak >= 10_000);
        for id in 0..9_000 {
            table.remove(&TaskId(id));
        }
        table.assert_consistent();
        assert_eq!(table.slot_count(), 1_000);
        assert!(
            table.slots.capacity() <= 4 * table.slot_count(),
            "{} slots held for 1,000 records after a peak of {peak}",
            table.slots.capacity()
        );
        for id in 9_000..10_000 {
            table.remove(&TaskId(id));
        }
        assert!(table.slots.capacity() <= MIN_CAPACITY);
    }

    #[test]
    fn a_window_emptied_from_the_middle_spills_its_front() {
        let mut table = TaskTable::new();
        for id in 0..200 {
            table.insert(TaskId(id), record(id));
        }
        for id in 1..199 {
            table.remove(&TaskId(id));
        }
        table.assert_consistent();
        assert!(
            table.slot_count() <= window_limit(2),
            "{} slots",
            table.slot_count()
        );
        let ids: Vec<u64> = table.iter().map(|(id, _)| id.raw()).collect();
        assert_eq!(ids, vec![0, 199]);
        assert!(
            table.remove(&TaskId(0)).is_some(),
            "spilled records stay reachable"
        );
    }

    #[test]
    fn out_of_order_and_sparse_ids() {
        let mut table = TaskTable::new();
        for raw in [5, 3, 1_000_000, 4, 9] {
            assert!(table.insert(TaskId(raw), record(raw)).is_none());
            table.assert_consistent();
        }
        let ids: Vec<u64> = table.iter().map(|(id, _)| id.raw()).collect();
        assert_eq!(ids, vec![3, 4, 5, 9, 1_000_000]);
        assert!(table.slot_count() <= window_limit(table.len()));
        assert!(table.insert(TaskId(4), record(4)).is_some(), "replaces");
        assert_eq!(table.len(), 5);
    }
}
