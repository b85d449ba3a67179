//! Checkpoint + write-ahead log substrate for crash-recoverable components.
//!
//! The what-if subsystem introduced [`SnapshotState`](crate::SnapshotState)
//! — a deep-clone/fork capability with partitioned RNG streams. Crash
//! recovery needs only its exact-replay half, a `clone()`, and layers two
//! small containers on top of it:
//!
//! * [`Checkpoint`] — a point-in-time snapshot of a component (an
//!   exact-replay copy the caller hands over by value) stamped with the sim
//!   instant it was captured at.
//! * [`Wal`] — an in-memory write-ahead log of *decision records* appended
//!   since the last checkpoint. Recovery restores the checkpoint and then
//!   re-applies the log in order.
//!
//! The crucial design rule is that WAL records carry **decided data, not
//! decision inputs**: a record says "task 17 was submitted with this exact
//! spec (sampled wall time included)", never "a task was submitted — go
//! sample its wall time again". Replay therefore re-draws no randomness and
//! reconstructs the pre-crash decisions bit-for-bit, while everything *not*
//! logged (running statistics, learned estimates observed after the
//! checkpoint) reverts to its checkpoint value — the bounded-amnesia
//! contract documented in ARCHITECTURE.md §9.
//!
//! The log is truncated at every checkpoint, so a crash replays at most one
//! checkpoint interval of records. [`Wal::records`] leaves them in place
//! (a second crash before the next checkpoint must replay the same records
//! against the same checkpoint); a recovery that checkpoints as soon as it
//! has replayed may move them out with [`Wal::take_records`] instead of
//! copying them.

use crate::SimTime;

/// A point-in-time exact-replay snapshot of a component.
#[derive(Debug, Clone)]
pub struct Checkpoint<S: Clone> {
    state: S,
    taken_at: SimTime,
}

impl<S: Clone> Checkpoint<S> {
    /// Keep `state`, captured at sim instant `at`. The caller builds the
    /// copy (a `clone()` of the live component) and hands it over, so a
    /// checkpoint costs one copy, not two.
    pub fn take(state: S, at: SimTime) -> Self {
        Checkpoint {
            state,
            taken_at: at,
        }
    }

    /// Reconstruct the captured state: a `clone()`, the exact replay that
    /// salt `0` means to [`SnapshotState::fork`](crate::SnapshotState::fork),
    /// so one checkpoint can serve several successive recoveries.
    pub fn restore(&self) -> S {
        self.state.clone()
    }

    /// The sim instant the checkpoint was captured at.
    pub fn taken_at(&self) -> SimTime {
        self.taken_at
    }
}

/// An in-memory write-ahead log of decision records since the last
/// checkpoint.
#[derive(Debug, Clone)]
pub struct Wal<T> {
    records: Vec<T>,
    truncations: u64,
}

impl<T> Default for Wal<T> {
    fn default() -> Self {
        Wal::new()
    }
}

impl<T> Wal<T> {
    /// An empty log.
    pub fn new() -> Self {
        Wal {
            records: Vec::new(),
            truncations: 0,
        }
    }

    /// Append one decision record.
    pub fn append(&mut self, record: T) {
        self.records.push(record);
    }

    /// Append every record drained from a producer.
    pub fn extend(&mut self, records: impl IntoIterator<Item = T>) {
        self.records.extend(records);
    }

    /// Records appended since the last [`truncate`](Self::truncate), in
    /// append order — exactly what a recovery must replay.
    pub fn records(&self) -> &[T] {
        &self.records
    }

    /// Move the pending records out, leaving the log empty. For a
    /// recovery that checkpoints right after replaying them: the records
    /// are not copied, and no truncation is counted (the checkpoint that
    /// follows counts its own).
    pub fn take_records(&mut self) -> Vec<T> {
        std::mem::take(&mut self.records)
    }

    /// Number of records currently pending replay.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are pending.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Drop all pending records — called at each checkpoint, which
    /// supersedes them.
    pub fn truncate(&mut self) {
        self.records.clear();
        self.truncations += 1;
    }

    /// Number of checkpoint truncations performed.
    pub fn truncations(&self) -> u64 {
        self.truncations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    #[derive(Clone)]
    struct Counter {
        rng: SimRng,
        value: u64,
    }

    #[test]
    fn checkpoint_restores_state_at_capture_time() {
        let mut c = Counter {
            rng: SimRng::seed_from_u64(7),
            value: 10,
        };
        let cp = Checkpoint::take(c.clone(), SimTime::from_secs(30));
        c.value = 99;
        let restored = cp.restore();
        assert_eq!(c.value, 99, "mutating the live state is visible there");
        assert_eq!(restored.value, 10, "...but not in the checkpoint");
        assert_eq!(cp.taken_at(), SimTime::from_secs(30));
    }

    #[test]
    fn checkpoint_restore_is_exact_replay() {
        let c = Counter {
            rng: SimRng::seed_from_u64(7),
            value: 0,
        };
        let cp = Checkpoint::take(c.clone(), SimTime::ZERO);
        let mut a = cp.restore();
        let mut b = c.clone();
        for _ in 0..16 {
            assert_eq!(a.rng.uniform().to_bits(), b.rng.uniform().to_bits());
        }
    }

    #[test]
    fn checkpoint_serves_repeated_restores() {
        let c = Counter {
            rng: SimRng::seed_from_u64(3),
            value: 5,
        };
        let cp = Checkpoint::take(c.clone(), SimTime::ZERO);
        let mut first = cp.restore();
        let mut second = cp.restore();
        assert_eq!(first.value, second.value);
        for _ in 0..16 {
            assert_eq!(
                first.rng.uniform().to_bits(),
                second.rng.uniform().to_bits()
            );
        }
    }

    #[test]
    fn wal_appends_in_order_and_truncates() {
        let mut wal: Wal<u32> = Wal::new();
        assert!(wal.is_empty());
        wal.append(1);
        wal.extend([2, 3]);
        assert_eq!(wal.records(), &[1, 2, 3]);
        assert_eq!(wal.len(), 3);
        wal.truncate();
        assert!(wal.is_empty());
        assert_eq!(wal.truncations(), 1);
        wal.append(4);
        assert_eq!(wal.records(), &[4]);
    }

    #[test]
    fn wal_records_survive_until_next_truncation() {
        // A recovery replays the log but must NOT clear it: a second crash
        // before the next checkpoint replays the same records again.
        let mut wal: Wal<&str> = Wal::new();
        wal.append("submit t0");
        let replayed: Vec<_> = wal.records().to_vec();
        assert_eq!(replayed, ["submit t0"]);
        // …no truncate between recoveries…
        assert_eq!(wal.records(), &["submit t0"]);
    }

    #[test]
    fn take_records_moves_the_log_out_without_truncating() {
        let mut wal: Wal<u32> = Wal::new();
        wal.extend([1, 2]);
        assert_eq!(wal.take_records(), vec![1, 2]);
        assert!(wal.is_empty());
        assert_eq!(wal.truncations(), 0, "only checkpoints count truncations");
        wal.append(3);
        assert_eq!(wal.records(), &[3]);
    }
}
