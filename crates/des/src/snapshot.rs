//! Snapshot/fork capability for simulation components.
//!
//! A component that implements [`SnapshotState`] can be checkpointed (a
//! deep [`Clone`]) and *forked* into an independent what-if branch. The
//! contract has two halves:
//!
//! 1. **Isolation** — forking must never perturb the parent. The fork
//!    operates on `&self`, so the type system already forbids mutation;
//!    the subtle hazard is *shared mutable state* (`Rc<RefCell<…>>`,
//!    `static mut`), which a deep clone silently aliases. The workspace
//!    lints ban it: `Rc`/`RefCell` are clippy `disallowed-types`, and
//!    `unsafe_code = "forbid"` rejects every `static mut` access.
//! 2. **Determinism** — a branch forked with salt `0` is an exact replay:
//!    it must reproduce the parent's future event-for-event. A branch
//!    forked with a non-zero salt reseeds every RNG stream via
//!    [`SimRng::partition`](crate::SimRng::partition), giving an
//!    independent — but still reproducible — future: the same
//!    `(parent state, salt)` pair always yields the same branch.
//!
//! Salts for sub-components are derived with [`branch_salt`] so that one
//! user-facing salt fans out into well-separated per-stream salts without
//! any coordination between components.

/// A simulation component whose full state can be checkpointed and forked.
pub trait SnapshotState: Clone {
    /// Re-partition every RNG stream owned by this component using `salt`.
    ///
    /// Implementations must derive each child stream with
    /// [`SimRng::partition`](crate::SimRng::partition) (or an equivalent
    /// non-consuming derivation) so the receiver's *other* state — queues,
    /// counters, maps — is untouched and a salt of the same value is
    /// reproducible. Components owning several streams should decorrelate
    /// them with [`branch_salt`].
    fn reseed(&mut self, salt: u64);

    /// Checkpoint this component and fork an independent branch.
    ///
    /// Salt `0` is reserved for *exact replay*: the branch keeps the
    /// parent's RNG streams byte-for-byte and will reproduce the parent's
    /// future exactly. Any other salt yields an independent stochastic
    /// future.
    fn fork(&self, salt: u64) -> Self {
        let mut branch = self.clone();
        if salt != 0 {
            branch.reseed(salt);
        }
        branch
    }
}

/// Derive a per-stream salt from a branch salt and a stream index.
///
/// Used by composite components to hand each owned RNG stream its own
/// decorrelated salt; `branch_salt(s, i)` is never `0` for non-zero `s`,
/// so a replay salt stays a replay all the way down.
pub fn branch_salt(salt: u64, stream: u64) -> u64 {
    if salt == 0 {
        return 0;
    }
    // SplitMix64-style finalizer over the pair; `| 1` guards against the
    // (astronomically unlikely) mix landing exactly on the replay salt.
    let mut z = salt ^ stream.wrapping_mul(0xA076_1D64_78BD_642F);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) | 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    #[derive(Clone)]
    struct Comp {
        rng: SimRng,
        count: u64,
    }

    impl SnapshotState for Comp {
        fn reseed(&mut self, salt: u64) {
            self.rng = self.rng.partition(salt);
        }
    }

    #[test]
    fn zero_salt_fork_is_exact_replay() {
        let parent = Comp {
            rng: SimRng::seed_from_u64(9),
            count: 3,
        };
        let mut a = parent.fork(0);
        let mut b = parent.clone();
        assert_eq!(a.count, 3);
        for _ in 0..32 {
            assert_eq!(a.rng.uniform().to_bits(), b.rng.uniform().to_bits());
        }
    }

    #[test]
    fn nonzero_salt_fork_diverges_but_reproduces() {
        let parent = Comp {
            rng: SimRng::seed_from_u64(9),
            count: 0,
        };
        let mut a = parent.fork(5);
        let mut b = parent.fork(5);
        let mut c = parent.fork(6);
        let mut p = parent.clone();
        let (xa, xb, xc, xp) = (
            a.rng.uniform(),
            b.rng.uniform(),
            c.rng.uniform(),
            p.rng.uniform(),
        );
        assert_eq!(xa.to_bits(), xb.to_bits());
        assert_ne!(xa.to_bits(), xc.to_bits());
        assert_ne!(xa.to_bits(), xp.to_bits());
    }

    #[test]
    fn branch_salt_preserves_replay_and_decorrelates_streams() {
        assert_eq!(branch_salt(0, 0), 0);
        assert_eq!(branch_salt(0, 7), 0);
        let s = branch_salt(42, 0);
        assert_ne!(s, 0);
        assert_ne!(branch_salt(42, 0), branch_salt(42, 1));
        assert_ne!(branch_salt(42, 1), branch_salt(43, 1));
        assert_eq!(branch_salt(42, 1), branch_salt(42, 1));
    }
}
