//! Snapshot/fork capability for simulation components.
//!
//! A component that implements [`SnapshotState`] can be checkpointed (a
//! deep [`Clone`]) and *forked* into an independent what-if branch. The
//! contract has two halves:
//!
//! 1. **Isolation** — forking must never perturb the parent. The fork
//!    operates on `&self`, so the type system already forbids mutation;
//!    the subtle hazard is *shared mutable state* (`Rc<RefCell<…>>`,
//!    `static mut`), which a deep clone silently aliases. The trait
//!    requires `Send`, so an `Rc` or a raw pointer in a component fails to
//!    compile; the workspace lints ban the rest: `RefCell`, host clocks,
//!    OS handles and raw RNGs are clippy `disallowed-types`, and
//!    `unsafe_code = "forbid"` rejects every `static mut` access.
//! 2. **Determinism** — a branch forked with salt `0` is an exact replay:
//!    it must reproduce the parent's future event-for-event. A branch
//!    forked with a non-zero salt reseeds every RNG stream via
//!    [`SimRng::partition`](crate::SimRng::partition), giving an
//!    independent — but still reproducible — future: the same
//!    `(parent state, salt)` pair always yields the same branch.
//!
//! A branch salt reaches a component's [`SnapshotState::reseed`] as a
//! [`Salt`]: a token with no public constructor, made only by
//! [`SnapshotState::fork`] from a non-zero `u64`. A component that owns
//! several streams splits its salt by position ([`Salt::streams`]), so
//! no code outside this module writes a stream index, and no reseed can
//! invent a salt. A `Salt` is neither `Copy` nor `Clone`: each one seeds
//! exactly one stream, and handing one to two streams is a move error.

/// A simulation component whose full state can be checkpointed and forked.
///
/// `Send` makes state that cannot cross a fork or a checkpoint fail to
/// compile: an `Rc` (shared between a parent and its forks) or a raw
/// pointer (dangling after a restore) in a component is not `Send`.
///
/// ```compile_fail,E0277
/// use hta_des::{Salt, SnapshotState};
///
/// #[derive(Clone)]
/// struct Shared(std::rc::Rc<u64>);
///
/// impl SnapshotState for Shared {
///     fn reseed(&mut self, _salt: Salt) {}
/// }
/// ```
///
/// ```compile_fail,E0277
/// use hta_des::{Salt, SnapshotState};
///
/// #[derive(Clone)]
/// struct Scratch(*mut u8);
///
/// impl SnapshotState for Scratch {
///     fn reseed(&mut self, _salt: Salt) {}
/// }
/// ```
pub trait SnapshotState: Clone + Send {
    /// Re-partition every RNG stream owned by this component using `salt`.
    ///
    /// Implementations derive each child stream with
    /// [`SimRng::partition`](crate::SimRng::partition), which leaves the
    /// receiver's *other* state — queues, counters, maps — untouched. A
    /// component owning several streams splits `salt` with
    /// [`Salt::streams`] (or [`Salt::split`], to keep the salt itself for
    /// one of them). Never called with the replay salt `0`.
    fn reseed(&mut self, salt: Salt);

    /// Checkpoint this component and fork an independent branch.
    ///
    /// Salt `0` is reserved for *exact replay*: the branch is a plain
    /// `clone()`, so it keeps the parent's RNG streams byte-for-byte and
    /// reproduces the parent's future exactly. Any other salt yields an
    /// independent stochastic future. This is the one place a raw `u64`
    /// becomes a [`Salt`].
    fn fork(&self, salt: u64) -> Self {
        let mut branch = self.clone();
        if salt != 0 {
            branch.reseed(Salt(salt));
        }
        branch
    }
}

/// A non-zero branch salt, handed to [`SnapshotState::reseed`].
///
/// Only this crate constructs one, so a salt outside des comes from
/// `fork` or from splitting another salt. A reseed cannot invent one,
///
/// ```compile_fail,E0423
/// use hta_des::{Salt, SimRng, SnapshotState};
///
/// #[derive(Clone)]
/// struct Comp(SimRng);
///
/// impl SnapshotState for Comp {
///     fn reseed(&mut self, _salt: Salt) {
///         self.0 = self.0.partition(Salt(42));
///     }
/// }
/// ```
///
/// nor hand one stream's salt to a second stream:
///
/// ```compile_fail,E0382
/// use hta_des::{Salt, SimRng, SnapshotState};
///
/// #[derive(Clone)]
/// struct Pair(SimRng, SimRng);
///
/// impl SnapshotState for Pair {
///     fn reseed(&mut self, salt: Salt) {
///         let [first] = salt.streams();
///         self.0 = self.0.partition(first);
///         self.1 = self.1.partition(first);
///     }
/// }
/// ```
pub struct Salt(pub(crate) u64);

impl Salt {
    /// Split into `N` positional sub-stream salts, one per owned stream:
    /// element `i` is the `i + 1`-th of [`branch_salts`].
    pub fn streams<const N: usize>(self) -> [Salt; N] {
        std::array::from_fn(|i| Salt(branch_salt(self.0, i as u64 + 1)))
    }

    /// Keep this salt for the component's own stream and split off `N`
    /// positional sub-stream salts, as [`Salt::streams`] does.
    pub fn split<const N: usize>(self) -> (Salt, [Salt; N]) {
        (Salt(self.0), self.streams())
    }
}

/// The branch salts derived from `salt`: streams 1, 2, … in order, each
/// decorrelated from `salt` and from the others. Never `0` for a
/// non-zero `salt`, and all `0` for `0`, so a replay salt stays a
/// replay all the way down. [`Salt::streams`] uses the same sequence.
pub fn branch_salts(salt: u64) -> impl Iterator<Item = u64> {
    (1u64..).map(move |stream| branch_salt(salt, stream))
}

/// Derive a per-stream salt from a branch salt and a stream index.
fn branch_salt(salt: u64, stream: u64) -> u64 {
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
        fn reseed(&mut self, salt: Salt) {
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

    #[test]
    fn streams_are_positional_branch_salts() {
        let [a, b, c] = Salt(42).streams();
        let want: Vec<u64> = (1..=3).map(|i| branch_salt(42, i)).collect();
        assert_eq!(vec![a.0, b.0, c.0], want);
        assert_eq!(branch_salts(42).take(3).collect::<Vec<_>>(), want);
        let (own, [first]) = Salt(42).split();
        assert_eq!((own.0, first.0), (42, want[0]));
        assert!(branch_salts(0).take(3).all(|s| s == 0));
    }
}
