//! Seeded randomness for the simulation.
//!
//! Every stochastic element of the model (node provisioning latency, image
//! pull jitter, task runtime noise) draws from a [`SimRng`] created from an
//! explicit seed, so each experiment is exactly reproducible and figures can
//! be regenerated byte-for-byte.
//!
//! The normal sampler is an in-house Box–Muller implementation; the offline
//! crate set does not include `rand_distr`, and the handful of samplers the
//! model needs are small enough to own (and property-test) directly.
//!
//! Randomness is seeded or it does not compile: the vendored `rand` has no
//! unseeded constructor. A seeded generator builds,
//!
//! ```
//! use rand::{rngs::SmallRng, Rng, SeedableRng};
//! let _: f64 = SmallRng::seed_from_u64(7).gen();
//! ```
//!
//! but the ambient ones do not:
//!
//! ```compile_fail,E0425
//! let _rng = rand::thread_rng();
//! ```
//!
//! ```compile_fail,E0425
//! let _: f64 = rand::random();
//! ```

use rand::{Rng, RngCore, SeedableRng};

use crate::snapshot::Salt;
use crate::time::Duration;

#[expect(
    clippy::disallowed_types,
    reason = "SimRng is the one owner of a raw generator: every stream a component holds is a \
              SimRng, which SnapshotState::reseed re-partitions"
)]
type SmallRng = rand::rngs::SmallRng;

/// Deterministic random source used throughout the simulation.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: SmallRng,
    /// A spare normal variate from the last Box–Muller draw.
    spare: Option<f64>,
}

impl SimRng {
    /// Create a generator from an explicit 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: SmallRng::seed_from_u64(seed),
            spare: None,
        }
    }

    /// Derive an independent child generator (used to give each subsystem
    /// its own stream so adding draws in one component does not perturb
    /// another).
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from_u64(self.inner.next_u64())
    }

    /// Derive an independent child generator *without consuming the parent
    /// stream*.
    ///
    /// Unlike [`SimRng::fork`], this never advances `self`: the next value
    /// drawn from the parent is identical whether or not `partition` was
    /// called, which is what lets a what-if branch take a private RNG
    /// stream while the parent run stays bitwise reproducible. The child
    /// seed is derived by peeking at a clone of the parent state and
    /// mixing in `salt`, so distinct salts from the same parent state give
    /// well-separated streams and the same salt reproduces the same child.
    pub fn partition(&self, salt: Salt) -> SimRng {
        let mut probe = self.inner.clone();
        let base = probe.next_u64();
        SimRng::seed_from_u64(splitmix64(
            base ^ salt.0.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ))
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform in `[lo, hi)`; returns `lo` when the range is empty.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        lo + self.uniform() * (hi - lo)
    }

    /// Uniform integer in `[lo, hi]`.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        self.inner.gen_range(lo..=hi)
    }

    /// Standard normal variate via Box–Muller (with spare caching).
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        // Box–Muller: u1 in (0,1] to keep ln finite.
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal variate with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + self.standard_normal() * std_dev.max(0.0)
    }

    /// Normal variate truncated below at `floor` (re-draw up to 32 times,
    /// then clamp — good enough for the mild truncations the model uses).
    pub fn normal_at_least(&mut self, mean: f64, std_dev: f64, floor: f64) -> f64 {
        for _ in 0..32 {
            let x = self.normal(mean, std_dev);
            if x >= floor {
                return x;
            }
        }
        floor
    }

    /// Lognormal variate parameterised by the *underlying* normal's μ and σ.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// A duration drawn from `Normal(mean, std_dev)` truncated at zero.
    pub fn normal_duration(&mut self, mean: Duration, std_dev: Duration) -> Duration {
        let s = self.normal_at_least(mean.as_secs_f64(), std_dev.as_secs_f64(), 0.0);
        Duration::from_secs_f64(s)
    }

    /// A duration scaled by a multiplicative jitter factor drawn uniformly
    /// from `[1 - jitter, 1 + jitter]`.
    pub fn jittered(&mut self, base: Duration, jitter: f64) -> Duration {
        let jitter = jitter.clamp(0.0, 1.0);
        base.mul_f64(self.uniform_range(1.0 - jitter, 1.0 + jitter))
    }

    /// Exponential variate with the given rate (mean `1 / rate`) via
    /// inversion. A non-positive rate yields `+∞` — callers treat that as
    /// "never" (e.g. an arrival process that has shut off).
    pub fn exp(&mut self, rate: f64) -> f64 {
        if rate <= 0.0 {
            return f64::INFINITY;
        }
        // u in (0, 1] keeps ln finite.
        let u = 1.0 - self.uniform();
        -u.ln() / rate
    }

    /// Pareto variate with scale `xm` (minimum value) and shape `alpha`
    /// via inversion. Smaller `alpha` ⇒ heavier tail; `alpha ≤ 1` has
    /// infinite mean, which heavy-tail wall-time models exploit.
    pub fn pareto(&mut self, xm: f64, alpha: f64) -> f64 {
        let u = 1.0 - self.uniform();
        xm / u.powf(1.0 / alpha.max(f64::MIN_POSITIVE))
    }
}

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit permutation used to
/// turn correlated `(state, salt)` pairs into well-separated seeds.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
            assert_eq!(a.standard_normal().to_bits(), b.standard_normal().to_bits());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4, "streams should diverge, {same} collisions");
    }

    #[test]
    fn fork_is_independent_of_parent_consumption() {
        let mut a = SimRng::seed_from_u64(7);
        let mut child = a.fork();
        let first = child.uniform();
        // Consuming the parent further must not change an already-forked child.
        let _ = a.uniform();
        let mut a2 = SimRng::seed_from_u64(7);
        let mut child2 = a2.fork();
        assert_eq!(first.to_bits(), child2.uniform().to_bits());
    }

    #[test]
    fn partition_does_not_consume_the_parent() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        let _child = a.partition(Salt(3));
        // `b` never partitioned; both streams must stay identical.
        for _ in 0..64 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn partition_is_reproducible_and_salt_sensitive() {
        let a = SimRng::seed_from_u64(7);
        let mut c1 = a.partition(Salt(3));
        let mut c2 = a.partition(Salt(3));
        let mut c3 = a.partition(Salt(4));
        let (x1, x2, x3) = (c1.uniform(), c2.uniform(), c3.uniform());
        assert_eq!(x1.to_bits(), x2.to_bits(), "same salt ⇒ same child");
        assert_ne!(x1.to_bits(), x3.to_bits(), "different salt ⇒ new stream");
    }

    #[test]
    fn partition_depends_on_parent_position() {
        let mut a = SimRng::seed_from_u64(7);
        let mut early = a.partition(Salt(1));
        let _ = a.uniform();
        let mut late = a.partition(Salt(1));
        assert_ne!(
            early.uniform().to_bits(),
            late.uniform().to_bits(),
            "children partitioned at different parent positions diverge"
        );
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = SimRng::seed_from_u64(1234);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(157.4, 4.2)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 157.4).abs() < 0.2, "mean={mean}");
        assert!((var.sqrt() - 4.2).abs() < 0.2, "sd={}", var.sqrt());
    }

    #[test]
    fn truncated_normal_respects_floor() {
        let mut rng = SimRng::seed_from_u64(5);
        for _ in 0..10_000 {
            assert!(rng.normal_at_least(0.0, 10.0, 0.0) >= 0.0);
        }
    }

    #[test]
    fn normal_duration_is_nonnegative_and_near_mean() {
        let mut rng = SimRng::seed_from_u64(9);
        let mean = Duration::from_secs(157);
        let sd = Duration::from_secs(4);
        let mut acc = 0.0;
        let n = 5_000;
        for _ in 0..n {
            acc += rng.normal_duration(mean, sd).as_secs_f64();
        }
        let avg = acc / n as f64;
        assert!((avg - 157.0).abs() < 1.0, "avg={avg}");
    }

    #[test]
    fn jitter_bounds_hold() {
        let mut rng = SimRng::seed_from_u64(11);
        let base = Duration::from_secs(100);
        for _ in 0..1000 {
            let d = rng.jittered(base, 0.1).as_secs_f64();
            assert!((89.9..=110.1).contains(&d), "d={d}");
        }
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = SimRng::seed_from_u64(21);
        let rate = 0.25;
        let n = 50_000;
        let mean = (0..n).map(|_| rng.exp(rate)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean={mean}");
        assert_eq!(rng.exp(0.0), f64::INFINITY);
        assert_eq!(rng.exp(-1.0), f64::INFINITY);
    }

    #[test]
    fn pareto_respects_scale_and_tail() {
        let mut rng = SimRng::seed_from_u64(22);
        let (xm, alpha) = (2.0, 2.5);
        let n = 50_000;
        let mut mean = 0.0;
        for _ in 0..n {
            let x = rng.pareto(xm, alpha);
            assert!(x >= xm, "x={x}");
            mean += x;
        }
        mean /= n as f64;
        // E[X] = α·xm/(α−1) = 10/3 for these parameters.
        assert!((mean - 10.0 / 3.0).abs() < 0.15, "mean={mean}");
    }

    #[test]
    fn uniform_range_degenerate() {
        let mut rng = SimRng::seed_from_u64(3);
        assert_eq!(rng.uniform_range(5.0, 5.0), 5.0);
        assert_eq!(rng.uniform_range(5.0, 1.0), 5.0);
        assert_eq!(rng.uniform_u64(9, 3), 9);
    }
}
