//! Composable open-loop arrival processes.
//!
//! An [`ArrivalEngine`] turns a base point process — homogeneous Poisson
//! or a Markov-modulated Poisson process (MMPP) whose rate jumps between
//! burst regimes — into a stream of strictly non-decreasing arrival
//! instants, optionally modulated by a [`Diurnal`] intensity cycle. The
//! inhomogeneous cases are sampled by Lewis–Shedler thinning: candidates
//! are drawn from a homogeneous process at the peak rate and accepted
//! with probability `λ(t) / λ_peak`, which is exact and needs O(1) state.
//!
//! All randomness flows through two partitioned [`SimRng`] streams (one
//! for candidate gaps + acceptance, one for regime dwell times), so the
//! engine composes with snapshot/fork: salt-0 forks replay the parent's
//! arrival instants bit-for-bit, non-zero salts yield an independent but
//! reproducible future.

use hta_des::{Salt, SimRng, SnapshotState};

/// Sinusoidal diurnal intensity modulation: the instantaneous rate is
/// scaled by `1 + amplitude · sin(2π (t − phase) / period)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Diurnal {
    /// Cycle length in seconds (a scaled-down "day").
    pub period_s: f64,
    /// Relative swing in `[0, 0.95]`; the trough rate is `1 − amplitude`.
    pub amplitude: f64,
    /// Phase offset in seconds.
    pub phase_s: f64,
}

impl Diurnal {
    /// Intensity multiplier at time `t` (always positive for a valid
    /// amplitude).
    pub fn intensity(&self, t_s: f64) -> f64 {
        let theta = 2.0 * std::f64::consts::PI * (t_s - self.phase_s) / self.period_s;
        1.0 + self.amplitude * theta.sin()
    }

    /// Upper bound of [`Diurnal::intensity`] over all `t`.
    pub fn peak(&self) -> f64 {
        1.0 + self.amplitude
    }

    fn validate(&self) -> Result<(), String> {
        if !(self.period_s.is_finite() && self.period_s > 0.0) {
            return Err(format!(
                "diurnal period must be positive, got {}",
                self.period_s
            ));
        }
        if !(0.0..=0.95).contains(&self.amplitude) {
            return Err(format!(
                "diurnal amplitude must be in [0, 0.95], got {}",
                self.amplitude
            ));
        }
        Ok(())
    }
}

/// One regime of a Markov-modulated Poisson process.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstRegime {
    /// Rate multiplier applied to the base rate while this regime holds.
    pub rate_multiplier: f64,
    /// Mean dwell time in the regime (exponentially distributed).
    pub mean_dwell_s: f64,
}

/// The base arrival point process.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals at a constant rate.
    Poisson {
        /// Mean arrivals per second.
        rate_per_s: f64,
    },
    /// Markov-modulated Poisson: the rate is `base × multiplier` of the
    /// currently-held regime; regimes switch after exponential dwells.
    Mmpp {
        /// Base mean arrivals per second (regime multiplier 1.0).
        base_rate_per_s: f64,
        /// Burst regimes; the process starts in the first one.
        regimes: Vec<BurstRegime>,
    },
}

impl ArrivalProcess {
    /// Peak instantaneous rate over all regimes (before diurnal
    /// modulation) — the thinning envelope.
    pub fn peak_rate(&self) -> f64 {
        match self {
            ArrivalProcess::Poisson { rate_per_s } => *rate_per_s,
            ArrivalProcess::Mmpp {
                base_rate_per_s,
                regimes,
            } => {
                let max_mult = regimes
                    .iter()
                    .map(|r| r.rate_multiplier)
                    .fold(1.0_f64, f64::max);
                base_rate_per_s * max_mult
            }
        }
    }

    /// Validate rates and regime parameters.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            ArrivalProcess::Poisson { rate_per_s } => {
                if !(rate_per_s.is_finite() && *rate_per_s > 0.0) {
                    return Err(format!("arrival rate must be positive, got {rate_per_s}"));
                }
            }
            ArrivalProcess::Mmpp {
                base_rate_per_s,
                regimes,
            } => {
                if !(base_rate_per_s.is_finite() && *base_rate_per_s > 0.0) {
                    return Err(format!("base rate must be positive, got {base_rate_per_s}"));
                }
                if regimes.is_empty() {
                    return Err("an MMPP needs at least one regime".into());
                }
                for (i, r) in regimes.iter().enumerate() {
                    if !(r.rate_multiplier.is_finite() && r.rate_multiplier > 0.0) {
                        return Err(format!(
                            "regime {i}: rate multiplier must be positive, got {}",
                            r.rate_multiplier
                        ));
                    }
                    if !(r.mean_dwell_s.is_finite() && r.mean_dwell_s > 0.0) {
                        return Err(format!(
                            "regime {i}: mean dwell must be positive, got {}",
                            r.mean_dwell_s
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// The stateful arrival sampler: O(1) memory, strictly non-decreasing
/// output, deterministic for a given `(process, diurnal, seeds)`.
#[derive(Debug, Clone)]
pub struct ArrivalEngine {
    process: ArrivalProcess,
    diurnal: Option<Diurnal>,
    /// Candidate clock (seconds); the last accepted arrival instant.
    clock_s: f64,
    /// Index of the regime currently held (MMPP only).
    regime: usize,
    /// Sim-second at which the current regime's dwell expires.
    regime_until_s: f64,
    /// Candidate gaps + thinning acceptance draws.
    arrival_rng: SimRng,
    /// Regime dwell times and regime-successor choices.
    regime_rng: SimRng,
}

impl ArrivalEngine {
    /// Build an engine; draws the first regime dwell at construction so
    /// the process starts inside regime 0.
    pub fn new(
        process: ArrivalProcess,
        diurnal: Option<Diurnal>,
        arrival_rng: SimRng,
        mut regime_rng: SimRng,
    ) -> Self {
        let regime_until_s = match &process {
            ArrivalProcess::Mmpp { regimes, .. } => regime_rng.exp(1.0 / regimes[0].mean_dwell_s),
            ArrivalProcess::Poisson { .. } => f64::INFINITY,
        };
        ArrivalEngine {
            process,
            diurnal,
            clock_s: 0.0,
            regime: 0,
            regime_until_s,
            arrival_rng,
            regime_rng,
        }
    }

    /// Validate the process and modulation parameters together.
    pub fn validate(process: &ArrivalProcess, diurnal: Option<&Diurnal>) -> Result<(), String> {
        process.validate()?;
        if let Some(d) = diurnal {
            d.validate()?;
        }
        Ok(())
    }

    /// Instantaneous rate at time `t` given the currently-held regime.
    fn rate_at(&self, t_s: f64) -> f64 {
        let base = match &self.process {
            ArrivalProcess::Poisson { rate_per_s } => *rate_per_s,
            ArrivalProcess::Mmpp {
                base_rate_per_s,
                regimes,
            } => base_rate_per_s * regimes[self.regime].rate_multiplier,
        };
        match &self.diurnal {
            Some(d) => base * d.intensity(t_s),
            None => base,
        }
    }

    /// Advance the regime chain up to time `t`.
    fn advance_regimes(&mut self, t_s: f64) {
        let ArrivalProcess::Mmpp { regimes, .. } = &self.process else {
            return;
        };
        let n = regimes.len();
        while t_s >= self.regime_until_s {
            // Jump to a uniformly-chosen *other* regime (alternation for
            // the canonical 2-state burst chain).
            self.regime = if n <= 1 {
                0
            } else {
                let step = 1 + self.regime_rng.uniform_u64(0, n as u64 - 2) as usize;
                (self.regime + step) % n
            };
            let dwell = self.regime_rng.exp(1.0 / regimes[self.regime].mean_dwell_s);
            self.regime_until_s += dwell;
        }
    }

    /// The next arrival instant in seconds (strictly after the previous
    /// one for any positive rate).
    pub fn next_arrival_s(&mut self) -> f64 {
        let peak = {
            let env = self.process.peak_rate();
            match &self.diurnal {
                Some(d) => env * d.peak(),
                None => env,
            }
        };
        loop {
            self.clock_s += self.arrival_rng.exp(peak);
            self.advance_regimes(self.clock_s);
            let lam = self.rate_at(self.clock_s);
            if self.arrival_rng.uniform() < lam / peak {
                return self.clock_s;
            }
        }
    }
}

impl SnapshotState for ArrivalEngine {
    /// Re-partition both RNG streams for a what-if branch (the counters
    /// and clock are untouched).
    fn reseed(&mut self, salt: Salt) {
        let [arrival, regime] = salt.streams();
        self.arrival_rng = self.arrival_rng.partition(arrival);
        self.regime_rng = self.regime_rng.partition(regime);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(process: ArrivalProcess, diurnal: Option<Diurnal>) -> ArrivalEngine {
        let mut root = SimRng::seed_from_u64(77);
        let a = root.fork();
        let r = root.fork();
        ArrivalEngine::new(process, diurnal, a, r)
    }

    #[test]
    fn poisson_rate_is_plausible_and_monotone() {
        let mut e = engine(ArrivalProcess::Poisson { rate_per_s: 10.0 }, None);
        let n = 20_000;
        let mut last = 0.0;
        for _ in 0..n {
            let t = e.next_arrival_s();
            assert!(t > last, "arrivals must be strictly increasing");
            last = t;
        }
        let rate = n as f64 / last;
        assert!((rate - 10.0).abs() < 0.3, "rate={rate}");
    }

    #[test]
    fn diurnal_modulation_shifts_density() {
        let d = Diurnal {
            period_s: 1_000.0,
            amplitude: 0.9,
            phase_s: 0.0,
        };
        let mut e = engine(ArrivalProcess::Poisson { rate_per_s: 20.0 }, Some(d));
        // Count arrivals in the rising half vs the falling half of cycles.
        let (mut hi, mut lo) = (0u64, 0u64);
        for _ in 0..40_000 {
            let t = e.next_arrival_s();
            if (t / 1_000.0).fract() < 0.5 {
                hi += 1;
            } else {
                lo += 1;
            }
        }
        assert!(
            hi as f64 > lo as f64 * 1.5,
            "peak half should dominate: hi={hi} lo={lo}"
        );
    }

    #[test]
    fn mmpp_bursts_raise_the_mean_rate() {
        let p = ArrivalProcess::Mmpp {
            base_rate_per_s: 10.0,
            regimes: vec![
                BurstRegime {
                    rate_multiplier: 1.0,
                    mean_dwell_s: 50.0,
                },
                BurstRegime {
                    rate_multiplier: 4.0,
                    mean_dwell_s: 50.0,
                },
            ],
        };
        let mut e = engine(p, None);
        let n = 40_000;
        let mut last = 0.0;
        for _ in 0..n {
            last = e.next_arrival_s();
        }
        let rate = n as f64 / last;
        // Equal dwell in 1× and 4× regimes ⇒ long-run mean rate 25/s.
        // Regime occupancy over a finite window is noisy (~40 switches
        // here), so only bound the estimate away from base and peak.
        assert!((18.0..33.0).contains(&rate), "rate={rate}");
    }

    #[test]
    fn same_seeds_replay_identically() {
        let p = ArrivalProcess::Mmpp {
            base_rate_per_s: 5.0,
            regimes: vec![
                BurstRegime {
                    rate_multiplier: 1.0,
                    mean_dwell_s: 20.0,
                },
                BurstRegime {
                    rate_multiplier: 3.0,
                    mean_dwell_s: 10.0,
                },
            ],
        };
        let d = Diurnal {
            period_s: 300.0,
            amplitude: 0.4,
            phase_s: 10.0,
        };
        let mut a = engine(p.clone(), Some(d.clone()));
        let mut b = engine(p, Some(d));
        for _ in 0..1_000 {
            assert_eq!(a.next_arrival_s().to_bits(), b.next_arrival_s().to_bits());
        }
    }

    #[test]
    fn salt_zero_fork_replays_and_nonzero_fork_diverges() {
        // Salt-0 replay is a plain clone (SnapshotState::fork skips
        // reseed entirely for salt 0); a non-zero salt must diverge
        // reproducibly.
        let mut a = engine(ArrivalProcess::Poisson { rate_per_s: 3.0 }, None);
        let mut b = a.fork(0);
        let mut c = a.fork(9);
        let mut d = a.fork(9);
        let (xa, xb, xc, xd) = (
            a.next_arrival_s(),
            b.next_arrival_s(),
            c.next_arrival_s(),
            d.next_arrival_s(),
        );
        assert_eq!(xa.to_bits(), xb.to_bits(), "clone must replay");
        assert_ne!(xa.to_bits(), xc.to_bits(), "non-zero salt must diverge");
        assert_eq!(xc.to_bits(), xd.to_bits(), "same salt ⇒ same branch");
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(ArrivalProcess::Poisson { rate_per_s: 0.0 }
            .validate()
            .is_err());
        assert!(ArrivalProcess::Mmpp {
            base_rate_per_s: 1.0,
            regimes: vec![],
        }
        .validate()
        .is_err());
        let bad = Diurnal {
            period_s: 100.0,
            amplitude: 1.2,
            phase_s: 0.0,
        };
        assert!(
            ArrivalEngine::validate(&ArrivalProcess::Poisson { rate_per_s: 1.0 }, Some(&bad))
                .is_err()
        );
    }
}
