//! Synthetic streaming trace generator.
//!
//! A [`SynthTrace`] lazily materializes `(arrival_time, TaskSpec)` events
//! from a seeded generator: O(1) state regardless of `total_tasks`, which
//! is what lets the million-task `blast-1M` workload run in bounded
//! memory. Arrival instants come from an [`ArrivalEngine`] (Poisson /
//! MMPP bursts / diurnal modulation); each task's category is drawn from
//! a weighted mix and its wall time from a per-category heavy-tailed
//! distribution ([`WallDist`]).
//!
//! RNG partitioning: the constructor forks four independent streams off
//! the trace seed (arrival gaps, regime dwells, wall times, category
//! mix). [`SynthTrace::reseed`] re-partitions each with a distinct
//! [`branch_salt`] stream index, so a salt-0 snapshot fork replays the
//! remainder of the trace bit-for-bit and non-zero salts give
//! independent futures.

use hta_des::snapshot::branch_salt;
use hta_des::{CategoryId, Duration, SimRng, SimTime};
use hta_resources::Resources;
use hta_workqueue::{ExecModel, TaskId, TaskSpec};

use crate::arrival::{ArrivalEngine, ArrivalProcess, BurstRegime, Diurnal};

/// A per-category wall-time distribution.
#[derive(Debug, Clone, PartialEq)]
pub enum WallDist {
    /// Constant wall time.
    Fixed {
        /// Wall seconds.
        secs: f64,
    },
    /// Lognormal wall time parameterised by its median and the underlying
    /// normal's σ.
    Lognormal {
        /// Median wall seconds (`exp(μ)`).
        median_s: f64,
        /// Shape: σ of the underlying normal.
        sigma: f64,
    },
    /// Pareto wall time (heavy tail): minimum `xm_s`, shape `alpha`.
    Pareto {
        /// Scale — the minimum wall seconds.
        xm_s: f64,
        /// Shape — smaller is heavier-tailed.
        alpha: f64,
    },
}

impl WallDist {
    fn validate(&self) -> Result<(), String> {
        let ok = match self {
            WallDist::Fixed { secs } => secs.is_finite() && *secs > 0.0,
            WallDist::Lognormal { median_s, sigma } => {
                median_s.is_finite() && *median_s > 0.0 && sigma.is_finite() && *sigma >= 0.0
            }
            WallDist::Pareto { xm_s, alpha } => {
                xm_s.is_finite() && *xm_s > 0.0 && alpha.is_finite() && *alpha > 0.0
            }
        };
        if ok {
            Ok(())
        } else {
            Err(format!("invalid wall distribution {self:?}"))
        }
    }
}

/// A [`WallDist`] in the form a draw uses: the lognormal's `ln(median)`
/// is taken once, when the trace is built, not on every arrival.
#[derive(Debug, Clone, Copy)]
enum WallDraw {
    Fixed { secs: f64 },
    Lognormal { mu: f64, sigma: f64 },
    Pareto { xm_s: f64, alpha: f64 },
}

impl WallDraw {
    fn new(dist: &WallDist) -> Self {
        match *dist {
            WallDist::Fixed { secs } => WallDraw::Fixed { secs },
            WallDist::Lognormal { median_s, sigma } => WallDraw::Lognormal {
                mu: median_s.ln(),
                sigma,
            },
            WallDist::Pareto { xm_s, alpha } => WallDraw::Pareto { xm_s, alpha },
        }
    }

    fn sample_s(self, rng: &mut SimRng) -> f64 {
        match self {
            WallDraw::Fixed { secs } => secs,
            WallDraw::Lognormal { mu, sigma } => rng.lognormal(mu, sigma),
            WallDraw::Pareto { xm_s, alpha } => rng.pareto(xm_s, alpha),
        }
    }
}

/// One task category in the synthetic mix.
#[derive(Debug, Clone, PartialEq)]
pub struct CategorySpec {
    /// Category name (tasks in one category are near-identical).
    pub name: String,
    /// Relative weight in the mix (need not sum to 1).
    pub weight: f64,
    /// Wall-time distribution.
    pub wall: WallDist,
    /// Fraction of allocated CPU kept busy while running.
    pub cpu_fraction: f64,
    /// Output returned to the master on completion (MB).
    pub output_mb: f64,
    /// Ground-truth peak consumption.
    pub actual: Resources,
    /// Resources known at submission (`None` → the autoscaler learns).
    pub declared: Option<Resources>,
}

/// Full configuration of a synthetic trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthConfig {
    /// Number of tasks the trace emits before exhausting.
    pub total_tasks: u64,
    /// Base arrival process.
    pub arrivals: ArrivalProcess,
    /// Optional diurnal intensity modulation.
    pub diurnal: Option<Diurnal>,
    /// Weighted category mix (at least one entry, distinct names), and
    /// the category table: a task of entry `i` carries `CategoryId` `i`.
    pub categories: Vec<CategorySpec>,
    /// Hard cap on sampled wall times (keeps Pareto tails from stalling
    /// a run indefinitely).
    pub max_wall_s: f64,
}

impl SynthConfig {
    /// Validate every parameter; returns a human-readable error for the
    /// CLI to surface.
    pub fn validate(&self) -> Result<(), String> {
        if self.total_tasks == 0 {
            return Err("total_tasks must be at least 1".into());
        }
        ArrivalEngine::validate(&self.arrivals, self.diurnal.as_ref())?;
        if self.categories.is_empty() {
            return Err("the category mix needs at least one entry".into());
        }
        let mut weight_sum = 0.0;
        for (i, c) in self.categories.iter().enumerate() {
            if self.categories[..i].iter().any(|d| d.name == c.name) {
                return Err(format!("category {}: listed twice in the mix", c.name));
            }
            if !(c.weight.is_finite() && c.weight > 0.0) {
                return Err(format!("category {}: weight must be positive", c.name));
            }
            if !(0.0..=1.0).contains(&c.cpu_fraction) {
                return Err(format!(
                    "category {}: cpu_fraction must be in [0,1]",
                    c.name
                ));
            }
            if !(c.output_mb.is_finite() && c.output_mb >= 0.0) {
                return Err(format!(
                    "category {}: output_mb must be non-negative",
                    c.name
                ));
            }
            c.wall
                .validate()
                .map_err(|e| format!("category {}: {e}", c.name))?;
            weight_sum += c.weight;
        }
        if !(weight_sum.is_finite() && weight_sum > 0.0) {
            return Err("category weights must sum to a positive value".into());
        }
        if !(self.max_wall_s.is_finite() && self.max_wall_s > 0.0) {
            return Err("max_wall_s must be positive".into());
        }
        Ok(())
    }
}

/// The lazy synthetic trace generator. Cloning checkpoints the cursor;
/// see the module docs for the RNG-partitioning contract.
#[derive(Debug, Clone)]
pub struct SynthTrace {
    cfg: SynthConfig,
    /// Each category's wall-time draw, in category order.
    walls: Vec<WallDraw>,
    engine: ArrivalEngine,
    wall_rng: SimRng,
    mix_rng: SimRng,
    /// Tasks emitted so far — the trace cursor.
    emitted: u64,
}

impl SynthTrace {
    /// Build a generator from a validated config and a trace seed.
    pub fn new(cfg: SynthConfig, seed: u64) -> Result<Self, String> {
        cfg.validate()?;
        let mut root = SimRng::seed_from_u64(seed);
        let arrival_rng = root.fork();
        let regime_rng = root.fork();
        let wall_rng = root.fork();
        let mix_rng = root.fork();
        let engine = ArrivalEngine::new(
            cfg.arrivals.clone(),
            cfg.diurnal.clone(),
            arrival_rng,
            regime_rng,
        );
        let mut walls = Vec::new();
        for c in &cfg.categories {
            walls.push(WallDraw::new(&c.wall));
        }
        Ok(SynthTrace {
            cfg,
            walls,
            engine,
            wall_rng,
            mix_rng,
            emitted: 0,
        })
    }

    /// The configuration this trace was built from.
    pub fn config(&self) -> &SynthConfig {
        &self.cfg
    }

    /// Tasks emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Tasks the trace will emit in total.
    pub fn total_tasks(&self) -> u64 {
        self.cfg.total_tasks
    }

    /// The next arrival, or `None` once `total_tasks` have been emitted.
    /// Draw order per event: arrival instant, category, wall time — fixed
    /// so that WAL replay can re-advance the cursor without re-drawing.
    pub fn next_arrival(&mut self) -> Option<(SimTime, TaskSpec)> {
        if self.emitted >= self.cfg.total_tasks {
            return None;
        }
        let t_s = self.engine.next_arrival_s();
        let at = SimTime::from_millis((t_s * 1_000.0).round() as u64);
        let idx = sample_category(&self.cfg.categories, &mut self.mix_rng);
        let cat = &self.cfg.categories[idx];
        let wall_s = self.walls[idx]
            .sample_s(&mut self.wall_rng)
            .min(self.cfg.max_wall_s);
        let spec = TaskSpec {
            id: TaskId(self.emitted),
            cat: CategoryId::from_u32(idx as u32),
            inputs: Vec::new(),
            output_mb: cat.output_mb,
            declared: cat.declared,
            actual: cat.actual,
            exec: ExecModel {
                duration: Duration::from_secs_f64(wall_s),
                cpu_fraction: cat.cpu_fraction,
            },
        };
        self.emitted += 1;
        Some((at, spec))
    }

    /// Re-partition every RNG stream for a what-if branch; the cursor and
    /// clock are untouched. Distinct stream indices keep the four streams
    /// decorrelated; salt 0 (replay) is preserved by `branch_salt`.
    pub fn reseed(&mut self, salt: u64) {
        self.engine.reseed(branch_salt(salt, 1));
        self.wall_rng = self.wall_rng.partition(branch_salt(salt, 2));
        self.mix_rng = self.mix_rng.partition(branch_salt(salt, 3));
    }
}

/// Weighted pick over the mix; one uniform draw per task.
fn sample_category(categories: &[CategorySpec], rng: &mut SimRng) -> usize {
    let total: f64 = categories.iter().map(|c| c.weight).sum();
    let mut x = rng.uniform() * total;
    for (i, c) in categories.iter().enumerate() {
        x -= c.weight;
        if x <= 0.0 {
            return i;
        }
    }
    categories.len() - 1
}

impl hta_des::SnapshotState for SynthTrace {
    fn reseed(&mut self, salt: u64) {
        SynthTrace::reseed(self, salt);
    }
}

// ----------------------------------------------------------------------
// Presets and spec parsing
// ----------------------------------------------------------------------

fn cat(
    name: &str,
    weight: f64,
    wall: WallDist,
    cpu_fraction: f64,
    output_mb: f64,
    cores: i64,
    mem_mb: i64,
) -> CategorySpec {
    let actual = Resources::cores(cores, mem_mb, mem_mb * 2);
    CategorySpec {
        name: name.into(),
        weight,
        wall,
        cpu_fraction,
        output_mb,
        actual,
        declared: Some(actual),
    }
}

/// A named preset configuration, or `None` for an unknown name.
///
/// * `demo-1k` — 1 000 tasks, plain Poisson, for CLI demos and tests.
/// * `trace-50k` — 50 000 tasks, MMPP bursts + diurnal cycle; the CI
///   `trace-scale` workload.
/// * `blast-1m` — 1 000 000 tasks, diurnal + bursty; the headline
///   bounded-memory perf workload.
pub fn preset(name: &str) -> Option<SynthConfig> {
    let mix = vec![
        cat(
            "align",
            0.7,
            WallDist::Lognormal {
                median_s: 3.2,
                sigma: 0.45,
            },
            0.9,
            0.3,
            1,
            3_000,
        ),
        cat(
            "reduce",
            0.2,
            WallDist::Lognormal {
                median_s: 5.0,
                sigma: 0.35,
            },
            0.6,
            1.0,
            1,
            4_000,
        ),
        cat(
            "longtail",
            0.1,
            WallDist::Pareto {
                xm_s: 2.0,
                alpha: 1.8,
            },
            0.85,
            0.1,
            1,
            2_000,
        ),
    ];
    let bursts = vec![
        BurstRegime {
            rate_multiplier: 1.0,
            mean_dwell_s: 240.0,
        },
        BurstRegime {
            rate_multiplier: 2.5,
            mean_dwell_s: 60.0,
        },
    ];
    match name {
        "demo-1k" => Some(SynthConfig {
            total_tasks: 1_000,
            arrivals: ArrivalProcess::Poisson { rate_per_s: 20.0 },
            diurnal: None,
            categories: mix,
            max_wall_s: 600.0,
        }),
        "trace-50k" => Some(SynthConfig {
            total_tasks: 50_000,
            arrivals: ArrivalProcess::Mmpp {
                base_rate_per_s: 30.0,
                regimes: bursts,
            },
            diurnal: Some(Diurnal {
                period_s: 900.0,
                amplitude: 0.3,
                phase_s: 0.0,
            }),
            categories: mix,
            max_wall_s: 600.0,
        }),
        "blast-1m" => Some(SynthConfig {
            total_tasks: 1_000_000,
            arrivals: ArrivalProcess::Mmpp {
                base_rate_per_s: 30.0,
                regimes: bursts,
            },
            diurnal: Some(Diurnal {
                period_s: 6_000.0,
                amplitude: 0.35,
                phase_s: 0.0,
            }),
            categories: mix,
            max_wall_s: 900.0,
        }),
        _ => None,
    }
}

/// Preset names, for error messages and docs.
pub const PRESETS: &[&str] = &["demo-1k", "trace-50k", "blast-1m"];

/// Parse a `<preset>[,knob=value]*` synthetic trace spec.
///
/// Knobs: `tasks=<n>` overrides the task count, `rate=<per_s>` the base
/// arrival rate, `amp=<0..0.95>` the diurnal amplitude (adding a default
/// cycle when the preset has none).
pub fn parse_synth_spec(spec: &str) -> Result<SynthConfig, String> {
    let mut parts = spec.split(',');
    let name = parts.next().unwrap_or("").trim();
    let mut cfg = preset(name).ok_or_else(|| {
        format!(
            "unknown synth preset {name:?} (expected one of: {})",
            PRESETS.join(", ")
        )
    })?;
    for knob in parts {
        let knob = knob.trim();
        let (key, value) = knob
            .split_once('=')
            .ok_or_else(|| format!("bad synth knob {knob:?} (expected key=value)"))?;
        match key {
            "tasks" => {
                cfg.total_tasks = value
                    .parse::<u64>()
                    .map_err(|_| format!("bad tasks value {value:?}"))?;
            }
            "rate" => {
                let r: f64 = value
                    .parse()
                    .map_err(|_| format!("bad rate value {value:?}"))?;
                match &mut cfg.arrivals {
                    ArrivalProcess::Poisson { rate_per_s } => *rate_per_s = r,
                    ArrivalProcess::Mmpp {
                        base_rate_per_s, ..
                    } => *base_rate_per_s = r,
                }
            }
            "amp" => {
                let a: f64 = value
                    .parse()
                    .map_err(|_| format!("bad amp value {value:?}"))?;
                match &mut cfg.diurnal {
                    Some(d) => d.amplitude = a,
                    None => {
                        cfg.diurnal = Some(Diurnal {
                            period_s: 900.0,
                            amplitude: a,
                            phase_s: 0.0,
                        })
                    }
                }
            }
            other => return Err(format!("unknown synth knob {other:?}")),
        }
    }
    cfg.validate()?;
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for p in PRESETS {
            let cfg = preset(p).expect("preset exists");
            cfg.validate().expect("preset validates");
        }
        assert!(preset("nope").is_none());
    }

    #[test]
    fn specs_carry_their_mix_index_and_names_are_distinct() {
        let mut tr = SynthTrace::new(preset("demo-1k").unwrap(), 3).unwrap();
        let n = tr.config().categories.len();
        while let Some((_, spec)) = tr.next_arrival() {
            assert!(spec.cat.index() < n);
        }
        // The mix is the category table: a repeated name would give one
        // category two ids.
        let mut cfg = preset("demo-1k").unwrap();
        cfg.categories[1].name = cfg.categories[0].name.clone();
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("listed twice"), "{err}");
    }

    #[test]
    fn generator_emits_exactly_total_tasks_with_monotone_times() {
        let mut cfg = preset("demo-1k").unwrap();
        cfg.total_tasks = 500;
        let mut tr = SynthTrace::new(cfg, 7).unwrap();
        let mut last = SimTime::ZERO;
        let mut n = 0u64;
        while let Some((at, spec)) = tr.next_arrival() {
            assert!(at >= last);
            assert_eq!(spec.id, TaskId(n));
            assert!(spec.exec.duration > Duration::ZERO);
            last = at;
            n += 1;
        }
        assert_eq!(n, 500);
        assert!(tr.next_arrival().is_none(), "stays exhausted");
    }

    #[test]
    fn same_seed_is_bitwise_identical() {
        let cfg = preset("trace-50k").unwrap();
        let mut a = SynthTrace::new(
            SynthConfig {
                total_tasks: 2_000,
                ..cfg.clone()
            },
            42,
        )
        .unwrap();
        let mut b = SynthTrace::new(
            SynthConfig {
                total_tasks: 2_000,
                ..cfg
            },
            42,
        )
        .unwrap();
        while let Some(ea) = a.next_arrival() {
            let eb = b.next_arrival().expect("same length");
            assert_eq!(ea, eb);
        }
        assert!(b.next_arrival().is_none());
    }

    #[test]
    fn wall_cap_applies_to_heavy_tails() {
        let mut cfg = preset("demo-1k").unwrap();
        cfg.max_wall_s = 4.0;
        cfg.total_tasks = 2_000;
        let mut tr = SynthTrace::new(cfg, 3).unwrap();
        while let Some((_, spec)) = tr.next_arrival() {
            assert!(spec.exec.duration.as_secs_f64() <= 4.0 + 1e-9);
        }
    }

    #[test]
    fn spec_knobs_override_preset() {
        let cfg = parse_synth_spec("demo-1k,tasks=123,rate=2.5,amp=0.5").unwrap();
        assert_eq!(cfg.total_tasks, 123);
        assert!(matches!(
            cfg.arrivals,
            ArrivalProcess::Poisson { rate_per_s } if (rate_per_s - 2.5).abs() < 1e-12
        ));
        assert!((cfg.diurnal.unwrap().amplitude - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bad_specs_are_rejected() {
        for bad in [
            "nope",
            "demo-1k,tasks=abc",
            "demo-1k,tasks=0",
            "demo-1k,rate=-2",
            "demo-1k,amp=2.0",
            "demo-1k,wat=1",
            "demo-1k,tasks",
        ] {
            assert!(parse_synth_spec(bad).is_err(), "{bad:?} should fail");
        }
    }
}
