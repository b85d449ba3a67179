//! End-to-end and per-layer benchmark of the HTA simulator.
//!
//! One command runs one named workload with one seed and prints every
//! metric with its unit, as a table and as a closing JSON line. With
//! tracing off it reports the end-to-end metrics from untraced runs;
//! with tracing on it makes a separate traced run of the same workload
//! and seed and reports the per-layer metrics. Both modes check the
//! outputs (see [`Report::problems`]). `README.md` beside this file
//! documents the metrics, the workloads and the baseline observations.

pub mod calibrate;
pub mod instance;
pub mod measure;
pub mod probe;
pub mod workload;

pub use instance::Instance;
use measure::{
    measure_setup, measure_untraced, median, quantile, trace_generation, traced_run, window_cost,
    Outcome, STALL_FACTOR,
};
use probe::PolicyProbe;
pub use workload::{instance_seed, Scale, Workload};

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 42;
/// A second seed the correctness and coverage gates are also run on, so
/// a later claim can be checked on a seed it was not tuned on.
pub const SECOND_SEED: u64 = 7;
/// Workload instances run per end-to-end measurement, at the least.
pub const MIN_INSTANCES: usize = 3;
/// Host time the traced mode spends on repeated set-ups, seconds.
const PER_LAYER_SETUP_BUDGET_S: f64 = 1.0;

/// `(name, unit)` of every end-to-end metric, as `BENCHMARK.json` lists
/// them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("makespan_s", "s"),
    ("waste_core_s", "core-s"),
    ("shortage_core_s", "core-s"),
    ("mean_response_s", "s"),
    ("completed_ratio", "ratio"),
];

/// `(name, unit)` of every per-layer metric, as `BENCHMARK.json` lists
/// them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.build_s", "s"),
    ("core.driver.new_s", "s"),
    ("core.driver.bootstrap_s", "s"),
    ("core.driver.loop_s", "s"),
    ("core.driver.us_per_task_first", "us"),
    ("core.driver.us_per_task_last", "us"),
    ("core.driver.cost_growth", "ratio"),
    ("core.driver.slice_p50_s", "s"),
    ("core.driver.slice_max_s", "s"),
    ("core.driver.stall_share", "ratio"),
    ("core.driver.finalize_s", "s"),
    ("core.driver.unattributed_s", "s"),
    ("core.policy.calls", "count"),
    ("core.policy.decide_s", "s"),
    ("core.policy.decide_p99_us", "us"),
    ("core.whatif.branches", "count"),
    ("core.whatif.branch_s", "s"),
    ("core.whatif.branch_events", "count"),
    ("core.whatif.branch_events_per_s", "1/s"),
    ("core.whatif.fork_us_p50", "us"),
    ("core.whatif.fork_us_max", "us"),
    ("core.whatif.fork_probe_s", "s"),
    ("forecast.decide_self_s", "s"),
    ("trace.arrivals", "count"),
    ("trace.gen_us_per_arrival", "us"),
    ("trace.gen_s", "s"),
    ("workqueue.completed", "count"),
    ("workqueue.task_retries", "count"),
    ("workqueue.oom_kills", "count"),
    ("workqueue.wasted_core_s", "core-s"),
    ("workqueue.attempt_efficiency", "ratio"),
    ("workqueue.zombies_fenced", "count"),
    ("cluster.node_faults", "count"),
    ("cluster.image_pull_retries", "count"),
    ("des.channel.msgs_dropped", "count"),
    ("des.channel.partition_s", "s"),
    ("core.recovery.checkpoints", "count"),
    ("core.recovery.wal_replayed", "count"),
    ("core.recovery.requeued", "count"),
    ("metrics.peak_workers", "count"),
    ("metrics.worker_connects", "count"),
    ("sim.events", "count"),
    ("traced_wall_s", "s"),
    ("tracing_overhead_s", "s"),
];

/// A measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, one of [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one benchmark invocation.
#[derive(Debug, Clone)]
pub struct Report {
    /// Simulation runs made.
    pub attempted: u64,
    /// Runs that failed a check.
    pub failed: u64,
    /// Every reported metric, in [`END_TO_END`] or [`PER_LAYER`] order.
    pub metrics: Vec<Metric>,
    /// Every failed check, in words. Empty when the outputs are correct.
    pub problems: Vec<String>,
    /// Lines for the human reader, printed before the closing JSON line.
    pub notes: Vec<String>,
}

impl Report {
    fn new(table: &'static [(&'static str, &'static str)], values: &[(&str, f64)]) -> Report {
        let metrics = table
            .iter()
            .map(|&(name, unit)| {
                let value = values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|&(_, v)| v)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                // `+ 0.0` turns the -0.0 an empty float sum yields into 0.0.
                Metric {
                    name,
                    value: value + 0.0,
                    unit,
                }
            })
            .collect();
        Report {
            attempted: 0,
            failed: 0,
            metrics,
            problems: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Look a metric's value up by name.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The closing JSON line: `correct`, `attempted`, `failed` and
    /// `metrics` (each `{"value", "unit"}`).
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn check_finite(&mut self) {
        for m in &self.metrics {
            if !m.value.is_finite() {
                self.problems
                    .push(format!("metric {} is not finite ({})", m.name, m.value));
            }
        }
    }
}

/// Coverage gate: problems when the run did not exercise the layer the
/// workload was chosen for. `probe` is the traced run's policy probe;
/// the what-if check needs it and is skipped without one.
pub fn coverage_problems(w: Workload, o: &Outcome, probe: Option<&PolicyProbe>) -> Vec<String> {
    let mut out = Vec::new();
    let mut need = |ok: bool, what: String| {
        if !ok {
            out.push(format!("coverage ({}): {what}", w.name()));
        }
    };
    match w {
        Workload::StreamChurn => need(
            o.worker_connects >= 3.0 * o.peak_workers && o.peak_workers > 0.0,
            format!(
                "metrics.worker_connects {} is not well above metrics.peak_workers {}",
                o.worker_connects, o.peak_workers
            ),
        ),
        Workload::StreamChaos => {
            let f = &o.faults;
            for (name, value) in [
                ("workqueue.task_retries", f.task_retries as f64),
                ("workqueue.oom_kills", f.oom_kills as f64),
                ("core.recovery.wal_replayed", f.wal_replayed as f64),
                ("des.channel.msgs_dropped", f.msgs_dropped as f64),
                ("des.channel.partition_s", f.partition_s),
            ] {
                need(value > 0.0, format!("{name} reads zero"));
            }
        }
        Workload::MpcFig10 => {
            if let Some(p) = probe {
                need(p.branches > 0, "core.whatif.branches reads zero".into());
            }
        }
    }
    out
}

/// Every check one run must pass on its own: [`Outcome::problems`], and
/// the coverage gate at full scale (tiny inputs are too short to exercise
/// every layer).
pub fn run_problems(
    w: Workload,
    scale: Scale,
    o: &Outcome,
    probe: Option<&PolicyProbe>,
) -> Vec<String> {
    let mut out = o.problems();
    if scale == Scale::Full {
        out.extend(coverage_problems(w, o, probe));
    }
    out
}

/// How many instances an end-to-end run of `w` makes: as many as fill
/// `seconds` at the workload's [`Workload::nominal_instance_s`] plus the
/// instance's set-up and calibration time, and at least
/// [`MIN_INSTANCES`]. The count
/// depends only on the workload and `seconds`, never on how fast the
/// host is, so the instance set — and with it every simulated metric —
/// is fixed by the seed.
pub fn instance_count(w: Workload, seconds: f64) -> usize {
    let per_instance =
        w.nominal_instance_s() + instance::SETUP_BUDGET_S + calibrate::instance_overhead_s();
    let fit = (seconds / per_instance).ceil();
    if fit > MIN_INSTANCES as f64 {
        fit as usize
    } else {
        MIN_INSTANCES
    }
}

/// Measure the end-to-end metrics over [`instance_count`] workload
/// instances: instance `i` runs on [`instance_seed`]`(seed, i)` through
/// `run_instance`. Host times, peak RSS and simulated metrics are means
/// over the instances; `setup_s` is the median of their set-up medians.
/// Host times are scaled to the reference host speed
/// ([`Instance::scaled`]); the notes give them unscaled.
/// An instance that could not be run counts as failed and ends the run.
pub fn end_to_end(
    w: Workload,
    seed: u64,
    seconds: f64,
    mut run_instance: impl FnMut(u64) -> Result<Instance, String>,
) -> Report {
    let mut runs: Vec<Instance> = Vec::new();
    let mut problems = Vec::new();
    let mut failed = 0;
    let mut attempted = 0;
    for i in 0..instance_count(w, seconds) {
        attempted += 1;
        match run_instance(instance_seed(seed, i)) {
            Ok(run) => {
                failed += u64::from(!run.problems.is_empty());
                problems.extend(run.problems.iter().cloned());
                runs.push(run);
            }
            Err(e) => {
                failed += 1;
                problems.push(e);
                break;
            }
        }
    }
    let n = runs.len().max(1) as f64;
    let mean = |f: fn(&Instance) -> f64| runs.iter().map(f).sum::<f64>() / n;
    let sum = |f: fn(&Instance) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    let setups: Vec<f64> = runs.iter().map(|r| r.scaled(r.setup_s)).collect();
    let wall_total: f64 = runs.iter().map(|r| r.scaled(r.wall_s)).sum();
    let mut report = Report::new(
        END_TO_END,
        &[
            ("wall_s", wall_total / n),
            ("events_per_s", sum(|r| r.events) / wall_total),
            ("setup_s", median(&setups)),
            ("peak_rss_mb", mean(|r| r.peak_rss_mb)),
            ("makespan_s", mean(|r| r.makespan_s)),
            ("waste_core_s", mean(|r| r.waste_core_s)),
            ("shortage_core_s", mean(|r| r.shortage_core_s)),
            ("mean_response_s", mean(|r| r.mean_response_s)),
            ("completed_ratio", sum(|r| r.completed) / sum(|r| r.tasks)),
        ],
    );
    report.attempted = attempted;
    report.failed = failed;
    report.problems = problems;
    let raw_wall: f64 = runs.iter().map(|r| r.wall_s).sum();
    let kernels: Vec<f64> = runs.iter().map(|r| r.kernel_s).collect();
    report.notes = vec![
        format!(
            "unscaled host times: wall_s {:.6} s, events_per_s {:.1} 1/s, setup_s {:.9} s",
            raw_wall / n,
            sum(|r| r.events) / raw_wall,
            median(&runs.iter().map(|r| r.setup_s).collect::<Vec<_>>())
        ),
        format!(
            "calibration kernel: median {:.3} ms, range {:.3}-{:.3} ms, reference {:.3} ms",
            median(&kernels) * 1e3,
            quantile(&kernels, 0.0) * 1e3,
            quantile(&kernels, 1.0) * 1e3,
            calibrate::REFERENCE_S * 1e3
        ),
    ];
    report.check_finite();
    report
}

/// Measure the per-layer metrics from one traced run on `seed` (instance
/// 0), plus untraced runs on the same seed for the rest of `seconds` (at
/// least two) as the tracing-overhead and correctness reference.
pub fn per_layer(w: Workload, seed: u64, scale: Scale, seconds: f64) -> Report {
    let kernel_before = calibrate::kernel_s();
    let setup = measure_setup(w, seed, scale, PER_LAYER_SETUP_BUDGET_S);
    let traced = traced_run(w, seed, scale);
    let kernel_after = calibrate::kernel_s();
    let untraced = measure_untraced(w, seed, scale, seconds - traced.wall_s, 2);
    let (arrivals_drained, gen_us) = trace_generation(w, seed, scale);

    let p = &traced.probe;
    let o = &traced.outcome;
    let f = &o.faults;
    let slice_walls: Vec<f64> = traced.slices.iter().map(|s| s.wall_s).collect();
    let slices_s: f64 = slice_walls.iter().sum();
    let slice_p50 = median(&slice_walls);
    let stalled: f64 = slice_walls
        .iter()
        .filter(|&&s| s > STALL_FACTOR * slice_p50)
        .sum();
    let (first_us, last_us) = window_cost(&traced.slices);
    let fork_probe_s = traced.fork_us.iter().sum::<f64>() / 1e6;
    let decide_s = p.decide_s();
    let trace_gen_s = gen_us * traced.arrivals as f64 / 1e6;
    let loop_s = slices_s - decide_s - p.branch_s - trace_gen_s;
    let attributed =
        loop_s + decide_s + p.branch_s + trace_gen_s + fork_probe_s + traced.finalize_s;
    let mpc = w == Workload::MpcFig10;
    let decide_us: Vec<f64> = p.decide_self_s.iter().map(|s| s * 1e6).collect();

    let mut report = Report::new(
        PER_LAYER,
        &[
            ("workloads.build_s", setup.build_s),
            ("core.driver.new_s", setup.new_s),
            ("core.driver.bootstrap_s", setup.bootstrap_s),
            ("core.driver.loop_s", loop_s),
            ("core.driver.us_per_task_first", first_us),
            ("core.driver.us_per_task_last", last_us),
            (
                "core.driver.cost_growth",
                if first_us > 0.0 {
                    last_us / first_us
                } else {
                    0.0
                },
            ),
            ("core.driver.slice_p50_s", slice_p50),
            ("core.driver.slice_max_s", quantile(&slice_walls, 1.0)),
            ("core.driver.stall_share", stalled / slices_s),
            ("core.driver.finalize_s", traced.finalize_s),
            ("core.driver.unattributed_s", traced.wall_s - attributed),
            ("core.policy.calls", p.calls() as f64),
            ("core.policy.decide_s", decide_s),
            ("core.policy.decide_p99_us", quantile(&decide_us, 0.99)),
            ("core.whatif.branches", p.branches as f64),
            ("core.whatif.branch_s", p.branch_s),
            ("core.whatif.branch_events", p.branch_events as f64),
            (
                "core.whatif.branch_events_per_s",
                if p.branch_s > 0.0 {
                    p.branch_events as f64 / p.branch_s
                } else {
                    0.0
                },
            ),
            ("core.whatif.fork_us_p50", median(&traced.fork_us)),
            ("core.whatif.fork_us_max", quantile(&traced.fork_us, 1.0)),
            ("core.whatif.fork_probe_s", fork_probe_s),
            ("forecast.decide_self_s", if mpc { decide_s } else { 0.0 }),
            ("trace.arrivals", traced.arrivals as f64),
            ("trace.gen_us_per_arrival", gen_us),
            ("trace.gen_s", trace_gen_s),
            ("workqueue.completed", o.completed as f64),
            ("workqueue.task_retries", f.task_retries as f64),
            ("workqueue.oom_kills", f.oom_kills as f64),
            ("workqueue.wasted_core_s", f.wasted_core_s),
            (
                "workqueue.attempt_efficiency",
                o.completed as f64 / (o.completed + f.task_retries).max(1) as f64,
            ),
            ("workqueue.zombies_fenced", f.zombies_fenced as f64),
            ("cluster.node_faults", f.node_faults as f64),
            ("cluster.image_pull_retries", f.image_pull_retries as f64),
            ("des.channel.msgs_dropped", f.msgs_dropped as f64),
            ("des.channel.partition_s", f.partition_s),
            ("core.recovery.checkpoints", f.checkpoints_taken as f64),
            ("core.recovery.wal_replayed", f.wal_replayed as f64),
            ("core.recovery.requeued", f.recovery_requeued as f64),
            ("metrics.peak_workers", o.peak_workers),
            ("metrics.worker_connects", o.worker_connects),
            ("sim.events", o.events as f64),
            ("traced_wall_s", traced.wall_s),
            (
                "tracing_overhead_s",
                traced.wall_s - median(&untraced.walls),
            ),
        ],
    );
    report.attempted = 1 + untraced.walls.len() as u64;
    report.failed = untraced.failed_runs;
    report.problems = untraced.problems;
    let mut traced_problems = run_problems(w, scale, o, Some(p));
    traced_problems.extend(o.traced_problems(&untraced.outcome));
    if traced.arrivals != arrivals_drained {
        traced_problems.push(format!(
            "traced run submitted {} arrivals, the drained source holds {arrivals_drained}",
            traced.arrivals
        ));
    }
    if !traced_problems.is_empty() {
        report.failed += 1;
        report.problems.extend(traced_problems);
    }
    report.notes = vec![format!(
        "layer times are unscaled host times; calibration kernel {:.3} ms before, {:.3} ms after \
         (reference {:.3} ms)",
        kernel_before * 1e3,
        kernel_after * 1e3,
        calibrate::REFERENCE_S * 1e3
    )];
    report.check_finite();
    report
}
