//! Timed runs: untraced end-to-end runs and the separate traced run that
//! splits wall time over the layers.
//!
//! Every layer is timed from outside, around the public calls into it:
//! the input builders, `SystemDriver::{new, new_traced}`, the t=0
//! bootstrap `advance_until(SimTime::ZERO)`, `advance_until` slices,
//! `fork_branch`, the closing `run()`, and the policy and what-if
//! wrappers of [`crate::probe`].

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use hta_core::driver::RunResult;
use hta_des::{Duration, SimTime};
use hta_metrics::FaultSummary;
use hta_trace::ArrivalSource;

use crate::probe::{PolicyProbe, TimedPolicy};
use crate::workload::{Scale, Workload};

/// Simulated time one traced `advance_until` slice covers.
pub const SLICE: Duration = Duration::from_secs(10);
/// Simulated window over which host cost per completed task is compared
/// (the diurnal period of the trace workloads).
pub const WINDOW_S: f64 = 900.0;
/// A slice taking more than this many times the median slice is a stall.
pub const STALL_FACTOR: f64 = 10.0;

/// Bounds on the number of set-ups [`measure_setup`] times.
const SETUP_MIN_REPS: usize = 25;
const SETUP_MAX_REPS: usize = 100_000;

/// The simulated result of one run: everything here is exact per seed,
/// and a pure speed-up must leave all of it bitwise unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Simulation events dispatched.
    pub events: u64,
    /// True if the run hit the driver's safety cut-off.
    pub timed_out: bool,
    /// Tasks the workload submits in total.
    pub tasks: u64,
    /// Tasks completed.
    pub completed: u64,
    /// Workflow jobs abandoned because a dependency failed.
    pub abandoned: u64,
    /// Makespan, simulated seconds.
    pub makespan_s: f64,
    /// Accumulated waste, core-seconds.
    pub waste_core_s: f64,
    /// Accumulated shortage, core-seconds.
    pub shortage_core_s: f64,
    /// Mean time a task spends in the master, simulated seconds.
    pub mean_response_s: f64,
    /// Most workers connected at once.
    pub peak_workers: f64,
    /// Sum of the upward steps of the connected-worker series.
    pub worker_connects: f64,
    /// Fault and recovery counters.
    pub faults: FaultSummary,
    /// Order-insensitive digest over the completed task ids.
    pub completed_digest: u64,
}

impl Outcome {
    /// Extract the outcome of a finished run of a `tasks`-task workload.
    pub fn of(r: &RunResult, tasks: u64) -> Outcome {
        let rec = &r.recorder;
        let end = r.makespan_s;
        // Little's law over the sampled series: every task in the master
        // is either waiting or running, so the integral of their sum is
        // the total time tasks spent there. Exact even when the master
        // retired the completed records.
        let in_master =
            rec.tasks_waiting.integral_until(end) + rec.tasks_running.integral_until(end);
        let connected = rec.workers_connected.values();
        let worker_connects = connected
            .windows(2)
            .map(|w| (w[1] - w[0]).max(0.0))
            .sum::<f64>()
            + connected.first().copied().unwrap_or(0.0);
        Outcome {
            events: r.events,
            timed_out: r.timed_out,
            tasks,
            completed: r.completed as u64,
            abandoned: r.jobs_abandoned as u64,
            makespan_s: r.makespan_s,
            waste_core_s: r.summary.accumulated_waste_core_s,
            shortage_core_s: r.summary.accumulated_shortage_core_s,
            mean_response_s: in_master / (r.completed.max(1) as f64),
            peak_workers: r.summary.peak_workers,
            worker_connects,
            faults: r.summary.faults,
            completed_digest: r.completed_digest,
        }
    }

    /// Problems with this run on its own: a time-out, or tasks that
    /// neither completed nor failed for good.
    pub fn problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.timed_out {
            out.push("run hit the safety cut-off".to_string());
        }
        let resolved = self.completed + self.faults.permanent_failures + self.abandoned;
        if resolved != self.tasks {
            out.push(format!(
                "completed {} + permanently failed {} + abandoned {} != {} tasks",
                self.completed, self.faults.permanent_failures, self.abandoned, self.tasks
            ));
        }
        out
    }

    /// Problems comparing a traced run (`self`) with an untraced run of
    /// the same seed. Everything must match except the event count,
    /// which may be one higher: `run()` after an `advance_until` that
    /// already returned true dispatches one more event.
    pub fn traced_problems(&self, untraced: &Outcome) -> Vec<String> {
        let mut out = Vec::new();
        if self.events != untraced.events && self.events != untraced.events + 1 {
            out.push(format!(
                "traced run dispatched {} events, untraced {}",
                self.events, untraced.events
            ));
        }
        let same_events = Outcome {
            events: untraced.events,
            ..self.clone()
        };
        if same_events != *untraced {
            out.push(format!(
                "traced outcome differs from untraced:\n  traced   {self:?}\n  untraced {untraced:?}"
            ));
        }
        out
    }
}

/// Set-up times of one construction, seconds.
#[derive(Debug, Clone, Copy)]
struct SetupSample {
    build_s: f64,
    new_s: f64,
    bootstrap_s: f64,
}

/// Median set-up times over repeated constructions.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// Building the inputs (workflow or arrival source, driver config).
    pub build_s: f64,
    /// `SystemDriver::new` / `new_traced`.
    pub new_s: f64,
    /// The t=0 bootstrap, `advance_until(SimTime::ZERO)`.
    pub bootstrap_s: f64,
    /// The whole set-up.
    pub total_s: f64,
}

fn setup_once(w: Workload, seed: u64, scale: Scale) -> SetupSample {
    let t0 = Instant::now();
    let inputs = w.inputs(seed, scale);
    let policy = w.policy();
    let t1 = Instant::now();
    let mut driver = inputs.into_driver(policy);
    let t2 = Instant::now();
    black_box(driver.advance_until(SimTime::ZERO));
    let t3 = Instant::now();
    drop(black_box(driver));
    SetupSample {
        build_s: (t1 - t0).as_secs_f64(),
        new_s: (t2 - t1).as_secs_f64(),
        bootstrap_s: (t3 - t2).as_secs_f64(),
    }
}

/// Time repeated set-ups for about `budget_s` seconds and take the
/// median of each part.
pub fn measure_setup(w: Workload, seed: u64, scale: Scale, budget_s: f64) -> Setup {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < SETUP_MAX_REPS
        && (samples.len() < SETUP_MIN_REPS || start.elapsed().as_secs_f64() < budget_s)
    {
        samples.push(setup_once(w, seed, scale));
    }
    let part = |f: fn(&SetupSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    Setup {
        build_s: part(|s| s.build_s),
        new_s: part(|s| s.new_s),
        bootstrap_s: part(|s| s.bootstrap_s),
        total_s: part(|s| s.build_s + s.new_s + s.bootstrap_s),
    }
}

/// One untraced run: set up (untimed), then time one straight `run()`.
/// Returns the wall time and the run's outcome.
pub fn untraced_run(w: Workload, seed: u64, scale: Scale) -> (f64, Outcome) {
    let inputs = w.inputs(seed, scale);
    let tasks = inputs.tasks;
    let mut driver = inputs.into_driver(w.policy());
    driver.advance_until(SimTime::ZERO);
    let start = Instant::now();
    let result = driver.run();
    let wall = start.elapsed().as_secs_f64();
    (wall, Outcome::of(&result, tasks))
}

/// Repeated untraced runs of one seed.
#[derive(Debug, Clone)]
pub struct Untraced {
    /// Wall time of each run, seconds.
    pub walls: Vec<f64>,
    /// The first run's outcome.
    pub outcome: Outcome,
    /// Problems found: per-run checks, coverage (full scale only), and
    /// any run whose outcome differs from the first.
    pub problems: Vec<String>,
    /// Runs that showed a problem.
    pub failed_runs: u64,
}

/// Untraced runs of `seed` until `seconds` of wall time have been
/// measured (at least `min_runs` runs). Checks every run, and compares
/// each with the first.
pub fn measure_untraced(
    w: Workload,
    seed: u64,
    scale: Scale,
    seconds: f64,
    min_runs: usize,
) -> Untraced {
    let mut walls = Vec::new();
    let mut first: Option<Outcome> = None;
    let mut problems = Vec::new();
    let mut failed_runs = 0;
    while walls.len() < min_runs || walls.iter().sum::<f64>() < seconds {
        let (wall, outcome) = untraced_run(w, seed, scale);
        walls.push(wall);
        let mut run_problems = crate::run_problems(w, scale, &outcome, None);
        match &first {
            None => first = Some(outcome),
            Some(f) if *f != outcome => run_problems.push(format!(
                "same-seed runs differ (seed {seed}):\n  first {f:?}\n  later {outcome:?}"
            )),
            Some(_) => {}
        }
        if !run_problems.is_empty() {
            failed_runs += 1;
            problems.extend(run_problems);
        }
    }
    Untraced {
        walls,
        outcome: first.expect("at least one run"),
        problems,
        failed_runs,
    }
}

/// One traced `advance_until` slice.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Simulated time at the start of the slice, seconds.
    pub start_s: f64,
    /// Host seconds the slice took.
    pub wall_s: f64,
    /// Tasks completed during the slice.
    pub completed: u64,
}

/// The traced run of one workload and seed.
#[derive(Debug)]
pub struct Traced {
    /// Host seconds from the end of set-up until `run()` returned.
    pub wall_s: f64,
    /// Every `advance_until` slice, in order.
    pub slices: Vec<Slice>,
    /// Host microseconds of each timed-and-dropped `fork_branch(1)`.
    pub fork_us: Vec<f64>,
    /// The closing `run()` (finalize and summary), seconds.
    pub finalize_s: f64,
    /// What the policy and what-if wrappers recorded.
    pub probe: PolicyProbe,
    /// The traced run's outcome.
    pub outcome: Outcome,
    /// Trace arrivals submitted (0 for workflow workloads).
    pub arrivals: u64,
}

/// Run the workload traced: set up untimed, then advance in [`SLICE`]
/// steps, timing and dropping a `fork_branch(1)` at every slice
/// boundary, and finish with one `run()` call.
pub fn traced_run(w: Workload, seed: u64, scale: Scale) -> Traced {
    let probe = Rc::new(RefCell::new(PolicyProbe::default()));
    let inputs = w.inputs(seed, scale);
    let tasks = inputs.tasks;
    let deadline = SimTime::ZERO + inputs.cfg.max_sim_time;
    let policy = Box::new(TimedPolicy::new(w.policy(), Rc::clone(&probe)));
    let mut driver = inputs.into_driver(policy);
    driver.advance_until(SimTime::ZERO);
    // Decisions made during set-up belong to set-up.
    *probe.borrow_mut() = PolicyProbe::default();

    let start = Instant::now();
    let mut slices = Vec::new();
    let mut fork_us = Vec::new();
    let mut until = SimTime::ZERO;
    loop {
        let t = Instant::now();
        drop(black_box(driver.fork_branch(1)));
        fork_us.push(t.elapsed().as_secs_f64() * 1e6);

        let start_s = until.as_secs_f64();
        let completed_before = driver.completed_tasks();
        until += SLICE;
        let t = Instant::now();
        let done = driver.advance_until(until);
        slices.push(Slice {
            start_s,
            wall_s: t.elapsed().as_secs_f64(),
            completed: (driver.completed_tasks() - completed_before) as u64,
        });
        if done || until > deadline {
            break;
        }
    }
    let t = Instant::now();
    let result = driver.run();
    let finalize_s = t.elapsed().as_secs_f64();
    let wall_s = start.elapsed().as_secs_f64();

    let outcome = Outcome::of(&result, tasks);
    let arrivals = result.arrivals.as_ref().map_or(0, |a| a.submitted);
    drop(result);
    let probe = Rc::try_unwrap(probe)
        .map(RefCell::into_inner)
        .unwrap_or_else(|rc| std::mem::take(&mut *rc.borrow_mut()));
    Traced {
        wall_s,
        slices,
        fork_us,
        finalize_s,
        probe,
        outcome,
        arrivals,
    }
}

/// Drain an identically seeded arrival source on its own. Returns
/// `(arrivals, host µs per arrival)`, or `(0, 0.0)` for a workflow.
pub fn trace_generation(w: Workload, seed: u64, scale: Scale) -> (u64, f64) {
    let Some(spec) = w.trace_spec(scale) else {
        return (0, 0.0);
    };
    let mut source = ArrivalSource::synth(spec, seed).expect("valid synth spec");
    let start = Instant::now();
    let mut n = 0u64;
    while let Some(arrival) = source.replay_next() {
        black_box(arrival);
        n += 1;
    }
    let us = start.elapsed().as_secs_f64() * 1e6;
    (n, if n == 0 { 0.0 } else { us / n as f64 })
}

/// Host µs per completed task in the first and the last complete
/// [`WINDOW_S`] window that completed any task. A run shorter than one
/// window counts as a single window.
pub fn window_cost(slices: &[Slice]) -> (f64, f64) {
    let Some(last) = slices.last() else {
        return (0.0, 0.0);
    };
    let end_s = last.start_s + SLICE.as_secs_f64();
    let complete = (end_s / WINDOW_S).floor() as usize;
    let n_windows = complete.max(1);
    let mut wall = vec![0.0; n_windows];
    let mut done = vec![0u64; n_windows];
    for s in slices {
        let k = (s.start_s / WINDOW_S) as usize;
        if complete == 0 || k < n_windows {
            let k = k.min(n_windows - 1);
            wall[k] += s.wall_s;
            done[k] += s.completed;
        }
    }
    let cost = |k: usize| wall[k] * 1e6 / done[k] as f64;
    let mut with_tasks = (0..n_windows).filter(|&k| done[k] > 0);
    match (with_tasks.next(), with_tasks.next_back()) {
        (Some(first), Some(last)) => (cost(first), cost(last)),
        (Some(only), None) => (cost(only), cost(only)),
        _ => (0.0, 0.0),
    }
}

/// Median of `xs` (0.0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q` quantile of `xs` by linear interpolation (0.0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}
