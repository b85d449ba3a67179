//! One end-to-end workload instance: repeated set-ups and one untraced
//! run on one seed, between two host-speed calibrations, normally in a
//! process of its own so that its peak resident set (`VmHWM`) is the
//! run's own and no instance inherits another's heap.

use std::path::Path;
use std::process::Command;

use hta_bench::perf::peak_rss_mb;

use crate::calibrate;
use crate::measure::{measure_setup, untraced_run};
use crate::workload::{Scale, Workload};

/// Host time an instance spends on repeated set-ups, seconds.
pub const SETUP_BUDGET_S: f64 = 0.1;

/// What one instance measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Median set-up time, host seconds.
    pub setup_s: f64,
    /// Wall time of the untraced `run()`, host seconds.
    pub wall_s: f64,
    /// Calibration kernel time around the measurement, seconds: the mean
    /// of one calibration before the set-ups and one after the run.
    pub kernel_s: f64,
    /// Peak resident set of the instance's process, MB.
    pub peak_rss_mb: f64,
    /// Simulation events dispatched.
    pub events: u64,
    /// Tasks the workload submits.
    pub tasks: u64,
    /// Tasks completed.
    pub completed: u64,
    /// Makespan, simulated seconds.
    pub makespan_s: f64,
    /// Accumulated waste, core-seconds.
    pub waste_core_s: f64,
    /// Accumulated shortage, core-seconds.
    pub shortage_core_s: f64,
    /// Mean time a task spends in the master, simulated seconds.
    pub mean_response_s: f64,
    /// Failed checks (correctness, and coverage at full scale).
    pub problems: Vec<String>,
}

impl Instance {
    /// Run the instance in this process.
    pub fn run(w: Workload, seed: u64, scale: Scale) -> Instance {
        let before = calibrate::kernel_s();
        let setup = measure_setup(w, seed, scale, SETUP_BUDGET_S);
        let (wall_s, o) = untraced_run(w, seed, scale);
        let after = calibrate::kernel_s();
        let problems = crate::run_problems(w, scale, &o, None);
        Instance {
            setup_s: setup.total_s,
            wall_s,
            kernel_s: (before + after) / 2.0,
            peak_rss_mb: peak_rss_mb(),
            events: o.events,
            tasks: o.tasks,
            completed: o.completed,
            makespan_s: o.makespan_s,
            waste_core_s: o.waste_core_s,
            shortage_core_s: o.shortage_core_s,
            mean_response_s: o.mean_response_s,
            problems,
        }
    }

    /// A host time of this instance scaled to the reference host speed:
    /// `host_s × calibrate::REFERENCE_S / kernel_s`.
    pub fn scaled(&self, host_s: f64) -> f64 {
        host_s * calibrate::REFERENCE_S / self.kernel_s
    }

    /// Run the instance (at full scale) in a child process: `exe` is this
    /// benchmark's own executable, started with `--instance 1`.
    pub fn spawn(exe: &Path, w: Workload, seed: u64) -> Result<Instance, String> {
        let out = Command::new(exe)
            .args(["--workload", w.name(), "--seed", &seed.to_string()])
            .args(["--instance", "1"])
            .output()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        if !out.status.success() {
            return Err(format!(
                "instance seed {seed} exited with {}: {}",
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        Instance::parse(&String::from_utf8_lossy(&out.stdout))
    }

    /// The instance as text: one `instance key=value ...` line, then one
    /// `problem ...` line per failed check.
    pub fn to_text(&self) -> String {
        let mut text = format!(
            "instance setup_s={} wall_s={} kernel_s={} peak_rss_mb={} events={} tasks={} \
             completed={} makespan_s={} waste_core_s={} shortage_core_s={} mean_response_s={}\n",
            self.setup_s,
            self.wall_s,
            self.kernel_s,
            self.peak_rss_mb,
            self.events,
            self.tasks,
            self.completed,
            self.makespan_s,
            self.waste_core_s,
            self.shortage_core_s,
            self.mean_response_s
        );
        for p in &self.problems {
            text.push_str(&format!("problem {}\n", p.replace('\n', " ")));
        }
        text
    }

    /// Parse [`Instance::to_text`] output.
    pub fn parse(text: &str) -> Result<Instance, String> {
        let line = text
            .lines()
            .find_map(|l| l.strip_prefix("instance "))
            .ok_or_else(|| format!("no instance line in {text:?}"))?;
        let field = |key: &str| -> Result<&str, String> {
            line.split(' ')
                .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
                .ok_or_else(|| format!("instance line lacks {key}: {line}"))
        };
        let float = |key: &str| -> Result<f64, String> {
            field(key)?
                .parse()
                .map_err(|_| format!("bad {key} in {line}"))
        };
        let count = |key: &str| -> Result<u64, String> {
            field(key)?
                .parse()
                .map_err(|_| format!("bad {key} in {line}"))
        };
        Ok(Instance {
            setup_s: float("setup_s")?,
            wall_s: float("wall_s")?,
            kernel_s: float("kernel_s")?,
            peak_rss_mb: float("peak_rss_mb")?,
            events: count("events")?,
            tasks: count("tasks")?,
            completed: count("completed")?,
            makespan_s: float("makespan_s")?,
            waste_core_s: float("waste_core_s")?,
            shortage_core_s: float("shortage_core_s")?,
            mean_response_s: float("mean_response_s")?,
            problems: text
                .lines()
                .filter_map(|l| l.strip_prefix("problem "))
                .map(str::to_string)
                .collect(),
        })
    }
}
