//! Experiment run recording.
//!
//! [`RunRecorder`] records the fixed set of signals the paper's evaluation
//! uses, sampled by the system driver at every metrics tick and at every
//! scaling event:
//!
//! * **RS** — resource supply: cores of ready worker pods (§IV-B),
//! * **RIU** — resources in use by running jobs,
//! * **RSH** — resource shortage: cores desired by waiting jobs,
//! * **RW** — resource waste: `max(RS − RIU, 0)`,
//! * node count, connected / idle worker counts, queue lengths,
//! * master egress bandwidth in use (Fig. 4's bandwidth column).
//!
//! [`RunSummary`] then extracts the paper's table rows: workflow runtime,
//! accumulated waste and accumulated shortage (core·s), average CPU
//! utilization and average bandwidth.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::series::TimeSeries;

/// One synchronized sample of every recorded signal.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Sample {
    /// Simulated time in seconds.
    pub time_s: f64,
    /// Resource supply (cores of ready workers).
    pub supply_cores: f64,
    /// Resources in use by running tasks (cores).
    pub in_use_cores: f64,
    /// Resource shortage: cores desired by waiting tasks.
    pub shortage_cores: f64,
    /// Number of ready cluster nodes.
    pub nodes: f64,
    /// Worker pods connected to the master.
    pub workers_connected: f64,
    /// Connected workers with no running task.
    pub workers_idle: f64,
    /// Autoscaler's currently desired worker-pod count.
    pub workers_desired: f64,
    /// Tasks waiting in the queue.
    pub tasks_waiting: f64,
    /// Tasks currently running.
    pub tasks_running: f64,
    /// Master egress bandwidth currently in use (MB/s).
    pub egress_mbps: f64,
    /// Mean CPU utilization across ready workers, in `[0, 1]`.
    pub cpu_utilization: f64,
}

/// Recorder holding one series per signal.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRecorder {
    /// Resource supply (cores).
    pub supply: TimeSeries,
    /// Resources in use (cores).
    pub in_use: TimeSeries,
    /// Resource shortage (cores).
    pub shortage: TimeSeries,
    /// Resource waste (cores) — derived as `max(supply − in_use, 0)`.
    pub waste: TimeSeries,
    /// Resource demand (cores) — derived as `in_use + shortage`.
    pub demand: TimeSeries,
    /// Ready node count.
    pub nodes: TimeSeries,
    /// Connected worker pods.
    pub workers_connected: TimeSeries,
    /// Idle worker pods.
    pub workers_idle: TimeSeries,
    /// Desired worker pods (autoscaler output).
    pub workers_desired: TimeSeries,
    /// Waiting task count.
    pub tasks_waiting: TimeSeries,
    /// Running task count.
    pub tasks_running: TimeSeries,
    /// Master egress bandwidth in use (MB/s).
    pub egress_mbps: TimeSeries,
    /// Mean worker CPU utilization `[0, 1]`.
    pub cpu_utilization: TimeSeries,
    /// Free-form named series (e.g. per-category running-task counts for
    /// the Fig. 10a stage timeline).
    pub extra: BTreeMap<String, TimeSeries>,
    finished_at_s: Option<f64>,
}

impl Default for RunRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl RunRecorder {
    /// A fresh recorder.
    pub fn new() -> Self {
        RunRecorder {
            supply: TimeSeries::new("supply_cores"),
            in_use: TimeSeries::new("in_use_cores"),
            shortage: TimeSeries::new("shortage_cores"),
            waste: TimeSeries::new("waste_cores"),
            demand: TimeSeries::new("demand_cores"),
            nodes: TimeSeries::new("nodes"),
            workers_connected: TimeSeries::new("workers_connected"),
            workers_idle: TimeSeries::new("workers_idle"),
            workers_desired: TimeSeries::new("workers_desired"),
            tasks_waiting: TimeSeries::new("tasks_waiting"),
            tasks_running: TimeSeries::new("tasks_running"),
            egress_mbps: TimeSeries::new("egress_mbps"),
            cpu_utilization: TimeSeries::new("cpu_utilization"),
            extra: BTreeMap::new(),
            finished_at_s: None,
        }
    }

    /// Record a sample of a named extra series (created on first use).
    /// Looks the series up by `&str` first so the steady-state path (the
    /// series already exists) allocates nothing.
    pub fn record_extra(&mut self, name: &str, time_s: f64, value: f64) {
        if let Some(series) = self.extra.get_mut(name) {
            series.push(time_s, value);
            return;
        }
        let mut series = TimeSeries::new(name);
        series.push(time_s, value);
        self.extra.insert(name.to_string(), series);
    }

    /// Record one synchronized sample across all series.
    pub fn record(&mut self, s: Sample) {
        self.supply.push(s.time_s, s.supply_cores);
        self.in_use.push(s.time_s, s.in_use_cores);
        self.shortage.push(s.time_s, s.shortage_cores);
        self.waste
            .push(s.time_s, (s.supply_cores - s.in_use_cores).max(0.0));
        self.demand
            .push(s.time_s, s.in_use_cores + s.shortage_cores);
        self.nodes.push(s.time_s, s.nodes);
        self.workers_connected.push(s.time_s, s.workers_connected);
        self.workers_idle.push(s.time_s, s.workers_idle);
        self.workers_desired.push(s.time_s, s.workers_desired);
        self.tasks_waiting.push(s.time_s, s.tasks_waiting);
        self.tasks_running.push(s.time_s, s.tasks_running);
        self.egress_mbps.push(s.time_s, s.egress_mbps);
        self.cpu_utilization.push(s.time_s, s.cpu_utilization);
    }

    /// Mark the workload as finished at `time_s`; integrals stop here.
    pub fn finish(&mut self, time_s: f64) {
        self.finished_at_s = Some(time_s);
    }

    /// When the workload finished (or the last sample when not marked).
    pub fn end_time_s(&self) -> f64 {
        self.finished_at_s
            .or_else(|| self.supply.last_time())
            .unwrap_or(0.0)
    }

    /// Extract the paper-style summary.
    pub fn summary(&self, label: impl Into<String>) -> RunSummary {
        let end = self.end_time_s();
        RunSummary {
            label: label.into(),
            runtime_s: end,
            accumulated_waste_core_s: self.waste.integral_until(end),
            accumulated_shortage_core_s: self.shortage.integral_until(end),
            avg_cpu_utilization: self.cpu_utilization.time_weighted_mean(end),
            avg_egress_mbps: self.egress_mbps.time_weighted_mean(end),
            peak_nodes: self.nodes.max_value(),
            peak_workers: self.workers_connected.max_value(),
            faults: FaultSummary::default(),
        }
    }

    /// Export every series as one CSV table (step-evaluated on the union of
    /// sample times would be large; instead each row is one recorded sample
    /// of one series: `series,time_s,value`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("series,time_s,value\n");
        for series in self.all_series().into_iter().chain(self.extra.values()) {
            for (t, v) in series.iter() {
                out.push_str(&format!("{},{t},{v}\n", series.name));
            }
        }
        out
    }

    /// Serialize the full recorder (all series) as pretty JSON.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// All series in a fixed order.
    pub fn all_series(&self) -> [&TimeSeries; 13] {
        [
            &self.supply,
            &self.in_use,
            &self.shortage,
            &self.waste,
            &self.demand,
            &self.nodes,
            &self.workers_connected,
            &self.workers_idle,
            &self.workers_desired,
            &self.tasks_waiting,
            &self.tasks_running,
            &self.egress_mbps,
            &self.cpu_utilization,
        ]
    }
}

/// The paper's per-run table row (Figs. 10c / 11c plus Fig. 2/4 scalars).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct RunSummary {
    /// Configuration label, e.g. `"HPA(20% CPU)"` or `"HTA"`.
    pub label: String,
    /// Workflow runtime in seconds.
    pub runtime_s: f64,
    /// `∫ max(RS − RIU, 0) dt` in core-seconds.
    pub accumulated_waste_core_s: f64,
    /// `∫ RSH dt` in core-seconds.
    pub accumulated_shortage_core_s: f64,
    /// Time-weighted mean CPU utilization `[0, 1]`.
    pub avg_cpu_utilization: f64,
    /// Time-weighted mean egress bandwidth (MB/s).
    pub avg_egress_mbps: f64,
    /// Maximum node count reached.
    pub peak_nodes: f64,
    /// Maximum connected worker count reached.
    pub peak_workers: f64,
    /// Fault-injection counters for the run (all zero on fault-free
    /// runs). Filled in by the driver from the substrate fault stats
    /// after the series summary is built.
    #[serde(default)]
    pub faults: FaultSummary,
}

/// Per-run fault/recovery counters (the resilience columns of the chaos
/// table). The recorder itself doesn't observe faults — the driver copies
/// these out of the cluster and Work Queue fault stats at the end of a
/// run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSummary {
    /// Execution attempts that were retried (transient + OOM).
    pub task_retries: u64,
    /// Attempts killed by injected transient failures.
    pub transient_failures: u64,
    /// Attempts killed by the injected OOM killer.
    pub oom_kills: u64,
    /// Tasks that exhausted their retry budget (permanently failed).
    pub permanent_failures: u64,
    /// Workflow jobs abandoned because a dependency failed.
    pub jobs_abandoned: u64,
    /// Speculative duplicates launched for stragglers.
    pub speculative_launched: u64,
    /// Races won by the speculative duplicate.
    pub speculative_wins: u64,
    /// Core-seconds burned by failed attempts and lost races.
    pub wasted_core_s: f64,
    /// Image-pull attempts that failed and backed off.
    pub image_pull_retries: u64,
    /// Pods that exhausted their image-pull attempt budget.
    pub image_pull_gaveups: u64,
    /// Node crashes injected (targeted + flaky-node MTTF).
    pub node_faults: u64,
    /// Mean time from an injected node crash until the worker pool is
    /// back at its pre-crash size, seconds (0 when never observed).
    pub mean_recovery_s: f64,
    /// Control-plane crashes survived (checkpoint-restore + WAL replay).
    #[serde(default)]
    pub master_crashes: u64,
    /// In-flight tasks re-queued by crash-recovery reconciliation.
    #[serde(default)]
    pub recovery_requeued: u64,
    /// Total control-plane outage, seconds.
    #[serde(default)]
    pub outage_s: f64,
    /// Control-plane checkpoints taken.
    #[serde(default)]
    pub checkpoints_taken: u64,
    /// WAL records replayed across all recoveries.
    #[serde(default)]
    pub wal_replayed: u64,
    /// Control messages the lossy channel dropped (loss + partitions).
    #[serde(default)]
    pub msgs_dropped: u64,
    /// Control messages duplicated in flight.
    #[serde(default)]
    pub msgs_duplicated: u64,
    /// Control messages delivered out of order.
    #[serde(default)]
    pub msgs_reordered: u64,
    /// Worker leases expired (workers presumed dead and their tasks
    /// re-queued).
    #[serde(default)]
    pub leases_expired: u64,
    /// Stale "zombie" completion reports fenced by the run-generation
    /// check.
    #[serde(default)]
    pub zombies_fenced: u64,
    /// Total scheduled partition time overlapping the run, seconds.
    #[serde(default)]
    pub partition_s: f64,
}

impl FaultSummary {
    /// True when the run saw no injected fault at all.
    pub fn is_clean(&self) -> bool {
        *self == FaultSummary::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: f64, supply: f64, in_use: f64, shortage: f64) -> Sample {
        Sample {
            time_s: t,
            supply_cores: supply,
            in_use_cores: in_use,
            shortage_cores: shortage,
            ..Sample::default()
        }
    }

    #[test]
    fn waste_and_demand_are_derived() {
        let mut r = RunRecorder::new();
        r.record(sample(0.0, 10.0, 4.0, 2.0));
        assert_eq!(r.waste.last_value(), Some(6.0));
        assert_eq!(r.demand.last_value(), Some(6.0));
        // In-use above supply (transient bookkeeping) clamps waste at 0.
        r.record(sample(1.0, 3.0, 4.0, 0.0));
        assert_eq!(r.waste.last_value(), Some(0.0));
    }

    #[test]
    fn summary_integrates_to_finish_time() {
        let mut r = RunRecorder::new();
        r.record(sample(0.0, 10.0, 10.0, 5.0));
        r.record(sample(100.0, 10.0, 0.0, 0.0));
        r.finish(150.0);
        let s = r.summary("HTA");
        assert_eq!(s.runtime_s, 150.0);
        // Shortage: 5 cores for 100 s.
        assert!((s.accumulated_shortage_core_s - 500.0).abs() < 1e-9);
        // Waste: 0 for first 100 s, then 10 cores for 50 s.
        assert!((s.accumulated_waste_core_s - 500.0).abs() < 1e-9);
    }

    #[test]
    fn csv_contains_all_series() {
        let mut r = RunRecorder::new();
        r.record(sample(0.0, 1.0, 1.0, 1.0));
        let csv = r.to_csv();
        for name in [
            "supply_cores",
            "in_use_cores",
            "shortage_cores",
            "waste_cores",
            "demand_cores",
            "cpu_utilization",
        ] {
            assert!(csv.contains(name), "missing {name} in CSV");
        }
        assert!(csv.starts_with("series,time_s,value\n"));
    }

    #[test]
    fn extra_series_record_and_export() {
        let mut r = RunRecorder::new();
        r.record_extra("running:align", 0.0, 3.0);
        r.record_extra("running:align", 5.0, 7.0);
        r.record_extra("running:reduce", 0.0, 1.0);
        assert_eq!(r.extra.len(), 2);
        assert_eq!(r.extra["running:align"].last_value(), Some(7.0));
        let csv = r.to_csv();
        assert!(csv.contains("running:align"));
        assert!(csv.contains("running:reduce"));
    }

    #[test]
    fn json_roundtrip() {
        let mut r = RunRecorder::new();
        r.record(sample(0.0, 9.0, 3.0, 1.0));
        r.record_extra("running:align", 0.0, 3.0);
        let json = r.to_json().unwrap();
        let back: RunRecorder = serde_json::from_str(&json).unwrap();
        assert_eq!(back.supply.last_value(), Some(9.0));
        assert_eq!(back.extra["running:align"].last_value(), Some(3.0));
    }

    #[test]
    fn end_time_falls_back_to_last_sample() {
        let mut r = RunRecorder::new();
        assert_eq!(r.end_time_s(), 0.0);
        r.record(sample(42.0, 0.0, 0.0, 0.0));
        assert_eq!(r.end_time_s(), 42.0);
        r.finish(50.0);
        assert_eq!(r.end_time_s(), 50.0);
    }
}
