//! Reproducible hot-path benchmark: events/sec and wall time per workload.
//!
//! The `perf` binary runs a fixed set of paper workloads (Fig. 4/10/11)
//! with a fixed seed, times each run, and writes `BENCH_<label>.json`.
//! Committed reports form the perf trajectory of the repository: CI runs
//! `perf --quick --check-against benchmarks/BENCH_baseline.json` and
//! fails when throughput regresses by more than the tolerance.
//!
//! Simulated work is deterministic per seed, so `events` and
//! `makespan_s` double as a behavior fingerprint: an optimization that
//! changes either did more than make the code faster.

use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::experiments::{
    fig10, fig10_crash_recovery, fig10_net_partition, fig11, fig4, synth_trace, Fig4Config,
    PolicyKind, Scenario,
};
use hta_core::whatif::{BranchSpec, WhatIf};
use hta_core::{HoldPolicy, ScaleAction};
use hta_des::sanitize::{DigestConfig, Divergence};
use hta_des::{Duration, SimTime};

/// Seed shared by every perf workload (arbitrary, fixed forever).
pub const PERF_SEED: u64 = 42;

/// Default directory for committed perf reports, relative to the repo
/// root.
pub const BENCH_DIR: &str = "benchmarks";

/// One benchmarked workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfEntry {
    /// Stable workload name (`fig10-blast200-hta`, …).
    pub name: String,
    /// Simulation events processed in one run (deterministic per seed).
    pub events: u64,
    /// Workload makespan in simulated seconds (deterministic per seed).
    pub makespan_s: f64,
    /// Best (minimum) wall time over the repetitions, seconds.
    pub best_wall_s: f64,
    /// Events per wall-clock second, from the best repetition.
    pub events_per_sec: f64,
    /// Peak resident-set size over this workload's repetitions, MB
    /// (Linux `VmHWM`, reset per workload; 0.0 where procfs is
    /// unavailable or in reports recorded before this field existed).
    /// The streaming-trace workloads gate on this: `blast-1M` streams
    /// 10⁶ tasks, so its peak must track the in-flight set, not the
    /// trace length.
    #[serde(default)]
    pub peak_rss_mb: f64,
}

/// A full perf run: every workload, one machine, one build.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfReport {
    /// Report label (`baseline`, `after`, `ci`, …).
    pub label: String,
    /// Wall-time repetitions per workload (best-of is reported).
    pub reps: usize,
    /// Per-workload measurements.
    pub entries: Vec<PerfEntry>,
}

/// Builds one workload's scenario from the seed.
type ScenarioFn = fn(u64) -> Scenario;

/// Run `f` and measure it in host wall seconds.
#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "measuring host wall time is this harness's purpose; the simulation itself never \
              reads the host clock. Keep as long as this file only times runs"
)]
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = std::time::Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Reset the kernel's peak-RSS counter (`VmHWM`) so the next
/// [`peak_rss_mb`] reading is a per-workload peak rather than a
/// process-lifetime high-water mark. Best-effort: a no-op where
/// `/proc/self/clear_refs` is unavailable (non-Linux, locked-down
/// procfs) — readings then degrade to the monotone process-wide peak.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident-set size in MB from `/proc/self/status` (`VmHWM`),
/// or 0.0 where procfs is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0.0);
            return kb / 1024.0;
        }
    }
    0.0
}

/// The benchmarked workloads, in reporting order.
///
/// `quick` keeps only the headline Fig. 10 BLAST-200 runs (the CI
/// regression gate); the full set adds Fig. 4 and Fig. 11.
pub fn workloads(quick: bool) -> Vec<(&'static str, ScenarioFn)> {
    let mut v: Vec<(&'static str, ScenarioFn)> = vec![
        ("fig10-blast200-hta", |s| fig10(PolicyKind::Hta, s)),
        ("fig10-blast200-hpa50", |s| fig10(PolicyKind::Hpa(0.5), s)),
        // The crash-recovery gate: same Fig. 10 HTA run with a seeded
        // control-plane crash (checkpoints every 300 s, WAL replay on
        // restart). Tracked so checkpoint overhead stays bounded.
        ("master-crash-recover300s", |s| {
            fig10_crash_recovery(PolicyKind::Hta, s)
        }),
        // The lossy-control-plane gate: same Fig. 10 HTA run with every
        // control message routed through a degraded channel (delay +
        // loss + leases) and a 300 s partition. Tracked so the message
        // layer stays off the hot path.
        ("net-partition300s", |s| {
            fig10_net_partition(PolicyKind::Hta, s)
        }),
        // The streaming-admission gate: 50 k open-loop arrivals (MMPP
        // bursts + diurnal cycle) streamed from `crates/trace` under
        // HTA; finished tasks leave the master and a traced run keeps
        // no spans of them. Tracked so streaming admission stays off
        // the hot path and peak RSS stays bounded by the in-flight set.
        ("trace-50k", |s| {
            synth_trace("trace-50k", s).expect("known synth preset")
        }),
    ];
    if !quick {
        v.push(("fig11-iobound-hta", |s| fig11(PolicyKind::Hta, s)));
        v.push(("fig4-blast100-fine", |s| fig4(Fig4Config::FineGrained, s)));
        // The headline bounded-memory workload: one million open-loop
        // arrivals end-to-end. Full-set only (it dominates wall time);
        // `compare` skips it when a quick run checks against the
        // committed baseline.
        v.push(("blast-1M", |s| {
            synth_trace("blast-1m", s).expect("known synth preset")
        }));
    }
    v
}

/// Branches forked per repetition of the snapshot microbenchmark.
const SNAPSHOT_BRANCHES: u64 = 16;

/// Snapshot/fork microbenchmark: fork `SNAPSHOT_BRANCHES` what-if
/// branches off a mid-flight Fig. 10 driver and roll each 300 simulated
/// seconds forward — the per-decision cost an MPC policy pays.
///
/// Reported in the same [`PerfEntry`] shape as the run workloads:
/// `events` is the total branch events (deterministic, so it doubles as
/// the fingerprint), `events_per_sec` the branch-simulation throughput
/// including the clone cost of every fork.
pub fn snapshot_microbench(reps: usize) -> PerfEntry {
    // Build one parent and advance it mid-flight; forking never perturbs
    // it, so every repetition forks the identical decision point.
    let mut parent = fig10(PolicyKind::Hta, PERF_SEED).driver(Box::new(HoldPolicy));
    parent.advance_until(SimTime::ZERO + Duration::from_secs(600));

    let mut best = f64::INFINITY;
    let mut events = 0u64;
    let mut elapsed = 0f64;
    reset_peak_rss();
    for _ in 0..reps.max(1) {
        let ((ev, el), wall) = timed(|| {
            let (mut ev, mut el) = (0u64, 0f64);
            for salt in 1..=SNAPSHOT_BRANCHES {
                let action = match salt % 3 {
                    0 => ScaleAction::None,
                    1 => ScaleAction::CreateWorkers(2),
                    _ => ScaleAction::DrainWorkers(1),
                };
                let o = parent.branch(&BranchSpec {
                    salt,
                    initial_action: action,
                    horizon: Duration::from_secs(300),
                    max_events: 100_000,
                });
                ev += o.events;
                el += o.elapsed_s;
            }
            (ev, el)
        });
        best = best.min(wall);
        events = ev;
        elapsed = el;
    }
    PerfEntry {
        name: "snapshot-fork16-branch300s".to_string(),
        events,
        // Total simulated branch seconds — deterministic fingerprint.
        makespan_s: elapsed,
        best_wall_s: best,
        events_per_sec: events as f64 / best,
        peak_rss_mb: peak_rss_mb(),
    }
}

/// Run every workload `reps` times and report the best wall time.
pub fn run_perf(label: &str, quick: bool, reps: usize) -> PerfReport {
    let mut entries = Vec::new();
    for (name, f) in workloads(quick) {
        let mut best = f64::INFINITY;
        let mut events = 0u64;
        let mut makespan = 0f64;
        reset_peak_rss();
        for _ in 0..reps {
            let (r, wall) = timed(|| f(PERF_SEED).run(None));
            best = best.min(wall);
            events = r.events;
            makespan = r.makespan_s;
        }
        entries.push(PerfEntry {
            name: name.to_string(),
            events,
            makespan_s: makespan,
            best_wall_s: best,
            events_per_sec: events as f64 / best,
            peak_rss_mb: peak_rss_mb(),
        });
    }
    entries.push(snapshot_microbench(reps));
    PerfReport {
        label: label.to_string(),
        reps,
        entries,
    }
}

/// Outcome of one paranoid double-run.
#[derive(Debug)]
pub enum ParanoidOutcome {
    /// Both runs produced bitwise-identical event streams.
    Deterministic {
        /// Events per run.
        events: u64,
    },
    /// The runs diverged; the report pinpoints where.
    Diverged {
        /// Human-readable description of the first divergence.
        detail: String,
    },
}

/// Run one workload twice with the same seed and diff the event streams.
///
/// Same-seed runs must be bitwise identical; if they are not, a third
/// run with a capture window around the first differing checkpoint
/// pinpoints the exact first divergent event.
pub fn paranoid_check(name: &str, f: ScenarioFn) -> ParanoidOutcome {
    let cfg = DigestConfig::default();
    let a = f(PERF_SEED)
        .run(Some(cfg))
        .digest
        .expect("digest requested");
    let b = f(PERF_SEED)
        .run(Some(cfg))
        .digest
        .expect("digest requested");
    let Some(div) = a.first_divergence(&b) else {
        return ParanoidOutcome::Deterministic { events: a.events };
    };
    let detail = match div {
        Divergence::CountMismatch { ours, theirs } => {
            format!("{name}: event counts differ between same-seed runs: {ours} vs {theirs}")
        }
        Divergence::Window { after, by } => {
            // Replay both runs capturing the suspect window to name the
            // exact first divergent event.
            let capture = DigestConfig {
                capture: Some((after, by)),
                ..cfg
            };
            let ca = f(PERF_SEED).run(Some(capture)).digest.expect("digest");
            let cb = f(PERF_SEED).run(Some(capture)).digest.expect("digest");
            match ca.first_divergent_capture(&cb) {
                Some((ea, eb)) => format!(
                    "{name}: first divergent event is #{} — run A at t={}ms: {} | run B at t={}ms: {}",
                    ea.index, ea.at_ms, ea.desc, eb.at_ms, eb.desc
                ),
                None => format!(
                    "{name}: digests diverge in events ({after}, {by}] but the capture replay \
                     matched — divergence is unstable across runs (wall-clock or address leak?)"
                ),
            }
        }
    };
    ParanoidOutcome::Diverged { detail }
}

/// Write a report to `<dir>/BENCH_<label>.json` and return the path.
pub fn save_report(dir: &Path, report: &PerfReport) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("BENCH_{}.json", report.label));
    let json = serde_json::to_string_pretty(report)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(&path, json)?;
    Ok(path)
}

/// Load a previously saved report.
pub fn load_report(path: &Path) -> std::io::Result<PerfReport> {
    let text = std::fs::read_to_string(path)?;
    serde_json::from_str(&text)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

/// Headroom allowed over a baseline's peak RSS before [`compare`]
/// flags a memory regression. Deliberately loose: RSS varies with
/// allocator and machine, but a streaming workload whose peak grows
/// past 1.5× baseline has started materializing what it should stream.
pub const MEM_TOLERANCE: f64 = 0.5;

/// Compare a fresh report against a committed baseline.
///
/// Returns regression messages (events/sec dropped below
/// `1 - tolerance` of the baseline, or peak RSS grew past
/// `1 + MEM_TOLERANCE` of it, on a workload present in both) and
/// warnings (simulated-work fingerprint changed — not a perf regression,
/// but the baseline no longer measures the same work and should be
/// re-recorded).
pub fn compare(
    current: &PerfReport,
    baseline: &PerfReport,
    tolerance: f64,
) -> (Vec<String>, Vec<String>) {
    let mut regressions = Vec::new();
    let mut warnings = Vec::new();
    for base in &baseline.entries {
        let Some(cur) = current.entries.iter().find(|e| e.name == base.name) else {
            continue;
        };
        if cur.events != base.events || cur.makespan_s != base.makespan_s {
            warnings.push(format!(
                "{}: simulated work changed (events {} -> {}, makespan {:.1}s -> {:.1}s); \
                 re-record the baseline",
                base.name, base.events, cur.events, base.makespan_s, cur.makespan_s
            ));
        }
        let floor = base.events_per_sec * (1.0 - tolerance);
        if cur.events_per_sec < floor {
            regressions.push(format!(
                "{}: {:.0} events/sec < {:.0} ({}% below baseline {:.0})",
                base.name,
                cur.events_per_sec,
                floor,
                ((1.0 - cur.events_per_sec / base.events_per_sec) * 100.0).round(),
                base.events_per_sec,
            ));
        }
        // Memory gate: only meaningful when both sides have a reading
        // (older reports and non-procfs platforms record 0.0).
        let mem_ceiling = base.peak_rss_mb * (1.0 + MEM_TOLERANCE);
        if base.peak_rss_mb > 0.0 && cur.peak_rss_mb > mem_ceiling {
            regressions.push(format!(
                "{}: peak RSS {:.0} MB > {:.0} MB ({}% above baseline {:.0} MB)",
                base.name,
                cur.peak_rss_mb,
                mem_ceiling,
                ((cur.peak_rss_mb / base.peak_rss_mb - 1.0) * 100.0).round(),
                base.peak_rss_mb,
            ));
        }
    }
    (regressions, warnings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, events: u64, eps: f64) -> PerfEntry {
        PerfEntry {
            name: name.into(),
            events,
            makespan_s: 100.0,
            best_wall_s: events as f64 / eps,
            events_per_sec: eps,
            peak_rss_mb: 0.0,
        }
    }

    fn report(label: &str, entries: Vec<PerfEntry>) -> PerfReport {
        PerfReport {
            label: label.into(),
            reps: 1,
            entries,
        }
    }

    #[test]
    fn compare_flags_regressions_and_fingerprint_drift() {
        let base = report(
            "baseline",
            vec![entry("a", 100, 1000.0), entry("b", 50, 500.0)],
        );
        // `a` regresses 30%; `b` got faster but its event count changed.
        let cur = report("ci", vec![entry("a", 100, 700.0), entry("b", 60, 900.0)]);
        let (reg, warn) = compare(&cur, &base, 0.2);
        assert_eq!(reg.len(), 1, "only `a` regresses: {reg:?}");
        assert!(reg[0].starts_with("a:"));
        assert_eq!(warn.len(), 1, "only `b` drifted: {warn:?}");
        assert!(warn[0].starts_with("b:"));
    }

    #[test]
    fn compare_passes_within_tolerance() {
        let base = report("baseline", vec![entry("a", 100, 1000.0)]);
        let cur = report("ci", vec![entry("a", 100, 850.0)]);
        let (reg, warn) = compare(&cur, &base, 0.2);
        assert!(reg.is_empty() && warn.is_empty());
    }

    #[test]
    fn compare_flags_memory_regressions() {
        let mut b = entry("a", 100, 1000.0);
        b.peak_rss_mb = 100.0;
        let mut c = entry("a", 100, 1000.0);
        c.peak_rss_mb = 200.0;
        let (reg, warn) = compare(&report("ci", vec![c]), &report("baseline", vec![b]), 0.2);
        assert_eq!(reg.len(), 1, "{reg:?}");
        assert!(reg[0].contains("peak RSS"), "{reg:?}");
        assert!(warn.is_empty());
    }

    #[test]
    fn pre_rss_reports_deserialize_with_zero_peak() {
        // Reports committed before `peak_rss_mb` existed must still load.
        let json = r#"{"label":"old","reps":1,"entries":[{"name":"a",
            "events":10,"makespan_s":1.0,"best_wall_s":0.5,
            "events_per_sec":20.0}]}"#;
        let back: PerfReport = serde_json::from_str(json).expect("old report loads");
        assert_eq!(back.entries[0].peak_rss_mb, 0.0);
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = report("x", vec![entry("a", 1, 2.0)]);
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back: PerfReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.label, "x");
        assert_eq!(back.entries.len(), 1);
        assert_eq!(back.entries[0].events, 1);
    }
}
