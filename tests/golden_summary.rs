//! Golden-file determinism: a fixed-seed run's `RunSummary` must stay
//! bit-for-bit identical to the committed JSON under `tests/golden/`,
//! across policies and with/without an active fault plan.
//!
//! These files were recorded before the hot-path overhaul (category
//! interning, effect sinks, incremental snapshots); any optimization
//! that changes them changed behavior, not just speed.
//!
//! To re-record after an *intentional* behavior change:
//! `GOLDEN_BLESS=1 cargo test --test golden_summary`.

use std::path::PathBuf;

use hta::cluster::{ClusterConfig, MachineType};
use hta::core::driver::{DriverConfig, RunResult, SystemDriver};
use hta::core::policy::{FixedPolicy, HpaPolicy, HtaConfig, HtaPolicy, ScalingPolicy};
use hta::core::{FaultPlan, OperatorConfig};
use hta::forecast::{MpcConfig, MpcPolicy};
use hta::prelude::*;
use hta::workloads::{blast_multistage, MultistageParams};

const SEED: u64 = 7;

fn cfg(hta: bool, faults: FaultPlan) -> DriverConfig {
    DriverConfig {
        cluster: ClusterConfig {
            machine: MachineType::n1_standard_4(),
            min_nodes: 2,
            max_nodes: 8,
            seed: SEED,
            ..ClusterConfig::default()
        },
        operator: OperatorConfig {
            warmup: hta,
            trust_declared: !hta,
            learn: true,
            seed: SEED,
        },
        initial_workers: 2,
        max_workers: 8,
        faults,
        ..DriverConfig::default()
    }
}

fn workload(declared: bool) -> hta::makeflow::Workflow {
    let p = MultistageParams {
        stage_tasks: vec![24, 6, 18],
        wall: Duration::from_secs(90),
        split_reduce_wall: Duration::from_secs(15),
        db_mb: 200.0,
        ..MultistageParams::default()
    };
    blast_multistage(&if declared { p.declared() } else { p })
}

fn run(policy: &str, faults: bool) -> RunResult {
    let plan = if faults {
        FaultPlan::light(SEED)
    } else {
        FaultPlan::default()
    };
    let hta = policy == "hta";
    let p: Box<dyn ScalingPolicy> = match policy {
        "hta" => Box::new(HtaPolicy::new(HtaConfig::default())),
        "hpa50" => Box::new(HpaPolicy::new(0.5, 2, 8)),
        "fixed6" => Box::new(FixedPolicy::new(6)),
        "mpc" => Box::new(MpcPolicy::new(MpcConfig::default())),
        other => panic!("unknown policy {other}"),
    };
    SystemDriver::new(cfg(hta, plan), workload(!hta), p).run()
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn summary_json(r: &RunResult) -> String {
    let mut json = serde_json::to_string_pretty(&r.summary).expect("serialize RunSummary");
    json.push('\n');
    json
}

fn check(policy: &str, faults: bool) {
    let name = format!("{policy}_{}", if faults { "faults" } else { "clean" });
    let first = summary_json(&run(policy, faults));
    let second = summary_json(&run(policy, faults));
    assert_eq!(
        first, second,
        "{name}: two same-seed runs diverged in-process"
    );

    let path = golden_dir().join(format!("{name}.json"));
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, &first).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); record it with GOLDEN_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        first,
        golden,
        "{name}: RunSummary diverged from the committed golden file {}",
        path.display()
    );
}

#[test]
fn hta_clean_matches_golden() {
    check("hta", false);
}

#[test]
fn hta_faults_matches_golden() {
    check("hta", true);
}

#[test]
fn hpa_clean_matches_golden() {
    check("hpa50", false);
}

#[test]
fn hpa_faults_matches_golden() {
    check("hpa50", true);
}

#[test]
fn fixed_clean_matches_golden() {
    check("fixed6", false);
}

#[test]
fn fixed_faults_matches_golden() {
    check("fixed6", true);
}

/// The one golden whose policy forks the simulation: every MPC decision
/// rolls out what-if branches, so this pins the rollout path too.
#[test]
fn mpc_clean_matches_golden() {
    check("mpc", false);
}
