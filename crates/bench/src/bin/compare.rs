//! Compare every built-in policy on a chosen workload.
//!
//! ```text
//! cargo run --release -p hta-bench --bin compare -- [workload] [size]
//!   workload: blast | multistage | iobound | md   (default: blast)
//!   size:     task count / scale knob             (default: workload-specific)
//! ```

use hta_bench::{paper, PolicyKind};
use hta_core::driver::RunResult;
use hta_des::Duration;
use hta_makeflow::Workflow;
use hta_resources::Resources;
use hta_workloads::{
    blast_multistage, blast_single_stage, iobound, md_ensemble, BlastParams, IoBoundParams,
    MdParams, MultistageParams,
};
use rayon::prelude::*;

fn workload(kind: &str, size: usize, declared: bool) -> Workflow {
    match kind {
        "multistage" => {
            let p = MultistageParams {
                stage_tasks: vec![size, (size / 6).max(2), size / 2 + 2],
                ..MultistageParams::default()
            };
            blast_multistage(&if declared { p.declared() } else { p })
        }
        "iobound" => {
            let p = IoBoundParams {
                tasks: size,
                ..IoBoundParams::default()
            };
            iobound(&if declared { p.declared() } else { p })
        }
        "md" => {
            let p = MdParams {
                replicas: size.max(2),
                ..MdParams::default()
            };
            md_ensemble(&if declared { p.declared() } else { p })
        }
        _ => blast_single_stage(&BlastParams {
            jobs: size,
            wall: Duration::from_secs(120),
            declared: declared.then_some(Resources::cores(1, 3_000, 5_000)),
            ..BlastParams::default()
        }),
    }
}

/// Every built-in policy; HTA first (the summary line compares it).
const POLICIES: [PolicyKind; 6] = [
    PolicyKind::Hta,
    PolicyKind::Hpa(0.20),
    PolicyKind::Hpa(0.50),
    PolicyKind::Fixed(20),
    PolicyKind::Tracking,
    PolicyKind::Oracle,
];

fn run(kind: &str, size: usize, policy: PolicyKind) -> (String, RunResult) {
    let r = paper(policy, 13, |declared| workload(kind, size, declared)).run(None);
    (r.label.clone(), r)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let kind = args
        .first()
        .map(String::as_str)
        .unwrap_or("blast")
        .to_string();
    let default_size = match kind.as_str() {
        "multistage" => 120,
        "iobound" => 120,
        "md" => 24,
        _ => 150,
    };
    let size: usize = args
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default_size);
    println!("workload: {kind} (size {size}) — all policies, 20-worker quota\n");

    let results: Vec<(String, RunResult)> =
        POLICIES.par_iter().map(|&p| run(&kind, size, p)).collect();

    println!(
        "{:<26} {:>10} {:>14} {:>16} {:>7} {:>6}",
        "policy", "runtime_s", "waste_core_s", "shortage_core_s", "peak_w", "intr"
    );
    for (label, r) in &results {
        assert!(!r.timed_out, "{label} timed out");
        println!(
            "{:<26} {:>10.0} {:>14.0} {:>16.0} {:>7.0} {:>6}",
            label,
            r.summary.runtime_s,
            r.summary.accumulated_waste_core_s,
            r.summary.accumulated_shortage_core_s,
            r.summary.peak_workers,
            r.interrupted_tasks,
        );
    }
    let best_waste = results
        .iter()
        .map(|(_, r)| r.summary.accumulated_waste_core_s)
        .fold(f64::INFINITY, f64::min);
    let hta = &results[0].1.summary;
    println!(
        "\nHTA waste is {:.1}x the best observed ({best_waste:.0} core·s)",
        hta.accumulated_waste_core_s / best_waste.max(1.0)
    );
}
