//! Extension experiment (future-work flavour): HTC on preemptible
//! ("spot") capacity.
//!
//! The paper's motivation is the pay-as-you-go cloud; the natural next
//! step for interruptible HTC jobs is spot instances at a fraction of the
//! on-demand price. This experiment runs the multistage workload under
//! HTA on node pools with decreasing mean lifetimes and reports the
//! runtime/interruption penalty — against a naive cost model (spot ≈ 1/4
//! of on-demand per core-hour, GCE's preemptible discount).

use hta_bench::{fig10, PolicyKind};
use hta_des::Duration;
use hta_metrics::{bill, PriceBook, TimeSeries};
use rayon::prelude::*;

/// Billing follows *nodes*, not worker pods: a provisioned n1-standard-4
/// costs its 4 cores whether or not a worker landed yet.
fn node_cores_series(nodes: &TimeSeries, cores_per_node: f64) -> TimeSeries {
    let mut out = TimeSeries::new("node_cores");
    for (t, v) in nodes.iter() {
        out.push(t, v * cores_per_node);
    }
    out
}

fn main() {
    println!("=== Spot-capacity extension: HTA on preemptible nodes ===\n");
    let lifetimes: [Option<u64>; 4] = [None, Some(7_200), Some(1_800), Some(600)];
    let results: Vec<_> = lifetimes
        .par_iter()
        .map(|mean_life| {
            let mut s = fig10(PolicyKind::Hta, 42);
            s.cfg.cluster.preemption_mean_lifetime = mean_life.map(Duration::from_secs);
            (*mean_life, s.run(None))
        })
        .collect();

    let on_demand_runtime = results[0].1.summary.runtime_s;
    let prices = PriceBook::default();
    let od_bill = bill(
        &node_cores_series(&results[0].1.recorder.nodes, 4.0),
        &results[0].1.recorder.in_use,
        on_demand_runtime,
        &prices,
        false,
    );
    println!(
        "{:>14} | {:>10} {:>8} {:>12} {:>12} {:>9} {:>9}",
        "mean lifetime", "runtime_s", "vs od", "interrupted", "core_hours", "usd", "rel_cost"
    );
    for (life, r) in &results {
        let b = bill(
            &node_cores_series(&r.recorder.nodes, 4.0),
            &r.recorder.in_use,
            r.summary.runtime_s,
            &prices,
            life.is_some(),
        );
        println!(
            "{:>14} | {:>10.0} {:>7.0}% {:>12} {:>12.1} {:>9.2} {:>8.0}%",
            life.map(|s| format!("{s} s"))
                .unwrap_or_else(|| "on-demand".into()),
            r.summary.runtime_s,
            (r.summary.runtime_s / on_demand_runtime - 1.0) * 100.0,
            r.interrupted_tasks,
            b.core_hours,
            b.usd,
            b.usd / od_bill.usd.max(1e-12) * 100.0,
        );
        assert!(!r.timed_out, "spot run must still complete");
    }
    println!(
        "\nKey shapes: every run completes (interrupted tasks re-queue and\n\
         re-run); the runtime penalty grows as lifetimes shrink, yet the\n\
         billed cost stays far below on-demand until preemptions dominate\n\
         — the drain/re-queue machinery HTA builds on (§II-C) is exactly\n\
         what makes HTC viable on spot capacity."
    );
}
