//! Fig. 11 — the I/O-bound workload under HPA-20 / HPA-50 / HTA (§VI-B).
//!
//! 200 parallel `dd` tasks whose CPU load rarely exceeds 20 %. The CPU
//! metric blinds the HPA (its cluster never grows); HTA scales on the
//! declared/learned processor demand. Paper results (Fig. 11c):
//!
//! | autoscaler | runtime (s) | waste (core·s) | shortage (core·s) |
//! |------------|------------:|---------------:|------------------:|
//! | HPA(20%)   |        6670 |            159 |            337737 |
//! | HPA(50%)   |        7230 |             82 |            357640 |
//! | HTA        |        1823 |           2028 |             31840 |
//!
//! Headline claim: HTA shortens execution time up to 3.66×.

use hta_bench::results::{default_dir, save, FigureResult};
use hta_bench::{fig11, print_series_chart, PolicyKind, ReportTable};
use rayon::prelude::*;

fn main() {
    println!("=== Fig. 11: I/O-bound workload (200 dd tasks) ===\n");
    let configs = [
        (
            "HPA(20% CPU)",
            PolicyKind::Hpa(0.20),
            (6670.0, 159.0, 337737.0),
        ),
        (
            "HPA(50% CPU)",
            PolicyKind::Hpa(0.50),
            (7230.0, 82.0, 357640.0),
        ),
        ("HTA", PolicyKind::Hta, (1823.0, 2028.0, 31840.0)),
    ];

    let mut table = ReportTable::new(
        "Fig. 11c — workflow performance summary",
        vec!["runtime_s", "waste_core_s", "shortage_core_s"],
    );
    let mut saved = FigureResult::new(
        "fig11",
        "Fig. 11c — workflow performance summary",
        &["runtime_s", "waste_core_s", "shortage_core_s"],
    );
    // Independent simulations, one seed per config (42 + i): run in
    // parallel, report in config order.
    let jobs: Vec<(PolicyKind, u64)> = configs
        .iter()
        .enumerate()
        .map(|(i, (_, kind, _))| (*kind, 42 + i as u64))
        .collect();
    let runs: Vec<_> = jobs
        .par_iter()
        .map(|&(kind, seed)| fig11(kind, seed).run(None))
        .collect();
    let mut results = Vec::new();
    for ((label, _, (p_rt, p_w, p_s)), r) in configs.iter().zip(runs) {
        let measured = vec![
            r.summary.runtime_s,
            r.summary.accumulated_waste_core_s,
            r.summary.accumulated_shortage_core_s,
        ];
        let paper = vec![Some(*p_rt), Some(*p_w), Some(*p_s)];
        table.add_row(*label, measured.clone(), paper.clone());
        saved.push_row(label, &measured, &paper);
        results.push((label, r));
    }
    if let Ok(path) = save(&default_dir(), &saved) {
        println!("results saved to {}\n", path.display());
    }

    for (label, r) in &results {
        println!(
            "{}",
            print_series_chart(
                &format!(
                    "Fig. 11b [{label}] — resource supply (s) / demand (d) / in-use (u), cores"
                ),
                &r.recorder,
                r.summary.runtime_s
            )
        );
    }

    println!("{}", table.render());
    let hpa20 = &results[0].1.summary;
    let hta = &results[2].1.summary;
    println!(
        "speed-up HTA vs HPA-20: {:.2}x (paper: up to 3.66x)",
        hpa20.runtime_s / hta.runtime_s.max(1.0)
    );
    println!(
        "\nKey shapes to check: the HPA pools never grow (CPU below every\n\
         target), leaving enormous shortage with near-zero waste; HTA\n\
         scales to the full pool after its probe (small early waste) and\n\
         finishes several times sooner."
    );
}
