//! Fig. 2 — workload runtime statistics with different HPA target CPU
//! loads (§III-B).
//!
//! 200 equal BLAST jobs on a 15-node GKE-like cluster, worker pods of one
//! core, HPA targets 10 % / 50 % / 99 %, against the ideal scenario where
//! the full 60-worker pool exists from the start. The paper reports
//! runtimes of 1294 / 1304 / 4682 s versus 240 s ideal, CPU 68.3 % /
//! 65.2 %, and Config-99 never scaling up.

use hta_bench::results::{default_dir, save, FigureResult};
use hta_bench::{fig2, print_series_chart, PolicyKind, ReportTable};
use hta_metrics::AsciiChart;

fn main() {
    println!("=== Fig. 2: HPA target-CPU sweep on BLAST-200 ===\n");
    let configs = [
        ("Config-10", PolicyKind::Hpa(0.10), Some((1294.0, 68.3))),
        ("Config-50", PolicyKind::Hpa(0.50), Some((1304.0, 65.2))),
        ("Config-99", PolicyKind::Hpa(0.99), Some((4682.0, f64::NAN))),
        ("Ideal", PolicyKind::Fixed(60), Some((240.0, f64::NAN))),
    ];

    let mut table = ReportTable::new(
        "Fig. 2 — runtime and CPU use",
        vec!["runtime_s", "cpu_use_%", "peak_workers"],
    );
    let mut saved = FigureResult::new(
        "fig2",
        "Fig. 2 — runtime and CPU use",
        &["runtime_s", "cpu_use_%", "peak_workers"],
    );

    for (i, (label, kind, paper)) in configs.iter().enumerate() {
        let r = fig2(*kind, 42 + i as u64).run(None);
        let (paper_rt, paper_cpu) = paper.expect("every fig2 config carries paper numbers");
        let measured = vec![
            r.summary.runtime_s,
            r.summary.avg_cpu_utilization * 100.0,
            r.summary.peak_workers,
        ];
        let paper_vals = vec![
            Some(paper_rt),
            (!paper_cpu.is_nan()).then_some(paper_cpu),
            None,
        ];
        table.add_row(*label, measured.clone(), paper_vals.clone());
        saved.push_row(label, &measured, &paper_vals);

        // The per-config pod-count panels of Fig. 2: connected, idle,
        // HPA-desired, and the ideal requirement (outstanding 1-core
        // tasks clamped to the 60-worker quota — panel iv of the paper).
        let end = r.summary.runtime_s;
        let mut ideal = hta_metrics::TimeSeries::new("workers_ideal");
        {
            let w = &r.recorder.tasks_waiting;
            let running = &r.recorder.tasks_running;
            for (t, wv) in w.iter() {
                let rv = running.value_at(t).unwrap_or(0.0);
                ideal.push(t, (wv + rv).min(60.0));
            }
        }
        let mut chart = AsciiChart::new(
            format!("{label}: worker pods over time (runtime {end:.0} s)"),
            100,
            12,
            end,
        );
        chart.add('c', r.recorder.workers_connected.clone());
        chart.add('i', r.recorder.workers_idle.clone());
        chart.add('d', r.recorder.workers_desired.clone());
        chart.add('o', ideal);
        println!("{}", chart.render());
        println!(
            "{}",
            print_series_chart(
                &format!("{label}: supply/demand/in-use (cores)"),
                &r.recorder,
                end
            )
        );
    }

    println!("{}", table.render());
    if let Ok(path) = save(&default_dir(), &saved) {
        println!("results saved to {}\n", path.display());
    }
    println!(
        "Key shapes to check: Config-10 ≈ Config-50 runtime; both well\n\
         above Ideal (slow staircase ramp); Config-99 never scales (its\n\
         CPU load never exceeds the 99% target) and runs ~3-4x longer."
    );
}
