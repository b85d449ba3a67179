//! Internal smoke run: prints key numbers from each experiment quickly.

use hta_bench::*;

fn show(tag: &str, r: &hta_core::driver::RunResult) {
    println!(
        "{tag:<24} runtime={:>7.0}s waste={:>9.0} shortage={:>9.0} cpu={:>5.1}% bw={:>6.1}MB/s peakW={:>3.0} events={} timeout={} intr={}",
        r.summary.runtime_s,
        r.summary.accumulated_waste_core_s,
        r.summary.accumulated_shortage_core_s,
        r.summary.avg_cpu_utilization * 100.0,
        r.summary.avg_egress_mbps,
        r.summary.peak_workers,
        r.events,
        r.timed_out,
        r.interrupted_tasks,
    );
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    if which == "all" || which == "fig4" {
        for (tag, cfg) in [
            ("fig4/fine", Fig4Config::FineGrained),
            ("fig4/coarse-unknown", Fig4Config::CoarseUnknown),
            ("fig4/coarse-known", Fig4Config::CoarseKnown),
        ] {
            let r = fig4(cfg, 42).run(None);
            show(tag, &r);
        }
    }
    if which == "all" || which == "fig2" {
        for (tag, kind) in [
            ("fig2/hpa-10", PolicyKind::Hpa(0.10)),
            ("fig2/hpa-50", PolicyKind::Hpa(0.50)),
            ("fig2/hpa-99", PolicyKind::Hpa(0.99)),
            ("fig2/ideal", PolicyKind::Fixed(60)),
        ] {
            let r = fig2(kind, 42).run(None);
            show(tag, &r);
        }
    }
    if which == "all" || which == "fig10" {
        for (tag, kind) in [
            ("fig10/hpa-20", PolicyKind::Hpa(0.20)),
            ("fig10/hpa-50", PolicyKind::Hpa(0.50)),
            ("fig10/hta", PolicyKind::Hta),
        ] {
            let r = fig10(kind, 42).run(None);
            show(tag, &r);
        }
    }
    if which == "all" || which == "fig11" {
        for (tag, kind) in [
            ("fig11/hpa-20", PolicyKind::Hpa(0.20)),
            ("fig11/hpa-50", PolicyKind::Hpa(0.50)),
            ("fig11/hta", PolicyKind::Hta),
        ] {
            let r = fig11(kind, 42).run(None);
            show(tag, &r);
        }
    }
}
