//! Criterion benches that run every paper experiment end-to-end, so
//! `cargo bench` regenerates each table/figure's simulation and measures
//! how fast the harness reproduces it. The figure binaries
//! (`cargo run -p hta-bench --bin figN`) print the paper-vs-measured
//! tables; these benches guarantee the experiments themselves stay cheap
//! enough to sweep.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use hta_bench::{
    ablation_run, fig10, fig11, fig2, fig4, fig6_measurements, Ablation, Fig4Config, PolicyKind,
};

fn bench_fig2(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig2");
    g.bench_function("hpa50_blast200", |b| {
        b.iter(|| {
            black_box(fig2(PolicyKind::Hpa(0.50), 42).run(None))
                .summary
                .runtime_s
        })
    });
    g.bench_function("ideal_blast200", |b| {
        b.iter(|| {
            black_box(fig2(PolicyKind::Fixed(60), 42).run(None))
                .summary
                .runtime_s
        })
    });
    g.finish();
}

fn bench_fig4(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4");
    for (name, cfg) in [
        ("fine", Fig4Config::FineGrained),
        ("coarse_unknown", Fig4Config::CoarseUnknown),
        ("coarse_known", Fig4Config::CoarseKnown),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| black_box(fig4(cfg, 42).run(None)).summary.runtime_s)
        });
    }
    g.finish();
}

fn bench_fig6(c: &mut Criterion) {
    c.bench_function("fig6/init_latency_10_runs", |b| {
        b.iter(|| black_box(fig6_measurements(10, 42)).len())
    });
}

fn bench_fig10(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig10");
    g.sample_size(10);
    for (name, kind) in [("hpa20", PolicyKind::Hpa(0.20)), ("hta", PolicyKind::Hta)] {
        g.bench_function(name, |b| {
            b.iter(|| black_box(fig10(kind, 42).run(None)).summary.runtime_s)
        });
    }
    g.finish();
}

fn bench_fig11(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig11");
    g.sample_size(10);
    for (name, kind) in [("hpa20", PolicyKind::Hpa(0.20)), ("hta", PolicyKind::Hta)] {
        g.bench_function(name, |b| {
            b.iter(|| black_box(fig11(kind, 42).run(None)).summary.runtime_s)
        });
    }
    g.finish();
}

fn bench_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation");
    g.sample_size(10);
    for (name, v) in [
        ("full", Ablation::Full),
        ("no_learning", Ablation::NoLearning),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| black_box(ablation_run(v, 42)).summary.runtime_s)
        });
    }
    g.finish();
}

criterion_group! {
    name = experiments;
    config = Criterion::default().sample_size(20);
    targets = bench_fig2, bench_fig4, bench_fig6, bench_fig10, bench_fig11, bench_ablation
}
criterion_main!(experiments);
