//! Criterion benches over the simulation engine itself: the event queue,
//! the fluid-flow link, the bin-packing scheduler paths and Algorithm 1.
//! These bound how large an experiment the harness can sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use hta_cluster::{Cluster, ClusterConfig, MachineType, PodSpec};
use hta_core::{estimate, EstimatorInput, EstimatorMode, RunningTask, WaitingTask};
use hta_des::{Duration, EffectSink, EventQueue, SimRng, SimTime};
use hta_resources::Resources;
use hta_workqueue::master::{Master, MasterConfig};
use hta_workqueue::task::{ExecModel, TaskSpec};
use hta_workqueue::{FairShareLink, FileCatalog, FlowId, TaskId};

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    for &n in &[1_000usize, 10_000, 100_000] {
        group.bench_with_input(BenchmarkId::new("schedule_pop", n), &n, |b, &n| {
            let mut rng = SimRng::seed_from_u64(7);
            let times: Vec<u64> = (0..n).map(|_| rng.uniform_u64(0, 1_000_000)).collect();
            b.iter(|| {
                let mut q = EventQueue::new();
                for (i, t) in times.iter().enumerate() {
                    q.schedule_at(SimTime::from_millis(*t), i);
                }
                let mut acc = 0usize;
                while let Some((_, e)) = q.pop() {
                    acc = acc.wrapping_add(e);
                }
                black_box(acc)
            });
        });
    }
    group.finish();
}

fn bench_link(c: &mut Criterion) {
    let mut group = c.benchmark_group("fair_share_link");
    for &flows in &[5usize, 50, 500] {
        group.bench_with_input(BenchmarkId::new("drain_all", flows), &flows, |b, &flows| {
            b.iter(|| {
                let mut link = FairShareLink::new(600.0, 0.083);
                link.advance(SimTime::ZERO);
                for i in 0..flows {
                    link.add_flow(SimTime::ZERO, FlowId(i as u64), 100.0 + i as f64);
                }
                let mut now = SimTime::ZERO;
                let mut done = Vec::new();
                while let Some(d) = link.next_completion_delay() {
                    now += d;
                    link.advance(now);
                    done.clear();
                    link.take_completed(&mut done);
                    black_box(&done);
                }
                black_box(link.active_flows())
            });
        });
    }
    group.finish();
}

fn bench_estimator(c: &mut Criterion) {
    let mut group = c.benchmark_group("estimator");
    for &(running, waiting) in &[(60usize, 200usize), (200, 1_000)] {
        let input = EstimatorInput {
            rsrc_init_time: Duration::from_secs(157),
            default_cycle: Duration::from_secs(30),
            running: (0..running)
                .map(|i| RunningTask {
                    remaining: Duration::from_secs((i as u64 % 300) + 1),
                    allocation: Resources::cores(1, 3_000, 5_000),
                })
                .collect(),
            waiting: (0..waiting)
                .map(|i| WaitingTask {
                    resources: Resources::cores(1 + (i as i64 % 2), 2_000, 4_000),
                    exec: Duration::from_secs(300),
                })
                .collect(),
            active_workers: vec![Resources::cores(3, 12_000, 50_000); 20],
            worker_unit: Resources::cores(3, 12_000, 50_000),
            overflow: Vec::new(),
        };
        group.bench_with_input(
            BenchmarkId::new("algorithm1", format!("r{running}_w{waiting}")),
            &input,
            |b, input| b.iter(|| black_box(estimate(black_box(input), EstimatorMode::Aggregate))),
        );
    }
    group.finish();
}

fn bench_cluster_scheduler(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster");
    group.bench_function("schedule_100_pods_on_30_nodes", |b| {
        b.iter(|| {
            let mut cluster = Cluster::new(ClusterConfig {
                machine: MachineType::n1_standard_4(),
                min_nodes: 30,
                max_nodes: 30,
                seed: 3,
                ..ClusterConfig::default()
            });
            let img = cluster.registry_mut().register("img", 100.0);
            let mut q = EventQueue::new();
            let mut fx = EffectSink::new();
            cluster.bootstrap(SimTime::ZERO, &mut fx);
            for _ in 0..100 {
                cluster.create_pod(
                    SimTime::ZERO,
                    PodSpec {
                        request: Resources::cores(1, 3_000, 5_000),
                        image: img,
                        group: "w".into(),
                    },
                    &mut fx,
                );
            }
            // Drain until all pods placed and running.
            for _ in 0..10_000 {
                for (d, e) in fx.drain() {
                    q.schedule_in(d, e);
                }
                let Some((now, ev)) = q.pop() else { break };
                cluster.handle(now, ev, &mut fx);
                if cluster.pending_pod_count() == 0
                    && cluster.running_pods_in_group("w").len() == 100
                {
                    break;
                }
            }
            black_box(cluster.ready_node_count())
        });
    });
    group.finish();
}

fn bench_master_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("workqueue");
    for &(tasks, workers) in &[(200usize, 20usize), (1_000, 60)] {
        group.bench_with_input(
            BenchmarkId::new("run_to_completion", format!("t{tasks}_w{workers}")),
            &(tasks, workers),
            |b, &(tasks, workers)| {
                b.iter(|| {
                    let mut catalog = FileCatalog::new();
                    let db = catalog.register("db", 200.0, true);
                    let mut m = Master::new(MasterConfig::default(), catalog);
                    let align = m.intern_category("align");
                    let mut q = EventQueue::new();
                    let mut fx = EffectSink::new();
                    for _ in 0..workers {
                        m.worker_connect(
                            SimTime::ZERO,
                            Resources::cores(3, 12_000, 50_000),
                            &mut fx,
                        );
                        for (d, e) in fx.drain() {
                            q.schedule_in(d, e);
                        }
                    }
                    for i in 0..tasks {
                        m.submit(
                            SimTime::ZERO,
                            TaskSpec {
                                id: TaskId(i as u64),
                                cat: align,
                                inputs: vec![db],
                                output_mb: 0.6,
                                declared: Some(Resources::cores(1, 3_000, 5_000)),
                                actual: Resources::cores(1, 2_500, 4_000),
                                exec: ExecModel::cpu_bound(Duration::from_secs(60)),
                            },
                            &mut fx,
                        );
                        for (d, e) in fx.drain() {
                            q.schedule_in(d, e);
                        }
                    }
                    while let Some((now, ev)) = q.pop() {
                        m.handle(now, ev, &mut fx);
                        for (d, e) in fx.drain() {
                            q.schedule_in(d, e);
                        }
                        if m.all_complete() {
                            break;
                        }
                    }
                    black_box(m.completed_count())
                });
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = engine;
    config = Criterion::default().sample_size(20);
    targets = bench_event_queue, bench_link, bench_estimator, bench_cluster_scheduler, bench_master_dispatch
}
criterion_main!(engine);
