//! Property tests for Algorithm 1: the scale decision is always bounded
//! and sane across arbitrary queue states. Every property runs under both
//! capacity models (the mode is one more generated input), and the two
//! models agree wherever fragmentation cannot arise.

use hta_core::{estimate, EstimatorInput, EstimatorMode, RunningTask, WaitingTask};
use hta_des::Duration;
use hta_resources::Resources;
use proptest::prelude::*;

fn worker_unit() -> Resources {
    Resources::cores(3, 12_000, 50_000)
}

/// The capacity model for one generated case.
fn mode(per_worker: bool) -> EstimatorMode {
    if per_worker {
        EstimatorMode::PerWorker
    } else {
        EstimatorMode::Aggregate
    }
}

fn arb_task_res() -> impl Strategy<Value = Resources> {
    (1i64..4, 100i64..8_000, 0i64..30_000).prop_map(|(c, m, d)| Resources::new(c * 1000, m, d))
}

fn arb_input() -> impl Strategy<Value = EstimatorInput> {
    let running = proptest::collection::vec(
        (0u64..600, arb_task_res()).prop_map(|(rem, alloc)| RunningTask {
            remaining: Duration::from_secs(rem),
            allocation: alloc,
        }),
        0..40,
    );
    let waiting = proptest::collection::vec(
        (1u64..600, arb_task_res()).prop_map(|(exec, res)| WaitingTask {
            resources: res,
            exec: Duration::from_secs(exec),
        }),
        0..60,
    );
    let workers = proptest::collection::vec(Just(worker_unit()), 0..20);
    (running, waiting, workers, 30u64..400).prop_map(|(running, waiting, active_workers, init)| {
        EstimatorInput {
            rsrc_init_time: Duration::from_secs(init),
            default_cycle: Duration::from_secs(30),
            running,
            waiting,
            active_workers,
            worker_unit: worker_unit(),
            overflow: Vec::new(),
        }
    })
}

proptest! {
    /// The delta never drains more workers than exist and never creates
    /// more workers than waiting tasks (each task needs at most one).
    #[test]
    fn delta_is_bounded(input in arb_input(), per_worker in any::<bool>()) {
        let d = estimate(&input, mode(per_worker));
        prop_assert!(
            -d.delta <= input.active_workers.len() as i64,
            "drained {} of {} workers",
            -d.delta,
            input.active_workers.len()
        );
        prop_assert!(
            d.delta <= input.waiting.len() as i64,
            "created {} for {} waiting",
            d.delta,
            input.waiting.len()
        );
    }

    /// The next-action delay is always positive and bounded by the larger
    /// of init time, default cycle and the longest simulated completion.
    #[test]
    fn next_action_is_sane(input in arb_input(), per_worker in any::<bool>()) {
        let d = estimate(&input, mode(per_worker));
        prop_assert!(d.next_action > Duration::ZERO || d.next_action == input.default_cycle);
        let horizon = input
            .rsrc_init_time
            .max(input.default_cycle)
            .saturating_add(Duration::from_secs(1200)); // max exec 600s chains
        prop_assert!(
            d.next_action <= horizon.saturating_mul(2),
            "next action {:?} beyond any horizon",
            d.next_action
        );
    }

    /// With no workers and a non-empty waiting queue of worker-sized
    /// tasks, the estimator asks for exactly one worker per task.
    #[test]
    fn exclusive_tasks_get_one_worker_each(n in 1usize..30, per_worker in any::<bool>()) {
        let input = EstimatorInput {
            rsrc_init_time: Duration::from_secs(157),
            default_cycle: Duration::from_secs(30),
            running: vec![],
            waiting: vec![
                WaitingTask {
                    resources: worker_unit(),
                    exec: Duration::from_secs(60)
                };
                n
            ],
            active_workers: vec![],
            worker_unit: worker_unit(),
            overflow: Vec::new(),
        };
        prop_assert_eq!(estimate(&input, mode(per_worker)).delta, n as i64);
    }

    /// With a *homogeneous* waiting queue (the HTC case: jobs in one
    /// category are near-identical copies), adding a worker never
    /// increases the scale-up demand. (With heterogeneous tasks first-fit
    /// packing has classic anomalies where extra capacity reshuffles the
    /// dispatch order into a worse-packing residue, so monotonicity only
    /// holds per category.)
    #[test]
    fn more_workers_never_increase_delta_for_homogeneous_queues(
        n_waiting in 1usize..60,
        n_workers in 0usize..10,
        exec in 10u64..500,
        cores in 1i64..4,
        per_worker in any::<bool>(),
    ) {
        let task = WaitingTask {
            resources: Resources::new(cores * 1000, 2_000, 4_000),
            exec: Duration::from_secs(exec),
        };
        let mk = |workers: usize| EstimatorInput {
            rsrc_init_time: Duration::from_secs(157),
            default_cycle: Duration::from_secs(30),
            running: vec![],
            waiting: vec![task; n_waiting],
            active_workers: vec![worker_unit(); workers],
            worker_unit: worker_unit(),
            overflow: Vec::new(),
        };
        let base = estimate(&mk(n_workers), mode(per_worker)).delta;
        let with_extra = estimate(&mk(n_workers + 1), mode(per_worker)).delta;
        if base > 0 {
            prop_assert!(
                with_extra <= base,
                "delta grew from {base} to {with_extra} after adding a worker"
            );
        }
    }

    /// Determinism: the same input always yields the same decision.
    #[test]
    fn estimator_is_deterministic(input in arb_input(), per_worker in any::<bool>()) {
        let m = mode(per_worker);
        prop_assert_eq!(estimate(&input, m), estimate(&input, m));
    }

    /// Without fragmentation the two capacity models are the same model:
    /// when the worker unit is non-zero, every running task, waiting task
    /// and worker is exactly one unit, and no more tasks run than there
    /// are workers, the pooled and per-worker simulations place the same
    /// tasks at the same instants and end with the same idle workers.
    #[test]
    fn capacity_models_agree_without_fragmentation(
        (unit, running, waiting, workers) in (arb_task_res(), 0usize..20, 0usize..60, 0usize..20),
        remaining in proptest::collection::vec(0u64..600, 20..21),
        exec in proptest::collection::vec(1u64..600, 60..61),
        overflow in proptest::collection::vec((arb_task_res(), 0usize..50), 0..3),
        init in 30u64..400,
    ) {
        let input = EstimatorInput {
            rsrc_init_time: Duration::from_secs(init),
            default_cycle: Duration::from_secs(30),
            running: remaining[..running.min(workers)]
                .iter()
                .map(|&r| RunningTask {
                    remaining: Duration::from_secs(r),
                    allocation: unit,
                })
                .collect(),
            waiting: exec[..waiting]
                .iter()
                .map(|&e| WaitingTask {
                    resources: unit,
                    exec: Duration::from_secs(e),
                })
                .collect(),
            active_workers: vec![unit; workers],
            worker_unit: unit,
            overflow,
        };
        prop_assert_eq!(
            estimate(&input, EstimatorMode::Aggregate),
            estimate(&input, EstimatorMode::PerWorker)
        );
    }
}
