//! Algorithm 1 — the resource-estimation function.
//!
//! Given the latest resource-initialization time, the running and waiting
//! task sets, and the active worker pool, HTA forward-simulates one
//! initialization cycle (eq. 2): tasks predicted to finish free their
//! resources, waiting tasks are dispatched into freed capacity, and at the
//! end of the cycle the sign of the remaining imbalance decides the
//! action:
//!
//! * waiting queue empty → **no change**, re-evaluate after the default
//!   cycle;
//! * spare capacity left → **scale down** by the number of whole idle
//!   workers, re-evaluate when the longest-running task should finish;
//! * otherwise → **scale up** by the number of workers the still-waiting
//!   tasks need, re-evaluate after one initialization cycle (the new
//!   workers' arrival time).
//!
//! The simulation is event-driven over task completion times rather than
//! the paper's 1-second loop — identical result, fewer iterations. It is
//! written once over a capacity model: the paper's pooled `avaRsrc`
//! or the per-worker free lists of the `per-worker-est` ablation
//! ([`EstimatorMode`]).
//!
//! A cycle costs O((n + d) log n) for a visible backlog of n tasks and d
//! simulated dispatches, plus one visit per passed-over task per
//! completion: the completion horizon is a heap, a dispatch pops its task
//! off the front of a queue, and a pass stops as soon as no task left in
//! it can fit (each entry carries the per-dimension minimum of the
//! requests from it to the back).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use hta_des::Duration;
use hta_resources::Resources;

/// Which capacity model Algorithm 1 uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EstimatorMode {
    /// The paper's scalar `avaRsrc` (aggregate free capacity).
    #[default]
    Aggregate,
    /// Per-worker free lists (no phantom fits across fragments).
    PerWorker,
}

/// A task currently held by a worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningTask {
    /// Predicted time until completion (category mean minus elapsed,
    /// floored at zero; staging tasks use the full category mean).
    pub remaining: Duration,
    /// Resources allocated on its worker.
    pub allocation: Resources,
}

/// A task in the waiting queue (including operator-held jobs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaitingTask {
    /// Planned resource requirement (declared, learned, or — when truly
    /// unknown — one whole worker unit).
    pub resources: Resources,
    /// Expected execution time (category mean or the configured default).
    pub exec: Duration,
}

/// Everything Algorithm 1 reads.
#[derive(Debug, Clone)]
pub struct EstimatorInput {
    /// Latest measured resource-initialization time (`rsrcInitTime`).
    pub rsrc_init_time: Duration,
    /// Re-evaluation interval when there is nothing to do.
    pub default_cycle: Duration,
    /// Tasks on workers.
    pub running: Vec<RunningTask>,
    /// Tasks awaiting dispatch, FIFO.
    pub waiting: Vec<WaitingTask>,
    /// Capacities of active (non-draining) workers.
    pub active_workers: Vec<Resources>,
    /// Capacity of one new worker pod (node-sized, §IV-A).
    pub worker_unit: Resources,
    /// Waiting tasks beyond the caller's simulation cap, grouped by
    /// planned resource requirement as `(resources, count)`. The forward
    /// simulation never dispatches them — they stand behind the visible
    /// FIFO prefix — but they are still real demand: any non-empty
    /// overflow suppresses the end-of-cycle idle drain, and scale-up adds
    /// `ceil(count / tasks-per-worker)` workers per group on top of the
    /// packed leftover (clamped to the pool quota by the policy). Empty
    /// whenever the whole queue fit under the cap, which keeps every
    /// closed workflow workload bit-identical.
    pub overflow: Vec<(Resources, usize)>,
}

/// Algorithm 1's output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleDecision {
    /// Worker-pod delta: positive = create, negative = drain.
    pub delta: i64,
    /// When to run the estimator again (`timeToNextAction`).
    pub next_action: Duration,
}

/// How the forward simulation holds free capacity — the only thing the
/// two [`EstimatorMode`]s do differently.
trait Capacity {
    /// Where an allocation was charged, so its completion frees it there.
    type Slot: Copy;
    /// Charge a running task's allocation; `None` drops the task from
    /// the projection.
    fn charge(&mut self, allocation: &Resources) -> Option<Self::Slot>;
    /// False once no waiting task whose request is at least `floor` on
    /// every dimension may dispatch until a completion.
    fn may_fit(&self, floor: &Resources) -> bool;
    /// Dispatch a waiting task, or `None` when it fits nowhere.
    fn place(&mut self, request: &Resources) -> Option<Self::Slot>;
    /// A completion frees its allocation, clamped to the capacity it
    /// came from.
    fn release(&mut self, slot: Self::Slot, allocation: &Resources);
    /// Whole idle workers at the end of the cycle.
    fn idle_workers(&self, unit: &Resources) -> i64;
}

/// The paper's scalar `avaRsrc`: all free capacity in one aggregate.
/// Once the pool is exhausted nothing dispatches (not even a zero-sized
/// task), which also spares rescanning the queue on every completion.
struct Pool {
    capacity: Resources,
    available: Resources,
}

impl Capacity for Pool {
    type Slot = ();

    fn charge(&mut self, allocation: &Resources) -> Option<()> {
        self.available = self.available.saturating_sub(allocation);
        Some(())
    }

    fn may_fit(&self, floor: &Resources) -> bool {
        !self.available.is_zero() && floor.fits_in(&self.available)
    }

    fn place(&mut self, request: &Resources) -> Option<()> {
        if !request.fits_in(&self.available) {
            return None;
        }
        self.available = self.available.saturating_sub(request);
        Some(())
    }

    fn release(&mut self, (): (), allocation: &Resources) {
        self.available = (self.available + *allocation).min(&self.capacity);
    }

    fn idle_workers(&self, unit: &Resources) -> i64 {
        // `i64::MAX` means a zero unit: no meaningful count.
        match self.available.divide_by(unit) {
            i64::MAX => 0,
            n => n,
        }
    }
}

/// Per-worker free lists (ablation of the paper's scalar `avaRsrc`).
///
/// The pooled model can *phantom-fit* a task across fragments no single
/// worker has (two workers with 2 free cores each "fit" a 3-core task).
/// Here running tasks are first-fit onto workers (a task that fits none —
/// a stale snapshot — is dropped), completions free their own worker,
/// and a waiting task dispatches only into a worker that fits it.
struct PerWorker<'a> {
    capacity: &'a [Resources],
    free: Vec<Resources>,
}

impl Capacity for PerWorker<'_> {
    type Slot = usize;

    fn charge(&mut self, allocation: &Resources) -> Option<usize> {
        self.place(allocation)
    }

    fn may_fit(&self, floor: &Resources) -> bool {
        self.free.iter().any(|f| floor.fits_in(f))
    }

    fn place(&mut self, request: &Resources) -> Option<usize> {
        let w = self.free.iter().position(|f| request.fits_in(f))?;
        self.free[w] = self.free[w].saturating_sub(request);
        Some(w)
    }

    fn release(&mut self, w: usize, allocation: &Resources) {
        self.free[w] = (self.free[w] + *allocation).min(&self.capacity[w]);
    }

    fn idle_workers(&self, _unit: &Resources) -> i64 {
        self.free
            .iter()
            .zip(self.capacity)
            .filter(|(free, cap)| free == cap)
            .count() as i64
    }
}

/// Workers needed to hold the overflow groups, sized arithmetically
/// (`ceil(count / tasks-per-worker)` per group — a lower bound that
/// ignores cross-group packing, which is fine: overflow only exists when
/// the backlog already saturates the quota). Zero-sized tasks need no
/// capacity and oversized tasks are unsatisfiable; both contribute
/// nothing, mirroring the first-fit packing loop.
fn overflow_workers(overflow: &[(Resources, usize)], unit: &Resources) -> i64 {
    let mut total: i64 = 0;
    for (r, n) in overflow {
        if *n == 0 || !r.fits_in(unit) {
            continue;
        }
        let per = unit.divide_by(r);
        if per == 0 || per == i64::MAX {
            continue;
        }
        total = total.saturating_add((*n as i64 + per - 1) / per);
    }
    total
}

/// Run Algorithm 1 under the given capacity model.
pub fn estimate(input: &EstimatorInput, mode: EstimatorMode) -> ScaleDecision {
    match mode {
        EstimatorMode::Aggregate => {
            let capacity: Resources = input.active_workers.iter().copied().sum();
            simulate(
                input,
                Pool {
                    capacity,
                    available: capacity,
                },
            )
        }
        EstimatorMode::PerWorker => simulate(
            input,
            PerWorker {
                capacity: &input.active_workers,
                free: input.active_workers.clone(),
            },
        ),
    }
}

/// The forward simulation of one initialization cycle, then the decision.
fn simulate<C: Capacity>(input: &EstimatorInput, mut cap: C) -> ScaleDecision {
    // Completion horizon: a min-heap on (time, insertion order) over
    // indices into `charged`, so equal times complete in input order for
    // running tasks, then in dispatch order.
    let mut charged: Vec<(Resources, C::Slot)> = Vec::with_capacity(input.running.len());
    let mut horizon = Vec::with_capacity(input.running.len());
    let mut max_remaining = Duration::ZERO;
    for t in &input.running {
        if let Some(slot) = cap.charge(&t.allocation) {
            horizon.push(Reverse((t.remaining, charged.len())));
            charged.push((t.allocation, slot));
            max_remaining = max_remaining.max(t.remaining);
        }
    }
    let mut horizon = BinaryHeap::from(horizon);
    // The waiting queue, each entry with the per-dimension minimum of the
    // requests from it to the back: a pass that cannot fit an entry's
    // floor cannot place that entry or anything behind it.
    let mut queue: VecDeque<(WaitingTask, Resources)> =
        VecDeque::with_capacity(input.waiting.len());
    for t in input.waiting.iter().rev() {
        let floor = queue
            .front()
            .map_or(t.resources, |(_, f)| f.min(&t.resources));
        queue.push_front((*t, floor));
    }
    let mut passed = Vec::new();

    // Dispatch as much of the waiting queue as fits, first fit in queue
    // order, pushing dispatched tasks' completions onto the horizon.
    let mut dispatch = |now: Duration,
                        cap: &mut C,
                        horizon: &mut BinaryHeap<Reverse<(Duration, usize)>>,
                        charged: &mut Vec<(Resources, C::Slot)>| {
        while let Some((t, floor)) = queue.pop_front() {
            if !cap.may_fit(&floor) {
                queue.push_front((t, floor));
                break;
            }
            match cap.place(&t.resources) {
                Some(slot) => {
                    let done_at = now + t.exec;
                    horizon.push(Reverse((done_at, charged.len())));
                    charged.push((t.resources, slot));
                    max_remaining = max_remaining.max(done_at);
                }
                None => passed.push((t, floor)),
            }
        }
        // Passed-over tasks keep their places ahead of the rest.
        while let Some(entry) = passed.pop() {
            queue.push_front(entry);
        }
    };

    // t = 0 dispatch (capacity may already be free), then walk completion
    // events inside the window.
    dispatch(Duration::ZERO, &mut cap, &mut horizon, &mut charged);
    while let Some(Reverse((at, i))) = horizon.pop() {
        if at > input.rsrc_init_time {
            break;
        }
        let (allocation, slot) = charged[i];
        cap.release(slot, &allocation);
        dispatch(at, &mut cap, &mut horizon, &mut charged);
    }
    let waiting: Vec<WaitingTask> = queue.into_iter().map(|(t, _)| t).collect();
    decide(
        input,
        &waiting,
        cap.idle_workers(&input.worker_unit),
        max_remaining,
    )
}

/// The decision rules at the end of the cycle, shared by both capacity
/// models: `waiting` is what is still queued, `idle_workers` the whole
/// workers left idle and `max_remaining` the latest simulated completion.
fn decide(
    input: &EstimatorInput,
    waiting: &[WaitingTask],
    idle_workers: i64,
    max_remaining: Duration,
) -> ScaleDecision {
    let hidden = overflow_workers(&input.overflow, &input.worker_unit);
    // A drain re-evaluates when the longest-running task should finish.
    let until_longest = if max_remaining.is_zero() {
        input.default_cycle
    } else {
        max_remaining
    };

    // Queue empty: the pseudocode's line 19 returns "no change", but
    // eq. 2 drives RSH negative as completions outpace arrivals and §V-C
    // scales down on RSH < 0 — and Fig. 10b shows HTA shrinking the pool
    // mid-workload. We follow eq. 2 *only when the queue is already empty
    // now* (true surplus: stage tails, post-probe lulls); a backlog that
    // merely gets absorbed within the window is "resources are enough, do
    // nothing" per line 19 — draining there would cancel pods whose tasks
    // have not dispatched yet. (See DESIGN.md for this
    // pseudocode/behaviour discrepancy.)
    if waiting.is_empty() {
        // The visible prefix was absorbed, but a truncated backlog is
        // still real demand the simulation never saw — provision for it
        // instead of reporting balance (the policy clamps to the quota).
        if hidden > 0 {
            return ScaleDecision {
                delta: hidden,
                next_action: input.rsrc_init_time,
            };
        }
        if input.waiting.is_empty() && idle_workers > 0 {
            return ScaleDecision {
                delta: -idle_workers,
                next_action: until_longest.min(input.default_cycle),
            };
        }
        return ScaleDecision {
            delta: 0,
            next_action: input.default_cycle,
        };
    }

    // Lines 22–24: spare whole workers at the end of the cycle → drain
    // (never while truncated backlog hides behind the visible prefix).
    if hidden == 0 && idle_workers > 0 {
        return ScaleDecision {
            delta: -idle_workers,
            next_action: until_longest,
        };
    }

    // Line 25: scale up by the workers the leftover waiting set needs
    // (first-fit packing into worker-unit bins).
    let mut bins: Vec<Resources> = Vec::new();
    for t in waiting {
        if !t.resources.fits_in(&input.worker_unit) {
            // Larger than any worker — unsatisfiable; skip rather than
            // provision forever.
            continue;
        }
        match bins.iter_mut().find(|b| t.resources.fits_in(b)) {
            Some(b) => *b = b.saturating_sub(&t.resources),
            None => bins.push(input.worker_unit.saturating_sub(&t.resources)),
        }
    }
    ScaleDecision {
        delta: (bins.len() as i64).saturating_add(hidden),
        next_action: input.rsrc_init_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use EstimatorMode::{Aggregate, PerWorker};

    fn worker() -> Resources {
        Resources::cores(3, 12_000, 50_000)
    }

    fn one_core() -> Resources {
        Resources::cores(1, 2_000, 2_000)
    }

    fn base_input() -> EstimatorInput {
        EstimatorInput {
            rsrc_init_time: Duration::from_secs(157),
            default_cycle: Duration::from_secs(60),
            running: Vec::new(),
            waiting: Vec::new(),
            active_workers: Vec::new(),
            worker_unit: worker(),
            overflow: Vec::new(),
        }
    }

    #[test]
    fn empty_queue_with_idle_pool_drains_surplus() {
        let mut input = base_input();
        input.active_workers = vec![worker(); 3];
        // Nothing waiting, nothing running: eq. 2 surplus → drain all 3.
        let d = estimate(&input, Aggregate);
        assert_eq!(d.delta, -3);
        assert_eq!(d.next_action, Duration::from_secs(60));
    }

    #[test]
    fn empty_queue_with_busy_pool_holds() {
        let mut input = base_input();
        input.active_workers = vec![worker(); 2];
        // Both workers fully busy past the window: no surplus, no change.
        input.running = vec![
            RunningTask {
                remaining: Duration::from_secs(10_000),
                allocation: worker(),
            };
            2
        ];
        let d = estimate(&input, Aggregate);
        assert_eq!(d.delta, 0);
    }

    #[test]
    fn empty_queue_with_no_workers_is_no_change() {
        let input = base_input();
        let d = estimate(&input, Aggregate);
        assert_eq!(d.delta, 0);
    }

    #[test]
    fn backlog_with_no_workers_scales_up_by_packing() {
        let mut input = base_input();
        // 9 one-core waiting tasks, 3-core workers → 3 workers.
        input.waiting = vec![
            WaitingTask {
                resources: one_core(),
                exec: Duration::from_secs(90)
            };
            9
        ];
        let d = estimate(&input, Aggregate);
        assert_eq!(d.delta, 3);
        assert_eq!(d.next_action, input.rsrc_init_time);
    }

    #[test]
    fn tasks_finishing_within_cycle_absorb_backlog() {
        let mut input = base_input();
        input.active_workers = vec![worker()];
        // Three 1-core tasks running, finishing at t=30 — well inside the
        // 157 s window; three more waiting with 30 s exec. The window fits
        // both generations on the single worker → no scaling.
        input.running = vec![
            RunningTask {
                remaining: Duration::from_secs(30),
                allocation: one_core()
            };
            3
        ];
        input.waiting = vec![
            WaitingTask {
                resources: one_core(),
                exec: Duration::from_secs(30)
            };
            3
        ];
        let d = estimate(&input, Aggregate);
        assert_eq!(d.delta, 0, "no shortage at the end of the cycle");
    }

    #[test]
    fn long_tasks_do_not_free_capacity_in_window() {
        let mut input = base_input();
        input.active_workers = vec![worker()];
        // Worker fully busy past the window; 6 waiting 1-core tasks need
        // 2 more workers.
        input.running = vec![RunningTask {
            remaining: Duration::from_secs(1000),
            allocation: worker(),
        }];
        input.waiting = vec![
            WaitingTask {
                resources: one_core(),
                exec: Duration::from_secs(90)
            };
            6
        ];
        let d = estimate(&input, Aggregate);
        assert_eq!(d.delta, 2);
    }

    #[test]
    fn idle_workers_are_drained_when_backlog_cannot_use_them() {
        let mut input = base_input();
        input.active_workers = vec![worker(); 4];
        // A waiting task that exceeds even the aggregate memory of the
        // pool can never dispatch; all four workers stay whole-idle and
        // the estimator reports them for drain.
        input.waiting = vec![WaitingTask {
            resources: Resources::new(1000, 60_000, 0),
            exec: Duration::from_secs(10),
        }];
        let d = estimate(&input, Aggregate);
        assert_eq!(d.delta, -4);
        assert_eq!(
            d.next_action, input.default_cycle,
            "nothing running → default cycle"
        );
    }

    #[test]
    fn scale_down_waits_for_longest_running_task() {
        let mut input = base_input();
        input.active_workers = vec![worker(); 3];
        input.running = vec![RunningTask {
            remaining: Duration::from_secs(400),
            allocation: one_core(),
        }];
        // Memory-heavy waiting task that cannot fit the leftover of any
        // dimension mix → leftover capacity stays idle.
        input.waiting = vec![WaitingTask {
            resources: Resources::new(1000, 50_000, 0),
            exec: Duration::from_secs(10),
        }];
        let d = estimate(&input, Aggregate);
        assert!(d.delta < 0);
        assert_eq!(d.next_action, Duration::from_secs(400));
    }

    #[test]
    fn unknown_resource_tasks_claim_whole_workers() {
        let mut input = base_input();
        // Caller substitutes worker_unit for unknown tasks: 4 of them →
        // 4 workers.
        input.waiting = vec![
            WaitingTask {
                resources: worker(),
                exec: Duration::from_secs(60)
            };
            4
        ];
        let d = estimate(&input, Aggregate);
        assert_eq!(d.delta, 4);
    }

    #[test]
    fn mixed_sizes_pack_first_fit() {
        let mut input = base_input();
        // 2-core and 1-core tasks: [2,1] per 3-core worker.
        input.waiting = vec![
            WaitingTask {
                resources: Resources::cores(2, 0, 0),
                exec: Duration::from_secs(60),
            },
            WaitingTask {
                resources: Resources::cores(1, 0, 0),
                exec: Duration::from_secs(60),
            },
            WaitingTask {
                resources: Resources::cores(2, 0, 0),
                exec: Duration::from_secs(60),
            },
            WaitingTask {
                resources: Resources::cores(1, 0, 0),
                exec: Duration::from_secs(60),
            },
        ];
        let d = estimate(&input, Aggregate);
        assert_eq!(d.delta, 2);
    }

    #[test]
    fn oversized_tasks_are_skipped_not_looped() {
        let mut input = base_input();
        input.waiting = vec![WaitingTask {
            resources: Resources::cores(64, 0, 0),
            exec: Duration::from_secs(60),
        }];
        let d = estimate(&input, Aggregate);
        assert_eq!(d.delta, 0, "unsatisfiable task provisions nothing");
    }

    #[test]
    fn cascade_of_completions_is_simulated() {
        let mut input = base_input();
        input.active_workers = vec![Resources::cores(1, 4_000, 10_000)];
        // A chain: running finishes at 10 s, then three 40 s waiting tasks
        // run back-to-back on the single 1-core worker: 10+40+40+40 = 130 s
        // < 157 s window → everything absorbed.
        input.running = vec![RunningTask {
            remaining: Duration::from_secs(10),
            allocation: Resources::cores(1, 4_000, 10_000),
        }];
        input.waiting = vec![
            WaitingTask {
                resources: one_core(),
                exec: Duration::from_secs(40)
            };
            3
        ];
        let d = estimate(&input, Aggregate);
        assert_eq!(d.delta, 0);
        // Two more 40 s tasks: the fourth still dispatches inside the
        // window (at t=130), but the fifth finds the worker busy until
        // t=170 > 157 — it is still waiting at cycle end → one worker up.
        for _ in 0..2 {
            input.waiting.push(WaitingTask {
                resources: one_core(),
                exec: Duration::from_secs(40),
            });
        }
        let d = estimate(&input, Aggregate);
        assert_eq!(d.delta, 1);
    }

    #[test]
    fn per_worker_rejects_phantom_aggregate_fits() {
        // Two 3-core workers, each pinned by a memory-heavy 1-core task
        // (8 GB of the 12 GB worker) so one task lands on each worker:
        // every worker has 2 cores free, the aggregate has 4. A 3-core
        // waiting task "fits" the aggregate but no single worker.
        let mut input = base_input();
        input.active_workers = vec![worker(); 2];
        input.running = vec![
            RunningTask {
                remaining: Duration::from_secs(10_000),
                allocation: Resources::new(1_000, 8_000, 20_000),
            };
            2
        ];
        input.waiting = vec![WaitingTask {
            resources: Resources::cores(3, 1_000, 1_000),
            exec: Duration::from_secs(60),
        }];
        // Aggregate (paper) absorbs the task → no change.
        let agg = estimate(&input, Aggregate);
        assert_eq!(agg.delta, 0, "aggregate phantom-fits");
        // Per-worker knows it cannot run anywhere → scale up.
        let pw = estimate(&input, PerWorker);
        assert_eq!(pw.delta, 1, "per-worker sees the fragmentation");
    }

    #[test]
    fn per_worker_agrees_on_homogeneous_queues() {
        let mut input = base_input();
        input.active_workers = vec![worker(); 2];
        input.waiting = vec![
            WaitingTask {
                resources: one_core(),
                exec: Duration::from_secs(500)
            };
            12
        ];
        let a = estimate(&input, Aggregate);
        let b = estimate(&input, PerWorker);
        assert_eq!(a.delta, b.delta, "no fragmentation → same answer");
    }

    #[test]
    fn per_worker_drains_only_whole_idle_workers() {
        let mut input = base_input();
        input.active_workers = vec![worker(); 3];
        // One long task pinning one worker; queue empty.
        input.running = vec![RunningTask {
            remaining: Duration::from_secs(10_000),
            allocation: one_core(),
        }];
        let d = estimate(&input, PerWorker);
        // Two workers fully idle; the third is partially used → drain 2.
        assert_eq!(d.delta, -2);
    }

    #[test]
    fn overflow_converts_absorbed_queue_into_scale_up() {
        // The visible prefix (one quick task) is absorbed within the
        // window, but 300 truncated one-core tasks hide behind it. Without
        // overflow this reported "no change" and the pool starved; with it
        // the estimator asks for ceil(300/3) = 100 workers.
        let mut input = base_input();
        input.active_workers = vec![worker()];
        input.waiting = vec![WaitingTask {
            resources: one_core(),
            exec: Duration::from_secs(10),
        }];
        input.overflow = vec![(one_core(), 300)];
        let d = estimate(&input, Aggregate);
        assert_eq!(d.delta, 100);
        assert_eq!(d.next_action, input.rsrc_init_time);
        let pw = estimate(&input, PerWorker);
        assert_eq!(pw.delta, 100, "per-worker variant agrees");
    }

    #[test]
    fn overflow_suppresses_idle_drain() {
        // Visible leftover cannot dispatch (memory-heavy), whole workers
        // sit idle at cycle end — normally a drain. A truncated backlog
        // means that idleness is an illusion of the cap: hold instead and
        // provision for the overflow.
        let mut input = base_input();
        input.active_workers = vec![worker(); 4];
        input.waiting = vec![WaitingTask {
            resources: Resources::new(1000, 60_000, 0),
            exec: Duration::from_secs(10),
        }];
        input.overflow = vec![(one_core(), 30)];
        let d = estimate(&input, Aggregate);
        assert!(
            d.delta > 0,
            "idle drain must not fire over a hidden backlog (got {})",
            d.delta
        );
    }

    #[test]
    fn overflow_adds_to_packed_scale_up() {
        // No workers: 9 visible one-core tasks pack into 3 workers, and
        // 9 overflow tasks add 3 more.
        let mut input = base_input();
        input.waiting = vec![
            WaitingTask {
                resources: one_core(),
                exec: Duration::from_secs(90)
            };
            9
        ];
        input.overflow = vec![(one_core(), 9)];
        let d = estimate(&input, Aggregate);
        assert_eq!(d.delta, 6);
    }

    #[test]
    fn degenerate_overflow_groups_contribute_nothing() {
        // Zero-count, oversized and zero-sized groups are all ignored —
        // no infinite provisioning, no division by zero.
        let mut input = base_input();
        input.waiting = vec![WaitingTask {
            resources: one_core(),
            exec: Duration::from_secs(90),
        }];
        input.overflow = vec![
            (one_core(), 0),
            (Resources::cores(64, 0, 0), 10),
            (Resources::ZERO, 10),
        ];
        let d = estimate(&input, Aggregate);
        assert_eq!(d.delta, 1, "only the visible task provisions");
    }

    /// A capacity model that counts every call into `inner`: one per
    /// running task charged, queue entry visited, placement and
    /// completion released, so the count is the cycle's work.
    struct Counting<'a, C> {
        inner: C,
        calls: &'a std::cell::Cell<u64>,
    }

    impl<C: Capacity> Capacity for Counting<'_, C> {
        type Slot = C::Slot;

        fn charge(&mut self, allocation: &Resources) -> Option<C::Slot> {
            self.calls.set(self.calls.get() + 1);
            self.inner.charge(allocation)
        }

        fn may_fit(&self, floor: &Resources) -> bool {
            self.calls.set(self.calls.get() + 1);
            self.inner.may_fit(floor)
        }

        fn place(&mut self, request: &Resources) -> Option<C::Slot> {
            self.calls.set(self.calls.get() + 1);
            self.inner.place(request)
        }

        fn release(&mut self, slot: C::Slot, allocation: &Resources) {
            self.calls.set(self.calls.get() + 1);
            self.inner.release(slot, allocation);
        }

        fn idle_workers(&self, unit: &Resources) -> i64 {
            self.inner.idle_workers(unit)
        }
    }

    /// One aggregate-mode cycle over `n` one-core tasks of 0.1 s on
    /// three workers: every task dispatches inside the window, so the
    /// number of dispatches grows with the backlog.
    fn pool_cycle_work(n: usize) -> (ScaleDecision, u64) {
        let mut input = base_input();
        input.active_workers = vec![worker(); 3];
        input.running = vec![
            RunningTask {
                remaining: Duration::from_millis(50),
                allocation: one_core(),
            };
            4
        ];
        input.waiting = vec![
            WaitingTask {
                resources: one_core(),
                exec: Duration::from_millis(100),
            };
            n
        ];
        let capacity: Resources = input.active_workers.iter().copied().sum();
        let calls = std::cell::Cell::new(0);
        let pool = Pool {
            capacity,
            available: capacity,
        };
        let d = simulate(
            &input,
            Counting {
                inner: pool,
                calls: &calls,
            },
        );
        (d, calls.get())
    }

    #[test]
    fn cycle_work_doubles_with_the_backlog() {
        // A dispatch pops its task off the queue front and a pass stops
        // at the first entry whose floor no capacity fits, so a cycle's
        // work is linear in the tasks it dispatches: O(1) per task, not a
        // rescan of the queue per completion.
        let (small_d, small) = pool_cycle_work(2_000);
        let (large_d, large) = pool_cycle_work(4_000);
        assert_eq!(small_d, large_d);
        assert_eq!(small_d.delta, 0, "both backlogs are absorbed in the window");
        assert!(
            small > 2 * 2_000,
            "every task is visited and placed: {small}"
        );
        assert!(
            large <= 2 * small,
            "work grew from {small} to {large} calls when the backlog doubled"
        );
    }

    /// The forward simulation as first written: a sorted vector for the
    /// completion horizon and `Vec::remove` for each dispatch, rescanning
    /// the queue until the capacity is exhausted.
    fn reference(input: &EstimatorInput, mode: EstimatorMode) -> ScaleDecision {
        fn run<C: Capacity>(
            input: &EstimatorInput,
            mut cap: C,
            exhausted: impl Fn(&C) -> bool,
        ) -> ScaleDecision {
            let mut completions: Vec<(Duration, Resources, C::Slot)> = input
                .running
                .iter()
                .filter_map(|t| Some((t.remaining, t.allocation, cap.charge(&t.allocation)?)))
                .collect();
            completions.sort_by_key(|(d, _, _)| *d);
            let mut max_remaining = completions
                .iter()
                .map(|(d, _, _)| *d)
                .max()
                .unwrap_or(Duration::ZERO);
            let mut waiting = input.waiting.clone();
            let mut dispatch =
                |now: Duration,
                 cap: &mut C,
                 completions: &mut Vec<(Duration, Resources, C::Slot)>| {
                    let mut i = 0;
                    while i < waiting.len() && !exhausted(cap) {
                        let t = waiting[i];
                        let Some(slot) = cap.place(&t.resources) else {
                            i += 1;
                            continue;
                        };
                        let done_at = now + t.exec;
                        let pos = completions.partition_point(|(d, _, _)| *d <= done_at);
                        completions.insert(pos, (done_at, t.resources, slot));
                        max_remaining = max_remaining.max(done_at);
                        waiting.remove(i);
                    }
                };
            dispatch(Duration::ZERO, &mut cap, &mut completions);
            let mut idx = 0;
            while idx < completions.len() {
                let (at, allocation, slot) = completions[idx];
                idx += 1;
                if at > input.rsrc_init_time {
                    break;
                }
                cap.release(slot, &allocation);
                dispatch(at, &mut cap, &mut completions);
            }
            let idle = cap.idle_workers(&input.worker_unit);
            decide(input, &waiting, idle, max_remaining)
        }
        match mode {
            Aggregate => {
                let capacity: Resources = input.active_workers.iter().copied().sum();
                let pool = Pool {
                    capacity,
                    available: capacity,
                };
                run(input, pool, |p| p.available.is_zero())
            }
            PerWorker => {
                let cap = super::PerWorker {
                    capacity: &input.active_workers,
                    free: input.active_workers.clone(),
                };
                run(input, cap, |_| false)
            }
        }
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        fn resources() -> impl Strategy<Value = Resources> {
            (0i64..4, 0i64..4, 0i64..3)
                .prop_map(|(c, m, d)| Resources::new(c * 500, m * 3_000, d * 20_000))
        }

        fn input() -> impl Strategy<Value = EstimatorInput> {
            let running = proptest::collection::vec(
                (0u64..200, resources()).prop_map(|(s, allocation)| RunningTask {
                    remaining: Duration::from_secs(s),
                    allocation,
                }),
                0..12,
            );
            let waiting = proptest::collection::vec(
                (resources(), 0u64..120).prop_map(|(resources, s)| WaitingTask {
                    resources,
                    exec: Duration::from_secs(s),
                }),
                0..40,
            );
            let workers = proptest::collection::vec(
                any::<bool>().prop_map(|big| {
                    if big {
                        worker()
                    } else {
                        Resources::cores(1, 4_000, 10_000)
                    }
                }),
                0..5,
            );
            (running, waiting, workers, 0u64..3).prop_map(|(running, waiting, workers, o)| {
                EstimatorInput {
                    rsrc_init_time: Duration::from_secs(157),
                    default_cycle: Duration::from_secs(60),
                    running,
                    waiting,
                    active_workers: workers,
                    worker_unit: worker(),
                    overflow: vec![(one_core(), o as usize)],
                }
            })
        }

        proptest! {
            #[test]
            fn matches_the_first_written_simulation(input in input()) {
                for mode in [Aggregate, PerWorker] {
                    prop_assert_eq!(estimate(&input, mode), reference(&input, mode));
                }
            }
        }
    }

    #[test]
    fn zero_worker_unit_never_provisions_or_drains() {
        // A degenerate configuration (zero-sized worker unit) must not
        // divide-by-zero or request infinite workers.
        let input = EstimatorInput {
            rsrc_init_time: Duration::from_secs(157),
            default_cycle: Duration::from_secs(30),
            running: vec![],
            waiting: vec![WaitingTask {
                resources: one_core(),
                exec: Duration::from_secs(60),
            }],
            active_workers: vec![Resources::cores(3, 0, 0)],
            worker_unit: Resources::ZERO,
            overflow: Vec::new(),
        };
        let d = estimate(&input, Aggregate);
        assert_eq!(d.delta, 0, "nothing sane to do with a zero unit");
    }
}
