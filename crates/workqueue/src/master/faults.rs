//! Task-level faults and straggler mitigation: injected attempt
//! failures with their retry budget and OOM escalation, and speculative
//! duplicates.

use hta_des::{Duration, EffectSink, SimTime};
use hta_resources::Resources;
use serde::{Deserialize, Serialize};

use super::{FailKind, Master, WqEvent, WqNotification};
use crate::ids::{TaskId, WorkerId};
use crate::shape::Shape;
use crate::task::{Speculative, TaskRecord, TaskState};

/// Fault-injection knobs for task execution.
///
/// With both failure rates at zero and speculation disabled, the master
/// draws nothing from its fault RNG, so fault-free runs are
/// byte-identical with or without this subsystem.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskFaults {
    /// Probability that one execution attempt exits nonzero partway
    /// through its run.
    pub transient_rate: f64,
    /// Probability that one execution attempt is OOM-killed; the retry
    /// runs at an escalated memory allocation.
    pub oom_rate: f64,
    /// Failed attempts tolerated per task; one more classifies the task
    /// as permanently failed ([`WqNotification::TaskFailed`]).
    pub max_retries: u32,
    /// Memory multiplier applied to a task's declared allocation after
    /// each OOM kill, capped at the largest connected worker's capacity.
    pub oom_escalation: f64,
    /// Straggler mitigation by speculation: a task running longer than
    /// `factor ×` its category's mean wall time gets a duplicate on
    /// another worker; whichever copy finishes first wins and the loser
    /// is cancelled. `None` disables speculation.
    pub straggler_factor: Option<f64>,
    /// Seed for the master's fault/speculation RNG stream.
    pub seed: u64,
}

impl Default for TaskFaults {
    fn default() -> Self {
        TaskFaults {
            transient_rate: 0.0,
            oom_rate: 0.0,
            max_retries: 3,
            oom_escalation: 1.5,
            straggler_factor: None,
            seed: 0x4854_4132, // "HTA2"
        }
    }
}

/// Cumulative task-layer fault counters (see [`Master::fault_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TaskFaultStats {
    /// Attempts that exited nonzero.
    pub transient_failures: u64,
    /// Attempts killed by the OOM killer.
    pub oom_kills: u64,
    /// Retries granted (failed attempts that stayed within budget).
    pub retries: u64,
    /// Tasks classified permanently failed.
    pub permanent_failures: u64,
    /// Speculative duplicates launched.
    pub speculative_launched: u64,
    /// Races the duplicate won.
    pub speculative_wins: u64,
    /// Core·seconds burned by failed attempts and cancelled duplicates
    /// (work that had to be redone).
    pub wasted_core_s: f64,
}

impl Master {
    /// Decide whether the execution attempt about to start will fail, and
    /// if so how and at what fraction of its run. Draws nothing when both
    /// fault rates are zero (RNG-stream preservation).
    pub(super) fn draw_attempt_fate(&mut self) -> Option<(FailKind, f64)> {
        let oom = self.faults.oom_rate.max(0.0);
        let transient = self.faults.transient_rate.max(0.0);
        if oom <= 0.0 && transient <= 0.0 {
            return None;
        }
        let u = self.rng.uniform();
        let kind = if u < oom {
            FailKind::Oom
        } else if u < oom + transient {
            FailKind::Transient
        } else {
            return None;
        };
        // The attempt dies somewhere in the middle of its run (wasted work
        // the retry has to redo).
        let frac = self.rng.uniform_range(0.05, 0.95);
        Some((kind, frac))
    }

    /// One execution attempt died (fault injection). Within budget the
    /// task is re-queued at the front — after an OOM kill with an
    /// escalated memory allocation; past budget it is permanently failed.
    pub(super) fn task_attempt_failed(
        &mut self,
        now: SimTime,
        task: TaskId,
        run_gen: u64,
        kind: FailKind,
        fx: &mut EffectSink<WqEvent>,
    ) {
        let wid = {
            let Some(rec) = self.tasks.get(&task) else {
                return;
            };
            if rec.run_generation() != run_gen {
                return; // interrupted run; event is stale
            }
            let TaskState::Running(wid) = rec.state else {
                return;
            };
            wid
        };
        // The failed attempt's duplicate (if any) is pointless now: the
        // retry restarts from scratch anyway.
        self.cancel_speculation(now, task);
        let largest_mem = self.workers.values().map(|w| w.capacity().memory_mb).max();
        let rec = self.tasks.get_mut(&task).expect("checked above");
        // The failed attempt's start leaves the record with the attempt,
        // but a permanent failure still reports it: the task's span shows
        // the run that failed.
        let Shape { cat, actual, .. } = *self.shapes.shape(rec.shape);
        let run = rec.run_mut();
        let started_at = run.started_at.take();
        let wall = started_at.map_or(Duration::ZERO, |s| now.since(s));
        let cores = run.allocation.unwrap_or(actual).cores_f64();
        run.run_generation += 1;
        run.allocation = None;
        self.fault_stats.wasted_core_s += cores * wall.as_secs_f64();
        match kind {
            FailKind::Transient => self.fault_stats.transient_failures += 1,
            FailKind::Oom => self.fault_stats.oom_kills += 1,
        }
        rec.retries += 1;
        if rec.retries > self.faults.max_retries {
            self.fault_stats.permanent_failures += 1;
            self.failed_count += 1;
            let rec = self.retire_task(task);
            self.notifications.push(WqNotification::TaskFailed {
                task,
                cat,
                submitted_at: rec.submitted_at,
                started_at,
                interruptions: rec.interruptions,
            });
        } else {
            self.fault_stats.retries += 1;
            if kind == FailKind::Oom {
                // Retry at an escalated memory allocation (the operator's
                // remedy for OOMKilled pods), capped at the biggest
                // connected worker so the task stays schedulable.
                if let Some(declared) = self.shapes.declared(rec.declared) {
                    let mut mem = (declared.memory_mb as f64 * self.faults.oom_escalation.max(1.0))
                        .ceil() as i64;
                    if let Some(cap) = largest_mem {
                        mem = mem.min(cap);
                    }
                    rec.declared = self.shapes.intern_declared(Some(Resources::new(
                        declared.millicores,
                        mem.max(declared.memory_mb),
                        declared.disk_mb,
                    )));
                }
            }
            rec.state = TaskState::Waiting;
            let (cat, declared) = self.shapes.key(rec);
            self.waiting.push_front(task, cat, declared);
        }
        self.release_from_worker(now, wid, task);
        self.dispatch(now, fx);
    }

    /// A running task has exceeded `straggler_factor ×` its category mean:
    /// launch a speculative duplicate on another worker. First finish wins.
    pub(super) fn straggler_check(
        &mut self,
        now: SimTime,
        task: TaskId,
        run_gen: u64,
        fx: &mut EffectSink<WqEvent>,
    ) {
        let (alloc, primary_wid, cat) = {
            let Some(rec) = self.tasks.get(&task) else {
                return;
            };
            if rec.run_generation() != run_gen {
                return;
            }
            let TaskState::Running(wid) = rec.state else {
                return;
            };
            if rec.run().speculative.is_some() {
                return;
            }
            let shape = self.shapes.shape(rec.shape);
            (rec.allocation().unwrap_or(shape.actual), wid, shape.cat)
        };
        // A duplicate needs room on a *different* active worker; if none
        // has any, skip silently (the primary keeps running).
        let dup = self.index.first_fit(&alloc, Some(primary_wid));
        self.assert_first_fit(Some(&alloc), Some(primary_wid), dup);
        let Some(dup_wid) = dup else {
            return;
        };
        self.workers
            .get_mut(&dup_wid)
            .expect("worker exists")
            .assign(task, alloc);
        self.worker_changed(dup_wid);
        // The duplicate is an ordinary run of a category job: model its
        // wall time as the category mean (±10%) — speculation's premise is
        // that the straggler, not the task, is the outlier.
        let mean = self
            .mean_wall_id(cat)
            .unwrap_or_else(|| self.tasks[&task].duration);
        let duration = self.rng.jittered(mean, 0.1);
        let rec = self.tasks.get_mut(&task).expect("checked above");
        rec.run_mut().speculative = Some(Speculative {
            worker: dup_wid,
            started_at: now,
            duration,
        });
        self.fault_stats.speculative_launched += 1;
        fx.push(duration, WqEvent::SpeculativeFinished(task, run_gen));
    }

    /// The speculative duplicate beat the straggling primary: promote it
    /// (its run is the one that counts), cancel the primary, finish.
    pub(super) fn speculative_finished(
        &mut self,
        now: SimTime,
        task: TaskId,
        run_gen: u64,
        fx: &mut EffectSink<WqEvent>,
    ) {
        let (primary_wid, wasted_core_s, new_gen) = {
            let racing = |r: &TaskRecord| {
                r.run_generation() == run_gen
                    && matches!(r.state, TaskState::Running(_))
                    && r.run().speculative.is_some()
            };
            let Some(rec) = self.tasks.get_mut_if(&task, racing) else {
                return;
            };
            let actual = self.shapes.shape(rec.shape).actual;
            let TaskState::Running(wid) = rec.state else {
                unreachable!("state checked above");
            };
            let run = rec.run_mut();
            let sp = run.speculative.take().expect("checked above");
            let elapsed = run.started_at.map_or(Duration::ZERO, |s| now.since(s));
            let cores = run.allocation.unwrap_or(actual).cores_f64();
            // Promote: measured wall becomes the duplicate's run; bump the
            // generation so the primary's pending TaskFinished is stale.
            run.started_at = Some(sp.started_at);
            run.run_generation += 1;
            let generation = run.run_generation;
            rec.state = TaskState::Running(sp.worker);
            (wid, cores * elapsed.as_secs_f64(), generation)
        };
        self.fault_stats.wasted_core_s += wasted_core_s;
        self.fault_stats.speculative_wins += 1;
        self.release_from_worker(now, primary_wid, task);
        self.task_finished(now, task, new_gen, fx);
    }

    /// Settle `task`'s speculative race after worker `dead` was killed
    /// under it. A duplicate that lived there is dropped, its burned work
    /// charged, and the primary keeps running elsewhere; a primary that
    /// died while its duplicate lives is *promoted* onto the duplicate.
    /// True when either happened, so the task must not be re-queued.
    pub(super) fn settle_race_on_worker_loss(
        &mut self,
        now: SimTime,
        task: TaskId,
        dead: WorkerId,
        fx: &mut EffectSink<WqEvent>,
    ) -> bool {
        let Some(rec) = self.tasks.get_mut(&task) else {
            return false;
        };
        let Some(sp) = rec.run().speculative else {
            return false;
        };
        let actual = self.shapes.shape(rec.shape).actual;
        let primary_died = matches!(rec.state, TaskState::Running(w) if w == dead);
        if sp.worker == dead && !primary_died {
            // Only the duplicate died; charge its burned work.
            let run = rec.run_mut();
            run.speculative = None;
            let cores = run.allocation.unwrap_or(actual).cores_f64();
            self.fault_stats.wasted_core_s += cores * now.since(sp.started_at).as_secs_f64();
            return true;
        }
        if !primary_died || sp.worker == dead {
            return false;
        }
        // Primary died, duplicate lives: promote it. Fresh generation
        // stales both pending finish events, so schedule the duplicate's
        // remaining run explicitly.
        rec.state = TaskState::Running(sp.worker);
        let run = rec.run_mut();
        run.speculative = None;
        let cores = run.allocation.unwrap_or(actual).cores_f64();
        let elapsed = run.started_at.map_or(Duration::ZERO, |s| now.since(s));
        self.fault_stats.wasted_core_s += cores * elapsed.as_secs_f64();
        run.started_at = Some(sp.started_at);
        run.run_generation += 1;
        let remaining = sp.duration.saturating_sub(now.since(sp.started_at));
        let generation = run.run_generation;
        fx.push(remaining, WqEvent::TaskFinished(task, generation));
        true
    }

    /// Cancel an in-flight speculative duplicate (the race was decided
    /// some other way), charging its burned core·seconds as waste.
    pub(super) fn cancel_speculation(&mut self, now: SimTime, task: TaskId) {
        let (sp, wasted_core_s) = {
            let Some(rec) = self
                .tasks
                .get_mut_if(&task, |r| r.run().speculative.is_some())
            else {
                return;
            };
            let actual = self.shapes.shape(rec.shape).actual;
            let run = rec.run_mut();
            let sp = run.speculative.take().expect("checked above");
            let cores = run.allocation.unwrap_or(actual).cores_f64();
            (sp, cores * now.since(sp.started_at).as_secs_f64())
        };
        self.fault_stats.wasted_core_s += wasted_core_s;
        self.release_from_worker(now, sp.worker, task);
    }
}

#[cfg(test)]
mod tests {
    use crate::master::testkit::*;

    #[test]
    fn transient_failures_retry_until_budget_exhausted() {
        let (cat, db) = catalog_with_db();
        // Every attempt fails → the task burns its whole retry budget and
        // is permanently failed after max_retries + 1 attempts.
        let mut m = new_master(
            faulty_cfg(TaskFaults {
                transient_rate: 1.0,
                max_retries: 2,
                ..TaskFaults::default()
            }),
            cat,
        );
        let mut q = Queue::new();
        let mut fx = EffectSink::new();
        let _w = m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
        run(&mut m, &mut q, &mut fx, 5);
        m.submit(
            SimTime::ZERO,
            cpu_task(0, db, Some(Resources::cores(1, 2_000, 2_000))),
            &mut fx,
        );
        run(&mut m, &mut q, &mut fx, 500);
        assert!(m.task(TaskId(0)).is_none(), "a failed task leaves");
        assert_eq!(m.failed_count, 1);
        assert_eq!(m.completed_count(), 0);
        let st = m.fault_stats();
        assert_eq!(st.transient_failures, 3, "max_retries + 1 attempts");
        assert_eq!(st.retries, 2);
        assert_eq!(st.permanent_failures, 1);
        assert!(st.wasted_core_s > 0.0, "failed attempts burn core·s");
        let notes = m.drain_notifications();
        let started = notes.iter().find_map(|n| match *n {
            WqNotification::TaskFailed {
                task: TaskId(0),
                submitted_at: SimTime::ZERO,
                started_at,
                interruptions: 0,
                ..
            } => Some(started_at),
            _ => None,
        });
        let t = started
            .expect("the failure is notified")
            .expect("the failed run's start is reported");
        // The last attempt started after the first two failed, and at or
        // before its own failure.
        assert!(SimTime::ZERO < t && t <= q.now(), "started at {t:?}");
        assert!(m.all_complete(), "failed is terminal");
    }

    #[test]
    fn oom_kill_escalates_memory_on_retry() {
        let (cat, db) = catalog_with_db();
        // Every attempt OOMs: check the declared memory after the second
        // kill, while the task is still live (the third kill fails it).
        let mut m = new_master(
            faulty_cfg(TaskFaults {
                oom_rate: 1.0,
                max_retries: 2,
                oom_escalation: 2.0,
                ..TaskFaults::default()
            }),
            cat,
        );
        let mut q = Queue::new();
        let mut fx = EffectSink::new();
        let _w = m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
        run(&mut m, &mut q, &mut fx, 5);
        m.submit(
            SimTime::ZERO,
            cpu_task(0, db, Some(Resources::cores(1, 2_000, 2_000))),
            &mut fx,
        );
        sched(&mut q, &mut fx);
        while m.fault_stats().oom_kills < 2 {
            let (now, ev) = q.pop().expect("events remain");
            m.handle(now, ev, &mut fx);
            sched(&mut q, &mut fx);
        }
        let rec = m.task(TaskId(0)).unwrap();
        // 2000 → 4000 → 8000 MB, capped at the 16 GB worker.
        assert_eq!(rec.declared().unwrap().memory_mb, 8_000);
        run(&mut m, &mut q, &mut fx, 500);
        assert_eq!(m.fault_stats().oom_kills, 3);
        assert_eq!(m.fault_stats().permanent_failures, 1);
    }

    #[test]
    fn zero_rates_draw_nothing_and_change_nothing() {
        let (cat, db) = catalog_with_db();
        let mut m = new_master(faulty_cfg(TaskFaults::default()), cat);
        let mut q = Queue::new();
        let mut fx = EffectSink::new();
        let _w = m.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
        run(&mut m, &mut q, &mut fx, 5);
        m.submit(
            SimTime::ZERO,
            cpu_task(0, db, Some(Resources::cores(1, 2_000, 2_000))),
            &mut fx,
        );
        run(&mut m, &mut q, &mut fx, 200);
        assert_eq!(m.completed_count(), 1);
        assert_eq!(m.fault_stats(), TaskFaultStats::default());
    }

    #[test]
    fn speculative_duplicate_wins_race_and_primary_is_cancelled() {
        let (cat, db) = catalog_with_db();
        let mut m = new_master(
            faulty_cfg(TaskFaults {
                straggler_factor: Some(2.0),
                ..TaskFaults::default()
            }),
            cat,
        );
        let mut q = Queue::new();
        let mut fx = EffectSink::new();
        let decl = Some(Resources::cores(1, 2_000, 2_000));
        let _w1 = m.worker_connect(SimTime::ZERO, Resources::cores(1, 4_000, 50_000), &mut fx);
        run(&mut m, &mut q, &mut fx, 5);
        let _w2 = m.worker_connect(SimTime::ZERO, Resources::cores(1, 4_000, 50_000), &mut fx);
        run(&mut m, &mut q, &mut fx, 5);
        // Establish the category mean (60 s) with a normal task…
        m.submit(SimTime::ZERO, cpu_task(0, db, decl), &mut fx);
        run(&mut m, &mut q, &mut fx, 100);
        assert_eq!(m.completed_count(), 1);
        // …then a 10 000 s straggler. At 120 s the check fires, a ~60 s
        // duplicate lands on the idle worker and wins by a mile.
        let mut straggler = cpu_task(1, db, decl);
        straggler.exec = ExecModel::cpu_bound(Duration::from_secs(10_000));
        let submit_at = q.now();
        m.submit(submit_at, straggler, &mut fx);
        let done = run(&mut m, &mut q, &mut fx, 500);
        let done = done[&TaskId(1)].since(submit_at).as_secs_f64();
        assert!(
            done < 1_000.0,
            "speculation should finish the task long before the 10 000 s primary (took {done}s)"
        );
        let st = m.fault_stats();
        assert_eq!(st.speculative_launched, 1);
        assert_eq!(st.speculative_wins, 1);
        assert!(st.wasted_core_s > 0.0, "the cancelled primary burned work");
        // The duplicate's wall (≈60 s) is what the category statistics see,
        // not the straggler's 10 000 s.
        let wall = completion(&m, TaskId(1)).0.wall.as_secs_f64();
        assert!(
            wall < 100.0,
            "measured wall {wall}s should be the duplicate's"
        );
        assert!(m.all_complete());
    }

    #[test]
    fn primary_finishing_first_cancels_the_duplicate() {
        let (cat, db) = catalog_with_db();
        let mut m = new_master(
            faulty_cfg(TaskFaults {
                straggler_factor: Some(1.0),
                ..TaskFaults::default()
            }),
            cat,
        );
        let mut q = Queue::new();
        let mut fx = EffectSink::new();
        let decl = Some(Resources::cores(1, 2_000, 2_000));
        let _w1 = m.worker_connect(SimTime::ZERO, Resources::cores(1, 4_000, 50_000), &mut fx);
        run(&mut m, &mut q, &mut fx, 5);
        let w2 = m.worker_connect(SimTime::ZERO, Resources::cores(1, 4_000, 50_000), &mut fx);
        run(&mut m, &mut q, &mut fx, 5);
        // Mean 60 s; the next task runs 61 s — barely a "straggler", so a
        // duplicate launches at 60 s but the primary wins the race.
        m.submit(SimTime::ZERO, cpu_task(0, db, decl), &mut fx);
        run(&mut m, &mut q, &mut fx, 100);
        let mut slow = cpu_task(1, db, decl);
        slow.exec = ExecModel::cpu_bound(Duration::from_secs(61));
        m.submit(q.now(), slow, &mut fx);
        let done = run(&mut m, &mut q, &mut fx, 500);
        assert!(done.contains_key(&TaskId(1)));
        let st = m.fault_stats();
        assert_eq!(st.speculative_launched, 1);
        assert_eq!(st.speculative_wins, 0, "primary won; duplicate cancelled");
        // The duplicate's slot on w2 was released.
        assert!(m.worker(w2).unwrap().is_idle());
        assert!(m.all_complete());
    }
}
