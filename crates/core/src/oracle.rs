//! A clairvoyant reference policy.
//!
//! [`OraclePolicy`] is handed the workload's *true* per-category resource
//! requirements up front (no probing, no learning lag) and reacts
//! instantly to the queue: the desired pool is exactly the number of
//! worker pods that packs every waiting and running task. It is the
//! "number of worker-pods required in an ideal scenario" series of
//! Fig. 2 — an upper bound no real autoscaler reaches, because real
//! scaling pays the initialization cycle the oracle ignores.

use std::collections::BTreeMap;

use hta_des::Duration;
use hta_resources::Resources;
use hta_workqueue::RunningSnapshot;

use crate::policy::{PolicyContext, ScaleAction, ScalingPolicy};

/// The clairvoyant policy.
#[derive(Debug, Clone)]
pub struct OraclePolicy {
    /// True per-category requirements (from the workload definition).
    requirements: BTreeMap<String, Resources>,
    evaluate_every: Duration,
    last_desired: usize,
}

impl OraclePolicy {
    /// Build from the true category → requirement map.
    pub fn new(requirements: BTreeMap<String, Resources>) -> Self {
        OraclePolicy {
            requirements,
            evaluate_every: Duration::from_secs(5),
            last_desired: 0,
        }
    }

    /// Convenience: extract the truth from a workflow's category profiles
    /// (the `actual` footprint, which the resource monitor would measure).
    pub fn from_workflow(workflow: &hta_makeflow::Workflow) -> Self {
        let map = workflow
            .categories
            .iter()
            .map(|(name, prof)| (name.clone(), prof.sim.actual))
            .collect();
        Self::new(map)
    }

    fn requirement(&self, category: &str, fallback: Resources) -> Resources {
        self.requirements.get(category).copied().unwrap_or(fallback)
    }

    /// Pack a list of requirements into worker-unit bins (first-fit).
    fn bins_needed(tasks: &[Resources], unit: Resources) -> usize {
        let mut bins: Vec<Resources> = Vec::new();
        for t in tasks {
            if !t.fits_in(&unit) {
                continue;
            }
            match bins.iter_mut().find(|b| t.fits_in(b)) {
                Some(b) => *b = b.saturating_sub(t),
                None => bins.push(unit.saturating_sub(t)),
            }
        }
        bins.len()
    }
}

impl ScalingPolicy for OraclePolicy {
    fn name(&self) -> String {
        "Oracle".into()
    }

    fn decide(&mut self, ctx: &PolicyContext<'_>) -> (ScaleAction, Duration) {
        if ctx.workload_done {
            self.last_desired = 0;
            return if ctx.live_worker_pods > 0 {
                (
                    ScaleAction::DrainWorkers(ctx.live_worker_pods),
                    self.evaluate_every,
                )
            } else {
                (ScaleAction::None, self.evaluate_every)
            };
        }
        // The whole outstanding task set, with true requirements. The
        // oracle keeps its truth keyed by name (it comes from the workload
        // definition, before any interning) and resolves ids on the fly.
        // First-fit packing is order-sensitive: running tasks go in
        // ascending task id.
        let names = ctx.queue.interner();
        let mut demands: Vec<Resources> = ctx
            .queue
            .waiting()
            .map(|w| self.requirement(names.name(w.cat), ctx.worker_unit))
            .collect();
        let mut running: Vec<RunningSnapshot> = ctx.queue.running().collect();
        running.sort_unstable_by_key(|r| r.id);
        for r in &running {
            demands.push(self.requirement(names.name(r.cat), r.allocation));
        }
        for (cat, count) in ctx.held_jobs {
            let req = self.requirement(names.name(*cat), ctx.worker_unit);
            demands.extend(std::iter::repeat_n(req, *count));
        }
        let desired = Self::bins_needed(&demands, ctx.worker_unit).min(ctx.max_workers);
        self.last_desired = desired;
        let live = ctx.live_worker_pods;
        let action = if desired > live {
            ScaleAction::CreateWorkers(desired - live)
        } else if desired < live {
            ScaleAction::DrainWorkers(live - desired)
        } else {
            ScaleAction::None
        };
        (action, self.evaluate_every)
    }

    fn desired(&self) -> usize {
        self.last_desired
    }

    fn clone_box(&self) -> Box<dyn ScalingPolicy> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::category_stats::CategoryStats;
    use crate::policy::testkit::master;
    use hta_des::{CategoryId, SimTime};
    use hta_workqueue::Master;

    const CAT0: CategoryId = CategoryId::from_u32(0);

    fn unit() -> Resources {
        Resources::cores(3, 12_000, 50_000)
    }

    fn ctx<'a>(
        queue: &'a Master,
        stats: &'a CategoryStats,
        held: &'a [(CategoryId, usize)],
        live: usize,
    ) -> PolicyContext<'a> {
        PolicyContext {
            now: SimTime::from_secs(10),
            queue: queue.view(),
            held_jobs: held,
            stats,
            init_time: Duration::from_secs(157),
            worker_unit: unit(),
            live_worker_pods: live,
            pending_worker_pods: 0,
            utilization: None,
            max_workers: 20,
            workload_done: false,
            telemetry_age: Duration::ZERO,
        }
    }

    /// `n` waiting tasks of the one category `name`, undeclared (the
    /// oracle does not need declarations).
    fn waiting_queue(name: &str, n: usize) -> Master {
        master(&[name], &[(CAT0, None, n)], &[])
    }

    #[test]
    fn oracle_packs_true_requirements() {
        let mut req = BTreeMap::new();
        req.insert("align".to_string(), Resources::cores(1, 2_000, 2_000));
        let mut p = OraclePolicy::new(req);
        let q = waiting_queue("align", 9);
        let stats = CategoryStats::new();
        let (action, _) = p.decide(&ctx(&q, &stats, &[], 0));
        assert_eq!(action, ScaleAction::CreateWorkers(3), "9 × 1c → 3 workers");
        assert_eq!(p.desired(), 3);
    }

    #[test]
    fn oracle_drains_surplus_immediately() {
        let mut p = OraclePolicy::new(BTreeMap::new());
        let q = master(&[], &[], &[]);
        let stats = CategoryStats::new();
        let (action, _) = p.decide(&ctx(&q, &stats, &[], 5));
        assert_eq!(action, ScaleAction::DrainWorkers(5));
    }

    #[test]
    fn oracle_counts_held_jobs_with_truth() {
        let mut req = BTreeMap::new();
        req.insert("dd".to_string(), Resources::cores(1, 1_000, 15_000));
        let mut p = OraclePolicy::new(req);
        let q = waiting_queue("dd", 0);
        let stats = CategoryStats::new();
        let held = vec![(CAT0, 6)];
        // 15 GB disk → 3 per 50 GB worker → 2 workers.
        let (action, _) = p.decide(&ctx(&q, &stats, &held, 0));
        assert_eq!(action, ScaleAction::CreateWorkers(2));
    }

    #[test]
    fn oracle_respects_quota_and_cleanup() {
        let mut req = BTreeMap::new();
        req.insert("x".to_string(), unit());
        let mut p = OraclePolicy::new(req);
        let q = waiting_queue("x", 100);
        let stats = CategoryStats::new();
        let (action, _) = p.decide(&ctx(&q, &stats, &[], 0));
        assert_eq!(action, ScaleAction::CreateWorkers(20), "quota-clamped");
        let mut done = ctx(&q, &stats, &[], 7);
        done.workload_done = true;
        let (action, _) = p.decide(&done);
        assert_eq!(action, ScaleAction::DrainWorkers(7));
        assert_eq!(p.desired(), 0);
    }
}
