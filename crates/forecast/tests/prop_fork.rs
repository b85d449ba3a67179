//! Fork-determinism properties: the guarantees the whole forecast
//! subsystem stands on, pinned against the event digest.
//!
//! 1. **Parent isolation** — forking any number of branches at any
//!    point leaves the parent's own event stream *bitwise* identical to
//!    never having forked (same `DigestReport`, event for event).
//! 2. **Branch reproducibility** — the same `BranchSpec` from the same
//!    decision point reports the same `BranchOutcome`, field for field.
//! 3. **Salt-0 fidelity** — a no-action branch on salt 0 replays the
//!    parent's own stochastic future: its completion delta equals what
//!    the parent actually goes on to do over the same window.
//! 4. **Batch fidelity** — the world a deciding policy is handed reports
//!    for a `branch_all` batch, which it may run on several threads,
//!    bitwise what its `branch` reports for each spec in turn, and the
//!    batch leaves the parent's event stream untouched.

use std::sync::{Arc, Mutex};

use hta_core::driver::{DriverConfig, SystemDriver};
use hta_core::whatif::{BranchOutcome, BranchSpec, WhatIf};
use hta_core::{
    FixedPolicy, HoldPolicy, OperatorConfig, PolicyContext, ScaleAction, ScalingPolicy,
};
use hta_des::{branch_salt, DigestConfig, Duration, SimTime};
use hta_workloads::{blast_multistage, MultistageParams};
use proptest::prelude::*;

fn workload() -> hta_makeflow::Workflow {
    blast_multistage(&MultistageParams {
        stage_tasks: vec![10, 4],
        ..MultistageParams::default()
    })
}

fn cfg_of(seed: u64) -> DriverConfig {
    DriverConfig {
        operator: OperatorConfig {
            warmup: true,
            trust_declared: false,
            learn: true,
            seed,
        },
        ..DriverConfig::default()
    }
}

fn driver(seed: u64, fixed_pool: usize) -> SystemDriver {
    let policy = if fixed_pool > 0 {
        Box::new(FixedPolicy::new(fixed_pool)) as Box<dyn ScalingPolicy>
    } else {
        Box::new(HoldPolicy)
    };
    SystemDriver::new(cfg_of(seed), workload(), policy)
}

fn digest_cfg() -> DigestConfig {
    DigestConfig {
        checkpoint_every: 64,
        capture: None,
    }
}

fn spec(salt: u64, action: ScaleAction, horizon_s: u64) -> BranchSpec {
    BranchSpec {
        salt,
        initial_action: action,
        horizon: Duration::from_secs(horizon_s),
        max_events: 200_000,
    }
}

/// What a [`BatchProbe`] saw: the batch's outcomes, then the same specs'
/// one by one.
type Seen = Arc<Mutex<Option<(Vec<BranchOutcome>, Vec<BranchOutcome>)>>>;

/// `FixedPolicy(3)`, except that its first decision at or after `at`
/// also hands `specs` to its world as one batch and then one by one.
#[derive(Clone)]
struct BatchProbe {
    inner: FixedPolicy,
    at: SimTime,
    specs: Vec<BranchSpec>,
    seen: Seen,
}

impl ScalingPolicy for BatchProbe {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn decide(&mut self, ctx: &PolicyContext<'_>) -> (ScaleAction, Duration) {
        self.inner.decide(ctx)
    }

    fn desired(&self) -> usize {
        self.inner.desired()
    }

    fn clone_box(&self) -> Box<dyn ScalingPolicy> {
        Box::new(self.clone())
    }

    fn decide_with_world(
        &mut self,
        ctx: &PolicyContext<'_>,
        world: &dyn WhatIf,
    ) -> (ScaleAction, Duration) {
        let mut seen = self.seen.lock().expect("one run per probe");
        if seen.is_none() && ctx.now >= self.at {
            let batch = world.branch_all(&self.specs);
            let one_by_one = self.specs.iter().map(|s| world.branch(s)).collect();
            *seen = Some((batch, one_by_one));
        }
        self.inner.decide(ctx)
    }
}

/// Outcomes equal field by field, their floats bit for bit.
fn same_outcomes(a: &[BranchOutcome], b: &[BranchOutcome]) -> bool {
    let bits = |o: &BranchOutcome| (o.elapsed_s.to_bits(), o.cost_core_s.to_bits());
    a == b && a.iter().map(bits).eq(b.iter().map(bits))
}

fn arb_action() -> impl Strategy<Value = ScaleAction> {
    (0usize..8).prop_map(|k| match k {
        0 | 1 => ScaleAction::None,
        2..=4 => ScaleAction::CreateWorkers(k - 1), // 1..=3
        _ => ScaleAction::DrainWorkers(k - 4),      // 1..=3
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property 1: fork at a random mid-run time, any salt/action mix —
    /// the parent's completed run digests bitwise identically to a twin
    /// that never forked.
    #[test]
    fn forking_never_perturbs_the_parent_digest(
        seed in 1u64..50,
        fork_at in 20u64..1_200,
        salt in 1u64..u64::MAX,
        action in arb_action(),
        horizon_s in 30u64..900,
    ) {
        let fork_time = SimTime::ZERO + Duration::from_secs(fork_at);

        let clean = driver(seed, 3).with_digest(digest_cfg()).run();
        let clean_digest = clean.digest.expect("digest recorded");

        let mut forked = driver(seed, 3).with_digest(digest_cfg());
        forked.advance_until(fork_time);
        // Several branches, including the parent-replay salt 0: none may
        // leak a single event back into the parent.
        for s in [salt, branch_salt(salt, 1), 0] {
            let _ = forked.branch(&spec(s, action, horizon_s));
        }
        let forked = forked.run();
        let forked_digest = forked.digest.expect("digest recorded");

        prop_assert!(!clean.timed_out && !forked.timed_out);
        prop_assert_eq!(
            clean_digest.first_divergence(&forked_digest),
            None,
            "forking perturbed the parent event stream"
        );
        prop_assert!(clean_digest.matches(&forked_digest));
    }

    /// Property 2: identical `BranchSpec`s from the same decision point
    /// report identical outcomes — branch evaluation is a pure function
    /// of (parent state, spec).
    #[test]
    fn same_salt_forks_agree(
        seed in 1u64..50,
        fork_at in 20u64..1_200,
        salt in 0u64..u64::MAX,
        action in arb_action(),
    ) {
        let mut parent = driver(seed, 3);
        parent.advance_until(SimTime::ZERO + Duration::from_secs(fork_at));
        let s = spec(salt, action, 300);
        let a = parent.branch(&s);
        let b = parent.branch(&s);
        prop_assert_eq!(a, b, "same spec, same point, different outcome");
    }

    /// Property 3: a salt-0 no-action branch *is* the parent's future —
    /// its completion delta matches what the parent then actually does
    /// over the identical window.
    #[test]
    fn salt_zero_branch_replays_the_parent(
        seed in 1u64..50,
        fork_at in 20u64..1_000,
        horizon_s in 60u64..900,
    ) {
        let mut parent = driver(seed, 3);
        let fork_time = SimTime::ZERO + Duration::from_secs(fork_at);
        parent.advance_until(fork_time);
        let outcome = parent.branch(&spec(0, ScaleAction::None, horizon_s));
        let before = parent.completed_tasks();
        parent.advance_until(fork_time + Duration::from_secs(horizon_s));
        let parent_delta = parent.completed_tasks() - before;
        prop_assert_eq!(
            outcome.completed_delta, parent_delta,
            "salt-0 branch diverged from the parent's own future"
        );
    }

    /// Property 4: at a random decision, a batch of every `ScaleAction`
    /// kind reports bitwise the outcomes of sequential `branch` calls,
    /// in spec order, and the run digests bitwise like a twin that never
    /// branched.
    #[test]
    fn a_batch_matches_sequential_branches(
        seed in 1u64..50,
        fork_at in 20u64..1_200,
        salt in 1u64..u64::MAX,
        n in 1usize..4,
        horizon_s in 30u64..900,
    ) {
        let actions = [
            ScaleAction::None,
            ScaleAction::CreateWorkers(n),
            ScaleAction::DrainWorkers(n),
            ScaleAction::KillWorkers(n),
        ];
        let specs: Vec<BranchSpec> = actions
            .iter()
            .enumerate()
            .map(|(i, &a)| spec(branch_salt(salt, i as u64), a, horizon_s))
            .collect();
        let seen = Seen::default();
        let probe = BatchProbe {
            inner: FixedPolicy::new(3),
            at: SimTime::ZERO + Duration::from_secs(fork_at),
            specs,
            seen: seen.clone(),
        };
        let probed = SystemDriver::new(cfg_of(seed), workload(), Box::new(probe))
            .with_digest(digest_cfg())
            .run();
        let clean = driver(seed, 3).with_digest(digest_cfg()).run();
        prop_assert!(!clean.timed_out && !probed.timed_out);
        let (clean, probed) = (clean.digest.unwrap(), probed.digest.unwrap());
        prop_assert_eq!(clean.first_divergence(&probed), None, "a batch perturbed the parent");
        prop_assert!(clean.matches(&probed));
        let seen = seen.lock().unwrap().take();
        let Some((batch, one_by_one)) = seen else {
            // The run ended before the fork point: nothing to compare.
            return Ok(());
        };
        prop_assert_eq!(batch.len(), 4);
        prop_assert!(same_outcomes(&batch, &one_by_one), "{:?} vs {:?}", batch, one_by_one);
    }
}
