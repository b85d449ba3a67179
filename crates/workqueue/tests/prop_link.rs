//! Property tests for the fair-share link: bytes are conserved, every
//! flow eventually completes, and the overhead model is monotone.

use hta_des::SimTime;
use hta_workqueue::{FairShareLink, FlowId};
use proptest::prelude::*;

proptest! {
    /// Whatever the flow sizes and advance cadence, every flow completes
    /// and the total simulated drain equals the total bytes offered.
    #[test]
    fn all_flows_complete_and_bytes_conserve(
        sizes in proptest::collection::vec(0.1f64..500.0, 1..20),
        base in 10.0f64..500.0,
        overhead in 0.0f64..0.2,
    ) {
        let mut link = FairShareLink::new(base, overhead);
        link.advance(SimTime::ZERO);
        for (i, mb) in sizes.iter().enumerate() {
            link.add_flow(SimTime::ZERO, FlowId(i as u64), *mb);
        }
        let mut now = SimTime::ZERO;
        let mut done = Vec::new();
        for _ in 0..10_000 {
            match link.next_completion_delay() {
                Some(d) => {
                    now += d;
                    link.advance(now);
                    link.take_completed(&mut done);
                }
                None => break,
            }
        }
        prop_assert_eq!(done.len(), sizes.len());
        prop_assert_eq!(link.active_flows(), 0);
        // Total time must be at least total_bytes / best_aggregate.
        let total_mb: f64 = sizes.iter().sum();
        let min_time = total_mb / base;
        prop_assert!(
            now.as_secs_f64() + 1e-6 >= min_time,
            "finished too fast: {} < {}",
            now.as_secs_f64(),
            min_time
        );
    }

    /// Aggregate throughput never increases with concurrency (the
    /// contention-overhead model is monotone non-increasing).
    #[test]
    fn aggregate_is_monotone_in_flows(base in 1.0f64..1000.0, overhead in 0.0f64..0.5) {
        let link = FairShareLink::new(base, overhead);
        let mut last = f64::INFINITY;
        for n in 1..50usize {
            let agg = link.aggregate_mbps(n);
            prop_assert!(agg <= last + 1e-9, "aggregate grew at n={n}");
            prop_assert!(agg > 0.0);
            last = agg;
        }
        prop_assert_eq!(link.aggregate_mbps(0), 0.0);
    }

    /// Cancelling flows mid-transfer never panics and frees capacity for
    /// the survivors (their completion comes no later than before).
    #[test]
    fn cancel_never_slows_survivors(
        keep_mb in 10.0f64..200.0,
        cancel_mb in 10.0f64..200.0,
    ) {
        let mut with_cancel = FairShareLink::new(50.0, 0.05);
        with_cancel.advance(SimTime::ZERO);
        with_cancel.add_flow(SimTime::ZERO, FlowId(0), keep_mb);
        with_cancel.add_flow(SimTime::ZERO, FlowId(1), cancel_mb);
        with_cancel.cancel_flow(SimTime::from_millis(100), FlowId(1));
        let d_cancel = with_cancel.next_completion_delay().unwrap();

        let mut alone = FairShareLink::new(50.0, 0.05);
        alone.advance(SimTime::ZERO);
        alone.add_flow(SimTime::ZERO, FlowId(0), keep_mb);
        alone.advance(SimTime::from_millis(100));
        let d_alone = alone.next_completion_delay().unwrap();
        // The survivor shared the link for 100 ms, so it is at most that
        // much behind the flow that was alone the whole time.
        prop_assert!(
            d_cancel.as_millis() <= d_alone.as_millis() + 200,
            "cancel slowed survivor: {:?} vs {:?}",
            d_cancel,
            d_alone
        );
    }
}
