//! Property tests for the event queue: global time ordering and FIFO
//! delivery within a timestamp — the invariants deterministic replay
//! rests on — and a periodic timer that is indistinguishable from a
//! self-rescheduling event.

use hta_des::{Duration, SimTime};
use proptest::prelude::*;

#[expect(clippy::disallowed_types, reason = "the queue's own property tests")]
type Queue<E> = hta_des::EventQueue<E>;

proptest! {
    /// Events always pop in non-decreasing time order, regardless of the
    /// scheduling order.
    #[test]
    fn pops_are_time_ordered(times in proptest::collection::vec(0u64..100_000, 1..300)) {
        let mut q = Queue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_millis(*t), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((at, _)) = q.pop() {
            prop_assert!(at >= last, "time went backwards");
            last = at;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    /// Among events sharing a timestamp, delivery order equals scheduling
    /// order (stable FIFO ties).
    #[test]
    fn ties_are_fifo(groups in proptest::collection::vec((0u64..50, 1usize..6), 1..40)) {
        let mut q = Queue::new();
        let mut seq = 0usize;
        for (t, n) in &groups {
            for _ in 0..*n {
                q.schedule_at(SimTime::from_millis(*t), seq);
                seq += 1;
            }
        }
        // Collect per-timestamp sequences; each must be increasing.
        let mut per_time: std::collections::BTreeMap<u64, Vec<usize>> = Default::default();
        while let Some((at, payload)) = q.pop() {
            per_time.entry(at.as_millis()).or_default().push(payload);
        }
        for (t, seqs) in per_time {
            let mut sorted = seqs.clone();
            sorted.sort_unstable();
            prop_assert_eq!(&seqs, &sorted, "non-FIFO at t={}", t);
        }
    }

    /// Relative scheduling (`schedule_in`) after pops lands at
    /// `now + delay` exactly.
    #[test]
    fn relative_delays_accumulate(delays in proptest::collection::vec(1u64..10_000, 1..100)) {
        let mut q = Queue::new();
        let mut expect = 0u64;
        q.schedule_in(Duration::from_millis(delays[0]), 0usize);
        for (i, d) in delays.iter().enumerate().skip(1) {
            let (at, _) = q.pop().unwrap();
            expect += delays[i - 1];
            prop_assert_eq!(at.as_millis(), expect);
            q.schedule_in(Duration::from_millis(*d), i);
        }
        let (at, _) = q.pop().unwrap();
        expect += delays[delays.len() - 1];
        prop_assert_eq!(at.as_millis(), expect);
        prop_assert!(q.is_empty());
    }

    /// Random schedules interleaved with the built-in periodic timer give
    /// the same deliveries, clock, counters and next-event time as a twin
    /// queue whose tick re-schedules itself from the heap on every pop,
    /// also across `clone()` and `clear()`.
    #[test]
    fn timer_matches_a_self_rescheduling_twin(
        ops in proptest::collection::vec(arb_op(), 1..400),
        interval in 1u64..30,
    ) {
        let interval = Duration::from_millis(interval * GRID);
        let mut q = Queue::new();
        let mut twin = Queue::new();
        let mut armed = false;
        let mut next = 0u32;
        for op in ops {
            match op {
                Op::At(delay) => {
                    let at = q.now() + Duration::from_millis(delay);
                    q.schedule_at(at, Some(next));
                    twin.schedule_at(at, Some(next));
                    next += 1;
                }
                Op::In(delay) => {
                    q.schedule_in(Duration::from_millis(delay), Some(next));
                    twin.schedule_in(Duration::from_millis(delay), Some(next));
                    next += 1;
                }
                Op::Arm(first) if !armed => {
                    q.every(Duration::from_millis(first), interval, None);
                    twin.schedule_in(Duration::from_millis(first), None);
                    armed = true;
                }
                Op::Arm(_) => {}
                Op::Pop => {
                    let got = q.pop();
                    let want = twin.pop();
                    if let Some((_, None)) = want {
                        twin.schedule_in(interval, None);
                    }
                    prop_assert_eq!(got, want);
                }
                Op::Fork => {
                    q = q.clone();
                    twin = twin.clone();
                }
                Op::Clear => {
                    q.clear();
                    twin.clear();
                    armed = false;
                }
            }
            prop_assert_eq!(q.now(), twin.now());
            prop_assert_eq!(q.delivered(), twin.delivered());
            prop_assert_eq!(q.len(), twin.len());
            prop_assert_eq!(q.is_empty(), twin.is_empty());
            prop_assert_eq!(q.peek_time(), twin.peek_time());
        }
    }
}

/// One step of `timer_matches_a_self_rescheduling_twin`; delays are in
/// milliseconds.
#[derive(Debug, Clone)]
enum Op {
    At(u64),
    In(u64),
    Arm(u64),
    Pop,
    Fork,
    Clear,
}

/// Ticks and most events fall on a 100 ms grid, so many share a
/// millisecond and only the sequence number orders them.
const GRID: u64 = 100;

fn arb_op() -> impl Strategy<Value = Op> {
    (0u32..16, 0u64..5_000).prop_map(|(kind, v)| match kind {
        0..=1 => Op::At(v / GRID * GRID),
        2 => Op::At(v),
        3..=4 => Op::In(v % 3),
        5 => Op::Arm(v % 2_000 / GRID * GRID),
        6 => Op::Fork,
        7 => Op::Clear,
        _ => Op::Pop,
    })
}
