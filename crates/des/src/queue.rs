//! The future event list.
//!
//! A binary heap keyed by `(time, sequence)`. The sequence number makes the
//! order of same-timestamp events equal to their scheduling order, which is
//! what makes whole-system runs byte-for-byte reproducible: two events
//! scheduled for the same millisecond are always delivered FIFO.
//!
//! Beside the heap the queue keeps one built-in periodic timer
//! ([`EventQueue::every`]). It fires in the same `(time, sequence)` order
//! as an event that re-schedules itself on every delivery, without a
//! heap push and pop per firing.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{Duration, SimTime};

/// An event with its delivery time and tie-breaking sequence number.
#[derive(Debug, Clone)]
pub struct Scheduled<E> {
    /// Delivery instant.
    pub at: SimTime,
    /// Scheduling order, used to break ties deterministically.
    pub seq: u64,
    /// The payload.
    pub event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    /// Reversed so that the `BinaryHeap` (a max-heap) pops the *earliest*
    /// `(at, seq)` pair first.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The periodic timer: its next firing, stamped like a scheduled event,
/// and the gap between firings.
#[derive(Debug, Clone)]
struct Periodic<E> {
    next: Scheduled<E>,
    interval: Duration,
}

/// Deterministic future event list.
///
/// The queue tracks the current simulated time: popping an event advances
/// the clock to the event's timestamp. Scheduling into the past is a logic
/// error and panics in debug builds (it silently clamps to `now` in release
/// builds, which keeps long experiment sweeps robust against millisecond
/// rounding at the edges of the fluid-flow transfer model).
/// Cloning an `EventQueue` (possible whenever the event payload is
/// `Clone`) yields an independent future event list with identical
/// contents, clock, sequence counter and timer — the basis of
/// snapshot/fork.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    /// The armed periodic timer, if any; it counts as one pending event.
    timer: Option<Periodic<E>>,
    now: SimTime,
    seq: u64,
    delivered: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at t = 0.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            timer: None,
            now: SimTime::ZERO,
            seq: 0,
            delivered: 0,
        }
    }

    /// Current simulated time (timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events delivered so far.
    #[inline]
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of events still pending (an armed timer counts as one).
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len() + usize::from(self.timer.is_some())
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.timer.is_none()
    }

    /// Schedule `event` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: Duration, event: E) {
        let at = self.now + delay;
        self.push_at(at, event);
    }

    /// Schedule `event` at an absolute instant.
    ///
    /// Debug builds panic when `at < now`; release builds clamp to `now`.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduled event into the past: at={:?} now={:?}",
            at,
            self.now
        );
        let at = at.max(self.now);
        self.push_at(at, event);
    }

    /// Arm the periodic timer: `event` fires `first_delay` after the
    /// current time and then every `interval`.
    ///
    /// Each firing is delivered exactly as if the event were scheduled
    /// with [`schedule_in`](Self::schedule_in) now and re-scheduled with
    /// `schedule_in(interval, event)` as the first thing after each
    /// delivery: a firing takes the next sequence number when the one
    /// before it is popped. The queue holds one timer; it runs until
    /// [`clear`](Self::clear).
    pub fn every(&mut self, first_delay: Duration, interval: Duration, event: E) {
        assert!(self.timer.is_none(), "the periodic timer is already armed");
        assert!(!interval.is_zero(), "a periodic timer needs an interval");
        let at = self.now + first_delay;
        let seq = self.next_seq();
        self.timer = Some(Periodic {
            next: Scheduled { at, seq, event },
            interval,
        });
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    fn push_at(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq();
        self.heap.push(Scheduled { at, seq, event });
    }

    /// Timestamp of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let heap = self.heap.peek().map(|s| s.at);
        match &self.timer {
            Some(t) => Some(heap.map_or(t.next.at, |h| h.min(t.next.at))),
            None => heap,
        }
    }

    /// True when the timer's firing is the next event in `(time, seq)`
    /// order.
    #[inline]
    fn timer_is_next(&self) -> bool {
        match (&self.timer, self.heap.peek()) {
            (Some(t), Some(h)) => (t.next.at, t.next.seq) < (h.at, h.seq),
            (Some(_), None) => true,
            (None, _) => false,
        }
    }

    /// Drop every pending event and disarm the timer (used by experiment
    /// teardown).
    pub fn clear(&mut self) {
        self.heap.clear();
        self.timer = None;
    }
}

impl<E: Clone> EventQueue<E> {
    /// Pop the next event, advancing the clock to its timestamp. A timer
    /// firing re-arms the timer one interval later.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (at, event) = if self.timer_is_next() {
            let seq = self.next_seq();
            let t = self.timer.as_mut().expect("the timer is next");
            let at = t.next.at;
            t.next.at = at + t.interval;
            t.next.seq = seq;
            (at, t.next.event.clone())
        } else {
            let s = self.heap.pop()?;
            (s.at, s.event)
        };
        debug_assert!(at >= self.now, "event queue time went backwards");
        self.now = at;
        self.delivered += 1;
        Some((at, event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(30), "c");
        q.schedule_at(SimTime::from_millis(10), "a");
        q.schedule_at(SimTime::from_millis(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn same_timestamp_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(SimTime::from_millis(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_in(Duration::from_secs(2), ());
        assert_eq!(q.now(), SimTime::ZERO);
        let (at, _) = q.pop().unwrap();
        assert_eq!(at, SimTime::from_secs(2));
        assert_eq!(q.now(), SimTime::from_secs(2));
        assert_eq!(q.delivered(), 1);
    }

    #[test]
    fn relative_scheduling_is_from_current_time() {
        let mut q = EventQueue::new();
        q.schedule_in(Duration::from_secs(1), 1u32);
        q.pop().unwrap();
        q.schedule_in(Duration::from_secs(1), 2u32);
        let (at, e) = q.pop().unwrap();
        assert_eq!(e, 2);
        assert_eq!(at, SimTime::from_secs(2));
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        q.schedule_in(Duration::ZERO, ());
        q.schedule_in(Duration::ZERO, ());
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn timer_fires_like_a_self_rescheduling_event() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(1_000), "a");
        q.every(Duration::ZERO, Duration::from_secs(1), "tick");
        // Scheduled after the timer was armed, but before its second
        // firing took a sequence number: the tick at 1 s comes after it.
        q.schedule_at(SimTime::from_millis(1_000), "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(SimTime::ZERO));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).take(6).collect();
        let ms = |t: u64| SimTime::from_millis(t);
        assert_eq!(
            order,
            vec![
                (ms(0), "tick"),
                (ms(1_000), "a"),
                (ms(1_000), "b"),
                (ms(1_000), "tick"),
                (ms(2_000), "tick"),
                (ms(3_000), "tick"),
            ]
        );
        assert_eq!(q.delivered(), 6);
        assert_eq!(q.len(), 1);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    #[should_panic(expected = "scheduled event into the past")]
    #[cfg(debug_assertions)]
    fn scheduling_into_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), ());
        q.pop().unwrap();
        q.schedule_at(SimTime::from_secs(1), ());
    }
}
