//! Allocation-free effect collection for state-machine handlers.
//!
//! Every component handler (`handle(now, event, &mut sink)`) and API
//! mutation pushes its `(delay, event)` effects into an [`EffectSink`]
//! rather than returning a fresh `Vec` per call, which would allocate
//! for every event although most produce zero or one follow-up. The
//! caller owns one sink per component for the lifetime of the run and
//! drains it into its event queue after each call. The buffer is reused
//! across events, so steady-state dispatch performs no allocation at all.
//!
//! The sink is deliberately a plain buffer rather than a queue
//! reference: drivers wrap component events into their own global event
//! enum (e.g. `Event::Wq(e)`) before scheduling, which a same-typed
//! queue handle could not express.
//!
//! ```
//! use hta_des::{Duration, EffectSink, EventQueue};
//!
//! let mut queue: EventQueue<u32> = EventQueue::new();
//! let mut sink: EffectSink<u32> = EffectSink::new();
//! sink.push(Duration::from_secs(1), 7);
//! for (d, e) in sink.drain() {
//!     queue.schedule_in(d, e);
//! }
//! assert_eq!(queue.len(), 1);
//! ```

use crate::time::Duration;

/// A reusable buffer of `(delay, event)` effects.
#[derive(Debug, Clone)]
pub struct EffectSink<E> {
    effects: Vec<(Duration, E)>,
}

impl<E> EffectSink<E> {
    /// An empty sink.
    pub fn new() -> Self {
        EffectSink {
            effects: Vec::new(),
        }
    }

    /// An empty sink with room for `cap` effects before reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        EffectSink {
            effects: Vec::with_capacity(cap),
        }
    }

    /// Emit an effect: `event` fires `delay` after the current instant.
    pub fn push(&mut self, delay: Duration, event: E) {
        self.effects.push((delay, event));
    }

    /// Number of buffered effects.
    pub fn len(&self) -> usize {
        self.effects.len()
    }

    /// True when no effects are buffered.
    pub fn is_empty(&self) -> bool {
        self.effects.is_empty()
    }

    /// Drain the buffered effects in push order, keeping the allocation
    /// for reuse.
    pub fn drain(&mut self) -> std::vec::Drain<'_, (Duration, E)> {
        self.effects.drain(..)
    }
}

impl<E> Default for EffectSink<E> {
    fn default() -> Self {
        EffectSink::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_preserves_push_order_and_reuses_buffer() {
        let mut sink: EffectSink<u32> = EffectSink::new();
        sink.push(Duration::from_secs(2), 1);
        sink.push(Duration::from_secs(1), 2);
        let drained: Vec<_> = sink.drain().collect();
        assert_eq!(
            drained,
            vec![(Duration::from_secs(2), 1), (Duration::from_secs(1), 2)]
        );
        assert!(sink.is_empty());
        let cap = sink.effects.capacity();
        sink.push(Duration::ZERO, 3);
        assert_eq!(sink.effects.capacity(), cap, "allocation is reused");
    }
}
