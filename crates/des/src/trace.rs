//! Bounded simulation trace.
//!
//! A fixed-capacity ring of timestamped strings. Components push trace lines
//! as they process events; when an experiment misbehaves the tail of the
//! ring explains the last few thousand transitions without the memory cost
//! of logging multi-hour simulations in full.

use std::collections::VecDeque;
use std::fmt::Write as _;

use crate::time::SimTime;

/// One trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// When the traced transition happened.
    pub at: SimTime,
    /// Component name (static, e.g. `"cluster"`, `"wq"`, `"hta"`).
    pub component: &'static str,
    /// Human-readable description of the transition.
    pub message: String,
}

/// Fixed-capacity trace ring.
#[derive(Debug, Clone)]
pub struct TraceRing {
    entries: VecDeque<TraceEntry>,
    capacity: usize,
    enabled: bool,
    dropped: u64,
}

impl TraceRing {
    /// Create a ring that keeps the most recent `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            entries: VecDeque::with_capacity(capacity.min(4096)),
            capacity: capacity.max(1),
            enabled: true,
            dropped: 0,
        }
    }

    /// A disabled ring: `push` becomes a no-op. Useful for benchmark runs.
    pub fn disabled() -> Self {
        let mut r = TraceRing::new(1);
        r.enabled = false;
        r
    }

    /// Whether tracing is currently recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record one entry, evicting the oldest when full.
    pub fn push(&mut self, at: SimTime, component: &'static str, message: String) {
        if !self.enabled {
            return;
        }
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back(TraceEntry {
            at,
            component,
            message,
        });
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of entries evicted since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterate retained entries oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter()
    }

    /// Render the retained tail as one string (one line per entry).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            let _ = writeln!(
                out,
                "[{:>10.3}] {:<8} {}",
                e.at.as_secs_f64(),
                e.component,
                e.message
            );
        }
        out
    }
}

impl Default for TraceRing {
    fn default() -> Self {
        TraceRing::new(8192)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_only_most_recent() {
        let mut ring = TraceRing::new(3);
        for i in 0..5u64 {
            ring.push(SimTime::from_millis(i), "t", format!("e{i}"));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let msgs: Vec<_> = ring.iter().map(|e| e.message.as_str()).collect();
        assert_eq!(msgs, vec!["e2", "e3", "e4"]);
    }

    #[test]
    fn disabled_ring_records_nothing() {
        let mut ring = TraceRing::disabled();
        ring.push(SimTime::ZERO, "t", "x".into());
        assert!(ring.is_empty());
    }

    #[test]
    fn render_contains_component_and_time() {
        let mut ring = TraceRing::new(8);
        ring.push(SimTime::from_secs(2), "cluster", "node ready".into());
        let s = ring.render();
        assert!(s.contains("cluster"));
        assert!(s.contains("2.000"));
        assert!(s.contains("node ready"));
    }
}
