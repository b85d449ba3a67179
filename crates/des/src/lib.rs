//! # hta-des — discrete-event simulation kernel
//!
//! The HTA reproduction replaces the paper's real Google Kubernetes Engine
//! testbed with a deterministic discrete-event simulation. This crate is the
//! kernel every other crate builds on:
//!
//! * [`SimTime`] / [`Duration`] — millisecond-resolution simulated time,
//! * [`EventQueue`] — a stable (FIFO-within-timestamp) future event list,
//! * [`SimRng`] — a seeded random source with the distribution samplers the
//!   model needs (normal via Box–Muller, lognormal, uniform),
//! * [`trace`] — a bounded in-memory trace ring for debugging simulations,
//! * [`Backoff`] — a capped exponential retry schedule with jitter, shared
//!   by every layer's transient-fault handling,
//! * [`NetChannel`] — a seeded lossy message channel (delay, loss,
//!   duplication, reordering, scheduled partitions) modeling the network
//!   under the control plane,
//! * [`SnapshotState`] — checkpoint/fork capability with partitioned RNG
//!   streams, the basis of the what-if forecasting subsystem,
//! * [`Wal`] / [`Checkpoint`] — write-ahead decision log + point-in-time
//!   snapshots, the substrate of control-plane crash recovery.
//!
//! Every component in the stack is written as a *pure state machine*: it
//! consumes an event at a known `now` and returns follow-up events with
//! non-negative delays. The kernel guarantees deterministic replay: events
//! scheduled for the same instant are delivered in scheduling order.
//!
//! # Example
//!
//! ```
//! use hta_des::{Duration, EventQueue, SimRng, SimTime};
//!
//! let mut queue: EventQueue<&str> = EventQueue::new();
//! queue.schedule_in(Duration::from_secs(5), "pod ready");
//! queue.schedule_at(SimTime::from_secs(2), "image pulled");
//!
//! let (at, event) = queue.pop().unwrap();
//! assert_eq!((at, event), (SimTime::from_secs(2), "image pulled"));
//! assert_eq!(queue.now(), SimTime::from_secs(2));
//!
//! // Deterministic, seeded randomness for latency models:
//! let mut rng = SimRng::seed_from_u64(42);
//! let latency = rng.normal_duration(Duration::from_secs(157), Duration::from_secs(4));
//! assert!(latency.as_secs_f64() > 100.0);
//! ```

pub mod backoff;
pub mod channel;
pub mod intern;
pub mod queue;
pub mod rng;
pub mod sanitize;
pub mod sink;
pub mod snapshot;
pub mod time;
pub mod trace;
pub mod wal;

pub use backoff::Backoff;
pub use channel::{ChanDir, ChannelStats, Delivery, NetChannel, NetworkFaults, Partition};
pub use intern::{CategoryId, Interner};
pub use queue::{EventQueue, Scheduled};
pub use rng::SimRng;
pub use sanitize::{DigestConfig, DigestReport, Divergence, EventDigest};
pub use sink::EffectSink;
pub use snapshot::{branch_salt, SnapshotState};
pub use time::{Duration, SimTime};
pub use wal::{Checkpoint, Wal};
