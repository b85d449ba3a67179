//! `hta-trace` — streaming workload traces for open-loop arrivals.
//!
//! Every workload the repo had before this crate was an
//! `hta_makeflow::Workflow`, fully materialized before the run starts.
//! That caps experiments at a few hundred tasks and cannot exercise the
//! "millions of users submitting work" regime high-throughput pools
//! actually face. This crate adds the missing layer: a **trace** is a
//! lazy, seeded generator yielding `(arrival_time, TaskSpec)` events one
//! at a time.
//!
//! # Contract
//!
//! * **Laziness / bounded memory** — a trace never materializes the
//!   whole workload. Generator state is O(1) (synthetic) or O(file bins)
//!   (Azure adapter); the driver-facing [`ArrivalSource`] buffers at
//!   most [`source::LOOKAHEAD`] pre-drawn events. The
//!   `trace-unbounded-materialization` lint rule enforces this inside
//!   `crates/trace/src`.
//! * **Determinism** — all randomness flows through partitioned
//!   [`hta_des::SimRng`] streams forked off the trace seed. Same seed ⇒
//!   bitwise-identical event stream.
//! * **Snapshot/fork** — every generator is plain owned data and
//!   implements [`hta_des::SnapshotState`]: a salt-0 fork replays the
//!   remainder of the trace exactly; non-zero salts re-partition each
//!   stream with distinct [`hta_des::snapshot::branch_salt`] indices.
//! * **Category table** — a spec carries its category's index in
//!   [`ArrivalSource::categories`] as its [`hta_des::CategoryId`]; the
//!   driver interns that table, in order, before the first arrival.
//! * **Cursor-in-checkpoint** — the control plane checkpoints the whole
//!   [`ArrivalSource`] (cursor + RNG states + lookahead buffer), and WAL
//!   replay advances the restored cursor one event per logged
//!   submission instead of re-drawing randomness.
//!
//! # Sources
//!
//! * [`synth`] — composable synthetic generator: homogeneous Poisson,
//!   Markov-modulated bursts and diurnal intensity modulation
//!   ([`arrival`]), with weighted category mixes and heavy-tailed
//!   (lognormal/Pareto) wall times. Presets include the million-task
//!   `blast-1m`.
//! * [`azure`] — Azure-Functions-style adapter parsing per-minute
//!   invocation-count + duration-percentile CSVs into the same
//!   interface.

pub mod arrival;
pub mod azure;
pub mod source;
pub mod synth;

pub use arrival::{ArrivalProcess, BurstRegime, Diurnal};
pub use azure::AzureTrace;
pub use source::{ArrivalSource, ArrivalStats, TraceKind};
pub use synth::{SynthConfig, SynthTrace, WallDist};
