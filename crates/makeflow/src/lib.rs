//! # hta-makeflow — a Makeflow-like DAG workflow manager
//!
//! Makeflow (Albrecht et al., SWEET 2012) is the workflow layer of the
//! paper's stack: workloads are Directed Acyclic Graphs written in a
//! GNU-Make-like syntax; Makeflow parses the description, tracks file
//! dependencies between jobs, and hands *ready* jobs (all inputs
//! produced) to the execution layer.
//!
//! This crate provides:
//!
//! * [`parser`] — the Makeflow-syntax parser: `targets : sources` rules
//!   with tab-indented commands, `VAR=value` assignments, `$(VAR)`
//!   substitution, and per-category resource/simulation directives;
//! * [`dag`] — the in-memory DAG with cycle detection and a ready set
//!   kept beside the job states (`ready_jobs` reads it in O(ready);
//!   `complete_job` also returns the newly unblocked jobs);
//! * [`category`] — job categories: jobs in one category are copies of
//!   the same program on different inputs, the property HTA's estimator
//!   exploits (§IV-A);
//! * [`workflow`] — the parsed bundle (DAG + category profiles).
//!
//! Because jobs do not actually execute in the simulation, each category
//! carries a [`category::SimProfile`] describing wall time, CPU fraction,
//! true resource footprint and data sizes; workload generators build these
//! programmatically and the parser accepts them as `SIM_*` variables.
//!
//! # Example
//!
//! ```
//! let text = "\
//! .SIZE db 100 cache
//! CATEGORY=align
//! SIM_WALL_SECS=90
//! out.0: db part.0
//! \talign part.0
//! out.1: db part.1
//! \talign part.1
//! result: out.0 out.1
//! \tmerge
//! ";
//! let mut wf = hta_makeflow::parse(text).unwrap();
//! assert_eq!(wf.len(), 3);
//! assert_eq!(wf.ready_jobs().len(), 2, "the two aligns are ready");
//!
//! let analysis = hta_makeflow::analyze(&wf);
//! assert_eq!(analysis.depth, 2);
//!
//! // Completing both aligns unblocks the merge.
//! for job in wf.ready_jobs() {
//!     wf.submit(job);
//!     wf.complete(job);
//! }
//! assert_eq!(wf.ready_jobs().len(), 1);
//! ```

pub mod analysis;
pub mod category;
pub mod dag;
pub mod emit;
pub mod job;
pub mod parser;
pub mod workflow;

pub use analysis::{analyze, DagAnalysis};
pub use category::{CategoryProfile, SimProfile};
pub use dag::Dag;
pub use emit::{emit, emit_to_file};
pub use job::{Job, JobId, JobState};
pub use parser::{parse, parse_file, ParseError};
pub use workflow::{SourceFile, Workflow};
