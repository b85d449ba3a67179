//! # hta-bench — the experiment harness
//!
//! One binary per table/figure of the paper (run with
//! `cargo run --release -p hta-bench --bin figN`), plus Criterion benches
//! over the simulation engine and scaled-down end-to-end experiments.
//!
//! [`experiments`] holds the configuration of every evaluation setup so
//! the binaries, integration tests and Criterion benches share one source
//! of truth; [`report`] holds the paper-vs-measured table printer.
//!
//! Parallel sweeps map each configuration to its own seeded run and
//! collect the results in input order:
//!
//! ```
//! use rayon::prelude::*;
//! let xs = vec![1.0f64, 2.0, 3.0];
//! let doubled: Vec<f64> = xs.par_iter().map(|x| x * 2.0).collect();
//! assert_eq!(doubled, [2.0, 4.0, 6.0]);
//! ```
//!
//! A parallel reduction would combine results in scheduling order, so the
//! vendored `rayon` has none; neither of these compiles:
//!
//! ```compile_fail,E0599
//! use rayon::prelude::*;
//! let xs = vec![1.0f64, 2.0, 3.0];
//! let _: f64 = xs.par_iter().map(|x| x * 2.0).sum();
//! ```
//!
//! ```compile_fail,E0599
//! use rayon::prelude::*;
//! let xs = vec![1.0f64, 2.0, 3.0];
//! let _ = xs.par_iter().map(|x| x * 2.0).reduce(|| 0.0, |a, b| a + b);
//! ```

pub mod experiments;
pub mod perf;
pub mod report;
pub mod results;

pub use experiments::*;
pub use report::{print_series_chart, PaperRow, ReportTable};
pub use results::{load_all, save, FigureResult};
