//! # hta-metrics — time series, integrals, summaries, export
//!
//! The paper's evaluation reports, for each autoscaler, the workload
//! execution time plus two definite integrals over the run: **accumulated
//! resource waste** and **accumulated resource shortage**, both in
//! core-seconds (Figs. 10c and 11c). It also plots time series of resource
//! supply vs. demand (Figs. 10b, 11b) and pod counts (Fig. 2).
//!
//! This crate provides the recording side: [`TimeSeries`] (step-function
//! samples with step integration, which matches how the quantities are
//! defined — supply/usage are piecewise constant between samples),
//! [`RunRecorder`] (the fixed set of series every experiment records),
//! summary extraction, CSV export and a small ASCII chart renderer used by
//! the figure binaries.
//!
//! # Example
//!
//! ```
//! use hta_metrics::TimeSeries;
//!
//! let mut supply = TimeSeries::new("supply_cores");
//! supply.push(0.0, 9.0);    // 9 cores for the first 100 s
//! supply.push(100.0, 60.0); // then 60 cores
//! assert_eq!(supply.value_at(50.0), Some(9.0));
//! // Step integral over [0, 200]: 9×100 + 60×100 core·s.
//! assert_eq!(supply.integral_until(200.0), 6_900.0);
//! ```

pub mod chart;
pub mod cost;
pub mod gantt;
pub mod histogram;
pub mod recorder;
pub mod series;

pub use chart::AsciiChart;
pub use cost::{bill, Bill, PriceBook};
pub use gantt::{render_gantt, TaskSpan};
pub use histogram::Histogram;
pub use recorder::{FaultSummary, RunRecorder, RunSummary, Sample};
pub use series::{StepIntegral, TimeSeries};
