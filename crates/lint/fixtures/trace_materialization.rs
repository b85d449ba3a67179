//! Lint fixture: trace-unbounded-materialization — the streaming trace
//! crate holds O(in-flight) memory for arbitrarily long traces, so
//! collecting the arrival stream or pre-sizing a buffer from a runtime
//! task count is a contract violation. Scanned by `tests/fixtures.rs`
//! under a `crates/trace/src/` path. Never compiled.

// Positive: collecting the stream materializes every remaining
// arrival at once.
fn eager(arrivals: ArrivalSource) -> Vec<(f64, TaskSpec)> {
    arrivals.collect()
}

// Positive: the turbofish form is the same hazard.
fn eager_turbofish(arrivals: ArrivalSource) -> Vec<(f64, TaskSpec)> {
    arrivals.into_iter().collect::<Vec<_>>()
}

// Positive: a buffer sized by the trace's task count grows with the
// trace, not with the in-flight window.
fn presized(total_tasks: usize) -> Vec<TaskSpec> {
    Vec::with_capacity(total_tasks)
}

// Negative: a literal capacity is a fixed-size buffer — the lookahead
// window is exactly this shape.
fn lookahead() -> Vec<TaskSpec> {
    Vec::with_capacity(64)
}

// Negative: plain iteration drains the stream one arrival at a time.
fn streamed(arrivals: &mut ArrivalSource, now: f64) -> usize {
    let mut n = 0;
    while let Some(spec) = arrivals.pop_due(now) {
        submit(spec);
        n += 1;
    }
    n
}
