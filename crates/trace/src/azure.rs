//! Azure-Functions-style trace adapter.
//!
//! Parses a CSV of per-minute invocation counts plus duration
//! percentiles into the same lazy trace interface as the synthetic
//! generator. Expected header and row shape:
//!
//! ```csv
//! function,minute,invocations,p50_ms,p99_ms
//! resize,0,120,250,900
//! thumbnail,0,40,80,200
//! resize,1,95,250,900
//! ```
//!
//! Each row is one *(function, minute)* bin: `invocations` arrivals of
//! `function` inside minute `minute` (0-based). Within a minute the
//! arrivals are spread at jittered-uniform offsets (`(k + u)/n` of the
//! minute, `u` uniform — monotone by construction, O(1) memory).
//! Overlapping functions in the same minute are merged by a min-offset
//! scan over the minute's active bins. Wall times are lognormal, fitted
//! to the bin's p50/p99 (`μ = ln p50`, `σ = ln(p99/p50) / z₉₉`).
//!
//! Memory is proportional to the number of *bins in the file* (and the
//! handful active within one minute) — never to the task count.

use std::collections::BTreeMap;

use hta_des::{CategoryId, Duration, Salt, SimRng, SimTime, SnapshotState};
use hta_resources::Resources;
use hta_workqueue::{ExecModel, TaskId, TaskSpec};
use serde::{Deserialize, Serialize};

/// 99th-percentile z-score of the standard normal.
const Z99: f64 = 2.326_347_874_040_841;

/// One `(function, minute)` bin of the trace file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AzureBin {
    /// The bin's function: an index into [`AzureConfig::functions`].
    pub function: u32,
    /// 0-based minute of the trace day.
    pub minute: u64,
    /// Invocations inside the minute.
    pub invocations: u64,
    /// Median duration (ms).
    pub p50_ms: f64,
    /// 99th-percentile duration (ms).
    pub p99_ms: f64,
}

/// Parsed trace file: bins sorted by `(minute, function name)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AzureConfig {
    /// Distinct function names in first-bin order — the category table.
    pub functions: Vec<String>,
    /// All bins, minute-major.
    pub bins: Vec<AzureBin>,
    /// Σ invocations — the task count the trace will emit.
    pub total_tasks: u64,
}

/// Parse the CSV text of an Azure-style trace file.
pub fn parse_csv(text: &str) -> Result<AzureConfig, String> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| "empty trace file".to_string())?;
    let expected = "function,minute,invocations,p50_ms,p99_ms";
    if header.trim() != expected {
        return Err(format!(
            "bad header {:?} (expected {expected:?})",
            header.trim()
        ));
    }
    let mut rows: Vec<(String, AzureBin)> = Vec::new();
    let mut total_tasks = 0u64;
    for (idx, line) in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let lineno = idx + 1;
        let mut fields = line.split(',');
        let mut field = |name: &str| {
            fields
                .next()
                .map(str::trim)
                .ok_or_else(|| format!("line {lineno}: missing field {name}"))
        };
        let function = field("function")?.to_string();
        if function.is_empty() {
            return Err(format!("line {lineno}: empty function name"));
        }
        let minute: u64 = field("minute")?
            .parse()
            .map_err(|_| format!("line {lineno}: bad minute"))?;
        let invocations: u64 = field("invocations")?
            .parse()
            .map_err(|_| format!("line {lineno}: bad invocation count"))?;
        let p50_ms: f64 = field("p50_ms")?
            .parse()
            .map_err(|_| format!("line {lineno}: bad p50_ms"))?;
        let p99_ms: f64 = field("p99_ms")?
            .parse()
            .map_err(|_| format!("line {lineno}: bad p99_ms"))?;
        if fields.next().is_some() {
            return Err(format!("line {lineno}: too many fields"));
        }
        if !(p50_ms.is_finite() && p50_ms > 0.0) {
            return Err(format!("line {lineno}: p50_ms must be positive"));
        }
        if !(p99_ms.is_finite() && p99_ms >= p50_ms) {
            return Err(format!("line {lineno}: p99_ms must be ≥ p50_ms"));
        }
        total_tasks += invocations;
        let bin = AzureBin {
            function: 0, // numbered below, once the bins are in order
            minute,
            invocations,
            p50_ms,
            p99_ms,
        };
        rows.push((function, bin));
    }
    if total_tasks == 0 {
        return Err("trace has no invocations".into());
    }
    rows.sort_by(|(fa, a), (fb, b)| (a.minute, fa).cmp(&(b.minute, fb)));
    let mut functions: Vec<String> = Vec::new();
    let mut index: BTreeMap<String, u32> = BTreeMap::new();
    let mut bins = Vec::new();
    for (name, mut bin) in rows {
        let next = u32::try_from(functions.len()).map_err(|_| "too many distinct functions")?;
        bin.function = *index.entry(name).or_insert_with_key(|name| {
            functions.push(name.clone());
            next
        });
        bins.push(bin);
    }
    Ok(AzureConfig {
        functions,
        bins,
        total_tasks,
    })
}

/// A bin currently emitting inside the active minute.
#[derive(Debug, Clone)]
struct ActiveBin {
    /// Index into `cfg.bins`.
    bin: usize,
    /// Arrivals emitted from this bin so far.
    emitted: u64,
    /// Offset of the bin's next arrival inside the minute (seconds).
    next_offset_s: f64,
}

/// Lazy generator over a parsed Azure-style trace.
#[derive(Debug, Clone)]
pub struct AzureTrace {
    cfg: AzureConfig,
    /// Next bin (in minute-major order) not yet activated.
    next_bin: usize,
    /// Bins of the minute currently being emitted.
    active: Vec<ActiveBin>,
    /// The active minute.
    minute: u64,
    /// Tasks emitted so far — the trace cursor.
    emitted: u64,
    /// Intra-minute offset jitter.
    offset_rng: SimRng,
    /// Wall-time draws.
    wall_rng: SimRng,
}

impl AzureTrace {
    /// Build a generator from a parsed config and a trace seed.
    pub fn new(cfg: AzureConfig, seed: u64) -> Self {
        let mut root = SimRng::seed_from_u64(seed);
        let offset_rng = root.fork();
        let wall_rng = root.fork();
        AzureTrace {
            cfg,
            next_bin: 0,
            active: Vec::new(),
            minute: 0,
            emitted: 0,
            offset_rng,
            wall_rng,
        }
    }

    /// Tasks emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Tasks the trace will emit in total.
    pub fn total_tasks(&self) -> u64 {
        self.cfg.total_tasks
    }

    /// The category table: distinct function names in first-bin order.
    pub fn functions(&self) -> &[String] {
        &self.cfg.functions
    }

    /// Jittered-uniform offset of arrival `k` of `n` inside a minute:
    /// `60·(k + u)/n` seconds, strictly monotone in `k` since `u < 1`.
    fn draw_offset(&mut self, k: u64, n: u64) -> f64 {
        let u = self.offset_rng.uniform();
        60.0 * (k as f64 + u) / n as f64
    }

    /// Activate every bin of the next non-empty minute.
    fn activate_next_minute(&mut self) {
        while self.active.is_empty() && self.next_bin < self.cfg.bins.len() {
            let minute = self.cfg.bins[self.next_bin].minute;
            self.minute = minute;
            while self.next_bin < self.cfg.bins.len()
                && self.cfg.bins[self.next_bin].minute == minute
            {
                let bin = self.next_bin;
                self.next_bin += 1;
                let n = self.cfg.bins[bin].invocations;
                if n == 0 {
                    continue;
                }
                let next_offset_s = self.draw_offset(0, n);
                self.active.push(ActiveBin {
                    bin,
                    emitted: 0,
                    next_offset_s,
                });
            }
        }
    }

    /// The next arrival, or `None` once every bin is drained. Draw order
    /// per event is fixed (offset on bin activation/advance, then wall),
    /// so WAL replay can re-advance the cursor without re-drawing.
    pub fn next_arrival(&mut self) -> Option<(SimTime, TaskSpec)> {
        if self.active.is_empty() {
            self.activate_next_minute();
        }
        // Min-offset scan over the minute's bins; ties break to the
        // lowest index for determinism.
        let mut pick = 0usize;
        for (i, a) in self.active.iter().enumerate().skip(1) {
            if a.next_offset_s < self.active[pick].next_offset_s {
                pick = i;
            }
        }
        if self.active.is_empty() {
            return None;
        }
        let bin_idx = self.active[pick].bin;
        let offset_s = self.active[pick].next_offset_s;
        let (function, p50_ms, p99_ms) = {
            let b = &self.cfg.bins[bin_idx];
            (b.function, b.p50_ms, b.p99_ms)
        };
        let at = SimTime::from_millis(self.minute * 60_000 + (offset_s * 1_000.0).round() as u64);

        // Advance or retire the picked bin.
        let n = self.cfg.bins[bin_idx].invocations;
        let k = self.active[pick].emitted + 1;
        if k >= n {
            self.active.swap_remove(pick);
        } else {
            let next = self.draw_offset(k, n);
            let a = &mut self.active[pick];
            a.emitted = k;
            a.next_offset_s = next;
        }

        // Lognormal wall fitted to the bin's percentiles.
        let sigma = if p99_ms > p50_ms {
            (p99_ms / p50_ms).ln() / Z99
        } else {
            0.0
        };
        let wall_s = self.wall_rng.lognormal((p50_ms / 1_000.0).ln(), sigma);
        let spec = TaskSpec {
            id: TaskId(self.emitted),
            cat: CategoryId::from_u32(function),
            inputs: Vec::new(),
            output_mb: 0.0,
            declared: Some(FUNCTION_SHAPE),
            actual: FUNCTION_SHAPE,
            exec: ExecModel {
                duration: Duration::from_secs_f64(wall_s),
                cpu_fraction: 0.8,
            },
        };
        self.emitted += 1;
        Some((at, spec))
    }
}

impl SnapshotState for AzureTrace {
    /// Re-partition both RNG streams for a what-if branch; the cursor is
    /// untouched.
    fn reseed(&mut self, salt: Salt) {
        let [offset, wall] = salt.streams();
        self.offset_rng = self.offset_rng.partition(offset);
        self.wall_rng = self.wall_rng.partition(wall);
    }
}

/// Resource shape of one function invocation (FaaS-sized: one core, a
/// small memory slice).
const FUNCTION_SHAPE: Resources = Resources {
    millicores: 1_000,
    memory_mb: 512,
    disk_mb: 1_024,
};

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "function,minute,invocations,p50_ms,p99_ms\n\
                          resize,0,30,250,900\n\
                          thumbnail,0,10,80,200\n\
                          resize,1,20,250,900\n\
                          \n\
                          thumbnail,2,5,80,200\n";

    #[test]
    fn parses_and_counts() {
        let cfg = parse_csv(SAMPLE).unwrap();
        assert_eq!(cfg.bins.len(), 4);
        assert_eq!(cfg.total_tasks, 65);
        assert!(cfg.bins.windows(2).all(|w| w[0].minute <= w[1].minute));
        assert_eq!(cfg.functions, vec!["resize", "thumbnail"]);
    }

    #[test]
    fn functions_are_numbered_in_first_bin_order() {
        // `zeta` sorts after `alpha` by name, but its first bin comes a
        // minute earlier, so it takes id 0.
        let text = "function,minute,invocations,p50_ms,p99_ms\n\
                    alpha,1,3,100,200\n\
                    zeta,0,2,100,200\n\
                    zeta,1,1,100,200\n";
        let cfg = parse_csv(text).unwrap();
        assert_eq!(cfg.functions, vec!["zeta", "alpha"]);
        let ids: Vec<u32> = cfg.bins.iter().map(|b| b.function).collect();
        assert_eq!(ids, vec![0, 1, 0]);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "wrong,header\n",
            "function,minute,invocations,p50_ms,p99_ms\nf,0,abc,1,2\n",
            "function,minute,invocations,p50_ms,p99_ms\nf,0,1,0,2\n",
            "function,minute,invocations,p50_ms,p99_ms\nf,0,1,9,2\n",
            "function,minute,invocations,p50_ms,p99_ms\nf,0,1,1\n",
            "function,minute,invocations,p50_ms,p99_ms\nf,0,1,1,2,3\n",
            "function,minute,invocations,p50_ms,p99_ms\n,0,1,1,2\n",
            "function,minute,invocations,p50_ms,p99_ms\nf,0,0,1,2\n",
        ] {
            assert!(parse_csv(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn emits_every_invocation_in_time_order() {
        let cfg = parse_csv(SAMPLE).unwrap();
        let total = cfg.total_tasks;
        let mut tr = AzureTrace::new(cfg, 5);
        let mut last = SimTime::ZERO;
        let mut n = 0u64;
        let mut resize = 0u64;
        while let Some((at, spec)) = tr.next_arrival() {
            assert!(at >= last, "time-ordered");
            assert_eq!(spec.id, TaskId(n));
            if tr.functions()[spec.cat.index()] == "resize" {
                resize += 1;
            }
            last = at;
            n += 1;
        }
        assert_eq!(n, total);
        assert_eq!(resize, 50);
        assert!(last < SimTime::from_secs(3 * 60), "inside minute 2");
        assert!(tr.next_arrival().is_none());
    }

    #[test]
    fn same_seed_is_bitwise_identical() {
        let cfg = parse_csv(SAMPLE).unwrap();
        let mut a = AzureTrace::new(cfg.clone(), 11);
        let mut b = AzureTrace::new(cfg, 11);
        while let Some(ea) = a.next_arrival() {
            assert_eq!(Some(ea), b.next_arrival());
        }
        assert!(b.next_arrival().is_none());
    }
}
