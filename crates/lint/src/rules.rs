//! Per-file rules, evaluated on the token stream.
//!
//! Everything here sees *tokens*, never raw text: a hazard name inside
//! a string literal, doc comment, or raw string cannot match, and
//! identifier boundaries are exact. All rules are silent inside
//! `#[cfg(test)]` / `#[test]` regions, and each is scoped by path to the
//! crates whose contract it enforces; those scope tables are the only
//! exceptions.

use crate::lexer::{num_is_zero, TokKind};
use crate::parser::{Parser, Structure};
use crate::Finding;

/// Source roots holding control-plane state the crash-recovery
/// checkpoint must capture.
const CHECKPOINT_SCOPE: &[&str] = &["crates/core/src/", "crates/workqueue/src/"];

/// Identifier tokens naming non-snapshottable state, with the hazard
/// class reported for each.
const CHECKPOINT_UNSAFE_TYPES: &[(&str, &str)] = &[
    ("File", "open OS handle"),
    ("TcpStream", "open OS handle"),
    ("TcpListener", "open OS handle"),
    ("UdpSocket", "open OS handle"),
    ("UnixStream", "open OS handle"),
    ("JoinHandle", "open OS handle"),
    ("Child", "open OS handle"),
    ("Instant", "stored host time"),
    ("SystemTime", "stored host time"),
    ("StdRng", "unsalted RNG"),
    ("SmallRng", "unsalted RNG"),
];

/// Files whose *purpose* is exact replay: literal salt `0` (the
/// replay/recovery salt) is legal here and nowhere else.
const REPLAY_SCOPE: &[&str] = &[
    "crates/des/src/wal.rs",
    "crates/des/src/snapshot.rs",
    "crates/core/src/driver/recovery.rs",
    "crates/core/src/whatif.rs",
];

/// Crates whose handlers must route effects through `EffectSink`.
const EFFECT_SCOPE: &[&str] = &[
    "crates/des/src/",
    "crates/core/src/",
    "crates/workqueue/src/",
    "crates/cluster/src/",
];

/// Source root of the streaming trace subsystem: arrival generation
/// must stay lazy, with memory bounded by the in-flight lookahead
/// window — never by total trace length.
const TRACE_SCOPE: &str = "crates/trace/src/";

/// True when `path` is library/binary source (not integration tests).
fn in_src(path: &str) -> bool {
    path.starts_with("src/") || path.contains("/src/")
}

/// Evaluate every per-file rule. `p` and `st` come from one lex+parse
/// of the file at `path`.
pub fn per_file_rules(path: &str, p: &Parser<'_>, st: &Structure) -> Vec<Finding> {
    let mut out = Findings {
        path,
        list: Vec::new(),
    };
    if CHECKPOINT_SCOPE.iter().any(|s| path.starts_with(s)) {
        checkpoint_unsafe(p, st, &mut out);
    }
    if in_src(path) {
        salt_flow(REPLAY_SCOPE.contains(&path), p, st, &mut out);
    }
    if EFFECT_SCOPE.iter().any(|s| path.starts_with(s)) {
        effect_purity(p, st, &mut out);
    }
    if path.starts_with(TRACE_SCOPE) {
        trace_materialization(p, st, &mut out);
    }
    out.list
}

struct Findings<'a> {
    path: &'a str,
    list: Vec<Finding>,
}

impl Findings<'_> {
    /// Push a finding, keeping at most one per (line, rule).
    fn push(&mut self, line: usize, rule: &'static str, message: String) {
        if self.list.iter().any(|f| f.line == line && f.rule == rule) {
            return;
        }
        self.list.push(Finding {
            path: self.path.to_string(),
            line,
            rule,
            message,
        });
    }
}

/// `checkpoint-unsafe-state`: raw pointers and the named handle, clock
/// and RNG types in control-plane source.
fn checkpoint_unsafe(p: &Parser<'_>, st: &Structure, out: &mut Findings) {
    for i in 0..p.sig.len() {
        let Some(t) = p.tok(i) else { break };
        if st.in_test(t.start) {
            continue;
        }
        // A deref like `*x` never precedes `mut`/`const` directly.
        if p.punct(i, '*') && (p.ident(i + 1, "mut") || p.ident(i + 1, "const")) {
            out.push(
                t.line,
                "checkpoint-unsafe-state",
                "raw pointer — a checkpoint restore leaves it dangling or aliased".into(),
            );
        }
        if t.kind != TokKind::Ident {
            continue;
        }
        let word = p.text(i);
        if let Some((ty, class)) = CHECKPOINT_UNSAFE_TYPES.iter().find(|(ty, _)| *ty == word) {
            out.push(
                t.line,
                "checkpoint-unsafe-state",
                format!("`{ty}` ({class}) — state a crash-recovery checkpoint cannot capture"),
            );
        }
    }
}

/// Index (into `st.fns`) of the function whose body (a significant-token
/// index range) encloses sig index `i`; `usize::MAX` when none does.
fn enclosing_fn(st: &Structure, i: usize) -> usize {
    st.fns
        .iter()
        .enumerate()
        .filter(|(_, f)| f.body.is_some_and(|(a, b)| a <= i && i <= b))
        .min_by_key(|(_, f)| {
            let (a, b) = f.body.expect("filtered on body");
            b - a // innermost wins
        })
        .map_or(usize::MAX, |(idx, _)| idx)
}

/// `salt-flow`: every fork/branch salt must be threaded, not invented.
///
/// * a hard-coded non-zero literal salt can collide with another branch
///   (distinctness cannot be audited at the call site);
/// * literal salt `0` is the exact-replay salt, legal only in the
///   replay/recovery substrate ([`REPLAY_SCOPE`]);
/// * two `branch_salt(x, N)` calls with the same literal stream index
///   inside one function silently correlate two RNG streams.
fn salt_flow(replay_scope: bool, p: &Parser<'_>, st: &Structure, out: &mut Findings) {
    // Per-function literal stream indices seen in branch_salt calls.
    let mut fn_streams: Vec<(usize, Vec<String>)> = Vec::new();
    for i in 0..p.sig.len() {
        let Some(t) = p.tok(i) else { break };
        if t.kind != TokKind::Ident || st.in_test(t.start) {
            continue;
        }
        // Skip definitions: `fn fork(...)`.
        if i > 0 && p.ident(i - 1, "fn") {
            continue;
        }
        let word = p.text(i);
        let (salt_arg, is_branch_salt) = match word {
            "fork" | "fork_branch" | "partition"
                if i > 0 && p.punct(i - 1, '.') && p.punct(i + 1, '(') =>
            {
                (0usize, false)
            }
            // UFCS `SnapshotState::fork(state, salt)`.
            "fork" if i >= 3 && p.op(i - 3, "::") && p.punct(i + 1, '(') => (1, false),
            "branch_salt" if p.punct(i + 1, '(') && !(i > 0 && p.punct(i - 1, '.')) => (0, true),
            _ => continue,
        };
        let args = call_args(p, i + 1);
        let Some(&(a, b)) = args.get(salt_arg) else {
            continue; // e.g. `SimRng::fork()` with no salt argument
        };
        // A salt argument that is a single numeric literal.
        if b == a + 1 && p.tok(a).is_some_and(|t| t.kind == TokKind::Num) {
            let lit = p.text(a);
            if num_is_zero(lit) {
                if !replay_scope {
                    out.push(
                        t.line,
                        "salt-flow",
                        format!(
                            "`{word}(0)` — salt 0 is the exact-replay salt, reserved for the \
                             replay/recovery substrate (des wal+snapshot, core recovery+whatif)"
                        ),
                    );
                }
            } else {
                out.push(
                    t.line,
                    "salt-flow",
                    format!(
                        "`{word}({lit})` — hard-coded salt; derive it from the caller's salt \
                         via `branch_salt` so distinctness is auditable at the call site"
                    ),
                );
            }
        }
        // Duplicate literal stream indices within one function.
        if is_branch_salt {
            if let Some(&(s2, e2)) = args.get(1) {
                if e2 == s2 + 1 && p.tok(s2).is_some_and(|t| t.kind == TokKind::Num) {
                    let stream = p.text(s2).to_string();
                    let fid = enclosing_fn(st, i);
                    let entry = match fn_streams.iter_mut().find(|(f, _)| *f == fid) {
                        Some(e) => e,
                        None => {
                            fn_streams.push((fid, Vec::new()));
                            fn_streams.last_mut().expect("just pushed")
                        }
                    };
                    if entry.1.contains(&stream) {
                        out.push(
                            t.line,
                            "salt-flow",
                            format!(
                                "`branch_salt(_, {stream})` repeats a literal stream index \
                                 within one function — two RNG streams would correlate"
                            ),
                        );
                    } else {
                        entry.1.push(stream);
                    }
                }
            }
        }
    }
}

/// `effect-purity`: a handler that receives an `&mut EffectSink` owns
/// exactly one effect channel. Scheduling directly into an event queue
/// (or taking one as a parameter, or *also* returning a `Vec<(Duration,
/// …)>` effect list) bypasses the sink — and with it the driver's
/// incarnation tagging that lets crash recovery drop stale in-flight
/// messages.
fn effect_purity(p: &Parser<'_>, st: &Structure, out: &mut Findings) {
    for f in st.fns.iter().filter(|f| !f.in_test) {
        if !f.params.iter().any(|pa| pa.ty.contains("EffectSink")) {
            continue;
        }
        if let Some(q) = f.params.iter().find(|pa| pa.ty.contains("EventQueue")) {
            out.push(
                f.line,
                "effect-purity",
                format!(
                    "`fn {}` takes both `&mut EffectSink` and an `EventQueue` (`{}`) — \
                     handlers emit through the sink only; the caller owns the queue",
                    f.name, q.name
                ),
            );
        }
        if f.ret.contains("Vec < ( Duration") {
            out.push(
                f.line,
                "effect-purity",
                format!(
                    "`fn {}` takes `&mut EffectSink` and also returns `Vec<(Duration, _)>` — \
                     two effect channels; push everything into the sink",
                    f.name
                ),
            );
        }
        if let Some((a, b)) = f.body {
            for k in a..=b {
                if p.punct(k, '.')
                    && !p.op(k, "..")
                    && matches!(p.text(k + 1), "schedule_in" | "schedule_at" | "schedule")
                    && p.punct(k + 2, '(')
                {
                    let line = p.tok(k + 1).map_or(f.line, |t| t.line);
                    out.push(
                        line,
                        "effect-purity",
                        format!(
                            "`fn {}` holds an `&mut EffectSink` but schedules directly \
                             (`.{}(`) — route the effect through the sink",
                            f.name,
                            p.text(k + 1)
                        ),
                    );
                }
            }
        }
    }
}

/// `trace-unbounded-materialization`: the trace crate's contract is
/// O(in-flight) memory for arbitrarily long traces. Collecting the
/// arrival stream (`.collect::<Vec<_>>()`) or pre-sizing a buffer from
/// a runtime task count (`Vec::with_capacity(total_tasks)`) silently
/// re-couples memory to trace length — a million-task run then
/// materializes a million specs and the blast-1M memory gate fails.
/// A `with_capacity` whose argument is a single numeric literal is a
/// fixed-size buffer and stays legal.
fn trace_materialization(p: &Parser<'_>, st: &Structure, out: &mut Findings) {
    for i in 0..p.sig.len() {
        let Some(t) = p.tok(i) else { break };
        if t.kind != TokKind::Ident || st.in_test(t.start) {
            continue;
        }
        let word = p.text(i);
        // `.collect(` and the turbofish form `.collect::<Vec<_>>(`.
        if word == "collect"
            && i > 0
            && p.punct(i - 1, '.')
            && (p.punct(i + 1, '(') || p.op(i + 1, "::"))
        {
            out.push(
                t.line,
                "trace-unbounded-materialization",
                "`.collect(...)` — materializes the stream it terminates; trace memory \
                 must stay bounded by the in-flight window, not trace length"
                    .into(),
            );
        }
        // `with_capacity(expr)` where expr is not one numeric literal.
        if word == "with_capacity" && p.punct(i + 1, '(') && !(i > 0 && p.ident(i - 1, "fn")) {
            let args = call_args(p, i + 1);
            let fixed = args.first().is_some_and(|&(a, b)| {
                b == a + 1 && p.tok(a).is_some_and(|t| t.kind == TokKind::Num)
            });
            if !fixed {
                let cap = args.first().map_or_else(String::new, |&(a, b)| {
                    (a..b).map(|k| p.text(k)).collect::<Vec<_>>().join(" ")
                });
                out.push(
                    t.line,
                    "trace-unbounded-materialization",
                    format!(
                        "`with_capacity({cap})` sized by a runtime value — pre-allocating \
                         for the whole trace re-couples memory to trace length; only a \
                         literal fixed capacity is self-evidently bounded"
                    ),
                );
            }
        }
    }
}

/// Top-level argument spans of a call whose opening paren is at
/// significant index `open`; each span is a half-open significant-index
/// range.
fn call_args(p: &Parser<'_>, open: usize) -> Vec<(usize, usize)> {
    let mut args = Vec::new();
    if !p.punct(open, '(') {
        return args;
    }
    let close = p.skip_group(open).saturating_sub(1);
    let mut start = open + 1;
    let mut k = open + 1;
    while k < close {
        if p.punct(k, '(') || p.punct(k, '[') || p.punct(k, '{') {
            k = p.skip_group(k);
            continue;
        }
        if p.punct(k, ',') {
            args.push((start, k));
            start = k + 1;
        }
        k += 1;
    }
    if close > start {
        args.push((start, close));
    }
    args
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn findings(path: &str, src: &str) -> Vec<(usize, &'static str)> {
        let toks = lex(src);
        let (p, st) = parse_file(src, &toks);
        per_file_rules(path, &p, &st)
            .into_iter()
            .map(|f| (f.line, f.rule))
            .collect()
    }

    #[test]
    fn checkpoint_type_in_string_or_comment_is_silent() {
        let src = "// File in a comment\nlet s = \"Instant\";\nlet t = r#\"SmallRng\"#;\n";
        assert!(findings("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn checkpoint_type_fires_once_per_line() {
        let src = "struct S { a: Instant, b: Option<Instant> }\nstruct T { f: File }\n";
        let f = findings("crates/core/src/a.rs", src);
        assert_eq!(
            f,
            vec![
                (1, "checkpoint-unsafe-state"),
                (2, "checkpoint-unsafe-state")
            ]
        );
    }

    #[test]
    fn cfg_test_region_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::fs::File;\n    #[test]\n    fn t() { let s = sim.fork(42); }\n}\n";
        assert!(findings("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn checkpoint_scope_types_and_raw_ptrs() {
        let src = "struct S { f: File, t: Instant }\nfn g(p: *mut u8) {}\n";
        let f = findings("crates/core/src/a.rs", src);
        assert!(f.contains(&(1, "checkpoint-unsafe-state")));
        assert!(f.contains(&(2, "checkpoint-unsafe-state")));
        // Out of checkpoint scope the same source stays silent for it.
        let g = findings("crates/des/src/a.rs", src);
        assert!(!g.iter().any(|(_, r)| *r == "checkpoint-unsafe-state"));
    }

    #[test]
    fn salt_flow_literals() {
        // Hard-coded non-zero salt.
        let f = findings("crates/core/src/a.rs", "fn f(s: &mut S) { s.fork(42); }\n");
        assert_eq!(f, vec![(1, "salt-flow")]);
        // Salt 0 outside replay scope.
        let f = findings(
            "crates/core/src/a.rs",
            "fn f(s: &mut S) { let c = s.fork(0); }\n",
        );
        assert_eq!(f, vec![(1, "salt-flow")]);
        // Salt 0 inside replay scope.
        let f = findings(
            "crates/core/src/driver/recovery.rs",
            "fn f(s: &mut S) { let c = s.fork(0); }\n",
        );
        assert!(f.is_empty());
        // Threaded salt: clean.
        let f = findings(
            "crates/core/src/a.rs",
            "fn f(s: &mut S, salt: u64) { s.fork(salt); }\n",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn salt_flow_duplicate_streams() {
        let src = "fn f(salt: u64) -> (u64, u64) {\n    let a = branch_salt(salt, 1);\n    let b = branch_salt(salt, 1);\n    (a, b)\n}\n";
        let f = findings("crates/core/src/a.rs", src);
        assert_eq!(f, vec![(3, "salt-flow")]);
        let ok = "fn f(salt: u64) -> (u64, u64) { (branch_salt(salt, 1), branch_salt(salt, 2)) }\nfn g(salt: u64) -> u64 { branch_salt(salt, 1) }\n";
        assert!(findings("crates/core/src/a.rs", ok).is_empty());
    }

    #[test]
    fn effect_purity_dual_channel() {
        let src = "impl M {\n    fn handle(&mut self, fx: &mut EffectSink<E>, q: &mut EventQueue<E>) {}\n    fn emit(&mut self, fx: &mut EffectSink<E>) -> Vec<(Duration, E)> { vec![] }\n    fn ok(&mut self, fx: &mut EffectSink<E>) { fx.push(d, e); }\n}\n";
        let f = findings("crates/core/src/a.rs", src);
        assert_eq!(f, vec![(2, "effect-purity"), (3, "effect-purity")]);
    }

    #[test]
    fn effect_purity_direct_schedule_in_body() {
        let src =
            "fn h(fx: &mut EffectSink<E>, w: &mut World) {\n    w.queue.schedule_in(d, e);\n}\n";
        let f = findings("crates/des/src/a.rs", src);
        assert_eq!(f, vec![(2, "effect-purity")]);
    }

    #[test]
    fn effect_purity_covers_the_cluster() {
        let src = "impl Cluster {\n    fn handle(&mut self, now: SimTime, fx: &mut EffectSink<ClusterEvent>) -> Vec<(Duration, ClusterEvent)> { vec![] }\n    fn tick(&mut self, fx: &mut EffectSink<ClusterEvent>) { self.q.schedule_in(d, e); }\n}\n";
        let f = findings("crates/cluster/src/cluster.rs", src);
        assert_eq!(f, vec![(2, "effect-purity"), (3, "effect-purity")]);
        // Outside the scoped crates the same source is not checked.
        assert!(findings("crates/metrics/src/a.rs", src).is_empty());
    }

    #[test]
    fn trace_materialization_scoped_to_trace_crate() {
        let src = "fn f(it: I) -> Vec<u32> { it.collect() }\n";
        let f = findings("crates/trace/src/synth.rs", src);
        assert_eq!(f, vec![(1, "trace-unbounded-materialization")]);
        // The identical source outside the trace crate is clean.
        assert!(findings("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn trace_materialization_turbofish_and_runtime_capacity() {
        let src = "fn f(n: usize, it: I) {\n    let v = it.collect::<Vec<_>>();\n    let b = Vec::with_capacity(n);\n    let ok = Vec::with_capacity(64);\n}\n";
        let f = findings("crates/trace/src/lib.rs", src);
        assert_eq!(
            f,
            vec![
                (2, "trace-unbounded-materialization"),
                (3, "trace-unbounded-materialization"),
            ],
            "literal capacity on line 4 stays legal"
        );
    }

    #[test]
    fn trace_materialization_silent_in_tests_and_definitions() {
        let src = "fn with_capacity(n: usize) -> Buf { Buf { n } }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let v: Vec<u32> = (0..10).collect(); }\n}\n";
        assert!(findings("crates/trace/src/lib.rs", src).is_empty());
    }
}
