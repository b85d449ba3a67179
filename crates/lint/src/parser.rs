//! A lightweight item/block parser over the token stream.
//!
//! This is *not* a Rust grammar — it recognizes exactly the structure
//! the rules need:
//!
//! * **`#[cfg(test)]` / `#[test]` regions** — byte ranges of test-only
//!   items, so hazard rules can stay silent inside them (tests may hold
//!   wall clocks, hash maps and ad-hoc RNGs freely; the golden digest
//!   tests police determinism where it matters).
//! * **Function definitions** — name, parameter names/types, return
//!   type and body extent, for the `effect-purity` and `salt-flow`
//!   rules.
//! * **Enum definitions** — variant lists, for the `wal-coverage`
//!   contract rule.
//! * **`impl SnapshotState for X` / `impl X` blocks** — which types are
//!   snapshot-bundled, and what `Self { … }` resolves to.
//!
//! The parser is resilient: anything it does not recognize is skipped
//! item-wise (to the next `;` or balanced brace group), so macro-heavy
//! or exotic code degrades to "no structure" rather than a parse error.

use crate::lexer::{TokKind, Token};

/// One function parameter (receiver included, as `self`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Binding name (`self` for receivers, `_` for wildcards).
    pub name: String,
    /// Normalized type text, single-space separated (e.g.
    /// `& mut EffectSink < WqEvent >`). Empty for bare receivers.
    pub ty: String,
}

/// A function definition (free, method, or trait item).
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Parameters in declaration order.
    pub params: Vec<Param>,
    /// Normalized return-type text ("" when omitted).
    pub ret: String,
    /// Significant-token index range of the body's braces, inclusive of
    /// both braces; `None` for bodyless trait signatures.
    pub body: Option<(usize, usize)>,
    /// True when inside a `#[cfg(test)]` item or annotated `#[test]`.
    pub in_test: bool,
}

/// An enum definition.
#[derive(Debug, Clone)]
pub struct EnumDef {
    /// Enum name.
    pub name: String,
    /// (variant name, 1-based line).
    pub variants: Vec<(String, usize)>,
    /// True when inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// Structure extracted from one file.
#[derive(Debug, Clone, Default)]
pub struct Structure {
    /// Every function definition, impl methods included.
    pub fns: Vec<FnDef>,
    /// Every enum definition.
    pub enums: Vec<EnumDef>,
    /// Type names with an `impl SnapshotState for X` in this file
    /// (test regions excluded).
    pub snapshot_impls: Vec<String>,
    /// Byte ranges of `#[cfg(test)]` / `#[test]` items.
    pub test_ranges: Vec<(usize, usize)>,
    /// Byte ranges of impl blocks with their target type name, for
    /// resolving `Self { … }` struct expressions.
    pub impl_ranges: Vec<(usize, usize, String)>,
}

impl Structure {
    /// True when the byte offset falls inside a test-only region.
    pub fn in_test(&self, byte: usize) -> bool {
        self.test_ranges.iter().any(|&(s, e)| byte >= s && byte < e)
    }

    /// The impl target type enclosing a byte offset (innermost wins),
    /// for resolving `Self { … }`.
    pub fn self_type_at(&self, byte: usize) -> Option<&str> {
        self.impl_ranges
            .iter()
            .filter(|&&(s, e, _)| byte >= s && byte < e)
            .min_by_key(|&&(s, e, _)| e - s)
            .map(|(_, _, n)| n.as_str())
    }
}

/// Parser state: the source, all tokens, and the indices of significant
/// (non-trivia) tokens.
pub struct Parser<'a> {
    src: &'a str,
    toks: &'a [Token],
    /// Indices into `toks` of non-trivia tokens.
    pub sig: Vec<usize>,
}

impl<'a> Parser<'a> {
    /// Build a parser over a lexed file.
    pub fn new(src: &'a str, toks: &'a [Token]) -> Self {
        let sig = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_trivia())
            .map(|(i, _)| i)
            .collect();
        Parser { src, toks, sig }
    }

    /// Token at significant index `i` (None past the end).
    pub fn tok(&self, i: usize) -> Option<&Token> {
        self.sig.get(i).map(|&j| &self.toks[j])
    }

    /// Text of the significant token at `i` ("" past the end).
    pub fn text(&self, i: usize) -> &str {
        self.tok(i).map_or("", |t| t.text(self.src))
    }

    /// True when significant tokens `i` and `i+1` are byte-adjacent
    /// (needed to tell `::` from `: :`).
    pub fn adjacent(&self, i: usize) -> bool {
        match (self.tok(i), self.tok(i + 1)) {
            (Some(a), Some(b)) => a.end == b.start,
            _ => false,
        }
    }

    /// True when the significant token at `i` is the punct `c`.
    pub fn punct(&self, i: usize, c: char) -> bool {
        self.tok(i)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text(self.src).starts_with(c))
    }

    /// True when tokens at `i..` spell the multi-char operator `op`
    /// (e.g. `::`, `=>`, `..`) out of adjacent single puncts.
    pub fn op(&self, i: usize, op: &str) -> bool {
        let n = op.chars().count();
        for (k, c) in op.chars().enumerate() {
            if !self.punct(i + k, c) {
                return false;
            }
        }
        (0..n.saturating_sub(1)).all(|k| self.adjacent(i + k))
    }

    /// True when token `i` is an identifier with exactly this text.
    pub fn ident(&self, i: usize, name: &str) -> bool {
        self.tok(i)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text(self.src) == name)
    }

    /// Skip a balanced group starting at the opener token `i` (one of
    /// `( [ {`); returns the significant index just *after* the matching
    /// closer. Angle brackets are not counted (they are ambiguous).
    pub fn skip_group(&self, i: usize) -> usize {
        let mut depth = 0i64;
        let mut k = i;
        while let Some(t) = self.tok(k) {
            if t.kind == TokKind::Punct {
                match t.text(self.src).chars().next() {
                    Some('(') | Some('[') | Some('{') => depth += 1,
                    Some(')') | Some(']') | Some('}') => {
                        depth -= 1;
                        if depth <= 0 {
                            return k + 1;
                        }
                    }
                    _ => {}
                }
            }
            k += 1;
        }
        k
    }

    /// Skip a generic parameter list starting at a `<`; returns the
    /// index just after the matching `>`. `->` arrows do not close, and
    /// brace/paren groups inside are skipped opaquely.
    fn skip_generics(&self, i: usize) -> usize {
        let mut depth = 0i64;
        let mut k = i;
        while let Some(t) = self.tok(k) {
            if t.kind == TokKind::Punct {
                match t.text(self.src).chars().next() {
                    Some('<') => depth += 1,
                    Some('>') => {
                        // `->`: the '>' belongs to an arrow, not the list.
                        let is_arrow = k > 0 && self.punct(k - 1, '-') && self.adjacent(k - 1);
                        if !is_arrow {
                            depth -= 1;
                            if depth <= 0 {
                                return k + 1;
                            }
                        }
                    }
                    Some('(') | Some('[') | Some('{') => {
                        k = self.skip_group(k);
                        continue;
                    }
                    _ => {}
                }
            }
            k += 1;
        }
        k
    }

    /// Parse the whole file.
    pub fn parse(&self) -> Structure {
        let mut st = Structure::default();
        self.items(0, self.sig.len(), false, &mut st);
        st
    }

    /// Scan items in `sig[i..end)`; `in_test` marks an enclosing
    /// `#[cfg(test)]` region.
    fn items(&self, mut i: usize, end: usize, mut in_test: bool, st: &mut Structure) {
        let mut pending_test = false;
        while i < end {
            // Attributes: `#[...]` marks the next item, an inner `#![...]`
            // the enclosing one — for `#![cfg(test)]` at the top of a file,
            // the whole file, as in rustc.
            if self.punct(i, '#') {
                let inner = self.punct(i + 1, '!');
                let open = if inner { i + 2 } else { i + 1 };
                if self.punct(open, '[') {
                    let close = self.skip_group(open);
                    if self.attr_is_test(open, close) {
                        if inner {
                            self.mark_test_span(i, end, st);
                            in_test = true;
                        } else {
                            pending_test = true;
                        }
                    }
                    i = close;
                    continue;
                }
                i += 1;
                continue;
            }
            let word = self.text(i);
            match word {
                "pub" => {
                    // Skip visibility (incl. `pub(crate)`).
                    i += 1;
                    if self.punct(i, '(') {
                        i = self.skip_group(i);
                    }
                    continue; // pending_test survives
                }
                "unsafe" | "async" | "const" | "extern" | "default" if self.is_fn_modifier(i) => {
                    i += 1;
                    continue;
                }
                "fn" => {
                    i = self.parse_fn(i, in_test || pending_test, st);
                    pending_test = false;
                }
                "enum" => {
                    i = self.parse_enum(i, in_test || pending_test, st);
                    pending_test = false;
                }
                "impl" => {
                    i = self.parse_impl(i, in_test || pending_test, st);
                    pending_test = false;
                }
                "mod" | "trait" => {
                    let item_test = in_test || pending_test;
                    pending_test = false;
                    // `mod name;` or `mod name { items }`.
                    let mut k = i + 1;
                    while k < end && !self.punct(k, '{') && !self.punct(k, ';') {
                        k += 1;
                    }
                    if self.punct(k, '{') {
                        let close = self.skip_group(k);
                        if item_test {
                            self.mark_test_span(i, close, st);
                        }
                        self.items(k + 1, close - 1, item_test, st);
                        i = close;
                    } else {
                        i = k + 1;
                    }
                }
                "}" => return,
                _ => {
                    // Unrecognized item (struct, use, static, const item,
                    // macro invocation, let in a body, expression…): skip to
                    // the next `;` at depth 0 or over one brace group.
                    let item_test = in_test || pending_test;
                    let start = i;
                    i = self.skip_item(i);
                    if item_test {
                        self.mark_test_span(start, i, st);
                    }
                    pending_test = false;
                }
            }
        }
    }

    /// True when `const` etc. at `i` prefixes a `fn` (vs a const item).
    fn is_fn_modifier(&self, i: usize) -> bool {
        let mut k = i + 1;
        // Skip further modifiers and an extern ABI string.
        loop {
            match self.text(k) {
                "unsafe" | "async" | "const" | "extern" | "default" => k += 1,
                _ => {
                    if self.tok(k).is_some_and(|t| t.kind == TokKind::Str) {
                        k += 1;
                        continue;
                    }
                    break;
                }
            }
        }
        self.ident(k, "fn")
    }

    /// Does the attribute group `sig[open..close)` (starting at `[`)
    /// mark a test item? Matches `#[test]`, `#[cfg(test)]`,
    /// `#[cfg(all(test, …))]`, `#[tokio::test]`-style.
    fn attr_is_test(&self, open: usize, close: usize) -> bool {
        let mut saw_cfg = false;
        for k in open..close {
            let t = self.text(k);
            if t == "cfg" {
                saw_cfg = true;
            }
            if t == "test" {
                // Either `#[test]`-ish (test is the first ident) or
                // `cfg(...test...)`.
                if saw_cfg || k == open + 1 || self.op(k - 1, "::") {
                    return true;
                }
            }
        }
        false
    }

    fn mark_test_span(&self, start_sig: usize, end_sig: usize, st: &mut Structure) {
        let s = self.tok(start_sig).map(|t| t.start);
        let e = if end_sig == 0 {
            None
        } else {
            self.tok(end_sig - 1).map(|t| t.end)
        };
        if let (Some(s), Some(e)) = (s, e) {
            st.test_ranges.push((s, e));
        }
    }

    /// Skip one unrecognized item starting at `i`: to a depth-0 `;`, or
    /// past the first brace group (whichever comes first).
    fn skip_item(&self, mut i: usize) -> usize {
        while let Some(t) = self.tok(i) {
            if t.kind == TokKind::Punct {
                match t.text(self.src).chars().next() {
                    Some(';') => return i + 1,
                    Some('{') => return self.skip_group(i),
                    Some('(') | Some('[') => {
                        i = self.skip_group(i);
                        continue;
                    }
                    Some('}') => return i, // enclosing body ended
                    _ => {}
                }
            }
            i += 1;
        }
        i
    }

    /// Normalized text of significant tokens `a..b`, single-space
    /// separated.
    pub fn span_text(&self, a: usize, b: usize) -> String {
        let mut out = String::new();
        for k in a..b {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(self.text(k));
        }
        out
    }

    fn parse_fn(&self, fn_kw: usize, in_test: bool, st: &mut Structure) -> usize {
        let name = self.text(fn_kw + 1).to_string();
        let line = self.tok(fn_kw).map_or(0, |t| t.line);
        let mut k = fn_kw + 2;
        if self.punct(k, '<') {
            k = self.skip_generics(k);
        }
        if !self.punct(k, '(') {
            return self.skip_item(fn_kw + 1);
        }
        let params_close = self.skip_group(k);
        let params = self.parse_params(k + 1, params_close - 1);
        let mut r = params_close;
        // Return type: `-> …` up to `{`, `;`, or `where`.
        let mut ret_start = None;
        if self.op(r, "->") {
            ret_start = Some(r + 2);
            r += 2;
        }
        let mut depth_guard = 0usize;
        while let Some(t) = self.tok(r) {
            let txt = t.text(self.src);
            if t.kind == TokKind::Punct {
                match txt.chars().next() {
                    Some('{') | Some(';') => break,
                    Some('<') => {
                        r = self.skip_generics(r);
                        continue;
                    }
                    Some('(') | Some('[') => {
                        r = self.skip_group(r);
                        continue;
                    }
                    _ => {}
                }
            } else if txt == "where" {
                break;
            }
            r += 1;
            depth_guard += 1;
            if depth_guard > 4000 {
                break;
            }
        }
        let ret = ret_start.map_or(String::new(), |s| self.span_text(s, r));
        // Skip a where clause.
        while self.tok(r).is_some() && !self.punct(r, '{') && !self.punct(r, ';') {
            if self.punct(r, '<') {
                r = self.skip_generics(r);
            } else if self.punct(r, '(') || self.punct(r, '[') {
                r = self.skip_group(r);
            } else {
                r += 1;
            }
        }
        let (body, next) = if self.punct(r, '{') {
            let close = self.skip_group(r);
            (Some((r, close - 1)), close)
        } else {
            (None, r + 1)
        };
        if in_test {
            self.mark_test_span(fn_kw, next, st);
        }
        st.fns.push(FnDef {
            name,
            line,
            params,
            ret,
            body,
            in_test,
        });
        next
    }

    /// Parse a parameter list between significant indices `a..b`
    /// (exclusive of the parens).
    fn parse_params(&self, a: usize, b: usize) -> Vec<Param> {
        let mut params = Vec::new();
        let mut start = a;
        let mut k = a;
        let flush = |s: usize, e: usize, params: &mut Vec<Param>| {
            if e <= s {
                return;
            }
            // Find the top-level ':' separating pattern from type.
            let mut colon = None;
            let mut j = s;
            while j < e {
                if self.punct(j, '(') || self.punct(j, '[') || self.punct(j, '{') {
                    j = self.skip_group(j);
                    continue;
                }
                if self.punct(j, '<') {
                    j = self.skip_generics(j);
                    continue;
                }
                if self.punct(j, ':') && !self.op(j, "::") && !(j > s && self.op(j - 1, "::")) {
                    colon = Some(j);
                    break;
                }
                j += 1;
            }
            match colon {
                Some(c) => {
                    // Binding name: last ident of the pattern.
                    let mut name = String::from("_");
                    for p in (s..c).rev() {
                        if self.tok(p).is_some_and(|t| t.kind == TokKind::Ident) {
                            name = self.text(p).to_string();
                            break;
                        }
                    }
                    params.push(Param {
                        name,
                        ty: self.span_text(c + 1, e),
                    });
                }
                None => {
                    // Receiver: `self`, `&self`, `&mut self`, `&'a self`.
                    params.push(Param {
                        name: "self".into(),
                        ty: self.span_text(s, e),
                    });
                }
            }
        };
        while k < b {
            if self.punct(k, '(') || self.punct(k, '[') || self.punct(k, '{') {
                k = self.skip_group(k);
                continue;
            }
            if self.punct(k, '<') {
                k = self.skip_generics(k);
                continue;
            }
            if self.punct(k, ',') {
                flush(start, k, &mut params);
                start = k + 1;
            }
            k += 1;
        }
        flush(start, b, &mut params);
        params
    }

    fn parse_enum(&self, kw: usize, in_test: bool, st: &mut Structure) -> usize {
        let name = self.text(kw + 1).to_string();
        let mut k = kw + 2;
        if self.punct(k, '<') {
            k = self.skip_generics(k);
        }
        while self.tok(k).is_some() && !self.punct(k, '{') && !self.punct(k, ';') {
            k += 1;
        }
        if !self.punct(k, '{') {
            return k + 1;
        }
        let close = self.skip_group(k);
        let mut variants = Vec::new();
        let mut j = k + 1;
        let mut expect_variant = true;
        while j < close - 1 {
            if self.punct(j, '#') {
                let open = if self.punct(j + 1, '[') { j + 1 } else { j + 2 };
                j = self.skip_group(open);
                continue;
            }
            if expect_variant && self.tok(j).is_some_and(|t| t.kind == TokKind::Ident) {
                variants.push((self.text(j).to_string(), self.tok(j).map_or(0, |t| t.line)));
                expect_variant = false;
                j += 1;
                continue;
            }
            if self.punct(j, '(') || self.punct(j, '{') || self.punct(j, '[') {
                j = self.skip_group(j);
                continue;
            }
            if self.punct(j, ',') {
                expect_variant = true;
            }
            j += 1;
        }
        if in_test {
            self.mark_test_span(kw, close, st);
        }
        st.enums.push(EnumDef {
            name,
            variants,
            in_test,
        });
        close
    }

    fn parse_impl(&self, kw: usize, in_test: bool, st: &mut Structure) -> usize {
        // Scan the impl header up to `{`, looking for
        // `SnapshotState for <Name>` and the target type name.
        let mut k = kw + 1;
        if self.punct(k, '<') {
            k = self.skip_generics(k);
        }
        let mut trait_name: Option<String> = None;
        let mut target: Option<String> = None;
        let mut after_for = false;
        while let Some(t) = self.tok(k) {
            let txt = t.text(self.src);
            if t.kind == TokKind::Punct {
                match txt.chars().next() {
                    Some('{') => break,
                    Some('<') => {
                        k = self.skip_generics(k);
                        continue;
                    }
                    Some('(') | Some('[') => {
                        k = self.skip_group(k);
                        continue;
                    }
                    _ => {}
                }
            } else if t.kind == TokKind::Ident {
                if txt == "for" {
                    after_for = true;
                } else if txt == "where" {
                    break;
                } else if after_for {
                    // First path segment after `for` that is followed by
                    // `::` keeps scanning; remember the last ident seen.
                    target = Some(txt.to_string());
                    after_for = self.op(k + 1, "::");
                } else if trait_name.is_none() || self.op(k - 1, "::") {
                    // First ident names the trait; a later `::`-qualified
                    // segment overwrites it with the path's last segment.
                    trait_name = Some(txt.to_string());
                }
            }
            k += 1;
        }
        // Skip a possible where clause to find the body.
        while self.tok(k).is_some() && !self.punct(k, '{') && !self.punct(k, ';') {
            k += 1;
        }
        if !self.punct(k, '{') {
            return k + 1;
        }
        let close = self.skip_group(k);
        let self_name = target.clone().or(trait_name.clone());
        if !in_test {
            if let (Some(tr), Some(ty)) = (&trait_name, &target) {
                if tr == "SnapshotState" {
                    st.snapshot_impls.push(ty.clone());
                }
            }
        }
        if in_test {
            self.mark_test_span(kw, close, st);
        }
        if let Some(name) = &self_name {
            let s = self.tok(kw).map(|t| t.start);
            let e = close
                .checked_sub(1)
                .and_then(|c| self.tok(c))
                .map(|t| t.end);
            if let (Some(s), Some(e)) = (s, e) {
                st.impl_ranges.push((s, e, name.clone()));
            }
        }
        self.items(k + 1, close - 1, in_test, st);
        close
    }
}

/// Lex + parse convenience used by the engine.
pub fn parse_file<'a>(src: &'a str, toks: &'a [Token]) -> (Parser<'a>, Structure) {
    let p = Parser::new(src, toks);
    let st = p.parse();
    (p, st)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Structure {
        let toks = lex(src);
        Parser::new(src, &toks).parse()
    }

    #[test]
    fn fn_params_and_ret_parsed() {
        let src = "pub fn handle(&mut self, now: SimTime, ev: WqEvent, fx: &mut EffectSink<WqEvent>) -> Vec<(Duration, E)> { body() }";
        let st = parse(src);
        assert_eq!(st.fns.len(), 1);
        let f = &st.fns[0];
        assert_eq!(f.name, "handle");
        assert_eq!(f.params.len(), 4);
        assert_eq!(f.params[0].name, "self");
        assert_eq!(f.params[3].name, "fx");
        assert!(f.params[3].ty.contains("EffectSink"));
        assert!(f.ret.contains("Vec < ( Duration"));
        assert!(f.body.is_some());
    }

    #[test]
    fn cfg_test_mod_marks_range() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n";
        let st = parse(src);
        // The mod body and the nested fn may both mark (overlapping)
        // ranges; what matters is that `in_test` resolves correctly.
        assert!(!st.test_ranges.is_empty());
        let helper = st.fns.iter().find(|f| f.name == "helper").unwrap();
        assert!(helper.in_test);
        let live = st.fns.iter().find(|f| f.name == "live").unwrap();
        assert!(!live.in_test);
        let pos = src.find("helper").unwrap();
        assert!(st.in_test(pos));
        assert!(!st.in_test(0));
    }

    #[test]
    fn inner_cfg_test_marks_the_whole_file() {
        let src = "//! Test helpers.\n#![cfg(test)]\nuse super::*;\n\
                   fn first() {}\nimpl Kit { fn second(&self) {} }\nfn third() {}\n";
        let st = parse(src);
        for name in ["first", "second", "third"] {
            let f = st.fns.iter().find(|f| f.name == name).unwrap();
            assert!(f.in_test, "{name} is test code");
            assert!(st.in_test(src.find(name).unwrap()));
        }
        // An outer `#[cfg(test)]` still marks only the next item.
        let src = "#[cfg(test)]\nfn helper() {}\nfn live() {}\n";
        let st = parse(src);
        assert!(st.fns.iter().find(|f| f.name == "helper").unwrap().in_test);
        assert!(!st.fns.iter().find(|f| f.name == "live").unwrap().in_test);
    }

    #[test]
    fn test_attr_fn_marks_range() {
        let src = "#[test]\nfn t() { let x = 1; }\nfn live() {}\n";
        let st = parse(src);
        assert!(st.fns.iter().find(|f| f.name == "t").unwrap().in_test);
        assert!(!st.fns.iter().find(|f| f.name == "live").unwrap().in_test);
    }

    #[test]
    fn structs_are_skipped_and_enum_variants_parsed() {
        let src = "pub struct S<T> { pub a: BTreeMap<u32, T>, b: Vec<(u8, u8)>, }\n\
                   struct P(u8);\nstruct U;\n\
                   enum E { A, B { x: u8 }, C(u32), }\n";
        let st = parse(src);
        assert_eq!(st.enums.len(), 1);
        let e = &st.enums[0];
        assert_eq!(e.name, "E");
        let names: Vec<&str> = e.variants.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["A", "B", "C"]);
    }

    #[test]
    fn snapshot_impl_detected_outside_tests_only() {
        let src = "impl SnapshotState for ControlPlaneState { fn reseed(&mut self, salt: u64) {} }\n\
                   #[cfg(test)]\nmod tests {\n  impl SnapshotState for Fake { fn reseed(&mut self, s: u64) {} }\n}\n";
        let st = parse(src);
        assert_eq!(st.snapshot_impls, vec!["ControlPlaneState".to_string()]);
    }

    #[test]
    fn impl_methods_are_collected() {
        let src = "impl Master { fn dispatch(&mut self, fx: &mut EffectSink<WqEvent>) { x(); } }";
        let st = parse(src);
        assert_eq!(st.fns.len(), 1);
        assert_eq!(st.fns[0].name, "dispatch");
    }

    #[test]
    fn generics_with_arrows_do_not_confuse() {
        let src = "fn apply<F: Fn(u32) -> u32>(f: F, x: Box<dyn Fn() -> bool>) -> u32 { f(1) }";
        let st = parse(src);
        assert_eq!(st.fns.len(), 1);
        assert_eq!(st.fns[0].params.len(), 2);
        assert_eq!(st.fns[0].ret, "u32");
    }
}
