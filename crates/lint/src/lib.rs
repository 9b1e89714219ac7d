//! memnet-lint: a determinism and concurrency-soundness lint for the
//! memnet workspace.
//!
//! The repo's core guarantee — bit-identical reports and traces for the
//! same seed under both engine modes (DESIGN §5) — dies quietly the
//! first time someone iterates a `HashMap` in a tick path, reads the
//! wall clock inside the simulation, or spawns a thread in a simulation
//! crate. This crate is the static half of the defense (the runtime half
//! is `MEMNET_SANITIZE` in `memnet-core`): a zero-registry-dependency
//! analyzer over the workspace source.
//!
//! It is *not* a Rust parser, but it is no longer a line stripper either:
//! [`lexer`] tokenizes each file (comments, plain/raw/byte strings across
//! lines, char literals, lifetimes, numbers), and the rules below match
//! structural token patterns — so a `HashMap` inside a multi-line raw
//! string, a directive inside a string, or a generic argument split
//! across lines can no longer confuse the scanner.
//!
//! # Rules
//!
//! | rule | what it flags |
//! |------|---------------|
//! | `hash-collection` | any `HashMap`/`HashSet` mention in non-test sim code (random SipHash seeds ⇒ nondeterministic iteration order); use `BTreeMap`/`BTreeSet` or prove lookup-only use and suppress |
//! | `wall-clock` | `Instant::now`/`SystemTime` outside the engine pool allowlist (benches live under `benches/`, which is not scanned) |
//! | `fs-narrowing` | a bare `as` cast of a `*_fs`/cycle value to a narrower integer type; use the checked helpers in `memnet_common::time` |
//! | `tick-unwrap` | `.unwrap()` anywhere in non-test code, and `.expect(` inside tick-path functions (names starting with `tick`/`pump`/`advance`/`route`/`alloc`/`poll`/`apply_due`) |
//! | `metric-name-literal` | a `format!` inside the argument list of a metric-sink call (`.add(`/`.set(`/`.record_hist(`) — those take `&'static str` names so series identity is stable and hot paths stay allocation-free; dynamic names must go through the explicit `add_dyn`/`set_dyn` escape hatch or `set_entity` for indexed series |
//! | `thread-boundary` | `std::thread`/`thread::spawn`/`thread::scope`/`mpsc`/`crossbeam`/`rayon` outside `crates/engine/` and `crates/serve/` — threads and channels deliver in arrival order, so only the engine crate (the run pool) and the serve daemon may create them; simulation crates stay single-threaded |
//! | `unsafe-code` | the `unsafe` keyword outside [`UNSAFE_ALLOWLIST`] — the counting allocator implements `GlobalAlloc`; nowhere else may opt out of the borrow checker |
//! | `atomic-ordering` | `Ordering::Relaxed` or `Ordering::SeqCst` without a line-level justification — `Relaxed` is how happens-before edges quietly go missing and `SeqCst` is how reasoning gaps hide behind a global fence; each use must say why it is sound (`Acquire`/`Release`/`AcqRel` are the expected vocabulary and pass unremarked) |
//! | `static-state` | `static mut` and `static` items in simulation crates — process-wide mutable state survives across runs in one process and breaks replay; thread state through the `System` |
//! | `bad-allow` | a `memnet-lint: allow(...)` directive naming an unknown rule or missing its reason |
//!
//! # Suppressions
//!
//! ```text
//! // memnet-lint: allow(tick-unwrap, pid in a VC queue always names a live packet)
//! ```
//!
//! An `allow` applies to its own line and to the next line that contains
//! code — comment-only and blank lines in between are skipped, so
//! suppressions for different rules can stack above one flagged line.
//! The reason is mandatory; an `allow` without one (or naming a rule that
//! does not exist) is itself a violation, so suppressions stay auditable.
//! Directives live in comments only: the same text inside a string
//! literal is inert (it neither suppresses nor trips `bad-allow`).
//!
//! Whole crates whose charter conflicts with one rule are exempted from
//! exactly that rule via [`CRATE_RULE_EXEMPTIONS`] — e.g. `crates/serve/`
//! may read the wall clock (the daemon times real work, like the engine
//! pool) but remains subject to every other rule. `bad-allow` is never
//! exemptable.
//!
//! # Scope
//!
//! `src/` of every workspace crate except `memnet-lint` itself (its
//! fixtures mention the forbidden names), plus the root `src/`. Test
//! modules (`#[cfg(test)]`, `#[test]`), `tests/`, `benches/` and
//! `examples/` directories are exempt: tests may hash, time and unwrap at
//! will. (`bad-allow` still fires inside test modules — a malformed
//! suppression is a lie wherever it sits.)

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod lexer;

use lexer::{Tok, TokKind};

/// Every rule the scanner knows, in report order.
pub const RULES: &[&str] = &[
    "hash-collection",
    "wall-clock",
    "fs-narrowing",
    "tick-unwrap",
    "metric-name-literal",
    "thread-boundary",
    "unsafe-code",
    "atomic-ordering",
    "static-state",
    "bad-allow",
];

/// Files (workspace-relative) where wall-clock reads are legitimate: the
/// run pool times real threads, and the self-profiler attributes
/// driver-loop wall time — neither feeds simulated state.
pub const WALL_CLOCK_ALLOWLIST: &[&str] = &["crates/engine/src/pool.rs", "crates/obs/src/prof.rs"];

/// Files (workspace-relative) where `unsafe` is permitted. This is an
/// explicit, reviewed surface, not a convenience: `obs::prof` implements
/// `GlobalAlloc`, whose trait methods are `unsafe` by contract. Any other
/// `unsafe` must either move its need into this file or extend this list
/// in a reviewed diff.
pub const UNSAFE_ALLOWLIST: &[&str] = &["crates/obs/src/prof.rs"];

/// Per-crate rule exemptions: `(path prefix, rule)` pairs. Every file
/// whose workspace-relative path starts with the prefix is exempt from
/// that one rule; all other rules still apply there. This is for crates
/// whose *charter* conflicts with a rule — the serve daemon, like the
/// engine pool, times real work (`busy_ms`) and may read the wall clock
/// anywhere, but it must still avoid hash collections, unwraps, and the
/// rest. Prefer the file-level [`WALL_CLOCK_ALLOWLIST`] or a line-level
/// `allow` for anything narrower.
pub const CRATE_RULE_EXEMPTIONS: &[(&str, &str)] = &[
    ("crates/serve/", "wall-clock"),
    // Threading is a charter, not a convenience: the engine crate owns
    // the run pool and the serve daemon owns its per-connection
    // handlers. Everything else
    // — core, gpu, hmc, noc, cpu, obs — must stay single-threaded so a
    // stray `thread::spawn` can never introduce arrival-order
    // nondeterminism into simulation state.
    ("crates/engine/", "thread-boundary"),
    ("crates/serve/", "thread-boundary"),
];

/// Metric-sink method names whose name argument must be a `'static`
/// literal. `add_dyn`/`set_dyn` deliberately do not match: they are the
/// audited escape hatch for genuinely dynamic series names.
const METRIC_SINK_CALLS: &[&str] = &["add", "set", "record_hist"];

/// Function-name prefixes that mark a tick path (per-cycle simulation
/// code, where a panic takes down the whole run with no context).
const TICK_PATH_PREFIXES: &[&str] = &[
    "tick",
    "pump",
    "advance",
    "route",
    "alloc",
    "poll",
    "apply_due",
];

/// Integer types narrower than the 64-bit femtosecond/cycle domain.
const NARROW_INT_TYPES: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path (or the label passed to [`lint_source`]).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// One of [`RULES`].
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Result of a whole-workspace scan.
#[derive(Debug, Default)]
pub struct ScanResult {
    /// Number of `.rs` files scanned.
    pub files: usize,
    /// All findings, ordered by file then line.
    pub violations: Vec<Violation>,
}

impl ScanResult {
    /// Renders the scan as a small JSON document (hand-rolled, like every
    /// other JSON in this workspace) for `memnet lint --json`.
    pub fn to_json_string(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"files\": {},\n", self.files));
        s.push_str(&format!("  \"rules\": {},\n", RULES.len()));
        s.push_str(&format!("  \"clean\": {},\n", self.violations.is_empty()));
        s.push_str("  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
                esc(&v.file),
                v.line,
                v.rule,
                esc(&v.message)
            ));
        }
        if !self.violations.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}");
        s
    }
}

/// A validated suppression directive.
struct Allow {
    rule: String,
    line: usize,
}

/// Parses a `memnet-lint:` directive out of comment text.
///
/// Returns `None` when the comment has no directive, `Some(Ok(rule))` for
/// a valid `allow(rule, reason)`, and `Some(Err(message))` for a
/// malformed one.
fn parse_directive(comment: &str) -> Option<Result<String, String>> {
    let at = comment.find("memnet-lint:")?;
    let rest = comment[at + "memnet-lint:".len()..].trim_start();
    let Some(body) = rest.strip_prefix("allow(") else {
        return Some(Err(format!(
            "unknown directive {:?}; expected allow(<rule>, <reason>)",
            rest.split_whitespace().next().unwrap_or("")
        )));
    };
    let Some(close) = body.rfind(')') else {
        return Some(Err("unclosed allow(...) directive".to_string()));
    };
    let inner = &body[..close];
    let (rule, reason) = match inner.find(',') {
        Some(comma) => (inner[..comma].trim(), inner[comma + 1..].trim()),
        None => (inner.trim(), ""),
    };
    if !RULES.contains(&rule) {
        return Some(Err(format!(
            "allow names unknown rule {rule:?} (known: {})",
            RULES.join(", ")
        )));
    }
    if reason.is_empty() {
        return Some(Err(format!(
            "allow({rule}) must carry a reason: allow({rule}, <why this is safe>)"
        )));
    }
    Some(Ok(rule.to_string()))
}

fn is_tick_path(fn_name: &str) -> bool {
    TICK_PATH_PREFIXES.iter().any(|p| fn_name.starts_with(p))
}

fn file_matches(file: &str, entry: &str) -> bool {
    file == entry || file.ends_with(&format!("/{entry}"))
}

/// The token-walking scanner for one file.
struct Scanner<'a> {
    file: &'a str,
    /// Non-comment tokens, in order.
    code: Vec<&'a Tok>,
    wall_clock_allowed: bool,
    unsafe_allowed: bool,
    found: Vec<Violation>,
}

impl<'a> Scanner<'a> {
    fn ident(&self, p: usize) -> Option<&str> {
        self.code.get(p).and_then(|t| match t.kind {
            TokKind::Ident => Some(t.text.as_str()),
            _ => None,
        })
    }

    fn ident_is(&self, p: usize, s: &str) -> bool {
        self.ident(p) == Some(s)
    }

    fn punct(&self, p: usize, c: char) -> bool {
        self.code
            .get(p)
            .is_some_and(|t| t.kind == TokKind::Punct(c))
    }

    fn path_sep(&self, p: usize) -> bool {
        self.punct(p, ':') && self.punct(p + 1, ':')
    }

    fn line(&self, p: usize) -> usize {
        self.code.get(p).map_or(0, |t| t.line)
    }

    fn push(&mut self, line: usize, rule: &'static str, message: String) {
        self.found.push(Violation {
            file: self.file.to_string(),
            line,
            rule,
            message,
        });
    }

    /// Runs every non-structural rule against the token at `p`.
    /// `current_fn` is the enclosing function name, if any.
    fn check_at(&mut self, p: usize, current_fn: Option<&str>) {
        let Some(t) = self.code.get(p) else { return };
        let line = t.line;
        match &t.kind {
            TokKind::Ident => {
                let name = t.text.clone();
                match name.as_str() {
                    "HashMap" | "HashSet" => self.push(
                        line,
                        "hash-collection",
                        "HashMap/HashSet iteration order is nondeterministic (random SipHash \
                         seed); use BTreeMap/BTreeSet, or prove lookup-only use and suppress \
                         with a reason"
                            .to_string(),
                    ),
                    "SystemTime" if !self.wall_clock_allowed => self.push(
                        line,
                        "wall-clock",
                        "wall-clock reads leak host time into the simulation; only the engine \
                         run pool and benches may time real threads"
                            .to_string(),
                    ),
                    "Instant"
                        if !self.wall_clock_allowed
                            && self.path_sep(p + 1)
                            && self.ident_is(p + 3, "now") =>
                    {
                        self.push(
                            line,
                            "wall-clock",
                            "wall-clock reads leak host time into the simulation; only the \
                             engine run pool and benches may time real threads"
                                .to_string(),
                        )
                    }
                    "std" if self.path_sep(p + 1) && self.ident_is(p + 3, "thread") => {
                        self.thread_boundary(line, "std::thread")
                    }
                    // Only when not itself the tail of std::thread (that
                    // case already fired at `std`).
                    "thread"
                        if self.path_sep(p + 1)
                            && (self.ident_is(p + 3, "spawn") || self.ident_is(p + 3, "scope"))
                            && !(p >= 3 && self.ident_is(p - 3, "std") && self.path_sep(p - 2)) =>
                    {
                        let what = format!("thread::{}", self.ident(p + 3).unwrap_or_default());
                        self.thread_boundary(line, &what);
                    }
                    "mpsc" if self.path_sep(p + 1) => self.thread_boundary(line, "mpsc::"),
                    "crossbeam" | "rayon" => self.thread_boundary(line, &name),
                    "unsafe" if !self.unsafe_allowed => self.push(
                        line,
                        "unsafe-code",
                        "unsafe code is confined to the GlobalAlloc impl in obs::prof \
                         (UNSAFE_ALLOWLIST); nothing else may opt out of the borrow checker — \
                         restructure, or extend the allowlist in a reviewed diff"
                            .to_string(),
                    ),
                    "Ordering" if self.path_sep(p + 1) => {
                        if let Some(ord @ ("Relaxed" | "SeqCst")) = self.ident(p + 3) {
                            let why = if ord == "Relaxed" {
                                "Relaxed creates no happens-before edge — a reader may see this \
                                 update without the writes that preceded it"
                            } else {
                                "SeqCst is a global fence that usually papers over an unproven \
                                 protocol — name the invariant instead"
                            };
                            self.push(
                                self.line(p + 3),
                                "atomic-ordering",
                                format!(
                                    "Ordering::{ord} requires a justification: {why}; state why \
                                     this ordering is sound with \
                                     // memnet-lint: allow(atomic-ordering, <reason>)"
                                ),
                            );
                        }
                    }
                    "static" => {
                        let msg = if self.ident_is(p + 1, "mut") {
                            "static mut is an unsynchronized global — there is no sound use in \
                             this workspace; thread state through the System"
                                .to_string()
                        } else {
                            "static items carry process-wide state across runs in one process \
                             (sweep pool, serve daemon) and break replay; use a const, or \
                             thread the state through the System"
                                .to_string()
                        };
                        self.push(line, "static-state", msg);
                    }
                    "as" => {
                        if let Some(ty) = self.ident(p + 1) {
                            if NARROW_INT_TYPES.contains(&ty) {
                                let lhs = self.cast_lhs(p);
                                if lhs.contains("_fs") || lhs.contains("cycle") {
                                    self.push(
                                        line,
                                        "fs-narrowing",
                                        format!(
                                            "bare `{lhs} as {ty}` silently truncates a \
                                             femtosecond/cycle value; use the checked \
                                             narrowing helpers in memnet_common::time"
                                        ),
                                    );
                                }
                            }
                        }
                    }
                    _ => {}
                }
            }
            TokKind::Punct('.') => {
                // `.unwrap()` / `.expect(` / metric sinks.
                if let Some(m) = self.ident(p + 1) {
                    let m = m.to_string();
                    if m == "unwrap" && self.punct(p + 2, '(') && self.punct(p + 3, ')') {
                        self.push(
                            self.line(p + 1),
                            "tick-unwrap",
                            "unwrap() panics without context; return an error, use a checked \
                             accessor, or suppress with the invariant that makes this \
                             infallible"
                                .to_string(),
                        );
                    } else if m == "expect"
                        && self.punct(p + 2, '(')
                        && current_fn.is_some_and(is_tick_path)
                    {
                        self.push(
                            self.line(p + 1),
                            "tick-unwrap",
                            format!(
                                "expect() in tick path `{}` takes down the whole run on a \
                                 model bug; suppress with the invariant that makes this \
                                 infallible",
                                current_fn.unwrap_or("?")
                            ),
                        );
                    } else if METRIC_SINK_CALLS.contains(&m.as_str())
                        && self.punct(p + 2, '(')
                        && self.args_contain_format(p + 2)
                    {
                        self.push(
                            self.line(p + 1),
                            "metric-name-literal",
                            "metric names must be 'static literals (stable series identity, no \
                             per-sample allocation); route dynamic names through \
                             add_dyn/set_dyn, or use set_entity for indexed per-component \
                             series"
                                .to_string(),
                        );
                    }
                }
            }
            _ => {}
        }
    }

    fn thread_boundary(&mut self, line: usize, what: &str) {
        self.push(
            line,
            "thread-boundary",
            format!(
                "`{what}` outside crates/engine and crates/serve: threads and channels \
                 deliver in arrival order, which breaks bit-identical replay; route \
                 concurrency through the engine crate's run pool instead"
            ),
        );
    }

    /// Reconstructs the identifier chain immediately left of the `as` at
    /// `p` (idents, numbers, `.`, `(`, `)`, `::`), for the narrowing rule.
    fn cast_lhs(&self, p: usize) -> String {
        let mut start = p;
        while start > 0 {
            let t = self.code[start - 1];
            let keep = matches!(t.kind, TokKind::Ident | TokKind::Num)
                || matches!(
                    t.kind,
                    TokKind::Punct('.') | TokKind::Punct('(') | TokKind::Punct(')')
                )
                || t.kind == TokKind::Punct(':');
            if keep {
                start -= 1;
            } else {
                break;
            }
        }
        self.code[start..p]
            .iter()
            .map(|t| t.text.as_str())
            .collect::<Vec<_>>()
            .join("")
    }

    /// True when the argument list opening at `open` (a `(` token)
    /// contains a `format!` invocation at any nesting depth.
    fn args_contain_format(&self, open: usize) -> bool {
        let mut depth = 0i64;
        let mut q = open;
        while q < self.code.len() {
            match self.code[q].kind {
                TokKind::Punct('(') => depth += 1,
                TokKind::Punct(')') => {
                    depth -= 1;
                    if depth == 0 {
                        return false;
                    }
                }
                TokKind::Ident if self.code[q].text == "format" && self.punct(q + 1, '!') => {
                    return true;
                }
                _ => {}
            }
            q += 1;
        }
        false
    }
}

/// Lints one file's source text. `file` is the label used in reports and
/// matched against the file allowlists (pass workspace-relative paths).
pub fn lint_source(file: &str, text: &str) -> Vec<Violation> {
    let exempt: Vec<&str> = CRATE_RULE_EXEMPTIONS
        .iter()
        .filter(|(prefix, _)| file.starts_with(prefix))
        .map(|&(_, rule)| rule)
        .collect();
    let toks = lexer::lex(text);

    // Directives (and their failures) come from comment tokens only —
    // an allow(...) inside a string literal is inert by construction.
    let mut allows: Vec<Allow> = Vec::new();
    let mut found: Vec<Violation> = Vec::new();
    for t in toks.iter().filter(|t| t.kind == TokKind::Comment) {
        match parse_directive(&t.text) {
            Some(Ok(rule)) => allows.push(Allow { rule, line: t.line }),
            Some(Err(message)) => found.push(Violation {
                file: file.to_string(),
                line: t.line,
                rule: "bad-allow",
                message,
            }),
            None => {}
        }
    }

    let mut sc = Scanner {
        file,
        code: toks.iter().filter(|t| t.kind != TokKind::Comment).collect(),
        wall_clock_allowed: exempt.contains(&"wall-clock")
            || WALL_CLOCK_ALLOWLIST.iter().any(|e| file_matches(file, e)),
        unsafe_allowed: UNSAFE_ALLOWLIST.iter().any(|e| file_matches(file, e)),
        found,
    };

    // Lines that contain at least one code token, sorted: an allow on
    // line L covers L plus the first code line after L.
    let mut code_lines: Vec<usize> = sc.code.iter().map(|t| t.line).collect();
    code_lines.dedup();

    let mut depth: i64 = 0;
    // Brace depths at which `#[cfg(test)]`/`#[test]` scopes opened; any
    // nonempty stack means the current token is test code.
    let mut test_scopes: Vec<i64> = Vec::new();
    let mut pending_test_attr = false;
    // Enclosing-function tracking: (entry depth, name).
    let mut fn_stack: Vec<(i64, String)> = Vec::new();
    let mut pending_fn: Option<String> = None;

    let mut p = 0usize;
    while p < sc.code.len() {
        // Attributes: classify (test-scoping or not) and skip their body —
        // no rule ever needs to fire inside `#[...]`.
        if sc.punct(p, '#') {
            let open = if sc.punct(p + 1, '[') {
                Some(p + 1)
            } else if sc.punct(p + 1, '!') && sc.punct(p + 2, '[') {
                Some(p + 2)
            } else {
                None
            };
            if let Some(open) = open {
                let mut d = 0i64;
                let mut q = open;
                while q < sc.code.len() {
                    match sc.code[q].kind {
                        TokKind::Punct('[') => d += 1,
                        TokKind::Punct(']') => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    q += 1;
                }
                // `#[test]` (first attr token is `test`) or a
                // `cfg(test …)` anywhere inside the attribute body.
                let is_test_attr = sc.ident_is(open + 1, "test")
                    || (open + 1..q).any(|r| {
                        sc.ident_is(r, "cfg") && sc.punct(r + 1, '(') && sc.ident_is(r + 2, "test")
                    });
                if is_test_attr {
                    pending_test_attr = true;
                }
                p = q + 1;
                continue;
            }
        }

        // Function-name tracking for the tick-path rule.
        if sc.ident_is(p, "fn") {
            if let Some(name) = sc.ident(p + 1) {
                pending_fn = Some(name.to_string());
            }
        }

        let in_test = pending_test_attr || !test_scopes.is_empty();
        if !in_test {
            let current_fn = pending_fn
                .as_deref()
                .or_else(|| fn_stack.last().map(|(_, n)| n.as_str()));
            let current_fn = current_fn.map(str::to_string);
            sc.check_at(p, current_fn.as_deref());
        }

        match sc.code[p].kind {
            TokKind::Punct('{') => {
                if pending_test_attr {
                    test_scopes.push(depth);
                    pending_test_attr = false;
                }
                if let Some(name) = pending_fn.take() {
                    fn_stack.push((depth, name));
                }
                depth += 1;
            }
            TokKind::Punct('}') => {
                depth -= 1;
                while test_scopes.last().is_some_and(|&d| depth <= d) {
                    test_scopes.pop();
                }
                while fn_stack.last().is_some_and(|&(d, _)| depth <= d) {
                    fn_stack.pop();
                }
            }
            TokKind::Punct(';') => {
                // A pending attribute/fn is consumed by the first `{`;
                // hitting `;` first means the item was braceless
                // (e.g. `#[cfg(test)] use …;` or a trait method
                // declaration) and must not leak onto the next item.
                pending_test_attr = false;
                pending_fn = None;
            }
            _ => {}
        }
        p += 1;
    }

    let mut found = sc.found;
    // An allow on line L suppresses the same rule on L and on the first
    // code line after L (intervening comment-only/blank lines skipped, so
    // suppressions for different rules can stack above one line).
    let covers = |a: &Allow, line: usize| -> bool {
        if a.line == line {
            return true;
        }
        match code_lines.iter().find(|&&c| c > a.line) {
            Some(&next) => next == line,
            None => false,
        }
    };
    found.retain(|v| {
        v.rule == "bad-allow"
            || (!exempt.contains(&v.rule)
                && !allows.iter().any(|a| a.rule == v.rule && covers(a, v.line)))
    });
    found.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    found
}

/// Recursively collects `.rs` files under `dir`, sorted for deterministic
/// report order.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scans the workspace rooted at `root`: `src/` of every crate under
/// `crates/` except `lint`, plus the root `src/`.
pub fn scan_workspace(root: &Path) -> io::Result<ScanResult> {
    let mut files = Vec::new();
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut files)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut dirs: Vec<PathBuf> = fs::read_dir(&crates)?
            .map(|e| e.map(|e| e.path()))
            .collect::<io::Result<_>>()?;
        dirs.sort();
        for dir in dirs {
            if dir.file_name().is_some_and(|n| n == "lint") {
                continue;
            }
            let src = dir.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    let mut result = ScanResult::default();
    for path in &files {
        let text = fs::read_to_string(path)?;
        let label = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .into_owned();
        result.violations.extend(lint_source(&label, &text));
        result.files += 1;
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_at(vs: &[Violation]) -> Vec<(&'static str, usize)> {
        vs.iter().map(|v| (v.rule, v.line)).collect()
    }

    #[test]
    fn flags_hash_collections_in_sim_code() {
        let src = "use std::collections::HashMap;\n\
                   struct S {\n\
                       m: HashMap<u32, u32>,\n\
                   }\n";
        let vs = lint_source("crates/x/src/lib.rs", src);
        assert_eq!(
            rules_at(&vs),
            vec![("hash-collection", 1), ("hash-collection", 3)]
        );
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "struct S;\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       use std::collections::HashSet;\n\
                       #[test]\n\
                       fn t() {\n\
                           let s: HashSet<u32> = HashSet::new();\n\
                           let _ = s.iter().next().unwrap();\n\
                       }\n\
                   }\n\
                   struct After;\n";
        assert!(lint_source("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_on_a_use_item_does_not_exempt_what_follows() {
        let src = "#[cfg(test)]\n\
                   use std::fmt;\n\
                   fn f() {\n\
                       let x: Option<u32> = None;\n\
                       let _ = x.unwrap();\n\
                   }\n";
        let vs = lint_source("crates/x/src/lib.rs", src);
        assert_eq!(rules_at(&vs), vec![("tick-unwrap", 5)]);
    }

    #[test]
    fn strings_and_comments_do_not_trip_rules() {
        let src = "fn f() {\n\
                       let s = \"HashMap is banned\"; // HashMap in a comment\n\
                       let r = r#\"Instant::now in a raw string\"#;\n\
                       /* SystemTime in a block\n\
                          comment spanning lines */\n\
                   }\n";
        assert!(lint_source("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn multiline_raw_strings_hide_nothing_and_reveal_nothing() {
        // Satellite regression for the old line-oriented Stripper: a raw
        // string spanning lines used to be able to desynchronize the
        // stripper. Under the lexer, (1) forbidden names *inside* the
        // string are inert, (2) an allow-shaped directive inside the
        // string neither suppresses nor trips bad-allow, and (3) code
        // *after* the literal is still linted at its true line.
        let src = "fn f() -> &'static str {\n\
                       r#\"\n\
                       use std::collections::HashMap;\n\
                       // memnet-lint: allow(tick-unwrap, fake reason in a string)\n\
                       Instant::now();\n\
                       \"#\n\
                   }\n\
                   fn g(x: Option<u32>) -> u32 {\n\
                       x.unwrap()\n\
                   }\n";
        let vs = lint_source("crates/x/src/lib.rs", src);
        assert_eq!(
            rules_at(&vs),
            vec![("tick-unwrap", 9)],
            "only the real unwrap, at its true line: {vs:#?}"
        );
    }

    #[test]
    fn allows_inside_cfg_test_blocks_both_directions() {
        // A well-formed allow inside a test module parses quietly…
        let ok = "#[cfg(test)]\n\
                  mod tests {\n\
                      // memnet-lint: allow(hash-collection, exercising the suppression path)\n\
                      use std::collections::HashMap;\n\
                  }\n";
        assert!(lint_source("crates/x/src/lib.rs", ok).is_empty());
        // …but a malformed one is still flagged: suppression hygiene is
        // global, test module or not.
        let bad = "#[cfg(test)]\n\
                   mod tests {\n\
                       // memnet-lint: allow(hash-collection)\n\
                       use std::collections::HashMap;\n\
                   }\n";
        assert_eq!(
            rules_at(&lint_source("crates/x/src/lib.rs", bad)),
            vec![("bad-allow", 3)]
        );
    }

    #[test]
    fn allow_with_reason_suppresses_same_and_next_line() {
        let trailing = "fn f(m: &std::collections::HashMap<u32, u32>, k: u32) -> Option<&u32> {\n\
                        m.get(&k) // lookup only\n\
                        }\n";
        // Without an allow the signature line is flagged…
        assert_eq!(
            rules_at(&lint_source("crates/x/src/lib.rs", trailing)),
            vec![("hash-collection", 1)]
        );
        // …with a standalone allow above, it is clean.
        let above = format!(
            "// memnet-lint: allow(hash-collection, lookup-only map, never iterated)\n{trailing}"
        );
        assert!(lint_source("crates/x/src/lib.rs", &above).is_empty());
    }

    #[test]
    fn allows_stack_across_comment_only_lines() {
        // Two directives above one line that trips two rules: the first
        // allow's "next line" skips the second comment and lands on the
        // code, so both suppressions apply.
        let src = "// memnet-lint: allow(hash-collection, lookup-only)\n\
                   // memnet-lint: allow(tick-unwrap, key proven present above)\n\
                   fn f(m: &std::collections::HashMap<u32, u32>) -> u32 { *m.get(&0).unwrap() }\n";
        assert!(lint_source("crates/x/src/lib.rs", src).is_empty());
        // And the window is exactly one code line: code after that is
        // not covered.
        let src2 = "// memnet-lint: allow(tick-unwrap, first line only)\n\
                    fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n\
                    fn g(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(
            rules_at(&lint_source("crates/x/src/lib.rs", src2)),
            vec![("tick-unwrap", 3)]
        );
    }

    #[test]
    fn allow_without_reason_is_flagged_and_does_not_suppress() {
        let src = "// memnet-lint: allow(hash-collection)\n\
                   use std::collections::HashMap;\n";
        let vs = lint_source("crates/x/src/lib.rs", src);
        assert_eq!(
            rules_at(&vs),
            vec![("bad-allow", 1), ("hash-collection", 2)]
        );
    }

    #[test]
    fn allow_naming_unknown_rule_is_flagged() {
        let src = "// memnet-lint: allow(no-such-rule, because)\nstruct S;\n";
        let vs = lint_source("crates/x/src/lib.rs", src);
        assert_eq!(rules_at(&vs), vec![("bad-allow", 1)]);
        assert!(vs[0].message.contains("no-such-rule"));
    }

    #[test]
    fn wall_clock_flagged_except_in_pool_allowlist() {
        let src = "fn f() {\n    let t = std::time::Instant::now();\n}\n";
        assert_eq!(
            rules_at(&lint_source("crates/x/src/lib.rs", src)),
            vec![("wall-clock", 2)]
        );
        assert!(lint_source("crates/engine/src/pool.rs", src).is_empty());
    }

    #[test]
    fn narrowing_cast_on_fs_and_cycle_values_flagged() {
        let src = "fn f(t_fs: u64, cycles: u64, len: u64) {\n\
                       let a = t_fs as u32;\n\
                       let b = cycles as u16;\n\
                       let c = len as u32;\n\
                       let d = t_fs as f64;\n\
                       let e = self.clock.next_fs() as i32;\n\
                   }\n";
        let vs = lint_source("crates/x/src/lib.rs", src);
        assert_eq!(
            rules_at(&vs),
            vec![
                ("fs-narrowing", 2),
                ("fs-narrowing", 3),
                ("fs-narrowing", 6)
            ],
            "len and f64 casts are fine; fs/cycle narrowings are not: {vs:#?}"
        );
    }

    #[test]
    fn narrowing_cast_found_across_a_line_break() {
        // The old line-oriented scanner could only see ` as ` with both
        // sides on one line; the lexer does not care where the break is.
        let src = "fn f(t_fs: u64) {\n    let a = t_fs\n        as u32;\n}\n";
        assert_eq!(
            rules_at(&lint_source("crates/x/src/lib.rs", src)),
            vec![("fs-narrowing", 3)]
        );
    }

    #[test]
    fn unwrap_flagged_everywhere_expect_only_in_tick_paths() {
        let src = "fn build() {\n\
                       let a: Option<u32> = None;\n\
                       let _ = a.expect(\"fine outside tick paths\");\n\
                       let _ = a.unwrap();\n\
                   }\n\
                   fn tick_core() {\n\
                       let b: Option<u32> = None;\n\
                       let _ = b.expect(\"not fine here\");\n\
                   }\n";
        let vs = lint_source("crates/x/src/lib.rs", src);
        assert_eq!(rules_at(&vs), vec![("tick-unwrap", 4), ("tick-unwrap", 8)]);
        assert!(vs[1].message.contains("tick_core"));
    }

    #[test]
    fn unwrap_or_variants_are_not_unwrap() {
        let src = "fn tick(x: Option<u32>) -> u32 {\n\
                       x.unwrap_or(0) + x.unwrap_or_default() + x.unwrap_or_else(|| 1)\n\
                   }\n";
        assert!(lint_source("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn format_into_metric_sink_calls_is_flagged() {
        let src = "fn snapshot(m: &mut M, i: usize) {\n\
                       m.add(&format!(\"gpu{i}.reqs\"), 1);\n\
                       m.set(&format!(\"gpu{i}.occ\"), 0.5);\n\
                       m.record_hist(&format!(\"h{i}\"), 3);\n\
                   }\n";
        let vs = lint_source("crates/x/src/lib.rs", src);
        assert_eq!(
            rules_at(&vs),
            vec![
                ("metric-name-literal", 2),
                ("metric-name-literal", 3),
                ("metric-name-literal", 4)
            ]
        );
        assert!(vs[0].message.contains("add_dyn"));
    }

    #[test]
    fn metric_sink_format_found_across_lines() {
        // Structural upgrade over the old same-line heuristic: the
        // format! is inside the argument list even when it sits on the
        // next line — and a format! *outside* the arguments is innocent.
        let flagged = "fn snapshot(m: &mut M, i: usize) {\n\
                           m.add(\n\
                               &format!(\"gpu{i}.reqs\"),\n\
                               1,\n\
                           );\n\
                       }\n";
        assert_eq!(
            rules_at(&lint_source("crates/x/src/lib.rs", flagged)),
            vec![("metric-name-literal", 2)]
        );
        let clean = "fn snapshot(m: &mut M, i: usize) {\n\
                         m.add(\"net.flits\", 1); let s = format!(\"unrelated {i}\");\n\
                     }\n";
        assert!(lint_source("crates/x/src/lib.rs", clean).is_empty());
    }

    #[test]
    fn literal_names_and_dyn_escape_hatch_are_clean() {
        let src = "fn snapshot(m: &mut M, i: usize) {\n\
                       m.add(\"net.flits\", 1);\n\
                       m.set(\"gpu.occupancy\", 0.5);\n\
                       m.set_entity(\"gpu\", i, \"occupancy\", 0.5);\n\
                       m.add_dyn(&format!(\"gpu{i}.reqs\"), 1);\n\
                       m.set_dyn(&format!(\"gpu{i}.occ\"), 0.5);\n\
                       let s = format!(\"unrelated {i}\");\n\
                   }\n";
        assert!(lint_source("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn profiler_module_may_read_the_wall_clock() {
        let src = "fn f() {\n    let t = std::time::Instant::now();\n}\n";
        assert!(lint_source("crates/obs/src/prof.rs", src).is_empty());
    }

    #[test]
    fn crate_exemption_lifts_exactly_one_rule() {
        let src = "fn f() {\n    let t = std::time::Instant::now();\n}\n";
        // The serve crate's charter includes timing real work…
        assert!(lint_source("crates/serve/src/server.rs", src).is_empty());
        assert!(lint_source("crates/serve/src/cache.rs", src).is_empty());
        // …but the same code in any other crate is still flagged…
        assert_eq!(
            rules_at(&lint_source("crates/x/src/lib.rs", src)),
            vec![("wall-clock", 2)]
        );
        // …and the exemption is not a blanket pass: every other rule
        // still applies inside the exempted crate.
        let hashy = "use std::collections::HashMap;\n";
        assert_eq!(
            rules_at(&lint_source("crates/serve/src/server.rs", hashy)),
            vec![("hash-collection", 1)]
        );
        let unwrappy = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
        assert_eq!(
            rules_at(&lint_source("crates/serve/src/job.rs", unwrappy)),
            vec![("tick-unwrap", 2)]
        );
    }

    #[test]
    fn serve_wall_clock_charter_grants_no_concurrency_exemptions() {
        // The serve crate may read the wall clock, but its exemption list
        // stops there: unsafe and unjustified atomics are still flagged.
        let unsafe_src = "fn f() {\n    unsafe { std::hint::unreachable_unchecked() }\n}\n";
        assert_eq!(
            rules_at(&lint_source("crates/serve/src/server.rs", unsafe_src)),
            vec![("unsafe-code", 2)]
        );
        let atomics = "fn f(x: &std::sync::atomic::AtomicU64) {\n\
                           x.load(Ordering::Relaxed);\n\
                       }\n";
        assert_eq!(
            rules_at(&lint_source("crates/serve/src/server.rs", atomics)),
            vec![("atomic-ordering", 2)]
        );
        // And statics stay banned there too (only the engine crate's
        // charter covers them).
        let staticy = "static CACHE_HITS: AtomicU64 = AtomicU64::new(0);\n";
        assert_eq!(
            rules_at(&lint_source("crates/serve/src/cache.rs", staticy)),
            vec![("static-state", 1)]
        );
    }

    #[test]
    fn thread_use_flagged_outside_engine_and_serve() {
        let spawny = "fn f() {\n\
                          let h = std::thread::spawn(|| 1);\n\
                          let (tx, rx) = mpsc::channel();\n\
                      }\n";
        // Simulation crates and the root binary may not create threads…
        assert_eq!(
            rules_at(&lint_source("crates/core/src/system/engine.rs", spawny)),
            vec![("thread-boundary", 2), ("thread-boundary", 3)]
        );
        assert_eq!(
            rules_at(&lint_source("src/main.rs", spawny)),
            vec![("thread-boundary", 2), ("thread-boundary", 3)]
        );
        // …and the message names the sanctioned route.
        let vs = lint_source("crates/gpu/src/sm.rs", spawny);
        assert!(vs[0].message.contains("engine"), "{}", vs[0].message);
    }

    #[test]
    fn engine_and_serve_crates_may_create_threads() {
        let spawny = "fn f() {\n\
                          std::thread::scope(|s| { s.spawn(|| 1); });\n\
                      }\n";
        assert!(lint_source("crates/engine/src/pool.rs", spawny).is_empty());
        assert!(lint_source("crates/serve/src/server.rs", spawny).is_empty());
    }

    #[test]
    fn crate_exemption_does_not_lift_bad_allow() {
        let src = "// memnet-lint: allow(wall-clock)\nstruct S;\n";
        assert_eq!(
            rules_at(&lint_source("crates/serve/src/server.rs", src)),
            vec![("bad-allow", 1)]
        );
    }

    #[test]
    fn unsafe_banned_outside_the_allowlist() {
        let src = "fn f(p: *mut u8) {\n    unsafe { *p = 1 };\n}\n\
                   unsafe impl Send for S {}\n";
        // Simulation crates: both the block and the impl are flagged.
        let vs = lint_source("crates/gpu/src/gpu.rs", src);
        assert_eq!(rules_at(&vs), vec![("unsafe-code", 2), ("unsafe-code", 4)]);
        assert!(vs[0].message.contains("UNSAFE_ALLOWLIST"));
        // The GlobalAlloc impl may.
        assert!(lint_source("crates/obs/src/prof.rs", src).is_empty());
        // `unsafe` in a string or comment is not code.
        let quoted = "fn f() { let s = \"unsafe\"; } // unsafe in prose\n";
        assert!(lint_source("crates/gpu/src/gpu.rs", quoted).is_empty());
    }

    #[test]
    fn relaxed_and_seqcst_need_a_reason_acquire_release_do_not() {
        let src = "fn f(x: &AtomicU64) {\n\
                       x.load(Ordering::Acquire);\n\
                       x.store(1, Ordering::Release);\n\
                       x.fetch_add(1, Ordering::AcqRel);\n\
                       x.load(Ordering::Relaxed);\n\
                       x.fetch_max(2, Ordering::SeqCst);\n\
                   }\n";
        let vs = lint_source("crates/x/src/lib.rs", src);
        assert_eq!(
            rules_at(&vs),
            vec![("atomic-ordering", 5), ("atomic-ordering", 6)]
        );
        assert!(vs[0].message.contains("happens-before"));
        assert!(vs[1].message.contains("SeqCst"));
        // A justified use is clean — and the justification covers only
        // its own line plus the next code line.
        let justified = "fn f(x: &AtomicU64) {\n\
                             // memnet-lint: allow(atomic-ordering, monotone counter, read only at join)\n\
                             x.fetch_add(1, Ordering::Relaxed);\n\
                         }\n";
        assert!(lint_source("crates/x/src/lib.rs", justified).is_empty());
    }

    #[test]
    fn static_items_banned_in_sim_crates() {
        let src = "static COUNTER: AtomicU64 = AtomicU64::new(0);\n\
                   static mut SCRATCH: u64 = 0;\n\
                   fn f(s: &'static str) -> &'static str { s }\n";
        let vs = lint_source("crates/noc/src/network/tick.rs", src);
        assert_eq!(
            rules_at(&vs),
            vec![("static-state", 1), ("static-state", 2)],
            "the 'static lifetimes on line 3 are not static items: {vs:#?}"
        );
        assert!(vs[1].message.contains("static mut"));
        // Statics in test modules are test scaffolding.
        let test_static = "#[cfg(test)]\nmod tests {\n    static T: u64 = 0;\n}\n";
        assert!(lint_source("crates/noc/src/network/tick.rs", test_static).is_empty());
    }

    #[test]
    fn scan_result_json_escapes_and_reports() {
        let res = ScanResult {
            files: 3,
            violations: vec![Violation {
                file: "crates/x/src/lib.rs".to_string(),
                line: 7,
                rule: "wall-clock",
                message: "say \"why\"\n".to_string(),
            }],
        };
        let json = res.to_json_string();
        assert!(json.contains("\"files\": 3"));
        assert!(json.contains("\"clean\": false"));
        assert!(json.contains("say \\\"why\\\"\\n"));
        let clean = ScanResult::default().to_json_string();
        assert!(clean.contains("\"clean\": true"));
        assert!(clean.contains("\"violations\": []"));
    }

    #[test]
    fn display_format_is_file_line_rule() {
        let v = Violation {
            file: "crates/x/src/lib.rs".to_string(),
            line: 7,
            rule: "wall-clock",
            message: "m".to_string(),
        };
        assert_eq!(v.to_string(), "crates/x/src/lib.rs:7: wall-clock: m");
    }
}
