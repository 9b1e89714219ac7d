//! memnet-lint: a determinism lint for the memnet workspace.
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
//! | `wall-clock` | `Instant::now`/`SystemTime` outside the files [`EXEMPTIONS`] lists (the engine run pool, the self-profiler, the serve daemon; benches live under `benches/`, which is not scanned) |
//! | `fs-narrowing` | a bare `as` cast of a `*_fs`/cycle value to a narrower integer type, parenthesized operands included; use the checked helpers in `memnet_common::time` |
//! | `tick-unwrap` | `.unwrap()` anywhere in non-test code, and `.expect(` inside tick-path functions (names starting with `tick`/`pump`/`advance`/`route`/`alloc`/`poll`/`apply_due`) |
//! | `thread-boundary` | `std::thread`/`thread::spawn`/`thread::scope`/`mpsc`/`crossbeam`/`rayon` outside `crates/engine/` and `crates/serve/` — threads and channels deliver in arrival order, so only the engine crate (the run pool) and the serve daemon may create them; simulation crates stay single-threaded |
//! | `bad-allow` | a `memnet-lint: allow(...)` directive naming an unknown rule or missing its reason |
//!
//! Hazards other checks already catch have no rule here: every crate
//! root forbids `unsafe_code` (`memnet-obs` denies it and allows it only
//! on the `GlobalAlloc` impl and its test), metric sinks take
//! `&'static str` names so a `format!`-built name does not compile, and
//! with threads confined to the engine and serve crates an atomic or
//! `static` in a simulation crate synchronizes nothing — state that leaks
//! from one run into the next is caught by the repeated-run tests in
//! `tests/regression.rs`.
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
//! Files and crates whose charter conflicts with one rule are exempted
//! from exactly that rule via [`EXEMPTIONS`] — e.g. `crates/serve/` may
//! read the wall clock (the daemon times real work, like the engine pool)
//! but remains subject to every other rule. `bad-allow` is never
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
#![forbid(unsafe_code)]

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
    "thread-boundary",
    "bad-allow",
];

/// Rule exemptions: `(path prefix, rule)` pairs. Every file whose
/// workspace-relative path starts with the prefix is exempt from that one
/// rule; all other rules still apply there. This is for files and crates
/// whose *charter* conflicts with a rule — the serve daemon, like the
/// engine pool, times real work (`busy_ms`) and may read the wall clock
/// anywhere, but it must still avoid hash collections, unwraps, and the
/// rest. Prefer a line-level `allow` for anything narrower than a file.
pub const EXEMPTIONS: &[(&str, &str)] = &[
    // The run pool times real threads, and the self-profiler attributes
    // driver-loop wall time — neither feeds simulated state.
    ("crates/engine/src/pool.rs", "wall-clock"),
    ("crates/obs/src/prof.rs", "wall-clock"),
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

/// The token-walking scanner for one file.
struct Scanner<'a> {
    file: &'a str,
    /// Non-comment tokens, in order.
    code: Vec<&'a Tok>,
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
                    "SystemTime" | "Instant"
                        if name == "SystemTime"
                            || (self.path_sep(p + 1) && self.ident_is(p + 3, "now")) =>
                    {
                        self.push(
                            line,
                            "wall-clock",
                            "wall-clock reads leak host time into the simulation; only the \
                             files EXEMPTIONS lists (the run pool, the profiler, the serve \
                             daemon) and benches may time real work"
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
                // `.unwrap()` / `.expect(`.
                if let Some(m) = self.ident(p + 1) {
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

    /// Reconstructs the operand immediately left of the `as` at `p`, for
    /// the narrowing rule: a path or method chain (idents, numbers, `.`,
    /// `::`), where a `)` takes in its whole balanced group — a call's
    /// arguments or a parenthesized expression such as `(t_fs / period)`.
    fn cast_lhs(&self, p: usize) -> String {
        let mut start = p;
        while start > 0 {
            match self.code[start - 1].kind {
                TokKind::Ident | TokKind::Num | TokKind::Punct('.') => start -= 1,
                // A path's `::`, but not the `:` of a field initializer,
                // whose name is the destination, not the operand.
                TokKind::Punct(':') if start >= 2 && self.punct(start - 2, ':') => start -= 2,
                TokKind::Punct(')') => {
                    let mut depth = 0usize;
                    while start > 0 {
                        start -= 1;
                        match self.code[start].kind {
                            TokKind::Punct(')') => depth += 1,
                            TokKind::Punct('(') if depth == 1 => break,
                            TokKind::Punct('(') => depth -= 1,
                            _ => {}
                        }
                    }
                }
                _ => break,
            }
        }
        self.code[start..p]
            .iter()
            .map(|t| t.text.as_str())
            .collect::<Vec<_>>()
            .join("")
    }
}

/// Lints one file's source text. `file` is the label used in reports and
/// matched against [`EXEMPTIONS`] (pass workspace-relative paths).
pub fn lint_source(file: &str, text: &str) -> Vec<Violation> {
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
    let exempt = |rule: &str| {
        EXEMPTIONS
            .iter()
            .any(|&(prefix, r)| r == rule && file.starts_with(prefix))
    };
    found.retain(|v| {
        v.rule == "bad-allow"
            || (!exempt(v.rule) && !allows.iter().any(|a| a.rule == v.rule && covers(a, v.line)))
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
                       let f = (t_fs / period) as u32;\n\
                       let g = (end_cycle - start) as u16;\n\
                       let h = S { ser_cycles: len as u32 };\n\
                   }\n";
        let vs = lint_source("crates/x/src/lib.rs", src);
        assert_eq!(
            rules_at(&vs),
            vec![
                ("fs-narrowing", 2),
                ("fs-narrowing", 3),
                ("fs-narrowing", 6),
                ("fs-narrowing", 7),
                ("fs-narrowing", 8)
            ],
            "len and f64 casts are fine, also into a cycle-named field; fs/cycle narrowings \
             are not: {vs:#?}"
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
