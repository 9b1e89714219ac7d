//! A small zero-dependency Rust lexer for `memnet-lint`.
//!
//! The first generation of the lint was a line-oriented stripper: it blanked
//! comments and strings, then substring-matched the rest. That worked until
//! the things being matched started spanning lines (raw strings holding
//! `allow(...)`-shaped text, block comments with directives, nested generic
//! arguments split across lines). This module replaces it with a real —
//! if deliberately small — lexer: the whole file is tokenized once, and the
//! rules in `lib.rs` pattern-match token windows instead of line text.
//!
//! The token vocabulary is exactly what the rules need:
//!
//! * [`TokKind::Ident`] — identifiers *and* keywords (`fn`, `as` are just
//!   idents here; the scanner decides what they mean).
//! * [`TokKind::Lifetime`] — `'a`, `'static`. Kept distinct so the quote
//!   of a lifetime never opens a char literal that would swallow the code
//!   after it.
//! * [`TokKind::Str`] / [`TokKind::Char`] / [`TokKind::Num`] — literals.
//!   String contents are preserved in `text` but rules never look inside.
//!   Plain, raw (`r"…"`, `r#"…"#`, any hash depth), and byte forms are all
//!   handled, including multi-line bodies.
//! * [`TokKind::Comment`] — one token per comment (`//…` to end of line,
//!   `/* … */` with Rust's nesting, however many lines it spans). The
//!   directive parser reads these; `line` is where the comment *starts*.
//! * [`TokKind::Punct`] — every other non-whitespace character, one token
//!   each (`::` is two `Punct(':')` tokens; the scanner matches pairs).
//!
//! Every token carries the 1-based line it starts on, so findings and
//! `allow` suppressions keep precise line numbers even through multi-line
//! literals.

/// Token kinds; see the module docs for the vocabulary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw identifiers, `r#type`).
    Ident,
    /// Lifetime (`'a`, `'static`); `text` excludes the quote.
    Lifetime,
    /// String literal of any flavor (plain/raw/byte, any hash depth).
    Str,
    /// Char or byte-char literal.
    Char,
    /// Numeric literal (including suffixes, hex, floats, exponents).
    Num,
    /// One comment, line or block, possibly spanning lines.
    Comment,
    /// Any other single non-whitespace character.
    Punct(char),
}

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    pub kind: TokKind,
    /// Source text: the identifier/number itself, the comment body (without
    /// `//` / `/*` markers), or the raw literal text for strings/chars.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: usize,
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

fn is_ident_cont(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Tokenizes one file. Never fails: unterminated literals and comments
/// simply run to end of input (the lint scans work-in-progress trees, so
/// resilience beats strictness).
pub fn lex(text: &str) -> Vec<Tok> {
    let chars: Vec<char> = text.chars().collect();
    let n = chars.len();
    let mut toks = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;

    // Advances `line` for every newline in chars[from..to].
    let count_lines = |chars: &[char], from: usize, to: usize| -> usize {
        chars[from..to.min(chars.len())]
            .iter()
            .filter(|&&c| c == '\n')
            .count()
    };

    while i < n {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }

        // Comments.
        if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            let start = i + 2;
            let mut j = start;
            while j < n && chars[j] != '\n' {
                j += 1;
            }
            toks.push(Tok {
                kind: TokKind::Comment,
                text: chars[start..j].iter().collect(),
                line,
            });
            i = j;
            continue;
        }
        if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            let at = line;
            let start = i + 2;
            let mut depth = 1usize;
            let mut j = start;
            while j < n && depth > 0 {
                if chars[j] == '/' && j + 1 < n && chars[j + 1] == '*' {
                    depth += 1;
                    j += 2;
                } else if chars[j] == '*' && j + 1 < n && chars[j + 1] == '/' {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            let end = if depth == 0 { j - 2 } else { j };
            line += count_lines(&chars, start, j);
            toks.push(Tok {
                kind: TokKind::Comment,
                text: chars[start..end.max(start)].iter().collect(),
                line: at,
            });
            i = j;
            continue;
        }

        // Raw strings / raw identifiers / byte strings: r"…", r#"…"#,
        // br"…", b"…", b'…', r#ident.
        if c == 'r' || c == 'b' {
            let mut j = i;
            let mut is_raw = false;
            if chars[j] == 'b' && j + 1 < n && chars[j + 1] == 'r' {
                is_raw = true;
                j += 2;
            } else if chars[j] == 'r' {
                is_raw = true;
                j += 1;
            } else {
                // plain b"…" / b'…'
                j += 1;
            }
            if is_raw {
                let mut hashes = 0usize;
                while j < n && chars[j] == '#' {
                    hashes += 1;
                    j += 1;
                }
                if j < n && chars[j] == '"' {
                    // Raw string: scan for `"` followed by `hashes` hashes.
                    let at = line;
                    let body = j + 1;
                    let mut k = body;
                    let end;
                    loop {
                        if k >= n {
                            end = n;
                            break;
                        }
                        if chars[k] == '"' {
                            let mut h = 0usize;
                            let mut m = k + 1;
                            while m < n && h < hashes && chars[m] == '#' {
                                h += 1;
                                m += 1;
                            }
                            if h == hashes {
                                end = m;
                                break;
                            }
                        }
                        k += 1;
                    }
                    line += count_lines(&chars, i, end);
                    toks.push(Tok {
                        kind: TokKind::Str,
                        text: chars[i..end].iter().collect(),
                        line: at,
                    });
                    i = end;
                    continue;
                }
                if hashes == 1 && chars[i] == 'r' && j < n && is_ident_start(chars[j]) {
                    // Raw identifier r#type: lex as the identifier itself.
                    let start = j;
                    let mut k = j;
                    while k < n && is_ident_cont(chars[k]) {
                        k += 1;
                    }
                    toks.push(Tok {
                        kind: TokKind::Ident,
                        text: chars[start..k].iter().collect(),
                        line,
                    });
                    i = k;
                    continue;
                }
                // Not a raw literal after all (`r` / `b` the identifier,
                // `r #` punctuated): fall through to identifier lexing.
            } else if j < n && (chars[j] == '"' || chars[j] == '\'') {
                // b"…" byte string / b'…' byte char: delegate to the plain
                // literal scanners below by shifting past the prefix.
                let quote = chars[j];
                let (tok, end, lines) = scan_quoted(&chars, i, j, quote);
                line += lines;
                toks.push(Tok {
                    kind: tok,
                    text: chars[i..end].iter().collect(),
                    line: line - lines,
                });
                i = end;
                continue;
            }
        }

        if c == '"' {
            let (kind, end, lines) = scan_quoted(&chars, i, i, '"');
            let at = line;
            line += lines;
            toks.push(Tok {
                kind,
                text: chars[i..end].iter().collect(),
                line: at,
            });
            i = end;
            continue;
        }

        if c == '\'' {
            // Lifetime or char literal. `'ident` not followed by a closing
            // quote is a lifetime; everything else is a char literal.
            if i + 1 < n && is_ident_start(chars[i + 1]) && chars[i + 1] != '\\' {
                let mut k = i + 2;
                while k < n && is_ident_cont(chars[k]) {
                    k += 1;
                }
                if k >= n || chars[k] != '\'' {
                    toks.push(Tok {
                        kind: TokKind::Lifetime,
                        text: chars[i + 1..k].iter().collect(),
                        line,
                    });
                    i = k;
                    continue;
                }
            }
            let (_, end, lines) = scan_quoted(&chars, i, i, '\'');
            let at = line;
            line += lines;
            toks.push(Tok {
                kind: TokKind::Char,
                text: chars[i..end].iter().collect(),
                line: at,
            });
            i = end;
            continue;
        }

        if c.is_ascii_digit() {
            let start = i;
            let mut k = i;
            while k < n {
                let d = chars[k];
                if is_ident_cont(d) {
                    k += 1;
                } else if d == '.'
                    && k + 1 < n
                    && chars[k + 1].is_ascii_digit()
                    && (k == start || chars[k - 1] != '.')
                {
                    // Decimal point (but never the `..` of a range).
                    k += 1;
                } else if (d == '+' || d == '-')
                    && k > start
                    && (chars[k - 1] == 'e' || chars[k - 1] == 'E')
                    && k + 1 < n
                    && chars[k + 1].is_ascii_digit()
                {
                    // Exponent sign in 1.0e-5.
                    k += 1;
                } else {
                    break;
                }
            }
            toks.push(Tok {
                kind: TokKind::Num,
                text: chars[start..k].iter().collect(),
                line,
            });
            i = k;
            continue;
        }

        if is_ident_start(c) {
            let start = i;
            let mut k = i;
            while k < n && is_ident_cont(chars[k]) {
                k += 1;
            }
            toks.push(Tok {
                kind: TokKind::Ident,
                text: chars[start..k].iter().collect(),
                line,
            });
            i = k;
            continue;
        }

        toks.push(Tok {
            kind: TokKind::Punct(c),
            text: c.to_string(),
            line,
        });
        i += 1;
    }
    toks
}

/// Scans a plain (escaped) quoted literal starting at `open` (the quote
/// itself; `from` is where the token text begins, which may include a `b`
/// prefix). Returns `(kind, end index, newline count)`.
fn scan_quoted(chars: &[char], _from: usize, open: usize, quote: char) -> (TokKind, usize, usize) {
    let n = chars.len();
    let mut k = open + 1;
    let mut lines = 0usize;
    while k < n {
        let d = chars[k];
        if d == '\\' {
            k += 2;
            continue;
        }
        if d == '\n' {
            lines += 1;
        }
        if d == quote {
            k += 1;
            break;
        }
        k += 1;
    }
    let kind = if quote == '"' {
        TokKind::Str
    } else {
        TokKind::Char
    };
    (kind, k.min(n), lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String, usize)> {
        lex(src)
            .into_iter()
            .map(|t| (t.kind, t.text, t.line))
            .collect()
    }

    #[test]
    fn idents_puncts_and_lines() {
        let toks = kinds("fn f() {\n  x\n}\n");
        assert_eq!(toks[0], (TokKind::Ident, "fn".into(), 1));
        assert_eq!(toks[1], (TokKind::Ident, "f".into(), 1));
        assert_eq!(toks[4], (TokKind::Punct('{'), "{".into(), 1));
        assert_eq!(toks[5], (TokKind::Ident, "x".into(), 2));
        assert_eq!(toks[6], (TokKind::Punct('}'), "}".into(), 3));
    }

    #[test]
    fn line_comment_is_one_token() {
        let toks = kinds("a // memnet-lint: allow(x, y)\nb\n");
        assert_eq!(toks[0], (TokKind::Ident, "a".into(), 1));
        assert_eq!(
            toks[1],
            (TokKind::Comment, " memnet-lint: allow(x, y)".into(), 1)
        );
        assert_eq!(toks[2], (TokKind::Ident, "b".into(), 2));
    }

    #[test]
    fn nested_block_comment_spans_lines() {
        let toks = kinds("a /* one /* two */\nstill */ b\n");
        assert_eq!(toks.len(), 3);
        assert_eq!(toks[1].0, TokKind::Comment);
        assert_eq!(toks[1].2, 1);
        assert_eq!(toks[2], (TokKind::Ident, "b".into(), 2));
    }

    #[test]
    fn multiline_raw_string_is_one_token_and_lines_stay_true() {
        let src = "let s = r#\"line one\n// memnet-lint: allow(a, b)\nHashMap\"#;\nInstant\n";
        let toks = kinds(src);
        let raw = toks.iter().find(|t| t.0 == TokKind::Str).unwrap();
        assert!(raw.1.contains("HashMap"));
        assert_eq!(raw.2, 1);
        let after = toks.iter().find(|t| t.1 == "Instant").unwrap();
        assert_eq!(after.2, 4, "line counting must survive the raw string");
    }

    #[test]
    fn raw_string_hash_depths_and_byte_strings() {
        let toks = kinds(r####"r##"quote " and "# inside"## b"bytes" br"raw bytes""####);
        assert_eq!(
            toks.iter().filter(|t| t.0 == TokKind::Str).count(),
            3,
            "{toks:?}"
        );
    }

    #[test]
    fn lifetimes_are_not_char_literals_or_statics() {
        let toks = kinds("&'static str; fn f<'a>(x: &'a u8) {} let c = 'x'; let e = '\\n';");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.0 == TokKind::Lifetime)
            .map(|t| t.1.clone())
            .collect();
        assert_eq!(lifetimes, vec!["static", "a", "a"]);
        assert_eq!(toks.iter().filter(|t| t.0 == TokKind::Char).count(), 2);
        // The quote and the name are one Lifetime token, never a char
        // literal plus a stray Ident("static").
        assert!(!toks
            .iter()
            .any(|t| t.0 == TokKind::Ident && t.1 == "static"));
    }

    #[test]
    fn raw_identifiers_lex_as_identifiers() {
        let toks = kinds("let r#type = 1;");
        assert!(toks.iter().any(|t| t.0 == TokKind::Ident && t.1 == "type"));
        assert!(!toks.iter().any(|t| t.0 == TokKind::Str));
    }

    #[test]
    fn numbers_including_ranges_floats_exponents() {
        let toks = kinds("0..10 1.5e-3 0xff_u32 1_000");
        let nums: Vec<_> = toks
            .iter()
            .filter(|t| t.0 == TokKind::Num)
            .map(|t| t.1.clone())
            .collect();
        assert_eq!(nums, vec!["0", "10", "1.5e-3", "0xff_u32", "1_000"]);
    }

    #[test]
    fn escaped_quote_in_string_does_not_end_it() {
        let toks = kinds(r#"let s = "a \" HashMap b"; x"#);
        assert_eq!(toks.iter().filter(|t| t.0 == TokKind::Str).count(), 1);
        assert!(toks.iter().any(|t| t.1 == "x"));
        assert!(!toks
            .iter()
            .any(|t| t.0 == TokKind::Ident && t.1 == "HashMap"));
    }

    #[test]
    fn unterminated_literals_run_to_eof_without_panicking() {
        assert!(!lex("let s = \"unterminated").is_empty());
        assert!(!lex("let s = r#\"unterminated").is_empty());
        assert!(!lex("/* unterminated").is_empty());
    }
}
