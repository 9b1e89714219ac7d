//! A small JSON value, parser and compact writer (std only).
//!
//! The benchmark must not share a parser with the program it measures —
//! a bug in `memnet_obs::json` would then hide itself — so replies,
//! reports and `BENCHMARK.json` are read with this one. The `raw_*`
//! functions return the untouched text of a member or element, which is
//! what lets report bytes be compared exactly.

use std::fmt::Write as _;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Json {
    #[default]
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Members in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member `key` of an object; `None` for other kinds or a missing key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Follows `path` through nested objects.
    pub fn at(&self, path: &[&str]) -> Option<&Json> {
        path.iter().try_fold(self, |v, k| v.get(k))
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Number at `path`, or an error naming the path.
    pub fn num_at(&self, path: &[&str]) -> Result<f64, String> {
        self.at(path)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("no number at {}", path.join(".")))
    }

    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Compact serialization. Floats print with Rust's shortest
    /// round-trip form, so every measured digit survives.
    pub fn write(&self) -> String {
        let mut out = String::new();
        self.write_to(&mut out);
        out
    }

    fn write_to(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if !n.is_finite() => out.push_str("null"),
            Json::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_str(s, out),
            Json::Arr(a) => {
                out.push('[');
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_to(out);
                }
                out.push(']');
            }
            Json::Obj(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write_to(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value(0)?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing bytes at offset {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > 64 {
            return Err("nesting deeper than 64".into());
        }
        self.ws();
        match self.s.get(self.i) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                self.i += 1;
                let mut members = Vec::new();
                self.ws();
                if self.eat("}") {
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    if !self.eat(":") {
                        return Err(format!("expected ':' at offset {}", self.i));
                    }
                    members.push((key, self.value(depth + 1)?));
                    self.ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(members));
                    }
                    if !self.eat(",") {
                        return Err(format!("expected ',' or '}}' at offset {}", self.i));
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !self.eat(",") {
                        return Err(format!("expected ',' or ']' at offset {}", self.i));
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at offset {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected string at offset {}", self.i));
        }
        let mut out = Vec::new();
        loop {
            let Some(&c) = self.s.get(self.i) else {
                return Err("unterminated string".into());
            };
            self.i += 1;
            match c {
                b'"' => break,
                b'\\' => {
                    let Some(&e) = self.s.get(self.i) else {
                        return Err("unterminated escape".into());
                    };
                    self.i += 1;
                    match e {
                        b'"' | b'\\' | b'/' => out.push(e),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            self.i += 4;
                            // Surrogate pairs do not occur in memnet's output;
                            // a lone surrogate becomes U+FFFD rather than an error.
                            let ch = char::from_u32(hex).unwrap_or('\u{fffd}');
                            out.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return Err(format!("bad escape at offset {}", self.i)),
                    }
                }
                c => out.push(c),
            }
        }
        String::from_utf8(out).map_err(|_| "string is not UTF-8".to_string())
    }
}

/// The members of the JSON object `text` as (key, raw value text), in
/// one pass. Raw text is what lets a cached `report` be compared with the
/// first reply byte for byte, with no parse/re-serialize round trip in
/// between.
pub fn raw_members(text: &str) -> Option<Vec<(String, &str)>> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    p.ws();
    if !p.eat("{") {
        return None;
    }
    let mut members = Vec::new();
    loop {
        p.ws();
        if p.eat("}") {
            return Some(members);
        }
        let key = p.string().ok()?;
        p.ws();
        if !p.eat(":") {
            return None;
        }
        p.ws();
        let start = p.i;
        p.value(0).ok()?;
        members.push((key, &text[start..p.i]));
        p.ws();
        p.eat(",");
    }
}

/// The raw text at `path` through nested objects (`None` if absent).
pub fn raw_member<'a>(text: &'a str, path: &[&str]) -> Option<&'a str> {
    path.iter().try_fold(text, |t, key| {
        raw_members(t)?
            .into_iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    })
}

/// The raw text of every element of the JSON array `text`.
pub fn raw_elements(text: &str) -> Option<Vec<&str>> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    p.ws();
    if !p.eat("[") {
        return None;
    }
    let mut items = Vec::new();
    loop {
        p.ws();
        if p.eat("]") {
            return Some(items);
        }
        let start = p.i;
        p.value(0).ok()?;
        items.push(&text[start..p.i]);
        p.ws();
        p.eat(",");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_keeps_order_and_digits() {
        let text = r#"{"b":1.2034,"a":[true,null,"x\ny"],"c":{"d":-3e-7}}"#;
        let v = parse(text).expect("parses");
        assert_eq!(v.write(), text.replace("-3e-7", "-0.0000003"));
        assert_eq!(v.num_at(&["c", "d"]), Ok(-3e-7));
        assert_eq!(parse(&v.write()), Ok(v));
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "1 2", "\"\\x\"", "nul"] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn raw_member_returns_the_exact_bytes() {
        let line = r#"{"id":7,"result":{"cached":true,"report":{"x": 1.50,"y":[1,2]}}}"#;
        assert_eq!(
            raw_member(line, &["result", "report"]),
            Some(r#"{"x": 1.50,"y":[1,2]}"#)
        );
        assert_eq!(raw_member(line, &["result", "nope"]), None);
        assert_eq!(raw_member(line, &["id"]), Some("7"));
        assert_eq!(
            raw_elements(r#" [ {"a":[1,2]}, "x,y" ,3 ]"#),
            Some(vec![r#"{"a":[1,2]}"#, r#""x,y""#, "3"])
        );
        assert_eq!(raw_elements("[]"), Some(vec![]));
        assert_eq!(raw_elements("{}"), None);
    }
}
