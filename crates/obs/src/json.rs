//! Hand-rolled JSON: a streaming writer, the [`ToJson`] trait, and a small
//! recursive-descent parser.
//!
//! The build environment is offline, so the workspace carries no serde.
//! This module covers everything the simulator needs from JSON:
//!
//! * [`JsonWriter`] — a push-style writer (compact or pretty) used by the
//!   Chrome-trace exporter and the experiment artifacts;
//! * [`ToJson`] — implemented for primitives, strings, slices and
//!   (via [`to_json_struct!`](crate::to_json_struct)) plain structs;
//! * [`parse`] — a strict parser into [`JsonValue`] for reading documents
//!   back (golden files, and every outside input [`Fields`] reads);
//! * [`split_members`] — the same checks without the tree: an object's
//!   top-level members as raw bytes, for a caller that answers from them;
//! * [`Fields`] — the one strict typed reader that turns a parsed outside
//!   input (serve request, workload model, fault plan, snapshot) into
//!   values: deny unknown, deny duplicate, exact integers, path in every
//!   error;
//! * [`Snap`] — the checkpoint's encoding of each value, with
//!   [`snap_struct!`](crate::snap_struct) for plain-data records.
//!
//! Non-finite floats have no JSON representation; the writer emits `null`
//! for NaN and ±∞, matching what `JSON.stringify` does.

use memnet_common::stats::RunningStats;
use std::fmt::Write as _;

/// Types that can write themselves as one JSON value.
pub trait ToJson {
    /// Writes exactly one JSON value into `w`.
    fn write_json(&self, w: &mut JsonWriter);

    /// Serializes `self` compactly.
    fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }

    /// Serializes `self` with two-space indentation.
    fn to_json_pretty(&self) -> String {
        let mut w = JsonWriter::pretty();
        self.write_json(&mut w);
        w.finish()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ctx {
    Object,
    Array,
}

/// A push-style JSON writer.
///
/// Call [`begin_object`](Self::begin_object)/[`begin_array`](Self::begin_array)
/// to open containers, [`key`](Self::key) (or [`field`](Self::field)) for
/// object members, and the value methods for scalars. Commas and
/// indentation are inserted automatically.
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    pretty: bool,
    /// Open containers and how many members each has so far.
    stack: Vec<(Ctx, usize)>,
    /// Set between `key()` and the member's value.
    expect_value: bool,
}

impl Default for JsonWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonWriter {
    /// Creates a compact writer.
    pub fn new() -> Self {
        JsonWriter {
            out: String::new(),
            pretty: false,
            stack: Vec::new(),
            expect_value: false,
        }
    }

    /// Creates a writer with two-space indentation.
    pub fn pretty() -> Self {
        JsonWriter {
            pretty: true,
            ..Self::new()
        }
    }

    /// Returns the accumulated JSON text.
    ///
    /// # Panics
    ///
    /// Panics if a container is still open.
    pub fn finish(self) -> String {
        assert!(self.stack.is_empty(), "unclosed JSON container");
        self.out
    }

    fn newline_indent(&mut self, depth: usize) {
        self.out.push('\n');
        for _ in 0..depth {
            self.out.push_str("  ");
        }
    }

    /// Comma/indent bookkeeping before a bare value (array element or
    /// top-level document).
    fn pre_value(&mut self) {
        if self.expect_value {
            self.expect_value = false;
            return;
        }
        if let Some(&mut (ctx, ref mut count)) = self.stack.last_mut() {
            debug_assert_eq!(ctx, Ctx::Array, "object members need key() first");
            if *count > 0 {
                self.out.push(',');
            }
            *count += 1;
            if self.pretty {
                let depth = self.stack.len();
                self.newline_indent(depth);
            }
        }
    }

    /// Starts an object member; must be followed by exactly one value.
    pub fn key(&mut self, k: &str) {
        debug_assert!(!self.expect_value, "key() after key()");
        let depth = self.stack.len();
        #[allow(clippy::expect_used, reason = "follows begin_object(); misuse is a bug")]
        let (ctx, count) = self.stack.last_mut().expect("key() outside an object");
        debug_assert_eq!(*ctx, Ctx::Object, "key() inside an array");
        if *count > 0 {
            self.out.push(',');
        }
        *count += 1;
        if self.pretty {
            self.newline_indent(depth);
        }
        write_escaped(&mut self.out, k);
        self.out.push(':');
        if self.pretty {
            self.out.push(' ');
        }
        self.expect_value = true;
    }

    /// Writes `key` followed by `v` as one object member.
    pub fn field<T: ToJson + ?Sized>(&mut self, key: &str, v: &T) {
        self.key(key);
        v.write_json(self);
    }

    /// Writes `key` followed by an object holding one member per
    /// `(name, value)` pair, in iteration order.
    pub fn object_field<K: AsRef<str>, V: ToJson>(
        &mut self,
        key: &str,
        members: impl IntoIterator<Item = (K, V)>,
    ) {
        self.key(key);
        self.begin_object();
        for (k, v) in members {
            self.field(k.as_ref(), &v);
        }
        self.end_object();
    }

    /// Writes one value (array element or keyed member).
    pub fn value<T: ToJson + ?Sized>(&mut self, v: &T) {
        v.write_json(self);
    }

    /// Opens an object.
    pub fn begin_object(&mut self) {
        self.pre_value();
        self.out.push('{');
        self.stack.push((Ctx::Object, 0));
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) {
        #[allow(clippy::expect_used, reason = "pairs with begin_object(); misuse is a bug")]
        let (ctx, count) = self.stack.pop().expect("end_object without begin_object");
        debug_assert_eq!(ctx, Ctx::Object);
        if self.pretty && count > 0 {
            let depth = self.stack.len();
            self.newline_indent(depth);
        }
        self.out.push('}');
    }

    /// Opens an array.
    pub fn begin_array(&mut self) {
        self.pre_value();
        self.out.push('[');
        self.stack.push((Ctx::Array, 0));
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) {
        #[allow(clippy::expect_used, reason = "pairs with begin_array(); misuse is a bug")]
        let (ctx, count) = self.stack.pop().expect("end_array without begin_array");
        debug_assert_eq!(ctx, Ctx::Array);
        if self.pretty && count > 0 {
            let depth = self.stack.len();
            self.newline_indent(depth);
        }
        self.out.push(']');
    }

    /// Writes a string value (escaped).
    pub fn string(&mut self, s: &str) {
        self.pre_value();
        write_escaped(&mut self.out, s);
    }

    /// Writes a float; NaN and ±∞ become `null`.
    #[allow(clippy::cast_possible_truncation, reason = "`v` is an integer within 2^53")]
    pub fn number(&mut self, v: f64) {
        self.pre_value();
        // An integer within 2^53 (but `-0`) has the digits Display prints
        // for it as an `i64` too, which skips the float formatter.
        let integer = v.fract() == 0.0 && v.abs() <= MAX_SAFE_INT as f64;
        if integer && (v != 0.0 || v.is_sign_positive()) {
            let _ = write!(self.out, "{}", v as i64);
        } else if v.is_finite() {
            // Rust's Display for f64 is shortest-roundtrip decimal — valid JSON.
            let _ = write!(self.out, "{v}");
        } else {
            self.out.push_str("null");
        }
    }

    /// Writes an unsigned integer.
    pub fn uint(&mut self, v: u64) {
        self.pre_value();
        let _ = write!(self.out, "{v}");
    }

    /// Writes a boolean.
    pub fn boolean(&mut self, v: bool) {
        self.pre_value();
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.pre_value();
        self.out.push_str("null");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// ToJson implementations
// ---------------------------------------------------------------------------

macro_rules! impl_tojson_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, w: &mut JsonWriter) {
                w.uint(*self as u64);
            }
        }
    )*};
}
impl_tojson_uint!(u8, u16, u32, u64, usize);

impl ToJson for f64 {
    fn write_json(&self, w: &mut JsonWriter) {
        w.number(*self);
    }
}
impl ToJson for bool {
    fn write_json(&self, w: &mut JsonWriter) {
        w.boolean(*self);
    }
}
impl ToJson for str {
    fn write_json(&self, w: &mut JsonWriter) {
        w.string(self);
    }
}
impl ToJson for String {
    fn write_json(&self, w: &mut JsonWriter) {
        w.string(self);
    }
}
impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, w: &mut JsonWriter) {
        (**self).write_json(w);
    }
}
impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_array();
        for v in self {
            v.write_json(w);
        }
        w.end_array();
    }
}
impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        self.as_slice().write_json(w);
    }
}

/// Implements [`ToJson`] for a struct as an object of its named fields.
/// Given the field names of a struct declared elsewhere it writes the
/// `impl`; given the declaration itself it writes both, so the field list
/// exists once.
///
/// ```
/// memnet_obs::to_json_struct! {
///     struct Row {
///         workload: &'static str,
///         kernel_ns: f64,
///     }
/// }
/// # use memnet_obs::json::ToJson;
/// assert_eq!(
///     Row { workload: "KMN", kernel_ns: 1.5 }.to_json(),
///     r#"{"workload":"KMN","kernel_ns":1.5}"#
/// );
/// ```
#[macro_export]
macro_rules! to_json_struct {
    ($(#[$meta:meta])* $vis:vis struct $name:ident {
        $($(#[$fmeta:meta])* $fvis:vis $field:ident: $fty:ty),+ $(,)?
    }) => {
        $(#[$meta])* $vis struct $name { $($(#[$fmeta])* $fvis $field: $fty),+ }
        $crate::to_json_struct!($name { $($field),+ });
    };
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn write_json(&self, w: &mut $crate::json::JsonWriter) {
                w.begin_object();
                $(w.field(stringify!($field), &self.$field);)+
                w.end_object();
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null` (also produced by the writer for non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON does not distinguish integer from float).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// An object of `members`, in order.
    pub fn object<'k>(members: impl IntoIterator<Item = (&'k str, JsonValue)>) -> JsonValue {
        JsonValue::Object(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Member lookup on objects; `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(m) => Some(m),
            _ => None,
        }
    }
}

impl ToJson for JsonValue {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            JsonValue::Null => w.null(),
            JsonValue::Bool(b) => w.boolean(*b),
            JsonValue::Number(n) => w.number(*n),
            JsonValue::String(s) => w.string(s),
            JsonValue::Array(items) => {
                w.begin_array();
                for v in items {
                    v.write_json(w);
                }
                w.end_array();
            }
            JsonValue::Object(members) => {
                w.begin_object();
                for (k, v) in members {
                    w.field(k, v);
                }
                w.end_object();
            }
        }
    }
}

/// A parse failure with its byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub pos: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document, rejecting trailing garbage.
pub fn parse(s: &str) -> Result<JsonValue, JsonError> {
    Parser::new(s).document(Parser::value)
}

/// Checks `s` as [`parse`] would — the same grammar, errors and nesting
/// limit (`MAX_DEPTH`) — without building a tree or allocating, and
/// hands each top-level member of an object document to `member` as it
/// goes: the key's bytes between its quotes, escapes as written, and the
/// value's bytes as written. A document that is not an object has no
/// members. On an error the members before it have been handed out too,
/// so a caller acts on them only after `Ok`.
pub fn split_members<'a>(
    s: &'a str,
    mut member: impl FnMut(&'a str, &'a str),
) -> Result<(), JsonError> {
    Parser::new(s).document(|p| {
        if p.peek() != Some(b'{') {
            return p.skip_value();
        }
        p.nested(|p| {
            p.object(|p, (), key| {
                let start = p.pos;
                p.skip_value()?;
                member(key, &p.src[start..p.pos]);
                Ok(())
            })
        })
    })
}

/// Deepest container nesting [`parse`] follows. The parser recurses per
/// level, so an unbounded `[[[[…` line would overflow the stack; no
/// document the workspace reads or writes nests past eight.
const MAX_DEPTH: usize = 64;

/// Where a scanned string's text goes: into the `String` [`parse`]
/// builds, or nowhere when [`split_members`] only checks it.
trait Text: Default {
    /// Appends a run of source bytes holding no quote, backslash or
    /// control byte, so it starts and ends at scalar boundaries.
    fn push_run(&mut self, run: &[u8]);
    /// Appends one decoded escape.
    fn push_char(&mut self, c: char);
}

impl Text for String {
    fn push_run(&mut self, run: &[u8]) {
        #[allow(clippy::expect_used, reason = "a &str cut at ASCII bytes")]
        self.push_str(std::str::from_utf8(run).expect("valid utf8"));
    }
    fn push_char(&mut self, c: char) {
        self.push(c);
    }
}

impl Text for () {
    fn push_run(&mut self, _: &[u8]) {}
    fn push_char(&mut self, _: char) {}
}

/// A refusal, whose position and message the parser holds: a `?` inside
/// the parser then moves a one-byte result rather than a [`JsonError`].
struct Refused;

type Step<T> = Result<T, Refused>;

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open.
    depth: usize,
    /// Why the parse stopped, once a step is refused.
    error: JsonError,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Parser<'a> {
        Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            depth: 0,
            error: JsonError { pos: 0, msg: "" },
        }
    }

    /// Runs `step` over the one document in the source, which nothing but
    /// whitespace may follow.
    fn document<T>(mut self, step: impl FnOnce(&mut Self) -> Step<T>) -> Result<T, JsonError> {
        self.skip_ws();
        let done = step(&mut self).and_then(|v| {
            self.skip_ws();
            if self.pos != self.bytes.len() {
                return self.fail("trailing characters after document");
            }
            Ok(v)
        });
        done.map_err(|Refused| self.error)
    }

    /// Refuses the document at the current byte.
    fn fail<T>(&mut self, msg: &'static str) -> Step<T> {
        self.fail_at(self.pos, msg)
    }

    fn fail_at<T>(&mut self, pos: usize, msg: &'static str) -> Step<T> {
        self.error = JsonError { pos, msg };
        Err(Refused)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, msg: &'static str) -> Step<()> {
        if self.peek() != Some(b) {
            return self.fail(msg);
        }
        self.pos += 1;
        Ok(())
    }

    fn literal(&mut self, lit: &str) -> Step<()> {
        if !self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            return self.fail("invalid literal");
        }
        self.pos += lit.len();
        Ok(())
    }

    fn value(&mut self) -> Step<JsonValue> {
        match self.peek() {
            Some(b'{') => self.nested(|p| {
                let mut members = Vec::new();
                p.object(|p, key: String, _| {
                    members.push((key, p.value()?));
                    Ok(())
                })?;
                Ok(JsonValue::Object(members))
            }),
            Some(b'[') => self.nested(|p| {
                let mut items = Vec::new();
                p.array(|p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(JsonValue::Array(items))
            }),
            Some(b'"') => self.string().map(JsonValue::String),
            Some(b't') => self.literal("true").map(|()| JsonValue::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| JsonValue::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => {
                let start = self.pos;
                self.number()?;
                match self.src[start..self.pos].parse::<f64>() {
                    Ok(n) => Ok(JsonValue::Number(n)),
                    Err(_) => self.fail_at(start, "invalid number"),
                }
            }
            _ => self.fail("expected a JSON value"),
        }
    }

    /// [`Parser::value`] without the value: the same checks, nothing built.
    fn skip_value(&mut self) -> Step<()> {
        match self.peek() {
            Some(b'{') => self.nested(|p| p.object(|p, (), _| p.skip_value())),
            Some(b'[') => self.nested(|p| p.array(Self::skip_value)),
            Some(b'"') => self.string::<()>(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.fail("expected a JSON value"),
        }
    }

    /// Runs `container` one level deeper, refusing to pass [`MAX_DEPTH`].
    fn nested<T>(&mut self, container: impl FnOnce(&mut Self) -> Step<T>) -> Step<T> {
        if self.depth == MAX_DEPTH {
            return self.fail("nesting too deep");
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    /// Walks one object. `member` gets each key, as text of type `K` and
    /// as its raw bytes between the quotes, with the parser at the value,
    /// which it must consume.
    fn object<K: Text>(
        &mut self,
        mut member: impl FnMut(&mut Self, K, &'a str) -> Step<()>,
    ) -> Step<()> {
        self.expect(b'{', "expected '{'")?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let start = self.pos;
            let key = self.string()?;
            let raw = &self.src[start + 1..self.pos - 1];
            self.skip_ws();
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            member(self, key, raw)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return self.fail("expected ',' or '}' in object"),
            }
        }
    }

    /// Walks one array; `item` consumes each element.
    fn array(&mut self, mut item: impl FnMut(&mut Self) -> Step<()>) -> Step<()> {
        self.expect(b'[', "expected '['")?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return self.fail("expected ',' or ']' in array"),
            }
        }
    }

    fn hex4(&mut self) -> Step<u32> {
        let mut v = 0u32;
        for _ in 0..4 {
            let Some(d) = self.peek() else {
                return self.fail("truncated \\u escape");
            };
            let Some(d) = (d as char).to_digit(16) else {
                return self.fail("invalid \\u escape");
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn string<T: Text>(&mut self) -> Step<T> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = T::default();
        loop {
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|b| matches!(b, b'"' | b'\\' | 0x00..=0x1f))
                .unwrap_or(rest.len());
            if run > 0 {
                out.push_run(&rest[..run]);
                self.pos += run;
            }
            match self.peek() {
                None => return self.fail("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.escape()?;
                    out.push_char(c);
                }
                Some(_) => return self.fail("raw control character in string"),
            }
        }
    }

    /// Decodes the escape after a backslash.
    fn escape(&mut self) -> Step<char> {
        let Some(e) = self.peek() else {
            return self.fail("truncated escape");
        };
        self.pos += 1;
        Ok(match e {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{08}',
            b'f' => '\u{0c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let cp = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: require the low half.
                    if self.peek() != Some(b'\\') {
                        return self.fail("unpaired surrogate");
                    }
                    self.pos += 1;
                    if self.peek() != Some(b'u') {
                        return self.fail("unpaired surrogate");
                    }
                    self.pos += 1;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return self.fail("invalid low surrogate");
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                match char::from_u32(cp) {
                    Some(c) => c,
                    None => return self.fail("invalid unicode escape"),
                }
            }
            _ => return self.fail("unknown escape"),
        })
    }

    /// Scans one number, refusing it unless RFC 8259 allows it:
    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, not followed by
    /// another number byte. So the token is still cut as the longest run
    /// of `[0-9.eE+-]`, and `05`, `1.`, `1.e2` and `01.5` are invalid
    /// numbers, as `.5` and `+1` never start a value.
    fn number(&mut self) -> Step<()> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let first = self.peek();
        let int = self.digits();
        let mut valid = int == 1 || (int > 1 && first != Some(b'0'));
        if valid && self.peek() == Some(b'.') {
            self.pos += 1;
            valid = self.digits() > 0;
        }
        if valid && matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            valid = self.digits() > 0;
        }
        let more = matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        );
        if !valid || more {
            return self.fail_at(start, "invalid number");
        }
        Ok(())
    }

    /// Skips a run of decimal digits, returning its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }
}

// ---------------------------------------------------------------------------
// Strict typed reader
// ---------------------------------------------------------------------------

/// Largest integer a JSON number carries exactly (the parser stores `f64`).
pub const MAX_SAFE_INT: u64 = 1 << 53;

/// A value in the checkpoint's encoding, the one place that encoding is
/// chosen. A `u64` is decimal text: the parser stores JSON numbers as
/// `f64`, which would round it above 2^53. An `f64` is its IEEE-754 bit
/// pattern as decimal text: the writer maps NaN and ±∞ to `null`, which
/// would destroy the `RunningStats` sentinels.
pub trait Snap: Sized {
    /// `self` as one snapshot value.
    fn snap(&self) -> JsonValue;
    /// Reads back what [`Snap::snap`] wrote; a refusal names `f`'s path.
    fn unsnap(f: Field) -> Result<Self, String>;
}

macro_rules! impl_snap {
    ($($t:ty: $write:expr, $read:expr;)*) => {$(
        impl Snap for $t {
            fn snap(&self) -> JsonValue {
                $write(self)
            }
            fn unsnap(f: Field) -> Result<$t, String> {
                $read(f)
            }
        }
    )*};
}
// A `u64` reads back as a count, cycle, deadline or sequence number. A
// full-width one (bit pattern, hash, RNG state, cache tag) is written the
// same way and read by `Field::u64_str`.
impl_snap! {
    u64: |v: &u64| JsonValue::String(v.to_string()), |f: Field| f.uint_str();
    u32: |v: &u32| u64::from(*v).snap(), |f: Field| f.want(f.decimal(), "a u32 decimal string");
    f64: |v: &f64| v.to_bits().snap(), |f: Field| f.u64_str().map(f64::from_bits);
    bool: |v: &bool| JsonValue::Bool(*v), |f: Field| f.bool();
    String: |v: &String| JsonValue::String(v.clone()), |f: Field| f.str().map(str::to_string);
}

impl<T: Snap> Snap for Vec<T> {
    fn snap(&self) -> JsonValue {
        JsonValue::Array(self.iter().map(T::snap).collect())
    }
    fn unsnap(f: Field) -> Result<Vec<T>, String> {
        f.list(T::unsnap)
    }
}

/// An accumulator as `{count, sum, min, max}`, the ±∞ sentinels of an
/// empty one included.
impl Snap for RunningStats {
    fn snap(&self) -> JsonValue {
        let (count, sum, min, max) = self.raw();
        let bits = [("sum", sum), ("min", min), ("max", max)].map(|(k, v)| (k, v.snap()));
        JsonValue::object([("count", count.snap())].into_iter().chain(bits))
    }
    fn unsnap(f: Field) -> Result<Self, String> {
        let read = |r: &Fields| Ok((r.get("count")?, r.get("sum")?, r.get("min")?, r.get("max")?));
        let (count, sum, min, max) = f.record(read)?;
        Ok(Self::from_raw(count, sum, min, max))
    }
}

/// An array of `vs`, each in its snapshot encoding.
pub fn snaps<T: Snap>(vs: impl IntoIterator<Item = T>) -> JsonValue {
    JsonValue::Array(vs.into_iter().map(|v| v.snap()).collect())
}

/// Declares a plain-data snapshot record, so its field list exists once:
/// `members()` writes each field in its [`Snap`] encoding, in declaration
/// order, to nest as one object or to flatten into the owner's; `read(f)`
/// reads every member from `f` into a new value (whoever holds `f`
/// finishes it).
#[macro_export]
macro_rules! snap_struct {
    ($(#[$meta:meta])* $vis:vis struct $name:ident {
        $($(#[$fmeta:meta])* $fvis:vis $field:ident: $fty:ty),+ $(,)?
    }) => {
        $(#[$meta])* $vis struct $name { $($(#[$fmeta])* $fvis $field: $fty),+ }
        impl $name {
            pub(crate) fn members(&self) -> Vec<(&'static str, $crate::json::JsonValue)> {
                vec![$((stringify!($field), $crate::json::Snap::snap(&self.$field))),+]
            }
            pub(crate) fn read(f: &$crate::json::Fields) -> Result<Self, String> {
                Ok($name { $($field: f.get(stringify!($field))?),+ })
            }
        }
    };
}

/// Refuses an array of `got` entries at `path` where the component
/// reading it holds `want`.
pub fn fit_len(path: &str, got: usize, want: usize) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    Err(format!(
        "field '{path}' holds {got} entries, this configuration has {want}"
    ))
}

/// A strict view over one JSON object's members, carrying its dotted path.
///
/// Every outside input — serve requests, workload models, fault plans,
/// snapshots — becomes a typed value through this one reader (DESIGN,
/// "Input formats: one reader"). Members are taken by key with
/// [`req`](Self::req) / [`opt`](Self::opt) and converted by the [`Field`]
/// accessors; [`finish`](Self::finish) then rejects the first member
/// nobody took. A key that occurs twice is an error when it is taken.
/// Every message names the full path (`events[1].ordinal`,
/// `params.model.kernel.iters`).
#[derive(Debug)]
pub struct Fields<'a> {
    path: String,
    members: &'a [(String, JsonValue)],
    /// Bit `i` is set once member `i` was taken.
    taken: std::cell::Cell<u64>,
}

/// One member (or array element) handed out by [`Fields`], not yet typed.
#[derive(Debug, Clone, Copy)]
pub struct Field<'a, 'p> {
    prefix: &'p str,
    key: &'p str,
    index: Option<usize>,
    value: &'a JsonValue,
}

impl<'a> Fields<'a> {
    /// Views `v` as an object located at `path`, for a reader that must
    /// [`finish`](Self::finish) before it acts on what it read; the others
    /// use [`Field::record`].
    pub fn new(v: &'a JsonValue, path: &str) -> Result<Fields<'a>, String> {
        Field::root(v, path).object()
    }

    /// The dotted path of this object (empty at a document root).
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The optional member `key`.
    pub fn opt<'p>(&'p self, key: &'p str) -> Result<Option<Field<'a, 'p>>, String> {
        let mut hits = self.members.iter().enumerate().filter(|(_, m)| m.0 == key);
        let Some((i, (_, value))) = hits.next() else {
            return Ok(None);
        };
        let field = Field {
            prefix: &self.path,
            key,
            index: None,
            value,
        };
        if hits.next().is_some() {
            return Err(format!("duplicate field '{}'", field.path()));
        }
        self.taken.set(self.taken.get() | 1 << i);
        Ok(Some(field))
    }

    /// The required member `key`.
    pub fn req<'p>(&'p self, key: &'p str) -> Result<Field<'a, 'p>, String> {
        self.opt(key)?
            .ok_or_else(|| format!("missing field '{}'", join(&self.path, key)))
    }

    /// The required member `key`, read in its [`Snap`] encoding.
    pub fn get<T: Snap>(&self, key: &str) -> Result<T, String> {
        T::unsnap(self.req(key)?)
    }

    /// Ends the read: the first member nobody took is an unknown field.
    pub fn finish(&self) -> Result<(), String> {
        match (!self.taken.get()).trailing_zeros() as usize {
            i if i < self.members.len() => Err(self.unknown(i)),
            _ => Ok(()),
        }
    }

    fn unknown(&self, i: usize) -> String {
        format!("unknown field '{}'", join(&self.path, &self.members[i].0))
    }
}

/// `prefix.key`, without the dot when either side is empty.
fn join(prefix: &str, key: &str) -> String {
    let sep = if prefix.is_empty() || key.is_empty() {
        ""
    } else {
        "."
    };
    format!("{prefix}{sep}{key}")
}

impl<'a, 'p> Field<'a, 'p> {
    /// A whole document (or an already-located value) as a field at
    /// `path`; empty for a document root.
    pub fn root(value: &'a JsonValue, path: &'p str) -> Field<'a, 'p> {
        Field {
            prefix: "",
            key: path,
            index: None,
            value,
        }
    }

    /// The full dotted path, e.g. `gpus[0].l2.ways`.
    pub fn path(&self) -> String {
        let path = join(self.prefix, self.key);
        match self.index {
            Some(i) => format!("{path}[{i}]"),
            None => path,
        }
    }

    fn want<T>(&self, got: Option<T>, what: impl std::fmt::Display) -> Result<T, String> {
        got.ok_or_else(|| match self.path() {
            root if root.is_empty() => format!("the document must be {what}"),
            path => format!("'{path}' must be {what}"),
        })
    }

    /// The raw value, for members that are echoed rather than interpreted.
    pub fn value(&self) -> &'a JsonValue {
        self.value
    }

    /// A string.
    pub fn str(&self) -> Result<&'a str, String> {
        self.want(self.value.as_str(), "a string")
    }

    /// A string that `parse` recognises as the name of a `what`.
    pub fn named<T>(
        &self,
        what: &str,
        parse: impl FnOnce(&'a str) -> Option<T>,
    ) -> Result<T, String> {
        let name = self.str()?;
        parse(name).ok_or_else(|| format!("'{}': unknown {what} '{name}'", self.path()))
    }

    /// A boolean.
    pub fn bool(&self) -> Result<bool, String> {
        self.want(self.value.as_bool(), "a boolean")
    }

    /// A finite number.
    pub fn f64(&self) -> Result<f64, String> {
        let n = self.value.as_f64().filter(|n| n.is_finite());
        self.want(n, "a finite number")
    }

    /// An exact non-negative integer no larger than `limit` — and never
    /// above 2^53, past which the parser's `f64` would have rounded it.
    #[allow(clippy::cast_possible_truncation, reason = "`n` is an integer within 2^53")]
    pub fn uint(&self, limit: u64) -> Result<u64, String> {
        let limit = limit.min(MAX_SAFE_INT);
        let n = self
            .value
            .as_f64()
            .filter(|n| n.is_finite() && *n >= 0.0 && n.fract() == 0.0 && *n <= limit as f64);
        // Exact: `n` is an integer within 2^53.
        self.want(
            n.map(|n| n as u64),
            format_args!("an exact non-negative integer ≤ {limit}"),
        )
    }

    /// A `u64` in its [`Snap`] encoding, over all 64 bits: a bit pattern,
    /// hash, RNG state or cache tag.
    pub fn u64_str(&self) -> Result<u64, String> {
        self.want(self.decimal(), "a u64 decimal string")
    }

    /// A count, cycle, deadline or sequence number in its [`Snap`]
    /// encoding: no larger than 2^53, like every other outside integer,
    /// so a run that adds to it cannot overflow.
    pub fn uint_str(&self) -> Result<u64, String> {
        self.uint_str_to(MAX_SAFE_INT)
    }

    /// [`Field::uint_str`], no larger than `limit` either.
    pub fn uint_str_to(&self, limit: u64) -> Result<u64, String> {
        let limit = limit.min(MAX_SAFE_INT);
        let n = self.decimal().filter(|&n| n <= limit);
        self.want(n, format_args!("a decimal string ≤ {limit}"))
    }

    fn decimal<T: std::str::FromStr>(&self) -> Option<T> {
        self.value.as_str().and_then(|s| s.parse().ok())
    }

    /// An array of exactly `len` elements, the count the reading component
    /// holds, each converted by `each`.
    pub fn list_of<T>(
        &self,
        len: usize,
        each: impl Fn(Field<'a, 'p>) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let items = self.want(self.value.as_array(), "an array")?;
        fit_len(&self.path(), items.len(), len)?;
        self.list(each)
    }

    /// A flat array of `width`-cell rows, each converted by `each`; `len`,
    /// when given, is the row count the reading component holds.
    pub fn rows<T>(
        &self,
        width: usize,
        len: Option<usize>,
        each: impl Fn(&[Field<'a, 'p>]) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let cells = self.list(Ok)?;
        let path = self.path();
        if cells.len() % width != 0 {
            return Err(format!("'{path}' length is not a multiple of {width}"));
        }
        if let Some(len) = len {
            fit_len(&path, cells.len() / width, len)?;
        }
        cells.chunks_exact(width).map(each).collect()
    }

    /// An array, each element converted by `each` under an indexed path.
    pub fn list<T>(
        &self,
        each: impl Fn(Field<'a, 'p>) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let items = self.want(self.value.as_array(), "an array")?;
        let indexed = |(i, value)| Field {
            index: Some(i),
            value,
            ..*self
        };
        items.iter().enumerate().map(indexed).map(each).collect()
    }

    /// A child object read to the end by `read`: members it leaves
    /// untaken are refused.
    pub fn record<T>(
        &self,
        read: impl FnOnce(&Fields<'a>) -> Result<T, String>,
    ) -> Result<T, String> {
        let fields = self.object()?;
        let v = read(&fields)?;
        fields.finish()?;
        Ok(v)
    }

    fn object(&self) -> Result<Fields<'a>, String> {
        let members = self.want(self.value.as_object(), "an object")?;
        let fields = Fields {
            path: self.path(),
            members,
            taken: std::cell::Cell::new(0),
        };
        // No schema here has 64 fields, so member 64 cannot be a known one.
        if members.len() > 64 {
            return Err(fields.unknown(64));
        }
        Ok(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_takes_typed_fields_and_names_every_failure_by_path() {
        let v = parse(
            r#"{"n":3,"s":"x","b":true,"f":1.5,"big":"18446744073709551615",
                "xs":[1,2.5],"child":{"k":1,"typo":2},"dup":1,"dup":2}"#,
        )
        .expect("parse");
        let f = Fields::new(&v, "").expect("object");
        assert_eq!(f.req("n").and_then(|x| x.uint(10)), Ok(3));
        assert_eq!(f.req("s").and_then(|x| x.str()), Ok("x"));
        assert_eq!(f.req("b").and_then(|x| x.bool()), Ok(true));
        assert_eq!(f.req("f").and_then(|x| x.f64()), Ok(1.5));
        assert_eq!(f.req("big").and_then(|x| x.u64_str()), Ok(u64::MAX));
        assert!(f.opt("absent").expect("no duplicate").is_none());
        let err = |r: Result<u64, String>| r.unwrap_err();
        assert!(err(f.req("absent").and_then(|x| x.uint(1))).contains("missing field 'absent'"));
        assert!(err(f.req("n").and_then(|x| x.uint(2))).contains("'n' must be an exact"));
        assert!(err(f.req("f").and_then(|x| x.uint(9))).contains("'f'"));
        assert!(err(f.req("s").and_then(|x| x.u64_str())).contains("'s'"));
        assert!(err(f.req("dup").and_then(|x| x.uint(9))).contains("duplicate field 'dup'"));
        let xs = f.req("xs").and_then(|x| x.list(|e| e.uint(9)));
        assert!(xs.unwrap_err().contains("'xs[1]'"));
        let child = f
            .req("child")
            .and_then(|x| x.record(|c| c.req("k")?.uint(9)));
        assert_eq!(child.unwrap_err(), "unknown field 'child.typo'");
        assert_eq!(f.finish().unwrap_err(), "unknown field 'dup'");
        assert!(Fields::new(&JsonValue::Null, "params")
            .unwrap_err()
            .contains("'params' must be an object"));
    }

    #[test]
    fn reader_refuses_inexact_and_out_of_range_integers() {
        for bad in ["-1", "1e30", "9007199254740994", "0.5", "\"7\"", "null"] {
            let v = parse(&format!("{{\"n\":{bad}}}")).expect("parse");
            let f = Fields::new(&v, "").expect("object");
            assert!(f.req("n").and_then(|x| x.uint(u64::MAX)).is_err(), "{bad}");
        }
        let v = parse(r#"{"n":9007199254740992}"#).expect("parse");
        let f = Fields::new(&v, "").expect("object");
        assert_eq!(f.req("n").and_then(|x| x.uint(u64::MAX)), Ok(MAX_SAFE_INT));
    }

    #[test]
    fn snapshot_encoding_round_trips_and_caps_counts() {
        let doc = JsonValue::object([
            ("tag", u64::MAX.snap()),
            ("count", (MAX_SAFE_INT + 1).snap()),
            ("min", f64::INFINITY.snap()),
            ("cells", snaps([1u64, 2, 3, 4, 5])),
        ]);
        let v = parse(&doc.to_json()).expect("parse");
        let f = Fields::new(&v, "").expect("object");
        assert_eq!(f.req("tag").and_then(|x| x.u64_str()), Ok(u64::MAX));
        let count = f.req("count").expect("count");
        assert_eq!(count.u64_str(), Ok(MAX_SAFE_INT + 1));
        assert!(count.uint_str().unwrap_err().contains("'count' must be"));
        assert!(u32::unsnap(count).is_err());
        assert_eq!(f.get("min"), Ok(f64::INFINITY));
        let empty = RunningStats::new();
        let back = RunningStats::unsnap(Field::root(&empty.snap(), "")).expect("sentinels");
        assert_eq!(back.raw(), empty.raw());
        let cells = f.req("cells").expect("cells");
        let err = cells.rows(2, None, |c| c[0].uint_str()).unwrap_err();
        assert!(err.contains("multiple of 2"), "{err}");
        assert_eq!(cells.rows(5, Some(1), |c| c[4].uint_str()), Ok(vec![5]));
        assert_eq!(
            cells.list_of(4, |x| x.uint_str()).unwrap_err(),
            "field 'cells' holds 5 entries, this configuration has 4"
        );
    }

    #[test]
    fn snap_records_write_and_read_their_declared_fields() {
        crate::snap_struct! {
            struct Counters { hits: u64, ratio: f64 }
        }
        let v = JsonValue::object(
            Counters {
                hits: 3,
                ratio: 0.5,
            }
            .members(),
        );
        let want = r#"{"hits":"3","ratio":"4602678819172646912"}"#;
        assert_eq!(v.to_json(), want);
        let back = Field::root(&v, "").record(Counters::read).expect("read");
        assert_eq!((back.hits, back.ratio), (3, 0.5));
        let v = parse(r#"{"hits":"3","ratio":"4602678819172646912","x":1}"#).expect("parse");
        let err = Field::root(&v, "c").record(Counters::read).map(|_| ());
        assert_eq!(err, Err("unknown field 'c.x'".into()));
    }

    #[test]
    fn parser_caps_nesting_depth() {
        let deep = "[".repeat(100_000);
        assert_eq!(parse(&deep).unwrap_err().msg, "nesting too deep");
        assert!(parse(&format!("{}1{}", "[".repeat(64), "]".repeat(64))).is_ok());
    }

    #[test]
    fn escaping_covers_quotes_backslashes_and_control_chars() {
        let mut w = JsonWriter::new();
        w.string("a\"b\\c\nd\te\u{01}f");
        assert_eq!(w.finish(), r#""a\"b\\c\nd\te\u0001f""#);
    }

    #[test]
    fn nested_objects_and_arrays() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("xs");
        w.begin_array();
        w.uint(1);
        w.uint(2);
        w.end_array();
        w.key("inner");
        w.begin_object();
        w.field("ok", &true);
        w.end_object();
        w.end_object();
        assert_eq!(w.finish(), r#"{"xs":[1,2],"inner":{"ok":true}}"#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut w = JsonWriter::new();
        w.begin_array();
        w.number(f64::NAN);
        w.number(f64::INFINITY);
        w.number(f64::NEG_INFINITY);
        w.number(1.5);
        w.end_array();
        assert_eq!(w.finish(), "[null,null,null,1.5]");
    }

    #[test]
    fn integral_floats_print_the_digits_display_prints() {
        let limit = MAX_SAFE_INT as f64;
        for v in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            1e15,
            -123.0,
            limit,
            -limit,
            limit + 2.0,
            0.5,
            -2.5e-7,
        ] {
            let mut w = JsonWriter::new();
            w.number(v);
            assert_eq!(w.finish(), format!("{v}"), "{v:?}");
        }
    }

    #[test]
    fn pretty_output_is_indented_and_reparses() {
        let mut w = JsonWriter::pretty();
        w.begin_object();
        w.field("a", &1u32);
        w.key("b");
        w.begin_array();
        w.string("x");
        w.end_array();
        w.end_object();
        let s = w.finish();
        assert!(s.contains("\n  \"a\": 1"), "{s}");
        assert_eq!(
            parse(&s).expect("reparse"),
            parse(r#"{"a":1,"b":["x"]}"#).expect("compact")
        );
    }

    #[test]
    fn struct_macro_roundtrips() {
        crate::to_json_struct! {
            struct Row {
                name: &'static str,
                value: f64,
                flag: bool,
            }
        }
        let s = Row {
            name: "kmn",
            value: 2.25,
            flag: false,
        }
        .to_json();
        assert_eq!(s, r#"{"name":"kmn","value":2.25,"flag":false}"#);
        let v = parse(&s).expect("valid");
        assert_eq!(v.get("value").and_then(JsonValue::as_f64), Some(2.25));
    }

    #[test]
    fn parser_handles_numbers_strings_and_nesting() {
        let v = parse(r#"{"a": [1, -2.5, 1e3], "s": "qA\n", "n": null}"#).expect("parse");
        let xs = v.get("a").and_then(JsonValue::as_array).expect("array");
        assert_eq!(xs[0].as_f64(), Some(1.0));
        assert_eq!(xs[1].as_f64(), Some(-2.5));
        assert_eq!(xs[2].as_f64(), Some(1000.0));
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("qA\n"));
        assert_eq!(v.get("n"), Some(&JsonValue::Null));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("[1] x").is_err());
        assert!(parse(r#""unterminated"#).is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn parser_refuses_numbers_json_forbids() {
        for (doc, at) in [
            ("05", 0),
            ("1.", 0),
            ("1.e2", 0),
            ("01.5", 0),
            ("-", 0),
            ("-01", 0),
            ("--1", 0),
            ("1e", 0),
            ("1e+", 0),
            ("1.5.2", 0),
            ("1e5-3", 0),
            ("[1,02]", 3),
            (r#"{"id":05}"#, 6),
        ] {
            let err = parse(doc).unwrap_err();
            assert_eq!((err.pos, err.msg), (at, "invalid number"), "{doc}");
        }
        for (doc, want) in [
            ("0", 0.0),
            ("-0", 0.0),
            ("0.5", 0.5),
            ("10", 10.0),
            ("1e2", 100.0),
            ("1E+2", 100.0),
            ("-1.25e-2", -0.0125),
        ] {
            assert_eq!(parse(doc).map(|v| v.as_f64()), Ok(Some(want)), "{doc}");
        }
        // `.5` and `+1` never start a value.
        assert_eq!(parse(".5").unwrap_err().msg, "expected a JSON value");
        assert_eq!(parse("+1").unwrap_err().msg, "expected a JSON value");
    }

    #[test]
    fn split_members_checks_what_parse_checks_and_hands_out_raw_bytes() {
        let deep = format!("{}1{}", "[".repeat(65), "]".repeat(65));
        let deep_member = format!(r#"{{"id":{}1{}}}"#, "[".repeat(64), "]".repeat(64));
        let corpus = [
            r#"{"id":1,"method":"run","params":{"a":[1,2.5e3,"x"]}}"#,
            r#" { "b" : "\u0041\n" , "c":[ ] ,"d":{ } } "#,
            r#"{"p\u0061rams":1}"#,
            r#"{"k":"😀\ud83d\ude00"}"#,
            "[1,2]",
            "\"s\"",
            "-0",
            "true",
            "null",
            "",
            "{",
            "{}x",
            r#"{"a":1,}"#,
            r#"{"a" 1}"#,
            r#"{1:2}"#,
            "[1,]",
            "[1 2]",
            "nul",
            "tru",
            "05",
            "1.",
            r#""\ud83d""#,
            r#""\ud83d\u0041""#,
            r#""\udc00""#,
            r#""\x""#,
            r#""\u12""#,
            r#""\u12g4""#,
            "\"a\u{1}\"",
            "\"unterminated",
            "\"tab\there\"",
            &deep,
            &deep_member,
        ];
        for doc in corpus {
            let skipped = split_members(doc, |_, _| {});
            assert_eq!(skipped, parse(doc).map(|_| ()), "{doc:?}");
        }
        let mut members = Vec::new();
        let doc = r#" { "id" : [1, {"a":2}] ,"p\u0061rams":{ "x": "y" },"n":-1.5e2 } "#;
        split_members(doc, |k, v| members.push((k, v))).expect("valid");
        assert_eq!(
            members,
            [
                ("id", r#"[1, {"a":2}]"#),
                ("p\\u0061rams", r#"{ "x": "y" }"#),
                ("n", "-1.5e2"),
            ]
        );
        let mut count = 0;
        split_members(r#"[{"a":1}]"#, |_, _| count += 1).expect("valid");
        assert_eq!(count, 0, "an array has no members");
    }

    #[test]
    fn parser_handles_surrogate_pairs() {
        let v = parse(r#""😀""#).expect("emoji");
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        assert!(
            parse(r#""\ud83d""#).is_err(),
            "unpaired surrogate must fail"
        );
    }

    #[test]
    fn writer_value_roundtrips_jsonvalue() {
        let src = r#"{"k":[true,false,null,"s",1.25]}"#;
        let v = parse(src).expect("parse");
        assert_eq!(v.to_json(), src);
    }
}
