//! The workspace's one JSON module, std only: a streaming [`Writer`], a
//! strict validator and single-field scanners.
//!
//! Every JSON text the workspace emits — daemon replies, CLI `--json`
//! reports, `BENCH_*.json` records — goes through [`Writer`], so JSON
//! punctuation and string escaping live in this file and nowhere else.
//! [`validate`] is a strict recursive-descent pass used by round-trip tests
//! on every emitter. The `find_*` scanners pull single scalar fields out
//! of a known-schema response line (the load generator reads
//! `elapsed_ms`, `dbc_recomputations`, …) without materializing a DOM.

use std::fmt::Write as _;

/// A value [`Writer::value`] writes: an integer, a boolean, a string
/// (escaped), a [`Fixed`] float, or an `Option` of one (`None` is `null`).
pub trait Scalar {
    /// Appends the JSON text of `self` to `out`.
    fn write_json(&self, out: &mut String);
}

macro_rules! display_scalars {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
display_scalars!(u64, usize, bool);

impl Scalar for &str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if c < ' ' => {
                    let _ = write!(out, "\\u{:04x}", u32::from(c));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl<T: Scalar> Scalar for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

/// A float with a fixed number of decimals: `Fixed(x, 3)` writes what
/// `format!("{x:.3}")` does, and `null` for a non-finite `x`.
#[derive(Debug, Clone, Copy)]
pub struct Fixed(pub f64, pub usize);

impl Scalar for Fixed {
    fn write_json(&self, out: &mut String) {
        if self.0.is_finite() {
            let _ = write!(out, "{:.*}", self.1, self.0);
        } else {
            out.push_str("null");
        }
    }
}

/// A streaming JSON writer into one `String`: no value tree.
///
/// [`object`](Self::object) and [`array`](Self::array) open a container,
/// [`end`](Self::end) closes the innermost one, and inside an object each
/// value follows its [`key`](Self::key). The writer places every comma,
/// colon and line break in one of two layouts, picked by the constructor.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    pretty: bool,
    /// Per open container: is it an array, does it hold an element yet.
    open: Vec<(bool, bool)>,
    /// A key is written and its value comes next.
    after_key: bool,
    /// The open top-level array has put its rows on lines of their own.
    rows: bool,
}

impl Writer {
    /// No whitespace at all: the wire layout of daemon replies and
    /// `--json`.
    pub fn compact() -> Self {
        Self::default()
    }

    /// `": "` and `", "` separators, each member of the top-level container
    /// and each container row of its arrays on a line of its own, and a
    /// final newline: the layout of the `BENCH_*.json` records.
    pub fn pretty() -> Self {
        Self {
            pretty: true,
            ..Self::default()
        }
    }

    /// Opens an object.
    pub fn object(&mut self) -> &mut Self {
        self.open(false)
    }

    /// Opens an array.
    pub fn array(&mut self) -> &mut Self {
        self.open(true)
    }

    /// Closes the innermost open container.
    pub fn end(&mut self) -> &mut Self {
        let (array, filled) = self.open.pop().unwrap_or_default();
        if self.pretty && filled {
            match self.open.len() {
                0 => self.out.push('\n'),
                1 if self.rows => self.out.push_str("\n  "),
                _ => {}
            }
        }
        self.rows &= self.open.len() > 1;
        self.out.push(if array { ']' } else { '}' });
        self
    }

    /// Writes the key of the open object's next member.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.element(false);
        key.write_json(&mut self.out);
        self.out.push_str(if self.pretty { ": " } else { ":" });
        self.after_key = true;
        self
    }

    /// Writes a scalar: an array element, or a member's value after its
    /// key.
    pub fn value(&mut self, v: impl Scalar) -> &mut Self {
        self.element(false);
        v.write_json(&mut self.out);
        self
    }

    /// Writes one object member: its key, then its value.
    pub fn field(&mut self, key: &str, v: impl Scalar) -> &mut Self {
        self.key(key).value(v)
    }

    /// Writes an array of scalars.
    pub fn values<I: IntoIterator<Item: Scalar>>(&mut self, items: I) -> &mut Self {
        self.array();
        for v in items {
            self.value(v);
        }
        self.end()
    }

    /// The finished text.
    pub fn finish(mut self) -> String {
        if self.pretty {
            self.out.push('\n');
        }
        self.out
    }

    fn open(&mut self, array: bool) -> &mut Self {
        self.element(true);
        self.open.push((array, false));
        self.out.push(if array { '[' } else { '{' });
        self
    }

    /// The comma, and in the pretty layout the line break or space, before
    /// an element of the open container (`row`: itself a container).
    fn element(&mut self, row: bool) {
        let depth = self.open.len();
        let Some((array, filled)) = self.open.last_mut() else {
            return;
        };
        if std::mem::take(&mut self.after_key) {
            return;
        }
        let first = !std::mem::replace(filled, true);
        if !first {
            self.out.push(',');
        }
        let row = row && *array && depth == 2;
        if self.pretty {
            self.rows |= row;
            self.out.push_str(match depth {
                1 => "\n  ",
                _ if row => "\n    ",
                _ if first => "",
                _ => " ",
            });
        }
    }
}

/// Validates that `s` is one complete JSON value with no trailing data.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error, with
/// its byte offset.
pub fn validate(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing data at byte {i}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && (b[*i] as char).is_ascii_whitespace() {
        *i += 1;
    }
}

fn expect(b: &[u8], i: &mut usize, c: u8) -> Result<(), String> {
    if b.get(*i) == Some(&c) {
        *i += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", c as char, i))
    }
}

fn value(b: &[u8], i: &mut usize) -> Result<(), String> {
    skip_ws(b, i);
    match b.get(*i) {
        Some(b'{') => object(b, i),
        Some(b'[') => array(b, i),
        Some(b'"') => string(b, i),
        Some(b't') => literal(b, i, "true"),
        Some(b'f') => literal(b, i, "false"),
        Some(b'n') => literal(b, i, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
        other => Err(format!("unexpected {other:?} at byte {i}")),
    }
}

fn object(b: &[u8], i: &mut usize) -> Result<(), String> {
    expect(b, i, b'{')?;
    skip_ws(b, i);
    if b.get(*i) == Some(&b'}') {
        *i += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, i);
        string(b, i)?;
        skip_ws(b, i);
        expect(b, i, b':')?;
        value(b, i)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b'}') => {
                *i += 1;
                return Ok(());
            }
            other => return Err(format!("bad object separator {other:?} at {i}")),
        }
    }
}

fn array(b: &[u8], i: &mut usize) -> Result<(), String> {
    expect(b, i, b'[')?;
    skip_ws(b, i);
    if b.get(*i) == Some(&b']') {
        *i += 1;
        return Ok(());
    }
    loop {
        value(b, i)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b']') => {
                *i += 1;
                return Ok(());
            }
            other => return Err(format!("bad array separator {other:?} at {i}")),
        }
    }
}

fn string(b: &[u8], i: &mut usize) -> Result<(), String> {
    expect(b, i, b'"')?;
    while let Some(&c) = b.get(*i) {
        *i += 1;
        match c {
            b'"' => return Ok(()),
            b'\\' => *i += 1, // skip the escaped byte
            _ => {}
        }
    }
    Err("unterminated string".into())
}

fn number(b: &[u8], i: &mut usize) -> Result<(), String> {
    let start = *i;
    while let Some(&c) = b.get(*i) {
        if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
            *i += 1;
        } else {
            break;
        }
    }
    std::str::from_utf8(&b[start..*i])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(|_| ())
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn literal(b: &[u8], i: &mut usize, lit: &str) -> Result<(), String> {
    if b[*i..].starts_with(lit.as_bytes()) {
        *i += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {i}"))
    }
}

/// The raw text of the first `"key":` scalar value in `s` (known-schema
/// scanning — `key` must not occur inside string values before the wanted
/// field).
fn find_raw<'a>(s: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = s.find(&needle)? + needle.len();
    let rest = &s[at..];
    let end = rest
        .char_indices()
        .find(|&(i, c)| {
            if rest.as_bytes().first() == Some(&b'"') {
                i > 0 && c == '"' && rest.as_bytes()[i - 1] != b'\\'
            } else {
                matches!(c, ',' | '}' | ']')
            }
        })
        .map(|(i, _)| i)?;
    if rest.as_bytes().first() == Some(&b'"') {
        Some(&rest[1..end])
    } else {
        Some(&rest[..end])
    }
}

/// First `"key": <integer>` in `s`.
pub fn find_u64(s: &str, key: &str) -> Option<u64> {
    find_raw(s, key)?.trim().parse().ok()
}

/// First `"key": <number>` in `s`.
pub fn find_f64(s: &str, key: &str) -> Option<f64> {
    find_raw(s, key)?.trim().parse().ok()
}

/// First `"key": true|false` in `s`.
pub fn find_bool(s: &str, key: &str) -> Option<bool> {
    find_raw(s, key)?.trim().parse().ok()
}

/// First `"key": "<string>"` in `s` (raw, escapes not decoded).
pub fn find_str<'a>(s: &'a str, key: &str) -> Option<&'a str> {
    find_raw(s, key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_and_rejects() {
        validate("{\"a\":[1,2.5,-3],\"b\":{\"c\":\"x\\\"y\"},\"d\":null,\"e\":true}").unwrap();
        assert!(validate("{\"a\":}").is_err());
        assert!(validate("[1,2,]").is_err());
        assert!(validate("{\"a\":1} trailing").is_err());
        assert!(validate("\"open").is_err());
    }

    /// `build` written by `writer`, checked by [`validate`].
    fn written(writer: fn() -> Writer, build: impl Fn(&mut Writer)) -> String {
        let mut w = writer();
        build(&mut w);
        let out = w.finish();
        validate(&out).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{out}"));
        out
    }

    /// `s` without the whitespace outside its strings.
    fn squeeze(s: &str) -> String {
        let (mut out, mut quoted, mut escaped) = (String::new(), false, false);
        for c in s.chars() {
            if quoted || !c.is_whitespace() {
                out.push(c);
            }
            if quoted && !escaped && c == '"' {
                quoted = false;
            } else if !quoted && c == '"' {
                quoted = true;
            }
            escaped = quoted && !escaped && c == '\\';
        }
        out
    }

    #[test]
    fn escape_covers_control_characters() {
        let string = |s: &'static str| {
            written(Writer::compact, |w| {
                w.value(s);
            })
        };
        assert_eq!(string("a\u{1}b"), "\"a\\u0001b\"");
        assert_eq!(string("say \"hi\"\r\n"), "\"say \\\"hi\\\"\\r\\n\"");
        assert_eq!(string("tab\t\\ é\u{1f}"), "\"tab\\t\\\\ é\\u001f\"");
    }

    #[test]
    fn nesting_and_empty_containers_round_trip() {
        let out = written(Writer::compact, |w| {
            w.object().key("a").array().end().key("b").object().end();
            w.key("c").array().values([1u64, 2]).object();
            w.field("d", None::<u64>).field("e", Some(3u64)).end().end();
            w.key("f").array().object().field("g", true).end().end();
            w.field("h", "x").field("i", usize::MAX).end();
        });
        assert_eq!(
            out,
            "{\"a\":[],\"b\":{},\"c\":[[1,2],{\"d\":null,\"e\":3}],\
             \"f\":[{\"g\":true}],\"h\":\"x\",\"i\":18446744073709551615}"
        );
        assert_eq!(
            written(Writer::compact, |w| {
                w.object().end();
            }),
            "{}"
        );
        assert_eq!(
            written(Writer::pretty, |w| {
                w.array().end();
            }),
            "[]\n"
        );
    }

    #[test]
    fn fixed_floats_keep_their_precision_and_never_write_non_numbers() {
        let fixed = |x: f64, p: usize| {
            written(Writer::compact, |w| {
                w.value(Fixed(x, p));
            })
        };
        assert_eq!(fixed(1.0 / 3.0, 3), "0.333");
        assert_eq!(fixed(0.375, 6), "0.375000");
        assert_eq!(fixed(-1.23456, 2), "-1.23");
        assert_eq!(fixed(500.0, 0), "500");
        assert_eq!(fixed(f64::NAN, 3), "null");
        assert_eq!(fixed(f64::INFINITY, 1), "null");
    }

    #[test]
    fn pretty_breaks_lines_only_at_the_top_level_and_between_rows() {
        let build = |w: &mut Writer| {
            w.object()
                .field("experiment", "x y")
                .key("names")
                .values(["a", "b"]);
            w.key("rows").array();
            for n in 1..=2u64 {
                w.object().field("n", n).key("m").object();
                w.field("k", Fixed(2.5, 2)).end().end();
            }
            w.end().key("empty").array().end();
            w.key("nested")
                .object()
                .key("p")
                .values([1u64, 2])
                .end()
                .end();
        };
        let pretty = written(Writer::pretty, build);
        assert_eq!(
            pretty,
            "{\n  \"experiment\": \"x y\",\n  \"names\": [\"a\", \"b\"],\n  \"rows\": [\n    \
             {\"n\": 1, \"m\": {\"k\": 2.50}},\n    {\"n\": 2, \"m\": {\"k\": 2.50}}\n  ],\n  \
             \"empty\": [],\n  \"nested\": {\"p\": [1, 2]}\n}\n"
        );
        // The two layouts differ only in whitespace outside strings.
        let compact = written(Writer::compact, build);
        assert_eq!(squeeze(&pretty), compact);
        assert!(compact.contains("\"x y\""));
    }

    #[test]
    fn scanners_pull_scalars() {
        let s = "{\"ok\":true,\"n\":42,\"f\":1.5,\"s\":\"hi\",\"nested\":{\"n\":7}}";
        assert_eq!(find_u64(s, "n"), Some(42));
        assert_eq!(find_f64(s, "f"), Some(1.5));
        assert_eq!(find_bool(s, "ok"), Some(true));
        assert_eq!(find_str(s, "s"), Some("hi"));
        assert_eq!(find_u64(s, "missing"), None);
    }
}
