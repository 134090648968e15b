//! The one shared hand-rolled JSON writer and the one flat-object reader
//! (no serde in this offline environment). Every stats artifact —
//! `ServeStats`, `ClusterStats`, bundle files —
//! serializes through [`JsonWriter`], so comma discipline, string escaping,
//! and number formatting live in exactly one place. The writers in
//! `asdr_serve` and `asdr_cluster` had already drifted on float precision
//! before this module existed.
//!
//! The writer is deliberately low-level: it tracks container nesting and
//! commas, while the caller controls layout through [`JsonWriter::gap`]
//! (the whitespace inserted before the next item) and
//! [`JsonWriter::raw`], so the long-stable artifact shapes — greppable by
//! `scripts/*.sh` — come out byte-identical.
//!
//! [`parse_flat_object`] reads back the one-object-per-line formats: the
//! workload files of `asdr_serve` and the `spans.jsonl` of a run bundle.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// An incremental JSON writer over a growing `String`.
///
/// ```
/// use asdr_obs::JsonWriter;
/// let mut w = JsonWriter::new();
/// w.obj();
/// w.key("requests").u64(3);
/// w.key("p95_ms").f64(12.5, 3);
/// w.key("store").obj();
/// w.key("fits").u64(1);
/// w.close_obj();
/// w.close_obj();
/// assert_eq!(w.finish(), "{\"requests\": 3, \"p95_ms\": 12.500, \"store\": {\"fits\": 1}}");
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// One entry per open container: `true` until its first item lands.
    first: Vec<bool>,
    /// Layout override for the next item (replaces the default `" "`
    /// after a comma / `""` after an opening bracket).
    gap: Option<String>,
    /// A key was just written; the next value attaches to it.
    after_key: bool,
}

impl JsonWriter {
    /// An empty writer; write one root value, then [`JsonWriter::finish`].
    pub fn new() -> Self {
        JsonWriter::default()
    }

    /// Sets the whitespace inserted before the next item — e.g.
    /// `"\n  "` to put the next field on its own indented line.
    pub fn gap(&mut self, gap: &str) -> &mut Self {
        self.gap = Some(gap.to_string());
        self
    }

    /// Appends text verbatim (trailing newlines, closing-bracket indents).
    pub fn raw(&mut self, s: &str) -> &mut Self {
        self.out.push_str(s);
        self
    }

    /// Comma/gap discipline before an item lands in the open container.
    fn item(&mut self) {
        let first = self.first.last_mut();
        let gap = self.gap.take();
        match first {
            Some(f) if *f => {
                *f = false;
                if let Some(g) = gap {
                    self.out.push_str(&g);
                }
            }
            Some(_) => {
                self.out.push(',');
                self.out.push_str(gap.as_deref().unwrap_or(" "));
            }
            None => {}
        }
    }

    /// Positions for a value: either it follows a key, or it is a fresh
    /// element of the open container.
    fn value(&mut self) {
        if self.after_key {
            self.after_key = false;
        } else {
            self.item();
        }
    }

    /// Writes `"name": ` for the next field of the open object.
    pub fn key(&mut self, name: &str) -> &mut Self {
        debug_assert!(!self.after_key, "two keys in a row");
        self.item();
        self.out.push('"');
        escape_into(&mut self.out, name);
        self.out.push_str("\": ");
        self.after_key = true;
        self
    }

    /// Opens an object value.
    pub fn obj(&mut self) -> &mut Self {
        self.value();
        self.out.push('{');
        self.first.push(true);
        self
    }

    /// Closes the innermost object.
    pub fn close_obj(&mut self) -> &mut Self {
        debug_assert!(!self.after_key, "dangling key");
        self.first.pop();
        self.out.push('}');
        self
    }

    /// Opens an array value.
    pub fn arr(&mut self) -> &mut Self {
        self.value();
        self.out.push('[');
        self.first.push(true);
        self
    }

    /// Closes the innermost array.
    pub fn close_arr(&mut self) -> &mut Self {
        self.first.pop();
        self.out.push(']');
        self
    }

    /// An unsigned integer value.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.value();
        let _ = write!(self.out, "{v}");
        self
    }

    /// A `usize` value.
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    /// A float with a fixed number of decimals — the precision is part of
    /// the artifact shape (`{:.4}` miss rates, `{:.3}` latencies).
    pub fn f64(&mut self, v: f64, decimals: usize) -> &mut Self {
        self.value();
        let _ = write!(self.out, "{v:.decimals$}");
        self
    }

    /// A boolean value.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.value();
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// An escaped string value.
    pub fn str_val(&mut self, s: &str) -> &mut Self {
        self.value();
        self.out.push('"');
        escape_into(&mut self.out, s);
        self.out.push('"');
        self
    }

    /// A pre-serialized JSON value, inserted verbatim (embedding one
    /// artifact inside another, e.g. a stats snapshot in a bundle line).
    pub fn raw_val(&mut self, json: &str) -> &mut Self {
        self.value();
        self.out.push_str(json);
        self
    }

    /// The serialized string.
    pub fn finish(self) -> String {
        debug_assert!(self.first.is_empty(), "unclosed container");
        self.out
    }
}

/// Escapes `s` into `out` per JSON string rules (quotes, backslashes,
/// control characters).
fn escape_into(out: &mut String, s: &str) {
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
}

/// Escapes a string per JSON rules, without the surrounding quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// A value of a flat JSON object.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string, escapes resolved.
    Str(String),
    /// A number.
    Num(f64),
    /// `true` or `false`.
    Bool(bool),
    /// `null`.
    Null,
}

/// Parses one flat JSON object (no nesting, no arrays): strings with the
/// escapes [`escape`] writes plus `\/`, numbers, `true`, `false`, `null`.
///
/// # Errors
///
/// Returns why, with the byte offset, for anything else — a duplicate key
/// and content after the closing brace included.
pub fn parse_flat_object(s: &str) -> Result<BTreeMap<String, Value>, String> {
    let mut p = Parser { chars: s.char_indices().peekable(), src: s };
    p.skip_ws();
    p.expect('{')?;
    let mut obj = BTreeMap::new();
    p.skip_ws();
    if p.eat('}') {
        p.expect_end()?;
        return Ok(obj);
    }
    loop {
        p.skip_ws();
        let key = p.string()?;
        p.skip_ws();
        p.expect(':')?;
        p.skip_ws();
        let value = p.value()?;
        if obj.insert(key.clone(), value).is_some() {
            return Err(format!("duplicate key {key:?}"));
        }
        p.skip_ws();
        if p.eat(',') {
            continue;
        }
        p.expect('}')?;
        p.expect_end()?;
        return Ok(obj);
    }
}

struct Parser<'a> {
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
    src: &'a str,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.chars.next_if(|(_, c)| c.is_ascii_whitespace()).is_some() {}
    }

    fn eat(&mut self, want: char) -> bool {
        self.chars.next_if(|&(_, c)| c == want).is_some()
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        match self.chars.next() {
            Some((_, c)) if c == want => Ok(()),
            Some((i, c)) => Err(format!("expected {want:?} at byte {i}, found {c:?}")),
            None => Err(format!("expected {want:?}, found end of line")),
        }
    }

    fn expect_end(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.chars.next() {
            None => Ok(()),
            Some((i, c)) => Err(format!("trailing content at byte {i}: {c:?}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.chars.next() {
                Some((_, '"')) => return Ok(out),
                Some((i, '\\')) => match self.chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, '/')) => out.push('/'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 'u')) => {
                        let hex: String = self.chars.by_ref().take(4).map(|(_, c)| c).collect();
                        let code = u32::from_str_radix(&hex, 16)
                            .ok()
                            .filter(|_| hex.len() == 4 && !hex.starts_with('+'))
                            .and_then(char::from_u32);
                        out.push(code.ok_or_else(|| format!("bad \\u escape at byte {i}"))?);
                    }
                    other => {
                        return Err(format!("unsupported escape at byte {i}: {other:?}"));
                    }
                },
                Some((_, c)) => out.push(c),
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.chars.peek() {
            Some((_, '"')) => Ok(Value::Str(self.string()?)),
            Some((_, 't' | 'f' | 'n')) => self.keyword(),
            Some(&(start, c)) if c == '-' || c.is_ascii_digit() => {
                let mut end = start;
                while let Some(&(i, c)) = self.chars.peek() {
                    if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E') {
                        end = i + c.len_utf8();
                        self.chars.next();
                    } else {
                        break;
                    }
                }
                let text = &self.src[start..end];
                text.parse::<f64>().map(Value::Num).map_err(|_| format!("bad number {text:?}"))
            }
            Some(&(i, c)) => Err(format!("unexpected {c:?} at byte {i}")),
            None => Err("expected a value, found end of line".into()),
        }
    }

    fn keyword(&mut self) -> Result<Value, String> {
        for (word, value) in
            [("true", Value::Bool(true)), ("false", Value::Bool(false)), ("null", Value::Null)]
        {
            if self.src[self.pos()..].starts_with(word) {
                for _ in 0..word.len() {
                    self.chars.next();
                }
                return Ok(value);
            }
        }
        Err(format!("unknown keyword at byte {}", self.pos()))
    }

    fn pos(&mut self) -> usize {
        self.chars.peek().map_or(self.src.len(), |&(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_objects_and_arrays_have_stable_commas() {
        let mut w = JsonWriter::new();
        w.obj();
        w.key("a").u64(1);
        w.key("xs").arr();
        w.u64(1);
        w.u64(2);
        w.obj();
        w.key("b").bool(true);
        w.close_obj();
        w.close_arr();
        w.close_obj();
        assert_eq!(w.finish(), "{\"a\": 1, \"xs\": [1, 2, {\"b\": true}]}");
    }

    #[test]
    fn gaps_control_layout() {
        let mut w = JsonWriter::new();
        w.obj();
        w.gap("\n  ").key("a").u64(1);
        w.key("b").u64(2);
        w.gap("\n  ").key("c").u64(3);
        w.raw("\n");
        w.close_obj();
        assert_eq!(w.finish(), "{\n  \"a\": 1, \"b\": 2,\n  \"c\": 3\n}");
    }

    #[test]
    fn floats_carry_fixed_decimals() {
        let mut w = JsonWriter::new();
        w.obj();
        w.key("rate").f64(0.25, 4);
        w.key("est").f64(2999.6, 0);
        w.close_obj();
        assert_eq!(w.finish(), "{\"rate\": 0.2500, \"est\": 3000}");
    }

    #[test]
    fn strings_escape_controls_and_quotes() {
        let mut w = JsonWriter::new();
        w.str_val("a\"b\\c\nd\u{1}");
        assert_eq!(w.finish(), "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn the_reader_resolves_every_escape_the_writer_emits() {
        let obj = parse_flat_object(r#"{"scene": "a\"b\\c\/d", "ok": true, "n": null}"#).unwrap();
        assert_eq!(obj["scene"], Value::Str("a\"b\\c/d".into()));
        assert_eq!(obj["ok"], Value::Bool(true));
        assert_eq!(obj["n"], Value::Null);

        let raw = "q\"b\\n\nr\rt\tc\u{1}\u{1f}é";
        let line = format!("{{\"k\": \"{}\", \"x\": -2.5e1}}", escape(raw));
        let obj = parse_flat_object(&line).unwrap();
        assert_eq!(obj["k"], Value::Str(raw.into()));
        assert_eq!(obj["x"], Value::Num(-25.0));
        for bad in [r#"{"k": "\u12"}"#, r#"{"k": "\u+123"}"#, r#"{"k": "\ud800"}"#] {
            assert!(
                parse_flat_object(bad).unwrap_err().contains("bad \\u escape at byte 7"),
                "{bad}"
            );
        }
    }
}
