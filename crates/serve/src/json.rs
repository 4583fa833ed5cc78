//! A minimal JSON value type: enough to frame the service protocol without
//! any external dependency.
//!
//! The service speaks newline-delimited JSON (NDJSON), so the writer is
//! strictly single-line: no pretty-printing, no raw control characters, keys
//! emitted in insertion order.  The parser accepts standard JSON (RFC 8259)
//! with two deliberate simplifications documented on [`Json::parse`]:
//! numbers outside `u64`/`i64`/`f64` and `\u` escapes above the BMP are
//! rejected rather than silently approximated.  It also bounds how deep
//! arrays and objects nest (128 levels).

use std::fmt;

/// How deep arrays and objects may nest in a parsed document.  The
/// protocol's own documents nest at most 3 levels (`/stats`); the bound
/// keeps the recursive descent, and the recursive drop of the value it
/// builds, well within a connection thread's stack.
const MAX_DEPTH: usize = 128;

/// A parsed or built JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (the common case: ids and counters).
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// A number with a fraction or exponent.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order so emitted frames are stable.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(value: impl Into<String>) -> Json {
        Json::Str(value.into())
    }

    /// Builds an array of strings.
    pub fn strings(values: impl IntoIterator<Item = impl Into<String>>) -> Json {
        Json::Arr(values.into_iter().map(|v| Json::Str(v.into())).collect())
    }

    /// Looks up a field of an object; `None` for missing keys or non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(n) => Some(n),
            _ => None,
        }
    }

    /// Parses a JSON document.  The whole input must be one value (trailing
    /// whitespace allowed).
    ///
    /// Restrictions relative to RFC 8259, both loud failures rather than
    /// silent precision loss: integers must fit `u64` (non-negative) or
    /// `i64` (negative), and `\uXXXX` escapes must not form surrogate
    /// pairs — the protocol never emits them.  Arrays and objects nested
    /// more than 128 levels deep are an error too.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first syntax error, with the byte
    /// offset where it occurred.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::UInt(n) => write!(f, "{n}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Num(n) => {
                if n.is_finite() {
                    write!(f, "{n}")
                } else {
                    // JSON has no Inf/NaN; the protocol never produces them.
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, key)?;
                    f.write_str(":")?;
                    write!(f, "{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes `s` as a quoted JSON string.  Every maximal run of characters that
/// need no escape goes out as one piece, so a formatter over an unbuffered
/// writer sees a handful of writes per string, not one per character.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    // The start of the pending run.  Every byte that needs an escape is
    // ASCII, so run boundaries always fall between characters.
    let mut run = 0;
    for (at, byte) in s.bytes().enumerate() {
        let escape = match byte {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        if run < at {
            f.write_str(&s[run..at])?;
        }
        match escape {
            Some(escape) => f.write_str(escape)?,
            None => write!(f, "\\u{byte:04x}")?,
        }
        run = at + 1;
    }
    f.write_str(&s[run..])?;
    f.write_str("\"")
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// How many arrays and objects enclose the value being parsed.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(format!(
                "arrays and objects nested deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )),
            Some(open @ (b'{' | b'[')) => {
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected `{}` at byte {}",
                other as char, self.pos
            )),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected `{word}` at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect_byte(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The input is a &str, so any run of bytes that stops before a
            // quote/backslash/control byte is valid UTF-8.
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid UTF-8 at byte {start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| format!("truncated \\u at byte {}", self.pos))?;
                            let hex = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            out.push(char::from_u32(hex).ok_or_else(|| {
                                format!("surrogate \\u escape at byte {}", self.pos)
                            })?);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(format!("raw control byte at byte {}", self.pos)),
                None => return Err("unterminated string".to_owned()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number at byte {start}"))?;
        if fractional {
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("invalid number `{text}` at byte {start}"))
        } else if let Some(digits) = text.strip_prefix('-') {
            digits
                .parse::<u64>()
                .ok()
                .and_then(|_| text.parse::<i64>().ok())
                .map(Json::Int)
                .ok_or_else(|| format!("integer `{text}` out of range at byte {start}"))
        } else {
            text.parse::<u64>()
                .map(Json::UInt)
                .map_err(|_| format!("integer `{text}` out of range at byte {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_the_protocol_shapes() {
        let frame = Json::obj([
            ("event", Json::str("accepted")),
            ("job", Json::UInt(7)),
            ("queue_depth", Json::UInt(0)),
            ("names", Json::strings(["a", "b\nc"])),
            ("ok", Json::Bool(true)),
            ("note", Json::Null),
        ]);
        let text = frame.to_string();
        assert_eq!(
            text,
            "{\"event\":\"accepted\",\"job\":7,\"queue_depth\":0,\
             \"names\":[\"a\",\"b\\nc\"],\"ok\":true,\"note\":null}"
        );
        assert_eq!(Json::parse(&text).unwrap(), frame);
    }

    #[test]
    fn parses_numbers_without_precision_loss() {
        let parsed = Json::parse("[18446744073709551615, -42, 1.5]").unwrap();
        let Json::Arr(items) = parsed else {
            panic!("expected array")
        };
        assert_eq!(items[0], Json::UInt(u64::MAX));
        assert_eq!(items[1], Json::Int(-42));
        assert_eq!(items[2], Json::Num(1.5));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "tru", "\"\\q\"", "1 2"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nested deeper than 128 levels"), "{err}");
        // Far past the bound, on a small stack: an error, not an overflow.
        let deep = format!("{{\"pad\":{}}}", nested(200_000));
        let err = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || Json::parse(&deep).unwrap_err())
            .unwrap()
            .join()
            .unwrap();
        // The object is the first level, so the array opened at byte
        // 7 + 127 is the first one too deep.
        assert!(
            err.contains(&format!("at byte {}", 7 + MAX_DEPTH - 1)),
            "{err}"
        );
    }

    #[test]
    fn escapes_strings_that_would_break_ndjson_framing() {
        let value = Json::str("line1\nline2\t\"quoted\"\\");
        let text = value.to_string();
        assert!(!text.contains('\n'), "newline must be escaped: {text}");
        assert_eq!(Json::parse(&text).unwrap(), value);
    }

    #[test]
    fn escapes_exactly_the_characters_json_requires() {
        let value =
            Json::str("é→😀 \"q\" \\ a\nb\rc\td\u{0}\u{1}\u{8}\u{c}\u{1b}\u{1f} \u{7f}/end");
        let text = value.to_string();
        assert_eq!(
            text,
            "\"é→😀 \\\"q\\\" \\\\ a\\nb\\rc\\td\\u0000\\u0001\\u0008\\u000c\\u001b\\u001f \u{7f}/end\""
        );
        assert_eq!(Json::parse(&text).unwrap(), value);
        // Escapes at both ends, back to back, and a string with none.
        for s in ["\"", "\n\n", "\\x\\", "", "plain"] {
            assert_eq!(
                Json::parse(&Json::str(s).to_string()).unwrap(),
                Json::str(s)
            );
        }
    }

    #[test]
    fn a_string_renders_in_runs_not_per_character() {
        /// Counts the pieces a `Display` impl hands to its writer.
        struct Pieces(usize);
        impl fmt::Write for Pieces {
            fn write_str(&mut self, _: &str) -> fmt::Result {
                self.0 += 1;
                Ok(())
            }
        }
        let long = format!("{}\n{}", "é".repeat(500), "x".repeat(500));
        let mut pieces = Pieces(0);
        fmt::Write::write_fmt(&mut pieces, format_args!("{}", Json::str(long))).unwrap();
        // Quote, run, escape, run, quote.
        assert_eq!(pieces.0, 5);
    }

    #[test]
    fn field_lookup_reads_objects_only() {
        let obj = Json::parse("{\"netlist\":\"module m\"}").unwrap();
        assert_eq!(obj.get("netlist").and_then(Json::as_str), Some("module m"));
        assert_eq!(obj.get("missing"), None);
        assert_eq!(Json::Null.get("netlist"), None);
    }
}
