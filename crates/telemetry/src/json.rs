//! A small, dependency-free JSON value: enough to write and re-read the
//! telemetry artifacts (metric snapshots, Chrome trace files).
//!
//! The workspace's `serde` is an offline no-op shim, so telemetry carries
//! its own encoder *and* parser — the parser is what makes snapshot
//! round-trip tests and CI smoke checks possible without crates.io.
//!
//! # Example
//!
//! ```
//! use lsdgnn_telemetry::Json;
//! let doc = Json::parse(r#"{"a": [1, 2.5, "x"], "b": true}"#).unwrap();
//! assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 3);
//! assert_eq!(doc.get("b").unwrap(), &Json::Bool(true));
//! assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
//! ```

/// A JSON value. Numbers are `f64` (integers round-trip exactly up to
/// 2^53, far beyond any counter this workspace produces in one run).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset and a static description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What was wrong.
    pub message: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// parser recurses once per level, so the bound is what keeps a hostile
/// `[[[[…` from overflowing the stack; the workspace's own artifacts
/// nest fewer than ten levels deep.
pub const MAX_DEPTH: usize = 128;

impl Json {
    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The number as an unsigned integer, if whole and in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object fields, if this is one.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Serializes to compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => render_num(*v, out),
            Json::Str(s) => render_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_str(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses JSON text.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the failing byte offset on malformed
    /// input, trailing garbage, or arrays and objects nested deeper than
    /// [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError {
                offset: pos,
                message: "trailing characters after value",
            });
        }
        Ok(value)
    }
}

/// JSON has no NaN/Infinity; they serialize as `null`. Whole numbers
/// print without a fraction, others use Rust's shortest round-trip form.
fn render_num(v: f64, out: &mut String) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v.fract() == 0.0 && v.abs() < 9.0e15 {
        out.push_str(&format!("{}", v as i64));
    } else {
        out.push_str(&format!("{v:?}"));
    }
}

fn render_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(
    b: &[u8],
    pos: &mut usize,
    lit: &'static str,
    msg: &'static str,
) -> Result<(), JsonError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(JsonError {
            offset: *pos,
            message: msg,
        })
    }
}

/// Parses the value at `pos`, itself nested inside `depth` arrays and
/// objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(b, pos);
    let Some(&c) = b.get(*pos) else {
        return Err(JsonError {
            offset: *pos,
            message: "unexpected end of input",
        });
    };
    if matches!(c, b'[' | b'{') && depth == MAX_DEPTH {
        return Err(JsonError {
            offset: *pos,
            message: "arrays and objects nested too deep",
        });
    }
    match c {
        b'n' => expect(b, pos, "null", "expected null").map(|()| Json::Null),
        b't' => expect(b, pos, "true", "expected true").map(|()| Json::Bool(true)),
        b'f' => expect(b, pos, "false", "expected false").map(|()| Json::Bool(false)),
        b'"' => parse_string(b, pos).map(Json::Str),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => {
                        return Err(JsonError {
                            offset: *pos,
                            message: "expected ',' or ']' in array",
                        })
                    }
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(JsonError {
                        offset: *pos,
                        message: "expected ':' after object key",
                    });
                }
                *pos += 1;
                fields.push((key, parse_value(b, pos, depth + 1)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => {
                        return Err(JsonError {
                            offset: *pos,
                            message: "expected ',' or '}' in object",
                        })
                    }
                }
            }
        }
        b'-' | b'0'..=b'9' => parse_number(b, pos),
        _ => Err(JsonError {
            offset: *pos,
            message: "unexpected character",
        }),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if b.get(*pos) != Some(&b'"') {
        return Err(JsonError {
            offset: *pos,
            message: "expected string",
        });
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&c) = b.get(*pos) else {
            return Err(JsonError {
                offset: *pos,
                message: "unterminated string",
            });
        };
        match c {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let Some(&esc) = b.get(*pos) else {
                    return Err(JsonError {
                        offset: *pos,
                        message: "unterminated escape",
                    });
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b.get(*pos..*pos + 4).ok_or(JsonError {
                            offset: *pos,
                            message: "truncated \\u escape",
                        })?;
                        let hex = std::str::from_utf8(hex).map_err(|_| JsonError {
                            offset: *pos,
                            message: "non-ascii \\u escape",
                        })?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| JsonError {
                            offset: *pos,
                            message: "bad \\u escape",
                        })?;
                        *pos += 4;
                        // Surrogates (from external tools) degrade to the
                        // replacement character rather than failing.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => {
                        return Err(JsonError {
                            offset: *pos,
                            message: "unknown escape",
                        })
                    }
                }
            }
            _ => {
                // Copy the full UTF-8 sequence starting here.
                let start = *pos;
                *pos += 1;
                while *pos < b.len() && (b[*pos] & 0xC0) == 0x80 {
                    *pos += 1;
                }
                let s = std::str::from_utf8(&b[start..*pos]).map_err(|_| JsonError {
                    offset: start,
                    message: "invalid utf-8 in string",
                })?;
                out.push_str(s);
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ascii digits");
    text.parse::<f64>().map(Json::Num).map_err(|_| JsonError {
        offset: start,
        message: "malformed number",
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-17", "2.5", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&v.render()).unwrap(), v, "case {text}");
        }
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [0.1, 1e-9, 123456.789, f64::MAX, -0.25] {
            let v = Json::Num(x);
            assert_eq!(Json::parse(&v.render()).unwrap().as_f64().unwrap(), x);
        }
    }

    #[test]
    fn non_finite_degrades_to_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn nested_structures_round_trip() {
        let text = r#"{"a":[1,2,{"b":"x","c":[]}],"d":{"e":null},"f":-2.5e3}"#;
        let v = Json::parse(text).unwrap();
        // Exponent notation normalizes to a plain integer on re-render.
        let normalized = r#"{"a":[1,2,{"b":"x","c":[]}],"d":{"e":null},"f":-2500}"#;
        assert_eq!(v.render(), normalized);
        assert_eq!(Json::parse(normalized).unwrap(), v);
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Json::Str("a\"b\\c\nd\te\u{1}π".to_string());
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn errors_carry_offsets() {
        let err = Json::parse("{\"a\": }").unwrap_err();
        assert_eq!(err.offset, 6);
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("[] extra").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Json::Num(3.0).as_u64(), Some(3));
        assert_eq!(Json::Num(3.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }

    #[test]
    fn nesting_past_the_bound_is_an_error_not_a_stack_overflow() {
        let nest = |open: &str, close: &str, n: usize| open.repeat(n) + "0" + &close.repeat(n);
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            assert!(Json::parse(&nest(open, close, MAX_DEPTH)).is_ok(), "{open}");
            let err = Json::parse(&nest(open, close, MAX_DEPTH + 1)).unwrap_err();
            assert_eq!(err.message, "arrays and objects nested too deep");
        }
        for n in [1_000, 10_000, 1_000_000] {
            assert!(Json::parse(&"[".repeat(n)).is_err(), "depth {n}");
        }
    }

    /// JSON punctuation and the fragments that reach the parser's other
    /// branches (literals, numbers, strings, escapes), `|`-separated.
    const FRAGMENTS: &str =
        "[|]|{|}|,|:| |\"|\\|0|-1.5e3|2.|e+|true|fals|null|\"k\"|\"\\n\\u00e9\\ud800\"|\u{7f}|π";

    /// Text from `codes`, and whether it has strays: one top-level array
    /// of nested arrays, objects (keys and commas where they belong) and
    /// scalars. Cases whose first code is odd also get a stray fragment
    /// wherever a code asks for one; the rest are well-formed, so deep
    /// values are reached and parsed, not just rejected early.
    fn punctuation_text(codes: &[u8]) -> (String, bool) {
        let fragments: Vec<&str> = FRAGMENTS.split('|').collect();
        let strays = codes.first().is_some_and(|c| c % 2 == 1);
        let mut out = String::from("[");
        let mut open = vec![']'];
        let mut first = true;
        for &c in codes {
            let op = c % 16;
            if op == 15 {
                if strays {
                    out.push_str(fragments[usize::from(c / 16) % fragments.len()]);
                }
                continue;
            }
            if (6..10).contains(&op) && open.len() > 1 {
                out.push(open.pop().expect("an open container"));
                first = false;
                continue;
            }
            if !first {
                out.push(',');
            }
            if open.last() == Some(&'}') {
                out.push_str("\"k\":");
            }
            first = op < 6;
            if op < 6 {
                let (o, close) = if op < 3 { ('[', ']') } else { ('{', '}') };
                out.push(o);
                open.push(close);
            } else {
                out.push_str(["0", "-1.5e3", "true", "null", "\"s\""][usize::from(c) % 5]);
            }
        }
        out.extend(open.into_iter().rev());
        (out, strays)
    }

    /// The parser's contract on any input: no panic, and an accepted
    /// value renders to text that parses back to the same rendering.
    fn check(text: &str) -> Result<bool, proptest::TestCaseError> {
        let Ok(v) = Json::parse(text) else {
            return Ok(false);
        };
        let once = v.render();
        let again = Json::parse(&once).map(|w| w.render());
        proptest::prop_assert_eq!(again, Ok(once), "input {:?}", text);
        Ok(true)
    }

    proptest::proptest! {
        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..256)) {
            check(&String::from_utf8_lossy(&bytes))?;
        }

        #[test]
        fn punctuation_strings_round_trip(codes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..96)) {
            let (text, strays) = punctuation_text(&codes);
            let accepted = check(&text)?;
            proptest::prop_assert!(accepted || strays, "well-formed input refused: {:?}", text);
            // Every prefix too: the truncations a reader meets.
            for (end, _) in text.char_indices() {
                check(&text[..end])?;
            }
        }
    }
}
