//! The workspace's one JSON layer: a recursive-descent reader, the one
//! string escaper, and the typed accessors validators walk a parsed
//! document with.
//!
//! Every report is handwritten JSON (no serde in the dependency
//! closure). Emitters keep their own layouts — compact, pretty, one
//! event per line — and pass every string through [`esc`]. Readers
//! parse the whole document once with [`parse_json`] and walk the tree
//! with [`need`] and its typed variants, so key order and whitespace
//! never matter. The module lives here because every emitting crate
//! already depends on `hpdr-sim`.

use std::fmt::Write as _;

/// Deepest array/object nesting [`parse_json`] accepts. The deepest
/// emitted document (cluster → shard report → metrics) nests under 10
/// levels; the cap turns a hostile input's recursion into an `Err`
/// instead of a stack overflow.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value. Objects keep their keys in document order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup (None on non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Escape `s` as the body of a JSON string: `"` and `\`, the short
/// forms `\b \f \n \r \t`, and `\u00XX` for every other control
/// character. [`parse_json`] reads back everything this writes.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// `v[key]`, or an error naming the context `ctx` and the key.
pub fn need<'a>(v: &'a JsonValue, key: &str, ctx: &str) -> Result<&'a JsonValue, String> {
    v.get(key).ok_or_else(|| format!("{ctx}: missing '{key}'"))
}

pub fn need_u64(v: &JsonValue, key: &str, ctx: &str) -> Result<u64, String> {
    need(v, key, ctx)?
        .as_u64()
        .ok_or_else(|| format!("{ctx}: '{key}' is not a non-negative integer"))
}

pub fn need_f64(v: &JsonValue, key: &str, ctx: &str) -> Result<f64, String> {
    need(v, key, ctx)?
        .as_f64()
        .ok_or_else(|| format!("{ctx}: '{key}' is not a number"))
}

pub fn need_str<'a>(v: &'a JsonValue, key: &str, ctx: &str) -> Result<&'a str, String> {
    need(v, key, ctx)?
        .as_str()
        .ok_or_else(|| format!("{ctx}: '{key}' is not a string"))
}

pub fn need_bool(v: &JsonValue, key: &str, ctx: &str) -> Result<bool, String> {
    match need(v, key, ctx)? {
        JsonValue::Bool(b) => Ok(*b),
        _ => Err(format!("{ctx}: '{key}' is not a boolean")),
    }
}

pub fn need_arr<'a>(v: &'a JsonValue, key: &str, ctx: &str) -> Result<&'a [JsonValue], String> {
    need(v, key, ctx)?
        .as_arr()
        .ok_or_else(|| format!("{ctx}: '{key}' is not an array"))
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    at: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("json parse error at byte {}: {msg}", self.at)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.at) {
            if b == b' ' || b == b'\n' || b == b'\t' || b == b'\r' {
                self.at += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    /// Four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.at..self.at + 4)
            .filter(|d| d.iter().all(u8::is_ascii_hexdigit))
            .ok_or_else(|| self.err("\\u needs four hex digits"))?;
        let code = digits.iter().fold(0, |acc, &d| {
            acc * 16 + (d as char).to_digit(16).expect("hex digit")
        });
        self.at += 4;
        Ok(code)
    }

    /// The character of a `\uXXXX` escape (the `\u` already consumed),
    /// joining a UTF-16 surrogate pair into one scalar.
    fn unicode(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            if !self.bytes[self.at..].starts_with(b"\\u") {
                return Err(self.err("unpaired high surrogate"));
            }
            self.at += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.err("high surrogate without a low one"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| self.err("unpaired low surrogate"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or_else(|| self.err("unterminated string"))? {
                b'"' => {
                    self.at += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.at += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.at += 1;
                    out.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode()?,
                        other => return Err(self.err(&format!("escape '\\{}'", other as char))),
                    });
                }
                _ => {
                    // A run of plain characters up to the next quote or
                    // backslash; both are ASCII, so the run ends on a
                    // character boundary.
                    let run = self.bytes[self.at..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - self.at);
                    out.push_str(&self.text[self.at..self.at + run]);
                    self.at += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.at;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.at += 1;
            } else {
                break;
            }
        }
        let text = &self.text[start..self.at];
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err(&format!("bad number '{text}'")))
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.at += 1;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.at += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            open @ (b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            b'"' => Ok(JsonValue::Str(self.string()?)),
            b't' => self.literal("true", JsonValue::Bool(true)),
            b'f' => self.literal("false", JsonValue::Bool(false)),
            b'n' => self.literal("null", JsonValue::Null),
            _ => self.number(),
        }
    }
}

/// Parse a complete JSON document (trailing whitespace allowed). Total:
/// any input yields `Ok` or `Err`, never a panic or an abort.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        at: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(p.err("trailing content"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_nested_report_shapes() {
        let doc = r#"{
  "schema": "hpdr-metrics/v1",
  "scrapes": 3,
  "gauges": {"queue": 2.5, "neg": -1e-3},
  "series": {"a": [[0, 0.0], [50, 1.0]]},
  "flags": [true, false, null],
  "label": "t0 \"heavy\" \n"
}"#;
        let v = parse_json(doc).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some("hpdr-metrics/v1"));
        assert_eq!(v.get("scrapes").unwrap().as_u64(), Some(3));
        assert_eq!(
            v.get("gauges").unwrap().get("queue").unwrap().as_f64(),
            Some(2.5)
        );
        let series = v.get("series").unwrap().get("a").unwrap().as_arr().unwrap();
        assert_eq!(series.len(), 2);
        assert_eq!(series[1].as_arr().unwrap()[0].as_u64(), Some(50));
        assert_eq!(v.get("label").unwrap().as_str(), Some("t0 \"heavy\" \n"));
        assert_eq!(
            v.get("flags").unwrap().as_arr().unwrap()[2],
            JsonValue::Null
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1, 2,]").is_err());
        assert!(parse_json("{\"a\" 1}").is_err());
        assert!(parse_json("12 34").is_err());
        assert!(parse_json("\"open").is_err());
        assert!(parse_json("nul").is_err());
        assert!(parse_json("\"\\u12\"").is_err());
        assert!(parse_json("\"\\u+123\"").is_err());
        assert!(parse_json("\"\\ud800\"").is_err());
        assert!(parse_json("\"\\ud800\\u0041\"").is_err());
        assert!(parse_json("\"\\udc00\"").is_err());
    }

    #[test]
    fn object_key_order_is_preserved() {
        let v = parse_json("{\"z\": 1, \"a\": 2}").unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["z", "a"]);
    }

    #[test]
    fn esc_covers_report_characters() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\t\r\u{8}\u{c}"), "\\t\\r\\b\\f");
        assert_eq!(esc("\u{1}\u{1f}"), "\\u0001\\u001f");
        assert_eq!(esc("é→𝄞"), "é→𝄞");
    }

    #[test]
    fn decodes_every_escape_form() {
        let v = parse_json(r#""\"\\\/\b\f\n\r\t\u0009\u00e9\u2192\ud834\udd1e""#).unwrap();
        assert_eq!(v.as_str(), Some("\"\\/\u{8}\u{c}\n\r\t\té→𝄞"));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_crash() {
        let deep = "[".repeat(200_000);
        let err = parse_json(&deep).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        let deep_obj = "{\"a\":".repeat(200_000);
        assert!(parse_json(&deep_obj).is_err());
        // The cap itself is inclusive.
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        parse_json(&at_cap).unwrap();
        let past = format!("[{at_cap}]");
        assert!(parse_json(&past).is_err());
    }

    /// A character drawn evenly from four classes: control characters,
    /// printable ASCII (quotes and backslashes included), the rest of the
    /// BMP, and the supplementary planes.
    fn pick_char(x: u32) -> char {
        let code = match x % 4 {
            0 => x / 4 % 0x20,
            1 => 0x20 + x / 4 % 0x60,
            2 => 0x80 + x / 4 % (0x1_0000 - 0x80),
            _ => 0x1_0000 + x / 4 % (0x11_0000 - 0x1_0000),
        };
        // Lone surrogates are not chars; they map to the replacement.
        char::from_u32(code).unwrap_or('\u{fffd}')
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn parse_reads_back_everything_esc_writes(
            codes in proptest::collection::vec(any::<u32>(), 0..48)
        ) {
            let s: String = codes.iter().map(|&x| pick_char(x)).collect();
            let doc = format!("{{\"label\":\"{}\"}}", esc(&s));
            let v = parse_json(&doc).map_err(TestCaseError::fail)?;
            prop_assert_eq!(v.get("label").and_then(JsonValue::as_str), Some(s.as_str()));
        }
    }
}
