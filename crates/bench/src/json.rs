//! Minimal JSON support (the build environment is offline, so no serde):
//! writers for the harnesses' shallow payloads, and a value parser the
//! [`crate::gate`] contracts read published reports with.

/// Escapes a string for use inside a JSON string literal.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A JSON object builder preserving insertion order.
#[derive(Debug, Default)]
pub struct Obj {
    parts: Vec<String>,
}

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Obj {
        self.parts
            .push(format!("\"{}\":\"{}\"", esc(key), esc(value)));
        self
    }

    /// Adds an integer field.
    pub fn int(mut self, key: &str, value: i64) -> Obj {
        self.parts.push(format!("\"{}\":{value}", esc(key)));
        self
    }

    /// Adds a number field (non-finite values become `null`).
    pub fn num(mut self, key: &str, value: f64) -> Obj {
        let rendered = if value.is_finite() {
            format!("{value:.4}")
        } else {
            "null".to_string()
        };
        self.parts.push(format!("\"{}\":{rendered}", esc(key)));
        self
    }

    /// Adds an already-serialized JSON value.
    pub fn raw(mut self, key: &str, value: &str) -> Obj {
        self.parts.push(format!("\"{}\":{value}", esc(key)));
        self
    }

    /// Serializes the object.
    pub fn build(self) -> String {
        format!("{{{}}}", self.parts.join(","))
    }
}

/// Serializes an array from already-serialized elements.
pub fn arr<I: IntoIterator<Item = String>>(items: I) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}

/// A parsed JSON value. Objects keep their members in source order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string, escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object's members, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value at a dotted member path (`"pinned.quality.loss_ppm"`).
    pub fn path(&self, path: &str) -> Option<&Value> {
        path.split('.').try_fold(self, |v, key| v.get(key))
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Nesting bound: the reports nest a handful of levels, and a bound keeps
/// hostile input from overflowing the stack.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document (surrounding whitespace allowed).
///
/// # Errors
///
/// Returns the first syntax error with its byte offset; truncated input
/// is reported as an unexpected end of input.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos < text.len() {
        return Err(p.error("trailing characters after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// An error at the current position; every error at the end of the
    /// input is a truncation, whatever was expected there.
    fn error(&self, expected: &str) -> String {
        if self.pos >= self.text.len() {
            return format!("unexpected end of input at byte {}", self.pos);
        }
        format!("{expected} at byte {}", self.pos)
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if !self.text[self.pos..].starts_with(word) {
            return Err(self.error("invalid literal"));
        }
        self.pos += word.len();
        Ok(value)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        match self.text[start..self.pos].parse() {
            Ok(n) => Ok(Value::Num(n)),
            Err(_) => {
                self.pos = start;
                Err(self.error("malformed number"))
            }
        }
    }

    /// Consumes the opening bracket; true when the container is empty
    /// (its closing bracket consumed too).
    fn open(&mut self, close: u8) -> bool {
        self.pos += 1;
        self.skip_ws();
        let empty = self.peek() == Some(close);
        if empty {
            self.pos += 1;
        }
        empty
    }

    /// After an element: true when `close` ended the container, false
    /// when a comma announced another element.
    fn closed(&mut self, close: u8, expected: &str) -> Result<bool, String> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(false)
            }
            Some(b) if b == close => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(self.error(expected)),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        let mut items = Vec::new();
        if !self.open(b']') {
            loop {
                items.push(self.value(depth + 1)?);
                if self.closed(b']', "expected ',' or ']'")? {
                    break;
                }
            }
        }
        Ok(Value::Arr(items))
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        let mut members = Vec::new();
        if !self.open(b'}') {
            loop {
                self.skip_ws();
                if self.peek() != Some(b'"') {
                    return Err(self.error("expected a member name"));
                }
                let key = self.string()?;
                self.skip_ws();
                if self.peek() != Some(b':') {
                    return Err(self.error("expected ':'"));
                }
                self.pos += 1;
                members.push((key, self.value(depth + 1)?));
                if self.closed(b'}', "expected ',' or '}'")? {
                    break;
                }
            }
        }
        Ok(Value::Obj(members))
    }

    /// A string literal; the cursor is on its opening quote.
    fn string(&mut self) -> Result<String, String> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let rest = &self.text.as_bytes()[self.pos..];
            let Some(run) = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            else {
                self.pos = self.text.len();
                return Err(self.error("unterminated string"));
            };
            // The run ends at an ASCII byte, so it is a whole UTF-8 slice.
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match rest[run] {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                _ => return Err(self.error("control character in string")),
            }
        }
    }

    /// One escape sequence; the cursor is just past its backslash.
    fn escape(&mut self) -> Result<char, String> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let Some(c) = self
                    .text
                    .get(self.pos + 1..self.pos + 5)
                    .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                    .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                    .and_then(char::from_u32)
                else {
                    return Err(self.error("invalid \\u escape"));
                };
                self.pos += 4;
                c
            }
            _ => return Err(self.error("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_what_the_writers_emit() {
        let body = Obj::new()
            .str("name", "a\"b\\c\n\u{1}")
            .int("n", -3)
            .num("x", 2.5)
            .num("nan", f64::NAN)
            .raw("flag", "true")
            .raw("list", &arr(["1".to_string(), "{}".to_string()]))
            .build();
        let v = parse(&body).unwrap();
        assert_eq!(
            v.path("name").and_then(Value::as_str),
            Some("a\"b\\c\n\u{1}")
        );
        assert_eq!(v.path("n").and_then(Value::as_f64), Some(-3.0));
        assert_eq!(v.path("x").and_then(Value::as_f64), Some(2.5));
        assert_eq!(v.get("nan"), Some(&Value::Null));
        assert_eq!(v.get("flag"), Some(&Value::Bool(true)));
        let list = v.path("list").and_then(Value::as_arr).unwrap();
        assert_eq!(list, &[Value::Num(1.0), Value::Obj(vec![])]);
    }

    #[test]
    fn whitespace_and_unicode_escapes() {
        let v = parse(" {\n \"k\" : [ 1 , \"\\u00e9\\/é\" ] }\n").unwrap();
        let k = v.path("k").and_then(Value::as_arr).unwrap();
        assert_eq!(k[1].as_str(), Some("é/é"));
    }

    #[test]
    fn malformed_input_is_located() {
        for (bad, error) in [
            ("{\"a\":1, \"b\" 2}", "expected ':' at byte 12"),
            ("", "unexpected end of input at byte 0"),
            ("{\"a\":[1,2", "unexpected end of input at byte 9"),
            (
                "{\"a\":\"unterminated",
                "unexpected end of input at byte 18",
            ),
            ("{\"a\":1,}", "expected a member name at byte 7"),
            ("[1 2]", "expected ',' or ']' at byte 3"),
            ("[1] 2", "trailing characters after the document at byte 4"),
            ("{\"a\":tru}", "invalid literal at byte 5"),
            ("[1.2.3]", "malformed number at byte 1"),
            ("[\"\\x\"]", "invalid escape at byte 3"),
            ("[\"\\u12\"]", "invalid \\u escape at byte 3"),
            ("[\"\\ud800\"]", "invalid \\u escape at byte 3"),
            ("[\"a\tb\"]", "control character in string at byte 3"),
            ("{1:2}", "expected a member name at byte 1"),
        ] {
            assert_eq!(parse(bad).unwrap_err(), error, "{bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        assert!(parse(&deep).unwrap_err().starts_with("nesting too deep"));
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
    }
}
