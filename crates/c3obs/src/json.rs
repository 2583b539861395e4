//! The workspace's one hand-rolled JSON reader (no external parser
//! dependency): a minimal recursive-descent parser, just deep enough
//! for the flat documents the repo writes — `c3obs` snapshots — plus
//! the string escaper their writer uses. `null` is not part of the
//! format and is rejected. The documents come from files, so the
//! reader is total on hostile input: bounded recursion, time linear in
//! the document.

/// Append `s` to `out` with JSON string escaping (no quotes added).
pub fn escape_into(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32))
            }
            c => out.push(c),
        }
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An object, fields in document order (duplicate keys are kept).
    Obj(Vec<(String, Value)>),
    /// An array.
    Arr(Vec<Value>),
    /// A string.
    Str(String),
    /// A number written without fraction or exponent.
    Int(i128),
    /// Any other number; always finite.
    Num(f64),
    /// `true` or `false`.
    Bool(bool),
}

impl Value {
    /// The fields of an object; `what` names the value in the error.
    pub fn as_obj(&self, what: &str) -> Result<&[(String, Value)], String> {
        match self {
            Value::Obj(o) => Ok(o),
            _ => Err(format!("{what}: expected object")),
        }
    }

    /// The items of an array; `what` names the value in the error.
    pub fn as_arr(&self, what: &str) -> Result<&[Value], String> {
        match self {
            Value::Arr(a) => Ok(a),
            _ => Err(format!("{what}: expected array")),
        }
    }

    /// The contents of a string; `what` names the value in the error.
    pub fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Value::Str(s) => Ok(s),
            _ => Err(format!("{what}: expected string")),
        }
    }

    /// An integer in `u64` range; `what` names the value in the error.
    pub fn as_u64(&self, what: &str) -> Result<u64, String> {
        match self {
            Value::Int(i) => u64::try_from(*i)
                .map_err(|_| format!("{what}: out of u64 range")),
            _ => Err(format!("{what}: expected integer")),
        }
    }
}

/// The first field of `obj` named `key`.
pub fn get<'a>(
    obj: &'a [(String, Value)],
    key: &str,
) -> Result<&'a Value, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing key {key:?}"))
}

/// Deepest container nesting [`parse`] accepts. The repo's own documents
/// nest four or five levels; the bound keeps the recursive descent off
/// the end of the stack on hostile ones.
const MAX_DEPTH: usize = 128;

/// Parse one complete JSON document; anything but whitespace after the
/// top-level value, or containers nested deeper than 128, is an error.
pub fn parse(doc: &str) -> Result<Value, String> {
    let mut p = Parser {
        doc,
        bytes: doc.as_bytes(),
        pos: 0,
    };
    let top = p.parse_value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(top)
}

struct Parser<'a> {
    doc: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "dangling escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = std::str::from_utf8(
                                &self.bytes[self.pos..self.pos + 4],
                            )
                            .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            s.push(
                                char::from_u32(code)
                                    .ok_or("bad \\u code point")?,
                            );
                            self.pos += 4;
                        }
                        other => {
                            return Err(format!(
                                "unsupported escape '\\{}'",
                                other as char
                            ))
                        }
                    }
                }
                Some(_) => {
                    // `pos` only ever advances by whole characters.
                    let ch = self
                        .doc
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or("string position off a char boundary")?;
                    s.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    /// Parse the value at `pos`, itself nested inside `depth` containers.
    fn parse_value(&mut self, depth: usize) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let val = self.parse_value(depth + 1)?;
                    fields.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Obj(fields));
                        }
                        other => {
                            return Err(format!(
                                "expected ',' or '}}', found {:?}",
                                other.map(|c| c as char)
                            ))
                        }
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.parse_value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        other => {
                            return Err(format!(
                                "expected ',' or ']', found {:?}",
                                other.map(|c| c as char)
                            ))
                        }
                    }
                }
            }
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b't') | Some(b'f') => {
                let rest = &self.bytes[self.pos..];
                let (lit, val) = if rest.starts_with(b"true") {
                    (4, true)
                } else if rest.starts_with(b"false") {
                    (5, false)
                } else {
                    return Err(format!("bad literal at byte {}", self.pos));
                };
                self.pos += lit;
                Ok(Value::Bool(val))
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => {
                let start = self.pos;
                while let Some(c) = self.peek() {
                    if c.is_ascii_digit()
                        || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E')
                    {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                let text =
                    std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
                if let Ok(i) = text.parse::<i128>() {
                    return Ok(Value::Int(i));
                }
                match text.parse::<f64>() {
                    Ok(n) if n.is_finite() => Ok(Value::Num(n)),
                    _ => Err(format!("bad number {text:?}")),
                }
            }
            other => Err(format!(
                "unexpected byte {:?} at {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let nested = |d: usize| "[".repeat(d) + &"]".repeat(d);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1))
            .unwrap_err()
            .contains("nesting"));
        // Objects count too, and an unclosed flood is an error all the same.
        let objs = r#"{"k":"#.repeat(MAX_DEPTH + 1);
        assert!(parse(&objs).unwrap_err().contains("nesting"));
        assert!(parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Stepping must not re-validate the rest of the document per
        // character: that is quadratic, about fifteen seconds at this
        // length instead of milliseconds.
        let doc = format!("[\"{}\"]", r"aé\n".repeat(200_000));
        let started = std::time::Instant::now();
        let parsed = parse(&doc).unwrap();
        assert!(started.elapsed() < std::time::Duration::from_secs(2));
        let want = Value::Str("aé\n".repeat(200_000));
        assert_eq!(parsed, Value::Arr(vec![want]));
    }
}
