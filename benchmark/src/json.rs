//! The little JSON this package needs (no crates.io here): a value type, a
//! strict recursive-descent reader for the result lines, set files and
//! `BENCHMARK.json`, and a string escaper for the writers.

use std::fmt::Write as _;

/// A parsed JSON value.  Objects keep their key order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one complete document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing characters at byte {}", p.i));
        }
        Ok(v)
    }

    /// Member of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
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

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// `"..."` with the escapes JSON requires.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
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

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                self.i += 1;
                let mut members = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    members.push((key, self.value()?));
                    self.ws();
                    if self.eat(",") {
                        continue;
                    }
                    self.expect(b'}')?;
                    return Ok(Json::Obj(members));
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    if self.eat(",") {
                        continue;
                    }
                    self.expect(b']')?;
                    return Ok(Json::Arr(items));
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                text.parse::<f64>()
                    .map(Json::Num)
                    .map_err(|_| format!("bad number {text:?} at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.i));
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let esc = *self.s.get(self.i + 1).ok_or("unterminated escape")?;
                    self.i += 2;
                    match esc {
                        b'"' | b'\\' | b'/' => out.push(esc),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            self.i += 4;
                            let c = char::from_u32(code).unwrap_or('\u{fffd}');
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                Some(&b) => {
                    out.push(b);
                    self.i += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_result_line() {
        let line = r#"{"correct": true, "attempted": 12, "failed": 0, "metrics": {"run_ms_w1": {"value": 1.25e1, "unit": "ms"}}}"#;
        let v = Json::parse(line).unwrap();
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Json::as_f64), Some(12.0));
        let m = v.get("metrics").unwrap().get("run_ms_w1").unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(12.5));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("ms"));
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "a\"b\\c\nd\te\u{1}";
        assert_eq!(Json::parse(&quote(s)).unwrap(), Json::Str(s.into()));
        assert_eq!(Json::parse(r#""é/\/""#).unwrap(), Json::Str("é//".into()));
    }

    #[test]
    fn arrays_nulls_and_nesting() {
        let v = Json::parse(r#" [1, -2.5, null, [], {}, {"k": [false]}] "#).unwrap();
        let a = v.as_array().unwrap();
        assert_eq!(a.len(), 6);
        assert_eq!(a[1], Json::Num(-2.5));
        assert_eq!(a[2], Json::Null);
        assert_eq!(
            a[5].get("k").unwrap().as_array().unwrap()[0],
            Json::Bool(false)
        );
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"open",
            "{\"a\":}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }
}
