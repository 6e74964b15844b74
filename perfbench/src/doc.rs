//! The result document: one JSON object on the last line of standard
//! output, `{"correct", "attempted", "failed", "metrics"}`, and a small
//! JSON reader so the steadiness command (and the round-trip test) can
//! read it back.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable metric name.
    pub name: String,
    /// Measured value, with all its digits.
    pub value: f64,
    /// Unit (`ms`, `s`, `1/s`, `count`, ...).
    pub unit: String,
}

/// The result of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunDoc {
    /// Whether every checked output was right.
    pub correct: bool,
    /// Ops attempted in the measured window.
    pub attempted: u64,
    /// Ops that failed (an error or a wrong output).
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
}

impl RunDoc {
    /// The value of metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Render as one line of JSON.  Fails on a non-finite value, which
    /// JSON cannot carry.
    pub fn to_json(&self) -> Result<String, String> {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite ({})", m.name, m.value));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}{}: {{\"value\": {:?}, \"unit\": {}}}",
                quote(&m.name),
                m.value,
                quote(&m.unit)
            );
        }
        s.push_str("}}");
        Ok(s)
    }

    /// Parse a document written by [`RunDoc::to_json`].
    pub fn from_json(text: &str) -> Result<RunDoc, String> {
        let v = Parser::new(text).parse()?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("missing {k:?}"));
        let correct = match field("correct")? {
            Json::Bool(b) => *b,
            _ => return Err("\"correct\" is not a boolean".into()),
        };
        let count = |k: &str| match field(k)? {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 => Ok(*x as u64),
            _ => Err(format!("{k:?} is not a whole number")),
        };
        let Json::Obj(fields) = field("metrics")? else {
            return Err("\"metrics\" is not an object".into());
        };
        let mut metrics = Vec::with_capacity(fields.len());
        for (name, m) in fields {
            let (Some(Json::Num(value)), Some(Json::Str(unit))) = (m.get("value"), m.get("unit"))
            else {
                return Err(format!("metric {name:?} needs a number value and a unit"));
            };
            metrics.push(Metric {
                name: name.clone(),
                value: *value,
                unit: unit.clone(),
            });
        }
        Ok(RunDoc {
            correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

/// Quote a string as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Field `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// A strict recursive-descent JSON reader.
pub struct Parser<'a> {
    s: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    /// A reader over `text`.
    pub fn new(text: &'a str) -> Self {
        Parser {
            s: text.as_bytes(),
            pos: 0,
        }
    }

    /// Parse one value spanning the whole input.
    pub fn parse(mut self) -> Result<Json, String> {
        let v = self.value()?;
        self.ws();
        if self.pos != self.s.len() {
            return Err(format!("trailing data at byte {}", self.pos));
        }
        Ok(v)
    }

    fn ws(&mut self) {
        while matches!(self.s.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.pos) != Some(&b) {
            return Err(format!("expected {:?} at byte {}", b as char, self.pos));
        }
        self.pos += 1;
        Ok(())
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    if fields.iter().any(|(f, _)| *f == k) {
                        return Err(format!("duplicate key {k:?}"));
                    }
                    self.eat(b':')?;
                    fields.push((k, self.value()?));
                    self.ws();
                    match self.s.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                let start = self.pos;
                while matches!(
                    self.s.get(self.pos),
                    Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                ) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.pos]).expect("ascii");
                text.parse::<f64>()
                    .map(Json::Num)
                    .map_err(|e| format!("bad number {text:?}: {e}"))
            }
            Some(c) => Err(format!("unexpected {:?} at byte {}", *c as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let rest = std::str::from_utf8(&self.s[self.pos..]).map_err(|e| e.to_string())?;
            let mut chars = rest.chars();
            let c = chars.next().ok_or("unterminated string")?;
            self.pos += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let e = *self.s.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self.s.get(self.pos..self.pos + 4).ok_or("short \\u")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                c => out.push(c),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunDoc {
        RunDoc {
            correct: true,
            attempted: 1234,
            failed: 17,
            metrics: vec![
                Metric {
                    name: "ops_per_s".into(),
                    value: 41.718_293_817_264_53,
                    unit: "1/s".into(),
                },
                Metric {
                    name: "sim.phase.dma_load_s".into(),
                    value: 1.0e-7 / 3.0,
                    unit: "s".into(),
                },
                Metric {
                    name: "plan.sims_during_ops".into(),
                    value: 0.0,
                    unit: "count".into(),
                },
            ],
        }
    }

    #[test]
    fn the_document_round_trips_exactly() {
        let doc = sample();
        let text = doc.to_json().unwrap();
        assert!(!text.contains('\n'));
        let back = RunDoc::from_json(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.to_json().unwrap(), text);
        assert_eq!(back.get("ops_per_s"), Some(41.718_293_817_264_53));
    }

    #[test]
    fn malformed_documents_are_errors() {
        let text = sample().to_json().unwrap();
        for cut in [1, 10, text.len() / 2, text.len() - 1] {
            assert!(RunDoc::from_json(&text[..cut]).is_err(), "cut at {cut}");
        }
        assert!(RunDoc::from_json(&text.replace("true", "1")).is_err());
        assert!(RunDoc::from_json(&text.replace("1234", "12.5")).is_err());
        assert!(RunDoc::from_json(r#"{"correct": true, "correct": true}"#).is_err());
        let mut nan = sample();
        nan.metrics[0].value = f64::NAN;
        assert!(nan.to_json().is_err());
    }
}
