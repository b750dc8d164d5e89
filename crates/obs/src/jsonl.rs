//! A minimal JSON parser and the event-schema validator.
//!
//! The obs crate has zero dependencies, so it carries its own tiny
//! recursive-descent JSON reader — enough to round-trip the lines the
//! crate itself emits and to let CI validate an experiment run's JSONL
//! output against the documented schema (see the crate docs).

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, key-sorted.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The object map, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// A parse or schema error with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: &str) -> Result<T, JsonError> {
        Err(JsonError(format!("{msg} at byte {}", self.pos)))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected {:?}", b as char))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            self.err(&format!("expected {word:?}"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            None => self.err("unexpected end of input"),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => self.err(&format!("unexpected character {:?}", c as char)),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
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
                                .ok_or_else(|| JsonError("truncated \\u escape".into()))?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| JsonError("bad \\u escape".into()))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 code point.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| JsonError("invalid UTF-8".into()))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>().map(Json::Num).map_err(|_| JsonError(format!("bad number {text:?}")))
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

/// Parses one JSON document (rejecting trailing garbage).
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing characters");
    }
    Ok(v)
}

/// Validates one line against the documented obs event schema.
///
/// Required: `ts_us` (number ≥ 0), `kind` (`"span"` or `"event"`), `path`
/// (non-empty string), `fields` (object of string/number/bool values);
/// `dur_us` (number ≥ 0) required for spans and forbidden for events. No
/// other top-level keys are allowed.
pub fn validate_event_line(line: &str) -> Result<(), JsonError> {
    let v = parse(line)?;
    let obj = v.as_obj().ok_or_else(|| JsonError("event line is not an object".into()))?;
    let ts = obj.get("ts_us").ok_or_else(|| JsonError("missing ts_us".into()))?;
    let ts = ts.as_num().ok_or_else(|| JsonError("ts_us is not a number".into()))?;
    if ts < 0.0 {
        return Err(JsonError(format!("negative ts_us {ts}")));
    }
    let kind = obj
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| JsonError("missing/invalid kind".into()))?;
    if kind != "span" && kind != "event" {
        return Err(JsonError(format!("kind {kind:?} is neither span nor event")));
    }
    let path = obj
        .get("path")
        .and_then(Json::as_str)
        .ok_or_else(|| JsonError("missing/invalid path".into()))?;
    if path.is_empty() {
        return Err(JsonError("empty path".into()));
    }
    let fields = obj
        .get("fields")
        .and_then(Json::as_obj)
        .ok_or_else(|| JsonError("missing/invalid fields object".into()))?;
    for (k, fv) in fields {
        match fv {
            Json::Str(_) | Json::Num(_) | Json::Bool(_) | Json::Null => {}
            other => {
                return Err(JsonError(format!("field {k:?} has non-scalar value {other:?}")));
            }
        }
    }
    match (kind, obj.get("dur_us")) {
        ("span", Some(Json::Num(d))) if *d >= 0.0 => {}
        ("span", other) => {
            return Err(JsonError(format!("span needs non-negative dur_us, got {other:?}")));
        }
        ("event", None) => {}
        ("event", Some(_)) => return Err(JsonError("event must not carry dur_us".into())),
        _ => unreachable!(),
    }
    const ALLOWED: [&str; 5] = ["ts_us", "kind", "path", "fields", "dur_us"];
    for k in obj.keys() {
        if !ALLOWED.contains(&k.as_str()) {
            return Err(JsonError(format!("unknown top-level key {k:?}")));
        }
    }
    Ok(())
}

/// One serving span as seen by the trace-linkage validator.
struct ServeSpan {
    path: String,
    trace_id: u64,
    ts_us: f64,
    dur_us: f64,
}

/// Validates the request-trace contract over a batch of JSONL lines.
///
/// Rules (applied to `kind:"span"` lines whose `path` starts with
/// `serve.`):
///
/// 1. every such span carries a `trace_id` field that is a positive
///    integer number;
/// 2. spans sharing a `trace_id` include exactly one root
///    (`serve.request`) span;
/// 3. every other span of the trace nests inside the root's time range
///    `[ts_us − dur_us, ts_us]` (`ts_us` stamps span *completion*), with a
///    2 µs epsilon for float rounding.
///
/// Returns the number of distinct trace ids checked. Non-serve lines are
/// ignored (but must still individually satisfy [`validate_event_line`] —
/// callers validate per-line first).
pub fn validate_trace_linkage<'a>(
    lines: impl IntoIterator<Item = &'a str>,
) -> Result<usize, JsonError> {
    const ROOT: &str = "serve.request";
    const EPS_US: f64 = 2.0;
    let mut traces: BTreeMap<u64, Vec<ServeSpan>> = BTreeMap::new();
    for line in lines {
        let v = parse(line)?;
        let obj = v.as_obj().ok_or_else(|| JsonError("line is not an object".into()))?;
        if obj.get("kind").and_then(Json::as_str) != Some("span") {
            continue;
        }
        let path = obj.get("path").and_then(Json::as_str).unwrap_or_default();
        if !path.starts_with("serve.") {
            continue;
        }
        let fields = obj
            .get("fields")
            .and_then(Json::as_obj)
            .ok_or_else(|| JsonError(format!("serve span {path:?} has no fields")))?;
        let tid = fields
            .get("trace_id")
            .and_then(Json::as_num)
            .ok_or_else(|| JsonError(format!("serve span {path:?} lacks a numeric trace_id")))?;
        if tid <= 0.0 || tid.fract() != 0.0 {
            return Err(JsonError(format!(
                "serve span {path:?} has non-positive/non-integer trace_id {tid}"
            )));
        }
        let ts_us = obj.get("ts_us").and_then(Json::as_num).unwrap_or(0.0);
        let dur_us = obj.get("dur_us").and_then(Json::as_num).unwrap_or(0.0);
        traces.entry(tid as u64).or_default().push(ServeSpan {
            path: path.to_string(),
            trace_id: tid as u64,
            ts_us,
            dur_us,
        });
    }
    for (tid, spans) in &traces {
        let roots: Vec<&ServeSpan> = spans.iter().filter(|s| s.path == ROOT).collect();
        if roots.len() != 1 {
            return Err(JsonError(format!(
                "trace {tid} has {} {ROOT:?} root spans (want exactly 1) among {} spans",
                roots.len(),
                spans.len()
            )));
        }
        let root = roots[0];
        let (lo, hi) = (root.ts_us - root.dur_us - EPS_US, root.ts_us + EPS_US);
        for s in spans.iter().filter(|s| s.path != ROOT) {
            let (start, end) = (s.ts_us - s.dur_us, s.ts_us);
            if start < lo || end > hi {
                return Err(JsonError(format!(
                    "trace {} span {:?} [{start}, {end}] escapes root range [{lo}, {hi}]",
                    s.trace_id, s.path
                )));
            }
        }
    }
    Ok(traces.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_arrays_objects() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-2.5e1").unwrap(), Json::Num(-25.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
        let arr = parse("[1, 2, []]").unwrap();
        assert_eq!(arr, Json::Arr(vec![Json::Num(1.0), Json::Num(2.0), Json::Arr(vec![])]));
        let obj = parse("{\"a\": 1, \"b\": {\"c\": false}}").unwrap();
        let m = obj.as_obj().unwrap();
        assert_eq!(m["a"], Json::Num(1.0));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\"}", "nul", "1 2", "\"unterminated"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn unicode_escapes_round_trip() {
        assert_eq!(parse("\"\\u0041\\u00e9\"").unwrap(), Json::Str("Aé".into()));
    }

    #[test]
    fn validator_accepts_good_lines_and_rejects_bad() {
        validate_event_line(
            "{\"ts_us\":1,\"kind\":\"span\",\"path\":\"a.b\",\"fields\":{\"x\":1},\"dur_us\":2.5}",
        )
        .unwrap();
        validate_event_line("{\"ts_us\":1,\"kind\":\"event\",\"path\":\"a\",\"fields\":{}}")
            .unwrap();
        for bad in [
            "{\"kind\":\"span\",\"path\":\"a\",\"fields\":{},\"dur_us\":1}", // no ts
            "{\"ts_us\":1,\"kind\":\"trace\",\"path\":\"a\",\"fields\":{}}", // bad kind
            "{\"ts_us\":1,\"kind\":\"span\",\"path\":\"\",\"fields\":{},\"dur_us\":1}", // empty path
            "{\"ts_us\":1,\"kind\":\"span\",\"path\":\"a\",\"fields\":{}}", // span without dur
            "{\"ts_us\":1,\"kind\":\"event\",\"path\":\"a\",\"fields\":{},\"dur_us\":1}", // event with dur
            "{\"ts_us\":1,\"kind\":\"event\",\"path\":\"a\",\"fields\":{\"x\":[1]}}", // nested field
            "{\"ts_us\":1,\"kind\":\"event\",\"path\":\"a\",\"fields\":{},\"extra\":1}", // unknown key
        ] {
            assert!(validate_event_line(bad).is_err(), "{bad} should fail validation");
        }
    }

    fn span_line(path: &str, tid: u64, ts: f64, dur: f64) -> String {
        format!(
            "{{\"ts_us\":{ts},\"kind\":\"span\",\"path\":\"{path}\",\
             \"fields\":{{\"trace_id\":{tid}}},\"dur_us\":{dur}}}"
        )
    }

    #[test]
    fn trace_linkage_accepts_nested_stages() {
        let lines = [
            span_line("serve.queue_wait", 7, 1_050.0, 50.0),
            span_line("serve.fuse", 7, 1_060.0, 10.0),
            span_line("serve.forward", 7, 1_160.0, 100.0),
            span_line("serve.reply", 7, 1_170.0, 10.0),
            span_line("serve.request", 7, 1_170.0, 170.0),
            span_line("serve.request", 9, 2_000.0, 5.0),
            "{\"ts_us\":1,\"kind\":\"event\",\"path\":\"bench.cell\",\"fields\":{}}".to_string(),
            "{\"ts_us\":1,\"kind\":\"span\",\"path\":\"trainer.epoch\",\"fields\":{},\
             \"dur_us\":3}"
                .to_string(),
        ];
        let n = validate_trace_linkage(lines.iter().map(String::as_str)).unwrap();
        assert_eq!(n, 2, "two distinct traces checked");
    }

    #[test]
    fn trace_linkage_rejects_broken_traces() {
        // serve span without a trace_id
        let missing = ["{\"ts_us\":1,\"kind\":\"span\",\"path\":\"serve.forward\",\"fields\":{},\
              \"dur_us\":1}"];
        assert!(validate_trace_linkage(missing.iter().copied()).is_err());
        // zero trace_id
        let zero = [span_line("serve.forward", 0, 10.0, 1.0)];
        assert!(validate_trace_linkage(zero.iter().map(String::as_str)).is_err());
        // stage span with no root
        let orphan = [span_line("serve.forward", 5, 10.0, 1.0)];
        assert!(validate_trace_linkage(orphan.iter().map(String::as_str)).is_err());
        // two roots for one trace
        let doubled =
            [span_line("serve.request", 5, 10.0, 5.0), span_line("serve.request", 5, 20.0, 5.0)];
        assert!(validate_trace_linkage(doubled.iter().map(String::as_str)).is_err());
        // stage escaping the root's window
        let escapee =
            [span_line("serve.request", 5, 100.0, 10.0), span_line("serve.fuse", 5, 200.0, 5.0)];
        assert!(validate_trace_linkage(escapee.iter().map(String::as_str)).is_err());
    }
}
