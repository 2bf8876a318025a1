//! Wire protocol: newline-delimited JSON (NDJSON) over TCP.
//!
//! One request per line, one response line per request, answered in
//! request order per connection:
//!
//! ```text
//! -> {"id":1,"query":"t 3 2\nv 0 0\nv 1 1\nv 2 2\ne 0 1\ne 1 2\n","deadline_ms":50}
//! <- {"id":1,"ok":true,"estimate":42.0,"log10":1.62,"magnitude_class":2,
//!     "degraded":false,"cached":false,"latency_us":310,"error":""}
//! ```
//!
//! `query` carries the line-oriented text format of `alss_graph::io`
//! (`t`/`v`/`e` records) embedded as a JSON string. `op` selects the
//! action: `"estimate"` (the default when empty), `"ping"`, `"stats"`, or
//! `"shutdown"`. `deadline_ms` is measured from request arrival; when the
//! deadline has already expired at compute start the server answers
//! from the cheap fallback estimator and sets `degraded:true`
//! (`deadline_ms:0` therefore always exercises the fallback path on a
//! cache miss; a cached query still hits).
//!
//! `stats` reuses the estimate fields: `estimate` is the number of cached
//! entries, `magnitude_class` the cache capacity, and `degraded` is `true`
//! when the server runs without a model; `log10` is left at 0.
//!
//! Reading a line: it is trimmed, and must be one JSON object. A missing
//! key takes its default, an unknown key is ignored, and of duplicate
//! keys the first one counts. A number may be written as an integral
//! float (`"id":1.0`), and `"deadline_ms":null` is no deadline. A value of
//! the wrong type is an error that names its key (`parse: id: expected
//! unsigned integer, found string`).

use serde_json::Value;

/// One client request (one JSON line).
#[derive(Clone, Debug, Default)]
pub struct Request {
    /// Client-chosen correlation id, echoed back in the response.
    pub id: u64,
    /// `""`/`"estimate"`, `"ping"`, `"stats"`, or `"shutdown"`.
    pub op: String,
    /// Query graph in `alss_graph::io` text format (`t`/`v`/`e` records).
    pub query: String,
    /// Optional per-request deadline in milliseconds since arrival.
    pub deadline_ms: Option<u64>,
}

impl Request {
    /// An estimate request for `query` text.
    pub fn estimate(id: u64, query: impl Into<String>, deadline_ms: Option<u64>) -> Self {
        Request {
            id,
            op: String::new(),
            query: query.into(),
            deadline_ms,
        }
    }

    /// A control request (`ping` / `stats` / `shutdown`).
    pub fn control(op: &str) -> Self {
        Request {
            op: op.to_string(),
            ..Request::default()
        }
    }
}

/// One server response (one JSON line).
#[derive(Clone, Debug, Default)]
pub struct Response {
    /// Echo of the request id.
    pub id: u64,
    /// `false` iff the request failed (see `error`).
    pub ok: bool,
    /// Estimated count `ĉ(q)` in linear scale (≥ 1 on success).
    pub estimate: f64,
    /// `log10 ĉ(q)` — the model's native output scale.
    pub log10: f64,
    /// Count-magnitude class (argmax of the classifier posterior).
    pub magnitude_class: u64,
    /// `true` when answered by the fallback estimator (expired deadline or
    /// unavailable model) rather than the learned sketch.
    pub degraded: bool,
    /// `true` when served from the canonical-query estimate cache.
    pub cached: bool,
    /// Server-side latency from parse to response serialization.
    pub latency_us: u64,
    /// Human-readable error when `ok` is `false`, empty otherwise.
    pub error: String,
}

impl Response {
    /// An error response for request `id`.
    pub fn failure(id: u64, error: impl Into<String>) -> Self {
        Response {
            id,
            ok: false,
            error: error.into(),
            ..Response::default()
        }
    }
}

/// A message of the wire protocol, [`Request`] or [`Response`]: one JSON
/// object, written with its fields in declaration order.
pub trait Message: Sized {
    /// The message as a JSON object.
    fn to_json(&self) -> Value;

    /// Read a message from a JSON value, by the rules in the module docs.
    fn from_json(v: &Value) -> Result<Self, String>;
}

impl Message for Request {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("id".into(), Value::UInt(self.id)),
            ("op".into(), Value::Str(self.op.clone())),
            ("query".into(), Value::Str(self.query.clone())),
            (
                "deadline_ms".into(),
                self.deadline_ms.map_or(Value::Null, Value::UInt),
            ),
        ])
    }

    fn from_json(v: &Value) -> Result<Self, String> {
        let v = Fields::of(v, "Request")?;
        Ok(Request {
            id: v.read("id", "unsigned integer", Value::as_u64)?,
            op: v.read("op", "string", string)?,
            query: v.read("query", "string", string)?,
            deadline_ms: v.read("deadline_ms", "unsigned integer", |x| match x {
                Value::Null => Some(None),
                x => x.as_u64().map(Some),
            })?,
        })
    }
}

impl Message for Response {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("id".into(), Value::UInt(self.id)),
            ("ok".into(), Value::Bool(self.ok)),
            ("estimate".into(), Value::Float(self.estimate)),
            ("log10".into(), Value::Float(self.log10)),
            ("magnitude_class".into(), Value::UInt(self.magnitude_class)),
            ("degraded".into(), Value::Bool(self.degraded)),
            ("cached".into(), Value::Bool(self.cached)),
            ("latency_us".into(), Value::UInt(self.latency_us)),
            ("error".into(), Value::Str(self.error.clone())),
        ])
    }

    fn from_json(v: &Value) -> Result<Self, String> {
        let v = Fields::of(v, "Response")?;
        Ok(Response {
            id: v.read("id", "unsigned integer", Value::as_u64)?,
            ok: v.read("ok", "boolean", Value::as_bool)?,
            estimate: v.read("estimate", "number", float)?,
            log10: v.read("log10", "number", float)?,
            magnitude_class: v.read("magnitude_class", "unsigned integer", Value::as_u64)?,
            degraded: v.read("degraded", "boolean", Value::as_bool)?,
            cached: v.read("cached", "boolean", Value::as_bool)?,
            latency_us: v.read("latency_us", "unsigned integer", Value::as_u64)?,
            error: v.read("error", "string", string)?,
        })
    }
}

/// The fields of a message's JSON object.
struct Fields<'a>(&'a Value);

impl<'a> Fields<'a> {
    /// `v`, which must be an object, as the fields of message `name`.
    fn of(v: &'a Value, name: &str) -> Result<Self, String> {
        match v {
            Value::Object(_) => Ok(Fields(v)),
            other => Err(format!(
                "expected object for `{name}`, found {}",
                other.kind()
            )),
        }
    }

    /// The field `key` read by `read`, or its default when missing; a
    /// value `read` refuses is an error naming `key` and what it expected.
    fn read<T: Default>(
        &self,
        key: &str,
        what: &str,
        read: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<T, String> {
        match self.0.get(key) {
            None => Ok(T::default()),
            Some(x) => read(x).ok_or_else(|| format!("{key}: expected {what}, found {}", x.kind())),
        }
    }
}

/// A string value, owned.
fn string(v: &Value) -> Option<String> {
    v.as_str().map(str::to_string)
}

/// A number; `null` reads as NaN, the value a non-finite float is
/// written from.
fn float(v: &Value) -> Option<f64> {
    match v {
        Value::Null => Some(f64::NAN),
        v => v.as_f64(),
    }
}

/// Serialize a protocol message to its wire line (no trailing newline).
/// Printing cannot fail, so this always returns `Ok`.
pub fn to_line<T: Message>(msg: &T) -> Result<String, String> {
    Ok(serde_json::to_string(&msg.to_json()))
}

/// Parse one wire line.
pub fn from_line<T: Message>(line: &str) -> Result<T, String> {
    let value = serde_json::from_str(line.trim()).map_err(|e| format!("parse: {e}"))?;
    T::from_json(&value).map_err(|e| format!("parse: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let r = Request::estimate(7, "t 1 0\nv 0 0\n", Some(25));
        let line = to_line(&r).unwrap();
        let back: Request = from_line(&line).unwrap();
        assert_eq!(back.id, 7);
        assert_eq!(back.deadline_ms, Some(25));
        assert_eq!(back.query, r.query);
        assert!(back.op.is_empty());
    }

    #[test]
    fn missing_fields_default() {
        let r: Request = from_line(r#"{"query":"t 1 0\nv 0 0\n"}"#).unwrap();
        assert_eq!(r.id, 0);
        assert_eq!(r.deadline_ms, None);
        let r: Request = from_line(r#"{"op":"ping"}"#).unwrap();
        assert_eq!(r.op, "ping");
    }

    #[test]
    fn response_roundtrip_is_bit_exact() {
        let resp = Response {
            id: 3,
            ok: true,
            estimate: 1_234.567_890_123,
            log10: 3.0915,
            magnitude_class: 4,
            degraded: false,
            cached: true,
            latency_us: 42,
            error: String::new(),
        };
        let line = to_line(&resp).unwrap();
        let back: Response = from_line(&line).unwrap();
        // Rust float Display is shortest-round-trip, so equality is exact.
        assert_eq!(back.estimate.to_bits(), resp.estimate.to_bits());
        assert_eq!(back.log10.to_bits(), resp.log10.to_bits());
        assert!(back.cached);
    }

    #[test]
    fn malformed_line_is_an_error() {
        assert!(from_line::<Request>("{not json").is_err());
    }

    #[test]
    fn request_lines_are_pinned() {
        let query = "t 2 1\nv 0 0\nv 1 1\ne 0 1\n";
        assert_eq!(
            to_line(&Request::estimate(7, query, Some(25))).unwrap(),
            r#"{"id":7,"op":"","query":"t 2 1\nv 0 0\nv 1 1\ne 0 1\n","deadline_ms":25}"#
        );
        assert_eq!(
            to_line(&Request::estimate(8, query, None)).unwrap(),
            r#"{"id":8,"op":"","query":"t 2 1\nv 0 0\nv 1 1\ne 0 1\n","deadline_ms":null}"#
        );
        assert_eq!(
            to_line(&Request::control("ping")).unwrap(),
            r#"{"id":0,"op":"ping","query":"","deadline_ms":null}"#
        );
    }

    #[test]
    fn response_lines_are_pinned() {
        let fractional = Response {
            id: 3,
            ok: true,
            estimate: 1_234.567_890_123,
            log10: 3.0915,
            magnitude_class: 4,
            degraded: false,
            cached: true,
            latency_us: 42,
            error: String::new(),
        };
        assert_eq!(
            to_line(&fractional).unwrap(),
            r#"{"id":3,"ok":true,"estimate":1234.567890123,"log10":3.0915,"magnitude_class":4,"degraded":false,"cached":true,"latency_us":42,"error":""}"#
        );
        let integral = Response {
            id: 4,
            ok: true,
            estimate: 42.0,
            log10: 1.5,
            magnitude_class: 1,
            degraded: true,
            latency_us: 7,
            ..Response::default()
        };
        assert_eq!(
            to_line(&integral).unwrap(),
            r#"{"id":4,"ok":true,"estimate":42,"log10":1.5,"magnitude_class":1,"degraded":true,"cached":false,"latency_us":7,"error":""}"#
        );
        assert_eq!(
            to_line(&Response::failure(5, "parse: \"x\"\tat byte 0")).unwrap(),
            r#"{"id":5,"ok":false,"estimate":0,"log10":0,"magnitude_class":0,"degraded":false,"cached":false,"latency_us":0,"error":"parse: \"x\"\tat byte 0"}"#
        );
    }

    #[test]
    fn the_reader_trims_the_line_and_ignores_unknown_keys() {
        let r: Request = from_line(" \t{\"id\":2,\"op\":\"ping\",\"extra\":[1,{}]}\r\n").unwrap();
        assert_eq!((r.id, r.op.as_str()), (2, "ping"));
    }

    #[test]
    fn of_duplicate_keys_the_first_counts() {
        let r: Request = from_line(r#"{"id":1,"id":2,"op":"ping","op":7}"#).unwrap();
        assert_eq!((r.id, r.op.as_str()), (1, "ping"));
    }

    #[test]
    fn a_null_deadline_is_none_and_an_integral_float_is_an_integer() {
        let r: Request = from_line(r#"{"id":1.0,"deadline_ms":null}"#).unwrap();
        assert_eq!((r.id, r.deadline_ms), (1, None));
        let r: Request = from_line(r#"{"deadline_ms":2e3}"#).unwrap();
        assert_eq!(r.deadline_ms, Some(2000));
    }

    #[test]
    fn a_non_object_line_is_an_error() {
        for line in ["[1]", "7", "null", "\"x\""] {
            let e = from_line::<Request>(line).unwrap_err();
            assert!(
                e.starts_with("parse: expected object for `Request`, found "),
                "{e}"
            );
        }
        assert!(from_line::<Response>("[]").is_err());
    }

    #[test]
    fn a_wrongly_typed_value_is_an_error_naming_its_key() {
        let err = |line| from_line::<Request>(line).unwrap_err();
        assert_eq!(
            err(r#"{"id":"x"}"#),
            "parse: id: expected unsigned integer, found string"
        );
        assert_eq!(
            err(r#"{"id":-1}"#),
            "parse: id: expected unsigned integer, found integer"
        );
        assert_eq!(
            err(r#"{"id":1.5}"#),
            "parse: id: expected unsigned integer, found number"
        );
        // 2^64 parses as a float; it is one past `u64::MAX`, not `u64::MAX`.
        assert_eq!(
            err(r#"{"id":18446744073709551616}"#),
            "parse: id: expected unsigned integer, found number"
        );
        assert_eq!(
            err(r#"{"op":null}"#),
            "parse: op: expected string, found null"
        );
        assert_eq!(
            err(r#"{"query":3}"#),
            "parse: query: expected string, found integer"
        );
        assert_eq!(
            err(r#"{"deadline_ms":true}"#),
            "parse: deadline_ms: expected unsigned integer, found boolean"
        );
        assert_eq!(
            from_line::<Response>(r#"{"ok":1}"#).unwrap_err(),
            "parse: ok: expected boolean, found integer"
        );
    }

    #[test]
    fn a_null_float_reads_as_nan_as_it_was_written() {
        let nan = Response {
            estimate: f64::NAN,
            ..Response::default()
        };
        let line = to_line(&nan).unwrap();
        assert!(line.contains(r#""estimate":null"#), "{line}");
        let back: Response = from_line(&line).unwrap();
        assert!(back.estimate.is_nan());
    }
}
