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

use serde::{Deserialize, Serialize};

/// One client request (one JSON line).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Request {
    /// Client-chosen correlation id, echoed back in the response.
    #[serde(default)]
    pub id: u64,
    /// `""`/`"estimate"`, `"ping"`, `"stats"`, or `"shutdown"`.
    #[serde(default)]
    pub op: String,
    /// Query graph in `alss_graph::io` text format (`t`/`v`/`e` records).
    #[serde(default)]
    pub query: String,
    /// Optional per-request deadline in milliseconds since arrival.
    #[serde(default)]
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
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Response {
    /// Echo of the request id.
    #[serde(default)]
    pub id: u64,
    /// `false` iff the request failed (see `error`).
    #[serde(default)]
    pub ok: bool,
    /// Estimated count `ĉ(q)` in linear scale (≥ 1 on success).
    #[serde(default)]
    pub estimate: f64,
    /// `log10 ĉ(q)` — the model's native output scale.
    #[serde(default)]
    pub log10: f64,
    /// Count-magnitude class (argmax of the classifier posterior).
    #[serde(default)]
    pub magnitude_class: u64,
    /// `true` when answered by the fallback estimator (expired deadline or
    /// unavailable model) rather than the learned sketch.
    #[serde(default)]
    pub degraded: bool,
    /// `true` when served from the canonical-query estimate cache.
    #[serde(default)]
    pub cached: bool,
    /// Server-side latency from parse to response serialization.
    #[serde(default)]
    pub latency_us: u64,
    /// Human-readable error when `ok` is `false`, empty otherwise.
    #[serde(default)]
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

/// Serialize a protocol message to its wire line (no trailing newline).
pub fn to_line<T: Serialize>(msg: &T) -> Result<String, String> {
    serde_json::to_string(msg).map_err(|e| format!("serialize: {e}"))
}

/// Parse one wire line.
pub fn from_line<T: Deserialize>(line: &str) -> Result<T, String> {
    serde_json::from_str(line.trim()).map_err(|e| format!("parse: {e}"))
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
}
