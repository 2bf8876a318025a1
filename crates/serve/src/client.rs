//! Blocking NDJSON client and the load generator used by tests and CI.

use crate::proto::{from_line, to_line, Request, Response};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A blocking request/response client over one TCP connection.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connect to `addr` (e.g. `127.0.0.1:7878`).
    pub fn connect(addr: &str, timeout: Duration) -> Result<Client, String> {
        let sock_addr = addr.parse().map_err(|e| format!("address {addr}: {e}"))?;
        let stream = TcpStream::connect_timeout(&sock_addr, timeout)
            .map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| format!("set timeout: {e}"))?;
        // Each request is one write; send it at once rather than letting
        // Nagle hold it for the server's delayed ACK.
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set nodelay: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(Client {
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// Send one request and block for its response.
    pub fn call(&mut self, req: &Request) -> Result<Response, String> {
        let mut line = to_line(req)?;
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        self.reader
            .read_line(&mut reply)
            .map_err(|e| format!("recv: {e}"))?;
        if reply.is_empty() {
            return Err("connection closed by server".to_string());
        }
        from_line(&reply)
    }

    /// Convenience: estimate `query` with an optional deadline.
    pub fn estimate(
        &mut self,
        id: u64,
        query: &str,
        deadline_ms: Option<u64>,
    ) -> Result<Response, String> {
        self.call(&Request::estimate(id, query, deadline_ms))
    }
}

/// Aggregate result of one load-generator run.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Requests sent.
    pub sent: u64,
    /// `ok:true` responses.
    pub ok: u64,
    /// Responses served from the canonical cache.
    pub cached: u64,
    /// Responses answered by the fallback estimator.
    pub degraded: u64,
    /// Responses that failed (`ok:false` or transport error).
    pub failed: u64,
    /// Mean server-side latency over successful responses, microseconds.
    pub mean_latency_us: u64,
}

/// Drive `queries` against the server `rounds` times on one connection.
/// Repeating the same (or an isomorphic) query across rounds exercises the
/// canonical cache. `deadline_ms` applies to every request.
pub fn run_load(
    addr: &str,
    queries: &[String],
    rounds: u32,
    deadline_ms: Option<u64>,
) -> Result<LoadReport, String> {
    let mut client = Client::connect(addr, Duration::from_secs(5))?;
    let mut report = LoadReport::default();
    let mut latency_total: u64 = 0;
    let mut id: u64 = 0;
    for _ in 0..rounds.max(1) {
        for query in queries {
            id += 1;
            report.sent += 1;
            match client.estimate(id, query, deadline_ms) {
                Ok(resp) if resp.ok => {
                    report.ok += 1;
                    if resp.cached {
                        report.cached += 1;
                    }
                    if resp.degraded {
                        report.degraded += 1;
                    }
                    latency_total = latency_total.saturating_add(resp.latency_us);
                }
                Ok(_) | Err(_) => report.failed += 1,
            }
        }
    }
    report.mean_latency_us = latency_total.checked_div(report.ok).unwrap_or(0);
    Ok(report)
}
