//! The TCP estimate server.
//!
//! One listener thread owns the data graph, the model and the fallback
//! estimator, accepts connections, and runs one scoped handler thread per
//! connection. At start-up it parses the data graph while [`serve`]'s
//! caller loads the checkpoint. A handler reads NDJSON [`Request`] lines
//! and writes one [`Response`] line per request, in request order.
//! Estimate requests first consult the sharded canonical cache; a miss is
//! computed on the handler thread itself. Control requests (`ping`,
//! `stats`, `shutdown`) are answered inline. Every reply is one write on a
//! `TCP_NODELAY` socket.
//! A request line longer than `MAX_LINE_BYTES` gets one `ok:false` reply
//! and is skipped. At most `MAX_CONNECTIONS` connections are live at a
//! time; one past the cap gets a single `ok:false` line and is closed.
//!
//! Shutdown is cooperative: a `shutdown` request (or [`ServerHandle::stop`])
//! flips an atomic flag and pokes the listener with a loopback connection
//! so `accept` returns; the listener's thread scope then joins every live
//! handler before exiting, so a telemetry snapshot taken after
//! [`ServerHandle::join`] sees all request counters.

use crate::cache::{CachedEstimate, ShardedLru};
use crate::engine::{fallback_outcome, load_sketch_with_retry, model_outcome, Outcome};
use crate::proto::{from_line, to_line, Request, Response};
use alss_core::LearnedSketch;
use alss_estimators::{LabelIndex, WanderJoin};
use alss_graph::io::{from_text, from_text_bounded};
use alss_graph::{canonical_key, Graph};
use serde_json::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Random walks per fallback Wander-Join estimate.
const WJ_SAMPLES: usize = 64;

/// Live connections the server holds at once.
const MAX_CONNECTIONS: usize = 1024;

/// Longest a reply may take to write to a peer that does not read. Past
/// it the connection is closed, so such a peer cannot hold up shutdown.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Longest request line, newline included. A longer line gets one
/// `ok:false` reply and is discarded up to its newline; the connection
/// stays open.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Largest node count a query header may declare. The parser sizes its
/// node storage from the header, so a larger one is refused before it is
/// allocated. The decomposition holds one BFS tree per node, up to `n²`
/// rows for the GIN, so this also bounds the model's work: 16,384 rows at
/// 128 nodes. Served queries have at most a few dozen nodes.
const MAX_QUERY_NODES: usize = 128;

/// Estimate-cache shard count.
const CACHE_SHARDS: usize = 8;

/// Checkpoint read attempts before giving up (transient errors only).
const LOAD_ATTEMPTS: u32 = 3;

/// Initial checkpoint retry backoff; doubles per attempt.
const LOAD_BACKOFF: Duration = Duration::from_millis(50);

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; use port 0 to let the OS pick a free port.
    pub addr: String,
    /// Data graph file (alss text format).
    pub data_path: PathBuf,
    /// Trained checkpoint. `None` (or a path that keeps failing) starts
    /// the server in degraded mode: every answer comes from the fallback.
    pub model_path: Option<PathBuf>,
    /// Estimate-cache capacity (entries).
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            data_path: PathBuf::new(),
            model_path: None,
            cache_capacity: 4096,
        }
    }
}

struct Shared {
    cache: ShardedLru,
    stop: AtomicBool,
}

/// What a handler needs to answer a cache miss, borrowed from the
/// listener thread.
#[derive(Clone, Copy)]
struct Estimator<'a> {
    model: Option<&'a LearnedSketch>,
    wj: &'a WanderJoin<'a>,
}

/// A running server. Obtain via [`serve`]; stop via [`ServerHandle::stop`]
/// + [`ServerHandle::join`] or a client `shutdown` request.
pub struct ServerHandle {
    /// The actually-bound address (resolves port 0).
    pub addr: SocketAddr,
    shared: Arc<Shared>,
    listener_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Ask the server to stop accepting and drain.
    pub fn stop(&self) {
        request_stop(&self.shared, self.addr);
    }

    /// Block until the listener (and every handler it joined) has exited.
    pub fn join(mut self) {
        if let Some(t) = self.listener_thread.take() {
            let _ = t.join();
        }
    }
}

fn request_stop(shared: &Shared, addr: SocketAddr) {
    if !shared.stop.swap(true, Ordering::SeqCst) {
        // Unblock the accept loop; errors are fine — the listener may
        // already be gone.
        let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
    }
}

/// Bind the listener, load the data graph and the checkpoint, and spawn
/// the accept loop.
///
/// The two inputs load at the same time: the listener thread reads and
/// parses the data graph and builds its label index while the calling
/// thread loads the checkpoint. Returns once both are done, so the server
/// answers estimates as soon as this returns. A bind or data-graph error
/// is an `Err`; a checkpoint that fails to load starts the server in
/// degraded mode instead.
pub fn serve(cfg: &ServeConfig) -> Result<ServerHandle, String> {
    let started = Instant::now();
    let listener = TcpListener::bind(&cfg.addr).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let shared = Arc::new(Shared {
        cache: ShardedLru::new(cfg.cache_capacity, CACHE_SHARDS),
        stop: AtomicBool::new(false),
    });

    let (model_tx, model_rx) = mpsc::channel::<Option<LearnedSketch>>();
    let (ready_tx, ready_rx) = mpsc::channel::<Result<(), String>>();
    let data_path = cfg.data_path.clone();
    let loop_shared = Arc::clone(&shared);
    let listener_thread = std::thread::Builder::new()
        .name("alss-serve-accept".to_string())
        .spawn(move || {
            let data = match load_data(&data_path) {
                Ok(data) => data,
                Err(e) => {
                    let _ = ready_tx.send(Err(e));
                    return;
                }
            };
            let index = {
                let _span = alss_telemetry::Span::enter("serve.load.index");
                LabelIndex::new(&data)
            };
            let Ok(model) = model_rx.recv() else { return };
            let _ = ready_tx.send(Ok(()));
            accept_loop(&listener, addr, &loop_shared, &index, model.as_ref());
        })
        .map_err(|e| format!("spawn accept loop: {e}"))?;
    let _ = model_tx.send(load_model(cfg));
    match ready_rx.recv() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => {
            let _ = listener_thread.join();
            return Err(e);
        }
        Err(_) => return Err("accept loop exited during start-up".to_string()),
    }

    alss_telemetry::event(
        "serve.listening",
        &[
            ("addr", Value::Str(addr.to_string())),
            ("setup_us", Value::UInt(us_since(started))),
        ],
    );
    Ok(ServerHandle {
        addr,
        shared,
        listener_thread: Some(listener_thread),
    })
}

/// Read and parse the data graph.
fn load_data(path: &Path) -> Result<Graph, String> {
    let _span = alss_telemetry::Span::enter("serve.load.data");
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("data graph {}: {e}", path.display()))?;
    from_text(&text).map_err(|e| format!("data graph {}: {e}", path.display()))
}

/// Load the checkpoint, or `None` for degraded mode.
fn load_model(cfg: &ServeConfig) -> Option<LearnedSketch> {
    let _span = alss_telemetry::Span::enter("serve.load.sketch");
    let path = cfg.model_path.as_ref()?;
    match load_sketch_with_retry(path, LOAD_ATTEMPTS, LOAD_BACKOFF) {
        Ok(sketch) => Some(sketch),
        Err(e) => {
            // Degraded mode is an operational state, not a startup
            // failure: answer everything from the fallback estimator.
            alss_telemetry::add("serve.model_load_failed", 1);
            alss_telemetry::event("serve.model_load_failed", &[("error", Value::Str(e))]);
            None
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    addr: SocketAddr,
    shared: &Shared,
    index: &LabelIndex<'_>,
    model: Option<&LearnedSketch>,
) {
    let wj = WanderJoin::new(index, WJ_SAMPLES);
    let estimator = Estimator { model, wj: &wj };
    let slots = ConnectionSlots::new(MAX_CONNECTIONS);
    // Leaving the scope joins every handler.
    std::thread::scope(|s| {
        for conn in listener.incoming() {
            if shared.stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(mut stream) = conn else { continue };
            // Each reply is one write; send it at once rather than letting
            // Nagle hold it for the client's delayed ACK.
            let _ = stream.set_nodelay(true);
            let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
            let Some(slot) = slots.try_acquire() else {
                alss_telemetry::add("serve.overloaded", 1);
                write_response(
                    &mut stream,
                    &Response::failure(0, "server overloaded: too many connections"),
                );
                continue;
            };
            let spawned = std::thread::Builder::new()
                .name("alss-serve-conn".to_string())
                .spawn_scoped(s, move || {
                    let _slot = slot;
                    handle_connection(stream, addr, shared, estimator);
                });
            if spawned.is_err() {
                alss_telemetry::add("serve.spawn_failed", 1);
            }
        }
    });
}

/// Counts live connections against a fixed cap.
struct ConnectionSlots {
    live: AtomicUsize,
    cap: usize,
}

/// One taken connection slot; dropping it gives the slot back.
struct Slot<'a>(&'a ConnectionSlots);

impl ConnectionSlots {
    fn new(cap: usize) -> Self {
        ConnectionSlots {
            live: AtomicUsize::new(0),
            cap,
        }
    }

    /// Take a slot, or `None` when `cap` connections are already live.
    fn try_acquire(&self) -> Option<Slot<'_>> {
        self.live
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < self.cap).then_some(n + 1)
            })
            .ok()
            .map(|_| Slot(self))
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.live.fetch_sub(1, Ordering::SeqCst);
    }
}

fn handle_connection(stream: TcpStream, addr: SocketAddr, shared: &Shared, est: Estimator<'_>) {
    // A finite read timeout lets idle handlers notice the stop flag, so
    // the listener's shutdown join cannot hang on an open connection.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = write_half;
    let mut reader = BufReader::new(stream);
    // Accumulate across timeouts with `read_until` (unlike `read_line`, it
    // keeps already-read bytes in the buffer when a read times out). The
    // `take` keeps the buffer within `MAX_LINE_BYTES`.
    let mut buf: Vec<u8> = Vec::new();
    // Set while skipping the rest of an over-long line already answered.
    let mut discarding = false;
    loop {
        let room = MAX_LINE_BYTES - buf.len();
        match (&mut reader).take(room as u64).read_until(b'\n', &mut buf) {
            Ok(0) => break, // EOF
            Ok(_) if buf.ends_with(b"\n") && discarding => {
                buf.clear();
                discarding = false;
                continue;
            }
            Ok(_) if buf.ends_with(b"\n") => {}
            Ok(_) if buf.len() < MAX_LINE_BYTES => continue, // partial line
            Ok(_) => {
                buf.clear();
                if !discarding {
                    discarding = true;
                    alss_telemetry::add("serve.line_too_long", 1);
                    let reply = Response::failure(
                        0,
                        format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                    );
                    if !write_response(&mut writer, &reply) {
                        break;
                    }
                }
                continue;
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(_) => break,
        }
        let line = String::from_utf8_lossy(&buf).into_owned();
        buf.clear();
        if line.trim().is_empty() {
            continue;
        }
        let _span = alss_telemetry::Span::enter("serve.request");
        alss_telemetry::add("serve.request", 1);
        alss_telemetry::event("serve.request", &[]);
        let started = Instant::now();
        let mut shutdown = false;
        let mut response = match from_line::<Request>(&line) {
            Ok(req) => {
                shutdown = req.op == "shutdown";
                dispatch(&req, started, shared, est)
            }
            Err(e) => {
                alss_telemetry::add("serve.parse_error", 1);
                Response::failure(0, e)
            }
        };
        response.latency_us = us_since(started);
        alss_telemetry::record("serve.latency_us", response.latency_us);
        if !write_response(&mut writer, &response) {
            break;
        }
        if shutdown {
            // Acknowledge first, then stop the listener.
            request_stop(shared, addr);
            break;
        }
    }
}

/// Write one response line, newline included, within `WRITE_TIMEOUT`;
/// `false` when the connection is unusable or its peer does not read.
/// The line is normally one `write`. A peer that reads slowly can take it
/// in parts, each of which may wait out the socket's timeout, so the
/// rest of a partial write gets only what is left of the deadline.
fn write_response(writer: &mut TcpStream, response: &Response) -> bool {
    let Ok(mut out_line) = to_line(response) else {
        return false;
    };
    out_line.push('\n');
    let deadline = Instant::now() + WRITE_TIMEOUT;
    let mut rest = out_line.as_bytes();
    let mut shortened = false;
    loop {
        match writer.write(rest) {
            Ok(n) if n == rest.len() => break,
            Ok(n) if n > 0 => rest = &rest[n..],
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            _ => return false,
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || writer.set_write_timeout(Some(left)).is_err() {
            return false;
        }
        shortened = true;
    }
    // The next reply gets the whole timeout again.
    !shortened || writer.set_write_timeout(Some(WRITE_TIMEOUT)).is_ok()
}

/// Elapsed microseconds, saturated into `u64`.
fn us_since(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
}

fn dispatch(req: &Request, started: Instant, shared: &Shared, est: Estimator<'_>) -> Response {
    match req.op.as_str() {
        "" | "estimate" => estimate_response(req, started, shared, est),
        "ping" => Response {
            id: req.id,
            ok: true,
            ..Response::default()
        },
        "stats" => stats_response(req, shared, est),
        // The stop flag is flipped by the connection handler *after* this
        // acknowledgement is written, so the client always sees it.
        "shutdown" => Response {
            id: req.id,
            ok: true,
            ..Response::default()
        },
        other => Response::failure(req.id, format!("unknown op {other:?}")),
    }
}

/// `stats` reuses the numeric response fields: `estimate` = cache entries,
/// `magnitude_class` = cache capacity. `degraded` reports modelless mode.
fn stats_response(req: &Request, shared: &Shared, est: Estimator<'_>) -> Response {
    #[expect(clippy::cast_precision_loss, reason = "diagnostics, not counts")]
    Response {
        id: req.id,
        ok: true,
        estimate: shared.cache.len() as f64,
        magnitude_class: shared.cache.capacity() as u64,
        degraded: est.model.is_none(),
        ..Response::default()
    }
}

/// Answer an estimate: a cache hit, else the model, else (deadline passed
/// since `started`, no model, or a model output that is not finite) the
/// deterministic fallback. Only model answers are cached, so a degraded
/// answer never shadows one.
fn estimate_response(
    req: &Request,
    started: Instant,
    shared: &Shared,
    est: Estimator<'_>,
) -> Response {
    let query = match from_text_bounded(&req.query, MAX_QUERY_NODES) {
        Ok(q) => q,
        Err(e) => return Response::failure(req.id, format!("query: {e}")),
    };
    if query.num_nodes() == 0 {
        return Response::failure(req.id, "query: no nodes");
    }
    let key = canonical_key(&query);

    if let Some(hit) = shared.cache.get(&key) {
        alss_telemetry::add("serve.cache_hit", 1);
        alss_telemetry::event("serve.cache_hit", &[]);
        return ok_response(
            req.id,
            Outcome {
                log10: hit.log10,
                magnitude_class: hit.magnitude_class,
                degraded: false,
            },
            true,
        );
    }
    alss_telemetry::add("serve.cache_miss", 1);

    let expired = req
        .deadline_ms
        .is_some_and(|d| started.elapsed() >= Duration::from_millis(d));
    let outcome = match est.model {
        Some(sketch) if !expired => model_outcome(sketch, &query).unwrap_or_else(|| {
            alss_telemetry::add("serve.model_non_finite", 1);
            fallback_outcome(est.wj, &query, key.hash)
        }),
        _ => fallback_outcome(est.wj, &query, key.hash),
    };
    if outcome.degraded {
        alss_telemetry::add("serve.degraded", 1);
    } else {
        shared.cache.insert(
            key,
            CachedEstimate {
                log10: outcome.log10,
                magnitude_class: outcome.magnitude_class,
            },
        );
    }
    ok_response(req.id, outcome, false)
}

fn ok_response(id: u64, outcome: Outcome, cached: bool) -> Response {
    Response {
        id,
        ok: true,
        // Linear-scale counts are ≥ 1, matching `Prediction::count()`;
        // `log10` stays the model's raw output.
        estimate: 10f64.powf(outcome.log10).max(1.0),
        log10: outcome.log10,
        magnitude_class: outcome.magnitude_class,
        degraded: outcome.degraded,
        cached,
        ..Response::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connection_slots_refuse_past_the_cap_and_are_reused_after_drop() {
        let slots = ConnectionSlots::new(2);
        let first = slots.try_acquire().unwrap();
        let second = slots.try_acquire().unwrap();
        assert!(slots.try_acquire().is_none(), "third acquire at cap 2");
        drop(first);
        let reused = slots.try_acquire();
        assert!(reused.is_some(), "a dropped slot can be taken again");
        assert!(slots.try_acquire().is_none());
        drop((second, reused));
        assert_eq!(slots.live.load(Ordering::SeqCst), 0);
    }
}
