//! End-to-end exercise of the serve subsystem over real TCP: canonical
//! cache hits on isomorphic re-submissions, deadline-forced degradation,
//! control ops, malformed input, modelless mode, and clean shutdown.

#![allow(clippy::unwrap_used, clippy::float_cmp)]

use alss_core::{LabeledQuery, LearnedSketch, SketchConfig, Workload};
use alss_graph::builder::graph_from_edges;
use alss_graph::io::to_text;
use alss_graph::Graph;
use alss_matching::{count_homomorphisms, Budget};
use alss_serve::{run_load, Client, Request, ServeConfig};
use std::path::PathBuf;
use std::time::Duration;

fn data_graph() -> Graph {
    graph_from_edges(&[0, 0, 1, 1, 2], &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
}

fn labeled(labels: &[u32], edges: &[(u32, u32)], data: &Graph) -> LabeledQuery {
    let q = graph_from_edges(labels, edges);
    let c = count_homomorphisms(data, &q, &Budget::unlimited()).unwrap();
    LabeledQuery::new(q, c.max(1))
}

type Shape<'a> = (&'a [u32], &'a [(u32, u32)]);

fn workload(data: &Graph) -> Workload {
    let shapes: [Shape<'_>; 5] = [
        (&[0, 0], &[(0, 1)]),
        (&[0, 1], &[(0, 1)]),
        (&[1, 2], &[(0, 1)]),
        (&[0, 1, 2], &[(0, 1), (1, 2)]),
        (&[0, 0, 1], &[(0, 1), (1, 2)]),
    ];
    Workload::from_queries(
        shapes
            .into_iter()
            .map(|(l, e)| labeled(l, e, data))
            .collect(),
    )
}

/// Unique scratch dir per test (tests run in one process; use the test
/// name as the discriminator).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("alss-serve-e2e-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Write the data graph + a tiny trained checkpoint, return their paths.
fn fixtures(tag: &str) -> (PathBuf, PathBuf) {
    let dir = scratch(tag);
    let data = data_graph();
    let graph_path = dir.join("graph.txt");
    std::fs::write(&graph_path, to_text(&data)).unwrap();
    let (sketch, _) = LearnedSketch::train(&data, &workload(&data), &SketchConfig::tiny());
    let sketch_path = dir.join("sketch.json");
    sketch.save(&sketch_path).unwrap();
    (graph_path, sketch_path)
}

fn config(graph: PathBuf, sketch: Option<PathBuf>) -> ServeConfig {
    ServeConfig {
        data_path: graph,
        model_path: sketch,
        load_backoff: Duration::from_millis(1),
        ..ServeConfig::default()
    }
}

/// Path query `0(l0)-1(l0)-2(l1)` and an isomorphic renumbering of it
/// (permutation a→2, b→0, c→1 of the same labeled path).
fn query_and_permutation() -> (String, String) {
    let original = graph_from_edges(&[0, 0, 1], &[(0, 1), (1, 2)]);
    let permuted = graph_from_edges(&[0, 1, 0], &[(2, 0), (0, 1)]);
    (to_text(&original), to_text(&permuted))
}

#[test]
fn isomorphic_resubmission_hits_cache_bit_identically() {
    let (graph, sketch) = fixtures("cache");
    let handle = alss_serve::serve(&config(graph, Some(sketch))).unwrap();
    let addr = handle.addr.to_string();
    let mut client = Client::connect(&addr, Duration::from_secs(5)).unwrap();

    let (query, permuted) = query_and_permutation();
    let first = client.estimate(1, &query, None).unwrap();
    assert!(first.ok, "{}", first.error);
    assert!(!first.cached && !first.degraded);
    assert!(first.estimate >= 1.0);

    let second = client.estimate(2, &query, None).unwrap();
    assert!(second.cached, "verbatim resubmission must hit the cache");
    assert_eq!(second.log10.to_bits(), first.log10.to_bits());

    let iso = client.estimate(3, &permuted, None).unwrap();
    assert!(iso.cached, "isomorphic renumbering must hit the cache");
    assert_eq!(iso.log10.to_bits(), first.log10.to_bits());
    assert_eq!(iso.magnitude_class, first.magnitude_class);

    handle.stop();
    handle.join();
}

#[test]
fn zero_deadline_degrades_fresh_queries_deterministically() {
    let (graph, sketch) = fixtures("deadline");
    let handle = alss_serve::serve(&config(graph, Some(sketch))).unwrap();
    let addr = handle.addr.to_string();
    let mut client = Client::connect(&addr, Duration::from_secs(5)).unwrap();

    // Fresh (uncached) query with an already-expired deadline: the server
    // must answer from the fallback and must not poison the cache.
    let q = to_text(&graph_from_edges(&[2, 1], &[(0, 1)]));
    let a = client.estimate(1, &q, Some(0)).unwrap();
    assert!(a.ok && a.degraded && !a.cached);
    let b = client.estimate(2, &q, Some(0)).unwrap();
    assert!(b.degraded, "degraded answers must never be cached");
    assert_eq!(a.log10.to_bits(), b.log10.to_bits(), "fallback is seeded");

    // The same query with a generous deadline now gets the real model.
    let full = client.estimate(3, &q, Some(60_000)).unwrap();
    assert!(full.ok && !full.degraded);

    handle.stop();
    handle.join();
}

#[test]
fn control_ops_and_malformed_input() {
    let (graph, sketch) = fixtures("control");
    let handle = alss_serve::serve(&config(graph, Some(sketch))).unwrap();
    let addr = handle.addr.to_string();
    let mut client = Client::connect(&addr, Duration::from_secs(5)).unwrap();

    let pong = client.call(&Request::control("ping")).unwrap();
    assert!(pong.ok);

    let stats = client.call(&Request::control("stats")).unwrap();
    assert!(stats.ok);
    assert!(stats.magnitude_class > 0, "stats reports cache capacity");
    assert!(!stats.degraded, "model loaded -> not modelless");

    let unknown = client.call(&Request::control("frobnicate")).unwrap();
    assert!(!unknown.ok);
    assert!(unknown.error.contains("frobnicate"));

    let bad_query = client.estimate(9, "this is not a graph", None).unwrap();
    assert!(!bad_query.ok);

    // An extra label equal to the wildcard (u32::MAX) is malformed input,
    // not a crash: the same connection still answers the next request.
    let wildcard_extra = client
        .estimate(10, "t 1 0\nv 0 0 4294967295\n", None)
        .unwrap();
    assert!(!wildcard_extra.ok);
    assert!(
        wildcard_extra.error.contains("line 2"),
        "{}",
        wildcard_extra.error
    );
    assert!(client.call(&Request::control("ping")).unwrap().ok);

    // A zero-node query is refused on the model path (cache miss) and on
    // the fallback path (expired deadline) alike, and the connection lives.
    for (id, deadline_ms) in [(11, None), (12, Some(0))] {
        let empty = client.estimate(id, "t 0 0\n", deadline_ms).unwrap();
        assert!(!empty.ok);
        assert!(empty.error.contains("no nodes"), "{}", empty.error);
        assert!(client.call(&Request::control("ping")).unwrap().ok);
    }

    // A header declaring four billion nodes is refused before the parser
    // allocates node storage for it, and the connection lives.
    let oversized = client.estimate(13, "t 4000000000 0\n", None).unwrap();
    assert!(!oversized.ok);
    assert!(oversized.error.contains("limit"), "{}", oversized.error);
    assert!(client.call(&Request::control("ping")).unwrap().ok);

    // A second `t` record is malformed, not a new query that replaces
    // the first.
    let two_headers = client
        .estimate(14, "t 2 1\nv 0 0\nv 1 0\ne 0 1\nt 1 0\n", None)
        .unwrap();
    assert!(!two_headers.ok);
    assert!(
        two_headers.error.contains("line 5"),
        "{}",
        two_headers.error
    );
    assert!(client.call(&Request::control("ping")).unwrap().ok);

    // A non-JSON line gets an ok:false response, not a dropped connection.
    use std::io::{BufRead, BufReader, Write};
    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    raw.write_all(b"{garbage\n").unwrap();
    let mut reply = String::new();
    BufReader::new(raw.try_clone().unwrap())
        .read_line(&mut reply)
        .unwrap();
    assert!(reply.contains("\"ok\":false"), "{reply}");

    handle.stop();
    handle.join();
}

#[test]
fn sequential_pings_do_not_wait_for_delayed_acks() {
    // A reply or request split over two writes without TCP_NODELAY waits
    // about 40 ms for the peer's delayed ACK; 100 round trips then take
    // seconds instead of milliseconds.
    let (graph, sketch) = fixtures("nodelay");
    let handle = alss_serve::serve(&config(graph, Some(sketch))).unwrap();
    let mut client = Client::connect(&handle.addr.to_string(), Duration::from_secs(5)).unwrap();
    let started = std::time::Instant::now();
    for _ in 0..100 {
        assert!(client.call(&Request::control("ping")).unwrap().ok);
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "100 sequential pings took {elapsed:?}"
    );

    handle.stop();
    handle.join();
}

#[test]
fn over_long_line_is_refused_and_the_connection_lives() {
    use std::io::{BufRead, BufReader, Write};
    let (graph, sketch) = fixtures("longline");
    let handle = alss_serve::serve(&config(graph, Some(sketch))).unwrap();
    let mut raw = std::net::TcpStream::connect(handle.addr).unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    // A 2 MiB line (twice the cap), then a ping on the same connection.
    let mut long = vec![b'x'; 2 << 20];
    long.push(b'\n');
    raw.write_all(&long).unwrap();
    raw.write_all(b"{\"op\":\"ping\",\"id\":7}\n").unwrap();

    let mut refused = String::new();
    reader.read_line(&mut refused).unwrap();
    assert!(refused.contains("\"ok\":false"), "{refused}");
    assert!(refused.contains("exceeds"), "{refused}");
    let mut pong = String::new();
    reader.read_line(&mut pong).unwrap();
    assert!(pong.contains("\"ok\":true"), "{pong}");
    assert!(pong.contains("\"id\":7"), "{pong}");

    handle.stop();
    handle.join();
}

#[test]
fn modelless_server_degrades_everything() {
    let (graph, _) = fixtures("modelless");
    let missing = PathBuf::from("/nonexistent/alss-serve-sketch.json");
    let mut cfg = config(graph, Some(missing));
    cfg.load_attempts = 1;
    let handle = alss_serve::serve(&cfg).unwrap();
    let addr = handle.addr.to_string();
    let mut client = Client::connect(&addr, Duration::from_secs(5)).unwrap();

    let q = to_text(&graph_from_edges(&[0, 1], &[(0, 1)]));
    let resp = client.estimate(1, &q, None).unwrap();
    assert!(resp.ok && resp.degraded);
    let stats = client.call(&Request::control("stats")).unwrap();
    assert!(stats.degraded, "stats reports modelless mode");
    assert_eq!(stats.estimate, 0.0, "degraded answers are not cached");

    handle.stop();
    handle.join();
}

#[test]
fn shutdown_op_stops_the_server_and_loadgen_sees_cache_hits() {
    let (graph, sketch) = fixtures("shutdown");
    let handle = alss_serve::serve(&config(graph, Some(sketch))).unwrap();
    let addr = handle.addr.to_string();

    let (query, permuted) = query_and_permutation();
    let report = run_load(&addr, &[query, permuted], 3, None).unwrap();
    assert_eq!(report.sent, 6);
    assert_eq!(report.ok, 6);
    assert_eq!(report.failed, 0);
    // Round 1 query #1 misses; everything after (including the isomorphic
    // permutation) hits.
    assert_eq!(report.cached, 5);
    assert_eq!(report.degraded, 0);

    let mut client = Client::connect(&addr, Duration::from_secs(5)).unwrap();
    let ack = client.call(&Request::control("shutdown")).unwrap();
    assert!(ack.ok, "shutdown is acknowledged before the stop");
    handle.join(); // returns because the listener honoured the stop

    // The listener is gone: new connections must fail (give the OS a
    // moment to tear the socket down).
    std::thread::sleep(Duration::from_millis(100));
    assert!(Client::connect(&addr, Duration::from_millis(500)).is_err());
}

/// Seeded fuzz of the request path: estimate and control lines, and the
/// query text inside them, with dropped, duplicated or truncated records,
/// hostile numbers (wildcard labels, out-of-range ids, values past
/// `u32`/`u64`), flipped bits and truncated lines, sent one at a time over
/// one connection. Every non-blank line gets exactly one reply.
#[test]
fn mutated_request_lines_each_get_one_reply() {
    use alss_serve::proto::{from_line, to_line};
    use alss_serve::Response;
    use rand::{rngs::SmallRng, seq::SliceRandom, Rng, SeedableRng};
    use std::io::{BufRead, BufReader, Write};

    let (graph, sketch) = fixtures("fuzz");
    let handle = alss_serve::serve(&config(graph, Some(sketch))).unwrap();
    let mut raw = std::net::TcpStream::connect(handle.addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let mut roundtrip = |line: &[u8]| -> Response {
        raw.write_all(&[line, b"\n"].concat()).unwrap();
        let mut reply = String::new();
        let read = reader.read_line(&mut reply);
        let shown = String::from_utf8_lossy(line);
        assert!(matches!(read, Ok(n) if n > 0), "no reply to {shown:?}");
        from_line(&reply).unwrap_or_else(|e| panic!("{e}: reply to {shown:?}"))
    };

    // Found by this loop: a disconnected query on the fallback path
    // panicked the connection thread inside Wander Join.
    let found = to_line(&Request::estimate(1, "t 3 2\ne 0 1", Some(0))).unwrap();
    let reply = roundtrip(found.as_bytes());
    assert!(reply.ok && reply.degraded, "{reply:?}");

    let queries = [
        query_and_permutation().0,
        "t 3 3\nv 0 0 1 2\nv 1 -1\nv 2 2\ne 0 1 3\ne 1 2\ne 0 2\n".to_string(),
    ];
    let hostile = [
        "-1",
        "3",
        "1024",
        "4294967295",
        "18446744073709551616",
        "1e309",
        "x",
    ];
    let ops = ["", "", "", "estimate", "ping", "stats", "bogus"];
    let mut rng = SmallRng::seed_from_u64(0xF022);
    let mut answered = 0;
    for id in 0..1000u64 {
        let query = queries.choose(&mut rng).unwrap();
        let mut records: Vec<String> = query.lines().map(String::from).collect();
        for _ in 0..rng.gen_range(1..=3) {
            let i = rng.gen_range(0..records.len());
            match rng.gen_range(0..4) {
                0 if records.len() > 1 => drop(records.remove(i)),
                1 => records.push(records[i].clone()),
                2 => {
                    let mut fields: Vec<&str> = records[i].split(' ').collect();
                    let f = rng.gen_range(0..fields.len());
                    fields[f] = hostile.choose(&mut rng).unwrap();
                    records[i] = fields.join(" ");
                }
                _ => {
                    let cut = rng.gen_range(0..=records[i].len());
                    records[i].truncate(cut);
                }
            }
        }
        let request = Request {
            id,
            op: ops.choose(&mut rng).unwrap().to_string(),
            query: records.join("\n"),
            deadline_ms: *[None, Some(0), Some(u64::MAX)].choose(&mut rng).unwrap(),
        };
        let mut line = to_line(&request).unwrap().into_bytes();
        let at = rng.gen_range(0..line.len());
        match rng.gen_range(0..4) {
            0 => line[at] ^= 1 << rng.gen_range(0..8u32),
            1 => line.truncate(at),
            2 => drop(line.splice(at..at, *b"99999999999999999999")),
            _ => {}
        }
        line.retain(|&b| b != b'\n');
        // A blank line gets no reply, by design.
        if !String::from_utf8_lossy(&line).trim().is_empty() {
            let reply = roundtrip(&line);
            assert_ne!(reply.ok, !reply.error.is_empty(), "{reply:?}");
            answered += 1;
        }
    }
    assert!(answered > 900, "only {answered} lines were sent");

    // The next reply is this ping's: no line got a second reply.
    let pong = roundtrip(b"{\"op\":\"ping\",\"id\":424242}");
    assert!(pong.ok && pong.id == 424_242, "{pong:?}");

    handle.stop();
    handle.join();
}
