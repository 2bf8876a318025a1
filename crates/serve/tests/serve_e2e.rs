//! End-to-end exercise of the serve subsystem over real TCP: canonical
//! cache hits on isomorphic re-submissions, deadline-forced degradation,
//! control ops, malformed input, modelless mode, start-up failures, and
//! clean shutdown.

#![allow(clippy::unwrap_used, clippy::float_cmp)]

use alss_core::{EncodingKind, LabeledQuery, LearnedSketch, SketchConfig, Workload};
use alss_graph::builder::graph_from_edges;
use alss_graph::io::to_text;
use alss_graph::Graph;
use alss_matching::{count_homomorphisms, Budget};
use alss_serve::proto::to_line;
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
    let handle = alss_serve::serve(&config(graph, Some(missing))).unwrap();
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

/// Start a server on `cfg`, asserting that `serve` returns within 1 s.
fn timed_serve(cfg: &ServeConfig) -> Result<alss_serve::ServerHandle, String> {
    let started = std::time::Instant::now();
    let result = alss_serve::serve(cfg);
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "serve took {took:?}");
    result
}

/// Ask a running server for one fresh estimate, then stop it.
fn estimate_then_stop(handle: alss_serve::ServerHandle) -> alss_serve::Response {
    let mut client = Client::connect(&handle.addr.to_string(), Duration::from_secs(5)).unwrap();
    let q = to_text(&graph_from_edges(&[0, 1], &[(0, 1)]));
    let resp = client.estimate(1, &q, None).unwrap();
    handle.stop();
    handle.join();
    resp
}

/// The value under `key` of a JSON object.
fn field_mut<'a>(v: &'a mut serde_json::Value, key: &str) -> &'a mut serde_json::Value {
    match v {
        serde_json::Value::Object(pairs) => {
            &mut pairs.iter_mut().find(|(k, _)| k == key).unwrap().1
        }
        other => panic!("expected an object, got {}", other.kind()),
    }
}

#[test]
fn a_missing_data_graph_fails_start_up_naming_the_path() {
    let (_, sketch) = fixtures("missing-data");
    let missing = scratch("missing-data").join("no-such-graph.txt");
    let Err(e) = timed_serve(&config(missing.clone(), Some(sketch))) else {
        panic!("a missing data graph must fail start-up");
    };
    assert!(e.contains("data graph"), "{e}");
    assert!(e.contains(&missing.display().to_string()), "{e}");
}

#[test]
fn a_bad_data_graph_line_fails_start_up_with_its_line_number() {
    let (graph, sketch) = fixtures("bad-data");
    std::fs::write(&graph, "t 2 1\nv 0 0\nv 1 x\ne 0 1\n").unwrap();
    let Err(e) = timed_serve(&config(graph, Some(sketch))) else {
        panic!("a malformed data graph must fail start-up");
    };
    assert!(e.contains("line 3: bad label"), "{e}");
}

/// The `i`-th stored weight matrix of a parsed checkpoint. Under
/// `SketchConfig::tiny()` (two GIN layers of four parameters each),
/// `values[0]` is `lss.gin.gin0.l0.w`, `values[8]` is `lss.att.w1` and
/// `values[10]` is `lss.mlp.l0.w`.
fn weight_mut(checkpoint: &mut serde_json::Value, i: usize) -> &mut serde_json::Value {
    let store = field_mut(field_mut(checkpoint, "model"), "store");
    let serde_json::Value::Array(values) = field_mut(store, "values") else {
        panic!("values is not an array");
    };
    &mut values[i]
}

/// The `data` array of a stored weight matrix.
fn data_mut(matrix: &mut serde_json::Value) -> &mut Vec<serde_json::Value> {
    let serde_json::Value::Array(data) = field_mut(matrix, "data") else {
        panic!("data is not an array");
    };
    data
}

/// `path`'s checkpoint, parsed, edited by `edit`, and rendered.
fn edited(path: &std::path::Path, edit: impl FnOnce(&mut serde_json::Value)) -> String {
    let mut value: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    edit(&mut value);
    serde_json::to_string(&value)
}

#[test]
fn a_checkpoint_that_does_not_load_starts_a_degraded_server() {
    let (graph, sketch) = fixtures("bad-sketch");
    // A label-embedding row needs an embedding encoder.
    let data = data_graph();
    let cfg = SketchConfig {
        encoding: EncodingKind::Embedding,
        prone_dim: 4,
        ..SketchConfig::tiny()
    };
    let embedded_path = scratch("bad-sketch").join("embedded.json");
    let (embedded, _) = LearnedSketch::train(&data, &workload(&data), &cfg);
    embedded.save(&embedded_path).unwrap();

    // Each broken checkpoint, and how its load error starts.
    let broken = [
        ("{".to_string(), ""),
        // a weight matrix one value short of `rows × cols`
        (
            edited(&sketch, |v| {
                data_mut(weight_mut(v, 0)).pop();
            }),
            "model.store.values[0]: a ",
        ),
        (
            edited(&embedded_path, |v| {
                let table = field_mut(field_mut(v, "encoder"), "label_embedding");
                let serde_json::Value::Array(rows) = table else {
                    panic!("label_embedding is not an array");
                };
                let serde_json::Value::Array(row) = &mut rows[1] else {
                    panic!("an embedding row is not an array");
                };
                row.pop();
            }),
            "encoder: label_embedding[1]: 3 values where row 0 has 4",
        ),
        // `lss.att.w1` is a number, not a matrix
        (
            edited(&sketch, |v| *weight_mut(v, 8) = serde_json::Value::UInt(99)),
            "model.store.values[8]: ",
        ),
        (
            edited(&sketch, |v| {
                let cfg = field_mut(field_mut(v, "model"), "cfg");
                *field_mut(cfg, "num_classes") = serde_json::Value::UInt(40);
            }),
            "model.store.values[12] (lss.mlp.l1.w): ",
        ),
        // 1e39 parses as an f32 infinity
        (
            edited(&sketch, |v| {
                data_mut(weight_mut(v, 0))[0] = serde_json::Value::Float(1e39);
            }),
            "model.store.values[0] (lss.gin.gin0.l0.w): value 0 is not finite",
        ),
    ];
    for (checkpoint, error) in broken {
        let Err(e) = LearnedSketch::from_json(&checkpoint) else {
            panic!("a checkpoint that should start with {error:?} loads");
        };
        assert!(e.to_string().starts_with(error), "{e}");
        std::fs::write(&sketch, &checkpoint).unwrap();
        let handle = timed_serve(&config(graph.clone(), Some(sketch.clone()))).unwrap();
        let resp = estimate_then_stop(handle);
        assert!(resp.ok && resp.degraded, "{error}: {resp:?}");
    }
}

#[test]
fn a_non_finite_model_answer_is_degraded_and_never_cached() {
    let (graph, sketch) = fixtures("non-finite");
    // Finite weights whose products overflow: the checkpoint loads, and
    // its model's answer is not finite. The MLP head's hidden bias
    // (`values[11]`) makes every hidden unit 3e38, and its output weight
    // (`values[12]`) sums them as ±3e38 multiples, so inf − inf.
    let overflowing = edited(&sketch, |v| {
        for x in data_mut(weight_mut(v, 11)) {
            *x = serde_json::Value::Float(3e38);
        }
        for (i, x) in data_mut(weight_mut(v, 12)).iter_mut().enumerate() {
            *x = serde_json::Value::Float(if i % 2 == 0 { 3e38 } else { -3e38 });
        }
    });
    let q = graph_from_edges(&[0, 1], &[(0, 1)]);
    let model = LearnedSketch::from_json(&overflowing).unwrap();
    assert!(
        !model.predict(&q).log10_count.is_finite(),
        "the edit must overflow"
    );
    std::fs::write(&sketch, &overflowing).unwrap();

    let handle = alss_serve::serve(&config(graph, Some(sketch))).unwrap();
    let mut client = Client::connect(&handle.addr.to_string(), Duration::from_secs(5)).unwrap();
    let answers: Vec<_> = (1..=2)
        .map(|id| client.estimate(id, &to_text(&q), None).unwrap())
        .collect();
    for a in &answers {
        assert!(a.ok && a.degraded && !a.cached, "{a:?}");
        assert!(a.log10.is_finite(), "{a:?}");
    }
    assert_eq!(answers[0].log10.to_bits(), answers[1].log10.to_bits());
    let stats = client.call(&Request::control("stats")).unwrap();
    assert_eq!(stats.estimate, 0.0, "nothing was cached");
    handle.stop();
    handle.join();
}

#[test]
fn a_model_answer_too_large_for_a_linear_count_is_degraded_and_never_cached() {
    let (graph, sketch) = fixtures("overflowing-count");
    // A regression output of 400: finite, but `10^400` is not. The MLP
    // head's output weight (`values[12]`) is zeroed and the regression
    // neuron's bias (`values[13]`, entry 0) set to 400.
    let huge = edited(&sketch, |v| {
        for x in data_mut(weight_mut(v, 12)) {
            *x = serde_json::Value::Float(0.0);
        }
        data_mut(weight_mut(v, 13))[0] = serde_json::Value::Float(400.0);
    });
    let q = graph_from_edges(&[0, 1], &[(0, 1)]);
    let pred = LearnedSketch::from_json(&huge).unwrap().predict(&q);
    assert_eq!(pred.log10_count, 400.0, "the edit must set the output");
    assert_eq!(pred.count(), None);
    std::fs::write(&sketch, &huge).unwrap();

    let handle = alss_serve::serve(&config(graph, Some(sketch))).unwrap();
    let mut client = Client::connect(&handle.addr.to_string(), Duration::from_secs(5)).unwrap();
    let answers: Vec<_> = (1..=2)
        .map(|id| client.estimate(id, &to_text(&q), None).unwrap())
        .collect();
    for a in &answers {
        assert!(a.ok && a.degraded && !a.cached, "{a:?}");
        assert!(a.log10.is_finite() && a.estimate.is_finite(), "{a:?}");
    }
    assert_eq!(answers[0].log10.to_bits(), answers[1].log10.to_bits());
    let stats = client.call(&Request::control("stats")).unwrap();
    assert_eq!(stats.estimate, 0.0, "nothing was cached");
    handle.stop();
    handle.join();
}

/// A star: node 0 joined to each of `leaves` leaves, all labeled 0.
fn star(leaves: u32) -> String {
    let labels = vec![0; leaves as usize + 1];
    let edges: Vec<(u32, u32)> = (1..=leaves).map(|v| (0, v)).collect();
    to_text(&graph_from_edges(&labels, &edges))
}

#[test]
fn a_query_of_more_than_128_nodes_is_refused() {
    let (graph, sketch) = fixtures("node-limit");
    let handle = alss_serve::serve(&config(graph, Some(sketch))).unwrap();
    let mut client = Client::connect(&handle.addr.to_string(), Duration::from_secs(5)).unwrap();

    // 129 nodes: refused by the header, before any decomposition.
    let over = client.estimate(1, &star(128), None).unwrap();
    assert!(!over.ok, "{over:?}");
    assert!(over.error.contains("limit of 128"), "{}", over.error);

    // 128 nodes: 128 BFS trees of 128 nodes each, answered promptly.
    let started = std::time::Instant::now();
    let at = client.estimate(2, &star(127), None).unwrap();
    let took = started.elapsed();
    assert!(at.ok && !at.degraded, "{at:?}");
    assert!(took < Duration::from_secs(1), "took {took:?}");
    handle.stop();
    handle.join();
}

#[test]
fn a_client_that_stops_reading_does_not_block_shutdown() {
    use std::io::Write;
    let (graph, sketch) = fixtures("no-reader");
    let handle = alss_serve::serve(&config(graph, Some(sketch))).unwrap();
    let addr = handle.addr;

    // Write pings and read no reply until a write stalls: the server has
    // stopped reading, because its own reply write is blocked.
    let mut silent = std::net::TcpStream::connect(addr).unwrap();
    silent
        .set_write_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    let mut pings = to_line(&Request::control("ping")).unwrap();
    pings.push('\n');
    let pings = pings.repeat(1024);
    let mut sent = 0usize;
    while silent.write_all(pings.as_bytes()).is_ok() {
        sent += 1;
        assert!(sent < 100_000, "the server never stopped reading");
    }

    let mut client = Client::connect(&addr.to_string(), Duration::from_secs(5)).unwrap();
    assert!(client.call(&Request::control("shutdown")).unwrap().ok);
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        handle.join();
        let _ = done_tx.send(());
    });
    // The server's write timeout is 5 s.
    let bound = Duration::from_secs(5 + 2);
    assert!(
        done_rx.recv_timeout(bound).is_ok(),
        "the server still runs {bound:?} after shutdown"
    );
    drop(silent);
}

#[test]
fn an_address_in_use_fails_start_up() {
    let (graph, sketch) = fixtures("addr-in-use");
    let taken = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let mut cfg = config(graph, Some(sketch));
    cfg.addr = taken.local_addr().unwrap().to_string();
    let Err(e) = timed_serve(&cfg) else {
        panic!("a taken address must fail start-up");
    };
    assert!(e.starts_with("bind "), "{e}");
}
