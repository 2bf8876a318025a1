//! The serving path extends the workspace determinism contract: a served
//! answer is bit-identical to the in-process computation on the same
//! checkpoint — `LearnedSketch::predict` for model answers and
//! `engine::fallback_outcome` for degraded (`deadline_ms:0`) answers —
//! over one connection and over several concurrent ones. Companion to
//! `alss-core`'s determinism suite (which CI runs under an `ALSS_THREADS`
//! matrix).

#![allow(clippy::unwrap_used, clippy::float_cmp)]

use alss_core::{LabeledQuery, LearnedSketch, SketchConfig, Workload};
use alss_estimators::{LabelIndex, WanderJoin};
use alss_graph::builder::graph_from_edges;
use alss_graph::canonical_key;
use alss_graph::io::{from_text, to_text};
use alss_graph::Graph;
use alss_serve::engine::fallback_outcome;
use alss_serve::{Client, ServeConfig};
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::Duration;

/// Random walks per fallback estimate, as `alss serve` uses.
const WJ_SAMPLES: usize = 64;

/// Concurrent connections in the second pass.
const CONNECTIONS: usize = 4;

/// A data graph with uneven degrees, so Wander-Join walks disagree and a
/// fallback answer depends on the walk count and seed.
fn data_graph() -> Graph {
    graph_from_edges(
        &[0, 0, 1, 1, 2, 0, 1, 2, 0, 1],
        &[
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (0, 4),
            (0, 5),
            (5, 6),
            (6, 7),
            (7, 8),
            (8, 9),
            (9, 0),
            (1, 6),
            (2, 7),
            (3, 8),
            (4, 9),
            (5, 2),
        ],
    )
}

fn fixtures() -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("alss-serve-det-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let data = data_graph();
    let graph_path = dir.join("graph.txt");
    std::fs::write(&graph_path, to_text(&data)).unwrap();
    let queries = [
        (vec![0u32, 0], vec![(0u32, 1u32)], 10u64),
        (vec![0, 1], vec![(0, 1)], 100),
        (vec![0, 1, 2], vec![(0, 1), (1, 2)], 5_000),
        (vec![0, 0, 1], vec![(0, 1), (1, 2)], 1_000),
    ]
    .into_iter()
    .map(|(l, e, c)| LabeledQuery::new(graph_from_edges(&l, &e), c))
    .collect();
    let (sketch, _) = LearnedSketch::train(
        &data,
        &Workload::from_queries(queries),
        &SketchConfig::tiny(),
    );
    let sketch_path = dir.join("sketch.json");
    sketch.save(&sketch_path).unwrap();
    (graph_path, sketch_path)
}

fn text(labels: &[u32], edges: &[(u32, u32)]) -> String {
    to_text(&graph_from_edges(labels, edges))
}

/// One request and the answer it must get, bit for bit.
struct Case {
    query: String,
    deadline_ms: Option<u64>,
    log10_bits: u64,
    magnitude_class: u64,
    degraded: bool,
}

/// Model cases (no deadline) and degraded cases (`deadline_ms:0`, on
/// structures no model case shares, so they always miss the cache), with
/// their answers computed in process.
fn cases(graph: &Path, sketch: &Path) -> Vec<Case> {
    let sketch = LearnedSketch::load(sketch).unwrap();
    let data = from_text(&std::fs::read_to_string(graph).unwrap()).unwrap();
    let index = LabelIndex::new(&data);
    let wj = WanderJoin::new(&index, WJ_SAMPLES);

    let model = [
        text(&[0, 0], &[(0, 1)]),
        text(&[0, 1], &[(0, 1)]),
        text(&[1, 2], &[(0, 1)]),
        text(&[0, 0, 1], &[(0, 1), (1, 2)]),
        text(&[0, 1, 2], &[(0, 1), (1, 2)]),
        text(&[2, 2, 1], &[(0, 1), (1, 2)]),
        text(&[0, 1, 2], &[(0, 1), (1, 2), (0, 2)]),
        text(&[1, 0, 0, 2], &[(0, 1), (1, 2), (2, 3)]),
    ];
    let degraded = [
        text(&[2, 0], &[(0, 1)]),
        text(&[1, 1, 0], &[(0, 1), (1, 2)]),
        text(&[2, 0, 1, 1], &[(0, 1), (1, 2), (1, 3)]),
    ];
    let mut out: Vec<Case> = model
        .into_iter()
        .map(|query| {
            let pred = sketch.predict(&from_text(&query).unwrap());
            Case {
                query,
                deadline_ms: None,
                log10_bits: pred.log10_count.to_bits(),
                magnitude_class: u64::try_from(pred.top_class()).unwrap(),
                degraded: false,
            }
        })
        .collect();
    out.extend(degraded.into_iter().map(|query| {
        let q = from_text(&query).unwrap();
        let fb = fallback_outcome(&wj, &q, canonical_key(&q).hash);
        Case {
            query,
            deadline_ms: Some(0),
            log10_bits: fb.log10.to_bits(),
            magnitude_class: fb.magnitude_class,
            degraded: true,
        }
    }));
    out
}

fn connect(addr: &str) -> Client {
    Client::connect(addr, Duration::from_secs(5)).unwrap()
}

/// Send `order` (indices into `cases`) over `client` and check every
/// answer.
fn check_connection(client: &mut Client, cases: &[Case], order: &[usize]) {
    for &i in order {
        let case = &cases[i];
        let resp = client
            .estimate(i as u64, &case.query, case.deadline_ms)
            .unwrap();
        assert!(resp.ok, "{}", resp.error);
        assert_eq!(resp.id, i as u64);
        assert_eq!(resp.degraded, case.degraded, "case {i}");
        assert_eq!(resp.log10.to_bits(), case.log10_bits, "case {i}: log10");
        assert_eq!(resp.magnitude_class, case.magnitude_class, "case {i}");
    }
}

fn start(graph: &Path, sketch: &Path) -> alss_serve::ServerHandle {
    alss_serve::serve(&ServeConfig {
        data_path: graph.to_path_buf(),
        model_path: Some(sketch.to_path_buf()),
        ..ServeConfig::default()
    })
    .unwrap()
}

#[test]
fn served_answers_match_in_process_compute_over_one_and_many_connections() {
    let (graph, sketch) = fixtures();
    let cases = cases(&graph, &sketch);
    let n = cases.len();

    let handle = start(&graph, &sketch);
    let in_order: Vec<usize> = (0..n).collect();
    check_connection(&mut connect(&handle.addr.to_string()), &cases, &in_order);
    handle.stop();
    handle.join();

    // A fresh server, and every connection open before any sends, so the
    // concurrent connections race on cold misses.
    let handle = start(&graph, &sketch);
    let addr = handle.addr.to_string();
    let all_connected = Barrier::new(CONNECTIONS);
    std::thread::scope(|s| {
        for c in 0..CONNECTIONS {
            let (addr, cases, all_connected) = (&addr, &cases, &all_connected);
            s.spawn(move || {
                // Connection c: rotated by c, every other one reversed.
                let mut order: Vec<usize> = (0..n).map(|i| (i + c * n / CONNECTIONS) % n).collect();
                if c % 2 == 1 {
                    order.reverse();
                }
                let mut client = connect(addr);
                all_connected.wait();
                check_connection(&mut client, cases, &order);
            });
        }
    });
    handle.stop();
    handle.join();
}
