//! End-to-end smoke test of the `alss` CLI binary: generate → workload →
//! train → estimate/count/evaluate/stats/decompose over temp files.

// Test code opts back out of the library panic policy: a panic IS the
// failure report here.
#![allow(
    clippy::unwrap_used,
    clippy::cast_possible_truncation,
    clippy::float_cmp
)]
use std::path::PathBuf;
use std::process::Command;

fn alss() -> Command {
    Command::new(env!("CARGO_BIN_EXE_alss"))
}

/// A scratch directory private to one test: tests in this file run
/// concurrently and each removes its own directory when done.
fn tmpdir(test: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("alss_cli_test_{test}_{}", std::process::id()));
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

#[test]
fn full_cli_pipeline() {
    let dir = tmpdir("full_cli_pipeline");
    let graph = dir.join("g.txt");
    let workload = dir.join("w.json");
    let sketch = dir.join("s.json");
    let query = dir.join("q.txt");

    // generate
    let out = alss()
        .args([
            "generate",
            "--dataset",
            "yeast",
            "--scale",
            "0.08",
            "--seed",
            "1",
            "--out",
            graph.to_str().unwrap(),
        ])
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // workload
    let out = alss()
        .args([
            "workload",
            "--graph",
            graph.to_str().unwrap(),
            "--sizes",
            "3,4",
            "--per-size",
            "10",
            "--budget",
            "2000000",
            "--out",
            workload.to_str().unwrap(),
        ])
        .output()
        .expect("run workload");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // train
    let out = alss()
        .args([
            "train",
            "--graph",
            graph.to_str().unwrap(),
            "--workload",
            workload.to_str().unwrap(),
            "--epochs",
            "10",
            "--hidden",
            "16",
            "--prone-dim",
            "8",
            "--out",
            sketch.to_str().unwrap(),
        ])
        .output()
        .expect("run train");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(sketch.exists());

    // estimate on a handwritten query
    std::fs::write(&query, "t 2 1\nv 0 0\nv 1 -1\ne 0 1\n").expect("write query");
    let out = alss()
        .args([
            "estimate",
            "--sketch",
            sketch.to_str().unwrap(),
            "--query",
            query.to_str().unwrap(),
        ])
        .output()
        .expect("run estimate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("estimate:"), "missing estimate in: {text}");

    // a zero-node query is an error message, not a panic
    let empty = dir.join("empty.txt");
    std::fs::write(&empty, "t 0 0\n").expect("write query");
    let out = alss()
        .args([
            "estimate",
            "--sketch",
            sketch.to_str().unwrap(),
            "--query",
            empty.to_str().unwrap(),
        ])
        .output()
        .expect("run estimate");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("no nodes") && !err.contains("panicked"),
        "{err}"
    );

    // exact count
    let out = alss()
        .args([
            "count",
            "--graph",
            graph.to_str().unwrap(),
            "--query",
            query.to_str().unwrap(),
        ])
        .output()
        .expect("run count");
    assert!(out.status.success());
    let count: u64 = String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .expect("count number");
    let _ = count;

    // evaluate
    let out = alss()
        .args([
            "evaluate",
            "--sketch",
            sketch.to_str().unwrap(),
            "--workload",
            workload.to_str().unwrap(),
        ])
        .output()
        .expect("run evaluate");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("q-error"));

    // stats + decompose
    let out = alss()
        .args(["stats", "--graph", graph.to_str().unwrap()])
        .output()
        .expect("run stats");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("label entropy"));

    let out = alss()
        .args([
            "decompose",
            "--query",
            query.to_str().unwrap(),
            "--hops",
            "2",
        ])
        .output()
        .expect("run decompose");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("substructures"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_reports_errors_cleanly() {
    // unknown command
    let out = alss().args(["frobnicate"]).output().expect("run");
    assert!(!out.status.success());

    // missing required flag
    let out = alss()
        .args(["generate", "--dataset", "yeast"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out"));

    // unknown dataset
    let dir = tmpdir("cli_reports_errors_cleanly");
    let out = alss()
        .args([
            "generate",
            "--dataset",
            "imdb",
            "--out",
            dir.join("x.txt").to_str().unwrap(),
        ])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown dataset"));

    // a workload whose query names an out-of-range node is reported by
    // the text parser, with the query and the line
    let graph = dir.join("g.txt");
    std::fs::write(&graph, "t 3 2\nv 0 0\nv 1 0\nv 2 1\ne 0 1\ne 1 2\n").unwrap();
    let path = alss::graph::builder::graph_from_edges(&[0, 0, 1], &[(0, 1), (1, 2)]);
    let w = alss::core::Workload::from_queries(vec![alss::core::LabeledQuery::new(path, 2)]);
    let json = w.to_json();
    assert!(json.contains("\"graph\":\"t 3 2\\n"), "{json}");
    assert!(json.contains("e 1 2\\n"), "{json}");
    let train_on = |workload: &std::path::Path| {
        let out = alss()
            .args([
                "train",
                "--graph",
                graph.to_str().unwrap(),
                "--workload",
                workload.to_str().unwrap(),
                "--out",
                dir.join("s.json").to_str().unwrap(),
            ])
            .output()
            .expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        stderr
    };
    let corrupt = dir.join("corrupt.json");
    std::fs::write(&corrupt, json.replace("e 1 2", "e 1 9")).unwrap();
    assert_eq!(
        train_on(&corrupt).trim_end(),
        format!(
            "error: parse {}: query 0: graph: line 6: edge endpoint out of range",
            corrupt.display()
        )
    );

    // a workload in the old CSR form is refused, naming the `graph` field
    let old = dir.join("old.json");
    std::fs::write(
        &old,
        r#"{"queries":[{"graph":{"offsets":[0,1,2],"neighbors":[1,0],"adj_edge_labels":null,"node_labels":[0,0],"num_node_labels":1,"num_edge_labels":0},"count":2}]}"#,
    )
    .unwrap();
    let stderr = train_on(&old);
    assert!(
        stderr.starts_with(&format!("error: parse {}: query 0: graph: ", old.display())),
        "{stderr}"
    );

    // a query with no nodes is reported, not decomposed (`train` and
    // `evaluate` panicked: "query decomposed into no substructures")
    let good = dir.join("good.json");
    std::fs::write(&good, &json).unwrap();
    let mut with_empty = w.clone();
    let empty = alss::graph::builder::graph_from_edges(&[], &[]);
    with_empty
        .queries
        .push(alss::core::LabeledQuery::new(empty, 3));
    let empty_json = dir.join("empty.json");
    std::fs::write(&empty_json, with_empty.to_json()).unwrap();
    let sketch = dir.join("s.json");
    let run = |args: &[&str]| {
        let out = alss().args(args).output().expect("run");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let (g, s) = (graph.to_str().unwrap(), sketch.to_str().unwrap());
    let train = ["train", "--graph", g, "--epochs", "1", "--out", s];
    let (code, stderr) = run(&[&train[..], &["--workload", good.to_str().unwrap()]].concat());
    assert_eq!(code, Some(0), "{stderr}");
    let e = empty_json.to_str().unwrap();
    for args in [
        [&train[..], &["--workload", e]].concat(),
        vec!["evaluate", "--sketch", s, "--graph", g, "--workload", e],
    ] {
        let (code, stderr) = run(&args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert_eq!(
            stderr.trim_end(),
            format!("error: parse {e}: query 1: no nodes"),
            "{args:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The value at `path` (object keys and array indices) of a JSON tree.
fn at_mut<'a>(mut v: &'a mut serde_json::Value, path: &[&str]) -> &'a mut serde_json::Value {
    for key in path {
        v = match v {
            serde_json::Value::Object(pairs) => {
                &mut pairs.iter_mut().find(|(k, _)| k == key).expect(key).1
            }
            serde_json::Value::Array(items) => &mut items[key.parse::<usize>().expect(key)],
            other => panic!("{key}: not a container but {}", other.kind()),
        };
    }
    v
}

/// A sketch whose regression output is 400 for every query: finite, but
/// `10^400` is past `f64`. `estimate` refuses to print such a count, and
/// `evaluate` counts such queries instead of scoring them as `+inf`.
#[test]
fn an_estimate_with_no_finite_count_is_an_error() {
    use alss::core::{LabeledQuery, LearnedSketch, SketchConfig, Workload};
    use alss::graph::builder::graph_from_edges;
    use serde_json::Value;

    let dir = tmpdir("no_finite_count");
    let data = graph_from_edges(&[0, 0, 1, 1, 2], &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
    let w = Workload::from_queries(vec![
        LabeledQuery::new(graph_from_edges(&[0, 1], &[(0, 1)]), 2),
        LabeledQuery::new(graph_from_edges(&[1, 2], &[(0, 1)]), 2),
        LabeledQuery::new(graph_from_edges(&[0, 1, 2], &[(0, 1), (1, 2)]), 3),
    ]);
    let (sketch, _) = LearnedSketch::train(&data, &w, &SketchConfig::tiny());
    // Under `SketchConfig::tiny()`, the MLP head's output weight is
    // `values[12]` and the regression neuron's bias `values[13]`, entry 0.
    let mut checkpoint: Value = serde_json::from_str(&sketch.to_json()).unwrap();
    let values = ["model", "store", "values"];
    let Value::Array(weights) = at_mut(&mut checkpoint, &[&values[..], &["12", "data"]].concat())
    else {
        panic!("a weight matrix's data is not an array");
    };
    weights.fill(Value::Float(0.0));
    *at_mut(
        &mut checkpoint,
        &[&values[..], &["13", "data", "0"]].concat(),
    ) = Value::Float(400.0);

    let (g, s, q, wl) = (
        dir.join("g.txt"),
        dir.join("s.json"),
        dir.join("q.txt"),
        dir.join("w.json"),
    );
    std::fs::write(&g, alss::graph::io::to_text(&data)).unwrap();
    std::fs::write(&s, serde_json::to_string(&checkpoint)).unwrap();
    std::fs::write(&q, "t 2 1\nv 0 0\nv 1 1\ne 0 1\n").unwrap();
    std::fs::write(&wl, w.to_json()).unwrap();
    let run = |args: &[&std::path::Path]| {
        let out = alss()
            .args(args.iter().map(|a| a.as_os_str()))
            .output()
            .expect("run");
        let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
        (out.status.code(), text(&out.stdout), text(&out.stderr))
    };
    let arg = |a: &'static str| std::path::Path::new(a);

    let (code, stdout, stderr) = run(&[arg("estimate"), arg("--sketch"), &s, arg("--query"), &q]);
    assert_eq!(code, Some(1), "{stdout}{stderr}");
    assert!(!stdout.contains("estimate:"), "{stdout}");
    assert_eq!(
        stderr.trim_end(),
        format!(
            "error: query {}: the model predicts log10 400, which has no finite count",
            q.display()
        )
    );

    let (code, stdout, stderr) = run(&[
        arg("evaluate"),
        arg("--sketch"),
        &s,
        arg("--graph"),
        &g,
        arg("--workload"),
        &wl,
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("q-error over 0 queries:"), "{stdout}");
    assert!(
        stdout.contains("3 queries not scored: their estimate has no finite count"),
        "{stdout}"
    );
    assert!(!stdout.contains("inf"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_closed_stdout_is_a_clean_exit() {
    let dir = tmpdir("closed_stdout");
    let graph = dir.join("g.txt");
    std::fs::write(&graph, "t 3 2\nv 0 0\nv 1 1\nv 2 0\ne 0 1\ne 1 2\n").unwrap();
    // A pipe whose read end is already gone, like `alss stats | head -0`.
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = alss()
        .args(["stats", "--graph", graph.to_str().unwrap()])
        .stdout(writer)
        .output()
        .expect("run stats");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The three-node data graph the `train_refuses_*` cases train on.
const TRAIN_GRAPH: &str = "t 3 2\nv 0 0\nv 1 0\nv 2 1\ne 0 1\ne 1 2\n";

/// `alss train` (one epoch) on the data graph `graph_text` and the
/// workload `workload_json`, plus the flags `extra`: its exit code and
/// stderr.
fn train_with(
    test: &str,
    graph_text: &str,
    workload_json: &str,
    extra: &[&str],
) -> (Option<i32>, String) {
    let dir = tmpdir(test);
    let graph = dir.join("g.txt");
    std::fs::write(&graph, graph_text).unwrap();
    let workload = dir.join("w.json");
    std::fs::write(&workload, workload_json).unwrap();
    let out = alss()
        .args([
            "train",
            "--graph",
            graph.to_str().unwrap(),
            "--workload",
            workload.to_str().unwrap(),
            "--epochs",
            "1",
            "--out",
            dir.join("s.json").to_str().unwrap(),
        ])
        .args(extra)
        .output()
        .expect("run train");
    std::fs::remove_dir_all(&dir).ok();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A one-query workload on [`TRAIN_GRAPH`].
fn one_query_workload() -> String {
    let path = alss::graph::builder::graph_from_edges(&[0, 0, 1], &[(0, 1), (1, 2)]);
    alss::core::Workload::from_queries(vec![alss::core::LabeledQuery::new(path, 2)]).to_json()
}

// Each input below panicked inside `LearnedSketch::train` (exit 101).

#[test]
fn train_refuses_a_workload_with_no_queries() {
    let (code, stderr) = train_with("no_queries", TRAIN_GRAPH, r#"{"queries":[]}"#, &[]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.starts_with("error: workload "), "{stderr}");
    assert!(
        stderr
            .trim_end()
            .ends_with("w.json: no queries to train on"),
        "{stderr}"
    );
}

#[test]
fn train_refuses_a_data_graph_with_no_nodes() {
    for encoding in ["emb", "fre"] {
        let (code, stderr) = train_with(
            "no_nodes",
            "t 0 0\n",
            &one_query_workload(),
            &["--encoding", encoding],
        );
        assert_eq!(code, Some(1), "{encoding}: {stderr}");
        assert!(stderr.starts_with("error: data graph "), "{stderr}");
        assert!(stderr.trim_end().ends_with("g.txt: no nodes"), "{stderr}");
    }
}

#[test]
fn train_refuses_zero_layers() {
    let args = ["--layers", "0"];
    let (code, stderr) = train_with("zero_layers", TRAIN_GRAPH, &one_query_workload(), &args);
    assert_eq!(code, Some(1), "{stderr}");
    assert_eq!(
        stderr.trim_end(),
        "error: bad value for --layers: 0 (must be at least 1)"
    );
}

#[test]
fn train_refuses_a_zero_prone_dim() {
    let args = ["--prone-dim", "0"];
    let (code, stderr) = train_with("zero_prone_dim", TRAIN_GRAPH, &one_query_workload(), &args);
    assert_eq!(code, Some(1), "{stderr}");
    assert_eq!(
        stderr.trim_end(),
        "error: bad value for --prone-dim: 0 (must be at least 1)"
    );
}

#[test]
fn train_refuses_a_dropout_outside_zero_to_one() {
    let workload = one_query_workload();
    for p in ["1.5", "1", "-0.5", "NaN"] {
        let args = ["--dropout", p];
        let (code, stderr) = train_with("bad_dropout", TRAIN_GRAPH, &workload, &args);
        assert_eq!(code, Some(1), "{p}: {stderr}");
        assert_eq!(
            stderr.trim_end(),
            format!("error: bad value for --dropout: {p} (must be in [0, 1))")
        );
    }
    let args = ["--dropout", "0"];
    let (code, stderr) = train_with("bad_dropout", TRAIN_GRAPH, &workload, &args);
    assert_eq!(code, Some(0), "{stderr}");
}
