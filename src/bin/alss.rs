//! `alss` — command-line interface to the learned sketch.
//!
//! ```text
//! alss generate  --dataset yeast --scale 0.2 --seed 0 --out graph.txt
//! alss workload  --graph graph.txt --sizes 3,4,6 --per-size 30
//!                [--iso] [--budget N] --out workload.json
//! alss train     --graph graph.txt --workload workload.json
//!                [--encoding fre|emb|con] [--epochs N] [--threads N]
//!                --out sketch.json
//! alss estimate  --sketch sketch.json --query query.txt
//! alss count     --graph graph.txt --query query.txt [--iso] [--budget N]
//! alss evaluate  --sketch sketch.json --workload workload.json
//! alss stats     --graph graph.txt
//! alss decompose --query query.txt [--hops 3]
//! alss serve     --graph graph.txt [--sketch sketch.json] [--addr 127.0.0.1:0]
//!                [--port-file p] [--cache N]
//!                [--telemetry out.jsonl]
//! alss query     --addr host:port (--query q.txt | --op ping|stats|shutdown)
//!                [--deadline-ms N]
//! alss loadgen   --addr host:port --query q.txt [--rounds N] [--deadline-ms N]
//! ```
//!
//! Graphs use the line-oriented text format of `alss::graph::io`
//! (`t/v/e` records); workloads and sketches are JSON.

use alss::core::{
    encode_workload_with, evaluate_with, LearnedSketch, Parallelism, QErrorStats, SketchConfig,
    TrainConfig, Workload,
};
use alss::datasets::queries::WorkloadSpec;
use alss::datasets::{by_name, generate_workload};
use alss::graph::io::{from_text, to_text};
use alss::graph::Graph;
use alss::matching::{Budget, Semantics};
use std::collections::HashMap;
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: alss <generate|workload|train|estimate|count|evaluate|stats|decompose|serve|query|loadgen> \
         [--flag value ...]\nrun `alss help` or see the crate docs for details"
    );
    ExitCode::FAILURE
}

/// Minimal `--flag value` / `--flag` parser.
struct Args {
    flags: HashMap<String, String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut flags = HashMap::new();
        let mut i = 0;
        while i < raw.len() {
            let k = raw[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got '{}'", raw[i]))?;
            if i + 1 < raw.len() && !raw[i + 1].starts_with("--") {
                flags.insert(k.to_string(), raw[i + 1].clone());
                i += 2;
            } else {
                flags.insert(k.to_string(), "true".to_string());
                i += 1;
            }
        }
        Ok(Args { flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(|s| s.as_str())
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for --{key}: {v}")),
        }
    }

    /// [`Args::parsed`], refusing a value that `ok` rejects: `bad value
    /// for --<key>: <v> (must be <want>)`.
    fn parsed_where<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
        want: &str,
        ok: impl Fn(&T) -> bool,
    ) -> Result<T, String> {
        let v = self.parsed(key, default)?;
        if ok(&v) {
            Ok(v)
        } else {
            let given = self.get(key).unwrap_or_default();
            Err(format!("bad value for --{key}: {given} (must be {want})"))
        }
    }

    fn is_set(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }
}

/// Why a command failed.
enum Failure {
    /// Reported as `error: <message>`.
    Message(String),
    /// Writing to stdout failed.
    Stdout(std::io::Error),
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure::Message(message)
    }
}

impl From<std::io::Error> for Failure {
    fn from(e: std::io::Error) -> Self {
        Failure::Stdout(e)
    }
}

/// What a command returns. Each command writes its output to the one
/// locked stdout that `main` passes it.
type CmdResult = Result<(), Failure>;

fn load_graph(path: &str) -> Result<Graph, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    from_text(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn semantics(args: &Args) -> Semantics {
    if args.is_set("iso") {
        Semantics::Isomorphism
    } else {
        Semantics::Homomorphism
    }
}

fn cmd_generate(args: &Args, stdout: &mut dyn Write) -> CmdResult {
    let dataset = args.require("dataset")?;
    let scale: f64 = args.parsed("scale", 0.2)?;
    let seed: u64 = args.parsed("seed", 0)?;
    let out = args.require("out")?;
    let g = by_name(dataset, scale, seed).ok_or_else(|| {
        format!("unknown dataset '{dataset}' (aids/yeast/youtube/wordnet/eu2005/yago)")
    })?;
    std::fs::write(out, to_text(&g)).map_err(|e| format!("write {out}: {e}"))?;
    writeln!(
        stdout,
        "wrote {out}: {} nodes, {} edges, {} labels",
        g.num_nodes(),
        g.num_edges(),
        g.num_node_labels()
    )?;
    Ok(())
}

fn cmd_workload(args: &Args, stdout: &mut dyn Write) -> CmdResult {
    let g = load_graph(args.require("graph")?)?;
    let sizes: Vec<usize> = args
        .require("sizes")?
        .split(',')
        .map(|s| s.trim().parse().map_err(|_| format!("bad size '{s}'")))
        .collect::<Result<_, _>>()?;
    let per_size: usize = args.parsed("per-size", 25)?;
    let budget: u64 = args.parsed("budget", 20_000_000)?;
    let wildcard: f64 = args.parsed("wildcard", 0.0)?;
    let seed: u64 = args.parsed("seed", 1)?;
    let out = args.require("out")?;
    let w = generate_workload(
        &g,
        &WorkloadSpec {
            sizes,
            per_size,
            semantics: semantics(args),
            budget_per_query: budget,
            wildcard_prob: wildcard,
            induced: false,
            seed,
        },
    );
    std::fs::write(out, w.to_json()).map_err(|e| format!("write {out}: {e}"))?;
    let (lo, hi) = w.count_range().unwrap_or((0, 0));
    writeln!(
        stdout,
        "wrote {out}: {} labeled queries, sizes {:?}, counts in [{lo}, {hi}]",
        w.len(),
        w.sizes()
    )?;
    Ok(())
}

/// Load a JSON workload. Each query's graph is read by the text parser
/// (`error: parse <file>: query <i>: graph: line <n>: …`); a query with no
/// nodes would decompose into nothing, so it is refused too.
fn load_workload(path: &str) -> Result<Workload, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let w = Workload::from_json(&json).map_err(|e| format!("parse {path}: {e}"))?;
    match w.queries.iter().position(|q| q.graph.num_nodes() == 0) {
        Some(i) => Err(format!("parse {path}: query {i}: no nodes")),
        None => Ok(w),
    }
}

fn cmd_train(args: &Args, stdout: &mut dyn Write) -> CmdResult {
    let graph = args.require("graph")?;
    let g = load_graph(graph)?;
    if g.num_nodes() == 0 {
        return Err(format!("data graph {graph}: no nodes").into());
    }
    let workload = args.require("workload")?;
    let w = load_workload(workload)?;
    if w.is_empty() {
        return Err(format!("workload {workload}: no queries to train on").into());
    }
    let out = args.require("out")?;
    let epochs: usize = args.parsed("epochs", 60)?;
    let encoding = match args.get("encoding").unwrap_or("emb") {
        "fre" => alss::core::EncodingKind::Frequency,
        "emb" => alss::core::EncodingKind::Embedding,
        "con" => alss::core::EncodingKind::Concatenated,
        other => return Err(format!("unknown encoding '{other}' (fre|emb|con)").into()),
    };
    let mut cfg = SketchConfig {
        encoding,
        ..SketchConfig::default()
    };
    cfg.model.hidden = args.parsed("hidden", 32)?;
    // Values `LearnedSketch::train` would panic on are refused here.
    cfg.model.gnn_layers = args.parsed_where("layers", 2, "at least 1", |&n| n >= 1)?;
    cfg.model.dropout =
        args.parsed_where("dropout", 0.1, "in [0, 1)", |p| (0.0..1.0).contains(p))?;
    // --threads 0 (the default) auto-detects; any N pins the fan-out.
    let threads: usize = args.parsed("threads", 0)?;
    cfg.train = TrainConfig {
        epochs,
        parallelism: if threads > 0 {
            Parallelism::fixed(threads)
        } else {
            Parallelism::auto()
        },
        ..TrainConfig::default()
    };
    cfg.prone_dim = args.parsed_where("prone-dim", 32, "at least 1", |&n| n >= 1)?;
    cfg.seed = args.parsed("seed", 42)?;
    let (sketch, report) = LearnedSketch::train(&g, &w, &cfg);
    sketch.save(out).map_err(|e| format!("save {out}: {e}"))?;
    writeln!(
        stdout,
        "trained on {} queries ({} epochs, {:.2}s, final loss {:.4}); sketch -> {out}",
        report.num_queries,
        report.epoch_losses.len(),
        report.duration.as_secs_f64(),
        report.epoch_losses.last().copied().unwrap_or(f64::NAN)
    )?;
    Ok(())
}

fn cmd_estimate(args: &Args, stdout: &mut dyn Write) -> CmdResult {
    let sketch = LearnedSketch::load(args.require("sketch")?).map_err(|e| e.to_string())?;
    let path = args.require("query")?;
    let q = load_graph(path)?;
    if q.num_nodes() == 0 {
        return Err(format!("query {path}: no nodes").into());
    }
    let pred = sketch.predict(&q);
    let count = pred.count().ok_or_else(|| {
        format!(
            "query {path}: the model predicts log10 {}, which has no finite count",
            pred.log10_count
        )
    })?;
    writeln!(stdout, "estimate: {count:.1}")?;
    writeln!(stdout, "log10:    {:.3}", pred.log10_count)?;
    writeln!(stdout, "magnitude class: {}", pred.top_class())?;
    Ok(())
}

fn cmd_count(args: &Args, stdout: &mut dyn Write) -> CmdResult {
    let g = load_graph(args.require("graph")?)?;
    let q = load_graph(args.require("query")?)?;
    let budget: u64 = args.parsed("budget", 1_000_000_000)?;
    let sem = semantics(args);
    match sem.count(&g, &q, &Budget::new(budget)) {
        Ok(c) => {
            writeln!(stdout, "{c}")?;
            Ok(())
        }
        Err(_) => Err(format!("budget of {budget} expansions exceeded").into()),
    }
}

fn cmd_evaluate(args: &Args, stdout: &mut dyn Write) -> CmdResult {
    let sketch = LearnedSketch::load(args.require("sketch")?).map_err(|e| e.to_string())?;
    let w = load_workload(args.require("workload")?)?;
    let par = Parallelism::auto();
    let items = encode_workload_with(sketch.encoder(), &w, par);
    let pairs = evaluate_with(sketch.model(), &items, par);
    if pairs.is_empty() {
        return Err("empty workload".to_string().into());
    }
    // A prediction with no finite count is a `+inf` estimate: such queries
    // are counted apart, not scored into the q-error percentiles.
    let of_size = |size: Option<usize>| {
        let (scored, overflowed): (Vec<(f64, f64)>, Vec<_>) = w
            .queries
            .iter()
            .zip(&pairs)
            .filter(|(q, _)| size.is_none() || size == Some(q.size()))
            .map(|(_, &pair)| pair)
            .partition(|&(_, estimate)| estimate.is_finite());
        (QErrorStats::from_pairs(&scored), overflowed.len())
    };
    let (stats, overflowed) = of_size(None);
    writeln!(
        stdout,
        "q-error over {} queries:",
        stats.as_ref().map_or(0, |s| s.count)
    )?;
    if let Some(stats) = stats {
        writeln!(stdout, "{}", stats.render())?;
    }
    if overflowed > 0 {
        writeln!(
            stdout,
            "{overflowed} queries not scored: their estimate has no finite count"
        )?;
    }
    for size in w.sizes() {
        if let (Some(s), _) = of_size(Some(size)) {
            writeln!(stdout, "  {size}-node: {}", s.render())?;
        }
    }
    Ok(())
}

fn cmd_stats(args: &Args, stdout: &mut dyn Write) -> CmdResult {
    let g = load_graph(args.require("graph")?)?;
    let stats = alss::graph::labels::LabelStats::new(&g);
    writeln!(stdout, "nodes:        {}", g.num_nodes())?;
    writeln!(stdout, "edges:        {}", g.num_edges())?;
    writeln!(stdout, "node labels:  {}", g.num_node_labels())?;
    writeln!(stdout, "edge labels:  {}", g.num_edge_labels())?;
    writeln!(stdout, "multi-label:  {}", g.is_multi_labeled())?;
    writeln!(stdout, "max degree:   {}", g.max_degree())?;
    writeln!(stdout, "connected:    {}", g.is_connected())?;
    writeln!(stdout, "label entropy Ent(Sigma): {:.3}", stats.entropy())?;
    let order = stats.labels_by_frequency();
    write!(stdout, "top labels:  ")?;
    for l in order.iter().take(5) {
        write!(stdout, " {}x{}", l, stats.frequency(*l))?;
    }
    writeln!(stdout)?;
    Ok(())
}

fn cmd_decompose(args: &Args, stdout: &mut dyn Write) -> CmdResult {
    let q = load_graph(args.require("query")?)?;
    let hops: u32 = args.parsed("hops", 3)?;
    let d = alss::graph::decompose(&q, hops);
    writeln!(
        stdout,
        "query: {} nodes, {} edges -> {} substructures ({}-hop BFS trees)",
        q.num_nodes(),
        q.num_edges(),
        d.len(),
        hops
    )?;
    for i in 0..d.len() {
        let nodes = d.query_nodes(i);
        // a BFS tree has one edge per node but its root
        writeln!(
            stdout,
            "s{i}: root q{} | {} nodes, {} edges | original nodes {:?}",
            nodes[0],
            nodes.len(),
            nodes.len() - 1,
            nodes
        )?;
    }
    Ok(())
}

fn cmd_serve(args: &Args, stdout: &mut dyn Write) -> CmdResult {
    let _guard = alss::telemetry::init("serve", args.get("telemetry"));
    let cfg = alss::serve::ServeConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:0").to_string(),
        data_path: args.require("graph")?.into(),
        model_path: args.get("sketch").map(Into::into),
        cache_capacity: args.parsed("cache", 4096)?,
    };
    let handle = alss::serve::serve(&cfg)?;
    writeln!(stdout, "listening on {}", handle.addr)?;
    if let Some(port_file) = args.get("port-file") {
        // Written after bind: pollers that see the file can connect.
        std::fs::write(port_file, handle.addr.to_string())
            .map_err(|e| format!("write {port_file}: {e}"))?;
    }
    handle.join(); // blocks until a client sends `shutdown`
    writeln!(stdout, "server stopped")?;
    Ok(())
}

fn cmd_query(args: &Args, stdout: &mut dyn Write) -> CmdResult {
    let addr = args.require("addr")?;
    let mut client = alss::serve::Client::connect(addr, std::time::Duration::from_secs(5))?;
    let op = args.get("op").unwrap_or("estimate");
    let req = match op {
        "estimate" => {
            let path = args.require("query")?;
            let query = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            let deadline: i64 = args.parsed("deadline-ms", -1)?;
            alss::serve::Request::estimate(
                args.parsed("id", 1)?,
                query,
                u64::try_from(deadline).ok(),
            )
        }
        "ping" | "stats" | "shutdown" => alss::serve::Request::control(op),
        other => return Err(format!("unknown op '{other}' (estimate|ping|stats|shutdown)").into()),
    };
    let resp = client.call(&req)?;
    writeln!(stdout, "{}", alss::serve::proto::to_line(&resp)?)?;
    if resp.ok {
        Ok(())
    } else {
        Err(resp.error.into())
    }
}

fn cmd_loadgen(args: &Args, stdout: &mut dyn Write) -> CmdResult {
    let addr = args.require("addr")?;
    let queries: Vec<String> = args
        .require("query")?
        .split(',')
        .map(|p| {
            let p = p.trim();
            std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let rounds: u32 = args.parsed("rounds", 1)?;
    let deadline: i64 = args.parsed("deadline-ms", -1)?;
    let report = alss::serve::run_load(addr, &queries, rounds, u64::try_from(deadline).ok())?;
    writeln!(
        stdout,
        "sent {} | ok {} | cached {} | degraded {} | failed {} | mean latency {}us",
        report.sent,
        report.ok,
        report.cached,
        report.degraded,
        report.failed,
        report.mean_latency_us
    )?;
    if report.failed > 0 {
        return Err(format!("{} request(s) failed", report.failed).into());
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        return usage();
    };
    let args = match Args::parse(&argv[1..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let cmd: fn(&Args, &mut dyn Write) -> CmdResult = match cmd.as_str() {
        "generate" => cmd_generate,
        "workload" => cmd_workload,
        "train" => cmd_train,
        "estimate" => cmd_estimate,
        "count" => cmd_count,
        "evaluate" => cmd_evaluate,
        "stats" => cmd_stats,
        "decompose" => cmd_decompose,
        "serve" => cmd_serve,
        "query" => cmd_query,
        "loadgen" => cmd_loadgen,
        "help" | "--help" | "-h" => {
            return usage();
        }
        other => {
            eprintln!("unknown command '{other}'");
            return usage();
        }
    };
    let mut stdout = std::io::stdout().lock();
    let result = cmd(&args, &mut stdout).and_then(|()| Ok(stdout.flush()?));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        // A reader that stops early (`alss stats ... | head -1`) is not a
        // failure of the command.
        Err(Failure::Stdout(e)) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(Failure::Stdout(e)) => {
            eprintln!("error: write stdout: {e}");
            ExitCode::FAILURE
        }
        Err(Failure::Message(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
