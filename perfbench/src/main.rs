//! `alss-perfbench`: the ALSS end-to-end benchmark (see README.md).
//!
//! A run builds the sketch offline, starts a live `alss serve` on it,
//! drives one traffic mix open-loop over two connections, checks every
//! answer, and prints each metric with its unit and sample count. The last
//! line of stdout is the JSON result. `--trace 1` replays the same seeded
//! inputs with spans around every layer call and reports the per-layer
//! metrics instead.

mod build;
mod check;
mod inputs;
mod layers;
mod openloop;
mod server;
mod stats;
mod trace;

use alss_core::{par_map, LearnedSketch, Parallelism};
use alss_estimators::{LabelIndex, WanderJoin};
use alss_graph::io::{from_text, to_text};
use alss_graph::{canonical_key, Graph};
use alss_serve::engine::fallback_outcome;
use alss_serve::proto::to_line;
use alss_serve::Request;
use check::{Answer, Reply, Sent, Verdict};
use inputs::{Mix, Planned, Traffic};
use openloop::{PhaseStats, Timing};
use server::Server;
use stats::{median, Summary};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::TcpStream;
use std::ops::Range;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use trace::Tracer;

/// Low fixed rate, requests per second.
const LOW_RPS: f64 = 100.0;
/// Tail of the generator's own lateness beyond which the generator, not
/// the server, fell behind.
const GEN_LATE_LIMIT_US: f64 = 10_000.0;
/// Requests outstanding per connection before the generator holds back.
const MAX_INFLIGHT: usize = 64;
/// How long a phase waits for missing replies after its last due time.
const DRAIN: Duration = Duration::from_secs(10);
/// The warm-up is sent as fast as `MAX_INFLIGHT` requests in flight
/// allow. A small window would stall on every reply: the server writes
/// each reply's newline in a second segment that Nagle holds until the
/// client acknowledges the first.
const WARMUP_RPS: f64 = 50_000.0;
/// Load connections, one generator thread each.
const CONNS: usize = 2;
/// A run is this many rounds. Each round repeats the offline build, starts
/// and stops `SPAWNS_PER_ROUND` servers, and sends a slice of each traffic
/// phase, so every metric is a median over samples spread across the run:
/// a stretch of time in which the shared machine runs slow then moves a
/// few samples, not all of them.
const ROUNDS: usize = 5;
/// Server start-ups per round besides the one under load; `setup_s` is the
/// median of all of them.
const SPAWNS_PER_ROUND: usize = 4;
/// Random walks per fallback estimate (`alss serve --wj-samples` default).
const WJ_SAMPLES: usize = 64;
/// Shares of `--seconds` at the low rate, at the high rate and saturated.
const LOW_SHARE: f64 = 0.44;
const HIGH_SHARE: f64 = 0.32;
const SAT_SHARE: f64 = 0.24;
/// Each saturated slice is cut into this many equal-count windows; the
/// first is the ramp and is dropped. `max_rps` is the median window rate.
const SAT_WINDOWS: usize = 6;

/// A serve workload.
struct Workload {
    name: &'static str,
    mix: Mix,
    /// The high fixed rate, below half of the workload's median `max_rps`
    /// on the machine the benchmark was defined on (README.md): about half
    /// for `serve_repeat`, less for `serve_unique`, whose server fell
    /// behind at 1100 rps in one run.
    high_rps: f64,
    /// A rough `max_rps`; it sizes the saturated phase.
    sat_rps: f64,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "serve_unique",
        mix: Mix::Unique,
        high_rps: 700.0,
        sat_rps: 1500.0,
    },
    Workload {
        name: "serve_repeat",
        mix: Mix::Repeat,
        high_rps: 1450.0,
        sat_rps: 2900.0,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    alss: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        raw.iter()
            .position(|a| a == flag)
            .and_then(|i| raw.get(i + 1).cloned())
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = get("--workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed: num("--seed")?,
        #[allow(clippy::cast_precision_loss)]
        seconds: seconds as f64,
        trace: num("--trace")? != 0,
        alss: get("--alss")?.into(),
        work: get("--work")?.into(),
    })
}

/// Requests in one round's slice of a phase that gets `share` of `secs`
/// seconds at `rate`.
fn slice(rate: f64, secs: f64, share: f64) -> usize {
    #[allow(clippy::cast_precision_loss)]
    let n = count(rate, secs * share / ROUNDS as f64);
    n
}

/// Requests in `secs` seconds at `rate`.
fn count(rate: f64, secs: f64) -> usize {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let n = (rate * secs).round().max(1.0) as usize;
    n
}

fn parse_query(text: &str) -> Graph {
    from_text(text).expect("the benchmark's own query text parses")
}

/// Every request sent in a run, in send order.
#[derive(Default)]
struct Log {
    planned: Vec<Planned>,
    lines: Vec<String>,
    sent: Vec<Sent>,
    timings: Vec<Timing>,
}

impl Log {
    /// Send `reqs` open-loop at `rate` and record them; returns their
    /// index range in the log.
    fn run(
        &mut self,
        conns: &mut [TcpStream],
        reqs: Vec<Planned>,
        rate: f64,
        inflight: usize,
    ) -> Result<Range<usize>, String> {
        self.run_drained(conns, reqs, rate, inflight, DRAIN)
    }

    /// [`Log::run`], waiting up to `drain` after the last due time.
    fn run_drained(
        &mut self,
        conns: &mut [TcpStream],
        reqs: Vec<Planned>,
        rate: f64,
        inflight: usize,
        drain: Duration,
    ) -> Result<Range<usize>, String> {
        let first = self.sent.len();
        for p in reqs {
            let id = self.sent.len() as u64 + 1;
            let line = to_line(&Request::estimate(id, p.text.as_str(), p.deadline0.then_some(0)))?;
            self.lines.push(line + "\n");
            self.sent.push(Sent {
                id,
                class: p.class,
                deadline0: p.deadline0,
            });
            self.planned.push(p);
        }
        let timings = openloop::run_phase(conns, &self.lines[first..], rate, inflight, drain);
        self.timings.extend(timings);
        Ok(first..self.sent.len())
    }
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
    /// Printed only, left out of the JSON result (see README.md).
    report_only: bool,
}

fn metric(
    name: impl Into<String>,
    value: f64,
    unit: &'static str,
    note: impl Into<String>,
) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        note: note.into(),
        report_only: false,
    }
}

/// `m`, printed but left out of the JSON result: its spread across seeds
/// is wider than any bound the result's metrics may have (README.md).
fn printed(m: Metric) -> Metric {
    Metric {
        report_only: true,
        ..m
    }
}

fn describe(s: &Summary) -> String {
    format!("n={}, p50 {:.0}, {} {:.0}", s.n, s.p50, s.tail_label(), s.tail)
}

fn phase_line(label: &str, st: &PhaseStats) -> String {
    let lat = st.latency.map_or("no replies".to_string(), |s| describe(&s));
    let rtt = st.rtt.map_or("-".to_string(), |s| describe(&s));
    let late = st.late.map_or("-".to_string(), |s| describe(&s));
    let gen_late = st.gen_late.map_or("-".to_string(), |s| describe(&s));
    format!(
        "{label}: {:.0} rps offered, {} sent, {} without reply | latency us {lat} | rtt us {rtt} | \
         sent late us {late} | generator's own lateness us {gen_late}, p90 {:.0} | backlog at \
         end {}",
        st.rate,
        st.sent,
        st.errors,
        st.gen_late_p90.unwrap_or(0.0),
        st.backlog_at_end
    )
}

/// Everything a run produced.
struct Outcome {
    metrics: Vec<Metric>,
    verdict: Verdict,
    /// Phases whose generator fell behind its schedule.
    invalid: Vec<String>,
}

fn run(a: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(&a.work).map_err(|e| format!("create {}: {e}", a.work.display()))?;
    let w = a.workload;
    let mut tr = Tracer::new(a.trace);
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "== alss perfbench: workload {} seed {} seconds {} trace {} ==",
        w.name,
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );
    println!(
        "config: nproc {nproc}; data {}@{} seed {}; build sizes {:?} x {} budget {} epochs {} \
         threads {}; serve --threads {} (other flags default), {CONNS} connections; rates low \
         {LOW_RPS} high {} rps, saturated {MAX_INFLIGHT} in flight per connection; {ROUNDS} \
         rounds",
        build::DATASET,
        build::SCALE,
        build::DATA_SEED,
        build::SIZES,
        build::PER_SIZE,
        build::BUDGET,
        build::EPOCHS,
        build::THREADS,
        server::SERVE_THREADS,
        w.high_rps,
    );

    // Offline build, on inputs that do not depend on the seed.
    let data = build::data_graph();
    let data_path = a.work.join("data.txt");
    std::fs::write(&data_path, to_text(&data)).map_err(|e| format!("write data graph: {e}"))?;
    let mut builder = build::Builder::new(&data, &mut tr);
    let sketch_path = a.work.join("sketch.json");
    builder
        .sketch()
        .save(&sketch_path)
        .map_err(|e| format!("save sketch: {e}"))?;

    // The in-process reference, loaded the way the server loads it.
    let s = tr.open("graph.io.data_parse", 0, None);
    let data_text =
        std::fs::read_to_string(&data_path).map_err(|e| format!("read data graph: {e}"))?;
    let data_ref = from_text(&data_text).map_err(|e| format!("parse data graph: {e}"))?;
    tr.close(s);
    let s = tr.open("core.sketch.load", 0, None);
    let sketch_ref = LearnedSketch::load(&sketch_path).map_err(|e| format!("load sketch: {e}"))?;
    tr.close(s);
    let s = tr.open("estimators.label_index", 0, None);
    let index = LabelIndex::new(&data_ref);
    tr.close(s);
    let wj = WanderJoin::new(&index, WJ_SAMPLES);

    let mut traffic = Traffic::new(w.mix, &data_ref, a.seed);

    let mut setups = Vec::new();
    let spawn_probes = |setups: &mut Vec<f64>| -> Result<(), String> {
        for _ in 0..SPAWNS_PER_ROUND {
            let s = Server::spawn(&a.alss, &data_path, &sketch_path, &a.work)?;
            setups.push(s.setup_s);
            s.shutdown()?;
        }
        Ok(())
    };
    spawn_probes(&mut setups)?;
    let srv = Server::spawn(&a.alss, &data_path, &sketch_path, &a.work)?;
    setups.push(srv.setup_s);
    let mut conns: Vec<TcpStream> = (0..CONNS)
        .map(|_| server::connect(srv.addr))
        .collect::<Result<_, _>>()?;

    let mut log = Log::default();
    let warm = log.run(&mut conns, traffic.warmup(), WARMUP_RPS, MAX_INFLIGHT)?;
    println!("warm-up: {} requests", warm.len());
    // Saturated slices: every request due at once, MAX_INFLIGHT outstanding
    // per connection, sized to last about SAT_SHARE of the run in all.
    let sat_n = slice(w.sat_rps, a.seconds, SAT_SHARE).max(SAT_WINDOWS * 100);
    #[allow(clippy::cast_precision_loss)]
    let sat_drain = DRAIN + Duration::from_secs_f64(4.0 * a.seconds * SAT_SHARE / ROUNDS as f64);
    let (mut low, mut high, mut sat) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        if round > 0 {
            if !a.trace {
                builder.repeat(&data);
            }
            spawn_probes(&mut setups)?;
        }
        builder.score();
        let n = slice(LOW_RPS, a.seconds, LOW_SHARE);
        low.push(log.run(&mut conns, traffic.take(n), LOW_RPS, MAX_INFLIGHT)?);
        builder.score();
        let n = slice(w.high_rps, a.seconds, HIGH_SHARE);
        high.push(log.run(&mut conns, traffic.take(n), w.high_rps, MAX_INFLIGHT)?);
        builder.score();
        let reqs = traffic.take(sat_n);
        sat.push(log.run_drained(&mut conns, reqs, WARMUP_RPS, MAX_INFLIGHT, sat_drain)?);
        builder.score();
    }
    let slices = |ranges: &[Range<usize>]| -> Vec<&[openloop::Timing]> {
        ranges.iter().map(|r| &log.timings[r.clone()]).collect()
    };
    let low_stats = openloop::analyse(&slices(&low), LOW_RPS);
    let high_stats = openloop::analyse(&slices(&high), w.high_rps);
    println!("{}", phase_line("low", &low_stats));
    println!("{}", phase_line("high", &high_stats));
    let mut invalid = Vec::new();
    for (name, st) in [("low", &low_stats), ("high", &high_stats)] {
        if !st.generator_on_time(GEN_LATE_LIMIT_US) {
            invalid.push(name.to_string());
        }
    }
    let sat_stats = openloop::analyse(&slices(&sat), WARMUP_RPS);
    let window_rates: Vec<f64> = slices(&sat)
        .into_iter()
        .flat_map(|s| openloop::throughput(s, SAT_WINDOWS))
        .collect();
    let max_rps = median(&window_rates).ok_or("no replies in the saturated phase")?;
    println!(
        "saturated: {} sent, {} without reply, {max_rps:.0} replies/s (median of {} windows) | \
         latency us {}",
        sat_stats.sent,
        sat_stats.errors,
        window_rates.len(),
        sat_stats
            .latency
            .map_or("no replies".to_string(), |s| describe(&s)),
    );
    let rss_mb = srv
        .peak_rss_mb()
        .ok_or("cannot read the server's VmHWM")?;
    drop(conns);
    srv.shutdown()?;
    println!(
        "queries: {} duplicates and {} 1-WL collisions dropped while drawing distinct queries",
        traffic.source().duplicates,
        traffic.source().wl_collisions
    );
    let built = builder.finish();
    println!(
        "build: {} labeled queries ({} train, {} held out); label s {:.3?}, train s {:.3?}; \
         score median {:.0} q/s over {} passes; q-error p50 {:.3} p95 {:.3}",
        built.labeled,
        built.train_queries,
        built.test_queries,
        built.label_s,
        built.train_s,
        median(&built.score_qps).unwrap_or(0.0),
        built.score_qps.len(),
        built.qerror.median,
        built.qerror.p95,
    );

    // Check every answer against the in-process reference.
    let replies: Vec<Reply> = log.timings.iter().map(|t| check::parse(&t.reply)).collect();
    let (need_model, need_fallback) = check::needed(&log.sent, &replies);
    let model_answers = par_map(Parallelism::fixed(nproc), &need_model, |_, &i| {
        let p = sketch_ref.predict(&parse_query(&log.planned[i].text));
        Answer::new(
            p.log10_count,
            u64::try_from(p.top_class()).unwrap_or(u64::MAX),
        )
    });
    let model: HashMap<usize, Answer> = need_model.iter().copied().zip(model_answers).collect();
    let fallback: HashMap<usize, Answer> = need_fallback
        .iter()
        .map(|&i| {
            let q = parse_query(&log.planned[i].text);
            let o = fallback_outcome(&wj, &q, canonical_key(&q).hash);
            (i, Answer::new(o.log10, o.magnitude_class))
        })
        .collect();
    let mut verdict = check::check(&log.sent, &replies, &model, &fallback);
    for m in &built.mismatches {
        verdict.checked += 1;
        verdict.failed += 1;
        verdict.examples.push(format!("build: {m}"));
    }
    #[allow(clippy::cast_precision_loss)]
    let fail_ratio = verdict.failed as f64 / verdict.checked.max(1) as f64;
    println!(
        "checks: {} answers, {} failed (fail_ratio {fail_ratio}); {} model, {} cached, \
         {} degraded, {} scheduled deadline-0",
        verdict.checked,
        verdict.failed,
        verdict.misses,
        verdict.hits,
        verdict.degraded,
        verdict.deadline0
    );
    for e in &verdict.examples {
        println!("  FAILED {e}");
    }
    if !invalid.is_empty() {
        println!("INVALID: the generator fell behind its schedule in phase(s) {invalid:?}");
    }

    let metrics = if a.trace {
        // The warm-up and the low-rate slices, in send order, are replayed.
        let lines: Vec<(u64, &str)> = std::iter::once(warm)
            .chain(low.iter().cloned())
            .flatten()
            .map(|i| (log.sent[i].id, log.lines[i].as_str()))
            .collect();
        let ctx = TraceCtx {
            log: &log,
            replies: &replies,
            low: &low,
            low_stats: &low_stats,
            built: &built,
        };
        let m = layer_metrics(&ctx, &lines, &sketch_ref, &wj, &mut tr);
        let path = a.work.join("trace.jsonl");
        tr.write_jsonl(&path)
            .map_err(|e| format!("write trace: {e}"))?;
        println!("trace: spans written to {}", path.display());
        m
    } else {
        let saturated = (max_rps, window_rates.len());
        end_to_end(&low_stats, &high_stats, saturated, &setups, rss_mb, &built)
    };
    Ok(Outcome {
        metrics,
        verdict,
        invalid,
    })
}

fn end_to_end(
    low: &PhaseStats,
    high: &PhaseStats,
    (max_rps, windows): (f64, usize),
    setups: &[f64],
    rss_mb: f64,
    built: &build::Built,
) -> Vec<Metric> {
    let mut m = Vec::new();
    for (label, st) in [("low", low), ("high", high)] {
        let lat = st.latency.unwrap_or(Summary {
            n: 0,
            p50: f64::INFINITY,
            tail_pct: None,
            tail: f64::INFINITY,
        });
        let note = format!("n={} at {:.0} rps", lat.n, st.rate);
        m.push(metric(format!("lat_p50_us.{label}"), lat.p50, "us", &note));
        m.push(printed(metric(
            format!("lat_p99_us.{label}"),
            lat.tail,
            "us",
            format!("{note}, reported tail {}", lat.tail_label()),
        )));
    }
    m.push(printed(metric(
        "max_rps",
        max_rps,
        "1/s",
        format!(
            "saturated reply rate, median of n={windows} windows, {MAX_INFLIGHT} in flight per \
             connection"
        ),
    )));
    m.push(metric(
        "setup_s",
        median(setups).unwrap_or(f64::INFINITY),
        "s",
        format!("median of n={} spawn-to-first-ping", setups.len()),
    ));
    m.push(metric("rss_mb", rss_mb, "MB", "n=1 server VmHWM"));
    m.push(printed(metric(
        "label_s",
        median(&built.label_s).unwrap_or(f64::INFINITY),
        "s",
        format!(
            "median of n={} labelings of {} queries",
            built.label_s.len(),
            built.labeled
        ),
    )));
    m.push(printed(metric(
        "train_s",
        median(&built.train_s).unwrap_or(f64::INFINITY),
        "s",
        format!(
            "median of n={} trainings of {} epochs",
            built.train_s.len(),
            build::EPOCHS
        ),
    )));
    m.push(printed(metric(
        "score_qps",
        median(&built.score_qps).unwrap_or(0.0),
        "1/s",
        format!(
            "median of n={} passes over {} queries",
            built.score_qps.len(),
            built.test_queries
        ),
    )));
    m.push(metric(
        "qerror_p50",
        built.qerror.median,
        "ratio",
        format!("n={}", built.qerror.count),
    ));
    m.push(metric(
        "qerror_p95",
        built.qerror.p95,
        "ratio",
        format!("n={}", built.qerror.count),
    ));
    m
}

struct TraceCtx<'a> {
    log: &'a Log,
    replies: &'a [Reply],
    low: &'a [Range<usize>],
    low_stats: &'a PhaseStats,
    built: &'a build::Built,
}

/// Median of `values`, or 0 (reported with n=0) when there are none.
fn med_metric(name: &str, values: &[f64], unit: &'static str) -> Metric {
    metric(
        name,
        median(values).unwrap_or(0.0),
        unit,
        format!("median, n={}", values.len()),
    )
}

fn layer_metrics(
    ctx: &TraceCtx<'_>,
    lines: &[(u64, &str)],
    sketch: &LearnedSketch,
    wj: &WanderJoin<'_>,
    tr: &mut Tracer,
) -> Vec<Metric> {
    let mut m = Vec::new();
    let low_indices = || ctx.low.iter().cloned().flatten();
    let low_ids: HashSet<u64> = low_indices().map(|i| ctx.log.sent[i].id).collect();

    // Live traffic at the low rate: client round trip against the
    // server's own latency field.
    let mut rtt = Vec::new();
    let mut server = Vec::new();
    let mut transport = Vec::new();
    let mut server_us: HashMap<u64, f64> = HashMap::new();
    let mut hits = 0usize;
    for i in low_indices() {
        let (Some(r), Ok(reply)) = (ctx.log.timings[i].rtt_us(), &ctx.replies[i]) else {
            continue;
        };
        #[allow(clippy::cast_precision_loss)]
        let s = reply.latency_us as f64;
        rtt.push(r);
        server.push(s);
        transport.push(r - s);
        server_us.insert(reply.id, s);
        hits += usize::from(reply.cached);
    }
    m.push(med_metric("serve.rtt_us", &rtt, "us"));
    m.push(med_metric("serve.server_us", &server, "us"));
    m.push(med_metric("serve.transport_us", &transport, "us"));

    // In-process replay: untraced, traced, untraced again; the traced
    // pass's extra wall time is the tracing overhead.
    let mut off = Tracer::new(false);
    let (_, wall_a) = layers::replay(lines, sketch, wj, &mut off);
    let (replayed, wall_traced) = layers::replay(lines, sketch, wj, tr);
    let (_, wall_b) = layers::replay(lines, sketch, wj, &mut off);
    #[allow(clippy::cast_precision_loss)]
    let overhead_us = (wall_traced - (wall_a + wall_b) / 2.0) / lines.len().max(1) as f64 * 1e6;

    let st = tr.self_times();
    let empty = BTreeMap::new();
    let of = |name: &str| st.get(name).unwrap_or(&empty);
    let low_vals = |name: &str| -> Vec<f64> {
        of(name)
            .iter()
            .filter(|(id, _)| low_ids.contains(id))
            .map(|(_, v)| *v)
            .collect()
    };
    m.push(med_metric(
        "serve.proto.parse_us",
        &low_vals("serve.proto.parse"),
        "us",
    ));
    m.push(med_metric("graph.io.parse_us", &low_vals("graph.io.parse"), "us"));
    m.push(med_metric(
        "graph.canon.key_us",
        &low_vals("graph.canon.key"),
        "us",
    ));
    m.push(med_metric(
        "serve.cache.get_us",
        &low_vals("serve.cache.get"),
        "us",
    ));
    #[allow(clippy::cast_precision_loss)]
    let hit_ratio = hits as f64 / rtt.len().max(1) as f64;
    m.push(metric(
        "serve.cache.hit_ratio",
        hit_ratio,
        "ratio",
        format!("{hits} hits of n={} lookups", rtt.len()),
    ));
    m.push(med_metric(
        "serve.cache.insert_us",
        &low_vals("serve.cache.insert"),
        "us",
    ));

    // Queue and batch wait: what the server reports beyond the summed
    // in-process cost of the same request's layers.
    const SERVER_PATH: [&str; 8] = [
        "serve.proto.parse",
        "graph.io.parse",
        "graph.canon.key",
        "serve.cache.get",
        "estimators.wj",
        "core.encode",
        "core.model.forward",
        "serve.cache.insert",
    ];
    let wait: Vec<f64> = server_us
        .iter()
        .map(|(id, s)| s - SERVER_PATH.iter().filter_map(|n| of(n).get(id)).sum::<f64>())
        .collect();
    m.push(med_metric("serve.batch.wait_us", &wait, "us"));

    let decompose = of("graph.decompose");
    m.push(med_metric(
        "graph.decompose.us",
        &low_vals("graph.decompose"),
        "us",
    ));
    #[allow(clippy::cast_precision_loss)]
    let subs: Vec<f64> = replayed
        .iter()
        .filter(|r| low_ids.contains(&r.id))
        .filter_map(|r| r.subs.map(|s| s as f64))
        .collect();
    m.push(med_metric("graph.decompose.subs", &subs, "count"));
    let encode: Vec<f64> = of("core.encode")
        .iter()
        .filter(|(id, _)| low_ids.contains(id))
        .filter_map(|(id, e)| decompose.get(id).map(|d| e - d))
        .collect();
    m.push(med_metric("core.encode.us", &encode, "us"));
    let size_of: HashMap<u64, usize> = replayed.iter().map(|r| (r.id, r.size)).collect();
    for size in inputs::SIZES {
        let fwd: Vec<f64> = of("core.model.forward")
            .iter()
            .filter(|(id, _)| low_ids.contains(id) && size_of.get(id) == Some(&size))
            .map(|(_, v)| *v)
            .collect();
        m.push(med_metric(
            &format!("core.model.forward_us.n{size}"),
            &fwd,
            "us",
        ));
    }
    m.push(med_metric("estimators.wj.us", &low_vals("estimators.wj"), "us"));

    // Server start-up layers, in process.
    let once_s = |name: &str| of(name).values().sum::<f64>() / 1e6;
    m.push(metric(
        "graph.io.data_parse_s",
        once_s("graph.io.data_parse"),
        "s",
        "n=1",
    ));
    m.push(metric(
        "core.sketch.load_s",
        once_s("core.sketch.load"),
        "s",
        "n=1",
    ));
    m.push(metric(
        "estimators.label_index_s",
        once_s("estimators.label_index"),
        "s",
        "n=1",
    ));

    // The offline build.
    let counts: Vec<f64> = of("matching.count").values().copied().collect();
    #[allow(clippy::cast_precision_loss)]
    let mean_count = counts.iter().sum::<f64>() / counts.len().max(1) as f64;
    m.push(metric(
        "matching.count_us",
        mean_count,
        "us",
        format!(
            "mean over n={} candidates (their sum is the labeling time)",
            counts.len()
        ),
    ));
    if let Some(ms) = &ctx.built.matching {
        #[allow(clippy::cast_precision_loss)]
        let (expansions, kept) = (
            ms.expansions as f64,
            ms.kept as f64 / ms.candidates.max(1) as f64,
        );
        m.push(metric(
            "matching.expansions",
            expansions,
            "count",
            format!("total over n={} candidates", ms.candidates),
        ));
        m.push(metric(
            "matching.kept_ratio",
            kept,
            "ratio",
            format!("{} of {} candidates labeled", ms.kept, ms.candidates),
        ));
    }
    m.push(metric(
        "embedding.prone_s",
        once_s("embedding.prone"),
        "s",
        "n=1",
    ));
    m.push(metric(
        "core.train.encode_s",
        once_s("core.train.encode"),
        "s",
        "n=1",
    ));
    #[allow(clippy::cast_precision_loss)]
    let epoch_s = once_s("core.train.epochs") / build::EPOCHS as f64;
    m.push(metric(
        "core.train.epoch_s",
        epoch_s,
        "s",
        format!("mean of n={} epochs", build::EPOCHS),
    ));
    #[allow(clippy::cast_precision_loss)]
    let score: Vec<f64> = of("core.model.score")
        .values()
        .map(|us| us / ctx.built.test_queries.max(1) as f64)
        .collect();
    m.push(med_metric("core.model.score_us", &score, "us"));

    m.push(metric(
        "trace.overhead_us",
        overhead_us,
        "us",
        format!("per replayed request, n={}", lines.len()),
    ));
    let late = ctx.low_stats.gen_late.unwrap_or(Summary {
        n: 0,
        p50: 0.0,
        tail_pct: None,
        tail: 0.0,
    });
    m.push(metric(
        "gen.late_p99_us",
        late.tail,
        "us",
        format!(
            "generator's own lateness at the low rate, {}, n={}",
            late.tail_label(),
            late.n
        ),
    ));
    m
}

fn json_number(v: f64) -> String {
    // A non-finite value only arises in a failed run; keep the line valid.
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "alss-perfbench: {e}\nusage: alss-perfbench --workload <serve_unique|serve_repeat> \
                 --seed N --seconds N --trace 0|1 --alss PATH --work DIR"
            );
            return ExitCode::from(2);
        }
    };
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("alss-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for m in &out.metrics {
        let only = if m.report_only {
            "; report only, not in the JSON result"
        } else {
            ""
        };
        println!("{} = {} {} ({}{only})", m.name, m.value, m.unit, m.note);
    }
    let correct = out.verdict.failed == 0 && out.invalid.is_empty();
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .filter(|m| !m.report_only)
        .map(|m| {
            format!(
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        out.verdict.checked,
        out.verdict.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
