//! In-process replay of the server's per-request pipeline for the traced
//! run, one public call per layer: request parse (`proto::from_line`),
//! query parse (`io::from_text`), `canonical_key`, `ShardedLru::get`, and
//! on a miss either the Wander-Join fallback (`deadline_ms: 0`) or
//! `decompose`, `Encoder::encode_query`, `LssModel::predict` and
//! `ShardedLru::insert`. `decompose` is timed as its own call although
//! `encode_query` repeats it, so that encoding can be reported without it.
//!
//! The replay keeps its own cache with the server's default capacity and
//! shard count and replays requests in schedule order, so its hits and
//! misses follow the server's.

use crate::trace::Tracer;
use alss_core::LearnedSketch;
use alss_estimators::WanderJoin;
use alss_graph::io::from_text;
use alss_graph::{canonical_key, decompose};
use alss_serve::engine::fallback_outcome;
use alss_serve::proto::from_line;
use alss_serve::{CachedEstimate, Request, ShardedLru};
use std::hint::black_box;
use std::time::Instant;

/// `alss serve --cache` default.
pub const CACHE_CAPACITY: usize = 4096;
/// `alss serve --shards` default.
pub const CACHE_SHARDS: usize = 8;

/// Facts about one replayed request.
pub struct Replayed {
    /// Request id.
    pub id: u64,
    /// Query size in nodes.
    pub size: usize,
    /// Substructures from `decompose` (model path only).
    pub subs: Option<usize>,
}

/// Replay `(request id, request line)` pairs through the layers, with
/// spans when `tr` is on. Returns per-request facts and the wall time in
/// seconds.
pub fn replay(
    lines: &[(u64, &str)],
    sketch: &LearnedSketch,
    wj: &WanderJoin<'_>,
    tr: &mut Tracer,
) -> (Vec<Replayed>, f64) {
    let cache = ShardedLru::new(CACHE_CAPACITY, CACHE_SHARDS);
    let hops = sketch.encoder().hops();
    let started = Instant::now();
    let mut out = Vec::with_capacity(lines.len());
    for &(id, line) in lines {
        let root = tr.open("serve.request", id, None);
        let s = tr.open("serve.proto.parse", id, root);
        let req: Request = from_line(line).expect("the benchmark sends well-formed requests");
        tr.close(s);
        let s = tr.open("graph.io.parse", id, root);
        let q = from_text(&req.query).expect("the benchmark sends well-formed queries");
        tr.close(s);
        let s = tr.open("graph.canon.key", id, root);
        let key = canonical_key(&q);
        tr.close(s);
        let s = tr.open("serve.cache.get", id, root);
        let hit = cache.get(&key).is_some();
        tr.close(s);
        let mut subs = None;
        if !hit {
            if req.deadline_ms == Some(0) {
                let s = tr.open("estimators.wj", id, root);
                black_box(fallback_outcome(wj, &q, key.hash));
                tr.close(s);
            } else {
                let s = tr.open("graph.decompose", id, root);
                subs = Some(black_box(decompose(&q, hops)).len());
                tr.close(s);
                let s = tr.open("core.encode", id, root);
                let encoded = sketch.encode(&q);
                tr.close(s);
                let s = tr.open("core.model.forward", id, root);
                let pred = sketch.model().predict(&encoded);
                tr.close(s);
                let s = tr.open("serve.cache.insert", id, root);
                cache.insert(
                    key,
                    CachedEstimate {
                        log10: pred.log10_count,
                        magnitude_class: u64::try_from(pred.top_class()).unwrap_or(u64::MAX),
                    },
                );
                tr.close(s);
            }
        }
        tr.close(root);
        out.push(Replayed {
            id,
            size: q.num_nodes(),
            subs,
        });
    }
    (out, started.elapsed().as_secs_f64())
}
