//! Peak heap of one inference on the largest query a server admits. A
//! 128-node star decomposes into 128 BFS trees of 128 rows each, 16,384
//! packed rows, but only a handful of them are distinct: the encoder
//! stores distinct feature rows and the forward keys rows by integer ids,
//! so no step should hold a matrix with one row per packed row.
#![expect(
    unsafe_code,
    reason = "a counting global allocator implements the unsafe GlobalAlloc trait"
)]

use alss_core::{Encoder, LssConfig, LssModel};
use alss_graph::builder::graph_from_edges;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread has allocated and not yet freed, and the most it
    /// has held at once since the last reset. Counted per thread so the
    /// test harness's own threads do not disturb the count.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

struct Counting;

fn track(delta: isize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn size_of(layout: Layout) -> isize {
    isize::try_from(layout.size()).unwrap_or(isize::MAX)
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counts are const-initialised thread-local
// `Cell`s with no destructor, so updating them never allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(size_of(layout));
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-size_of(layout));
        // SAFETY: `ptr` was allocated by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(isize::try_from(new_size).unwrap_or(isize::MAX) - size_of(layout));
        // SAFETY: the caller's `ptr`/`layout`/`new_size` obligations pass
        // through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The most bytes `f` held live at once on this thread, above what was
/// live when it started.
fn peak_heap_of(f: impl FnOnce()) -> usize {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    f();
    usize::try_from(PEAK.with(Cell::get) - base).unwrap_or(0)
}

/// About twice what encoding and predicting the star take (0.9 MB), and
/// far below what gathering and aggregating all 16,384 rows took (9 MB):
/// one 16,384 × 32 `f32` matrix alone is 2 MiB.
const PEAK_BOUND_BYTES: usize = 2 << 20;

#[test]
fn a_128_node_star_is_encoded_and_predicted_in_bounded_heap() {
    // A data graph with 32 labels, so the frequency encoding is 32 wide,
    // and the model sized as `alss train` sizes it (32 hidden, 2 layers).
    let labels: Vec<u32> = (0..64).map(|v| v % 32).collect();
    let edges: Vec<(u32, u32)> = (1..64).map(|v| (v - 1, v)).collect();
    let enc = Encoder::frequency(&graph_from_edges(&labels, &edges), 3);
    let cfg = LssConfig {
        hidden: 32,
        gnn_layers: 2,
        ..LssConfig::default()
    };
    let model = LssModel::new(
        cfg,
        enc.node_dim(),
        enc.edge_dim(),
        &mut SmallRng::seed_from_u64(0),
    );
    let mut star_labels = vec![1u32; 128];
    star_labels[0] = 0;
    let star_edges: Vec<(u32, u32)> = (1..128).map(|v| (0, v)).collect();
    let star = graph_from_edges(&star_labels, &star_edges);
    // Warm up once, so lazily sized tables (the telemetry metrics, the
    // span stack) are not charged to the measured run.
    let _ = model.predict(&enc.encode_query(&star));
    let peak = peak_heap_of(|| {
        let encoded = enc.encode_query(&star);
        assert!(model.predict(&encoded).log10_count.is_finite());
    });
    assert!(
        peak < PEAK_BOUND_BYTES,
        "encode + predict on a 128-node star peaked at {peak} bytes (bound {PEAK_BOUND_BYTES})"
    );
}
