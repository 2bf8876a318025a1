//! A probe on a name already in the metrics table allocates nothing: the
//! table is keyed by the probe's `&'static str`, so a counter, histogram
//! or span probe copies nothing, and with no sink installed a span's path
//! and an event's fields are never built.
#![expect(
    unsafe_code,
    reason = "a counting global allocator implements the unsafe GlobalAlloc trait"
)]

use alss_telemetry::test_support::serialized;
use alss_telemetry::{add, event, record, snapshot, Span};
use serde_json::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread. Counted per thread so the test
    /// harness's own threads do not disturb the count.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the count is a const-initialised thread-local
// `Cell` with no destructor, so reading it never allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Allocations made by `f` on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = allocations();
    f();
    allocations() - before
}

#[test]
fn probes_on_a_known_name_do_not_allocate_without_a_sink() {
    // Serialized, so no other test's sink is installed meanwhile.
    let counted = serialized(|| {
        // The first use of each name inserts it into the table, and the
        // first span sizes this thread's span stack.
        add("no_alloc.counter", 1);
        record("no_alloc.histogram_us", 1);
        {
            let _outer = Span::enter("no_alloc.outer");
            let _inner = Span::enter("no_alloc.inner");
        }
        event("no_alloc.event", &[("n", Value::UInt(1))]);
        [
            allocations_in(|| {
                for _ in 0..1_000 {
                    add("no_alloc.counter", 1);
                }
            }),
            allocations_in(|| {
                for i in 0..1_000u64 {
                    record("no_alloc.histogram_us", i);
                }
            }),
            allocations_in(|| {
                for _ in 0..1_000 {
                    let _outer = Span::enter("no_alloc.outer");
                    let _inner = Span::enter("no_alloc.inner");
                }
            }),
            allocations_in(|| {
                for i in 0..1_000u64 {
                    event("no_alloc.event", &[("n", Value::UInt(i))]);
                }
            }),
        ]
    });
    assert_eq!(
        counted, [0; 4],
        "allocations by 1,000 adds, records, nested span pairs and events"
    );
    let snap = snapshot();
    assert_eq!(snap.counter("no_alloc.counter"), Some(1_001));
    let count = |name| snap.histogram(name).map(|h| h.count);
    assert_eq!(count("no_alloc.histogram_us"), Some(1_001));
    assert_eq!(count("span.no_alloc.outer_us"), Some(1_001));
    assert_eq!(count("span.no_alloc.inner_us"), Some(1_001));
}
