//! With recording on, a counter or histogram probe on a name already in
//! the table allocates nothing: the table is keyed by the probe's
//! `&'static str`, so a probe on a known name copies nothing.
#![expect(
    unsafe_code,
    reason = "a counting global allocator implements the unsafe GlobalAlloc trait"
)]

use alss_telemetry::test_support::with_capture;
use alss_telemetry::{add, record, snapshot};
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

#[test]
fn probes_on_a_known_name_do_not_allocate() {
    let (counted, _) = with_capture(|| {
        // The first use of each name inserts it into the table.
        add("no_alloc.counter", 1);
        record("no_alloc.histogram_us", 1);
        let before = allocations();
        for _ in 0..1_000 {
            add("no_alloc.counter", 1);
        }
        let adds = allocations() - before;
        let before = allocations();
        for i in 0..1_000u64 {
            record("no_alloc.histogram_us", i);
        }
        (adds, allocations() - before)
    });
    assert_eq!(
        counted,
        (0, 0),
        "allocations by 1,000 adds and 1,000 records"
    );
    let snap = snapshot();
    assert_eq!(snap.counter("no_alloc.counter"), Some(1_001));
    assert_eq!(
        snap.histogram("no_alloc.histogram_us").map(|h| h.count),
        Some(1_001)
    );
}
