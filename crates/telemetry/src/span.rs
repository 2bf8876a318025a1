//! RAII span scopes with per-thread span stacks, and the [`Stopwatch`]
//! interval timer.

use crate::sink::Event;
use std::cell::RefCell;
use std::time::{Duration, Instant};

thread_local! {
    /// Names of the spans currently open on this thread, outermost first.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// A timed scope. Construct with [`Span::enter`]; the span measures until
/// it is dropped, then records the duration into the `span.<name>_us`
/// histogram and, when a sink is installed, emits an [`Event::Span`]
/// carrying its `/`-joined ancestry and duration.
#[must_use = "a span measures until dropped; binding it to `_` drops immediately"]
pub struct Span {
    start: Instant,
    name: &'static str,
}

impl Span {
    /// Open a span named `name` on this thread.
    #[inline]
    pub fn enter(name: &'static str) -> Span {
        SPAN_STACK.with(|s| s.borrow_mut().push(name));
        Span {
            start: Instant::now(),
            name,
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        // The histogram is fed before the line is emitted, so a snapshot
        // taken after any span line counts that span.
        crate::metrics::record_span(self.name, duration_to_micros(elapsed));
        SPAN_STACK.with(|s| {
            crate::emit_with(|| Event::Span {
                name: self.name,
                path: s.borrow().join("/"),
                micros: elapsed.as_secs_f64() * 1e6,
                thread: thread_name(),
            });
            s.borrow_mut().pop();
        });
    }
}

fn thread_name() -> String {
    std::thread::current()
        .name()
        .unwrap_or("unnamed")
        .to_string()
}

/// Saturating whole-microsecond conversion for histogram recording.
fn duration_to_micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// A monotonic interval timer. Unlike [`Span`] it always measures (so
/// callers can keep using the elapsed time for their own results) and
/// only the optional [`Stopwatch::record`] call touches telemetry.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Start timing now.
    #[inline]
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Elapsed wall-clock time.
    #[inline]
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Record the elapsed time into histogram `name` (microseconds) and
    /// return it as float microseconds.
    #[inline]
    pub fn record(&self, name: &'static str) -> f64 {
        let d = self.start.elapsed();
        crate::record(name, duration_to_micros(d));
        d.as_secs_f64() * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn current_stack() -> Vec<&'static str> {
        SPAN_STACK.with(|s| s.borrow().clone())
    }

    #[test]
    fn a_span_holds_its_name_on_the_stack_until_dropped() {
        let before = current_stack();
        {
            let _s = Span::enter("probe");
            assert_eq!(current_stack().last(), Some(&"probe"));
        }
        assert_eq!(current_stack(), before);
    }

    #[test]
    fn stopwatch_measures_without_telemetry() {
        let sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(2));
        assert!(sw.elapsed() >= Duration::from_millis(2));
        // record() feeds the histogram and returns the measurement
        assert!(sw.record("test.sw_us") >= 2_000.0);
    }

    #[test]
    fn micros_conversion_saturates() {
        assert_eq!(duration_to_micros(Duration::from_micros(5)), 5);
        assert_eq!(duration_to_micros(Duration::MAX), u64::MAX);
    }
}
