//! Integration tests for the lines written to the global sink installed
//! by `test_support::with_capture`, and for the metrics table behind them.
#![allow(clippy::unwrap_used, clippy::float_cmp)]

use alss_telemetry::test_support::{serialized, with_capture};
use alss_telemetry::{add, event, progress, record, Event, Span, Stopwatch};
use serde_json::Value;

fn span_events(events: &[Event]) -> Vec<(String, String)> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::Span { name, path, .. } => Some((name.to_string(), path.clone())),
            _ => None,
        })
        .collect()
}

#[test]
fn spans_nest_and_report_their_path() {
    let (_, events) = with_capture(|| {
        let _outer = Span::enter("outer");
        {
            let _inner = Span::enter("inner");
        }
    });
    let spans = span_events(&events);
    // inner closes first and sees the full ancestry
    assert_eq!(spans[0], ("inner".to_string(), "outer/inner".to_string()));
    assert_eq!(spans[1], ("outer".to_string(), "outer".to_string()));
}

#[test]
fn a_span_opened_before_the_sink_reports_its_full_path() {
    // The stack is kept with no sink installed, so a sink installed while
    // spans are open still sees their whole ancestry.
    let (outer, inner) = serialized(|| (Span::enter("outer"), Span::enter("inner")));
    let (_, events) = with_capture(move || {
        drop(inner);
        drop(outer);
    });
    let spans = span_events(&events);
    assert_eq!(spans[0], ("inner".to_string(), "outer/inner".to_string()));
    assert_eq!(spans[1], ("outer".to_string(), "outer".to_string()));
}

#[test]
fn sibling_spans_do_not_inherit_each_other() {
    let (_, events) = with_capture(|| {
        {
            let _a = Span::enter("a");
        }
        {
            let _b = Span::enter("b");
        }
    });
    let spans = span_events(&events);
    assert_eq!(spans[0].1, "a");
    assert_eq!(spans[1].1, "b");
}

#[test]
fn span_stacks_are_thread_isolated() {
    let (_, events) = with_capture(|| {
        let _outer = Span::enter("main-outer");
        std::thread::Builder::new()
            .name("worker".to_string())
            .spawn(|| {
                let _w = Span::enter("worker-span");
            })
            .unwrap()
            .join()
            .unwrap();
    });
    for e in &events {
        if let Event::Span {
            name, path, thread, ..
        } = e
        {
            if *name == "worker-span" {
                // the worker's path must NOT include the main thread's
                // open span
                assert_eq!(path, "worker-span");
                assert_eq!(thread, "worker");
            }
        }
    }
    assert_eq!(span_events(&events).len(), 2);
}

#[test]
fn span_durations_feed_a_histogram() {
    let (_, events) = with_capture(|| {
        let _s = Span::enter("hist-probe");
        std::thread::sleep(std::time::Duration::from_micros(20));
    });
    let us = events
        .iter()
        .find_map(|e| match e {
            Event::Span { name, micros, .. } if *name == "hist-probe" => Some(*micros),
            _ => None,
        })
        .expect("span line");
    let snap = alss_telemetry::snapshot();
    let h = snap.histogram("span.hist-probe_us").expect("histogram");
    assert_eq!(h.count, 1);
    // One `elapsed()` read feeds both: the histogram holds the line's `us`
    // truncated to whole microseconds (give or take float rounding).
    let sum = h.sum as f64;
    assert!(us - 1.0 < sum && sum <= us + 1e-6, "sum {sum}, us {us}");
}

#[test]
fn point_events_carry_fields() {
    let (_, events) = with_capture(|| {
        event(
            "train.epoch",
            &[
                ("epoch", Value::UInt(1)),
                ("loss", Value::Float(0.25)),
                ("note", Value::Str("ok".to_string())),
            ],
        );
    });
    let found = events.iter().any(|e| match e {
        Event::Point { name, fields } => {
            *name == "train.epoch"
                && fields
                    .iter()
                    .any(|(k, v)| k == "loss" && *v == Value::Float(0.25))
        }
        _ => false,
    });
    assert!(found, "epoch event not captured: {events:?}");
}

#[test]
fn progress_goes_through_the_sink() {
    let (_, events) = with_capture(|| {
        progress("test-bin", "phase one done");
    });
    assert!(events.iter().any(|e| matches!(
        e,
        Event::Progress { topic, message }
            if topic == "test-bin" && message == "phase one done"
    )));
}

#[test]
fn stopwatch_records_into_named_histogram() {
    let (_, _) = with_capture(|| {
        let sw = Stopwatch::start();
        let us = sw.record("gated.sw_us");
        assert!(us >= 0.0);
    });
    let snap = alss_telemetry::snapshot();
    assert!(snap.histogram("gated.sw_us").map(|h| h.count) >= Some(1));
}

#[test]
fn add_and_record_route_to_the_table() {
    let (_, _) = with_capture(|| {
        add("gated.route", 2);
        add("gated.route", 3);
        record("gated.route_us", 7);
    });
    let snap = alss_telemetry::snapshot();
    assert_eq!(snap.counter("gated.route"), Some(5));
    assert_eq!(snap.histogram("gated.route_us").map(|h| h.max), Some(7));
}
