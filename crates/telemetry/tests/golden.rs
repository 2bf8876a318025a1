//! Golden JSON lines: the exact bytes the JSON-lines sink writes for each
//! event type, `seq` stamp included.

#![allow(clippy::unwrap_used)]

use alss_telemetry::{Event, HistogramSummary, JsonLinesSink, Sink, Snapshot};
use serde_json::Value;

/// Write `events` through a fresh JSON-lines sink and read the lines back.
fn lines(events: &[Event]) -> Vec<String> {
    let path = std::env::temp_dir().join(format!("alss-golden-{}.jsonl", std::process::id()));
    let sink = JsonLinesSink::create(&path).unwrap();
    for e in events {
        sink.emit(e);
    }
    sink.flush();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    text.lines().map(String::from).collect()
}

#[test]
fn each_event_type_renders_to_its_pinned_line() {
    let events = [
        Event::Span {
            name: "decompose",
            path: "encode.query/decompose".to_string(),
            micros: 12.5,
            thread: "main".to_string(),
        },
        Event::Point {
            name: "train.epoch",
            fields: vec![
                ("epoch".to_string(), Value::UInt(3)),
                ("delta".to_string(), Value::Int(-4)),
                ("loss".to_string(), Value::Float(0.1)),
                ("note".to_string(), Value::Str("ok".to_string())),
                ("grad_norm".to_string(), Value::Float(f64::NAN)),
            ],
        },
        Event::Point {
            name: "serve.request",
            fields: vec![],
        },
        Event::Progress {
            topic: "fig4".to_string(),
            message: "say \"hi\" \\ now\n\tdone\u{1}".to_string(),
        },
        Event::Snapshot(Snapshot {
            counters: vec![("matching.nodes_expanded".to_string(), 10234)],
            histograms: vec![(
                "span.matching.count_us".to_string(),
                HistogramSummary {
                    count: 96,
                    sum: 5120,
                    mean: 53.333333333333336,
                    p50: 48,
                    p95: 96,
                    p99: 96,
                    max: 101,
                },
            )],
        }),
    ];
    let expected = [
        r#"{"type":"span","name":"decompose","path":"encode.query/decompose","thread":"main","us":12.5,"seq":0}"#,
        r#"{"type":"event","name":"train.epoch","fields":{"epoch":3,"delta":-4,"loss":0.1,"note":"ok","grad_norm":null},"seq":1}"#,
        r#"{"type":"event","name":"serve.request","fields":{},"seq":2}"#,
        r#"{"type":"progress","topic":"fig4","message":"say \"hi\" \\ now\n\tdone\u0001","seq":3}"#,
        r#"{"type":"snapshot","counters":{"matching.nodes_expanded":10234},"histograms":{"span.matching.count_us":{"count":96,"sum":5120,"mean":53.333333333333336,"p50":48,"p95":96,"p99":96,"max":101}},"seq":4}"#,
    ];
    assert_eq!(lines(&events), expected);
}

#[test]
fn backspace_and_form_feed_take_their_short_escapes() {
    let e = Event::Progress {
        topic: "t".to_string(),
        message: "\u{8}\u{c}".to_string(),
    };
    assert_eq!(
        e.to_json(),
        r#"{"type":"progress","topic":"t","message":"\b\f"}"#
    );
}
