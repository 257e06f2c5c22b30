//! Span self-time arithmetic: duration minus what the children cover.

use std::time::{Duration, Instant};

use ditto_benchmark::span::{self_times, Span, Spans};

fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name: "s",
        layer: "bench",
        start_ns,
        end_ns,
        parent,
        request: None,
    }
}

#[test]
fn self_time_subtracts_disjoint_children() {
    let spans = [
        span(0, 100, None),
        span(10, 30, Some(0)),
        span(50, 90, Some(0)),
    ];
    assert_eq!(self_times(&spans), vec![40, 20, 40]);
}

#[test]
fn overlapping_children_are_counted_once() {
    // Frames in flight together under one timed region.
    let spans = [
        span(0, 100, None),
        span(10, 60, Some(0)),
        span(20, 70, Some(0)),
        span(65, 80, Some(0)),
        span(30, 40, Some(1)),
    ];
    assert_eq!(self_times(&spans), vec![30, 40, 50, 15, 10]);
}

#[test]
fn children_are_clipped_to_their_parent() {
    let spans = [
        span(100, 200, None),
        span(50, 120, Some(0)),
        span(190, 400, Some(0)),
    ];
    assert_eq!(self_times(&spans)[0], 70);
}

#[test]
fn recorder_nests_scopes_and_sums_self_time_by_layer() {
    let mut spans = Spans::enabled();
    let (_, outer) = spans.scope("bench", "outer", None, |spans| {
        spans.scope("hls-sim", "inner", Some(7), |_| {
            std::thread::sleep(Duration::from_millis(5))
        });
        let start = Instant::now();
        spans.record(
            "wire",
            "stamped",
            Some(8),
            start,
            start + Duration::from_millis(1),
        );
    });
    let recorded = spans.spans();
    assert_eq!(recorded.len(), 3);
    assert_eq!(recorded[0].parent, None);
    assert_eq!(recorded[1].parent, Some(0));
    assert_eq!(recorded[2].parent, Some(0));
    assert_eq!(recorded[1].request, Some(7));
    assert!(outer >= Duration::from_millis(5));
    let by_layer = spans.self_ns_by_layer();
    let total: u64 = by_layer.values().sum();
    let outer_ns = recorded[0].end_ns - recorded[0].start_ns;
    assert!(
        total <= outer_ns + 1_000_000,
        "self times partition the root (plus the stamped millisecond)"
    );
    assert!(by_layer["hls-sim"] >= 5_000_000);
    let json = spans.chrome_trace_json();
    assert!(json.contains("\"name\": \"inner\"") && json.contains("\"request\": 7"));
}

#[test]
fn disabled_recorder_times_but_stores_nothing() {
    let mut spans = Spans::disabled();
    let (value, took) = spans.scope("bench", "x", None, |_| {
        std::thread::sleep(Duration::from_millis(2));
        42
    });
    assert_eq!(value, 42);
    assert!(took >= Duration::from_millis(2));
    assert!(spans.spans().is_empty());
}
