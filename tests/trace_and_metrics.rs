//! Observability integration tests: tracing protocol phases and metric
//! accounting through the facade.

use awr::core::{RpConfig, RpHarness, RpServer};
use awr::sim::{TraceKind, UniformLatency};
use awr::types::{Ratio, ServerId};

#[test]
fn trace_shows_protocol_phases() {
    let cfg = RpConfig::uniform(5, 1);
    let mut h = RpHarness::build(cfg, 1, 3, UniformLatency::new(1_000, 40_000));
    h.world.enable_trace(10_000);
    h.transfer_and_wait(ServerId(1), ServerId(0), Ratio::dec("0.2"))
        .unwrap();
    h.settle();
    let trace = h.world.trace().expect("trace enabled");
    // The transfer produced RB deliveries ("T") and acknowledgments.
    assert!(trace.deliveries_of("T") >= 4, "{}", trace.render());
    assert!(trace.deliveries_of("T_Ack") >= 3);
    // Rendering is line-oriented and names actors.
    let rendered = trace.render();
    assert!(rendered.contains("→"));
    assert!(rendered.lines().count() as u64 <= trace.total_recorded());
}

#[test]
fn trace_records_crashes_and_drops() {
    let cfg = RpConfig::uniform(5, 1);
    let mut h = RpHarness::build(cfg, 1, 4, UniformLatency::new(1_000, 40_000));
    h.world.enable_trace(10_000);
    h.transfer_async(ServerId(1), ServerId(0), Ratio::dec("0.1"))
        .unwrap();
    h.world
        .schedule_crash(h.server_actor(ServerId(4)), awr::sim::Time(1));
    h.settle();
    let trace = h.world.trace().unwrap();
    let crashed = trace
        .records()
        .any(|r| matches!(r.kind, TraceKind::Crash { .. }));
    assert!(crashed, "crash must be traced");
    let dropped = trace
        .records()
        .any(|r| matches!(r.kind, TraceKind::DropCrashed { .. }));
    assert!(
        dropped,
        "messages to the crashed server must be traced as drops"
    );
}

#[test]
fn metrics_account_for_each_message_kind() {
    let cfg = RpConfig::uniform(7, 2);
    let mut h = RpHarness::build(cfg, 1, 5, UniformLatency::new(1_000, 40_000));
    h.transfer_and_wait(ServerId(1), ServerId(0), Ratio::dec("0.1"))
        .unwrap();
    h.read_changes(0, ServerId(0)).unwrap();
    h.settle();
    let m = h.world.metrics();
    assert!(m.sent_of_kind("T") > 0);
    assert!(m.sent_of_kind("T_Ack") > 0);
    // One of each read_changes kind per server: every server replies to
    // the RC and acks the WC, though the reader waits for only f + 1 and
    // n − f of them.
    for kind in ["RC", "RC_Ack", "WC", "WC_Ack"] {
        assert_eq!(m.sent_of_kind(kind), 7, "{kind}");
    }
    assert!(m.messages_delivered <= m.messages_sent);
    assert!(m.summary().contains("delivered"));
    // Byte accounting covers every kind that was sent.
    assert!(m.bytes_sent > 0);
    assert!(m.summary().contains("bytes="));
    for (kind, count) in &m.sent_by_kind {
        assert!(
            m.bytes_of_kind(kind) >= *count,
            "kind {kind} sent {count} messages but {} bytes",
            m.bytes_of_kind(kind)
        );
    }
    let total: u64 = m.bytes_by_kind.values().sum();
    assert_eq!(total, m.bytes_sent, "per-kind bytes must sum to the total");
}

#[test]
fn per_server_complete_log_matches_core_log() {
    let cfg = RpConfig::uniform(5, 1);
    let mut h = RpHarness::build(cfg, 1, 6, UniformLatency::new(1_000, 40_000));
    h.transfer_and_wait(ServerId(2), ServerId(0), Ratio::dec("0.1"))
        .unwrap();
    // Null transfer also lands in the complete log.
    h.transfer_and_wait(ServerId(2), ServerId(0), Ratio::dec("0.9"))
        .unwrap();
    h.settle();
    let srv = h
        .world
        .actor::<RpServer>(h.server_actor(ServerId(2)))
        .unwrap();
    assert_eq!(srv.complete_log.len(), 2);
    assert!(srv.complete_log[0].is_effective());
    assert!(!srv.complete_log[1].is_effective());
    assert_eq!(srv.completed().len(), 2);
}
