//! Round-trip tests for the stats wire format: snapshot → serialize →
//! parse → equal. The bench agent protocol ships these structs across a
//! process boundary; a counter silently dropped by the encoder or decoder
//! would corrupt every scenario report, so equality is asserted on fully
//! populated values (every field non-zero / non-default) and on a live
//! router snapshot.

use beamforming::grid::ImagingGrid;
use beamforming::pipeline::{Beamformer, DelayAndSum, PlannedDas, QuantQualityStats};
use beamforming::plan::PlanCacheStats;
use serve::router::{Router, StreamSpec};
use serve::wire::{
    degrade_from_json, degrade_to_json, latency_from_json, latency_to_json, resilience_from_json,
    resilience_to_json, server_stats_from_json, server_stats_to_json,
};
use serve::{
    BatchConfig, DegradeStats, EngineStatsWire, LatencyHistogram, ResilienceStats, RouterStatsWire,
    ServeError, ServeResult, ServerStats,
};
use std::sync::Arc;
use std::time::Duration;
use ultrasound::{ChannelData, LinearArray};

/// A histogram with mass in many buckets, including the extremes.
fn populated_histogram(salt: u64) -> LatencyHistogram {
    let mut latency = LatencyHistogram::default();
    latency.record(Duration::ZERO);
    for i in 0..40u64 {
        latency.record(Duration::from_micros(salt + i * i * 37));
    }
    latency.record(Duration::from_secs(90));
    latency
}

/// Every field non-default, so a dropped field cannot hide behind zero.
fn populated_wire() -> RouterStatsWire {
    RouterStatsWire {
        server: ServerStats {
            submitted: 101,
            completed: 99,
            batches: 17,
            max_batch_observed: 8,
            deadline_expired: 3,
            latency: populated_histogram(11),
        },
        engines: vec![
            EngineStatsWire {
                stream: "das/32ch/16x8".into(),
                backend: "das".into(),
                requests: 61,
                batches: 9,
                panics: 1,
                latency: populated_histogram(23),
                plan_cache: Some(PlanCacheStats { hits: 60, misses: 1, evictions: 2, entries: 3, capacity: 4 }),
                quant_quality: None,
            },
            EngineStatsWire {
                stream: "tiny-vbf-fx16/32ch/16x8".into(),
                backend: "tiny-vbf-fx16".into(),
                requests: 38,
                batches: 8,
                panics: 0,
                latency: populated_histogram(47),
                plan_cache: None,
                quant_quality: Some(QuantQualityStats {
                    frames: 38,
                    signal_energy: 1234.5678901234567,
                    noise_energy: 0.000012345678912345678,
                }),
            },
        ],
        degrade: vec![DegradeStats {
            stream: "tiny-vbf-fp/32ch/16x8".into(),
            ladder: vec!["tiny-vbf-fp".into(), "tiny-vbf-fx24".into(), "tiny-vbf-fx16".into()],
            rung: 2,
            backend: "tiny-vbf-fx16".into(),
            downshifts: 5,
            upshifts: 3,
            sheds: 12,
            windows: 40,
        }],
        resilience: ResilienceStats {
            panics: 1,
            retries: 4,
            quarantined: 6,
            quarantines: 2,
            engines_evicted: 1,
        },
    }
}

#[test]
fn fully_populated_router_stats_round_trip() {
    let wire = populated_wire();
    let line = wire.to_json_line();
    assert!(!line.contains('\n'), "wire framing is one line");
    let parsed = RouterStatsWire::parse_line(&line).expect("parse");
    assert_eq!(parsed, wire);
    // A second encode of the parsed value is byte-identical (stable field
    // order), so diffs of persisted stats lines are meaningful.
    assert_eq!(parsed.to_json_line(), line);
}

#[test]
fn component_encoders_round_trip() {
    let wire = populated_wire();
    assert_eq!(latency_from_json(&latency_to_json(&wire.server.latency)).unwrap(), wire.server.latency);
    assert_eq!(server_stats_from_json(&server_stats_to_json(&wire.server)).unwrap(), wire.server);
    assert_eq!(resilience_from_json(&resilience_to_json(&wire.resilience)).unwrap(), wire.resilience);
    assert_eq!(degrade_from_json(&degrade_to_json(&wire.degrade[0])).unwrap(), wire.degrade[0]);
}

#[test]
fn quality_energies_round_trip_bit_exactly() {
    // f64 energies cross the boundary through decimal text; the shortest
    // round-trip formatting must recover the exact bits, or SQNR recomputed
    // on the harness side would drift from the server's.
    let original = populated_wire();
    let parsed = RouterStatsWire::parse_line(&original.to_json_line()).unwrap();
    let (a, b) = (
        original.engines[1].quant_quality.unwrap(),
        parsed.engines[1].quant_quality.unwrap(),
    );
    assert_eq!(a.signal_energy.to_bits(), b.signal_energy.to_bits());
    assert_eq!(a.noise_energy.to_bits(), b.noise_energy.to_bits());
    assert_eq!(a.sqnr_db().to_bits(), b.sqnr_db().to_bits());
}

#[test]
fn malformed_lines_are_rejected_not_zeroed() {
    let wire = populated_wire();
    let line = wire.to_json_line();
    // Remove one required counter: the parse must fail loudly.
    let broken = line.replacen("\"batches\":17,", "", 1);
    assert_ne!(broken, line, "test must actually strip the field");
    assert!(RouterStatsWire::parse_line(&broken).is_err());
    assert!(RouterStatsWire::parse_line("not json at all").is_err());
    assert!(RouterStatsWire::parse_line("{}").is_err());
    // Histogram with the wrong bucket count is rejected (resolution drift).
    let bad_hist = r#"{"buckets":[1,2,3],"total_micros":9}"#;
    assert!(latency_from_json(&runtime::json::Json::parse(bad_hist).unwrap()).is_err());
}

#[test]
fn live_router_snapshot_survives_the_wire() {
    let array = LinearArray::small_test_array();
    let grid = ImagingGrid::for_array(&array, 0.012, 0.008, 16, 8);
    let spec = StreamSpec { array: array.clone(), grid, sound_speed: 1540.0, backend: "das".into() };
    let factory = |spec: &StreamSpec| -> ServeResult<Arc<dyn Beamformer + Send + Sync>> {
        match spec.backend.as_str() {
            "das" => Ok(Arc::new(PlannedDas::new(DelayAndSum::default()))),
            other => Err(ServeError::Engine(format!("unknown backend {other}"))),
        }
    };
    let router = Router::new(BatchConfig { max_batch: 4, ..BatchConfig::default() }, factory);
    let frame = ChannelData::zeros(256, array.num_elements(), array.sampling_frequency());
    let handles: Vec<_> = (0..6).map(|_| router.submit(&spec, frame.clone()).expect("submit")).collect();
    for handle in handles {
        handle.wait().expect("serve");
    }
    let stats = router.shutdown();

    let wire = RouterStatsWire::from_stats(&stats);
    let parsed = RouterStatsWire::parse_line(&wire.to_json_line()).expect("parse");
    assert_eq!(parsed, wire);
    assert_eq!(parsed.server.completed, 6);
    assert_eq!(parsed.engines.len(), 1);
    assert_eq!(parsed.engines[0].requests, 6);
    assert_eq!(parsed.engines[0].backend, "das");
    assert_eq!(parsed.engines[0].latency.count(), 6);
    assert!(parsed.engines[0].plan_cache.is_some(), "planned DAS must ship its cache counters");
}
