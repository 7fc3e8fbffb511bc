//! Degradation-ladder behaviour: property-tested hysteresis on the pure
//! state machine, plus end-to-end downshift-under-pressure / upshift-on-
//! recovery through a [`Router`] with injected latency faults.

use beamforming::grid::ImagingGrid;
use beamforming::iq::IqImage;
use beamforming::pipeline::{Beamformer, DelayAndSum, PlannedDas};
use proptest::prelude::*;
use serve::degrade::{LadderState, LadderTuning, Shift};
use serve::router::{Router, StreamSpec};
use serve::{BatchConfig, ChaosBeamformer, ChaosSchedule, DegradeConfig, ServeError, ServeResult};
use std::sync::Arc;
use std::time::Duration;
use ultrasound::{ChannelData, LinearArray};

/// Deterministic pseudo-random frame (cheap LCG — beamforming cost and
/// results only depend on the values being fixed, not physical).
fn synthetic_frame(array: &LinearArray, num_samples: usize, seed: u64) -> ChannelData {
    let mut data = ChannelData::zeros(num_samples, array.num_elements(), array.sampling_frequency());
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    for v in data.as_mut_slice() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *v = ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5;
    }
    data
}

fn small_spec(backend: &str) -> StreamSpec {
    let array = LinearArray::small_test_array();
    StreamSpec {
        grid: ImagingGrid::for_array(&array, 0.012, 0.008, 16, 8),
        array,
        sound_speed: 1540.0,
        backend: backend.into(),
    }
}

/// Factory for a two-rung ladder: `"slow"` is a DAS with a fixed injected
/// latency (machine-independent service time), `"das"` the plain planned
/// DAS fallback. Both compute bitwise-identical images.
fn two_rung_factory(
    delay: Duration,
) -> impl Fn(&StreamSpec) -> ServeResult<Arc<dyn Beamformer + Send + Sync>> + Send + Sync + 'static {
    move |spec: &StreamSpec| match spec.backend.as_str() {
        "slow" => Ok(Arc::new(ChaosBeamformer::new(
            PlannedDas::new(DelayAndSum::default()),
            ChaosSchedule::seeded(7).delay_one_in(1, delay),
        ))),
        "das" => Ok(Arc::new(PlannedDas::new(DelayAndSum::default()))),
        other => Err(ServeError::Engine(format!("unknown backend {other}"))),
    }
}

fn direct_das(spec: &StreamSpec, frame: &ChannelData) -> IqImage {
    DelayAndSum::default()
        .beamform(frame, &spec.array, &spec.grid, spec.sound_speed)
        .expect("direct DAS reference")
}

fn two_rung_ladder_config() -> DegradeConfig {
    DegradeConfig {
        window: 4,
        cooldown_windows: 1,
        downshift_expiry_rate: 0.5,
        upshift_expiry_rate: 0.1,
        ..DegradeConfig::with_ladder(vec!["slow".into(), "das".into()])
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The anti-oscillation guarantee: over arbitrary load/quality traces,
    /// two consecutive shifts of one stream are always at least
    /// `cooldown_windows` observation windows apart, the rung never leaves
    /// the ladder, and a quality-poisoned window never downshifts.
    #[test]
    fn ladder_shifts_respect_cooldown_and_bounds(
        num_rungs in 2usize..=5,
        cooldown in 0u32..=3,
        bar_windows in 0u32..=3,
        trace in collection::vec((0u32..=4, 0u32..=1), 1..48),
    ) {
        let tuning = LadderTuning {
            window: 4,
            cooldown_windows: cooldown,
            downshift_expiry_rate: 0.5,
            upshift_expiry_rate: 0.1,
            sqnr_floor_db: Some(10.0),
            quality_bar_windows: bar_windows,
        };
        let mut state = LadderState::new(num_rungs);
        let mut shift_windows: Vec<u64> = Vec::new();
        for (expired_per_window, bad_quality) in trace {
            for j in 0..4u32 {
                let full = state.record(j < expired_per_window, &tuning);
                prop_assert_eq!(full, j == 3, "the window must fill exactly at its configured length");
            }
            let window_sqnr = if bad_quality == 1 { f64::NAN } else { 40.0 };
            let shift = state.end_window(&tuning, window_sqnr);
            prop_assert!(state.rung() < num_rungs, "rung {} escaped a {}-rung ladder", state.rung(), num_rungs);
            prop_assert!(
                !(bad_quality == 1 && shift == Some(Shift::Down)),
                "a quality-poisoned window must never downshift deeper"
            );
            if shift.is_some() {
                shift_windows.push(state.windows_closed());
            }
        }
        for pair in shift_windows.windows(2) {
            prop_assert!(
                pair[1] - pair[0] >= u64::from(cooldown),
                "shifts at windows {} and {} violate the {}-window cooldown",
                pair[0], pair[1], cooldown
            );
        }
    }
}

#[test]
fn ladder_downshifts_under_deadline_pressure_and_recovers() {
    // Rung 0 serves at a fixed injected 5 ms per call; under 2 ms deadlines
    // and a back-to-back burst the queue expires en masse, so the stream
    // must fall back to the fast rung — and climb back once pressure clears.
    let router = Router::with_degrade(
        BatchConfig { max_batch: 2, linger: Duration::ZERO, queue_capacity: 64, ..BatchConfig::default() },
        two_rung_factory(Duration::from_millis(5)),
        two_rung_ladder_config(),
    )
    .unwrap();
    let spec = small_spec("slow");

    // Phase 1 — saturate. Every handle must resolve (completed or expired):
    // no request may be lost to the degradation machinery.
    let burst: Vec<_> = (0..16)
        .map(|i| {
            let frame = synthetic_frame(&spec.array, 256, 101 + i as u64);
            router.submit_with_deadline(&spec, frame, Duration::from_millis(2)).unwrap()
        })
        .collect();
    let mut expired = 0;
    for handle in burst {
        match handle.wait() {
            Ok(_) => {}
            Err(ServeError::DeadlineExceeded) => expired += 1,
            Err(other) => panic!("unexpected failure under pressure: {other}"),
        }
    }
    assert!(expired >= 4, "the burst must actually blow deadlines, got {expired} expiries");

    let mid = router.stats();
    assert_eq!(mid.degrade.len(), 1, "the managed stream must be tracked");
    assert!(mid.downshifts_total() >= 1, "deadline pressure must downshift the stream");
    assert!(mid.sheds_total() >= 4, "expired requests must be counted as sheds");
    assert_eq!(mid.degrade[0].rung, 1, "the stream must sit at the fallback rung after the burst");
    assert_eq!(mid.degrade[0].backend, "das");

    // Phase 2 — pressure gone: sequential, deadline-free traffic. Windows
    // now close with a zero expiry rate, so the stream must upshift back to
    // full quality within a few windows.
    for i in 0..12u64 {
        let frame = synthetic_frame(&spec.array, 256, 201 + i);
        router.submit(&spec, frame).unwrap().wait().expect("unpressured traffic must complete");
    }
    let stats = router.shutdown();
    assert!(stats.upshifts_total() >= 1, "recovered load must upshift the stream");
    assert_eq!(stats.degrade[0].rung, 0, "the stream must return to full quality");
    assert_eq!(stats.degrade[0].backend, "slow");
    assert!(stats.degrade[0].windows >= 2);
}

/// Serves `waves` saturating waves of 8 deadline-bound frames on `spec`,
/// one wave at a time, and returns how many were served. Every handle must
/// resolve, served images must equal direct inference, and the only failure
/// allowed is a deadline expiry.
fn serve_waves(router: &Router, spec: &StreamSpec, waves: u64) -> usize {
    let mut served = 0;
    for wave in 0..waves {
        let frames: Vec<_> = (0..8).map(|i| synthetic_frame(&spec.array, 256, 300 + 8 * wave + i)).collect();
        let handles: Vec<_> = frames
            .iter()
            .map(|frame| router.submit_with_deadline(spec, frame.clone(), Duration::from_millis(15)).unwrap())
            .collect();
        for (frame, handle) in frames.iter().zip(handles) {
            match handle.wait() {
                Ok(image) => {
                    assert_eq!(image, direct_das(spec, frame), "degradation must never corrupt results");
                    served += 1;
                }
                Err(ServeError::DeadlineExceeded) => {}
                Err(other) => panic!("unexpected failure under pressure: {other}"),
            }
        }
    }
    served
}

#[test]
fn ladder_serves_more_of_a_pressured_stream_than_no_ladder() {
    // The slow rung takes 30 ms per call against 15 ms deadlines, so
    // without a ladder each wave sheds everything behind its first batch.
    // With the ladder, expiries move the stream to the fast rung and later
    // waves are served.
    let config =
        BatchConfig { max_batch: 2, linger: Duration::ZERO, queue_capacity: 64, ..BatchConfig::default() };
    let spec = small_spec("slow");
    let off = Router::new(config.clone(), two_rung_factory(Duration::from_millis(30)));
    let served_off = serve_waves(&off, &spec, 4);
    let off_stats = off.shutdown();
    assert!(off_stats.degrade.is_empty(), "without a ladder no stream is managed");
    assert_eq!(off_stats.downshifts_total(), 0, "without a ladder nothing may shift");

    let on =
        Router::with_degrade(config, two_rung_factory(Duration::from_millis(30)), two_rung_ladder_config()).unwrap();
    let served_on = serve_waves(&on, &spec, 4);
    let on_stats = on.shutdown();
    assert!(on_stats.downshifts_total() >= 1, "the pressured ladder run must actually downshift");
    assert!(served_on > served_off, "the ladder must improve availability: on {served_on} vs off {served_off} of 32");
}

#[test]
fn calibrated_ladder_is_bitwise_unchanged_for_unmanaged_and_rung0_traffic() {
    // Acceptance gate of the quality-calibration subsystem: a DegradeConfig
    // derived from measured per-rung quality (rather than hand-picked
    // constants) must still be invisible for full-quality traffic — the
    // measured ordering picks "slow" as the head, and rung-0 responses stay
    // bitwise identical to direct inference.
    let measurement = |backend: &str, quality_score: f64, sqnr_db: f64| serve::RungMeasurement {
        backend: backend.into(),
        quality_score,
        sqnr_db,
    };
    let calibrated = DegradeConfig::from_quality_profile(&[
        measurement("das", 0.72, 41.0),
        measurement("slow", 0.95, f64::INFINITY),
    ])
    .unwrap();
    assert_eq!(calibrated.ladders, vec![vec!["slow".to_string(), "das".to_string()]]);
    assert_eq!(calibrated.sqnr_floor_db, Some(38.0));

    let router = Router::with_degrade(
        BatchConfig { max_batch: 2, linger: Duration::ZERO, ..BatchConfig::default() },
        two_rung_factory(Duration::from_micros(200)),
        calibrated,
    )
    .unwrap();
    let managed = small_spec("slow");
    let unmanaged = small_spec("das");
    let frames: Vec<ChannelData> = (0..8).map(|i| synthetic_frame(&managed.array, 256, 401 + i)).collect();
    for frame in &frames {
        let image = router.submit(&managed, frame.clone()).unwrap().wait().unwrap();
        assert_eq!(image, direct_das(&managed, frame), "calibrated rung-0 responses must be bitwise identical");
        let image = router.submit(&unmanaged, frame.clone()).unwrap().wait().unwrap();
        assert_eq!(image, direct_das(&unmanaged, frame), "unmanaged responses must be bitwise identical");
    }
    let stats = router.shutdown();
    assert_eq!(stats.degrade[0].rung, 0, "no pressure, no movement");
    assert_eq!(stats.downshifts_total() + stats.upshifts_total(), 0);
}

#[test]
fn unpressured_streams_stay_at_full_quality_and_bitwise_identical() {
    // With no deadline pressure the ladder must never move, and every
    // response must be bitwise identical to direct inference — degradation
    // must be invisible until it actually engages.
    let router = Router::with_degrade(
        BatchConfig { max_batch: 2, linger: Duration::ZERO, ..BatchConfig::default() },
        two_rung_factory(Duration::from_micros(200)),
        two_rung_ladder_config(),
    )
    .unwrap();
    let managed = small_spec("slow");
    let unmanaged = small_spec("das");

    let frames: Vec<ChannelData> = (0..10).map(|i| synthetic_frame(&managed.array, 256, 301 + i)).collect();
    for frame in &frames {
        let image = router.submit(&managed, frame.clone()).unwrap().wait().unwrap();
        assert_eq!(image, direct_das(&managed, frame), "rung-0 responses must be bitwise identical");
        let image = router.submit(&unmanaged, frame.clone()).unwrap().wait().unwrap();
        assert_eq!(image, direct_das(&unmanaged, frame), "unmanaged responses must be bitwise identical");
    }

    let stats = router.shutdown();
    assert_eq!(stats.degrade.len(), 1, "only the ladder-headed stream is managed");
    assert_eq!(stats.degrade[0].rung, 0);
    assert_eq!(stats.downshifts_total() + stats.upshifts_total() + stats.sheds_total(), 0);
    assert_eq!(stats.server.completed, 20);
}
