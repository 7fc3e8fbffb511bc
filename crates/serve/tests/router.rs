//! Router behaviour: heterogeneous streams through one queue with bitwise
//! identity to serial inference, lazy engine spin-up, per-engine stats,
//! deadline timeouts and factory failures.

use beamforming::grid::ImagingGrid;
use beamforming::iq::IqImage;
use beamforming::pipeline::{Beamformer, DelayAndSum, Mvdr, PlannedDas, PlannedMvdr};
use beamforming::plan::FrameFormat;
use serve::router::{Router, StreamSpec};
use serve::{BatchConfig, ServeError, ServeResult, TrySubmitError};
use std::sync::atomic::{AtomicUsize, Ordering};
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

fn classical_factory(
    spawned: Arc<AtomicUsize>,
) -> impl Fn(&StreamSpec) -> ServeResult<Arc<dyn Beamformer + Send + Sync>> + Send + Sync + 'static {
    move |spec: &StreamSpec| {
        spawned.fetch_add(1, Ordering::SeqCst);
        match spec.backend.as_str() {
            "das" => Ok(Arc::new(PlannedDas::new(DelayAndSum::default()))),
            "mvdr" => Ok(Arc::new(PlannedMvdr::new(Mvdr::fast()))),
            other => Err(ServeError::Engine(format!("unknown backend {other}"))),
        }
    }
}

#[test]
fn router_serves_heterogeneous_streams_bitwise_identical_to_serial() {
    // Three stream shapes: two probes × two grids × two backends.
    let probe_a = LinearArray::small_test_array();
    let probe_b = LinearArray::builder().num_elements(16).build().unwrap();
    let spec_das_a = StreamSpec {
        array: probe_a.clone(),
        grid: ImagingGrid::for_array(&probe_a, 0.012, 0.008, 16, 8),
        sound_speed: 1540.0,
        backend: "das".into(),
    };
    let spec_das_b = StreamSpec {
        array: probe_b.clone(),
        grid: ImagingGrid::for_array(&probe_b, 0.010, 0.006, 12, 6),
        sound_speed: 1500.0,
        backend: "das".into(),
    };
    let spec_mvdr = StreamSpec {
        array: probe_a.clone(),
        grid: ImagingGrid::for_array(&probe_a, 0.012, 0.008, 8, 6),
        sound_speed: 1540.0,
        backend: "mvdr".into(),
    };
    let specs = [&spec_das_a, &spec_das_b, &spec_mvdr];
    // Interleave the three streams frame by frame.
    let stream: Vec<(&StreamSpec, ChannelData)> = (0..18)
        .map(|i| {
            let spec = specs[i % specs.len()];
            (spec, synthetic_frame(&spec.array, 256 + 64 * (i % 2), 7 + i as u64))
        })
        .collect();

    // Serial reference through the *direct* (unplanned) beamformers.
    let reference: Vec<IqImage> = stream
        .iter()
        .map(|(spec, frame)| {
            let direct: Box<dyn Beamformer> = match spec.backend.as_str() {
                "das" => Box::new(DelayAndSum::default()),
                _ => Box::new(Mvdr::fast()),
            };
            direct.beamform(frame, &spec.array, &spec.grid, spec.sound_speed).unwrap()
        })
        .collect();

    let spawned = Arc::new(AtomicUsize::new(0));
    let router = Router::new(
        BatchConfig { max_batch: 5, linger: Duration::from_micros(300), ..BatchConfig::default() },
        classical_factory(Arc::clone(&spawned)),
    );
    assert_eq!(router.num_engines(), 0, "engines must not spin up before traffic");
    let handles: Vec<_> = stream.iter().map(|(spec, frame)| router.submit(spec, frame.clone()).unwrap()).collect();
    let served: Vec<IqImage> = handles.into_iter().map(|h| h.wait().unwrap()).collect();

    for (i, (serial, routed)) in reference.iter().zip(&served).enumerate() {
        assert_eq!(serial, routed, "routed frame {i} differs from serial inference");
    }

    assert_eq!(router.num_engines(), 3, "one engine per stream shape");
    assert_eq!(spawned.load(Ordering::SeqCst), 3, "factory must run once per shape");
    let stats = router.shutdown();
    assert_eq!(stats.server.completed, 18);
    assert_eq!(stats.server.deadline_expired, 0);
    assert_eq!(stats.engines.len(), 3);
    let per_engine: u64 = stats.engines.iter().map(|e| e.requests).sum();
    assert_eq!(per_engine, 18, "every request must be attributed to exactly one engine");
    for engine in &stats.engines {
        assert_eq!(engine.requests, 6, "{}", engine.spec.label());
        assert_eq!(engine.latency.count(), 6, "per-engine latency must record each frame");
        assert!(engine.batches >= 1);
        let cache = engine.plan_cache.expect("planned backends expose cache stats");
        // Each stream interleaves two frame formats: both plans stay warm in
        // the multi-slot cache, so after the two cold builds everything hits.
        assert_eq!(cache.misses, 2, "{}", engine.spec.label());
        assert_eq!(cache.evictions, 0);
        assert_eq!(cache.hits + cache.misses, 6);
    }
    let total = stats.plan_cache_total();
    assert_eq!(total.misses, 6);
    assert_eq!(total.entries, 6);
}

#[test]
fn router_spins_engines_up_lazily_per_stream() {
    let array = LinearArray::small_test_array();
    let make_spec = |rows: usize| StreamSpec {
        array: array.clone(),
        grid: ImagingGrid::for_array(&array, 0.012, 0.008, rows, 8),
        sound_speed: 1540.0,
        backend: "das".into(),
    };
    let spawned = Arc::new(AtomicUsize::new(0));
    let router = Router::new(
        BatchConfig { linger: Duration::ZERO, ..BatchConfig::default() },
        classical_factory(Arc::clone(&spawned)),
    );
    let spec_a = make_spec(16);
    // Several frames of one stream: exactly one spin-up.
    for i in 0..3 {
        router.submit(&spec_a, synthetic_frame(&array, 128, i)).unwrap().wait().unwrap();
        assert_eq!(router.num_engines(), 1);
    }
    assert_eq!(spawned.load(Ordering::SeqCst), 1, "repeat traffic must reuse the engine");
    // First frame of a second shape spins up the second engine.
    let spec_b = make_spec(24);
    router.submit(&spec_b, synthetic_frame(&array, 128, 9)).unwrap().wait().unwrap();
    assert_eq!(router.num_engines(), 2);
    assert_eq!(spawned.load(Ordering::SeqCst), 2);
    // warm() spins up ahead of traffic and is idempotent.
    let spec_c = make_spec(32);
    let format = FrameFormat { num_samples: 128, sampling_frequency: array.sampling_frequency(), start_time: 0.0 };
    router.warm(&spec_c, &format).unwrap();
    router.warm(&spec_c, &format).unwrap();
    assert_eq!(router.num_engines(), 3);
    assert_eq!(spawned.load(Ordering::SeqCst), 3);
    let stats = router.shutdown();
    let warmed = &stats.engines[2];
    assert_eq!(warmed.requests, 0);
    assert_eq!(warmed.plan_cache.unwrap().misses, 1, "warm must build the plan ahead of traffic");
}

#[test]
fn router_surfaces_factory_errors_per_request() {
    let array = LinearArray::small_test_array();
    let good = StreamSpec {
        array: array.clone(),
        grid: ImagingGrid::for_array(&array, 0.012, 0.008, 8, 8),
        sound_speed: 1540.0,
        backend: "das".into(),
    };
    let bad = StreamSpec { backend: "warp-drive".into(), ..good.clone() };
    let router = Router::new(
        BatchConfig { max_batch: 4, linger: Duration::from_micros(200), ..BatchConfig::default() },
        classical_factory(Arc::new(AtomicUsize::new(0))),
    );
    let ok = router.submit(&good, synthetic_frame(&array, 128, 1)).unwrap();
    let doomed = router.submit(&bad, synthetic_frame(&array, 128, 2)).unwrap();
    assert!(ok.wait().is_ok(), "the good stream must not be poisoned by the bad one");
    match doomed.wait() {
        Err(ServeError::Engine(reason)) => assert!(reason.contains("warp-drive"), "{reason}"),
        other => panic!("expected factory error, got {other:?}"),
    }
    let stats = router.shutdown();
    assert_eq!(stats.engines.len(), 1, "a failed factory must not register an engine");
}

#[test]
fn router_deadline_expires_stale_requests_and_serves_fresh_ones() {
    let array = LinearArray::small_test_array();
    let spec = StreamSpec {
        array: array.clone(),
        grid: ImagingGrid::for_array(&array, 0.012, 0.008, 32, 16),
        sound_speed: 1540.0,
        backend: "das".into(),
    };
    let router = Router::new(
        // One worker, no linger: the first frame occupies the worker while
        // the rest queue behind it.
        BatchConfig { max_batch: 1, linger: Duration::ZERO, queue_capacity: 64, ..BatchConfig::default() },
        classical_factory(Arc::new(AtomicUsize::new(0))),
    );
    let plug = router.submit(&spec, synthetic_frame(&array, 4096, 1)).unwrap();
    // Queued behind the busy worker with an immediately-expiring deadline.
    let doomed = router.submit_with_deadline(&spec, synthetic_frame(&array, 4096, 2), Duration::ZERO).unwrap();
    let survivor = router.submit(&spec, synthetic_frame(&array, 4096, 3)).unwrap();
    assert!(plug.wait().is_ok());
    assert_eq!(doomed.wait(), Err(ServeError::DeadlineExceeded));
    assert!(survivor.wait().is_ok());
    let stats = router.shutdown();
    assert_eq!(stats.server.deadline_expired, 1);
    assert_eq!(stats.server.completed, 3);
    let engine = &stats.engines[0];
    assert_eq!(engine.requests, 2, "the expired frame must never reach the engine");
}

#[test]
fn router_try_submit_sheds_load_with_the_frame_returned() {
    let array = LinearArray::small_test_array();
    let spec = StreamSpec {
        array: array.clone(),
        grid: ImagingGrid::for_array(&array, 0.012, 0.008, 8, 8),
        sound_speed: 1540.0,
        backend: "das".into(),
    };
    assert_eq!(spec.label(), "das/32ch/8x8");
    // A queue of one and a slow first frame: the second try_submit while the
    // queue is occupied must return the frame for failover, not drop it.
    let router = Router::new(
        BatchConfig { max_batch: 1, linger: Duration::ZERO, queue_capacity: 1, ..BatchConfig::default() },
        classical_factory(Arc::new(AtomicUsize::new(0))),
    );
    let frame = synthetic_frame(&array, 8192, 5);
    let mut accepted = vec![router.submit(&spec, frame.clone()).unwrap()];
    let mut shed = 0;
    for seed in 0..64 {
        match router.try_submit(&spec, synthetic_frame(&array, 8192, seed)) {
            Ok(handle) => accepted.push(handle),
            Err(TrySubmitError::Full(returned)) => {
                assert_eq!(returned.num_samples(), 8192, "rejection must hand the frame back");
                shed += 1;
            }
            Err(other) => panic!("unexpected rejection {other}"),
        }
    }
    assert!(shed > 0, "a capacity-1 queue under a 64-frame burst must shed load");
    for handle in accepted {
        handle.wait().unwrap();
    }
    let stats = router.shutdown();
    assert_eq!(stats.server.completed + shed, 65);
}

#[test]
fn bad_frame_fails_alone_in_a_mixed_batch() {
    let array = LinearArray::small_test_array();
    let spec = StreamSpec {
        array: array.clone(),
        grid: ImagingGrid::for_array(&array, 0.014, 0.008, 8, 8),
        sound_speed: 1540.0,
        backend: "das".into(),
    };
    // max_batch 3 under a long linger: the three frames share one batch.
    let router = Router::new(
        BatchConfig { max_batch: 3, linger: Duration::from_secs(1), ..BatchConfig::default() },
        classical_factory(Arc::new(AtomicUsize::new(0))),
    );
    let good = ChannelData::zeros(256, array.num_elements(), array.sampling_frequency());
    let bad = ChannelData::zeros(256, 3, array.sampling_frequency()); // wrong channel count
    let handles: Vec<_> =
        [good.clone(), bad, good].into_iter().map(|frame| router.submit(&spec, frame).unwrap()).collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.wait()).collect();
    assert!(results[0].is_ok());
    assert!(matches!(results[1], Err(ServeError::Engine(_))), "{:?}", results[1]);
    assert!(results[2].is_ok());
    let stats = router.shutdown();
    assert_eq!(stats.server.batches, 1, "the bad frame must fail inside a mixed batch");
}
