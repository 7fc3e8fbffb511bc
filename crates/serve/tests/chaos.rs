//! Fault-injection suite: panics stay contained to their stream, repeated
//! failures quarantine the spec, transient factory errors recover through
//! retries, idle engines are TTL-evicted, and chaos that only delays (never
//! corrupts) preserves bitwise identity.

use beamforming::grid::ImagingGrid;
use beamforming::iq::IqImage;
use beamforming::pipeline::{Beamformer, DelayAndSum, PlannedDas};
use serve::router::{FaultPolicy, Router, StreamSpec};
use serve::{BatchConfig, ChaosBeamformer, ChaosFactory, ChaosFault, ChaosSchedule, ServeError, ServeResult};
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

fn small_spec(backend: &str) -> StreamSpec {
    let array = LinearArray::small_test_array();
    StreamSpec {
        grid: ImagingGrid::for_array(&array, 0.012, 0.008, 16, 8),
        array,
        sound_speed: 1540.0,
        backend: backend.into(),
    }
}

/// Serial reference through the direct (unplanned) DAS — the router must
/// match it bitwise whenever no fault corrupted the frame.
fn direct_das(spec: &StreamSpec, frame: &ChannelData) -> IqImage {
    DelayAndSum::default()
        .beamform(frame, &spec.array, &spec.grid, spec.sound_speed)
        .expect("direct DAS reference")
}

/// One-batch-at-a-time config so scripted chaos call indices line up with
/// submission order.
fn serial_config() -> BatchConfig {
    BatchConfig { max_batch: 1, linger: Duration::ZERO, ..BatchConfig::default() }
}

#[test]
fn engine_panic_fails_only_its_own_stream() {
    // Two streams share the queue: a chaos-wrapped DAS whose first two
    // beamform calls panic, and a healthy DAS. Scripted faults make the run
    // deterministic regardless of how requests coalesce into batches.
    let schedule = ChaosSchedule::scripted(vec![Some(ChaosFault::Panic), Some(ChaosFault::Panic), None, None]);
    let chaos = Arc::new(ChaosBeamformer::new(PlannedDas::new(DelayAndSum::default()), schedule));
    let chaos_engine = Arc::clone(&chaos);
    let factory = move |spec: &StreamSpec| -> ServeResult<Arc<dyn Beamformer + Send + Sync>> {
        match spec.backend.as_str() {
            "chaos-das" => Ok(Arc::clone(&chaos_engine) as Arc<dyn Beamformer + Send + Sync>),
            "das" => Ok(Arc::new(PlannedDas::new(DelayAndSum::default()))),
            other => Err(ServeError::Engine(format!("unknown backend {other}"))),
        }
    };
    let router = Router::new(
        BatchConfig { max_batch: 4, linger: Duration::from_micros(300), ..BatchConfig::default() },
        factory,
    );

    let chaos_spec = small_spec("chaos-das");
    let das_spec = small_spec("das");
    let frames: Vec<ChannelData> = (0..4).map(|i| synthetic_frame(&chaos_spec.array, 256, 11 + i)).collect();

    // Two rounds, each pairing one poisoned chaos frame with one healthy DAS
    // frame (they typically coalesce into the same dispatched batch). Waiting
    // between rounds keeps each poisoned frame in its own sub-batch, so the
    // scripted faults are consumed one per round even though a panicking
    // sub-batch aborts before later frames in it would beamform.
    for i in 0..2 {
        let poisoned = router.submit(&chaos_spec, frames[i].clone()).unwrap();
        let healthy = router.submit(&das_spec, frames[2 + i].clone()).unwrap();
        assert_eq!(
            poisoned.wait(),
            Err(ServeError::EnginePanicked { backend: "chaos-das".into() }),
            "a chaos panic must resolve (not strand) its own stream's requests"
        );
        let image = healthy.wait().expect("the healthy stream must be untouched by the panic");
        assert_eq!(image, direct_das(&das_spec, &frames[2 + i]), "healthy stream must stay bitwise identical");
    }

    // The chaos engine survives the contained panics: its next (clean)
    // scripted call serves normally and matches direct inference.
    let after = router.submit(&chaos_spec, frames[0].clone()).unwrap();
    assert_eq!(after.wait().expect("engine must survive contained panics"), direct_das(&chaos_spec, &frames[0]));

    let stats = router.shutdown();
    assert_eq!(stats.resilience.panics, 2, "each poisoned round is one contained dispatch panic");
    let engine = stats
        .engines
        .iter()
        .find(|e| e.spec.backend == "chaos-das")
        .expect("chaos engine must stay registered");
    assert_eq!(engine.panics, stats.resilience.panics, "panics must be attributed to the panicking engine");
    assert_eq!(stats.resilience.quarantines, 0, "below the panic threshold nothing is quarantined");
    assert_eq!(chaos.chaos_stats().panics, 2);
}

#[test]
fn repeated_dispatch_panics_quarantine_the_engine() {
    let schedule = ChaosSchedule::scripted(vec![Some(ChaosFault::Panic); 8]);
    let chaos = Arc::new(ChaosBeamformer::new(PlannedDas::new(DelayAndSum::default()), schedule));
    let chaos_engine = Arc::clone(&chaos);
    let factory = move |_: &StreamSpec| -> ServeResult<Arc<dyn Beamformer + Send + Sync>> {
        Ok(Arc::clone(&chaos_engine) as Arc<dyn Beamformer + Send + Sync>)
    };
    let policy = FaultPolicy {
        panic_quarantine_after: 2,
        quarantine_for: Duration::from_secs(60),
        ..FaultPolicy::default()
    };
    let router = Router::with_policies(serial_config(), factory, 1, policy, None).unwrap();
    let spec = small_spec("chaos-das");

    for i in 0..2u64 {
        let handle = router.submit(&spec, synthetic_frame(&spec.array, 256, 31 + i)).unwrap();
        assert_eq!(handle.wait(), Err(ServeError::EnginePanicked { backend: "chaos-das".into() }));
    }
    // The second consecutive panic tears the engine down and opens the
    // breaker: the next request fails fast without touching the engine.
    let handle = router.submit(&spec, synthetic_frame(&spec.array, 256, 33)).unwrap();
    assert_eq!(handle.wait(), Err(ServeError::Quarantined { backend: "chaos-das".into() }));

    assert_eq!(router.num_engines(), 0, "the quarantined engine must be torn down");
    let stats = router.shutdown();
    assert_eq!(stats.resilience.panics, 2);
    assert_eq!(stats.resilience.quarantines, 1);
    assert!(stats.resilience.quarantined >= 1, "fast-fail rejections must be counted");
    assert_eq!(chaos.chaos_stats().panics, 2, "quarantine must stop traffic from reaching the engine");
}

#[test]
fn transient_factory_failures_recover_through_retries() {
    let spawned = Arc::new(AtomicUsize::new(0));
    let spawned_in = Arc::clone(&spawned);
    let inner = move |spec: &StreamSpec| -> ServeResult<Arc<dyn Beamformer + Send + Sync>> {
        spawned_in.fetch_add(1, Ordering::SeqCst);
        match spec.backend.as_str() {
            "das" => Ok(Arc::new(PlannedDas::new(DelayAndSum::default()))),
            other => Err(ServeError::Engine(format!("unknown backend {other}"))),
        }
    };
    // Two injected failures; the default policy's two retries absorb them.
    let factory = ChaosFactory::new(inner).fail_builds("das", 2);
    let probe = factory.probe();
    let router = Router::new(serial_config(), factory);

    let spec = small_spec("das");
    let frame = synthetic_frame(&spec.array, 256, 41);
    let handle = router.submit(&spec, frame.clone()).unwrap();
    let image = handle.wait().expect("the third build attempt must succeed");
    assert_eq!(image, direct_das(&spec, &frame), "recovery must not change results");

    assert_eq!(probe.build_calls(), 3, "initial attempt + two retries");
    assert_eq!(probe.injected_failures(), 2);
    assert_eq!(spawned.load(Ordering::SeqCst), 1, "the wrapped factory only runs on the clean attempt");
    let stats = router.shutdown();
    assert_eq!(stats.resilience.retries, 2);
    assert_eq!(stats.resilience.quarantines, 0, "a recovered build must not trip the breaker");
}

#[test]
fn persistent_factory_failure_trips_the_circuit_breaker() {
    let build_calls = Arc::new(AtomicUsize::new(0));
    let build_calls_in = Arc::clone(&build_calls);
    let factory = move |_: &StreamSpec| -> ServeResult<Arc<dyn Beamformer + Send + Sync>> {
        build_calls_in.fetch_add(1, Ordering::SeqCst);
        Err(ServeError::Engine("warp-core offline".into()))
    };
    let policy = FaultPolicy {
        factory_retries: 0,
        quarantine_after: 2,
        quarantine_for: Duration::from_secs(60),
        ..FaultPolicy::default()
    };
    let router = Router::with_policies(serial_config(), factory, 1, policy, None).unwrap();
    let spec = small_spec("das");

    for i in 0..2u64 {
        let handle = router.submit(&spec, synthetic_frame(&spec.array, 256, 51 + i)).unwrap();
        match handle.wait() {
            Err(ServeError::Engine(reason)) => assert!(reason.contains("warp-core")),
            other => panic!("failed build round {i} must surface the factory error, got {other:?}"),
        }
    }
    // Breaker open: requests fail fast and the broken factory is left alone.
    for i in 0..3u64 {
        let handle = router.submit(&spec, synthetic_frame(&spec.array, 256, 61 + i)).unwrap();
        assert_eq!(handle.wait(), Err(ServeError::Quarantined { backend: "das".into() }));
    }
    assert_eq!(build_calls.load(Ordering::SeqCst), 2, "an open breaker must stop hammering the factory");

    let stats = router.shutdown();
    assert_eq!(stats.resilience.quarantines, 1);
    assert_eq!(stats.resilience.quarantined, 3);
    assert_eq!(stats.engines.len(), 0, "a spec that never built must not appear as an engine");
}

#[test]
fn idle_engines_are_evicted_after_their_ttl() {
    let spawned = Arc::new(AtomicUsize::new(0));
    let spawned_in = Arc::clone(&spawned);
    let factory = move |_: &StreamSpec| -> ServeResult<Arc<dyn Beamformer + Send + Sync>> {
        spawned_in.fetch_add(1, Ordering::SeqCst);
        Ok(Arc::new(PlannedDas::new(DelayAndSum::default())))
    };
    let policy = FaultPolicy { engine_ttl: Some(Duration::from_millis(40)), ..FaultPolicy::default() };
    let router = Router::with_policies(serial_config(), factory, 1, policy, None).unwrap();
    let spec = small_spec("das");

    let frame = synthetic_frame(&spec.array, 256, 71);
    router.submit(&spec, frame.clone()).unwrap().wait().unwrap();
    assert_eq!(router.num_engines(), 1);
    assert_eq!(spawned.load(Ordering::SeqCst), 1);

    // Let the engine go stale, then route the next frame: the sweep evicts
    // the idle engine and the factory rebuilds it transparently.
    std::thread::sleep(Duration::from_millis(120));
    let image = router.submit(&spec, frame.clone()).unwrap().wait().unwrap();
    assert_eq!(image, direct_das(&spec, &frame), "eviction and rebuild must not change results");

    assert_eq!(spawned.load(Ordering::SeqCst), 2, "the stale engine must be rebuilt");
    assert_eq!(router.num_engines(), 1);
    let stats = router.shutdown();
    assert_eq!(stats.resilience.engines_evicted, 1);
}

#[test]
fn delay_only_chaos_preserves_bitwise_identity() {
    // Latency faults must never corrupt results: every response under a
    // delay-injecting schedule is bitwise identical to direct inference.
    let schedule = ChaosSchedule::seeded(42).delay_one_in(2, Duration::from_millis(1));
    let chaos = Arc::new(ChaosBeamformer::new(PlannedDas::new(DelayAndSum::default()), schedule));
    let chaos_engine = Arc::clone(&chaos);
    let factory = move |_: &StreamSpec| -> ServeResult<Arc<dyn Beamformer + Send + Sync>> {
        Ok(Arc::clone(&chaos_engine) as Arc<dyn Beamformer + Send + Sync>)
    };
    let router = Router::new(
        BatchConfig { max_batch: 3, linger: Duration::from_micros(200), ..BatchConfig::default() },
        factory,
    );
    let spec = small_spec("das");
    let frames: Vec<ChannelData> = (0..10).map(|i| synthetic_frame(&spec.array, 192 + 64 * (i % 2), 81 + i as u64)).collect();

    let handles: Vec<_> = frames.iter().map(|f| router.submit(&spec, f.clone()).unwrap()).collect();
    for (handle, frame) in handles.into_iter().zip(&frames) {
        let image = handle.wait().expect("delays must never fail a request");
        assert_eq!(image, direct_das(&spec, frame), "delayed responses must stay bitwise identical");
    }

    let chaos_stats = chaos.chaos_stats();
    assert_eq!(chaos_stats.calls, 10);
    assert!(chaos_stats.delays >= 1, "the seeded schedule must actually inject delays");
    assert_eq!(chaos_stats.panics + chaos_stats.errors + chaos_stats.nan_frames, 0);
    let stats = router.shutdown();
    assert_eq!(stats.server.completed, 10);
    assert_eq!(stats.resilience, Default::default());
}
