//! Quantized-serving demo: float and fixed-point Tiny-VBF streams — one
//! [`serve::router::Router`] backend per quantization scheme — interleaved
//! through **one** queue and thread budget, then verified **bitwise
//! identical** to serial per-frame quantized inference, with per-backend
//! SQNR accuracy-proxy counters and **one shared ToF plan** across every
//! scheme (the plan depends on the stream geometry, not the scheme).
//!
//! Run with `cargo run --release --example quant_route_demo`; set
//! `TINY_VBF_THREADS` to any value — the assertions hold for every thread
//! count, batch size, linger and stream interleaving.

use std::sync::Arc;
use std::time::Duration;
use tiny_vbf_repro::beamforming::iq::IqImage;
use tiny_vbf_repro::beamforming::plan::{FrameFormat, PlanCache};
use tiny_vbf_repro::prelude::*;
use tiny_vbf_repro::serve::{ServeError, ServeResult};
use tiny_vbf_repro::ultrasound::ChannelData;

const FRAMES_PER_STREAM: usize = 12;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sound_speed = Medium::soft_tissue().sound_speed();
    let array = LinearArray::small_test_array();
    let grid = ImagingGrid::for_array(&array, 0.012, 0.012, 24, 16);
    let config = TinyVbfConfig::small().for_frame(array.num_elements(), grid.num_cols());
    let model = TinyVbf::new(&config)?;

    // One stream per scheme: float plus three Table III fixed-point schemes,
    // every spec differing only in its backend label.
    let schemes = [QuantScheme::float(), QuantScheme::w24(), QuantScheme::hybrid1(), QuantScheme::hybrid2()];
    let specs: Vec<StreamSpec> = schemes
        .iter()
        .map(|scheme| StreamSpec {
            array: array.clone(),
            grid: grid.clone(),
            sound_speed,
            backend: scheme.backend_label().into(),
        })
        .collect();

    // The quantized backends: one per scheme, all replaying ONE ToF plan.
    let shared_tof = Arc::new(PlanCache::new(2));
    let backends: Vec<QuantizedTinyVbfBeamformer> = schemes
        .iter()
        .map(|scheme| {
            QuantizedTinyVbfBeamformer::with_tof_cache(
                QuantizedTinyVbf::from_model(&model, *scheme),
                Arc::clone(&shared_tof),
            )
        })
        .collect();

    println!("simulating {FRAMES_PER_STREAM} frames for {} scheme streams…", schemes.len());
    let simulator = PlaneWaveSimulator::new(array.clone(), Medium::soft_tissue(), 0.026);
    let frames: Vec<ChannelData> = (0..FRAMES_PER_STREAM)
        .map(|i| {
            let x = -0.003 + 0.006 * (i as f32 / (FRAMES_PER_STREAM - 1) as f32);
            let phantom =
                Phantom::builder(0.012, 0.026).seed(40 + i as u64).add_point_target(x, 0.018, 1.0).build();
            simulator.simulate(&phantom, PlaneWave::zero_angle()).expect("simulate")
        })
        .collect();

    // Serial per-frame quantized reference, per scheme (clones share weights
    // and the plan cache with the served engines, so identity is end to end).
    let reference: Vec<Vec<IqImage>> = backends
        .iter()
        .map(|backend| {
            frames.iter().map(|f| backend.beamform(f, &array, &grid, sound_speed)).collect::<Result<_, _>>()
        })
        .collect::<Result<_, _>>()?;
    let reference_quality = backends[3].quality_stats();

    // One router over a scheme-label factory.
    let factory = {
        let backends = backends.to_vec();
        move |spec: &StreamSpec| -> ServeResult<Arc<dyn Beamformer + Send + Sync>> {
            match schemes.iter().position(|s| s.backend_label() == spec.backend) {
                Some(i) => Ok(Arc::new(backends[i].clone())),
                None => Err(ServeError::Engine(format!("unknown backend {}", spec.backend))),
            }
        }
    };
    let router = Router::new(
        BatchConfig { max_batch: 6, linger: Duration::from_micros(500), queue_capacity: 64, ..BatchConfig::default() },
        factory,
    );
    for spec in &specs {
        router.warm(spec, &FrameFormat::of(&frames[0]))?;
    }
    // Every engine shares `shared_tof`, so count plan builds on the cache
    // itself (the per-engine RouterStats snapshots each re-count it).
    let warm_misses = shared_tof.stats().misses;
    println!("warmed {} engines sharing {warm_misses} ToF plan(s)", router.num_engines());

    // Interleave every scheme's stream frame by frame through the one queue.
    let handles: Vec<(usize, _)> = (0..FRAMES_PER_STREAM)
        .flat_map(|i| {
            let router = &router;
            let specs = &specs;
            let frame = &frames[i];
            (0..specs.len()).map(move |s| (s, router.submit(&specs[s], frame.clone()).expect("submit")))
        })
        .collect();
    let mut served: Vec<Vec<IqImage>> = vec![Vec::new(); specs.len()];
    for (s, handle) in handles {
        served[s].push(handle.wait()?);
    }

    // Quantized routing is pure scheduling: bitwise identity per scheme.
    for (s, scheme) in schemes.iter().enumerate() {
        assert_eq!(reference[s], served[s], "{} served != serial quantized inference", scheme.name);
    }
    println!("✓ {} routed frames bitwise identical to serial quantized inference", schemes.len() * FRAMES_PER_STREAM);

    let stats = router.shutdown();
    assert_eq!(shared_tof.stats().misses, warm_misses, "schemes must share the warm ToF plan");
    assert_eq!(warm_misses, 1, "one geometry, one plan — across all four backends");
    assert_eq!(stats.server.completed, (schemes.len() * FRAMES_PER_STREAM) as u64);
    for engine in &stats.engines {
        let quality = engine.quant_quality.expect("quantized backends report quality");
        // The engine clones share accumulators with the serial reference
        // clones, so each counter covers reference + served frames.
        assert!(quality.frames >= engine.requests, "{}", engine.spec.label());
        println!(
            "  {:<26} {:>3} frames | p50 {:>8.2?} p99 {:>8.2?} | input SQNR {:>8.2} dB over {} frames",
            engine.spec.label(),
            engine.requests,
            engine.latency.p50(),
            engine.latency.p99(),
            quality.sqnr_db(),
            quality.frames,
        );
    }
    // Wider datapaths keep more signal: float is noiseless, 24-bit beats Hybrid-2.
    let sqnr_of = |label: &str| {
        stats
            .engines
            .iter()
            .find(|e| e.spec.backend == label)
            .and_then(|e| e.quant_quality)
            .expect("engine quality")
            .sqnr_db()
    };
    assert!(sqnr_of("tiny-vbf-fp").is_infinite(), "float backend must accumulate zero quantization noise");
    assert!(sqnr_of("tiny-vbf-fx24") > sqnr_of("tiny-vbf-w8a16"), "24-bit SQNR must exceed Hybrid-2");
    assert!(reference_quality.frames > 0 && stats.quant_quality_total().frames > 0);
    println!(
        "queue: {} submitted, {} batches (largest {}), aggregate lossy SQNR {:.2} dB",
        stats.server.submitted,
        stats.server.batches,
        stats.server.max_batch_observed,
        stats.quant_quality_total().sqnr_db(),
    );
    Ok(())
}
