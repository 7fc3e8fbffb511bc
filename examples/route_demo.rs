//! Multi-stream routing demo: two *concurrent* stream shapes — a planned-DAS
//! stream on one probe/grid and a Tiny-VBF stream on another — pushed through
//! one [`serve::router::Router`] from two producer threads, then verified
//! **bitwise identical** to serial per-frame inference, with **zero plan
//! rebuilds after warm-up** (the multi-slot plan cache counters prove it).
//!
//! Run with `cargo run --release --example route_demo`; set
//! `TINY_VBF_THREADS` to any value — the assertions hold for every thread
//! count, batch size, linger and stream interleaving.

use std::sync::Arc;
use std::time::Duration;
use tiny_vbf_repro::beamforming::iq::IqImage;
use tiny_vbf_repro::beamforming::pipeline::PlannedDas;
use tiny_vbf_repro::beamforming::plan::FrameFormat;
use tiny_vbf_repro::prelude::*;
use tiny_vbf_repro::serve::{ServeError, ServeResult};
use tiny_vbf_repro::ultrasound::ChannelData;

const FRAMES_PER_STREAM: usize = 24;

fn simulate_stream(array: &LinearArray, depth: f32, seed: u64) -> Vec<ChannelData> {
    let simulator = PlaneWaveSimulator::new(array.clone(), Medium::soft_tissue(), depth);
    (0..FRAMES_PER_STREAM)
        .map(|i| {
            let x = -0.003 + 0.006 * (i as f32 / (FRAMES_PER_STREAM - 1) as f32);
            let phantom =
                Phantom::builder(0.012, depth).seed(seed + i as u64).add_point_target(x, 0.7 * depth, 1.0).build();
            simulator.simulate(&phantom, PlaneWave::zero_angle()).expect("simulate")
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sound_speed = Medium::soft_tissue().sound_speed();

    // Stream 1: planned DAS on the 32-element test probe, 24×16 grid.
    let array_das = LinearArray::small_test_array();
    let spec_das = StreamSpec {
        array: array_das.clone(),
        grid: ImagingGrid::for_array(&array_das, 0.012, 0.012, 24, 16),
        sound_speed,
        backend: "das".into(),
    };
    // Stream 2: Tiny-VBF on a narrower 16-element probe, 20×12 grid.
    let array_vbf = LinearArray::builder().num_elements(16).build()?;
    let spec_vbf = StreamSpec {
        array: array_vbf.clone(),
        grid: ImagingGrid::for_array(&array_vbf, 0.010, 0.010, 20, 12),
        sound_speed,
        backend: "tiny-vbf-fp".into(),
    };
    let model_config = TinyVbfConfig::small().for_frame(array_vbf.num_elements(), spec_vbf.grid.num_cols());
    let vbf = QuantizedTinyVbfBeamformer::new(&TinyVbf::new(&model_config)?, QuantScheme::float());

    println!("simulating 2 × {FRAMES_PER_STREAM} frames ({} | {})…", spec_das.label(), spec_vbf.label());
    let frames_das = simulate_stream(&array_das, 0.026, 500);
    let frames_vbf = simulate_stream(&array_vbf, 0.022, 900);

    // Serial per-frame reference (same beamformer configurations).
    let das_serial = DelayAndSum::default();
    let vbf_serial = vbf.clone();
    let reference_das: Vec<IqImage> = frames_das
        .iter()
        .map(|f| das_serial.beamform(f, &spec_das.array, &spec_das.grid, sound_speed))
        .collect::<Result<_, _>>()?;
    let reference_vbf: Vec<IqImage> = frames_vbf
        .iter()
        .map(|f| vbf_serial.beamform(f, &spec_vbf.array, &spec_vbf.grid, sound_speed))
        .collect::<Result<_, _>>()?;

    // One router, one queue, one thread budget; engines spin up via the
    // factory (the Tiny-VBF clone shares its weights with the serial
    // reference, so identity is checkable end to end).
    let factory = {
        let vbf = vbf.clone();
        move |spec: &StreamSpec| -> ServeResult<Arc<dyn Beamformer + Send + Sync>> {
            match spec.backend.as_str() {
                "das" => Ok(Arc::new(PlannedDas::new(DelayAndSum::default()))),
                "tiny-vbf-fp" => Ok(Arc::new(vbf.clone())),
                other => Err(ServeError::Engine(format!("unknown backend {other}"))),
            }
        }
    };
    let router = Router::new(
        BatchConfig { max_batch: 6, linger: Duration::from_micros(500), queue_capacity: 32, ..BatchConfig::default() },
        factory,
    );

    // Warm both engines (spin-up + plan build) before any traffic.
    router.warm(&spec_das, &FrameFormat::of(&frames_das[0]))?;
    router.warm(&spec_vbf, &FrameFormat::of(&frames_vbf[0]))?;
    let warm_misses = router.stats().plan_cache_total().misses;
    println!("warmed {} engines ({} plans built)", router.num_engines(), warm_misses);

    // Two producer threads submit their streams concurrently.
    let (served_das, served_vbf) = std::thread::scope(|scope| {
        let das_producer = scope.spawn(|| {
            let handles: Vec<_> =
                frames_das.iter().map(|f| router.submit(&spec_das, f.clone()).expect("submit das")).collect();
            handles.into_iter().map(|h| h.wait().expect("das frame")).collect::<Vec<IqImage>>()
        });
        let vbf_producer = scope.spawn(|| {
            let handles: Vec<_> =
                frames_vbf.iter().map(|f| router.submit(&spec_vbf, f.clone()).expect("submit vbf")).collect();
            handles.into_iter().map(|h| h.wait().expect("vbf frame")).collect::<Vec<IqImage>>()
        });
        (das_producer.join().expect("das producer"), vbf_producer.join().expect("vbf producer"))
    });

    // Routing is pure scheduling: every image matches serial inference bit
    // for bit, whatever the interleaving.
    assert_eq!(reference_das, served_das, "DAS stream served != serial");
    assert_eq!(reference_vbf, served_vbf, "Tiny-VBF stream served != serial");
    println!("✓ {} routed frames bitwise identical to serial inference", 2 * FRAMES_PER_STREAM);

    let stats = router.shutdown();
    let total_cache = stats.plan_cache_total();
    assert_eq!(total_cache.misses, warm_misses, "zero plan rebuilds after warm-up");
    assert_eq!(stats.server.completed, 2 * FRAMES_PER_STREAM as u64);
    for engine in &stats.engines {
        let cache = engine.plan_cache.expect("both backends are planned");
        println!(
            "  {:<22} {:>3} frames in {:>2} dispatches | p50 {:>7.2?} p99 {:>7.2?} | plans: {} built, {} hits, {} evictions",
            engine.spec.label(),
            engine.requests,
            engine.batches,
            engine.latency.p50(),
            engine.latency.p99(),
            cache.misses,
            cache.hits,
            cache.evictions,
        );
    }
    println!(
        "queue: {} submitted, {} batches (largest {}), mean batch {:.1}",
        stats.server.submitted,
        stats.server.batches,
        stats.server.max_batch_observed,
        stats.server.mean_batch(),
    );
    Ok(())
}
