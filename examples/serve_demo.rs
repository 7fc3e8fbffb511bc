//! Streaming serving demo: push 64 plane-wave frames through a one-stream
//! [`serve::router::Router`] with a Tiny-VBF beamformer and verify the served
//! images are **bitwise identical** to serial per-frame inference.
//!
//! Run with `cargo run --release --example serve_demo`; set `TINY_VBF_THREADS`
//! to any value — the results must not change (the assertion below holds for
//! every thread count, batch size and linger).

use std::sync::Arc;
use std::time::{Duration, Instant};
use tiny_vbf_repro::prelude::*;
use tiny_vbf_repro::serve::ServeResult;
use tiny_vbf_repro::ultrasound::ChannelData;

const FRAMES: usize = 64;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One probe/grid shared by the whole stream, one trained-shape model.
    let array = LinearArray::small_test_array();
    let grid = ImagingGrid::for_array(&array, 0.012, 0.012, 24, 16);
    let config = TinyVbfConfig::small().for_frame(array.num_elements(), grid.num_cols());
    let beamformer = QuantizedTinyVbfBeamformer::new(&TinyVbf::new(&config)?, QuantScheme::float());
    let sound_speed = Medium::soft_tissue().sound_speed();

    // Simulate a stream of 64 frames: a point target drifting laterally, as a
    // moving-probe stand-in. Each frame is an independent acquisition.
    println!("simulating {FRAMES} frames…");
    let simulator = PlaneWaveSimulator::new(array.clone(), Medium::soft_tissue(), 0.026);
    let frames: Vec<ChannelData> = (0..FRAMES)
        .map(|i| {
            let x = -0.003 + 0.006 * (i as f32 / (FRAMES - 1) as f32);
            let phantom = Phantom::builder(0.012, 0.026).seed(100 + i as u64).add_point_target(x, 0.018, 1.0).build();
            simulator.simulate(&phantom, PlaneWave::zero_angle())
        })
        .collect::<Result<_, _>>()?;

    // Reference: serial per-frame inference.
    println!("serial per-frame reference…");
    let serial_start = Instant::now();
    let reference: Vec<_> = frames
        .iter()
        .map(|frame| beamformer.beamform(frame, &array, &grid, sound_speed))
        .collect::<Result<_, _>>()?;
    let serial_seconds = serial_start.elapsed().as_secs_f64();

    // Served: the same frames through a router with one stream, whose engine
    // is the beamformer that produced the serial reference.
    let batch_config = BatchConfig {
        max_batch: 8,
        linger: Duration::from_millis(1),
        queue_capacity: 32,
        ..BatchConfig::default()
    };
    println!(
        "serving (max_batch {}, linger {:?}, queue {})…",
        batch_config.max_batch, batch_config.linger, batch_config.queue_capacity
    );
    let spec = StreamSpec { array, grid, sound_speed, backend: "tiny-vbf-fp".into() };
    let engine: Arc<dyn Beamformer + Send + Sync> = Arc::new(beamformer);
    let router = Router::new(batch_config, move |_: &StreamSpec| -> ServeResult<_> { Ok(Arc::clone(&engine)) });
    let served_start = Instant::now();
    let handles: Vec<_> =
        frames.iter().map(|frame| router.submit(&spec, frame.clone())).collect::<Result<_, _>>()?;
    let served: Vec<_> = handles.into_iter().map(|h| h.wait()).collect::<Result<_, _>>()?;
    let served_seconds = served_start.elapsed().as_secs_f64();
    let stats = router.shutdown().server;

    // The serving layer is pure scheduling: images must match bit for bit.
    assert_eq!(reference.len(), served.len());
    for (i, (a, b)) in reference.iter().zip(served.iter()).enumerate() {
        assert_eq!(a, b, "frame {i} served != serial");
    }
    println!("✓ {FRAMES} served frames bitwise identical to serial inference");
    println!(
        "serial {serial_seconds:.2}s ({:.1} fps) | served {served_seconds:.2}s ({:.1} fps) | \
         {} engine calls, mean batch {:.1}, largest {}",
        FRAMES as f64 / serial_seconds,
        FRAMES as f64 / served_seconds,
        stats.batches,
        stats.mean_batch(),
        stats.max_batch_observed,
    );
    Ok(())
}
