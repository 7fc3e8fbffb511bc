//! Plan lifecycle through the serving path: a planned beamformer behind a
//! one-stream router builds its delay tables once per stream, serves frames
//! bitwise identical to the direct beamformer, and rebuilds the plan exactly
//! once when the stream's frame format changes mid-flight.

use beamforming::grid::ImagingGrid;
use beamforming::iq::IqImage;
use beamforming::pipeline::{Beamformer, DelayAndSum};
use beamforming::plan::{FrameFormat, PlannedDas};
use serve::router::{Router, StreamSpec};
use serve::{BatchConfig, ServeResult};
use std::sync::Arc;
use std::time::Duration;
use ultrasound::{ChannelData, LinearArray, Medium, Phantom, PlaneWave, PlaneWaveSimulator};

/// A router serving one DAS stream on `planned`, shared with the caller so
/// the test can read its plan-cache counters.
fn one_stream_router(
    config: BatchConfig,
    planned: &Arc<PlannedDas>,
    array: &LinearArray,
    grid: &ImagingGrid,
) -> (Router, StreamSpec) {
    let spec = StreamSpec { array: array.clone(), grid: grid.clone(), sound_speed: 1540.0, backend: "das".into() };
    let engine: Arc<dyn Beamformer + Send + Sync> = Arc::clone(planned) as _;
    let router = Router::new(config, move |_: &StreamSpec| -> ServeResult<_> { Ok(Arc::clone(&engine)) });
    (router, spec)
}

fn frames_with_depth(array: &LinearArray, max_depth: f32, count: usize, seed: u64) -> Vec<ChannelData> {
    let sim = PlaneWaveSimulator::new(array.clone(), Medium::soft_tissue(), max_depth);
    (0..count)
        .map(|i| {
            let phantom = Phantom::builder(0.01, max_depth)
                .seed(seed + i as u64)
                .add_point_target(-0.002 + 0.001 * i as f32, 0.8 * max_depth, 1.0)
                .build();
            sim.simulate(&phantom, PlaneWave::zero_angle()).unwrap()
        })
        .collect()
}

#[test]
fn served_planned_das_rebuilds_once_on_frame_format_change() {
    let array = LinearArray::small_test_array();
    let grid = ImagingGrid::for_array(&array, 0.012, 0.008, 16, 8);
    // Two stream segments with different acquisition depths → different
    // sample counts → different frame formats.
    let segment_a = frames_with_depth(&array, 0.024, 4, 100);
    let segment_b = frames_with_depth(&array, 0.030, 4, 200);
    assert_ne!(
        FrameFormat::of(&segment_a[0]),
        FrameFormat::of(&segment_b[0]),
        "test needs two distinct frame formats"
    );

    let planned = Arc::new(PlannedDas::new(DelayAndSum::default()));
    let config = BatchConfig { max_batch: 3, linger: Duration::from_micros(200), ..BatchConfig::default() };
    let (router, spec) = one_stream_router(config, &planned, &array, &grid);
    // Warm the cache for the first segment: the plan exists before any frame.
    router.warm(&spec, &FrameFormat::of(&segment_a[0])).unwrap();
    assert_eq!(planned.plans_built(), 1, "warm must build the first plan");

    let das = DelayAndSum::default();
    let reference: Vec<IqImage> = segment_a
        .iter()
        .chain(segment_b.iter())
        .map(|f| das.beamform(f, &array, &grid, 1540.0).unwrap())
        .collect();

    let handles: Vec<_> = segment_a
        .iter()
        .chain(segment_b.iter())
        .map(|f| router.submit(&spec, f.clone()).unwrap())
        .collect();
    let served: Vec<IqImage> = handles.into_iter().map(|h| h.wait().unwrap()).collect();
    let stats = router.shutdown().server;

    assert_eq!(stats.completed, 8);
    assert_eq!(stats.latency.count(), 8, "one latency sample per served frame");
    for (i, (a, b)) in reference.iter().zip(served.iter()).enumerate() {
        assert_eq!(a, b, "served frame {i} differs from the direct beamformer");
    }
    assert_eq!(
        planned.plans_built(),
        2,
        "exactly one rebuild for the format change (no per-frame rebuilds)"
    );
}

#[test]
fn served_alternating_formats_stay_warm_in_the_multi_slot_cache() {
    // A stream that interleaves two acquisition depths frame by frame: the
    // single-slot cache of PR 3 would rebuild the plan on *every* frame;
    // the multi-slot LRU keeps both plans warm after the two cold builds.
    let array = LinearArray::small_test_array();
    let grid = ImagingGrid::for_array(&array, 0.012, 0.008, 16, 8);
    let segment_a = frames_with_depth(&array, 0.024, 4, 300);
    let segment_b = frames_with_depth(&array, 0.030, 4, 400);
    let interleaved: Vec<ChannelData> =
        segment_a.iter().zip(&segment_b).flat_map(|(a, b)| [a.clone(), b.clone()]).collect();

    let planned = Arc::new(PlannedDas::new(DelayAndSum::default()));
    let config = BatchConfig { max_batch: 4, ..BatchConfig::default() };
    let (router, spec) = one_stream_router(config, &planned, &array, &grid);
    router.warm(&spec, &FrameFormat::of(&segment_a[0])).unwrap();
    router.warm(&spec, &FrameFormat::of(&segment_b[0])).unwrap();
    assert_eq!(planned.plans_built(), 2, "warm-up must build one plan per format");

    let das = DelayAndSum::default();
    let reference: Vec<IqImage> =
        interleaved.iter().map(|f| das.beamform(f, &array, &grid, 1540.0).unwrap()).collect();
    let handles: Vec<_> = interleaved.iter().map(|f| router.submit(&spec, f.clone()).unwrap()).collect();
    let served: Vec<IqImage> = handles.into_iter().map(|h| h.wait().unwrap()).collect();
    router.shutdown();

    assert_eq!(reference, served, "alternating formats must not change any pixel");
    assert_eq!(planned.plans_built(), 2, "zero plan rebuilds after warm-up");
    let stats = planned.cache_stats();
    assert_eq!(stats.misses, 2);
    assert_eq!(stats.hits, 8, "every served frame must hit a warm plan");
    assert_eq!(stats.evictions, 0);
    assert_eq!(stats.entries, 2);
}

#[test]
fn lru_eviction_order_holds_through_the_serving_path() {
    // Capacity 2 under three interleaved formats: the least-recently-served
    // format is the one evicted, and returning to it is the only rebuild.
    let array = LinearArray::small_test_array();
    let grid = ImagingGrid::for_array(&array, 0.012, 0.008, 8, 8);
    let planned = Arc::new(PlannedDas::with_cache_capacity(DelayAndSum::default(), 2));
    let (router, spec) = one_stream_router(BatchConfig::default(), &planned, &array, &grid);
    let frame = |n: usize| ChannelData::zeros(n, array.num_elements(), array.sampling_frequency());
    let (a, b, c) = (frame(128), frame(160), frame(192));

    // One frame at a time, each waited on: the serving order is the call order.
    let serve_one = |f: &ChannelData| router.submit(&spec, f.clone()).unwrap().wait().unwrap();
    serve_one(&a); // build A            -> [A]
    serve_one(&b); // build B            -> [B, A]
    serve_one(&a); // hit A (refresh)    -> [A, B]
    serve_one(&c); // build C, evict B   -> [C, A]
    serve_one(&a); // hit A              -> [A, C]
    let stats = planned.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.evictions), (2, 3, 1));
    serve_one(&b); // B was evicted: rebuild, evicting C (the LRU entry)
    serve_one(&a); // A stayed warm through everything
    let stats = planned.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.evictions), (3, 4, 2));
    assert_eq!(stats.entries, 2);
}

#[test]
fn warm_is_idempotent_and_best_effort() {
    let array = LinearArray::small_test_array();
    let grid = ImagingGrid::for_array(&array, 0.012, 0.008, 8, 8);
    let planned = Arc::new(PlannedDas::new(DelayAndSum::default()));
    let (router, spec) = one_stream_router(BatchConfig::default(), &planned, &array, &grid);
    let frame = FrameFormat { num_samples: 256, sampling_frequency: array.sampling_frequency(), start_time: 0.0 };
    router.warm(&spec, &frame).unwrap();
    router.warm(&spec, &frame).unwrap();
    assert_eq!(planned.plans_built(), 1, "re-warming the same format must hit the cache");
}
