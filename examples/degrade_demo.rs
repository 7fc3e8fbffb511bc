//! Graceful-degradation demo: one managed stream rides the quality ladder
//! down and back up while a fault-injecting engine panics underneath it.
//!
//! The stream's rung-0 backend (`"slow"`) is a [`ChaosBeamformer`]-wrapped
//! planned DAS with a fixed injected 5 ms per call and an occasional seeded
//! panic; rung 1 (`"das"`) is the plain planned DAS. Three acts:
//!
//! 1. **Calm** — unpressured traffic serves at rung 0, bitwise identical to
//!    direct inference (degradation is invisible until it engages).
//! 2. **Storm** — a back-to-back burst under 2 ms deadlines blows the slow
//!    rung's budget; the router sheds the tail, the ladder downshifts, and
//!    the injected panics resolve as contained `EnginePanicked` errors —
//!    every handle resolves either way.
//! 3. **Recovery** — pressure gone, windows close clean and the stream
//!    climbs back to full quality.
//!
//! Run with `cargo run --release --example degrade_demo`.

use std::sync::Arc;
use std::time::Duration;
use tiny_vbf_repro::beamforming::pipeline::{Beamformer, DelayAndSum, PlannedDas};
use tiny_vbf_repro::prelude::*;
use tiny_vbf_repro::serve::{
    ChaosBeamformer, ChaosSchedule, DegradeConfig, ServeError, ServeResult,
};
use tiny_vbf_repro::ultrasound::ChannelData;

/// Deterministic pseudo-random frame (a cheap LCG stands in for the
/// simulator — the serving behaviour only needs fixed values).
fn synthetic_frame(array: &LinearArray, seed: u64) -> ChannelData {
    let mut data = ChannelData::zeros(256, array.num_elements(), array.sampling_frequency());
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    for v in data.as_mut_slice() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *v = ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5;
    }
    data
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Injected panics unwind with a `chaos:` payload and are contained at
    // the dispatch boundary — keep their backtraces out of the demo output.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let injected = payload
            .downcast_ref::<String>()
            .map(|s| s.as_str())
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .is_some_and(|s| s.starts_with("chaos:"));
        if !injected {
            default_hook(info);
        }
    }));

    let array = LinearArray::small_test_array();
    let grid = ImagingGrid::for_array(&array, 0.012, 0.008, 16, 8);
    let spec = StreamSpec { array: array.clone(), grid: grid.clone(), sound_speed: 1540.0, backend: "slow".into() };

    let factory = move |spec: &StreamSpec| -> ServeResult<Arc<dyn Beamformer + Send + Sync>> {
        match spec.backend.as_str() {
            // Rung 0: DAS plus 5 ms of injected latency and ~1/24 panics.
            "slow" => Ok(Arc::new(ChaosBeamformer::new(
                PlannedDas::new(DelayAndSum::default()),
                ChaosSchedule::seeded(9)
                    .delay_one_in(1, Duration::from_millis(5))
                    .panic_one_in(24),
            ))),
            // Rung 1: the genuinely cheaper fallback.
            "das" => Ok(Arc::new(PlannedDas::new(DelayAndSum::default()))),
            other => Err(ServeError::Engine(format!("unknown backend {other}"))),
        }
    };
    let degrade = DegradeConfig {
        window: 4,
        cooldown_windows: 1,
        downshift_expiry_rate: 0.5,
        upshift_expiry_rate: 0.1,
        ..DegradeConfig::with_ladder(vec!["slow".into(), "das".into()])
    };
    let router = Router::with_degrade(
        BatchConfig { max_batch: 2, linger: Duration::ZERO, queue_capacity: 64, ..BatchConfig::default() },
        factory,
        degrade,
    )?;

    // Act 1 — calm: rung-0 responses are bitwise identical to direct DAS.
    let das = DelayAndSum::default();
    for i in 0..8u64 {
        let frame = synthetic_frame(&array, 100 + i);
        let image = router.submit(&spec, frame.clone()).map_err(|_| "submit")?.wait()?;
        let direct = das.beamform(&frame, &array, &grid, 1540.0)?;
        assert_eq!(image, direct, "undegraded serving must be bitwise identical");
    }
    let calm = router.stats();
    println!(
        "calm:     rung {} ({}), {} windows, bitwise identical to direct inference",
        calm.degrade[0].rung, calm.degrade[0].backend, calm.degrade[0].windows
    );

    // Act 2 — storm: saturating burst under 2 ms deadlines.
    let handles: Vec<_> = (0..24u64)
        .map(|i| {
            router
                .submit_with_deadline(&spec, synthetic_frame(&array, 200 + i), Duration::from_millis(2))
                .expect("submit")
        })
        .collect();
    let (mut served, mut expired, mut panicked) = (0u32, 0u32, 0u32);
    for handle in handles {
        match handle.wait() {
            Ok(_) => served += 1,
            Err(ServeError::DeadlineExceeded) => expired += 1,
            Err(ServeError::EnginePanicked { .. }) => panicked += 1,
            Err(other) => return Err(other.into()),
        }
    }
    let storm = router.stats();
    println!(
        "storm:    {served} served / {expired} shed / {panicked} panicked (all {} handles resolved), rung {} ({}), {}↓",
        served + expired + panicked,
        storm.degrade[0].rung,
        storm.degrade[0].backend,
        storm.downshifts_total()
    );
    assert_eq!(served + expired + panicked, 24, "no request may be lost");
    assert!(storm.downshifts_total() >= 1, "the storm must downshift the stream");

    // Act 3 — recovery: sequential unpressured traffic climbs back. The
    // chaos engine still panics now and then; containment turns that into a
    // per-request `EnginePanicked` the client simply retries.
    for i in 0..12u64 {
        let frame = synthetic_frame(&array, 300 + i);
        let mut attempts = 0;
        loop {
            match router.submit(&spec, frame.clone()).map_err(|_| "submit")?.wait() {
                Ok(_) => break,
                Err(ServeError::EnginePanicked { .. }) if attempts < 5 => attempts += 1,
                Err(other) => return Err(other.into()),
            }
        }
    }
    let stats = router.shutdown();
    let ladder = &stats.degrade[0];
    println!(
        "recovery: rung {} ({}), {}↑ over {} windows, {} sheds, {} contained panics",
        ladder.rung,
        ladder.backend,
        stats.upshifts_total(),
        ladder.windows,
        stats.sheds_total(),
        stats.resilience.panics
    );
    assert_eq!(ladder.rung, 0, "the stream must return to full quality");
    assert!(stats.upshifts_total() >= 1);
    println!("ok: load-shedding ladder engaged and recovered; panics stayed contained");
    Ok(())
}
