//! Deterministic fault injection for the serving stack.
//!
//! Robustness claims are only testable if failures can be *scheduled*:
//! [`ChaosBeamformer`] wraps any [`Beamformer`] and injects faults — latency
//! spikes, engine errors, panics, NaN-filled frames — at call indices chosen
//! by a [`ChaosSchedule`]. The schedule is either scripted (an explicit fault
//! per call) or seeded (a splitmix-style hash of `(seed, call_index)`), so a
//! chaos run is **deterministic**: no wall-clock randomness, identical fault
//! sequences on every execution for a given seed. [`ChaosFactory`] does the
//! same for *engine construction*, failing a backend's first N builds to
//! exercise the registry's retry/circuit-breaker path.
//!
//! The chaos test suite (`serve/tests/chaos.rs`), the degradation suite
//! (`serve/tests/degrade.rs`) and the `chaos_availability` scenario drive the
//! router through these wrappers to prove the PR-6 guarantees: a panicking engine fails only its
//! own requests, every handle resolves, and responses served on an
//! un-degraded backend stay bitwise identical to direct inference.

use crate::router::{EngineFactory, StreamSpec};
use crate::{recover, ServeResult};
use beamforming::grid::ImagingGrid;
use beamforming::iq::IqImage;
use beamforming::pipeline::{Beamformer, QuantQualityStats};
use beamforming::plan::{FrameFormat, PlanCacheStats};
use beamforming::{BeamformError, BeamformResult};
use std::sync::Arc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;
use ultrasound::{ChannelData, LinearArray};

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosFault {
    /// Sleep for the given duration before beamforming normally — a latency
    /// spike that pushes queued requests toward their deadlines without
    /// corrupting any result.
    Delay(Duration),
    /// Panic inside the beamform call (payload prefixed `"chaos:"`),
    /// exercising the router's panic containment.
    Panic,
    /// Return a frame filled with NaN — numerically poisoned output that the
    /// quality signal must catch (the injected noise makes the windowed SQNR
    /// collapse).
    NanFrame,
    /// Return a [`BeamformError`] — a well-behaved engine failure.
    Error,
}

#[derive(Debug, Clone)]
enum ScheduleKind {
    /// Explicit per-call faults, indexed by call; `None` beyond the end.
    Scripted(Vec<Option<ChaosFault>>),
    /// Seeded pseudo-random faults with independent per-fault rates.
    Seeded {
        seed: u64,
        panic_one_in: Option<u64>,
        error_one_in: Option<u64>,
        nan_one_in: Option<u64>,
        delay_one_in: Option<(u64, Duration)>,
    },
}

/// A deterministic fault schedule: a pure function from call index to
/// [`ChaosFault`].
#[derive(Debug, Clone)]
pub struct ChaosSchedule {
    kind: ScheduleKind,
}

/// SplitMix64 finalizer: avalanches `(seed, call)` into uncorrelated bits.
fn mix(seed: u64, call: u64, salt: u64) -> u64 {
    let mut z = seed ^ call.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt.wrapping_mul(0xD134_2543_DE82_EF95);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ChaosSchedule {
    /// A schedule that never injects anything (pass-through wrapper).
    pub fn none() -> Self {
        Self { kind: ScheduleKind::Scripted(Vec::new()) }
    }

    /// An explicit script: call `i` suffers `faults[i]` (calls beyond the
    /// script run clean).
    pub fn scripted(faults: Vec<Option<ChaosFault>>) -> Self {
        Self { kind: ScheduleKind::Scripted(faults) }
    }

    /// A seeded pseudo-random schedule with no faults enabled yet; chain
    /// [`ChaosSchedule::panic_one_in`] and friends to arm it. The fault
    /// pattern depends only on `(seed, call index)`.
    pub fn seeded(seed: u64) -> Self {
        Self {
            kind: ScheduleKind::Seeded {
                seed,
                panic_one_in: None,
                error_one_in: None,
                nan_one_in: None,
                delay_one_in: None,
            },
        }
    }

    /// Arms injected panics at an average rate of one per `n` calls.
    ///
    /// # Panics
    ///
    /// Panics when the schedule is scripted or `n` is zero.
    pub fn panic_one_in(mut self, n: u64) -> Self {
        let ScheduleKind::Seeded { panic_one_in, .. } = &mut self.kind else {
            panic!("rates apply to seeded schedules only");
        };
        assert!(n > 0, "rate must be >= 1");
        *panic_one_in = Some(n);
        self
    }

    /// Arms injected [`BeamformError`]s at one per `n` calls (seeded only).
    ///
    /// # Panics
    ///
    /// Panics when the schedule is scripted or `n` is zero.
    pub fn error_one_in(mut self, n: u64) -> Self {
        let ScheduleKind::Seeded { error_one_in, .. } = &mut self.kind else {
            panic!("rates apply to seeded schedules only");
        };
        assert!(n > 0, "rate must be >= 1");
        *error_one_in = Some(n);
        self
    }

    /// Arms NaN-frame injection at one per `n` calls (seeded only).
    ///
    /// # Panics
    ///
    /// Panics when the schedule is scripted or `n` is zero.
    pub fn nan_one_in(mut self, n: u64) -> Self {
        let ScheduleKind::Seeded { nan_one_in, .. } = &mut self.kind else {
            panic!("rates apply to seeded schedules only");
        };
        assert!(n > 0, "rate must be >= 1");
        *nan_one_in = Some(n);
        self
    }

    /// Arms latency spikes of `delay` at one per `n` calls (seeded only).
    ///
    /// # Panics
    ///
    /// Panics when the schedule is scripted or `n` is zero.
    pub fn delay_one_in(mut self, n: u64, delay: Duration) -> Self {
        let ScheduleKind::Seeded { delay_one_in, .. } = &mut self.kind else {
            panic!("rates apply to seeded schedules only");
        };
        assert!(n > 0, "rate must be >= 1");
        *delay_one_in = Some((n, delay));
        self
    }

    /// The fault injected at call `call`, if any. Pure: same `(schedule,
    /// call)` always yields the same answer. For seeded schedules the
    /// per-fault draws are independent; when several fire on one call the
    /// priority is panic > error > NaN frame > delay.
    pub fn fault_for(&self, call: u64) -> Option<ChaosFault> {
        match &self.kind {
            ScheduleKind::Scripted(faults) => faults.get(call as usize).copied().flatten(),
            ScheduleKind::Seeded { seed, panic_one_in, error_one_in, nan_one_in, delay_one_in } => {
                let hits = |salt: u64, n: u64| mix(*seed, call, salt).is_multiple_of(n);
                if panic_one_in.is_some_and(|n| hits(1, n)) {
                    Some(ChaosFault::Panic)
                } else if error_one_in.is_some_and(|n| hits(2, n)) {
                    Some(ChaosFault::Error)
                } else if nan_one_in.is_some_and(|n| hits(3, n)) {
                    Some(ChaosFault::NanFrame)
                } else if let Some((n, delay)) = delay_one_in {
                    hits(4, *n).then_some(ChaosFault::Delay(*delay))
                } else {
                    None
                }
            }
        }
    }
}

/// Injection counters of a [`ChaosBeamformer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Total beamform calls observed (each consumes one schedule index).
    pub calls: u64,
    /// Panics injected.
    pub panics: u64,
    /// Engine errors injected.
    pub errors: u64,
    /// NaN frames fabricated.
    pub nan_frames: u64,
    /// Latency spikes injected.
    pub delays: u64,
}

/// A [`Beamformer`] wrapper injecting scheduled faults around an inner
/// backend.
///
/// Calls without a scheduled fault pass through untouched, so clean chaos
/// runs keep the inner backend's bitwise output. Injected NaN frames are also
/// charged to the wrapper's own [`QuantQualityStats`] (a huge noise term per
/// poisoned frame), so the degradation ladder's SQNR signal observes the
/// corruption even over exact inner backends like DAS.
pub struct ChaosBeamformer<B> {
    inner: B,
    name: String,
    schedule: ChaosSchedule,
    calls: AtomicU64,
    panics: AtomicU64,
    errors: AtomicU64,
    nan_frames: AtomicU64,
    delays: AtomicU64,
    quality: Mutex<QuantQualityStats>,
}

/// Noise energy charged per injected NaN frame — large enough that a single
/// poisoned frame drags any observation window's SQNR far below every
/// realistic floor.
const NAN_FRAME_NOISE: f64 = 1.0e6;

impl<B: Beamformer> ChaosBeamformer<B> {
    /// Wraps `inner` under the given fault schedule.
    pub fn new(inner: B, schedule: ChaosSchedule) -> Self {
        let name = format!("chaos({})", inner.name());
        Self {
            inner,
            name,
            schedule,
            calls: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            nan_frames: AtomicU64::new(0),
            delays: AtomicU64::new(0),
            quality: Mutex::new(QuantQualityStats::default()),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Injection counters so far.
    pub fn chaos_stats(&self) -> ChaosStats {
        ChaosStats {
            calls: self.calls.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            nan_frames: self.nan_frames.load(Ordering::Relaxed),
            delays: self.delays.load(Ordering::Relaxed),
        }
    }

    fn charge_quality(&self, noise: f64) {
        let mut quality = recover(self.quality.lock());
        quality.frames += 1;
        quality.signal_energy += 1.0;
        quality.noise_energy += noise;
    }
}

impl<B: Beamformer> Beamformer for ChaosBeamformer<B> {
    fn name(&self) -> &str {
        &self.name
    }

    fn beamform(
        &self,
        data: &ChannelData,
        array: &LinearArray,
        grid: &ImagingGrid,
        sound_speed: f32,
    ) -> BeamformResult<IqImage> {
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        match self.schedule.fault_for(call) {
            Some(ChaosFault::Panic) => {
                self.panics.fetch_add(1, Ordering::Relaxed);
                panic!("chaos: injected panic at call {call}");
            }
            Some(ChaosFault::Error) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                Err(BeamformError::InvalidParameter {
                    name: "chaos",
                    reason: format!("injected engine error at call {call}"),
                })
            }
            Some(ChaosFault::NanFrame) => {
                self.nan_frames.fetch_add(1, Ordering::Relaxed);
                self.charge_quality(NAN_FRAME_NOISE);
                let mut image = IqImage::zeros(grid.clone());
                for row in 0..image.num_rows() {
                    for col in 0..image.num_cols() {
                        let value = image.value_mut(row, col);
                        value.re = f32::NAN;
                        value.im = f32::NAN;
                    }
                }
                Ok(image)
            }
            Some(ChaosFault::Delay(delay)) => {
                self.delays.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(delay);
                self.charge_quality(0.0);
                self.inner.beamform(data, array, grid, sound_speed)
            }
            None => {
                self.charge_quality(0.0);
                self.inner.beamform(data, array, grid, sound_speed)
            }
        }
    }

    fn prepare(&self, array: &LinearArray, grid: &ImagingGrid, sound_speed: f32, frame: &FrameFormat) {
        self.inner.prepare(array, grid, sound_speed, frame);
    }

    fn plan_cache_stats(&self) -> Option<PlanCacheStats> {
        self.inner.plan_cache_stats()
    }

    fn quant_quality_stats(&self) -> Option<QuantQualityStats> {
        // The wrapper's injected-corruption counters, merged with whatever the
        // inner backend reports — exact inner backends (None) still surface
        // the NaN-frame noise to the ladder's quality probe.
        let mut merged = *recover(self.quality.lock());
        if let Some(inner) = self.inner.quant_quality_stats() {
            merged.merge(&inner);
        }
        Some(merged)
    }
}

/// An [`EngineFactory`] wrapper that fails scripted backend builds, driving
/// the registry's retry/backoff and circuit-breaker paths.
///
/// Build failures are *consumed*: `fail_builds(label, n)` makes the next `n`
/// build attempts for `label` fail, after which builds pass through to the
/// inner factory — so a "transient" outage is expressed as a finite failure
/// budget and a "persistent" one as a budget larger than the registry will
/// ever retry.
pub struct ChaosFactory<F> {
    inner: F,
    fail: Mutex<Vec<(String, u32)>>,
    build_calls: Arc<AtomicU64>,
    injected_failures: Arc<AtomicU64>,
}

/// A cloneable window onto a [`ChaosFactory`]'s counters, usable after the
/// factory itself has been moved into a router.
#[derive(Clone)]
pub struct ChaosFactoryProbe {
    build_calls: Arc<AtomicU64>,
    injected_failures: Arc<AtomicU64>,
}

impl ChaosFactoryProbe {
    /// Total build attempts observed (including injected failures).
    pub fn build_calls(&self) -> u64 {
        self.build_calls.load(Ordering::Relaxed)
    }

    /// Build failures injected so far.
    pub fn injected_failures(&self) -> u64 {
        self.injected_failures.load(Ordering::Relaxed)
    }
}

impl<F> ChaosFactory<F> {
    /// Wraps `inner` with an empty failure script.
    pub fn new(inner: F) -> Self {
        Self {
            inner,
            fail: Mutex::new(Vec::new()),
            build_calls: Arc::new(AtomicU64::new(0)),
            injected_failures: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Schedules the next `n` build attempts of `backend` to fail.
    pub fn fail_builds(self, backend: &str, n: u32) -> Self {
        recover(self.fail.lock()).push((backend.to_string(), n));
        self
    }

    /// A counter probe that outlives moving the factory into a router.
    pub fn probe(&self) -> ChaosFactoryProbe {
        ChaosFactoryProbe {
            build_calls: Arc::clone(&self.build_calls),
            injected_failures: Arc::clone(&self.injected_failures),
        }
    }
}

impl<F: EngineFactory> EngineFactory for ChaosFactory<F> {
    fn build(&self, spec: &StreamSpec) -> ServeResult<Arc<dyn Beamformer + Send + Sync>> {
        self.build_calls.fetch_add(1, Ordering::Relaxed);
        {
            let mut fail = recover(self.fail.lock());
            if let Some(entry) = fail.iter_mut().find(|(label, n)| *label == spec.backend && *n > 0) {
                entry.1 -= 1;
                self.injected_failures.fetch_add(1, Ordering::Relaxed);
                return Err(crate::ServeError::Engine(format!(
                    "chaos: injected build failure for `{}`",
                    spec.backend
                )));
            }
        }
        self.inner.build(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beamforming::pipeline::DelayAndSum;

    #[test]
    fn seeded_schedule_is_deterministic_and_rate_plausible() {
        let a = ChaosSchedule::seeded(7).panic_one_in(8).nan_one_in(16);
        let b = ChaosSchedule::seeded(7).panic_one_in(8).nan_one_in(16);
        let faults_a: Vec<_> = (0..512).map(|c| a.fault_for(c)).collect();
        let faults_b: Vec<_> = (0..512).map(|c| b.fault_for(c)).collect();
        assert_eq!(faults_a, faults_b);
        let panics = faults_a.iter().filter(|f| **f == Some(ChaosFault::Panic)).count();
        // One-in-8 over 512 draws: expect ~64; accept a wide deterministic band.
        assert!((16..=192).contains(&panics), "panic count {panics} implausible for rate 1/8");
        // A different seed must yield a different pattern.
        let c = ChaosSchedule::seeded(8).panic_one_in(8).nan_one_in(16);
        assert_ne!(faults_a, (0..512).map(|i| c.fault_for(i)).collect::<Vec<_>>());
    }

    #[test]
    fn scripted_schedule_indexes_by_call() {
        let s = ChaosSchedule::scripted(vec![None, Some(ChaosFault::Panic), Some(ChaosFault::Error)]);
        assert_eq!(s.fault_for(0), None);
        assert_eq!(s.fault_for(1), Some(ChaosFault::Panic));
        assert_eq!(s.fault_for(2), Some(ChaosFault::Error));
        assert_eq!(s.fault_for(3), None); // beyond the script: clean
        assert_eq!(ChaosSchedule::none().fault_for(0), None);
    }

    #[test]
    fn nan_frames_poison_the_quality_signal() {
        let chaos = ChaosBeamformer::new(
            DelayAndSum::default(),
            ChaosSchedule::scripted(vec![Some(ChaosFault::NanFrame)]),
        );
        let array = LinearArray::small_test_array();
        let grid = ImagingGrid::for_array(&array, 0.014, 0.008, 4, 4);
        let frame = ChannelData::zeros(64, array.num_elements(), array.sampling_frequency());
        let image = chaos.beamform(&frame, &array, &grid, 1540.0).unwrap();
        assert!(image.as_slice()[0].re.is_nan());
        let quality = chaos.quant_quality_stats().unwrap();
        assert!(quality.noise_energy >= NAN_FRAME_NOISE);
        assert!(quality.sqnr_db() < 0.0);
        // A clean follow-up call keeps the cumulative counters poisoned but
        // adds signal.
        let clean = chaos.beamform(&frame, &array, &grid, 1540.0).unwrap();
        assert!(!clean.as_slice()[0].re.is_nan());
        assert_eq!(chaos.chaos_stats(), ChaosStats { calls: 2, nan_frames: 1, ..ChaosStats::default() });
    }
}
