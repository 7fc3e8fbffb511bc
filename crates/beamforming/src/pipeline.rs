//! A uniform interface over the classical beamformers plus end-to-end helpers.

pub use crate::das::DelayAndSum;
pub use crate::mvdr::Mvdr;
pub use crate::plan::{PlannedDas, PlannedMvdr};

use crate::bmode::BModeImage;
use crate::grid::ImagingGrid;
use crate::iq::IqImage;
use crate::plan::{FrameFormat, PlanCacheStats};
use crate::BeamformResult;
use ultrasound::{ChannelData, LinearArray};

/// Accuracy-proxy counters a lossy beamformer (e.g. a fixed-point Tiny-VBF
/// backend) accumulates while serving, so quality degradation is observable
/// under load without re-running a float reference per frame.
///
/// Energies are accumulated as `f64` sums across frames; the aggregate
/// signal-to-quantization-noise ratio follows as
/// `10·log10(signal/noise)` ([`QuantQualityStats::sqnr_db`]). A pure
/// floating-point backend accumulates zero noise and reports an infinite
/// SQNR.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QuantQualityStats {
    /// Frames the counters cover.
    pub frames: u64,
    /// Accumulated signal energy (sum of squared reference values).
    pub signal_energy: f64,
    /// Accumulated quantization-noise energy (sum of squared
    /// reference − quantized differences).
    pub noise_energy: f64,
}

impl QuantQualityStats {
    /// Aggregate signal-to-quantization-noise ratio in dB over every counted
    /// frame. `f64::INFINITY` when no noise was accumulated (floating-point
    /// backends, or no frames yet).
    pub fn sqnr_db(&self) -> f64 {
        if self.noise_energy <= 0.0 {
            return f64::INFINITY;
        }
        10.0 * (self.signal_energy / self.noise_energy).log10()
    }

    /// Folds another snapshot into this one (for totals across engines).
    pub fn merge(&mut self, other: &QuantQualityStats) {
        self.frames += other.frames;
        self.signal_energy += other.signal_energy;
        self.noise_energy += other.noise_energy;
    }
}

/// Anything that turns raw channel data into an IQ image on a grid.
///
/// The `tiny-vbf` crate implements this trait for its learned beamformers so the
/// evaluation harness can score DAS, MVDR, Tiny-CNN and Tiny-VBF through one interface,
/// and the `serve` crate batches frames through [`Beamformer::beamform_batch_results`].
///
/// `Sync` is a supertrait so the default batch implementation can fan frames out
/// across worker threads; beamformer configurations are plain data, so this costs
/// implementations nothing.
pub trait Beamformer: Sync {
    /// Short human-readable name used in tables ("DAS", "MVDR", "Tiny-VBF", …).
    fn name(&self) -> &str;

    /// Beamforms one acquisition into an IQ image.
    ///
    /// # Errors
    ///
    /// Implementations return a [`crate::BeamformError`] when the inputs are
    /// inconsistent with the probe/grid or a numerical step fails.
    fn beamform(
        &self,
        data: &ChannelData,
        array: &LinearArray,
        grid: &ImagingGrid,
        sound_speed: f32,
    ) -> BeamformResult<IqImage>;

    /// Frame-parallel batch beamforming of acquisitions sharing one probe and
    /// grid, with one [`BeamformResult`] per frame (in frame order) — the
    /// primitive behind the `serve` crate's per-request error reporting, where
    /// one malformed frame must fail alone rather than poisoning (or forcing a
    /// recompute of) its whole batch.
    ///
    /// The *total* thread budget is split two ways via
    /// [`runtime::split_budget`]: frames of the batch run concurrently across
    /// `outer` workers, and each frame's own [`Beamformer::beamform`] keeps its
    /// internal row parallelism capped at `inner` threads (enforced by the
    /// runtime's nested-budget mechanism), so the total live worker count never
    /// exceeds `num_threads`. Each frame's image depends only on that frame's
    /// data, so the results are bitwise identical for every budget.
    fn beamform_batch_results(
        &self,
        frames: &[ChannelData],
        array: &LinearArray,
        grid: &ImagingGrid,
        sound_speed: f32,
        num_threads: usize,
    ) -> Vec<BeamformResult<IqImage>> {
        let (outer, inner) = runtime::split_budget(num_threads, frames.len());
        runtime::par_collect_budgeted(frames.len(), outer, inner, |i| self.beamform(&frames[i], array, grid, sound_speed))
    }

    /// Warm any per-stream caches for frames of the given format.
    ///
    /// Beamformers that amortise per-stream precomputation — the planned
    /// wrappers ([`PlannedDas`], [`PlannedMvdr`]) build their
    /// [`crate::plan::BeamformPlan`] here — override this so a serving
    /// front-end can pay the one-time setup at engine construction instead of
    /// on the first streamed frame. The default is a no-op; implementations
    /// must treat it as best-effort (configuration errors surface on the next
    /// [`Beamformer::beamform`] call, not here).
    fn prepare(&self, _array: &LinearArray, _grid: &ImagingGrid, _sound_speed: f32, _frame: &FrameFormat) {}

    /// Counters of this beamformer's internal plan cache, if it has one.
    ///
    /// The planned wrappers ([`PlannedDas`], [`PlannedMvdr`]) and the learned
    /// adapters report their [`crate::plan::PlanCache`] here so a serving
    /// layer can prove cache behaviour (e.g. zero rebuilds after warm-up)
    /// through a `dyn Beamformer` without knowing the concrete type. The
    /// default is `None` (no cache).
    fn plan_cache_stats(&self) -> Option<PlanCacheStats> {
        None
    }

    /// Accuracy-proxy counters of a lossy (e.g. fixed-point) beamformer, if
    /// it tracks them.
    ///
    /// Quantized backends report accumulated signal/quantization-noise
    /// energies here so a serving layer can surface per-backend SQNR under
    /// load through a `dyn Beamformer` (see `serve::router::EngineStats`).
    /// The default is `None` (exact beamformer, nothing to report).
    fn quant_quality_stats(&self) -> Option<QuantQualityStats> {
        None
    }

    /// Convenience: beamform and log-compress to a B-mode image.
    ///
    /// # Errors
    ///
    /// Propagates beamforming and compression errors.
    fn beamform_bmode(
        &self,
        data: &ChannelData,
        array: &LinearArray,
        grid: &ImagingGrid,
        sound_speed: f32,
        dynamic_range: f32,
    ) -> BeamformResult<BModeImage> {
        let iq = self.beamform(data, array, grid, sound_speed)?;
        BModeImage::from_iq(&iq, dynamic_range)
    }
}

impl Beamformer for DelayAndSum {
    fn name(&self) -> &str {
        "DAS"
    }

    fn beamform(
        &self,
        data: &ChannelData,
        array: &LinearArray,
        grid: &ImagingGrid,
        sound_speed: f32,
    ) -> BeamformResult<IqImage> {
        self.beamform_iq(data, array, grid, sound_speed)
    }
}

impl Beamformer for Mvdr {
    fn name(&self) -> &str {
        "MVDR"
    }

    fn beamform(
        &self,
        data: &ChannelData,
        array: &LinearArray,
        grid: &ImagingGrid,
        sound_speed: f32,
    ) -> BeamformResult<IqImage> {
        self.beamform_iq(data, array, grid, sound_speed)
    }
}

/// Shared-ownership delegation: an `Arc<B>` beamforms exactly like `B`.
///
/// This lets one beamformer instance — and, for the planned wrappers, one
/// plan cache — be shared between a serving engine and its caller (e.g. to
/// inspect [`PlannedDas::plans_built`] while the engine owns the other
/// handle).
impl<B: Beamformer + Send + Sync + ?Sized> Beamformer for std::sync::Arc<B> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn beamform(
        &self,
        data: &ChannelData,
        array: &LinearArray,
        grid: &ImagingGrid,
        sound_speed: f32,
    ) -> BeamformResult<IqImage> {
        (**self).beamform(data, array, grid, sound_speed)
    }

    fn beamform_batch_results(
        &self,
        frames: &[ChannelData],
        array: &LinearArray,
        grid: &ImagingGrid,
        sound_speed: f32,
        num_threads: usize,
    ) -> Vec<BeamformResult<IqImage>> {
        (**self).beamform_batch_results(frames, array, grid, sound_speed, num_threads)
    }

    fn prepare(&self, array: &LinearArray, grid: &ImagingGrid, sound_speed: f32, frame: &FrameFormat) {
        (**self).prepare(array, grid, sound_speed, frame)
    }

    fn plan_cache_stats(&self) -> Option<PlanCacheStats> {
        (**self).plan_cache_stats()
    }

    fn quant_quality_stats(&self) -> Option<QuantQualityStats> {
        (**self).quant_quality_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultrasound::{Medium, Phantom, PlaneWave, PlaneWaveSimulator};

    #[test]
    fn trait_objects_cover_both_classical_beamformers() {
        let array = LinearArray::small_test_array();
        let sim = PlaneWaveSimulator::new(array.clone(), Medium::soft_tissue(), 0.03);
        let phantom = Phantom::builder(0.01, 0.03).add_point_target(0.0, 0.02, 1.0).build();
        let rf = sim.simulate(&phantom, PlaneWave::zero_angle()).unwrap();
        let grid = ImagingGrid::for_array(&array, 0.018, 0.004, 12, 8);

        let beamformers: Vec<Box<dyn Beamformer>> = vec![Box::new(DelayAndSum::default()), Box::new(Mvdr::fast())];
        for bf in &beamformers {
            let iq = bf.beamform(&rf, &array, &grid, 1540.0).unwrap();
            assert_eq!(iq.num_pixels(), grid.num_pixels(), "{}", bf.name());
            let bmode = bf.beamform_bmode(&rf, &array, &grid, 1540.0, 60.0).unwrap();
            assert_eq!(bmode.num_rows(), grid.num_rows());
        }
        assert_eq!(beamformers[0].name(), "DAS");
        assert_eq!(beamformers[1].name(), "MVDR");
    }
}
