//! [`Beamformer`] adapters for the learned baselines, and the parallel row sweep
//! they share with the Tiny-VBF adapter
//! ([`QuantizedTinyVbfBeamformer`](crate::quantized::QuantizedTinyVbfBeamformer)).
//!
//! Wrapping the trained networks in the same [`Beamformer`] trait as DAS and MVDR lets
//! the evaluation harness (and downstream users) swap beamformers freely.

use crate::baselines::{Fcnn, TinyCnn};
use crate::{TinyVbfError, TinyVbfResult};
use beamforming::grid::ImagingGrid;
use beamforming::iq::{rf_to_iq, IqImage};
use beamforming::pipeline::Beamformer;
use beamforming::tof::{tof_correct, TofCube};
use beamforming::{BeamformError, BeamformResult};
use neural::tensor::Tensor;
use std::sync::Mutex;
use ultrasound::{ChannelData, LinearArray, PlaneWave};

fn normalized_cube(
    data: &ChannelData,
    array: &LinearArray,
    grid: &ImagingGrid,
    sound_speed: f32,
) -> BeamformResult<TofCube> {
    let mut cube = tof_correct(data, array, grid, PlaneWave::zero_angle(), sound_speed)?;
    cube.normalize();
    Ok(cube)
}

/// Sweeps a row-streaming network over every depth row of `cube` in parallel.
///
/// Image rows are split into disjoint chunks across `num_threads` scoped
/// workers. Each worker calls `worker` once for its chunk's state — a model
/// clone for the baselines, whose `infer_row` needs `&mut self` for its layer
/// caches, or reusable activation buffers for the Tiny-VBF engine — then
/// `infer` per row with the depth row read in place from the cube (a
/// row-major `(cols, channels)` slice: the cube's `[row][col][ch]` layout
/// already is that matrix) and the row's pixels to fill. Each row's output
/// depends only on its own input, so the image is bitwise identical for
/// every thread count.
pub(crate) fn parallel_row_sweep<T, M>(
    cube: &TofCube,
    out: &mut [T],
    num_threads: usize,
    worker: &(impl Fn() -> M + Sync),
    infer: &(impl Fn(&mut M, &[f32], &mut [T]) -> TinyVbfResult<()> + Sync),
) -> TinyVbfResult<()>
where
    T: Send,
{
    let cols = cube.cols();
    let row_len = cols * cube.channels();
    let failure: Mutex<Option<TinyVbfError>> = Mutex::new(None);
    runtime::par_map_rows(out, cols, num_threads, |first_row, block| {
        let mut state = worker();
        for (local, out_row) in block.chunks_mut(cols).enumerate() {
            let start = (first_row + local) * row_len;
            if let Err(e) = infer(&mut state, &cube.as_slice()[start..start + row_len], out_row) {
                *failure.lock().expect("row-sweep mutex poisoned") = Some(e);
                return;
            }
        }
    });
    match failure.into_inner().expect("row-sweep mutex poisoned") {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Row sweep for the real-valued (RF-predicting) baselines: runs
/// `infer` over every cube row and keeps column 0 of each output row.
fn beamform_rf_rows<M: Clone + Sync>(
    model: &M,
    cube: &TofCube,
    infer: impl Fn(&mut M, &Tensor) -> TinyVbfResult<Tensor> + Sync,
) -> TinyVbfResult<Vec<f32>> {
    let (cols, channels) = (cube.cols(), cube.channels());
    let mut rf = vec![0.0f32; cube.rows() * cols];
    parallel_row_sweep(cube, &mut rf, runtime::default_threads(), &|| model.clone(), &|model, row, out_row| {
        let out = infer(model, &Tensor::from_vec(row.to_vec(), &[cols, channels])?)?;
        if out.rows() != cols {
            return Err(TinyVbfError::ShapeMismatch {
                expected: format!("{cols} output tokens"),
                actual: format!("{}", out.rows()),
            });
        }
        for (col, px) in out_row.iter_mut().enumerate() {
            *px = out.at(col, 0);
        }
        Ok(())
    })?;
    Ok(rf)
}

/// Tiny-CNN baseline as a drop-in beamformer.
#[derive(Debug, Clone)]
pub struct TinyCnnBeamformer {
    model: TinyCnn,
}

impl TinyCnnBeamformer {
    /// Wraps a trained Tiny-CNN model.
    pub fn new(model: TinyCnn) -> Self {
        Self { model }
    }

    fn beamform_rf(&self, cube: &TofCube) -> TinyVbfResult<Vec<f32>> {
        beamform_rf_rows(&self.model, cube, |model, input| model.infer_row(input))
    }
}

impl Beamformer for TinyCnnBeamformer {
    fn name(&self) -> &str {
        "Tiny-CNN"
    }

    fn beamform(
        &self,
        data: &ChannelData,
        array: &LinearArray,
        grid: &ImagingGrid,
        sound_speed: f32,
    ) -> BeamformResult<IqImage> {
        let cube = normalized_cube(data, array, grid, sound_speed)?;
        let rf = self
            .beamform_rf(&cube)
            .map_err(|e| BeamformError::InvalidParameter { name: "tiny_cnn", reason: e.to_string() })?;
        rf_to_iq(&rf, grid)
    }
}

/// FCNN baseline as a drop-in beamformer.
#[derive(Debug, Clone)]
pub struct FcnnBeamformer {
    model: Fcnn,
}

impl FcnnBeamformer {
    /// Wraps a trained FCNN model.
    pub fn new(model: Fcnn) -> Self {
        Self { model }
    }

    fn beamform_rf(&self, cube: &TofCube) -> TinyVbfResult<Vec<f32>> {
        beamform_rf_rows(&self.model, cube, |model, input| model.infer_row(input))
    }
}

impl Beamformer for FcnnBeamformer {
    fn name(&self) -> &str {
        "FCNN"
    }

    fn beamform(
        &self,
        data: &ChannelData,
        array: &LinearArray,
        grid: &ImagingGrid,
        sound_speed: f32,
    ) -> BeamformResult<IqImage> {
        let cube = normalized_cube(data, array, grid, sound_speed)?;
        let rf = self
            .beamform_rf(&cube)
            .map_err(|e| BeamformError::InvalidParameter { name: "fcnn", reason: e.to_string() })?;
        rf_to_iq(&rf, grid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TinyVbfConfig;
    use crate::model::TinyVbf;
    use crate::quantized::QuantizedTinyVbfBeamformer;
    use beamforming::plan::FrameFormat;
    use quantize::QuantScheme;
    use ultrasound::{Medium, Phantom, PlaneWaveSimulator};

    fn small_frame() -> (ChannelData, LinearArray, ImagingGrid) {
        let array = LinearArray::small_test_array();
        let sim = PlaneWaveSimulator::new(array.clone(), Medium::soft_tissue(), 0.025);
        let phantom = Phantom::builder(0.01, 0.025).add_point_target(0.0, 0.018, 1.0).build();
        let rf = sim.simulate(&phantom, PlaneWave::zero_angle()).unwrap();
        let grid = ImagingGrid::for_array(&array, 0.014, 0.008, 20, 16);
        (rf, array, grid)
    }

    fn float_beamformer(channels: usize, grid: &ImagingGrid) -> QuantizedTinyVbfBeamformer {
        let config = TinyVbfConfig::small().for_frame(channels, grid.num_cols());
        QuantizedTinyVbfBeamformer::new(&TinyVbf::new(&config).unwrap(), QuantScheme::float())
    }

    #[test]
    fn tiny_vbf_beamformer_produces_grid_shaped_iq() {
        let (rf, array, grid) = small_frame();
        let beamformer = float_beamformer(array.num_elements(), &grid);
        assert_eq!(beamformer.name(), QuantScheme::float().backend_label());
        let iq = beamformer.beamform(&rf, &array, &grid, 1540.0).unwrap();
        assert_eq!(iq.num_pixels(), grid.num_pixels());
        assert!(iq.peak() <= (2.0f32).sqrt() + 1e-5); // tanh bounds both components
    }

    #[test]
    fn tiny_vbf_planned_tof_is_bitwise_identical_to_direct() {
        let (rf, array, grid) = small_frame();
        let beamformer = float_beamformer(array.num_elements(), &grid);

        // Reference: the direct tof_correct + normalize cube.
        let direct_cube = normalized_cube(&rf, &array, &grid, 1540.0).unwrap();
        let direct_iq = beamformer.beamform_cube(&direct_cube, &grid).unwrap();
        let served_iq = beamformer.beamform(&rf, &array, &grid, 1540.0).unwrap();
        assert_eq!(direct_iq, served_iq, "planned ToF must not change the network output");

        // The cache amortises: one stream shape builds one plan.
        beamformer.beamform(&rf, &array, &grid, 1540.0).unwrap();
        let stats = beamformer.cache_stats();
        assert_eq!(stats.misses, 1, "one stream shape must build exactly one ToF plan");
        assert_eq!(stats.hits, 1);
        // Clones (serving workers) share the warm cache.
        let clone = beamformer.clone();
        clone.beamform(&rf, &array, &grid, 1540.0).unwrap();
        assert_eq!(clone.cache_stats().misses, 1, "clones must share the plan cache");
        // prepare() warms the cache through the Beamformer trait.
        beamformer.prepare(&array, &grid, 1540.0, &FrameFormat::of(&rf));
        assert_eq!(beamformer.cache_stats().misses, 1);
        assert_eq!(beamformer.plan_cache_stats().unwrap().misses, 1);
    }

    #[test]
    fn baseline_beamformers_produce_grid_shaped_iq() {
        let (rf, array, grid) = small_frame();
        let cnn = TinyCnnBeamformer::new(TinyCnn::new(array.num_elements(), 3, 1).unwrap());
        let fcnn = FcnnBeamformer::new(Fcnn::new(array.num_elements(), 16, 1).unwrap());
        assert_eq!(cnn.name(), "Tiny-CNN");
        assert_eq!(fcnn.name(), "FCNN");
        for beamformer in [&cnn as &dyn Beamformer, &fcnn as &dyn Beamformer] {
            let iq = beamformer.beamform(&rf, &array, &grid, 1540.0).unwrap();
            assert_eq!(iq.num_pixels(), grid.num_pixels());
        }
    }

    #[test]
    fn parallel_row_sweep_is_identical_across_thread_counts() {
        let (rf, array, grid) = small_frame();
        let beamformer = float_beamformer(array.num_elements(), &grid);
        let cube = normalized_cube(&rf, &array, &grid, 1540.0).unwrap();
        let serial = beamformer.beamform_cube_with_threads(&cube, &grid, 1).unwrap();
        for threads in [2, 3, 8] {
            let parallel = beamformer.beamform_cube_with_threads(&cube, &grid, threads).unwrap();
            assert_eq!(serial, parallel, "threads {threads}");
        }
    }

    #[test]
    fn wrong_channel_count_is_reported() {
        let (rf, array, grid) = small_frame();
        // Model configured for a different channel count.
        let beamformer = float_beamformer(16, &grid);
        assert!(beamformer.beamform(&rf, &array, &grid, 1540.0).is_err());
    }
}
