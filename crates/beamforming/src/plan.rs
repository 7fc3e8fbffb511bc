//! Precomputed beamforming plans: per-pixel×channel delay tables and the
//! gathers that replay them.
//!
//! The direct DAS / ToF / MVDR hot loops recompute the same `sqrt`-heavy
//! round-trip geometry for *every frame* of a stream, even though probe, grid,
//! transmit and sound speed are fixed per stream. A [`BeamformPlan`] hoists
//! that work out of the frame loop: one precomputation per
//! `(array, grid, transmit, sound_speed, frame format)` stores each
//! pixel×channel's fractional sample index, `(t_tx + t_rx − t0)·fs`, and
//! every subsequent frame only gathers and blends two samples per entry
//! ([`runtime::simd::lerp_gather`]).
//!
//! There is one layout: one `f32` per entry, `channels` entries per pixel in
//! channel order, pixels row-major. ToF correction
//! ([`BeamformPlan::tof_correct`], [`BeamformPlan::tof_correct_into`]),
//! boxcar DAS ([`BeamformPlan::beamform_rf`]) and the MVDR channel alignment
//! ([`Mvdr::beamform_iq_planned_with_threads`]) all replay it.
//!
//! # Bitwise identity
//!
//! The planned kernels are **bitwise identical** to the direct paths
//! ([`DelayAndSum::beamform_rf_with_threads`],
//! [`crate::tof::tof_correct_with_threads`],
//! [`Mvdr::beamform_iq_with_threads`]) for every sample value, ±∞, NaN and
//! −0 included. The builder evaluates exactly the `f32` index expression the
//! direct loops evaluate per frame, and the gathers recompute `i0`, `frac`
//! and `1 − frac` with the interpolator's operations. Each channel's trace
//! carries two pad samples, `[n] = −0.0` and `[n + 1] = +0.0`, and an
//! out-of-window entry holds the sentinel index `n`, so:
//!
//! * an in-window entry computes `t[i0]·(1 − frac) + t[i0 + 1]·frac`, as
//!   `usdsp::interp::sample_at` does;
//! * an index of exactly `n − 1` computes `x·1 + (−0)·0 = x`, the last
//!   sample, as `sample_at` returns it;
//! * the sentinel computes `(−0)·1 + (+0)·0 = +0`, the direct path's
//!   literal `0.0`, whatever the trace holds.
//!
//! The equivalence tests in `tests/plan_equivalence.rs` assert equality at
//! the bit level across thread counts and SIMD tiers, on non-finite frames
//! too.
//!
//! # Memory footprint
//!
//! A plan stores 4 bytes per pixel×channel entry. For the paper's 368 × 128
//! grid with 128 channels that is `368·128·128 · 4 B = 23 MiB` — see
//! [`BeamformPlan::memory_bytes`].
//!
//! # Lifecycle
//!
//! Build once per stream (construction parallelises over grid rows via
//! [`runtime::par_map_rows`], straight into the final table), then reuse for
//! every frame whose [`FrameFormat`] matches. [`PlannedDas`] and
//! [`PlannedMvdr`] wrap the classical beamformers with an internal
//! capacity-bounded LRU [`PlanCache`] keyed on `(probe, grid, sound speed,
//! frame format)` and implement [`crate::pipeline::Beamformer`], so the
//! `serve` crate's engines amortise the plan across a whole stream, keep
//! several interleaved stream shapes warm at once (the `serve::router`
//! serves N shapes with zero rebuilds after warm-up for N ≤ capacity) and
//! transparently rebuild only on a cold shape. [`PlanCacheStats`] exposes
//! hit/miss/eviction counters.

use crate::das::DelayAndSum;
use crate::grid::ImagingGrid;
use crate::iq::{rf_to_iq_with_threads, IqImage};
use crate::mvdr::Mvdr;
use crate::tof::TofCube;
use crate::{BeamformError, BeamformResult};
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use ultrasound::{ChannelData, LinearArray, PlaneWave};
use usdsp::Complex32;

/// The per-stream frame layout a [`BeamformPlan`] is specialised to.
///
/// Sample indices depend on the sampling frequency and acquisition start time,
/// and the window test depends on the trace length, so a plan is only valid
/// for frames that match this format exactly (checked on every planned call).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameFormat {
    /// Samples per receive channel.
    pub num_samples: usize,
    /// Sampling frequency in Hz.
    pub sampling_frequency: f32,
    /// Time of the first sample relative to transmit, in seconds.
    pub start_time: f32,
}

impl FrameFormat {
    /// The format of one acquisition.
    pub fn of(data: &ChannelData) -> Self {
        Self {
            num_samples: data.num_samples(),
            sampling_frequency: data.sampling_frequency(),
            start_time: data.start_time(),
        }
    }
}

/// A precomputed delay table for one
/// `(array, grid, transmit, sound_speed, frame format)` tuple, plus the
/// gathers that replay it per frame.
///
/// Pixel `p` owns entries `p·channels .. (p+1)·channels`, one per channel in
/// channel order. Each entry is the channel's fractional sample index, or
/// the sentinel `num_samples` outside the acquisition window (see the module
/// docs). The gathers read a channel-major trace buffer with two pad
/// samples per channel (`traces[ch · (num_samples + 2) + k]`), so the inner
/// loop is pure gather-blend with no per-sample geometry or branching.
///
/// ```
/// use beamforming::das::DelayAndSum;
/// use beamforming::grid::ImagingGrid;
/// use beamforming::plan::{BeamformPlan, FrameFormat};
/// use ultrasound::{ChannelData, LinearArray};
///
/// let array = LinearArray::small_test_array();
/// let grid = ImagingGrid::for_array(&array, 0.01, 0.005, 8, 8);
/// let data = ChannelData::zeros(256, array.num_elements(), array.sampling_frequency());
/// let das = DelayAndSum::default();
/// let plan = BeamformPlan::for_das(&das, &array, &grid, 1540.0, FrameFormat::of(&data))?;
/// let planned = plan.beamform_rf(&data)?;
/// let direct = das.beamform_rf(&data, &array, &grid, 1540.0)?;
/// assert_eq!(planned, direct);
/// # Ok::<(), beamforming::BeamformError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BeamformPlan {
    grid: ImagingGrid,
    channels: usize,
    frame: FrameFormat,
    sound_speed: f32,
    transmit: PlaneWave,
    /// Fractional sample index per pixel×channel; `num_samples` out of window.
    idx: Vec<f32>,
}

/// The table entry for fractional sample index `idx` over an `n`-sample
/// trace: `idx` itself inside `[0, n − 1]` (the window of
/// `usdsp::interp::sample_at`, −0 included), else the sentinel `n`, which
/// the gathers read as the two pads. NaN and ±∞ fall outside.
fn table_entry(idx: f32, n: usize) -> f32 {
    if n > 0 && idx >= 0.0 && idx <= (n - 1) as f32 {
        idx
    } else {
        n as f32
    }
}

impl BeamformPlan {
    /// Builds the plan a DAS configuration replays: the ToF plan for its
    /// transmit (see [`BeamformPlan::for_tof`]).
    ///
    /// # Errors
    ///
    /// Same as [`BeamformPlan::for_tof`].
    pub fn for_das(
        das: &DelayAndSum,
        array: &LinearArray,
        grid: &ImagingGrid,
        sound_speed: f32,
        frame: FrameFormat,
    ) -> BeamformResult<Self> {
        Self::for_tof(array, grid, das.transmit, sound_speed, frame)
    }

    /// Builds a plan (one entry per pixel×channel) using the
    /// workspace-default worker threads.
    ///
    /// # Errors
    ///
    /// Returns [`BeamformError::InvalidParameter`] for a non-positive sound
    /// speed, or when the padded complex traces MVDR gathers from
    /// (`2 · channels · (num_samples + 2)` floats) overflow the gathers'
    /// `i32` offsets, or `num_samples` is past 2^24, where the sentinel
    /// index is no longer exact in `f32`.
    pub fn for_tof(
        array: &LinearArray,
        grid: &ImagingGrid,
        tx: PlaneWave,
        sound_speed: f32,
        frame: FrameFormat,
    ) -> BeamformResult<Self> {
        Self::for_tof_with_threads(array, grid, tx, sound_speed, frame, runtime::default_threads())
    }

    /// [`BeamformPlan::for_tof`] with an explicit worker-thread count for the
    /// (row-parallel) construction. The resulting plan is identical for every
    /// thread count.
    ///
    /// # Errors
    ///
    /// Same as [`BeamformPlan::for_tof`].
    pub fn for_tof_with_threads(
        array: &LinearArray,
        grid: &ImagingGrid,
        tx: PlaneWave,
        sound_speed: f32,
        frame: FrameFormat,
        num_threads: usize,
    ) -> BeamformResult<Self> {
        if sound_speed <= 0.0 {
            return Err(BeamformError::InvalidParameter { name: "sound_speed", reason: "must be positive".into() });
        }
        let cols = grid.num_cols();
        let channels = array.num_elements();
        let n = frame.num_samples;
        let floats = channels.checked_mul(n + 2).and_then(|s| s.checked_mul(2));
        if n > 1 << 24 || floats.is_none_or(|floats| floats > i32::MAX as usize) {
            return Err(BeamformError::InvalidParameter {
                name: "frame",
                reason: format!(
                    "{channels} channels × {n} samples overflow the plan's i32 gather offsets or its exact f32 indices"
                ),
            });
        }
        let element_xs = array.element_positions();
        let fs = frame.sampling_frequency;
        let start_time = frame.start_time;

        let row_len = cols * channels;
        let mut idx = vec![0.0f32; grid.num_rows() * row_len];
        runtime::par_map_rows(&mut idx, row_len.max(1), num_threads, |first_row, block| {
            for (local, row) in block.chunks_exact_mut(row_len).enumerate() {
                let z = grid.z(first_row + local);
                for (col, pixel) in row.chunks_exact_mut(channels).enumerate() {
                    let x = grid.x(col);
                    let t_tx = tx.transmit_delay(x, z, sound_speed);
                    for (entry, &xe) in pixel.iter_mut().zip(&element_xs) {
                        let dx = x - xe;
                        let t_rx = (dx * dx + z * z).sqrt() / sound_speed;
                        *entry = table_entry((t_tx + t_rx - start_time) * fs, n);
                    }
                }
            }
        });
        Ok(Self { grid: grid.clone(), channels, frame, sound_speed, transmit: tx, idx })
    }

    /// The imaging grid the plan reconstructs onto.
    pub fn grid(&self) -> &ImagingGrid {
        &self.grid
    }

    /// Number of receive channels the plan expects.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The frame format the plan is specialised to.
    pub fn frame(&self) -> FrameFormat {
        self.frame
    }

    /// Sound speed (m/s) the delays were computed with.
    pub fn sound_speed(&self) -> f32 {
        self.sound_speed
    }

    /// The plane-wave transmit the delays were computed for.
    pub fn transmit(&self) -> PlaneWave {
        self.transmit
    }

    /// Heap footprint of the table in bytes (`entries · 4 B`).
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(self.idx.as_slice())
    }

    /// The entries of one pixel.
    fn entries(&self, pixel: usize) -> Range<usize> {
        pixel * self.channels..(pixel + 1) * self.channels
    }

    /// Samples per padded trace: the frame's samples plus the two pads.
    fn stride(&self) -> usize {
        self.frame.num_samples + 2
    }

    /// Validates that one acquisition matches the planned frame format.
    ///
    /// # Errors
    ///
    /// Returns [`BeamformError::ShapeMismatch`] when the channel count or
    /// frame format differ from what the plan was built for.
    pub fn check_frame(&self, data: &ChannelData) -> BeamformResult<()> {
        if data.num_channels() != self.channels {
            return Err(BeamformError::ShapeMismatch {
                expected: format!("{} channels", self.channels),
                actual: format!("{}", data.num_channels()),
            });
        }
        let format = FrameFormat::of(data);
        if format != self.frame {
            return Err(BeamformError::ShapeMismatch {
                expected: format!(
                    "frame format {} samples @ {} Hz, t0 {}",
                    self.frame.num_samples, self.frame.sampling_frequency, self.frame.start_time
                ),
                actual: format!(
                    "{} samples @ {} Hz, t0 {}",
                    format.num_samples, format.sampling_frequency, format.start_time
                ),
            });
        }
        Ok(())
    }

    /// Beamforms one boxcar-DAS RF image through the plan using the
    /// workspace-default worker threads. Bitwise identical to
    /// [`DelayAndSum::beamform_rf`] with the plan's transmit.
    ///
    /// # Errors
    ///
    /// Returns [`BeamformError::ShapeMismatch`] when the frame does not match
    /// the planned format.
    pub fn beamform_rf(&self, data: &ChannelData) -> BeamformResult<Vec<f32>> {
        self.beamform_rf_with_threads(data, runtime::default_threads())
    }

    /// [`BeamformPlan::beamform_rf`] with an explicit worker-thread count.
    ///
    /// # Errors
    ///
    /// Same as [`BeamformPlan::beamform_rf`].
    pub fn beamform_rf_with_threads(&self, data: &ChannelData, num_threads: usize) -> BeamformResult<Vec<f32>> {
        self.check_frame(data)?;
        let cols = self.grid.num_cols();
        let mut rf = vec![0.0f32; self.grid.num_pixels()];
        let traces = padded_traces(data);
        // Boxcar apodization: the same uniform weight the direct loop applies.
        let boxcar = vec![1.0 / self.channels as f32; self.channels];
        runtime::par_map_rows(&mut rf, cols, num_threads, |first_row, block| {
            let first_pixel = first_row * cols;
            for (i, out) in block.iter_mut().enumerate() {
                let e = self.entries(first_pixel + i);
                *out = runtime::simd::lerp_gather_reduce(&traces, self.stride(), &self.idx[e], &boxcar);
            }
        });
        Ok(rf)
    }

    /// Beamforms one IQ image through the plan (planned RF gather followed by
    /// the per-column analytic signal) using the workspace-default worker
    /// threads. Bitwise identical to [`DelayAndSum::beamform_iq`].
    ///
    /// # Errors
    ///
    /// Same as [`BeamformPlan::beamform_rf`].
    pub fn beamform_iq(&self, data: &ChannelData) -> BeamformResult<IqImage> {
        self.beamform_iq_with_threads(data, runtime::default_threads())
    }

    /// [`BeamformPlan::beamform_iq`] with an explicit worker-thread count.
    ///
    /// # Errors
    ///
    /// Same as [`BeamformPlan::beamform_rf`].
    pub fn beamform_iq_with_threads(&self, data: &ChannelData, num_threads: usize) -> BeamformResult<IqImage> {
        let rf = self.beamform_rf_with_threads(data, num_threads)?;
        rf_to_iq_with_threads(&rf, &self.grid, num_threads)
    }

    /// Computes the ToF-corrected cube through the plan using the
    /// workspace-default worker threads. Bitwise identical to
    /// [`crate::tof::tof_correct`] with the plan's transmit.
    ///
    /// # Errors
    ///
    /// Returns [`BeamformError::ShapeMismatch`] on a frame-format mismatch.
    pub fn tof_correct(&self, data: &ChannelData) -> BeamformResult<TofCube> {
        self.tof_correct_with_threads(data, runtime::default_threads())
    }

    /// [`BeamformPlan::tof_correct`] with an explicit worker-thread count.
    ///
    /// # Errors
    ///
    /// Same as [`BeamformPlan::tof_correct`].
    pub fn tof_correct_with_threads(&self, data: &ChannelData, num_threads: usize) -> BeamformResult<TofCube> {
        let mut cube = TofCube::zeros(self.grid.num_rows(), self.grid.num_cols(), self.channels);
        self.tof_correct_into(data, &mut cube, num_threads)?;
        Ok(cube)
    }

    /// Gathers one frame's ToF-corrected cube into `cube`, overwriting every
    /// entry, over `num_threads` row blocks, and returns the cube's peak
    /// absolute value, bitwise [`TofCube::peak`] of the result (the gather
    /// folds it in, so no second pass reads the cube). A serving loop keeps
    /// one cube across frames and normalizes it with
    /// [`TofCube::normalize_with_peak`].
    ///
    /// # Errors
    ///
    /// Returns [`BeamformError::ShapeMismatch`] on a frame-format mismatch or
    /// when `cube` is not the plan's `rows × cols × channels`.
    pub fn tof_correct_into(&self, data: &ChannelData, cube: &mut TofCube, num_threads: usize) -> BeamformResult<f32> {
        self.check_frame(data)?;
        let shape = (self.grid.num_rows(), self.grid.num_cols(), self.channels);
        if (cube.rows(), cube.cols(), cube.channels()) != shape {
            return Err(BeamformError::ShapeMismatch {
                expected: format!("{}x{}x{} cube", shape.0, shape.1, shape.2),
                actual: format!("{}x{}x{}", cube.rows(), cube.cols(), cube.channels()),
            });
        }
        let traces = padded_traces(data);
        let row_len = shape.1 * shape.2;
        // Peaks are non-negative and never NaN, so their bit patterns order
        // as the values do, and a max does not depend on the block order.
        let peak = AtomicU32::new(0);
        runtime::par_map_rows(cube.as_mut_slice(), row_len, num_threads, |first_row, block| {
            let idx = &self.idx[first_row * row_len..][..block.len()];
            let block_peak = runtime::simd::lerp_gather(&traces, self.stride(), idx, block);
            peak.fetch_max(block_peak.to_bits(), Ordering::Relaxed);
        });
        Ok(f32::from_bits(peak.into_inner()))
    }

    /// Gathers one pixel's aligned complex channel vector (the MVDR alignment
    /// step) from `analytic`, the padded channel-major analytic traces
    /// [`padded_complex_traces`] lays out; `aligned` must hold exactly
    /// [`BeamformPlan::channels`] slots.
    ///
    /// Bitwise identical to sampling each channel with
    /// `usdsp::interp::sample_at_complex` at the pixel's round-trip delay.
    ///
    /// # Panics
    ///
    /// Panics when `aligned` has the wrong length or `pixel` is out of range.
    pub(crate) fn align_pixel_into(&self, pixel: usize, analytic: &[Complex32], aligned: &mut [Complex32]) {
        assert_eq!(aligned.len(), self.channels, "aligned buffer must have one slot per channel");
        runtime::simd::lerp_gather_complex(
            usdsp::complex::as_float_slice(analytic),
            self.stride(),
            &self.idx[self.entries(pixel)],
            usdsp::complex::as_float_slice_mut(aligned),
        );
    }
}

/// Transposes one acquisition into the padded channel-major layout the
/// gathers index: `traces[ch · (n + 2) + k]`, then `−0.0` and `+0.0`.
fn padded_traces(data: &ChannelData) -> Vec<f32> {
    let n = data.num_samples();
    let channels = data.num_channels();
    let mut traces = vec![0.0f32; channels * (n + 2)];
    for (k, interleaved) in data.as_slice().chunks_exact(channels).enumerate() {
        for (ch, &v) in interleaved.iter().enumerate() {
            traces[ch * (n + 2) + k] = v;
        }
    }
    for trace in traces.chunks_exact_mut(n + 2) {
        trace[n] = -0.0;
    }
    traces
}

/// [`padded_traces`] for per-channel complex (analytic) traces of `n`
/// samples each: `(−0, −0)` and `(+0, +0)` pad every trace.
pub(crate) fn padded_complex_traces(traces: &[Vec<Complex32>], n: usize) -> Vec<Complex32> {
    let mut padded = Vec::with_capacity(traces.len() * (n + 2));
    for trace in traces {
        padded.extend_from_slice(&trace[..n]);
        padded.extend([Complex32::new(-0.0, -0.0), Complex32::ZERO]);
    }
    padded
}

/// One cached plan plus the key it was built for.
struct CachedPlan {
    array: LinearArray,
    grid: ImagingGrid,
    sound_speed: f32,
    frame: FrameFormat,
    plan: Arc<BeamformPlan>,
}

impl CachedPlan {
    fn matches(&self, array: &LinearArray, grid: &ImagingGrid, sound_speed: f32, frame: &FrameFormat) -> bool {
        self.sound_speed == sound_speed && self.frame == *frame && &self.grid == grid && &self.array == array
    }
}

/// Counters describing what a [`PlanCache`] has done so far.
///
/// `misses` equals the number of plans built; `hits + misses` equals the
/// number of lookups; `evictions` counts plans dropped to make room once the
/// cache reached its capacity. A warm steady-state stream shows only `hits`
/// growing — a router serving N stream shapes through a cache of capacity
/// ≥ N never rebuilds a plan after warm-up.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups answered from a cached plan.
    pub hits: u64,
    /// Lookups that had to build a plan (cold key).
    pub misses: u64,
    /// Plans evicted because the cache was at capacity.
    pub evictions: u64,
    /// Plans currently held.
    pub entries: usize,
    /// Maximum number of plans held at once.
    pub capacity: usize,
}

impl PlanCacheStats {
    /// Merges another cache's counters into this one (capacity and entries
    /// are summed, so the aggregate still bounds total plan memory).
    pub fn merge(&mut self, other: &PlanCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.entries += other.entries;
        self.capacity += other.capacity;
    }
}

/// Capacity-bounded LRU cache of [`BeamformPlan`]s keyed on
/// `(probe, grid, sound speed, frame format)`.
///
/// The planned beamformer wrappers ([`PlannedDas`], [`PlannedMvdr`]) and the
/// learned-beamformer adapters each own one, so a serving router that
/// multiplexes N stream shapes over one beamformer instance keeps all N plans
/// warm instead of thrashing a single slot on every shape change. Memory is
/// bounded by `capacity × max plan size` (see [`BeamformPlan::memory_bytes`]);
/// the least-recently-used plan is evicted when a build would exceed the
/// capacity.
///
/// Lookups are serialized on an internal mutex; the expensive plan *build*
/// also happens under it, so concurrent first-frames of the same stream build
/// the plan once instead of racing.
pub struct PlanCache {
    slots: Mutex<Vec<CachedPlan>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("PlanCache")
            .field("capacity", &self.capacity)
            .field("entries", &stats.entries)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .field("evictions", &stats.evictions)
            .finish()
    }
}

impl PlanCache {
    /// Default number of slots for the planned beamformer wrappers: enough
    /// for a few interleaved stream shapes without letting paper-scale plans
    /// (≈ 100 MB each) pile up unbounded.
    pub const DEFAULT_CAPACITY: usize = 4;

    /// Creates an empty cache holding at most `capacity` plans (clamped to
    /// ≥ 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            slots: Mutex::new(Vec::new()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Maximum number of plans held at once.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Returns the cached plan for the key, or builds (and caches) it with
    /// `build`, evicting the least-recently-used plan when at capacity.
    ///
    /// # Errors
    ///
    /// Propagates the builder's error; a failed build caches nothing.
    pub fn get_or_build(
        &self,
        array: &LinearArray,
        grid: &ImagingGrid,
        sound_speed: f32,
        frame: &FrameFormat,
        build: impl FnOnce() -> BeamformResult<BeamformPlan>,
    ) -> BeamformResult<Arc<BeamformPlan>> {
        let mut slots = self.slots.lock().expect("plan cache poisoned");
        if let Some(pos) = slots.iter().position(|c| c.matches(array, grid, sound_speed, frame)) {
            // Move-to-front keeps the vector in recency order (front = MRU).
            let cached = slots.remove(pos);
            let plan = Arc::clone(&cached.plan);
            slots.insert(0, cached);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(plan);
        }
        let plan = Arc::new(build()?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        if slots.len() >= self.capacity {
            slots.truncate(self.capacity - 1);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        slots.insert(
            0,
            CachedPlan {
                array: array.clone(),
                grid: grid.clone(),
                sound_speed,
                frame: *frame,
                plan: Arc::clone(&plan),
            },
        );
        Ok(plan)
    }

    /// Whether a plan for the key is currently cached (does not touch the
    /// recency order or the hit/miss counters).
    pub fn contains(&self, array: &LinearArray, grid: &ImagingGrid, sound_speed: f32, frame: &FrameFormat) -> bool {
        self.slots
            .lock()
            .expect("plan cache poisoned")
            .iter()
            .any(|c| c.matches(array, grid, sound_speed, frame))
    }

    /// Total heap footprint of the currently cached plans in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.slots.lock().expect("plan cache poisoned").iter().map(|c| c.plan.memory_bytes()).sum()
    }

    /// Snapshot of the cache counters.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.slots.lock().expect("plan cache poisoned").len(),
            capacity: self.capacity,
        }
    }

    fn builds(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// A [`DelayAndSum`] beamformer that routes every frame through a cached
/// [`BeamformPlan`], rebuilding the plan only when the probe, grid, sound
/// speed or frame format change.
///
/// Implements [`crate::pipeline::Beamformer`], so it is a drop-in for the
/// direct `DelayAndSum` in batch and serving pipelines — with identical
/// (bitwise) outputs and the per-frame delay math amortised away. Streams
/// should warm the cache once via
/// [`prepare`](crate::pipeline::Beamformer::prepare) (the serve crate's
/// `Router::warm` does this) so the first frame doesn't pay the build.
pub struct PlannedDas {
    das: DelayAndSum,
    cache: PlanCache,
}

impl PlannedDas {
    /// Wraps a DAS configuration with an (initially empty) plan cache of
    /// [`PlanCache::DEFAULT_CAPACITY`] slots.
    pub fn new(das: DelayAndSum) -> Self {
        Self::with_cache_capacity(das, PlanCache::DEFAULT_CAPACITY)
    }

    /// [`PlannedDas::new`] with an explicit plan-cache capacity (clamped to
    /// ≥ 1). Size it to the number of distinct stream shapes the wrapper will
    /// serve concurrently; memory is bounded by `capacity × plan size`.
    pub fn with_cache_capacity(das: DelayAndSum, capacity: usize) -> Self {
        Self { das, cache: PlanCache::new(capacity) }
    }

    /// The wrapped DAS configuration.
    pub fn das(&self) -> &DelayAndSum {
        &self.das
    }

    /// How many plans have been built over this wrapper's lifetime (1 for a
    /// homogeneous stream; +1 per cold probe/grid/sound-speed/frame-format
    /// lookup).
    pub fn plans_built(&self) -> u64 {
        self.cache.builds()
    }

    /// Snapshot of the plan-cache counters (hits / misses / evictions).
    pub fn cache_stats(&self) -> PlanCacheStats {
        self.cache.stats()
    }

    fn plan_for(
        &self,
        array: &LinearArray,
        grid: &ImagingGrid,
        sound_speed: f32,
        frame: &FrameFormat,
    ) -> BeamformResult<Arc<BeamformPlan>> {
        self.cache.get_or_build(array, grid, sound_speed, frame, || {
            BeamformPlan::for_das(&self.das, array, grid, sound_speed, *frame)
        })
    }
}

impl crate::pipeline::Beamformer for PlannedDas {
    fn name(&self) -> &str {
        "DAS-planned"
    }

    fn beamform(
        &self,
        data: &ChannelData,
        array: &LinearArray,
        grid: &ImagingGrid,
        sound_speed: f32,
    ) -> BeamformResult<IqImage> {
        let frame = FrameFormat::of(data);
        let plan = self.plan_for(array, grid, sound_speed, &frame)?;
        plan.beamform_iq_with_threads(data, runtime::default_threads())
    }

    fn prepare(&self, array: &LinearArray, grid: &ImagingGrid, sound_speed: f32, frame: &FrameFormat) {
        // Warm-up is best effort: invalid configurations surface their error
        // on the first real `beamform` call instead.
        let _ = self.plan_for(array, grid, sound_speed, frame);
    }

    fn plan_cache_stats(&self) -> Option<PlanCacheStats> {
        Some(self.cache_stats())
    }
}

/// An [`Mvdr`] beamformer that gathers its aligned channel vectors through a
/// cached [`BeamformPlan`] (see [`PlannedDas`] for the caching
/// contract). The per-pixel covariance solve is unchanged; only the
/// per-frame delay/interpolation math is amortised.
pub struct PlannedMvdr {
    mvdr: Mvdr,
    cache: PlanCache,
}

impl PlannedMvdr {
    /// Wraps an MVDR configuration with an (initially empty) plan cache of
    /// [`PlanCache::DEFAULT_CAPACITY`] slots.
    pub fn new(mvdr: Mvdr) -> Self {
        Self::with_cache_capacity(mvdr, PlanCache::DEFAULT_CAPACITY)
    }

    /// [`PlannedMvdr::new`] with an explicit plan-cache capacity (clamped to
    /// ≥ 1); see [`PlannedDas::with_cache_capacity`].
    pub fn with_cache_capacity(mvdr: Mvdr, capacity: usize) -> Self {
        Self { mvdr, cache: PlanCache::new(capacity) }
    }

    /// The wrapped MVDR configuration.
    pub fn mvdr(&self) -> &Mvdr {
        &self.mvdr
    }

    /// How many plans have been built over this wrapper's lifetime.
    pub fn plans_built(&self) -> u64 {
        self.cache.builds()
    }

    /// Snapshot of the plan-cache counters (hits / misses / evictions).
    pub fn cache_stats(&self) -> PlanCacheStats {
        self.cache.stats()
    }

    fn plan_for(
        &self,
        array: &LinearArray,
        grid: &ImagingGrid,
        sound_speed: f32,
        frame: &FrameFormat,
    ) -> BeamformResult<Arc<BeamformPlan>> {
        self.cache.get_or_build(array, grid, sound_speed, frame, || {
            BeamformPlan::for_tof(array, grid, self.mvdr.transmit, sound_speed, *frame)
        })
    }
}

impl crate::pipeline::Beamformer for PlannedMvdr {
    fn name(&self) -> &str {
        "MVDR-planned"
    }

    fn beamform(
        &self,
        data: &ChannelData,
        array: &LinearArray,
        grid: &ImagingGrid,
        sound_speed: f32,
    ) -> BeamformResult<IqImage> {
        let frame = FrameFormat::of(data);
        let plan = self.plan_for(array, grid, sound_speed, &frame)?;
        self.mvdr.beamform_iq_planned_with_threads(data, &plan, runtime::default_threads())
    }

    fn prepare(&self, array: &LinearArray, grid: &ImagingGrid, sound_speed: f32, frame: &FrameFormat) {
        let _ = self.plan_for(array, grid, sound_speed, frame);
    }

    fn plan_cache_stats(&self) -> Option<PlanCacheStats> {
        Some(self.cache_stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Beamformer;

    #[test]
    fn two_taps_matches_sample_at_semantics() {
        // One channel: each table entry through the gather must give
        // `sample_at`'s bits, at the window edges and on non-finite samples.
        let signals = [[1.0f32, -2.0, 3.0, -4.0], [f32::INFINITY, -0.0, f32::NAN, f32::NEG_INFINITY]];
        let indices = [-0.5f32, -0.0, 0.0, 0.4, 1.5, 2.9, 3.0, 3.5, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        for signal in signals {
            let n = signal.len();
            let traces = [&signal[..], &[-0.0, 0.0]].concat();
            for idx in indices {
                let mut gathered = [0.0f32];
                runtime::simd::lerp_gather(&traces, n + 2, &[table_entry(idx, n)], &mut gathered);
                let direct = usdsp::interp::sample_at(&signal, idx);
                let same = gathered[0].to_bits() == direct.to_bits() || (gathered[0].is_nan() && direct.is_nan());
                assert!(same, "signal {signal:?} idx {idx}: {} vs {direct}", gathered[0]);
            }
        }
    }

    #[test]
    fn plan_construction_is_identical_across_thread_counts() {
        let array = LinearArray::small_test_array();
        let grid = ImagingGrid::for_array(&array, 0.01, 0.008, 13, 7);
        let frame = FrameFormat { num_samples: 300, sampling_frequency: array.sampling_frequency(), start_time: 0.0 };
        let tx = PlaneWave::from_degrees(5.0);
        let reference = BeamformPlan::for_tof_with_threads(&array, &grid, tx, 1540.0, frame, 1).unwrap();
        for threads in [2, 3, 5, 16] {
            let plan = BeamformPlan::for_tof_with_threads(&array, &grid, tx, 1540.0, frame, threads).unwrap();
            assert_eq!(plan, reference, "threads {threads}");
        }
    }

    #[test]
    fn dense_plan_has_one_entry_per_pixel_channel() {
        let array = LinearArray::small_test_array();
        let grid = ImagingGrid::for_array(&array, 0.01, 0.008, 6, 4);
        let frame = FrameFormat { num_samples: 128, sampling_frequency: array.sampling_frequency(), start_time: 0.0 };
        let plan = BeamformPlan::for_tof(&array, &grid, PlaneWave::zero_angle(), 1540.0, frame).unwrap();
        let entries = grid.num_pixels() * array.num_elements();
        assert_eq!(plan.idx.len(), entries);
        assert_eq!(plan.memory_bytes(), 4 * entries);
        assert_eq!(plan.channels(), array.num_elements());
        assert_eq!(plan.frame(), frame);
        assert_eq!(plan.sound_speed(), 1540.0);
        assert_eq!(plan.transmit(), PlaneWave::zero_angle());
        // DAS replays the ToF plan of its transmit.
        let das = BeamformPlan::for_das(&DelayAndSum::default(), &array, &grid, 1540.0, frame).unwrap();
        assert_eq!(das, plan);
        // The paper's 368 × 128 grid and 128 channels fit in 35 MiB.
        let array = LinearArray::l11_5v();
        let grid = ImagingGrid::paper_default(&array);
        let frame = FrameFormat { num_samples: 2048, sampling_frequency: array.sampling_frequency(), start_time: 0.0 };
        let plan = BeamformPlan::for_tof(&array, &grid, PlaneWave::zero_angle(), 1540.0, frame).unwrap();
        assert_eq!(plan.memory_bytes(), 4 * 368 * 128 * array.num_elements());
        assert!(plan.memory_bytes() <= 35 << 20, "{} bytes", plan.memory_bytes());
    }

    #[test]
    fn plan_validates_inputs() {
        let array = LinearArray::small_test_array();
        let grid = ImagingGrid::for_array(&array, 0.01, 0.008, 6, 4);
        let frame = FrameFormat { num_samples: 64, sampling_frequency: array.sampling_frequency(), start_time: 0.0 };
        assert!(matches!(
            BeamformPlan::for_das(&DelayAndSum::default(), &array, &grid, -1.0, frame),
            Err(BeamformError::InvalidParameter { .. })
        ));
        // Gathers use i32 offsets into the padded complex traces, which 32
        // channels of 2^27 samples overflow; past 2^24 samples the sentinel
        // index is no longer exact in f32.
        for num_samples in [1 << 27, (1 << 24) + 1] {
            let huge = FrameFormat { num_samples, ..frame };
            assert!(
                matches!(
                    BeamformPlan::for_tof(&array, &grid, PlaneWave::zero_angle(), 1540.0, huge),
                    Err(BeamformError::InvalidParameter { name: "frame", .. })
                ),
                "{num_samples} samples"
            );
        }
        let plan = BeamformPlan::for_das(&DelayAndSum::default(), &array, &grid, 1540.0, frame).unwrap();
        // Wrong channel count.
        let wrong = ChannelData::zeros(64, 8, array.sampling_frequency());
        assert!(matches!(plan.beamform_rf(&wrong), Err(BeamformError::ShapeMismatch { .. })));
        assert!(matches!(plan.tof_correct(&wrong), Err(BeamformError::ShapeMismatch { .. })));
        // Wrong sample count.
        let wrong = ChannelData::zeros(65, array.num_elements(), array.sampling_frequency());
        assert!(matches!(plan.beamform_rf(&wrong), Err(BeamformError::ShapeMismatch { .. })));
    }

    #[test]
    fn zero_sample_format_builds_an_empty_plan_and_rejects_real_frames() {
        // A `num_samples: 0` format builds an empty plan, and every
        // acquisition with samples fails its frame check.
        let array = LinearArray::small_test_array();
        let grid = ImagingGrid::for_array(&array, 0.01, 0.008, 4, 4);
        let frame = FrameFormat { num_samples: 0, sampling_frequency: array.sampling_frequency(), start_time: 0.0 };
        let das = DelayAndSum::default();
        let plan = BeamformPlan::for_das(&das, &array, &grid, 1540.0, frame).unwrap();
        // Nothing to tap: every entry is the sentinel, read as the pads.
        assert!(plan.idx.iter().all(|&idx| idx.to_bits() == 0.0f32.to_bits()));
        let empty = ChannelData::from_vec(Vec::new(), 0, array.num_elements(), array.sampling_frequency()).unwrap();
        assert!(plan.tof_correct(&empty).unwrap().as_slice().iter().all(|v| v.to_bits() == 0));
        assert!(plan.beamform_rf(&empty).unwrap().iter().all(|v| v.to_bits() == 0));
        let data = ChannelData::zeros(16, array.num_elements(), array.sampling_frequency());
        assert!(matches!(plan.beamform_rf(&data), Err(BeamformError::ShapeMismatch { .. })));
    }

    #[test]
    fn planned_das_caches_and_rebuilds() {
        let array = LinearArray::small_test_array();
        let grid = ImagingGrid::for_array(&array, 0.01, 0.008, 8, 6);
        let planned = PlannedDas::new(DelayAndSum::default());
        assert_eq!(planned.name(), "DAS-planned");
        assert_eq!(planned.plans_built(), 0);
        let a = ChannelData::zeros(128, array.num_elements(), array.sampling_frequency());
        planned.beamform(&a, &array, &grid, 1540.0).unwrap();
        planned.beamform(&a, &array, &grid, 1540.0).unwrap();
        assert_eq!(planned.plans_built(), 1, "same stream must reuse the plan");
        let b = ChannelData::zeros(200, array.num_elements(), array.sampling_frequency());
        planned.beamform(&b, &array, &grid, 1540.0).unwrap();
        assert_eq!(planned.plans_built(), 2, "cold format must build");
        planned.prepare(&array, &grid, 1540.0, &FrameFormat::of(&b));
        assert_eq!(planned.plans_built(), 2, "prepare must hit the warm cache");
        // Both formats now live in the multi-slot cache: returning to the
        // first one is a hit, not a rebuild (the single-slot cache thrashed
        // here before PR 4).
        planned.beamform(&a, &array, &grid, 1540.0).unwrap();
        assert_eq!(planned.plans_built(), 2, "returning to a warm format must not rebuild");
        let stats = planned.cache_stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 0);
        assert_eq!(Beamformer::plan_cache_stats(&planned), Some(stats));
    }

    #[test]
    fn plan_cache_evicts_least_recently_used() {
        let array = LinearArray::small_test_array();
        let grid = ImagingGrid::for_array(&array, 0.01, 0.008, 4, 4);
        let cache = PlanCache::new(2);
        assert_eq!(cache.capacity(), 2);
        let das = DelayAndSum::default();
        let fs = array.sampling_frequency();
        let format = |n: usize| FrameFormat { num_samples: n, sampling_frequency: fs, start_time: 0.0 };
        let lookup = |frame: &FrameFormat| {
            cache
                .get_or_build(&array, &grid, 1540.0, frame, || {
                    BeamformPlan::for_das(&das, &array, &grid, 1540.0, *frame)
                })
                .unwrap()
        };
        let (a, b, c) = (format(64), format(96), format(128));
        lookup(&a); // build A          -> [A]
        lookup(&b); // build B          -> [B, A]
        lookup(&a); // hit A (refresh)  -> [A, B]
        lookup(&c); // build C, evict B -> [C, A]
        assert!(cache.contains(&array, &grid, 1540.0, &a), "recently used A must survive");
        assert!(cache.contains(&array, &grid, 1540.0, &c));
        assert!(!cache.contains(&array, &grid, 1540.0, &b), "LRU entry B must be evicted");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions, stats.entries), (1, 3, 1, 2));
        // Refresh A (hit), then bring back evicted B: the miss evicts C,
        // which is now the least recently used entry.
        lookup(&a);
        lookup(&b);
        assert!(!cache.contains(&array, &grid, 1540.0, &c));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (2, 4, 2));
        assert!(cache.memory_bytes() > 0);
        let mut merged = PlanCacheStats::default();
        merged.merge(&stats);
        merged.merge(&stats);
        assert_eq!(merged.misses, 8);
        assert_eq!(merged.capacity, 4);
    }

    #[test]
    fn plan_cache_failed_build_caches_nothing() {
        let array = LinearArray::small_test_array();
        let grid = ImagingGrid::for_array(&array, 0.01, 0.008, 4, 4);
        let cache = PlanCache::new(1);
        let frame = FrameFormat { num_samples: 64, sampling_frequency: array.sampling_frequency(), start_time: 0.0 };
        let err = cache.get_or_build(&array, &grid, 1540.0, &frame, || {
            Err(BeamformError::InvalidParameter { name: "test", reason: "boom".into() })
        });
        assert!(err.is_err());
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.entries), (0, 0), "a failed build must not occupy a slot");
    }
}
