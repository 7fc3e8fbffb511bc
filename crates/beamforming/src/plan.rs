//! Precomputed beamforming plans: per-pixel×channel delay tables and the
//! gather kernels that consume them.
//!
//! The direct DAS / ToF / MVDR hot loops recompute the same `sqrt`-heavy
//! round-trip geometry for *every frame* of a stream, even though probe, grid,
//! transmit and sound speed are fixed per stream. A [`BeamformPlan`] hoists
//! that work out of the frame loop: one precomputation per
//! `(array, grid, transmit, sound_speed, frame format)` stores, in flat
//! cache-friendly arrays, each pixel×channel's two linear-interpolation taps
//! and their weights, so every subsequent frame reduces the inner loop to two
//! multiply-adds over precomputed tables.
//!
//! There is one layout: dense, `channels` entries per pixel in channel order.
//! ToF correction ([`BeamformPlan::tof_correct`]), boxcar DAS
//! ([`BeamformPlan::beamform_rf`]) and the MVDR channel alignment
//! ([`BeamformPlan::align_pixel_into`]) all replay it.
//!
//! # Bitwise identity
//!
//! The planned kernels are **bitwise identical** to the direct paths
//! ([`DelayAndSum::beamform_rf_with_threads`],
//! [`crate::tof::tof_correct_with_threads`],
//! [`Mvdr::beamform_iq_with_threads`]): the builder evaluates exactly the same
//! f32 expressions for delays and interpolation weights the direct loops
//! evaluate per frame, and the gathers reproduce the interpolator's
//! arithmetic operation-for-operation (see `two_taps`). The equivalence tests
//! in `tests/plan_equivalence.rs` assert equality at the bit level across
//! thread counts and SIMD tiers.
//!
//! # Memory footprint
//!
//! A plan stores per pixel×channel entry two `u32` tap indices and two `f32`
//! weights. For the paper's 368 × 128 grid with 128 channels that is
//! `368·128·128 · (2·4 + 2·4) B ≈ 96 MB` — see [`BeamformPlan::memory_bytes`].
//!
//! # Lifecycle
//!
//! Build once per stream (construction parallelises over grid rows via
//! [`runtime::par_collect`]), then reuse for every frame whose
//! [`FrameFormat`] matches. [`PlannedDas`] and [`PlannedMvdr`] wrap the
//! classical beamformers with an internal capacity-bounded LRU [`PlanCache`]
//! keyed on `(probe, grid, sound speed, frame format)` and implement
//! [`crate::pipeline::Beamformer`], so the `serve` crate's engines amortise
//! the plan across a whole stream, keep several interleaved stream shapes
//! warm at once (the `serve::router` serves N shapes with zero rebuilds
//! after warm-up for N ≤ capacity) and transparently rebuild only on a cold
//! shape. [`PlanCacheStats`] exposes hit/miss/eviction counters.

use crate::das::DelayAndSum;
use crate::grid::ImagingGrid;
use crate::iq::{rf_to_iq_with_threads, IqImage};
use crate::mvdr::Mvdr;
use crate::tof::TofCube;
use crate::{BeamformError, BeamformResult};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use ultrasound::{ChannelData, LinearArray, PlaneWave};
use usdsp::Complex32;

/// The per-stream frame layout a [`BeamformPlan`] is specialised to.
///
/// Sample indices depend on the sampling frequency and acquisition start time,
/// and tap clamping depends on the trace length, so a plan is only valid for
/// frames that match this format exactly (checked on every planned call).
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

/// A precomputed delay/interpolation table for one
/// `(array, grid, transmit, sound_speed, frame format)` tuple, plus the
/// gather kernels that replay it per frame.
///
/// Pixel `p` owns entries `p·channels .. (p+1)·channels`, one per channel in
/// channel order. Tap indices are absolute offsets into a channel-major flat
/// trace buffer (`flat[ch * num_samples + k]`), so the gather inner loop is
/// pure load-multiply-accumulate with no per-sample geometry, branching or
/// index arithmetic.
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
    /// First tap, absolute into the channel-major flat buffer.
    tap0: Vec<u32>,
    /// Second tap.
    tap1: Vec<u32>,
    /// First tap weight.
    w0: Vec<f32>,
    /// Second tap weight.
    w1: Vec<f32>,
}

/// Per-row builder output, concatenated (in row order) into the final plan.
#[derive(Default)]
struct RowEntries {
    tap0: Vec<u32>,
    tap1: Vec<u32>,
    w0: Vec<f32>,
    w1: Vec<f32>,
}

/// Two-tap gather coefficients reproducing `usdsp::interp::sample_at` at
/// fractional index `idx` over an `n`-sample trace:
/// `flat[tap0]*w0 + flat[tap1]*w1` is bitwise identical to the direct call.
///
/// Out-of-window samples use weights `(0.0, -0.0)`, which sum to exactly
/// `+0.0` for every finite sample value — matching the direct path's literal
/// `0.0` contribution.
fn two_taps(idx: f32, n: usize) -> (usize, usize, f32, f32) {
    if !idx.is_finite() || idx < 0.0 || idx > (n - 1) as f32 {
        return (0, 0, 0.0, -0.0);
    }
    let i0 = idx.floor() as usize;
    let frac = idx - i0 as f32;
    if i0 + 1 >= n {
        (n - 1, n - 1, 1.0, 0.0)
    } else {
        (i0, i0 + 1, 1.0 - frac, frac)
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
    /// speed, or when `channels × num_samples` overflows the plan's `u32` tap
    /// indices.
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
        let rows = grid.num_rows();
        let cols = grid.num_cols();
        let channels = array.num_elements();
        let n = frame.num_samples;
        if channels.checked_mul(n).is_none_or(|taps| taps > u32::MAX as usize) {
            return Err(BeamformError::InvalidParameter {
                name: "frame",
                reason: format!("{channels} channels × {n} samples overflow the plan's u32 tap indices"),
            });
        }
        let element_xs = array.element_positions();
        let fs = frame.sampling_frequency;
        let start_time = frame.start_time;

        let row_entries: Vec<RowEntries> = runtime::par_collect(rows, num_threads, |row| {
            if n == 0 {
                // Degenerate zero-sample frames have nothing to tap; the
                // gathers special-case the empty plan instead.
                return RowEntries::default();
            }
            // Sized exactly: growing each row by doubling costs about 10 MB
            // of extra peak RSS while building the paper-grid plan.
            let entries = cols * channels;
            let mut out = RowEntries {
                tap0: Vec::with_capacity(entries),
                tap1: Vec::with_capacity(entries),
                w0: Vec::with_capacity(entries),
                w1: Vec::with_capacity(entries),
            };
            let z = grid.z(row);
            for col in 0..cols {
                let x = grid.x(col);
                let t_tx = tx.transmit_delay(x, z, sound_speed);
                for (ch, &xe) in element_xs.iter().enumerate() {
                    let dx = x - xe;
                    let t_rx = (dx * dx + z * z).sqrt() / sound_speed;
                    let idx = (t_tx + t_rx - start_time) * fs;
                    let (t0, t1, w0, w1) = two_taps(idx, n);
                    out.tap0.push((ch * n + t0) as u32);
                    out.tap1.push((ch * n + t1) as u32);
                    out.w0.push(w0);
                    out.w1.push(w1);
                }
            }
            out
        });

        let total: usize = row_entries.iter().map(|r| r.tap0.len()).sum();
        let mut plan = Self {
            grid: grid.clone(),
            channels,
            frame,
            sound_speed,
            transmit: tx,
            tap0: Vec::with_capacity(total),
            tap1: Vec::with_capacity(total),
            w0: Vec::with_capacity(total),
            w1: Vec::with_capacity(total),
        };
        for row in row_entries {
            plan.tap0.extend_from_slice(&row.tap0);
            plan.tap1.extend_from_slice(&row.tap1);
            plan.w0.extend_from_slice(&row.w0);
            plan.w1.extend_from_slice(&row.w1);
        }
        Ok(plan)
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

    /// Approximate heap footprint of the tables in bytes
    /// (`entries · (2 taps + 2 weights) · 4 B`).
    pub fn memory_bytes(&self) -> usize {
        4 * (self.tap0.len() + self.tap1.len() + self.w0.len() + self.w1.len())
    }

    /// The entries of one pixel.
    fn entries(&self, pixel: usize) -> Range<usize> {
        pixel * self.channels..(pixel + 1) * self.channels
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
        if self.tap0.is_empty() {
            // Zero-sample frames: every tap is out of window, the image stays 0.
            return Ok(rf);
        }
        let flat = flatten_traces(data);
        // Boxcar apodization: the same uniform weight the direct loop applies.
        let boxcar = vec![1.0 / self.channels as f32; self.channels];
        runtime::par_map_rows(&mut rf, cols, num_threads, |first_row, block| {
            let first_pixel = first_row * cols;
            for (i, out) in block.iter_mut().enumerate() {
                let e = self.entries(first_pixel + i);
                *out = runtime::simd::das_gather_reduce(
                    &flat,
                    &self.tap0[e.clone()],
                    &self.tap1[e.clone()],
                    &self.w0[e.clone()],
                    &self.w1[e],
                    &boxcar,
                );
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
        self.check_frame(data)?;
        let cols = self.grid.num_cols();
        let channels = self.channels;
        let mut cube = TofCube::zeros(self.grid.num_rows(), cols, channels);
        if self.tap0.is_empty() {
            // Zero-sample frames: every tap is out of window, the cube stays 0.
            return Ok(cube);
        }
        let flat = flatten_traces(data);
        let row_stride = cols * channels;
        runtime::par_map_rows(cube.as_mut_slice(), row_stride, num_threads, |first_row, block| {
            for (local, row_data) in block.chunks_mut(row_stride).enumerate() {
                let first_pixel = (first_row + local) * cols;
                for (col, pixel) in row_data.chunks_mut(channels).enumerate() {
                    let e = self.entries(first_pixel + col);
                    runtime::simd::gather_two_tap(
                        &flat,
                        &self.tap0[e.clone()],
                        &self.tap1[e.clone()],
                        &self.w0[e.clone()],
                        &self.w1[e],
                        pixel,
                    );
                }
            }
        });
        Ok(cube)
    }

    /// Gathers one pixel's aligned complex channel vector (the MVDR alignment
    /// step). `analytic_flat` is the channel-major flat analytic-signal buffer
    /// (`analytic_flat[ch * num_samples + k]`); `aligned` must hold exactly
    /// [`BeamformPlan::channels`] slots.
    ///
    /// Bitwise identical to sampling each channel with
    /// `usdsp::interp::sample_at_complex` at the pixel's round-trip delay.
    ///
    /// # Panics
    ///
    /// Panics when `aligned` has the wrong length or `pixel` is out of range.
    pub fn align_pixel_into(&self, pixel: usize, analytic_flat: &[Complex32], aligned: &mut [Complex32]) {
        assert_eq!(aligned.len(), self.channels, "aligned buffer must have one slot per channel");
        if self.tap0.is_empty() {
            // Zero-sample frames: every channel samples outside the window.
            aligned.fill(Complex32::ZERO);
            return;
        }
        let e = self.entries(pixel);
        // Component-wise complex two-tap blend as interleaved float lanes:
        // out.re/out.im each get flat*w0 + flat*w1, exactly the `scale`+`add`
        // expression the scalar path evaluates.
        runtime::simd::gather_two_tap_interleaved(
            usdsp::complex::as_float_slice(analytic_flat),
            &self.tap0[e.clone()],
            &self.tap1[e.clone()],
            &self.w0[e.clone()],
            &self.w1[e],
            usdsp::complex::as_float_slice_mut(aligned),
        );
    }
}

/// Transposes one acquisition into the channel-major flat layout the gather
/// kernels index (`flat[ch * num_samples + k]`).
pub(crate) fn flatten_traces(data: &ChannelData) -> Vec<f32> {
    let n = data.num_samples();
    let channels = data.num_channels();
    let samples = data.as_slice();
    let mut flat = vec![0.0f32; channels * n];
    for k in 0..n {
        let interleaved = &samples[k * channels..(k + 1) * channels];
        for (ch, &v) in interleaved.iter().enumerate() {
            flat[ch * n + k] = v;
        }
    }
    flat
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
        let signal = [1.0f32, -2.0, 3.0, -4.0];
        for idx in [-0.5f32, 0.0, 0.4, 1.5, 2.9, 3.0, 3.5, f32::NAN] {
            let (t0, t1, w0, w1) = two_taps(idx, signal.len());
            let gathered = signal[t0] * w0 + signal[t1] * w1;
            let direct = usdsp::interp::sample_at(&signal, idx);
            assert_eq!(gathered.to_bits(), direct.to_bits(), "idx {idx}");
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
        assert_eq!(plan.tap0.len(), entries);
        assert_eq!(plan.memory_bytes(), 16 * entries);
        assert_eq!(plan.channels(), array.num_elements());
        assert_eq!(plan.frame(), frame);
        assert_eq!(plan.sound_speed(), 1540.0);
        assert_eq!(plan.transmit(), PlaneWave::zero_angle());
        // DAS replays the ToF plan of its transmit.
        let das = BeamformPlan::for_das(&DelayAndSum::default(), &array, &grid, 1540.0, frame).unwrap();
        assert_eq!(das, plan);
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
        // Taps are u32 offsets into the channel-major buffer: 32 channels of
        // 2^27 samples span 2^32 of them, one past the largest tap.
        let huge = FrameFormat { num_samples: 1 << 27, ..frame };
        assert!(matches!(
            BeamformPlan::for_tof(&array, &grid, PlaneWave::zero_angle(), 1540.0, huge),
            Err(BeamformError::InvalidParameter { name: "frame", .. })
        ));
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
        assert!(plan.tap0.is_empty());
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
