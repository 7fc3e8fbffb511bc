//! Single-angle plane-wave transmit/receive simulation.
//!
//! The simulator follows the classic scatterer-superposition model used by Field II-like
//! tools: a steered plane wave reaches each scatterer after a transmit delay
//! `t_tx = (z·cosθ + x·sinθ)/c`; the echo travels back to each array element over the
//! geometric distance; the received trace is the sum of amplitude-weighted, delayed
//! copies of the two-way pulse. Amplitude weights combine scatterer reflectivity,
//! element directivity, frequency-dependent attenuation and spherical spreading.

use crate::acquisition::{AcquisitionConfig, ChannelData};
use crate::medium::Medium;
use crate::phantom::Phantom;
use crate::pulse::Pulse;
use crate::transducer::LinearArray;
use crate::{UltrasoundError, UltrasoundResult};
use serde::{Deserialize, Serialize};

/// A steered plane-wave transmission.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlaneWave {
    /// Steering angle in radians (0 = straight down, the paper's single-angle case).
    pub angle: f32,
}

impl PlaneWave {
    /// A non-steered (0°) plane wave — the single-angle insonification the paper uses.
    pub fn zero_angle() -> Self {
        Self { angle: 0.0 }
    }

    /// A plane wave steered by `degrees`.
    pub fn from_degrees(degrees: f32) -> Self {
        Self { angle: degrees.to_radians() }
    }

    /// Transmit delay (seconds) for the wavefront to reach point `(x, z)`.
    pub fn transmit_delay(&self, x: f32, z: f32, sound_speed: f32) -> f32 {
        (z * self.angle.cos() + x * self.angle.sin()) / sound_speed
    }
}

impl Default for PlaneWave {
    fn default() -> Self {
        Self::zero_angle()
    }
}

/// Plane-wave channel-data simulator for a linear array.
///
/// ```
/// use ultrasound::{LinearArray, Medium, Phantom, PlaneWave, PlaneWaveSimulator};
/// let array = LinearArray::small_test_array();
/// let sim = PlaneWaveSimulator::new(array, Medium::soft_tissue(), 0.03);
/// let phantom = Phantom::builder(0.01, 0.03).add_point_target(0.0, 0.02, 1.0).build();
/// let rf = sim.simulate(&phantom, PlaneWave::zero_angle())?;
/// assert_eq!(rf.num_channels(), 32);
/// # Ok::<(), ultrasound::UltrasoundError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PlaneWaveSimulator {
    array: LinearArray,
    medium: Medium,
    pulse: Pulse,
    config: AcquisitionConfig,
    num_threads: usize,
}

impl PlaneWaveSimulator {
    /// Creates a simulator imaging down to `max_depth` metres.
    pub fn new(array: LinearArray, medium: Medium, max_depth: f32) -> Self {
        let pulse = Pulse::from_array(&array);
        let config = AcquisitionConfig::for_depth(&array, medium.sound_speed(), max_depth);
        Self { array, medium, pulse, config, num_threads: default_threads() }
    }

    /// Sets the number of worker threads used during simulation (minimum 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.num_threads = threads.max(1);
        self
    }

    /// The probe geometry being simulated.
    pub fn array(&self) -> &LinearArray {
        &self.array
    }

    /// The propagation medium.
    pub fn medium(&self) -> &Medium {
        &self.medium
    }

    /// The transmit pulse.
    pub fn pulse(&self) -> &Pulse {
        &self.pulse
    }

    /// The acquisition configuration (timing, sample count).
    pub fn config(&self) -> &AcquisitionConfig {
        &self.config
    }

    /// Simulates the received RF channel data for one plane-wave transmission.
    ///
    /// # Errors
    ///
    /// Returns [`UltrasoundError::EmptyPhantom`] when the phantom has no scatterers and
    /// propagates configuration validation errors.
    pub fn simulate(&self, phantom: &Phantom, tx: PlaneWave) -> UltrasoundResult<ChannelData> {
        self.config.validate()?;
        if phantom.is_empty() {
            return Err(UltrasoundError::EmptyPhantom);
        }
        let num_channels = self.array.num_elements();
        let num_samples = self.config.num_samples;
        let fs = self.config.sampling_frequency;
        let c = self.medium.sound_speed();
        let f0 = self.array.center_frequency();
        let half_support = self.pulse.half_duration();
        let support = self.pulse.support_samples(fs);

        let element_xs = self.array.element_positions();
        let scatterers = phantom.scatterers();

        // Each worker fills a disjoint chunk of channels, so the traces can be written
        // without locking and stitched together afterwards. The chunking lives in the
        // shared `runtime` helper; per-channel values depend only on the channel index,
        // so the result is identical for every thread count.
        let mut traces: Vec<Vec<f32>> = vec![Vec::new(); num_channels];
        let (pulse, medium, array, config) = (&self.pulse, &self.medium, &self.array, &self.config);
        runtime::par_chunks_mut(&mut traces, self.num_threads, |first_channel, trace_chunk| {
            for (local, trace) in trace_chunk.iter_mut().enumerate() {
                let xe = element_xs[first_channel + local];
                let mut line = vec![0.0f32; num_samples];
                for s in scatterers {
                    let t_tx = tx.transmit_delay(s.x, s.z, c);
                    let dx = s.x - xe;
                    let rx_dist = (dx * dx + s.z * s.z).sqrt();
                    let t_rx = rx_dist / c;
                    let t_arrival = t_tx + t_rx;
                    let centre_idx = config.time_to_sample(t_arrival);
                    if centre_idx < -(support as f32) || centre_idx > (num_samples + support) as f32 {
                        continue;
                    }
                    // Receive angle relative to the element normal (straight down).
                    let rx_angle = dx.atan2(s.z);
                    let directivity = array.directivity(rx_angle, c);
                    if directivity <= 0.0 {
                        continue;
                    }
                    let path = s.z + rx_dist; // transmit depth + receive distance
                    let attenuation = medium.attenuation_factor(f0, path);
                    let spreading = 1.0e-3 / rx_dist.max(1.0e-3);
                    let amplitude = s.amplitude * directivity * attenuation * spreading;
                    if amplitude == 0.0 {
                        continue;
                    }
                    let k_lo = ((centre_idx - half_support * fs).floor().max(0.0)) as usize;
                    let k_hi = ((centre_idx + half_support * fs).ceil() as usize).min(num_samples.saturating_sub(1));
                    // `k` is both the sample written and the pulse's time
                    // axis; an iterator would hide the window in skip/take.
                    #[allow(clippy::needless_range_loop)]
                    for k in k_lo..=k_hi.min(num_samples - 1) {
                        let t = (k as f32 - centre_idx) / fs;
                        line[k] += amplitude * pulse.evaluate(t);
                    }
                }
                *trace = line;
            }
        });

        let mut data = ChannelData::from_channel_traces(&traces, fs)?;
        data.set_start_time(self.config.start_time);
        Ok(data)
    }
}

fn default_threads() -> usize {
    runtime::default_threads()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_simulator() -> PlaneWaveSimulator {
        PlaneWaveSimulator::new(LinearArray::small_test_array(), Medium::soft_tissue(), 0.03)
    }

    #[test]
    fn zero_angle_delay_depends_only_on_depth() {
        let pw = PlaneWave::zero_angle();
        let c = 1540.0;
        assert!((pw.transmit_delay(0.01, 0.02, c) - pw.transmit_delay(-0.01, 0.02, c)).abs() < 1e-12);
        assert!(pw.transmit_delay(0.0, 0.03, c) > pw.transmit_delay(0.0, 0.02, c));
    }

    #[test]
    fn steered_delay_varies_with_lateral_position() {
        let pw = PlaneWave::from_degrees(10.0);
        let c = 1540.0;
        assert!(pw.transmit_delay(0.01, 0.02, c) > pw.transmit_delay(-0.01, 0.02, c));
    }

    #[test]
    fn empty_phantom_is_rejected() {
        let sim = test_simulator();
        let empty = Phantom::builder(0.01, 0.03).build();
        assert_eq!(sim.simulate(&empty, PlaneWave::zero_angle()).unwrap_err(), UltrasoundError::EmptyPhantom);
    }

    #[test]
    fn point_target_echo_arrives_at_expected_time() {
        let sim = test_simulator();
        let depth = 0.02f32;
        let phantom = Phantom::builder(0.01, 0.03).add_point_target(0.0, depth, 1.0).build();
        let rf = sim.simulate(&phantom, PlaneWave::zero_angle()).unwrap();

        // Centre element is closest to directly above the scatterer: expected two-way
        // time ~ 2 * depth / c.
        let c = sim.medium().sound_speed();
        let fs = rf.sampling_frequency();
        let centre_ch = rf.num_channels() / 2;
        let trace = rf.channel(centre_ch);
        let (peak_idx, _) = trace
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
            .unwrap();
        let expected_idx = 2.0 * depth / c * fs;
        assert!(
            (peak_idx as f32 - expected_idx).abs() < 12.0,
            "peak at {peak_idx}, expected ~{expected_idx}"
        );
    }

    #[test]
    fn echo_is_delayed_more_on_outer_elements() {
        let sim = test_simulator();
        let phantom = Phantom::builder(0.01, 0.03).add_point_target(0.0, 0.02, 1.0).build();
        let rf = sim.simulate(&phantom, PlaneWave::zero_angle()).unwrap();
        let peak_index = |ch: usize| {
            rf.channel(ch)
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
                .map(|(i, _)| i)
                .unwrap()
        };
        let centre = peak_index(rf.num_channels() / 2);
        let edge = peak_index(0);
        assert!(edge > centre, "edge {edge} centre {centre}");
    }

    #[test]
    fn deeper_targets_are_weaker() {
        let sim = PlaneWaveSimulator::new(LinearArray::small_test_array(), Medium::soft_tissue(), 0.05);
        let shallow = Phantom::builder(0.01, 0.05).add_point_target(0.0, 0.01, 1.0).build();
        let deep = Phantom::builder(0.01, 0.05).add_point_target(0.0, 0.04, 1.0).build();
        let rf_shallow = sim.simulate(&shallow, PlaneWave::zero_angle()).unwrap();
        let rf_deep = sim.simulate(&deep, PlaneWave::zero_angle()).unwrap();
        assert!(rf_deep.peak() < rf_shallow.peak());
    }

    #[test]
    fn amplitude_scales_linearly_with_reflectivity() {
        let sim = test_simulator();
        let weak = Phantom::builder(0.01, 0.03).add_point_target(0.0, 0.02, 1.0).build();
        let strong = Phantom::builder(0.01, 0.03).add_point_target(0.0, 0.02, 3.0).build();
        let rf_weak = sim.simulate(&weak, PlaneWave::zero_angle()).unwrap();
        let rf_strong = sim.simulate(&strong, PlaneWave::zero_angle()).unwrap();
        assert!((rf_strong.peak() / rf_weak.peak() - 3.0).abs() < 0.05);
    }

    #[test]
    fn superposition_of_two_targets() {
        // Simulating two well-separated targets equals the sum of simulating each alone.
        let sim = test_simulator();
        let a = Phantom::builder(0.01, 0.03).add_point_target(-0.003, 0.015, 1.0).build();
        let b = Phantom::builder(0.01, 0.03).add_point_target(0.003, 0.025, 1.0).build();
        let both = Phantom::builder(0.01, 0.03)
            .add_point_target(-0.003, 0.015, 1.0)
            .add_point_target(0.003, 0.025, 1.0)
            .build();
        let rf_a = sim.simulate(&a, PlaneWave::zero_angle()).unwrap();
        let rf_b = sim.simulate(&b, PlaneWave::zero_angle()).unwrap();
        let rf_both = sim.simulate(&both, PlaneWave::zero_angle()).unwrap();
        for ch in [0, 8, 16, 31] {
            let ta = rf_a.channel(ch);
            let tb = rf_b.channel(ch);
            let tboth = rf_both.channel(ch);
            for k in (0..ta.len()).step_by(17) {
                assert!((ta[k] + tb[k] - tboth[k]).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn single_thread_matches_multi_thread() {
        let phantom = Phantom::builder(0.01, 0.03)
            .seed(4)
            .speckle_density(50.0)
            .add_point_target(0.0, 0.02, 5.0)
            .build();
        let sim1 = test_simulator().with_threads(1);
        let sim4 = test_simulator().with_threads(4);
        let a = sim1.simulate(&phantom, PlaneWave::zero_angle()).unwrap();
        let b = sim4.simulate(&phantom, PlaneWave::zero_angle()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn steering_shifts_lateral_emphasis() {
        // With a steered transmission the arrival time at the centre element changes by
        // x*sin(theta)/c for off-axis targets.
        let sim = test_simulator();
        let phantom = Phantom::builder(0.02, 0.03).add_point_target(0.005, 0.02, 1.0).build();
        let rf0 = sim.simulate(&phantom, PlaneWave::zero_angle()).unwrap();
        let rf10 = sim.simulate(&phantom, PlaneWave::from_degrees(10.0)).unwrap();
        let peak_idx = |rf: &ChannelData, ch: usize| {
            rf.channel(ch)
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
                .map(|(i, _)| i)
                .unwrap()
        };
        let ch = rf0.num_channels() / 2;
        assert!(peak_idx(&rf10, ch) > peak_idx(&rf0, ch));
    }
}
