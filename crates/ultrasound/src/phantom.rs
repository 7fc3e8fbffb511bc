//! Scatterer phantoms.
//!
//! A phantom is a collection of point scatterers in the imaging plane (lateral `x`,
//! depth `z`). The PICMUS-style evaluation phantoms are built from three ingredients:
//! isolated bright point targets (resolution), uniformly random diffuse scatterers
//! (speckle background) and scatterer-free circular regions (anechoic cysts, contrast).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A single point scatterer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Scatterer {
    /// Lateral position in metres.
    pub x: f32,
    /// Depth in metres (positive into the body).
    pub z: f32,
    /// Reflection amplitude (arbitrary linear units; speckle scatterers are ~N(0,1)).
    pub amplitude: f32,
}

impl Scatterer {
    /// Creates a scatterer at `(x, z)` with the given amplitude.
    pub fn new(x: f32, z: f32, amplitude: f32) -> Self {
        Self { x, z, amplitude }
    }
}

/// A circular region description, used both for carving anechoic cysts and for metric
/// regions of interest.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CircleRegion {
    /// Lateral centre in metres.
    pub cx: f32,
    /// Depth centre in metres.
    pub cz: f32,
    /// Radius in metres.
    pub radius: f32,
}

impl CircleRegion {
    /// Creates a circular region.
    pub fn new(cx: f32, cz: f32, radius: f32) -> Self {
        Self { cx, cz, radius }
    }

    /// Whether a point lies inside the circle.
    pub fn contains(&self, x: f32, z: f32) -> bool {
        let dx = x - self.cx;
        let dz = z - self.cz;
        dx * dx + dz * dz <= self.radius * self.radius
    }
}

/// A collection of scatterers plus metadata about the regions that were used to build
/// it (point-target positions and cyst regions), which downstream metric code needs.
///
/// ```
/// use ultrasound::phantom::Phantom;
/// let phantom = Phantom::builder(0.02, 0.04)
///     .seed(1)
///     .speckle_density(500.0)
///     .add_point_target(0.0, 0.02, 20.0)
///     .add_cyst(0.0, 0.03, 0.004)
///     .build();
/// assert!(!phantom.scatterers().is_empty());
/// assert_eq!(phantom.point_targets().len(), 1);
/// assert_eq!(phantom.cysts().len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Phantom {
    scatterers: Vec<Scatterer>,
    point_targets: Vec<Scatterer>,
    cysts: Vec<CircleRegion>,
    width: f32,
    depth: f32,
}

impl Phantom {
    /// Starts building a phantom covering lateral extent `[-width/2, width/2]` and depth
    /// `(depth_min ≈ 2 mm, depth]`.
    pub fn builder(width: f32, depth: f32) -> PhantomBuilder {
        PhantomBuilder::new(width, depth)
    }

    /// All scatterers (speckle + point targets).
    pub fn scatterers(&self) -> &[Scatterer] {
        &self.scatterers
    }

    /// The bright point targets that were explicitly added.
    pub fn point_targets(&self) -> &[Scatterer] {
        &self.point_targets
    }

    /// The anechoic cyst regions that were carved out.
    pub fn cysts(&self) -> &[CircleRegion] {
        &self.cysts
    }

    /// Lateral extent of the phantom in metres.
    pub fn width(&self) -> f32 {
        self.width
    }

    /// Depth extent of the phantom in metres.
    pub fn depth(&self) -> f32 {
        self.depth
    }

    /// Number of scatterers.
    pub fn len(&self) -> usize {
        self.scatterers.len()
    }

    /// Whether the phantom has no scatterers.
    pub fn is_empty(&self) -> bool {
        self.scatterers.is_empty()
    }
}

/// Builder for [`Phantom`].
#[derive(Debug, Clone)]
pub struct PhantomBuilder {
    width: f32,
    depth: f32,
    min_depth: f32,
    speckle_density: f32,
    speckle_amplitude: f32,
    point_targets: Vec<Scatterer>,
    cysts: Vec<CircleRegion>,
    seed: u64,
}

impl PhantomBuilder {
    fn new(width: f32, depth: f32) -> Self {
        Self {
            width,
            depth,
            min_depth: 2.0e-3,
            speckle_density: 0.0,
            speckle_amplitude: 1.0,
            point_targets: Vec::new(),
            cysts: Vec::new(),
            seed: 0,
        }
    }

    /// Sets the RNG seed so phantom generation is reproducible.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the speckle scatterer density in scatterers per square centimetre.
    ///
    /// PICMUS-style speckle needs ≳ 10 scatterers per resolution cell; the evaluation
    /// configurations pick the density based on the image scale.
    pub fn speckle_density(mut self, per_cm2: f32) -> Self {
        self.speckle_density = per_cm2.max(0.0);
        self
    }

    /// Sets the RMS amplitude of the speckle scatterers.
    pub fn speckle_amplitude(mut self, amplitude: f32) -> Self {
        self.speckle_amplitude = amplitude.max(0.0);
        self
    }

    /// Sets the minimum depth below which no scatterers are placed.
    pub fn min_depth(mut self, min_depth: f32) -> Self {
        self.min_depth = min_depth.max(0.0);
        self
    }

    /// Adds an isolated bright point target.
    pub fn add_point_target(mut self, x: f32, z: f32, amplitude: f32) -> Self {
        self.point_targets.push(Scatterer::new(x, z, amplitude));
        self
    }

    /// Adds an anechoic cyst: speckle scatterers falling inside the circle are removed.
    pub fn add_cyst(mut self, cx: f32, cz: f32, radius: f32) -> Self {
        self.cysts.push(CircleRegion::new(cx, cz, radius));
        self
    }

    /// Generates the scatterer map.
    pub fn build(self) -> Phantom {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let area_cm2 = (self.width * 100.0) * ((self.depth - self.min_depth).max(0.0) * 100.0);
        let n_speckle = (self.speckle_density * area_cm2).round().max(0.0) as usize;
        let mut scatterers = Vec::with_capacity(n_speckle + self.point_targets.len());
        for _ in 0..n_speckle {
            let x = rng.gen_range(-self.width / 2.0..self.width / 2.0);
            let z = rng.gen_range(self.min_depth..self.depth.max(self.min_depth + 1e-6));
            if self.cysts.iter().any(|c| c.contains(x, z)) {
                continue;
            }
            // Rayleigh-distributed speckle magnitude with random sign gives circular
            // Gaussian-like statistics after beam summation.
            let u: f32 = rng.gen_range(1e-6..1.0f32);
            let mut amplitude = self.speckle_amplitude * (-2.0 * u.ln()).sqrt() / std::f32::consts::SQRT_2;
            if rng.gen_bool(0.5) {
                amplitude = -amplitude;
            }
            scatterers.push(Scatterer::new(x, z, amplitude));
        }
        scatterers.extend_from_slice(&self.point_targets);
        Phantom {
            scatterers,
            point_targets: self.point_targets,
            cysts: self.cysts,
            width: self.width,
            depth: self.depth,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_builder_produces_empty_phantom() {
        let p = Phantom::builder(0.02, 0.04).build();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn speckle_density_controls_count() {
        let p = Phantom::builder(0.02, 0.04).seed(3).speckle_density(1000.0).build();
        // area = 2cm x ~3.8cm = 7.6 cm^2 -> ~7600 scatterers
        assert!(p.len() > 6000 && p.len() < 9000, "len {}", p.len());
        let p2 = Phantom::builder(0.02, 0.04).seed(3).speckle_density(100.0).build();
        assert!(p2.len() < p.len() / 5);
    }

    #[test]
    fn scatterers_stay_in_bounds() {
        let p = Phantom::builder(0.03, 0.05).seed(11).speckle_density(300.0).build();
        for s in p.scatterers() {
            assert!(s.x >= -0.015 && s.x <= 0.015);
            assert!(s.z >= 0.002 && s.z <= 0.05);
        }
    }

    #[test]
    fn cysts_are_anechoic() {
        let cyst = CircleRegion::new(0.0, 0.025, 0.004);
        let p = Phantom::builder(0.02, 0.04)
            .seed(5)
            .speckle_density(2000.0)
            .add_cyst(cyst.cx, cyst.cz, cyst.radius)
            .build();
        assert!(!p.is_empty());
        for s in p.scatterers() {
            assert!(!cyst.contains(s.x, s.z), "scatterer inside cyst at ({}, {})", s.x, s.z);
        }
        assert_eq!(p.cysts().len(), 1);
    }

    #[test]
    fn point_targets_are_preserved_inside_cysts_too() {
        // Point targets are added explicitly and are not carved by cysts.
        let p = Phantom::builder(0.02, 0.04)
            .seed(1)
            .add_cyst(0.0, 0.02, 0.005)
            .add_point_target(0.0, 0.02, 10.0)
            .build();
        assert_eq!(p.len(), 1);
        assert_eq!(p.point_targets().len(), 1);
        assert_eq!(p.scatterers()[0].amplitude, 10.0);
    }

    #[test]
    fn same_seed_is_reproducible_different_seed_is_not() {
        let a = Phantom::builder(0.02, 0.03).seed(42).speckle_density(500.0).build();
        let b = Phantom::builder(0.02, 0.03).seed(42).speckle_density(500.0).build();
        let c = Phantom::builder(0.02, 0.03).seed(43).speckle_density(500.0).build();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn circle_region_contains() {
        let c = CircleRegion::new(0.0, 0.01, 0.002);
        assert!(c.contains(0.0, 0.01));
        assert!(c.contains(0.001, 0.0105));
        assert!(!c.contains(0.004, 0.01));
    }

    #[test]
    fn speckle_amplitude_scales_rms() {
        let small = Phantom::builder(0.02, 0.03).seed(2).speckle_density(500.0).speckle_amplitude(1.0).build();
        let large = Phantom::builder(0.02, 0.03).seed(2).speckle_density(500.0).speckle_amplitude(5.0).build();
        let rms = |p: &Phantom| {
            (p.scatterers().iter().map(|s| s.amplitude * s.amplitude).sum::<f32>() / p.len() as f32).sqrt()
        };
        assert!((rms(&large) / rms(&small) - 5.0).abs() < 0.2);
    }
}
