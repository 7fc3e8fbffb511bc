//! Quality-aware graceful degradation: the load-shedding ladder.
//!
//! The Tiny-VBF paper's premise is that image precision is a *tradeable*
//! resource: Table III's fixed-point schemes buy resource efficiency with
//! SQNR. This module closes that trade-off into a serving feedback loop — a
//! router configured with a [`DegradeConfig`] watches two signals per stream
//! and moves the stream along a configurable **scheme ladder** (an ordered
//! list of backend labels, best quality first, e.g.
//! `tiny-vbf-fp → tiny-vbf-fx24 → tiny-vbf-fx20 → tiny-vbf-fx16`):
//!
//! * **deadline-expiry rate** (the PR-4 latency-priority signal): when the
//!   fraction of a stream's requests that expire in the queue crosses
//!   [`DegradeConfig::downshift_expiry_rate`], the stream **downshifts** one
//!   rung — it deliberately serves a narrower/cheaper scheme so the system
//!   degrades image precision *before* it degrades availability;
//! * **rolling SQNR** (the PR-5 accuracy-proxy signal): when the current
//!   rung's windowed SQNR falls below [`DegradeConfig::sqnr_floor_db`], the
//!   stream **upshifts** back to a wider scheme and the abandoned rung is
//!   barred for a few windows — quality sets a floor that load pressure
//!   cannot push through.
//!
//! Decisions are made at fixed-size observation **windows** (every
//! [`DegradeConfig::window`] completed-or-expired requests) with two
//! anti-oscillation guards:
//!
//! * **hysteresis** — the upshift threshold
//!   ([`DegradeConfig::upshift_expiry_rate`]) is strictly below the downshift
//!   threshold, so a stream sitting near one threshold cannot alternate;
//! * **cooldown** — after any shift, at least
//!   [`DegradeConfig::cooldown_windows`] further windows must close before
//!   the next shift, in either direction (asserted under random traces by
//!   `serve/tests/degrade.rs`).
//!
//! The machinery is deliberately wall-clock-free: [`LadderState`] is a pure
//! state machine driven only by observation counts, so its behaviour is
//! deterministic and property-testable. Requests that are **not** downshifted
//! run on their original backend unchanged, preserving the workspace's
//! bitwise-determinism contract for every untouched request.

use crate::router::StreamSpec;
use crate::{recover, ServeError, ServeResult};
use beamforming::pipeline::QuantQualityStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Configuration of the router's graceful-degradation policy.
///
/// Attach with [`crate::Router::with_degrade`] (or
/// [`crate::Router::with_policies`]). Streams whose backend label equals the
/// *head* (first element) of one of [`DegradeConfig::ladders`] are managed;
/// every other stream is routed untouched.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradeConfig {
    /// The scheme ladders, one per managed base backend. Each ladder lists
    /// backend labels best-quality-first; rung 0 (the head) is the label
    /// streams submit under, later rungs are the cheaper fallbacks the
    /// engine factory must also understand.
    pub ladders: Vec<Vec<String>>,
    /// Observation-window length: a shift decision is evaluated every
    /// `window` completed-or-expired requests of the stream.
    pub window: usize,
    /// Minimum number of windows that must close between two shifts of one
    /// stream (in either direction) — the anti-oscillation cooldown.
    pub cooldown_windows: u32,
    /// Windowed deadline-expiry rate at or above which a stream downshifts
    /// one rung (serves the next-cheaper scheme).
    pub downshift_expiry_rate: f64,
    /// Windowed expiry rate at or below which a stream upshifts one rung
    /// back toward full quality. Must be strictly below
    /// [`DegradeConfig::downshift_expiry_rate`] (hysteresis band).
    pub upshift_expiry_rate: f64,
    /// Optional quality floor: when the current rung's windowed SQNR (dB)
    /// drops below this, the stream upshifts regardless of load and the
    /// abandoned rung is barred for
    /// [`DegradeConfig::quality_bar_windows`] windows. `None` disables the
    /// quality signal.
    pub sqnr_floor_db: Option<f64>,
    /// How many windows a rung abandoned for quality reasons stays barred
    /// from load-driven downshifts.
    pub quality_bar_windows: u32,
}

impl Default for DegradeConfig {
    fn default() -> Self {
        Self {
            ladders: Vec::new(),
            window: 32,
            cooldown_windows: 2,
            downshift_expiry_rate: 0.10,
            upshift_expiry_rate: 0.01,
            sqnr_floor_db: None,
            quality_bar_windows: 4,
        }
    }
}

impl DegradeConfig {
    /// A config managing one ladder, with the default thresholds.
    ///
    /// ```
    /// use serve::DegradeConfig;
    ///
    /// let config = DegradeConfig::with_ladder(
    ///     ["tiny-vbf-fp", "tiny-vbf-fx24", "tiny-vbf-fx20", "tiny-vbf-fx16"]
    ///         .map(String::from)
    ///         .to_vec(),
    /// );
    /// assert!(config.validate().is_ok());
    /// ```
    pub fn with_ladder(ladder: Vec<String>) -> Self {
        Self { ladders: vec![ladder], ..Self::default() }
    }

    /// Builds a calibrated single-ladder config from measured per-rung image
    /// quality (the offline `crates/evals` pass) instead of hand-picked
    /// constants.
    ///
    /// The ladder is ordered by **measured** quality, best first — a stable
    /// sort on [`RungMeasurement::quality_score`] descending, so rungs the
    /// evaluation cannot distinguish keep their given relative order. The
    /// SQNR floor is set `3 dB` below the worst rung's *measured* SQNR:
    /// window-to-window jitter of a healthy bottom rung stays above it,
    /// while a genuine quality collapse (kernel drift, poisoned counters)
    /// still trips the upshift. Rungs whose SQNR is non-finite (exact
    /// backends report `+inf`) don't constrain the floor; when no rung
    /// reports a finite SQNR the floor is disabled.
    ///
    /// Requests on rung 0 are routed untouched (the controller only
    /// rewrites the effective backend below rung 0), so calibration never
    /// perturbs full-quality traffic — asserted by `serve/tests/degrade.rs`.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] when fewer than two rungs are measured,
    /// a quality score is NaN, or two measurements share a backend label.
    pub fn from_quality_profile(measurements: &[RungMeasurement]) -> ServeResult<Self> {
        if measurements.len() < 2 {
            return Err(ServeError::InvalidConfig(
                "calibration needs at least two measured rungs".into(),
            ));
        }
        if let Some(bad) = measurements.iter().find(|m| m.quality_score.is_nan()) {
            return Err(ServeError::InvalidConfig(format!(
                "rung `{}` has a NaN quality score",
                bad.backend
            )));
        }
        let mut ordered: Vec<&RungMeasurement> = measurements.iter().collect();
        ordered.sort_by(|a, b| {
            b.quality_score.partial_cmp(&a.quality_score).expect("scores checked non-NaN")
        });
        let ladder: Vec<String> = ordered.iter().map(|m| m.backend.clone()).collect();
        let floor = ordered
            .iter()
            .map(|m| m.sqnr_db)
            .filter(|db| db.is_finite())
            .fold(f64::INFINITY, f64::min);
        let config = Self {
            sqnr_floor_db: floor.is_finite().then_some(floor - 3.0),
            ..Self::with_ladder(ladder)
        };
        config.validate()?;
        Ok(config)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] when a ladder is shorter than two rungs
    /// or repeats a label, two ladders share a head label, the window is
    /// zero, a rate is outside `[0, 1]`, or the hysteresis band is empty
    /// (`upshift_expiry_rate >= downshift_expiry_rate`).
    pub fn validate(&self) -> ServeResult<()> {
        if self.window == 0 {
            return Err(ServeError::InvalidConfig("degrade window must be >= 1".into()));
        }
        if !(0.0..=1.0).contains(&self.downshift_expiry_rate) || !(0.0..=1.0).contains(&self.upshift_expiry_rate) {
            return Err(ServeError::InvalidConfig("expiry rates must be within [0, 1]".into()));
        }
        if self.upshift_expiry_rate >= self.downshift_expiry_rate {
            return Err(ServeError::InvalidConfig(
                "upshift_expiry_rate must be strictly below downshift_expiry_rate (hysteresis)".into(),
            ));
        }
        for ladder in &self.ladders {
            if ladder.len() < 2 {
                return Err(ServeError::InvalidConfig("a ladder needs at least two rungs".into()));
            }
            let mut labels = ladder.clone();
            labels.sort_unstable();
            labels.dedup();
            if labels.len() != ladder.len() {
                return Err(ServeError::InvalidConfig(format!("ladder {ladder:?} repeats a label")));
            }
        }
        let mut heads: Vec<&String> = self.ladders.iter().map(|l| &l[0]).collect();
        heads.sort_unstable();
        heads.dedup();
        if heads.len() != self.ladders.len() {
            return Err(ServeError::InvalidConfig("two ladders share a head label".into()));
        }
        Ok(())
    }

    /// Index of the ladder whose head is `backend`, if any.
    fn ladder_for(&self, backend: &str) -> Option<usize> {
        self.ladders.iter().position(|l| l[0] == backend)
    }

    fn tuning(&self) -> LadderTuning {
        LadderTuning {
            window: self.window,
            cooldown_windows: self.cooldown_windows,
            downshift_expiry_rate: self.downshift_expiry_rate,
            upshift_expiry_rate: self.upshift_expiry_rate,
            sqnr_floor_db: self.sqnr_floor_db,
            quality_bar_windows: self.quality_bar_windows,
        }
    }
}

/// One backend rung's measured image quality — the input row of
/// [`DegradeConfig::from_quality_profile`].
///
/// Produced offline by the `crates/evals` subsystem from phantom-scene
/// renders: `quality_score` condenses the paper's Table I/II metrics
/// (CR/CNR/gCNR and FWHM resolution) into one comparable scalar where
/// **higher is better**, and `sqnr_db` is the rung's measured
/// signal-to-quantization-noise ratio on the same scenes (`+inf` for exact
/// backends). `serve` deliberately knows nothing about how the score is
/// computed — only that its ordering is the measured quality ordering.
#[derive(Debug, Clone, PartialEq)]
pub struct RungMeasurement {
    /// Backend label of the rung (e.g. `tiny-vbf-fx16`).
    pub backend: String,
    /// Condensed image-quality score, higher is better. NaN is rejected.
    pub quality_score: f64,
    /// Measured SQNR in dB on the evaluation scenes; non-finite values
    /// (exact backends) don't constrain the calibrated floor.
    pub sqnr_db: f64,
}

/// The shift thresholds of a [`DegradeConfig`], detached from the ladder
/// labels so the pure [`LadderState`] machine can be driven without specs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LadderTuning {
    /// See [`DegradeConfig::window`].
    pub window: usize,
    /// See [`DegradeConfig::cooldown_windows`].
    pub cooldown_windows: u32,
    /// See [`DegradeConfig::downshift_expiry_rate`].
    pub downshift_expiry_rate: f64,
    /// See [`DegradeConfig::upshift_expiry_rate`].
    pub upshift_expiry_rate: f64,
    /// See [`DegradeConfig::sqnr_floor_db`].
    pub sqnr_floor_db: Option<f64>,
    /// See [`DegradeConfig::quality_bar_windows`].
    pub quality_bar_windows: u32,
}

/// A single ladder move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shift {
    /// One rung down the ladder: a narrower/cheaper scheme (load shedding).
    Down,
    /// One rung up the ladder: back toward full quality.
    Up,
}

/// The pure per-stream degradation state machine.
///
/// Driven by [`LadderState::record`] (one call per completed or expired
/// request) and [`LadderState::end_window`] (called when `record` reports a
/// full window); entirely free of wall-clock time, so identical observation
/// traces produce identical shift sequences. `serve/tests/degrade.rs`
/// property-tests the no-oscillation guarantee over random traces.
#[derive(Debug, Clone)]
pub struct LadderState {
    num_rungs: usize,
    rung: usize,
    window_completed: u64,
    window_expired: u64,
    windows_closed: u64,
    last_shift_window: Option<u64>,
    /// `(max_allowed_rung, barred_until_window)` after a quality upshift.
    bar: Option<(usize, u64)>,
}

impl LadderState {
    /// A fresh machine at rung 0 of a `num_rungs`-rung ladder.
    ///
    /// # Panics
    ///
    /// Panics when `num_rungs` is zero.
    pub fn new(num_rungs: usize) -> Self {
        assert!(num_rungs >= 1, "a ladder needs at least one rung");
        Self {
            num_rungs,
            rung: 0,
            window_completed: 0,
            window_expired: 0,
            windows_closed: 0,
            last_shift_window: None,
            bar: None,
        }
    }

    /// The current rung (0 = best quality).
    pub fn rung(&self) -> usize {
        self.rung
    }

    /// Number of observation windows closed so far.
    pub fn windows_closed(&self) -> u64 {
        self.windows_closed
    }

    /// Records one request outcome. Returns `true` when the observation
    /// window just filled — the caller must then invoke
    /// [`LadderState::end_window`] with the window's quality sample.
    pub fn record(&mut self, expired: bool, tuning: &LadderTuning) -> bool {
        if expired {
            self.window_expired += 1;
        } else {
            self.window_completed += 1;
        }
        (self.window_completed + self.window_expired) >= tuning.window as u64
    }

    /// Closes the observation window and returns the shift taken, if any.
    ///
    /// `window_sqnr_db` is the current rung's SQNR over this window
    /// (`f64::INFINITY` for exact backends or when no quality data exists; a
    /// NaN is treated as *below* any floor — quality data poisoned by NaN
    /// frames must read as bad, not as fine).
    pub fn end_window(&mut self, tuning: &LadderTuning, window_sqnr_db: f64) -> Option<Shift> {
        let expired = self.window_expired;
        let total = self.window_completed + expired;
        self.window_completed = 0;
        self.window_expired = 0;
        self.windows_closed += 1;
        if let Some((_, until)) = self.bar {
            if self.windows_closed >= until {
                self.bar = None;
            }
        }
        let expiry_rate = if total == 0 { 0.0 } else { expired as f64 / total as f64 };
        let cooled = self
            .last_shift_window
            .is_none_or(|w| self.windows_closed.saturating_sub(w) >= u64::from(tuning.cooldown_windows));
        if !cooled {
            return None;
        }
        // `!(x >= floor)` instead of `x < floor`: NaN must count as bad.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        let quality_bad = tuning.sqnr_floor_db.is_some_and(|floor| !(window_sqnr_db >= floor));
        let shift = if quality_bad && self.rung > 0 {
            // Quality floor violated: fall back to the wider scheme and bar
            // the abandoned rung so load pressure cannot immediately push the
            // stream back into it.
            self.bar = Some((self.rung - 1, self.windows_closed + u64::from(tuning.quality_bar_windows)));
            self.rung -= 1;
            Some(Shift::Up)
        } else if !quality_bad
            && expiry_rate >= tuning.downshift_expiry_rate
            && self.rung + 1 < self.num_rungs
            && self.bar.is_none_or(|(max, _)| self.rung < max)
        {
            self.rung += 1;
            Some(Shift::Down)
        } else if !quality_bad && expiry_rate <= tuning.upshift_expiry_rate && self.rung > 0 {
            self.rung -= 1;
            Some(Shift::Up)
        } else {
            None
        };
        if shift.is_some() {
            self.last_shift_window = Some(self.windows_closed);
        }
        shift
    }
}

/// Snapshot of one managed stream's degradation state (an element of
/// [`crate::RouterStats::degrade`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradeStats {
    /// The stream's compact label (see [`StreamSpec::label`]), under its
    /// *base* (rung-0) backend.
    pub stream: String,
    /// The stream's ladder, best quality first.
    pub ladder: Vec<String>,
    /// Current rung index (0 = serving at full quality).
    pub rung: usize,
    /// Backend label currently serving the stream.
    pub backend: String,
    /// Load-driven downshifts taken so far.
    pub downshifts: u64,
    /// Upshifts taken so far (load subsided or quality floor violated).
    pub upshifts: u64,
    /// Requests of this stream lost to deadline expiry — the load that was
    /// actually shed. The ladder's purpose is to keep this near zero.
    pub sheds: u64,
    /// Observation windows closed so far.
    pub windows: u64,
}

struct StreamState {
    base: StreamSpec,
    ladder: usize,
    machine: LadderState,
    /// Cumulative quality counters of the current rung's engine at the last
    /// window close (`None` right after a shift — the rung changed, so the
    /// next window's delta must restart from the new engine's counters).
    last_quality: Option<QuantQualityStats>,
    downshifts: u64,
    upshifts: u64,
    sheds: u64,
}

/// SQNR of one observation window from two cumulative snapshots.
fn window_sqnr_db(current: Option<QuantQualityStats>, previous: Option<QuantQualityStats>) -> f64 {
    let Some(current) = current else {
        return f64::INFINITY; // exact backend: nothing to degrade on
    };
    let prev = previous.unwrap_or_default();
    let signal = current.signal_energy - prev.signal_energy;
    let noise = current.noise_energy - prev.noise_energy;
    if signal.is_nan() || noise.is_nan() {
        return f64::NEG_INFINITY; // poisoned counters read as bad quality
    }
    if noise <= 0.0 {
        return f64::INFINITY;
    }
    10.0 * (signal.max(0.0) / noise).log10()
}

/// The router-side driver: per-stream [`LadderState`]s keyed by base
/// [`StreamSpec`], plus the shift/shed counters surfaced in
/// [`crate::RouterStats`].
pub(crate) struct DegradeController {
    config: DegradeConfig,
    tuning: LadderTuning,
    streams: Mutex<Vec<StreamState>>,
    downshifts: AtomicU64,
    upshifts: AtomicU64,
    sheds: AtomicU64,
}

impl DegradeController {
    pub(crate) fn new(config: DegradeConfig) -> ServeResult<Self> {
        config.validate()?;
        let tuning = config.tuning();
        Ok(Self {
            config,
            tuning,
            streams: Mutex::new(Vec::new()),
            downshifts: AtomicU64::new(0),
            upshifts: AtomicU64::new(0),
            sheds: AtomicU64::new(0),
        })
    }

    /// The spec a request of `spec`'s stream should actually be served under
    /// right now. `None` when the stream is unmanaged or at rung 0 — the
    /// caller must then use the original spec untouched (bitwise-determinism
    /// contract for non-downshifted requests).
    pub(crate) fn route(&self, spec: &StreamSpec) -> Option<StreamSpec> {
        let ladder = self.config.ladder_for(&spec.backend)?;
        let num_rungs = self.config.ladders[ladder].len();
        let mut streams = recover(self.streams.lock());
        let state = Self::entry(&mut streams, spec, ladder, num_rungs);
        let rung = state.machine.rung();
        if rung == 0 {
            None
        } else {
            Some(StreamSpec { backend: self.config.ladders[ladder][rung].clone(), ..spec.clone() })
        }
    }

    /// Records one request outcome for `spec`'s stream. `expired` marks a
    /// deadline expiry (a shed); on a full window, `quality_probe` is asked
    /// for the current rung's cumulative quality counters to compute the
    /// window SQNR.
    pub(crate) fn record(
        &self,
        spec: &StreamSpec,
        expired: bool,
        quality_probe: impl Fn(&StreamSpec) -> Option<QuantQualityStats>,
    ) {
        let Some(ladder) = self.config.ladder_for(&spec.backend) else {
            return;
        };
        let num_rungs = self.config.ladders[ladder].len();
        let mut streams = recover(self.streams.lock());
        let state = Self::entry(&mut streams, spec, ladder, num_rungs);
        if expired {
            state.sheds += 1;
            self.sheds.fetch_add(1, Ordering::Relaxed);
        }
        if !state.machine.record(expired, &self.tuning) {
            return;
        }
        // Window full: sample the serving rung's quality and decide.
        let rung_label = &self.config.ladders[ladder][state.machine.rung()];
        let rung_spec =
            if state.machine.rung() == 0 { spec.clone() } else { StreamSpec { backend: rung_label.clone(), ..spec.clone() } };
        let cumulative = quality_probe(&rung_spec);
        let sqnr = window_sqnr_db(cumulative, state.last_quality);
        state.last_quality = cumulative;
        match state.machine.end_window(&self.tuning, sqnr) {
            Some(Shift::Down) => {
                state.downshifts += 1;
                state.last_quality = None;
                self.downshifts.fetch_add(1, Ordering::Relaxed);
            }
            Some(Shift::Up) => {
                state.upshifts += 1;
                state.last_quality = None;
                self.upshifts.fetch_add(1, Ordering::Relaxed);
            }
            None => {}
        }
    }

    fn entry<'a>(
        streams: &'a mut Vec<StreamState>,
        spec: &StreamSpec,
        ladder: usize,
        num_rungs: usize,
    ) -> &'a mut StreamState {
        if let Some(i) = streams.iter().position(|s| s.base == *spec) {
            return &mut streams[i];
        }
        streams.push(StreamState {
            base: spec.clone(),
            ladder,
            machine: LadderState::new(num_rungs),
            last_quality: None,
            downshifts: 0,
            upshifts: 0,
            sheds: 0,
        });
        streams.last_mut().expect("just pushed")
    }

    pub(crate) fn stats(&self) -> Vec<DegradeStats> {
        let streams = recover(self.streams.lock());
        streams
            .iter()
            .map(|s| {
                let ladder = &self.config.ladders[s.ladder];
                DegradeStats {
                    stream: s.base.label(),
                    ladder: ladder.clone(),
                    rung: s.machine.rung(),
                    backend: ladder[s.machine.rung()].clone(),
                    downshifts: s.downshifts,
                    upshifts: s.upshifts,
                    sheds: s.sheds,
                    windows: s.machine.windows_closed(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuning() -> LadderTuning {
        LadderTuning {
            window: 4,
            cooldown_windows: 2,
            downshift_expiry_rate: 0.5,
            upshift_expiry_rate: 0.1,
            sqnr_floor_db: None,
            quality_bar_windows: 3,
        }
    }

    /// Drives `machine` through one full window with `expired` expiries.
    fn window(machine: &mut LadderState, t: &LadderTuning, expired: usize, sqnr: f64) -> Option<Shift> {
        for i in 0..t.window {
            let full = machine.record(i < expired, t);
            assert_eq!(full, i + 1 == t.window);
        }
        machine.end_window(t, sqnr)
    }

    #[test]
    fn downshifts_under_pressure_and_respects_cooldown() {
        let t = tuning();
        let mut m = LadderState::new(3);
        assert_eq!(window(&mut m, &t, 4, f64::INFINITY), Some(Shift::Down));
        assert_eq!(m.rung(), 1);
        // Still saturated, but the cooldown (2 windows) blocks the next shift
        // for one window.
        assert_eq!(window(&mut m, &t, 4, f64::INFINITY), None);
        assert_eq!(window(&mut m, &t, 4, f64::INFINITY), Some(Shift::Down));
        assert_eq!(m.rung(), 2);
        // Bottom rung: no further downshift.
        assert_eq!(window(&mut m, &t, 4, f64::INFINITY), None);
        assert_eq!(window(&mut m, &t, 4, f64::INFINITY), None);
    }

    #[test]
    fn hysteresis_band_holds_the_rung() {
        let t = tuning();
        let mut m = LadderState::new(2);
        assert_eq!(window(&mut m, &t, 4, f64::INFINITY), Some(Shift::Down));
        // Expiry rate 0.25 sits between up (0.1) and down (0.5): no movement,
        // ever, regardless of cooldown.
        for _ in 0..6 {
            assert_eq!(window(&mut m, &t, 1, f64::INFINITY), None);
        }
        assert_eq!(m.rung(), 1);
        // Load fully subsides: upshift after cooldown.
        assert_eq!(window(&mut m, &t, 0, f64::INFINITY), Some(Shift::Up));
        assert_eq!(m.rung(), 0);
    }

    #[test]
    fn quality_floor_upshifts_and_bars_the_rung() {
        let t = LadderTuning { sqnr_floor_db: Some(20.0), ..tuning() };
        let mut m = LadderState::new(3);
        assert_eq!(window(&mut m, &t, 4, 80.0), Some(Shift::Down)); // window 1
        assert_eq!(window(&mut m, &t, 4, 80.0), None); // window 2: cooldown
        // Rung 1's quality violates the floor: forced upshift despite full
        // load, and rung 1 is barred until window 6 (3 + quality_bar_windows).
        assert_eq!(window(&mut m, &t, 4, 10.0), Some(Shift::Up)); // window 3
        assert_eq!(m.rung(), 0);
        // Saturated load cannot push past the cooldown (window 4) or the bar
        // (window 5, max allowed rung is 0)...
        assert_eq!(window(&mut m, &t, 4, 80.0), None);
        assert_eq!(window(&mut m, &t, 4, 80.0), None);
        // ...until the bar expires at window 6.
        assert_eq!(window(&mut m, &t, 4, 80.0), Some(Shift::Down));
        assert_eq!(m.rung(), 1);
    }

    #[test]
    fn nan_sqnr_counts_as_bad_quality() {
        let t = LadderTuning { sqnr_floor_db: Some(20.0), ..tuning() };
        let mut m = LadderState::new(2);
        assert_eq!(window(&mut m, &t, 4, 80.0), Some(Shift::Down));
        assert_eq!(window(&mut m, &t, 4, f64::NAN), None); // cooldown
        assert_eq!(window(&mut m, &t, 4, f64::NAN), Some(Shift::Up));
        assert_eq!(m.rung(), 0);
    }

    #[test]
    fn at_rung_zero_bad_quality_does_not_shift() {
        let t = LadderTuning { sqnr_floor_db: Some(20.0), ..tuning() };
        let mut m = LadderState::new(2);
        // Quality below floor at rung 0: nowhere better to go, and bad
        // quality must also block the load-driven downshift.
        assert_eq!(window(&mut m, &t, 4, 5.0), None);
        assert_eq!(m.rung(), 0);
    }

    #[test]
    fn empty_window_counts_as_zero_expiry_rate() {
        let t = LadderTuning { window: 1, ..tuning() };
        let mut m = LadderState::new(2);
        assert_eq!(window(&mut m, &t, 1, f64::INFINITY), Some(Shift::Down));
        // end_window with nothing recorded: rate 0 → upshift after cooldown.
        assert_eq!(m.end_window(&t, f64::INFINITY), None);
        assert_eq!(m.end_window(&t, f64::INFINITY), Some(Shift::Up));
    }

    #[test]
    fn window_sqnr_from_cumulative_snapshots() {
        let prev = QuantQualityStats { frames: 4, signal_energy: 100.0, noise_energy: 1.0 };
        let cur = QuantQualityStats { frames: 8, signal_energy: 200.0, noise_energy: 2.0 };
        let db = window_sqnr_db(Some(cur), Some(prev));
        assert!((db - 20.0).abs() < 1e-9, "got {db}");
        assert_eq!(window_sqnr_db(None, None), f64::INFINITY);
        assert_eq!(window_sqnr_db(Some(prev), Some(prev)), f64::INFINITY); // zero noise delta
        let mut poisoned = cur;
        poisoned.noise_energy = f64::NAN;
        assert_eq!(window_sqnr_db(Some(poisoned), Some(prev)), f64::NEG_INFINITY);
    }

    #[test]
    fn calibration_orders_the_ladder_by_measured_quality() {
        let rung = |backend: &str, quality_score: f64, sqnr_db: f64| RungMeasurement {
            backend: backend.into(),
            quality_score,
            sqnr_db,
        };
        // Deliberately shuffled input: the ladder must come out sorted by
        // the measured score, not the given order.
        let config = DegradeConfig::from_quality_profile(&[
            rung("tiny-vbf-fx16", 0.61, 64.0),
            rung("tiny-vbf-fp", 0.93, f64::INFINITY),
            rung("tiny-vbf-fx24", 0.91, 113.0),
        ])
        .unwrap();
        assert_eq!(config.ladders, vec![vec![
            "tiny-vbf-fp".to_string(),
            "tiny-vbf-fx24".to_string(),
            "tiny-vbf-fx16".to_string(),
        ]]);
        // Floor: worst *finite* measured SQNR minus the 3 dB jitter margin.
        assert_eq!(config.sqnr_floor_db, Some(61.0));
        assert!(config.validate().is_ok());
    }

    #[test]
    fn calibration_ties_keep_given_order_and_infinite_sqnr_disables_floor() {
        let rung = |backend: &str, quality_score: f64| RungMeasurement {
            backend: backend.into(),
            quality_score,
            sqnr_db: f64::INFINITY,
        };
        let config =
            DegradeConfig::from_quality_profile(&[rung("a", 0.5), rung("b", 0.5)]).unwrap();
        assert_eq!(config.ladders, vec![vec!["a".to_string(), "b".to_string()]]);
        assert_eq!(config.sqnr_floor_db, None);
    }

    #[test]
    fn calibration_rejects_bad_measurements() {
        let rung = |backend: &str, quality_score: f64| RungMeasurement {
            backend: backend.into(),
            quality_score,
            sqnr_db: 60.0,
        };
        assert!(DegradeConfig::from_quality_profile(&[rung("a", 1.0)]).is_err());
        assert!(DegradeConfig::from_quality_profile(&[rung("a", 1.0), rung("a", 0.5)]).is_err());
        assert!(
            DegradeConfig::from_quality_profile(&[rung("a", f64::NAN), rung("b", 0.5)]).is_err()
        );
    }

    #[test]
    fn config_validation_rejects_bad_shapes() {
        let ok = DegradeConfig::with_ladder(vec!["a".into(), "b".into()]);
        assert!(ok.validate().is_ok());
        let short = DegradeConfig::with_ladder(vec!["a".into()]);
        assert!(short.validate().is_err());
        let dup = DegradeConfig::with_ladder(vec!["a".into(), "a".into()]);
        assert!(dup.validate().is_err());
        let inverted = DegradeConfig { upshift_expiry_rate: 0.5, downshift_expiry_rate: 0.5, ..ok.clone() };
        assert!(inverted.validate().is_err());
        let zero_window = DegradeConfig { window: 0, ..ok.clone() };
        assert!(zero_window.validate().is_err());
        let shared_head = DegradeConfig {
            ladders: vec![vec!["a".into(), "b".into()], vec!["a".into(), "c".into()]],
            ..DegradeConfig::default()
        };
        assert!(shared_head.validate().is_err());
    }
}
