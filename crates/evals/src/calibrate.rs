//! The calibration pass: condense a [`QualityProfile`] into per-rung
//! quality scores and derive a measured [`DegradeConfig`] from them.

use crate::profile::QualityProfile;
use runtime::json::Json;
use serve::{DegradeConfig, RungMeasurement, ServeError, ServeResult};

/// One rung's condensed score and its quality cost relative to the best
/// measured rung — the "price list" the degrade ladder trades against
/// latency.
#[derive(Debug, Clone, PartialEq)]
pub struct RungCost {
    /// Router backend label.
    pub backend: String,
    /// Condensed quality score in `[0, 1]`, higher is better.
    pub quality_score: f64,
    /// `best_score − quality_score`: how much measured image quality a
    /// downshift to this rung gives up. Zero for the ladder head.
    pub quality_cost: f64,
}

/// A calibrated degradation policy plus the measurements that justify it.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// The derived policy: ladder ordered by measured quality, SQNR floor
    /// set from the worst rung's measured SQNR.
    pub degrade: DegradeConfig,
    /// Per-rung scores and costs, in ladder order (best first).
    pub costs: Vec<RungCost>,
}

impl Calibration {
    /// JSON artifact written next to the profile (`QUALITY_calibration.json`):
    /// the ladder, the floor, and the per-rung price list.
    pub fn to_json(&self) -> Json {
        let ladder = &self.degrade.ladders[0];
        Json::obj([
            ("kind", Json::str("quality_calibration")),
            ("ladder", Json::arr(ladder.iter().map(Json::str))),
            (
                "sqnr_floor_db",
                self.degrade.sqnr_floor_db.map_or(Json::Null, Json::num),
            ),
            (
                "rungs",
                Json::arr(self.costs.iter().map(|c| {
                    Json::obj([
                        ("backend", Json::str(&c.backend)),
                        ("quality_score", Json::num(c.quality_score)),
                        ("quality_cost", Json::num(c.quality_cost)),
                    ])
                })),
            ),
        ])
    }
}

/// Condenses each rung's metrics into one comparable score in `[0, 1]`.
///
/// Each metric is normalized against the best value any rung achieved —
/// `value / best` for the higher-is-better contrast metrics (CR/CNR/gCNR),
/// `best / value` for the lower-is-better FWHM — and the score is the mean
/// of the available normalized terms. A metric that is non-finite or
/// non-positive for a rung contributes `0` (worst) for that rung; a metric
/// whose *best* value is degenerate (no rung measured it meaningfully) is
/// dropped from every rung's mean so it cannot skew the ordering. Returns
/// `(backend, score)` in profile order.
pub fn quality_scores(profile: &QualityProfile) -> Vec<(String, f64)> {
    type Metric = fn(&crate::RungQuality) -> f64;
    let best = |get: Metric| {
        profile
            .rungs
            .iter()
            .map(get)
            .filter(|v| v.is_finite() && *v > 0.0)
            .fold(f64::NAN, f64::max)
    };
    // (accessor, higher_is_better, best value across rungs)
    let metrics: [(Metric, bool); 4] = [
        (|r| r.cr_db, true),
        (|r| r.cnr, true),
        (|r| r.gcnr, true),
        (|r| r.fwhm_mm, false),
    ];
    let anchors: Vec<(Metric, bool, f64)> = metrics
        .iter()
        .map(|&(get, higher)| {
            let anchor = if higher {
                best(get)
            } else {
                profile
                    .rungs
                    .iter()
                    .map(get)
                    .filter(|v| v.is_finite() && *v > 0.0)
                    .fold(f64::NAN, f64::min)
            };
            (get, higher, anchor)
        })
        .filter(|(_, _, anchor)| anchor.is_finite() && *anchor > 0.0)
        .collect();

    profile
        .rungs
        .iter()
        .map(|rung| {
            let score = if anchors.is_empty() {
                0.0
            } else {
                anchors
                    .iter()
                    .map(|&(get, higher, anchor)| {
                        let value = get(rung);
                        if !value.is_finite() || value <= 0.0 {
                            return 0.0;
                        }
                        let term = if higher { value / anchor } else { anchor / value };
                        term.clamp(0.0, 1.0)
                    })
                    .sum::<f64>()
                    / anchors.len() as f64
            };
            (rung.backend.clone(), score)
        })
        .collect()
}

/// Derives a calibrated [`DegradeConfig`] and per-rung price list from a
/// measured profile.
///
/// The ladder ordering comes from [`quality_scores`] (descending, stable),
/// the SQNR floor from the worst finite measured SQNR — both via
/// [`DegradeConfig::from_quality_profile`], so the policy `serve` runs is
/// exactly the one the measurements justify.
///
/// # Errors
///
/// [`ServeError::InvalidConfig`] when fewer than two rungs were measured,
/// no metric survived normalization (every score zero — a profile measured
/// on nothing must not produce a policy), or the measurements repeat a
/// backend label.
pub fn calibrate(profile: &QualityProfile) -> ServeResult<Calibration> {
    let scores = quality_scores(profile);
    if scores.iter().all(|(_, score)| *score == 0.0) {
        return Err(ServeError::InvalidConfig(
            "quality profile carries no usable metric; refusing to calibrate from nothing".into(),
        ));
    }
    let measurements: Vec<RungMeasurement> = scores
        .iter()
        .zip(&profile.rungs)
        .map(|((backend, score), rung)| RungMeasurement {
            backend: backend.clone(),
            quality_score: *score,
            sqnr_db: rung.sqnr_db,
        })
        .collect();
    let degrade = DegradeConfig::from_quality_profile(&measurements)?;

    let best_score = scores.iter().map(|(_, s)| *s).fold(f64::NEG_INFINITY, f64::max);
    let costs = degrade.ladders[0]
        .iter()
        .map(|backend| {
            let score = scores
                .iter()
                .find(|(b, _)| b == backend)
                .map(|(_, s)| *s)
                .expect("ladder labels come from the score list");
            RungCost { backend: backend.clone(), quality_score: score, quality_cost: best_score - score }
        })
        .collect();
    Ok(Calibration { degrade, costs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RungQuality;

    fn rung(backend: &str, q: f64, sqnr: f64) -> RungQuality {
        RungQuality {
            backend: backend.into(),
            scheme: backend.into(),
            cr_db: 10.0 * q,
            cnr: 1.5 * q,
            gcnr: (0.9 * q).min(1.0),
            axial_mm: 0.8 / q,
            lateral_mm: 1.2 / q,
            fwhm_mm: 1.0 / q,
            sqnr_db: sqnr,
        }
    }

    fn profile(rungs: Vec<RungQuality>) -> QualityProfile {
        QualityProfile { profile: "tiny".into(), seed: 7, channels: 16, grid_rows: 40, grid_cols: 16, rungs }
    }

    #[test]
    fn ladder_ordering_matches_measured_quality() {
        // Shuffled input: the middle rung measures best, the first worst.
        let p = profile(vec![
            rung("tiny-vbf-fx16", 0.6, 64.0),
            rung("tiny-vbf-fp", 1.0, f64::INFINITY),
            rung("tiny-vbf-fx24", 0.95, 113.0),
        ]);
        let calibration = calibrate(&p).unwrap();
        assert_eq!(
            calibration.degrade.ladders,
            vec![vec![
                "tiny-vbf-fp".to_string(),
                "tiny-vbf-fx24".to_string(),
                "tiny-vbf-fx16".to_string()
            ]]
        );
        // The ladder order must equal the score order, descending.
        let scores: Vec<f64> = calibration.costs.iter().map(|c| c.quality_score).collect();
        assert!(scores.windows(2).all(|w| w[0] >= w[1]), "scores not descending: {scores:?}");
        // Head costs nothing; costs grow down the ladder.
        assert_eq!(calibration.costs[0].quality_cost, 0.0);
        assert!(calibration.costs[2].quality_cost > calibration.costs[1].quality_cost);
        // Floor: worst finite SQNR (64 dB) minus the 3 dB margin.
        assert_eq!(calibration.degrade.sqnr_floor_db, Some(61.0));
        assert!(calibration.degrade.validate().is_ok());
    }

    #[test]
    fn nan_metrics_read_as_worst_not_as_poison() {
        let mut broken = rung("tiny-vbf-fx16", 0.9, 64.0);
        broken.fwhm_mm = f64::NAN;
        broken.cr_db = f64::NAN;
        let p = profile(vec![rung("tiny-vbf-fp", 1.0, f64::INFINITY), broken]);
        let calibration = calibrate(&p).unwrap();
        // The rung with poisoned metrics scores strictly worse and lands
        // below the healthy rung.
        assert_eq!(calibration.degrade.ladders[0][1], "tiny-vbf-fx16");
        assert!(calibration.costs[1].quality_score < calibration.costs[0].quality_score);
    }

    #[test]
    fn degenerate_profiles_are_rejected() {
        // One rung: not a ladder.
        assert!(calibrate(&profile(vec![rung("a", 1.0, 60.0)])).is_err());
        // All metrics unusable: nothing measured, nothing calibrated.
        let mut dead_a = rung("a", 1.0, 60.0);
        let mut dead_b = rung("b", 1.0, 60.0);
        for r in [&mut dead_a, &mut dead_b] {
            r.cr_db = f64::NAN;
            r.cnr = -1.0;
            r.gcnr = 0.0;
            r.fwhm_mm = f64::INFINITY;
        }
        assert!(calibrate(&profile(vec![dead_a, dead_b])).is_err());
    }

    #[test]
    fn calibration_artifact_serializes_ladder_floor_and_costs() {
        let p = profile(vec![
            rung("tiny-vbf-fp", 1.0, f64::INFINITY),
            rung("tiny-vbf-fx16", 0.7, 64.0),
        ]);
        let json = calibrate(&p).unwrap().to_json();
        assert_eq!(json.get("kind").and_then(runtime::json::Json::as_str), Some("quality_calibration"));
        assert_eq!(json.get("ladder").and_then(runtime::json::Json::as_arr).unwrap().len(), 2);
        assert_eq!(json.get("sqnr_floor_db").and_then(runtime::json::Json::as_f64), Some(61.0));
        assert_eq!(json.get("rungs").and_then(runtime::json::Json::as_arr).unwrap().len(), 2);
    }
}
