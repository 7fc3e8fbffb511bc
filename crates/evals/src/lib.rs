//! Offline image-quality evaluation and degrade-ladder calibration.
//!
//! The serving stack's graceful-degradation ladder (`serve::degrade`)
//! trades image precision for latency, but until this crate it picked its
//! rung ordering and quality floor from the SQNR *proxy* alone. The paper's
//! Tables I–V judge beamformers the way sonographers do — contrast
//! (CR/CNR/gCNR) on anechoic-cyst phantoms and axial/lateral FWHM on point
//! targets — so this crate closes the loop with ground truth:
//!
//! 1. [`evaluate`] renders deterministic cyst/point-target phantom scenes
//!    (the PICMUS-style in-silico and in-vitro acquisitions of
//!    `ultrasound::picmus`, which build on `ultrasound::phantom` and the
//!    `ultrasound::invitro` degradation model) through **every router
//!    backend** — float plus all five Table III fixed-point rungs — via the
//!    same [`QuantizedTinyVbfBeamformer`] adapter the router serves with,
//!    sharing one ToF plan cache across the rungs exactly like serving
//!    does. Each rung's images are reduced to CR/CNR/gCNR and FWHM by
//!    `tiny_vbf::evaluation::measure`, the measurement the paper's tables
//!    use, and its measured SQNR is read from the serving adapter's own
//!    quality counters.
//! 2. The result is a [`QualityProfile`] — a stable-schema JSON document
//!    mapping each rung to its measured image degradation. The
//!    `eval_quality` bench binary emits it plus one gate summary per rung,
//!    and CI diffs those against the committed `QUALITY_baseline.json`.
//! 3. [`calibrate`] condenses the profile into per-rung quality scores and
//!    hands them to [`serve::DegradeConfig::from_quality_profile`], so the
//!    ladder ordering, `sqnr_floor_db` and per-rung quality cost come from
//!    measured image quality instead of hand-picked constants.
//!
//! Everything is seed-deterministic: the same [`EvalConfig`] produces the
//! same frames, the same trained model, and bit-identical rung images
//! (asserted per rung by `tests/golden_images.rs`).
//!
//! [`QuantizedTinyVbfBeamformer`]: tiny_vbf::quantized::QuantizedTinyVbfBeamformer

#![deny(missing_docs)]

mod calibrate;
mod evaluate;
mod profile;

pub use calibrate::{calibrate, quality_scores, Calibration, RungCost};
pub use evaluate::{evaluate, EvalConfig};
pub use profile::{QualityProfile, RungQuality, PROFILE_SCHEMA_VERSION};
