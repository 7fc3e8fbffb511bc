//! Table formatting and paper reference values shared by the regeneration binaries.
//!
//! # Performance notes
//!
//! The regeneration binaries inherit the workspace threading model: ToF
//! correction, DAS and the learned-beamformer row sweeps all split image rows
//! across `runtime::default_threads()` workers (override with the
//! `TINY_VBF_THREADS` environment variable), and `Tensor::matmul` runs an
//! 8×32 register-tiled kernel. Parallel outputs are bitwise identical to the
//! serial ones, so table values never depend on the host's core count.

use tiny_vbf::evaluation::{EvaluationConfig, QualityRow};

/// Paper Table I reference values: `(beamformer, sim CR, sim CNR, sim GCNR, phantom CR,
/// phantom CNR, phantom GCNR)`. Rows are keyed by
/// [`Beamformer::name`](beamforming::pipeline::Beamformer::name), so Tiny-VBF's row
/// carries the float scheme's serving label, `QuantScheme::float().backend_label()`.
pub const PAPER_TABLE1: [(&str, f32, f32, f32, f32, f32, f32); 4] = [
    ("DAS", 13.78, 2.37, 0.83, 11.70, 1.04, 0.83),
    ("MVDR", 21.66, 1.95, 0.78, 15.09, 2.63, 0.72),
    ("Tiny-CNN", 13.45, 2.04, 0.83, 11.30, 1.05, 0.79),
    ("tiny-vbf-fp", 14.89, 1.75, 0.74, 12.20, 1.39, 0.67),
];

/// Paper Table II reference values: `(beamformer, sim axial, sim lateral, phantom axial,
/// phantom lateral)` in millimetres, keyed like [`PAPER_TABLE1`].
pub const PAPER_TABLE2: [(&str, f32, f32, f32, f32); 4] = [
    ("DAS", 0.364, 0.6, 0.459, 0.6),
    ("MVDR", 0.297, 0.45, 0.459, 0.48),
    ("Tiny-CNN", 0.368, 0.6, 0.466, 0.72),
    ("tiny-vbf-fp", 0.303, 0.45, 0.444, 0.48),
];

/// Paper Table IV reference values: `(scheme, sim axial, sim lateral, phantom axial,
/// phantom lateral)` in millimetres.
pub const PAPER_TABLE4: [(&str, f32, f32, f32, f32); 5] = [
    ("Float", 0.303, 0.45, 0.444, 0.48),
    ("24 bits", 0.303, 0.45, 0.444, 0.48),
    ("20 bits", 0.310, 0.45, 0.421, 0.54),
    ("Hybrid-1", 0.309, 0.45, 0.429, 0.54),
    ("Hybrid-2", 0.309, 0.45, 0.429, 0.54),
];

/// Paper Table V reference values: `(scheme, sim CR, sim CNR, sim GCNR, phantom CR,
/// phantom CNR, phantom GCNR)`.
pub const PAPER_TABLE5: [(&str, f32, f32, f32, f32, f32, f32); 5] = [
    ("Float", 14.89, 1.75, 0.74, 12.20, 1.39, 0.67),
    ("24 bits", 14.07, 1.84, 0.75, 13.0, 1.22, 0.69),
    ("20 bits", 14.30, 1.45, 0.73, 13.05, 1.22, 0.67),
    ("Hybrid-1", 13.34, 1.74, 0.73, 12.72, 1.37, 0.68),
    ("Hybrid-2", 13.26, 1.75, 0.72, 12.62, 1.40, 0.67),
];

/// Chooses the evaluation configuration from the `TINY_VBF_EVAL` environment variable
/// (`test` → seconds-scale smoke run, otherwise the reduced configuration).
pub fn evaluation_config_from_env() -> EvaluationConfig {
    match std::env::var("TINY_VBF_EVAL").as_deref() {
        Ok("test") => EvaluationConfig::test_size(),
        Ok("paper") => EvaluationConfig::paper(),
        _ => EvaluationConfig::reduced(),
    }
}

/// Renders a contrast table (our measured values) with the paper's reference alongside.
pub fn format_contrast_table(title: &str, rows: &[QualityRow], reference: &[(&str, f32, f32, f32)]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:<11} | {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8}\n",
        "Beamformer", "CR(dB)", "CNR", "GCNR", "ref CR", "ref CNR", "ref GCNR"
    ));
    out.push_str(&"-".repeat(77));
    out.push('\n');
    for row in rows {
        let reference_row = reference.iter().find(|(name, ..)| *name == row.name);
        let (rc, rn, rg) = reference_row.map_or((f32::NAN, f32::NAN, f32::NAN), |r| (r.1, r.2, r.3));
        let con = &row.contrast;
        out.push_str(&format!(
            "{:<11} | {:>8.2} {:>8.2} {:>8.2} | {:>8.2} {:>8.2} {:>8.2}\n",
            row.name, con.cr_db, con.cnr, con.gcnr, rc, rn, rg
        ));
    }
    out
}

/// Renders a resolution table with the paper's reference alongside.
pub fn format_resolution_table(title: &str, rows: &[QualityRow], reference: &[(&str, f32, f32)]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:<11} | {:>10} {:>11} | {:>10} {:>11}\n",
        "Beamformer", "Axial(mm)", "Lateral(mm)", "ref Axial", "ref Lateral"
    ));
    out.push_str(&"-".repeat(63));
    out.push('\n');
    for row in rows {
        let reference_row = reference.iter().find(|(name, ..)| *name == row.name);
        let (ra, rl) = reference_row.map_or((f32::NAN, f32::NAN), |r| (r.1, r.2));
        out.push_str(&format!(
            "{:<11} | {:>10.3} {:>11.3} | {:>10.3} {:>11.3}\n",
            row.name, row.resolution.axial_mm, row.resolution.lateral_mm, ra, rl
        ));
    }
    out
}

/// Renders the combined quantized-quality rows (Tables IV and V) with the paper's
/// reference alongside: `(scheme, axial, lateral, CR, CNR, GCNR)`, keyed by
/// [`QuantScheme::name`](quantize::QuantScheme::name).
pub fn format_quantized_quality(
    title: &str,
    rows: &[QualityRow],
    reference: &[(&str, f32, f32, f32, f32, f32)],
) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:<10} | {:>10} {:>11} | {:>8} {:>8} {:>8} | {:>10} {:>11} | {:>8} {:>8} {:>8}\n",
        "Scheme", "Axial(mm)", "Lateral(mm)", "CR(dB)", "CNR", "GCNR", "ref Axial", "ref Lateral", "ref CR", "ref CNR", "ref GCNR"
    ));
    out.push_str(&"-".repeat(120));
    out.push('\n');
    for row in rows {
        let reference_row = reference.iter().find(|(name, ..)| *name == row.name);
        let [ra, rl, rc, rn, rg] = reference_row.map_or([f32::NAN; 5], |r| [r.1, r.2, r.3, r.4, r.5]);
        let (res, con) = (&row.resolution, &row.contrast);
        out.push_str(&format!(
            "{:<10} | {:>10.3} {:>11.3} | {:>8.2} {:>8.2} {:>8.2} | {:>10.3} {:>11.3} | {:>8.2} {:>8.2} {:>8.2}\n",
            row.name, res.axial_mm, res.lateral_mm, con.cr_db, con.cnr, con.gcnr, ra, rl, rc, rn, rg
        ));
    }
    out
}

/// Table I reference columns for the simulation dataset.
pub fn paper_table1_simulation() -> Vec<(&'static str, f32, f32, f32)> {
    PAPER_TABLE1.iter().map(|r| (r.0, r.1, r.2, r.3)).collect()
}

/// Table I reference columns for the phantom dataset.
pub fn paper_table1_phantom() -> Vec<(&'static str, f32, f32, f32)> {
    PAPER_TABLE1.iter().map(|r| (r.0, r.4, r.5, r.6)).collect()
}

/// Table II reference columns for the simulation dataset.
pub fn paper_table2_simulation() -> Vec<(&'static str, f32, f32)> {
    PAPER_TABLE2.iter().map(|r| (r.0, r.1, r.2)).collect()
}

/// Table II reference columns for the phantom dataset.
pub fn paper_table2_phantom() -> Vec<(&'static str, f32, f32)> {
    PAPER_TABLE2.iter().map(|r| (r.0, r.3, r.4)).collect()
}

/// Tables IV and V reference columns for the simulation dataset.
pub fn paper_tables4_5_simulation() -> Vec<(&'static str, f32, f32, f32, f32, f32)> {
    PAPER_TABLE4.iter().zip(&PAPER_TABLE5).map(|(r, c)| (r.0, r.1, r.2, c.1, c.2, c.3)).collect()
}

/// Tables IV and V reference columns for the phantom dataset.
pub fn paper_tables4_5_phantom() -> Vec<(&'static str, f32, f32, f32, f32, f32)> {
    PAPER_TABLE4.iter().zip(&PAPER_TABLE5).map(|(r, c)| (r.0, r.3, r.4, c.4, c.5, c.6)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use usmetrics::{ContrastMetrics, ResolutionMetrics};

    #[test]
    fn reference_tables_have_expected_shape() {
        assert_eq!(PAPER_TABLE1.len(), 4);
        assert_eq!(PAPER_TABLE2.len(), 4);
        assert_eq!(PAPER_TABLE4.len(), 5);
        assert_eq!(PAPER_TABLE5.len(), 5);
        assert_eq!(paper_table1_simulation().len(), 4);
        assert_eq!(paper_table2_phantom().len(), 4);
        // Tables IV and V list the same schemes in the same order, each a
        // Table III scheme name.
        for (resolution, contrast) in PAPER_TABLE4.iter().zip(&PAPER_TABLE5) {
            assert_eq!(resolution.0, contrast.0);
            assert!(quantize::QuantScheme::all().iter().any(|s| s.name == resolution.0), "{}", resolution.0);
        }
    }

    #[test]
    fn formatting_includes_every_row() {
        let row = |name: &str| QualityRow {
            name: name.into(),
            contrast: ContrastMetrics { cr_db: 12.0, cnr: 1.5, gcnr: 0.8 },
            resolution: ResolutionMetrics { axial_mm: 0.25, lateral_mm: 0.5 },
        };
        let text = format_contrast_table("Table I (simulation)", &[row("DAS")], &paper_table1_simulation());
        assert!(text.contains("DAS"));
        assert!(text.contains("12.00"));
        assert!(text.contains("13.78"));

        let rtext = format_resolution_table("Table II", &[row("MVDR")], &paper_table2_simulation());
        assert!(rtext.contains("MVDR"));
        assert!(rtext.contains("0.250") && rtext.contains("0.450"));

        let qrows = [row("Hybrid-2")];
        let simulation = format_quantized_quality("Tables IV-V", &qrows, &paper_tables4_5_simulation());
        assert!(simulation.contains("Hybrid-2"));
        assert!(simulation.contains("0.250") && simulation.contains("12.00"));
        assert!(simulation.contains("0.309") && simulation.contains("13.26"));
        let phantom = format_quantized_quality("Tables IV-V", &qrows, &paper_tables4_5_phantom());
        assert!(phantom.contains("0.429") && phantom.contains("12.62"));
    }

    #[test]
    fn every_compared_beamformer_has_paper_reference_rows() {
        use tiny_vbf::baselines::{Fcnn, TinyCnn};
        use tiny_vbf::evaluation::{beamformer_suite, TrainedModels};
        use tiny_vbf::training::TrainingHistory;
        use tiny_vbf::{TinyVbf, TinyVbfConfig};

        let config = EvaluationConfig::test_size();
        let channels = config.array().num_elements();
        let history = || TrainingHistory { epoch_losses: Vec::new() };
        let models = TrainedModels {
            tiny_vbf: TinyVbf::new(&TinyVbfConfig::tiny_test().for_frame(channels, config.grid_cols)).unwrap(),
            tiny_cnn: TinyCnn::new(channels, 3, 1).unwrap(),
            fcnn: Fcnn::new(channels, 8, 1).unwrap(),
            tiny_vbf_history: history(),
            tiny_cnn_history: history(),
            fcnn_history: history(),
        };
        // FCNN is in the suite for the GOPs comparison only; Tables I/II omit it.
        for beamformer in beamformer_suite(&models, &config).iter().filter(|b| b.name() != "FCNN") {
            let name = beamformer.name();
            assert!(PAPER_TABLE1.iter().any(|row| row.0 == name), "Table I has no reference row for {name}");
            assert!(PAPER_TABLE2.iter().any(|row| row.0 == name), "Table II has no reference row for {name}");
        }
    }

    #[test]
    fn env_selects_configuration() {
        std::env::set_var("TINY_VBF_EVAL", "test");
        assert_eq!(evaluation_config_from_env().grid_rows, tiny_vbf::evaluation::EvaluationConfig::test_size().grid_rows);
        std::env::remove_var("TINY_VBF_EVAL");
        assert_eq!(evaluation_config_from_env().grid_rows, tiny_vbf::evaluation::EvaluationConfig::reduced().grid_rows);
    }
}
