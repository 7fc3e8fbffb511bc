//! Regenerates Fig. 9(b): lateral variation of the beamformed image across the deepest
//! in-silico cyst (37 mm) for every beamformer.

use bench::evaluation_config_from_env;
use tiny_vbf::evaluation::{beamformer_suite, lateral_psfs, train_models};
use ultrasound::picmus::{PicmusKind, IN_SILICO_CYST_DEPTHS};

fn main() {
    let config = evaluation_config_from_env();
    eprintln!("training models…");
    let models = train_models(&config).expect("training failed");
    let beamformers = beamformer_suite(&models, &config);

    let depth = IN_SILICO_CYST_DEPTHS[IN_SILICO_CYST_DEPTHS.len() - 1].min(config.max_depth - 2e-3);
    let frame = config.contrast_frame(PicmusKind::InSilico).expect("frame");
    println!("Fig. 9(b) — lateral variation at {:.1} mm depth (dB relative to profile peak)", depth * 1e3);
    for (name, psfs) in lateral_psfs(&beamformers, &config, &frame, &[depth]).expect("psf failed") {
        let psf = &psfs[0];
        let series: Vec<String> = psf
            .positions_mm
            .iter()
            .zip(psf.amplitude_db.iter())
            .step_by((psf.positions_mm.len() / 16).max(1))
            .map(|(x, db)| format!("{x:+.1}mm:{db:.0}dB"))
            .collect();
        println!("{:<10} {}", name, series.join("  "));
    }
}
