//! Regenerates Fig. 12: lateral point-spread functions at 15.12 mm and 35.15 mm depth
//! on the in-silico resolution dataset, for every beamformer.

use bench::evaluation_config_from_env;
use tiny_vbf::evaluation::{beamformer_suite, lateral_psfs, train_models};
use ultrasound::picmus::{PicmusKind, IN_SILICO_POINT_DEPTHS};

fn main() {
    let config = evaluation_config_from_env();
    eprintln!("training models…");
    let models = train_models(&config).expect("training failed");
    let beamformers = beamformer_suite(&models, &config);

    let depths: Vec<f32> = IN_SILICO_POINT_DEPTHS.iter().copied().filter(|&d| d < config.max_depth - 2e-3).collect();
    let frame = config.resolution_frame(PicmusKind::InSilico).expect("frame");
    let psfs = lateral_psfs(&beamformers, &config, &frame, &depths).expect("psf failed");
    for (i, depth) in depths.iter().enumerate() {
        println!("Fig. 12({}) — lateral PSF at {:.2} mm", if i == 0 { 'a' } else { 'b' }, depth * 1e3);
        for (name, profiles) in &psfs {
            let psf = &profiles[i];
            let width = psf.mainlobe_width_mm().map_or("n/a".to_string(), |w| format!("{w:.2} mm"));
            let sidelobe = psf.peak_sidelobe_db(2.0).map_or("n/a".to_string(), |s| format!("{s:.1} dB"));
            println!("  {:<10} -6 dB mainlobe width {:>8}   peak sidelobe {:>9}", name, width, sidelobe);
        }
        println!();
    }
}
