//! Regenerates Figs. 11 and 13: B-mode images of the resolution-distortion datasets
//! (point targets at two depths) for every beamformer.

use bench::evaluation_config_from_env;
use tiny_vbf::evaluation::{beamformer_suite, bmode_gallery, measure, train_models, SceneSet};
use ultrasound::picmus::PicmusKind;

fn main() {
    let config = evaluation_config_from_env();
    eprintln!("training models…");
    let models = train_models(&config).expect("training failed");
    let beamformers = beamformer_suite(&models, &config);

    for (kind, label) in [
        (PicmusKind::InSilico, "Fig. 11 — in-silico point targets (15.12 / 35.15 mm)"),
        (PicmusKind::InVitro, "Fig. 13 — in-vitro point targets (14.01 / 32.79 mm)"),
    ] {
        println!("=== {label} ===");
        let frame = config.resolution_frame(kind).expect("frame");
        let gallery = bmode_gallery(&beamformers, &config, &frame).expect("gallery failed");
        for (name, bmode) in &gallery {
            println!("--- {name} ---");
            println!("{}", bmode.to_ascii(64));
        }
        let scenes = SceneSet::new(&config, &[kind], kind).expect("evaluation scenes");
        for beamformer in &beamformers {
            let row = measure(beamformer.as_ref(), &scenes).expect("metrics failed");
            println!("{:<10} axial {:.3} mm   lateral {:.3} mm", row.name, row.resolution.axial_mm, row.resolution.lateral_mm);
        }
        println!();
    }
}
