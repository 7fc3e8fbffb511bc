//! Regenerates Figs. 1(a), 9(a) and 10: B-mode images of the cyst (contrast) datasets
//! for every beamformer, rendered as ASCII intensity maps plus per-cyst contrast values.

use bench::evaluation_config_from_env;
use tiny_vbf::evaluation::{beamformer_suite, bmode_gallery, measure, train_models, SceneSet};
use ultrasound::picmus::PicmusKind;

fn main() {
    let config = evaluation_config_from_env();
    eprintln!("training models…");
    let models = train_models(&config).expect("training failed");
    let beamformers = beamformer_suite(&models, &config);

    for (kind, label) in [(PicmusKind::InSilico, "Fig. 9(a) — in-silico cysts (13/25/37 mm)"), (PicmusKind::InVitro, "Fig. 10 — in-vitro cysts (15/35 mm)")] {
        println!("=== {label} ===");
        let frame = config.contrast_frame(kind).expect("frame");
        let gallery = bmode_gallery(&beamformers, &config, &frame).expect("gallery failed");
        for (name, bmode) in &gallery {
            println!("--- {name} ({} dB dynamic range) ---", bmode.dynamic_range());
            println!("{}", bmode.to_ascii(64));
        }
        let scenes = SceneSet::new(&config, &[kind], kind).expect("evaluation scenes");
        for beamformer in &beamformers {
            let row = measure(beamformer.as_ref(), &scenes).expect("metrics failed");
            println!("{:<10} CR {:.2} dB  CNR {:.2}  GCNR {:.2}", row.name, row.contrast.cr_db, row.contrast.cnr, row.contrast.gcnr);
        }
        println!();
    }
}
