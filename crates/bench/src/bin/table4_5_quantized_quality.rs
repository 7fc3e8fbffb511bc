//! Regenerates Tables IV and V: resolution and contrast of the quantized Tiny-VBF under
//! every scheme (Float / 24 / 20 / 16 bits / Hybrid-1 / Hybrid-2), for both datasets.

use bench::{evaluation_config_from_env, format_quantized_quality, paper_tables4_5_phantom, paper_tables4_5_simulation};
use tiny_vbf::evaluation::{quantized_quality_table, train_models};
use ultrasound::picmus::PicmusKind;

fn main() {
    let config = evaluation_config_from_env();
    eprintln!("training Tiny-VBF…");
    let models = train_models(&config).expect("training failed");

    let datasets = [
        (PicmusKind::InSilico, "Simulation (in-silico)", paper_tables4_5_simulation()),
        (PicmusKind::InVitro, "Phantom (in-vitro)", paper_tables4_5_phantom()),
    ];
    for (kind, dataset, reference) in datasets {
        let rows = quantized_quality_table(&models.tiny_vbf, &config, kind).expect("quantized evaluation failed");
        let title = format!("Tables IV & V — {dataset}, quality vs quantization [measured | paper]");
        println!("{}", format_quantized_quality(&title, &rows, &reference));
    }
}
