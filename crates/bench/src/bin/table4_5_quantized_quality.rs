//! Regenerates Tables IV and V: resolution and contrast of the quantized Tiny-VBF under
//! every scheme (Float / 24 / 20 / 16 bits / Hybrid-1 / Hybrid-2), for both datasets.

use bench::{evaluation_config_from_env, format_quantized_quality, paper_tables4_5_phantom, paper_tables4_5_simulation};
use quantize::QuantScheme;
use tiny_vbf::evaluation::{measure, train_models, QualityRow, SceneSet};
use tiny_vbf::quantized::QuantizedTinyVbfBeamformer;
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
        let scenes = SceneSet::new(&config, &[kind], kind).expect("evaluation scenes");
        let rows: Vec<QualityRow> = QuantScheme::all()
            .into_iter()
            .map(|scheme| {
                let backend = QuantizedTinyVbfBeamformer::new(&models.tiny_vbf, scheme);
                QualityRow { name: scheme.name.to_string(), ..measure(&backend, &scenes).expect("quantized evaluation failed") }
            })
            .collect();
        let title = format!("Tables IV & V — {dataset}, quality vs quantization [measured | paper]");
        println!("{}", format_quantized_quality(&title, &rows, &reference));
    }
}
