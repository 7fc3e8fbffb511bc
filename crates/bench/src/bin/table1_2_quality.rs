//! Regenerates Tables I and II: contrast metrics (CR / CNR / GCNR) and axial/lateral
//! resolution of DAS, MVDR, Tiny-CNN, Tiny-VBF (and FCNN) on the in-silico and in-vitro
//! datasets. Both tables print from the same measured rows.

use bench::{evaluation_config_from_env, format_contrast_table, format_resolution_table, paper_table1_phantom, paper_table1_simulation, paper_table2_phantom, paper_table2_simulation};
use tiny_vbf::evaluation::{beamformer_suite, measure, train_models, QualityRow, SceneSet};
use ultrasound::picmus::PicmusKind;

fn main() {
    let config = evaluation_config_from_env();
    eprintln!("training models ({} channels, {}x{} grid)…", config.array().num_elements(), config.grid_rows, config.grid_cols);
    let models = train_models(&config).expect("training failed");
    let beamformers = beamformer_suite(&models, &config);
    let rows = |kind: PicmusKind| -> Vec<QualityRow> {
        let scenes = SceneSet::new(&config, &[kind], kind).expect("evaluation scenes");
        beamformers.iter().map(|b| measure(b.as_ref(), &scenes).expect("evaluation failed")).collect()
    };
    let (simulation, phantom) = (rows(PicmusKind::InSilico), rows(PicmusKind::InVitro));

    println!("{}", format_contrast_table("Table I — Simulation (in-silico) contrast metrics [measured | paper]", &simulation, &paper_table1_simulation()));
    println!("{}", format_contrast_table("Table I — Phantom (in-vitro) contrast metrics [measured | paper]", &phantom, &paper_table1_phantom()));
    println!("{}", format_resolution_table("Table II — Simulation (in-silico) resolution [measured | paper]", &simulation, &paper_table2_simulation()));
    println!("{}", format_resolution_table("Table II — Phantom (in-vitro) resolution [measured | paper]", &phantom, &paper_table2_phantom()));
}
