//! Train Tiny-VBF (and the Tiny-CNN / FCNN baselines) at reduced scale and compare the
//! resulting beamformers against DAS and MVDR on a synthetic PICMUS-style cyst frame —
//! a miniature version of the paper's Table I experiment.
//!
//! Run with `cargo run --release --example train_tiny_vbf`.

use tiny_vbf::evaluation::{beamformer_suite, measure, train_models, EvaluationConfig, SceneSet};
use ultrasound::picmus::PicmusKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The test-size configuration trains in seconds; switch to
    // `EvaluationConfig::reduced()` (or `paper()`) for better image quality.
    let config = EvaluationConfig::test_size();
    println!(
        "training on {} simulated frames, {} epochs, {}-channel probe, {}x{} grid…",
        config.training_frames,
        config.epochs,
        config.array().num_elements(),
        config.grid_rows,
        config.grid_cols
    );

    let models = train_models(&config)?;
    println!(
        "Tiny-VBF: {} weights, loss {:?} -> {:?}",
        models.tiny_vbf.num_weights(),
        models.tiny_vbf_history.epoch_losses.first(),
        models.tiny_vbf_history.final_loss()
    );
    println!(
        "Tiny-CNN: {} weights | FCNN: {} weights",
        models.tiny_cnn.num_weights(),
        models.fcnn.num_weights()
    );

    let scenes = SceneSet::new(&config, &[PicmusKind::InSilico], PicmusKind::InSilico)?;
    println!("\ncontrast on the in-silico cyst frame:");
    for beamformer in beamformer_suite(&models, &config) {
        let row = measure(beamformer.as_ref(), &scenes)?;
        println!(
            "  {:<10} CR {:>6.2} dB   CNR {:>5.2}   GCNR {:>4.2}",
            row.name, row.contrast.cr_db, row.contrast.cnr, row.contrast.gcnr
        );
    }
    println!("\n(the paper's full-scale Table I: DAS 13.78 dB, MVDR 21.66 dB, Tiny-CNN 13.45 dB, Tiny-VBF 14.89 dB)");
    Ok(())
}
