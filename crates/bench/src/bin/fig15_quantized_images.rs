//! Regenerates Fig. 15: B-mode images produced by the quantized (FPGA-model) Tiny-VBF
//! under every quantization scheme, on both datasets, plus an image-fidelity summary
//! (PSNR / NRMSE against the floating-point output).

use bench::evaluation_config_from_env;
use beamforming::bmode::BModeImage;
use beamforming::pipeline::Beamformer;
use quantize::QuantScheme;
use tiny_vbf::evaluation::train_models;
use tiny_vbf::quantized::QuantizedTinyVbfBeamformer;
use ultrasound::picmus::PicmusKind;
use usmetrics::compare::{nrmse, psnr_db};

fn main() {
    let config = evaluation_config_from_env();
    eprintln!("training Tiny-VBF…");
    let models = train_models(&config).expect("training failed");
    let grid = config.grid();

    for (kind, label) in [(PicmusKind::InSilico, "simulation"), (PicmusKind::InVitro, "phantom")] {
        let frame = config.contrast_frame(kind).expect("frame");
        println!("=== Fig. 15 — {label} data ===");
        let float_model = QuantizedTinyVbfBeamformer::new(&models.tiny_vbf, QuantScheme::float());
        let float_iq = float_model
            .beamform(&frame.channel_data, &frame.array, &grid, config.sound_speed)
            .expect("float beamform");
        let float_envelope = float_iq.envelope();
        for scheme in QuantScheme::all() {
            let quantized = QuantizedTinyVbfBeamformer::new(&models.tiny_vbf, scheme);
            let iq = quantized
                .beamform(&frame.channel_data, &frame.array, &grid, config.sound_speed)
                .expect("beamform");
            let envelope = iq.envelope();
            let bmode = BModeImage::from_envelope(&envelope, grid.clone(), config.dynamic_range).expect("bmode");
            let fidelity = if scheme.is_float() {
                "reference".to_string()
            } else {
                format!(
                    "PSNR {:.1} dB, NRMSE {:.4}",
                    psnr_db(&float_envelope, &envelope).unwrap(),
                    nrmse(&float_envelope, &envelope).unwrap()
                )
            };
            println!("--- {} ({fidelity}) ---", scheme.name);
            println!("{}", bmode.to_ascii(48));
        }
    }
}
