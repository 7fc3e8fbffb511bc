//! Operations-per-frame accounting (the paper's efficiency comparison).
//!
//! Section IV of the paper compares beamformers by GOPs per 368 × 128 frame:
//! Tiny-VBF 0.34, FCNN 1.4, Tiny-CNN 11.7, the U-Net CNN of \[8\] ≈ 50, the
//! GoogLeNet/U-Net CNN of \[9\] ≈ 199 and MVDR ≈ 98.78 — plus CPU inference times of
//! 0.230 s, 0.520 s, 4 s and 240 s for Tiny-VBF, Tiny-CNN, CNN \[8\] and MVDR.

use crate::config::TinyVbfConfig;
use neural::flops::{activation_ops, attention_ops, conv2d_ops, dense_ops, layernorm_ops, to_gops};
use serde::{Deserialize, Serialize};

/// Paper-reported GOPs/frame for Tiny-VBF (368 × 128 frame).
pub const PAPER_TINY_VBF_GOPS: f64 = 0.34;
/// Paper-reported GOPs/frame for the FCNN baseline \[6\].
pub const PAPER_FCNN_GOPS: f64 = 1.4;
/// Paper-reported GOPs/frame for the Tiny-CNN baseline \[7\].
pub const PAPER_TINY_CNN_GOPS: f64 = 11.7;
/// Paper-reported GOPs/frame for the wavelet U-Net CNN of \[8\].
pub const PAPER_CNN8_GOPS: f64 = 50.0;
/// Paper-reported GOPs/frame for the GoogLeNet+U-Net CNN of \[9\] (384 × 256 frame).
pub const PAPER_CNN9_GOPS: f64 = 199.0;
/// Paper-reported GOPs/frame for MVDR.
pub const PAPER_MVDR_GOPS: f64 = 98.78;

/// Paper-reported CPU inference time for Tiny-VBF (seconds/frame).
pub const PAPER_TINY_VBF_CPU_SECONDS: f64 = 0.230;
/// Paper-reported CPU inference time for Tiny-CNN (seconds/frame).
pub const PAPER_TINY_CNN_CPU_SECONDS: f64 = 0.520;
/// Paper-reported CPU inference time for the CNN of \[8\] (seconds/frame).
pub const PAPER_CNN8_CPU_SECONDS: f64 = 4.0;
/// Paper-reported CPU inference time for MVDR (seconds/frame).
pub const PAPER_MVDR_CPU_SECONDS: f64 = 240.0;

/// GOPs/frame estimate for one model on a given frame geometry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GopsEstimate {
    /// Model name.
    pub model: String,
    /// Estimated operations per frame.
    pub ops_per_frame: u64,
    /// The same value in GOPs.
    pub gops_per_frame: f64,
}

/// Tiny-VBF operations for one depth row of `tokens` lateral pixels.
pub fn tiny_vbf_ops_per_row(config: &TinyVbfConfig, tokens: usize) -> u64 {
    let d = config.model_dim;
    let mut ops = dense_ops(tokens, config.channels, d);
    if config.positional_embedding {
        ops += (tokens * d) as u64;
    }
    for _ in 0..config.num_blocks {
        ops += layernorm_ops(tokens, d);
        ops += attention_ops(tokens, d, config.num_heads);
        ops += (tokens * d) as u64; // residual add
        ops += layernorm_ops(tokens, d);
        ops += dense_ops(tokens, d, config.mlp_dim);
        ops += activation_ops(tokens * config.mlp_dim);
        ops += dense_ops(tokens, config.mlp_dim, d);
        ops += (tokens * d) as u64; // residual add
    }
    ops += dense_ops(tokens, d, config.decoder_dim);
    ops += activation_ops(tokens * config.decoder_dim);
    ops += dense_ops(tokens, config.decoder_dim, 2);
    ops += activation_ops(tokens * 2);
    ops
}

/// Tiny-VBF operations for a whole `rows × cols` frame.
pub fn tiny_vbf_gops(config: &TinyVbfConfig, rows: usize, cols: usize) -> GopsEstimate {
    let ops = tiny_vbf_ops_per_row(config, cols) * rows as u64;
    GopsEstimate { model: "Tiny-VBF".into(), ops_per_frame: ops, gops_per_frame: to_gops(ops) }
}

/// Tiny-CNN operations for a whole frame (three 3×3 convolutions over the
/// lateral × channel plane per depth row, plus the weighted channel sum).
pub fn tiny_cnn_gops(rows: usize, cols: usize, channels: usize, features: usize) -> GopsEstimate {
    let per_row = conv2d_ops(cols, channels, 1, features, 3)
        + conv2d_ops(cols, channels, features, features, 3)
        + conv2d_ops(cols, channels, features, 1, 3)
        + (2 * cols * channels) as u64;
    let ops = per_row * rows as u64;
    GopsEstimate { model: "Tiny-CNN".into(), ops_per_frame: ops, gops_per_frame: to_gops(ops) }
}

/// FCNN operations for a whole frame (per-pixel dense stack plus the weighted sum).
pub fn fcnn_gops(rows: usize, cols: usize, channels: usize, hidden: usize) -> GopsEstimate {
    let per_pixel = dense_ops(1, channels, hidden) + dense_ops(1, hidden, channels) + (2 * channels) as u64;
    let ops = per_pixel * (rows * cols) as u64;
    GopsEstimate { model: "FCNN".into(), ops_per_frame: ops, gops_per_frame: to_gops(ops) }
}

/// MVDR operation estimate re-exported from the beamforming crate for convenience.
pub fn mvdr_gops(rows: usize, cols: usize, channels: usize) -> GopsEstimate {
    let dims = beamforming::flops::FrameDims { rows, cols, channels };
    let gops = beamforming::flops::mvdr_gops(dims);
    GopsEstimate {
        model: "MVDR".into(),
        ops_per_frame: (gops * 1e9) as u64,
        gops_per_frame: gops,
    }
}

/// DAS operation estimate re-exported from the beamforming crate.
pub fn das_gops(rows: usize, cols: usize, channels: usize) -> GopsEstimate {
    let dims = beamforming::flops::FrameDims { rows, cols, channels };
    let gops = beamforming::flops::das_gops(dims);
    GopsEstimate { model: "DAS".into(), ops_per_frame: (gops * 1e9) as u64, gops_per_frame: gops }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_vbf_cost_is_sub_gop_at_paper_scale() {
        let est = tiny_vbf_gops(&TinyVbfConfig::paper(), 368, 128);
        assert!(est.gops_per_frame < 1.5, "gops {}", est.gops_per_frame);
        assert!(est.gops_per_frame > 0.05, "gops {}", est.gops_per_frame);
    }

    #[test]
    fn ordering_matches_the_paper() {
        // Tiny-VBF < FCNN < Tiny-CNN < MVDR, as in Section IV.
        let tiny_vbf = tiny_vbf_gops(&TinyVbfConfig::paper(), 368, 128).gops_per_frame;
        let fcnn = fcnn_gops(368, 128, 128, 128).gops_per_frame;
        let tiny_cnn = tiny_cnn_gops(368, 128, 128, 8).gops_per_frame;
        let mvdr = mvdr_gops(368, 128, 128).gops_per_frame;
        assert!(tiny_vbf < fcnn, "tiny_vbf {tiny_vbf} fcnn {fcnn}");
        assert!(fcnn < tiny_cnn, "fcnn {fcnn} tiny_cnn {tiny_cnn}");
        assert!(tiny_cnn < mvdr, "tiny_cnn {tiny_cnn} mvdr {mvdr}");
    }

    #[test]
    fn estimates_are_within_an_order_of_magnitude_of_the_paper() {
        let tiny_vbf = tiny_vbf_gops(&TinyVbfConfig::paper(), 368, 128).gops_per_frame;
        let tiny_cnn = tiny_cnn_gops(368, 128, 128, 8).gops_per_frame;
        let fcnn = fcnn_gops(368, 128, 128, 128).gops_per_frame;
        assert!(tiny_vbf / PAPER_TINY_VBF_GOPS < 10.0 && PAPER_TINY_VBF_GOPS / tiny_vbf < 10.0);
        assert!(tiny_cnn / PAPER_TINY_CNN_GOPS < 10.0 && PAPER_TINY_CNN_GOPS / tiny_cnn < 10.0);
        assert!(fcnn / PAPER_FCNN_GOPS < 10.0 && PAPER_FCNN_GOPS / fcnn < 10.0);
    }

    #[test]
    fn cost_scales_linearly_with_rows() {
        let config = TinyVbfConfig::paper();
        let half = tiny_vbf_gops(&config, 184, 128).ops_per_frame;
        let full = tiny_vbf_gops(&config, 368, 128).ops_per_frame;
        assert_eq!(full, half * 2);
    }
}
