//! Shared infrastructure for the table/figure regeneration binaries, the scenario
//! benchmark harness and the agents it spawns.
//!
//! The paper binaries in `src/bin/` each regenerate one table or figure:
//!
//! | Binary | Paper artefact |
//! |---|---|
//! | `table1_2_quality` | Tables I and II (contrast and axial/lateral resolution, simulation + phantom) |
//! | `table3_schemes` | Table III (hybrid quantization bit widths) |
//! | `table4_5_quantized_quality` | Tables IV and V (quality vs quantization) |
//! | `table6_resources` | Table VI + Fig. 1(b) (FPGA resource utilization) |
//! | `gops_inference_time` | Section IV GOPs and measured CPU time per frame (DAS, MVDR, Tiny-CNN, FCNN, Tiny-VBF) |
//! | `fig09_contrast_images` | Figs. 1(a), 9(a), 10 (B-mode cyst images) |
//! | `fig09b_lateral_profile` | Fig. 9(b) (lateral variation across a cyst) |
//! | `fig11_resolution_images` | Figs. 11 and 13 (B-mode point-target images) |
//! | `fig12_psf_insilico` | Fig. 12 (lateral PSFs, in-silico) |
//! | `fig14_psf_invitro` | Fig. 14 (lateral PSFs, in-vitro) |
//! | `fig15_quantized_images` | Fig. 15 (B-mode under quantization) |
//!
//! The table I, II, IV–V and figure binaries train their models first and honour the
//! `TINY_VBF_EVAL` environment variable: `test` selects the seconds-scale smoke
//! configuration, `paper` the paper-scale one, anything else (or unset) the reduced
//! evaluation configuration
//! ([`EvaluationConfig::reduced`](tiny_vbf::evaluation::EvaluationConfig::reduced)).
//!
//! The other binaries serve the benchmarks: `bench_scenarios` / `bench_compare` (the
//! scenario harness and its regression gate, see `docs/BENCHMARKS.md`), the
//! `serve_agent`, `shard_agent` and `load_agent` processes they spawn, `eval_quality`
//! (per-rung image quality) and `bench_pr9` (fixed-point vs float inference on the
//! paper grid).

pub mod agent;
pub mod compare;
pub mod harness;
pub mod report;
pub mod scenarios;

pub use report::*;
