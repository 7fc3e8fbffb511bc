//! Image-quality evaluation runner: render every router backend over the
//! calibration phantoms and emit gateable per-rung quality summaries.
//!
//! Usage:
//!
//! ```text
//! eval_quality [--profile fast|full] [--out-dir quality_out]
//! ```
//!
//! Writes into `--out-dir`:
//!
//! * `quality_<backend>.summary.json` — one gate summary per router rung,
//!   `{schema_version, scenario, profile, quality: {cr_db, cnr, gcnr,
//!   fwhm_mm, sqnr_db}}`, consumed by `bench_compare` against the
//!   committed `QUALITY_baseline.json`,
//! * `QUALITY_profile.json` — the full [`evals::QualityProfile`] document,
//! * `QUALITY_calibration.json` — the degrade ladder calibrated from the
//!   measured profile ([`evals::calibrate`]).
//!
//! Exit status: 0 on success, 2 on usage, evaluation or I/O errors. See
//! `docs/BENCHMARKS.md` for the gate workflow.

use bench::harness::SCHEMA_VERSION;
use evals::{calibrate, evaluate, EvalConfig};
use runtime::json::Json;
use std::path::{Path, PathBuf};

fn usage() -> ! {
    eprintln!("usage: eval_quality [--profile fast|full] [--out-dir DIR]");
    std::process::exit(2);
}

fn fail(message: &str) -> ! {
    eprintln!("eval_quality: {message}");
    std::process::exit(2);
}

fn write_json(path: &Path, value: &Json) {
    std::fs::write(path, value.to_string_pretty() + "\n")
        .unwrap_or_else(|e| fail(&format!("writing {}: {e}", path.display())));
}

fn main() {
    let mut config = EvalConfig::fast();
    let mut out_dir = PathBuf::from("quality_out");

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--profile" => {
                config = match args.next().as_deref() {
                    Some("fast") => EvalConfig::fast(),
                    Some("full") => EvalConfig::full(),
                    Some(other) => fail(&format!("unknown profile `{other}` (fast|full)")),
                    None => usage(),
                }
            }
            "--out-dir" => out_dir = PathBuf::from(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }

    std::fs::create_dir_all(&out_dir)
        .unwrap_or_else(|e| fail(&format!("creating {}: {e}", out_dir.display())));

    eprintln!("eval_quality: rendering all router backends ({} profile)...", config.label);
    let profile = evaluate(&config).unwrap_or_else(|e| fail(&format!("evaluation: {e}")));
    write_json(&out_dir.join("QUALITY_profile.json"), &profile.to_json());

    // One gate summary per rung: `bench_compare` treats each backend as a
    // scenario named `quality_<backend>` so per-rung tolerances compose
    // with the existing scenario-override machinery.
    for rung in &profile.rungs {
        let summary = Json::obj([
            ("schema_version", Json::num(SCHEMA_VERSION as f64)),
            ("scenario", Json::str(format!("quality_{}", rung.backend))),
            ("profile", Json::str(&profile.profile)),
            (
                "quality",
                Json::obj([
                    ("cr_db", Json::num(rung.cr_db)),
                    ("cnr", Json::num(rung.cnr)),
                    ("gcnr", Json::num(rung.gcnr)),
                    ("fwhm_mm", Json::num(rung.fwhm_mm)),
                    // Informational (not gated): `null` encodes the float
                    // rung's infinite SQNR.
                    ("sqnr_db", Json::num(rung.sqnr_db)),
                ]),
            ),
        ]);
        write_json(&out_dir.join(format!("quality_{}.summary.json", rung.backend)), &summary);
        println!(
            "{:<16} CR {:>6.2} dB  CNR {:>5.2}  gCNR {:>5.3}  FWHM {:>5.2} mm  SQNR {:>6.1} dB",
            rung.backend, rung.cr_db, rung.cnr, rung.gcnr, rung.fwhm_mm, rung.sqnr_db
        );
    }

    let calibration = calibrate(&profile).unwrap_or_else(|e| fail(&format!("calibration: {e}")));
    write_json(&out_dir.join("QUALITY_calibration.json"), &calibration.to_json());
    println!(
        "calibrated ladder: [{}]  sqnr floor: {:?}",
        calibration.degrade.ladders[0].join(" > "),
        calibration.degrade.sqnr_floor_db
    );
    println!("wrote {} rung summaries to {}", profile.rungs.len(), out_dir.display());
}
