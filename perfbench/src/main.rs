//! Benchmark of the serving path: a release `serve_agent` under four
//! closed-loop workloads (timed mode), and an in-process replay that times
//! each layer's public calls (traced mode).
//!
//! ```text
//! perfbench --server <serve_agent> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last stdout line is the result object (`correct`, `attempted`,
//! `failed`, `metrics`); the line before it is the host-noise record. Both
//! are also written to `perfbench/out/<workload>-seed<n>-trace<t>.json`
//! under the working directory. The exit code is non-zero when any response
//! failed its output check.

mod report;
mod server;
mod stats;
mod timed;
mod traced;
mod workloads;

use runtime::json::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Workload;

struct Args {
    server: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// Where run records and spans go, relative to the repository root.
const OUT_DIR: &str = "perfbench/out";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut server, mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().ok().filter(|s| *s > 0.0).ok_or("--seconds must be > 0")?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let workload = Workload::new(&args.workload, args.seed)?;
    let out = PathBuf::from(OUT_DIR);
    let report = if args.trace {
        traced::run(&args.server, &workload, args.seconds, &out, args.seed)?
    } else {
        timed::run(&args.server, &workload, args.seconds)?
    };
    let host = Json::obj([("host_noise", report.host.clone())]).to_string_compact();
    let result = report.result_line();
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let record = out.join(format!("{}-seed{}-trace{}.json", workload.name, args.seed, u8::from(args.trace)));
    std::fs::write(&record, format!("{host}\n{result}\n")).map_err(|e| format!("writing {}: {e}", record.display()))?;
    println!("{host}");
    println!("{result}");
    Ok(report.correct())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: some responses failed the output check");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    /// The `serve_agent` to smoke-test against: `$PERFBENCH_SERVE_AGENT`,
    /// else a release build in the usual target directories.
    fn serve_agent() -> PathBuf {
        if let Ok(path) = std::env::var("PERFBENCH_SERVE_AGENT") {
            return PathBuf::from(path);
        }
        ["../.bench_build/release/serve_agent", "../target/release/serve_agent"]
            .iter()
            .map(PathBuf::from)
            .find(|p| p.is_file())
            .expect("build serve_agent first (`python3 perfbench/run.py --test` does)")
    }

    /// Metric names `BENCHMARK.json` declares under `key`.
    fn declared(key: &str) -> Vec<String> {
        let text = std::fs::read_to_string(Path::new("../BENCHMARK.json")).expect("BENCHMARK.json");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let list = json.get(key).and_then(Json::as_arr).expect("metric list");
        list.iter().map(|m| m.get("name").and_then(Json::as_str).expect("name").to_string()).collect()
    }

    /// One short timed and one traced run per workload, run one after the
    /// other: each emits exactly the declared metrics with no failed request.
    #[test]
    fn every_workload_emits_every_declared_metric_without_errors() {
        let bin = serve_agent();
        let out = PathBuf::from("out/smoke-test");
        for name in workloads::NAMES {
            let workload = Workload::new(name, 3).expect("workload");
            for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let report =
                    if trace { traced::run(&bin, &workload, 0.6, &out, 3) } else { timed::run(&bin, &workload, 0.6) }
                        .unwrap_or_else(|e| panic!("{name} (trace {trace}): {e}"));
                let names: Vec<String> = report.metrics.iter().map(|m| m.name.clone()).collect();
                assert_eq!(names, declared(key), "{name} (trace {trace})");
                assert!(report.metrics.iter().all(|m| m.value.is_finite()), "{name}: non-finite metric");
                assert!(report.correct(), "{name} (trace {trace}): a request failed its check");
                assert_eq!(report.host.get("error_rate").and_then(Json::as_f64), Some(0.0));
                assert_eq!(report.host.get("mismatches").and_then(Json::as_f64), Some(0.0));
            }
        }
        let _ = std::fs::remove_dir_all(&out);
    }
}
