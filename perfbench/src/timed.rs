//! The timed run: end-to-end metrics of one workload served by a release
//! `serve_agent`, measured by this process's single-connection client.

use crate::report::{Metric, Report};
use crate::server::{self, Server, Tally};
use crate::stats::{self, median, percentile};
use crate::workloads::Workload;
use runtime::json::Json;
use std::path::Path;
use std::time::{Duration, Instant};

/// Fewest cold starts behind `setup_s`.
const MIN_STARTS: usize = 5;
/// Most cold starts behind `setup_s` (reached when a start is cheap).
const MAX_STARTS: usize = 21;
/// Past this much time spent starting servers, stop once [`MIN_STARTS`] ran.
const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// Samples of one client-side measurement of a running server.
pub struct Window {
    /// Latency (ms) of every verified response sent inside the window.
    pub latencies: Vec<f64>,
    /// Counts of the window's requests.
    pub tally: Tally,
    /// Server user + system CPU seconds over the window.
    pub server_cpu_s: f64,
    /// Host steal seconds over the window (all CPUs).
    pub steal_s: f64,
    /// Window length in seconds, drain included.
    pub wall_s: f64,
    /// [`stats::wakeup_probe_us`] right after the window.
    pub wakeup_us: f64,
}

/// Warms a running server for a tenth of the window (0.5–2 s), then runs
/// the closed loop for `seconds` and reads the server's CPU time and the
/// host's steal around it. Warm-up requests count in the returned tally.
pub fn measure(
    server: &Server,
    workload: &Workload,
    references: &server::References,
    seconds: f64,
) -> Result<(Window, Tally), String> {
    let mut connection = server.connect()?;
    let warmup = Duration::from_secs_f64((seconds / 10.0).clamp(0.5, 2.0));
    let (_, warm) = connection.closed_loop(workload, references, Instant::now() + warmup)?;
    let cpu0 = stats::process_cpu_seconds(server.pid())?;
    let steal0 = stats::host_steal_seconds()?;
    let start = Instant::now();
    let (latencies, tally) = connection.closed_loop(workload, references, start + Duration::from_secs_f64(seconds))?;
    let wall_s = start.elapsed().as_secs_f64();
    let window = Window {
        latencies,
        tally,
        server_cpu_s: stats::process_cpu_seconds(server.pid())? - cpu0,
        steal_s: stats::host_steal_seconds()? - steal0,
        wall_s,
        wakeup_us: stats::wakeup_probe_us(),
    };
    Ok((window, warm))
}

/// The verified checksums as `{"<stream>/<slot>": sum}`, in key order, so a
/// rerun with the same seed can be compared line for line.
fn checksums(references: &server::References) -> Json {
    let mut keys: Vec<_> = references.keys().copied().collect();
    keys.sort_unstable();
    Json::Obj(keys.iter().map(|k| (format!("{}/{}", k.0, k.1), Json::str(references[k].sum.clone()))).collect())
}

/// Runs the timed mode of one workload.
pub fn run(bin: &Path, workload: &Workload, seconds: f64) -> Result<Report, String> {
    let references = server::references(workload)?;

    // Several cold starts; the last server stays up for the measurement.
    let mut setups = Vec::new();
    let starting = Instant::now();
    let server = loop {
        let (server, setup) = Server::start(bin, workload)?;
        setups.push(setup.as_secs_f64());
        let enough = setups.len() >= MAX_STARTS || starting.elapsed() >= SETUP_BUDGET;
        if setups.len() >= MIN_STARTS && enough {
            break server;
        }
        server.shutdown()?;
    };

    let (window, warm) = measure(&server, workload, &references, seconds)?;
    let rss_kb = server.shutdown()?;
    let mut tally = window.tally;
    tally.add(warm);
    if window.latencies.is_empty() {
        return Err("no verified response inside the measured window".into());
    }

    let latencies = &window.latencies;
    let metrics = vec![
        Metric::new("latency_ms_p50", "ms", median(latencies)),
        Metric::new("server_cpu_ms_per_frame", "ms", window.server_cpu_s * 1e3 / window.tally.verified as f64),
        Metric::new("setup_s", "s", median(&setups)),
        Metric::new("server_rss_mb", "MB", rss_kb as f64 / 1024.0),
    ];
    // The tail is recorded, not gated: a p90 needs 100 samples for ten
    // beyond it, more than a paper-grid window holds (see the README).
    let host = Json::obj([
        ("steal_s", Json::num(window.steal_s)),
        ("server_cpu_s", Json::num(window.server_cpu_s)),
        ("window_s", Json::num(window.wall_s)),
        ("wakeup_probe_us", Json::num(window.wakeup_us)),
        ("latency_ms_p90", Json::num(percentile(latencies, 90))),
        (
            "samples",
            Json::obj([
                ("latency_ms_p50", Json::num(latencies.len() as f64)),
                ("beyond_p50", Json::num(stats::beyond(latencies.len(), 50) as f64)),
                ("beyond_p90", Json::num(stats::beyond(latencies.len(), 90) as f64)),
                ("p90_resolved", Json::Bool(stats::beyond(latencies.len(), 90) >= stats::MIN_BEYOND)),
                ("server_cpu_ms_per_frame", Json::num(window.tally.verified as f64)),
                ("setup_s", Json::num(setups.len() as f64)),
            ]),
        ),
        ("error_rate", Json::num(tally.failed() as f64 / tally.sent.max(1) as f64)),
        ("mismatches", Json::num(tally.mismatches as f64)),
        ("checksums", checksums(&references)),
    ]);
    Ok(Report { tally, metrics, host })
}
