//! A run's result: the named metrics, its request counts and the
//! host-noise record printed beside them.

use crate::server::Tally;
use runtime::json::Json;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit (`ms`, `s`, `MB`, `count`, …).
    pub unit: &'static str,
    /// The measured value, unrounded.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Self { name: name.into(), unit, value }
    }
}

/// Everything one run reports.
pub struct Report {
    /// Requests sent and how many came back verified.
    pub tally: Tally,
    /// The run's metrics, in output order.
    pub metrics: Vec<Metric>,
    /// Host-noise record and other context (steal, CPU, sample counts).
    pub host: Json,
}

impl Report {
    /// Whether every request came back `ok` with the reference checksum.
    pub fn correct(&self) -> bool {
        self.tally.sent > 0 && self.tally.failed() == 0
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| (m.name.clone(), Json::obj([("value", Json::num(m.value)), ("unit", Json::str(m.unit))])));
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::num(self.tally.sent as f64)),
            ("failed", Json::num(self.tally.failed() as f64)),
            ("metrics", Json::Obj(metrics.collect())),
        ])
        .to_string_compact()
    }
}
