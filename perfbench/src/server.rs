//! A `serve_agent` process driven over its stdio control lines and its
//! loopback data protocol, plus the in-process output reference.

use crate::workloads::Workload;
use beamforming::pipeline::Beamformer;
use beamforming::plan::{FrameFormat, PlanCache};
use bench::agent;
use runtime::json::Json;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The direct, unserved result for one `(stream, pool slot)`.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Checksum of the image the stream's backend makes from the frame.
    pub sum: String,
    /// Wall time of that warm `Beamformer::beamform` call, in ms.
    pub direct_ms: f64,
}

/// Expected results per `(stream, pool slot)`.
pub type References = HashMap<(usize, usize), Reference>;

/// Beamforms every frame the workload's requests use in-process, with the
/// backend `serve_agent` builds for the stream (plans warmed first, as the
/// server does), and checksums the images. Under the determinism contract
/// a served image must match bit for bit.
pub fn references(workload: &Workload) -> Result<References, String> {
    let (specs, pools) = agent::build_streams(&workload.scenario);
    let shared_tof = Arc::new(PlanCache::new(4));
    let mut references = HashMap::new();
    for (stream, spec) in specs.iter().enumerate() {
        let backend = agent::build_backend(&spec.backend, spec, &None, &shared_tof).map_err(|e| e.to_string())?;
        backend.prepare(&spec.array, &spec.grid, spec.sound_speed, &FrameFormat::of(&pools[stream][0]));
        for &slot in &workload.slots[stream] {
            if references.contains_key(&(stream, slot)) {
                continue;
            }
            let started = Instant::now();
            let image = backend
                .beamform(&pools[stream][slot], &spec.array, &spec.grid, spec.sound_speed)
                .map_err(|e| format!("reference `{}`: {e}", spec.backend))?;
            let direct_ms = started.elapsed().as_secs_f64() * 1e3;
            references.insert((stream, slot), Reference { sum: agent::image_checksum(&image), direct_ms });
        }
    }
    Ok(references)
}

/// A running `serve_agent`. Dropping it kills the process and waits for it.
pub struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    /// Loopback data-plane port.
    port: u16,
}

impl Server {
    /// Spawns the server and waits for its `ready` line; also returns the
    /// time from spawn to ready (the set-up time).
    pub fn start(bin: &Path, workload: &Workload) -> Result<(Self, Duration), String> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stdout = BufReader::new(child.stdout.take().ok_or("server stdout not piped")?);
        let mut server = Self { child, stdout, port: 0 };
        let line = Json::obj([("scenario", workload.scenario.to_json())]).to_string_compact();
        server.control(&line)?;
        let ready = server.event("ready")?;
        let setup = started.elapsed();
        server.port = ready.get("port").and_then(Json::as_u64).ok_or("ready line without a port")? as u16;
        Ok((server, setup))
    }

    /// The process id (for `/proc/<pid>/stat`).
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Opens one data-plane connection.
    pub fn connect(&self) -> Result<Connection, String> {
        Connection::open(self.port)
    }

    /// Asks for the final stats line and waits for the process to exit;
    /// returns the server's peak RSS in kB.
    pub fn shutdown(mut self) -> Result<u64, String> {
        self.control("shutdown")?;
        let stats = self.event("stats")?;
        let status = self.child.wait().map_err(|e| format!("waiting for serve_agent: {e}"))?;
        if !status.success() {
            return Err(format!("serve_agent exited with {status}"));
        }
        stats.get("rss_kb").and_then(Json::as_u64).ok_or_else(|| "stats line without rss_kb".to_string())
    }

    fn control(&mut self, line: &str) -> Result<(), String> {
        let stdin = self.child.stdin.as_mut().ok_or("server stdin not piped")?;
        writeln!(stdin, "{line}").and_then(|_| stdin.flush()).map_err(|e| format!("writing to serve_agent: {e}"))
    }

    fn event(&mut self, name: &str) -> Result<Json, String> {
        loop {
            let mut line = String::new();
            match self.stdout.read_line(&mut line) {
                Ok(0) => return Err(format!("serve_agent exited before its `{name}` line")),
                Ok(_) => {}
                Err(e) => return Err(format!("reading serve_agent: {e}")),
            }
            let Ok(value) = Json::parse(line.trim()) else { continue };
            match value.get("event").and_then(Json::as_str) {
                Some(event) if event == name => return Ok(value),
                Some("error") => {
                    let detail = value.get("detail").and_then(Json::as_str).unwrap_or("unknown error");
                    return Err(format!("serve_agent: {detail}"));
                }
                _ => {}
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Outcome counts of a closed loop.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Requests sent.
    pub sent: u64,
    /// Responses `ok` whose checksum matched the reference.
    pub verified: u64,
    /// Responses `ok` whose checksum did not match.
    pub mismatches: u64,
}

impl Tally {
    /// Sent requests that did not come back verified.
    pub fn failed(&self) -> u64 {
        self.sent - self.verified
    }

    /// Adds another loop's counts.
    pub fn add(&mut self, other: Tally) {
        self.sent += other.sent;
        self.verified += other.verified;
        self.mismatches += other.mismatches;
    }
}

/// One data-plane connection of the single-process client.
pub struct Connection {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl Connection {
    fn open(port: u16) -> Result<Self, String> {
        let stream = TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("connecting: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        stream.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| format!("timeout: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("cloning socket: {e}"))?);
        Ok(Self { writer: stream, reader, next_id: 0 })
    }

    /// Keeps `workload.inflight` requests outstanding until `stop`, then
    /// drains them. Returns the client-side latency (ms) of every verified
    /// response, in completion order, with the loop's counts.
    pub fn closed_loop(
        &mut self,
        workload: &Workload,
        references: &References,
        stop: Instant,
    ) -> Result<(Vec<f64>, Tally), String> {
        let mut pending: HashMap<u64, (Instant, (usize, usize))> = HashMap::new();
        let mut latencies = Vec::new();
        let mut tally = Tally::default();
        for _ in 0..workload.inflight {
            self.send(workload, &mut pending, &mut tally)?;
        }
        while !pending.is_empty() {
            let mut line = String::new();
            if self.reader.read_line(&mut line).map_err(|e| format!("reading a response: {e}"))? == 0 {
                return Err("serve_agent closed the connection".into());
            }
            let received = Instant::now();
            let response = Json::parse(line.trim()).map_err(|e| format!("bad response line: {e}"))?;
            let id = response.get("id").and_then(Json::as_u64).ok_or("response without an id")?;
            let (sent_at, key) = pending.remove(&id).ok_or_else(|| format!("response for unknown id {id}"))?;
            if response.get("status").and_then(Json::as_str) == Some("ok") {
                let expected = references.get(&key).ok_or("no reference for a requested frame")?;
                if response.get("sum").and_then(Json::as_str) == Some(expected.sum.as_str()) {
                    tally.verified += 1;
                    latencies.push((received - sent_at).as_secs_f64() * 1e3);
                } else {
                    tally.mismatches += 1;
                }
            }
            if received < stop {
                self.send(workload, &mut pending, &mut tally)?;
            }
        }
        Ok((latencies, tally))
    }

    fn send(
        &mut self,
        workload: &Workload,
        pending: &mut HashMap<u64, (Instant, (usize, usize))>,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let id = self.next_id;
        self.next_id += 1;
        let (stream, seed) = workload.request(id);
        let line = request_line(id, stream, seed);
        let sent_at = Instant::now();
        self.writer.write_all(line.as_bytes()).map_err(|e| format!("sending a request: {e}"))?;
        pending.insert(id, (sent_at, (stream, seed as usize % agent::FRAME_POOL)));
        tally.sent += 1;
        Ok(())
    }
}

/// The wire form of one request, newline included.
pub fn request_line(id: u64, stream: usize, seed: u64) -> String {
    let request = Json::obj([
        ("id", Json::num(id as f64)),
        ("stream", Json::num(stream as f64)),
        ("seed", Json::num(seed as f64)),
    ]);
    format!("{}\n", request.to_string_compact())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sums(seed: u64) -> Vec<((usize, usize), String)> {
        let workload = Workload::new("serve_small", seed).expect("workload");
        let mut sums: Vec<_> =
            references(&workload).expect("references").into_iter().map(|(k, r)| (k, r.sum)).collect();
        sums.sort();
        sums
    }

    #[test]
    fn a_seed_reproduces_every_reference_checksum() {
        assert_eq!(sums(9), sums(9));
        assert_ne!(sums(9), sums(10), "another seed offers other frames");
    }

    #[test]
    fn request_lines_carry_id_stream_and_seed() {
        assert_eq!(request_line(7, 2, 31), "{\"id\":7,\"stream\":2,\"seed\":31}\n");
    }
}
