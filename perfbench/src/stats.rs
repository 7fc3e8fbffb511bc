//! Order statistics and the `/proc` readers behind the host-noise record.

/// Clock ticks per second of the `/proc` CPU counters (`USER_HZ`, which
/// Linux fixes at 100 for user space on every mainstream architecture).
pub const USER_HZ: f64 = 100.0;

/// Median of a sample; an even count averages the two middle values.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let sorted = sorted(values);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample value with at least
/// `pct` % of the sample at or below it.
///
/// # Panics
///
/// Panics on an empty sample or a `pct` outside `1..=100`.
pub fn percentile(values: &[f64], pct: usize) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    assert!((1..=100).contains(&pct), "percentile {pct} outside 1..=100");
    sorted(values)[rank(values.len(), pct) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank `pct`
/// percentile. A percentile is reported as resolved only with at least
/// [`MIN_BEYOND`] samples beyond it.
pub fn beyond(n: usize, pct: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, pct)
    }
}

/// Samples a percentile needs beyond it before its value is trusted.
pub const MIN_BEYOND: usize = 10;

fn rank(n: usize, pct: usize) -> usize {
    (pct * n).div_ceil(100).clamp(1, n)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// User + system CPU ticks of a whole process (all its threads, live and
/// exited) from the text of `/proc/<pid>/stat`. The command name sits in
/// parentheses and may itself hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn process_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Host-wide steal ticks (time the hypervisor ran someone else while this
/// guest had work) from the text of `/proc/stat`.
pub fn steal_ticks(proc_stat: &str) -> Option<u64> {
    let cpu = proc_stat.lines().find(|line| line.starts_with("cpu "))?;
    cpu.split_whitespace().nth(8)?.parse().ok()
}

/// CPU seconds used so far by process `pid`.
pub fn process_cpu_seconds(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    let ticks = process_cpu_ticks(&text).ok_or_else(|| format!("unparsable {path}"))?;
    Ok(ticks as f64 / USER_HZ)
}

/// Host steal seconds so far, summed over every CPU.
pub fn host_steal_seconds() -> Result<f64, String> {
    let text = std::fs::read_to_string("/proc/stat").map_err(|e| format!("reading /proc/stat: {e}"))?;
    let ticks = steal_ticks(&text).ok_or("unparsable /proc/stat")?;
    Ok(ticks as f64 / USER_HZ)
}

/// Median time (µs) of 21 `runtime::par_map_rows` regions of trivial work at
/// the default thread budget. Tens of µs on a calm guest; when waking an
/// idle vCPU waits on the hypervisor it grows to milliseconds, and so does
/// every cross-thread handoff on the serving path, whatever the steal reads.
pub fn wakeup_probe_us() -> f64 {
    let mut buffer = vec![0usize; 16];
    let samples: Vec<f64> = (0..21)
        .map(|_| {
            let started = std::time::Instant::now();
            runtime::par_map_rows(&mut buffer, 1, runtime::default_threads(), |first, block| {
                block.iter_mut().enumerate().for_each(|(i, v)| *v = first + i)
            });
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn nearest_rank_percentiles_on_a_worked_sample() {
        // 1..=20: p50 is the 10th value, p90 the 18th, p95 the 19th.
        let values: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(percentile(&values, 50), 10.0);
        assert_eq!(percentile(&values, 90), 18.0);
        assert_eq!(percentile(&values, 95), 19.0);
        assert_eq!(percentile(&values, 100), 20.0);
        assert_eq!(percentile(&values, 1), 1.0);
        // A rank that is not a whole number rounds up: 90 % of 7 is 6.3.
        let seven = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0];
        assert_eq!(percentile(&seven, 90), 70.0);
    }

    #[test]
    fn p90_needs_a_hundred_samples_for_ten_beyond() {
        assert_eq!(beyond(100, 90), 10);
        assert_eq!(beyond(99, 90), 9);
        assert_eq!(beyond(109, 90), 10);
        assert_eq!(beyond(110, 90), 11);
        assert_eq!(beyond(20, 50), 10);
        assert_eq!(beyond(19, 50), 9);
        assert_eq!(beyond(0, 90), 0);
        assert!(beyond(100, 90) >= MIN_BEYOND && beyond(99, 90) < MIN_BEYOND);
    }

    #[test]
    fn proc_stat_with_spaces_and_parentheses_in_the_command_name() {
        let stat = "4242 (serve (agent) x) S 1 4242 4242 0 -1 4194304 1200 0 0 0 \
                    731 96 0 0 20 0 7 0 123456 1000000 2000 18446744073709551615";
        assert_eq!(process_cpu_ticks(stat), Some(731 + 96));
        let plain = "17 (serve_agent) R 1 17 17 0 -1 0 0 0 0 0 5 6 0 0 20 0 1 0 1 1 1";
        assert_eq!(process_cpu_ticks(plain), Some(11));
        assert_eq!(process_cpu_ticks("17 (truncated) R 1"), None);
        assert_eq!(process_cpu_ticks("no parenthesis at all"), None);
    }

    #[test]
    fn steal_is_the_eighth_cpu_counter() {
        let text = "cpu  390853 0 42445 394140 307 0 7337 40137 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(steal_ticks(text), Some(40137));
        assert_eq!(steal_ticks("cpu0 1 2 3\n"), None);
    }
}
