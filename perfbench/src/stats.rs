//! Metric plumbing: order statistics, the tail-percentile rule, and the
//! procfs readings the benchmark takes (process CPU, peak RSS, thread
//! run time).

/// Clock ticks per second of the `utime`/`stime` fields in
/// `/proc/<pid>/stat` (`USER_HZ`, fixed at 100 by the kernel ABI).
const USER_HZ: u64 = 100;

/// Median of `values` (mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Arithmetic mean of `values`; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail rule: the highest percentile that still has at least
/// [`TAIL_BEYOND`] samples beyond it. That is the order statistic with
/// exactly ten samples above it, at percentile `100 × (n − 10) / n`.
/// Returns `(percentile, value)`, or `None` when there are too few
/// samples for any percentile to have ten beyond it.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND; // 1-based rank of the reported sample
    Some((100.0 * rank as f64 / n as f64, sorted[rank - 1]))
}

/// User + system CPU ticks from the text of `/proc/<pid>/stat` (fields
/// 14 and 15). The command name in field 2 may hold spaces and
/// parentheses, so fields are counted from its closing parenthesis.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the command name come field 3 (state) onwards; utime is
    // field 14, i.e. the 12th token here.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) in KiB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vmhwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse().ok())
}

/// On-CPU nanoseconds from the text of `/proc/<pid>/schedstat` (its
/// first field).
pub fn parse_schedstat_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_whitespace().next()?.parse().ok()
}

/// Process user + system CPU time in nanoseconds (tick resolution).
pub fn process_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_ticks(&s))
        .map_or(0, |ticks| ticks * (1_000_000_000 / USER_HZ))
}

/// Peak resident set of the process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vmhwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// On-CPU nanoseconds of the calling thread (0 where the kernel keeps
/// no schedstat).
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| parse_schedstat_ns(&s))
        .unwrap_or(0)
}

/// The tail a workload reports: its preferred percentile (nearest rank)
/// while at least [`TAIL_BEYOND`] samples lie beyond it, otherwise the
/// [`tail`] rule. A fixed percentile is steadier across runs than the
/// order statistic the rule picks, whose percentile moves with the
/// sample count. Returns `(percentile, value)`.
pub fn tail_at(values: &[f64], preferred_pct: f64) -> Option<(f64, f64)> {
    let n = values.len();
    let rank = (preferred_pct / 100.0 * n as f64).ceil() as usize;
    if rank == 0 || n.saturating_sub(rank) < TAIL_BEYOND {
        return tail(values);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some((preferred_pct, sorted[rank - 1]))
}

/// 64-bit SplitMix step: the benchmark's seed derivation.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn mean_of_values() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 1..=100: the 90th value has exactly ten above it.
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&values), Some((90.0, 90.0)));
        // 1..=40: the 30th value, at the 75th percentile.
        let values: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        let (pct, value) = tail(&values).unwrap();
        assert_eq!((pct, value), (75.0, 30.0));
        let beyond = values.iter().filter(|v| **v > value).count();
        assert_eq!(beyond, TAIL_BEYOND);
        // Eleven samples: the smallest has ten beyond it; ten have none.
        let values: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&values).map(|t| t.1), Some(1.0));
        assert_eq!(tail(&values[..10]), None);
    }

    #[test]
    fn preferred_tail_falls_back_to_the_rule() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        // p75 of 100 samples has 25 beyond it.
        assert_eq!(tail_at(&values, 75.0), Some((75.0, 75.0)));
        // p95 would have only 5 beyond: the rule's p90 instead.
        assert_eq!(tail_at(&values, 95.0), tail(&values));
        assert_eq!(tail_at(&values[..5], 75.0), None);
    }

    #[test]
    fn stat_cpu_fields_survive_odd_command_names() {
        let stat = "4242 (a b) c) R 1 4242 1 0 -1 4194560 500 0 0 0 \
                    731 269 0 0 20 0 3 0 12345 1000000 300 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(1000));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn vmhwm_and_schedstat_parse() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    1692 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vmhwm_kb(status), Some(1692));
        assert_eq!(parse_vmhwm_kb("Name:\tx\n"), None);
        assert_eq!(parse_schedstat_ns("985842 0 2\n"), Some(985_842));
    }

    #[test]
    fn procfs_readings_are_live() {
        // The kernel adds a running thread's time to schedstat at
        // scheduler ticks, so spin for several ticks before reading.
        let started = std::time::Instant::now();
        let mut x = 0u64;
        while started.elapsed() < std::time::Duration::from_millis(50) {
            x = x.wrapping_add(splitmix64(x));
        }
        std::hint::black_box(x);
        assert!(thread_cpu_ns() > 0);
        assert!(peak_rss_mb() > 0.0);
    }
}
