//! Order statistics over measured samples, and the process's peak
//! resident memory.

/// The `q`-th percentile (`0..=100`) of `samples`, interpolating
/// linearly between the two closest ranks (the "linear" method: rank
/// `q/100 · (n-1)` over the sorted samples). A fixed percentile, so a
/// change in the number of samples does not move which order
/// statistic it reads. `None` for an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..=100.0).contains(&q) {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = q / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

/// The median (50th percentile).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Peak resident set size in MiB, parsed from a `/proc/<pid>/status`
/// text (`VmHWM:` line, in kB).
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_mb(&status)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(percentile(&v, 50.0), Some(2.5));
        // rank 0.9 * 3 = 2.7 -> 3 + 0.7 * (4 - 3)
        let p90 = percentile(&v, 90.0).unwrap();
        assert!((p90 - 3.7).abs() < 1e-12, "{p90}");
    }

    #[test]
    fn percentile_of_one_sample_is_that_sample() {
        assert_eq!(percentile(&[7.5], 90.0), Some(7.5));
        assert_eq!(median(&[7.5]), Some(7.5));
    }

    #[test]
    fn percentile_rejects_empty_and_out_of_range() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[1.0], 101.0), None);
        assert_eq!(percentile(&[1.0], -1.0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.5));
    }

    #[test]
    fn p90_does_not_jump_with_sample_count() {
        // The same distribution sampled 10x and 11x reads the same p90
        // to within one step of the distribution.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let eleven: Vec<f64> = (0..=10).map(|i| 1.0 + 0.9 * f64::from(i)).collect();
        let (a, b) = (
            percentile(&ten, 90.0).unwrap(),
            percentile(&eleven, 90.0).unwrap(),
        );
        assert!((a - b).abs() < 0.2, "{a} vs {b}");
    }

    #[test]
    fn vm_hwm_parses_kb_to_mib() {
        let status = "Name:\tperfbench\nVmPeak:\t  999 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(2.0));
    }

    #[test]
    fn vm_hwm_missing_or_garbled_is_none() {
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t1024 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn live_peak_rss_is_positive() {
        let mb = peak_rss_mb().expect("VmHWM readable on Linux");
        assert!(mb > 0.0);
    }
}
