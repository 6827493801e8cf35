//! Sample statistics: the percentile rule, medians and process memory.

/// Candidate percentiles, in basis points (50%, 90%, 99%, 99.9%, 99.99%).
const LADDER_BP: [u64; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// Samples a percentile must have strictly above it to be reported.
pub const MIN_BEYOND: u64 = 10;

/// Nearest-rank position (1-based) of the `bp` basis-point percentile in
/// `n` sorted samples.
fn rank(n: u64, bp: u64) -> u64 {
    (bp * n).div_ceil(10_000).clamp(1, n.max(1))
}

/// The highest percentile of the ladder with at least [`MIN_BEYOND`]
/// samples beyond it, in percent; `None` when not even the median has.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    let n = n as u64;
    LADDER_BP
        .iter()
        .rev()
        .find(|&&bp| n >= rank(n, bp) + MIN_BEYOND)
        .map(|&bp| bp as f64 / 100.0)
}

/// Nearest-rank percentile `p` (percent) of ascending `sorted` samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let bp = (p * 100.0).round() as u64;
    sorted[rank(sorted.len() as u64, bp) as usize - 1]
}

/// A tail percentile `p` when the sample supports it, otherwise the
/// highest percentile it does support (the median at worst).
pub fn tail(sorted: &[f64], p: f64) -> (f64, f64) {
    let supported = highest_supported_percentile(sorted.len()).unwrap_or(50.0);
    let used = p.min(supported);
    (percentile(sorted, used), used)
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Machine-wide CPU ticks from `/proc/stat`: (stolen by the hypervisor,
/// all states).  On a shared host, the stolen share of a timed window
/// explains runs that are slow for reasons outside the program.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|field| field.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// FNV-1a over a byte stream, for result digests.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        // 20 samples: rank 10 is the median and 10 lie beyond it.
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), 500.0);
        assert_eq!(percentile(&samples, 99.0), 990.0);
        assert_eq!(percentile(&samples, 100.0), 1_000.0);
        assert_eq!(tail(&samples, 99.0), (990.0, 99.0));
        // 200 samples cannot support p99: the rule falls back to p90.
        assert_eq!(tail(&samples[..200], 99.0), (180.0, 90.0));
    }

    #[test]
    fn medians_and_ratios() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
