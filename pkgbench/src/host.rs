//! Host speed: a fixed calibration kernel, timed between ops, that puts the
//! end-to-end times of runs made at different moments on one scale.
//!
//! On a shared host the same fixed work ran up to 1.6× slower in some
//! minutes than in others, with no stolen CPU and no preemption to show for
//! it: neighbours share the core's caches and memory system.  This kernel
//! slows with the program.  Over ten engine-resident runs (one seed each)
//! whose raw throughput spread 12% (quartile distance over median), each
//! op's time scaled by the kernel's median time around it ([`WINDOW`])
//! gave a throughput that spread 4%.  The kernel is the benchmark's own
//! code and the program never runs it, so a change to the program moves
//! the scaled times as much as the raw ones; only the host's speed of the
//! moment divides out.
//!
//! A scaled time reads as the time on a host on which the kernel takes
//! [`REFERENCE_NS`].

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::median;

/// About the kernel's time on a quiet 2-vCPU Xeon VM (2 MiB L2 per core),
/// ns: the host speed every scaled time is expressed at.
pub const REFERENCE_NS: f64 = 3_500_000.0;

/// Elements the kernel fills and sorts per pass (400 KiB of `u64`).
const KERNEL_LEN: usize = 50_000;

/// Passes per sample.
const PASSES: usize = 4;

/// Samples on each side of a stretch of ops whose median sets the
/// stretch's scale.
pub const WINDOW: usize = 8;

/// Times the calibration kernel once, ns: it allocates a fresh buffer and
/// [`PASSES`] times fills it from a fixed xorshift stream and sorts it
/// (integer arithmetic, unpredictable branches, page faults and memory
/// traffic through every cache level).  The work is the same every time.
pub fn sample() -> u64 {
    let clock = Instant::now();
    let mut buffer: Vec<u64> = Vec::with_capacity(KERNEL_LEN);
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    for _ in 0..PASSES {
        buffer.clear();
        for _ in 0..KERNEL_LEN {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            buffer.push(x % 1_000_003);
        }
        buffer.sort_unstable();
        black_box(buffer[KERNEL_LEN / 2]);
    }
    clock.elapsed().as_nanos() as u64
}

/// The factor that turns a time measured while the kernel took `samples`
/// (ns) into a time at the reference speed; 1 without samples.
pub fn scale(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 1.0;
    }
    let samples: Vec<f64> = samples.iter().map(|&ns| ns as f64).collect();
    REFERENCE_NS / median(&samples)
}

/// A drive cut into stretches by its host-speed samples: stretch `s` is
/// the time between sample `s - 1` and sample `s` (the drive's start and
/// end close the first and last).  Returns each stretch's scale, the
/// [`scale`] of the [`WINDOW`] samples on either side of it, and the
/// drive's time at the reference speed.
///
/// `at[s]` is when sample `s` was taken, on the drive's clock with the
/// samples' own time left out; `elapsed` is the whole drive on that clock.
pub fn stretch_scales(samples: &[u64], at: &[Duration], elapsed: Duration) -> (Vec<f64>, f64) {
    let stretches = samples.len() + 1;
    let mut scales = Vec::with_capacity(stretches);
    let mut scaled_s = 0.0;
    for s in 0..stretches {
        let window = &samples[s.saturating_sub(WINDOW)..(s + WINDOW).min(samples.len())];
        let factor = scale(window);
        let start = if s == 0 { Duration::ZERO } else { at[s - 1] };
        let end = at.get(s).copied().unwrap_or(elapsed);
        scaled_s += end.saturating_sub(start).as_secs_f64() * factor;
        scales.push(factor);
    }
    (scales, scaled_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_divides_out_the_median_kernel_time() {
        assert_eq!(scale(&[]), 1.0);
        let half_speed = 2 * REFERENCE_NS as u64;
        assert_eq!(
            scale(&[half_speed, 1, half_speed, u64::MAX, half_speed]),
            0.5
        );
    }

    #[test]
    fn each_stretch_takes_the_speed_around_it() {
        let (reference, slow) = (REFERENCE_NS as u64, 2 * REFERENCE_NS as u64);
        // The host halves its speed after the first 20 samples, one per
        // second of drive time.
        let samples: Vec<u64> = (0..40)
            .map(|s| if s < 20 { reference } else { slow })
            .collect();
        let at: Vec<Duration> = (1..=40).map(Duration::from_secs).collect();
        let (scales, scaled_s) = stretch_scales(&samples, &at, Duration::from_secs(41));
        assert_eq!(scales.len(), 41);
        assert_eq!(scales[0], 1.0);
        assert_eq!(scales[10], 1.0);
        assert_eq!(scales[30], 0.5);
        assert_eq!(scales[40], 0.5);
        // Near the change the window straddles it.
        assert!(scales[20] < 1.0 && scales[20] > 0.5);
        assert!(scaled_s > 20.0 && scaled_s < 41.0);
        // Without samples the drive keeps its own time.
        let (scales, scaled_s) = stretch_scales(&[], &[], Duration::from_secs(3));
        assert_eq!((scales, scaled_s), (vec![1.0], 3.0));
    }

    #[test]
    fn the_kernel_takes_time() {
        assert!(sample() > 0);
    }
}
