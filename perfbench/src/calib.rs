//! Host-speed calibration.
//!
//! On a shared host, co-tenants slow this process's CPU by up to 2× for
//! seconds at a time (measured on a shared 2-vCPU virtual machine: the
//! same 2^16 bitonic read took 62 ms in quiet periods and 100–127 ms in
//! busy ones, with no steal time; the slowdown is in execution itself). A
//! fixed compute-bound probe slows by the same factor: over 400
//! alternations, medians of 20 consecutive reads moved by 23% (top-k)
//! and 30% (SQL) while their ratio to the probe moved by 5% and 4%; a
//! random-gather probe tracked far worse (13%). So every timed section
//! is preceded by a probe, and its wall time is rescaled to the speed at
//! which the probe takes [`NOMINAL_MS`], using the median of the five
//! probes around it. The probe is the benchmark's own code, so a program
//! change cannot move it; raw wall times are logged beside the rescaled
//! ones.

use std::time::Instant;

use crate::rng::Rng;

/// Probe time the rescaled host clock is pinned to, in ms: the probe's
/// time in quiet periods on the 2-vCPU virtual machine the benchmark was
/// tuned on, so rescaled times read close to raw ones there.
pub const NOMINAL_MS: f64 = 0.55;

/// Elements the probe sorts (128 KiB: resident in a core's L2).
const PROBE_LEN: usize = 32 * 1024;

/// The probe: sorting a fixed pseudo-random array, best of three.
pub struct Probe {
    src: Vec<u32>,
    buf: Vec<u32>,
}

impl Default for Probe {
    fn default() -> Self {
        let mut rng = Rng::new(0x5eed);
        let src: Vec<u32> = (0..PROBE_LEN).map(|_| rng.next_u64() as u32).collect();
        Probe {
            buf: src.clone(),
            src,
        }
    }
}

impl Probe {
    /// One probe: the fastest of three sorts, in ms.
    pub fn sample_ms(&mut self) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            self.buf.copy_from_slice(&self.src);
            let t0 = Instant::now();
            self.buf.sort_unstable();
            std::hint::black_box(&self.buf);
            best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        }
        best
    }
}

/// Rescaling factors for a sequence of probes taken in time order: the
/// nominal probe time over the median of the (up to) five probes
/// centred on each one, so one disturbed probe cannot skew a section.
pub fn speed_factors(probes: &[f64]) -> Vec<f64> {
    (0..probes.len())
        .map(|i| {
            let lo = i.saturating_sub(2);
            let hi = (i + 3).min(probes.len());
            NOMINAL_MS / crate::stats::median(&probes[lo..hi])
        })
        .collect()
}

/// `raw` times (any unit) rescaled by the factors of the probes taken
/// just before each of them.
pub fn rescale(raw: &[f64], probes: &[f64]) -> Vec<f64> {
    raw.iter()
        .zip(speed_factors(probes))
        .map(|(t, f)| t * f)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_use_the_centred_median() {
        let f = speed_factors(&[0.55, 0.55, 5.0, 0.55, 1.1, 1.1, 1.1]);
        assert_eq!(f[2], 1.0, "one disturbed probe is outvoted");
        assert_eq!(f[6], 0.5);
        assert_eq!(f.len(), 7);
    }

    #[test]
    fn probe_reads_a_positive_time() {
        let mut p = Probe::default();
        assert!(p.sample_ms() > 0.0);
    }
}
