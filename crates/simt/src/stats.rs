//! Kernel statistics and simulated time.

/// Simulated time in seconds.
///
/// A thin newtype so call sites can't confuse simulated GPU time with
/// host wall-clock measurements.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(pub f64);

impl SimTime {
    /// Zero simulated time.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Wraps a duration in seconds.
    pub fn from_seconds(s: f64) -> Self {
        SimTime(s)
    }
    /// The duration in seconds.
    pub fn seconds(self) -> f64 {
        self.0
    }
    /// The duration in milliseconds.
    pub fn millis(self) -> f64 {
        self.0 * 1e3
    }
    /// The duration in microseconds.
    pub fn micros(self) -> f64 {
        self.0 * 1e6
    }
}

impl std::ops::Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

/// Folds from [`SimTime::ZERO`], not from `f64`'s empty sum (−0.0), so
/// a span with nothing in it reports +0; a sum with any term other than
/// ±0 is bit for bit `f64`'s.
impl std::iter::Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> Self {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 >= 1.0 {
            write!(f, "{:.3} s", self.0)
        } else if self.0 >= 1e-3 {
            write!(f, "{:.3} ms", self.0 * 1e3)
        } else {
            write!(f, "{:.3} µs", self.0 * 1e6)
        }
    }
}

/// Machine-quantity counters accumulated over one kernel launch.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelStats {
    /// Global memory bytes moved (after coalescing), reads.
    pub global_read_bytes: u64,
    /// Global memory bytes moved (after coalescing), writes.
    pub global_write_bytes: u64,
    /// Number of coalesced 32-byte sectors touched.
    pub global_sectors: u64,
    /// Raw global access count (lane-level, before coalescing).
    pub global_accesses: u64,
    /// Shared-memory effective bytes: conflict-degree-weighted warp lines.
    pub shared_eff_bytes: u64,
    /// Raw shared access count (lane-level).
    pub shared_accesses: u64,
    /// Warp-level shared access groups that had a bank conflict.
    pub shared_conflict_groups: u64,
    /// Extra cycles lost to bank conflicts (degree − 1 summed over groups).
    pub shared_conflict_cycles: u64,
    /// Scalar-op-equivalents of compute work.
    pub compute_ops: u64,
    /// Atomic operations issued.
    pub atomic_ops: u64,
    /// Number of `step` rounds executed across all blocks.
    pub steps: u64,
}

impl KernelStats {
    /// Total global bytes (reads + writes).
    pub fn global_bytes(&self) -> u64 {
        self.global_read_bytes + self.global_write_bytes
    }

    /// Merges another stats block into this one.
    pub fn merge(&mut self, other: &KernelStats) {
        self.global_read_bytes += other.global_read_bytes;
        self.global_write_bytes += other.global_write_bytes;
        self.global_sectors += other.global_sectors;
        self.global_accesses += other.global_accesses;
        self.shared_eff_bytes += other.shared_eff_bytes;
        self.shared_accesses += other.shared_accesses;
        self.shared_conflict_groups += other.shared_conflict_groups;
        self.shared_conflict_cycles += other.shared_conflict_cycles;
        self.compute_ops += other.compute_ops;
        self.atomic_ops += other.atomic_ops;
        self.steps += other.steps;
    }

    /// Average 32-byte sectors touched per raw global access — the
    /// coalescing quality. 1/8 is perfect for 4-byte lanes (8 lanes per
    /// sector); 1.0 means every lane paid its own sector (fully
    /// uncoalesced). Returns 0 when no tracked global accesses occurred
    /// (bulk-traffic kernels charge bytes without per-lane accounting).
    pub fn sectors_per_access(&self) -> f64 {
        if self.global_accesses == 0 {
            0.0
        } else {
            self.global_sectors as f64 / self.global_accesses as f64
        }
    }

    /// Average bank-conflict degree over shared warp access groups:
    /// 1.0 means conflict-free.
    pub fn avg_conflict_degree(&self) -> f64 {
        let groups = self.shared_eff_bytes / 128; // one warp line = 128 B
        if groups == 0 {
            return 1.0;
        }
        // eff bytes = degree × 128 per group, so degree = eff / (groups’ base)
        let base_groups = groups - self.shared_conflict_cycles;
        if base_groups == 0 {
            1.0
        } else {
            groups as f64 / base_groups as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_arithmetic_and_display() {
        let a = SimTime::from_seconds(0.5e-3);
        let b = SimTime::from_seconds(1.5e-3);
        assert!((a + b).millis() - 2.0 < 1e-12);
        let mut c = a;
        c += b;
        assert!((c.millis() - 2.0).abs() < 1e-12);
        assert_eq!(format!("{}", SimTime::from_seconds(2.0)), "2.000 s");
        assert_eq!(format!("{}", SimTime::from_seconds(2e-3)), "2.000 ms");
        assert_eq!(format!("{}", SimTime::from_seconds(2e-6)), "2.000 µs");
        let total: SimTime = [a, b].into_iter().sum();
        assert!((total.millis() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn avg_conflict_degree_from_counters() {
        // two warp lines, one conflict cycle → 2 lines / 1 group = 2.0
        let s = KernelStats {
            shared_eff_bytes: 2 * 128,
            shared_conflict_groups: 1,
            shared_conflict_cycles: 1,
            ..Default::default()
        };
        assert!((s.avg_conflict_degree() - 2.0).abs() < 1e-9);
        // conflict-free traffic → 1.0
        let s = KernelStats {
            shared_eff_bytes: 4 * 128,
            ..Default::default()
        };
        assert!((s.avg_conflict_degree() - 1.0).abs() < 1e-9);
        // no shared traffic at all → 1.0
        assert!((KernelStats::default().avg_conflict_degree() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stats_merge_adds_fields() {
        let mut a = KernelStats {
            global_read_bytes: 100,
            compute_ops: 5,
            ..Default::default()
        };
        let b = KernelStats {
            global_read_bytes: 50,
            global_write_bytes: 10,
            atomic_ops: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.global_read_bytes, 150);
        assert_eq!(a.global_write_bytes, 10);
        assert_eq!(a.global_bytes(), 160);
        assert_eq!(a.compute_ops, 5);
        assert_eq!(a.atomic_ops, 3);
    }
}
