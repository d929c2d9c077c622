//! Configuration of the bitonic top-k optimization ladder (Section 4.3).

use crate::TopKError;

/// The cumulative optimization levels of Section 4.3, in the order the
/// paper introduces them. Each level includes all previous ones; the
/// ablation experiment sweeps this enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OptLevel {
    /// Baseline: every network step is its own kernel, reading and
    /// writing global memory (521 ms for top-32 at 2^29 in the paper).
    GlobalSteps,
    /// Operate in shared memory: one kernel per operator (local sort /
    /// merge / rebuild), staged through shared memory (→ 122 ms).
    SharedMem,
    /// Merge operators into the two fused kernels (SortReducer and
    /// BitonicReducer), 8 elements per thread (→ 48.2 ms).
    FusedKernels,
    /// Combine consecutive steps into register-resident groups, halving
    /// shared traffic (→ 33.7 ms).
    CombinedSteps,
    /// Pad shared memory to break bank conflicts; enables 16 elements
    /// per thread (→ 22.3 ms, then 17.8 ms with B = 16).
    Padding,
    /// Permute chunk visit order to remove the remaining conflicts at
    /// comparison distances > 1 (→ 16 ms).
    ChunkPermute,
    /// Re-assign partitions after reductions so active threads keep a
    /// full complement of elements (→ 15.4 ms; the full algorithm).
    ReassignPartitions,
}

impl OptLevel {
    /// All levels, in ladder order.
    pub fn ladder() -> [OptLevel; 7] {
        [
            OptLevel::GlobalSteps,
            OptLevel::SharedMem,
            OptLevel::FusedKernels,
            OptLevel::CombinedSteps,
            OptLevel::Padding,
            OptLevel::ChunkPermute,
            OptLevel::ReassignPartitions,
        ]
    }

    /// Kebab-case name for experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            OptLevel::GlobalSteps => "global-steps",
            OptLevel::SharedMem => "shared-mem",
            OptLevel::FusedKernels => "fused-kernels",
            OptLevel::CombinedSteps => "combined-steps",
            OptLevel::Padding => "padding",
            OptLevel::ChunkPermute => "chunk-permute",
            OptLevel::ReassignPartitions => "reassign-partitions",
        }
    }
}

/// User-facing configuration for [`crate::bitonic::bitonic_topk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitonicConfig {
    /// Optimization level (cumulative). Default: everything on.
    pub opt: OptLevel,
    /// Elements per thread (B). `None` picks the level's default
    /// (8 below [`OptLevel::Padding`], 16 from it up — Figure 8 found 16
    /// optimal once padding removes the conflict penalty).
    pub elems_per_thread: Option<usize>,
    /// Preferred threads per block (capped by shared capacity). Default 256.
    pub block_dim: Option<usize>,
}

impl Default for BitonicConfig {
    fn default() -> Self {
        Self {
            opt: OptLevel::ReassignPartitions,
            elems_per_thread: None,
            block_dim: None,
        }
    }
}

impl BitonicConfig {
    /// Config at a given ladder level (defaults elsewhere).
    pub fn at_level(opt: OptLevel) -> Self {
        Self {
            opt,
            ..Self::default()
        }
    }

    /// Config with an explicit B (the Figure 8 sweep).
    pub fn with_elems_per_thread(b: usize) -> Self {
        assert!(
            b.is_power_of_two() && b >= 2,
            "B must be a power of two ≥ 2"
        );
        Self {
            elems_per_thread: Some(b),
            ..Self::default()
        }
    }

    /// Checks the fields a caller may have set directly: B must be a
    /// power of two ≥ 2 and the preferred block size a power of two ≥ 32
    /// (the smallest block the kernels launch). Every launch geometry
    /// derived from a valid config is a power of two, which the reducers'
    /// schedules and their host execution rely on.
    pub fn validate(&self) -> Result<(), TopKError> {
        let check = |field, value: Option<usize>, min: usize, requirement| match value {
            Some(v) if !v.is_power_of_two() || v < min => Err(TopKError::InvalidConfig {
                field,
                value: v,
                requirement,
            }),
            _ => Ok(()),
        };
        check(
            "BitonicConfig::elems_per_thread",
            self.elems_per_thread,
            2,
            "a power of two ≥ 2",
        )?;
        check(
            "BitonicConfig::block_dim",
            self.block_dim,
            32,
            "a power of two ≥ 32",
        )
    }

    /// Effective B for this level.
    pub fn elems(&self) -> usize {
        self.elems_per_thread.unwrap_or(match self.opt {
            OptLevel::GlobalSteps | OptLevel::SharedMem => 8,
            OptLevel::FusedKernels | OptLevel::CombinedSteps => 8,
            _ => 16,
        })
    }

    /// Step-group element budget: combined steps need
    /// [`OptLevel::CombinedSteps`]; below it every step stands alone.
    pub fn group_budget(&self) -> usize {
        if self.opt >= OptLevel::CombinedSteps {
            self.elems()
        } else {
            2
        }
    }

    /// Whether shared-memory padding is active at this level.
    pub fn padding(&self) -> bool {
        self.opt >= OptLevel::Padding
    }

    /// Whether chunk permutation is active at this level.
    pub fn chunk_permute(&self) -> bool {
        self.opt >= OptLevel::ChunkPermute
    }

    /// Whether partition reassignment is active at this level.
    pub fn reassign(&self) -> bool {
        self.opt >= OptLevel::ReassignPartitions
    }

    /// Whether operators are fused into SortReducer/BitonicReducer.
    pub fn fused(&self) -> bool {
        self.opt >= OptLevel::FusedKernels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_ordered() {
        let l = OptLevel::ladder();
        for w in l.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn defaults_follow_the_paper() {
        let full = BitonicConfig::default();
        assert_eq!(full.elems(), 16);
        assert_eq!(full.group_budget(), 16);
        assert!(full.padding() && full.chunk_permute() && full.reassign());

        let fused = BitonicConfig::at_level(OptLevel::FusedKernels);
        assert_eq!(fused.elems(), 8);
        assert_eq!(fused.group_budget(), 2, "no combined steps yet");
        assert!(!fused.padding());

        let combined = BitonicConfig::at_level(OptLevel::CombinedSteps);
        assert_eq!(combined.group_budget(), 8);
    }

    #[test]
    fn explicit_b_override() {
        let c = BitonicConfig::with_elems_per_thread(32);
        assert_eq!(c.elems(), 32);
        assert_eq!(c.group_budget(), 32);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_b() {
        let _ = BitonicConfig::with_elems_per_thread(12);
    }
}
