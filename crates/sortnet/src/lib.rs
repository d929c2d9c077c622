#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Bitonic sorting-network primitives.
//!
//! This crate is the shared substrate for both the GPU kernels (`topk`
//! crate, simulated) and the CPU implementation (`topk-cpu`): step
//! schedules for the three operators of the paper's bitonic top-k
//! (Section 3.2), the XOR-pairing index arithmetic, direction rules,
//! host-side reference operators, and the index maps behind the shared
//! memory optimizations of Section 4.3 (combined steps, padding, chunk
//! permutation).
//!
//! # The network convention
//!
//! We use the classic XOR formulation of bitonic sort. Building sorted
//! runs of length `r` (phase `r`), with step distance `j`:
//!
//! ```text
//! partner(i) = i ^ j
//! ascending(i) = (i & r) == 0
//! ```
//!
//! After phase `r`, runs of length `r` are sorted, alternating
//! ascending (even run index) / descending (odd run index), so every
//! aligned window of `2r` elements is a bitonic sequence — the invariant
//! the merge operator exploits.

pub mod combine;
pub mod diagram;
pub mod host;
pub mod network;

pub use combine::{chunk_rotation, CombinedStep, PadMap, StepGroupPlan};
pub use diagram::render as render_network;
pub use host::{
    bitonic_sort, bitonic_topk_host, is_bitonic, local_sort, merge_halve, merge_in_place, rebuild,
    runs_sorted_alternating,
};
pub use network::{ascending_at, local_sort_steps, partner, rebuild_steps, Step};

/// Rounds `n` up to the next power of two (`n` itself if already one).
///
/// Bitonic networks require power-of-two extents; callers pad with
/// sentinels up to this size.
pub fn next_pow2(n: usize) -> usize {
    n.next_power_of_two()
}

/// True if `n` is a power of two (and nonzero).
pub fn is_pow2(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// Integer log2 for a power of two.
///
/// # Panics
/// If `n` is not a power of two.
pub fn log2(n: usize) -> u32 {
    assert!(is_pow2(n), "log2 of non-power-of-two {n}");
    n.trailing_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_pow2_values() {
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(1000), 1024);
        assert_eq!(next_pow2(1024), 1024);
    }

    #[test]
    fn is_pow2_values() {
        assert!(is_pow2(1));
        assert!(is_pow2(64));
        assert!(!is_pow2(0));
        assert!(!is_pow2(3));
        assert!(!is_pow2(96));
    }

    #[test]
    fn log2_values() {
        assert_eq!(log2(1), 0);
        assert_eq!(log2(2), 1);
        assert_eq!(log2(1024), 10);
    }

    #[test]
    #[should_panic(expected = "non-power-of-two")]
    fn log2_rejects_non_pow2() {
        log2(3);
    }
}
