#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Workload generation for top-k experiments.
//!
//! This crate provides the three foundations every other crate in the
//! workspace builds on:
//!
//! * [`SortKey`] — a unified, total ordering over all key types the paper
//!   evaluates (`f32`, `f64`, `u32`, `i32`, `u64`, `i64`) via
//!   *order-preserving bit transforms*, the same trick GPU radix sorts use.
//!   Comparing transformed bits as unsigned integers is equivalent to
//!   comparing the original values, which gives radix partitioning and
//!   bitonic compare-exchange a single code path.
//! * [`TopKItem`] — the tuple shapes of Section 6.6: bare keys, key+value,
//!   and multi-key+value records (`Kv`, `Kkv`, `Kkkv`).
//! * [`Distribution`] — the input distributions of Sections 6.2–6.5:
//!   uniform, increasing, decreasing, and the adversarial *bucket killer*,
//!   plus Zipf for the Twitter workload.
//!
//! The [`twitter`] module synthesizes the MapD evaluation dataset
//! (Section 6.8) with realistic skew.

pub mod dist;
pub mod item;
pub mod keys;
pub mod twitter;

pub use dist::{
    reference_topk, BucketKiller, Clustered, Decreasing, Distribution, GenKey, Increasing, Normal,
    Uniform, Zipf,
};
pub use item::{rev_slice, Kkkv, Kkv, Kv, Rev, RevView, TopKItem};
pub use keys::{RadixBits, RankBits, SortKey};

/// Reads the experiment scale from the `TOPK_REPRO_LOG2N` environment
/// variable, falling back to `default_log2n`.
///
/// The paper runs most experiments at n = 2^29; the simulator defaults to
/// 2^22 so the full suite completes in minutes. Simulated times are
/// bandwidth-derived and scale linearly in n.
pub fn repro_log2n(default_log2n: u32) -> u32 {
    std::env::var("TOPK_REPRO_LOG2N")
        .ok()
        .and_then(|s| s.parse::<u32>().ok())
        .map(|v| v.clamp(10, 29))
        .unwrap_or(default_log2n)
}
