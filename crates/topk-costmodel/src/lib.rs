#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Analytic cost models for the two best-performing top-k algorithms
//! (paper Section 7): radix select and bitonic top-k — plus the planner
//! that a query optimizer would use to choose between them (the use case
//! the paper motivates the models with).
//!
//! The models are closed-form: they never execute anything. Their inputs
//! are the hardware parameters of Section 7 — global bandwidth `B_G`,
//! shared bandwidth `B_S`, key width `w`, data size `D`, thread count
//! `n_t` — and (for radix select) a per-pass reduction profile, since the
//! pass behaviour depends on the key distribution.
//!
//! The bench harness's figures suite compares these predictions against
//! the simulator's measured times (`fig17/*` cells, reproducing Figure
//! 17; `planner/*` cells for the full ranking, gated by claim 12).

pub mod bitonic;
pub mod cluster;
pub mod delegate;
pub mod extended;
pub mod planner;
pub mod radix;

pub use bitonic::{bitonic_topk_seconds, shared_traffic_factor, BitonicModelInput};
pub use cluster::{cluster_topk_seconds, ClusterEstimate, ClusterModelInput};
pub use delegate::{delegate_select_phases, delegate_select_seconds, DelegatePhases};
pub use extended::{bucket_select_seconds, per_thread_seconds, HeapProfile};
pub use planner::{
    recommend, recommend_checked, recommend_full, Choice, FullAlgorithm, PlanConfig, PlanRejection,
    RankedAlgorithm,
};
pub use radix::{radix_select_seconds, sort_seconds, ReductionProfile};

use simt::DeviceSpec;

/// Threads the selection kernels launch (the paper's cost model treats
/// this as a hardware constant: enough threads to fill the device).
pub(crate) fn model_threads(spec: &DeviceSpec, n: usize) -> f64 {
    ((n as f64) / 64.0).clamp(256.0, (spec.num_sms * 2048) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_threads_saturates() {
        let spec = DeviceSpec::titan_x_maxwell();
        assert_eq!(model_threads(&spec, 1 << 29), (24 * 2048) as f64);
        assert_eq!(model_threads(&spec, 1 << 10), 256.0);
    }
}
