//! Planner-driven top-k: the Section 7 use case, wired end-to-end.
//!
//! A query optimizer doesn't know which top-k implementation wins for a
//! given `(n, k, item width, distribution)`; the paper's closing argument
//! is that its cost models are accurate enough to choose. [`auto_topk`]
//! does exactly that: consult the analytic models, then run the chosen
//! algorithm on the simulated device.

use datagen::TopKItem;
use simt::{Device, GpuBuffer};
use topk::{TopKAlgorithm, TopKError, TopKRequest, TopKResult};
use topk_costmodel::{recommend, recommend_full, RankedAlgorithm, ReductionProfile};

/// The auto-planned result: what ran, what the model predicted, what the
/// simulator measured.
#[derive(Debug, Clone)]
pub struct AutoResult<T> {
    /// The underlying top-k result.
    pub result: TopKResult<T>,
    /// Which algorithm the planner picked.
    pub chosen: TopKAlgorithm,
    /// The model's predicted seconds for the chosen algorithm.
    pub predicted_seconds: f64,
    /// The planner's full per-algorithm price list, cheapest first
    /// (`predicted_seconds = None` means the model says it cannot launch
    /// at this configuration).
    pub predictions: Vec<RankedAlgorithm>,
}

/// Top-k with the algorithm chosen by the Section 7 cost models.
///
/// `profile` describes the key distribution's radix behaviour; use
/// [`ReductionProfile::UniformFloats`] when unknown.
pub fn auto_topk<T: TopKItem>(
    dev: &Device,
    input: &GpuBuffer<T>,
    k: usize,
    profile: &ReductionProfile,
) -> Result<AutoResult<T>, TopKError> {
    let choice = recommend(dev.spec(), input.len(), k, T::SIZE_BYTES, profile);
    let chosen = TopKAlgorithm::from(choice.algorithm);
    let result = TopKRequest::largest(k).with_alg(chosen).run(dev, input)?;
    Ok(AutoResult {
        result,
        chosen,
        predicted_seconds: choice.predicted_seconds,
        predictions: recommend_full(dev.spec(), input.len(), k, T::SIZE_BYTES, profile),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{reference_topk, Distribution, Uniform};

    #[test]
    fn auto_picks_bitonic_for_small_k() {
        let dev = Device::titan_x();
        let data: Vec<f32> = Uniform.generate(1 << 16, 1);
        let input = dev.upload(&data);
        let r = auto_topk(&dev, &input, 32, &ReductionProfile::UniformFloats).unwrap();
        assert!(matches!(r.chosen, TopKAlgorithm::Bitonic(_)));
        assert_eq!(r.result.items, reference_topk(&data, 32));
        assert!(r.predicted_seconds > 0.0);
        // the full price list comes back, cheapest first, and its winner
        // agrees with the two-way recommendation
        assert_eq!(r.predictions.len(), 6);
        assert!(matches!(
            r.predictions[0].algorithm,
            topk_costmodel::FullAlgorithm::BitonicTopK
        ));
        let priced: Vec<f64> = r
            .predictions
            .iter()
            .filter_map(|p| p.predicted_seconds)
            .collect();
        assert!(
            priced.windows(2).all(|w| w[0] <= w[1]),
            "sorted cheapest-first"
        );
    }

    #[test]
    fn auto_picks_delegate_for_small_k_large_n() {
        // past the delegate break-even (k ≤ 64, n ≥ 2^20) the planner
        // must route to the delegate decomposition — and the run must
        // still match the oracle (cold path: builds the index inline)
        let dev = Device::titan_x();
        let data: Vec<f32> = Uniform.generate(1 << 20, 9);
        let input = dev.upload(&data);
        let r = auto_topk(&dev, &input, 64, &ReductionProfile::UniformFloats).unwrap();
        assert!(matches!(r.chosen, TopKAlgorithm::DelegateSelect(_)));
        assert_eq!(r.result.items, reference_topk(&data, 64));
        assert!(matches!(
            r.predictions[0].algorithm,
            topk_costmodel::FullAlgorithm::DelegateSelect
        ));
    }

    #[test]
    fn auto_picks_radix_for_huge_k() {
        // the crossover is n-dependent: at small n, launch overheads favor
        // bitonic even for large k, so test at a bandwidth-bound size
        let dev = Device::titan_x();
        let data: Vec<u32> = Uniform.generate(1 << 22, 2);
        let input = dev.upload(&data);
        let r = auto_topk(&dev, &input, 4096, &ReductionProfile::UniformInts).unwrap();
        assert!(matches!(r.chosen, TopKAlgorithm::RadixSelect));
        let got: Vec<u32> = r.result.items.clone();
        assert_eq!(got, reference_topk(&data, 4096));
    }
}
