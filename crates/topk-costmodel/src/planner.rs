//! The planner use case of Section 7: given `(n, k, key width)`, predict
//! which top-k implementation a query optimizer should pick.

use crate::bitonic::{bitonic_topk_seconds, BitonicModelInput};
use crate::delegate::{delegate_select_seconds, model_subrange};
use crate::radix::{radix_select_seconds, ReductionProfile};
use simt::lint::{lint_geometry, LaunchGeometry, LintFinding, Severity};
use simt::DeviceSpec;

/// The planner's verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Choice {
    /// The algorithm the planner recommends.
    pub algorithm: Algorithm,
    /// Predicted seconds for the chosen algorithm.
    pub predicted_seconds: f64,
    /// Predicted seconds for the runner-up.
    pub alternative_seconds: f64,
}

/// The candidate implementations the planner prices: the paper's two
/// models plus delegate select (Dr. Top-k).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// The paper's bitonic top-k (wins for small k at moderate n).
    BitonicTopK,
    /// MSD radix select (wins for large k).
    RadixSelect,
    /// Delegate select (wins for small k at large n, where the cached
    /// delegate index turns the full scan into a sparse refinement).
    DelegateSelect,
}

/// Prices the three candidates with one shared set of knobs, so the
/// checked and unchecked recommendation paths produce bit-identical
/// estimates. Returned in enum order: (bitonic, radix, delegate).
fn price_candidates(
    spec: &DeviceSpec,
    n: usize,
    k: usize,
    item_bytes: usize,
    profile: &ReductionProfile,
    elems_per_thread: usize,
) -> (f64, f64, f64) {
    // conflict degree rises past the k range chunk permutation covers
    let conflict_degree = if k.next_power_of_two() <= 256 {
        1.0
    } else {
        1.3
    };
    let t_bitonic = bitonic_topk_seconds(
        spec,
        BitonicModelInput {
            n,
            k,
            item_bytes,
            elems_per_thread,
            conflict_degree,
        },
    );
    let t_radix = radix_select_seconds(spec, n, item_bytes, profile);
    let t_delegate = delegate_select_seconds(
        spec,
        n,
        k,
        item_bytes,
        profile,
        elems_per_thread,
        conflict_degree,
    );
    (t_bitonic, t_radix, t_delegate)
}

/// Picks the cheapest of the priced candidates; the runner-up becomes
/// the alternative.
fn choose(t_bitonic: f64, t_radix: f64, t_delegate: f64) -> Choice {
    let mut ranked = [
        (Algorithm::BitonicTopK, t_bitonic),
        (Algorithm::RadixSelect, t_radix),
        (Algorithm::DelegateSelect, t_delegate),
    ];
    ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite predictions"));
    Choice {
        algorithm: ranked[0].0,
        predicted_seconds: ranked[0].1,
        alternative_seconds: ranked[1].1,
    }
}

/// Chooses among bitonic top-k, radix select, and delegate select from
/// the cost models — the paper's conclusion (bitonic for `k ≤ 256`,
/// radix select beyond) refined by the Dr. Top-k follow-up: at small k
/// over large inputs the delegate decomposition undercuts both.
///
/// `profile` describes the expected digit distribution; use
/// [`ReductionProfile::UniformFloats`] when unknown (a conservative
/// choice: it favors radix select the least). The adversarial
/// [`ReductionProfile::BucketKiller`] also prices delegate select's
/// worst case — every subrange survives the threshold — pushing the
/// choice back to bitonic.
pub fn recommend(
    spec: &DeviceSpec,
    n: usize,
    k: usize,
    item_bytes: usize,
    profile: &ReductionProfile,
) -> Choice {
    let (t_bitonic, t_radix, t_delegate) = price_candidates(spec, n, k, item_bytes, profile, 16);
    choose(t_bitonic, t_radix, t_delegate)
}

/// The launch knobs a checked recommendation would execute with. The
/// defaults are the paper's shipped configuration (B = 16 elements per
/// thread, 256-thread blocks); a query optimizer probing other points
/// feeds them here and lets the static lints veto the unlaunchable ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanConfig {
    /// Threads per block for the reduction kernels.
    pub block_dim: usize,
    /// Elements each thread owns in the bitonic SortReducer.
    pub elems_per_thread: usize,
}

impl Default for PlanConfig {
    fn default() -> Self {
        PlanConfig {
            block_dim: 256,
            elems_per_thread: 16,
        }
    }
}

/// A configuration the planner refused: its launch plan fails hard
/// static lints and would fault at launch, so no recommendation is
/// produced. Warnings never reject — only error-severity findings do.
#[derive(Debug, Clone)]
pub struct PlanRejection {
    /// The algorithm whose launch plan failed the lints.
    pub algorithm: Algorithm,
    /// The geometry that was analyzed.
    pub geometry: LaunchGeometry,
    /// The hard findings (every entry has [`Severity::Error`]).
    pub errors: Vec<LintFinding>,
}

impl std::fmt::Display for PlanRejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "plan rejected: `{}` (grid {} × block {}, {} B shared) fails {} hard lint{}",
            self.geometry.name,
            self.geometry.grid_dim,
            self.geometry.block_dim,
            self.geometry.shared_bytes_per_block,
            self.errors.len(),
            if self.errors.len() == 1 { "" } else { "s" },
        )?;
        for e in &self.errors {
            write!(f, "\n  {e}")?;
        }
        Ok(())
    }
}

impl std::error::Error for PlanRejection {}

/// Derives the launch geometry the simulated implementation of `alg`
/// would use at this configuration — the same shapes the `topk` crate
/// builds, reproduced here so the planner can lint a candidate plan
/// without constructing any kernel.
fn plan_geometry(alg: Algorithm, n: usize, item_bytes: usize, cfg: &PlanConfig) -> LaunchGeometry {
    match alg {
        Algorithm::BitonicTopK => {
            // one segment of block_dim × elems_per_thread items lives in
            // shared memory, padded by 1/32 to dodge bank conflicts
            let seg = cfg.block_dim * cfg.elems_per_thread;
            let padded = seg + seg / 32;
            LaunchGeometry {
                name: "bitonic_local_sort".to_string(),
                grid_dim: n.div_ceil(seg.max(1)).max(1),
                block_dim: cfg.block_dim,
                shared_bytes_per_block: padded * item_bytes,
                regs_per_thread: 32 + cfg.elems_per_thread * item_bytes.div_ceil(4),
                low_occupancy_waiver: None,
            }
        }
        Algorithm::RadixSelect => {
            // histogram pass: 256 digit bins of u32 counts per block
            let per_block = cfg.block_dim * cfg.elems_per_thread;
            LaunchGeometry {
                name: "radix_select_hist".to_string(),
                grid_dim: n.div_ceil(per_block.max(1)).max(1),
                block_dim: cfg.block_dim,
                shared_bytes_per_block: 256 * 4,
                regs_per_thread: 24,
                low_occupancy_waiver: None,
            }
        }
        Algorithm::DelegateSelect => {
            // the binding pass is the bitonic reduction over the delegate
            // set and the refined runs — same segment shape as bitonic,
            // over the (much smaller) delegate count
            let seg = cfg.block_dim * cfg.elems_per_thread;
            let padded = seg + seg / 32;
            let c = n.div_ceil(model_subrange(1)).max(1);
            LaunchGeometry {
                name: "delegate_bitonic_reduce".to_string(),
                grid_dim: c.div_ceil(seg.max(1)).max(1),
                block_dim: cfg.block_dim,
                shared_bytes_per_block: padded * item_bytes,
                regs_per_thread: 32 + cfg.elems_per_thread * item_bytes.div_ceil(4),
                low_occupancy_waiver: None,
            }
        }
    }
}

/// [`recommend`], gated by the static launch-plan lints: prices both
/// algorithms with `cfg`'s knobs, then refuses to recommend a plan whose
/// launch geometry fails a hard lint (block over the device limit,
/// shared memory oversubscribed, …) — returning the typed
/// [`PlanRejection`] carrying the findings instead of an estimate the
/// device could never honor.
pub fn recommend_checked(
    spec: &DeviceSpec,
    n: usize,
    k: usize,
    item_bytes: usize,
    profile: &ReductionProfile,
    cfg: &PlanConfig,
) -> Result<Choice, PlanRejection> {
    let (t_bitonic, t_radix, t_delegate) =
        price_candidates(spec, n, k, item_bytes, profile, cfg.elems_per_thread);
    let choice = choose(t_bitonic, t_radix, t_delegate);
    let geometry = plan_geometry(choice.algorithm, n, item_bytes, cfg);
    let report = lint_geometry(spec, &geometry);
    if report.error_count() > 0 {
        let errors = report
            .findings
            .iter()
            .filter(|f| f.severity() == Severity::Error)
            .cloned()
            .collect();
        return Err(PlanRejection {
            algorithm: choice.algorithm,
            geometry,
            errors,
        });
    }
    Ok(choice)
}

/// A priced algorithm in the full line-up ranking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedAlgorithm {
    /// Which algorithm this row prices.
    pub algorithm: FullAlgorithm,
    /// Predicted seconds (`None` = cannot launch at this configuration).
    pub predicted_seconds: Option<f64>,
}

/// The full Figure 11 line-up (extends the paper's two-way [`Algorithm`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FullAlgorithm {
    /// Sort-and-choose baseline.
    Sort,
    /// Per-thread heaps.
    PerThread,
    /// MSD radix select.
    RadixSelect,
    /// Min/max bucket select.
    BucketSelect,
    /// Bitonic top-k.
    BitonicTopK,
    /// Delegate select (warm index).
    DelegateSelect,
}

/// Prices every algorithm (the paper's two models plus the `extended`
/// ones) and returns them cheapest-first. Algorithms that cannot launch
/// (per-thread beyond its shared-memory limit) sort last with
/// `predicted_seconds = None`.
pub fn recommend_full(
    spec: &DeviceSpec,
    n: usize,
    k: usize,
    item_bytes: usize,
    profile: &ReductionProfile,
) -> Vec<RankedAlgorithm> {
    use crate::extended::{bucket_select_seconds, per_thread_seconds, HeapProfile};
    let conflict_degree = if k.next_power_of_two() <= 256 {
        1.0
    } else {
        1.3
    };
    let mut out = vec![
        RankedAlgorithm {
            algorithm: FullAlgorithm::Sort,
            predicted_seconds: Some(crate::radix::sort_seconds(spec, n, item_bytes)),
        },
        RankedAlgorithm {
            algorithm: FullAlgorithm::PerThread,
            predicted_seconds: per_thread_seconds(spec, n, k, item_bytes, HeapProfile::Uniform),
        },
        RankedAlgorithm {
            algorithm: FullAlgorithm::RadixSelect,
            predicted_seconds: Some(radix_select_seconds(spec, n, item_bytes, profile)),
        },
        RankedAlgorithm {
            algorithm: FullAlgorithm::BucketSelect,
            predicted_seconds: Some(bucket_select_seconds(spec, n, item_bytes, k)),
        },
        RankedAlgorithm {
            algorithm: FullAlgorithm::BitonicTopK,
            predicted_seconds: Some(bitonic_topk_seconds(
                spec,
                BitonicModelInput {
                    n,
                    k,
                    item_bytes,
                    elems_per_thread: 16,
                    conflict_degree,
                },
            )),
        },
        RankedAlgorithm {
            algorithm: FullAlgorithm::DelegateSelect,
            predicted_seconds: Some(delegate_select_seconds(
                spec,
                n,
                k,
                item_bytes,
                profile,
                16,
                conflict_degree,
            )),
        },
    ];
    out.sort_by(|a, b| match (a.predicted_seconds, b.predicted_seconds) {
        (Some(x), Some(y)) => x.partial_cmp(&y).expect("finite predictions"),
        (Some(_), None) => std::cmp::Ordering::Less,
        (None, Some(_)) => std::cmp::Ordering::Greater,
        (None, None) => std::cmp::Ordering::Equal,
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DeviceSpec {
        DeviceSpec::titan_x_maxwell()
    }

    #[test]
    fn small_k_picks_bitonic_at_moderate_n() {
        // below the delegate break-even the paper's conclusion stands:
        // bitonic for small k
        for k in [1usize, 32, 128, 256] {
            let c = recommend(&spec(), 1 << 16, k, 4, &ReductionProfile::UniformFloats);
            assert_eq!(c.algorithm, Algorithm::BitonicTopK, "k={k}");
            assert!(c.predicted_seconds <= c.alternative_seconds);
        }
    }

    #[test]
    fn small_k_large_n_pins_delegate_select() {
        // the ISSUE-8 acceptance regime: k ≤ 64, n ≥ 2^20 must pick the
        // delegate decomposition (warm index, uniform keys)
        for log2n in [20usize, 22, 24, 28] {
            for k in [1usize, 16, 64] {
                let c = recommend(&spec(), 1 << log2n, k, 4, &ReductionProfile::UniformFloats);
                assert_eq!(c.algorithm, Algorithm::DelegateSelect, "n=2^{log2n} k={k}");
                assert!(c.predicted_seconds <= c.alternative_seconds);
            }
        }
    }

    #[test]
    fn crossover_exists_for_large_k() {
        // somewhere beyond the paper's k = 256 the planner must flip to
        // radix select (2^22: large enough that bitonic's shared-memory
        // sorting hurts, small enough that the delegate set is too
        // coarse to help at k in the thousands)
        assert_eq!(
            recommend(&spec(), 1 << 22, 32, 4, &ReductionProfile::UniformInts).algorithm,
            Algorithm::DelegateSelect
        );
        let flipped = [512usize, 1024, 2048, 4096].iter().any(|&k| {
            recommend(&spec(), 1 << 22, k, 4, &ReductionProfile::UniformInts).algorithm
                == Algorithm::RadixSelect
        });
        assert!(flipped, "planner never chose radix select at large k");
    }

    #[test]
    fn bucket_killer_pushes_away_from_radix() {
        // the adversarial distribution degenerates radix select's pass
        // reduction, and forces delegate select into full refinement —
        // its prediction must degrade by orders of magnitude vs uniform
        let c = recommend(&spec(), 1 << 28, 1024, 4, &ReductionProfile::BucketKiller);
        assert_ne!(
            c.algorithm,
            Algorithm::RadixSelect,
            "radix select degenerates on the adversarial input"
        );
        let uni = recommend(&spec(), 1 << 28, 1024, 4, &ReductionProfile::UniformFloats);
        assert!(
            c.predicted_seconds > 10.0 * uni.predicted_seconds,
            "the adversary must erase the delegate shortcut ({} vs {})",
            c.predicted_seconds,
            uni.predicted_seconds
        );
    }

    #[test]
    fn full_ranking_matches_figure_11_at_k32() {
        // delegate < bitonic < per-thread < {radix, bucket} < sort at
        // 2^26, k = 32 (Figure 11 order, with the warm delegate index
        // undercutting everything)
        let ranked = recommend_full(&spec(), 1 << 26, 32, 4, &ReductionProfile::UniformFloats);
        assert_eq!(ranked[0].algorithm, FullAlgorithm::DelegateSelect);
        assert_eq!(ranked[1].algorithm, FullAlgorithm::BitonicTopK);
        assert_eq!(ranked.last().unwrap().algorithm, FullAlgorithm::Sort);
        // strictly ordered costs
        let costs: Vec<f64> = ranked.iter().filter_map(|r| r.predicted_seconds).collect();
        assert!(costs.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn full_ranking_marks_unlaunchable_per_thread() {
        let ranked = recommend_full(&spec(), 1 << 24, 512, 4, &ReductionProfile::UniformFloats);
        let pt = ranked
            .iter()
            .find(|r| r.algorithm == FullAlgorithm::PerThread)
            .unwrap();
        assert!(pt.predicted_seconds.is_none(), "k=512 cannot launch");
        assert_eq!(ranked.last().unwrap().algorithm, FullAlgorithm::PerThread);
    }

    #[test]
    fn checked_recommendation_matches_unchecked_on_sane_config() {
        let c = recommend_checked(
            &spec(),
            1 << 24,
            32,
            4,
            &ReductionProfile::UniformFloats,
            &PlanConfig::default(),
        )
        .expect("the shipped configuration must lint clean");
        let u = recommend(&spec(), 1 << 24, 32, 4, &ReductionProfile::UniformFloats);
        assert_eq!(c.algorithm, u.algorithm);
        assert_eq!(c.predicted_seconds.to_bits(), u.predicted_seconds.to_bits());
    }

    #[test]
    fn planner_refuses_oversized_block_with_typed_error() {
        let cfg = PlanConfig {
            block_dim: 4096, // titan x caps threads per block at 1024
            elems_per_thread: 16,
        };
        let err = recommend_checked(
            &spec(),
            1 << 24,
            32,
            4,
            &ReductionProfile::UniformFloats,
            &cfg,
        )
        .expect_err("a 4096-thread block cannot launch");
        assert!(!err.errors.is_empty());
        assert!(err
            .errors
            .iter()
            .all(|f| f.severity() == simt::lint::Severity::Error));
        assert!(err
            .errors
            .iter()
            .any(|f| f.kind == simt::lint::LintKind::BlockTooLarge));
        assert_eq!(err.geometry.block_dim, 4096);
        let msg = err.to_string();
        assert!(msg.contains("plan rejected"), "{msg}");
        assert!(msg.contains("launch.block-too-large"), "{msg}");
    }

    #[test]
    fn planner_refuses_shared_memory_oversubscription() {
        let cfg = PlanConfig {
            block_dim: 256,
            elems_per_thread: 256, // 64 K items/segment => ~264 KB shared
        };
        let err = recommend_checked(
            &spec(),
            1 << 24,
            32,
            4,
            &ReductionProfile::UniformFloats,
            &cfg,
        )
        .expect_err("segment cannot fit in shared memory");
        assert!(err
            .errors
            .iter()
            .any(|f| f.kind == simt::lint::LintKind::SharedMemExceeded));
        // at 2^24 / k=32 the cheapest plan is delegate select, whose
        // binding reduction kernel has the same segment-in-shared shape
        assert_eq!(err.algorithm, Algorithm::DelegateSelect);
    }

    #[test]
    fn predictions_are_positive_and_ordered() {
        let c = recommend(&spec(), 1 << 24, 64, 4, &ReductionProfile::UniformInts);
        assert!(c.predicted_seconds > 0.0);
        assert!(c.alternative_seconds >= c.predicted_seconds);
    }
}
