//! The four Twitter queries of Section 6.8, each with the paper's
//! execution strategies and per-stage kernel-time breakdowns (Figure 16).

use datagen::Kv;
use simt::{Device, SimTime};

use crate::engine::{
    rank_pairs, run_fused_topk, run_topk_stage, FilterKernel, FilterOp, GroupCountKernel,
    PairOrder, ProjectRankKernel, RowItem, TopKStrategy,
};
use crate::error::QdbError;
use crate::table::GpuTweetTable;

/// How a query executes its top-k (the Figure 16 strategy line-up).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Separate filter/project kernel, then full sort (MapD's default).
    StageSort,
    /// Separate filter/project kernel, then bitonic top-k.
    StageBitonic,
    /// The Section 5 fused kernel: filter/ranking evaluated inside the
    /// SortReducer.
    CombinedBitonic,
}

impl Strategy {
    /// Name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::StageSort => "filter+sort",
            Strategy::StageBitonic => "filter+bitonic",
            Strategy::CombinedBitonic => "combined-bitonic",
        }
    }

    /// All three strategies, in the Figure 16 order.
    pub fn all() -> [Strategy; 3] {
        [
            Strategy::StageSort,
            Strategy::StageBitonic,
            Strategy::CombinedBitonic,
        ]
    }
}

/// The outcome of one query execution.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Result tweet ids (or uids for Q4), ranked.
    pub ids: Vec<u32>,
    /// Total modeled kernel time on the device.
    pub kernel_time: SimTime,
    /// Per-stage breakdown `(kernel name, time)`.
    pub breakdown: Vec<(String, SimTime)>,
}

fn collect_result(dev: &Device, log_start: usize, ids: Vec<u32>) -> QueryResult {
    let reports = dev.log_since(log_start);
    QueryResult {
        ids,
        kernel_time: reports.iter().map(|r| r.time).sum(),
        breakdown: reports
            .iter()
            .map(|r| (r.name.to_string(), r.time))
            .collect(),
    }
}

/// The top-k stage a staged plan runs.
pub(crate) fn stage_strategy(strategy: Strategy) -> TopKStrategy {
    if strategy == Strategy::StageSort {
        TopKStrategy::Sort
    } else {
        TopKStrategy::Bitonic
    }
}

/// Q1/Q3: `SELECT id FROM tweets WHERE <filter> ORDER BY retweet_count
/// DESC LIMIT k`.
pub fn filtered_topk(
    dev: &Device,
    table: &GpuTweetTable,
    op: &FilterOp,
    k: usize,
    strategy: Strategy,
) -> Result<QueryResult, QdbError> {
    filtered::<Kv<u32>>(dev, table, op, k, strategy)
}

/// The filtered plans in either direction: `P = Kv<u32>` ranks the
/// largest retweet counts first (`DESC`), `P = Rev<Kv<u32>>` the
/// smallest (`ASC`). The staged plans run the largest-k stage on the
/// candidate buffer viewed in place as `P` (no extra pass, as
/// [`topk::TopKRequest::smallest`] does); the fused plan feeds `P` items
/// to the one FusedSortReducer kernel.
pub(crate) fn filtered<P: PairOrder>(
    dev: &Device,
    table: &GpuTweetTable,
    op: &FilterOp,
    k: usize,
    strategy: Strategy,
) -> Result<QueryResult, QdbError> {
    let log_start = dev.log_len();
    let items: Vec<P> = match strategy {
        Strategy::StageSort | Strategy::StageBitonic => {
            let out = dev.try_alloc::<Kv<u32>>(table.len())?;
            let cnt = dev.try_alloc::<u32>(1)?;
            dev.launch(&FilterKernel {
                table,
                op,
                out: out.clone(),
                out_count: cnt.clone(),
            })?;
            let m = cnt.get(0) as usize;
            if m == 0 {
                Vec::new()
            } else {
                let stage = stage_strategy(strategy);
                P::view(&out, |c| run_topk_stage(dev, c, m, k.min(m), stage))?.items
            }
        }
        Strategy::CombinedBitonic => {
            // the fused kernel evaluates the predicate itself; the matched
            // set is computed host-side for the functional result
            let matched: Vec<P> = table.with_columns(|c| op.matched_pairs(&c));
            if matched.is_empty() {
                Vec::new()
            } else {
                let k = k.min(matched.len());
                run_fused_topk(dev, table, op.pred_bytes(), 4, matched, k)?.items
            }
        }
    };
    Ok(collect_result(dev, log_start, ids_of(&items)))
}

/// The row ids of ranked items, in rank order.
fn ids_of<T: RowItem>(items: &[T]) -> Vec<u32> {
    items.iter().map(T::id).collect()
}

/// Q2: `SELECT id FROM tweets ORDER BY retweet_count + 0.5·likes_count
/// DESC LIMIT k`.
pub fn ranked_topk(
    dev: &Device,
    table: &GpuTweetTable,
    k: usize,
    strategy: Strategy,
) -> Result<QueryResult, QdbError> {
    let log_start = dev.log_len();
    match strategy {
        Strategy::StageSort | Strategy::StageBitonic => {
            let out = dev.try_alloc::<Kv<f32>>(table.len())?;
            dev.launch(&ProjectRankKernel {
                table,
                out: out.clone(),
            })?;
            let n = table.len();
            let r = run_topk_stage(dev, &out, n, k.min(n), stage_strategy(strategy))?;
            Ok(collect_result(dev, log_start, ids_of(&r.items)))
        }
        Strategy::CombinedBitonic => {
            let mut matched = vec![Kv::default(); table.len()];
            table.with_columns(|c| rank_pairs(&c, &mut matched));
            let k = k.min(matched.len());
            // the ranking function reads both count columns (8 B/row); no
            // separate predicate column
            let r = run_fused_topk(dev, table, 4, 4, matched, k)?;
            Ok(collect_result(dev, log_start, ids_of(&r.items)))
        }
    }
}

/// Q4: `SELECT uid, COUNT(*) FROM tweets GROUP BY uid ORDER BY COUNT(*)
/// DESC LIMIT k`. Returns uids.
pub fn group_topk(
    dev: &Device,
    table: &GpuTweetTable,
    k: usize,
    strategy: TopKStrategy,
) -> Result<QueryResult, QdbError> {
    let log_start = dev.log_len();
    let out = dev.try_alloc::<Kv<u32>>(table.len())?;
    let cnt = dev.try_alloc::<u32>(1)?;
    dev.launch(&GroupCountKernel {
        table,
        out: out.clone(),
        out_count: cnt.clone(),
    })?;
    let g = cnt.get(0) as usize;
    let r = run_topk_stage(dev, &out, g, k.min(g), strategy)?;
    Ok(collect_result(dev, log_start, ids_of(&r.items)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::twitter::TweetTable;

    fn setup(n: usize) -> (Device, TweetTable, GpuTweetTable) {
        let dev = Device::titan_x();
        let host = TweetTable::generate(n, 11);
        let gpu = GpuTweetTable::upload(&dev, &host);
        (dev, host, gpu)
    }

    /// Reference Q1 result keys (retweet counts of the winners).
    fn reference_q1_keys(host: &TweetTable, cutoff: u32, k: usize) -> Vec<u32> {
        let mut keys: Vec<u32> = (0..host.len())
            .filter(|&r| host.tweet_time[r] < cutoff)
            .map(|r| host.retweet_count[r])
            .collect();
        keys.sort_unstable_by(|a, b| b.cmp(a));
        keys.truncate(k);
        keys
    }

    #[test]
    fn q1_strategies_agree_and_match_reference() {
        let (dev, host, gpu) = setup(60_000);
        let cutoff = host.time_cutoff_for_selectivity(0.5);
        let op = FilterOp::TimeLess(cutoff);
        let expect = reference_q1_keys(&host, cutoff, 50);
        for strat in Strategy::all() {
            let r = filtered_topk(&dev, &gpu, &op, 50, strat).unwrap();
            let keys: Vec<u32> = r
                .ids
                .iter()
                .map(|&id| host.retweet_count[id as usize])
                .collect();
            assert_eq!(keys, expect, "{}", strat.name());
            // every returned id must satisfy the predicate
            for &id in &r.ids {
                assert!(host.tweet_time[id as usize] < cutoff, "{}", strat.name());
            }
            assert!(r.kernel_time.seconds() > 0.0);
            assert!(!r.breakdown.is_empty());
        }
    }

    #[test]
    fn q1_zero_selectivity() {
        let (dev, _host, gpu) = setup(10_000);
        for strat in Strategy::all() {
            let r = filtered_topk(&dev, &gpu, &FilterOp::TimeLess(0), 50, strat).unwrap();
            assert!(r.ids.is_empty(), "{}", strat.name());
        }
    }

    /// The fused plan at selectivity 0 launches nothing: its kernel time
    /// is the empty sum, +0 and not −0.
    #[test]
    fn launch_free_query_reports_positive_zero_time() {
        let (dev, _host, gpu) = setup(10_000);
        let r = filtered_topk(
            &dev,
            &gpu,
            &FilterOp::TimeLess(0),
            50,
            Strategy::CombinedBitonic,
        )
        .unwrap();
        assert!(r.breakdown.is_empty(), "nothing launched");
        assert_eq!(r.kernel_time.0.to_bits(), 0);
    }

    #[test]
    fn q1_ascending_returns_the_smallest_keys() {
        let (dev, host, gpu) = setup(30_000);
        let cutoff = host.time_cutoff_for_selectivity(0.5);
        let op = FilterOp::TimeLess(cutoff);
        let mut expect: Vec<u32> = (0..host.len())
            .filter(|&r| host.tweet_time[r] < cutoff)
            .map(|r| host.retweet_count[r])
            .collect();
        expect.sort_unstable();
        expect.truncate(25);
        for strat in Strategy::all() {
            let r = filtered::<datagen::Rev<Kv<u32>>>(&dev, &gpu, &op, 25, strat).unwrap();
            let keys: Vec<u32> = r
                .ids
                .iter()
                .map(|&id| host.retweet_count[id as usize])
                .collect();
            assert_eq!(keys, expect, "{}", strat.name());
            for &id in &r.ids {
                assert!(host.tweet_time[id as usize] < cutoff, "{}", strat.name());
            }
        }
    }

    #[test]
    fn q2_ranking_strategies_agree() {
        let (dev, host, gpu) = setup(40_000);
        let rank = |r: usize| host.retweet_count[r] as f32 + 0.5 * host.likes_count[r] as f32;
        let mut expect: Vec<f32> = (0..host.len()).map(rank).collect();
        expect.sort_unstable_by(|a, b| b.partial_cmp(a).unwrap());
        expect.truncate(20);
        for strat in Strategy::all() {
            let r = ranked_topk(&dev, &gpu, 20, strat).unwrap();
            let keys: Vec<f32> = r.ids.iter().map(|&id| rank(id as usize)).collect();
            assert_eq!(keys, expect, "{}", strat.name());
        }
    }

    #[test]
    fn q3_lang_filter() {
        let (dev, host, gpu) = setup(40_000);
        let op = FilterOp::LangIn(vec![0, 1]);
        let r = filtered_topk(&dev, &gpu, &op, 30, Strategy::CombinedBitonic).unwrap();
        assert_eq!(r.ids.len(), 30);
        for &id in &r.ids {
            assert!(host.lang[id as usize] <= 1);
        }
    }

    #[test]
    fn q4_group_by_topk() {
        let (dev, host, gpu) = setup(50_000);
        // reference: count per uid, top-5 counts
        let mut counts = std::collections::HashMap::new();
        for &u in &host.uid {
            *counts.entry(u).or_insert(0u32) += 1;
        }
        let mut ref_counts: Vec<u32> = counts.values().copied().collect();
        ref_counts.sort_unstable_by(|a, b| b.cmp(a));
        ref_counts.truncate(5);

        for strat in [TopKStrategy::Sort, TopKStrategy::Bitonic] {
            let r = group_topk(&dev, &gpu, 5, strat).unwrap();
            let got: Vec<u32> = r.ids.iter().map(|uid| counts[uid]).collect();
            assert_eq!(got, ref_counts, "{strat:?}");
        }
    }

    #[test]
    fn combined_is_fastest_at_full_selectivity() {
        // Figure 16a at selectivity 1: combined < filter+bitonic < filter+sort
        let (dev, host, gpu) = setup(1 << 17);
        let cutoff = host.time_cutoff_for_selectivity(1.0);
        let op = FilterOp::TimeLess(cutoff);
        let t_sort = filtered_topk(&dev, &gpu, &op, 50, Strategy::StageSort)
            .unwrap()
            .kernel_time;
        let t_bitonic = filtered_topk(&dev, &gpu, &op, 50, Strategy::StageBitonic)
            .unwrap()
            .kernel_time;
        let t_combined = filtered_topk(&dev, &gpu, &op, 50, Strategy::CombinedBitonic)
            .unwrap()
            .kernel_time;
        assert!(
            t_bitonic.seconds() < t_sort.seconds(),
            "bitonic {t_bitonic} should beat sort {t_sort}"
        );
        assert!(
            t_combined.seconds() < t_bitonic.seconds(),
            "fusion {t_combined} should beat staged {t_bitonic}"
        );
    }

    #[test]
    fn combined_saves_on_q2_too() {
        let (dev, _host, gpu) = setup(1 << 17);
        let t_staged = ranked_topk(&dev, &gpu, 50, Strategy::StageBitonic)
            .unwrap()
            .kernel_time;
        let t_combined = ranked_topk(&dev, &gpu, 50, Strategy::CombinedBitonic)
            .unwrap()
            .kernel_time;
        assert!(t_combined.seconds() < t_staged.seconds());
    }
}
