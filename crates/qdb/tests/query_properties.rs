//! Property-based end-to-end tests of the query engine: for random
//! tables, selectivities, and limits, every execution strategy must agree
//! with a naive host-side SQL evaluation.

use datagen::twitter::TweetTable;
use proptest::prelude::*;
use qdb::{
    queries::{filtered_topk, group_topk, ranked_topk},
    FilterOp, GpuTweetTable, Strategy, SubmitOptions, TopKStrategy,
};
use simt::Device;

/// Naive host evaluation of Q1/Q3: filter, order by retweet_count desc,
/// limit k — returns the winning retweet counts (ids may tie-permute).
fn host_q1(host: &TweetTable, pred: impl Fn(usize) -> bool, k: usize) -> Vec<u32> {
    let mut keys: Vec<u32> = (0..host.len())
        .filter(|&r| pred(r))
        .map(|r| host.retweet_count[r])
        .collect();
    keys.sort_unstable_by(|a, b| b.cmp(a));
    keys.truncate(k);
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn q1_agrees_for_random_selectivity_and_k(
        seed in any::<u64>(),
        sel in 0.0f64..1.0,
        k in 1usize..200,
    ) {
        let host = TweetTable::generate(20_000, seed);
        let dev = Device::titan_x();
        let table = GpuTweetTable::upload(&dev, &host);
        let cutoff = host.time_cutoff_for_selectivity(sel);
        let expect = host_q1(&host, |r| host.tweet_time[r] < cutoff, k);
        for strat in Strategy::all() {
            let r = filtered_topk(&dev, &table, &FilterOp::TimeLess(cutoff), k, strat).unwrap();
            let keys: Vec<u32> = r.ids.iter().map(|&id| host.retweet_count[id as usize]).collect();
            prop_assert_eq!(&keys, &expect, "{} sel={} k={}", strat.name(), sel, k);
            for &id in &r.ids {
                prop_assert!(host.tweet_time[id as usize] < cutoff);
            }
        }
    }

    #[test]
    fn q2_agrees_for_random_k(seed in any::<u64>(), k in 1usize..100) {
        let host = TweetTable::generate(10_000, seed);
        let dev = Device::titan_x();
        let table = GpuTweetTable::upload(&dev, &host);
        let rank = |r: usize| host.retweet_count[r] as f32 + 0.5 * host.likes_count[r] as f32;
        let mut expect: Vec<f32> = (0..host.len()).map(rank).collect();
        expect.sort_unstable_by(|a, b| b.partial_cmp(a).unwrap());
        expect.truncate(k);
        for strat in Strategy::all() {
            let r = ranked_topk(&dev, &table, k, strat).unwrap();
            let keys: Vec<f32> = r.ids.iter().map(|&id| rank(id as usize)).collect();
            prop_assert_eq!(&keys, &expect, "{}", strat.name());
        }
    }

    #[test]
    fn q4_group_counts_agree(seed in any::<u64>(), k in 1usize..50) {
        let host = TweetTable::generate(15_000, seed);
        let dev = Device::titan_x();
        let table = GpuTweetTable::upload(&dev, &host);
        let mut counts = std::collections::HashMap::new();
        for &u in &host.uid {
            *counts.entry(u).or_insert(0u32) += 1;
        }
        let mut expect: Vec<u32> = counts.values().copied().collect();
        expect.sort_unstable_by(|a, b| b.cmp(a));
        expect.truncate(k.min(expect.len()));
        for strat in [TopKStrategy::Sort, TopKStrategy::Bitonic] {
            let r = group_topk(&dev, &table, k, strat).unwrap();
            let got: Vec<u32> = r.ids.iter().map(|uid| counts[uid]).collect();
            prop_assert_eq!(&got, &expect, "{:?}", strat);
        }
    }

    /// The serving layer's batch coalescing must never change results:
    /// for random small-query workloads, a coalesced drain and a
    /// coalescing-disabled drain return identical key sequences, which
    /// also match the naive host evaluation.
    #[test]
    fn coalesced_drain_agrees_with_per_query(
        seed in any::<u64>(),
        sels in prop::collection::vec(0.01f64..0.2, 2..10),
        ks in prop::collection::vec(1usize..40, 2..10),
    ) {
        let host = TweetTable::generate(12_000, seed);
        let dev = Device::titan_x();
        let table = GpuTweetTable::upload(&dev, &host);
        let sqls: Vec<String> = sels
            .iter()
            .zip(ks.iter().cycle())
            .map(|(&sel, &k)| {
                let cutoff = host.time_cutoff_for_selectivity(sel);
                format!(
                    "SELECT id FROM tweets WHERE tweet_time < {cutoff} \
                     ORDER BY retweet_count DESC LIMIT {k}"
                )
            })
            .collect();
        let run = |coalesce: bool| {
            let cfg = qdb::ServerConfig { coalesce, ..qdb::ServerConfig::default() };
            let mut server = qdb::Server::new(&dev, &table, cfg);
            for sql in &sqls {
                server.submit(sql, SubmitOptions::default()).unwrap();
            }
            server.drain()
        };
        let on = run(true);
        let off = run(false);
        for ((sql, a), b) in sqls.iter().zip(&on.queries).zip(&off.queries) {
            let ak: Vec<u32> = a.result.ids.iter().map(|&id| host.retweet_count[id as usize]).collect();
            let bk: Vec<u32> = b.result.ids.iter().map(|&id| host.retweet_count[id as usize]).collect();
            prop_assert_eq!(&ak, &bk, "{}", sql);
            let q = qdb::parse_sql(sql).unwrap();
            let cutoff = match q.shape {
                qdb::Shape::Top(Some(FilterOp::TimeLess(c))) => c,
                _ => unreachable!(),
            };
            let expect = host_q1(&host, |r| host.tweet_time[r] < cutoff, q.limit);
            prop_assert_eq!(&ak, &expect, "{}", sql);
        }
    }

    /// Fusion must never change results, only traffic.
    #[test]
    fn fused_and_staged_always_agree(seed in any::<u64>(), langs in prop::collection::btree_set(0u8..6, 1..4)) {
        let host = TweetTable::generate(8_000, seed);
        let dev = Device::titan_x();
        let table = GpuTweetTable::upload(&dev, &host);
        let op = FilterOp::LangIn(langs.into_iter().collect());
        let staged = filtered_topk(&dev, &table, &op, 25, Strategy::StageBitonic).unwrap();
        let fused = filtered_topk(&dev, &table, &op, 25, Strategy::CombinedBitonic).unwrap();
        let sk: Vec<u32> = staged.ids.iter().map(|&id| host.retweet_count[id as usize]).collect();
        let fk: Vec<u32> = fused.ids.iter().map(|&id| host.retweet_count[id as usize]).collect();
        prop_assert_eq!(sk, fk);
    }
}
