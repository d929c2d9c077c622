//! The CPU query engine: the real multi-threaded execution path behind
//! `qdb::backend::execute_on` for [`CpuBackend`](topk::CpuBackend), and
//! the serving ladder's last rung.
//!
//! Same physical plan as the simulated engine — columnar scan + filter
//! producing `(key, id)` pairs, ranking-function projection, hash
//! group-by count, then a top-k operator — but every stage runs on real
//! cores with `std::thread::scope` chunk parallelism and is priced in
//! wall-clock. It reads borrowed columns, in practice a
//! `GpuTweetTable`'s resident prefixes in place, so it never sees the
//! table's append headroom. Results match the simulator by key
//! signature: the same `(key, row id)` tie-break (`Kv`'s `item_lt`), the
//! same deterministic group ordering, the same `Rev` items for ASC.

use std::time::{Duration, Instant};

use datagen::{Kv, Rev};
use topk::BackendKind;
use topk_cpu::{CpuBitonic, CpuSort, CpuTopK};

use crate::backend::BackendQueryResult;
use crate::engine::{group_counts, rank_pairs, FilterOp, GroupCounts, PairOrder, RowItem};
use crate::error::QdbError;
use crate::queries::Strategy;
use crate::sql::{Query, Shape};
use crate::table::Columns;

/// Splits `0..n` into at most `threads` contiguous chunks and maps each
/// on its own scoped thread, returning per-chunk outputs in row order —
/// the scan-stage skeleton every query shape shares.
fn par_chunks<R: Send>(
    n: usize,
    threads: usize,
    f: impl Fn(std::ops::Range<usize>) -> R + Sync,
) -> Vec<R> {
    let threads = threads.max(1);
    if threads == 1 || n < 4 * threads {
        return vec![f(0..n)];
    }
    let chunk = n.div_ceil(threads);
    let ranges: Vec<_> = (0..threads)
        .map(|t| (t * chunk).min(n)..((t + 1) * chunk).min(n))
        .filter(|r| !r.is_empty())
        .collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = ranges.into_iter().map(|r| s.spawn(|| f(r))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scan worker panicked"))
            .collect()
    })
}

/// The top-k operator for a strategy: full sort for `StageSort` (the
/// MapD-style baseline), the Appendix C bitonic port otherwise — the CPU
/// counterparts of the simulated engine's `TopKStrategy` mapping.
pub(crate) fn strategy_topk<T: datagen::TopKItem>(
    strategy: Strategy,
    items: &[T],
    k: usize,
    threads: usize,
) -> Vec<T> {
    if items.is_empty() || k == 0 {
        return Vec::new();
    }
    let k = k.min(items.len());
    match strategy {
        Strategy::StageSort => CpuSort.topk(items, k, threads),
        _ => CpuBitonic::default().topk(items, k, threads),
    }
}

/// Executes a parsed query over borrowed host columns with real
/// `threads`-way parallelism: one body per [`Shape`], the same physical
/// plan as the simulated engine's.
pub(crate) fn execute_cpu(
    t: Columns<'_>,
    q: &Query,
    strategy: Strategy,
    threads: usize,
) -> Result<BackendQueryResult, QdbError> {
    let n = t.id.len();
    if n == 0 {
        return Err(QdbError::EmptyTable);
    }
    let k = q.limit;
    Ok(match &q.shape {
        Shape::Top(f) => filter_topk::<Kv<u32>>(t, f, k, strategy, threads),
        Shape::Bottom(f) => filter_topk::<Rev<Kv<u32>>>(t, f, k, strategy, threads),
        Shape::Ranked => {
            let scan = || {
                par_chunks(n, threads, |r| {
                    let mut items = vec![Kv::default(); r.len()];
                    rank_pairs(&t.rows(r), &mut items);
                    items
                })
                .concat()
            };
            ranked("cpu_project_rank", scan, k, strategy, threads)
        }
        Shape::GroupCount => {
            let scan = || {
                let mut counts = GroupCounts::default();
                for part in par_chunks(n, threads, |r| group_counts(&t.uid[r])) {
                    for (uid, c) in part {
                        *counts.entry(uid).or_insert(0) += c;
                    }
                }
                let mut groups: Vec<Kv<u32>> =
                    counts.into_iter().map(|(uid, c)| Kv::new(c, uid)).collect();
                // the map iterates in hash order; sort by uid so the id
                // tie-break sees the same candidate order everywhere
                groups.sort_unstable_by_key(|kv| kv.value);
                groups
            };
            ranked("cpu_group_count", scan, k, strategy, threads)
        }
    })
}

/// The filter scan of `t` in `P`'s order, chunked over `threads`, and
/// its top-k.
fn filter_topk<P: PairOrder>(
    t: Columns<'_>,
    filter: &Option<FilterOp>,
    k: usize,
    strategy: Strategy,
    threads: usize,
) -> BackendQueryResult {
    let op = FilterOp::or_every_row(filter);
    let scan = || par_chunks(t.id.len(), threads, |r| op.matched_pairs::<P>(&t.rows(r)));
    ranked("cpu_filter", || scan().concat(), k, strategy, threads)
}

/// Every shape's two stages: the `scan_stage` scan, then the strategy's
/// top-k of its items, each timed.
fn ranked<T: RowItem>(
    scan_stage: &str,
    scan: impl FnOnce() -> Vec<T>,
    k: usize,
    strategy: Strategy,
    threads: usize,
) -> BackendQueryResult {
    let start = Instant::now();
    let items = scan();
    let scanned = start.elapsed();
    let top = strategy_topk(strategy, &items, k, threads);
    let host_wall = start.elapsed();
    BackendQueryResult {
        ids: top.iter().map(T::id).collect(),
        backend: BackendKind::Cpu,
        host_wall,
        sim_time: None,
        stages: vec![
            (scan_stage.to_string(), ms(scanned)),
            ("cpu_topk".to_string(), ms(host_wall - scanned)),
        ],
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::{parse, SqlError};
    use datagen::twitter::TweetTable;

    #[test]
    fn parallel_scan_matches_single_threaded() {
        let t = TweetTable::generate(30_000, 55);
        let sqls = [
            "SELECT id FROM tweets WHERE tweet_time < 1500000 ORDER BY retweet_count DESC LIMIT 40".to_string(),
            "SELECT id FROM tweets ORDER BY retweet_count + 0.5 * likes_count DESC LIMIT 25".into(),
            "SELECT id FROM tweets WHERE lang='en' OR lang='es' ORDER BY retweet_count ASC LIMIT 15".into(),
            "SELECT uid, COUNT(*) FROM tweets GROUP BY uid ORDER BY COUNT(*) DESC LIMIT 50".into(),
        ];
        for sql in &sqls {
            let q = parse(sql).unwrap();
            let single = execute_cpu(Columns::of(&t), &q, Strategy::StageBitonic, 1).unwrap();
            let multi = execute_cpu(Columns::of(&t), &q, Strategy::StageBitonic, 8).unwrap();
            assert_eq!(single.ids, multi.ids, "{sql}");
            assert!(!multi.stages.is_empty());
        }
    }

    #[test]
    fn mirrors_simulated_engine_rejections() {
        // both engines run only what the parser accepts
        assert_eq!(
            parse("SELECT id FROM tweets ORDER BY retweet_count + 0.9 * likes_count DESC LIMIT 5"),
            Err(SqlError::Unsupported("ranking weight other than 0.5"))
        );
    }
}
