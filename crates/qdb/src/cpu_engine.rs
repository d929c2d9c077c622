//! The CPU query engine: the real multi-threaded execution path behind
//! `qdb::backend::execute_on` for [`CpuBackend`](topk::CpuBackend).
//!
//! Same physical plan as the simulated engine — columnar scan + filter
//! producing `(key, id)` pairs, ranking-function projection, hash
//! group-by count, then a top-k operator — but every stage runs on real
//! cores with `std::thread::scope` chunk parallelism and is priced in
//! wall-clock. Results match the simulator by key signature: the same
//! `(key, row id)` tie-break (`Kv`'s `item_lt`), the same deterministic
//! group ordering, the same ASC handling via the zero-copy `Rev` view.

use std::time::Instant;

use datagen::twitter::TweetTable;
use datagen::{rev_slice, Kv};
use topk_cpu::{CpuBitonic, CpuSort, CpuTopK};

use crate::engine::{FilterOp, GroupCounts};
use crate::error::QdbError;
use crate::queries::Strategy;
use crate::sql::{OrderBy, Query, SqlError};

/// One CPU query outcome: ranked ids plus the per-stage wall-clock
/// breakdown in milliseconds.
pub(crate) struct CpuQueryOutput {
    pub ids: Vec<u32>,
    pub stages: Vec<(String, f64)>,
}

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
    if items.is_empty() {
        return Vec::new();
    }
    let k = k.min(items.len());
    match strategy {
        Strategy::StageSort => CpuSort.topk(items, k, threads),
        _ => CpuBitonic::default().topk(items, k, threads),
    }
}

/// Executes a validated query against a host-resident table with real
/// `threads`-way parallelism. Mirrors the simulated engine's supported
/// shapes exactly, including its typed rejections (ranking weight other
/// than 0.5, WHERE combined with ranking).
pub(crate) fn execute_cpu(
    t: &TweetTable,
    q: &Query,
    strategy: Strategy,
    threads: usize,
) -> Result<CpuQueryOutput, QdbError> {
    let n = t.len();
    if n == 0 {
        return Err(QdbError::EmptyTable);
    }
    let mut stages = Vec::new();
    match (&q.order_by, q.group_by_uid) {
        (OrderBy::Count, true) => {
            let scan = Instant::now();
            let partials = par_chunks(n, threads, |r| {
                let mut counts = GroupCounts::default();
                for row in r {
                    *counts.entry(t.uid[row]).or_insert(0) += 1;
                }
                counts
            });
            let mut counts = GroupCounts::default();
            for p in partials {
                for (uid, c) in p {
                    *counts.entry(uid).or_insert(0) += c;
                }
            }
            let mut groups: Vec<Kv<u32>> =
                counts.into_iter().map(|(uid, c)| Kv::new(c, uid)).collect();
            // the map iterates in hash order; sort by uid so the id
            // tie-break sees the same candidate order everywhere
            groups.sort_unstable_by_key(|kv| kv.value);
            stages.push(("cpu_group_count".to_string(), ms(scan)));
            let sel = Instant::now();
            let top = strategy_topk(strategy, &groups, q.limit, threads);
            stages.push(("cpu_topk".to_string(), ms(sel)));
            Ok(CpuQueryOutput {
                ids: top.iter().map(|kv| kv.value).collect(),
                stages,
            })
        }
        (OrderBy::Rank { likes_weight }, false) => {
            q.check_rank_shape()?;
            let w = *likes_weight;
            let scan = Instant::now();
            let partials = par_chunks(n, threads, |r| {
                r.map(|row| {
                    let rank = t.retweet_count[row] as f32 + w * t.likes_count[row] as f32;
                    Kv::new(rank, t.id[row])
                })
                .collect::<Vec<_>>()
            });
            let items: Vec<Kv<f32>> = partials.into_iter().flatten().collect();
            stages.push(("cpu_project_rank".to_string(), ms(scan)));
            let sel = Instant::now();
            let top = strategy_topk(strategy, &items, q.limit, threads);
            stages.push(("cpu_topk".to_string(), ms(sel)));
            Ok(CpuQueryOutput {
                ids: top.iter().map(|kv| kv.value).collect(),
                stages,
            })
        }
        (OrderBy::RetweetCount, false) => {
            let op = q.filter.clone().unwrap_or(FilterOp::TimeLess(u32::MAX));
            let scan = Instant::now();
            let partials = par_chunks(n, threads, |r| {
                op.matched_pairs(
                    &t.tweet_time[r.clone()],
                    &t.lang[r.clone()],
                    &t.retweet_count[r.clone()],
                    &t.id[r],
                )
            });
            let items: Vec<Kv<u32>> = partials.concat();
            stages.push(("cpu_filter".to_string(), ms(scan)));
            let sel = Instant::now();
            let ids: Vec<u32> = if q.ascending {
                // the order-reversed view, same as the device path
                strategy_topk(strategy, &rev_slice(&items), q.limit, threads)
                    .iter()
                    .map(|kv| kv.0.value)
                    .collect()
            } else {
                strategy_topk(strategy, &items, q.limit, threads)
                    .iter()
                    .map(|kv| kv.value)
                    .collect()
            };
            stages.push(("cpu_topk".to_string(), ms(sel)));
            Ok(CpuQueryOutput { ids, stages })
        }
        _ => Err(SqlError::Unsupported("this SELECT/GROUP BY combination").into()),
    }
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parse;

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
            let single = execute_cpu(&t, &q, Strategy::StageBitonic, 1).unwrap();
            let multi = execute_cpu(&t, &q, Strategy::StageBitonic, 8).unwrap();
            assert_eq!(single.ids, multi.ids, "{sql}");
            assert!(!multi.stages.is_empty());
        }
    }

    #[test]
    fn mirrors_simulated_engine_rejections() {
        let t = TweetTable::generate(100, 1);
        let q =
            parse("SELECT id FROM tweets ORDER BY retweet_count + 0.9 * likes_count DESC LIMIT 5")
                .unwrap();
        assert!(matches!(
            execute_cpu(&t, &q, Strategy::StageBitonic, 2),
            Err(QdbError::Parse(SqlError::Unsupported(_)))
        ));
    }
}
