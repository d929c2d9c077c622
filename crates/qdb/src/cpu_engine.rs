//! The CPU query engine: [`execute_cpu`], the host twin of
//! [`crate::sql::execute`], which is also the serving ladder's last rung
//! and the engine behind [`crate::TopKView::refresh_cpu`].
//!
//! Same physical plan as the simulated engine — columnar scan + filter
//! producing `(key, id)` pairs, ranking-function projection, hash
//! group-by count, then a top-k operator — but every stage runs on real
//! cores with `std::thread::scope` chunk parallelism and is priced in
//! wall-clock. It reads a `GpuTweetTable`'s resident prefixes in place,
//! so it never sees the table's append headroom. Results match the
//! simulator by key signature: the same `(key, row id)` tie-break
//! (`Kv`'s `item_lt`), the same deterministic group ordering, the same
//! `Rev` items for ASC.

use std::time::{Duration, Instant};

use datagen::{Kv, Rev};
use topk_cpu::{CpuBitonic, CpuSort, CpuTopK};

use crate::engine::{group_counts, rank_pairs, FilterOp, GroupCounts, PairOrder, RowItem};
use crate::error::QdbError;
use crate::queries::Strategy;
use crate::sql::{Query, Shape};
use crate::table::{Columns, GpuTweetTable};

/// A query outcome from the CPU engine: ranked ids plus the wall-clock
/// cost.
#[derive(Debug, Clone)]
pub struct CpuQueryResult {
    /// Result tweet ids (or uids for group queries), ranked.
    pub ids: Vec<u32>,
    /// Real elapsed host time of the scan and the top-k.
    pub host_wall: Duration,
    /// Per-stage wall-clock breakdown in milliseconds.
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
    if items.is_empty() || k == 0 {
        return Vec::new();
    }
    let k = k.min(items.len());
    match strategy {
        Strategy::StageSort => CpuSort.topk(items, k, threads),
        _ => CpuBitonic::default().topk(items, k, threads),
    }
}

/// Executes a parsed query on real CPU cores with `threads`-way
/// parallelism over `table`'s resident columns, read in place. Returns
/// the simulator's winners ([`crate::execute_sql`]: key-signature
/// identical, ties broken by row id), priced in wall-clock.
pub fn execute_cpu(
    table: &GpuTweetTable,
    q: &Query,
    strategy: Strategy,
    threads: usize,
) -> Result<CpuQueryResult, QdbError> {
    table.with_columns(|t| execute_columns(t, q, strategy, threads))
}

/// [`execute_cpu`] over borrowed host columns: one body per [`Shape`],
/// the same physical plan as the simulated engine's.
pub(crate) fn execute_columns(
    t: Columns<'_>,
    q: &Query,
    strategy: Strategy,
    threads: usize,
) -> Result<CpuQueryResult, QdbError> {
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
) -> CpuQueryResult {
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
) -> CpuQueryResult {
    let start = Instant::now();
    let items = scan();
    let scanned = start.elapsed();
    let top = strategy_topk(strategy, &items, k, threads);
    let host_wall = start.elapsed();
    CpuQueryResult {
        ids: top.iter().map(T::id).collect(),
        host_wall,
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
    use crate::sql::{execute, parse, SqlError};
    use crate::stream::{TopKView, ViewConfig, ViewMode};
    use datagen::twitter::TweetTable;
    use simt::Device;

    fn keys_of(t: &TweetTable, ids: &[u32]) -> Vec<u32> {
        ids.iter().map(|&id| t.retweet_count[id as usize]).collect()
    }

    #[test]
    fn same_query_same_winners_on_both_backends() {
        let host = TweetTable::generate(20_000, 321);
        let dev = Device::titan_x();
        let table = GpuTweetTable::upload(&dev, &host);
        let cutoff = host.time_cutoff_for_selectivity(0.5);
        let sqls = [
            format!("SELECT id FROM tweets WHERE tweet_time < {cutoff} ORDER BY retweet_count DESC LIMIT 50"),
            "SELECT id FROM tweets ORDER BY retweet_count + 0.5 * likes_count DESC LIMIT 20".into(),
            "SELECT id FROM tweets WHERE lang='en' OR lang='es' ORDER BY retweet_count ASC LIMIT 30".into(),
            "SELECT uid, COUNT(*) FROM tweets GROUP BY uid ORDER BY COUNT(*) DESC LIMIT 50".into(),
        ];
        for sql in &sqls {
            let q = parse(sql).unwrap();
            for strat in Strategy::all() {
                let a = execute(&dev, &table, &q, strat).unwrap();
                let b = execute_cpu(&table, &q, strat, 4).unwrap();
                assert_eq!(a.ids.len(), b.ids.len(), "{sql} via {}", strat.name());
                if q.shape == Shape::GroupCount {
                    // group results: compare the count signature
                    let count = |ids: &[u32]| -> Vec<usize> {
                        ids.iter()
                            .map(|uid| host.uid.iter().filter(|&&u| u == *uid).count())
                            .collect()
                    };
                    assert_eq!(count(&a.ids), count(&b.ids), "{sql} via {}", strat.name());
                } else {
                    assert_eq!(
                        keys_of(&host, &a.ids),
                        keys_of(&host, &b.ids),
                        "{sql} via {}",
                        strat.name()
                    );
                }
                assert!(!a.breakdown.is_empty() && !b.stages.is_empty());
            }
        }
    }

    /// One table, either engine, through appends: the table is uploaded
    /// with headroom and grows twice through `append_batch`. After each
    /// append both engines return the same ids and both views
    /// delta-merge to the same ids. The slack past the logical prefix
    /// holds rows that would rank first, so an engine that read the
    /// capacity slack would return one of their ids.
    #[test]
    fn one_table_serves_both_backends_through_appends() {
        let host = TweetTable::generate(6_000, 12);
        let dev = Device::titan_x();
        let (cap, slack_id) = (9_000, u32::MAX);
        let table = GpuTweetTable::upload_with_capacity(&dev, &host, cap);
        let poison = |from: usize| {
            let rows = cap - from;
            table.id.write_range(from, &vec![slack_id; rows]);
            table.tweet_time.write_range(from, &vec![0; rows]);
            table
                .retweet_count
                .write_range(from, &vec![u32::MAX / 2; rows]);
            table
                .likes_count
                .write_range(from, &vec![u32::MAX / 2; rows]);
        };
        poison(host.len());
        let sqls = [
            "SELECT id FROM tweets WHERE tweet_time < 1500000 ORDER BY retweet_count DESC LIMIT 16",
            "SELECT id FROM tweets ORDER BY retweet_count + 0.5 * likes_count DESC LIMIT 9",
            "SELECT id FROM tweets ORDER BY retweet_count ASC LIMIT 11",
        ];
        let views: Vec<[TopKView; 2]> = sqls
            .iter()
            .map(|sql| {
                [(); 2].map(|_| {
                    TopKView::register(sql, Strategy::StageBitonic, ViewConfig::default()).unwrap()
                })
            })
            .collect();
        for (sql, [vs, vc]) in sqls.iter().zip(&views) {
            vs.refresh(&dev, &table).unwrap();
            vc.refresh_cpu(&table, 3).unwrap();
            assert_eq!(vs.ids(), vc.ids(), "{sql} (build)");
        }
        let mut rows = host.len();
        for (epoch, add) in [(1, 1_200usize), (2, 800)] {
            let batch = TweetTable::generate_at(add, 70 + epoch, rows as u32);
            let receipt = table.append_batch(&dev, &batch).unwrap();
            assert_eq!((receipt.epoch, table.epoch()), (epoch, epoch));
            rows += add;
            poison(rows);
            for (sql, [vs, vc]) in sqls.iter().zip(&views) {
                let q = parse(sql).unwrap();
                let a = execute(&dev, &table, &q, Strategy::StageBitonic).unwrap();
                let b = execute_cpu(&table, &q, Strategy::StageBitonic, 3).unwrap();
                assert_eq!(a.ids, b.ids, "{sql} at epoch {epoch}");
                assert!(a.ids.iter().all(|&id| (id as usize) < rows), "{sql}: {a:?}");
                let rs = vs.refresh(&dev, &table).unwrap();
                let rc = vc.refresh_cpu(&table, 3).unwrap();
                assert_eq!(
                    (rs.mode, rc.mode),
                    (ViewMode::DeltaMerge, ViewMode::DeltaMerge)
                );
                assert_eq!((rs.epoch, rc.epoch), (epoch, epoch));
                assert_eq!(rs.ids, rc.ids, "{sql} at epoch {epoch}");
                assert_eq!(rs.ids, a.ids, "{sql}: the view equals a rescan");
            }
        }
    }

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
            let single = execute_columns(Columns::of(&t), &q, Strategy::StageBitonic, 1).unwrap();
            let multi = execute_columns(Columns::of(&t), &q, Strategy::StageBitonic, 8).unwrap();
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
