//! Backend-parameterized query execution: the same SQL surface on the
//! simulator or on real CPU cores, over one resident table.
//!
//! [`execute_on`] is the backend-generic twin of [`crate::sql::execute`]:
//! hand it an [`ExecBackend`] and a [`GpuTweetTable`] and it routes to
//! the simulated engine (modeled `sim` metrics, bit-exact) or the
//! multi-threaded CPU engine (wall-clock), which reads the table's
//! resident columns in place. The engine and the table are independent
//! choices: appends go through [`GpuTweetTable::append_batch`] whichever
//! engine reads the rows.
//! Simulator-only features degrade with typed errors:
//! [`explain_analysis_on`] returns [`QdbError::UnsupportedOnBackend`] on
//! the CPU backend instead of pretending to sanitize or lint anything.

use std::time::{Duration, Instant};

use simt::{SimTime, Source};
use topk::{BackendKind, ExecBackend};

use crate::cpu_engine::execute_cpu;
use crate::error::QdbError;
use crate::queries::Strategy;
use crate::sql::{execute, explain_analysis, AnalyzedQuery, Query};
use crate::table::GpuTweetTable;

/// A query outcome from either backend: ranked ids plus the cost in the
/// executing backend's native currency.
#[derive(Debug, Clone)]
pub struct BackendQueryResult {
    /// Result tweet ids (or uids for group queries), ranked.
    pub ids: Vec<u32>,
    /// The backend that executed.
    pub backend: BackendKind,
    /// Real elapsed host time for the call (on the simulator this prices
    /// the simulation itself, not the modeled device).
    pub host_wall: Duration,
    /// Total modeled kernel time — `Some` exactly on the simulator,
    /// bit-exact across runs.
    pub sim_time: Option<SimTime>,
    /// Per-stage breakdown in milliseconds: modeled kernel time on the
    /// simulator, wall-clock on the CPU.
    pub stages: Vec<(String, f64)>,
}

/// Executes a parsed query on the given backend against a resident table.
///
/// The two engines return the same winners (key-signature identical, ties
/// broken by row id); only the currency of the cost report differs.
pub fn execute_on(
    be: &ExecBackend<'_>,
    table: &GpuTweetTable,
    q: &Query,
    strategy: Strategy,
) -> Result<BackendQueryResult, QdbError> {
    match be {
        ExecBackend::Simt(b) => {
            let start = Instant::now();
            let r = execute(b.device(), table, q, strategy)?;
            Ok(BackendQueryResult {
                ids: r.ids,
                backend: BackendKind::Simt,
                host_wall: start.elapsed(),
                sim_time: Some(r.kernel_time),
                stages: r
                    .breakdown
                    .into_iter()
                    .map(|(name, t)| (name, t.seconds() * 1e3))
                    .collect(),
            })
        }
        ExecBackend::Cpu(b) => table.with_columns(|t| execute_cpu(t, q, strategy, b.threads())),
    }
}

/// `EXPLAIN SANITIZE` / `EXPLAIN LINT` on a backend: runs the `source`
/// analysis pass on the simulator. The CPU backend has no device to
/// sanitize and launches no kernel plans to lint, so the request fails
/// with the typed [`QdbError::UnsupportedOnBackend`] rather than
/// silently returning an empty report.
pub fn explain_analysis_on(
    be: &ExecBackend<'_>,
    table: &GpuTweetTable,
    q: &Query,
    strategy: Strategy,
    source: Source,
) -> Result<AnalyzedQuery, QdbError> {
    match be {
        ExecBackend::Simt(b) => explain_analysis(b.device(), table, q, strategy, source),
        ExecBackend::Cpu(_) => Err(QdbError::UnsupportedOnBackend {
            backend: "cpu",
            feature: match source {
                Source::Dynamic => "EXPLAIN SANITIZE (the device sanitizer)",
                Source::Static => "EXPLAIN LINT (static launch-plan analysis)",
            },
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::{parse, Shape};
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
        let simt = ExecBackend::simt(&dev);
        let cpu = ExecBackend::cpu(4);
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
                let a = execute_on(&simt, &table, &q, strat).unwrap();
                let b = execute_on(&cpu, &table, &q, strat).unwrap();
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
                assert!(a.sim_time.is_some() && b.sim_time.is_none());
                assert_eq!(
                    (a.backend, b.backend),
                    (BackendKind::Simt, BackendKind::Cpu)
                );
                assert!(!a.stages.is_empty() && !b.stages.is_empty());
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
        let simt = ExecBackend::simt(&dev);
        let cpu = ExecBackend::cpu(3);
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
            vs.refresh_on(&simt, &table).unwrap();
            vc.refresh_on(&cpu, &table).unwrap();
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
                let a = execute_on(&simt, &table, &q, Strategy::StageBitonic).unwrap();
                let b = execute_on(&cpu, &table, &q, Strategy::StageBitonic).unwrap();
                assert_eq!(a.ids, b.ids, "{sql} at epoch {epoch}");
                assert!(a.ids.iter().all(|&id| (id as usize) < rows), "{sql}: {a:?}");
                let rs = vs.refresh_on(&simt, &table).unwrap();
                let rc = vc.refresh_on(&cpu, &table).unwrap();
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
    fn sanitize_explain_is_typed_unsupported_on_cpu() {
        let host = TweetTable::generate(2_000, 9);
        let dev = Device::titan_x();
        let table = GpuTweetTable::upload(&dev, &host);
        let q = parse("SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 5").unwrap();
        let cpu = ExecBackend::cpu(2);
        let err = explain_analysis_on(&cpu, &table, &q, Strategy::StageBitonic, Source::Dynamic)
            .unwrap_err();
        assert_eq!(err.kind(), "unsupported-on-backend");
        assert!(!err.is_transient());
        assert!(err.to_string().contains("cpu"));
        // while the simulator path still sanitizes
        let simt = ExecBackend::simt(&dev);
        let out = explain_analysis_on(&simt, &table, &q, Strategy::StageBitonic, Source::Dynamic)
            .unwrap();
        assert!(!out.reports.is_empty());
    }

    #[test]
    fn lint_explain_is_typed_unsupported_on_cpu() {
        let host = TweetTable::generate(2_000, 9);
        let dev = Device::titan_x();
        let table = GpuTweetTable::upload(&dev, &host);
        let q = parse("SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 5").unwrap();
        let cpu = ExecBackend::cpu(2);
        let err = explain_analysis_on(&cpu, &table, &q, Strategy::StageBitonic, Source::Static)
            .unwrap_err();
        assert_eq!(err.kind(), "unsupported-on-backend");
        assert!(!err.is_transient());
        assert!(err.to_string().contains("cpu"));
        // while the simulator path still lints statically
        let simt = ExecBackend::simt(&dev);
        let out =
            explain_analysis_on(&simt, &table, &q, Strategy::StageBitonic, Source::Static).unwrap();
        assert!(!out.reports.is_empty());
        assert!(out.is_clean(), "{}", out.render());
    }
}
