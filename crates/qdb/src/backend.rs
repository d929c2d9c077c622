//! Backend-parameterized query execution: the same SQL surface on the
//! simulator or on real CPU cores.
//!
//! [`execute_on`] is the backend-generic twin of [`crate::sql::execute`]:
//! hand it an [`ExecBackend`] and a matching [`BackendTable`] and it
//! routes to the simulated engine (modeled `sim` metrics, bit-exact) or
//! the multi-threaded CPU engine (wall-clock).
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
use crate::table::{BackendTable, Columns};

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
    table: &BackendTable,
    q: &Query,
    strategy: Strategy,
) -> Result<BackendQueryResult, QdbError> {
    let start = Instant::now();
    match (be, table) {
        (ExecBackend::Simt(b), BackendTable::Simt(t)) => {
            let r = execute(b.device(), t, q, strategy)?;
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
        (ExecBackend::Cpu(b), BackendTable::Cpu { rows, .. }) => {
            let out = execute_cpu(Columns::of(&rows.borrow()), q, strategy, b.threads())?;
            Ok(BackendQueryResult {
                ids: out.ids,
                backend: BackendKind::Cpu,
                host_wall: start.elapsed(),
                sim_time: None,
                stages: out.stages,
            })
        }
        _ => Err(table.mismatch(be)),
    }
}

/// `EXPLAIN SANITIZE` / `EXPLAIN LINT` on a backend: runs the `source`
/// analysis pass on the simulator. The CPU backend has no device to
/// sanitize and launches no kernel plans to lint, so the request fails
/// with the typed [`QdbError::UnsupportedOnBackend`] rather than
/// silently returning an empty report.
pub fn explain_analysis_on(
    be: &ExecBackend<'_>,
    table: &BackendTable,
    q: &Query,
    strategy: Strategy,
    source: Source,
) -> Result<AnalyzedQuery, QdbError> {
    match (be, table) {
        (ExecBackend::Simt(b), BackendTable::Simt(t)) => {
            explain_analysis(b.device(), t, q, strategy, source)
        }
        (ExecBackend::Cpu(_), BackendTable::Cpu { .. }) => Err(QdbError::UnsupportedOnBackend {
            backend: "cpu",
            feature: match source {
                Source::Dynamic => "EXPLAIN SANITIZE (the device sanitizer)",
                Source::Static => "EXPLAIN LINT (static launch-plan analysis)",
            },
        }),
        _ => Err(table.mismatch(be)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parse;
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
        let sim_table = BackendTable::load(&simt, &host);
        let cpu_table = BackendTable::load(&cpu, &host);
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
                let a = execute_on(&simt, &sim_table, &q, strat).unwrap();
                let b = execute_on(&cpu, &cpu_table, &q, strat).unwrap();
                assert_eq!(a.ids.len(), b.ids.len(), "{sql} via {}", strat.name());
                if q.shape == crate::sql::Shape::GroupCount {
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
                assert!(!a.stages.is_empty() && !b.stages.is_empty());
            }
        }
    }

    #[test]
    fn sanitize_explain_is_typed_unsupported_on_cpu() {
        let host = TweetTable::generate(2_000, 9);
        let cpu = ExecBackend::cpu(2);
        let table = BackendTable::load(&cpu, &host);
        let q = parse("SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 5").unwrap();
        let err = explain_analysis_on(&cpu, &table, &q, Strategy::StageBitonic, Source::Dynamic)
            .unwrap_err();
        assert_eq!(err.kind(), "unsupported-on-backend");
        assert!(!err.is_transient());
        assert!(err.to_string().contains("cpu"));
        // while the simulator path still sanitizes
        let dev = Device::titan_x();
        let simt = ExecBackend::simt(&dev);
        let sim_table = BackendTable::load(&simt, &host);
        let out = explain_analysis_on(
            &simt,
            &sim_table,
            &q,
            Strategy::StageBitonic,
            Source::Dynamic,
        )
        .unwrap();
        assert!(!out.reports.is_empty());
    }

    #[test]
    fn lint_explain_is_typed_unsupported_on_cpu() {
        let host = TweetTable::generate(2_000, 9);
        let cpu = ExecBackend::cpu(2);
        let table = BackendTable::load(&cpu, &host);
        let q = parse("SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 5").unwrap();
        let err = explain_analysis_on(&cpu, &table, &q, Strategy::StageBitonic, Source::Static)
            .unwrap_err();
        assert_eq!(err.kind(), "unsupported-on-backend");
        assert!(!err.is_transient());
        assert!(err.to_string().contains("cpu"));
        // while the simulator path still lints statically
        let dev = Device::titan_x();
        let simt = ExecBackend::simt(&dev);
        let sim_table = BackendTable::load(&simt, &host);
        let out = explain_analysis_on(
            &simt,
            &sim_table,
            &q,
            Strategy::StageBitonic,
            Source::Static,
        )
        .unwrap();
        assert!(!out.reports.is_empty());
        assert!(out.is_clean(), "{}", out.render());
    }

    #[test]
    fn mismatched_table_is_a_typed_error() {
        let host = TweetTable::generate(1_000, 3);
        let dev = Device::titan_x();
        let simt = ExecBackend::simt(&dev);
        let cpu = ExecBackend::cpu(2);
        let cpu_table = BackendTable::load(&cpu, &host);
        let q = parse("SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 5").unwrap();
        let err = execute_on(&simt, &cpu_table, &q, Strategy::StageBitonic).unwrap_err();
        assert_eq!(err.kind(), "device-fault");
        assert!(err.to_string().contains("handed a cpu"));
    }
}
