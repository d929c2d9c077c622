//! Chaos suite: random fault plans driven against concurrent `Server`
//! loads.
//!
//! For every generated plan the suite asserts the serving layer's three
//! resilience invariants:
//!
//! * (a) **no panic ever escapes** — submit and drain return typed
//!   results no matter what the device injects;
//! * (b) **completed queries are oracle-exact** — every query that
//!   reports success returns the same key/count/rank sequence as a
//!   fault-free execution (ids may permute only among exact ties);
//! * (c) **non-completed queries carry typed errors** — shed
//!   submissions see [`QdbError::Overloaded`], cancelled queries see
//!   [`QdbError::Timeout`], and the drain's [`ResilienceStats`] ledger
//!   is consistent with the per-query outcomes.

use datagen::twitter::TweetTable;
use proptest::prelude::*;
use qdb::{
    execute_sql, parse_sql, DegradeLevel, GpuTweetTable, QdbError, Server, ServerConfig, Shape,
    Strategy, SubmitOptions,
};
use simt::{Device, FaultPlan, SimTime};

/// Mixed workload covering every query shape the engine serves: plain
/// filtered top-k (coalescable), language filters, ranking, ascending,
/// and group-by.
fn workload(host: &TweetTable, count: usize) -> Vec<String> {
    (0..count)
        .map(|i| match i % 5 {
            0 | 3 => {
                let cutoff = host.time_cutoff_for_selectivity(0.05 + 0.03 * (i % 7) as f64);
                let k = 4 + (i % 13);
                format!(
                    "SELECT id FROM tweets WHERE tweet_time < {cutoff} \
                     ORDER BY retweet_count DESC LIMIT {k}"
                )
            }
            1 => format!(
                "SELECT id FROM tweets WHERE lang='ja' ORDER BY retweet_count DESC LIMIT {}",
                3 + (i % 9)
            ),
            2 => format!(
                "SELECT id FROM tweets ORDER BY retweet_count + 0.5 * likes_count DESC LIMIT {}",
                2 + (i % 11)
            ),
            _ => format!(
                "SELECT uid, COUNT(*) FROM tweets GROUP BY uid \
                 ORDER BY COUNT(*) DESC LIMIT {}",
                2 + (i % 6)
            ),
        })
        .collect()
}

/// Shape-aware signature of a result: the ordered sequence of sort keys
/// (retweet counts, group counts, or rank bits). Two runs agree exactly
/// on the signature even when exact-tie ids permute.
fn signature(host: &TweetTable, sql: &str, ids: &[u32]) -> Vec<u64> {
    let q = parse_sql(sql).expect("workload sql parses");
    if q.shape == Shape::GroupCount {
        let mut counts = std::collections::HashMap::new();
        for &u in &host.uid {
            *counts.entry(u).or_insert(0u64) += 1;
        }
        ids.iter().map(|u| counts[u]).collect()
    } else if q.shape == Shape::Ranked {
        ids.iter()
            .map(|&id| {
                let rank = host.retweet_count[id as usize] as f32
                    + 0.5 * host.likes_count[id as usize] as f32;
                rank.to_bits() as u64
            })
            .collect()
    } else {
        ids.iter()
            .map(|&id| host.retweet_count[id as usize] as u64)
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn chaos_plans_never_panic_and_completed_queries_match_the_oracle(
        seed in any::<u64>(),
        launch_failure_rate in 0.0f64..0.35,
        corruption_rate in 0.0f64..0.35,
        stall_rate in 0.0f64..0.25,
        oom_rate in 0.0f64..0.25,
        max_faults in 1usize..96,
    ) {
        let host = TweetTable::generate(6_000, seed);
        let dev = Device::titan_x();
        let table = GpuTweetTable::upload(&dev, &host);
        let sqls = workload(&host, 40);

        // fault-free oracle on the same device, before any plan is set
        let oracle: Vec<Vec<u32>> = sqls
            .iter()
            .map(|s| {
                execute_sql(&dev, &table, &parse_sql(s).unwrap(), Strategy::StageBitonic)
                    .expect("fault-free oracle")
                    .ids
            })
            .collect();

        dev.set_fault_plan(FaultPlan {
            seed,
            launch_failure_rate,
            corruption_rate,
            stall_rate,
            stall_delay: SimTime(100e-6),
            oom_rate,
            max_faults,
            ..FaultPlan::none()
        });

        // concurrency 32 with a queue bound that sheds the rest
        let cfg = ServerConfig {
            max_queue: 32,
            ..ServerConfig::default()
        };
        let mut server = Server::new(&dev, &table, cfg);
        let mut admitted: Vec<(usize, qdb::QueryTicket)> = Vec::new();
        let mut shed = 0usize;
        for (i, sql) in sqls.iter().enumerate() {
            match server.submit(sql, SubmitOptions::default()) {
                Ok(t) => admitted.push((i, t)),
                Err(QdbError::Overloaded { .. }) => shed += 1,
                Err(other) => prop_assert!(false, "untyped admission failure: {other:?}"),
            }
        }
        prop_assert_eq!(admitted.len(), 32, "concurrency floor");
        prop_assert_eq!(shed, sqls.len() - 32);

        let report = server.drain();
        dev.clear_fault_plan();

        // (c) the shed ledger matches what submit returned
        prop_assert_eq!(report.resilience.shed, shed);
        prop_assert_eq!(report.queries.len(), admitted.len());

        let mut completed = 0usize;
        let mut timed_out = 0usize;
        let mut failed = 0usize;
        for (i, t) in &admitted {
            let served = &report.queries[t.0];
            prop_assert_eq!(&served.sql, &sqls[*i]);
            match &served.error {
                None => {
                    completed += 1;
                    // (b) oracle-exact by signature
                    let got = signature(&host, &sqls[*i], &served.result.ids);
                    let want = signature(&host, &sqls[*i], &oracle[*i]);
                    prop_assert_eq!(
                        got,
                        want,
                        "{} (degrade={})",
                        served.sql,
                        served.degrade.name()
                    );
                }
                Some(QdbError::Timeout { .. }) => timed_out += 1,
                Some(QdbError::DeviceFault { .. }) => failed += 1,
                Some(other) => prop_assert!(false, "unexpected drain error: {other:?}"),
            }
        }
        // (c) ledger consistency
        prop_assert_eq!(report.resilience.completed, completed);
        prop_assert_eq!(report.resilience.timed_out, timed_out);
        prop_assert_eq!(report.resilience.failed, failed);
        prop_assert_eq!(completed + timed_out + failed, admitted.len());
        let degraded = report
            .queries
            .iter()
            .filter(|q| q.degrade != DegradeLevel::None)
            .count();
        prop_assert_eq!(
            report.resilience.degraded_serial + report.resilience.degraded_cpu,
            degraded
        );
        // no deadlines were set, so nothing can time out here
        prop_assert_eq!(timed_out, 0);
    }

    #[test]
    fn chaos_with_tight_deadlines_reports_typed_timeouts(
        seed in any::<u64>(),
        launch_failure_rate in 0.3f64..1.0,
        deadline_us in 1.0f64..120.0,
    ) {
        let host = TweetTable::generate(3_000, seed);
        let dev = Device::titan_x();
        let table = GpuTweetTable::upload(&dev, &host);
        let sqls = workload(&host, 8);
        dev.set_fault_plan(FaultPlan {
            seed,
            launch_failure_rate,
            max_faults: usize::MAX,
            ..FaultPlan::none()
        });
        let mut server = Server::new(&dev, &table, ServerConfig::default());
        let mut tickets = Vec::new();
        for sql in &sqls {
            tickets.push(
                server
                    .submit(sql, SubmitOptions::default().with_deadline(SimTime(deadline_us * 1e-6)))
                    .expect("admission"),
            );
        }
        let report = server.drain();
        dev.clear_fault_plan();
        for t in &tickets {
            let served = &report.queries[t.0];
            match &served.error {
                // completed under the deadline: must match the oracle
                None => {
                    let oracle =
                        execute_sql(&dev, &table, &parse_sql(&served.sql).unwrap(), Strategy::StageBitonic)
                            .expect("fault-free oracle")
                            .ids;
                    let got = signature(&host, &served.sql, &served.result.ids);
                    let want = signature(&host, &served.sql, &oracle);
                    prop_assert_eq!(got, want, "{}", served.sql);
                }
                Some(QdbError::Timeout { deadline, spent }) => {
                    prop_assert!(spent.0 >= deadline.0, "timeout fired early");
                }
                Some(other) => prop_assert!(false, "unexpected error: {other:?}"),
            }
        }
        prop_assert_eq!(
            report.resilience.completed + report.resilience.timed_out,
            tickets.len()
        );
    }
}

#[test]
fn all_zero_plan_serves_like_no_plan_at_all() {
    let host = TweetTable::generate(5_000, 7);
    let dev = Device::titan_x();
    let table = GpuTweetTable::upload(&dev, &host);
    let sqls = workload(&host, 16);

    dev.set_fault_plan(FaultPlan::none());
    let mut server = Server::new(&dev, &table, ServerConfig::default());
    for s in &sqls {
        server
            .submit(s, SubmitOptions::default())
            .expect("admission");
    }
    let report = server.drain();
    dev.clear_fault_plan();

    assert_eq!(report.resilience.completed, sqls.len());
    assert_eq!(report.resilience.retries, 0);
    assert_eq!(report.resilience.timed_out, 0);
    assert_eq!(report.resilience.failed, 0);
    assert_eq!(report.resilience.faults_injected, 0);
    assert!(report
        .queries
        .iter()
        .all(|q| q.degrade == DegradeLevel::None));
}
