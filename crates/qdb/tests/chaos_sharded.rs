//! Chaos suite for the sharded layer: random fault plans on a random
//! subset of a cluster's devices, driven against scatter-gather queries.
//!
//! The invariants mirror `chaos_serving`, lifted to the cluster:
//!
//! * (a) **no panic ever escapes** — `execute_sharded`, `submit` and
//!   `drain` return typed results no matter what the devices inject;
//! * (b) **completed queries are oracle-exact** — a query that reports
//!   success returns exactly the fault-free result (same length, same
//!   key sequence; bit-identical ids when no shard degraded to the CPU
//!   rung, whose heap orders exact ties differently);
//! * (c) **failure is loud, never truncation** — a shard whose local
//!   pass or delegate transfer is defeated after retries fails the whole
//!   query with a typed [`QdbError`]; a completed query is never the
//!   merge of a subset of shards.

use datagen::twitter::TweetTable;
use proptest::prelude::*;
use qdb::shard::{execute_sharded, PartitionPolicy, ShardedServer, ShardedTable};
use qdb::{execute_sql, parse_sql, GpuTweetTable, QdbError, ServerConfig, Shape, Strategy};
use simt::topology::{Cluster, ClusterSpec};
use simt::{Device, FaultPlan, SimTime};

/// Sharded-servable workload: every supported shape except GROUP BY
/// (rejected on the sharded path by design).
fn workload(host: &TweetTable, count: usize) -> Vec<String> {
    (0..count)
        .map(|i| match i % 4 {
            0 | 3 => {
                let cutoff = host.time_cutoff_for_selectivity(0.1 + 0.05 * (i % 7) as f64);
                let k = 4 + (i % 13);
                format!(
                    "SELECT id FROM tweets WHERE tweet_time < {cutoff} \
                     ORDER BY retweet_count DESC LIMIT {k}"
                )
            }
            1 => format!(
                "SELECT id FROM tweets ORDER BY retweet_count + 0.5 * likes_count DESC LIMIT {}",
                2 + (i % 11)
            ),
            _ => format!(
                "SELECT id FROM tweets ORDER BY retweet_count ASC LIMIT {}",
                3 + (i % 9)
            ),
        })
        .collect()
}

/// Ordered key sequence of a result — the oracle signature that is
/// invariant even when a CPU-degraded shard permutes exact-tie ids.
fn signature(host: &TweetTable, sql: &str, ids: &[u32]) -> Vec<u64> {
    let q = parse_sql(sql).expect("workload sql parses");
    if q.shape == Shape::Ranked {
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

    /// Raw scatter-gather path under launch-failure/stall/oom chaos on a
    /// random device subset: every call either returns the bit-exact
    /// fault-free result or a typed error — never a truncated result.
    #[test]
    fn chaotic_execute_sharded_is_exact_or_loud(
        seed in any::<u64>(),
        launch_failure_rate in 0.0f64..0.4,
        stall_rate in 0.0f64..0.3,
        oom_rate in 0.0f64..0.2,
        max_faults in 1usize..64,
        subset_mask in 1u8..16,
        policy_idx in 0usize..3,
    ) {
        let host = TweetTable::generate(5_000, seed);
        let dev = Device::titan_x();
        let gpu = GpuTweetTable::upload(&dev, &host);
        let sqls = workload(&host, 10);
        let oracle: Vec<Vec<u32>> = sqls
            .iter()
            .map(|s| {
                execute_sql(&dev, &gpu, &parse_sql(s).unwrap(), Strategy::StageBitonic)
                    .expect("fault-free oracle")
                    .ids
            })
            .collect();

        let policy = PartitionPolicy::all()[policy_idx];
        let cluster = Cluster::new(ClusterSpec::pcie_node(4));
        let table = ShardedTable::partition(&cluster, &host, policy)
            .expect("partition before faults");
        // arm a random subset of devices (mask bit i = device i)
        for i in 0..4 {
            if subset_mask & (1 << i) != 0 {
                cluster.device(i).set_fault_plan(FaultPlan {
                    seed: seed.wrapping_add(i as u64),
                    launch_failure_rate,
                    stall_rate,
                    stall_delay: SimTime(100e-6),
                    oom_rate,
                    max_faults,
                    ..FaultPlan::none()
                });
            }
        }

        for (i, sql) in sqls.iter().enumerate() {
            let q = parse_sql(sql).unwrap();
            match execute_sharded(&cluster, &table, &q, Strategy::StageBitonic, 2) {
                Ok(r) => {
                    // (b) bit-exact: no corruption plans and no CPU rung
                    // on this path, so ids must match the oracle exactly
                    prop_assert_eq!(&r.items, &oracle[i], "{}", sql);
                }
                Err(e) => {
                    // (c) typed, transient-classed failure — never a
                    // silently shortened result
                    prop_assert!(
                        matches!(e, QdbError::DeviceFault { .. }),
                        "{sql}: untyped chaos error {e:?}"
                    );
                }
            }
        }
        for i in 0..4 {
            cluster.device(i).clear_fault_plan();
        }
        // with plans cleared every query completes bit-exact again
        for (i, sql) in sqls.iter().enumerate() {
            let q = parse_sql(sql).unwrap();
            let r = execute_sharded(&cluster, &table, &q, Strategy::StageBitonic, 2)
                .expect("clean rerun");
            prop_assert_eq!(&r.items, &oracle[i], "post-chaos {}", sql);
        }
    }

    /// Full sharded-server path (admission queues + degradation ladder
    /// per shard + delegate merge) under chaos including corruption:
    /// completed queries carry the oracle's key sequence at full length.
    #[test]
    fn chaotic_sharded_server_completions_match_the_oracle(
        seed in any::<u64>(),
        launch_failure_rate in 0.0f64..0.3,
        corruption_rate in 0.0f64..0.3,
        stall_rate in 0.0f64..0.2,
        max_faults in 1usize..64,
        subset_mask in 1u8..16,
    ) {
        let host = TweetTable::generate(5_000, seed);
        let dev = Device::titan_x();
        let gpu = GpuTweetTable::upload(&dev, &host);
        let sqls = workload(&host, 12);
        let oracle: Vec<Vec<u32>> = sqls
            .iter()
            .map(|s| {
                execute_sql(&dev, &gpu, &parse_sql(s).unwrap(), Strategy::StageBitonic)
                    .expect("fault-free oracle")
                    .ids
            })
            .collect();

        let cluster = Cluster::new(ClusterSpec::pcie_node(4));
        let table = ShardedTable::partition(&cluster, &host, PartitionPolicy::Hash)
            .expect("partition before faults");
        // corruption chaos only on non-merge devices: their servers run
        // the PR 4 audit ladder, while the device-0 merge has no audit
        // of its own (device 0 still gets drop/stall chaos)
        for i in 0..4usize {
            if subset_mask & (1 << i) != 0 {
                cluster.device(i).set_fault_plan(FaultPlan {
                    seed: seed.wrapping_add(i as u64),
                    launch_failure_rate,
                    corruption_rate: if i == 0 { 0.0 } else { corruption_rate },
                    stall_rate,
                    stall_delay: SimTime(100e-6),
                    max_faults,
                    ..FaultPlan::none()
                });
            }
        }

        let mut server = ShardedServer::new(&cluster, &table, ServerConfig::default());
        let mut admitted = Vec::new();
        for (i, sql) in sqls.iter().enumerate() {
            match server.submit(sql) {
                Ok(t) => admitted.push((i, t)),
                Err(QdbError::Overloaded { .. }) => {}
                Err(other) => prop_assert!(false, "untyped admission failure: {other:?}"),
            }
        }
        let report = server.drain();
        for i in 0..4 {
            cluster.device(i).clear_fault_plan();
        }

        prop_assert_eq!(report.queries.len(), admitted.len());
        let mut completed = 0usize;
        for (i, t) in &admitted {
            let served = &report.queries[t.0];
            prop_assert_eq!(&served.sql, &sqls[*i]);
            match &served.error {
                None => {
                    completed += 1;
                    // (b)+(c): full length and oracle key sequence — a
                    // lost shard can never manifest as a shorter or
                    // reordered result
                    prop_assert_eq!(served.ids.len(), oracle[*i].len(), "{}", served.sql);
                    let got = signature(&host, &served.sql, &served.ids);
                    let want = signature(&host, &served.sql, &oracle[*i]);
                    prop_assert_eq!(got, want, "{}", served.sql);
                }
                Some(QdbError::DeviceFault { .. }) | Some(QdbError::Timeout { .. }) => {}
                Some(other) => prop_assert!(false, "untyped drain error: {other:?}"),
            }
        }
        // (c) ledger consistency at the sharded-query level
        prop_assert_eq!(report.resilience.completed, completed);
        prop_assert_eq!(
            report.resilience.completed + report.resilience.failed
                + report.resilience.timed_out,
            admitted.len()
        );
    }

    /// Replicated serving under a random permanent device-down plan
    /// armed mid-load: at `r >= 2` every query still completes
    /// bit-exact (drain-time failover); at `r = 1` the loss is loud and
    /// typed, never a truncated result; rebuilt copies serve the next
    /// batch either way, and the resilience ledger stays consistent.
    #[test]
    fn chaotic_device_down_plans_fail_over_or_fail_loud(
        seed in any::<u64>(),
        replication in 1usize..=3,
        down_device in 0usize..4,
        budget_trigger in any::<bool>(),
    ) {
        let host = TweetTable::generate(5_000, seed);
        let dev = Device::titan_x();
        let gpu = GpuTweetTable::upload(&dev, &host);
        let sqls = workload(&host, 8);
        let oracle: Vec<Vec<u32>> = sqls
            .iter()
            .map(|s| {
                execute_sql(&dev, &gpu, &parse_sql(s).unwrap(), Strategy::StageBitonic)
                    .expect("fault-free oracle")
                    .ids
            })
            .collect();

        let cluster = Cluster::new(ClusterSpec::pcie_node(4));
        let table = ShardedTable::partition_replicated(
            &cluster,
            &host,
            PartitionPolicy::Hash,
            qdb::ReplicationFactor(replication),
        )
        .expect("partition before faults");
        let mut server = ShardedServer::new(&cluster, &table, ServerConfig::default());

        // batch A: healthy baseline
        for s in &sqls {
            server.submit(s).expect("healthy admission");
        }
        let a = server.drain();
        prop_assert_eq!(a.resilience.completed, sqls.len());
        for (i, sq) in a.queries.iter().enumerate() {
            prop_assert_eq!(&sq.ids, &oracle[i], "batch A: {}", sq.sql);
        }

        // batch B admitted, then the device dies under it: both plan
        // triggers fire before the next launch touches the device
        for s in &sqls {
            server.submit(s).expect("admission before loss");
        }
        let plan = if budget_trigger {
            FaultPlan {
                down_after_faults: Some(0),
                ..FaultPlan::none()
            }
        } else {
            FaultPlan::down_at(SimTime::ZERO)
        };
        cluster.device(down_device).set_fault_plan(plan);
        let b = server.drain();

        prop_assert_eq!(b.queries.len(), sqls.len());
        let mut completed = 0usize;
        for (i, sq) in b.queries.iter().enumerate() {
            match &sq.error {
                None => {
                    completed += 1;
                    // failover must be invisible in the result
                    prop_assert_eq!(&sq.ids, &oracle[i], "batch B: {}", sq.sql);
                }
                Some(QdbError::DeviceFault { transient, .. }) => {
                    // loud, typed, final — and never truncated
                    prop_assert!(!transient, "device loss must be terminal");
                    prop_assert!(sq.ids.is_empty(), "no truncated results");
                }
                Some(other) => prop_assert!(false, "untyped loss error: {other:?}"),
            }
        }
        if replication >= 2 {
            prop_assert_eq!(
                completed,
                sqls.len(),
                "r={} survives one permanent loss",
                replication
            );
        } else {
            // r = 1: every query scatters over the lost shard and fails
            prop_assert_eq!(completed, 0, "r=1 loss cannot be absorbed");
        }
        // ledger consistency and an honest health snapshot
        prop_assert_eq!(b.resilience.completed, completed);
        prop_assert_eq!(
            b.resilience.completed + b.resilience.failed + b.resilience.timed_out,
            sqls.len()
        );
        let per_query: usize = b.queries.iter().map(|q| q.failovers).sum();
        prop_assert_eq!(b.resilience.failovers, per_query);
        prop_assert!(b.health[down_device].down, "loss recorded in health");
        prop_assert!(b.resilience.rebuilds > 0, "lost copies re-materialize");

        // batch C: rebuilt copies restore service at every r
        for s in &sqls {
            server.submit(s).expect("post-rebuild admission");
        }
        let c = server.drain();
        prop_assert_eq!(c.resilience.completed, sqls.len());
        for (i, sq) in c.queries.iter().enumerate() {
            prop_assert_eq!(&sq.ids, &oracle[i], "batch C: {}", sq.sql);
        }
    }
}

#[test]
fn zero_rate_plans_on_every_device_change_nothing() {
    // interconnect channels stay occupied across queries on a live
    // cluster, so the comparison needs two fresh clusters: one bare, one
    // with explicit all-zero fault plans armed on every device
    let host = TweetTable::generate(4_000, 3);
    let sqls = workload(&host, 8);
    let run = |arm_plans: bool| -> Vec<_> {
        let cluster = Cluster::new(ClusterSpec::pcie_node(4));
        let table = ShardedTable::partition(&cluster, &host, PartitionPolicy::RoundRobin).unwrap();
        if arm_plans {
            for i in 0..4 {
                cluster.device(i).set_fault_plan(FaultPlan::none());
            }
        }
        sqls.iter()
            .map(|s| {
                execute_sharded(
                    &cluster,
                    &table,
                    &parse_sql(s).unwrap(),
                    Strategy::StageBitonic,
                    0,
                )
                .unwrap()
            })
            .collect()
    };
    let clean = run(false);
    let armed = run(true);
    for ((r, c), s) in armed.iter().zip(&clean).zip(&sqls) {
        assert_eq!(r.items, c.items, "{s}");
        // all-zero plans must not perturb modeled time either (the fault
        // machinery draws no RNG words for zero rates)
        assert_eq!(r.sim_time, c.sim_time, "{s}");
        assert_eq!(r.retries, 0);
    }
}
