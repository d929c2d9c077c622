//! The result cache through appends: a stale entry whose runs merge is
//! brought current with the views' delta step, and every answer a cached
//! `Server` returns equals re-execution at that epoch, bit for bit —
//! ids included. A delta past the views' crossover re-executes, and so
//! does GROUP BY. Faults on the delta path descend the serving ladder or
//! trip the integrity audit; either way the answer stays exact.

use datagen::twitter::TweetTable;
use qdb::{
    execute_sql, parse_sql, DegradeLevel, GpuTweetTable, LoadReport, Server, ServerConfig,
    Strategy, SubmitOptions,
};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use simt::{Device, FaultKind, FaultPlan};

const ROWS: usize = 1 << 15;

/// Every cached shape: Top with and without WHERE, Bottom, Ranked and
/// GROUP BY (which re-executes).
fn sqls(host: &TweetTable) -> Vec<String> {
    let cutoff = host.time_cutoff_for_selectivity(0.2);
    vec![
        "SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 10".to_string(),
        format!(
            "SELECT id FROM tweets WHERE tweet_time < {cutoff} \
             ORDER BY retweet_count DESC LIMIT 12"
        ),
        "SELECT id FROM tweets WHERE lang = 'en' OR lang = 'ja' \
         ORDER BY retweet_count DESC LIMIT 6"
            .to_string(),
        "SELECT id FROM tweets ORDER BY retweet_count ASC LIMIT 9".to_string(),
        format!(
            "SELECT id FROM tweets WHERE tweet_time < {cutoff} \
             ORDER BY retweet_count ASC LIMIT 5"
        ),
        "SELECT id FROM tweets ORDER BY retweet_count + 0.5 * likes_count DESC LIMIT 7".to_string(),
        "SELECT uid, COUNT(*) FROM tweets GROUP BY uid ORDER BY COUNT(*) DESC LIMIT 5".to_string(),
    ]
}

fn cached_server<'a>(dev: &'a Device, table: &'a GpuTweetTable) -> Server<'a> {
    Server::new(
        dev,
        table,
        ServerConfig {
            result_cache: true,
            ..ServerConfig::default()
        },
    )
}

/// Submits `sqls` and drains them; returns the report and the global
/// bytes the drain moved.
fn serve(dev: &Device, server: &mut Server<'_>, sqls: &[String]) -> (LoadReport, u64) {
    for s in sqls {
        server.submit(s, SubmitOptions::default()).unwrap();
    }
    let log0 = dev.log_len();
    let report = server.drain();
    (report, dev.window_since(log0).stats.global_bytes())
}

/// Checks every answer of `report` against re-execution at the table's
/// current epoch; returns the global bytes the re-executions moved.
fn check_exact(dev: &Device, table: &GpuTweetTable, report: &LoadReport, when: &str) -> u64 {
    let mut bytes = 0;
    for q in &report.queries {
        assert!(q.completed(), "{when}: {}: {:?}", q.sql, q.error);
        let log0 = dev.log_len();
        let oracle = execute_sql(
            dev,
            table,
            &parse_sql(&q.sql).unwrap(),
            Strategy::StageBitonic,
        )
        .unwrap();
        bytes += dev.window_since(log0).stats.global_bytes();
        assert_eq!(q.result.ids, oracle.ids, "{when}: {}", q.sql);
    }
    bytes
}

fn append(dev: &Device, table: &GpuTweetTable, rows: usize, seed: u64) {
    let batch = TweetTable::generate_at(rows, seed, table.len() as u32);
    table.append_batch(dev, &batch).unwrap();
}

/// Random appends between drains: each drain's answers equal
/// re-execution at that epoch, the same stale SQL twice in one drain
/// included. A drain of stale mergeable entries moves under 10% of the
/// bytes of re-executing the same queries; a delta past the crossover
/// re-executes.
#[test]
fn cached_server_equals_re_execution_through_appends() {
    let dev = Device::titan_x();
    let host = TweetTable::generate(ROWS, 71);
    let table = GpuTweetTable::upload_with_capacity(&dev, &host, 4 * ROWS);
    let all = sqls(&host);
    let mergeable: Vec<String> = all[..all.len() - 1].to_vec();
    let mut server = cached_server(&dev, &table);
    let mut rng = SmallRng::seed_from_u64(5);

    let (built, _) = serve(&dev, &mut server, &all);
    check_exact(&dev, &table, &built, "build");
    assert_eq!(built.resilience.cache_misses, all.len());

    for round in 0..6u64 {
        append(&dev, &table, rng.gen_range(1..=600), 900 + round);
        // the first SQL twice in one drain: both copies fold the delta
        let mut twice = all.clone();
        twice.push(all[0].clone());
        let (stale, _) = serve(&dev, &mut server, &twice);
        check_exact(&dev, &table, &stale, &format!("round {round}"));
        assert_eq!(stale.resilience.cache_refreshes, twice.len());
        assert!(stale
            .queries
            .iter()
            .all(|q| q.degrade == DegradeLevel::None));
        // the refreshed entries serve the new epoch
        let (hits, _) = serve(&dev, &mut server, &all);
        check_exact(&dev, &table, &hits, &format!("round {round} hits"));
        assert_eq!(hits.resilience.cache_hits, all.len());
    }

    // the point of the delta step: stale mergeable entries move a small
    // share of the bytes their re-execution moves
    append(&dev, &table, 512, 1);
    let (stale, drain_bytes) = serve(&dev, &mut server, &mergeable);
    let rescan_bytes = check_exact(&dev, &table, &stale, "bytes");
    assert!(
        (drain_bytes as f64) < 0.1 * rescan_bytes as f64,
        "delta-merged refreshes should move a small share of re-execution: \
         {drain_bytes} vs {rescan_bytes}"
    );

    // a delta past the crossover (more than half the rows covered)
    // re-executes
    append(&dev, &table, table.len() / 2 + 1, 2);
    let (past, drain_bytes) = serve(&dev, &mut server, &mergeable);
    let rescan_bytes = check_exact(&dev, &table, &past, "past the crossover");
    assert_eq!(past.resilience.cache_refreshes, mergeable.len());
    assert!(
        (drain_bytes as f64) > 0.5 * rescan_bytes as f64,
        "past the crossover the entries re-execute: {drain_bytes} vs {rescan_bytes}"
    );
}

/// An allocation fault plan that defeats every attempt at the delta
/// step's slice: the query descends the ladder from its top rung, which
/// re-executes it exactly once the faults are spent.
#[test]
fn a_defeated_delta_step_descends_the_ladder() {
    let dev = Device::titan_x();
    let host = TweetTable::generate(ROWS, 72);
    let table = GpuTweetTable::upload_with_capacity(&dev, &host, 2 * ROWS);
    let all = sqls(&host);
    let sql = vec![all[5].clone()];
    let mut server = cached_server(&dev, &table);
    serve(&dev, &mut server, &sql);
    append(&dev, &table, 300, 3);

    // one injected OOM per attempt: the first try and both retries
    let attempts = ServerConfig::default().max_retries + 1;
    dev.set_fault_plan(FaultPlan {
        oom_rate: 1.0,
        max_faults: attempts,
        ..FaultPlan::none()
    });
    let (r, _) = serve(&dev, &mut server, &sql);
    dev.clear_fault_plan();
    check_exact(&dev, &table, &r, "after a defeated delta");
    let q = &r.queries[0];
    assert_eq!(r.resilience.faults_injected, attempts);
    assert_eq!(q.retries, attempts - 1);
    assert_eq!(q.degrade, DegradeLevel::None, "the top rung re-executes it");
    assert_eq!(r.resilience.cache_refreshes, 1);

    // every allocation fails: the ladder ends on the CPU rung, exact
    append(&dev, &table, 300, 4);
    dev.set_fault_plan(FaultPlan {
        oom_rate: 1.0,
        max_faults: usize::MAX,
        ..FaultPlan::none()
    });
    let (r, _) = serve(&dev, &mut server, &sql);
    dev.clear_fault_plan();
    check_exact(&dev, &table, &r, "on the CPU rung");
    assert_eq!(r.queries[0].degrade, DegradeLevel::CpuHeap);
}

/// The delta step's slice is tagged for ECC corruption: a corruption
/// plan hits it, the integrity audit re-executes the query, and the
/// answer stays exact.
#[test]
fn corruption_of_a_delta_slice_is_audited() {
    let dev = Device::titan_x();
    let host = TweetTable::generate(ROWS, 73);
    let table = GpuTweetTable::upload_with_capacity(&dev, &host, 2 * ROWS);
    let all = sqls(&host);
    let mergeable = &all[..all.len() - 1];
    let mut server = cached_server(&dev, &table);
    serve(&dev, &mut server, mergeable);
    append(&dev, &table, 400, 5);

    let f0 = dev.fault_events_len();
    dev.set_fault_plan(FaultPlan {
        corruption_rate: 1.0,
        max_faults: usize::MAX,
        ..FaultPlan::none()
    });
    let (r, _) = serve(&dev, &mut server, mergeable);
    dev.clear_fault_plan();
    let hit_deltas = dev.fault_events()[f0..]
        .iter()
        .filter(|ev| ev.kind == FaultKind::MemoryCorruption)
        .filter(|ev| {
            ev.target
                .as_deref()
                .is_some_and(|t| t.starts_with("qdb:delta:"))
        })
        .count();
    assert!(hit_deltas > 0, "the corruption plan reached a delta slice");
    check_exact(&dev, &table, &r, "after corruption");
    assert!(
        r.queries
            .iter()
            .all(|q| q.degrade == DegradeLevel::SerialBitonic),
        "the audit re-executed every corrupted delta"
    );
}
