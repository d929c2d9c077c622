//! The device answers every LIMIT the parser accepts. A bitonic stage or
//! run merge whose 2k window does not fit one block's shared memory
//! (k > 2048 for 8-byte items on the Titan X) runs the exact global-steps
//! network, so a one-shot query, a `Server` drain, a view's delta refresh
//! and a cached entry's delta merge all answer on the device and equal
//! the CPU engine, ties included.

use datagen::twitter::TweetTable;
use qdb::{
    execute_cpu, execute_sql, parse_sql, DegradeLevel, GpuTweetTable, Server, ServerConfig,
    Strategy, SubmitOptions, TopKView, ViewConfig, ViewMode,
};
use simt::Device;

const ROWS: usize = 1 << 15;

/// LIMITs past one block's window on every shape, each over more than
/// 2048 candidates.
fn probes(host: &TweetTable) -> Vec<String> {
    let cutoff = host.time_cutoff_for_selectivity(0.25);
    vec![
        "SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 4000".to_string(),
        "SELECT id FROM tweets ORDER BY retweet_count ASC LIMIT 3000".to_string(),
        "SELECT id FROM tweets ORDER BY retweet_count + 0.5 * likes_count DESC LIMIT 2100"
            .to_string(),
        format!(
            "SELECT id FROM tweets WHERE tweet_time < {cutoff} \
             ORDER BY retweet_count DESC LIMIT 2049"
        ),
        "SELECT uid, COUNT(*) FROM tweets GROUP BY uid ORDER BY COUNT(*) DESC LIMIT 3000"
            .to_string(),
    ]
}

fn cpu_ids(table: &GpuTweetTable, sql: &str) -> Vec<u32> {
    execute_cpu(table, &parse_sql(sql).unwrap(), Strategy::StageBitonic, 2)
        .unwrap()
        .ids
}

#[test]
fn wide_limits_answer_on_the_device() {
    let dev = Device::titan_x();
    let host = TweetTable::generate(ROWS, 13);
    let table = GpuTweetTable::upload(&dev, &host);
    let sqls = probes(&host);
    for sql in &sqls {
        let q = parse_sql(sql).unwrap();
        let device = execute_sql(&dev, &table, &q, Strategy::StageBitonic).unwrap();
        assert!(device.ids.len() > 2048, "{sql}");
        assert_eq!(device.ids, cpu_ids(&table, sql), "{sql}");
    }

    let mut server = Server::new(&dev, &table, ServerConfig::default());
    for sql in &sqls {
        server.submit(sql, SubmitOptions::default()).unwrap();
    }
    let report = server.drain();
    for q in &report.queries {
        assert!(q.completed(), "{}: {:?}", q.sql, q.error);
        assert_eq!(q.degrade, DegradeLevel::None, "{}", q.sql);
        assert_eq!(q.result.ids, cpu_ids(&table, &q.sql), "{}", q.sql);
    }
}

/// A LIMIT 4000 view and a LIMIT 4000 cache entry both fold a delta in
/// with a 4000-wide run merge on the device.
#[test]
fn wide_limit_deltas_merge_on_the_device() {
    let dev = Device::titan_x();
    let host = TweetTable::generate(ROWS, 14);
    let table = GpuTweetTable::upload_with_capacity(&dev, &host, ROWS + 1000);
    let sql = "SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 4000";
    let view = TopKView::register(sql, Strategy::StageBitonic, ViewConfig::default()).unwrap();
    view.refresh(&dev, &table).unwrap();
    let mut server = Server::new(
        &dev,
        &table,
        ServerConfig {
            result_cache: true,
            ..ServerConfig::default()
        },
    );
    server.submit(sql, SubmitOptions::default()).unwrap();
    server.drain();

    let batch = TweetTable::generate_at(1000, 15, ROWS as u32);
    table.append_batch(&dev, &batch).unwrap();
    let want = cpu_ids(&table, sql);
    let r = view.refresh(&dev, &table).unwrap();
    assert_eq!(r.mode, ViewMode::DeltaMerge);
    assert_eq!(r.ids, want);

    server.submit(sql, SubmitOptions::default()).unwrap();
    let report = server.drain();
    let q = &report.queries[0];
    assert_eq!(report.resilience.cache_refreshes, 1);
    assert!(q.completed(), "{:?}", q.error);
    assert_eq!((q.degrade, q.retries), (DegradeLevel::None, 0));
    assert_eq!(q.result.ids, want);
}
