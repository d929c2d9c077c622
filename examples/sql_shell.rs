//! A batch SQL "shell": parses and executes the paper's query shapes
//! through the qdb SQL front-end, printing each plan (EXPLAIN) before
//! running it with every strategy. `EXPLAIN SANITIZE SELECT …` runs the
//! query under the simt sanitizer and prints per-launch
//! racecheck/memcheck/initcheck/perf findings; `EXPLAIN LINT SELECT …`
//! statically analyzes every launch plan the query makes (validity,
//! occupancy, predicted coalescing/bank behavior, bounds proofs)
//! before it runs.
//!
//! ```sh
//! cargo run --release --example sql_shell
//! # or pass your own statement:
//! cargo run --release --example sql_shell -- \
//!   "EXPLAIN LINT SELECT id FROM tweets WHERE lang='ja' ORDER BY retweet_count DESC LIMIT 10"
//! ```

use gpu_topk::datagen::twitter::TweetTable;
use gpu_topk::qdb::{
    execute_sql, explain_analysis, explain_filtered_topk, parse_statement, GpuTweetTable, Query,
    Shape, Statement, Strategy, TableStats,
};
use gpu_topk::simt::Device;

fn main() {
    let n = 1 << 18;
    let host = TweetTable::generate(n, 7);
    let dev = Device::titan_x();
    let table = GpuTweetTable::upload(&dev, &host);
    let stats = TableStats::gather(&table);
    println!("loaded {n} synthetic tweets\n");

    let args: Vec<String> = std::env::args().skip(1).collect();
    let cutoff = host.time_cutoff_for_selectivity(0.25);
    let default_queries = vec![
        format!("SELECT id FROM tweets WHERE tweet_time < {cutoff} ORDER BY retweet_count DESC LIMIT 50"),
        "SELECT id FROM tweets ORDER BY retweet_count + 0.5 * likes_count DESC LIMIT 20".to_string(),
        "SELECT id FROM tweets WHERE lang='en' OR lang='es' ORDER BY retweet_count DESC LIMIT 25".to_string(),
        "SELECT uid, COUNT(*) AS num_tweets FROM tweets GROUP BY uid ORDER BY num_tweets DESC LIMIT 10".to_string(),
        format!("EXPLAIN SANITIZE SELECT id FROM tweets WHERE tweet_time < {cutoff} ORDER BY retweet_count DESC LIMIT 50"),
        format!("EXPLAIN LINT SELECT id FROM tweets WHERE tweet_time < {cutoff} ORDER BY retweet_count DESC LIMIT 50"),
    ];
    let queries = if args.is_empty() {
        default_queries
    } else {
        args
    };

    for sql in &queries {
        println!("sql> {sql}");
        let stmt = match parse_statement(sql) {
            Ok(s) => s,
            Err(e) => {
                println!("  parse error: {e}\n");
                continue;
            }
        };
        match stmt {
            Statement::ExplainAnalysis(source, q) => {
                match explain_analysis(&dev, &table, &q, Strategy::CombinedBitonic, source) {
                    Ok(out) => print!("{}", out.render()),
                    Err(e) => println!("  {e}"),
                }
            }
            Statement::Explain(q) => print_plan(&dev, &table, &stats, &q),
            Statement::Select(q) => {
                print_plan(&dev, &table, &stats, &q);
                for strat in Strategy::all() {
                    match execute_sql(&dev, &table, &q, strat) {
                        Ok(r) => println!(
                            "  {:<18} {:>9.1} µs  -> {} rows, first id {}",
                            strat.name(),
                            r.kernel_time.micros(),
                            r.ids.len(),
                            r.ids.first().map_or("-".into(), |i| i.to_string())
                        ),
                        Err(e) => println!("  {:<18} {e}", strat.name()),
                    }
                }
            }
        }
        println!();
    }
}

fn print_plan(dev: &Device, table: &GpuTweetTable, stats: &TableStats, q: &Query) {
    if let Shape::Top(Some(op)) | Shape::Bottom(Some(op)) = &q.shape {
        let plan = explain_filtered_topk(dev.spec(), table, stats, op, q.limit);
        print!("{}", plan.render());
    }
}
