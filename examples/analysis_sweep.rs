//! Analysis sweep: runs every `TopKAlgorithm` variant, the batched
//! row-wise kernel, a streamed and coalesced qdb serving drain, and the
//! paper's qdb query shapes under every strategy with both analysis
//! passes on (`simt::lint` predicts each launch, `simt::sanitize`
//! observes it), and
//!
//! 1. asserts every launch is clean in both passes (or explicitly
//!    waived),
//! 2. cross-checks every static prediction against the replay's measured
//!    counters — a drift becomes a `spec.mismatch` finding,
//! 3. writes all per-launch reports as JSON — the artifact the CI
//!    analysis job uploads.
//!
//! ```sh
//! cargo run --release --example analysis_sweep [-- out.json]
//! ```
//!
//! The report lands at the first CLI argument if given, else
//! `$GPU_TOPK_OUT_DIR/analysis_report.json`, else the temp directory.
//! Exits non-zero if any launch has a finding.

use gpu_topk::datagen::twitter::TweetTable;
use gpu_topk::datagen::{BucketKiller, Distribution, Increasing, Uniform};
use gpu_topk::qdb::{
    execute_sql, parse_sql, GpuTweetTable, Server, ServerConfig, Strategy, SubmitOptions,
};
use gpu_topk::simt::analysis::reports_to_json;
use gpu_topk::simt::lint::cross_check;
use gpu_topk::simt::{AnalysisReport, Device};
use gpu_topk::topk::batched::batched_bitonic_topk;
use gpu_topk::topk::{TopKAlgorithm, TopKRequest};

/// A fresh Titan X with both analysis passes on.
fn analyzed_device() -> Device {
    let dev = Device::titan_x();
    dev.enable_lint();
    dev.enable_sanitizer();
    dev
}

/// Drains a device's reports, pairing each with its launch to run the
/// static-vs-dynamic cross-check; a disagreement is appended to the
/// report as a `spec.mismatch` finding so it fails the clean gate.
fn drain(dev: &Device, context: &str, all: &mut Vec<AnalysisReport>) {
    let log = dev.launch_log();
    let mut reports = dev.take_analysis();
    assert_eq!(
        log.len(),
        reports.len(),
        "{context}: every launch must produce exactly one report"
    );
    for (launch, report) in log.iter().zip(reports.iter_mut()) {
        if let Some(mismatch) = cross_check(report, &launch.stats) {
            report.findings.push(mismatch);
        }
    }
    all.extend(reports);
}

fn main() {
    let out_path = gpu_topk::artifact_path("analysis_report.json");
    let mut all: Vec<AnalysisReport> = Vec::new();

    // every algorithm x (n, k) x distribution
    type Gen = Box<dyn Fn(usize) -> Vec<f32>>;
    let dists: Vec<(&str, Gen)> = vec![
        ("uniform", Box::new(|n| Uniform.generate(n, 42))),
        ("sorted", Box::new(|n| Increasing.generate(n, 42))),
        ("bucket-killer", Box::new(|n| BucketKiller.generate(n, 42))),
    ];
    for alg in TopKAlgorithm::all() {
        for &(n, k) in &[(1usize << 14, 16usize), (1 << 16, 64), (3000, 8)] {
            for (dist, gen) in &dists {
                let dev = analyzed_device();
                let input = dev.upload(&gen(n));
                let context = format!("{} n={n} k={k} {dist}", alg.name());
                TopKRequest::largest(k)
                    .with_alg(alg)
                    .run(&dev, &input)
                    .unwrap_or_else(|e| panic!("{context}: {e}"));
                drain(&dev, &context, &mut all);
            }
        }
    }

    // batched row-wise top-k
    {
        let dev = analyzed_device();
        let (rows, cols) = (32usize, 1000usize);
        let flat: Vec<f32> = Uniform.generate(rows * cols, 9);
        let input = dev.upload(&flat);
        batched_bitonic_topk(&dev, &input, rows, cols, 16).unwrap();
        drain(&dev, "batched", &mut all);
    }

    let host = TweetTable::generate(20_000, 5);
    let cutoff = host.time_cutoff_for_selectivity(0.4);

    // concurrent qdb serving: streamed + coalesced-batched launches
    {
        let dev = analyzed_device();
        let table = GpuTweetTable::upload(&dev, &host);
        let mut server = Server::new(&dev, &table, ServerConfig::default());
        for k in [5usize, 10, 20, 40] {
            server
                .submit(&format!(
                    "SELECT id FROM tweets WHERE tweet_time < {cutoff} ORDER BY retweet_count DESC LIMIT {k}"
                ), SubmitOptions::default())
                .unwrap();
        }
        server
            .submit(
                "SELECT uid, COUNT(*) FROM tweets GROUP BY uid ORDER BY COUNT(*) DESC LIMIT 10",
                SubmitOptions::default(),
            )
            .unwrap();
        server.drain();
        drain(&dev, "serving drain", &mut all);
    }

    // the paper's qdb query shapes under every strategy
    let sqls = [
        format!("SELECT id FROM tweets WHERE tweet_time < {cutoff} ORDER BY retweet_count DESC LIMIT 50"),
        "SELECT id FROM tweets ORDER BY retweet_count + 0.5 * likes_count DESC LIMIT 20".into(),
        "SELECT uid, COUNT(*) FROM tweets GROUP BY uid ORDER BY COUNT(*) DESC LIMIT 10".into(),
    ];
    for sql in &sqls {
        let q = parse_sql(sql).unwrap();
        for strat in Strategy::all() {
            let dev = analyzed_device();
            let table = GpuTweetTable::upload(&dev, &host);
            let context = format!("{sql} via {}", strat.name());
            execute_sql(&dev, &table, &q, strat).unwrap_or_else(|e| panic!("{context}: {e}"));
            drain(&dev, &context, &mut all);
        }
    }

    let checked = all.iter().filter(|r| r.prediction.is_some()).count();
    let dirty: Vec<&AnalysisReport> = all.iter().filter(|r| !r.is_clean()).collect();
    std::fs::write(&out_path, reports_to_json(&all)).expect("write report");
    println!(
        "analysis_sweep: {} launches, {checked} cross-checked, {} with findings -> {}",
        all.len(),
        dirty.len(),
        out_path.display()
    );
    for rep in &dirty {
        print!("{}", rep.render());
    }
    if !dirty.is_empty() {
        std::process::exit(1);
    }
}
