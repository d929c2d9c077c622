//! The unified benchmark harness binary: runs the top-k, serving, CPU
//! backend, streaming, cluster and figures suites, writes one
//! `BENCH_<suite>.json` report each (see `bench::report` for the schema)
//! and prints each report's markdown tables.
//!
//! ```text
//! harness [--out-dir DIR] [--only topk|serve|cpu|stream|cluster|figures]
//! ```
//!
//! Scale comes from `TOPK_REPRO_LOG2N`: unset runs the full profile
//! (top-k, cluster and figures at 2^22, serving at 2^17);
//! `TOPK_REPRO_LOG2N=16` is the small profile the CI perf gate uses.
//! Compare the written reports against the committed baseline with
//! `bench-diff`.

use bench::figures::run_figures_suite;
use bench::harness::{
    run_cluster_suite, run_cpu_suite, run_serve_suite, run_stream_suite, run_topk_suite,
    HarnessScales,
};
use bench::report::BenchReport;

fn main() {
    let scales = HarnessScales::from_env();
    type Suite = fn(u32, &str) -> BenchReport;
    let suites: [(&str, u32, Suite); 6] = [
        ("topk", scales.topk_log2n, run_topk_suite),
        ("serve", scales.serve_log2n, run_serve_suite),
        ("cpu", scales.cpu_log2n, run_cpu_suite),
        ("stream", scales.stream_log2n, run_stream_suite),
        ("cluster", scales.topk_log2n, run_cluster_suite),
        ("figures", scales.topk_log2n, run_figures_suite),
    ];
    let names: Vec<&str> = suites.iter().map(|s| s.0).collect();
    let usage = format!("harness [--out-dir DIR] [--only {}]", names.join("|"));

    let mut out_dir = std::path::PathBuf::from(".");
    let mut only: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out-dir" => {
                out_dir = args.next().expect("--out-dir needs a directory").into();
            }
            "--only" => {
                let suite = args.next().unwrap_or_default();
                assert!(
                    names.contains(&suite.as_str()),
                    "--only accepts one of {}, got '{suite}'",
                    names.join(", ")
                );
                only = Some(suite);
            }
            other => panic!("unknown argument '{other}' (usage: {usage})"),
        }
    }
    std::fs::create_dir_all(&out_dir).expect("create output directory");

    println!(
        "== bench harness: profile '{}' (topk n=2^{}, serve n=2^{}, cpu n=2^{}, stream n=2^{}) ==",
        scales.profile,
        scales.topk_log2n,
        scales.serve_log2n,
        scales.cpu_log2n,
        scales.stream_log2n
    );
    for (name, log2n, run) in suites {
        if only.as_deref().is_some_and(|o| o != name) {
            continue;
        }
        let wall = std::time::Instant::now();
        let report = run(log2n, &scales.profile);
        let cells = report.experiments.len();
        println!(
            "{name} suite: {cells} cells in {:.1}s host wall",
            wall.elapsed().as_secs_f64()
        );
        let path = out_dir.join(format!("BENCH_{name}.json"));
        std::fs::write(&path, report.render()).expect("write report");
        println!("wrote {} ({cells} experiments)\n", path.display());
        print!("{}", report.render_tables());
    }
}
