//! Resilient serving demo: drives the qdb server through an escalating
//! fault-plan sweep and prints the shed / retried / degraded / completed
//! breakdown at every step.
//!
//! ```sh
//! cargo run --release --example resilient_serving [-- out.json]
//! ```
//!
//! The per-step resilience ledgers are also written as JSON — the
//! artifact the CI chaos job uploads. The report lands at the first CLI
//! argument if given, else `$GPU_TOPK_OUT_DIR/resilience_report.json`,
//! else the temp directory. Exits non-zero if any completed query
//! disagrees with the fault-free oracle, or if a fault-free control run
//! reports anything but a clean ledger.

use gpu_topk::datagen::twitter::TweetTable;
use gpu_topk::qdb::{
    execute_sql, parse_sql, GpuTweetTable, QdbError, Server, ServerConfig, Shape, Strategy,
    SubmitOptions,
};
use gpu_topk::simt::{Device, FaultPlan, SimTime};

fn workload(host: &TweetTable, count: usize) -> Vec<String> {
    (0..count)
        .map(|i| match i % 4 {
            0 | 1 => {
                let cutoff = host.time_cutoff_for_selectivity(0.05 + 0.04 * (i % 6) as f64);
                format!(
                    "SELECT id FROM tweets WHERE tweet_time < {cutoff} \
                     ORDER BY retweet_count DESC LIMIT {}",
                    5 + (i % 12)
                )
            }
            2 => format!(
                "SELECT id FROM tweets ORDER BY retweet_count + 0.5 * likes_count DESC LIMIT {}",
                4 + (i % 8)
            ),
            _ => format!(
                "SELECT uid, COUNT(*) FROM tweets GROUP BY uid \
                 ORDER BY COUNT(*) DESC LIMIT {}",
                3 + (i % 5)
            ),
        })
        .collect()
}

/// Order keys of a result (retweet counts / group counts / rank bits):
/// the tie-insensitive equality used against the oracle.
fn signature(host: &TweetTable, sql: &str, ids: &[u32]) -> Vec<u64> {
    match parse_sql(sql).expect("workload sql").shape {
        Shape::GroupCount => {
            let mut counts = std::collections::HashMap::new();
            for &u in &host.uid {
                *counts.entry(u).or_insert(0u64) += 1;
            }
            ids.iter().map(|u| counts[u]).collect()
        }
        Shape::Ranked => ids
            .iter()
            .map(|&id| {
                let rank = host.retweet_count[id as usize] as f32
                    + 0.5 * host.likes_count[id as usize] as f32;
                rank.to_bits() as u64
            })
            .collect(),
        Shape::Top(_) | Shape::Bottom(_) => ids
            .iter()
            .map(|&id| host.retweet_count[id as usize] as u64)
            .collect(),
    }
}

fn main() {
    let out_path = gpu_topk::artifact_path("resilience_report.json");
    let n = 1 << 14;
    let host = TweetTable::generate(n, 99);
    let dev = Device::titan_x();
    let table = GpuTweetTable::upload(&dev, &host);
    let sqls = workload(&host, 48);
    let oracle: Vec<Vec<u32>> = sqls
        .iter()
        .map(|s| {
            execute_sql(&dev, &table, &parse_sql(s).unwrap(), Strategy::StageBitonic)
                .expect("fault-free oracle")
                .ids
        })
        .collect();

    // fault rate escalates left to right; the last column is chaos
    let steps: &[(&str, f64)] = &[
        ("clean", 0.0),
        ("mild", 0.02),
        ("rough", 0.10),
        ("hostile", 0.30),
        ("chaos", 0.70),
    ];
    println!(
        "serving {} queries over {} tweets per step (queue bound 32, deadline 50ms)\n",
        sqls.len(),
        n
    );
    println!(
        "{:<10}{:>6}{:>6}{:>9}{:>9}{:>11}{:>9}{:>9}{:>8}",
        "step", "rate", "shed", "retries", "serial", "cpu-heap", "timeout", "done", "faults"
    );

    let mut rows = Vec::new();
    let mut mismatches = 0usize;
    for (step, rate) in steps {
        dev.set_fault_plan(FaultPlan {
            seed: 0xFEED + rows.len() as u64,
            launch_failure_rate: *rate,
            corruption_rate: *rate * 0.5,
            stall_rate: *rate * 0.5,
            stall_delay: SimTime(150e-6),
            oom_rate: *rate * 0.25,
            max_faults: usize::MAX,
            ..FaultPlan::none()
        });
        let cfg = ServerConfig {
            max_queue: 32,
            default_deadline: Some(SimTime(50e-3)),
            ..ServerConfig::default()
        };
        let mut server = Server::new(&dev, &table, cfg);
        let mut admitted = Vec::new();
        for (i, sql) in sqls.iter().enumerate() {
            match server.submit(sql, SubmitOptions::default()) {
                Ok(t) => admitted.push((i, t)),
                Err(QdbError::Overloaded { .. }) => {}
                Err(e) => panic!("unexpected admission error: {e}"),
            }
        }
        let report = server.drain();
        dev.clear_fault_plan();

        for (i, t) in &admitted {
            let served = &report.queries[t.0];
            if served.completed()
                && signature(&host, &sqls[*i], &served.result.ids)
                    != signature(&host, &sqls[*i], &oracle[*i])
            {
                eprintln!("ORACLE MISMATCH at step {step}: {}", served.sql);
                mismatches += 1;
            }
        }
        let r = &report.resilience;
        println!(
            "{:<10}{:>6.2}{:>6}{:>9}{:>9}{:>11}{:>9}{:>9}{:>8}",
            step,
            rate,
            r.shed,
            r.retries,
            r.degraded_serial,
            r.degraded_cpu,
            r.timed_out,
            r.completed,
            r.faults_injected
        );
        if *rate == 0.0 && (r.retries + r.degraded_serial + r.degraded_cpu + r.timed_out) != 0 {
            eprintln!("clean step reported a dirty ledger: {}", r.render());
            mismatches += 1;
        }
        rows.push(format!(
            "{{\"step\":\"{}\",\"rate\":{},\"shed\":{},\"retries\":{},\"degraded_serial\":{},\
             \"degraded_cpu\":{},\"timed_out\":{},\"failed\":{},\"completed\":{},\
             \"faults_injected\":{}}}",
            step,
            rate,
            r.shed,
            r.retries,
            r.degraded_serial,
            r.degraded_cpu,
            r.timed_out,
            r.failed,
            r.completed,
            r.faults_injected
        ));
    }

    let json = format!("[\n  {}\n]\n", rows.join(",\n  "));
    std::fs::write(&out_path, json).expect("write resilience report");
    println!("\nwrote {}", out_path.display());
    println!(
        "(degraded queries still answer from the serial or CPU rung — same keys as the oracle)"
    );
    if mismatches > 0 {
        eprintln!("{mismatches} completed quer(ies) diverged from the oracle");
        std::process::exit(1);
    }
}
