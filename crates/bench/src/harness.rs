//! The unified benchmark harness: drives the paper's top-k experiments,
//! the qdb serving, cluster and streaming workloads and the real-CPU
//! engine, collects per-run metrics from the simulator's counters plus
//! host wall-clock, and emits versioned [`BenchReport`]s
//! (`BENCH_<suite>.json`; the figures suite lives in [`crate::figures`]).
//!
//! The topk suite's three experiment families (the shapes behind Figures
//! 11a and 13 and the robustness ablation) and the serving sweep:
//!
//! * `vary_k/uniform/<alg>/k<k>` — every [`TopKAlgorithm`] across the
//!   paper's k sweep on uniform f32 keys;
//! * `vary_n/uniform/<alg>/log2n<x>` — scaling in n at k = 64;
//! * `dist/<distribution>/<alg>/k32` — the six-distribution robustness
//!   sweep (skew claims are machine-checked from these cells);
//! * `serve/load<q>` — the qdb serving layer under increasing offered
//!   load (queries/sec, speedup over serial, latency percentiles).
//!
//! Cells whose launch legitimately fails (per-thread top-k at k ≥ 512
//! exceeds shared memory, Section 6.2) are omitted from the report; the
//! diff gate treats a *disappearing* cell as a regression, so an
//! algorithm that starts failing where it used to run cannot slip by.

use std::time::{Duration, Instant};

use datagen::twitter::TweetTable;
use datagen::{
    BucketKiller, Clustered, Decreasing, Distribution, Increasing, Kv, Normal, TopKItem, Uniform,
};
use qdb::shard::{
    partition_indices, sharded_delegate_topk, sharded_topk, PartitionPolicy, ReplicationFactor,
    ShardedLoadReport, ShardedServer, ShardedTable,
};
use qdb::{
    execute_sql, parse_sql, GpuTweetTable, QdbError, Server, ServerConfig, Strategy, SubmitOptions,
};
use simt::topology::{Cluster, ClusterSpec};
use simt::{Device, FaultPlan, GpuBuffer, LaunchWindow, SimTime};
use topk::bitonic::{bitonic_topk, BitonicConfig};
use topk::delegate::{warm_delegate_index, DelegateConfig};
use topk::{TopKAlgorithm, TopKRequest};
use topk_costmodel::{cluster_topk_seconds, ClusterModelInput};

use crate::report::{BenchReport, Experiment, Scale};
use crate::K_SWEEP;

/// The scales one harness invocation runs at, resolved from
/// `TOPK_REPRO_LOG2N`.
#[derive(Debug, Clone)]
pub struct HarnessScales {
    /// Element-count exponent for the top-k, cluster and figures suites
    /// (default 22).
    pub topk_log2n: u32,
    /// Resident-table exponent for the serving suite (default 17,
    /// capped by the top-k scale when overridden).
    pub serve_log2n: u32,
    /// Element-count exponent for the real-CPU suite (default
    /// 20 — the scale the thread-scaling claim gates at — capped by the
    /// top-k scale when overridden).
    pub cpu_log2n: u32,
    /// Resident-table exponent for the streaming-ingest suite (default
    /// 20 — the scale the delta-maintenance traffic claim gates at —
    /// capped by the top-k scale when overridden).
    pub stream_log2n: u32,
    /// Profile name stamped into every report.
    pub profile: String,
}

impl HarnessScales {
    /// Resolves scales from the environment: unset means the full
    /// profile (top-k and figures at 2^22, serving at 2^17);
    /// `TOPK_REPRO_LOG2N=16` is the CI gate's small profile.
    pub fn from_env() -> Self {
        let topk_log2n = datagen::repro_log2n(22);
        HarnessScales {
            topk_log2n,
            serve_log2n: topk_log2n.min(17),
            cpu_log2n: topk_log2n.min(20),
            stream_log2n: topk_log2n.min(20),
            profile: Scale::profile_name(topk_log2n),
        }
    }
}

/// The distribution line-up of the robustness sweep, by stable name.
pub fn distributions() -> Vec<(&'static str, Box<dyn Distribution<f32>>)> {
    vec![
        ("uniform", Box::new(Uniform)),
        ("normal", Box::new(Normal)),
        ("increasing", Box::new(Increasing)),
        ("decreasing", Box::new(Decreasing)),
        ("bucket-killer", Box::new(BucketKiller)),
        ("clustered", Box::new(Clustered)),
    ]
}

/// Fixed k for the distribution sweep (matches the robustness ablation).
pub const DIST_SWEEP_K: usize = 32;

/// Fixed k for the vary-n sweep (matches Figure 13).
pub const VARY_N_K: usize = 64;

fn run_cell(
    dev: &Device,
    alg: &TopKAlgorithm,
    input: &GpuBuffer<f32>,
    k: usize,
) -> Option<Experiment> {
    dev.take_analysis(); // bound accumulation across the sweep
    let wall = Instant::now();
    let result = TopKRequest::largest(k)
        .with_alg(*alg)
        .run(dev, input)
        .ok()?;
    let host_wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    let w = LaunchWindow::from_reports(&result.reports);
    let mut metrics = vec![
        ("sim_time_ms", result.time.millis()),
        ("sim_global_bytes", w.stats.global_bytes() as f64),
        ("sim_sectors_per_access", w.stats.sectors_per_access()),
        ("sim_conflict_degree", w.stats.avg_conflict_degree()),
        ("sim_occupancy", w.time_weighted_occupancy),
        ("sim_launches", w.launches as f64),
        ("host_wall_ms", host_wall_ms),
    ];
    // the static analyzer's pre-launch predictions, present whenever
    // every launch in the window carried an access-spec contract; the
    // diff gate requires them to bit-match the measured metrics above
    if let Some(p) = &w.static_pred {
        metrics.push(("sim_static_sectors_per_access", p.sectors_per_access()));
        metrics.push(("sim_static_conflict_degree", p.avg_conflict_degree()));
    }
    Some(Experiment::new(String::new(), &metrics))
}

/// Runs the top-k suite at `2^log2n` elements and returns its report.
pub fn run_topk_suite(log2n: u32, profile: &str) -> BenchReport {
    let mut experiments = Vec::new();
    let algs = TopKAlgorithm::all();

    // vary-k on uniform f32 (the Figure 11a shape)
    {
        let dev = Device::titan_x();
        dev.enable_lint();
        let data: Vec<f32> = Uniform.generate(1 << log2n, 11);
        let input = dev.upload(&data);
        // delegate cells measure warm queries: the index builds once per
        // buffer (the extraction launch lands outside every cell window)
        warm_delegate_index(&dev, &input, DelegateConfig::default()).expect("delegate index");
        for alg in &algs {
            for k in K_SWEEP {
                if let Some(mut e) = run_cell(&dev, alg, &input, k) {
                    e.id = format!("vary_k/uniform/{}/k{k}", alg.name());
                    experiments.push(e);
                }
            }
        }
    }

    // vary-n at k = 64 (the Figure 13 shape)
    {
        let start = log2n.min(14);
        for x in (start..=log2n).step_by(2) {
            let dev = Device::titan_x();
            dev.enable_lint();
            let data: Vec<f32> = Uniform.generate(1 << x, 13);
            let input = dev.upload(&data);
            warm_delegate_index(&dev, &input, DelegateConfig::default()).expect("delegate index");
            for alg in &algs {
                if let Some(mut e) = run_cell(&dev, alg, &input, VARY_N_K) {
                    e.id = format!("vary_n/uniform/{}/log2n{x}", alg.name());
                    experiments.push(e);
                }
            }
        }
    }

    // distribution robustness at k = 32 (the skew-claim cells)
    for (name, dist) in distributions() {
        let dev = Device::titan_x();
        dev.enable_lint();
        let data: Vec<f32> = dist.generate(1 << log2n, 40);
        let input = dev.upload(&data);
        warm_delegate_index(&dev, &input, DelegateConfig::default()).expect("delegate index");
        for alg in &algs {
            if let Some(mut e) = run_cell(&dev, alg, &input, DIST_SWEEP_K) {
                e.id = format!("dist/{name}/{}/k{}", alg.name(), DIST_SWEEP_K);
                experiments.push(e);
            }
        }
    }

    BenchReport::new("topk", log2n, profile, experiments)
}

/// Device counts the cluster suite sweeps.
pub const CLUSTER_DEVICES: [usize; 4] = [1, 2, 4, 8];

/// Fixed k for the cluster sweep (matches the scaling claim).
pub const CLUSTER_K: usize = 64;

/// Replication factors the availability sweep serves at.
pub const AVAIL_REPLICATION: [usize; 3] = [1, 2, 3];

/// Devices in the availability sweep's cluster.
pub const AVAIL_DEVICES: usize = 4;

/// Queries per batch in the availability sweep (>= the breaker
/// threshold, so a loss trips the lost device's breaker).
pub const AVAIL_QUERIES: usize = 5;

/// Availability workload: the sharded-servable query shapes.
fn avail_sql(host: &TweetTable, i: usize) -> String {
    match i % 3 {
        0 => {
            let cutoff = host.time_cutoff_for_selectivity(0.1 + 0.05 * (i % 4) as f64);
            format!(
                "SELECT id FROM tweets WHERE tweet_time < {cutoff} \
                 ORDER BY retweet_count DESC LIMIT {}",
                6 + i
            )
        }
        1 => format!(
            "SELECT id FROM tweets ORDER BY retweet_count + 0.5 * likes_count DESC LIMIT {}",
            4 + i
        ),
        _ => format!(
            "SELECT id FROM tweets ORDER BY retweet_count ASC LIMIT {}",
            3 + i
        ),
    }
}

/// Runs the multi-device sharded top-k suite: device count × partition
/// policy over uniform keyed items, with the single-device bitonic
/// result as the exactness oracle (`sim_exact`) and the
/// `topk-costmodel` cluster estimate alongside for Figure 17-style
/// model-vs-measurement comparison.
pub fn run_cluster_suite(log2n: u32, profile: &str) -> BenchReport {
    let n = 1usize << log2n;
    let items: Vec<Kv<f32>> = Uniform
        .generate(n, 23)
        .into_iter()
        .enumerate()
        .map(|(i, k)| Kv::new(k, i as u32))
        .collect();

    // single-device oracle for the exactness column
    let oracle = {
        let dev = Device::titan_x();
        let input = dev.upload(&items);
        bitonic_topk(&dev, &input, CLUSTER_K, BitonicConfig::default())
            .expect("oracle top-k")
            .items
    };

    let mut experiments = Vec::new();
    for policy in PartitionPolicy::all() {
        for devices in CLUSTER_DEVICES {
            let wall = Instant::now();
            let cluster = Cluster::new(ClusterSpec::pcie_node(devices));
            let parts: Vec<Vec<Kv<f32>>> = partition_indices(n, devices, policy)
                .into_iter()
                .map(|rows| rows.into_iter().map(|r| items[r]).collect())
                .collect();
            let shard_rows: Vec<usize> = parts.iter().map(Vec::len).collect();
            let r = sharded_topk(&cluster, &parts, CLUSTER_K, BitonicConfig::default(), 0)
                .expect("sharded top-k");
            let host_wall_ms = wall.elapsed().as_secs_f64() * 1e3;
            let est = cluster_topk_seconds(
                cluster.spec(),
                &ClusterModelInput {
                    shard_rows,
                    k: CLUSTER_K,
                    item_bytes: Kv::<f32>::SIZE_BYTES,
                },
            );
            let max_local = r.local.iter().map(|t| t.seconds()).fold(0.0, f64::max);
            let metrics = [
                ("sim_time_ms", r.sim_time.millis()),
                ("sim_local_ms", max_local * 1e3),
                ("sim_transfer_done_ms", r.transfer_done.millis()),
                ("sim_merge_ms", r.merge_time.millis()),
                ("sim_candidate_bytes", r.candidate_bytes as f64),
                ("sim_exact", f64::from(r.items == oracle)),
                ("sim_model_ms", est.total_seconds() * 1e3),
                ("host_wall_ms", host_wall_ms),
            ];
            experiments.push(Experiment::new(
                format!("cluster/{}/dev{devices}", policy.name()),
                &metrics,
            ));
        }
    }

    // delegates of delegates: shards run delegate select locally and
    // ship their winners (one cell — round-robin across the largest
    // device count — exercising the two-level decomposition)
    {
        let devices = *CLUSTER_DEVICES.last().expect("non-empty sweep");
        let policy = PartitionPolicy::RoundRobin;
        let wall = Instant::now();
        let cluster = Cluster::new(ClusterSpec::pcie_node(devices));
        let parts: Vec<Vec<Kv<f32>>> = partition_indices(n, devices, policy)
            .into_iter()
            .map(|rows| rows.into_iter().map(|r| items[r]).collect())
            .collect();
        let r = sharded_delegate_topk(&cluster, &parts, CLUSTER_K, DelegateConfig::default(), 0)
            .expect("sharded delegate top-k");
        let host_wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        let max_local = r.local.iter().map(|t| t.seconds()).fold(0.0, f64::max);
        let metrics = [
            ("sim_time_ms", r.sim_time.millis()),
            ("sim_local_ms", max_local * 1e3),
            ("sim_transfer_done_ms", r.transfer_done.millis()),
            ("sim_merge_ms", r.merge_time.millis()),
            ("sim_candidate_bytes", r.candidate_bytes as f64),
            ("sim_exact", f64::from(r.items == oracle)),
            ("host_wall_ms", host_wall_ms),
        ];
        experiments.push(Experiment::new(
            format!("cluster/delegate-{}/dev{devices}", policy.name()),
            &metrics,
        ));
    }

    // availability under permanent device loss: a replicated sharded
    // server at r ∈ {1,2,3} serves three batches — healthy, one device
    // lost with the batch already admitted, and post-rebuild recovery.
    // `sim_exact` encodes the availability claim: completed queries are
    // bit-exact at every r; r >= 2 completes every query through the
    // loss; r = 1 fails loudly with typed device faults, never a
    // truncated result.
    {
        let avail_log2n = log2n.min(16);
        let host_table = TweetTable::generate(1usize << avail_log2n, 2018);
        let dev = Device::titan_x();
        let gpu = GpuTweetTable::upload(&dev, &host_table);
        let sqls: Vec<String> = (0..AVAIL_QUERIES)
            .map(|i| avail_sql(&host_table, i))
            .collect();
        let oracle: Vec<Vec<u32>> = sqls
            .iter()
            .map(|s| {
                execute_sql(&dev, &gpu, &parse_sql(s).unwrap(), Strategy::StageBitonic)
                    .expect("fault-free oracle")
                    .ids
            })
            .collect();
        let exact = |rep: &ShardedLoadReport| {
            rep.queries
                .iter()
                .enumerate()
                .all(|(i, sq)| !sq.completed() || sq.ids == oracle[i])
        };
        for r_factor in AVAIL_REPLICATION {
            let wall = Instant::now();
            let cluster = Cluster::new(ClusterSpec::pcie_node(AVAIL_DEVICES));
            let table = ShardedTable::partition_replicated(
                &cluster,
                &host_table,
                PartitionPolicy::Hash,
                ReplicationFactor(r_factor),
            )
            .expect("replicated partition");
            let mut server = ShardedServer::new(&cluster, &table, ServerConfig::default());
            // batch A: the healthy baseline
            for s in &sqls {
                server.submit(s).expect("healthy admission");
            }
            let a = server.drain();
            // batch B admitted, then device 1 dies permanently under it
            for s in &sqls {
                server.submit(s).expect("admission before loss");
            }
            cluster
                .device(1)
                .set_fault_plan(FaultPlan::down_at(SimTime::ZERO));
            let b = server.drain();
            // batch C: service after online rebuild
            for s in &sqls {
                server.submit(s).expect("post-rebuild admission");
            }
            let c = server.drain();
            let host_wall_ms = wall.elapsed().as_secs_f64() * 1e3;

            let loud = b.queries.iter().all(|sq| match &sq.error {
                None => true,
                Some(QdbError::DeviceFault { transient, .. }) => !transient && sq.ids.is_empty(),
                Some(_) => false,
            });
            let full = sqls.len();
            let compliant = exact(&a)
                && exact(&b)
                && exact(&c)
                && a.resilience.completed == full
                && c.resilience.completed == full
                && loud
                && (r_factor < 2 || b.resilience.completed == full);
            let completed =
                a.resilience.completed + b.resilience.completed + c.resilience.completed;
            let metrics = [
                ("sim_exact", f64::from(compliant)),
                ("sim_completed_frac", completed as f64 / (3 * full) as f64),
                ("sim_failovers", b.resilience.failovers as f64),
                ("sim_rebuilds", b.resilience.rebuilds as f64),
                ("sim_breaker_trips", b.resilience.breaker_trips as f64),
                ("sim_loss_makespan_ms", b.makespan.millis()),
                ("host_wall_ms", host_wall_ms),
            ];
            experiments.push(Experiment::new(
                format!("cluster/avail/r{r_factor}"),
                &metrics,
            ));
        }
    }

    BenchReport::new("cluster", log2n, profile, experiments)
}

/// The worker-thread sweep of the CPU suite.
pub const CPU_THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Fixed k for the CPU suite.
pub const CPU_SUITE_K: usize = 64;

/// Repetitions per CPU cell, interleaved over the thread sweep; the
/// fastest is reported (wall-clock cells gate on the *worse* direction
/// only, so best-of-N just trims scheduler noise).
pub const CPU_SUITE_REPS: usize = 3;

/// Runs the real-CPU suite through [`TopKRequest::run_cpu`]: every
/// algorithm across the thread sweep on `2^log2n` uniform f32 keys.
/// Cells are `cpu/<alg>/t<threads>` and carry only `host_*` metrics —
/// there is nothing modeled here, `host_wall_ms` is the wall-clock of
/// the fastest `run_cpu` call. The scaling claim (multi-thread beats
/// single-thread, checked by `bench-diff`) reads the `t1` cell against
/// the rest of the sweep.
pub fn run_cpu_suite(log2n: u32, profile: &str) -> BenchReport {
    let n = 1usize << log2n;
    let data: Vec<f32> = Uniform.generate(n, 31);

    let mut experiments = Vec::new();
    for alg in TopKAlgorithm::all() {
        let req = TopKRequest::largest(CPU_SUITE_K).with_alg(alg);
        // each rep runs the whole sweep in turn, so a burst of load on
        // the host lands on every thread count, not on one cell's reps
        let mut best = CPU_THREAD_SWEEP.map(|_| Duration::MAX);
        for _ in 0..CPU_SUITE_REPS {
            for (threads, best) in CPU_THREAD_SWEEP.into_iter().zip(&mut best) {
                let start = Instant::now();
                let items = req.run_cpu(&data, threads).expect("cpu top-k");
                *best = (*best).min(start.elapsed());
                assert_eq!(items.len(), CPU_SUITE_K.min(n));
            }
        }
        for (threads, best) in CPU_THREAD_SWEEP.into_iter().zip(best) {
            experiments.push(Experiment {
                id: format!("cpu/{}/t{threads}", alg.name()),
                metrics: [
                    ("host_wall_ms".to_string(), best.as_secs_f64() * 1e3),
                    ("host_threads".to_string(), threads as f64),
                ]
                .into(),
            });
        }
    }

    BenchReport::new("cpu", log2n, profile, experiments)
}

/// The offered-load sweep of the serving suite.
pub const SERVE_LOADS: [usize; 4] = [1, 4, 16, 64];

/// Runs the qdb serving suite over a `2^log2n`-row resident table.
pub fn run_serve_suite(log2n: u32, profile: &str) -> BenchReport {
    let n = 1usize << log2n;
    let host = TweetTable::generate(n, 2018);
    let dev = Device::titan_x();
    let table = GpuTweetTable::upload(&dev, &host);

    // the serving workload: Q1 shape, selectivity 5–15%, k in 8..64
    let sql_for = |i: usize| {
        let sel = 0.05 + 0.1 * (i % 16) as f64 / 16.0;
        let cutoff = host.time_cutoff_for_selectivity(sel);
        let k = 8 << (i % 4);
        format!(
            "SELECT id FROM tweets WHERE tweet_time < {cutoff} ORDER BY retweet_count DESC LIMIT {k}"
        )
    };

    let mut experiments = Vec::new();
    for load in SERVE_LOADS {
        let mut server = Server::new(&dev, &table, ServerConfig::default());
        for i in 0..load {
            server
                .submit(&sql_for(i), SubmitOptions::default())
                .expect("workload sql");
        }
        let report = server.drain();
        let metrics = [
            ("sim_qps", report.queries_per_sec),
            ("sim_speedup", report.speedup()),
            ("sim_makespan_ms", report.makespan.millis()),
            ("sim_p50_ms", report.p50.millis()),
            ("sim_p95_ms", report.p95.millis()),
            ("sim_p99_ms", report.p99.millis()),
            ("host_wall_ms", report.host_wall.as_secs_f64() * 1e3),
            ("host_qps", report.host_queries_per_sec()),
        ];
        experiments.push(Experiment::new(format!("serve/load{load}"), &metrics));
    }

    BenchReport::new("serve", log2n, profile, experiments)
}

/// Delta denominators the streaming view suite sweeps: each cell appends
/// `n / denom` rows and refreshes a standing view over them.
pub const STREAM_FRACS: [usize; 4] = [256, 64, 16, 4];

/// Fixed k for the streaming view suite.
pub const STREAM_K: usize = 32;

/// Distinct queries per batch in the read/write serving mix.
pub const STREAM_MIX_PERIODS: [usize; 2] = [2, 8];

/// Append/query rounds per read/write-mix cell.
pub const STREAM_MIX_ROUNDS: usize = 5;

/// Runs the streaming-ingest suite over a `2^log2n`-row resident table.
///
/// Two cell families:
///
/// * `stream/view/frac{d}` — a standing [`qdb::TopKView`] absorbs an
///   appended delta of `n/d` rows. The cell records the maintenance
///   refresh's traffic (`sim_global_bytes`) next to a from-scratch
///   rescan of the grown table (`sim_rescan_bytes`) — the pair behind
///   the delta-maintenance traffic claim — plus `sim_exact`: the
///   maintained result must be bit-identical to the rescan.
/// * `stream/mix/period{p}` — the serving layer under a read/write mix
///   with the epoch-tagged result cache on: each round submits `p`
///   distinct queries, re-submits them (all must come back as cache
///   hits), then appends a batch (making every entry stale, which the
///   next round's first drain brings current with the delta step).
///   Every completed read, cached or computed, must match a same-epoch
///   serial execution bit for bit. The cell records the global bytes of
///   the drains that refresh stale entries (`sim_refresh_bytes`) next
///   to the same queries' serial executions at that epoch
///   (`sim_rescan_bytes`).
pub fn run_stream_suite(log2n: u32, profile: &str) -> BenchReport {
    use qdb::{TopKView, ViewConfig, ViewMode};

    let n = 1usize << log2n;
    let sql = format!("SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT {STREAM_K}");
    let mut experiments = Vec::new();

    for denom in STREAM_FRACS {
        let delta = (n / denom).max(1);
        let wall = Instant::now();
        let dev = Device::titan_x();
        let host = TweetTable::generate(n, 7);
        let gpu = GpuTweetTable::upload_with_capacity(&dev, &host, n + delta);
        let view = TopKView::register(&sql, Strategy::StageBitonic, ViewConfig::default())
            .expect("supported view shape");
        view.refresh(&dev, &gpu).expect("initial build");

        let batch = TweetTable::generate_at(delta, 77, n as u32);
        gpu.append_batch(&dev, &batch).expect("headroom");
        let log0 = dev.log_len();
        let r = view.refresh(&dev, &gpu).expect("maintenance refresh");
        assert_eq!(r.mode, ViewMode::DeltaMerge, "fraction below the crossover");
        let w = dev.window_since(log0);

        // the from-scratch baseline at the same (grown) table size
        let log1 = dev.log_len();
        let rescan = execute_sql(
            &dev,
            &gpu,
            &parse_sql(&sql).expect("view sql"),
            Strategy::StageBitonic,
        )
        .expect("rescan oracle");
        let rw = dev.window_since(log1);
        let host_wall_ms = wall.elapsed().as_secs_f64() * 1e3;

        let metrics = [
            ("sim_time_ms", r.kernel_time.millis()),
            ("sim_global_bytes", w.stats.global_bytes() as f64),
            ("sim_launches", w.launches as f64),
            ("sim_rescan_ms", rescan.kernel_time.millis()),
            ("sim_rescan_bytes", rw.stats.global_bytes() as f64),
            ("sim_exact", f64::from(r.ids == rescan.ids)),
            ("host_wall_ms", host_wall_ms),
        ];
        experiments.push(Experiment::new(
            format!("stream/view/frac{denom}"),
            &metrics,
        ));
    }

    for period in STREAM_MIX_PERIODS {
        let delta = (n / 64).max(1);
        let wall = Instant::now();
        let dev = Device::titan_x();
        let host = TweetTable::generate(n, 2018);
        let gpu = GpuTweetTable::upload_with_capacity(&dev, &host, n + STREAM_MIX_ROUNDS * delta);
        // coalescing off so every read is comparable to a serial
        // execution by ids, not just by key sequence
        let mut server = Server::new(
            &dev,
            &gpu,
            ServerConfig {
                result_cache: true,
                coalesce: false,
                ..ServerConfig::default()
            },
        );
        let sqls: Vec<String> = (0..period).map(|i| avail_sql(&host, i)).collect();

        let mut exact = true;
        let mut makespan = SimTime::ZERO;
        let mut cache_hits = 0usize;
        let mut cache_refreshes = 0usize;
        let mut completed = 0usize;
        let mut refresh_bytes = 0u64;
        let mut rescan_bytes = 0u64;
        let mut next_id = n as u32;
        for round in 0..STREAM_MIX_ROUNDS {
            // two drains at the same epoch: the first computes (or
            // refreshes stale entries), the second must hit for every
            // query
            for pass in 0..2 {
                for s in &sqls {
                    server.submit(s, SubmitOptions::default()).expect("submit");
                }
                let log0 = dev.log_len();
                let rep = server.drain();
                let refreshing = rep.resilience.cache_refreshes > 0;
                if refreshing {
                    refresh_bytes += dev.window_since(log0).stats.global_bytes();
                }
                makespan += rep.makespan;
                cache_hits += rep.resilience.cache_hits;
                cache_refreshes += rep.resilience.cache_refreshes;
                completed += rep.resilience.completed;
                if pass == 1 && rep.resilience.cache_hits != sqls.len() {
                    exact = false;
                }
                for q in &rep.queries {
                    let log1 = dev.log_len();
                    let oracle = execute_sql(
                        &dev,
                        &gpu,
                        &parse_sql(&q.sql).expect("mix sql"),
                        Strategy::StageBitonic,
                    )
                    .expect("mix oracle");
                    if refreshing {
                        rescan_bytes += dev.window_since(log1).stats.global_bytes();
                    }
                    if q.result.ids != oracle.ids {
                        exact = false;
                    }
                }
            }
            let batch = TweetTable::generate_at(delta, 3000 + round as u64, next_id);
            gpu.append_batch(&dev, &batch).expect("headroom");
            next_id += delta as u32;
        }
        let host_wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        let total_queries = 2 * period * STREAM_MIX_ROUNDS;
        let metrics = [
            ("sim_exact", f64::from(exact && completed == total_queries)),
            ("sim_qps", total_queries as f64 / makespan.seconds()),
            ("sim_makespan_ms", makespan.millis()),
            ("sim_cache_hits", cache_hits as f64),
            ("sim_cache_refreshes", cache_refreshes as f64),
            ("sim_refresh_bytes", refresh_bytes as f64),
            ("sim_rescan_bytes", rescan_bytes as f64),
            ("host_wall_ms", host_wall_ms),
        ];
        experiments.push(Experiment::new(
            format!("stream/mix/period{period}"),
            &metrics,
        ));
    }

    BenchReport::new("stream", log2n, profile, experiments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::BenchReport as Parsed;

    #[test]
    fn topk_suite_produces_a_schema_valid_deterministic_report() {
        let r = run_topk_suite(10, "test");
        // bitonic and sort must cover the whole k sweep
        for k in K_SWEEP {
            assert!(r
                .experiment(&format!("vary_k/uniform/bitonic/k{k}"))
                .is_some());
            assert!(r.experiment(&format!("vary_k/uniform/sort/k{k}")).is_some());
        }
        // skew cells present for the claim checks
        assert!(r.experiment("dist/increasing/per-thread/k32").is_some());
        assert!(r.experiment("dist/uniform/per-thread/k32").is_some());
        // serializes to a document that re-validates
        let parsed = Parsed::from_json(&r.render()).expect("schema-valid");
        assert_eq!(parsed.experiments.len(), r.experiments.len());

        // deterministic sim metrics: a second run reproduces exact bits
        let r2 = run_topk_suite(10, "test");
        for (a, b) in r.experiments.iter().zip(&r2.experiments) {
            assert_eq!(a.id, b.id);
            for (name, v) in &a.metrics {
                if name.starts_with("sim_") {
                    assert_eq!(
                        v.to_bits(),
                        b.metrics[name].to_bits(),
                        "{}/{name} must be deterministic",
                        a.id
                    );
                }
            }
        }
    }

    #[test]
    fn cluster_suite_is_exact_deterministic_and_schema_valid() {
        let r = run_cluster_suite(12, "test");
        assert_eq!(r.kind, "cluster");
        // policy × device sweep, the delegates-of-delegates cell, and
        // the availability sweep
        assert_eq!(
            r.experiments.len(),
            PartitionPolicy::all().len() * CLUSTER_DEVICES.len() + 1 + AVAIL_REPLICATION.len()
        );
        // availability: r >= 2 rides through the loss at full
        // completion; r = 1 is loud but compliant (typed, untruncated)
        for r_factor in AVAIL_REPLICATION {
            let id = format!("cluster/avail/r{r_factor}");
            let e = r.experiment(&id).expect("availability cell");
            assert_eq!(e.metrics["sim_exact"], 1.0, "{id} claim compliance");
            assert!(e.metrics["sim_rebuilds"] > 0.0, "{id}");
            if r_factor >= 2 {
                assert_eq!(e.metrics["sim_completed_frac"], 1.0, "{id}");
                assert!(e.metrics["sim_failovers"] > 0.0, "{id}");
            } else {
                assert!(e.metrics["sim_completed_frac"] < 1.0, "{id}");
            }
        }
        let dd = r
            .experiment("cluster/delegate-round-robin/dev8")
            .expect("delegates-of-delegates cell");
        assert_eq!(dd.metrics["sim_exact"], 1.0);
        assert!(dd.metrics["sim_candidate_bytes"] > 0.0);
        for policy in PartitionPolicy::all() {
            for devices in CLUSTER_DEVICES {
                let id = format!("cluster/{}/dev{devices}", policy.name());
                let e = r.experiment(&id).expect("cell");
                assert_eq!(e.metrics["sim_exact"], 1.0, "{id} must be oracle-exact");
                assert!(e.metrics["sim_time_ms"] > 0.0);
                assert!(e.metrics["sim_model_ms"] > 0.0);
                if devices > 1 {
                    assert!(e.metrics["sim_candidate_bytes"] > 0.0, "{id}");
                }
            }
        }
        Parsed::from_json(&r.render()).expect("schema-valid");

        // deterministic across runs, bit for bit
        let r2 = run_cluster_suite(12, "test");
        for (a, b) in r.experiments.iter().zip(&r2.experiments) {
            assert_eq!(a.id, b.id);
            for (name, v) in &a.metrics {
                if name.starts_with("sim_") {
                    assert_eq!(v.to_bits(), b.metrics[name].to_bits(), "{}/{name}", a.id);
                }
            }
        }
    }

    #[test]
    fn cpu_suite_produces_a_host_only_schema_valid_report() {
        let r = run_cpu_suite(12, "test");
        assert_eq!(r.kind, "cpu");
        assert_eq!(
            r.experiments.len(),
            TopKAlgorithm::all().len() * CPU_THREAD_SWEEP.len()
        );
        for e in &r.experiments {
            // nothing modeled here: every metric is wall-clock
            assert!(
                e.metrics.keys().all(|m| m.starts_with("host_")),
                "{}: {:?}",
                e.id,
                e.metrics.keys()
            );
            assert!(e.metrics["host_wall_ms"] > 0.0, "{}", e.id);
            assert!(e.metrics["host_threads"] >= 1.0, "{}", e.id);
        }
        for threads in CPU_THREAD_SWEEP {
            assert!(r.experiment(&format!("cpu/bitonic/t{threads}")).is_some());
        }
        Parsed::from_json(&r.render()).expect("schema-valid");
    }

    #[test]
    fn stream_suite_is_exact_deterministic_and_schema_valid() {
        let r = run_stream_suite(12, "test");
        assert_eq!(r.kind, "stream");
        assert_eq!(
            r.experiments.len(),
            STREAM_FRACS.len() + STREAM_MIX_PERIODS.len()
        );
        for denom in STREAM_FRACS {
            let id = format!("stream/view/frac{denom}");
            let e = r.experiment(&id).expect("view cell");
            assert_eq!(e.metrics["sim_exact"], 1.0, "{id} must match the rescan");
            assert!(
                e.metrics["sim_global_bytes"] < e.metrics["sim_rescan_bytes"],
                "{id}: delta maintenance must move less than a rescan"
            );
        }
        // smaller deltas cost less maintenance traffic
        let bytes_at = |d: usize| {
            r.metric(&format!("stream/view/frac{d}"), "sim_global_bytes")
                .unwrap()
        };
        assert!(bytes_at(256) < bytes_at(64));
        assert!(bytes_at(64) < bytes_at(4));
        for period in STREAM_MIX_PERIODS {
            let id = format!("stream/mix/period{period}");
            let e = r.experiment(&id).expect("mix cell");
            assert_eq!(e.metrics["sim_exact"], 1.0, "{id}");
            // every re-submitted round hits: period queries per round
            assert_eq!(
                e.metrics["sim_cache_hits"],
                (period * STREAM_MIX_ROUNDS) as f64,
                "{id}"
            );
            // appends invalidate: rounds after the first must refresh
            assert_eq!(
                e.metrics["sim_cache_refreshes"],
                (period * (STREAM_MIX_ROUNDS - 1)) as f64,
                "{id}"
            );
            // the refreshes fold in deltas instead of re-executing
            assert!(
                e.metrics["sim_refresh_bytes"] < e.metrics["sim_rescan_bytes"],
                "{id}: delta-merged refreshes must move less than a rescan"
            );
            assert!(e.metrics["sim_qps"] > 0.0);
        }
        Parsed::from_json(&r.render()).expect("schema-valid");

        // deterministic across runs, bit for bit
        let r2 = run_stream_suite(12, "test");
        for (a, b) in r.experiments.iter().zip(&r2.experiments) {
            assert_eq!(a.id, b.id);
            for (name, v) in &a.metrics {
                if name.starts_with("sim_") {
                    assert_eq!(v.to_bits(), b.metrics[name].to_bits(), "{}/{name}", a.id);
                }
            }
        }
    }

    #[test]
    fn serve_suite_produces_a_schema_valid_report() {
        let r = run_serve_suite(10, "test");
        assert_eq!(r.kind, "serve");
        for load in SERVE_LOADS {
            let e = r.experiment(&format!("serve/load{load}")).expect("cell");
            assert!(e.metrics["sim_qps"] > 0.0);
            assert!(e.metrics["host_wall_ms"] > 0.0);
        }
        Parsed::from_json(&r.render()).expect("schema-valid");
    }
}
