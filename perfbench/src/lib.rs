#![forbid(unsafe_code)]
//! The repository benchmark: one command per workload that drives the
//! program through its public entry points, checks every answer against
//! a host reference, and reports end-to-end metrics in both clocks —
//! modeled device time (`sim_*`) and the simulator's own host wall time
//! (`host_*`). A traced run of the same command reports per-layer
//! numbers instead.
//!
//! Every run with a given `--seed` and `--seconds` executes the same
//! operations in the same order: `--seconds` fixes the operation count
//! through a per-workload rate calibrated on a 2-vCPU host, so `sim_*`
//! metrics, counts and memory depend only on the code and the seed.

pub mod calib;
pub mod oracle;
pub mod planned;
pub mod report;
pub mod rng;
pub mod serving;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;

use report::{Metrics, Outcome};
use simt::{KernelStats, LaunchWindow};
use stats::{hd_quantile, median, ratio};
use trace::Tracer;

/// The workloads, by their `--workload` names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Planned top-k reads over two device-resident columns.
    TopkPlanned,
    /// SQL serving with a result cache, appends and standing views.
    SqlDashboard,
    /// The same traffic over a replicated 4-device cluster that loses a
    /// device mid-run.
    ShardedFailover,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::TopkPlanned,
        Workload::SqlDashboard,
        Workload::ShardedFailover,
    ];

    /// The `--workload` name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::TopkPlanned => "topk_planned",
            Workload::SqlDashboard => "sql_dashboard",
            Workload::ShardedFailover => "sharded_failover",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// End-to-end metrics, printed by every untraced run of every workload.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("sim_read_p50_ms", "ms"),
    ("sim_read_p95_ms", "ms"),
    ("sim_reads_per_s", "1/s"),
    ("host_read_p50_ms", "ms"),
    ("host_reads_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run of every workload (0
/// where a workload does not exercise the layer).
pub const PER_LAYER: [(&str, &str); 72] = [
    ("simt.host_ns_per_sector", "ns"),
    ("simt.host_us_per_launch", "us"),
    ("simt.launches_per_read", "count"),
    ("simt.global_mb_per_read", "MB"),
    ("simt.sectors_per_access", "1"),
    ("simt.conflict_degree", "1"),
    ("simt.occupancy", "1"),
    ("simt.ingest_ms_per_write", "ms"),
    ("simt.link_mb_per_read", "MB"),
    ("simt.link_ms_per_read", "ms"),
    ("simt.retained_launches", "count"),
    ("simt.retained_transfers", "count"),
    ("simt.device_highwater_mb", "MiB"),
    ("topk-costmodel.plan_us_p50", "us"),
    ("topk-costmodel.pred_over_sim_p50", "1"),
    ("topk.bitonic.share", "1"),
    ("topk.bitonic.sim_ms_p50", "ms"),
    ("topk.bitonic.host_ms_p50", "ms"),
    ("topk.radix-select.share", "1"),
    ("topk.radix-select.sim_ms_p50", "ms"),
    ("topk.radix-select.host_ms_p50", "ms"),
    ("topk.delegate-select.share", "1"),
    ("topk.delegate-select.sim_ms_p50", "ms"),
    ("topk.delegate-select.host_ms_p50", "ms"),
    ("qdb.server.submit_us_p50", "us"),
    ("qdb.server.drain_host_ms_p50", "ms"),
    ("qdb.server.cache_hit_frac", "1"),
    ("qdb.server.cache_refresh_frac", "1"),
    ("qdb.server.cache_miss_frac", "1"),
    ("qdb.server.coalesced_frac", "1"),
    ("qdb.server.overlap_speedup", "1"),
    ("qdb.server.queue_wait_p50_ms", "ms"),
    ("qdb.server.exec_p50_ms", "ms"),
    ("qdb.stream.append_host_ms_p50", "ms"),
    ("qdb.stream.refresh_host_ms_p50", "ms"),
    ("qdb.stream.refresh_sim_ms_p50", "ms"),
    ("qdb.stream.refresh_mb_p50", "MB"),
    ("qdb.stream.delta_merge_frac", "1"),
    ("qdb.stream.rescan_frac", "1"),
    ("qdb.shard.submit_us_p50", "us"),
    ("qdb.shard.drain_host_ms_p50", "ms"),
    ("qdb.shard.rebuild_drain_host_ms", "ms"),
    ("qdb.shard.slowest_shard_ms_p50", "ms"),
    ("qdb.shard.shard_skew", "1"),
    ("qdb.shard.failovers", "count"),
    ("qdb.shard.rebuilds", "count"),
    ("qdb.shard.breaker_trips", "count"),
    ("qdb.shard.skipped_replicas", "count"),
    ("qdb.shard.append_link_ms_p50", "ms"),
    ("sim_write_p50_ms", "ms"),
    ("host_write_p50_ms", "ms"),
    ("fail_frac", "1"),
    ("reads", "count"),
    ("writes", "count"),
    ("host_read_p95_ms", "ms"),
    ("host_read_samples", "count"),
    ("raw.host_reads_per_s", "1/s"),
    ("raw.probe_ms_p50", "ms"),
    ("trace.host_read_p50_ms", "ms"),
    ("trace.host_reads_per_s", "1/s"),
    ("trace.timed_s", "s"),
    ("trace.untraced_timed_s", "s"),
    ("trace.overhead_frac", "1"),
    ("trace.self_ms.request", "ms"),
    ("trace.self_ms.recommend", "ms"),
    ("trace.self_ms.run", "ms"),
    ("trace.self_ms.round", "ms"),
    ("trace.self_ms.submit", "ms"),
    ("trace.self_ms.drain", "ms"),
    ("trace.self_ms.write", "ms"),
    ("trace.self_ms.append_batch", "ms"),
    ("trace.self_ms.refresh", "ms"),
];

/// One timed section of a pass: a read request (or a drain serving one
/// round of requests), or a write. Sections are recorded in time order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Section {
    /// Sections with equal keys repeat identical work (one (column, k)
    /// read in `topk_planned`); every other section has its own key.
    pub key: u64,
    /// True for an append plus its view refreshes.
    pub write: bool,
    /// The request id its spans carry.
    pub req: u64,
    /// Raw host wall time, ms.
    pub raw_ms: f64,
    /// The calibration probe taken just before it, ms.
    pub probe_ms: f64,
}

/// The host clock of a pass, rescaled (see [`calib`]).
#[derive(Debug, Clone, Default)]
pub struct HostTimes {
    /// Percentile samples per read request (or per drain), ms: each is
    /// the median of the sections with its key.
    pub reads: Vec<f64>,
    /// Percentile samples per write, ms, likewise.
    pub writes: Vec<f64>,
    /// The whole timed phase, s: the sum of every rescaled section.
    pub timed_s: f64,
}

/// Everything one pass (set-up, warm-up, timed phase) measured.
pub struct Pass {
    /// Rescaled set-up wall time of every set-up the pass made, in s.
    pub setup_s: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// What failed, for the log.
    pub errors: Vec<String>,
    /// Reads in the timed phase.
    pub reads: usize,
    /// Modeled latency of every timed read (cache hits included), ms.
    pub sim_read_ms: Vec<f64>,
    /// Summed modeled time of the reads or drains that served them, s.
    pub sim_read_total_s: f64,
    /// Modeled time per append until every view saw it, ms.
    pub sim_write_ms: Vec<f64>,
    /// Every timed section, in time order.
    pub sections: Vec<Section>,
    /// Peak resident memory when the timed phase ended, MiB.
    pub peak_rss_mib: f64,
    /// Per-layer metrics of this pass.
    pub layers: Metrics,
    /// Class shares, for the log.
    pub classes: Vec<String>,
    /// The pass's spans (empty when untraced).
    pub tracer: Tracer,
}

/// Host-time metrics: the names that read a host clock.
fn is_host_metric(name: &str) -> bool {
    name.contains("host") || name.contains("_us_")
}

impl Pass {
    /// An empty pass record around the measured set-up times.
    pub fn new(setup_s: Vec<f64>) -> Self {
        Pass {
            setup_s,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            reads: 0,
            sim_read_ms: Vec::new(),
            sim_read_total_s: 0.0,
            sim_write_ms: Vec::new(),
            sections: Vec::new(),
            peak_rss_mib: 0.0,
            layers: Metrics::default(),
            classes: Vec::new(),
            tracer: Tracer::new(false),
        }
    }

    /// Records one failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(what);
        }
    }

    /// Speed factor of every section (see [`calib::speed_factors`]).
    pub fn speed_factors(&self) -> Vec<f64> {
        let probes: Vec<f64> = self.sections.iter().map(|s| s.probe_ms).collect();
        calib::speed_factors(&probes)
    }

    /// Hands every section's speed factor to the tracer, so span
    /// durations read back rescaled.
    pub fn rescale_spans(&self, tr: &mut Tracer) {
        for (s, f) in self.sections.iter().zip(self.speed_factors()) {
            tr.set_scale(s.req, f);
        }
    }

    /// Raw host wall time of the timed phase, s.
    pub fn raw_timed_s(&self) -> f64 {
        self.sections.iter().map(|s| s.raw_ms).sum::<f64>() / 1e3
    }

    /// The rescaled host clock of this pass.
    pub fn host(&self) -> HostTimes {
        let raw: Vec<f64> = self.sections.iter().map(|s| s.raw_ms).collect();
        let probes: Vec<f64> = self.sections.iter().map(|s| s.probe_ms).collect();
        let scaled = calib::rescale(&raw, &probes);
        let mut by_key: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for (s, &ms) in self.sections.iter().zip(&scaled) {
            by_key.entry(s.key).or_default().push(ms);
        }
        let typical: BTreeMap<u64, f64> =
            by_key.into_iter().map(|(k, v)| (k, median(&v))).collect();
        let mut h = HostTimes {
            timed_s: scaled.iter().sum::<f64>() / 1e3,
            ..HostTimes::default()
        };
        for s in &self.sections {
            let ms = typical[&s.key];
            if s.write {
                h.writes.push(ms);
            } else {
                h.reads.push(ms);
            }
        }
        h
    }

    /// The end-to-end metrics of this pass, in [`END_TO_END`] order.
    pub fn end_to_end(&self) -> Metrics {
        let h = self.host();
        let mut m = Metrics::default();
        m.push("setup_s", median(&self.setup_s), "s");
        m.push("sim_read_p50_ms", hd_quantile(&self.sim_read_ms, 0.5), "ms");
        m.push(
            "sim_read_p95_ms",
            hd_quantile(&self.sim_read_ms, 0.95),
            "ms",
        );
        m.push(
            "sim_reads_per_s",
            ratio(self.reads as f64, self.sim_read_total_s),
            "1/s",
        );
        m.push("host_read_p50_ms", hd_quantile(&h.reads, 0.5), "ms");
        m.push(
            "host_reads_per_s",
            ratio(self.reads as f64, h.timed_s),
            "1/s",
        );
        m.push("peak_rss_mb", self.peak_rss_mib, "MiB");
        m
    }

    /// Metrics of this pass that are per-layer in `BENCHMARK.json`: the
    /// write latencies (only two workloads write), the failure share
    /// (0 at a correct commit), the host p95 with its sample count, and
    /// the raw (not rescaled) host clock.
    fn pass_layers(&self) -> Metrics {
        let h = self.host();
        let mut m = Metrics::default();
        m.push("sim_write_p50_ms", median(&self.sim_write_ms), "ms");
        m.push("host_write_p50_ms", median(&h.writes), "ms");
        m.push(
            "fail_frac",
            ratio(self.failed as f64, self.attempted as f64),
            "1",
        );
        m.push("reads", self.reads as f64, "count");
        m.push("writes", self.sim_write_ms.len() as f64, "count");
        m.push("host_read_p95_ms", hd_quantile(&h.reads, 0.95), "ms");
        m.push("host_read_samples", h.reads.len() as f64, "count");
        m.push(
            "raw.host_reads_per_s",
            ratio(self.reads as f64, self.raw_timed_s()),
            "1/s",
        );
        m.push(
            "raw.probe_ms_p50",
            median(&self.sections.iter().map(|s| s.probe_ms).collect::<Vec<_>>()),
            "ms",
        );
        m
    }

    /// What must repeat bit for bit when the same operations run again:
    /// every modeled time, every count, every non-host layer metric.
    pub fn fingerprint(&self) -> Vec<u64> {
        let mut f: Vec<u64> = self.sim_read_ms.iter().map(|x| x.to_bits()).collect();
        f.extend(self.sim_write_ms.iter().map(|x| x.to_bits()));
        f.push(self.sim_read_total_s.to_bits());
        f.push(self.reads as u64);
        f.push(self.sections.len() as u64);
        f.extend(
            self.layers
                .0
                .iter()
                .filter(|m| !is_host_metric(&m.name))
                .map(|m| m.value.to_bits()),
        );
        f
    }
}

/// Device-side counters of a timed phase, read from the program's public
/// launch logs, transfer log and memory ledger.
#[derive(Debug, Default)]
pub struct SimCounters {
    stats: KernelStats,
    launches: usize,
    occupancy_time_s: f64,
    time_s: f64,
    /// Host time of the spans that ran the launches counted here, ms.
    pub kernel_host_ms: f64,
    /// Modeled ingest time charged by appends, ms.
    pub ingest_ms: f64,
    /// Appends in the phase.
    pub writes: usize,
    /// Interconnect bytes moved while serving reads.
    pub link_bytes: f64,
    /// Interconnect link time spent serving reads, ms.
    pub link_ms: f64,
    /// Launch reports the devices still hold at the end.
    pub retained_launches: usize,
    /// Transfers the cluster still holds at the end.
    pub retained_transfers: usize,
    /// Device memory high-water mark summed over devices, bytes.
    pub device_highwater_bytes: usize,
}

impl SimCounters {
    /// Folds one launch window in.
    pub fn add_window(&mut self, w: &LaunchWindow) {
        self.stats.merge(&w.stats);
        self.launches += w.launches;
        self.occupancy_time_s += w.time_weighted_occupancy * w.time.seconds();
        self.time_s += w.time.seconds();
    }

    /// Pushes the `simt.*` layer metrics, normalised per read.
    pub fn emit(&self, l: &mut Metrics, reads: usize) {
        let reads = reads as f64;
        let s = &self.stats;
        l.push(
            "simt.host_ns_per_sector",
            ratio(self.kernel_host_ms * 1e6, s.global_sectors as f64),
            "ns",
        );
        l.push(
            "simt.host_us_per_launch",
            ratio(self.kernel_host_ms * 1e3, self.launches as f64),
            "us",
        );
        l.push(
            "simt.launches_per_read",
            ratio(self.launches as f64, reads),
            "count",
        );
        l.push(
            "simt.global_mb_per_read",
            ratio(s.global_bytes() as f64 / 1e6, reads),
            "MB",
        );
        l.push("simt.sectors_per_access", s.sectors_per_access(), "1");
        l.push("simt.conflict_degree", s.avg_conflict_degree(), "1");
        l.push(
            "simt.occupancy",
            ratio(self.occupancy_time_s, self.time_s),
            "1",
        );
        l.push(
            "simt.ingest_ms_per_write",
            ratio(self.ingest_ms, self.writes as f64),
            "ms",
        );
        l.push(
            "simt.link_mb_per_read",
            ratio(self.link_bytes / 1e6, reads),
            "MB",
        );
        l.push("simt.link_ms_per_read", ratio(self.link_ms, reads), "ms");
        l.push(
            "simt.retained_launches",
            self.retained_launches as f64,
            "count",
        );
        l.push(
            "simt.retained_transfers",
            self.retained_transfers as f64,
            "count",
        );
        l.push(
            "simt.device_highwater_mb",
            self.device_highwater_bytes as f64 / (1024.0 * 1024.0),
            "MiB",
        );
    }
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Run length; fixes the operation count.
    pub seconds: f64,
    /// Report per-layer metrics from a traced pass.
    pub trace: bool,
}

/// One workload pass at the benchmark's sizes, `seconds` long.
pub fn pass(w: Workload, seed: u64, seconds: f64, trace: bool) -> Pass {
    match w {
        Workload::TopkPlanned => planned::pass(seed, seconds, trace),
        Workload::SqlDashboard => serving::pass(false, seed, seconds, trace),
        Workload::ShardedFailover => serving::pass(true, seed, seconds, trace),
    }
}

/// Lays `m` out in the order of `names`, filling what a workload does
/// not measure with 0.
pub fn in_order(m: &Metrics, names: &[(&str, &'static str)]) -> Metrics {
    let mut out = Metrics::default();
    for &(name, unit) in names {
        out.push(name, m.get(name).unwrap_or(0.0), unit);
    }
    out
}

/// Everything a run prints: log lines, the span dump (traced runs) and
/// the result line.
pub struct RunOutput {
    /// Human-readable lines printed before the result.
    pub log: Vec<String>,
    /// The traced pass's spans as JSON.
    pub spans_json: Option<String>,
    /// The result.
    pub outcome: Outcome,
}

fn log_pass(log: &mut Vec<String>, label: &str, p: &Pass) {
    log.push(format!(
        "{label}: {} reads, {} writes, {} sections, timed {:.2} s rescaled ({:.2} s raw), classes: {}",
        p.reads,
        p.sim_write_ms.len(),
        p.sections.len(),
        p.host().timed_s,
        p.raw_timed_s(),
        p.classes.join(", ")
    ));
    for e in &p.errors {
        log.push(format!("{label}: FAILED {e}"));
    }
}

/// Runs one invocation: an untraced pass for the end-to-end metrics, or
/// an untraced and a traced pass over fresh state for the per-layer
/// metrics and the tracing overhead.
pub fn run(a: &Args) -> RunOutput {
    let mut log = Vec::new();
    if !a.trace {
        let p = pass(a.workload, a.seed, a.seconds, false);
        log_pass(&mut log, "untraced", &p);
        let e2e = p.end_to_end();
        let extra = p.pass_layers();
        for m in e2e.0.iter().chain(&extra.0) {
            log.push(format!("{} = {} {}", m.name, m.value, m.unit));
        }
        return RunOutput {
            log,
            spans_json: None,
            outcome: Outcome {
                correct: p.failed == 0,
                attempted: p.attempted,
                failed: p.failed,
                metrics: in_order(&e2e, &END_TO_END),
            },
        };
    }
    let plain = pass(a.workload, a.seed, a.seconds, false);
    let traced = pass(a.workload, a.seed, a.seconds, true);
    log_pass(&mut log, "untraced", &plain);
    log_pass(&mut log, "traced", &traced);
    let mut m = traced.layers.clone();
    m.0.extend(plain.pass_layers().0);
    let te = traced.end_to_end();
    m.push(
        "trace.host_read_p50_ms",
        te.get("host_read_p50_ms").unwrap_or(0.0),
        "ms",
    );
    m.push(
        "trace.host_reads_per_s",
        te.get("host_reads_per_s").unwrap_or(0.0),
        "1/s",
    );
    for (name, ms) in traced.tracer.mean_self_ms() {
        m.push(format!("trace.self_ms.{name}"), ms, "ms");
    }
    let (t, u) = (traced.host().timed_s, plain.host().timed_s);
    m.push("trace.timed_s", t, "s");
    m.push("trace.untraced_timed_s", u, "s");
    m.push("trace.overhead_frac", ratio(t, u) - 1.0, "1");
    let mut failed = plain.failed + traced.failed;
    if plain.fingerprint() != traced.fingerprint() {
        failed += 1;
        log.push("FAILED: tracing changed a modeled result or a count".to_string());
    }
    let metrics = in_order(&m, &PER_LAYER);
    for x in &metrics.0 {
        log.push(format!("{} = {} {}", x.name, x.value, x.unit));
    }
    RunOutput {
        log,
        spans_json: Some(traced.tracer.to_json()),
        outcome: Outcome {
            correct: failed == 0,
            attempted: plain.attempted + traced.attempted,
            failed,
            metrics,
        },
    }
}
