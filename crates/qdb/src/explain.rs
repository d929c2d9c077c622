//! EXPLAIN: cost-based strategy selection for the Figure 16 queries.
//!
//! The paper motivates its cost models with query planning; this module
//! closes that loop inside the engine. At upload time the table gathers
//! light column statistics; `explain_*` estimates the predicate
//! selectivity, prices each execution strategy with the Section 7 models
//! (plus simple scan formulas for the filter/projection stages), and
//! returns a plan naming the winner — which [`crate::queries`] can then
//! execute.

use simt::topology::ClusterSpec;
use simt::DeviceSpec;
use topk_costmodel::{
    bitonic_conflict_degree, bitonic_topk_seconds, cluster_topk_seconds, delegate_select_phases,
    sort_seconds, BitonicModelInput, ClusterModelInput, DelegatePhases, ReductionProfile,
};

use crate::engine::FilterOp;
use crate::queries::Strategy;
use crate::shard::{PartitionPolicy, ShardedTable};
use crate::table::GpuTweetTable;

/// Light per-table statistics for selectivity estimation, computed once
/// at upload (the standard catalog-statistics pattern).
#[derive(Debug, Clone)]
pub struct TableStats {
    /// Minimum of `tweet_time`.
    pub time_min: u32,
    /// Maximum of `tweet_time`.
    pub time_max: u32,
    /// Relative frequency of each language code (sampled).
    pub lang_freq: [f64; 8],
}

impl TableStats {
    /// Gathers statistics from a device table (full pass on `tweet_time`
    /// bounds, sampled language histogram — cheap and good enough for
    /// planning).
    pub fn gather(table: &GpuTweetTable) -> Self {
        // read only the logical prefix: columns allocated with append
        // headroom hold default-initialized slack that would skew the
        // statistics (time_min pinned to 0, lang 0 overcounted)
        let times = table.tweet_time.read_range(0..table.len());
        let time_min = times.iter().copied().min().unwrap_or(0);
        let time_max = times.iter().copied().max().unwrap_or(0);
        let langs = table.lang.read_range(0..table.len());
        let sample = 4096.min(langs.len()).max(1);
        let stride = (langs.len() / sample).max(1);
        let mut counts = [0usize; 8];
        let mut seen = 0usize;
        for i in (0..langs.len()).step_by(stride) {
            counts[(langs[i] as usize).min(7)] += 1;
            seen += 1;
        }
        let mut lang_freq = [0.0; 8];
        for (f, c) in lang_freq.iter_mut().zip(counts) {
            *f = c as f64 / seen.max(1) as f64;
        }
        Self {
            time_min,
            time_max,
            lang_freq,
        }
    }

    /// Estimated selectivity of a predicate.
    pub fn selectivity(&self, op: &FilterOp) -> f64 {
        match op {
            FilterOp::TimeLess(cutoff) => {
                if *cutoff <= self.time_min {
                    0.0
                } else if *cutoff > self.time_max {
                    1.0
                } else {
                    (*cutoff - self.time_min) as f64 / (self.time_max - self.time_min).max(1) as f64
                }
            }
            FilterOp::LangIn(langs) => langs
                .iter()
                .map(|&l| self.lang_freq[(l as usize).min(7)])
                .sum::<f64>()
                .clamp(0.0, 1.0),
        }
    }
}

/// One strategy's predicted cost.
#[derive(Debug, Clone, Copy)]
pub struct StrategyCost {
    /// The strategy this row prices.
    pub strategy: Strategy,
    /// Predicted kernel seconds.
    pub predicted_seconds: f64,
}

/// The planner's output: all strategies priced, cheapest first.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// Estimated predicate selectivity used for the estimates.
    pub selectivity: f64,
    /// Per-strategy predictions, sorted ascending by cost.
    pub costs: Vec<StrategyCost>,
}

impl QueryPlan {
    /// The recommended (cheapest) strategy.
    pub fn chosen(&self) -> Strategy {
        self.costs[0].strategy
    }

    /// Renders the plan like an EXPLAIN output.
    pub fn render(&self) -> String {
        let mut s = format!("plan (est. selectivity {:.2}):\n", self.selectivity);
        for (i, c) in self.costs.iter().enumerate() {
            s.push_str(&format!(
                "  {} {:<18} ~{:.3} ms\n",
                if i == 0 { "->" } else { "  " },
                c.strategy.name(),
                c.predicted_seconds * 1e3
            ));
        }
        s.push_str("  on fault: retry w/ backoff -> serial stage-bitonic -> cpu-heap\n");
        s
    }
}

/// Prices the three Q1/Q3 strategies for `WHERE <op> ORDER BY
/// retweet_count DESC LIMIT k`.
pub fn explain_filtered_topk(
    spec: &DeviceSpec,
    table: &GpuTweetTable,
    stats: &TableStats,
    op: &FilterOp,
    k: usize,
) -> QueryPlan {
    let n = table.len();
    let sel = stats.selectivity(op);
    let matched = ((n as f64 * sel) as usize).max(1);
    let pair_bytes = 8.0; // (key, id)

    // filter stage: read pred+key columns, write matched pairs
    let scan = (n as f64 * (op.pred_bytes() + 4) as f64) / spec.global_bw;
    let filter_stage = scan + (matched as f64 * pair_bytes) / spec.global_bw + spec.launch_overhead;

    let sort_cost = filter_stage + sort_seconds(spec, matched, 8);
    let bitonic_cost =
        filter_stage + bitonic_topk_seconds(spec, BitonicModelInput::with_defaults(matched, k, 8));
    // fused: no pair materialization or re-read; the top-k pipeline runs
    // on the 16×-reduced stream
    let fused_cost =
        scan + bitonic_topk_seconds(
            spec,
            BitonicModelInput::with_defaults(matched / 16 + 1, k, 8),
        ) + spec.launch_overhead;

    let mut costs = vec![
        StrategyCost {
            strategy: Strategy::StageSort,
            predicted_seconds: sort_cost,
        },
        StrategyCost {
            strategy: Strategy::StageBitonic,
            predicted_seconds: bitonic_cost,
        },
        StrategyCost {
            strategy: Strategy::CombinedBitonic,
            predicted_seconds: fused_cost,
        },
    ];
    // NaN-safe: a degenerate cost model must reorder, not panic
    costs.sort_by(|a, b| a.predicted_seconds.total_cmp(&b.predicted_seconds));
    QueryPlan {
        selectivity: sel,
        costs,
    }
}

/// EXPLAIN output for a warm delegate-select top-k: the four pipeline
/// phases priced with the `topk-costmodel` delegate estimator.
#[derive(Debug, Clone, Copy)]
pub struct DelegatePlan {
    /// Input length the plan prices.
    pub n: usize,
    /// Requested k.
    pub k: usize,
    /// The per-phase cost breakdown.
    pub phases: DelegatePhases,
}

impl DelegatePlan {
    /// Renders the delegate plan like an EXPLAIN output.
    pub fn render(&self) -> String {
        let p = &self.phases;
        let mut s = format!(
            "delegate plan (n={}, k={}, subrange {} -> {} delegates, ~{} contributing):\n",
            self.n, self.k, p.subrange, p.num_subranges, p.contributing
        );
        s.push_str(&format!(
            "  phase: threshold scan   ~{:.3} ms\n",
            p.scan_seconds * 1e3
        ));
        s.push_str(&format!(
            "  phase: delegate top-k   ~{:.3} ms\n",
            p.delegate_topk_seconds * 1e3
        ));
        s.push_str(&format!(
            "  phase: refine subranges ~{:.3} ms\n",
            p.refine_seconds * 1e3
        ));
        s.push_str(&format!(
            "  phase: merge runs       ~{:.3} ms\n",
            p.merge_seconds * 1e3
        ));
        s.push_str(&format!(
            "  total (warm index)      ~{:.3} ms\n",
            p.total_seconds * 1e3
        ));
        s.push_str(
            "  cold: +1 extraction pass over n (index cached on the buffer until it mutates)\n",
        );
        s
    }
}

/// Prices a warm delegate-select `ORDER BY key DESC LIMIT k` pipeline
/// phase by phase — the EXPLAIN view of the Dr. Top-k decomposition.
pub fn explain_delegate_topk(
    spec: &DeviceSpec,
    n: usize,
    k: usize,
    item_bytes: usize,
    profile: &ReductionProfile,
) -> DelegatePlan {
    DelegatePlan {
        n,
        k,
        phases: delegate_select_phases(
            spec,
            n,
            k,
            item_bytes,
            profile,
            16,
            bitonic_conflict_degree(k),
        ),
    }
}

/// EXPLAIN output for a sharded query: the scatter-gather phases priced
/// with the `topk-costmodel` cluster estimator.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// How the table is partitioned.
    pub policy: PartitionPolicy,
    /// Rows resident on each device.
    pub shard_rows: Vec<usize>,
    /// Estimated post-filter candidates per shard.
    pub matched_rows: Vec<usize>,
    /// Requested k.
    pub k: usize,
    /// Mean estimated predicate selectivity across shards.
    pub selectivity: f64,
    /// Delegate bytes shipped to the merge device.
    pub candidate_bytes: usize,
    /// Slowest shard's filter scan, seconds.
    pub scan_seconds: f64,
    /// Slowest shard's local top-k pass, seconds.
    pub local_seconds: f64,
    /// Delegate gather over the interconnect, seconds.
    pub transfer_seconds: f64,
    /// Device-0 merge of the delegate runs, seconds.
    pub merge_seconds: f64,
    /// Whether the cluster has peer links (affects the gather row).
    pub peer_links: bool,
    /// Copies of each partition ([`crate::ReplicationFactor`], clamped).
    pub replication: usize,
}

impl ShardPlan {
    /// End-to-end predicted seconds.
    pub fn total_seconds(&self) -> f64 {
        self.scan_seconds + self.local_seconds + self.transfer_seconds + self.merge_seconds
    }

    /// Renders the shard plan like an EXPLAIN output.
    pub fn render(&self) -> String {
        let mut s = format!(
            "shard plan ({} over {} devices, k={}, est. selectivity {:.2}):\n",
            self.policy.name(),
            self.shard_rows.len(),
            self.k,
            self.selectivity
        );
        for (i, (&n, &m)) in self.shard_rows.iter().zip(&self.matched_rows).enumerate() {
            let delegates = self.k.min(m);
            let ship = if i == 0 {
                "merge-resident".to_string()
            } else {
                format!("ships {} B", delegates * 8)
            };
            s.push_str(&format!(
                "  shard {i}: n={n} ~{m} match -> {delegates} delegates ({ship})\n"
            ));
        }
        let link = if self.peer_links {
            "peer links"
        } else {
            "host links"
        };
        s.push_str(&format!(
            "  phase: filter scan      ~{:.3} ms\n",
            self.scan_seconds * 1e3
        ));
        s.push_str(&format!(
            "  phase: local top-k      ~{:.3} ms\n",
            self.local_seconds * 1e3
        ));
        s.push_str(&format!(
            "  phase: delegate gather  {} B over {link} ~{:.3} ms\n",
            self.candidate_bytes,
            self.transfer_seconds * 1e3
        ));
        s.push_str(&format!(
            "  phase: merge on dev0    ~{:.3} ms\n",
            self.merge_seconds * 1e3
        ));
        s.push_str(&format!(
            "  total                   ~{:.3} ms\n",
            self.total_seconds() * 1e3
        ));
        // the replication line only appears when replication exists, so
        // unreplicated plans render byte-identical to previous releases
        if self.replication > 1 {
            s.push_str(&format!(
                "  replication: r={} — reads fail over to any healthy replica; \
                 breaker + rebuild on device loss\n",
                self.replication
            ));
        }
        s.push_str("  on fault: per-shard retry/degrade; a failed shard fails the query\n");
        s
    }
}

/// Prices a sharded `WHERE <op> ORDER BY retweet_count DESC LIMIT k`
/// query: per-shard selectivity from shard-local statistics, then the
/// `topk-costmodel` cluster estimator for the local/gather/merge phases.
pub fn explain_sharded_topk(
    cluster: &ClusterSpec,
    table: &ShardedTable,
    op: Option<&FilterOp>,
    k: usize,
) -> ShardPlan {
    let spec = &cluster.device;
    let shard_rows = table.shard_rows();
    let mut matched_rows = Vec::with_capacity(shard_rows.len());
    let mut sel_sum = 0.0;
    let mut shards_with_rows = 0usize;
    for (i, &n) in shard_rows.iter().enumerate() {
        if n == 0 {
            matched_rows.push(0);
            continue;
        }
        let sel = match op {
            Some(op) => TableStats::gather(table.shard(i).primary_gpu()).selectivity(op),
            None => 1.0,
        };
        sel_sum += sel;
        shards_with_rows += 1;
        matched_rows.push(((n as f64 * sel) as usize).clamp(1, n));
    }
    let selectivity = if shards_with_rows == 0 {
        0.0
    } else {
        sel_sum / shards_with_rows as f64
    };

    // scan phase: every shard reads its predicate + key columns and
    // writes matched pairs, concurrently — the slowest shard gates
    let pred_bytes = op.map_or(0, FilterOp::pred_bytes);
    let scan_seconds = shard_rows
        .iter()
        .zip(&matched_rows)
        .filter(|(&n, _)| n > 0)
        .map(|(&n, &m)| {
            (n as f64 * (pred_bytes + 4) as f64 + m as f64 * 8.0) / spec.global_bw
                + spec.launch_overhead
        })
        .fold(0.0, f64::max);

    let est = cluster_topk_seconds(
        cluster,
        &ClusterModelInput {
            shard_rows: matched_rows.clone(),
            k,
            item_bytes: 8,
        },
    );
    ShardPlan {
        policy: table.policy(),
        shard_rows,
        matched_rows,
        k,
        selectivity,
        candidate_bytes: est.candidate_bytes,
        scan_seconds,
        local_seconds: est.local_seconds,
        transfer_seconds: est.transfer_seconds,
        merge_seconds: est.merge_seconds,
        peer_links: cluster.peer_link.is_some(),
        replication: table.replication(),
    }
}

/// EXPLAIN output for a materialized top-k view: the maintenance
/// decision ([`crate::stream::TopKView::plan_mode`], plus the serving
/// layer's cache) rendered with the watermarks that drove it.
#[derive(Debug, Clone)]
pub struct ViewPlan {
    /// The registered SQL.
    pub sql: String,
    /// Requested k.
    pub k: usize,
    /// The maintenance mode a refresh would take: `cache-hit` when the
    /// serving layer already holds this epoch's result, otherwise one of
    /// [`crate::stream::ViewMode`]'s names.
    pub mode: &'static str,
    /// Rows the standing result covers.
    pub rows_done: usize,
    /// Rows in the table now.
    pub table_rows: usize,
    /// Epoch the standing result covers.
    pub epoch_done: u64,
    /// The table's epoch now.
    pub table_epoch: u64,
    /// The view's delta/rescan crossover fraction.
    pub refresh_fraction: f64,
}

impl ViewPlan {
    /// Appended rows not yet folded into the standing result.
    pub fn delta_rows(&self) -> usize {
        self.table_rows.saturating_sub(self.rows_done)
    }

    /// Renders the view plan like an EXPLAIN output.
    pub fn render(&self) -> String {
        let mut s = format!("view plan (k={}):\n", self.k);
        s.push_str(&format!("  query:    {}\n", self.sql));
        s.push_str(&format!(
            "  standing: {} rows folded @ epoch {}\n",
            self.rows_done, self.epoch_done
        ));
        if self.rows_done == 0 {
            s.push_str(&format!(
                "  table:    {} rows @ epoch {} (no standing result yet; rescan above {:.1}%)\n",
                self.table_rows,
                self.table_epoch,
                self.refresh_fraction * 100.0
            ));
        } else {
            let pct = self.delta_rows() as f64 / self.rows_done as f64 * 100.0;
            s.push_str(&format!(
                "  table:    {} rows @ epoch {} (delta {} rows, {:.1}% of folded; rescan above {:.1}%)\n",
                self.table_rows,
                self.table_epoch,
                self.delta_rows(),
                pct,
                self.refresh_fraction * 100.0
            ));
        }
        s.push_str(&format!("  -> {}", self.mode));
        s.push_str(match self.mode {
            "cache-hit" => ": serve the epoch-tagged cached result, zero launches\n",
            "current" => ": standing result already covers this epoch, zero launches\n",
            "delta-merge" => {
                ": top-k over the delta slice + bitonic run-merge into the standing run\n"
            }
            "rescan" => ": re-execute over the full table and replace the standing result\n",
            _ => "\n",
        });
        s
    }
}

/// EXPLAIN for a materialized view against a table watermark. Pass the
/// serving layer's cached epoch (if it holds one for this SQL) so the
/// plan can report a cache hit above the view's own maintenance modes.
pub fn explain_view(
    view: &crate::stream::TopKView,
    table_rows: usize,
    table_epoch: u64,
    cached_epoch: Option<u64>,
) -> ViewPlan {
    let mode = if cached_epoch == Some(table_epoch) {
        "cache-hit"
    } else {
        view.plan_mode(table_rows, table_epoch).name()
    };
    ViewPlan {
        sql: view.sql().to_string(),
        k: view.query().limit,
        mode,
        rows_done: view.rows_done(),
        table_rows,
        epoch_done: view.epoch(),
        table_epoch,
        refresh_fraction: view.refresh_fraction(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::filtered_topk;
    use datagen::twitter::TweetTable;
    use simt::Device;

    fn setup(n: usize) -> (Device, TweetTable, GpuTweetTable, TableStats) {
        let dev = Device::titan_x();
        let host = TweetTable::generate(n, 77);
        let gpu = GpuTweetTable::upload(&dev, &host);
        let stats = TableStats::gather(&gpu);
        (dev, host, gpu, stats)
    }

    #[test]
    fn time_selectivity_estimates_track_reality() {
        let (_dev, host, _gpu, stats) = setup(50_000);
        for target in [0.1, 0.5, 0.9] {
            let cutoff = host.time_cutoff_for_selectivity(target);
            let est = stats.selectivity(&FilterOp::TimeLess(cutoff));
            assert!((est - target).abs() < 0.05, "target={target} est={est}");
        }
        assert_eq!(stats.selectivity(&FilterOp::TimeLess(0)), 0.0);
    }

    #[test]
    fn lang_selectivity_estimates_track_reality() {
        let (_dev, host, _gpu, stats) = setup(50_000);
        let est = stats.selectivity(&FilterOp::LangIn(vec![0, 1]));
        let real = host.lang.iter().filter(|&&l| l <= 1).count() as f64 / host.len() as f64;
        assert!((est - real).abs() < 0.05, "est={est} real={real}");
    }

    #[test]
    fn plan_prefers_fusion_and_bitonic_over_sort() {
        let (_dev, host, gpu, stats) = setup(200_000);
        let cutoff = host.time_cutoff_for_selectivity(0.8);
        let plan = explain_filtered_topk(
            &simt::DeviceSpec::titan_x_maxwell(),
            &gpu,
            &stats,
            &FilterOp::TimeLess(cutoff),
            50,
        );
        assert_eq!(plan.chosen(), Strategy::CombinedBitonic);
        // sort must be the most expensive
        assert_eq!(plan.costs.last().unwrap().strategy, Strategy::StageSort);
        let rendered = plan.render();
        assert!(rendered.contains("->"));
        assert!(rendered.contains("combined-bitonic"));
    }

    #[test]
    fn sharded_plan_golden_render() {
        use simt::topology::{Cluster, ClusterSpec};
        // unfiltered: selectivity is exactly 1.00 and every quantity in
        // the render is a deterministic function of (n, devices, k)
        let host = TweetTable::generate(4096, 3);
        let cluster = Cluster::new(ClusterSpec::pcie_node(2));
        let table = ShardedTable::partition(&cluster, &host, PartitionPolicy::Range).unwrap();
        let plan = explain_sharded_topk(cluster.spec(), &table, None, 8);
        let golden = "shard plan (range over 2 devices, k=8, est. selectivity 1.00):\n\
                      \x20 shard 0: n=2048 ~2048 match -> 8 delegates (merge-resident)\n\
                      \x20 shard 1: n=2048 ~2048 match -> 8 delegates (ships 64 B)\n\
                      \x20 phase: filter scan      ~0.005 ms\n\
                      \x20 phase: local top-k      ~0.015 ms\n\
                      \x20 phase: delegate gather  64 B over host links ~0.010 ms\n\
                      \x20 phase: merge on dev0    ~0.010 ms\n\
                      \x20 total                   ~0.040 ms\n\
                      \x20 on fault: per-shard retry/degrade; a failed shard fails the query\n";
        assert_eq!(plan.render(), golden);
    }

    #[test]
    fn view_plan_golden_render() {
        use crate::stream::{TopKView, ViewConfig};
        use crate::Strategy;
        // deterministic watermarks: build over 2048 rows at epoch 0, then
        // explain against a table that grew to 2304 rows at epoch 1
        let dev = Device::titan_x();
        let host = TweetTable::generate(2048, 7);
        let gpu = GpuTweetTable::upload_with_capacity(&dev, &host, 4096);
        let sql = "SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 12";
        let view = TopKView::register(sql, Strategy::StageBitonic, ViewConfig::default()).unwrap();
        view.refresh(&dev, &gpu).unwrap();
        let batch = TweetTable::generate_at(256, 9, 2048);
        gpu.append_batch(&dev, &batch).unwrap();

        let plan = explain_view(&view, gpu.len(), gpu.epoch(), None);
        let golden = "view plan (k=12):\n\
                      \x20 query:    SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 12\n\
                      \x20 standing: 2048 rows folded @ epoch 0\n\
                      \x20 table:    2304 rows @ epoch 1 (delta 256 rows, 12.5% of folded; \
                      rescan above 50.0%)\n\
                      \x20 -> delta-merge: top-k over the delta slice + bitonic run-merge \
                      into the standing run\n";
        assert_eq!(plan.render(), golden);

        // a serving-layer cache entry at the current epoch outranks the
        // view's own maintenance decision
        let hit = explain_view(&view, gpu.len(), gpu.epoch(), Some(gpu.epoch()));
        assert_eq!(hit.mode, "cache-hit");
        assert!(hit
            .render()
            .contains("-> cache-hit: serve the epoch-tagged cached result, zero launches"));
        let stale = explain_view(&view, gpu.len(), gpu.epoch(), Some(0));
        assert_eq!(stale.mode, "delta-merge");

        // after the refresh the plan reports currency
        view.refresh(&dev, &gpu).unwrap();
        let cur = explain_view(&view, gpu.len(), gpu.epoch(), None);
        assert_eq!(cur.mode, "current");
        assert_eq!(cur.delta_rows(), 0);
    }

    #[test]
    fn delegate_plan_golden_render() {
        // pure function of (spec, n, k): the golden string pins the
        // phase structure and the deterministic cost model output
        let plan = explain_delegate_topk(
            &simt::DeviceSpec::titan_x_maxwell(),
            1 << 22,
            64,
            8,
            &ReductionProfile::UniformFloats,
        );
        assert_eq!(plan.phases.num_subranges, 2048);
        assert_eq!(plan.phases.contributing, 64);
        let golden =
            "delegate plan (n=4194304, k=64, subrange 2048 -> 2048 delegates, ~64 contributing):\n\
             \x20 phase: threshold scan   ~0.005 ms\n\
             \x20 phase: delegate top-k   ~0.015 ms\n\
             \x20 phase: refine subranges ~0.009 ms\n\
             \x20 phase: merge runs       ~0.015 ms\n\
             \x20 total (warm index)      ~0.045 ms\n\
             \x20 cold: +1 extraction pass over n (index cached on the buffer until it mutates)\n";
        assert_eq!(plan.render(), golden);
    }

    #[test]
    fn delegate_plan_degrades_on_adversarial_profile() {
        let spec = simt::DeviceSpec::titan_x_maxwell();
        let uni = explain_delegate_topk(&spec, 1 << 22, 64, 8, &ReductionProfile::UniformFloats);
        let bk = explain_delegate_topk(&spec, 1 << 22, 64, 8, &ReductionProfile::BucketKiller);
        assert_eq!(bk.phases.contributing, bk.phases.num_subranges);
        assert!(bk.phases.total_seconds > uni.phases.total_seconds);
        assert!(bk.render().contains("2048 contributing"));
    }

    #[test]
    fn sharded_plan_prices_filter_and_gather() {
        use simt::topology::{Cluster, ClusterSpec};
        let host = TweetTable::generate(20_000, 11);
        let cluster = Cluster::new(ClusterSpec::pcie_node(4));
        let table = ShardedTable::partition(&cluster, &host, PartitionPolicy::Hash).unwrap();
        let cutoff = host.time_cutoff_for_selectivity(0.3);
        let plan = explain_sharded_topk(
            cluster.spec(),
            &table,
            Some(&FilterOp::TimeLess(cutoff)),
            16,
        );
        assert!(
            (plan.selectivity - 0.3).abs() < 0.05,
            "{}",
            plan.selectivity
        );
        // three non-resident shards ship k delegates each
        assert_eq!(plan.candidate_bytes, 3 * 16 * 8);
        assert!(plan.scan_seconds > 0.0);
        assert!(plan.total_seconds() > plan.merge_seconds);
        // nvlink variant renders peer links and gathers faster
        let nv = Cluster::new(ClusterSpec::nvlink_node(4));
        let nv_table = ShardedTable::partition(&nv, &host, PartitionPolicy::Hash).unwrap();
        let nv_plan =
            explain_sharded_topk(nv.spec(), &nv_table, Some(&FilterOp::TimeLess(cutoff)), 16);
        assert!(nv_plan.render().contains("peer links"));
        assert!(nv_plan.transfer_seconds < plan.transfer_seconds);
    }

    #[test]
    fn chosen_strategy_is_actually_fastest() {
        let (dev, host, gpu, stats) = setup(1 << 17);
        let cutoff = host.time_cutoff_for_selectivity(0.6);
        let op = FilterOp::TimeLess(cutoff);
        let plan = explain_filtered_topk(dev.spec(), &gpu, &stats, &op, 50);
        let mut measured: Vec<(Strategy, f64)> = Strategy::all()
            .iter()
            .map(|&s| {
                (
                    s,
                    filtered_topk(&dev, &gpu, &op, 50, s)
                        .unwrap()
                        .kernel_time
                        .seconds(),
                )
            })
            .collect();
        measured.sort_by(|a, b| a.1.total_cmp(&b.1));
        assert_eq!(
            plan.chosen(),
            measured[0].0,
            "plan={plan:?} measured={measured:?}"
        );
    }
}
