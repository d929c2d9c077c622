//! Materialized top-k views over streaming ingest.
//!
//! A [`TopKView`] is registered for one SQL query and keeps its standing
//! result current as [`GpuTweetTable::append_batch`] splices arrival
//! batches into the table. Maintenance exploits the decomposability of
//! top-k: the winners over `old ∪ delta` are the winners over
//! `top-k(old) ∪ top-k(delta)`, so a refresh only has to scan the rows
//! that arrived since the last refresh (`O(delta)` traffic) and
//! run-merge the two candidate lists with the same bitonic reducer the
//! sharded layer uses — the standing result and the delta top-k are
//! both descending runs, padded with sentinels to a power-of-two run
//! length. The merged result is **bit-identical to a from-scratch
//! rescan** for the full-item-order strategies (`StageBitonic`,
//! `CombinedBitonic`), including row-id tie-breaks; `StageSort` carries
//! the same duplicate-key caveat as [`crate::shard::execute_sharded`].
//!
//! When the accumulated delta grows past the view's refresh fraction the
//! incremental path stops winning (the merge is cheap, but delta scans
//! approach a full scan) and the view falls back to a rescan — the
//! crossover DESIGN.md §4.5 derives.
//!
//! One maintenance skeleton serves three placements. It owns the mode
//! decision ([`TopKView::plan_mode`]), the [`ViewStats`] ledger and the
//! commit; a placement supplies only its rescan step and its delta step,
//! and every delta step ends in the one typed merge the sharded gather
//! uses:
//!
//! * [`TopKView::refresh`] — one device: the delta scans a device slice
//!   and merges on the device. The crossover rule and this delta step
//!   are one function each, which the single-device server's result
//!   cache also calls to bring a stale entry current
//!   ([`crate::ServerConfig::result_cache`]);
//! * [`TopKView::refresh_cpu`] — the CPU engine over the same device
//!   table: the delta scans the appended rows of the resident columns in
//!   place and merges with the engine's top-k operator;
//! * [`TopKView::refresh_sharded`] — a cluster: per-shard delta scans run
//!   on any healthy replica and the standing run rides the gather as one
//!   more run, so a standing view survives permanent device loss
//!   whenever the table was partitioned with `ReplicationFactor ≥ 2`.

use std::cell::{Cell, RefCell};

use simt::topology::Cluster;
use simt::{Device, SimTime};

use crate::cpu_engine::execute_columns;
use crate::error::QdbError;
use crate::queries::Strategy;
use crate::shard::{
    all_devices_down, check_placement, execute_sharded, first_healthy_from, merge_id_runs, scatter,
    MergeTarget, ShardedTable,
};
use crate::sql::{execute, parse, Query};
use crate::table::GpuTweetTable;

/// How a view refresh will (or did) bring the standing result current.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewMode {
    /// The standing result already covers the table's epoch — nothing
    /// launches.
    Current,
    /// Scan only the appended rows and bitonic-run-merge their top-k
    /// into the standing result.
    DeltaMerge,
    /// Re-execute the query over the whole table (first build, or the
    /// accumulated delta crossed the refresh threshold).
    Rescan,
}

impl ViewMode {
    /// Name used in EXPLAIN renders and ledgers.
    pub fn name(&self) -> &'static str {
        match self {
            ViewMode::Current => "current",
            ViewMode::DeltaMerge => "delta-merge",
            ViewMode::Rescan => "rescan",
        }
    }
}

/// Tuning for a materialized view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViewConfig {
    /// Rescan instead of delta-merging once the accumulated delta
    /// exceeds this fraction of the rows already folded in. The merge
    /// itself is O(k), so the incremental path wins while the delta scan
    /// is small against a full scan; past roughly half the table the
    /// bookkeeping stops paying for itself.
    pub refresh_fraction: f64,
}

impl Default for ViewConfig {
    fn default() -> Self {
        ViewConfig {
            refresh_fraction: 0.5,
        }
    }
}

/// Maintenance counters for one view — the ledger the serving loop and
/// the bench harness report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ViewStats {
    /// Refreshes that found the standing result already current.
    pub current_hits: usize,
    /// Incremental delta-merge refreshes.
    pub delta_merges: usize,
    /// Full rescans (including the first build).
    pub rescans: usize,
    /// Total appended rows folded in via delta merges.
    pub delta_rows_folded: usize,
}

/// The outcome of one [`TopKView`] refresh.
#[derive(Debug, Clone)]
pub struct ViewRefresh {
    /// How the result was brought current.
    pub mode: ViewMode,
    /// The table epoch the standing result now covers.
    pub epoch: u64,
    /// Rows newly folded in by this refresh (0 for `Current`).
    pub delta_rows: usize,
    /// Modeled device time of the refresh (`ZERO` on the CPU engine and
    /// for `Current`).
    pub kernel_time: SimTime,
    /// The standing result after the refresh, ranked.
    pub ids: Vec<u32>,
}

/// A materialized top-k view: one registered SQL query plus its standing
/// result and the epoch/row watermark the result covers.
pub struct TopKView {
    sql: String,
    query: Query,
    strategy: Strategy,
    refresh_fraction: f64,
    standing: RefCell<Vec<u32>>,
    rows_done: Cell<usize>,
    epoch_done: Cell<u64>,
    /// Per-shard row watermarks (sharded tables only).
    shard_done: RefCell<Vec<usize>>,
    current_hits: Cell<usize>,
    delta_merges: Cell<usize>,
    rescans: Cell<usize>,
    delta_rows_folded: Cell<usize>,
}

impl TopKView {
    /// Registers a view for one SQL query. The query is parsed up front,
    /// and a shape whose runs do not merge is rejected
    /// ([`crate::Shape::runs_merge`]: appended rows change existing group
    /// counts), so a registered view never fails validation at refresh
    /// time.
    pub fn register(sql: &str, strategy: Strategy, cfg: ViewConfig) -> Result<Self, QdbError> {
        let query = parse(sql)?;
        query.shape.runs_merge()?;
        Ok(TopKView {
            sql: sql.to_string(),
            query,
            strategy,
            refresh_fraction: cfg.refresh_fraction.max(0.0),
            standing: RefCell::new(Vec::new()),
            rows_done: Cell::new(0),
            epoch_done: Cell::new(0),
            shard_done: RefCell::new(Vec::new()),
            current_hits: Cell::new(0),
            delta_merges: Cell::new(0),
            rescans: Cell::new(0),
            delta_rows_folded: Cell::new(0),
        })
    }

    /// The SQL the view was registered for.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// The parsed query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The strategy delta scans and rescans run with.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The refresh fraction the delta/rescan crossover uses.
    pub fn refresh_fraction(&self) -> f64 {
        self.refresh_fraction
    }

    /// The current standing result (without refreshing).
    pub fn ids(&self) -> Vec<u32> {
        self.standing.borrow().clone()
    }

    /// Rows the standing result covers.
    pub fn rows_done(&self) -> usize {
        self.rows_done.get()
    }

    /// The table epoch the standing result covers.
    pub fn epoch(&self) -> u64 {
        self.epoch_done.get()
    }

    /// Maintenance counters.
    pub fn stats(&self) -> ViewStats {
        ViewStats {
            current_hits: self.current_hits.get(),
            delta_merges: self.delta_merges.get(),
            rescans: self.rescans.get(),
            delta_rows_folded: self.delta_rows_folded.get(),
        }
    }

    /// The maintenance mode a refresh against a table with `table_rows`
    /// rows at `table_epoch` would take — the pure decision EXPLAIN
    /// renders without running anything, and the one a server's result
    /// cache applies to a stale entry.
    pub fn plan_mode(&self, table_rows: usize, table_epoch: u64) -> ViewMode {
        maintenance_mode(
            (self.rows_done.get(), self.epoch_done.get()),
            (table_rows, table_epoch),
            self.refresh_fraction,
        )
    }

    /// The maintenance skeleton every placement shares: decides the
    /// mode ([`TopKView::plan_mode`]; `can_merge == false` forces a
    /// rescan), runs the placement's `rescan` or `delta` step, keeps the
    /// [`ViewStats`] ledger and commits the new standing result. `delta`
    /// receives the standing ids and the rows already folded in. Each
    /// step returns the new standing ids and its modeled time. A failed
    /// step changes nothing.
    fn maintain(
        &self,
        rows: usize,
        epoch: u64,
        can_merge: bool,
        rescan: impl FnOnce() -> Result<(Vec<u32>, SimTime), QdbError>,
        delta: impl FnOnce(Vec<u32>, usize) -> Result<(Vec<u32>, SimTime), QdbError>,
    ) -> Result<ViewRefresh, QdbError> {
        let done = self.rows_done.get();
        let mode = match self.plan_mode(rows, epoch) {
            ViewMode::DeltaMerge if !can_merge => ViewMode::Rescan,
            mode => mode,
        };
        let (ids, kernel_time) = match mode {
            ViewMode::Current => {
                self.current_hits.set(self.current_hits.get() + 1);
                return Ok(ViewRefresh {
                    mode,
                    epoch,
                    delta_rows: 0,
                    kernel_time: SimTime::ZERO,
                    ids: self.ids(),
                });
            }
            ViewMode::Rescan => {
                let r = rescan()?;
                self.rescans.set(self.rescans.get() + 1);
                r
            }
            ViewMode::DeltaMerge => {
                let r = delta(self.ids(), done)?;
                self.delta_merges.set(self.delta_merges.get() + 1);
                self.delta_rows_folded
                    .set(self.delta_rows_folded.get() + rows - done);
                r
            }
        };
        *self.standing.borrow_mut() = ids.clone();
        self.rows_done.set(rows);
        self.epoch_done.set(epoch);
        Ok(ViewRefresh {
            mode,
            epoch,
            delta_rows: rows - done.min(rows),
            kernel_time,
            ids,
        })
    }

    /// Brings the standing result current against a device-resident
    /// table and returns it. `Current` launches nothing; `DeltaMerge`
    /// scans only `[rows_done, len)` and run-merges its top-k into the
    /// standing run on the device; `Rescan` re-executes the registered
    /// query.
    pub fn refresh(&self, dev: &Device, table: &GpuTweetTable) -> Result<ViewRefresh, QdbError> {
        let rows = table.len();
        self.maintain(
            rows,
            table.epoch(),
            true,
            || {
                let log0 = dev.log_len();
                let r = execute(dev, table, &self.query, self.strategy)?;
                Ok((r.ids, dev.window_since(log0).time))
            },
            |standing, done| {
                let log0 = dev.log_len();
                let ids =
                    delta_merge(dev, table, &self.query, self.strategy, standing, done, None)?;
                Ok((ids, dev.window_since(log0).time))
            },
        )
    }

    /// [`TopKView::refresh`] on the CPU engine ([`crate::execute_cpu`]
    /// with `threads` workers): scans the table's resident prefix in
    /// place (the appended rows alone on a delta) — same modes, same
    /// winners, wall-clock instead of modeled time (reported as
    /// `SimTime::ZERO`).
    pub fn refresh_cpu(
        &self,
        table: &GpuTweetTable,
        threads: usize,
    ) -> Result<ViewRefresh, QdbError> {
        table.with_columns(|cols| {
            let n = cols.id.len();
            self.maintain(
                n,
                table.epoch(),
                true,
                || {
                    let out = execute_columns(cols, &self.query, self.strategy, threads)?;
                    Ok((out.ids, SimTime::ZERO))
                },
                |standing, done| {
                    let dq = self.query.clamped(n - done);
                    let delta = execute_columns(cols.rows(done..n), &dq, self.strategy, threads)?;
                    let m = merge_id_runs(
                        &self.query,
                        &[standing, delta.ids],
                        |_, id| cols.counts_of(id).ok_or_else(|| not_resident(id)),
                        MergeTarget::Cpu {
                            strategy: self.strategy,
                            threads,
                        },
                    )?;
                    Ok((m.items, SimTime::ZERO))
                },
            )
        })
    }

    /// Sharded refresh: per-shard delta scans run on any healthy replica
    /// (the table's replication is what lets a standing view survive
    /// permanent device loss), then the per-shard delta top-ks and the
    /// standing run — one more run, resident on the merge device — merge
    /// on the first healthy device through the same gather the sharded
    /// query path uses.
    pub fn refresh_sharded(
        &self,
        cluster: &Cluster,
        table: &ShardedTable,
        max_retries: usize,
    ) -> Result<ViewRefresh, QdbError> {
        check_placement(cluster, table.num_shards())?;
        // the standing result must have been built against this sharding
        let can_merge = self.shard_done.borrow().len() == table.num_shards();
        let r = self.maintain(
            table.len(),
            table.epoch(),
            can_merge,
            || {
                let r = execute_sharded(cluster, table, &self.query, self.strategy, max_retries)?;
                Ok((r.items, r.sim_time))
            },
            |standing, _| {
                let Some(merge_dev) = first_healthy_from(cluster, 0) else {
                    return Err(all_devices_down(0));
                };
                let done = self.shard_done.borrow().clone();
                let mut s = scatter(
                    cluster,
                    table,
                    &self.query,
                    self.strategy,
                    Some(&done),
                    merge_dev,
                    max_retries,
                )?;
                s.push(standing, SimTime::ZERO, merge_dev);
                let m = s.gather(cluster, table, &self.query, merge_dev, max_retries)?;
                Ok((m.items, m.transfer_done + m.merge_time))
            },
        )?;
        if r.mode != ViewMode::Current {
            *self.shard_done.borrow_mut() = table.shard_rows();
        }
        Ok(r)
    }
}

/// The one crossover rule of every standing result — a view's, and a
/// stale result-cache entry's: how a result covering `done = (rows,
/// epoch)` comes current against a table at `table = (rows, epoch)`.
/// `Current` when nothing arrived; `DeltaMerge` while the appended rows
/// are at most `refresh_fraction` of the rows already covered; `Rescan`
/// past that, on a first build, and whenever the table did not grow.
pub(crate) fn maintenance_mode(
    (done, done_epoch): (usize, u64),
    (rows, epoch): (usize, u64),
    refresh_fraction: f64,
) -> ViewMode {
    if epoch == done_epoch && rows == done {
        return ViewMode::Current;
    }
    let delta = rows.saturating_sub(done);
    if done == 0 || rows < done || delta == 0 || (delta as f64) > refresh_fraction * done as f64 {
        ViewMode::Rescan
    } else {
        ViewMode::DeltaMerge
    }
}

/// The one device delta step: `standing` is `q`'s answer over the first
/// `done` rows of `table`; the rows appended since are copied into a
/// device slice, `q` runs over the slice, and the slice's top-k
/// run-merges into `standing` on `dev`. Returns `q`'s answer over the
/// whole table, bit-identical to re-executing it. With `ecc`, the
/// slice's columns are tagged for ECC-corruption injection under that
/// label, so a serving lane's audit covers the step. `q`'s runs must
/// merge ([`crate::Shape::runs_merge`]).
pub(crate) fn delta_merge(
    dev: &Device,
    table: &GpuTweetTable,
    q: &Query,
    strategy: Strategy,
    standing: Vec<u32>,
    done: usize,
    ecc: Option<&str>,
) -> Result<Vec<u32>, QdbError> {
    let rows = table.len();
    let slice = table.device_slice(dev, done, rows)?;
    if let Some(label) = ecc {
        slice.tag_ecc(label);
    }
    let delta = execute(dev, &slice, &q.clamped(rows - done), strategy)?;
    let m = table.with_columns(|c| {
        merge_id_runs(
            q,
            &[standing, delta.ids],
            |_, id| c.counts_of(id).ok_or_else(|| not_resident(id)),
            MergeTarget::Device(dev),
        )
    })?;
    Ok(m.items)
}

/// The typed error for a standing id missing from the table it was
/// computed over — a bug, never a panic.
fn not_resident(id: u32) -> QdbError {
    QdbError::Internal {
        what: format!("standing id {id} is not in the table's id column"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{PartitionPolicy, ReplicationFactor};
    use crate::sql::SqlError;
    use datagen::twitter::TweetTable;
    use simt::topology::ClusterSpec;

    const SHAPES: [&str; 3] = [
        "SELECT id FROM tweets WHERE tweet_time < 1500000 \
         ORDER BY retweet_count DESC LIMIT 12",
        "SELECT id FROM tweets ORDER BY retweet_count ASC LIMIT 9",
        "SELECT id FROM tweets ORDER BY retweet_count + 0.5 * likes_count DESC LIMIT 7",
    ];

    #[test]
    fn register_rejects_what_maintenance_cannot_hold() {
        for sql in [
            "SELECT uid, COUNT(*) FROM tweets GROUP BY uid ORDER BY COUNT(*) DESC LIMIT 5",
            "SELECT id FROM tweets ORDER BY retweet_count + 0.9 * likes_count DESC LIMIT 5",
            "SELECT id FROM tweets WHERE lang='en' \
             ORDER BY retweet_count + 0.5 * likes_count DESC LIMIT 5",
        ] {
            assert!(
                matches!(
                    TopKView::register(sql, Strategy::StageBitonic, ViewConfig::default()),
                    Err(QdbError::Parse(SqlError::Unsupported(_)))
                ),
                "{sql}"
            );
        }
    }

    /// The core contract: after any append sequence the maintained view
    /// equals a from-scratch rescan bit for bit, for every supported
    /// query shape, and the maintenance ledger records the mode walk
    /// (build rescan, then delta merges, then cached currency).
    #[test]
    fn maintained_view_is_bit_identical_to_rescan_across_appends() {
        for sql in SHAPES {
            let dev = Device::titan_x();
            let mut host = TweetTable::generate(20_000, 41);
            let gpu = GpuTweetTable::upload_with_capacity(&dev, &host, 28_000);
            let view = TopKView::register(sql, Strategy::StageBitonic, ViewConfig::default())
                .expect("supported shape");
            let first = view.refresh(&dev, &gpu).unwrap();
            assert_eq!(first.mode, ViewMode::Rescan, "first build is a rescan");

            for (i, batch_rows) in [1500usize, 700, 2300].into_iter().enumerate() {
                let batch = TweetTable::generate_at(batch_rows, 100 + i as u64, host.len() as u32);
                gpu.append_batch(&dev, &batch).expect("headroom");
                host.extend_from(&batch);
                let r = view.refresh(&dev, &gpu).unwrap();
                assert_eq!(
                    r.mode,
                    ViewMode::DeltaMerge,
                    "small delta stays incremental"
                );
                assert_eq!(r.delta_rows, batch_rows);
                let oracle = execute(&dev, &gpu, view.query(), Strategy::StageBitonic).unwrap();
                assert_eq!(r.ids, oracle.ids, "{sql} after append {i}");
                assert_eq!(view.ids(), oracle.ids);
            }
            let again = view.refresh(&dev, &gpu).unwrap();
            assert_eq!(again.mode, ViewMode::Current);
            let s = view.stats();
            assert_eq!(
                (s.rescans, s.delta_merges, s.current_hits),
                (1, 3, 1),
                "{sql}"
            );
            assert_eq!(s.delta_rows_folded, 4500);
        }
    }

    #[test]
    fn current_refresh_launches_nothing() {
        let dev = Device::titan_x();
        let host = TweetTable::generate(4_000, 5);
        let gpu = GpuTweetTable::upload(&dev, &host);
        let view =
            TopKView::register(SHAPES[0], Strategy::StageBitonic, ViewConfig::default()).unwrap();
        let built = view.refresh(&dev, &gpu).unwrap();
        let log0 = dev.log_len();
        let hit = view.refresh(&dev, &gpu).unwrap();
        assert_eq!(hit.mode, ViewMode::Current);
        assert_eq!(hit.ids, built.ids);
        assert_eq!(hit.kernel_time, SimTime::ZERO);
        assert_eq!(dev.log_len(), log0, "a current view launches no kernels");
    }

    #[test]
    fn oversized_delta_crosses_over_to_rescan() {
        let dev = Device::titan_x();
        let host = TweetTable::generate(2_000, 9);
        let gpu = GpuTweetTable::upload_with_capacity(&dev, &host, 8_000);
        let view = TopKView::register(
            SHAPES[0],
            Strategy::StageBitonic,
            ViewConfig {
                refresh_fraction: 0.25,
            },
        )
        .unwrap();
        view.refresh(&dev, &gpu).unwrap();
        // 600 > 0.25 * 2000: the incremental path stops winning
        let batch = TweetTable::generate_at(600, 77, 2_000);
        gpu.append_batch(&dev, &batch).unwrap();
        let r = view.refresh(&dev, &gpu).unwrap();
        assert_eq!(r.mode, ViewMode::Rescan);
        let oracle = execute(&dev, &gpu, view.query(), Strategy::StageBitonic).unwrap();
        assert_eq!(r.ids, oracle.ids);
        assert_eq!(view.stats().rescans, 2);
        // a small follow-up delta goes back to merging
        let batch = TweetTable::generate_at(200, 78, 2_600);
        gpu.append_batch(&dev, &batch).unwrap();
        assert_eq!(view.refresh(&dev, &gpu).unwrap().mode, ViewMode::DeltaMerge);
    }

    /// A delta refresh on a device with no room for the delta's slice is
    /// a typed, transient device fault that keeps the standing result;
    /// once memory frees up the view delta-merges to the rescan oracle.
    #[test]
    fn delta_refresh_on_a_full_device_is_a_typed_error() {
        let dev = Device::new(simt::DeviceSpec {
            global_mem_bytes: 8 << 20,
            ..simt::DeviceSpec::titan_x_maxwell()
        });
        let host = TweetTable::generate(4_000, 8);
        let gpu = GpuTweetTable::upload_with_capacity(&dev, &host, 5_000);
        let view =
            TopKView::register(SHAPES[0], Strategy::StageBitonic, ViewConfig::default()).unwrap();
        let built = view.refresh(&dev, &gpu).unwrap();
        gpu.append_batch(&dev, &TweetTable::generate_at(500, 9, 4_000))
            .unwrap();
        let fill = dev.alloc::<u8>(dev.spec().global_mem_bytes - dev.memory_allocated());
        let err = view.refresh(&dev, &gpu).unwrap_err();
        assert!(err.is_transient(), "{err}");
        assert!(err.to_string().contains("out of memory"), "{err}");
        assert_eq!((view.ids(), view.rows_done()), (built.ids, 4_000));
        drop(fill);
        let r = view.refresh(&dev, &gpu).unwrap();
        assert_eq!(r.mode, ViewMode::DeltaMerge);
        let oracle = execute(&dev, &gpu, view.query(), Strategy::StageBitonic).unwrap();
        assert_eq!(r.ids, oracle.ids);
    }

    /// Engine conformance extends to views: over one device table, both
    /// engines walk the same modes and return the same winners after
    /// appends.
    #[test]
    fn view_maintenance_conforms_across_backends() {
        let host = TweetTable::generate(12_000, 17);
        let dev = Device::titan_x();
        let table = GpuTweetTable::upload_with_capacity(&dev, &host, 16_000);
        for sql in SHAPES {
            let vs =
                TopKView::register(sql, Strategy::StageBitonic, ViewConfig::default()).unwrap();
            let vc =
                TopKView::register(sql, Strategy::StageBitonic, ViewConfig::default()).unwrap();
            assert_eq!(
                vs.refresh(&dev, &table).unwrap().ids,
                vc.refresh_cpu(&table, 4).unwrap().ids,
                "{sql} (build)"
            );
        }
        // appends land once, for both engines; maintained results stay
        // equal
        let vs =
            TopKView::register(SHAPES[0], Strategy::StageBitonic, ViewConfig::default()).unwrap();
        let vc =
            TopKView::register(SHAPES[0], Strategy::StageBitonic, ViewConfig::default()).unwrap();
        vs.refresh(&dev, &table).unwrap();
        vc.refresh_cpu(&table, 4).unwrap();
        let mut next_id = host.len() as u32;
        for rows in [900usize, 1300] {
            let batch = TweetTable::generate_at(rows, u64::from(next_id), next_id);
            table.append_batch(&dev, &batch).unwrap();
            next_id += rows as u32;
            let rs = vs.refresh(&dev, &table).unwrap();
            let rc = vc.refresh_cpu(&table, 4).unwrap();
            assert_eq!(rs.mode, ViewMode::DeltaMerge);
            assert_eq!(rc.mode, ViewMode::DeltaMerge);
            assert_eq!(rs.ids, rc.ids, "after +{rows}");
        }
    }

    /// The point of the incremental path: a delta merge moves a small
    /// fraction of the global-memory bytes a rescan moves.
    #[test]
    fn delta_merge_reads_only_the_delta() {
        let dev = Device::titan_x();
        let mut host = TweetTable::generate(65_536, 3);
        let gpu = GpuTweetTable::upload_with_capacity(&dev, &host, 66_560);
        let view =
            TopKView::register(SHAPES[0], Strategy::StageBitonic, ViewConfig::default()).unwrap();
        let log0 = dev.log_len();
        view.refresh(&dev, &gpu).unwrap();
        let rescan_bytes = dev.window_since(log0).stats.global_bytes();

        let batch = TweetTable::generate_at(1024, 51, host.len() as u32);
        gpu.append_batch(&dev, &batch).unwrap();
        host.extend_from(&batch);
        let log1 = dev.log_len();
        let r = view.refresh(&dev, &gpu).unwrap();
        assert_eq!(r.mode, ViewMode::DeltaMerge);
        let delta_bytes = dev.window_since(log1).stats.global_bytes();
        assert!(
            (delta_bytes as f64) < 0.1 * rescan_bytes as f64,
            "delta maintenance should move a small fraction of a rescan: \
             {delta_bytes} vs {rescan_bytes}"
        );
    }

    /// A replicated sharded view keeps serving bit-exact results through
    /// appends and a permanent device loss: delta scans fail over to the
    /// surviving replica of each shard.
    #[test]
    fn sharded_view_survives_permanent_device_loss() {
        let cluster = Cluster::new(ClusterSpec::pcie_node(4));
        let mut host = TweetTable::generate(16_000, 29);
        let table = ShardedTable::partition_replicated_with_capacity(
            &cluster,
            &host,
            PartitionPolicy::Range,
            ReplicationFactor(2),
            24_000,
        )
        .unwrap();
        let view =
            TopKView::register(SHAPES[0], Strategy::StageBitonic, ViewConfig::default()).unwrap();
        let built = view.refresh_sharded(&cluster, &table, 2).unwrap();
        assert_eq!(built.mode, ViewMode::Rescan);

        let batch = TweetTable::generate_at(1200, 61, host.len() as u32);
        table.append_batch(&cluster, &batch).unwrap();
        host.extend_from(&batch);
        let r = view.refresh_sharded(&cluster, &table, 2).unwrap();
        assert_eq!(r.mode, ViewMode::DeltaMerge);
        let oracle =
            execute_sharded(&cluster, &table, view.query(), Strategy::StageBitonic, 2).unwrap();
        assert_eq!(
            r.ids, oracle.items,
            "healthy delta merge matches the oracle"
        );

        // device 0 dies for good; the next append skips its replicas and
        // the view's delta scans route to survivors
        cluster.device(0).mark_down();
        let batch = TweetTable::generate_at(900, 62, host.len() as u32);
        let receipt = table.append_batch(&cluster, &batch).unwrap();
        assert!(receipt.skipped_replicas > 0, "dead copies are skipped");
        host.extend_from(&batch);
        let r = view.refresh_sharded(&cluster, &table, 2).unwrap();
        assert_eq!(r.mode, ViewMode::DeltaMerge);
        let oracle =
            execute_sharded(&cluster, &table, view.query(), Strategy::StageBitonic, 2).unwrap();
        assert_eq!(r.ids, oracle.items, "view survives permanent loss at r=2");
        assert_eq!(view.stats().delta_merges, 2);
        let hit = view.refresh_sharded(&cluster, &table, 2).unwrap();
        assert_eq!(hit.mode, ViewMode::Current);
    }

    /// One view, every placement: the same random append sequence is
    /// refreshed on a device, on the CPU engine over that same device
    /// table and on 4-device clusters (r = 1 and r = 2, range and hash
    /// partitioning — range leaves most shards with empty deltas).
    /// Every placement returns the rescan oracle's ids and walks the same
    /// modes with the same ledger: one maintenance skeleton decides for
    /// all of them.
    #[test]
    fn one_view_every_placement() {
        use crate::shard::PartitionPolicy::{Hash, Range};
        use rand::{rngs::SmallRng, Rng, SeedableRng};

        let mut rng = SmallRng::seed_from_u64(23);
        let n0 = 3_000;
        let batches: Vec<usize> = (0..6).map(|_| rng.gen_range(1..=n0)).collect();
        let cap = n0 + batches.iter().sum::<usize>();
        let host = TweetTable::generate(n0, 47);
        let dev = Device::titan_x();
        let gpu = GpuTweetTable::upload_with_capacity(&dev, &host, cap);
        let clusters: Vec<(Cluster, ShardedTable)> = [(1, Range), (1, Hash), (2, Range), (2, Hash)]
            .into_iter()
            .map(|(r, policy)| {
                let cluster = Cluster::new(ClusterSpec::pcie_node(4));
                let table = ShardedTable::partition_replicated_with_capacity(
                    &cluster,
                    &host,
                    policy,
                    ReplicationFactor(r),
                    cap,
                )
                .unwrap();
                (cluster, table)
            })
            .collect();
        // views[shape][placement]: device, CPU, then one per cluster
        let views: Vec<Vec<TopKView>> = SHAPES
            .iter()
            .map(|sql| {
                (0..2 + clusters.len())
                    .map(|_| {
                        TopKView::register(sql, Strategy::StageBitonic, ViewConfig::default())
                            .unwrap()
                    })
                    .collect()
            })
            .collect();

        let mut rows = n0;
        for step in 0..=batches.len() + 1 {
            // step 0 builds, the last step appends nothing
            if let Some(&b) = step.checked_sub(1).and_then(|i| batches.get(i)) {
                let batch = TweetTable::generate_at(b, 500 + step as u64, rows as u32);
                gpu.append_batch(&dev, &batch).unwrap();
                for (cluster, table) in &clusters {
                    table.append_batch(cluster, &batch).unwrap();
                }
                rows += b;
            }
            for (sql, vs) in SHAPES.iter().zip(&views) {
                let oracle = execute(&dev, &gpu, vs[0].query(), Strategy::StageBitonic)
                    .unwrap()
                    .ids;
                let mut refreshed = vec![
                    vs[0].refresh(&dev, &gpu).unwrap(),
                    vs[1].refresh_cpu(&gpu, 2).unwrap(),
                ];
                for ((cluster, table), v) in clusters.iter().zip(&vs[2..]) {
                    refreshed.push(v.refresh_sharded(cluster, table, 1).unwrap());
                }
                for (p, r) in refreshed.iter().enumerate() {
                    assert_eq!(r.ids, oracle, "{sql}: placement {p} at step {step}");
                    assert_eq!(
                        r.mode, refreshed[0].mode,
                        "{sql}: placement {p} at step {step}"
                    );
                    assert_eq!(r.delta_rows, refreshed[0].delta_rows);
                    assert_eq!(r.epoch, refreshed[0].epoch);
                }
            }
        }
        for (sql, vs) in SHAPES.iter().zip(&views) {
            let s = vs[0].stats();
            assert!(
                s.delta_merges > 0 && s.rescans > 1,
                "{sql}: {s:?} walks both paths"
            );
            assert_eq!(s.current_hits, 1, "{sql}");
            for v in vs {
                assert_eq!(v.stats(), s, "{sql}");
            }
        }
    }
}
