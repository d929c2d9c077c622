//! Sharded top-k: scatter-gather query execution over a simulated
//! multi-GPU node (see [`simt::topology`]).
//!
//! The structure is the delegate-centric one: partition the rows across
//! devices ([`PartitionPolicy`]), run the per-shard top-k *locally* on
//! each device, ship only each shard's k delegate candidates over the
//! interconnect, and merge the delegate runs on device 0 with the
//! existing bitonic reduction ([`topk::bitonic::bitonic_topk_from_runs`]).
//! Because every comparison in the bitonic path breaks key ties by row id
//! (see [`datagen::Kv`]), the merged result is **bit-identical** to the
//! single-device result — the global top-k is always a subset of the
//! union of per-shard top-k sets, and both sides rank it by the same
//! total order.
//!
//! Three layers:
//!
//! * [`sharded_topk`] and [`sharded_delegate_topk`] — the raw primitive
//!   over pre-partitioned items, one body parameterized by the local
//!   kernel;
//! * [`execute_sharded`] — SQL queries against a [`ShardedTable`];
//! * [`ShardedServer`] — serving: the admission front and device lanes
//!   of [`crate::server`], one lane per (shard, replica), plus what a
//!   cluster adds: routing, the breaker, failover, rebuild and the
//!   drain-time gather of each shard's k delegates.
//!
//! Every entry point first runs one placement check: a table
//! partitioned for a cluster of another size is a typed error.
//!
//! Underneath, one scan and one gather. Every SQL shard read —
//! [`execute_sharded`], a view's sharded delta
//! ([`crate::TopKView::refresh_sharded`]) and the server's direct and
//! failover executions — runs through one shard scan: a healthy copy,
//! optionally over a delta slice, bounded transient retries, the device
//! stamped into a final fault. Every answer assembled from id runs ends
//! in one typed merge, the only place that maps a [`Shape`] to an item
//! type; it reduces on one device, over the cluster gather, or with the
//! CPU engine's top-k. The gather waits for every shard, including a
//! remote one whose list is empty. Scans, uploads, merges and transfers
//! all retry transient faults through qdb's one retry helper, the one
//! the serving lane uses, so each reports `attempts` as retries + 1.
//!
//! Failures are never silently truncated: a shard whose local pass or
//! delegate transfer is defeated (after bounded retries) fails the whole
//! query with a typed [`QdbError`].
//!
//! Permanent loss is survived by replication ([`ReplicationFactor`]):
//! each partition is placed on `r` devices (ring placement, replica
//! loads charged on the interconnect), every read path serves from the
//! first *healthy* replica, and the serving layer adds a per-device
//! circuit breaker ([`BreakerState`]), query-time failover and online
//! shard rebuild from the pristine host copy — see DESIGN.md §4.4.
//! Because the merged result is a pure function of the delegate sets,
//! which replica serves never changes a single bit of the answer.

use std::cell::{Cell, Ref, RefCell};

use datagen::twitter::TweetTable;
use datagen::{Kv, Rev, TopKItem};
use simt::topology::Cluster;
use simt::{Device, GpuBuffer, SimTime};
use sortnet::next_pow2;
use topk::bitonic::{bitonic_topk, bitonic_topk_from_runs, BitonicConfig};
use topk::delegate::{delegate_select_topk, DelegateConfig};
use topk::{TopKError, TopKResult};

use crate::cpu_engine::strategy_topk;
use crate::engine::RowItem;
use crate::error::{retry, QdbError};
use crate::queries::Strategy;
use crate::server::{
    DegradeLevel, Front, Lane, LoadReport, Pending, QueryTicket, ResilienceStats, ServerConfig,
    SubmitOptions, DEFAULT_STRATEGY,
};
use crate::sql::{execute, Query, Shape, SqlError, GROUP_COUNTS_DO_NOT_MERGE};
use crate::table::{host_rows, Columns, GpuTweetTable, ROW_BYTES};

/// How rows are distributed across devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionPolicy {
    /// Contiguous row ranges, one per device (shard i gets rows
    /// `[i·n/d, (i+1)·n/d)`).
    Range,
    /// Multiplicative hash of the row id — decorrelates the shard from
    /// any ordering in the data.
    Hash,
    /// Row `i` goes to shard `i mod d`.
    RoundRobin,
}

impl PartitionPolicy {
    /// Stable name for experiment tables and EXPLAIN output.
    pub fn name(&self) -> &'static str {
        match self {
            PartitionPolicy::Range => "range",
            PartitionPolicy::Hash => "hash",
            PartitionPolicy::RoundRobin => "round-robin",
        }
    }

    /// All policies, in display order.
    pub fn all() -> [PartitionPolicy; 3] {
        [
            PartitionPolicy::Range,
            PartitionPolicy::Hash,
            PartitionPolicy::RoundRobin,
        ]
    }

    /// Shard index for row `row` of `n` under `shards` shards.
    pub fn assign(&self, row: usize, n: usize, shards: usize) -> usize {
        match self {
            PartitionPolicy::Range => (row * shards) / n.max(1),
            PartitionPolicy::Hash => {
                (((row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) % shards
            }
            PartitionPolicy::RoundRobin => row % shards,
        }
    }
}

/// Splits row indices `0..n` into per-shard lists (row order preserved
/// within each shard, so shard-local id columns stay sorted).
pub fn partition_indices(n: usize, shards: usize, policy: PartitionPolicy) -> Vec<Vec<usize>> {
    let mut parts = vec![Vec::with_capacity(n / shards.max(1) + 1); shards];
    for row in 0..n {
        parts[policy.assign(row, n, shards)].push(row);
    }
    parts
}

/// How many devices hold a copy of each partition.
///
/// `r = 1` is the unreplicated behavior (and the default); `r >= 2`
/// survives permanent device loss — reads fail over to any healthy
/// replica, and the answer stays bit-identical regardless of which copy
/// serves. Values above the device count are clamped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationFactor(pub usize);

impl ReplicationFactor {
    /// The unreplicated default.
    pub const ONE: ReplicationFactor = ReplicationFactor(1);

    /// The factor actually used on a `devices`-wide cluster.
    pub fn effective(self, devices: usize) -> usize {
        self.0.clamp(1, devices.max(1))
    }
}

impl Default for ReplicationFactor {
    fn default() -> Self {
        ReplicationFactor::ONE
    }
}

/// One device-resident copy of a shard.
pub struct Replica {
    /// Cluster index of the device holding this copy.
    pub device: usize,
    /// The copy itself.
    pub gpu: GpuTweetTable,
}

/// One shard: the host-side sub-table (global row ids preserved) and its
/// device-resident replicas (the first is the primary).
pub struct Shard {
    /// Host columns of this shard's rows; `host.id` holds *global* row
    /// ids, strictly increasing. Device loss never touches this copy
    /// (appends extend it, but only with rows every replica also
    /// receives), which is what makes online rebuild possible.
    host: RefCell<TweetTable>,
    /// Rows this shard's device columns were allocated for.
    cap_rows: usize,
    replicas: Vec<Replica>,
}

impl Shard {
    /// The shard's host-side rows (shared-borrow: appends extend the
    /// same columns through a `&ShardedTable`).
    pub fn host(&self) -> Ref<'_, TweetTable> {
        self.host.borrow()
    }

    /// Rows this shard's device columns can hold (append headroom is
    /// `capacity() - host().len()`).
    pub fn capacity(&self) -> usize {
        self.cap_rows
    }

    /// The device the shard's primary copy lives on.
    pub fn primary_device(&self) -> usize {
        self.replicas[0].device
    }

    /// The primary device-resident copy.
    pub fn primary_gpu(&self) -> &GpuTweetTable {
        &self.replicas[0].gpu
    }

    /// All device-resident copies, primary first.
    pub fn replicas(&self) -> &[Replica] {
        &self.replicas
    }
}

/// The outcome of one sharded append: what landed where, what the
/// replica fan-out cost on the interconnect, and the table epoch after
/// the splice (the sharded twin of [`AppendReceipt`]).
///
/// [`AppendReceipt`]: crate::table::AppendReceipt
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardedAppendReceipt {
    /// Rows appended (across all shards).
    pub rows: usize,
    /// Payload bytes charged on the interconnect, summed over every
    /// live replica splice.
    pub bytes: usize,
    /// When the last replica splice landed.
    pub transfer_done: SimTime,
    /// The table epoch after this append.
    pub epoch: u64,
    /// Transfer retries consumed against fault plans.
    pub transfer_retries: usize,
    /// Replica copies skipped because their device is permanently down
    /// (rebuild restores them from the extended host columns).
    pub skipped_replicas: usize,
}

/// A tweet table partitioned across a cluster's devices.
pub struct ShardedTable {
    policy: PartitionPolicy,
    replication: usize,
    epoch: Cell<u64>,
    shards: Vec<Shard>,
}

impl ShardedTable {
    /// Partitions `host` across the cluster's devices under `policy`,
    /// uploading each shard to its device and charging the host→device
    /// load transfers on the interconnect. Unreplicated — identical to
    /// [`ShardedTable::partition_replicated`] with
    /// [`ReplicationFactor::ONE`].
    pub fn partition(
        cluster: &Cluster,
        host: &TweetTable,
        policy: PartitionPolicy,
    ) -> Result<Self, QdbError> {
        Self::partition_replicated(cluster, host, policy, ReplicationFactor::ONE)
    }

    /// Partitions `host` across the cluster's devices under `policy`,
    /// placing each partition on `r` devices.
    ///
    /// Shard `i`'s primary lands on device `i` and is charged the real
    /// host→device load transfer; replica `j` lands on device
    /// `(i + j) mod d` (ring placement: load stays even and no two
    /// copies of a shard share a device) and is charged a device→device
    /// copy from the primary — over the peer link when the cluster has
    /// one, staged through host otherwise, so replication cost follows
    /// the topology.
    pub fn partition_replicated(
        cluster: &Cluster,
        host: &TweetTable,
        policy: PartitionPolicy,
        r: ReplicationFactor,
    ) -> Result<Self, QdbError> {
        Self::partition_replicated_with_capacity(cluster, host, policy, r, host.len())
    }

    /// Like [`ShardedTable::partition_replicated`], but allocates every
    /// shard's device columns with enough headroom that the table as a
    /// whole can grow to `cap_total` rows via
    /// [`ShardedTable::append_batch`]. The headroom is provisioned *per
    /// shard* (a skewed policy may route an entire arrival batch to one
    /// shard), so each shard's capacity is its initial rows plus the
    /// full table-level headroom. Kernels scan only the logical prefix,
    /// so the no-headroom path (`cap_total == host.len()`) is
    /// bit-identical to the frozen-table loader.
    pub fn partition_replicated_with_capacity(
        cluster: &Cluster,
        host: &TweetTable,
        policy: PartitionPolicy,
        r: ReplicationFactor,
        cap_total: usize,
    ) -> Result<Self, QdbError> {
        let d = cluster.num_devices();
        let r = r.effective(d);
        let headroom = cap_total.saturating_sub(host.len());
        let parts = partition_indices(host.len(), d, policy);
        let mut shards = Vec::with_capacity(d);
        for (i, rows) in parts.iter().enumerate() {
            let sub = host_rows(host, rows.iter().copied());
            let cap_rows = sub.len() + headroom;
            let bytes = rows.len() * ROW_BYTES;
            let dev = cluster.device(i);
            let gpu = GpuTweetTable::upload_with_capacity(dev, &sub, cap_rows);
            let label = format!("load:shard{i}");
            retry(3, &mut 0, |_| {
                cluster
                    .host_to_device(i, bytes, &label, SimTime::ZERO)
                    .map_err(QdbError::from)
            })?;
            let mut replicas = Vec::with_capacity(r);
            replicas.push(Replica { device: i, gpu });
            for j in 1..r {
                let target = (i + j) % d;
                let gpu =
                    GpuTweetTable::upload_with_capacity(cluster.device(target), &sub, cap_rows);
                let label = format!("replicate:shard{i}->dev{target}");
                retry(3, &mut 0, |_| {
                    cluster
                        .device_to_device(i, target, bytes, &label, SimTime::ZERO)
                        .map_err(QdbError::from)
                })?;
                replicas.push(Replica {
                    device: target,
                    gpu,
                });
            }
            shards.push(Shard {
                host: RefCell::new(sub),
                cap_rows,
                replicas,
            });
        }
        Ok(ShardedTable {
            policy,
            replication: r,
            epoch: Cell::new(0),
            shards,
        })
    }

    /// Routes an arrival batch through the table's partition policy and
    /// splices each sub-batch into its shard — host columns first (the
    /// pristine copy rebuilds draw from), then every *live* replica's
    /// device columns, each charged as a real host→device transfer on
    /// the interconnect. A replica on a permanently down device is
    /// skipped and counted in the receipt: the data is safe on the host
    /// and on the surviving replicas, and the next drain's rebuild
    /// re-materializes full replication from the (now extended) host
    /// columns.
    ///
    /// Batch ids must continue the table's global row numbering
    /// (`len()..len() + batch.len()`, see
    /// [`datagen::twitter::TweetTable::generate_at`]) — the delegate
    /// gather path resolves global ids by binary search over each
    /// shard's strictly increasing id column, so a gap or permutation
    /// would corrupt results. Violations are a typed
    /// [`QdbError::Internal`]. Capacity is checked on every shard before
    /// anything splices, so a [`QdbError::CapacityExceeded`] append
    /// changes nothing.
    pub fn append_batch(
        &self,
        cluster: &Cluster,
        batch: &TweetTable,
    ) -> Result<ShardedAppendReceipt, QdbError> {
        check_placement(cluster, self.num_shards())?;
        let old_total = self.len();
        let new_total = old_total + batch.len();
        for (j, &id) in batch.id.iter().enumerate() {
            if id as usize != old_total + j {
                return Err(QdbError::Internal {
                    what: format!(
                        "append batch id {id} at offset {j} breaks the global row \
                         numbering (expected {})",
                        old_total + j
                    ),
                });
            }
        }
        let d = self.shards.len();
        // route rows, then capacity-check every shard before any splice
        let mut routed: Vec<Vec<usize>> = vec![Vec::new(); d];
        for (j, &id) in batch.id.iter().enumerate() {
            routed[self.policy.assign(id as usize, new_total, d)].push(j);
        }
        for (i, rows) in routed.iter().enumerate() {
            let shard = &self.shards[i];
            let needed = shard.host().len() + rows.len();
            if needed > shard.cap_rows {
                return Err(QdbError::CapacityExceeded {
                    needed,
                    cap: shard.cap_rows,
                });
            }
        }
        let epoch = self.epoch.get() + 1;
        let mut transfer_done = SimTime::ZERO;
        let mut bytes_total = 0usize;
        let mut retries = 0usize;
        let mut skipped_replicas = 0usize;
        for (i, rows) in routed.iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            let sub = host_rows(batch, rows.iter().copied());
            let bytes = sub.len() * ROW_BYTES;
            let shard = &self.shards[i];
            shard.host.borrow_mut().extend_from(&sub);
            for rep in &shard.replicas {
                if cluster.device(rep.device).is_down() {
                    skipped_replicas += 1;
                    continue;
                }
                // capacity was pre-checked against the same per-shard
                // allocation every replica shares, so this cannot fail
                rep.gpu.splice_rows(&sub)?;
                let label = format!("append:shard{i}->dev{}:epoch{epoch}", rep.device);
                let t = retry(3, &mut retries, |_| {
                    cluster
                        .host_to_device(rep.device, bytes, &label, SimTime::ZERO)
                        .map_err(QdbError::from)
                })?;
                bytes_total += bytes;
                if t.end.0 > transfer_done.0 {
                    transfer_done = t.end;
                }
            }
        }
        self.epoch.set(epoch);
        Ok(ShardedAppendReceipt {
            rows: batch.len(),
            bytes: bytes_total,
            transfer_done,
            epoch,
            transfer_retries: retries,
            skipped_replicas,
        })
    }

    /// Monotonic data epoch: 0 at partition time, +1 per completed
    /// append. Serving layers key their caches and rebuilt copies on it.
    pub fn epoch(&self) -> u64 {
        self.epoch.get()
    }

    /// The partition policy the table was built with.
    pub fn policy(&self) -> PartitionPolicy {
        self.policy
    }

    /// The replication factor the table was built with (clamped to the
    /// device count).
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Number of shards (== cluster devices).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard by device index.
    pub fn shard(&self, i: usize) -> &Shard {
        &self.shards[i]
    }

    /// Rows per shard, in device order.
    pub fn shard_rows(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.host().len()).collect()
    }

    /// Total rows across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.host().len()).sum()
    }

    /// True when every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The one placement check of every sharded entry point: `parts` (a
/// table's shards, or a raw primitive's parts) must be one per cluster
/// device. Checked before anything runs or splices, so a table
/// partitioned for a cluster of another size is a typed
/// [`SqlError::Unsupported`], never an index panic.
pub(crate) fn check_placement(cluster: &Cluster, parts: usize) -> Result<(), QdbError> {
    if parts != cluster.num_devices() {
        return Err(SqlError::Unsupported("a part count other than one per cluster device").into());
    }
    Ok(())
}

/// First device at or after `start` (ring order) that is not permanently
/// down; `None` when the whole cluster is lost.
pub(crate) fn first_healthy_from(cluster: &Cluster, start: usize) -> Option<usize> {
    let d = cluster.num_devices();
    (0..d)
        .map(|o| (start + o) % d)
        .find(|&i| !cluster.device(i).is_down())
}

/// A permanent fault of `device`: no retry can clear it, only failover.
fn lost(device: usize, what: impl Into<String>) -> QdbError {
    QdbError::DeviceFault {
        what: what.into(),
        transient: false,
        attempts: 1,
        device: Some(device),
    }
}

/// The typed error for a cluster with no healthy device left.
pub(crate) fn all_devices_down(device: usize) -> QdbError {
    lost(device, "every device in the cluster is permanently down")
}

/// Stamps `device` into an unattributed device fault so sharded ledger
/// entries name the hardware that failed, not just the kernel.
fn attribute_device(mut e: QdbError, device: usize) -> QdbError {
    if let QdbError::DeviceFault {
        device: d @ None, ..
    } = &mut e
    {
        *d = Some(device);
    }
    e
}

/// Gather-and-merge outcome shared by every sharded path.
pub(crate) struct Merged<T> {
    pub(crate) items: Vec<T>,
    pub(crate) transfer_done: SimTime,
    pub(crate) merge_time: SimTime,
    pub(crate) candidate_bytes: usize,
    pub(crate) transfer_retries: usize,
}

impl<T> Merged<T> {
    /// This gather's outcome after local passes of `local` and `retries`.
    fn outcome(self, local: Vec<SimTime>, retries: usize) -> ShardedTopK<T> {
        ShardedTopK {
            sim_time: self.transfer_done + self.merge_time,
            items: self.items,
            local,
            transfer_done: self.transfer_done,
            merge_time: self.merge_time,
            candidate_bytes: self.candidate_bytes,
            retries: retries + self.transfer_retries,
        }
    }

    /// A reduction that moved nothing over the interconnect.
    fn in_place(items: Vec<T>, merge_time: SimTime) -> Self {
        Merged {
            items,
            transfer_done: SimTime::ZERO,
            merge_time,
            candidate_bytes: 0,
            transfer_retries: 0,
        }
    }
}

/// The reduce every merge ends in: pads each run (descending, at most
/// `k_eff` long) into a whole `k_eff` run — a descending run with a
/// MIN-sentinel tail is a valid bitonic run — and reduces the runs on
/// `dev` with the bitonic run reducer, retrying transient faults (the
/// upload's included) up to `max_retries` times. Returns the top
/// `min(k, total)` items, the reduce's kernel time and the retries
/// spent.
fn reduce_runs<T: TopKItem>(
    dev: &Device,
    runs: Vec<Vec<T>>,
    k: usize,
    cfg: BitonicConfig,
    max_retries: usize,
) -> Result<(Vec<T>, SimTime, usize), QdbError> {
    let total: usize = runs.iter().map(Vec::len).sum();
    if total == 0 {
        return Ok((Vec::new(), SimTime::ZERO, 0));
    }
    let k_req = k.min(total);
    let k_eff = next_pow2(k_req);
    let mut flat: Vec<T> = Vec::with_capacity(runs.len() * k_eff);
    for mut run in runs {
        debug_assert!(run.len() <= k_eff, "candidate run exceeds k_eff");
        run.resize(k_eff, T::min_sentinel());
        flat.extend(run);
    }
    let mut retries = 0;
    let (items, time) = retry(max_retries, &mut retries, |_| {
        let buf = dev.try_upload(&flat)?;
        let log0 = dev.log_len();
        let r = bitonic_topk_from_runs(dev, &buf, flat.len(), k_req, cfg)?;
        Ok((r.items, dev.window_since(log0).time))
    })?;
    Ok((items, time, retries))
}

/// Ships each shard's delegates (descending-sorted, ≤ k items) from its
/// serving device to `merge_dev` and merges them with the bitonic run
/// reducer. `local[i]` is shard `i`'s local completion time — the
/// earliest its delegates can hit the wire; `serving[i]` is the device
/// that produced them (with replication, whichever healthy replica
/// served). The merge waits for every shard: a list that does not cross
/// the wire — resident on the merge device, or empty — is ready at its
/// shard's local completion, a shipped list at its transfer's end.
#[allow(clippy::too_many_arguments)]
fn ship_and_merge<T: TopKItem>(
    cluster: &Cluster,
    delegates: Vec<Vec<T>>,
    local: &[SimTime],
    serving: &[usize],
    merge_dev: usize,
    k: usize,
    cfg: BitonicConfig,
    max_retries: usize,
) -> Result<Merged<T>, QdbError> {
    // scatter-gather: every non-resident shard ships its delegates to
    // the merge device; transfers sharing a channel serialize there
    let mut transfer_done = SimTime::ZERO;
    let mut candidate_bytes = 0usize;
    let mut transfer_retries = 0usize;
    for (i, d) in delegates.iter().enumerate() {
        let ready = if serving[i] == merge_dev || d.is_empty() {
            local[i]
        } else {
            let bytes = d.len() * T::SIZE_BYTES;
            candidate_bytes += bytes;
            let label = format!("delegates:shard{i}");
            let t = retry(max_retries, &mut transfer_retries, |_| {
                cluster
                    .device_to_device(serving[i], merge_dev, bytes, &label, local[i])
                    .map_err(QdbError::from)
            })?;
            t.end
        };
        if ready.0 > transfer_done.0 {
            transfer_done = ready;
        }
    }
    let (items, merge_time, spent) =
        reduce_runs(cluster.device(merge_dev), delegates, k, cfg, max_retries)
            .map_err(|e| attribute_device(e, merge_dev))?;
    Ok(Merged {
        items,
        transfer_done,
        merge_time,
        candidate_bytes,
        transfer_retries: transfer_retries + spent,
    })
}

/// Where [`merge_id_runs`] reduces its runs.
pub(crate) enum MergeTarget<'a> {
    /// One device that already holds every run: no wire, and no retries
    /// (a fault fails the caller).
    Device(&'a Device),
    /// The cluster gather ([`ship_and_merge`]): run `i` ships from
    /// `serving[i]` once `local[i]` has passed and merges on `merge_dev`.
    Gather {
        cluster: &'a Cluster,
        local: &'a [SimTime],
        serving: &'a [usize],
        merge_dev: usize,
        max_retries: usize,
    },
    /// The CPU engine: the strategy's host top-k over the runs' union.
    Cpu { strategy: Strategy, threads: usize },
}

/// The one typed merge every answer assembled from parts ends in — a
/// sharded gather, a view's delta folded into its standing run. Turns
/// ranked id runs into the shape's item type (`Kv<u32>` for
/// [`Shape::Top`], `Rev<Kv<u32>>` for [`Shape::Bottom`], `Kv<f32>` for
/// [`Shape::Ranked`]) and reduces them to the query's top-k on `target`;
/// a [`Shape::GroupCount`] does not merge.
/// `cols(run, id)` returns the id's `(retweet_count, likes_count)`. Every
/// item carries the full item order (key ties broken by id), so the
/// result is the top-k of the runs' union wherever it reduces. Returns
/// the ranked ids with the reduction's cost.
pub(crate) fn merge_id_runs(
    q: &Query,
    runs: &[Vec<u32>],
    cols: impl Fn(usize, u32) -> Result<(u32, u32), QdbError>,
    target: MergeTarget<'_>,
) -> Result<Merged<u32>, QdbError> {
    fn typed<T: RowItem>(
        runs: &[Vec<u32>],
        cols: impl Fn(usize, u32) -> Result<(u32, u32), QdbError>,
        item: impl Fn(u32, u32, u32) -> T,
        k: usize,
        target: MergeTarget<'_>,
    ) -> Result<Merged<u32>, QdbError> {
        let mut typed_runs: Vec<Vec<T>> = Vec::with_capacity(runs.len());
        for (i, run) in runs.iter().enumerate() {
            let mut t = Vec::with_capacity(run.len());
            for &v in run {
                let (retweets, likes) = cols(i, v)?;
                t.push(item(retweets, likes, v));
            }
            typed_runs.push(t);
        }
        let cfg = BitonicConfig::default();
        let m = match target {
            MergeTarget::Device(dev) => {
                let (items, merge_time, _) = reduce_runs(dev, typed_runs, k, cfg, 0)?;
                Merged::in_place(items, merge_time)
            }
            MergeTarget::Gather {
                cluster,
                local,
                serving,
                merge_dev,
                max_retries,
            } => ship_and_merge(
                cluster,
                typed_runs,
                local,
                serving,
                merge_dev,
                k,
                cfg,
                max_retries,
            )?,
            MergeTarget::Cpu { strategy, threads } => Merged::in_place(
                strategy_topk(strategy, &typed_runs.concat(), k, threads),
                SimTime::ZERO,
            ),
        };
        Ok(Merged {
            items: m.items.iter().map(T::id).collect(),
            transfer_done: m.transfer_done,
            merge_time: m.merge_time,
            candidate_bytes: m.candidate_bytes,
            transfer_retries: m.transfer_retries,
        })
    }
    let k = q.limit;
    match &q.shape {
        Shape::Top(_) => typed(runs, cols, |rt, _, v| Kv::new(rt, v), k, target),
        Shape::Bottom(_) => typed(runs, cols, |rt, _, v| Rev(Kv::new(rt, v)), k, target),
        Shape::Ranked => typed(
            runs,
            cols,
            |rt, likes, v| Kv::new(rt as f32 + 0.5 * likes as f32, v),
            k,
            target,
        ),
        Shape::GroupCount => Err(GROUP_COUNTS_DO_NOT_MERGE.into()),
    }
}

/// The `(retweet_count, likes_count)` of global id `id`, found by binary
/// search in shard `run`'s strictly increasing id column — or, for a run
/// past the shards (a view's standing run), in every shard. A miss is a
/// bug in the gather path, reported as a typed [`QdbError::Internal`] —
/// never a panic, so the no-panics contract holds on the gather too.
fn shard_cols(table: &ShardedTable, run: usize, id: u32) -> Result<(u32, u32), QdbError> {
    let d = table.num_shards();
    let probe = if run < d { run..run + 1 } else { 0..d };
    for i in probe {
        if let Some(counts) = Columns::of(&table.shard(i).host()).counts_of(id) {
            return Ok(counts);
        }
    }
    Err(QdbError::Internal {
        what: format!("id {id} is not resident in its shard"),
    })
}

/// One shard's local answer for every shard of a sharded read, in shard
/// order, ready for [`Scatter::gather`].
#[derive(Default)]
pub(crate) struct Scatter {
    runs: Vec<Vec<u32>>,
    local: Vec<SimTime>,
    serving: Vec<usize>,
    retries: usize,
}

impl Scatter {
    pub(crate) fn push(&mut self, ids: Vec<u32>, time: SimTime, device: usize) {
        self.runs.push(ids);
        self.local.push(time);
        self.serving.push(device);
    }

    /// Ships every run to `merge_dev` and merges them with the typed
    /// merge ([`merge_id_runs`]).
    pub(crate) fn gather(
        &self,
        cluster: &Cluster,
        table: &ShardedTable,
        q: &Query,
        merge_dev: usize,
        max_retries: usize,
    ) -> Result<Merged<u32>, QdbError> {
        merge_id_runs(
            q,
            &self.runs,
            |run, id| shard_cols(table, run, id),
            MergeTarget::Gather {
                cluster,
                local: &self.local,
                serving: &self.serving,
                merge_dev,
                max_retries,
            },
        )
    }
}

/// One shard's local answer: its ranked ids, when they were ready, the
/// device that produced them, the retries spent, and whether a replica
/// other than the routed one served (failover on the serving path).
struct ShardAnswer {
    ids: Vec<u32>,
    time: SimTime,
    device: usize,
    retries: usize,
    failed_over: bool,
}

/// The one shard scan every sharded read goes through: runs `q` on shard
/// `i`'s copy `gpu` held by `device` — the whole copy, or with
/// `delta_from` only its rows from there to the shard's `rows` (a
/// view's delta) — with up to `max_retries` transient retries, and
/// stamps the device into a final fault.
#[allow(clippy::too_many_arguments)]
fn scan_copy(
    cluster: &Cluster,
    i: usize,
    device: usize,
    gpu: &GpuTweetTable,
    rows: usize,
    delta_from: Option<usize>,
    q: &Query,
    strategy: Strategy,
    max_retries: usize,
) -> Result<ShardAnswer, QdbError> {
    let dev = cluster.device(device);
    if dev.is_down() {
        return Err(lost(
            device,
            format!("shard {i}: dev{device} is permanently down"),
        ));
    }
    let q = q.clamped(rows - delta_from.unwrap_or(0));
    let mut retries = 0;
    let r = retry(max_retries, &mut retries, |_| match delta_from {
        None => execute(dev, gpu, &q, strategy),
        Some(lo) => execute(dev, &gpu.device_slice(dev, lo, rows)?, &q, strategy),
    })
    .map_err(|e| attribute_device(e, device))?;
    Ok(ShardAnswer {
        ids: r.ids,
        time: r.kernel_time,
        device,
        retries,
        failed_over: false,
    })
}

/// Scans every shard on its first healthy replica, primary first (which
/// copy serves cannot change the answer, only where its delegates
/// start): the whole shard, or with `delta_from` only the rows past each
/// shard's watermark. A shard with nothing to scan contributes an empty
/// run resident on `merge_dev`.
pub(crate) fn scatter(
    cluster: &Cluster,
    table: &ShardedTable,
    q: &Query,
    strategy: Strategy,
    delta_from: Option<&[usize]>,
    merge_dev: usize,
    max_retries: usize,
) -> Result<Scatter, QdbError> {
    let mut s = Scatter::default();
    for i in 0..table.num_shards() {
        let shard = table.shard(i);
        let rows = shard.host().len();
        let from = delta_from.map(|done| done[i]);
        if rows <= from.unwrap_or(0) {
            s.push(Vec::new(), SimTime::ZERO, merge_dev);
            continue;
        }
        let Some(rep) = shard
            .replicas()
            .iter()
            .find(|rep| !cluster.device(rep.device).is_down())
        else {
            let what = format!("shard {i}: every replica device is permanently down");
            return Err(lost(shard.primary_device(), what));
        };
        let a = scan_copy(
            cluster,
            i,
            rep.device,
            &rep.gpu,
            rows,
            from,
            q,
            strategy,
            max_retries,
        )?;
        s.retries += a.retries;
        s.push(a.ids, a.time, a.device);
    }
    Ok(s)
}

/// Outcome of one sharded top-k: a raw primitive's items, or a sharded
/// SQL query's ranked ids ([`execute_sharded`]).
#[derive(Debug, Clone)]
pub struct ShardedTopK<T> {
    /// The merged top-k, descending — bit-identical to the single-device
    /// result over the concatenated input.
    pub items: Vec<T>,
    /// Per-shard local kernel time (shards run concurrently).
    pub local: Vec<SimTime>,
    /// When every shard's delegates were on the merge device: the last
    /// transfer's end, or a shard whose list did not ship finishing later.
    pub transfer_done: SimTime,
    /// Kernel time of the delegate merge on device 0.
    pub merge_time: SimTime,
    /// End-to-end modeled time: `max(local, transfers) + merge`.
    pub sim_time: SimTime,
    /// Delegate bytes shipped over the interconnect.
    pub candidate_bytes: usize,
    /// Local-pass, transfer and merge retries consumed against fault
    /// plans.
    pub retries: usize,
}

/// Raw sharded top-k over pre-partitioned items: each `parts[i]` runs the
/// bitonic top-k locally on device `i`, delegates ship to device 0, and
/// the runs merge there. Returns the largest `k` items, descending.
/// `parts` must hold one part per cluster device.
pub fn sharded_topk<T: TopKItem>(
    cluster: &Cluster,
    parts: &[Vec<T>],
    k: usize,
    cfg: BitonicConfig,
    max_retries: usize,
) -> Result<ShardedTopK<T>, QdbError> {
    sharded_local_topk(cluster, parts, k, cfg, max_retries, |dev, buf, k| {
        bitonic_topk(dev, buf, k, cfg)
    })
}

/// Delegates of delegates: like [`sharded_topk`], but each shard runs
/// *delegate select* locally — per-subrange delegates, threshold over
/// the delegate set, refinement of the contributing subranges — and
/// ships its k local winners (themselves a delegate list) to device 0,
/// where the same bitonic run merge produces the global result. The
/// two-level decomposition composes: the shard-level delegate list is
/// exact (tie-safe threshold, full item order), so the merged result is
/// bit-identical to the single-device answer, while each shard's global
/// traffic drops to its refinement volume once its index is warm.
pub fn sharded_delegate_topk<T: TopKItem>(
    cluster: &Cluster,
    parts: &[Vec<T>],
    k: usize,
    cfg: DelegateConfig,
    max_retries: usize,
) -> Result<ShardedTopK<T>, QdbError> {
    sharded_local_topk(
        cluster,
        parts,
        k,
        cfg.bitonic,
        max_retries,
        |dev, buf, k| delegate_select_topk(dev, buf, k, cfg),
    )
}

/// The body both raw primitives share: part `i` runs `local_topk` on
/// device `i` (or, when that device is down, the next healthy one) with
/// bounded transient retries, and the local winners gather and merge
/// under `merge_cfg`. A part count other than the cluster's device count
/// is a typed [`SqlError::Unsupported`].
fn sharded_local_topk<T: TopKItem>(
    cluster: &Cluster,
    parts: &[Vec<T>],
    k: usize,
    merge_cfg: BitonicConfig,
    max_retries: usize,
    local_topk: impl Fn(&Device, &GpuBuffer<T>, usize) -> Result<TopKResult<T>, TopKError>,
) -> Result<ShardedTopK<T>, QdbError> {
    check_placement(cluster, parts.len())?;
    let Some(merge_dev) = first_healthy_from(cluster, 0) else {
        return Err(all_devices_down(0));
    };
    let mut delegates: Vec<Vec<T>> = Vec::with_capacity(parts.len());
    let mut local = Vec::with_capacity(parts.len());
    let mut serving = Vec::with_capacity(parts.len());
    let mut retries = 0usize;
    for (i, part) in parts.iter().enumerate() {
        if part.is_empty() {
            delegates.push(Vec::new());
            local.push(SimTime::ZERO);
            serving.push(merge_dev);
            continue;
        }
        // a part whose home device is down runs on the next healthy one
        let home = first_healthy_from(cluster, i).unwrap_or(merge_dev);
        let dev = cluster.device(home);
        serving.push(home);
        let (items, time) = retry(max_retries, &mut retries, |_| {
            let log0 = dev.log_len();
            let buf = dev.try_upload(part)?;
            let r = local_topk(dev, &buf, k.min(part.len()))?;
            Ok((r.items, dev.window_since(log0).time))
        })
        .map_err(|e| attribute_device(e, home))?;
        delegates.push(items);
        local.push(time);
    }
    let merged = ship_and_merge(
        cluster,
        delegates,
        &local,
        &serving,
        merge_dev,
        k,
        merge_cfg,
        max_retries,
    )?;
    Ok(merged.outcome(local, retries))
}

/// Executes a parsed query against a sharded table: the per-shard
/// pipeline runs locally on each device (with `max_retries` bounded
/// retries against transient faults), the k delegate candidates per
/// shard ship to device 0, and the bitonic run reducer merges them.
///
/// A shape whose per-shard runs do not merge ([`Shape::runs_merge`]:
/// `GROUP BY`, whose per-shard counts would silently undercount) is
/// rejected with [`SqlError::Unsupported`].
///
/// For the bitonic strategies the result is bit-identical to
/// single-device execution; `StageSort`'s radix pass orders key ties by
/// arrival, so its delegate *sets* may differ at duplicate-key
/// boundaries (keys still match).
pub fn execute_sharded(
    cluster: &Cluster,
    table: &ShardedTable,
    q: &Query,
    strategy: Strategy,
    max_retries: usize,
) -> Result<ShardedTopK<u32>, QdbError> {
    check_placement(cluster, table.num_shards())?;
    q.shape.runs_merge()?;
    q.check_limit(table.len())?;
    let Some(merge_dev) = first_healthy_from(cluster, 0) else {
        return Err(all_devices_down(0));
    };
    let s = scatter(cluster, table, q, strategy, None, merge_dev, max_retries)?;
    let m = s.gather(cluster, table, q, merge_dev, max_retries)?;
    Ok(m.outcome(s.local, s.retries))
}

/// One sharded query's outcome from a drain.
#[derive(Debug, Clone)]
pub struct ShardedServed {
    /// The submission ticket.
    pub ticket: QueryTicket,
    /// The original SQL text.
    pub sql: String,
    /// Merged result ids (empty when `error` is set).
    pub ids: Vec<u32>,
    /// End-to-end latency: slowest shard + gather + merge.
    pub latency: SimTime,
    /// Why the query did not complete (`None` = completed). A failed
    /// shard fails the whole query — results are never truncated to the
    /// surviving shards.
    pub error: Option<QdbError>,
    /// The deepest degradation rung any shard used for this query.
    pub degrade: DegradeLevel,
    /// Retries across all shards plus transfer/merge retries.
    pub retries: usize,
    /// The transfer/merge share of `retries` (the shard share is already
    /// in the per-lane ledgers).
    pub transfer_retries: usize,
    /// Per-shard executions this query served from a non-routed replica
    /// after the routed device failed.
    pub failovers: usize,
    /// True when the merged result came from the epoch-tagged cache —
    /// no sub-query touched a shard (zero device work, zero latency).
    pub cached: bool,
}

impl ShardedServed {
    /// True when the query produced a merged result.
    pub fn completed(&self) -> bool {
        self.error.is_none()
    }
}

/// Everything one [`ShardedServer::drain`] produced.
#[derive(Debug, Clone)]
pub struct ShardedLoadReport {
    /// Per-query outcomes, in submission order.
    pub queries: Vec<ShardedServed>,
    /// Aggregated resilience ledger: per-lane retries and faults summed,
    /// with completion/failure counted at the sharded-query level.
    pub resilience: ResilienceStats,
    /// Per-lane drain reports, shard-major then replica order (with
    /// `r = 1` this is exactly one report per shard).
    pub shard_reports: Vec<LoadReport>,
    /// Completion time of the slowest query (0 when none completed).
    pub makespan: SimTime,
    /// Per-device health snapshot after this drain (breaker states,
    /// consecutive failures, trip counts).
    pub health: Vec<DeviceHealth>,
}

/// Breaker trip threshold: consecutive failed sub-queries attributed to
/// one device before its breaker opens.
const BREAKER_THRESHOLD: usize = 3;

/// Simulated cooldown an open breaker waits before admitting a
/// half-open probe.
const BREAKER_COOLDOWN: SimTime = SimTime(1e-3);

/// Circuit-breaker state of one device on the sharded serving path.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum BreakerState {
    /// Healthy: queries route here normally.
    #[default]
    Closed,
    /// Tripped: no queries route here until the cooldown elapses.
    Open {
        /// Simulated time at which a half-open probe is admitted.
        until: SimTime,
    },
    /// Cooldown elapsed: the next routed query is a probe — success
    /// recloses the breaker, failure re-opens it.
    HalfOpen,
}

impl BreakerState {
    /// Stable name for ledgers and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open { .. } => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// Per-device serving health the sharded server tracks across drains.
#[derive(Debug, Clone, Default)]
pub struct DeviceHealth {
    /// Consecutive failed sub-queries attributed to this device.
    pub consecutive_failures: usize,
    /// The breaker's current state.
    pub state: BreakerState,
    /// Times the breaker has tripped open.
    pub trips: usize,
    /// Whether the device was seen permanently down at routing time.
    pub down: bool,
}

/// Where one shard's sub-query was routed at submission.
enum ShardRoute {
    /// Queued on the lane of the shard's `replica`, with the shard's
    /// LIMIT (the query's, clamped to the shard's rows).
    Queued { replica: usize, limit: usize },
    /// No replica lane was routable; the query runs directly on a
    /// rebuilt copy at drain.
    Direct { device: usize },
    /// The shard is empty: contributes nothing.
    Empty,
    /// No healthy copy exists anywhere: fails loudly at drain.
    Dead { device: usize },
}

/// A serving front-end over a sharded table: one admission front plus
/// one device lane per (shard, replica), each lane with its own streams,
/// retry budget and degradation ladder. Queries route to every shard at
/// submission (the first healthy replica) and gather-merge at drain.
///
/// Permanent device loss is survived, not retried: a per-device
/// consecutive-failure circuit breaker steers routing away from a
/// failing device, drain-time failover re-serves a failed sub-query
/// from any healthy replica, and lost partitions are rebuilt from their
/// pristine host copies onto surviving devices for subsequent
/// submissions. All of it is ledgered ([`ResilienceStats::failovers`],
/// [`ResilienceStats::rebuilds`], [`ResilienceStats::breaker_trips`],
/// [`ShardedLoadReport::health`]).
pub struct ShardedServer<'a> {
    cluster: &'a Cluster,
    table: &'a ShardedTable,
    front: Front,
    /// One lane per (shard, replica), shard-major: lane `i·r + j` serves
    /// `table.shard(i).replicas()[j]`; empty for a mismatched placement.
    lanes: Vec<Lane<'a>>,
    /// Each admitted query's per-shard routes, parallel to the front's
    /// queue (a cache hit routes nowhere).
    routes: Vec<Vec<ShardRoute>>,
    /// Rebuilt copies per shard: `(device, re-materialized table)`.
    /// Owned here (not by the table), served directly at drain.
    rebuilt: Vec<Vec<(usize, GpuTweetTable)>>,
    /// Table epoch the rebuilt copies were materialized at. An append
    /// bumps the table past this; the next submission discards every
    /// rebuilt copy rather than serve pre-append rows (replicas held by
    /// the table itself are spliced in place and never go stale).
    rebuilt_epoch: u64,
    health: Vec<DeviceHealth>,
    /// Simulated clock the breaker runs on; advances by each drain's
    /// makespan.
    sim_now: SimTime,
    max_retries: usize,
}

impl<'a> ShardedServer<'a> {
    /// Creates one lane per (shard, replica) pair. A table partitioned
    /// for a cluster of another size gets no lanes, and
    /// [`ShardedServer::submit`] returns the placement error.
    pub fn new(cluster: &'a Cluster, table: &'a ShardedTable, cfg: ServerConfig) -> Self {
        let lanes = match check_placement(cluster, table.num_shards()) {
            Ok(()) => (0..table.num_shards())
                .flat_map(|i| table.shard(i).replicas())
                .map(|rep| Lane::new(cluster.device(rep.device), &rep.gpu, &cfg))
                .collect(),
            Err(_) => Vec::new(),
        };
        ShardedServer {
            cluster,
            table,
            lanes,
            routes: Vec::new(),
            rebuilt: (0..table.num_shards()).map(|_| Vec::new()).collect(),
            rebuilt_epoch: table.epoch(),
            health: vec![DeviceHealth::default(); cluster.num_devices()],
            sim_now: SimTime::ZERO,
            max_retries: cfg.max_retries,
            front: Front::new(cfg),
        }
    }

    /// Per-device health (breaker state, consecutive failures, trips).
    pub fn health(&self) -> &[DeviceHealth] {
        &self.health
    }

    /// Discards rebuilt copies materialized before the last append:
    /// they froze the pre-append rows, and serving them would break
    /// bit-identity with the extended table. Replication is restored
    /// from the current host columns at the next drain.
    fn discard_stale_rebuilds(&mut self) {
        let epoch = self.table.epoch();
        if epoch != self.rebuilt_epoch {
            for r in &mut self.rebuilt {
                r.clear();
            }
            self.rebuilt_epoch = epoch;
        }
    }

    /// Every copy of shard `i` as `(device, copy)`, in serving order:
    /// the table's replicas, primary first, then the copies rebuilt
    /// here. Routing, direct execution, failover and rebuild all look
    /// copies up through this one list.
    fn copies(&self, i: usize) -> impl Iterator<Item = (usize, &GpuTweetTable)> + '_ {
        let replicas = self.table.shard(i).replicas().iter();
        replicas
            .map(|rep| (rep.device, &rep.gpu))
            .chain(self.rebuilt[i].iter().map(|(d, gpu)| (*d, gpu)))
    }

    /// Whether queries may route to `device` right now: not permanently
    /// down, breaker not open (an elapsed cooldown moves the breaker to
    /// half-open and admits the probe).
    fn device_routable(&mut self, device: usize) -> bool {
        if self.cluster.device(device).is_down() {
            self.health[device].down = true;
            return false;
        }
        match self.health[device].state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open { until } => {
                if self.sim_now.0 >= until.0 {
                    self.health[device].state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a failed sub-query on `device`: trips the breaker after
    /// [`BREAKER_THRESHOLD`] consecutive failures; a failed half-open
    /// probe re-opens immediately.
    fn note_failure(&mut self, device: usize) {
        let reopen = self.sim_now + BREAKER_COOLDOWN;
        let h = &mut self.health[device];
        h.consecutive_failures += 1;
        match h.state {
            BreakerState::HalfOpen => {
                h.state = BreakerState::Open { until: reopen };
                h.trips += 1;
            }
            BreakerState::Closed if h.consecutive_failures >= BREAKER_THRESHOLD => {
                h.state = BreakerState::Open { until: reopen };
                h.trips += 1;
            }
            _ => {}
        }
    }

    /// Records a served sub-query on `device`: resets the failure streak
    /// and recloses a half-open breaker.
    fn note_success(&mut self, device: usize) {
        let h = &mut self.health[device];
        h.consecutive_failures = 0;
        if matches!(h.state, BreakerState::HalfOpen) {
            h.state = BreakerState::Closed;
        }
    }

    /// Admits one SQL query through the front (one queue bound for the
    /// whole query, checked before any routing) and routes it to every
    /// shard: the first routable replica's lane, else a routable rebuilt
    /// copy. A cache hit routes nowhere.
    pub fn submit(&mut self, sql: &str) -> Result<QueryTicket, QdbError> {
        check_placement(self.cluster, self.table.num_shards())?;
        self.discard_stale_rebuilds();
        let (rows, epoch) = (self.table.len(), self.table.epoch());
        let p = self
            .front
            .admit(sql, SubmitOptions::default(), rows, epoch, true)?;
        let (ticket, limit, hit) = (p.ticket, p.query.limit, p.cached.is_some());
        let routes = if hit {
            Vec::new()
        } else {
            (0..self.table.num_shards())
                .map(|i| self.route(i, limit))
                .collect()
        };
        self.routes.push(routes);
        Ok(ticket)
    }

    /// Routes shard `i`'s sub-query to its first routable copy (primary
    /// first, so the all-healthy path is identical to the unreplicated
    /// one).
    fn route(&mut self, i: usize, limit: usize) -> ShardRoute {
        let table = self.table;
        let shard = table.shard(i);
        let rows = shard.host().len();
        if rows == 0 {
            return ShardRoute::Empty;
        }
        let devices: Vec<usize> = self.copies(i).map(|(d, _)| d).collect();
        match devices.iter().position(|&d| self.device_routable(d)) {
            Some(j) if j < shard.replicas().len() => ShardRoute::Queued {
                replica: j,
                limit: limit.min(rows),
            },
            Some(j) => ShardRoute::Direct { device: devices[j] },
            None => ShardRoute::Dead {
                device: shard.primary_device(),
            },
        }
    }

    /// Runs shard `i`'s sub-query directly on its copy on `device` (a
    /// rebuilt copy, or a replica outside its lane during failover)
    /// through the one shard scan, with bounded transient retries.
    fn direct_execute(&self, i: usize, device: usize, q: &Query) -> Result<ShardAnswer, QdbError> {
        let gpu = self
            .copies(i)
            .find(|&(d, _)| d == device)
            .map(|(_, gpu)| gpu)
            .ok_or_else(|| QdbError::Internal {
                what: format!("shard {i} has no copy on dev{device}"),
            })?;
        let rows = self.table.shard(i).host().len();
        scan_copy(
            self.cluster,
            i,
            device,
            gpu,
            rows,
            None,
            q,
            DEFAULT_STRATEGY,
            self.max_retries,
        )
    }

    /// Re-serves shard `i` after `device` failed it: notes the failure
    /// and fails over to any other healthy copy. A failed rescue reports
    /// `cause` when there is one, else the failover's own error.
    fn rescue(
        &mut self,
        i: usize,
        q: &Query,
        device: usize,
        cause: Option<QdbError>,
    ) -> Result<ShardAnswer, QdbError> {
        self.note_failure(device);
        let candidates: Vec<usize> = self
            .copies(i)
            .map(|(d, _)| d)
            .filter(|&d| d != device)
            .collect();
        let mut last: Option<QdbError> = None;
        for d in candidates {
            if self.cluster.device(d).is_down() {
                self.health[d].down = true;
                continue;
            }
            match self.direct_execute(i, d, q) {
                Ok(answer) => {
                    self.note_success(d);
                    return Ok(ShardAnswer {
                        failed_over: true,
                        ..answer
                    });
                }
                Err(e) => {
                    self.note_failure(d);
                    last = Some(e);
                }
            }
        }
        Err(cause.or(last).unwrap_or_else(|| {
            let what = format!("shard {i}: no healthy replica to fail over to");
            lost(self.table.shard(i).primary_device(), what)
        }))
    }

    /// Restores each shard's replication after device loss: a shard with
    /// fewer live copies than the table's replication factor is
    /// re-materialized from its pristine host columns onto the next
    /// healthy device not already holding a copy, charged as a real
    /// host→device bulk transfer. Rebuilt copies serve *subsequent*
    /// submissions and failovers — queries already resolved this drain
    /// are not retroactively saved, which is what keeps an `r = 1` loss
    /// loud instead of silently absorbed. A shard's rebuild stops when
    /// its target device has no room for the copy or the transfer fails.
    fn rebuild_lost_shards(&mut self) -> usize {
        let d = self.cluster.num_devices();
        let mut rebuilds = 0usize;
        for i in 0..self.table.num_shards() {
            let shard = self.table.shard(i);
            if shard.host().is_empty() {
                continue;
            }
            let mut live: Vec<usize> = self
                .copies(i)
                .map(|(dv, _)| dv)
                .filter(|&dv| !self.cluster.device(dv).is_down())
                .collect();
            while live.len() < self.table.replication() {
                let target = (0..d)
                    .map(|o| (i + o) % d)
                    .find(|&dv| !self.cluster.device(dv).is_down() && !live.contains(&dv));
                let Some(target) = target else { break };
                let dev = self.cluster.device(target);
                let Ok(gpu) =
                    GpuTweetTable::try_upload_with_capacity(dev, &shard.host(), shard.cap_rows)
                else {
                    break;
                };
                let label = format!("rebuild:shard{i}");
                let bytes = shard.host().len() * ROW_BYTES;
                let shipped = retry(self.max_retries, &mut 0, |_| {
                    self.cluster
                        .host_to_device(target, bytes, &label, SimTime::ZERO)
                        .map_err(QdbError::from)
                });
                if shipped.is_err() {
                    break;
                }
                self.rebuilt[i].push((target, gpu));
                rebuilds += 1;
                live.push(target);
            }
        }
        rebuilds
    }

    /// Number of queries admitted and not yet drained.
    pub fn pending_len(&self) -> usize {
        self.front.pending.len()
    }

    /// Drains every lane, resolves each query's per-shard outcome —
    /// failing over to a healthy replica where the routed device failed
    /// or died mid-drain — gathers delegates over the interconnect,
    /// merges on the first healthy device, updates the breaker ledger
    /// and rebuilds lost partitions for subsequent submissions.
    pub fn drain(&mut self) -> ShardedLoadReport {
        if check_placement(self.cluster, self.table.num_shards()).is_err() {
            // a mismatched placement admits nothing (see `submit`)
            return ShardedLoadReport {
                queries: Vec::new(),
                resilience: ResilienceStats::default(),
                shard_reports: Vec::new(),
                makespan: SimTime::ZERO,
                health: self.health.clone(),
            };
        }
        self.discard_stale_rebuilds();
        let pending = std::mem::take(&mut self.front.pending);
        let routes = std::mem::take(&mut self.routes);
        let r = self.table.replication();
        // each lane's list: its sub-queries with the shard's LIMIT, in
        // submission order; every lane drains, empty ones included,
        // before any direct execution, failover or gather
        let mut lists: Vec<Vec<Pending>> = self.lanes.iter().map(|_| Vec::new()).collect();
        for (p, routes) in pending.iter().zip(&routes) {
            for (i, route) in routes.iter().enumerate() {
                if let ShardRoute::Queued { replica, limit } = *route {
                    lists[i * r + replica].push(Pending {
                        sql: p.sql.clone(),
                        query: p.query.clamped(limit),
                        cached: None,
                        ..*p
                    });
                }
            }
        }
        // a lane whose device is already down runs nothing: its list is
        // refused, and each sub-query fails over below
        let devices = (0..self.table.num_shards())
            .flat_map(|i| self.table.shard(i).replicas())
            .map(|rep| rep.device);
        let shard_reports: Vec<LoadReport> = self
            .lanes
            .iter()
            .zip(lists)
            .zip(devices)
            .map(|((lane, list), device)| {
                if self.cluster.device(device).is_down() {
                    lane.refuse(
                        list,
                        &lost(
                            device,
                            format!("dev{device} was down when the drain started"),
                        ),
                    )
                } else {
                    lane.drain(list)
                }
            })
            .collect();
        let mut served: Vec<_> = shard_reports.iter().map(|r| r.queries.iter()).collect();

        let trips_before: usize = self.health.iter().map(|h| h.trips).sum();
        let merge_dev = first_healthy_from(self.cluster, 0);
        let fallback_dev = merge_dev.unwrap_or(0);
        let mut queries = Vec::with_capacity(pending.len());
        for (p, routes) in pending.into_iter().zip(routes) {
            let q = p.query;
            let mut sq = ShardedServed {
                ticket: p.ticket,
                sql: p.sql,
                // resolved from the epoch-tagged cache at submission: no
                // sub-queries ran, nothing shipped, zero latency
                cached: p.cached.is_some(),
                ids: p.cached.unwrap_or_default(),
                latency: SimTime::ZERO,
                error: None,
                degrade: DegradeLevel::None,
                retries: 0,
                transfer_retries: 0,
                failovers: 0,
            };
            if sq.cached {
                queries.push(sq);
                continue;
            }
            let mut shards = Scatter::default();
            // resolve each shard; every failure path (queued error,
            // stranded result, direct miss) funnels through one rescue
            for (i, route) in routes.iter().enumerate() {
                let answer = match *route {
                    ShardRoute::Empty => {
                        shards.push(Vec::new(), SimTime::ZERO, fallback_dev);
                        continue;
                    }
                    ShardRoute::Dead { device } => Err(lost(
                        device,
                        format!("shard {i}: no healthy replica to serve from"),
                    )),
                    ShardRoute::Direct { device } => match self.direct_execute(i, device, &q) {
                        Ok(answer) => {
                            self.note_success(device);
                            Ok(answer)
                        }
                        Err(e) => self.rescue(i, &q, device, Some(e)),
                    },
                    ShardRoute::Queued { replica, .. } => match served[i * r + replica].next() {
                        // a lane reports every entry of its list, in order
                        None => Err(QdbError::Internal {
                            what: format!("shard {i}: its lane reported no answer"),
                        }),
                        Some(served) => {
                            let device = self.table.shard(i).replicas()[replica].device;
                            sq.retries += served.retries;
                            sq.degrade = sq.degrade.max(served.degrade);
                            match &served.error {
                                Some(e) => match attribute_device(e.clone(), device) {
                                    e @ QdbError::DeviceFault { .. } => {
                                        self.rescue(i, &q, device, Some(e))
                                    }
                                    // a deadline miss is final — re-running
                                    // it elsewhere would answer after the
                                    // deadline
                                    e => {
                                        self.note_failure(device);
                                        Err(e)
                                    }
                                },
                                // the device answered but died before its
                                // delegates could ship: the result is lost
                                // with it — re-serve from a healthy replica
                                None if self.cluster.device(device).is_down() => {
                                    self.rescue(i, &q, device, None)
                                }
                                None => {
                                    self.note_success(device);
                                    Ok(ShardAnswer {
                                        ids: served.result.ids.clone(),
                                        time: served.timing.total,
                                        device,
                                        retries: 0,
                                        failed_over: false,
                                    })
                                }
                            }
                        }
                    },
                };
                match answer {
                    Ok(a) => {
                        sq.retries += a.retries;
                        sq.failovers += usize::from(a.failed_over);
                        shards.push(a.ids, a.time, a.device);
                    }
                    Err(e) => {
                        // a failed shard with no healthy copy fails the
                        // whole query: no silent truncation to the
                        // surviving shards
                        sq.error.get_or_insert(e);
                        shards.push(Vec::new(), SimTime::ZERO, fallback_dev);
                    }
                }
            }
            let merged = match (sq.error.take(), merge_dev) {
                (Some(e), _) => Err(e),
                (None, None) => Err(all_devices_down(0)),
                (None, Some(md)) => {
                    shards.gather(self.cluster, self.table, &q, md, self.max_retries)
                }
            };
            match merged {
                Ok(m) => {
                    sq.ids = m.items;
                    sq.latency = m.transfer_done + m.merge_time;
                    sq.transfer_retries = m.transfer_retries;
                    sq.retries += m.transfer_retries;
                }
                Err(e) => sq.error = Some(e),
            }
            queries.push(sq);
        }

        // shard-level retries come from the lanes' ledgers; only the
        // transfer/merge share is new information
        let mut resilience = ResilienceStats::default();
        for rep in &shard_reports {
            resilience.retries += rep.resilience.retries;
            resilience.faults_injected += rep.resilience.faults_injected;
        }
        for sq in &queries {
            resilience.tally(sq.error.as_ref(), sq.degrade);
            resilience.retries += sq.transfer_retries;
            resilience.failovers += sq.failovers;
        }
        let fresh = queries.iter().filter(|sq| sq.completed() && !sq.cached);
        self.front.settle(
            self.table.epoch(),
            fresh.map(|sq| (sq.sql.as_str(), sq.ids.as_slice())),
            &mut resilience,
        );
        let makespan = queries
            .iter()
            .filter(|q| q.completed())
            .map(|q| q.latency)
            .fold(SimTime::ZERO, |a, b| if b.0 > a.0 { b } else { a });

        // advance the simulated clock the breaker cooldown runs on: the
        // slowest of the lane drains and this drain's merges
        let mut advance = makespan;
        for rep in &shard_reports {
            if rep.makespan.0 > advance.0 {
                advance = rep.makespan;
            }
        }
        self.sim_now += advance;

        // restore replication for what this drain revealed as lost
        resilience.rebuilds = self.rebuild_lost_shards();
        resilience.breaker_trips =
            self.health.iter().map(|h| h.trips).sum::<usize>() - trips_before;
        // the report's health snapshot reflects losses this drain saw,
        // not just the ones the next submission would discover
        for (d, h) in self.health.iter_mut().enumerate() {
            if self.cluster.device(d).is_down() {
                h.down = true;
            }
        }

        ShardedLoadReport {
            queries,
            resilience,
            shard_reports,
            makespan,
            health: self.health.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parse;
    use crate::stream::{TopKView, ViewConfig};
    use datagen::dist::{Distribution, Uniform};
    use simt::topology::ClusterSpec;
    use simt::{Device, FaultPlan};

    fn keyed(dist: &Uniform, n: usize, seed: u64) -> Vec<Kv<f32>> {
        dist.generate(n, seed)
            .into_iter()
            .enumerate()
            .map(|(i, k)| Kv::new(k, i as u32))
            .collect()
    }

    fn partition_items<T: Clone>(
        items: &[T],
        shards: usize,
        policy: PartitionPolicy,
    ) -> Vec<Vec<T>> {
        partition_indices(items.len(), shards, policy)
            .into_iter()
            .map(|rows| rows.into_iter().map(|r| items[r].clone()).collect())
            .collect()
    }

    #[test]
    fn partitions_cover_every_row_exactly_once() {
        for policy in PartitionPolicy::all() {
            for shards in [1usize, 2, 4, 8] {
                let parts = partition_indices(1000, shards, policy);
                assert_eq!(parts.len(), shards);
                let mut seen = vec![false; 1000];
                for p in &parts {
                    for &r in p {
                        assert!(!seen[r], "{}: row {r} twice", policy.name());
                        seen[r] = true;
                    }
                    // row order preserved → shard id columns stay sorted
                    assert!(p.windows(2).all(|w| w[0] < w[1]));
                }
                assert!(seen.iter().all(|&s| s), "{}", policy.name());
                // no pathological imbalance (hash/rr are near-even; range
                // is exactly even)
                let max = parts.iter().map(Vec::len).max().unwrap();
                let min = parts.iter().map(Vec::len).min().unwrap();
                assert!(max - min <= 200, "{}: {max} vs {min}", policy.name());
            }
        }
    }

    #[test]
    fn sharded_topk_is_bit_identical_to_single_device() {
        let n = 1 << 12;
        let k = 64;
        let items = keyed(&Uniform, n, 77);
        // single-device oracle
        let dev = Device::titan_x();
        let buf = dev.upload(&items);
        let oracle = bitonic_topk(&dev, &buf, k, BitonicConfig::default())
            .unwrap()
            .items;
        for policy in PartitionPolicy::all() {
            for devices in [1usize, 2, 4, 8] {
                let cluster = Cluster::new(ClusterSpec::pcie_node(devices));
                let parts = partition_items(&items, devices, policy);
                let r = sharded_topk(&cluster, &parts, k, BitonicConfig::default(), 2).unwrap();
                assert_eq!(r.items, oracle, "{} x {devices} devices", policy.name());
                assert!(r.sim_time.0 > 0.0);
                if devices > 1 {
                    assert!(r.candidate_bytes > 0);
                    assert!(r.transfer_done.0 > 0.0);
                }
            }
        }
    }

    #[test]
    fn sharded_delegate_topk_is_bit_identical_to_single_device() {
        let n = 1 << 14;
        let k = 64;
        let items = keyed(&Uniform, n, 78);
        let dev = Device::titan_x();
        let buf = dev.upload(&items);
        let oracle = bitonic_topk(&dev, &buf, k, BitonicConfig::default())
            .unwrap()
            .items;
        // small subranges so the per-shard threshold actually prunes at
        // this n
        let cfg = DelegateConfig {
            subrange: 256,
            ..DelegateConfig::default()
        };
        for devices in [1usize, 2, 4, 8] {
            let cluster = Cluster::new(ClusterSpec::pcie_node(devices));
            let parts = partition_items(&items, devices, PartitionPolicy::RoundRobin);
            let r = sharded_delegate_topk(&cluster, &parts, k, cfg, 2).unwrap();
            assert_eq!(r.items, oracle, "{devices} devices");
            assert!(r.sim_time.0 > 0.0);
            if devices > 1 {
                assert!(r.candidate_bytes > 0);
            }
        }
    }

    #[test]
    fn sharded_topk_exact_on_duplicate_heavy_keys() {
        // 4 distinct keys over 2^10 rows: ties everywhere; the id
        // tie-break is what keeps shardings bit-identical
        let n = 1 << 10;
        let k = 32;
        let items: Vec<Kv<f32>> = (0..n).map(|i| Kv::new((i % 4) as f32, i as u32)).collect();
        let dev = Device::titan_x();
        let buf = dev.upload(&items);
        let oracle = bitonic_topk(&dev, &buf, k, BitonicConfig::default())
            .unwrap()
            .items;
        // the oracle itself must be the smallest ids of the max key
        assert!(oracle.iter().all(|kv| kv.key == 3.0));
        let ids: Vec<u32> = oracle.iter().map(|kv| kv.value).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids ascend on ties");
        for policy in PartitionPolicy::all() {
            let cluster = Cluster::new(ClusterSpec::pcie_node(4));
            let parts = partition_items(&items, 4, policy);
            let r = sharded_topk(&cluster, &parts, k, BitonicConfig::default(), 2).unwrap();
            assert_eq!(r.items, oracle, "{}", policy.name());
        }
    }

    #[test]
    fn sharded_timing_is_deterministic_and_scales_down() {
        let n = 1 << 14;
        let items = keyed(&Uniform, n, 5);
        let run = |devices: usize| {
            let cluster = Cluster::new(ClusterSpec::pcie_node(devices));
            let parts = partition_items(&items, devices, PartitionPolicy::Range);
            sharded_topk(&cluster, &parts, 32, BitonicConfig::default(), 2).unwrap()
        };
        let a = run(4);
        let b = run(4);
        assert_eq!(a.sim_time, b.sim_time);
        assert_eq!(a.items, b.items);
        // local work shrinks with more devices
        let one = run(1);
        let eight = run(8);
        let max_local_1 = one.local.iter().map(|t| t.0).fold(0.0, f64::max);
        let max_local_8 = eight.local.iter().map(|t| t.0).fold(0.0, f64::max);
        assert!(max_local_8 < max_local_1);
    }

    #[test]
    fn execute_sharded_matches_unsharded_bit_for_bit() {
        let host = TweetTable::generate(20_000, 42);
        let dev = Device::titan_x();
        let gpu = GpuTweetTable::upload(&dev, &host);
        let cutoff = host.time_cutoff_for_selectivity(0.4);
        let sqls = [
            format!(
                "SELECT id FROM tweets WHERE tweet_time < {cutoff} \
                 ORDER BY retweet_count DESC LIMIT 25"
            ),
            "SELECT id FROM tweets ORDER BY retweet_count + 0.5 * likes_count DESC LIMIT 16"
                .to_string(),
            "SELECT id FROM tweets ORDER BY retweet_count ASC LIMIT 12".to_string(),
            "SELECT id FROM tweets WHERE lang='en' OR lang='es' \
             ORDER BY retweet_count DESC LIMIT 40"
                .to_string(),
        ];
        for sql in &sqls {
            let q = parse(sql).unwrap();
            let oracle = execute(&dev, &gpu, &q, Strategy::StageBitonic).unwrap().ids;
            for policy in PartitionPolicy::all() {
                for devices in [1usize, 2, 4] {
                    let cluster = Cluster::new(ClusterSpec::pcie_node(devices));
                    let table = ShardedTable::partition(&cluster, &host, policy).unwrap();
                    let r =
                        execute_sharded(&cluster, &table, &q, Strategy::StageBitonic, 2).unwrap();
                    assert_eq!(r.items, oracle, "{sql} via {} x {devices}", policy.name());
                    assert!(r.sim_time.0 > 0.0);
                }
            }
        }
    }

    #[test]
    fn group_by_is_rejected_on_the_sharded_path() {
        let host = TweetTable::generate(2_000, 7);
        let cluster = Cluster::new(ClusterSpec::pcie_node(2));
        let table = ShardedTable::partition(&cluster, &host, PartitionPolicy::Range).unwrap();
        let q =
            parse("SELECT uid, COUNT(*) FROM tweets GROUP BY uid ORDER BY COUNT(*) DESC LIMIT 5")
                .unwrap();
        assert!(matches!(
            execute_sharded(&cluster, &table, &q, Strategy::StageBitonic, 2),
            Err(QdbError::Parse(SqlError::Unsupported(_)))
        ));
        let mut server = ShardedServer::new(&cluster, &table, ServerConfig::default());
        assert!(matches!(
            server.submit(
                "SELECT uid, COUNT(*) FROM tweets GROUP BY uid ORDER BY COUNT(*) DESC LIMIT 5"
            ),
            Err(QdbError::Parse(SqlError::Unsupported(_)))
        ));
    }

    #[test]
    fn sharded_server_serves_oracle_exact_results() {
        let host = TweetTable::generate(16_000, 9);
        let dev = Device::titan_x();
        let gpu = GpuTweetTable::upload(&dev, &host);
        let cutoff = host.time_cutoff_for_selectivity(0.3);
        let sqls = [
            format!(
                "SELECT id FROM tweets WHERE tweet_time < {cutoff} \
                 ORDER BY retweet_count DESC LIMIT 10"
            ),
            "SELECT id FROM tweets ORDER BY retweet_count + 0.5 * likes_count DESC LIMIT 8"
                .to_string(),
            "SELECT id FROM tweets ORDER BY retweet_count ASC LIMIT 6".to_string(),
        ];
        let oracle: Vec<Vec<u32>> = sqls
            .iter()
            .map(|s| {
                execute(&dev, &gpu, &parse(s).unwrap(), Strategy::StageBitonic)
                    .unwrap()
                    .ids
            })
            .collect();
        let cluster = Cluster::new(ClusterSpec::pcie_node(4));
        let table = ShardedTable::partition(&cluster, &host, PartitionPolicy::Hash).unwrap();
        let mut server = ShardedServer::new(&cluster, &table, ServerConfig::default());
        let tickets: Vec<QueryTicket> = sqls.iter().map(|s| server.submit(s).unwrap()).collect();
        let report = server.drain();
        assert_eq!(report.queries.len(), sqls.len());
        for (i, t) in tickets.iter().enumerate() {
            let sq = &report.queries[t.0];
            assert!(sq.completed(), "{}: {:?}", sq.sql, sq.error);
            assert_eq!(sq.ids, oracle[i], "{}", sq.sql);
            assert!(sq.latency.0 > 0.0);
        }
        assert_eq!(report.resilience.completed, sqls.len());
        assert_eq!(report.resilience.shed, 0);
        assert_eq!(report.resilience.retries, 0);
        assert!(report.makespan.0 > 0.0);
        assert_eq!(report.shard_reports.len(), 4);
    }

    #[test]
    fn replicated_partition_places_ring_copies_and_stays_bit_identical() {
        let host = TweetTable::generate(8_000, 31);
        let q = parse("SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 12").unwrap();
        let oracle = {
            let cluster = Cluster::new(ClusterSpec::pcie_node(4));
            let table = ShardedTable::partition(&cluster, &host, PartitionPolicy::Hash).unwrap();
            execute_sharded(&cluster, &table, &q, Strategy::StageBitonic, 2)
                .unwrap()
                .items
        };
        let cluster = Cluster::new(ClusterSpec::pcie_node(4));
        let table = ShardedTable::partition_replicated(
            &cluster,
            &host,
            PartitionPolicy::Hash,
            ReplicationFactor(2),
        )
        .unwrap();
        assert_eq!(table.replication(), 2);
        for i in 0..4 {
            let devs: Vec<usize> = table.shard(i).replicas().iter().map(|r| r.device).collect();
            assert_eq!(devs, vec![i, (i + 1) % 4], "ring placement for shard {i}");
        }
        // replica copies are charged as real device-to-device transfers
        let labels: Vec<String> = cluster
            .transfers()
            .iter()
            .map(|t| t.label.clone())
            .collect();
        assert!(
            labels.iter().any(|l| l == "replicate:shard0->dev1"),
            "{labels:?}"
        );
        // the healthy read path serves from primaries: bit-identical to r=1
        let r = execute_sharded(&cluster, &table, &q, Strategy::StageBitonic, 2).unwrap();
        assert_eq!(r.items, oracle);
        // the factor clamps to the cluster size and never goes below one
        assert_eq!(ReplicationFactor(9).effective(4), 4);
        assert_eq!(ReplicationFactor(0).effective(4), 1);
    }

    #[test]
    fn replicated_reads_survive_permanent_device_loss() {
        let host = TweetTable::generate(8_000, 33);
        let q = parse("SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 10").unwrap();
        let oracle = {
            let cluster = Cluster::new(ClusterSpec::pcie_node(4));
            let table = ShardedTable::partition(&cluster, &host, PartitionPolicy::Range).unwrap();
            execute_sharded(&cluster, &table, &q, Strategy::StageBitonic, 2)
                .unwrap()
                .items
        };
        // r = 2: losing a device leaves every shard a healthy copy
        let cluster = Cluster::new(ClusterSpec::pcie_node(4));
        let table = ShardedTable::partition_replicated(
            &cluster,
            &host,
            PartitionPolicy::Range,
            ReplicationFactor(2),
        )
        .unwrap();
        cluster.device(1).mark_down();
        let r = execute_sharded(&cluster, &table, &q, Strategy::StageBitonic, 2).unwrap();
        assert_eq!(r.items, oracle, "failover reads are bit-identical");
        // r = 1: the loss is loud, typed and attributed — never truncated
        let cluster = Cluster::new(ClusterSpec::pcie_node(4));
        let table = ShardedTable::partition(&cluster, &host, PartitionPolicy::Range).unwrap();
        cluster.device(1).mark_down();
        let err = execute_sharded(&cluster, &table, &q, Strategy::StageBitonic, 2).unwrap_err();
        match err {
            QdbError::DeviceFault {
                transient, device, ..
            } => {
                assert!(!transient, "device loss must not be retried");
                assert_eq!(device, Some(1));
            }
            other => panic!("expected a typed device fault, got {other:?}"),
        }
    }

    #[test]
    fn breaker_state_machine_trips_probes_and_recloses() {
        let host = TweetTable::generate(1_000, 3);
        let cluster = Cluster::new(ClusterSpec::pcie_node(2));
        let table = ShardedTable::partition(&cluster, &host, PartitionPolicy::Range).unwrap();
        let mut server = ShardedServer::new(&cluster, &table, ServerConfig::default());
        assert!(server.device_routable(1));
        for _ in 0..BREAKER_THRESHOLD {
            server.note_failure(1);
        }
        assert!(matches!(
            server.health()[1].state,
            BreakerState::Open { .. }
        ));
        assert_eq!(server.health()[1].trips, 1);
        assert!(!server.device_routable(1), "open breaker refuses routing");
        // the cooldown elapses on the simulated clock: the next routing
        // check admits a half-open probe
        server.sim_now += BREAKER_COOLDOWN;
        assert!(server.device_routable(1));
        assert_eq!(server.health()[1].state.name(), "half-open");
        // a failed probe re-opens immediately; a served one recloses
        server.note_failure(1);
        assert!(matches!(
            server.health()[1].state,
            BreakerState::Open { .. }
        ));
        assert_eq!(server.health()[1].trips, 2);
        server.sim_now += BREAKER_COOLDOWN;
        assert!(server.device_routable(1));
        server.note_success(1);
        assert_eq!(server.health()[1].state.name(), "closed");
        assert_eq!(server.health()[1].consecutive_failures, 0);
    }

    #[test]
    fn sharded_server_fails_over_and_rebuilds_after_mid_load_device_loss() {
        let host = TweetTable::generate(12_000, 17);
        let dev = Device::titan_x();
        let gpu = GpuTweetTable::upload(&dev, &host);
        let cutoff = host.time_cutoff_for_selectivity(0.3);
        let sqls = [
            format!(
                "SELECT id FROM tweets WHERE tweet_time < {cutoff} \
                 ORDER BY retweet_count DESC LIMIT 9"
            ),
            "SELECT id FROM tweets ORDER BY retweet_count + 0.5 * likes_count DESC LIMIT 7"
                .to_string(),
            "SELECT id FROM tweets ORDER BY retweet_count ASC LIMIT 5".to_string(),
        ];
        let oracle: Vec<Vec<u32>> = sqls
            .iter()
            .map(|s| {
                execute(&dev, &gpu, &parse(s).unwrap(), Strategy::StageBitonic)
                    .unwrap()
                    .ids
            })
            .collect();
        let cluster = Cluster::new(ClusterSpec::pcie_node(4));
        let table = ShardedTable::partition_replicated(
            &cluster,
            &host,
            PartitionPolicy::Hash,
            ReplicationFactor(2),
        )
        .unwrap();
        let mut server = ShardedServer::new(&cluster, &table, ServerConfig::default());
        // batch A: the healthy baseline
        for s in &sqls {
            server.submit(s).unwrap();
        }
        let a = server.drain();
        assert_eq!(a.resilience.completed, sqls.len());
        assert_eq!(a.resilience.failovers, 0);
        for (i, sq) in a.queries.iter().enumerate() {
            assert_eq!(sq.ids, oracle[i], "{}", sq.sql);
        }
        // device 1 dies with batch B already admitted: every query still
        // completes bit-exact by failing over to surviving replicas
        for s in &sqls {
            server.submit(s).unwrap();
        }
        cluster.device(1).mark_down();
        let b = server.drain();
        assert_eq!(
            b.resilience.completed,
            sqls.len(),
            "r=2 + one permanent loss: every query completes"
        );
        for (i, sq) in b.queries.iter().enumerate() {
            assert_eq!(sq.ids, oracle[i], "{}", sq.sql);
        }
        assert!(b.resilience.failovers > 0, "mid-load loss forces failovers");
        assert!(b.resilience.rebuilds > 0, "lost copies re-materialize");
        assert!(b.health[1].down);
        assert!(cluster
            .transfers()
            .iter()
            .any(|t| t.label.starts_with("rebuild:shard")));
        // batch C routes around the dead device and onto rebuilt copies
        for s in &sqls {
            server.submit(s).unwrap();
        }
        let c = server.drain();
        assert_eq!(c.resilience.completed, sqls.len());
        for (i, sq) in c.queries.iter().enumerate() {
            assert_eq!(sq.ids, oracle[i], "{}", sq.sql);
        }
        assert_eq!(c.resilience.failovers, 0, "routing avoids the dead device");
    }

    /// The sharded result cache sits above the scatter: a warm hit
    /// launches nothing on any device in the cluster, and an append
    /// (which bumps the sharded table's epoch) invalidates it.
    #[test]
    fn sharded_cache_hits_skip_the_scatter_and_appends_invalidate() {
        let host = TweetTable::generate(12_000, 13);
        let cluster = Cluster::new(ClusterSpec::pcie_node(4));
        let table = ShardedTable::partition_replicated_with_capacity(
            &cluster,
            &host,
            PartitionPolicy::Hash,
            ReplicationFactor(2),
            18_000,
        )
        .unwrap();
        let sql = "SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 9";
        let mut server = ShardedServer::new(
            &cluster,
            &table,
            ServerConfig {
                result_cache: true,
                ..ServerConfig::default()
            },
        );
        server.submit(sql).unwrap();
        let a = server.drain();
        assert!(a.queries[0].completed() && !a.queries[0].cached);
        assert_eq!(a.resilience.cache_misses, 1);

        let logs: Vec<usize> = (0..4).map(|i| cluster.device(i).log_len()).collect();
        server.submit(sql).unwrap();
        let b = server.drain();
        assert!(b.queries[0].cached);
        assert_eq!(b.queries[0].ids, a.queries[0].ids);
        assert_eq!(b.resilience.cache_hits, 1);
        for (i, &l) in logs.iter().enumerate() {
            assert_eq!(
                cluster.device(i).log_len(),
                l,
                "hit launches nothing on device {i}"
            );
        }

        let batch = TweetTable::generate_at(700, 3, host.len() as u32);
        table.append_batch(&cluster, &batch).unwrap();
        server.submit(sql).unwrap();
        let c = server.drain();
        assert!(!c.queries[0].cached, "the append invalidated the entry");
        assert_eq!(c.resilience.cache_refreshes, 1);
        let oracle = execute_sharded(
            &cluster,
            &table,
            &parse(sql).unwrap(),
            Strategy::StageBitonic,
            2,
        )
        .unwrap();
        assert_eq!(c.queries[0].ids, oracle.items);
    }

    /// A rebuild whose target device has no room for the copy stops, as
    /// a failed rebuild transfer does, instead of panicking the drain:
    /// on a 3-device r = 2 node, dev1 dies while dev2 is full, so shard
    /// 0's copy (due on dev2) waits while shard 1's lands on dev0. Once
    /// dev2 frees up, the next drain rebuilds shard 0 and serves
    /// bit-exact.
    #[test]
    fn rebuild_onto_a_full_device_stops_and_resumes_later() {
        let cluster = Cluster::new(ClusterSpec {
            device: simt::DeviceSpec {
                global_mem_bytes: 8 << 20,
                ..simt::DeviceSpec::titan_x_maxwell()
            },
            ..ClusterSpec::pcie_node(3)
        });
        let host = TweetTable::generate(9_000, 37);
        let table = ShardedTable::partition_replicated(
            &cluster,
            &host,
            PartitionPolicy::Range,
            ReplicationFactor(2),
        )
        .unwrap();
        let sql = "SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 8";
        let q = parse(sql).unwrap();
        let oracle = execute_sharded(&cluster, &table, &q, Strategy::StageBitonic, 0)
            .unwrap()
            .items;
        let mut server = ShardedServer::new(&cluster, &table, ServerConfig::default());
        let dev2 = cluster.device(2);
        let fill = dev2.alloc::<u8>(dev2.spec().global_mem_bytes - dev2.memory_allocated());
        cluster.device(1).mark_down();
        server.submit(sql).unwrap();
        let b = server.drain();
        assert_eq!(b.resilience.rebuilds, 1, "only shard 1's copy fits");
        let sq = &b.queries[0];
        assert!(
            sq.ids == oracle || (sq.ids.is_empty() && sq.error.is_some()),
            "exact or loud: {sq:?}"
        );
        drop(fill);
        server.submit(sql).unwrap();
        let c = server.drain();
        assert_eq!(c.resilience.rebuilds, 1, "shard 0's copy lands on dev2");
        assert_eq!(c.resilience.completed, 1);
        assert_eq!(c.queries[0].ids, oracle);
    }

    #[test]
    fn r1_loss_is_loud_typed_and_rebuilt_copies_serve_later_queries() {
        let host = TweetTable::generate(10_000, 23);
        let dev = Device::titan_x();
        let gpu = GpuTweetTable::upload(&dev, &host);
        let cutoff = host.time_cutoff_for_selectivity(0.25);
        let sqls = [
            format!(
                "SELECT id FROM tweets WHERE tweet_time < {cutoff} \
                 ORDER BY retweet_count DESC LIMIT 8"
            ),
            "SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 6".to_string(),
            "SELECT id FROM tweets ORDER BY retweet_count ASC LIMIT 4".to_string(),
            "SELECT id FROM tweets WHERE lang='en' ORDER BY retweet_count DESC LIMIT 5".to_string(),
        ];
        let oracle: Vec<Vec<u32>> = sqls
            .iter()
            .map(|s| {
                execute(&dev, &gpu, &parse(s).unwrap(), Strategy::StageBitonic)
                    .unwrap()
                    .ids
            })
            .collect();
        let cluster = Cluster::new(ClusterSpec::pcie_node(4));
        let table = ShardedTable::partition(&cluster, &host, PartitionPolicy::Range).unwrap();
        let mut server = ShardedServer::new(&cluster, &table, ServerConfig::default());
        for s in &sqls {
            server.submit(s).unwrap();
        }
        cluster.device(1).mark_down();
        let b = server.drain();
        // every query touches the lost shard: all fail loudly — typed,
        // attributed, never truncated to the surviving shards
        assert_eq!(b.resilience.completed, 0);
        assert_eq!(b.resilience.failed, sqls.len());
        for sq in &b.queries {
            assert!(sq.ids.is_empty(), "results are never truncated");
            match &sq.error {
                Some(QdbError::DeviceFault {
                    transient, device, ..
                }) => {
                    assert!(!transient);
                    assert_eq!(*device, Some(1));
                }
                other => panic!("expected a typed device fault, got {other:?}"),
            }
        }
        // the consecutive failures tripped device 1's breaker, and the
        // lost partition was rebuilt from its pristine host copy
        assert!(b.health[1].down);
        assert!(matches!(b.health[1].state, BreakerState::Open { .. }));
        assert_eq!(b.resilience.breaker_trips, 1);
        assert_eq!(b.resilience.rebuilds, 1);
        // subsequent queries serve from the rebuilt copy, bit-exact
        for s in &sqls {
            server.submit(s).unwrap();
        }
        let c = server.drain();
        assert_eq!(c.resilience.completed, sqls.len());
        for (i, sq) in c.queries.iter().enumerate() {
            assert_eq!(sq.ids, oracle[i], "{}", sq.sql);
        }
    }

    #[test]
    fn dead_shard_fails_the_query_with_a_typed_error() {
        let host = TweetTable::generate(4_000, 13);
        let cluster = Cluster::new(ClusterSpec::pcie_node(4));
        let table = ShardedTable::partition(&cluster, &host, PartitionPolicy::Range).unwrap();
        // device 2's transfers always drop: the local pass (CPU rung can
        // still answer) succeeds but the delegates never arrive
        cluster.device(2).set_fault_plan(FaultPlan {
            launch_failure_rate: 1.0,
            max_faults: usize::MAX,
            ..FaultPlan::none()
        });
        let q = parse("SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 8").unwrap();
        let err = execute_sharded(&cluster, &table, &q, Strategy::StageBitonic, 1).unwrap_err();
        assert!(
            matches!(err, QdbError::DeviceFault { .. }),
            "expected a typed device fault, got {err:?}"
        );
        cluster.device(2).clear_fault_plan();
        // with the plan cleared the same query completes
        let r = execute_sharded(&cluster, &table, &q, Strategy::StageBitonic, 1).unwrap();
        assert_eq!(r.items.len(), 8);
    }

    #[test]
    fn transfer_stalls_slow_the_query_but_keep_it_exact() {
        let host = TweetTable::generate(6_000, 21);
        let q = parse("SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 8").unwrap();
        let clean = {
            let cluster = Cluster::new(ClusterSpec::pcie_node(2));
            let table = ShardedTable::partition(&cluster, &host, PartitionPolicy::Range).unwrap();
            execute_sharded(&cluster, &table, &q, Strategy::StageBitonic, 2).unwrap()
        };
        let stalled = {
            let cluster = Cluster::new(ClusterSpec::pcie_node(2));
            let table = ShardedTable::partition(&cluster, &host, PartitionPolicy::Range).unwrap();
            cluster.device(1).set_fault_plan(FaultPlan {
                stall_rate: 1.0,
                stall_delay: SimTime(250e-6),
                max_faults: usize::MAX,
                ..FaultPlan::with_seed(3)
            });
            let r = execute_sharded(&cluster, &table, &q, Strategy::StageBitonic, 2).unwrap();
            cluster.device(1).clear_fault_plan();
            r
        };
        assert_eq!(clean.items, stalled.items, "stalls must not change results");
        assert!(
            stalled.sim_time.0 > clean.sim_time.0,
            "stall must show up in modeled time: {} vs {}",
            stalled.sim_time,
            clean.sim_time
        );
    }

    /// The gather waits for every shard, including a remote one whose
    /// list is empty: shard 1 matches nothing but its stalled local pass
    /// still bounds the query's completion.
    #[test]
    fn gather_waits_for_a_remote_shard_that_matched_nothing() {
        let mut host = TweetTable::generate(4_000, 31);
        host.tweet_time = (0..host.len() as u32).collect();
        let cluster = Cluster::new(ClusterSpec::pcie_node(2));
        let table = ShardedTable::partition(&cluster, &host, PartitionPolicy::Range).unwrap();
        cluster.device(1).set_fault_plan(FaultPlan {
            stall_rate: 1.0,
            stall_delay: SimTime(1e-3),
            max_faults: usize::MAX,
            ..FaultPlan::with_seed(5)
        });
        let q = parse(
            "SELECT id FROM tweets WHERE tweet_time < 64 ORDER BY retweet_count DESC LIMIT 8",
        )
        .unwrap();
        let r = execute_sharded(&cluster, &table, &q, Strategy::StageBitonic, 0).unwrap();
        cluster.device(1).clear_fault_plan();
        assert_eq!(r.items.len(), 8);
        let slowest = r.local.iter().fold(0.0f64, |a, t| a.max(t.0));
        assert!(slowest >= 1e-3, "shard 1's stalled pass: {:?}", r.local);
        assert!(
            r.sim_time.0 >= slowest,
            "the query finished at {} before its slowest shard ({slowest} s)",
            r.sim_time
        );
    }

    /// A shed sharded query queues nothing: the front checks its bound
    /// once, before routing, so no shard runs an orphan sub-query whose
    /// answer would be thrown away.
    #[test]
    fn a_shed_sharded_query_queues_nothing() {
        let host = TweetTable::generate(8_000, 29);
        let cluster = Cluster::new(ClusterSpec::pcie_node(4));
        let table = ShardedTable::partition_replicated(
            &cluster,
            &host,
            PartitionPolicy::Hash,
            ReplicationFactor(2),
        )
        .unwrap();
        let cfg = ServerConfig {
            max_queue: 2,
            ..ServerConfig::default()
        };
        let mut server = ShardedServer::new(&cluster, &table, cfg);
        let sql = "SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 8";
        // two queries fill every primary lane
        server.submit(sql).unwrap();
        server.submit(sql).unwrap();
        // shard 0 would now route to its replica on device 1
        cluster
            .device(0)
            .set_fault_plan(FaultPlan::down_at(SimTime::ZERO));
        assert!(matches!(
            server.submit(sql),
            Err(QdbError::Overloaded {
                queue_len: 2,
                max_queue: 2
            })
        ));
        let report = server.drain();
        let subs: usize = report.shard_reports.iter().map(|r| r.queries.len()).sum();
        assert_eq!(
            subs, 8,
            "two queries over four shards, none from the shed one"
        );
        assert_eq!(report.queries.len(), 2);
        assert_eq!(report.resilience.shed, 1);
    }

    /// A lane whose device is already down when the drain starts runs
    /// nothing: its sub-queries fail over to the surviving replica, and
    /// no query reports the CPU rung the dead lane would have run.
    #[test]
    fn a_lane_on_a_dead_device_does_not_run() {
        let host = TweetTable::generate(8_000, 41);
        let dev = Device::titan_x();
        let gpu = GpuTweetTable::upload(&dev, &host);
        let cutoff = host.time_cutoff_for_selectivity(0.3);
        let sqls = [
            format!(
                "SELECT id FROM tweets WHERE tweet_time < {cutoff} \
                 ORDER BY retweet_count DESC LIMIT 10"
            ),
            "SELECT id FROM tweets ORDER BY retweet_count + 0.5 * likes_count DESC LIMIT 8"
                .to_string(),
        ];
        let cluster = Cluster::new(ClusterSpec::pcie_node(4));
        let table = ShardedTable::partition_replicated(
            &cluster,
            &host,
            PartitionPolicy::Hash,
            ReplicationFactor(2),
        )
        .unwrap();
        let mut server = ShardedServer::new(&cluster, &table, ServerConfig::default());
        for sql in &sqls {
            server.submit(sql).unwrap();
        }
        cluster
            .device(0)
            .set_fault_plan(FaultPlan::down_at(SimTime::ZERO));
        let report = server.drain();
        for (sq, sql) in report.queries.iter().zip(&sqls) {
            let oracle = execute(&dev, &gpu, &parse(sql).unwrap(), Strategy::StageBitonic).unwrap();
            assert!(sq.completed(), "{sql}: {:?}", sq.error);
            assert_eq!(sq.ids, oracle.ids, "{sql}");
            assert_eq!(sq.failovers, 1, "{sql}");
            assert_eq!(sq.degrade, DegradeLevel::None, "{sql}");
        }
        assert_eq!(report.resilience.failovers, 2);
        assert_eq!(report.resilience.degraded_cpu, 0);
        // the dead lane's list is refused, typed and attributed
        let dead = &report.shard_reports[0];
        assert_eq!(dead.queries.len(), 2);
        assert!(dead.schedule.launches.is_empty());
        for q in &dead.queries {
            assert!(matches!(
                q.error,
                Some(QdbError::DeviceFault {
                    transient: false,
                    device: Some(0),
                    ..
                })
            ));
        }
    }

    /// A table partitioned for a cluster of another size gets one typed
    /// placement error from every entry point, before anything runs or
    /// splices — never an index panic.
    #[test]
    fn a_mismatched_placement_is_refused_by_every_entry_point() {
        let host = TweetTable::generate(4_000, 37);
        let four = Cluster::new(ClusterSpec::pcie_node(4));
        let table = ShardedTable::partition_replicated_with_capacity(
            &four,
            &host,
            PartitionPolicy::Range,
            ReplicationFactor::ONE,
            5_000,
        )
        .unwrap();
        let two = Cluster::new(ClusterSpec::pcie_node(2));
        let (len, epoch) = (table.len(), table.epoch());
        let refused =
            |r: Result<(), QdbError>| matches!(r, Err(QdbError::Parse(SqlError::Unsupported(_))));
        let sql = "SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 8";
        let q = parse(sql).unwrap();
        let exec = execute_sharded(&two, &table, &q, Strategy::StageBitonic, 2);
        assert!(refused(exec.map(|_| ())));
        let view = TopKView::register(sql, Strategy::StageBitonic, ViewConfig::default()).unwrap();
        assert!(refused(view.refresh_sharded(&two, &table, 2).map(|_| ())));
        let batch = TweetTable::generate_at(500, 3, host.len() as u32);
        assert!(refused(table.append_batch(&two, &batch).map(|_| ())));
        let mut server = ShardedServer::new(&two, &table, ServerConfig::default());
        assert!(refused(server.submit(sql).map(|_| ())));
        assert!(server.drain().queries.is_empty());
        assert_eq!((table.len(), table.epoch()), (len, epoch));
    }

    /// A part count that does not match the cluster is a typed error on
    /// both raw primitives, never a panic.
    #[test]
    fn raw_primitives_reject_a_mismatched_part_count() {
        let cluster = Cluster::new(ClusterSpec::pcie_node(4));
        let parts = partition_items(&keyed(&Uniform, 1 << 10, 3), 3, PartitionPolicy::Range);
        let bitonic = sharded_topk(&cluster, &parts, 16, BitonicConfig::default(), 0);
        let delegate = sharded_delegate_topk(&cluster, &parts, 16, DelegateConfig::default(), 0);
        for err in [bitonic.unwrap_err(), delegate.unwrap_err()] {
            assert!(
                matches!(err, QdbError::Parse(SqlError::Unsupported(_))),
                "expected a typed rejection, got {err:?}"
            );
        }
    }

    /// A part's upload is retried like its launch: one injected OOM on
    /// device 1 costs one retry, and the answer is the fault-free one.
    #[test]
    fn sharded_topk_retries_a_transient_part_upload_fault() {
        let parts = partition_items(&keyed(&Uniform, 1 << 12, 8), 2, PartitionPolicy::Hash);
        let run = |plan: Option<FaultPlan>| {
            let cluster = Cluster::new(ClusterSpec::pcie_node(2));
            if let Some(plan) = plan {
                cluster.device(1).set_fault_plan(plan);
            }
            sharded_topk(&cluster, &parts, 32, BitonicConfig::default(), 2)
        };
        let clean = run(None).unwrap();
        let oom = FaultPlan {
            oom_rate: 1.0,
            max_faults: 1,
            ..FaultPlan::none()
        };
        let r = run(Some(oom)).expect("one retry clears one OOM");
        assert_eq!(r.items, clean.items);
        assert_eq!(r.retries, 1);
    }

    /// A shard scan that exhausts its retries reports every attempt it
    /// made: retries + 1, as the lane and the transfers do.
    #[test]
    fn exhausted_shard_scan_reports_every_attempt() {
        let host = TweetTable::generate(4_000, 12);
        let cluster = Cluster::new(ClusterSpec::pcie_node(2));
        let table = ShardedTable::partition(&cluster, &host, PartitionPolicy::Hash).unwrap();
        cluster.device(0).set_fault_plan(FaultPlan {
            launch_failure_rate: 1.0,
            ..FaultPlan::none()
        });
        let q = parse("SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 8").unwrap();
        let err = execute_sharded(&cluster, &table, &q, Strategy::StageBitonic, 2).unwrap_err();
        assert!(
            matches!(
                err,
                QdbError::DeviceFault {
                    transient: true,
                    attempts: 3,
                    device: Some(0),
                    ..
                }
            ),
            "{err:?}"
        );
    }
}
