//! Physical operators: filter, project, group-by count, and the two
//! fused top-k kernels of Section 5.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use datagen::{Kv, Rev, RevView, SortKey, TopKItem};
use simt::{AccessSpec, BlockCtx, BufferDecl, BulkAccess, Device, GpuBuffer, Kernel};
use sortnet::{host, next_pow2};
use topk::bitonic::{bitonic_topk_from_runs, BitonicConfig};
use topk::TopKResult;

use crate::error::QdbError;
use crate::table::{Columns, GpuTweetTable};

/// Selection predicates the Figure 16 queries use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FilterOp {
    /// `tweet_time < cutoff` (query Q1's time-range sweep).
    TimeLess(u32),
    /// `lang IN (…)` (query Q3).
    LangIn(Vec<u8>),
}

/// The predicate a statement without WHERE scans with.
static EVERY_ROW: FilterOp = FilterOp::TimeLess(u32::MAX);

impl FilterOp {
    /// Bytes read per row to evaluate the predicate.
    pub fn pred_bytes(&self) -> usize {
        match self {
            FilterOp::TimeLess(_) => 4,
            FilterOp::LangIn(_) => 1,
        }
    }

    /// A shape's WHERE predicate, or for none `tweet_time < u32::MAX`,
    /// which every row passes: a plain `ORDER BY retweet_count` scan is
    /// priced like any time-range scan.
    pub(crate) fn or_every_row(filter: &Option<FilterOp>) -> &FilterOp {
        filter.as_ref().unwrap_or(&EVERY_ROW)
    }

    /// The `(retweet_count, id)` pair of every row of `cols` that
    /// matches, in row order, as `P` items — the one scan body behind
    /// the device filter kernel, the fused plans and the CPU engine's
    /// chunked scan. It dispatches on the predicate once per scan, walks
    /// the columns zipped, and collects into one vector reserved for
    /// every row.
    pub(crate) fn matched_pairs<P: PairOrder>(&self, cols: &Columns) -> Vec<P> {
        fn scan<P: PairOrder, Q: Copy>(
            preds: &[Q],
            cols: &Columns,
            keep: impl Fn(Q) -> bool,
        ) -> Vec<P> {
            let mut out = Vec::with_capacity(preds.len());
            for ((&p, &key), &id) in preds.iter().zip(cols.retweet_count).zip(cols.id) {
                if keep(p) {
                    out.push(P::wrap(Kv::new(key, id)));
                }
            }
            out
        }
        match self {
            FilterOp::TimeLess(cutoff) => scan(cols.tweet_time, cols, |t| t < *cutoff),
            FilterOp::LangIn(wanted) => {
                let mut hit = [false; 256];
                for &l in wanted {
                    hit[l as usize] = true;
                }
                scan(cols.lang, cols, |l| hit[l as usize])
            }
        }
    }
}

/// A top-k item that carries its row id (a tweet id, or a uid for Q4).
pub(crate) trait RowItem: TopKItem {
    /// The row id.
    fn id(&self) -> u32;
}

impl<K: SortKey> RowItem for Kv<K> {
    fn id(&self) -> u32 {
        self.value
    }
}

impl RowItem for Rev<Kv<u32>> {
    fn id(&self) -> u32 {
        self.0.value
    }
}

/// The item order of a filtered `retweet_count` plan: `Kv<u32>` ranks
/// the largest first (`DESC`), `Rev<Kv<u32>>` the smallest (`ASC`).
/// Either way the item is the `(retweet_count, id)` pair itself, so one
/// plan body serves both directions.
pub(crate) trait PairOrder: RowItem {
    /// The pair as an item of this order.
    fn wrap(kv: Kv<u32>) -> Self;
    /// Runs `f` on `pairs` viewed in place as items of this order.
    fn view<R>(pairs: &GpuBuffer<Kv<u32>>, f: impl FnOnce(&GpuBuffer<Self>) -> R) -> R;
}

impl PairOrder for Kv<u32> {
    fn wrap(kv: Kv<u32>) -> Self {
        kv
    }
    fn view<R>(pairs: &GpuBuffer<Kv<u32>>, f: impl FnOnce(&GpuBuffer<Self>) -> R) -> R {
        f(pairs)
    }
}

impl PairOrder for Rev<Kv<u32>> {
    fn wrap(kv: Kv<u32>) -> Self {
        Rev(kv)
    }
    fn view<R>(pairs: &GpuBuffer<Kv<u32>>, f: impl FnOnce(&GpuBuffer<Self>) -> R) -> R {
        f(pairs.as_rev_view().view())
    }
}

/// Writes the Q2 ranking `retweet_count + 0.5·likes_count` of every row
/// of `cols`, paired with its id, into `out` — the one rank scan behind
/// the projection kernel, the fused Q2 plan and the CPU engine.
pub(crate) fn rank_pairs(cols: &Columns, out: &mut [Kv<f32>]) {
    let rows = cols.retweet_count.iter().zip(cols.likes_count).zip(cols.id);
    for (slot, ((&rt, &lk), &id)) in out.iter_mut().zip(rows) {
        *slot = Kv::new(rt as f32 + 0.5 * lk as f32, id);
    }
}

/// Counts the rows of each uid in `uids` — the one group-count scan
/// behind the group-by kernel and the CPU engine.
pub(crate) fn group_counts(uids: &[u32]) -> GroupCounts {
    let mut counts = GroupCounts::default();
    for &uid in uids {
        *counts.entry(uid).or_insert(0) += 1;
    }
    counts
}

/// Per-uid row counts of the group-by. The map hashes with a fixed-seed
/// multiplicative hash instead of SipHash's random per-map keys: faster,
/// and every run emits the groups in the same order.
pub(crate) type GroupCounts = HashMap<u32, u32, BuildHasherDefault<MulHasher>>;

/// The multiply-rotate hash behind [`GroupCounts`].
#[derive(Default)]
pub(crate) struct MulHasher(u64);

impl Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b.into());
        }
    }
    fn write_u32(&mut self, x: u32) {
        self.write_u64(x.into());
    }
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Which operator executes the ORDER BY … LIMIT k.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopKStrategy {
    /// Full radix sort then take k (MapD's default).
    Sort,
    /// The paper's bitonic top-k.
    Bitonic,
}

/// Filter kernel: scans the predicate and key columns, writes matching
/// `(key, id)` pairs to a candidate buffer's prefix (the tail past the
/// matched count keeps its contents).
pub(crate) struct FilterKernel<'a> {
    pub table: &'a GpuTweetTable,
    pub op: &'a FilterOp,
    pub out: GpuBuffer<Kv<u32>>,
    pub out_count: GpuBuffer<u32>,
}

impl Kernel for FilterKernel<'_> {
    fn name(&self) -> &'static str {
        "qdb_filter"
    }
    fn block_dim(&self) -> usize {
        256
    }
    fn grid_dim(&self) -> usize {
        1
    }
    fn access_spec(&self) -> Option<AccessSpec> {
        Some(AccessSpec::bulk(
            "filter",
            vec![
                BulkAccess {
                    buf: BufferDecl::of("key_col", &self.table.retweet_count),
                    elems: self.table.len(),
                    write: false,
                },
                BulkAccess {
                    buf: BufferDecl::of("out", &self.out),
                    elems: self.out.len(),
                    write: true,
                },
                BulkAccess {
                    buf: BufferDecl::of("out_count", &self.out_count),
                    elems: 1,
                    write: true,
                },
            ],
        ))
    }
    fn run_block(&self, blk: &mut BlockCtx) {
        let n = self.table.len();
        let matched: Vec<Kv<u32>> = self.table.with_columns(|c| self.op.matched_pairs(&c));
        blk.bulk_global_read((n * (self.op.pred_bytes() + 4)) as u64);
        blk.bulk_global_write((matched.len() * Kv::<u32>::SIZE_BYTES) as u64);
        blk.bulk_ops(2 * n as u64);
        self.out_count.set(0, matched.len() as u32);
        self.out.write_range(0, &matched);
    }
}

/// Projection kernel: evaluates `retweet_count + 0.5·likes_count` and
/// materializes `(rank, id)` pairs (the un-fused Q2 plan).
pub(crate) struct ProjectRankKernel<'a> {
    pub table: &'a GpuTweetTable,
    pub out: GpuBuffer<Kv<f32>>,
}

impl Kernel for ProjectRankKernel<'_> {
    fn name(&self) -> &'static str {
        "qdb_project_rank"
    }
    fn block_dim(&self) -> usize {
        256
    }
    fn grid_dim(&self) -> usize {
        1
    }
    fn access_spec(&self) -> Option<AccessSpec> {
        Some(AccessSpec::bulk(
            "project",
            vec![BulkAccess {
                buf: BufferDecl::of("out", &self.out),
                elems: self.table.len(),
                write: true,
            }],
        ))
    }
    fn run_block(&self, blk: &mut BlockCtx) {
        let n = self.table.len();
        blk.bulk_global_read((n * 8) as u64);
        blk.bulk_global_write((n * Kv::<f32>::SIZE_BYTES) as u64);
        blk.bulk_ops(3 * n as u64);
        self.out
            .write_with(|out| self.table.with_columns(|c| rank_pairs(&c, &mut out[..n])));
    }
}

/// Hash group-by count over `uid` (query Q4). Shared-memory hash tables
/// with atomic increments, spilled per block and merged — charged as one
/// column read, per-row atomics, and the group write-out.
pub(crate) struct GroupCountKernel<'a> {
    pub table: &'a GpuTweetTable,
    pub out: GpuBuffer<Kv<u32>>,
    pub out_count: GpuBuffer<u32>,
}

impl Kernel for GroupCountKernel<'_> {
    fn name(&self) -> &'static str {
        "qdb_group_count"
    }
    fn block_dim(&self) -> usize {
        256
    }
    fn grid_dim(&self) -> usize {
        1
    }
    fn access_spec(&self) -> Option<AccessSpec> {
        Some(AccessSpec::bulk(
            "group",
            vec![
                BulkAccess {
                    buf: BufferDecl::of("out", &self.out),
                    elems: self.out.len(),
                    write: true,
                },
                BulkAccess {
                    buf: BufferDecl::of("out_count", &self.out_count),
                    elems: 1,
                    write: true,
                },
            ],
        ))
    }
    fn run_block(&self, blk: &mut BlockCtx) {
        let n = self.table.len();
        let counts = group_counts(&self.table.uid.host_view()[..n]);
        blk.bulk_global_read((n * 4) as u64);
        blk.bulk_atomics(n as u64);
        blk.bulk_global_write((counts.len() * 8) as u64);
        blk.bulk_ops(4 * n as u64);
        self.out_count.set(0, counts.len() as u32);
        self.out.write_with(|out| {
            for (slot, (&uid, &c)) in out.iter_mut().zip(&counts) {
                *slot = Kv::new(c, uid);
            }
        });
    }
}

/// The FusedSortReducer of Section 5: one kernel that streams the columns,
/// applies the filter (or evaluates the ranking function) as a
/// buffer-filler, and runs the SortReducer stage on the fly — emitting
/// bitonic runs of `k` at 1/16th of the matched size without ever
/// materializing the filtered pairs in global memory.
pub(crate) struct FusedSortReducerKernel<'a, T: TopKItem> {
    pub pred_bytes: usize,
    pub key_bytes: usize,
    pub n_rows: usize,
    /// Host-computed matched items (the filter/projection output).
    pub matched: Vec<T>,
    pub k_eff: usize,
    pub out_runs: GpuBuffer<T>,
    pub out_valid: GpuBuffer<u32>,
    pub _table: &'a GpuTweetTable,
}

impl<T: TopKItem> FusedSortReducerKernel<'_, T> {
    const SEG: usize = 4096;
    const MERGES: usize = 4; // 16× reduction, B = 16
}

impl<T: TopKItem> Kernel for FusedSortReducerKernel<'_, T> {
    fn name(&self) -> &'static str {
        "qdb_fused_sort_reducer"
    }
    fn block_dim(&self) -> usize {
        256
    }
    fn grid_dim(&self) -> usize {
        1
    }
    fn shared_bytes_per_block(&self) -> usize {
        Self::SEG / 16 * 17 * T::SIZE_BYTES // padded staging buffer
    }
    fn access_spec(&self) -> Option<AccessSpec> {
        Some(AccessSpec::bulk(
            "fused",
            vec![
                BulkAccess {
                    buf: BufferDecl::of("out_runs", &self.out_runs),
                    elems: self.out_runs.len(),
                    write: true,
                },
                BulkAccess {
                    buf: BufferDecl::of("out_valid", &self.out_valid),
                    elems: 1,
                    write: true,
                },
            ],
        ))
    }
    fn run_block(&self, blk: &mut BlockCtx) {
        let k_eff = self.k_eff;
        let m = self.matched.len();
        // pad to whole segments with MIN sentinels (the paper pads the
        // buffer so sentinels never reach the top-k)
        let seg = Self::SEG.max(2 * k_eff);
        let padded = next_pow2(m.max(seg));
        let mut ranks: Vec<T::Rank> = Vec::with_capacity(padded);
        ranks.extend(self.matched.iter().map(T::rank));
        ranks.resize(padded, T::min_sentinel().rank());

        // the SortReducer's output (local sort, then merges with a
        // rebuild between every two) on the ranks
        let merges = Self::MERGES.min(sortnet::log2(padded / k_eff) as usize);
        host::local_sort_reduce(&mut ranks, k_eff, merges, host::RunOrder::Bitonic);
        let len = padded >> merges;

        // traffic: stream all columns once; write the 1/16 reduction;
        // shared cost = filter staging + the SortReducer pipeline factor
        blk.bulk_global_read((self.n_rows * (self.pred_bytes + self.key_bytes)) as u64);
        blk.bulk_global_write((len * T::SIZE_BYTES) as u64);
        let factor = topk_costmodel::shared_traffic_factor(k_eff, 16, merges, true);
        blk.bulk_shared((2.0 * self.n_rows as f64 * 4.0) as u64); // buffer filling
        blk.bulk_shared((factor * (m.max(1) * T::SIZE_BYTES) as f64) as u64);
        blk.bulk_ops((6 * self.n_rows) as u64);

        self.out_valid.set(0, len as u32);
        self.out_runs.write_with(|out| {
            for (o, &r) in out.iter_mut().zip(&ranks[..len]) {
                *o = T::from_rank(r);
            }
        });
    }
}

/// Runs the order-by/limit stage on the first `valid` candidates,
/// returning at most `valid` items.
///
/// Bitonic staging copies the valid prefix once, straight into the
/// power-of-two buffer padded with MIN sentinels that the pipeline
/// reads, so `bitonic_topk` pads nothing itself. Either way the stage
/// makes one fallible allocation.
pub(crate) fn run_topk_stage<T: TopKItem>(
    dev: &Device,
    candidates: &GpuBuffer<T>,
    valid: usize,
    k: usize,
    strategy: TopKStrategy,
) -> Result<TopKResult<T>, QdbError> {
    let r = match strategy {
        TopKStrategy::Sort => {
            let view = dev.try_upload(&candidates.host_view()[..valid.max(1)])?;
            topk::sort::sort_topk(dev, &view, k)
        }
        TopKStrategy::Bitonic => {
            let padded = dev.try_alloc_filled(next_pow2(valid.max(1)), T::min_sentinel())?;
            padded.write_range(0, &candidates.host_view()[..valid]);
            topk::bitonic::bitonic_topk(dev, &padded, k.min(valid), BitonicConfig::default())
        }
    };
    r.map_err(QdbError::from)
}

/// Runs a fused filter/project + bitonic top-k: the FusedSortReducer
/// kernel followed by the BitonicReducer continuation.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_fused_topk<T: TopKItem>(
    dev: &Device,
    table: &GpuTweetTable,
    pred_bytes: usize,
    key_bytes: usize,
    matched: Vec<T>,
    k: usize,
) -> Result<TopKResult<T>, QdbError> {
    let k_eff = next_pow2(k.min(matched.len()).max(1));
    let padded = next_pow2(matched.len().max(4096.max(2 * k_eff)));
    let out_runs = dev.try_alloc_filled::<T>(padded, T::min_sentinel())?;
    let out_valid = dev.try_alloc::<u32>(1)?;
    let n_rows = table.len();
    dev.launch(&FusedSortReducerKernel {
        pred_bytes,
        key_bytes,
        n_rows,
        matched,
        k_eff,
        out_runs: out_runs.clone(),
        out_valid: out_valid.clone(),
        _table: table,
    })?;
    let valid = out_valid.get(0) as usize;
    bitonic_topk_from_runs(dev, &out_runs, valid, k, BitonicConfig::default()).map_err(Into::into)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::twitter::TweetTable;

    fn setup(n: usize) -> (Device, TweetTable, GpuTweetTable) {
        let dev = Device::titan_x();
        let host = TweetTable::generate(n, 7);
        let gpu = GpuTweetTable::upload(&dev, &host);
        (dev, host, gpu)
    }

    #[test]
    fn filter_kernel_selects_matching_rows() {
        let (dev, host, gpu) = setup(10_000);
        let cutoff = host.time_cutoff_for_selectivity(0.4);
        let out = dev.alloc::<Kv<u32>>(10_000);
        let cnt = dev.alloc::<u32>(1);
        dev.launch(&FilterKernel {
            table: &gpu,
            op: &FilterOp::TimeLess(cutoff),
            out: out.clone(),
            out_count: cnt.clone(),
        })
        .unwrap();
        let m = cnt.get(0) as usize;
        let expect = host.tweet_time.iter().filter(|&&t| t < cutoff).count();
        assert_eq!(m, expect);
        // every output row actually satisfies the predicate
        for item in out.read_range(0..m) {
            assert!(host.tweet_time[item.value as usize] < cutoff);
            assert_eq!(host.retweet_count[item.value as usize], item.key);
        }
    }

    /// The one scan, against an iterator reference over the host rows:
    /// `matched_pairs` over the resident columns and the filter kernel on a
    /// table with append headroom, before and after an append. The
    /// headroom rows are zeros, which every case but selectivity 0 and
    /// the empty `IN` list would match, so a scan past `len` fails here,
    /// and so does one that drops the last row (selectivity 1). The
    /// kernel writes the matches into the candidate buffer's prefix,
    /// leaves its tail as it was, and bumps its version once.
    #[test]
    fn filter_scan_matches_an_iterator_reference() {
        use datagen::twitter::{LANG_EN, LANG_OTHER};
        let dev = Device::titan_x();
        let host = TweetTable::generate(6_000, 23);
        let batch = TweetTable::generate_at(700, 24, host.len() as u32);
        let gpu = GpuTweetTable::upload_with_capacity(&dev, &host, 8_000);
        let cutoff = |sel| host.time_cutoff_for_selectivity(sel);
        let ops = [
            FilterOp::TimeLess(cutoff(0.0)),
            FilterOp::TimeLess(cutoff(0.01)),
            FilterOp::TimeLess(cutoff(0.5)),
            FilterOp::TimeLess(u32::MAX),
            FilterOp::LangIn(Vec::new()),
            FilterOp::LangIn(vec![LANG_EN]),
            FilterOp::LangIn((LANG_EN..=LANG_OTHER).collect()),
        ];
        let mut rows = host.clone();
        for appended in [false, true] {
            if appended {
                gpu.append_batch(&dev, &batch).unwrap();
                for (col, tail) in [
                    (&mut rows.id, &batch.id),
                    (&mut rows.tweet_time, &batch.tweet_time),
                    (&mut rows.retweet_count, &batch.retweet_count),
                ] {
                    col.extend_from_slice(tail);
                }
                rows.lang.extend_from_slice(&batch.lang);
            }
            assert!(gpu.len() < gpu.capacity());
            for op in &ops {
                let want: Vec<Kv<u32>> = (0..rows.len())
                    .filter(|&r| match op {
                        FilterOp::TimeLess(c) => rows.tweet_time[r] < *c,
                        FilterOp::LangIn(langs) => langs.contains(&rows.lang[r]),
                    })
                    .map(|r| Kv::new(rows.retweet_count[r], rows.id[r]))
                    .collect();
                let case = format!("{op:?}, appended {appended}");
                let got: Vec<Kv<u32>> = gpu.with_columns(|c| op.matched_pairs(&c));
                assert_eq!(got, want, "{case}");

                let before: Vec<Kv<u32>> = (0..gpu.len() as u32).map(|i| Kv::new(i, !i)).collect();
                let out = dev.upload(&before);
                let cnt = dev.alloc::<u32>(1);
                let v0 = out.contents_version();
                dev.launch(&FilterKernel {
                    table: &gpu,
                    op,
                    out: out.clone(),
                    out_count: cnt.clone(),
                })
                .unwrap();
                let m = want.len();
                assert_eq!(cnt.get(0) as usize, m, "{case}");
                assert_eq!(out.contents_version(), v0 + 1, "{case}");
                let got = out.to_vec();
                assert_eq!(got[..m], want[..], "{case}");
                assert_eq!(got[m..], before[m..], "{case}: the tail is untouched");
            }
        }
    }

    #[test]
    fn lang_filter_selectivity() {
        let (dev, host, gpu) = setup(20_000);
        let out = dev.alloc::<Kv<u32>>(20_000);
        let cnt = dev.alloc::<u32>(1);
        dev.launch(&FilterKernel {
            table: &gpu,
            op: &FilterOp::LangIn(vec![0, 1]),
            out,
            out_count: cnt.clone(),
        })
        .unwrap();
        let sel = cnt.get(0) as f64 / host.len() as f64;
        assert!((0.75..0.85).contains(&sel), "en+es selectivity {sel}");
    }

    #[test]
    fn project_rank_formula() {
        let (dev, host, gpu) = setup(5_000);
        let out = dev.alloc::<Kv<f32>>(5_000);
        dev.launch(&ProjectRankKernel {
            table: &gpu,
            out: out.clone(),
        })
        .unwrap();
        let v = out.to_vec();
        for i in [0usize, 17, 4999] {
            let expect = host.retweet_count[i] as f32 + 0.5 * host.likes_count[i] as f32;
            assert_eq!(v[i].key, expect);
            assert_eq!(v[i].value, i as u32);
        }
    }

    #[test]
    fn group_count_totals() {
        let (dev, host, gpu) = setup(30_000);
        let out = dev.alloc::<Kv<u32>>(30_000);
        let cnt = dev.alloc::<u32>(1);
        dev.launch(&GroupCountKernel {
            table: &gpu,
            out: out.clone(),
            out_count: cnt.clone(),
        })
        .unwrap();
        let g = cnt.get(0) as usize;
        let groups = out.read_range(0..g);
        let total: u64 = groups.iter().map(|kv| kv.key as u64).sum();
        assert_eq!(total, host.len() as u64, "counts must sum to row count");
        let mut uids: Vec<u32> = groups.iter().map(|kv| kv.value).collect();
        uids.sort_unstable();
        uids.dedup();
        assert_eq!(uids.len(), g, "group uids must be distinct");
    }

    #[test]
    fn group_count_order_is_reproducible() {
        // the same table on two devices: the fixed-seed hash visits the
        // groups in one order, so the candidate buffers match byte for byte
        let host = TweetTable::generate(30_000, 7);
        let run = || {
            let dev = Device::titan_x();
            let gpu = GpuTweetTable::upload(&dev, &host);
            let out = dev.alloc::<Kv<u32>>(30_000);
            let cnt = dev.alloc::<u32>(1);
            dev.launch(&GroupCountKernel {
                table: &gpu,
                out: out.clone(),
                out_count: cnt.clone(),
            })
            .unwrap();
            (cnt.get(0), out.to_vec())
        };
        let (first, second) = (run(), run());
        assert!(first.0 > 1000, "groups {}", first.0);
        assert_eq!(first, second);
    }

    /// Items, launches, counters and modeled-time bits of one top-k
    /// stage, items compared by key bits and whole value.
    type StageOutcome = (Vec<String>, usize, simt::KernelStats, u64, u64);

    /// Runs the bitonic stage over the first `valid` of `data` twice:
    /// through `run_topk_stage`'s padded staging, and as an unpadded copy
    /// of the prefix that `bitonic_topk` pads itself.
    fn staged_both_ways<T: TopKItem>(
        data: &[T],
        valid: usize,
        k: usize,
    ) -> (StageOutcome, StageOutcome) {
        let run = |padded: bool| -> StageOutcome {
            let dev = Device::titan_x();
            let candidates = dev.upload(data);
            let log0 = dev.log_len();
            let r = if padded {
                run_topk_stage(&dev, &candidates, valid, k, TopKStrategy::Bitonic).unwrap()
            } else {
                let copy = dev.upload(&data[..valid]);
                topk::bitonic::bitonic_topk(&dev, &copy, k, BitonicConfig::default()).unwrap()
            };
            let w = dev.window_since(log0);
            let items = r
                .items
                .iter()
                .map(|x| format!("{:?}/{x:?}", x.key_bits()))
                .collect();
            (
                items,
                w.launches,
                w.stats,
                w.time.0.to_bits(),
                r.time.0.to_bits(),
            )
        };
        (run(true), run(false))
    }

    /// `valid` = 2^j − 1, 2^j and 2^j + 1, in one block (j = 10) and
    /// across blocks (j = 13, where 2^13 + 1 leaves whole blocks of
    /// padding). One candidate in seven carries the min sentinel's key,
    /// the best candidate sits last, where a short copy would drop it,
    /// and the tail past `valid` holds max sentinels, which would win if
    /// staging read them.
    fn staging_case<T: TopKItem>(make: impl Fn(u32, bool) -> T) {
        assert_eq!(
            make(0, true).key_bits(),
            T::min_sentinel().key_bits(),
            "{}",
            std::any::type_name::<T>()
        );
        for j in [10, 13] {
            for valid in [(1usize << j) - 1, 1 << j, (1 << j) + 1] {
                let mut data: Vec<T> = (0..valid as u32).map(|i| make(i, i % 7 == 3)).collect();
                let best = (0..valid).max_by_key(|&i| data[i].rank()).unwrap();
                data.swap(best, valid - 1);
                data.resize(valid + 100, T::max_sentinel());
                for k in [1, 32, 100] {
                    let (padded, copied) = staged_both_ways(&data, valid, k);
                    assert_eq!(
                        padded,
                        copied,
                        "{} valid={valid} k={k}",
                        std::any::type_name::<T>()
                    );
                }
            }
        }
    }

    #[test]
    fn padded_staging_matches_an_unpadded_copy() {
        let key = |i: u32| i.wrapping_mul(2_654_435_761) >> 18;
        staging_case(|i, s| Kv::new(if s { 0 } else { key(i) }, i));
        staging_case(|i, s| {
            let k = if s {
                f32::from_bits(u32::MAX)
            } else {
                key(i) as f32 * 0.25
            };
            Kv::new(k, i)
        });
        staging_case(|i, s| datagen::Rev(Kv::new(if s { u32::MAX } else { key(i) }, i)));
    }

    /// The fused reducer's host body before it reduced by selection: the
    /// item-level local sort, merges and rebuilds over `matched` padded
    /// to `padded`, with a fresh half buffer per merge. Returns the runs
    /// it leaves.
    fn item_level_runs<T: TopKItem>(matched: &[T], k_eff: usize, padded: usize) -> Vec<T> {
        let mut buf = matched.to_vec();
        buf.resize(padded, T::min_sentinel());
        let merges =
            FusedSortReducerKernel::<T>::MERGES.min(sortnet::log2(padded / k_eff) as usize);
        host::local_sort(&mut buf, k_eff);
        let mut len = buf.len();
        for mi in 0..merges {
            let mut half = vec![T::min_sentinel(); len / 2];
            host::merge_halve(&buf[..len], k_eff, &mut half);
            len /= 2;
            buf[..len].copy_from_slice(&half);
            if mi + 1 < merges {
                host::rebuild(&mut buf[..len], k_eff);
            }
        }
        buf.truncate(len);
        buf
    }

    /// Runs the fused reducer on `matched` and checks its `out_runs`
    /// against [`item_level_runs`], bit for bit (key sort bits and the
    /// whole item).
    fn fused_runs_case<T: TopKItem>(
        gpu: &GpuTweetTable,
        dev: &Device,
        matched: Vec<T>,
        k_eff: usize,
    ) {
        use datagen::RadixBits;
        let seg = FusedSortReducerKernel::<T>::SEG.max(2 * k_eff);
        let padded = next_pow2(matched.len().max(seg));
        let expect = item_level_runs(&matched, k_eff, padded);
        let out_runs = dev.alloc_filled::<T>(padded, T::min_sentinel());
        let out_valid = dev.alloc::<u32>(1);
        let m = matched.len();
        dev.launch(&FusedSortReducerKernel {
            pred_bytes: 4,
            key_bytes: 4,
            n_rows: gpu.len(),
            matched,
            k_eff,
            out_runs: out_runs.clone(),
            out_valid: out_valid.clone(),
            _table: gpu,
        })
        .unwrap();
        let exact = |v: &[T]| -> Vec<String> {
            v.iter()
                .map(|x| format!("{:x}/{x:?}", x.key_bits().as_u64()))
                .collect()
        };
        let valid = out_valid.get(0) as usize;
        assert_eq!(valid, expect.len(), "m={m} k={k_eff}");
        assert_eq!(
            exact(&out_runs.read_range(0..valid)),
            exact(&expect),
            "{} m={m} k={k_eff}",
            std::any::type_name::<T>()
        );
    }

    #[test]
    fn fused_reducer_runs_match_the_item_level_network() {
        let (dev, host, gpu) = setup(20_000);
        for m in [0usize, 1, 100, 4096, 4097, 20_000] {
            for k_eff in [1usize, 2, 8, 64, 1024, 4096] {
                // retweet counts: heavy key duplicates, ids break the ties
                let pairs: Vec<Kv<u32>> = (0..m)
                    .map(|r| Kv::new(host.retweet_count[r], r as u32))
                    .collect();
                let ranked: Vec<Kv<f32>> = pairs
                    .iter()
                    .map(|kv| Kv::new(kv.key as f32 * 0.5 - 3.0, kv.value))
                    .collect();
                let asc: Vec<datagen::Rev<Kv<u32>>> =
                    pairs.iter().map(|&kv| datagen::Rev(kv)).collect();
                fused_runs_case(&gpu, &dev, pairs, k_eff);
                fused_runs_case(&gpu, &dev, ranked, k_eff);
                fused_runs_case(&gpu, &dev, asc, k_eff);
            }
        }
    }

    #[test]
    fn fused_topk_matches_unfused() {
        let (dev, host, gpu) = setup(50_000);
        let cutoff = host.time_cutoff_for_selectivity(0.5);
        let op = FilterOp::TimeLess(cutoff);
        let matched: Vec<Kv<u32>> = (0..host.len())
            .filter(|&r| host.tweet_time[r] < cutoff)
            .map(|r| Kv::new(host.retweet_count[r], r as u32))
            .collect();
        let fused = run_fused_topk(&dev, &gpu, op.pred_bytes(), 4, matched.clone(), 50).unwrap();
        let view = dev.upload(&matched);
        let unfused = topk::sort::sort_topk(&dev, &view, 50).unwrap();
        let fk: Vec<u32> = fused.items.iter().map(|x| x.key).collect();
        let uk: Vec<u32> = unfused.items.iter().map(|x| x.key).collect();
        assert_eq!(fk, uk);
    }

    #[test]
    fn fused_is_cheaper_than_filter_plus_topk_traffic() {
        // Section 5: fusion saves writing + re-reading the filtered pairs
        let (dev, host, gpu) = setup(1 << 17);
        let cutoff = host.time_cutoff_for_selectivity(1.0);
        let matched: Vec<Kv<u32>> = (0..host.len())
            .map(|r| Kv::new(host.retweet_count[r], r as u32))
            .collect();

        let log0 = dev.log_len();
        let _ = run_fused_topk(&dev, &gpu, 4, 4, matched.clone(), 50).unwrap();
        let fused_bytes: u64 = dev
            .log_since(log0)
            .iter()
            .map(|r| r.stats.global_bytes())
            .sum();

        // unfused: filter writes pairs, top-k reads them again
        let out = dev.alloc::<Kv<u32>>(1 << 17);
        let cnt = dev.alloc::<u32>(1);
        let log1 = dev.log_len();
        dev.launch(&FilterKernel {
            table: &gpu,
            op: &FilterOp::TimeLess(cutoff),
            out: out.clone(),
            out_count: cnt.clone(),
        })
        .unwrap();
        let r = run_topk_stage(&dev, &out, cnt.get(0) as usize, 50, TopKStrategy::Bitonic).unwrap();
        let unfused_bytes: u64 = dev
            .log_since(log1)
            .iter()
            .map(|x| x.stats.global_bytes())
            .sum::<u64>()
            .max(r.global_bytes());

        assert!(
            fused_bytes * 10 < unfused_bytes * 9,
            "fusion should save ≥10% of global traffic: fused={fused_bytes} unfused={unfused_bytes}"
        );
    }
}
