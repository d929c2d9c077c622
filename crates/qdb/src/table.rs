//! Device-resident tweet table.
//!
//! Tables are append-only streams: columns are allocated once (with
//! optional growth headroom), and [`GpuTweetTable::append_batch`] splices
//! arrival batches into the tail, charging the host→device transfer in
//! simulated time and bumping a monotonic **epoch**. Every derived
//! structure that must notice data arrival — materialized views, the
//! server result cache, delegate indexes attached via `attach_aux` —
//! keys its validity on that epoch (or on the buffers' contents
//! version, which every append also bumps).

use std::cell::Cell;

use datagen::twitter::TweetTable;
use simt::{Device, GpuBuffer, SimTime};

use crate::error::QdbError;

/// Bytes per row on the wire: four u32 key columns, one u8 lang column,
/// and the u32 uid column (the same row size the sharded loader charges).
pub const ROW_BYTES: usize = 4 * 5 + 1;

/// The outcome of one append: what landed, what it cost on the wire,
/// and the table epoch after the splice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppendReceipt {
    /// Rows appended.
    pub rows: usize,
    /// Payload bytes charged to the host→device link.
    pub bytes: usize,
    /// Modeled transfer time charged in `simt`.
    pub transfer_time: SimTime,
    /// The table epoch after this append.
    pub epoch: u64,
}

/// The Twitter table of Section 6.8, uploaded column-by-column to the
/// simulated device.
pub struct GpuTweetTable {
    /// Tweet id column.
    pub id: GpuBuffer<u32>,
    /// Seconds since the start of the month.
    pub tweet_time: GpuBuffer<u32>,
    /// Retweet counts.
    pub retweet_count: GpuBuffer<u32>,
    /// Like counts.
    pub likes_count: GpuBuffer<u32>,
    /// Language codes (see `datagen::twitter`).
    pub lang: GpuBuffer<u8>,
    /// Author ids.
    pub uid: GpuBuffer<u32>,
    len: Cell<usize>,
    cap: usize,
    epoch: Cell<u64>,
}

impl GpuTweetTable {
    /// Uploads a host-side table with zero growth headroom (columns
    /// sized exactly to the rows) — the frozen-table regime every
    /// one-shot query path uses.
    pub fn upload(dev: &Device, t: &TweetTable) -> Self {
        Self::upload_with_capacity(dev, t, t.len())
    }

    /// Uploads a host-side table into columns allocated for `cap_rows`
    /// rows, leaving `cap_rows - t.len()` rows of headroom for
    /// [`GpuTweetTable::append_batch`]. Kernels scan only the logical
    /// prefix, so the slack is invisible until an append claims it.
    pub fn upload_with_capacity(dev: &Device, t: &TweetTable, cap_rows: usize) -> Self {
        let cap = cap_rows.max(t.len());
        fn padded<T: simt::DeviceCopy>(dev: &Device, col: &[T], cap: usize) -> GpuBuffer<T> {
            let buf = dev.alloc::<T>(cap);
            buf.upload(col);
            buf
        }
        Self {
            id: padded(dev, &t.id, cap),
            tweet_time: padded(dev, &t.tweet_time, cap),
            retweet_count: padded(dev, &t.retweet_count, cap),
            likes_count: padded(dev, &t.likes_count, cap),
            lang: padded(dev, &t.lang, cap),
            uid: padded(dev, &t.uid, cap),
            len: Cell::new(t.len()),
            cap,
            epoch: Cell::new(0),
        }
    }

    /// Splices an arrival batch into the column tails, charges the
    /// host→device transfer against `dev`'s ingest ledger, and bumps
    /// the epoch. Shared-reference on purpose: servers and views hold
    /// `&GpuTweetTable` while data keeps arriving.
    ///
    /// Appends are the one mutation a resident table permits, and they
    /// bump every column's contents version — aux structures like the
    /// delegate index invalidate automatically (or are re-extended
    /// incrementally via `topk::delegate::extend_delegate_index`).
    pub fn append_batch(
        &self,
        dev: &Device,
        batch: &TweetTable,
    ) -> Result<AppendReceipt, QdbError> {
        if dev.is_down() {
            return Err(QdbError::DeviceFault {
                what: "append to a permanently lost device".to_string(),
                transient: false,
                attempts: 1,
                device: None,
            });
        }
        self.splice_rows(batch)?;
        let epoch = self.epoch.get();
        let bytes = batch.len() * ROW_BYTES;
        let transfer_time = dev.ingest_transfer(bytes, format!("append:epoch{epoch}"));
        Ok(AppendReceipt {
            rows: batch.len(),
            bytes,
            transfer_time,
            epoch,
        })
    }

    /// The splice without the ingest accounting: capacity-checks,
    /// overwrites the column tails, bumps the length and the epoch.
    /// The sharded append path charges its transfers on the cluster's
    /// interconnect instead of the single-device ingest ledger, so the
    /// data movement and its pricing are separated here.
    pub(crate) fn splice_rows(&self, batch: &TweetTable) -> Result<(), QdbError> {
        let old = self.len.get();
        let needed = old + batch.len();
        if needed > self.cap {
            return Err(QdbError::CapacityExceeded {
                needed,
                cap: self.cap,
            });
        }
        self.id.write_range(old, &batch.id);
        self.tweet_time.write_range(old, &batch.tweet_time);
        self.retweet_count.write_range(old, &batch.retweet_count);
        self.likes_count.write_range(old, &batch.likes_count);
        self.lang.write_range(old, &batch.lang);
        self.uid.write_range(old, &batch.uid);
        self.len.set(needed);
        self.epoch.set(self.epoch.get() + 1);
        Ok(())
    }

    /// Materializes rows `lo..hi` as a standalone, exactly-sized device
    /// table on `dev` — the delta sub-table streaming view maintenance
    /// scans. The rows are already resident, so the copy itself is
    /// functional-only (no wire charge); kernels over the slice then
    /// charge exactly the slice's rows, which is what makes delta
    /// maintenance `O(delta)` instead of `O(n)`.
    pub fn device_slice(&self, dev: &Device, lo: usize, hi: usize) -> GpuTweetTable {
        assert!(
            lo <= hi && hi <= self.len(),
            "slice out of the logical prefix"
        );
        fn col<T: simt::DeviceCopy>(
            dev: &Device,
            buf: &GpuBuffer<T>,
            lo: usize,
            hi: usize,
        ) -> GpuBuffer<T> {
            let out = dev.alloc::<T>(hi - lo);
            out.upload(&buf.host_view()[lo..hi]);
            out
        }
        GpuTweetTable {
            id: col(dev, &self.id, lo, hi),
            tweet_time: col(dev, &self.tweet_time, lo, hi),
            retweet_count: col(dev, &self.retweet_count, lo, hi),
            likes_count: col(dev, &self.likes_count, lo, hi),
            lang: col(dev, &self.lang, lo, hi),
            uid: col(dev, &self.uid, lo, hi),
            len: Cell::new(hi - lo),
            cap: hi - lo,
            epoch: Cell::new(0),
        }
    }

    /// Number of rows (the logical prefix kernels scan).
    pub fn len(&self) -> usize {
        self.len.get()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len.get() == 0
    }

    /// Rows the device columns were allocated for (append headroom is
    /// `capacity() - len()`).
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Monotonic data epoch: 0 at load, +1 per completed append. Any
    /// result derived at epoch `e` is valid exactly while the table is
    /// still at `e`.
    pub fn epoch(&self) -> u64 {
        self.epoch.get()
    }

    /// Runs `f` over the resident columns' `[..len]` prefixes, borrowed
    /// in place (no copy, no version bump).
    pub(crate) fn with_columns<R>(&self, f: impl FnOnce(Columns<'_>) -> R) -> R {
        let n = self.len();
        let cols = [
            &self.id,
            &self.tweet_time,
            &self.retweet_count,
            &self.likes_count,
            &self.uid,
        ];
        let [id, time, retweets, likes, uid] = cols.map(GpuBuffer::host_view);
        let lang = self.lang.host_view();
        f(Columns {
            id: &id[..n],
            tweet_time: &time[..n],
            retweet_count: &retweets[..n],
            likes_count: &likes[..n],
            lang: &lang[..n],
            uid: &uid[..n],
        })
    }
}

/// Borrowed host columns over the same rows: a [`TweetTable`]'s vectors,
/// or a [`GpuTweetTable`]'s resident prefixes. The CPU engine and the
/// one scan bodies (filter, rank, group count) read rows through it.
#[derive(Clone, Copy)]
pub(crate) struct Columns<'a> {
    pub id: &'a [u32],
    pub tweet_time: &'a [u32],
    pub retweet_count: &'a [u32],
    pub likes_count: &'a [u32],
    pub lang: &'a [u8],
    pub uid: &'a [u32],
}

impl<'a> Columns<'a> {
    /// Every row of `t`.
    pub(crate) fn of(t: &'a TweetTable) -> Self {
        Columns {
            id: &t.id,
            tweet_time: &t.tweet_time,
            retweet_count: &t.retweet_count,
            likes_count: &t.likes_count,
            lang: &t.lang,
            uid: &t.uid,
        }
    }

    /// The `(retweet_count, likes_count)` of tweet `id`, found by binary
    /// search (ids are strictly increasing); `None` when no row holds it.
    pub(crate) fn counts_of(&self, id: u32) -> Option<(u32, u32)> {
        let row = self.id.binary_search(&id).ok()?;
        Some((self.retweet_count[row], self.likes_count[row]))
    }

    /// Rows `r` only.
    pub(crate) fn rows(&self, r: std::ops::Range<usize>) -> Self {
        Columns {
            id: &self.id[r.clone()],
            tweet_time: &self.tweet_time[r.clone()],
            retweet_count: &self.retweet_count[r.clone()],
            likes_count: &self.likes_count[r.clone()],
            lang: &self.lang[r.clone()],
            uid: &self.uid[r],
        }
    }
}

/// Rows `rows` of `t`, in that order, as a standalone host table — how
/// partitions and routed append batches are cut.
pub(crate) fn host_rows(t: &TweetTable, rows: impl Iterator<Item = usize> + Clone) -> TweetTable {
    TweetTable {
        id: rows.clone().map(|r| t.id[r]).collect(),
        tweet_time: rows.clone().map(|r| t.tweet_time[r]).collect(),
        retweet_count: rows.clone().map(|r| t.retweet_count[r]).collect(),
        likes_count: rows.clone().map(|r| t.likes_count[r]).collect(),
        lang: rows.clone().map(|r| t.lang[r]).collect(),
        uid: rows.map(|r| t.uid[r]).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upload_roundtrips() {
        let dev = Device::titan_x();
        let host = TweetTable::generate(1000, 1);
        let gpu = GpuTweetTable::upload(&dev, &host);
        assert_eq!(gpu.len(), 1000);
        assert!(!gpu.is_empty());
        assert_eq!(gpu.capacity(), 1000);
        assert_eq!(gpu.epoch(), 0);
        assert_eq!(gpu.retweet_count.to_vec(), host.retweet_count);
        assert_eq!(gpu.lang.to_vec(), host.lang);
    }

    #[test]
    fn append_splices_bumps_epoch_and_charges_the_wire() {
        let dev = Device::titan_x();
        let mut host = TweetTable::generate(1000, 1);
        let gpu = GpuTweetTable::upload_with_capacity(&dev, &host, 1500);
        assert_eq!(gpu.capacity(), 1500);

        let batch = TweetTable::generate_at(300, 7, host.len() as u32);
        let ingests_before = dev.ingest_len();
        let r = gpu.append_batch(&dev, &batch).expect("headroom available");
        assert_eq!(r.rows, 300);
        assert_eq!(r.bytes, 300 * ROW_BYTES);
        assert_eq!(r.epoch, 1);
        assert!(r.transfer_time > SimTime::ZERO);
        assert_eq!(dev.ingest_len(), ingests_before + 1);
        assert_eq!(gpu.len(), 1300);
        assert_eq!(gpu.epoch(), 1);

        // the device columns now match the concatenated host table
        host.extend_from(&batch);
        assert_eq!(gpu.retweet_count.read_range(0..1300), host.retweet_count);
        assert_eq!(gpu.id.read_range(0..1300), host.id);

        // overflow is a typed error and changes nothing
        let big = TweetTable::generate_at(500, 9, host.len() as u32);
        match gpu.append_batch(&dev, &big) {
            Err(QdbError::CapacityExceeded { needed, cap }) => {
                assert_eq!((needed, cap), (1800, 1500));
            }
            other => panic!("expected CapacityExceeded, got {other:?}"),
        }
        assert_eq!(gpu.len(), 1300);
        assert_eq!(gpu.epoch(), 1);
    }
}
