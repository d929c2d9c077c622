//! Block execution context: shared memory, tracked lanes, and the
//! warp-lockstep replay that computes coalescing and bank conflicts.

use std::any::Any;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::rc::Rc;

use crate::buffer::{DeviceCopy, GpuBuffer};
use crate::sanitize::LaunchSanitizer;
use crate::spec::DeviceSpec;
use crate::stats::KernelStats;

/// One tracked memory access, logged in thread order and replayed in
/// warp-lockstep order.
#[derive(Debug, Clone, Copy)]
enum Ev {
    Global { addr: u64, bytes: u32, write: bool },
    Shared { word: u32, words: u32 },
}

/// Handle to a shared-memory array allocated by [`BlockCtx::alloc_shared`].
pub struct SharedHandle<T> {
    id: usize,
    len: usize,
    base_word: u32,
    _ty: PhantomData<T>,
}

impl<T> Clone for SharedHandle<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SharedHandle<T> {}

impl<T> SharedHandle<T> {
    /// Number of elements in the shared array.
    pub fn len(&self) -> usize {
        self.len
    }
    /// True when the array has zero elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

struct SharedArray {
    data: Box<dyn Any>,
}

/// Execution context of one thread block.
///
/// Kernels allocate shared arrays up front, then run a sequence of
/// [`BlockCtx::step`] rounds (the code between `__syncthreads()`).
/// `Device::launch` reuses one context for every block of a launch, so
/// the event log and replay scratch are allocated once per launch.
pub struct BlockCtx {
    /// This block's index within the grid.
    pub block_idx: usize,
    /// Number of blocks in the grid.
    pub grid_dim: usize,
    block_dim: usize,
    spec: DeviceSpec,
    shared: Vec<SharedArray>,
    shared_words_used: u32,
    /// The step's events, lane after lane: lane `t` logged
    /// `events[lane_starts[t]..lane_starts[t + 1]]`.
    events: Vec<Ev>,
    lane_starts: Vec<usize>,
    stats: KernelStats,
    /// Per-launch sanitizer, attached by `Device::launch` when enabled.
    san: Option<Rc<RefCell<LaunchSanitizer>>>,
    scratch: ReplayScratch,
}

/// Scratch of the warp-lockstep replay, reused across steps and blocks.
/// Between (warp, slot) groups every bit of `seen` and every entry of
/// `bank_counts` is zero.
#[derive(Default)]
struct ReplayScratch {
    /// One bit per shared word: already counted in the current group.
    seen: Vec<u64>,
    /// The current group's distinct shared words (to clear `seen`).
    words: Vec<u32>,
    /// Distinct words per bank in the current group.
    bank_counts: Vec<u32>,
    /// The current group's global sectors, write flag in bit 0.
    sectors: Vec<u64>,
}

impl ReplayScratch {
    /// Replays one warp: lane `i` logged `events[lanes[i]..lanes[i + 1]]`.
    ///
    /// For each event slot, the lanes' events at that slot form one group:
    /// global accesses coalesce into distinct 32-byte sectors; shared
    /// accesses pay the maximum per-bank multiplicity over distinct words
    /// (same-word broadcast is free).
    fn warp(&mut self, spec: &DeviceSpec, events: &[Ev], lanes: &[usize]) -> KernelStats {
        let banks = spec.shared_banks;
        let mut stats = KernelStats::default();
        let max_slots = lanes.windows(2).map(|l| l[1] - l[0]).max().unwrap_or(0);
        for slot in 0..max_slots {
            let mut shared_ev = 0u64;
            let mut global_ev = 0u64;
            let mut degree = 0u32;
            let mut in_order = true;
            self.sectors.clear();
            for l in lanes.windows(2) {
                let i = l[0] + slot;
                if i >= l[1] {
                    continue;
                }
                match events[i] {
                    Ev::Global { addr, bytes, write } => {
                        global_ev += 1;
                        for s in addr / 32..=(addr + bytes as u64 - 1) / 32 {
                            let tagged = (s << 1) | write as u64;
                            in_order &= self.sectors.last().is_none_or(|&p| p <= tagged);
                            self.sectors.push(tagged);
                        }
                    }
                    Ev::Shared { word, words } => {
                        shared_ev += 1;
                        for w in word..word + words {
                            let (q, bit) = (w as usize / 64, 1u64 << (w % 64));
                            if self.seen[q] & bit == 0 {
                                self.seen[q] |= bit;
                                self.words.push(w);
                                let c = &mut self.bank_counts[w as usize % banks];
                                *c += 1;
                                degree = degree.max(*c);
                            }
                        }
                    }
                }
            }
            // --- global coalescing: distinct sectors, reads and writes
            // tracked separately (the write flag rides in bit 0)
            if !self.sectors.is_empty() {
                if !in_order {
                    self.sectors.sort_unstable();
                }
                self.sectors.dedup();
                for &tagged in &self.sectors {
                    if tagged & 1 == 1 {
                        stats.global_write_bytes += 32;
                    } else {
                        stats.global_read_bytes += 32;
                    }
                    stats.global_sectors += 1;
                }
                stats.global_accesses += global_ev;
            }
            // --- shared bank conflicts over distinct words
            if shared_ev > 0 {
                for &w in &self.words {
                    self.seen[w as usize / 64] = 0;
                    self.bank_counts[w as usize % banks] = 0;
                }
                self.words.clear();
                let degree = degree as u64;
                debug_assert!(degree >= 1);
                stats.shared_accesses += shared_ev;
                stats.shared_eff_bytes += degree * (spec.warp_size as u64) * 4;
                if degree > 1 {
                    stats.shared_conflict_groups += 1;
                    stats.shared_conflict_cycles += degree - 1;
                }
            }
        }
        stats
    }
}

/// True when warp `b`'s events are warp `a`'s moved by one constant
/// shared-word offset and one constant global offset of whole 32-byte
/// sectors: each lane logged as many events as its partner, and event for
/// event the kind, width and direction agree. `a` and `b` hold the two
/// warps' lane start offsets into `events`, as [`ReplayScratch::warp`]
/// takes them.
///
/// Such warps replay to the same counters. A constant word offset
/// rotates the bank index and keeps distinct words distinct, so every
/// (warp, slot) group keeps its per-bank counts, permuted, and with them
/// its degree. A whole-sector offset maps distinct (sector, direction)
/// pairs one to one.
fn translates(events: &[Ev], a: &[usize], b: &[usize]) -> bool {
    let (a0, b0) = (a[0], b[0]);
    if a.len() != b.len() || a.iter().zip(b).any(|(&x, &y)| x - a0 != y - b0) {
        return false;
    }
    let n = a[a.len() - 1] - a0;
    let (mut word_delta, mut addr_delta) = (None, None);
    events[a0..a0 + n]
        .iter()
        .zip(&events[b0..b0 + n])
        .all(|(p, q)| match (*p, *q) {
            (Ev::Shared { word: x, words: wx }, Ev::Shared { word: y, words: wy }) => {
                let d = y.wrapping_sub(x);
                wx == wy && *word_delta.get_or_insert(d) == d
            }
            (
                Ev::Global {
                    addr: x,
                    bytes: bx,
                    write: rx,
                },
                Ev::Global {
                    addr: y,
                    bytes: by,
                    write: ry,
                },
            ) => {
                let d = y.wrapping_sub(x);
                bx == by && rx == ry && d % 32 == 0 && *addr_delta.get_or_insert(d) == d
            }
            _ => false,
        })
}

impl BlockCtx {
    pub(crate) fn new(
        spec: DeviceSpec,
        block_idx: usize,
        grid_dim: usize,
        block_dim: usize,
    ) -> Self {
        Self {
            block_idx,
            grid_dim,
            block_dim,
            spec,
            shared: Vec::new(),
            shared_words_used: 0,
            events: Vec::new(),
            lane_starts: Vec::with_capacity(block_dim + 1),
            stats: KernelStats::default(),
            san: None,
            scratch: ReplayScratch {
                bank_counts: vec![0; spec.shared_banks],
                ..ReplayScratch::default()
            },
        }
    }

    /// Readies the context for block `block_idx` of the same launch: frees
    /// the previous block's shared arrays and keeps the replay buffers.
    pub(crate) fn begin_block(&mut self, block_idx: usize) {
        self.block_idx = block_idx;
        self.shared.clear();
        self.shared_words_used = 0;
    }

    /// Attaches the launch's sanitizer (see [`crate::sanitize`]).
    pub(crate) fn set_sanitizer(&mut self, san: Rc<RefCell<LaunchSanitizer>>) {
        self.san = Some(san);
    }

    /// Threads in this block.
    pub fn block_dim(&self) -> usize {
        self.block_dim
    }

    /// The device spec the kernel runs on.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Shared-memory bytes allocated so far by this block.
    pub fn shared_bytes_used(&self) -> usize {
        self.shared_words_used as usize * 4
    }

    /// Allocates a shared-memory array of `len` elements, default-filled.
    ///
    /// # Panics
    /// If the allocation exceeds the per-block shared memory limit — the
    /// launch path checks declared usage first, so hitting this indicates
    /// a kernel whose declaration understates its needs.
    pub fn alloc_shared<T: DeviceCopy>(&mut self, len: usize) -> SharedHandle<T> {
        let words_per_elem = Self::words_per_elem::<T>();
        let words = (len * words_per_elem) as u32;
        let base_word = self.shared_words_used;
        self.shared_words_used += words;
        assert!(
            self.shared_bytes_used() <= self.spec.shared_mem_per_block,
            "shared memory overflow: {} bytes used, {} available",
            self.shared_bytes_used(),
            self.spec.shared_mem_per_block
        );
        self.shared.push(SharedArray {
            data: Box::new(vec![T::default(); len]),
        });
        if let Some(san) = &self.san {
            san.borrow_mut()
                .on_alloc_shared(base_word, words, len, std::any::type_name::<T>());
        }
        SharedHandle {
            id: self.shared.len() - 1,
            len,
            base_word,
            _ty: PhantomData,
        }
    }

    fn words_per_elem<T>() -> usize {
        std::mem::size_of::<T>().div_ceil(4).max(1)
    }

    /// Runs one warp-synchronous step: `f` executes for every thread of
    /// the block; tracked accesses are then replayed in warp lockstep to
    /// account coalescing and bank conflicts.
    pub fn step<F: FnMut(&mut Lane<'_>)>(&mut self, mut f: F) {
        self.events.clear();
        self.lane_starts.clear();
        let step_idx = self.stats.steps as usize;
        if let Some(san) = &self.san {
            san.borrow_mut().begin_step(step_idx);
        }
        let mut ops_acc: u64 = 0;
        for tid in 0..self.block_dim {
            self.lane_starts.push(self.events.len());
            let mut lane = Lane {
                tid,
                block_idx: self.block_idx,
                block_dim: self.block_dim,
                grid_dim: self.grid_dim,
                step: step_idx,
                shared: &mut self.shared,
                first_event: self.events.len(),
                events: &mut self.events,
                ops_acc: &mut ops_acc,
                san: self.san.as_ref(),
            };
            f(&mut lane);
        }
        self.lane_starts.push(self.events.len());
        if let Some(san) = &self.san {
            san.borrow_mut().end_step(&self.spec);
        }
        self.stats.compute_ops += ops_acc;
        self.stats.steps += 1;
        self.replay();
    }

    /// Warp-lockstep replay of the step's events, warp by warp.
    ///
    /// A warp whose events are a translation (see [`translates`]) of the
    /// step's reference warp, the last full warp replayed in full, reuses
    /// the reference's counters; a partial warp never is one, as it has
    /// fewer lanes. Every other warp is replayed by
    /// [`ReplayScratch::warp`], and a full one becomes the reference.
    fn replay(&mut self) {
        let ws = self.spec.warp_size;
        let words = (self.shared_words_used as usize).div_ceil(64);
        if self.scratch.seen.len() < words {
            self.scratch.seen.resize(words, 0);
        }
        let starts = &self.lane_starts;
        let mut reference: Option<(usize, KernelStats)> = None;
        for lo in (0..self.block_dim).step_by(ws) {
            let lanes = &starts[lo..=(lo + ws).min(self.block_dim)];
            let reused =
                reference.filter(|&(r, _)| translates(&self.events, &starts[r..=r + ws], lanes));
            let counters = match reused {
                Some((_, counters)) => {
                    debug_assert_eq!(
                        self.scratch.warp(&self.spec, &self.events, lanes),
                        counters,
                        "warp at lane {lo} translates the reference but replays differently"
                    );
                    counters
                }
                None => {
                    let counters = self.scratch.warp(&self.spec, &self.events, lanes);
                    if lanes.len() == ws + 1 {
                        reference = Some((lo, counters));
                    }
                    counters
                }
            };
            self.stats.merge(&counters);
        }
    }

    // ----- bulk accounting for streaming kernels -------------------------

    /// Charges `bytes` of perfectly coalesced global reads.
    pub fn bulk_global_read(&mut self, bytes: u64) {
        self.stats.global_read_bytes += bytes;
        self.stats.global_sectors += bytes / 32;
    }

    /// Charges `bytes` of perfectly coalesced global writes.
    pub fn bulk_global_write(&mut self, bytes: u64) {
        self.stats.global_write_bytes += bytes;
        self.stats.global_sectors += bytes / 32;
    }

    /// Charges `bytes` of conflict-free shared traffic.
    pub fn bulk_shared(&mut self, bytes: u64) {
        self.stats.shared_eff_bytes += bytes;
        self.stats.shared_accesses += bytes / 4;
    }

    /// Charges shared traffic with an explicit average conflict degree.
    pub fn bulk_shared_with_conflicts(&mut self, bytes: u64, avg_degree: f64) {
        assert!(avg_degree >= 1.0);
        let eff = (bytes as f64 * avg_degree) as u64;
        self.stats.shared_eff_bytes += eff;
        self.stats.shared_accesses += bytes / 4;
        let lines = bytes / 128;
        let extra = ((avg_degree - 1.0) * lines as f64) as u64;
        if extra > 0 {
            self.stats.shared_conflict_groups += lines;
            self.stats.shared_conflict_cycles += extra;
        }
    }

    /// Charges `n` scalar-op equivalents of compute.
    pub fn bulk_ops(&mut self, n: u64) {
        self.stats.compute_ops += n;
    }

    /// Charges `n` atomic operations.
    pub fn bulk_atomics(&mut self, n: u64) {
        self.stats.atomic_ops += n;
    }

    /// Reads a shared array back on the host side (no traffic) — used by
    /// kernels at block end when moving staged results without modeling
    /// (the tracked path is preferred).
    pub fn shared_snapshot<T: DeviceCopy>(&self, h: SharedHandle<T>) -> Vec<T> {
        self.shared[h.id]
            .data
            .downcast_ref::<Vec<T>>()
            .expect("shared handle type mismatch")
            .clone()
    }

    pub(crate) fn take_stats(&mut self) -> KernelStats {
        std::mem::take(&mut self.stats)
    }
}

/// Per-thread view inside a [`BlockCtx::step`] closure.
///
/// All memory methods log tracked events; the replay after the step
/// converts them into traffic statistics.
pub struct Lane<'a> {
    tid: usize,
    block_idx: usize,
    block_dim: usize,
    grid_dim: usize,
    step: usize,
    shared: &'a mut Vec<SharedArray>,
    /// The step's flat event log; this lane's events start at
    /// `first_event`, so an event's slot is its offset from there.
    events: &'a mut Vec<Ev>,
    first_event: usize,
    ops_acc: &'a mut u64,
    san: Option<&'a Rc<RefCell<LaunchSanitizer>>>,
}

impl<'a> Lane<'a> {
    /// Thread index within the block.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Global thread index across the grid.
    pub fn gtid(&self) -> usize {
        self.block_idx * self.block_dim + self.tid
    }

    /// Slot of this lane's next tracked event.
    fn slot(&self) -> u32 {
        (self.events.len() - self.first_event) as u32
    }

    /// Lane index within the warp.
    pub fn lane_in_warp(&self, warp_size: usize) -> usize {
        self.tid % warp_size
    }

    /// Block index (same as [`BlockCtx::block_idx`]).
    pub fn block_idx(&self) -> usize {
        self.block_idx
    }

    /// Total threads in the grid.
    pub fn grid_threads(&self) -> usize {
        self.grid_dim * self.block_dim
    }

    /// Handles an out-of-bounds shared access: a memcheck finding when a
    /// sanitizer is attached (the access is skipped), a structured panic
    /// otherwise. Always on — release builds no longer skip the check.
    ///
    /// Returns `true` when the caller must skip the access.
    fn shared_oob(&self, base_word: u32, len: usize, idx: usize, write: bool) -> bool {
        if let Some(san) = self.san {
            san.borrow_mut()
                .record_oob(self.tid, base_word as u64, len, idx, write, None);
            return true;
        }
        panic!(
            "memcheck: shared {} out of bounds: index {idx} >= len {len} \
             (block {}, step {}, lane {})",
            if write { "write" } else { "read" },
            self.block_idx,
            self.step,
            self.tid
        );
    }

    /// Global-memory analog of [`Lane::shared_oob`].
    fn global_oob<T: DeviceCopy>(&self, buf: &GpuBuffer<T>, idx: usize, write: bool) -> bool {
        if let Some(san) = self.san {
            san.borrow_mut().record_oob(
                self.tid,
                buf.inner.base_addr,
                buf.len(),
                idx,
                write,
                Some(buf.describe()),
            );
            return true;
        }
        panic!(
            "memcheck: global {} out of bounds: index {idx} >= len {} on {} \
             (block {}, step {}, lane {})",
            if write { "write" } else { "read" },
            buf.len(),
            buf.describe(),
            self.block_idx,
            self.step,
            self.tid
        );
    }

    /// Tracked global read.
    pub fn gread<T: DeviceCopy>(&mut self, buf: &GpuBuffer<T>, idx: usize) -> T {
        let bytes = std::mem::size_of::<T>() as u32;
        if idx >= buf.len() {
            self.global_oob(buf, idx, false);
            return T::default();
        }
        let addr = buf.inner.base_addr + (idx as u64) * bytes as u64;
        if let Some(san) = self.san {
            san.borrow_mut()
                .global_access(self.tid, addr, bytes, false, self.slot(), &|| {
                    buf.describe()
                });
        }
        self.events.push(Ev::Global {
            addr,
            bytes,
            write: false,
        });
        buf.inner.data.borrow()[idx]
    }

    /// Tracked global write.
    pub fn gwrite<T: DeviceCopy>(&mut self, buf: &GpuBuffer<T>, idx: usize, v: T) {
        let bytes = std::mem::size_of::<T>() as u32;
        if idx >= buf.len() {
            self.global_oob(buf, idx, true);
            return;
        }
        let addr = buf.inner.base_addr + (idx as u64) * bytes as u64;
        if let Some(san) = self.san {
            san.borrow_mut()
                .global_access(self.tid, addr, bytes, true, self.slot(), &|| buf.describe());
        }
        self.events.push(Ev::Global {
            addr,
            bytes,
            write: true,
        });
        buf.inner.data.borrow_mut()[idx] = v;
        buf.inner.bump_version();
    }

    /// Tracked shared read.
    pub fn sread<T: DeviceCopy>(&mut self, h: SharedHandle<T>, idx: usize) -> T {
        let wpe = BlockCtx::words_per_elem::<T>() as u32;
        if idx >= h.len {
            self.shared_oob(h.base_word, h.len, idx, false);
            return T::default();
        }
        let word = h.base_word + idx as u32 * wpe;
        if let Some(san) = self.san {
            san.borrow_mut()
                .shared_access(self.tid, word, wpe, false, self.slot(), true);
        }
        self.events.push(Ev::Shared { word, words: wpe });
        self.shared[h.id]
            .data
            .downcast_ref::<Vec<T>>()
            .expect("type")[idx]
    }

    /// Tracked shared write.
    pub fn swrite<T: DeviceCopy>(&mut self, h: SharedHandle<T>, idx: usize, v: T) {
        let wpe = BlockCtx::words_per_elem::<T>() as u32;
        if idx >= h.len {
            self.shared_oob(h.base_word, h.len, idx, true);
            return;
        }
        let word = h.base_word + idx as u32 * wpe;
        if let Some(san) = self.san {
            san.borrow_mut()
                .shared_access(self.tid, word, wpe, true, self.slot(), true);
        }
        self.events.push(Ev::Shared { word, words: wpe });
        self.shared[h.id]
            .data
            .downcast_mut::<Vec<T>>()
            .expect("type")[idx] = v;
    }

    /// Untracked shared read — for accesses whose traffic the kernel
    /// accounts in bulk (e.g. the per-thread heap, where warp-divergence
    /// costing is done analytically). Bounds-checked and visible to the
    /// sanitizer's racecheck/initcheck (but not the perf lints, which
    /// model only tracked traffic).
    pub fn sread_untracked<T: DeviceCopy>(&self, h: SharedHandle<T>, idx: usize) -> T {
        if idx >= h.len {
            self.shared_oob(h.base_word, h.len, idx, false);
            return T::default();
        }
        if let Some(san) = self.san {
            let wpe = BlockCtx::words_per_elem::<T>() as u32;
            san.borrow_mut().shared_access(
                self.tid,
                h.base_word + idx as u32 * wpe,
                wpe,
                false,
                0,
                false,
            );
        }
        self.shared[h.id]
            .data
            .downcast_ref::<Vec<T>>()
            .expect("type")[idx]
    }

    /// Untracked shared write (see [`Lane::sread_untracked`]).
    pub fn swrite_untracked<T: DeviceCopy>(&mut self, h: SharedHandle<T>, idx: usize, v: T) {
        if idx >= h.len {
            self.shared_oob(h.base_word, h.len, idx, true);
            return;
        }
        if let Some(san) = self.san {
            let wpe = BlockCtx::words_per_elem::<T>() as u32;
            san.borrow_mut().shared_access(
                self.tid,
                h.base_word + idx as u32 * wpe,
                wpe,
                true,
                0,
                false,
            );
        }
        self.shared[h.id]
            .data
            .downcast_mut::<Vec<T>>()
            .expect("type")[idx] = v;
    }

    /// Charges `n` scalar-op equivalents to the step.
    pub fn ops(&mut self, n: u64) {
        *self.ops_acc += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(block_dim: usize) -> BlockCtx {
        BlockCtx::new(DeviceSpec::titan_x_maxwell(), 0, 1, block_dim)
    }

    #[test]
    fn shared_alloc_and_rw() {
        let mut b = ctx(32);
        let h = b.alloc_shared::<f32>(64);
        b.step(|l| {
            let t = l.tid();
            l.swrite(h, t, t as f32);
        });
        b.step(|l| {
            let t = l.tid();
            let v = l.sread(h, t);
            assert_eq!(v, t as f32);
        });
        let s = b.take_stats();
        assert_eq!(s.shared_accesses, 64);
        assert_eq!(
            s.shared_conflict_groups, 0,
            "sequential words are conflict-free"
        );
        // two warp groups (1 write + 1 read), each 128 B effective
        assert_eq!(s.shared_eff_bytes, 2 * 128);
    }

    #[test]
    fn bank_conflicts_detected_for_stride_2() {
        let mut b = ctx(32);
        let h = b.alloc_shared::<f32>(64);
        // stride-2 word access: words 0,2,4,...,62 → banks 0,2,...,30 each
        // hit twice → degree 2
        b.step(|l| {
            let t = l.tid();
            l.swrite(h, t * 2, 0.0);
        });
        let s = b.take_stats();
        assert_eq!(s.shared_conflict_groups, 1);
        assert_eq!(s.shared_conflict_cycles, 1);
        assert_eq!(s.shared_eff_bytes, 2 * 128);
    }

    #[test]
    fn broadcast_is_free() {
        let mut b = ctx(32);
        let h = b.alloc_shared::<f32>(64);
        b.step(|l| {
            let _ = l.sread(h, 5); // every lane reads the same word
        });
        let s = b.take_stats();
        assert_eq!(s.shared_conflict_groups, 0);
        assert_eq!(s.shared_eff_bytes, 128);
    }

    #[test]
    fn stride_32_is_worst_case() {
        let mut b = ctx(32);
        let h = b.alloc_shared::<f32>(32 * 32);
        // all lanes hit bank 0 → degree 32
        b.step(|l| {
            let t = l.tid();
            l.swrite(h, t * 32, 1.0);
        });
        let s = b.take_stats();
        assert_eq!(s.shared_conflict_cycles, 31);
        assert_eq!(s.shared_eff_bytes, 32 * 128);
    }

    #[test]
    fn wide_elements_pay_two_lines() {
        let mut b = ctx(32);
        let h = b.alloc_shared::<f64>(32);
        b.step(|l| {
            let t = l.tid();
            l.swrite(h, t, t as f64);
        });
        let s = b.take_stats();
        // 64 words over 32 banks → degree 2 even though "contiguous"
        assert_eq!(s.shared_eff_bytes, 2 * 128);
    }

    #[test]
    fn padded_stride_breaks_conflicts() {
        // the PadMap idiom: word index i + i/32 removes stride-32 conflicts
        let mut b = ctx(32);
        let h = b.alloc_shared::<f32>(32 * 33 + 32);
        b.step(|l| {
            let t = l.tid();
            let logical = t * 32;
            let physical = logical + logical / 32;
            l.swrite(h, physical, 1.0);
        });
        let s = b.take_stats();
        assert_eq!(
            s.shared_conflict_cycles, 0,
            "padding should eliminate conflicts"
        );
    }

    #[test]
    fn multiple_events_per_thread_align_by_slot() {
        let mut b = ctx(32);
        let h = b.alloc_shared::<f32>(128);
        // slot 0: conflict-free; slot 1: full 32-way conflict on bank 0…
        // except only 4 threads issue the second access — degree 4
        b.step(|l| {
            let t = l.tid();
            l.swrite(h, t, 0.0);
            if t < 4 {
                l.swrite(h, t * 32, 0.0);
            }
        });
        let s = b.take_stats();
        assert_eq!(s.shared_conflict_cycles, 3); // degree 4 in slot 1
    }

    #[test]
    fn global_coalesced_vs_strided() {
        let mut b = ctx(32);
        // need a device for buffers — use a standalone device
        let dev = crate::Device::new(DeviceSpec::titan_x_maxwell());
        let buf = dev.alloc::<f32>(4096);
        b.step(|l| {
            let t = l.tid();
            let _ = l.gread(&buf, t); // coalesced: 32 lanes × 4 B = 4 sectors
        });
        let coalesced = b.take_stats();
        assert_eq!(coalesced.global_read_bytes, 4 * 32);

        let mut b2 = ctx(32);
        b2.step(|l| {
            let t = l.tid();
            let _ = l.gread(&buf, t * 32); // stride 128 B: 32 distinct sectors
        });
        let strided = b2.take_stats();
        assert_eq!(strided.global_read_bytes, 32 * 32);
    }

    #[test]
    fn global_reads_and_writes_tracked_separately() {
        let dev = crate::Device::new(DeviceSpec::titan_x_maxwell());
        let a = dev.alloc::<f32>(64);
        let o = dev.alloc::<f32>(64);
        let mut b = ctx(32);
        b.step(|l| {
            let t = l.tid();
            let v = l.gread(&a, t);
            l.gwrite(&o, t, v + 1.0);
        });
        let s = b.take_stats();
        assert_eq!(s.global_read_bytes, 128);
        assert_eq!(s.global_write_bytes, 128);
        assert_eq!(o.get(5), 1.0);
    }

    #[test]
    fn ops_accumulate() {
        let mut b = ctx(64);
        b.step(|l| l.ops(3));
        let s = b.take_stats();
        assert_eq!(s.compute_ops, 3 * 64);
        assert_eq!(s.steps, 1);
    }

    #[test]
    #[should_panic(expected = "shared memory overflow")]
    fn shared_overflow_panics() {
        let mut b = ctx(32);
        let _ = b.alloc_shared::<f32>(48 * 1024 / 4 + 1);
    }

    #[test]
    fn bulk_methods_feed_counters() {
        let mut b = ctx(32);
        b.bulk_global_read(1024);
        b.bulk_global_write(512);
        b.bulk_shared(256);
        b.bulk_ops(10);
        b.bulk_atomics(7);
        let s = b.take_stats();
        assert_eq!(s.global_bytes(), 1536);
        assert_eq!(s.shared_eff_bytes, 256);
        assert_eq!(s.compute_ops, 10);
        assert_eq!(s.atomic_ops, 7);
    }

    #[test]
    fn bulk_shared_with_conflicts_scales_traffic() {
        let mut b = ctx(32);
        b.bulk_shared_with_conflicts(1280, 2.0);
        let s = b.take_stats();
        assert_eq!(s.shared_eff_bytes, 2560);
        assert_eq!(s.shared_conflict_cycles, 10);
    }

    #[test]
    fn untracked_accessors_move_data_without_traffic() {
        let mut b = ctx(32);
        let h = b.alloc_shared::<u32>(64);
        b.step(|l| {
            let t = l.tid();
            l.swrite_untracked(h, t, t as u32 * 3);
            assert_eq!(l.sread_untracked(h, t), t as u32 * 3);
        });
        let s = b.take_stats();
        assert_eq!(s.shared_accesses, 0, "untracked paths must not count");
        assert_eq!(s.shared_eff_bytes, 0);
    }

    #[test]
    fn shared_snapshot_reads_back_block_state() {
        let mut b = ctx(32);
        let h = b.alloc_shared::<f32>(32);
        b.step(|l| {
            let t = l.tid();
            l.swrite(h, t, t as f32);
        });
        let snap = b.shared_snapshot(h);
        assert_eq!(snap.len(), 32);
        assert_eq!(snap[7], 7.0);
    }

    #[test]
    fn lane_indexing_helpers() {
        let mut b = BlockCtx::new(DeviceSpec::titan_x_maxwell(), 3, 8, 64);
        b.step(|l| {
            assert_eq!(l.block_idx(), 3);
            assert_eq!(l.gtid(), 3 * 64 + l.tid());
            assert_eq!(l.grid_threads(), 8 * 64);
            assert_eq!(l.lane_in_warp(32), l.tid() % 32);
        });
    }

    #[test]
    fn partial_warp_handled() {
        let mut b = ctx(40); // 1 full warp + 8 lanes
        let h = b.alloc_shared::<f32>(64);
        b.step(|l| {
            let t = l.tid();
            l.swrite(h, t, 0.0);
        });
        let s = b.take_stats();
        assert_eq!(s.shared_accesses, 40);
        assert_eq!(s.shared_eff_bytes, 2 * 128); // two warp groups
    }

    fn sh(word: u32) -> Ev {
        Ev::Shared { word, words: 1 }
    }

    fn gl(addr: u64, write: bool) -> Ev {
        Ev::Global {
            addr,
            bytes: 4,
            write,
        }
    }

    /// Logs two 32-lane warps, lane `t` of each logging `a(t)` and `b(t)`,
    /// and asks whether the second translates the first.
    fn translated(a: impl Fn(usize) -> Vec<Ev>, b: impl Fn(usize) -> Vec<Ev>) -> bool {
        let (mut events, mut starts) = (Vec::new(), Vec::new());
        for t in 0..64 {
            starts.push(events.len());
            events.extend(if t < 32 { a(t) } else { b(t - 32) });
        }
        starts.push(events.len());
        translates(&events, &starts[..=32], &starts[32..])
    }

    /// Lane `t` reads shared word `word + 2t`, then global `addr + 4t`.
    fn warp(word: u32, addr: u64) -> impl Fn(usize) -> Vec<Ev> + Copy {
        move |t| vec![sh(word + 2 * t as u32), gl(addr + 4 * t as u64, false)]
    }

    #[test]
    fn translation_check_accepts_constant_offsets() {
        let base = warp(100, 4096);
        assert!(translated(base, base));
        // any shared-word offset, global offsets of whole sectors, both signs
        assert!(translated(base, warp(137, 4096 + 3 * 32)));
        assert!(translated(base, warp(1, 4096 - 5 * 32)));
        // lanes may log different event counts when partners agree
        let ragged = |word: u32, addr: u64| {
            move |t: usize| match t % 3 {
                0 => vec![],
                1 => vec![gl(addr + 8 * t as u64, true)],
                _ => vec![sh(word + t as u32), sh(word), gl(addr, false)],
            }
        };
        assert!(translated(ragged(0, 512), ragged(9, 1024)));
        assert!(translated(|_| vec![], |_| vec![]));
    }

    #[test]
    fn translation_check_rejects_everything_else() {
        let base = warp(100, 4096);
        let edit = |lane: usize, f: fn(&mut Vec<Ev>)| {
            move |t| {
                let mut e = base(t);
                if t == lane {
                    f(&mut e);
                }
                e
            }
        };
        // global offsets that are not whole sectors
        assert!(!translated(base, warp(100, 4096 + 4)));
        assert!(!translated(base, warp(100, 4096 - 48)));
        // two offsets in one warp
        assert!(!translated(base, |t| warp(
            100 + 64 * (t / 16) as u32,
            4096
        )(t)));
        assert!(!translated(base, |t| warp(
            100,
            4096 + 32 * (t / 16) as u64
        )(t)));
        // a lane gains or drops an access
        assert!(!translated(base, edit(5, |e| e.push(sh(0)))));
        assert!(!translated(base, edit(5, |e| _ = e.pop())));
        // the same log, split differently between the lanes
        let one = |t: usize| vec![sh(t as u32)];
        assert!(!translated(one, |t| match t {
            0 => vec![sh(0), sh(1)],
            1 => vec![],
            _ => one(t),
        }));
        // a read becomes a write, a shared access a global one
        assert!(!translated(base, edit(7, |e| e[1] = gl(4096 + 28, true))));
        assert!(!translated(base, edit(7, |e| e[0] = gl(0, false))));
        assert!(!translated(base, edit(7, |e| e.swap(0, 1))));
        // a different width
        assert!(!translated(
            base,
            edit(3, |e| e[0] = Ev::Shared {
                word: 106,
                words: 2
            })
        ));
        assert!(!translated(
            base,
            edit(3, |e| e[1] = Ev::Global {
                addr: 4108,
                bytes: 8,
                write: false
            })
        ));
    }

    #[test]
    fn translated_warps_keep_exact_counters() {
        // Warp 1 reads 33 elements past warp 0: 132 B, not whole sectors,
        // so it is replayed (5 sectors) and becomes the reference. Warp 2
        // reads 64 elements (8 sectors) past warp 1 and reuses its
        // counters. Each warp writes shared words at stride 2 from its own
        // base: degree 2 in every warp, whatever the base.
        let dev = crate::Device::new(DeviceSpec::titan_x_maxwell());
        let buf = dev.alloc::<f32>(256);
        let mut b = ctx(96);
        let h = b.alloc_shared::<f32>(256);
        b.step(|l| {
            let (w, t) = (l.tid() / 32, l.tid() % 32);
            let _ = l.gread(&buf, [0, 33, 97][w] + t);
            l.swrite(h, [0, 65, 3][w] + 2 * t, 0.0);
        });
        let s = b.take_stats();
        assert_eq!(s.global_sectors, 4 + 5 + 5);
        assert_eq!(s.global_accesses, 96);
        assert_eq!(s.shared_conflict_groups, 3);
        assert_eq!(s.shared_eff_bytes, 3 * 2 * 128);
    }
}
